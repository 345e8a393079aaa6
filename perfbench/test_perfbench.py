"""Tests of the benchmark itself: its declaration, inputs and checks.

Run from the repository root with
``PYTHONPATH=src python -m pytest perfbench -q``.  The smoke tests run
every workload end to end on a one-service corpus, untraced and
traced, so they take a few seconds each.
"""

from __future__ import annotations

import json
import re

import pytest

from perfbench import compare, host, run, tracing
from perfbench.workloads import (
    CORPUS_SEED_STEP,
    CheckFailed,
    _generate,
    choose_corpus_seed,
    corpus_digest,
    load_spec,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = load_spec()

TINY_CORPUS = {"scale": 0.002, "profile": "light", "services": ["tiktok"], "impair": None}


def tiny_params(name: str) -> dict:
    params = json.loads(json.dumps(SPEC["workloads"][name]["params"]))
    params["corpus"] = dict(TINY_CORPUS, impair=params["corpus"]["impair"])
    params["setup_reps"] = 2
    return params


def per_layer_names() -> list[str]:
    empty = {"busy": {}, "self": {}, "counts": {}, "maxima": {}}
    names = [*tracing.layer_metrics(empty, 1), *tracing.setup_layer_metrics(empty)]
    return names + ["failed_ratio", "trace.overhead_ratio"]


class TestDeclaration:
    def test_benchmark_json_keys(self):
        assert set(BENCHMARK) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
        }
        assert len((run.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024

    def test_command_and_paths(self):
        command = BENCHMARK["command"]
        assert 1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)
        assert command[0] == "python3"
        assert 1 <= len(BENCHMARK["paths"]) <= 16
        for path in BENCHMARK["paths"]:
            assert PATH.match(path) and not path.startswith("/") and ".." not in path
            assert (run.ROOT / path).is_dir()
        for part in command[1:]:
            if "/" in part:
                assert any(part.startswith(path + "/") for path in BENCHMARK["paths"])
        assert isinstance(BENCHMARK["run_seconds"], int)
        assert 1 <= BENCHMARK["run_seconds"] <= 60

    def test_workloads(self):
        workloads = BENCHMARK["workloads"]
        assert 2 <= len(workloads) <= 8
        for workload in workloads:
            assert set(workload) == {"name", "why"}
            assert "\n" not in workload["why"] and len(workload["why"]) <= 200
            assert workload["why"] == SPEC["workloads"][workload["name"]]["why"]
        assert [w["name"] for w in workloads] == list(SPEC["workloads"])
        assert list(SPEC["workloads"]) == list(run.WORKLOADS)

    def test_metrics(self):
        end_to_end = BENCHMARK["end_to_end"]
        assert 1 <= len(end_to_end) <= 16
        for metric in end_to_end:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert metric["better"] in ("lower", "higher")
            assert 0 < metric["bound"] <= 0.25
            assert metric["unit"] == run.END_TO_END_UNITS[metric["name"]]
        setup = next(m for m in end_to_end if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in end_to_end)
        per_layer = BENCHMARK["per_layer"]
        assert 1 <= len(per_layer) <= 128
        for metric in per_layer:
            assert set(metric) == {"name", "unit", "better"}
            assert metric["unit"] == run.per_layer_units(metric["name"])

    def test_names(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        units = [m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        assert all(UNIT.match(unit) for unit in units)

    def test_declared_metrics_are_the_printed_ones(self):
        assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)
        assert [m["name"] for m in BENCHMARK["per_layer"]] == per_layer_names()

    def test_layer_map_names_real_metrics(self):
        printed = set(per_layer_names()) | set(run.END_TO_END_UNITS)
        for row in SPEC["layers"]:
            assert set(row["metrics"]) <= printed, row["layer"]
            assert set(row["moves"]) <= set(run.END_TO_END_UNITS), row["layer"]
            assert set(row["mostly_on"] + row["little_on"]) <= set(SPEC["workloads"])


class TestInputs:
    def test_seed_determines_corpus(self, tmp_path):
        params = tiny_params("audit-replay")
        digests = []
        for index, seed in enumerate((5, 5, 6)):
            directory = tmp_path / str(index)
            _generate(params, seed, directory)
            digests.append(corpus_digest(directory))
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]

    @pytest.mark.parametrize("seed", [3, 52, 102])
    def test_corpus_seed_is_the_first_the_generator_accepts(self, seed):
        from repro.services.payloads import PayloadFactory

        choice = choose_corpus_seed(seed)
        PayloadFactory(seed=choice["corpus_seed"])
        tried = [skipped["seed"] for skipped in choice["skipped"]]
        tried.append(choice["corpus_seed"])
        assert tried == [seed + k * CORPUS_SEED_STEP for k in range(len(tried))]
        for skipped in choice["skipped"]:
            with pytest.raises(ValueError, match="registered for"):
                PayloadFactory(seed=skipped["seed"])
        assert choose_corpus_seed(seed) == choice

    def test_every_trace_target_exists(self, tmp_path):
        installed = tracing.Installed(tracing.Tracer(tmp_path))
        try:
            assert installed.missing == []
        finally:
            installed.remove()


class TestSmoke:
    @pytest.mark.parametrize("name", list(run.WORKLOADS))
    @pytest.mark.parametrize("trace", [False, True])
    def test_workload_runs_and_checks(self, tmp_path, name, trace):
        record = run.run_workload(
            name, seed=3, seconds=0, trace=trace,
            params=tiny_params(name), work_root=tmp_path,
        )
        assert record["failed"] == 0 and record["attempted"] > 0
        metrics = record["metrics"]
        if trace:
            assert list(metrics) == per_layer_names()
            assert metrics["trace.overhead_ratio"]["value"] > 0
        else:
            assert list(metrics) == list(run.END_TO_END_UNITS)
            assert all(entry["value"] > 0 for entry in metrics.values())
        assert not list(tmp_path.iterdir())

    def test_wrong_output_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            run.WORKLOADS["audit-replay"], "_in_memory_child", lambda self: "0" * 64
        )
        with pytest.raises(CheckFailed):
            run.run_workload(
                "audit-replay", seed=3, seconds=0, trace=False,
                params=tiny_params("audit-replay"), work_root=tmp_path,
            )


class TestCompare:
    def record(self, **fingerprint):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
        return {"audit-replay": {
            "workload": "audit-replay",
            "fingerprint": {**host.fingerprint(), **fingerprint},
            "metrics": metrics,
        }}

    def test_refuses_across_hosts(self):
        status, lines = compare.compare(self.record(), self.record(cpu_model="other"))
        assert status == 2 and "different hosts" in lines[0]

    def test_compares_on_one_host(self):
        status, lines = compare.compare(self.record(), self.record())
        assert status == 0 and len(lines) == 1 + len(BENCHMARK["end_to_end"])

    def test_reads_run_output(self, tmp_path):
        record = self.record()["audit-replay"]
        path = tmp_path / "run.txt"
        path.write_text("table\n" + json.dumps({"record": record}) + "\n{}\n")
        assert compare.read_records(path) == {"audit-replay": record}
