"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload audit-replay --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the
separate traced run, which prints the per-layer metrics.  Both set up
the workload's inputs from ``--seed``, run timed operations for about
``--seconds`` seconds and check every output.  Times are reported at
a reference host speed: host-speed probes between the steps of a run
give the factors (see ``HostSpeed``), and the record keeps the raw
values beside the scaled ones.  Stdout ends with a
human-readable table, one ``{"record": ...}`` JSON line (parameters,
host fingerprint, git revision, per-metric median/quartiles/sample
count; ``compare.py`` reads it), and as the very last line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

A wrong output prints ``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import host, tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    PROBE_REFERENCE,
    WORKLOADS,
    BenchError,
    CheckFailed,
    load_spec,
    host_probe,
    run_forked,
)

WORK_ROOT = ROOT / ".perfbench-work"

# Fewest timed operations a run makes, however short ``--seconds`` is.
# A traced run alternates untraced and traced operations, in pairs.
MIN_OPS = 3
MIN_TRACED_PAIRS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "traces_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "trace_ms.p50": "ms",
    "trace_ms.p95": "ms",
}


def per_layer_units(name: str) -> str:
    if name.endswith("_s") or name.startswith("self_s."):
        return "s"
    if name.endswith("_ratio") or name == "failed_ratio":
        return "ratio"
    if name.endswith("_kb"):
        return "KiB"
    if name.endswith(".mb"):
        return "MB"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def p95(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    params: dict | None = None,
    work_root: Path = WORK_ROOT,
) -> dict:
    """Set up, time and check one workload; return its run record.

    ``params`` defaults to the workload's parameters in
    ``workloads.json``; the benchmark's own tests pass smaller ones.
    """
    if params is None:
        params = load_spec()["workloads"][name]["params"]
    work = work_root / f"{name}-{seed}-{int(trace)}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = WORKLOADS[name](name=name, params=params, seed=seed, work=work)
    checks: list[str] = []
    try:
        # Set-up: several times for a steady set-up time (once, traced,
        # in a traced run).  Equal seeds must give equal corpora.
        reps = 1 if trace else params["setup_reps"]
        speed = HostSpeed()
        setups = []
        for rep in range(reps):
            setups.append(workload.setup_rep(rep, traced=trace))
            speed.probe()
        digests = {setup["digest"] for setup in setups}
        if len(digests) != 1:
            raise CheckFailed(f"one seed gave {len(digests)} different corpora")
        checks.append(f"{reps} set-ups of seed {seed} give one corpus digest")
        workload.keep_rep(0)
        checks += workload.check_before()

        records: list[dict] = []
        start = time.perf_counter()
        index = 0
        while True:
            elapsed = time.perf_counter() - start
            if trace:
                done = index >= 2 * MIN_TRACED_PAIRS and index % 2 == 0
            else:
                done = index >= MIN_OPS
            if done and elapsed >= seconds:
                break
            workload.before_op(index)
            record = workload.op(index, traced=trace and index % 2 == 1)
            workload.check_op(index, record)
            records.append(record)
            speed.probe()
            index += 1
        checks += workload.check_after(records)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(record["traces"] for record in records)
    failed = sum(record["failed"] for record in records)
    result = {
        "workload": name,
        "seed": seed,
        "corpus_seed": workload.corpus_seed,
        "skipped_seeds": workload.skipped_seeds,
        "seconds": seconds,
        "trace": int(trace),
        "params": params,
        "fingerprint": host.fingerprint(),
        "git_rev": host.git_rev(ROOT),
        "operations": len(records),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "executor": records[0].get("executor"),
    }
    # Set-up generates with two processes; an operation runs in the
    # workload's probe shape (see ``workloads.host_probe``).
    shape = params["probe"]
    factors = {
        "setup": speed.factor("pair_wall_s"),
        "wall": speed.factor(f"{shape}_wall_s"),
        "cpu": speed.factor(f"{shape}_cpu_s"),
    }
    if trace:
        result.update(_traced_metrics(records, setups[0], failed / attempted, factors["wall"]))
    else:
        result["metrics"] = _end_to_end(records, setups, factors)
        result["raw_metrics"] = _end_to_end(records, setups, dict.fromkeys(factors, 1.0))
    result["host_speed"] = {
        "factors": factors,
        "probes": {kind: summary([p[kind] for p in speed.probes]) for kind in PROBE_REFERENCE},
    }
    return result


class HostSpeed:
    """Host-speed probes taken between a run's steps.

    See ``workloads.host_probe``.  A run's factor for one probe time
    is its reference value over the run's median: a time multiplied by
    it is the time at the reference host speed.  The host drifts over
    minutes, so one factor per run is enough, and the median over all
    of a run's probes averages out the probes' own noise.
    """

    def __init__(self) -> None:
        self.probes = [run_forked(host_probe)]

    def probe(self) -> None:
        self.probes.append(run_forked(host_probe))

    def factor(self, kind: str) -> float:
        return PROBE_REFERENCE[kind] / statistics.median(p[kind] for p in self.probes)


def _end_to_end(records: list[dict], setups: list[dict], factors: dict) -> dict:
    wall = factors["wall"]
    if "per_trace_s" in records[0]:
        # Streaming: each trace's consume (plus the snapshot it triggers).
        latencies = [s * 1000 * wall for record in records for s in record["per_trace_s"]]
    else:
        # Batch: a trace's findings exist when its audit's report does.
        latencies = [record["wall_s"] * 1000 * wall for record in records]
    metrics = {
        "setup_s": summary([setup["setup_s"] * factors["setup"] for setup in setups]),
        "traces_per_s": summary([r["traces"] / (r["wall_s"] * wall) for r in records]),
        "cpu_s": summary([record["cpu_s"] * factors["cpu"] for record in records]),
        "peak_rss_mb": summary([record["rss_mb"] for record in records]),
        "trace_ms.p50": summary(latencies),
        "trace_ms.p95": {"value": p95(latencies), "n": len(latencies)},
    }
    for name, entry in metrics.items():
        entry["unit"] = END_TO_END_UNITS[name]
    return metrics


def _traced_metrics(
    records: list[dict], setup: dict, failed_ratio: float, factor: float
) -> dict:
    untraced = records[0::2]
    traced = records[1::2]
    for plain, probe in zip(untraced, traced):
        if plain["counts"] != probe["counts"]:
            raise CheckFailed(
                f"traced counts {probe['counts']} differ from untraced {plain['counts']}"
            )
    totals = tracing.merge_totals([record["totals"] for record in traced])
    values = tracing.layer_metrics(totals, len(traced))
    requests = statistics.mean(record["counts"]["requests"] for record in traced)
    if values["http.requests"] != requests:
        raise CheckFailed(
            f"traced http.requests {values['http.requests']} != program's {requests}"
        )
    values.update(tracing.setup_layer_metrics(setup["totals"]))
    values["failed_ratio"] = failed_ratio
    values["trace.overhead_ratio"] = statistics.median(
        r["wall_s"] for r in traced
    ) / statistics.median(r["wall_s"] for r in untraced)
    metrics = {}
    for name, value in values.items():
        unit = per_layer_units(name)
        # Layer times, like operation wall times, are at the reference speed.
        metrics[name] = {"value": value * factor if unit == "s" else value, "unit": unit}
    return {
        "metrics": metrics,
        "count_checks": "traced request, flow-observation and key counts == untraced",
    }


def _print_table(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} "
          f"corpus_seed={record['corpus_seed']} "
          f"ops={record['operations']} trace={record['trace']} "
          f"executor={record['executor']} rev={record['git_rev']}")
    for skipped in record["skipped_seeds"]:
        note = (f"corpus seed {skipped['seed']} skipped, the program's "
                f"generator fails on it: {skipped['error']}")
        print(f"  {note}")
        print(f"warning: {note}", file=sys.stderr)
    raw = record.get("raw_metrics", {})
    for name, entry in record["metrics"].items():
        line = f"  {name:28s} {entry['value']:14.6g} {entry['unit']}"
        if "q1" in entry:
            line += f"  (n={entry['n']}, q1={entry['q1']:.6g}, q3={entry['q3']:.6g})"
        elif "n" in entry:
            line += f"  (n={entry['n']})"
        if name in raw and raw[name]["value"] != entry["value"]:
            line += f"  raw {raw[name]['value']:.6g}"
        print(line)
    speed = record["host_speed"]
    for kind, probe in speed["probes"].items():
        print(f"  host probe {kind:14s} {probe['value']:.4g} s (n={probe['n']}, "
              f"q1={probe['q1']:.4g}, q3={probe['q3']:.4g})")
    factors = ", ".join(f"{name} x{value:.4g}" for name, value in speed["factors"].items())
    print(f"  to the reference speed: {factors}")
    for check in record["checks"]:
        print(f"  check ok: {check}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_table(record)
            records.append(record)
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for name, entry in record["metrics"].items():
            metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({"record": records if len(records) > 1 else records[0]}))
    print(json.dumps({
        "correct": True,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0


def _stop(signum, frame) -> None:
    """SIGTERM/SIGINT: unwind, so the running child is killed and waited
    for and the work directory removed (see ``run_forked``)."""
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    try:
        raise SystemExit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        raise SystemExit(2)
