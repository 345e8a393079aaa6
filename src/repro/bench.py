"""Recorded benchmark trajectory — the machine-readable perf record.

``repro bench`` (or ``tools/bench_record.py``) runs the benchmark
suite and appends one ``BENCH_<n>.json`` entry to the trajectory:
``BENCH_0.json`` is the oldest recording, ``BENCH_<n>`` the newest,
so the sequence of files *is* the performance history of the repo and
every future change can be held against it.

Each entry is a JSON document with a ``workloads`` list; every
workload record carries the schema fields in
:data:`BENCH_SCHEMA_FIELDS` (documented in ``docs/performance.md``):

* ``workload`` — which suite member ran (``decode``, ``stream``,
  ``audit``, ``audit-parallel``, ``audit-incremental``);
* ``scale`` / ``profile`` / ``jobs`` / ``repeats`` — the knobs, so
  entries are only ever compared like-for-like;
* ``wall_time_s`` — best-of-``repeats`` wall time;
* ``peak_rss_kb`` — the workload process's peak resident set
  (each workload runs in its own child process so one workload's
  allocations cannot inflate another's reading);
* ``throughput`` / ``throughput_unit`` — MB/s of PCAP bytes decoded,
  or audit traces/s;
* ``git_rev`` — the revision the numbers were measured at
  (``-dirty`` when the working tree had uncommitted changes).

When a previous entry exists, the new document embeds a
``compared_to`` block with per-workload throughput ratios against the
most recent entry that ran the same workload with the same knobs.
When both audit workloads run, the document also carries
``audit_parallel_vs_sequential`` — the in-entry ratio of the parallel
audit's throughput to the sequential audit's, the number the
``--min-parallel-efficiency`` gate holds.  When the
``audit-incremental`` workload runs, the document carries
``audit_incremental_vs_cold`` — the in-entry ratio of the cold run's
wall time to the warm incremental re-audit's, the number the
``--min-incremental-speedup`` gate holds.

Audit workloads run under stage profiling
(:mod:`repro.pipeline.profile`): the best run's stage attribution is
written beside the entry as ``BENCH_<n>.profile.json``, so every
recorded throughput number comes with the breakdown that explains it.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import subprocess
import sys
import time
from pathlib import Path

from repro import CorpusConfig, DiffAudit
from repro.capture.decrypt import decrypt_mobile_artifact
from repro.fsutil import atomic_write_text
from repro.capture.pcapdroid import PcapdroidCapture
from repro.model import Platform
from repro.pipeline.profile import validate_profile
from repro.services.generator import TrafficGenerator

BENCH_VERSION = 1
BENCH_GLOB = "BENCH_*.json"

#: The fields every workload record must carry — the on-disk schema
#: contract checked by the ``S-BENCH-DOC`` lint rule against
#: ``docs/performance.md`` and by the perf-smoke CI job.
BENCH_SCHEMA_FIELDS = (
    "workload",
    "scale",
    "profile",
    "jobs",
    "repeats",
    "wall_time_s",
    "peak_rss_kb",
    "throughput",
    "throughput_unit",
    "git_rev",
)

DEFAULT_SCALE = 0.02
QUICK_SCALE = 0.005
DEFAULT_REPEATS = 3
QUICK_REPEATS = 1


class BenchError(RuntimeError):
    """Raised when a benchmark entry cannot be recorded or validated."""


# The record fields that must agree for two entries to be comparable.
_COMPARE_KNOBS = ("workload", "scale", "profile", "jobs")


def git_revision(root: Path | None = None) -> str:
    """``<short-rev>[-dirty]`` for the tree the measured code came from.

    Defaults to the directory holding this module (the source
    checkout), not the benchmark output directory — the revision
    describes the *code*, wherever the numbers land.
    """
    cwd = Path(root) if root is not None else Path(__file__).resolve().parent
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{rev}-dirty" if status else rev


def _now() -> int:
    """The one sanctioned wall-clock read in this codebase.

    Everything the pipeline *outputs* is derived from the corpus seed;
    the only thing allowed to know the real date is the benchmark
    trajectory, whose entries are historical records stamped with when
    they were taken.  Tests inject time by monkeypatching this seam.
    """
    return int(time.time())  # repro-lint: disable=D-NOW — BENCH entries are dated historical records; this seam is the single sanctioned call site


def _peak_rss_kb() -> int:
    """Peak resident set of *this* process, normalized to kilobytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        peak //= 1024
    return int(peak)


# ----------------------------------------------------------------------
# Workloads (each runs inside its own child process)
# ----------------------------------------------------------------------


def _mobile_corpus(config: CorpusConfig) -> list[tuple[bytes, str]]:
    """Capture every mobile trace as archived (pcap bytes, keylog text)."""
    generator = TrafficGenerator(config)
    capture = PcapdroidCapture()
    corpus: list[tuple[bytes, str]] = []
    for trace in generator.generate_corpus():
        if trace.platform is not Platform.MOBILE:
            continue
        artifact = capture.capture(trace)
        corpus.append((artifact.pcap_bytes(), artifact.keylog_text()))
    return corpus


def _decode_workload(scale: float, profile: str, repeats: int) -> dict:
    """Cold-path decode: PCAP → frames → TCP → TLS → HTTP requests.

    Setup (generation + capture encryption) is untimed; the timed loop
    is exactly the per-trace work ``audit --from-artifacts`` does to a
    mobile corpus.  Throughput is MB of archived PCAP bytes decoded
    per second.
    """
    corpus = _mobile_corpus(CorpusConfig(scale=scale, profile=profile))
    if not corpus:
        raise BenchError("decode workload produced no mobile traces")
    total_bytes = sum(len(pcap) for pcap, _ in corpus)
    best = float("inf")
    requests = 0
    for _ in range(repeats):
        start = time.perf_counter()
        requests = 0
        for pcap_bytes, keylog_text in corpus:
            requests += len(decrypt_mobile_artifact(pcap_bytes, keylog_text).requests)
        best = min(best, time.perf_counter() - start)
    if requests == 0:
        raise BenchError("decode workload recovered no requests")
    return {
        "wall_time_s": round(best, 4),
        "throughput": round(total_bytes / best / 1e6, 3),
        "throughput_unit": "MB/s",
        "detail": {
            "traces": len(corpus),
            "pcap_bytes": total_bytes,
            "requests_recovered": requests,
        },
    }


def _stream_workload(scale: float, profile: str, repeats: int) -> dict:
    """Streaming decode: the same corpus and the same incremental
    decoder as ``decode``, fed one packet at a time under the default
    eviction policy instead of none.  Holds eviction's cost against
    ``decode``, with per-workload peak RSS showing the bounded-memory
    trade."""
    from repro.net.pcap import PcapReader
    from repro.net.tls import KeyLog
    from repro.stream.incremental import IncrementalTraceDecoder

    corpus = _mobile_corpus(CorpusConfig(scale=scale, profile=profile))
    if not corpus:
        raise BenchError("stream workload produced no mobile traces")
    keylogs = [KeyLog.from_text(text) for _, text in corpus]
    total_bytes = sum(len(pcap) for pcap, _ in corpus)
    best = float("inf")
    requests = 0
    for _ in range(repeats):
        start = time.perf_counter()
        requests = 0
        for (pcap_bytes, _), keylog in zip(corpus, keylogs):
            decoder = IncrementalTraceDecoder(keylog)
            reader = PcapReader(pcap_bytes)
            for record in reader.iter_packets():
                decoder.feed(record.timestamp, record.data)
            requests += len(decoder.finish().requests)
            reader.close()
        best = min(best, time.perf_counter() - start)
    if requests == 0:
        raise BenchError("stream workload recovered no requests")
    return {
        "wall_time_s": round(best, 4),
        "throughput": round(total_bytes / best / 1e6, 3),
        "throughput_unit": "MB/s",
        "detail": {
            "traces": len(corpus),
            "pcap_bytes": total_bytes,
            "requests_recovered": requests,
        },
    }


def _audit_incremental_workload(scale: float, profile: str, repeats: int) -> dict:
    """Warm incremental re-audit of an unchanged replayed corpus.

    Setup (untimed loop-wise): generate an artifacts corpus, then one
    cold ``audit --from-artifacts --cache-dir`` run that populates the
    classification store *and* the per-unit result cache — its wall
    time rides along in ``detail`` as the in-entry baseline the
    ``--min-incremental-speedup`` gate divides by.  Timed: the warm
    incremental re-audit of the unchanged corpus, best-of-``repeats``.
    Every warm run must perform zero per-unit recomputations and
    export a report byte-identical to the cold run's — a violation is
    a ``BenchError``, not a slow number.
    """
    import tempfile

    from repro.pipeline.engine import generate_corpus_artifacts
    from repro.reporting.export import result_to_json

    config = CorpusConfig(scale=scale, profile=profile)
    with tempfile.TemporaryDirectory(prefix="repro-bench-incr-") as tmp:
        artifacts = Path(tmp) / "artifacts"
        cache = Path(tmp) / "cache"
        traces = generate_corpus_artifacts(config, artifacts)
        if not traces:
            raise BenchError("audit-incremental workload produced no traces")

        def audit() -> DiffAudit:
            return DiffAudit(config=config, replay=artifacts, cache_dir=cache)

        start = time.perf_counter()
        cold_result, _ = audit().run_profiled()
        cold_wall = time.perf_counter() - start
        cold_json = result_to_json(cold_result)

        best = float("inf")
        best_profile: dict = {}
        hits = 0
        for _ in range(repeats):
            start = time.perf_counter()
            warm_result, warm_profile = audit().run_profiled()
            elapsed = time.perf_counter() - start
            engine_profile = warm_profile.get("engine", {})
            hits = int(engine_profile.get("unit_hits", 0))
            misses = int(engine_profile.get("unit_misses", -1))
            if misses != 0:
                raise BenchError(
                    "warm incremental run recomputed "
                    f"{misses} unit(s) on an unchanged corpus"
                )
            if result_to_json(warm_result) != cold_json:
                raise BenchError(
                    "warm incremental run diverged from the cold run"
                )
            if elapsed < best:
                best = elapsed
                best_profile = warm_profile
        return {
            "wall_time_s": round(best, 4),
            "throughput": round(traces / best, 3),
            "throughput_unit": "traces/s",
            "profile": best_profile,
            "detail": {
                "traces": traces,
                "cold_wall_time_s": round(cold_wall, 4),
                "unit_hits": hits,
                "unit_misses": 0,
            },
        }


def _audit_workload(scale: float, profile: str, jobs: int, repeats: int) -> dict:
    """End-to-end audit wall time (generate → decode → classify → audit).

    Runs under stage profiling; the best run's profile document rides
    back to the parent under the ``profile`` key so ``run_bench`` can
    record it beside the entry.
    """
    config = CorpusConfig(scale=scale, profile=profile)
    traces = sum(
        len(TrafficGenerator(config).trace_units(spec))
        for spec in config.service_specs()
    )
    best = float("inf")
    best_profile: dict = {}
    for _ in range(repeats):
        start = time.perf_counter()
        _, stage_profile = DiffAudit(config, jobs=jobs).run_profiled()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            best_profile = stage_profile
    return {
        "wall_time_s": round(best, 4),
        "throughput": round(traces / best, 3),
        "throughput_unit": "traces/s",
        "profile": best_profile,
        "detail": {"traces": traces},
    }


def _child_entry(target, args: tuple, conn) -> None:
    """Child-process wrapper: run the workload, report payload + RSS."""
    try:
        payload = target(*args)
        payload["peak_rss_kb"] = _peak_rss_kb()
        conn.send(payload)
    # repro-lint: disable=X-BARE-EXCEPT — child-process boundary: ship ANY failure to the parent before dying, then re-raise unchanged
    except BaseException as exc:  # surface the failure in the parent
        conn.send({"error": f"{type(exc).__name__}: {exc}"})
        raise
    finally:
        conn.close()


def _run_isolated(target, args: tuple) -> dict:
    """Run one workload in a fresh child so peak RSS is per-workload."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        context = multiprocessing.get_context()
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child_entry, args=(target, args, sender))
    process.start()
    sender.close()
    try:
        payload = receiver.recv()
    except EOFError as exc:
        raise BenchError(f"benchmark worker died without reporting: {exc}") from exc
    finally:
        process.join()
        receiver.close()
    if "error" in payload:
        raise BenchError(f"benchmark workload failed: {payload['error']}")
    return payload


# ----------------------------------------------------------------------
# Trajectory files
# ----------------------------------------------------------------------


def bench_entries(root: Path) -> list[tuple[int, Path]]:
    """Existing ``BENCH_<n>.json`` files, ordered by index."""
    return sorted(
        (int(suffix), path)
        for path in Path(root).glob(BENCH_GLOB)
        if (suffix := path.stem.split("_", 1)[1]).isdigit()
    )


def load_entry(path: Path) -> dict:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "workloads" not in document:
        raise BenchError(f"{path} is not a benchmark entry (no 'workloads' key)")
    return document


def validate_entry(document: dict) -> None:
    """Schema check: every workload record carries every schema field."""
    for record in document.get("workloads", []):
        missing = [field for field in BENCH_SCHEMA_FIELDS if field not in record]
        if missing:
            raise BenchError(
                f"workload record {record.get('workload')!r} is missing "
                f"schema field(s): {', '.join(missing)}"
            )


def compare_entries(current: dict, previous: dict) -> dict:
    """Per-workload throughput/wall-time ratios vs a previous entry.

    Only like-for-like records (same workload, scale, profile, jobs)
    are compared; a quick CI entry never gets held against a
    full-scale recording.
    """
    ratios: dict[str, dict] = {}
    for record in current.get("workloads", []):
        for old in previous.get("workloads", []):
            if all(
                old.get(field) == record.get(field) for field in _COMPARE_KNOBS
            ):
                if old.get("throughput") and record.get("throughput"):
                    ratios[record["workload"]] = {
                        "throughput_speedup": round(
                            record["throughput"] / old["throughput"], 3
                        ),
                        "wall_time_ratio": round(
                            record["wall_time_s"] / old["wall_time_s"], 3
                        )
                        if old.get("wall_time_s")
                        else None,
                    }
                break
    return ratios


def run_bench(
    root: Path,
    scale: float = DEFAULT_SCALE,
    profile: str = "standard",
    jobs: int = 2,
    repeats: int = DEFAULT_REPEATS,
    workloads: tuple[str, ...] = (
        "decode",
        "stream",
        "audit",
        "audit-parallel",
        "audit-incremental",
    ),
) -> tuple[Path, dict]:
    """Run the suite, write the next ``BENCH_<n>.json``, return both."""
    root = Path(root)
    rev = git_revision()
    records: list[dict] = []
    profiles: dict[str, dict] = {}
    for name in workloads:
        if name == "decode":
            payload = _run_isolated(_decode_workload, (scale, profile, repeats))
            knobs = {"jobs": 1}
        elif name == "stream":
            payload = _run_isolated(_stream_workload, (scale, profile, repeats))
            knobs = {"jobs": 1}
        elif name == "audit":
            payload = _run_isolated(_audit_workload, (scale, profile, 1, repeats))
            knobs = {"jobs": 1}
        elif name == "audit-parallel":
            payload = _run_isolated(_audit_workload, (scale, profile, jobs, repeats))
            knobs = {"jobs": jobs}
        elif name == "audit-incremental":
            payload = _run_isolated(
                _audit_incremental_workload, (scale, profile, repeats)
            )
            knobs = {"jobs": 1}
        else:
            raise BenchError(f"unknown workload {name!r}")
        stage_profile = payload.pop("profile", None)
        if stage_profile:
            stage_profile["workload"] = name
            profiles[name] = stage_profile
        detail = payload.pop("detail", {})
        record = {
            "workload": name,
            "scale": scale,
            "profile": profile,
            "repeats": repeats,
            **knobs,
            **payload,
            "git_rev": rev,
        }
        record["detail"] = detail
        records.append(record)

    entries = bench_entries(root)
    index = entries[-1][0] + 1 if entries else 0
    document: dict = {
        "version": BENCH_VERSION,
        "git_rev": rev,
        "recorded_unix": _now(),
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "workloads": records,
    }
    # In-entry parallel efficiency: parallel audit throughput over the
    # sequential audit's, measured in the same entry on the same host —
    # the one number that must not dip below 1.0 for --jobs to be worth
    # defaulting on.
    sequential = next((r for r in records if r["workload"] == "audit"), None)
    parallel = next(
        (r for r in records if r["workload"] == "audit-parallel"), None
    )
    if sequential and parallel and sequential.get("throughput"):
        document["audit_parallel_vs_sequential"] = round(
            parallel["throughput"] / sequential["throughput"], 3
        )
    # In-entry incremental speedup: the warm O(delta) re-audit's wall
    # time against the cold run measured in the same workload on the
    # same corpus — the number --min-incremental-speedup holds.
    incremental = next(
        (r for r in records if r["workload"] == "audit-incremental"), None
    )
    if incremental and incremental.get("wall_time_s"):
        cold_wall = incremental.get("detail", {}).get("cold_wall_time_s")
        if cold_wall:
            document["audit_incremental_vs_cold"] = round(
                cold_wall / incremental["wall_time_s"], 3
            )
    # Baseline = the most recent entry with at least one like-for-like
    # record, not blindly the newest file: an interleaved --quick CI
    # entry must not disarm comparisons for full-scale recordings.
    for _, previous_path in reversed(entries):
        ratios = compare_entries(document, load_entry(previous_path))
        if ratios:
            document["compared_to"] = {"file": previous_path.name, **ratios}
            break
    validate_entry(document)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"BENCH_{index}.json"
    atomic_write_text(path, json.dumps(document, indent=1) + "\n")
    if profiles:
        for stage_profile in profiles.values():
            validate_profile(stage_profile)
        profile_path = root / f"BENCH_{index}.profile.json"
        atomic_write_text(
            profile_path, json.dumps(profiles, indent=1, sort_keys=True) + "\n"
        )
    return path, document


def evaluate_gates(
    document: dict,
    min_decode_speedup: float | None = None,
    min_audit_speedup: float | None = None,
    min_audit_parallel_speedup: float | None = None,
    min_parallel_efficiency: float | None = None,
    min_incremental_speedup: float | None = None,
) -> tuple[list[str], list[str]]:
    """Apply the perf gates to a recorded entry.

    Returns ``(warnings, errors)``: a gate that cannot be evaluated
    (no comparable baseline, missing workload) warns instead of
    silently disarming; a gate below its minimum is an error.
    """
    warnings: list[str] = []
    errors: list[str] = []
    # Trajectory gates: throughput vs the previous comparable entry.
    for workload, minimum in (
        ("decode", min_decode_speedup),
        ("audit", min_audit_speedup),
        ("audit-parallel", min_audit_parallel_speedup),
    ):
        if minimum is None:
            continue
        speedup = (
            document.get("compared_to", {})
            .get(workload, {})
            .get("throughput_speedup")
        )
        if speedup is None:
            warnings.append(
                f"--min-{workload}-speedup not evaluated — no previous "
                f"entry ran the {workload} workload with these knobs"
            )
        elif speedup < minimum:
            errors.append(
                f"{workload} speedup {speedup:.2f}x is below the "
                f"required {minimum:.2f}x"
            )
    # In-entry gate: the parallel audit must beat (or at least match)
    # the sequential one measured in the same run.
    if min_parallel_efficiency is not None:
        ratio = document.get("audit_parallel_vs_sequential")
        if ratio is None:
            warnings.append(
                "--min-parallel-efficiency not evaluated — the entry "
                "does not carry both audit workloads"
            )
        elif ratio < min_parallel_efficiency:
            errors.append(
                f"audit parallel efficiency {ratio:.2f}x is below the "
                f"required {min_parallel_efficiency:.2f}x"
            )
    # In-entry gate: the warm incremental re-audit must beat the cold
    # run it was measured against in the same entry.
    if min_incremental_speedup is not None:
        ratio = document.get("audit_incremental_vs_cold")
        if ratio is None:
            warnings.append(
                "--min-incremental-speedup not evaluated — the entry "
                "does not carry the audit-incremental workload"
            )
        elif ratio < min_incremental_speedup:
            errors.append(
                f"audit incremental speedup {ratio:.2f}x is below the "
                f"required {min_incremental_speedup:.2f}x"
            )
    return warnings, errors


def render_report(path: Path, document: dict) -> str:
    lines = [f"wrote {path}", f"git rev: {document['git_rev']}"]
    for record in document["workloads"]:
        lines.append(
            f"  {record['workload']:<16} {record['wall_time_s']:>8.3f} s   "
            f"{record['throughput']:>10.3f} {record['throughput_unit']:<9} "
            f"peak RSS {record['peak_rss_kb'] / 1024:.0f} MB"
        )
    ratio = document.get("audit_parallel_vs_sequential")
    if ratio is not None:
        lines.append(f"audit parallel vs sequential: {ratio:.2f}x")
    ratio = document.get("audit_incremental_vs_cold")
    if ratio is not None:
        lines.append(f"audit incremental vs cold: {ratio:.2f}x")
    compared = document.get("compared_to")
    if compared:
        lines.append(f"vs {compared['file']}:")
        for name, ratio in compared.items():
            if name == "file":
                continue
            lines.append(
                f"  {name:<16} {ratio['throughput_speedup']:.2f}x throughput"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="run the benchmark suite and record BENCH_<n>.json"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: scale {QUICK_SCALE}, {QUICK_REPEATS} repeat",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--profile", default="standard")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help=f"runs per workload, best-of-N recorded (default "
        f"{DEFAULT_REPEATS}, or {QUICK_REPEATS} with --quick); raise on "
        "noisy hosts",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory receiving BENCH_<n>.json (default: current directory)",
    )
    parser.add_argument(
        "--min-decode-speedup",
        type=float,
        default=None,
        help="fail unless decode throughput is at least this multiple of "
        "the previous comparable entry",
    )
    parser.add_argument(
        "--min-audit-speedup",
        type=float,
        default=None,
        help="fail unless audit throughput is at least this multiple of "
        "the previous comparable entry",
    )
    parser.add_argument(
        "--min-audit-parallel-speedup",
        type=float,
        default=None,
        help="fail unless audit-parallel throughput is at least this "
        "multiple of the previous comparable entry",
    )
    parser.add_argument(
        "--min-parallel-efficiency",
        type=float,
        default=None,
        help="fail unless this entry's audit-parallel throughput is at "
        "least this multiple of its sequential audit throughput",
    )
    parser.add_argument(
        "--min-incremental-speedup",
        type=float,
        default=None,
        help="fail unless this entry's warm incremental re-audit is at "
        "least this many times faster than its in-entry cold run",
    )
    args = parser.parse_args(argv)
    scale = args.scale if args.scale is not None else (
        QUICK_SCALE if args.quick else DEFAULT_SCALE
    )
    repeats = args.repeats if args.repeats is not None else (
        QUICK_REPEATS if args.quick else DEFAULT_REPEATS
    )
    try:
        path, document = run_bench(
            Path(args.output_dir),
            scale=scale,
            profile=args.profile,
            jobs=args.jobs,
            repeats=repeats,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_report(path, document))
    warnings, errors = evaluate_gates(
        document,
        min_decode_speedup=args.min_decode_speedup,
        min_audit_speedup=args.min_audit_speedup,
        min_audit_parallel_speedup=args.min_audit_parallel_speedup,
        min_parallel_efficiency=args.min_parallel_efficiency,
        min_incremental_speedup=args.min_incremental_speedup,
    )
    for message in warnings:
        # Never silently disarm a gate: say why it could not run.
        print(f"warning: {message}", file=sys.stderr)
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
