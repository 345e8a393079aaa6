"""Compare two benchmark runs of the same workloads on one host.

Usage::

    python3 perfbench/run.py --workload all --seed 1 --seconds 15 > before.txt
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Each file is the stdout of ``run.py``; its ``{"record": ...}`` line
carries the metrics and the host fingerprint.  Runs from hosts with
different fingerprints are refused (exit 2) instead of compared: the
ratio would measure the hosts.  Otherwise one row per workload and
end-to-end metric gives both medians, their ratio and whether the
change is worse than the bound in ``BENCHMARK.json``.  One pair of
runs cannot show a gain; that takes the repeated, alternating runs
the benchmark's bounds were fixed from.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.host import comparable  # noqa: E402


def read_records(path: Path) -> dict[str, dict]:
    """Workload name → run record, from a saved ``run.py`` stdout."""
    records: list[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith('{"record"'):
            found = json.loads(line)["record"]
            records.extend(found if isinstance(found, list) else [found])
    if not records:
        raise ValueError(f"{path} holds no run record")
    return {record["workload"]: record for record in records}


def bounds() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def compare(before: dict[str, dict], after: dict[str, dict]) -> tuple[int, list[str]]:
    lines: list[str] = []
    for name in sorted(set(before) & set(after)):
        refusal = comparable(before[name]["fingerprint"], after[name]["fingerprint"])
        if refusal:
            return 2, [f"refusing to compare {name}: {refusal}"]
    limits = bounds()
    lines.append(f"{'workload':14s} {'metric':14s} {'before':>12s} {'after':>12s} "
                 f"{'after/before':>12s}  verdict")
    for name in sorted(set(before) & set(after)):
        old, new = before[name]["metrics"], after[name]["metrics"]
        for metric in sorted(set(old) & set(new) & set(limits)):
            a, b = old[metric]["value"], new[metric]["value"]
            ratio = b / a
            limit = limits[metric]
            worse = ratio - 1 if limit["better"] == "lower" else 1 - ratio
            verdict = "worse than bound" if worse > limit["bound"] else "within bound"
            lines.append(f"{name:14s} {metric:14s} {a:12.6g} {b:12.6g} {ratio:12.4f}  "
                         f"{verdict} ({limit['better']} is better, bound {limit['bound']})")
    return 0, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    status, lines = compare(read_records(args.before), read_records(args.after))
    print("\n".join(lines), file=sys.stderr if status else sys.stdout)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
