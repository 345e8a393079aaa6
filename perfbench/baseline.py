"""Record the benchmark's baseline: repeated runs, their spread and drift.

Usage, from the repository root::

    python3 perfbench/baseline.py --seeds 1-10 --sets 2 --heldout 9001 \\
        --out perfbench/baseline.json

Each set runs every workload once per seed (workloads interleaved, so
slow drift of the host does not land on one workload).  For every
end-to-end metric the summary gives, per set, the median and the
spread — the distance between the first and third quartile as a share
of the median — and the drift of the second set's median from the
first's in the metric's worse direction.  ``stable`` holds when each
spread except ``setup_s``'s is within a third of the metric's bound
and each drift within the bound.  The held-out seed is run once per
workload and never used while tuning.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.host import fingerprint, git_rev  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(spec: dict, workload: str, seed: int) -> dict:
    command = [
        sys.executable, *spec["command"][1:],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def summarize(spec: dict, sets: list[dict]) -> tuple[dict, bool]:
    stable = True
    summary: dict = {}
    for workload in sets[0]:
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[run[name] for run in runs[workload]] for runs in sets]
            medians = [statistics.median(values) for values in per_set]
            spreads = [spread(values) for values in per_set]
            entry = {"medians": medians, "spreads": spreads, "bound": bound}
            if len(medians) > 1:
                change = medians[1] / medians[0] - 1
                drift = change if metric["better"] == "lower" else -change
                entry["drift"] = drift
                stable &= drift <= bound
            if name != "setup_s":
                stable &= all(value <= bound / 3 for value in spreads)
            summary[workload][name] = entry
    return summary, stable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--heldout", type=int)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = (
        args.workloads.split(",") if args.workloads
        else [workload["name"] for workload in spec["workloads"]]
    )
    seeds = parse_seeds(args.seeds)
    sets = []
    for number in range(args.sets):
        runs: dict[str, list] = {workload: [] for workload in workloads}
        for seed in seeds:
            for workload in workloads:
                metrics = run_once(spec, workload, seed)
                runs[workload].append({"seed": seed, **metrics})
                print(f"set {number + 1} {workload} seed {seed}: "
                      + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                      file=sys.stderr, flush=True)
        sets.append(runs)
    summary, stable = summarize(spec, sets)
    document = {
        "fingerprint": fingerprint(),
        "git_rev": git_rev(ROOT),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "sets": sets,
        "summary": summary,
        "stable": stable,
    }
    if args.heldout is not None:
        document["heldout"] = {
            "seed": args.heldout,
            "runs": {workload: run_once(spec, workload, args.heldout) for workload in workloads},
        }
    text = json.dumps(document, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(json.dumps({"summary": summary, "stable": stable}, indent=1))
    return 0 if stable else 1


if __name__ == "__main__":
    raise SystemExit(main())
