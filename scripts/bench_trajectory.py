#!/usr/bin/env python
"""Fold paired end-to-end benchmark runs into ``BENCH_e2e.json``.

Each input file is the output of one ``benchmarks/e2e/run.py`` run over
both workloads (only its last line, the JSON summary, is read).  Give the
parent's runs and the change's runs in pair order, e.g. from the paired
loop in ``benchmarks/e2e/README.md``::

    python scripts/bench_trajectory.py --commit 1a2b3c4 --parent-commit 5d6e7f8 \\
        --parent parent-*.json --change change-*.json

One entry is appended per call: the two commits and, per workload and
end-to-end metric of ``BENCHMARK.json``, the median and quartiles of each
side, the number of pairs the change won, the gap between the medians
(positive when the change is better), the parent's interquartile range and
whether the gain rule holds: at least ``MIN_PAIRS`` pairs, the change
winning at least nine in ten of them, and a gap above the parent's IQR.
One line per workload metric is printed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_e2e.json"
#: The fewest pairs a claimed gain may rest on.
MIN_PAIRS = 10


def read_run(path: pathlib.Path) -> dict:
    """The JSON summary on the last non-empty line of a ``run.py`` output."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    run = json.loads(lines[-1])
    if not run["correct"]:
        raise SystemExit(f"{path}: an answer changed; this run does not count")
    return run


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, as ``numpy.percentile``)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def fold(commit: str, parent_commit: str, parent: list[dict], change: list[dict],
         spec: dict) -> dict:
    """One trajectory entry from paired parent and change runs."""
    if len(parent) != len(change):
        raise SystemExit(f"{len(parent)} parent runs but {len(change)} change runs")
    metrics: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        metrics[workload] = {}
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            before = [run["metrics"][key]["value"] for run in parent]
            after = [run["metrics"][key]["value"] for run in change]
            sign = 1 if metric["better"] == "higher" else -1
            parent_spread, change_spread = spread(before), spread(after)
            gap = sign * (change_spread["median"] - parent_spread["median"])
            parent_iqr = parent_spread["q3"] - parent_spread["q1"]
            wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
            metrics[workload][metric["name"]] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": parent_spread,
                "change": change_spread,
                "change_wins": wins,
                "median_gap": gap,
                "parent_iqr": parent_iqr,
                "gain_holds": (
                    len(parent) >= MIN_PAIRS
                    and 10 * wins >= 9 * len(parent)
                    and gap > parent_iqr
                ),
            }
    return {
        "commit": commit,
        "parent": parent_commit,
        "pairs": len(parent),
        "failed": sum(run["failed"] for run in parent + change),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="the measured change")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--parent", nargs="+", type=pathlib.Path, required=True)
    parser.add_argument("--change", nargs="+", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, default=OUT)
    parser.add_argument("--spec", type=pathlib.Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    entry = fold(
        args.commit,
        args.parent_commit,
        [read_run(path) for path in args.parent],
        [read_run(path) for path in args.change],
        spec,
    )
    trajectory = {"entries": []}
    if args.out.exists():
        trajectory = json.loads(args.out.read_text())
    trajectory["entries"].append(entry)
    args.out.write_text(json.dumps(trajectory, indent=1) + "\n")
    for workload, metrics in entry["metrics"].items():
        for name, row in metrics.items():
            print(
                f"{workload}.{name}: median gap {row['median_gap']:+.4g} {row['unit']}"
                f" (parent IQR {row['parent_iqr']:.4g}, change won"
                f" {row['change_wins']}/{entry['pairs']}): gain"
                f" {'holds' if row['gain_holds'] else 'does not hold'}"
            )
    print(f"{args.out}: {len(trajectory['entries'])} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
