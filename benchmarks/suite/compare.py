#!/usr/bin/env python
"""Compare benchmark results of a parent and a change.

    python benchmarks/suite/compare.py PARENT.json CHANGE.json
    python benchmarks/suite/compare.py --parent p1.json ... p10.json \\
                                       --change c1.json ... c10.json

Each file is a ``run.py --out`` record (one workload, or all four).  With
one file per side the two result sets are compared; with N files per
side, file *i* of each side forms pair *i* (alternate which side runs
first when producing them).  Rules (choosing-metrics guide, sections
6 to 8), per workload and end-to-end metric, each with the bound from
``BENCHMARK.json``:

- **unresolved**: either side's spread — the distance between its
  quartiles as a share of its median — exceeds the bound, unless every
  change run is better than every parent run (with one file per side,
  every change repeat better than every parent repeat; a metric without
  per-repeat values is never separated this way);
- **REGRESSION**: the change's median is worse than the parent's by more
  than the bound;
- **GAIN**: the change wins at least 9 of every 10 pairs (ties count for
  neither), over at least 10 pairs, and the medians differ by more than
  the parent's interquartile range;
- **within bound**: none of the above.

Counts (per-layer metrics of kind ``count``, packets, the expected
digest) must match exactly between runs of the same seed.  Runs that
differ in length of the timed phase, minimum repeats, reference speed or
``--quick`` are not comparable.  Exit status is 1 on a regression, a
count mismatch, an incorrect run or runs that are not comparable,
else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Pairs needed before a gain may be claimed, and the share they must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9

#: Run settings that must be the same in every compared run.
SETTINGS = ("quick", "seconds", "min_repeats", "reference_ops_per_s")


def settings_of(run: dict) -> tuple:
    return (run["quick"],) + tuple(run["env"][key] for key in SETTINGS[1:])


def load(paths: List[Path]) -> Dict[str, List[dict]]:
    """Results grouped by workload, in file order."""
    grouped: Dict[str, List[dict]] = {}
    for path in paths:
        payload = json.loads(path.read_text())
        for result in payload.get("runs", [payload]):
            grouped.setdefault(result["workload"], []).append(result)
    return grouped


def spread(runs: List[dict], name: str) -> Optional[float]:
    """Quartile distance over the median: across runs when there are
    several, else from the single run's own repeats (None when the run
    recorded no quartiles for this metric)."""
    values = [run["metrics"][name]["value"] for run in runs]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        return (q3 - q1) / median if median else None
    entry = runs[0]["metrics"][name]
    if "q1" not in entry or entry.get("n", 1) < 2 or not entry["value"]:
        return None
    return (entry["q3"] - entry["q1"]) / entry["value"]


def points(runs: List[dict], name: str) -> Optional[List[float]]:
    """The values a side's runs are made of: the run medians when there
    are several runs, else the single run's per-repeat samples (None
    when it recorded none)."""
    if len(runs) >= 2:
        return [run["metrics"][name]["value"] for run in runs]
    return runs[0]["metrics"][name].get("samples")


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``a`` is strictly better than ``b``."""
    return a > b if direction == "higher" else a < b


def judge(metric: dict, parent: List[dict], change: List[dict]) -> dict:
    name, bound, direction = metric["name"], metric["bound"], metric["better"]
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    p_median, c_median = statistics.median(p), statistics.median(c)
    worse = (c_median - p_median) / p_median
    if direction == "higher":
        worse = -worse
    p_spread, c_spread = spread(parent, name), spread(change, name)
    pairs = list(zip(p, c))
    wins = sum(1 for a, b in pairs if better(b, a, direction))
    p_points, c_points = points(parent, name), points(change, name)
    separated = (p_points is not None and c_points is not None
                 and all(better(b, a, direction)
                         for b in c_points for a in p_points))
    p_iqr = 0.0
    if len(p) >= 2:
        q1, _, q3 = statistics.quantiles(p, n=4)
        p_iqr = q3 - q1
    if any(s is not None and s > bound for s in (p_spread, c_spread)) \
            and not separated:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
          and abs(c_median - p_median) > p_iqr):
        verdict = "GAIN"
    else:
        verdict = "within bound"
    return {
        "metric": name, "parent": p_median, "change": c_median,
        "worse_pct": 100 * worse, "bound_pct": 100 * bound,
        "parent_spread_pct": None if p_spread is None else 100 * p_spread,
        "change_spread_pct": None if c_spread is None else 100 * c_spread,
        "wins": wins, "pairs": len(pairs), "verdict": verdict,
    }


def count_mismatches(parent: List[dict], change: List[dict]) -> List[str]:
    """Exact-count differences between runs of the same seed."""
    problems = []
    for p_run in parent:
        for c_run in change:
            if (p_run["seed"], p_run["quick"]) != (c_run["seed"], c_run["quick"]):
                continue
            fields = {
                "packets": (p_run["packets"], c_run["packets"]),
                "digest": (p_run["digest"]["expected"],
                           c_run["digest"]["expected"]),
            }
            for name, entry in p_run.get("layers", {}).items():
                other = c_run.get("layers", {}).get(name)
                if entry["kind"] == "count" and other is not None:
                    fields[name] = (entry["value"], other["value"])
            for name, (a, b) in fields.items():
                if a != b:
                    problems.append(
                        f"seed {p_run['seed']}: {name} {a!r} != {b!r}"
                    )
    return sorted(set(problems))


def layer_table(parent: List[dict], change: List[dict]) -> List[str]:
    """Median per-layer values side by side (the ledger diff)."""
    p_runs = [r for r in parent if "layers" in r]
    c_runs = [r for r in change if "layers" in r]
    if not p_runs or not c_runs:
        return []
    lines = []
    for name, entry in p_runs[0]["layers"].items():
        p = statistics.median(r["layers"][name]["value"] for r in p_runs)
        c = statistics.median(r["layers"][name]["value"] for r in c_runs)
        if p or c:
            lines.append(
                f"    {name:32s} {p:12.6g} -> {c:12.6g} {entry['unit']}"
            )
    return lines


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.1f}%"


def compare(parent_paths: List[Path], change_paths: List[Path]) -> int:
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_paths), load(change_paths)
    failed = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        print(f"== {workload}: {len(p_runs)} parent / {len(c_runs)} change runs")
        for run in p_runs + c_runs:
            if not run["correct"]:
                failed = True
                print(f"  INCORRECT run (seed {run['seed']}): "
                      f"{run['failed']}/{run['attempted']} failed")
        settings = {settings_of(run) for run in p_runs + c_runs}
        if len(settings) > 1:
            failed = True
            print(f"  NOT COMPARABLE: runs differ in {SETTINGS}: "
                  f"{sorted(settings)}")
            continue
        for metric in benchmark["end_to_end"]:
            row = judge(metric, p_runs, c_runs)
            failed |= row["verdict"] == "REGRESSION"
            print(
                f"  {row['metric']:14s} {row['parent']:12.6g} -> "
                f"{row['change']:12.6g} {metric['unit']:6s} "
                f"worse {row['worse_pct']:+6.2f}% (bound {row['bound_pct']:.0f}%) "
                f"spread {_fmt(row['parent_spread_pct'])}/"
                f"{_fmt(row['change_spread_pct'])} "
                f"wins {row['wins']}/{row['pairs']}  {row['verdict']}"
            )
        mismatches = count_mismatches(p_runs, c_runs)
        failed |= bool(mismatches)
        for problem in mismatches:
            print(f"  COUNT MISMATCH {problem}")
        table = layer_table(p_runs, c_runs)
        if table:
            print("  per-layer medians (parent -> change):")
            print("\n".join(table))
    missing = set(parent) ^ set(change)
    if missing:
        print(f"workloads on one side only: {sorted(missing)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="*", type=Path,
                        help="PARENT CHANGE (one result set each)")
    parser.add_argument("--parent", nargs="+", type=Path, default=[])
    parser.add_argument("--change", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)
    if args.results:
        if len(args.results) != 2 or args.parent or args.change:
            parser.error("give PARENT CHANGE, or --parent ... --change ...")
        return compare([args.results[0]], [args.results[1]])
    if not args.parent or len(args.parent) != len(args.change):
        parser.error("--parent and --change need the same number of files")
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
