#!/usr/bin/env python3
"""Compare two result sets of the irrev benchmark.

A result set is a directory of untraced result files written by ``run.py
--out-dir DIR``: runs of one commit, or of two commits for a before/after
comparison. For every (workload, end-to-end metric) pair this prints each
set's median and quartiles and a verdict against the bound in
BENCHMARK.json:

* ``worse``: the second median is worse than the first by more than the bound;
* ``better``: it is better by more than the bound;
* ``same``: it is within the bound;
* ``unresolved``: a set's spread (quartile distance over median) exceeds
  the bound, unless every run of the second set beats every run of the first.

It also pools each set's pass times into the highest wall_s percentile with
at least ten samples above it. Exit status 1 when any pair is ``worse``::

    python3 perfbench/compare.py BASE_DIR NEW_DIR
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def load_set(directory: str) -> dict:
    """Untraced results of a directory, grouped by workload."""
    by_workload = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        result = json.loads(path.read_text())
        if result.get("trace") == 0:
            by_workload[result["workload"]].append(result)
    return by_workload


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(base, new, bound: float, better: str) -> tuple[str, float]:
    """Verdict and signed change of the median (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    base_med, new_med = statistics.median(base), statistics.median(new)
    change = sign * (new_med - base_med) / base_med
    if spread(base) > bound or spread(new) > bound:
        beats_all = (max(new) < min(base) if better == "lower"
                     else min(new) > max(base))
        return ("better" if beats_all else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def tail_percentile(samples):
    """(percent, value) of the highest percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def tail_text(results) -> str:
    samples = [s for r in results for s in r["samples"]["wall_s"]]
    tail = tail_percentile(samples)
    if tail is None:
        return f"n={len(samples)}, too few for a tail percentile"
    return f"p{tail[0]:.0f} {tail[1]:.4f} s, n={len(samples)}"


def compare(base_dir: str, new_dir: str) -> bool:
    """Print the comparison; return True when no pair is worse."""
    bench = json.loads(BENCHMARK.read_text())
    base, new = load_set(base_dir), load_set(new_dir)
    ok = True
    for label, results in (("base", base), ("new", new)):
        shas = sorted({r["provenance"]["git_sha"] for rs in results.values()
                       for r in rs})
        print(f"{label}: {', '.join(shas) or 'no results'}")
    header = (f"{'workload':<20} {'metric':<12} {'base q1/med/q3':>32} "
              f"{'new q1/med/q3':>32} {'worse by':>8} {'bound':>6}  verdict")
    print(header)
    for w in (w["name"] for w in bench["workloads"]):
        if not base.get(w) or not new.get(w):
            print(f"{w:<20} missing from a set")
            continue
        for m in bench["end_to_end"]:
            a = [r["end_to_end"][m["name"]]["value"] for r in base[w]]
            b = [r["end_to_end"][m["name"]]["value"] for r in new[w]]
            v, change = verdict(a, b, m["bound"], m["better"])
            ok = ok and v != "worse"
            qa = "/".join(f"{x:.4g}" for x in quartiles(a))
            qb = "/".join(f"{x:.4g}" for x in quartiles(b))
            print(f"{w:<20} {m['name']:<12} {qa:>32} {qb:>32} "
                  f"{change:>+8.2%} {m['bound']:>6.2f}  {v}")
        for label, results in (("base", base[w]), ("new", new[w])):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(f"{w:<20} {label}: {len(results)} runs, wall_s tail "
                  f"{tail_text(results)}, error_rate {failed}/{attempted}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir")
    parser.add_argument("new_dir")
    args = parser.parse_args(argv)
    return 0 if compare(args.base_dir, args.new_dir) else 1


if __name__ == "__main__":
    sys.exit(main())
