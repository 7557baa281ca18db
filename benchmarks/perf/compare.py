"""Compare two result sets written by ``run.py --out``.

    python benchmarks/perf/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of one commit),
B is the candidate. One row per (workload, end-to-end metric), judged with
the direction and bound ``BENCHMARK.json`` fixes for the metric:

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      ... better by more than the bound;
* ``same``        within the bound;
* ``unresolved``  a side's quartile spread is wider than the bound, so a
                  move of that size cannot be told from noise.

Virtual-time metrics repeat exactly for a seed, so for them spread across a
run's episodes is not noise and never makes a row unresolved. When the two
sets ran the same seed and a ``trace_hash`` differs, the virtual behaviour
of that workload changed between A and B, whatever the metrics say.

Exits non-zero on any ``worse`` row or any rise in failed operations.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import List, Tuple

from run import HOST_METRICS, load_spec


def spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


def judge(metric: dict, base: dict, candidate: dict) -> Tuple[str, float]:
    """Verdict for one metric and B's median as a ratio of A's."""
    bound = metric["bound"]
    ratio = candidate["median"] / base["median"] if base["median"] else float("nan")
    worsening = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    if metric["name"] in HOST_METRICS and max(spread(base), spread(candidate)) > bound:
        return "unresolved", ratio
    if worsening > bound:
        return "worse", ratio
    if worsening < -bound:
        return "better", ratio
    return "same", ratio


def compare(spec: dict, base: dict, candidate: dict) -> Tuple[List[str], bool]:
    """Report lines and whether the candidate passes."""
    lines = [
        f"{'workload':<13}{'metric':<20}{'verdict':<12}{'A median':>12}{'A q1..q3':>24}"
        f"{'B median':>12}{'B q1..q3':>24}{'B/A':>8}"
    ]
    passed = True
    same_seed = base.get("seed") == candidate.get("seed")
    for workload in spec["workloads"]:
        name = workload["name"]
        ours, theirs = base["workloads"].get(name), candidate["workloads"].get(name)
        if ours is None or theirs is None:
            lines.append(f"{name:<13}missing from {'A' if ours is None else 'B'}")
            passed = False
            continue
        for metric in spec["end_to_end"]:
            a, b = ours["metrics"][metric["name"]], theirs["metrics"][metric["name"]]
            verdict, ratio = judge(metric, a, b)
            passed = passed and verdict != "worse"
            lines.append(
                f"{name:<13}{metric['name']:<20}{verdict:<12}{a['median']:>12.6g}"
                f"{a['q1']:>12.6g}{a['q3']:>12.6g}{b['median']:>12.6g}"
                f"{b['q1']:>12.6g}{b['q3']:>12.6g}{ratio:>8.3f}"
            )
        a_failed = ours["failed"] / max(1, ours["attempted"])
        b_failed = theirs["failed"] / max(1, theirs["attempted"])
        if b_failed > a_failed:
            passed = False
            lines.append(
                f"{name:<13}failed operations rose: {ours['failed']} of {ours['attempted']} -> "
                f"{theirs['failed']} of {theirs['attempted']}"
            )
        if same_seed and ours["trace_hash"] != theirs["trace_hash"]:
            lines.append(f"{name:<13}virtual behaviour changed (trace_hash differs at the same seed)")
    return lines, passed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, candidate = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    lines, passed = compare(spec, base, candidate)
    print("\n".join(lines))
    print("PASS" if passed else "FAIL: a metric is worse than its bound allows, or more operations failed")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
