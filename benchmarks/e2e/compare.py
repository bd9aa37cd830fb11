"""Compare two result sets against the bounds in ``BENCHMARK.json``.

    python benchmarks/e2e/compare.py A/results.json B/results.json

A is the parent, B the change.  One row per (workload, end-to-end
metric).  A row is a BREACH when B's median is worse than A's by more
than the metric's bound, and UNRESOLVED — not "unchanged" — when either
side's own spread (the distance between the quartiles of its samples)
exceeds the bound, unless every run of B reads better than every run of
A.  ``run_fail_frac`` may not increase at all.
Exit code: 1 on any breach, else 2 on any unresolved row, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict:
    """``{metric: (better, bound)}`` of the end-to-end metrics."""
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def fail_frac(entry: dict) -> float:
    runs = entry.get("runs", [])
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def spread(stat: dict) -> float:
    """Quartile distance of a metric's own samples, relative to its value
    (with three samples: half their range, so one stray child does not
    make a row unresolved by itself)."""
    samples = stat["samples"]
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / stat["value"]


def verdict(a: dict, b: dict, better: str, bound: float):
    """``(status, worse)`` for one metric; ``worse`` is B's median
    relative to A's, positive when B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / a["value"]
    if max(spread(a), spread(b)) > bound:
        all_better = (
            b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
        )
        return ("improved" if all_better else "UNRESOLVED"), worse
    if worse > bound:
        return "BREACH", worse
    return "ok", worse


def compare(set_a: dict, set_b: dict, bounds: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, worse, bound, status)``."""
    rows = []
    for name, entry_a in set_a["workloads"].items():
        entry_b = set_b["workloads"].get(name)
        if entry_b is None:
            continue
        e2e_a = entry_a.get("end_to_end") or {}
        e2e_b = entry_b.get("end_to_end") or {}
        for metric, (better, bound) in bounds.items():
            if metric not in e2e_a or metric not in e2e_b:
                continue
            status, worse = verdict(
                e2e_a[metric], e2e_b[metric], better, bound
            )
            rows.append((name, metric, e2e_a[metric]["value"],
                         e2e_b[metric]["value"], worse, bound, status))
        fa, fb = fail_frac(entry_a), fail_frac(entry_b)
        rows.append((name, "run_fail_frac", fa, fb, fb - fa, 0.0,
                     "BREACH" if fb > fa else "ok"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    set_a, set_b = (
        json.loads(Path(p).read_text(encoding="utf-8")) for p in argv
    )
    rows = compare(set_a, set_b, load_bounds())
    print(f"{'workload':<20}{'metric':<26}{'A':>12}{'B':>12}"
          f"{'B worse by':>12}{'bound':>8}  status")
    for name, metric, a, b, worse, bound, status in rows:
        print(f"{name:<20}{metric:<26}{a:>12.4f}{b:>12.4f}"
              f"{100 * worse:>+11.1f}%{100 * bound:>7.0f}%  {status}")
    statuses = {row[-1] for row in rows}
    if "BREACH" in statuses:
        return 1
    return 2 if "UNRESOLVED" in statuses else 0


if __name__ == "__main__":
    sys.exit(main())
