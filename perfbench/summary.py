"""Summarise a set of benchmark runs of one workload.

    python3 perfbench/summary.py run1.out run2.out ...

Each file holds the standard output of one run of run.py. For every metric
it prints the sample count, the median, the quartiles, the spread (the
distance between the quartiles as a share of the median) and the highest
percentile that has at least ten samples beyond it, when there are enough
samples for one.
"""

from __future__ import annotations

import json
import statistics
import sys


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile p with at least ten of n samples above it."""
    p = int(100 * (n - 10) / n) if n > 10 else 0
    return p if p > 50 else None


def summarise(results: list[dict]) -> dict[str, dict]:
    by_metric: dict[str, list[float]] = {}
    units = {}
    for res in results:
        for name, m in res["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    table = {}
    for name, values in by_metric.items():
        med = statistics.median(values)
        row = {"n": len(values), "unit": units[name], "median": med}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else float("nan"))
        p = tail_percentile(len(values))
        if p is not None:
            row[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
        table[name] = row
    return table


def main(paths: list[str]) -> int:
    results = []
    for path in paths:
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        results.append(json.loads(lines[-1]))
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"runs {len(results)}  correct {all(r['correct'] for r in results)}  "
          f"fail_frac {failed / attempted:.6f} ({failed}/{attempted})")
    for name, row in summarise(results).items():
        extra = "  ".join(f"{k} {v:.6g}" for k, v in row.items()
                          if k not in ("n", "unit", "median"))
        print(f"{name:28s} n {row['n']:3d}  median {row['median']:.6g} {row['unit']}  {extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
