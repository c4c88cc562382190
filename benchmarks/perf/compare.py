"""Compare two benchmark runs metric by metric, against BENCHMARK.json.

    python benchmarks/perf/compare.py BASE NEW

BASE and NEW name run records: a JSON file written by ``run.py --out``,
or a JSONL file such as ``results.jsonl`` (its last record; append
``@N`` for record N, negative from the end, or ``@A:B`` for a slice).
For every workload in both and every end-to-end metric in
``BENCHMARK.json`` it prints each side's median and quartiles over its
runs, then a verdict.  With one record, a side's runs are its
repetitions; with several, each record's median is one run (the ten
alternating pairs a claimed gain needs).

* A metric whose bound is 0 (``success_rate``) may not get worse in any
  repetition: ``regressed`` when NEW's worst repetition, over all its
  records, is worse than BASE's worst, else ``ok``.
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median) of either side is wider than the metric's bound, and not
  every NEW run beats every BASE run;
* ``regressed`` — NEW's median is worse than BASE's by more than the
  bound (a share of BASE's median);
* ``ok`` — otherwise.

Exits 0 when every verdict is ``ok``, 1 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
import typing

import workloads


def quartiles(values: typing.Sequence[float]) -> tuple[float, float, float]:
    """``(p25, median, p75)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    p25, median, p75 = statistics.quantiles(values, n=4)
    return p25, median, p75


def spread(values: typing.Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    p25, median, p75 = quartiles(values)
    return (p75 - p25) / abs(median) if median else 0.0


def verdict(base: typing.Sequence[float], new: typing.Sequence[float],
            *, bound: float, better: str) -> str:
    """The regression rule for one (metric, workload) pair."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        worst = max if better == "lower" else min
        return "regressed" if sign * (worst(new) - worst(base)) > 0 else "ok"
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "ok"
        return "unresolved"
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    worse = sign * (new_median - base_median)
    if base_median and worse / abs(base_median) > bound:
        return "regressed"
    return "ok"


def load_records(spec: str) -> list[dict]:
    """Run records from ``FILE``, ``FILE@N`` or ``FILE@A:B``."""
    path, _, index = spec.partition("@")
    text = pathlib.Path(path).read_text(encoding="utf-8")
    if not path.endswith(".jsonl"):
        return [json.loads(text)]
    records = [json.loads(line) for line in text.splitlines() if line]
    if ":" in index:
        start, _, stop = index.partition(":")
        return records[int(start or 0):int(stop) if stop else None]
    return [records[int(index or -1)]]


def runs(records: list[dict], workload: str, metric: str, *,
         pooled: bool = False) -> list[float]:
    """One value per run: repetitions of a single record (of every
    record when ``pooled``), else each record's median."""
    if pooled or len(records) == 1:
        return [s[metric] for r in records
                for s in r["workloads"][workload]["samples"] if metric in s]
    return [r["workloads"][workload]["medians"][metric] for r in records
            if metric in r["workloads"][workload]["medians"]]


def compare(base: list[dict], new: list[dict],
            metrics: list[dict]) -> list[tuple]:
    """``(workload, metric, base quartiles, new quartiles, verdict)``."""
    rows = []
    for workload in base[0]["workloads"]:
        if not all(workload in r["workloads"] for r in base + new):
            continue
        for metric in metrics:
            name, pooled = metric["name"], metric["bound"] == 0
            a = runs(base, workload, name, pooled=pooled)
            b = runs(new, workload, name, pooled=pooled)
            result = (verdict(a, b, bound=metric["bound"],
                              better=metric["better"])
                      if a and b else "unresolved")
            rows.append((workload, name, quartiles(a), quartiles(b),
                         result))
    return rows


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (load_records(spec) for spec in args)
    bench = workloads.benchmark()
    scales = {r["scale"] for r in base + new}
    if len(scales) > 1:
        print(f"note: the runs mix workload scales {sorted(scales)}")
    print(f"{'workload':14s} {'metric':13s} {'base p25/med/p75':>34s}   "
          f"{'new p25/med/p75':>34s}  verdict")
    rows = compare(base, new, bench["end_to_end"])
    for workload, name, a, b, result in rows:
        print(f"{workload:14s} {name:13s} "
              f"{a[0]:10.4g} {a[1]:10.4g} {a[2]:10.4g}   "
              f"{b[0]:10.4g} {b[1]:10.4g} {b[2]:10.4g}  {result}")
    return 0 if all(row[-1] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
