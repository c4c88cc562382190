"""One untraced repetition of an in-process workload, in its own process.

Run by ``run.py``, never by hand::

    python benchmarks/perf/child.py --plan plan.json --result result.json

Timestamps are ``time.time()`` so the parent can compare them with its
own spawn and exit times: ``start`` is taken after imports and input
construction, ``end`` right after the body returns.  The output checks
run after ``end``.
"""

from __future__ import annotations

import argparse
import json
import time

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    body = workloads.prepare(plan)
    start = time.time()
    out = body()
    end = time.time()
    report = workloads.check_inproc(plan, out)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({"start": start, "end": end, "report": report}, handle)


if __name__ == "__main__":
    main()
