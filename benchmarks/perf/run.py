#!/usr/bin/env python
"""End-to-end benchmark of the TIMBER reproduction.

    python benchmarks/perf/run.py [--workload NAME]... [--seed N]
        [--repeats N] [--seconds S] [--trace [0|1]] [--smoke]
        [--out PATH] [--pin]

Runs each workload (default: all five, see ``workloads.py`` and the
README) the way users run it: one discarded warm-up, then measured
repetitions, each in a fresh child process with every ``REPRO_*``
variable removed from its environment — at least ``--repeats`` of them
(default 5), and more while they fit in ``--seconds`` (default: the
``run_seconds`` of ``BENCHMARK.json``).  Fixed probe processes
(:data:`PROBE`) run before each repetition, and its times are
rescaled to the host speed where a probe takes
:data:`REFERENCE_PROBE_S`.
``--trace`` adds one traced repetition per workload (``traced.py``)
whose per-layer metrics land in ``out/<workload>/``; the end-to-end
metrics never include it.

Prints one ``workload metric median p25 p75 n unit`` line per metric,
then, as the last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or the per-layer
ones with ``--trace 1``; prefixed ``<workload>.`` when more than one
workload ran).  Every run except ``--smoke`` appends a record to
``results.jsonl``.  Exits 1 when any output check fails.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
TRACES = HERE / "out"
RESULTS = HERE / "results.jsonl"
#: A repetition running longer than this is killed and counts as failed.
CHILD_TIMEOUT_S = 150
#: A fixed process started before every repetition to gauge the host's
#: speed: interpreter start, numpy and stdlib imports and a short loop,
#: and nothing of the program, so no change to the program can move it.
PROBE = """\
import argparse, decimal, fractions, json, statistics
import numpy
squares = numpy.arange(100_000) ** 2
table, total = {}, 0
for i in range(150_000):
    total += i % 7
    table[i & 1023] = total
"""
#: Probes before each repetition; their median gauges the host.
PROBES = 3
#: Timings are reported at the host speed where a probe takes this
#: long (about its time on the 2-vCPU Xeon VM of the README).
REFERENCE_PROBE_S = 0.15
#: The end-to-end metrics that are times.
SECONDS = ("setup_s", "wall_s", "cpu_s")

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: no program source at {ROOT / 'src' / 'repro'}; "
             f"run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def child_env(trace: bool) -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if trace:
        env["REPRO_OBS"] = "1"
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(argv: list[str], workdir: pathlib.Path, env: dict) -> dict:
    """Run one child to completion in its own process group.

    Times are ``time.time()`` (comparable with the children's own
    stamps); ``rusage`` covers the child and the workers it reaped.
    """
    with open(workdir / "child.log", "wb") as log:
        spawned = time.time()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
            exited = time.time()
        finally:
            timer.cancel()
            _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"spawned": spawned, "exited": exited,
            "code": proc.returncode, "rusage": rusage}


def probe() -> float:
    """Seconds from spawning one :data:`PROBE` process to its exit."""
    workdir = WORK / "probe"
    workdir.mkdir(parents=True, exist_ok=True)
    child = spawn([sys.executable, "-c", PROBE], workdir, child_env(False))
    if child["code"] != 0:
        raise SystemExit(f"the host-speed probe exited {child['code']}: "
                         f"{_log_tail(workdir)}")
    return child["exited"] - child["spawned"]


def probed_repetition(name: str, plan: dict, tag: str, *,
                      trace: bool) -> dict:
    """:func:`repetition` with its times at the reference host speed.

    Other tenants slow the host by up to 40% for seconds to minutes,
    and a repetition slows with it.  The probes just before it slow the
    same way, so rescaling by them cancels most of that (README).  The
    sample keeps ``probe_s``, their median, to recover the raw times.
    """
    probe_s = statistics.median(probe() for _ in range(PROBES))
    sample = repetition(name, plan, tag, trace=trace)
    scale = REFERENCE_PROBE_S / probe_s
    for metric in SECONDS:
        if metric in sample:
            sample[metric] *= scale
    if "work_per_s" in sample:
        sample["work_per_s"] /= scale
    return {**sample, "probe_s": probe_s}


def _log_tail(workdir: pathlib.Path) -> str:
    lines = (workdir / "child.log").read_text(errors="replace").splitlines()
    return " | ".join(lines[-3:])


def repetition(name: str, plan: dict, tag: str, *, trace: bool) -> dict:
    """One repetition of one workload: its check report and timings.

    An untraced sample carries the timed end-to-end metrics; a traced
    one carries ``wall_s`` and the per-layer ``layers``; a repetition
    that crashed carries only its report.
    """
    workdir = WORK / f"{name}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        (workdir / "plan.json").write_text(json.dumps(plan))
        files = ["--plan", "plan.json", "--result", "result.json"]
        if trace:
            trace_dir = TRACES / name
            shutil.rmtree(trace_dir, ignore_errors=True)
            argv = [sys.executable, str(HERE / "traced.py"), *files,
                    "--trace-dir", str(trace_dir)]
        elif plan["kind"] == "cli":
            argv = [sys.executable, "-m", "repro.cli", *plan["argv"]]
        else:
            argv = [sys.executable, str(HERE / "child.py"), *files]
        child = spawn(argv, workdir, child_env(trace))
        if child["code"] != 0:
            return {"report": workloads.failed_report(
                plan, f"exit {child['code']}: {_log_tail(workdir)}")}
        try:
            return _sample(plan, workdir, child, trace=trace)
        except Exception as error:  # noqa: BLE001 — reported, run goes on
            return {"report": workloads.failed_report(
                plan, f"unreadable output: {error!r}")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _sample(plan: dict, workdir: pathlib.Path, child: dict, *,
            trace: bool) -> dict:
    result = (json.loads((workdir / "result.json").read_text())
              if trace or plan["kind"] == "inproc" else None)
    report = (workloads.check_cli(plan, workdir) if plan["kind"] == "cli"
              else result["report"])
    if trace:
        return {"report": report, "wall_s": result["wall_s"],
                "layers": result["metrics"]}
    if plan["kind"] == "cli":
        start = next(event["wall"] for event in
                     workloads.read_events(workdir)
                     if event["type"] == "run_start")
        end = child["exited"]
    else:
        start, end = result["start"], result["end"]
    wall = end - start
    usage = child["rusage"]
    return {
        "report": report,
        "setup_s": start - child["spawned"],
        "wall_s": wall,
        "work_per_s": report["work"] / (report["work_s"] or wall),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_workload(name: str, args: argparse.Namespace, units: dict) -> dict:
    scale = workloads.SMOKE_SCALE if args.smoke else 1
    plan = workloads.plan(name, args.seed, scale)
    repetition(name, plan, "warmup", trace=False)
    samples, reports = [], []
    started = time.monotonic()
    while True:
        began = time.monotonic()
        sample = probed_repetition(name, plan, str(len(samples)),
                                   trace=False)
        report = sample.pop("report")
        # A repetition that crashed has no timings, only this.
        sample["success_rate"] = 1.0 - report["failed"] / report["attempted"]
        samples.append(sample)
        reports.append(report)
        took = time.monotonic() - began
        if (len(samples) >= args.repeats
                and time.monotonic() - started + took > args.seconds):
            break
    layers = None
    if args.trace:
        traced_sample = probed_repetition(name, plan, "traced", trace=True)
        reports.append(traced_sample["report"])
        if "layers" in traced_sample:
            layers = _finish_layers(name, traced_sample, samples, units)
    medians = {}
    for metric in units["end_to_end"]:
        values = [s[metric] for s in samples if metric in s]
        if values:
            medians[metric] = statistics.median(values)
    return {
        "samples": samples,
        "medians": medians,
        "layers": layers,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "problems": [p for r in reports for p in r["problems"]],
        "observed": reports[0]["observed"],
    }


def _finish_layers(name: str, traced_sample: dict,
                   samples: list[dict], units: dict) -> dict:
    layers = traced_sample["layers"]
    if set(layers) != set(units["per_layer"]):
        raise SystemExit("the traced run and the per_layer metrics of "
                         "BENCHMARK.json name different metrics")
    walls = [s["wall_s"] for s in samples if "wall_s" in s]
    if walls:
        layers["trace.overhead_pct"] = 100.0 * (
            traced_sample["wall_s"] / statistics.median(walls) - 1.0)
    trace_dir = TRACES / name
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / "layers.json").write_text(
        json.dumps(layers, indent=2, sort_keys=True) + "\n")
    (trace_dir / "layers.txt").write_text(
        traced.layer_table(layers, units["per_layer"]) + "\n")
    return layers


def _git(*argv: str) -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    """Where and on what a run happened."""
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and pathlib.Path(top).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(status) if status is not None else None,
        "host": platform.node(),
        "cpu": cpu or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def _print_table(results: dict, units: dict) -> None:
    for name, result in results.items():
        for metric, unit in units["end_to_end"].items():
            values = [s[metric] for s in result["samples"] if metric in s]
            if values:
                p25, median, p75 = compare.quartiles(values)
                print(f"{name} {metric} {median:.6g} {p25:.6g} {p75:.6g} "
                      f"{len(values)} {unit}")
        for metric, value in (result["layers"] or {}).items():
            print(f"{name} {metric} {value:.6g} - - 1 "
                  f"{units['per_layer'][metric]}")
        for problem in result["problems"]:
            print(f"{name} CHECK FAILED: {problem}")


def _pin(results: dict) -> None:
    expected = workloads.load_expected()
    for result in results.values():
        expected["pinned"].update(result["observed"])
    expected["pinned"] = dict(sorted(expected["pinned"].items()))
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    bench = workloads.benchmark()
    units = {kind: {metric["name"]: metric["unit"] for metric in bench[kind]}
             for kind in ("end_to_end", "per_layer")}
    parser = argparse.ArgumentParser(
        description="TIMBER reproduction end-to-end benchmark")
    parser.add_argument("--workload", action="append",
                        choices=workloads.names(),
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=5,
                        help="minimum measured repetitions (default 5)")
    # The benchmark's command line (BENCHMARK.json) passes run_seconds
    # here on every run; it is also the default.
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="keep repeating while repetitions fit in "
                             "this many seconds (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="add one traced repetition per workload")
    parser.add_argument("--smoke", action="store_true",
                        help=f"1/{workloads.SMOKE_SCALE} size, one "
                             f"repetition, nothing appended")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the run record here")
    parser.add_argument("--pin", action="store_true",
                        help="store this run's outputs in expected.json")
    args = parser.parse_args(argv)
    if args.smoke:
        args.repeats, args.seconds = 1, 0.0
    names = args.workload or workloads.names()
    started = datetime.datetime.now(datetime.timezone.utc)
    results = {name: run_workload(name, args, units) for name in names}
    _print_table(results, units)
    if args.pin:
        _pin(results)
    for result in results.values():
        del result["observed"]
    record = {
        "schema": 1, "started": started.isoformat(timespec="seconds"),
        **provenance(), "seed": args.seed,
        "scale": workloads.SMOKE_SCALE if args.smoke else 1,
        "repeats": args.repeats, "seconds": args.seconds,
        "trace": args.trace, "workloads": results,
    }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    if not args.smoke:
        with open(RESULTS, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    correct = all(not r["problems"] and r["failed"] == 0
                  for r in results.values())
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, result in results.items():
        values = result["layers"] if args.trace else result["medians"]
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, unit in units[kind].items():
            # A missing value: the repetitions crashed; correct is false.
            metrics[prefix + metric] = {
                "value": (values or {}).get(metric, 0.0), "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
