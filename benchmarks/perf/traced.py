"""The traced repetition: per-layer attribution timed from outside.

Run by ``run.py --trace`` once per workload, after the untraced
repetitions, with ``REPRO_OBS=1`` in the environment::

    python benchmarks/perf/traced.py --plan plan.json --result result.json \
        --trace-dir DIR

The program's own spans (``sweep.run``, ``campaign.run``,
``campaign.chunk``, ``soak.chunk``, ``pipeline.run``, ``graph.run``) and
kernel counters are on, and worker spans come home through the exec
layer's obs capture.  On top of that :data:`WRAPS` wraps public
functions of each layer in ``repro.obs.trace_span("layer.<name>")``,
patched into every ``repro`` module that binds the name.  Pool workers
inherit the wrappers through the default fork start.  A wrap target
that no longer exists fails the launcher with :class:`WrapTargetMissing`,
so a rename cannot silently drop a layer from the table.

In-process workloads time their body; CLI workloads run
``repro.cli.main(argv + ["--obs-out", DIR])`` in this process and are
timed from their ``run_start`` event to the return of ``main``.  The
fold (:func:`fold`) turns the span records into :data:`METRICS`: self
times (a span's duration minus its same-pid children), exact counts,
and the coverage of the traced wall by spans of the main process.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import os
import pathlib
import statistics
import sys
import threading
import time
import typing

import workloads


class WrapTargetMissing(RuntimeError):
    """A function :data:`WRAPS` names is not where the table says."""


@dataclasses.dataclass(frozen=True)
class Wrap:
    """One wrapped call: ``target`` is ``module:function`` or
    ``module:Class.method``; ``post(result, args, kwargs)`` may replace
    the result and returns ``(result, span attributes)``."""

    target: str
    span: str
    post: typing.Callable | None = None


def _consume(result, args, kwargs):
    # iter_population streams lazily; draw the slice inside the span.
    items = list(result)
    return iter(items), {"n": len(items)}


def _file_bytes(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _path_bytes(result, args, kwargs):
    # Size of the file a checkpoint flush or journal append just wrote.
    return result, {"bytes": _file_bytes(args[0].path)}


def _put_bytes(result, args, kwargs):
    return result, {"bytes": _file_bytes(args[0]._path(args[1]))}


def _one(result, args, kwargs):
    return result, {"n": 1}


def _lane_count(result, args, kwargs):
    return result, {"n": len(args[0])}


def _wrap_evaluator(evaluator, args, kwargs):
    """Wrap ``evaluate_chunk`` (and the lane machine) of a new evaluator."""
    if not hasattr(evaluator, "evaluate_chunk"):
        raise WrapTargetMissing(
            f"{type(evaluator).__name__}.evaluate_chunk")
    seen = [0, 0]

    def lane_deltas(result, args, kwargs):
        batched = getattr(evaluator, "lanes_batched", 0)
        replayed = getattr(evaluator, "lanes_replayed", 0)
        attrs = {"batched": batched - seen[0],
                 "replayed": replayed - seen[1]}
        seen[:] = [batched, replayed]
        return result, attrs

    evaluator.evaluate_chunk = _wrapped(
        evaluator.evaluate_chunk,
        Wrap("evaluator.evaluate_chunk", "layer.engine.chunk",
             lane_deltas))
    machine = getattr(evaluator, "machine", None)
    if machine is not None:
        machine.evaluate = _wrapped(
            machine.evaluate,
            Wrap("machine.evaluate", "layer.lanes.eval", _lane_count))
    return evaluator, {}


_TASK = "layer.exec.task"

#: Every call the traced run times, by layer.
WRAPS = (
    # campaign.faults
    Wrap("repro.campaign.engine:CampaignConfig.iter_population",
         "layer.faults.draw", _consume),
    Wrap("repro.soak.generator:spec_for_draw", "layer.faults.draw", _one),
    # campaign.trajectory
    Wrap("repro.campaign.engine:build_trajectory",
         "layer.trajectory.build"),
    Wrap("repro.campaign.engine:trajectory_rows_for",
         "layer.trajectory.rows"),
    # campaign.engine (+ kernels.fault_batch through the evaluator)
    Wrap("repro.campaign.engine:fault_runner", "layer.engine.setup",
         _wrap_evaluator),
    # exec.runner: task bodies and result serialization
    Wrap("repro.campaign.engine:campaign_chunk_task", _TASK),
    Wrap("repro.soak.driver:soak_chunk_task", _TASK),
    Wrap("repro.analysis.experiments:pipeline_point_task", _TASK),
    Wrap("repro.analysis.experiments:fig8_point_task", _TASK),
    Wrap("repro.analysis.experiments:fig1_point_task", _TASK),
    Wrap("dataclasses:asdict", "layer.exec.asdict"),
    Wrap("repro.exec.cache:encode_result", "layer.exec.encode"),
    # exec.checkpoint
    Wrap("repro.exec.checkpoint:SweepCheckpoint.record",
         "layer.checkpoint.record"),
    Wrap("repro.exec.checkpoint:SweepCheckpoint.flush",
         "layer.checkpoint.flush", _path_bytes),
    # exec.cache
    Wrap("repro.exec.cache:ResultCache.get_task", "layer.cache.get_task"),
    Wrap("repro.exec.cache:ResultCache.get", "layer.cache.get"),
    Wrap("repro.exec.cache:ResultCache.put_task", "layer.cache.put_task"),
    Wrap("repro.exec.cache:ResultCache.put", "layer.cache.put",
         _put_bytes),
    # soak
    Wrap("repro.soak.driver:run_soak", "layer.soak.run"),
    Wrap("repro.soak.journal:SoakJournal.append", "layer.soak.journal",
         _path_bytes),
    Wrap("repro.soak.driver:SoakCheckpoint.save", "layer.soak.checkpoint"),
    Wrap("repro.soak.sampler:AdaptiveSampler.allocate",
         "layer.soak.allocate"),
    Wrap("repro.soak.estimators:EscapeEstimator.update_counts",
         "layer.soak.estimate"),
    # obs.stream
    Wrap("repro.obs.stream:EventPublisher.emit", "layer.events.emit"),
    Wrap("repro.obs.exporters:write_obs_dir", "layer.obs.export"),
    # campaign.report
    Wrap("repro.campaign.report:build_report", "layer.report.build"),
    Wrap("repro.campaign.report:write_campaign_bench",
         "layer.report.write"),
    # processor / timing (the Fig. 1/8 path)
    Wrap("repro.processor.generator:generate_processor",
         "layer.sweeps.processor"),
    Wrap("repro.core.relay:relay_cost", "layer.sweeps.criticality"),
)


def _wrapped(original: typing.Callable, wrap: Wrap) -> typing.Callable:
    """``original`` timed in a span on the main thread.

    Calls from other threads (the event publisher's heartbeat) and
    calls nested in an active call of the same wrapper (recursion, as
    in ``encode_result``) pass straight through: the tracer's span
    stack is per process, not per thread.
    """
    from repro import obs

    depth = [0]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if depth[0] or (threading.current_thread()
                         is not threading.main_thread()):
            return original(*args, **kwargs)
        depth[0] += 1
        try:
            with obs.trace_span(wrap.span) as span:
                result = original(*args, **kwargs)
                if wrap.post is not None:
                    result, attrs = wrap.post(result, args, kwargs)
                    span.set(**attrs)
            return result
        finally:
            depth[0] -= 1
    return wrapper


def resolve(wrap: Wrap) -> tuple[typing.Any, str]:
    """``(owner, name)`` of a wrap target; raises if it is missing."""
    module_name, _, path = wrap.target.partition(":")
    owner: typing.Any = importlib.import_module(module_name)
    *owners, name = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        raise WrapTargetMissing(wrap.target)
    return owner, name


def install(wraps: typing.Iterable[Wrap] = WRAPS) -> None:
    """Patch every target in ``wraps``; if any is missing, patch none."""
    targets = [(wrap, *resolve(wrap)) for wrap in wraps]
    for wrap, owner, name in targets:
        original = vars(owner)[name]
        wrapper = _wrapped(original, wrap)
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            continue
        # A module function: patch every module that bound it by name.
        for module in list(sys.modules.values()):
            in_program = getattr(module, "__name__", "").startswith("repro")
            if ((module is owner or in_program)
                    and vars(module).get(name) is original):
                setattr(module, name, wrapper)


# ---------------------------------------------------------------------------
# The fold
# ---------------------------------------------------------------------------

#: Span name -> the metric its self time counts toward.  A span not
#: listed inherits the metric of its nearest listed same-pid ancestor.
SELF_TIME = {
    "sweep.run": "exec.dispatch_s",
    "campaign.run": "engine.plan_s",
    "campaign.chunk": "engine.chunk_s",
    "soak.chunk": "engine.chunk_s",
    "pipeline.run": "sim.run_s",
    "graph.run": "sim.run_s",
    "sim.run": "sim.run_s",
    "layer.faults.draw": "faults.draw_s",
    "layer.trajectory.build": "trajectory.build_s",
    "layer.trajectory.rows": "trajectory.rows_s",
    "layer.engine.setup": "engine.setup_s",
    "layer.engine.chunk": "engine.chunk_s",
    "layer.lanes.eval": "lanes.eval_s",
    _TASK: "exec.task_s",
    "layer.exec.asdict": "exec.serialize_s",
    "layer.exec.encode": "exec.serialize_s",
    "layer.checkpoint.record": "checkpoint.record_s",
    "layer.checkpoint.flush": "checkpoint.flush_s",
    "layer.cache.get_task": "cache.get_s",
    "layer.cache.get": "cache.get_s",
    "layer.cache.put_task": "cache.put_s",
    "layer.cache.put": "cache.put_s",
    "layer.soak.run": "soak.loop_s",
    "layer.soak.journal": "soak.journal_s",
    "layer.soak.checkpoint": "soak.checkpoint_s",
    "layer.soak.allocate": "soak.sampler_s",
    "layer.soak.estimate": "soak.sampler_s",
    "layer.events.emit": "events.emit_s",
    "layer.obs.export": "obs.export_s",
    "layer.report.build": "report.build_s",
    "layer.report.write": "report.write_s",
    "layer.sweeps.processor": "sweeps.processor_s",
    "layer.sweeps.criticality": "sweeps.criticality_s",
}

#: Count metric -> (span names, attribute summed or None for one per
#: span, aggregate).
COUNTS = {
    "faults.draws": (("layer.faults.draw",), "n", sum),
    "trajectory.builds": (("layer.trajectory.build",), None, sum),
    "engine.setups": (("layer.engine.setup",), None, sum),
    "engine.chunks": (("layer.engine.chunk",), None, sum),
    "engine.lanes_batched": (("layer.engine.chunk",), "batched", sum),
    "engine.lanes_replayed": (("layer.engine.chunk",), "replayed", sum),
    "lanes.calls": (("layer.lanes.eval",), None, sum),
    "lanes.lanes": (("layer.lanes.eval",), "n", sum),
    "sim.runs": (("pipeline.run", "graph.run", "sim.run"), None, sum),
    "exec.tasks": ((_TASK,), None, sum),
    "checkpoint.flushes": (("layer.checkpoint.flush",), None, sum),
    "checkpoint.bytes": (("layer.checkpoint.flush",), "bytes", sum),
    "cache.puts": (("layer.cache.put",), None, sum),
    "cache.bytes": (("layer.cache.put",), "bytes", sum),
    "soak.rounds": (("layer.soak.journal",), None, sum),
    "soak.journal_bytes": (("layer.soak.journal",), "bytes", max),
}

#: Every per-layer metric, grouped by the layer it describes (the order
#: of the printed table; units are in BENCHMARK.json's ``per_layer``).
LAYERS = {
    "campaign.faults": ("faults.draw_s", "faults.draws"),
    "campaign.trajectory": ("trajectory.build_s", "trajectory.rows_s",
                            "trajectory.builds"),
    "campaign.engine": ("engine.plan_s", "engine.setup_s", "engine.setups",
                        "engine.chunk_s", "engine.chunks",
                        "engine.lanes_batched", "engine.lanes_replayed",
                        "engine.batch_ratio"),
    "kernels.fault_batch": ("lanes.eval_s", "lanes.calls", "lanes.lanes"),
    "pipeline": ("sim.run_s", "sim.runs", "kernel.cycles_screened",
                 "kernel.cycles_replayed"),
    "exec.runner": ("exec.run_s", "exec.dispatch_s", "exec.task_s",
                    "exec.tasks", "exec.task_p50_ms", "exec.task_p99_ms",
                    "exec.worker_util", "exec.serialize_s", "exec.retries",
                    "exec.poisoned"),
    "exec.checkpoint": ("checkpoint.record_s", "checkpoint.flush_s",
                        "checkpoint.flushes", "checkpoint.bytes"),
    "exec.cache": ("cache.get_s", "cache.put_s", "cache.puts",
                   "cache.bytes"),
    "soak": ("soak.loop_s", "soak.journal_s", "soak.journal_bytes",
             "soak.checkpoint_s", "soak.sampler_s", "soak.rounds",
             "soak.round_p50_ms", "soak.round_p95_ms"),
    "obs.stream": ("events.emit_s", "events.records", "events.bytes",
                   "obs.export_s"),
    "campaign.report": ("report.build_s", "report.write_s"),
    "processor/timing": ("sweeps.processor_s", "sweeps.criticality_s"),
    "trace": ("trace.wall_s", "trace.coverage", "trace.other_s",
              "trace.unmapped_s", "trace.spans", "trace.overhead_pct"),
}
METRICS = tuple(name for group in LAYERS.values() for name in group)


def percentiles(values: typing.Sequence[float],
                *ps: int) -> list[float]:
    """The ``ps``-th percentiles (inclusive method; 0 for no values)."""
    if len(values) < 2:
        return [values[0] if values else 0.0 for _ in ps]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return [cuts[p - 1] for p in ps]


def self_times(records: typing.Sequence[dict]) -> list[int]:
    """Each record's duration minus its same-pid children's (ns)."""
    index = {(r["pid"], r["span_id"]): i for i, r in enumerate(records)}
    own = [max(0, r["end_ns"] - r["start_ns"]) for r in records]
    out = list(own)
    for i, record in enumerate(records):
        parent = index.get((record["pid"], record["parent_id"]))
        if parent is not None:
            out[parent] -= own[i]
    return [max(0, value) for value in out]


def _metric_of(records, index, i) -> str:
    """The self-time metric of record ``i`` (nearest listed ancestor)."""
    while True:
        name = SELF_TIME.get(records[i]["name"])
        if name is not None:
            return name
        parent = index.get((records[i]["pid"], records[i]["parent_id"]))
        if parent is None:
            return "trace.unmapped_s"
        i = parent


def _covered_ns(records, index, pid: int, window: tuple[int, int]) -> int:
    """Nanoseconds of ``window`` inside root spans of process ``pid``."""
    start, end = window
    covered = 0
    for record in records:
        if record["pid"] != pid:
            continue
        if (pid, record["parent_id"]) in index:
            continue
        covered += max(0, min(end, record["end_ns"])
                       - max(start, record["start_ns"]))
    return covered


def fold(records: typing.Sequence[dict], *, pid: int,
         window: tuple[int, int], workers: int = 1) -> dict:
    """Per-layer metrics of one traced run.

    ``records`` are span records of every process; ``pid`` is the main
    process, whose ``perf_counter_ns`` clock ``window`` is on.
    Self times and counts sum over all processes (pool workers
    included); coverage and ``trace.other_s`` describe the main process.
    """
    metrics = {name: 0.0 for name in METRICS}
    index = {(r["pid"], r["span_id"]): i for i, r in enumerate(records)}
    for i, ns in enumerate(self_times(records)):
        metrics[_metric_of(records, index, i)] += ns / 1e9
    for metric, (names, attr, aggregate) in COUNTS.items():
        values = [1 if attr is None else record["attrs"].get(attr, 0)
                  for record in records if record["name"] in names]
        metrics[metric] = aggregate(values) if values else 0
    metrics["exec.run_s"] = sum(
        r["end_ns"] - r["start_ns"] for r in records
        if r["name"] == "sweep.run") / 1e9
    tasks = [(r["end_ns"] - r["start_ns"]) / 1e6 for r in records
             if r["name"] == _TASK]
    metrics["exec.task_p50_ms"], metrics["exec.task_p99_ms"] = percentiles(
        tasks, 50, 99)
    wall_ns = max(1, window[1] - window[0])
    metrics["exec.worker_util"] = sum(tasks) / 1e3 / (
        workers * wall_ns / 1e9)
    lanes = metrics["engine.lanes_batched"] + metrics["engine.lanes_replayed"]
    metrics["engine.batch_ratio"] = (
        metrics["engine.lanes_batched"] / lanes if lanes else 0.0)
    covered = _covered_ns(records, index, pid, window)
    metrics["trace.wall_s"] = wall_ns / 1e9
    metrics["trace.coverage"] = covered / wall_ns
    metrics["trace.other_s"] = (wall_ns - covered) / 1e9
    metrics["trace.spans"] = len(records)
    return metrics


def registry_metrics(snapshot: dict) -> dict:
    """Kernel and retry counters from a registry snapshot."""
    def total(name: str, **labels: str) -> float:
        family = snapshot.get(name, {"series": []})
        return sum(entry["value"] for entry in family["series"]
                   if labels.items() <= entry["labels"].items())

    return {
        "kernel.cycles_screened": total("repro_kernel_cycles_screened_total"),
        "kernel.cycles_replayed": total("repro_kernel_cycles_replayed_total"),
        "exec.retries": total("repro_exec_retries_total"),
        "exec.poisoned": total("repro_exec_tasks_total", status="poisoned"),
    }


def spool_metrics(path: pathlib.Path) -> dict:
    """Event counts and soak round latency from a run's event spool."""
    if not path.exists():
        return {}
    from repro.obs.stream import read_events

    _header, events = read_events(path)
    walls = [event["wall"] for event in events if event["type"] == "round"]
    gaps = [(b - a) * 1e3 for a, b in zip(walls, walls[1:])]
    p50, p95 = percentiles(gaps, 50, 95)
    return {"events.records": len(events) + 1,
            "events.bytes": path.stat().st_size,
            "soak.round_p50_ms": p50, "soak.round_p95_ms": p95}


def layer_table(metrics: dict, units: dict) -> str:
    """The per-layer table: every metric, seconds also as % of wall."""
    wall = metrics["trace.wall_s"] or 1.0
    lines = []
    for layer, group in LAYERS.items():
        for name in group:
            value, unit = metrics[name], units[name]
            share = (f"{100 * value / wall:6.1f}%" if unit == "s"
                     and name != "trace.wall_s" else "")
            lines.append(f"{layer:20s} {name:24s} {value:14.6g} "
                         f"{unit:6s} {share}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    trace_dir = pathlib.Path(args.trace_dir)
    from repro import obs
    # Bound before install(): the export after an in-process body is
    # not part of the traced run.
    from repro.obs.exporters import write_obs_dir

    if not obs.tracing_enabled():
        raise SystemExit("traced.py needs REPRO_OBS=1 in the environment")
    install()
    report = None
    if plan["kind"] == "inproc":
        body = workloads.prepare(plan)
        start = time.perf_counter_ns()
        out = body()
        end = time.perf_counter_ns()
        records = obs.TRACER.records()
        report = workloads.check_inproc(plan, out)
        write_obs_dir(trace_dir, obs.REGISTRY, obs.TRACER)
    else:
        from repro.cli import main as cli_main

        code = cli_main(plan["argv"] + ["--obs-out", str(trace_dir)])
        end = time.perf_counter_ns()
        records = obs.TRACER.records()
        if code != 0:
            raise SystemExit(f"repro-timber exited {code}")
        start = next(event["mono_ns"] for event in
                     workloads.read_events(pathlib.Path())
                     if event["type"] == "run_start")
    metrics = fold(records, pid=os.getpid(), window=(start, end),
                   workers=plan.get("workers", 1))
    metrics.update(registry_metrics(obs.REGISTRY.snapshot()))
    metrics.update(spool_metrics(pathlib.Path("events.jsonl")))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": (end - start) / 1e9, "metrics": metrics,
                   "report": report}, handle)


if __name__ == "__main__":
    main()
