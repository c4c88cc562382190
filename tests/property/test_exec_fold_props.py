"""Property: every view of the exec fold reports the same counts.

One :class:`RunTelemetry` with an :class:`EventPublisher` attached runs
two sweeps back to back, the way a campaign runs its scheme phases.
Each run records arbitrary task dispositions, batches with warm-cache
deltas, retries, crashes and serial fallbacks.  The two runs' summaries
(summed), the ``repro_exec_*`` registry deltas, the last ``progress``
event and :func:`fold_events` over the spool must then agree on every
count they share.
"""

import math
import pathlib
import tempfile

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.exec.runner import SweepTask, TaskOutcome
from repro.exec.telemetry import RunTelemetry
from repro.obs.health import fold_events
from repro.obs.stream import EventPublisher, read_events

SHARED = ("done", "executed", "cached", "resumed", "poisoned", "retries",
          "crashes", "fallbacks", "batches", "events_processed")

_task = st.tuples(
    st.just("task"),
    st.sampled_from(("executed", "cached", "resumed", "poisoned")),
    st.integers(0, 50),
    st.floats(0.0, 2.0, allow_nan=False))
_warm = st.dictionaries(st.sampled_from(("processor", "criticality")),
                        st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        max_size=2)
_step = st.one_of(
    _task,
    st.tuples(st.just("batch"), st.integers(1, 8), _warm),
    st.tuples(st.just("warm"), _warm),
    st.tuples(st.just("retry"), st.floats(0.0, 0.5, allow_nan=False)),
    st.tuples(st.just("crash")),
    st.tuples(st.just("fallback")))
_run = st.tuples(st.integers(1, 4), st.lists(_step, max_size=12))


def _sweep_task(index: int) -> SweepTask:
    return SweepTask(experiment="repro.exec.testing:square_task",
                     params={"x": index}, index=index, seed=0,
                     key=f"t{index}")


def _outcome(index: int, disposition: str, events: int,
             wall_s: float) -> TaskOutcome:
    if disposition in ("cached", "poisoned"):  # as the runner makes them
        events, wall_s = 0, 0.0
    return TaskOutcome(task=_sweep_task(index), value=index, wall_time_s=wall_s,
                       events_processed=events,
                       cached=disposition == "cached", attempts=1,
                       worker_pid=1,
                       status=("poisoned" if disposition == "poisoned"
                               else "done"),
                       resumed=disposition == "resumed")


def _drive(telemetry: RunTelemetry, workers: int, steps: list) -> dict:
    tasks = [step for step in steps if step[0] == "task"]
    telemetry.start(workers=workers, num_tasks=len(tasks))
    index = 0
    for kind, *args in steps:
        task = _sweep_task(index)
        if kind == "task":
            telemetry.record_task(_outcome(index, *args))
            index += 1
        elif kind == "batch":
            telemetry.record_batch(size=args[0], warm=args[1])
        elif kind == "warm":
            telemetry.record_warm(args[0])
        elif kind == "retry":
            telemetry.record_retry(task, ValueError("flaky"),
                                   backoff_s=args[0])
        elif kind == "crash":
            telemetry.record_crash(task, RuntimeError("worker died"))
        else:
            telemetry.record_fallback(OSError("no pool"))
    return telemetry.finish()


def _summary_counts(summary: dict) -> dict:
    poisoned = len(summary["poisoned"])
    return {
        "done": summary["tasks"],
        "executed": summary["cache_misses"] - poisoned,
        "cached": summary["cache_hits"],
        "resumed": summary["resumed_tasks"],
        "poisoned": poisoned,
        "retries": len(summary["retries"]),
        "crashes": len(summary["crashes"]),
        "fallbacks": len(summary["serial_fallbacks"]),
        "batches": summary["batches"],
        "events_processed": summary["events_processed"],
    }


def _registry_counts(delta: dict) -> dict:
    def total(name, **labels):
        return sum(entry["value"]
                   for entry in delta.get(name, {}).get("series", ())
                   if labels.items() <= entry["labels"].items())

    tasks = "repro_exec_tasks_total"
    return {
        "done": total(tasks),
        "executed": total(tasks, status="executed"),
        "cached": total(tasks, status="cached"),
        "resumed": total(tasks, status="resumed"),
        "poisoned": total(tasks, status="poisoned"),
        "retries": total("repro_exec_retries_total"),
        "crashes": total("repro_exec_crashes_total"),
        "fallbacks": total("repro_exec_serial_fallbacks_total"),
        "batches": total("repro_exec_batches_total"),
        "events_processed": total("repro_exec_events_processed_total"),
    }


@settings(max_examples=40, deadline=None)
@given(runs=st.lists(_run, min_size=2, max_size=2))
def test_summary_registry_progress_and_health_agree(runs):
    telemetry = RunTelemetry()
    was_enabled = obs.enabled()
    obs.enable()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            spool = pathlib.Path(tmp) / "events.jsonl"
            before = obs.REGISTRY.snapshot()
            with EventPublisher(spool, kind="campaign", heartbeat_s=60.0,
                                progress_every_s=0) as publisher:
                publisher.attach(telemetry)
                publisher.run_start(unit="tasks")
                summaries = []
                for phase, (workers, steps) in enumerate(runs):
                    publisher.set_phase(f"phase-{phase}")
                    summaries.append(_drive(telemetry, workers, steps))
                publisher.run_end("ok")
            delta = obs.snapshot_delta(before, obs.REGISTRY.snapshot())
            header, events = read_events(spool)
    finally:
        if not was_enabled:
            obs.disable()

    from_summaries = {key: sum(_summary_counts(summary)[key]
                               for summary in summaries)
                      for key in SHARED}
    assert _registry_counts(delta) == from_summaries
    health = fold_events([header, *events]).to_json()
    assert {key: health[key] for key in SHARED} == from_summaries
    progress = [event for event in events if event["type"] == "progress"]
    if any(from_summaries.values()):
        assert {key: progress[-1][key] for key in SHARED} == from_summaries

    busy_s = sum(summary["task_wall_time_s"]["total"]
                 for summary in summaries)
    assert math.isclose(health["busy_s"], busy_s, abs_tol=1e-5)
    warm: dict = {}
    for summary in summaries:
        for kind, entry in summary["warm_cache"].items():
            for field, result in (("hits", "hit"), ("misses", "miss")):
                warm[kind, result] = (warm.get((kind, result), 0)
                                      + entry[field])
    registry_warm = {
        (entry["labels"]["kind"], entry["labels"]["result"]):
            entry["value"]
        for entry in delta.get("repro_exec_warm_cache_total",
                               {}).get("series", ())}
    assert registry_warm == {key: value for key, value in warm.items()
                             if value}
