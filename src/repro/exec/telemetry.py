"""Run telemetry: one fold over exec events, and the summary it projects.

Each exec fact (a run start, a task outcome, a batch round-trip, a
warm-cache delta, a retry, a worker crash, a serial fallback, a run
finish) is recorded once, by one ``RunTelemetry.record_*`` call, as an
*exec event*: a flat JSON-able dict.  That event is

* folded by :func:`fold_exec` into the run's :class:`ExecTally`, which
  also bumps the ``repro_exec_*`` registry mirrors;
* handed to every listener as ``listener(kind, event)`` (the obs event
  publisher folds it into its own tally through the same function);
* the ``extra=`` payload of its ``repro.exec`` log line, so log
  processors consume the raw fields without parsing message strings.

:meth:`RunTelemetry.summary` is a projection of the tally: run wall
time, cache hits and misses, events processed by the tasks executed in
this process, and worker utilization (busy task seconds divided by
``run wall time x workers``; 1.0 means the pool never idled).
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import time
import typing

from repro import obs
from repro.kernels import kernel_mode
from repro.obs.health import ALERT_COUNTS, EXEC_COUNTS

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.exec.runner import SweepTask, TaskOutcome

logger = logging.getLogger("repro.exec")

# Registry mirrors of the tally, bumped inside :func:`fold_exec`.
# (``repro_exec_`` metrics depend on cache and checkpoint state, so they
# sit outside the determinism contract.)
_OBS_TASKS = obs.REGISTRY.family("repro_exec_tasks_total")
_OBS_BY_DISPOSITION = {
    status: _OBS_TASKS.labels(status=status)
    for status in ("executed", "cached", "resumed", "poisoned")}
_OBS_ALERTS = {
    "retry": obs.REGISTRY.family("repro_exec_retries_total").labels(),
    "crash": obs.REGISTRY.family("repro_exec_crashes_total").labels(),
    "fallback": obs.REGISTRY.family(
        "repro_exec_serial_fallbacks_total").labels(),
}
_OBS_EVENTS = obs.REGISTRY.family("repro_exec_events_processed_total").labels()
_OBS_WORKERS = obs.REGISTRY.family("repro_exec_workers").labels()
_OBS_TASK_SECONDS = obs.REGISTRY.family("repro_exec_task_seconds").labels()
_OBS_BATCHES = obs.REGISTRY.family("repro_exec_batches_total").labels()
_OBS_BATCH_TASKS = obs.REGISTRY.family("repro_exec_batch_tasks").labels()
_OBS_WARM = obs.REGISTRY.family("repro_exec_warm_cache_total")

#: Log verb per task disposition.
_VERBS = {"poisoned": "poisoned", "resumed": "resumed from checkpoint",
          "cached": "cache hit", "executed": "executed"}

#: ``extra=`` attribute name of each event kind's log line.
_LOG_EXTRA = {"start": "repro_sweep", "task": "repro_task",
              "batch": "repro_batch", "retry": "repro_retry",
              "crash": "repro_crash", "fallback": "repro_fallback",
              "finish": "repro_summary"}


def _disposition(task: typing.Mapping) -> str:
    """A task event's one disposition: poisoned, resumed, cached or
    executed, in that precedence."""
    if task["status"] == "poisoned":
        return "poisoned"
    if task["resumed"]:
        return "resumed"
    return "cached" if task["cached"] else "executed"


class ExecTally:
    """What a fold of exec events holds.

    ``counts`` carries :data:`~repro.obs.health.EXEC_COUNTS`, the
    counters a ``progress`` event ships and ``RunHealth`` reports;
    ``busy_s`` sums the wall time of executed tasks.  Both accumulate
    for as long as the tally lives, as do the ``warm`` hit and miss
    counts.  The lists are per run: a ``start`` event clears them, so a
    tally that outlives one run (the publisher's) holds no more than
    the current run's records.
    """

    def __init__(self) -> None:
        self.counts = dict.fromkeys(EXEC_COUNTS, 0)
        self.busy_s = 0.0
        self.workers = 1
        self.num_tasks = 0
        self.tasks: list[dict] = []
        self.batch_sizes: list[int] = []
        self.warm: dict[str, dict[str, int]] = {}
        #: ``retry``, ``crash`` and ``fallback`` events, by kind.
        self.alerts: dict[str, list[dict]] = {
            "retry": [], "crash": [], "fallback": []}


def fold_exec(tally: ExecTally, kind: str, event: dict, *,
              mirror: bool = False) -> None:
    """Fold one exec event into ``tally``.

    ``mirror`` also bumps the ``repro_exec_*`` registry series; only the
    recording :class:`RunTelemetry` sets it, so a second fold of the
    same event (the publisher's) never counts it twice there.
    """
    counts = tally.counts
    if kind == "task":
        tally.tasks.append(event)
        counts["done"] += 1
        status = _disposition(event)
        counts[status] += 1
        if status == "executed":
            counts["events_processed"] += event["events_processed"]
            tally.busy_s += event["wall_time_s"]
            if mirror:
                _OBS_EVENTS.inc(event["events_processed"])
                _OBS_TASK_SECONDS.observe(event["wall_time_s"])
        if mirror:
            _OBS_BY_DISPOSITION[status].inc()
    elif kind in ("batch", "warm"):
        if kind == "batch":
            counts["batches"] += 1
            tally.batch_sizes.append(event["size"])
            if mirror:
                _OBS_BATCHES.inc()
                _OBS_BATCH_TASKS.observe(event["size"])
        for warm_kind, (hits, misses) in event["warm"].items():
            entry = tally.warm.setdefault(warm_kind,
                                          {"hits": 0, "misses": 0})
            entry["hits"] += hits
            entry["misses"] += misses
            if mirror and hits:
                _OBS_WARM.labels(kind=warm_kind, result="hit").inc(hits)
            if mirror and misses:
                _OBS_WARM.labels(kind=warm_kind, result="miss").inc(misses)
    elif kind in tally.alerts:
        counts[ALERT_COUNTS[kind]] += 1
        tally.alerts[kind].append(event)
        if mirror:
            _OBS_ALERTS[kind].inc()
    elif kind == "checkpoint":
        counts["checkpoints"] += 1
    elif kind == "start":
        tally.workers = event["workers"]
        tally.num_tasks = event["num_tasks"]
        for records in (tally.tasks, tally.batch_sizes,
                        *tally.alerts.values()):
            records.clear()
        if mirror:
            _OBS_WORKERS.set(event["workers"])
    # ``finish`` (the summary) changes no count.


class RunTelemetry:
    """Records one sweep run's exec events and summarises them."""

    def __init__(self) -> None:
        self.tally = ExecTally()
        self.kernel_mode: str | None = None
        self._started: float | None = None
        self._wall_time_s = 0.0
        #: Live observers, called as ``listener(kind, event)`` with
        #: every event this telemetry folds (``start``, ``task``,
        #: ``batch``, ``warm``, ``retry``, ``crash``, ``fallback``, and
        #: ``finish``, whose event is the summary).  A listener that
        #: raises is logged and skipped: telemetry fan-out must never
        #: abort the run it narrates.
        self.listeners: list[typing.Callable[[str, dict], None]] = []

    def _record(self, kind: str, event: dict, level: int = logging.NOTSET,
                message: str = "", *args: typing.Any) -> None:
        """Fold ``event``, hand it to the listeners, and log it."""
        fold_exec(self.tally, kind, event, mirror=True)
        for listener in list(self.listeners):
            try:
                listener(kind, event)
            except Exception:  # pragma: no cover - defensive
                logger.warning("telemetry listener failed on %r", kind,
                               exc_info=True)
        if message and logger.isEnabledFor(level):
            logger.log(level, message, *args,
                       extra={_LOG_EXTRA[kind]: event})

    # -- lifecycle ---------------------------------------------------------
    def start(self, *, workers: int, num_tasks: int) -> None:
        self.tally = ExecTally()
        # Capture once: kernel_mode() reads the environment, which a
        # long-running process may mutate between run and summary.
        self.kernel_mode = kernel_mode()
        self._started = time.perf_counter()
        self._record("start", {"workers": workers, "num_tasks": num_tasks},
                     logging.INFO, "sweep start: %d task(s) on %d worker(s)",
                     num_tasks, workers)

    def record_task(self, outcome: "TaskOutcome") -> None:
        event = {
            "key": outcome.task.key,
            "index": outcome.task.index,
            "wall_time_s": outcome.wall_time_s,
            "events_processed": outcome.events_processed,
            "cached": outcome.cached,
            "attempts": outcome.attempts,
            "worker_pid": outcome.worker_pid,
            "status": outcome.status,
            "resumed": outcome.resumed,
        }
        self._record("task", event, logging.INFO,
                     "task %s: %s in %.3fs (%d events, attempt %d, pid %d)",
                     event["key"], _VERBS[_disposition(event)],
                     event["wall_time_s"], event["events_processed"],
                     event["attempts"], event["worker_pid"])

    def record_batch(self, *, size: int,
                     warm: dict | None = None) -> None:
        """One batch round-trip completed (``size`` tasks dispatched)."""
        self._record("batch", {"size": size, "warm": warm or {}},
                     logging.DEBUG, "batch of %d task(s) returned", size)

    def record_warm(self, delta: dict | None) -> None:
        """Fold a worker's warm-cache ``{kind: [hits, misses]}`` delta."""
        if delta:
            self._record("warm", {"warm": delta})

    def record_retry(self, task: "SweepTask", error: BaseException, *,
                     backoff_s: float = 0.0) -> None:
        self._record("retry", {"key": task.key, "error": repr(error),
                               "backoff_s": backoff_s},
                     logging.WARNING,
                     "task %s failed (%s); retrying after %.3fs backoff",
                     task.key, error, backoff_s)

    def record_crash(self, task: "SweepTask",
                     error: BaseException) -> None:
        """One definite worker death attributed to ``task``."""
        self._record("crash", {"key": task.key, "error": repr(error)},
                     logging.WARNING, "task %s killed its worker (%s)",
                     task.key, error)

    def record_fallback(self, error: BaseException) -> None:
        self._record("fallback", {"error": repr(error)}, logging.WARNING,
                     "process pool unavailable (%s); falling back to "
                     "serial", error)

    def finish(self) -> dict:
        """Freeze the run and return the machine-readable summary."""
        if self._started is not None:
            self._wall_time_s = time.perf_counter() - self._started
            self._started = None
        summary = self.summary()
        self._record("finish", summary, logging.INFO,
                     "sweep done: %d task(s) in %.3fs — %d cache hit(s), "
                     "%d miss(es), %.0f%% worker utilization",
                     summary["tasks"], summary["wall_time_s"],
                     summary["cache_hits"], summary["cache_misses"],
                     100.0 * summary["worker_utilization"])
        return summary

    # -- projection --------------------------------------------------------
    def summary(self) -> dict:
        """The tally as the run's JSON-able summary."""
        if self.kernel_mode is None:  # summary before any start()
            self.kernel_mode = kernel_mode()
        tally = self.tally
        counts = tally.counts
        # Poisoned tasks count as misses: the cache could not serve them.
        misses = counts["executed"] + counts["poisoned"]
        busy = tally.busy_s
        wall = self._wall_time_s
        if self._started is not None:  # summary of a still-running sweep
            wall = time.perf_counter() - self._started
        utilization = (busy / (wall * tally.workers)
                       if wall > 0 and misses else 0.0)
        sizes = tally.batch_sizes
        retries = tally.alerts["retry"]
        return {
            "tasks": counts["done"],
            "workers": tally.workers,
            "kernel_mode": self.kernel_mode,
            "wall_time_s": wall,
            "cache_hits": counts["cached"],
            "cache_misses": misses,
            "events_processed": counts["events_processed"],
            "task_wall_time_s": {
                "total": busy,
                "max": max((task["wall_time_s"] for task in tally.tasks
                            if _disposition(task) == "executed"),
                           default=0.0),
                "mean": busy / misses if misses else 0.0,
            },
            "worker_utilization": min(1.0, utilization),
            "batches": counts["batches"],
            "batch_tasks": {
                "max": max(sizes, default=0),
                "mean": sum(sizes) / len(sizes) if sizes else 0.0,
            },
            "warm_cache": {kind: dict(tally.warm[kind])
                           for kind in sorted(tally.warm)},
            "retries": list(retries),
            "backoff_s_total": sum(retry["backoff_s"] for retry in retries),
            "serial_fallbacks": [fallback["error"]
                                 for fallback in tally.alerts["fallback"]],
            "crashes": list(tally.alerts["crash"]),
            "poisoned": [task["key"] for task in tally.tasks
                         if task["status"] == "poisoned"],
            "resumed_tasks": counts["resumed"],
            "per_task": [dict(task) for task in tally.tasks],
        }

    def write_summary(self, path: str | os.PathLike) -> None:
        """Write the summary JSON to ``path``."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.summary(), indent=2) + "\n",
                          encoding="utf-8")


def format_summary(summary: dict, *, top_n: int = 5) -> str:
    """Render a run summary for terminal output.

    Shows the aggregate counters plus the ``top_n`` slowest executed
    tasks, so per-task timings and cache behaviour are visible without
    opening the JSON.
    """
    lines = [
        f"tasks: {summary['tasks']}  "
        f"(cache hits: {summary['cache_hits']}, "
        f"misses: {summary['cache_misses']})",
        f"wall time: {summary['wall_time_s']:.3f}s on "
        f"{summary['workers']} worker(s), "
        f"utilization {100.0 * summary['worker_utilization']:.0f}%",
        f"events processed: {summary['events_processed']}  "
        f"task time total/mean/max: "
        f"{summary['task_wall_time_s']['total']:.3f}/"
        f"{summary['task_wall_time_s']['mean']:.3f}/"
        f"{summary['task_wall_time_s']['max']:.3f}s",
    ]
    if summary.get("batches"):
        lines.append(
            f"batches: {summary['batches']} "
            f"(mean {summary['batch_tasks']['mean']:.1f} tasks, "
            f"max {summary['batch_tasks']['max']})")
    warm = summary.get("warm_cache") or {}
    if warm:
        hits = sum(entry["hits"] for entry in warm.values())
        total = hits + sum(entry["misses"] for entry in warm.values())
        lines.append(
            f"warm cache: {hits}/{total} hit(s) across "
            f"{len(warm)} kind(s)")
    if summary["retries"]:
        lines.append(
            f"retries: {len(summary['retries'])} "
            f"(backoff total {summary.get('backoff_s_total', 0.0):.3f}s)")
    if summary.get("poisoned"):
        lines.append(
            f"poisoned: {len(summary['poisoned'])} "
            f"({', '.join(summary['poisoned'])})")
    if summary.get("resumed_tasks"):
        lines.append(f"resumed from checkpoint: "
                     f"{summary['resumed_tasks']}")
    executed = [r for r in summary["per_task"]
                if not r["cached"] and not r.get("resumed")]
    slowest = sorted(executed, key=lambda r: r["wall_time_s"],
                     reverse=True)[:top_n]
    for record in slowest:
        lines.append(
            f"  {record['wall_time_s']:8.3f}s  {record['key']}")
    return "\n".join(lines)
