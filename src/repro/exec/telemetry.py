"""Run telemetry: structured logging plus a machine-readable summary.

Every sweep run records, per task: wall time, events processed, cache
hit/miss, attempts, and the worker that ran it.  The aggregate summary
adds run wall time, cache hit rate, and worker utilization (busy task
seconds divided by ``run wall time x workers`` — 1.0 means the pool
never idled).  Records are emitted through the ``repro.exec`` logger
with the raw fields attached under ``extra`` so log processors can
consume them without parsing message strings.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pathlib
import time
import typing

from repro import obs

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.exec.runner import SweepTask, TaskOutcome

logger = logging.getLogger("repro.exec")

# Shared-registry mirrors of the summary's aggregates: record_* feeds
# both from the same call sites, so ``summary()`` and the obs exporters
# can never drift apart.  (``repro_exec_`` metrics depend on cache and
# checkpoint state, so they sit outside the determinism contract.)
_OBS_TASKS = obs.REGISTRY.counter(
    "repro_exec_tasks_total",
    "Sweep task outcomes by disposition",
    labelnames=("status",))
_OBS_EXECUTED = _OBS_TASKS.labels(status="executed")
_OBS_CACHED = _OBS_TASKS.labels(status="cached")
_OBS_RESUMED = _OBS_TASKS.labels(status="resumed")
_OBS_POISONED = _OBS_TASKS.labels(status="poisoned")
_OBS_RETRIES = obs.REGISTRY.counter(
    "repro_exec_retries_total", "Task retry attempts").labels()
_OBS_CRASHES = obs.REGISTRY.counter(
    "repro_exec_crashes_total", "Definite worker deaths").labels()
_OBS_FALLBACKS = obs.REGISTRY.counter(
    "repro_exec_serial_fallbacks_total",
    "Process-pool failures that fell back to serial execution").labels()
_OBS_EVENTS = obs.REGISTRY.counter(
    "repro_exec_events_processed_total",
    "Simulated-work units reported by executed tasks").labels()
_OBS_WORKERS = obs.REGISTRY.gauge(
    "repro_exec_workers", "Worker-pool size of the most recent sweep",
).labels()
_OBS_TASK_SECONDS = obs.REGISTRY.histogram(
    "repro_exec_task_seconds",
    "Wall time per executed (non-cached, non-resumed) task",
    buckets=(0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
             30.0, 60.0)).labels()
_OBS_BATCHES = obs.REGISTRY.counter(
    "repro_exec_batches_total",
    "Task batches dispatched, to pool workers or in-parent").labels()
_OBS_BATCH_TASKS = obs.REGISTRY.histogram(
    "repro_exec_batch_tasks",
    "Tasks per dispatched batch",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256)).labels()
_OBS_WARM = obs.REGISTRY.counter(
    "repro_exec_warm_cache_total",
    "Warm-cache lookups inside workers, by artefact kind and result",
    labelnames=("kind", "result"))


@dataclasses.dataclass
class TaskRecord:
    """Telemetry for one executed (or cache-served) task."""

    key: str
    index: int
    wall_time_s: float
    events_processed: int
    cached: bool
    attempts: int
    worker_pid: int
    status: str = "done"
    resumed: bool = False

    def to_json(self) -> dict:
        """The record as a dict, in field order (what ``asdict`` gives
        for these flat fields, without its recursive deep copy)."""
        return {name: getattr(self, name) for name in _RECORD_FIELDS}


_RECORD_FIELDS = tuple(field.name
                       for field in dataclasses.fields(TaskRecord))


class RunTelemetry:
    """Collects task records for one sweep run and summarises them."""

    def __init__(self) -> None:
        self.records: list[TaskRecord] = []
        self.retries: list[dict] = []
        self.fallbacks: list[str] = []
        self.crashes: list[dict] = []
        self.batch_sizes: list[int] = []
        self.warm: dict[str, dict[str, int]] = {}
        self.workers = 1
        self.num_tasks = 0
        self.kernel_mode: str | None = None
        self._started: float | None = None
        self._wall_time_s = 0.0
        #: Live observers: ``listener(kind, payload)`` called from the
        #: same sites that feed the summary, so a subscriber (the obs
        #: event publisher) sees exactly what the summary will say.
        #: Kinds: ``start`` (dict), ``task`` (:class:`TaskRecord`),
        #: ``batch``/``retry``/``crash``/``fallback`` (dict),
        #: ``finish`` (summary dict).  A listener that raises is
        #: logged and skipped — telemetry fan-out must never abort
        #: the run it narrates.
        self.listeners: list[typing.Callable[[str, typing.Any],
                                             None]] = []

    def _notify(self, kind: str, payload: typing.Any) -> None:
        for listener in list(self.listeners):
            try:
                listener(kind, payload)
            except Exception:  # pragma: no cover - defensive
                logger.warning("telemetry listener failed on %r", kind,
                               exc_info=True)

    # -- lifecycle ---------------------------------------------------------
    def start(self, *, workers: int, num_tasks: int) -> None:
        from repro.kernels import kernel_mode

        self.records = []
        self.retries = []
        self.fallbacks = []
        self.crashes = []
        self.batch_sizes = []
        self.warm = {}
        self.workers = workers
        self.num_tasks = num_tasks
        # Capture once: kernel_mode() reads the environment, which a
        # long-running process may mutate between run and summary.
        self.kernel_mode = kernel_mode()
        _OBS_WORKERS.set(workers)
        self._started = time.perf_counter()
        self._notify("start", {"workers": workers,
                               "num_tasks": num_tasks})
        logger.info(
            "sweep start: %d task(s) on %d worker(s)", num_tasks, workers,
            extra={"repro_sweep": {"tasks": num_tasks,
                                   "workers": workers}},
        )

    def record_task(self, outcome: "TaskOutcome") -> None:
        record = TaskRecord(
            key=outcome.task.key,
            index=outcome.task.index,
            wall_time_s=outcome.wall_time_s,
            events_processed=outcome.events_processed,
            cached=outcome.cached,
            attempts=outcome.attempts,
            worker_pid=outcome.worker_pid,
            status=outcome.status,
            resumed=outcome.resumed,
        )
        self.records.append(record)
        if record.status == "poisoned":
            verb = "poisoned"
            _OBS_POISONED.inc()
        elif record.resumed:
            verb = "resumed from checkpoint"
            _OBS_RESUMED.inc()
        elif record.cached:
            verb = "cache hit"
            _OBS_CACHED.inc()
        else:
            verb = "executed"
            _OBS_EXECUTED.inc()
            _OBS_EVENTS.inc(record.events_processed)
            _OBS_TASK_SECONDS.observe(record.wall_time_s)
        self._notify("task", record)
        if logger.isEnabledFor(logging.INFO):
            logger.info(
                "task %s: %s in %.3fs (%d events, attempt %d, pid %d)",
                record.key, verb,
                record.wall_time_s, record.events_processed,
                record.attempts, record.worker_pid,
                extra={"repro_task": record.to_json()},
            )

    def record_batch(self, *, size: int,
                     warm: dict | None = None) -> None:
        """One batch round-trip completed (``size`` tasks dispatched)."""
        self.batch_sizes.append(size)
        _OBS_BATCHES.inc()
        _OBS_BATCH_TASKS.observe(size)
        self._notify("batch", {"size": size})
        logger.debug(
            "batch of %d task(s) returned", size,
            extra={"repro_batch": {"size": size, "warm": warm or {}}},
        )
        self.record_warm(warm)

    def record_warm(self, delta: dict | None) -> None:
        """Fold a worker's warm-cache ``{kind: [hits, misses]}`` delta."""
        if not delta:
            return
        for kind, (hits, misses) in delta.items():
            entry = self.warm.setdefault(kind, {"hits": 0, "misses": 0})
            entry["hits"] += hits
            entry["misses"] += misses
            if hits:
                _OBS_WARM.labels(kind=kind, result="hit").inc(hits)
            if misses:
                _OBS_WARM.labels(kind=kind, result="miss").inc(misses)

    def record_retry(self, task: "SweepTask", error: BaseException, *,
                     backoff_s: float = 0.0) -> None:
        self.retries.append({"key": task.key, "error": repr(error),
                             "backoff_s": backoff_s})
        _OBS_RETRIES.inc()
        self._notify("retry", self.retries[-1])
        logger.warning(
            "task %s failed (%s); retrying after %.3fs backoff",
            task.key, error, backoff_s,
            extra={"repro_retry": {"key": task.key,
                                   "error": repr(error),
                                   "backoff_s": backoff_s}},
        )

    def record_crash(self, task: "SweepTask",
                     error: BaseException) -> None:
        """One definite worker death attributed to ``task``."""
        self.crashes.append({"key": task.key, "error": repr(error)})
        _OBS_CRASHES.inc()
        self._notify("crash", self.crashes[-1])
        logger.warning(
            "task %s killed its worker (%s)", task.key, error,
            extra={"repro_crash": {"key": task.key,
                                   "error": repr(error)}},
        )

    def record_fallback(self, error: BaseException) -> None:
        self.fallbacks.append(repr(error))
        _OBS_FALLBACKS.inc()
        self._notify("fallback", {"error": repr(error)})
        logger.warning(
            "process pool unavailable (%s); falling back to serial",
            error,
            extra={"repro_fallback": {"error": repr(error)}},
        )

    def finish(self) -> dict:
        """Freeze the run and return the machine-readable summary."""
        if self._started is not None:
            self._wall_time_s = time.perf_counter() - self._started
            self._started = None
        summary = self.summary()
        self._notify("finish", summary)
        logger.info(
            "sweep done: %d task(s) in %.3fs — %d cache hit(s), "
            "%d miss(es), %.0f%% worker utilization",
            summary["tasks"], summary["wall_time_s"],
            summary["cache_hits"], summary["cache_misses"],
            100.0 * summary["worker_utilization"],
            extra={"repro_summary": summary},
        )
        return summary

    # -- aggregation -------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate view of the run (JSON-able)."""
        if self.kernel_mode is None:  # summary before any start()
            from repro.kernels import kernel_mode

            self.kernel_mode = kernel_mode()
        executed = [r for r in self.records
                    if not r.cached and not r.resumed]
        busy = sum(r.wall_time_s for r in executed)
        wall = self._wall_time_s
        if self._started is not None:  # summary of a still-running sweep
            wall = time.perf_counter() - self._started
        utilization = (busy / (wall * self.workers)
                       if wall > 0 and executed else 0.0)
        return {
            "tasks": len(self.records),
            "workers": self.workers,
            "kernel_mode": self.kernel_mode,
            "wall_time_s": wall,
            "cache_hits": sum(1 for r in self.records if r.cached),
            "cache_misses": len(executed),
            "events_processed": sum(r.events_processed
                                    for r in self.records),
            "task_wall_time_s": {
                "total": busy,
                "max": max((r.wall_time_s for r in executed),
                           default=0.0),
                "mean": busy / len(executed) if executed else 0.0,
            },
            "worker_utilization": min(1.0, utilization),
            "batches": len(self.batch_sizes),
            "batch_tasks": {
                "max": max(self.batch_sizes, default=0),
                "mean": (sum(self.batch_sizes) / len(self.batch_sizes)
                         if self.batch_sizes else 0.0),
            },
            "warm_cache": {kind: dict(self.warm[kind])
                           for kind in sorted(self.warm)},
            "retries": list(self.retries),
            "backoff_s_total": sum(r.get("backoff_s", 0.0)
                                   for r in self.retries),
            "serial_fallbacks": list(self.fallbacks),
            "crashes": list(self.crashes),
            "poisoned": [r.key for r in self.records
                         if r.status == "poisoned"],
            "resumed_tasks": sum(1 for r in self.records if r.resumed),
            "per_task": [r.to_json() for r in self.records],
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
