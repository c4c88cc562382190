"""Parallel sweep runner with batched, warm-worker dispatch.

A sweep is a list of independent :class:`SweepTask` grid points.  Each
task names a module-level *task function* by its dotted path (so it can
be resolved inside a worker process regardless of the multiprocessing
start method), carries a JSON-able parameter mapping, and gets a
deterministic seed derived from the sweep's root seed via SHA-256 — no
global RNG state is consulted anywhere, which is what makes a parallel
run byte-identical to a serial one.

Execution semantics:

* ``workers <= 1`` (the default) runs every task in-process, in order,
  batching like a one-worker pool (see below).
* ``workers > 1`` fans the cache misses out across one persistent
  ``concurrent.futures.ProcessPoolExecutor`` — created with an explicit
  multiprocessing context (:func:`exec_mp_context`) and a worker
  initializer that sizes the per-worker warm cache — and reused across
  :meth:`SweepRunner.run` calls, so multi-phase drivers (the campaign
  CLI runs one sweep per scheme) pay pool construction once.  If the
  pool cannot be created the runner falls back to serial execution.
* Cache-miss tasks are dispatched in **batches**: one submit/return
  round-trip executes a whole chunk of tasks, sized adaptively by
  :class:`DispatchSizer` so each batch targets ``batch_target_s`` of
  work (sized from observed task durations; cache hits never feed the
  sizer).  Results stream back in completion order — a slow batch no
  longer head-of-line-blocks recording, retries, or checkpointing —
  and are re-ordered in the parent, which is free because outcomes are
  keyed by task index.  Worker-side metric deltas, spans, and
  warm-cache stats ship once per batch instead of once per task.
* A task function may carry a ``batch(params_list)`` form that returns
  exactly what mapping the function over the list would.  Consecutive
  tasks of such a function in one dispatch batch then run as one group
  in one call of it — the campaign and soak chunk tasks use this to
  draw, set up and evaluate a whole batch of chunks at once — so
  *evaluation* follows the dispatch batch.  Checkpoint records, cache
  entries, retries and progress stay per task: each task gets its own
  value and ``events_processed`` and an equal share of the group's
  wall time.  If the batch call raises, the group reruns task by task,
  so a failure is still charged to the task that caused it.  The
  serial path groups consecutive batch-capable misses with the same
  :class:`DispatchSizer`; tasks without a batch form run one by one.
* Inside each worker a process-wide LRU (:mod:`repro.exec.worker`)
  keyed on content hashes caches resolved task functions, variability
  models, compiled stage/edge arrays, and campaign trajectories across
  tasks in a batch and across batches.  A warm hit can only skip
  redundant construction of a deterministic artefact, never change a
  result — pinned by the batched-vs-serial byte-identity properties.
* ``task_timeout_s`` (``None`` = unlimited) budgets each *attempt* from
  the moment its batch is dispatched to a worker — queue wait is never
  charged, so tasks late in submission order cannot spuriously time out
  on a busy pool.  A batch of ``n`` tasks gets ``n`` budgets; retries
  are re-dispatched to the pool (with the existing seeded exponential
  backoff) so the other workers keep draining the sweep, and the serial
  in-parent path remains only as the fallback when no pool is
  available.  After ``retries`` additional attempts the run fails with
  :class:`~repro.errors.ExecutionError`.
* A worker *crash* (the pool reports ``BrokenProcessPool``) is handled
  separately from an ordinary exception: every task in flight is a
  suspect, and each suspect is re-run alone in a fresh single-worker
  pool so the crash is attributed precisely — batch-mates of a poisoned
  task are innocent and complete there.  A task that kills its isolated
  worker ``poison_after`` times is quarantined as *poisoned* (outcome
  value ``None``, status ``"poisoned"``) instead of being re-fanned-out
  forever or aborting the sweep; the main pool is then rebuilt and the
  sweep continues.
* With a :class:`~repro.exec.checkpoint.SweepCheckpoint` attached, every
  completed outcome is persisted the moment it arrives (completion
  order); a killed run re-launched with ``resume`` replays exactly the
  completed prefix and only executes what is missing.

Results come back in task order regardless of completion order.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import hashlib
import heapq
import importlib
import itertools
import json
import logging
import math
import multiprocessing
import os
import time
import typing
import weakref

from concurrent.futures.process import BrokenProcessPool

from repro import obs
from repro.errors import ConfigurationError, ExecutionError
from repro.exec.cache import ResultCache, _code_version
from repro.exec.checkpoint import SweepCheckpoint
from repro.exec.telemetry import RunTelemetry
from repro.exec.worker import WARM
from repro.kernels.rng import key_id, mix32, split64, uniform01

logger = logging.getLogger("repro.exec")

#: Domain-separation salt for the backoff jitter stream.
_BACKOFF_SALT = key_id("exec-backoff")

#: Environment variable overriding the multiprocessing start method used
#: for every pool the exec layer builds.
MP_START_ENV = "REPRO_MP_START"

#: Task functions take the params mapping and return the result value —
#: or a :class:`TaskPayload` when they also want to report work metrics.
TaskFunction = typing.Callable[[dict], typing.Any]


def exec_mp_context(method: str | None = None):
    """The explicit multiprocessing context for exec-layer pools.

    Every ``ProcessPoolExecutor`` the runner constructs — the shared
    dispatch pool and the single-worker isolation pools — uses this one
    context instead of silently inheriting the platform default.  The
    choice is ``method`` (the runner's ``mp_start``), else
    ``REPRO_MP_START``, else ``fork`` where available (cheap warm-worker
    startup; pools are created before the runner spawns any threads)
    and ``spawn`` elsewhere.  The dispatch layer itself is spawn-safe —
    task functions resolve by dotted path, worker configuration travels
    through the initializer and inherited environment — which the test
    suite pins by running a sweep under ``mp_start="spawn"``.
    """
    name = method or os.environ.get(MP_START_ENV) or None
    if not name:
        name = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                else "spawn")
    return multiprocessing.get_context(name)


def derive_seed(root_seed: int, *parts: typing.Any) -> int:
    """Derive a deterministic 63-bit seed from ``root_seed`` and a key.

    Uses SHA-256 over a canonical JSON encoding, so the result is stable
    across processes, platforms, and Python versions (unlike ``hash()``,
    which is salted per process).
    """
    payload = json.dumps([root_seed, *parts], sort_keys=True,
                         separators=(",", ":"), default=str)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclasses.dataclass(frozen=True)
class SweepTask:
    """One independent grid point of a sweep.

    Attributes:
        experiment: Dotted path ``package.module:function`` of the task
            function; also the cache-key namespace.
        params: JSON-able keyword mapping handed to the task function.
        index: Position in the sweep (results are returned in this
            order).
        seed: Deterministic per-task seed (see :func:`derive_seed`).
        key: Stable human-readable identifier for logs and telemetry.
    """

    experiment: str
    params: dict
    index: int
    seed: int
    key: str

    def resolve(self) -> TaskFunction:
        """Import and return this task's function."""
        module_name, _, func_name = self.experiment.partition(":")
        if not func_name:
            raise ConfigurationError(
                f"task experiment must look like 'module:function', "
                f"got {self.experiment!r}"
            )
        module = importlib.import_module(module_name)
        try:
            return getattr(module, func_name)
        except AttributeError as error:
            raise ConfigurationError(
                f"no task function {func_name!r} in {module_name!r}"
            ) from error


@dataclasses.dataclass
class TaskPayload:
    """Optional rich return value of a task function.

    Lets a task report how much simulated work it did (e.g.
    ``Simulator.events_processed`` or pipeline cycles) alongside its
    result value.
    """

    value: typing.Any
    events_processed: int = 0


@dataclasses.dataclass
class TaskOutcome:
    """What happened to one task during a run.

    ``status`` is ``"done"`` for a computed (or cached/resumed) result
    and ``"poisoned"`` for a task quarantined after repeatedly killing
    its worker — poisoned outcomes carry ``value None`` and are never
    written to the cache.  ``resumed`` marks outcomes replayed from a
    sweep checkpoint rather than executed this run.
    """

    task: SweepTask
    value: typing.Any
    wall_time_s: float
    events_processed: int
    cached: bool
    attempts: int
    worker_pid: int
    status: str = "done"
    resumed: bool = False


@dataclasses.dataclass
class SweepRunResult:
    """Ordered outcomes plus the machine-readable run summary."""

    outcomes: list[TaskOutcome]
    summary: dict

    @property
    def values(self) -> list:
        return [outcome.value for outcome in self.outcomes]


class RemoteTaskError(ExecutionError):
    """An exception reported by a worker-side task, by repr.

    Worker exceptions cross the pool boundary as strings (their types
    may not be picklable); the parent re-wraps them so retry telemetry
    and the final :class:`ExecutionError` carry the original message.
    """


class SweepDrained(Exception):
    """A run stopped early because a graceful drain was requested.

    Raised by :meth:`SweepRunner.run` after :meth:`SweepRunner.
    request_drain` when some tasks were left unexecuted: queued work
    was dropped, in-flight batches were allowed to finish, every
    completed outcome was recorded (and checkpointed, when a checkpoint
    is attached), and :attr:`result` carries the partial
    :class:`SweepRunResult` with ``summary["drained"] = True``.
    Raising — rather than returning a short list — keeps callers that
    post-process a full grid from silently consuming a partial one.
    """

    def __init__(self, result: "SweepRunResult") -> None:
        completed = len(result.outcomes)
        super().__init__(f"sweep drained after {completed} task(s)")
        self.result = result


def task_key(experiment: str, point: typing.Mapping) -> str:
    """Render a stable human-readable task key for a grid point."""
    name = experiment.rpartition(":")[2].strip("_")
    inner = ",".join(f"{k}={point[k]}" for k in sorted(point))
    return f"{name}[{inner}]"


def expand_grid(
    experiment: str,
    axes: typing.Mapping[str, typing.Sequence],
    base: typing.Mapping | None = None,
    *,
    root_seed: int = 0,
) -> list[SweepTask]:
    """Expand a cartesian grid of axis values into independent tasks.

    ``axes`` iterates in insertion order (first axis outermost), so the
    task order matches the equivalent nested ``for`` loops.  Each task's
    seed derives from ``root_seed`` and the axis values alone — adding
    or removing other grid points never changes it.
    """
    if not axes:
        raise ConfigurationError("need at least one sweep axis")
    names = list(axes)
    tasks: list[SweepTask] = []
    for index, values in enumerate(itertools.product(
            *(axes[name] for name in names))):
        point = dict(zip(names, values))
        params = {**(dict(base) if base else {}), **point}
        tasks.append(SweepTask(
            experiment=experiment,
            params=params,
            index=index,
            seed=derive_seed(root_seed, experiment, sorted(point.items())),
            key=task_key(experiment, point),
        ))
    return tasks


def _worker_init(warm_capacity: int | None) -> None:
    """Pool-worker initializer: size this process's warm cache.

    Runs once per worker regardless of start method; everything else a
    worker needs (observability enablement, kernel mode) travels
    through the inherited environment.
    """
    if warm_capacity is not None:
        WARM.configure(warm_capacity)


def _resolve_warm(task: SweepTask) -> TaskFunction:
    """Resolve a task function through the process warm cache."""
    return WARM.get_or_build("task-func", task.experiment, task.resolve)


def _task_payload(task: SweepTask) -> dict:
    """The pool-boundary form of ``task`` (pickling copies it)."""
    return {"experiment": task.experiment, "params": task.params,
            "index": task.index, "seed": task.seed, "key": task.key}


def _entry(raw: typing.Any, wall_s: float) -> dict:
    """A successful result entry from a task function's return value."""
    if isinstance(raw, TaskPayload):
        value, events = raw.value, raw.events_processed
    else:
        value, events = raw, 0
    return {
        "ok": True,
        "value": value,
        "wall_time_s": wall_s,
        "events_processed": events,
    }


def _call(func: TaskFunction, task: SweepTask) -> dict:
    """Run ``func`` on ``task``'s params; its result entry (no guard)."""
    started = time.perf_counter()
    raw = func(dict(task.params))
    return _entry(raw, time.perf_counter() - started)


def _run_payload(task: SweepTask) -> dict:
    """Execute one task and package its result entry (no error guard)."""
    return _call(_resolve_warm(task), task)


def _run_group(tasks: typing.Sequence[SweepTask]) -> list[dict]:
    """Result entries for consecutive tasks of one experiment.

    Each task's function is resolved once, through the warm cache and
    inside the error guard.  When the function has a ``batch`` form
    (``batch(params_list)`` returning what mapping the function over
    the list would), the group runs in one call of it: every task gets
    its own value and work, and an equal share of the group's wall
    time.  Without one — or when the batch call raises or returns the
    wrong number of results — the tasks run one at a time, so a failure
    is charged to the task that caused it.
    Failed entries carry the exception under ``"error"``.
    """
    entries: list[dict | None] = []
    funcs: list[TaskFunction | None] = []
    for task in tasks:
        try:
            funcs.append(_resolve_warm(task))
            entries.append(None)
        except Exception as error:  # noqa: BLE001 — charged to the task
            funcs.append(None)
            entries.append({"ok": False, "error": error})
    batch = getattr(funcs[0], "batch", None)
    if batch is not None and len(tasks) > 1 and None not in funcs:
        started = time.perf_counter()
        try:
            raws = batch([dict(task.params) for task in tasks])
        except Exception:  # noqa: BLE001 — rerun task by task below
            logger.warning("batch call of %s over %d task(s) failed; "
                           "running them one by one", tasks[0].experiment,
                           len(tasks), exc_info=True)
            raws = None
        if raws is not None and len(raws) == len(tasks):
            share = (time.perf_counter() - started) / len(tasks)
            return [_entry(raw, share) for raw in raws]
    for index, (task, func) in enumerate(zip(tasks, funcs)):
        if func is None:
            continue
        try:
            entries[index] = _call(func, task)
        except Exception as error:  # noqa: BLE001 — charged to the task
            entries[index] = {"ok": False, "error": error}
    return typing.cast("list[dict]", entries)


def _has_batch_form(task: SweepTask) -> bool:
    """Whether ``task``'s function has a ``batch`` form (False if it
    does not even resolve: the per-task path reports that error)."""
    try:
        return hasattr(task.resolve(), "batch")
    except Exception:  # noqa: BLE001 — surfaced by the per-task path
        return False


def execute_task(payload: dict) -> dict:
    """Run one task (worker entry point; must stay module-level).

    Takes and returns plain dicts plus the (picklable) result value so
    the process-pool boundary stays simple.  Ships the task's metric
    deltas, spans, and warm-cache stats alongside the value; the parent
    merges metric deltas only for genuine workers (pid check).
    """
    task = SweepTask(**payload)
    token = obs.begin_capture()
    warm_before = WARM.counters()
    entry = _run_payload(task)
    result = {
        "value": entry["value"],
        "wall_time_s": entry["wall_time_s"],
        "events_processed": entry["events_processed"],
        "worker_pid": os.getpid(),
        "warm": WARM.stats_delta(warm_before),
    }
    if token is not None:
        result["obs"], result["obs_spans"] = obs.end_capture(token)
    return result


def execute_batch(payloads: list[dict]) -> dict:
    """Run a batch of tasks in one pool round-trip (worker entry point).

    Consecutive tasks of one experiment run as a group
    (:func:`_run_group`), through their function's batch form when it
    has one.  Per-task failures are captured as ``{"ok": False,
    "error": repr}`` entries rather than raised, so one bad task cannot
    take down its batch-mates; the parent applies the retry policy per
    task.  Metric deltas, spans, and warm-cache stats ship once for the
    whole batch.
    """
    token = obs.begin_capture()
    warm_before = WARM.counters()
    tasks = [SweepTask(**payload) for payload in payloads]
    results: list[dict] = []
    for _, group in itertools.groupby(tasks,
                                      key=lambda task: task.experiment):
        results.extend(
            entry if entry["ok"] else {"ok": False,
                                       "error": repr(entry["error"])}
            for entry in _run_group(list(group)))
    out = {
        "worker_pid": os.getpid(),
        "results": results,
        "warm": WARM.stats_delta(warm_before),
    }
    if token is not None:
        out["obs"], out["obs_spans"] = obs.end_capture(token)
    return out


class DispatchSizer:
    """Adaptive batch size targeting a fixed wall time per batch.

    Tracks an exponential moving average of *executed* task durations
    (cache hits are served in the parent and never observed, so they
    cannot skew the estimate) and sizes the next batch so it should
    take about ``target_s``.  ``target_s <= 0`` disables batching —
    every dispatch carries exactly one task.
    """

    #: EMA weight of the newest executed-task duration.
    ALPHA = 0.4
    #: Floor for observed durations, so microsecond tasks don't explode
    #: the size estimate past ``max_batch`` worth of useful precision.
    MIN_TASK_S = 1e-6
    #: With no observations yet, assume the target splits into this
    #: many tasks — first batches are modest, then adapt.
    INITIAL_TASKS = 8

    def __init__(self, target_s: float, max_batch: int) -> None:
        self.target_s = target_s
        self.max_batch = max_batch
        self._ema_s = (target_s / self.INITIAL_TASKS
                       if target_s > 0 else 0.0)

    @property
    def observed_task_s(self) -> float:
        """Current per-task duration estimate (the EMA)."""
        return self._ema_s

    def observe(self, wall_s: float) -> None:
        """Feed one *executed* task duration into the estimate."""
        if self.target_s <= 0:
            return
        wall = max(float(wall_s), self.MIN_TASK_S)
        self._ema_s = (1.0 - self.ALPHA) * self._ema_s + self.ALPHA * wall

    def size(self) -> int:
        """Tasks to put in the next batch."""
        if self.target_s <= 0 or self._ema_s <= 0:
            return 1
        return max(1, min(self.max_batch,
                          int(self.target_s / self._ema_s)))


@dataclasses.dataclass
class _Flight:
    """One dispatched batch: its (task, attempt) pairs and deadline."""

    batch: list[tuple[SweepTask, int]]
    deadline: float | None


def _shutdown_pool(pool) -> None:
    """Best-effort executor shutdown (finalizer-safe, never raises)."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter-teardown races
        pass


class _Dispatcher:
    """One ``_run_pool`` invocation's streaming dispatch state machine.

    Keeps at most ``workers`` batches in flight so a submitted batch is
    picked up immediately — which is what lets per-attempt deadlines
    start at dispatch time without charging queue wait.  Completions
    are consumed in completion order (``concurrent.futures.wait``);
    failed tasks re-enter the queue as retry batches after their seeded
    backoff elapses, and timed-out batches are abandoned to the
    *ghosts* set: their worker still counts as busy until the future
    resolves, and a late success is adopted if the task has not been
    recorded by a retry in the meantime.
    """

    def __init__(self, runner: "SweepRunner",
                 record: typing.Callable[[TaskOutcome], None]) -> None:
        self.runner = runner
        self.record = record
        self.pending: collections.deque[tuple[SweepTask, int]] = \
            collections.deque()
        self.retries: list[tuple[float, int, SweepTask, int]] = []
        self.in_flight: dict[typing.Any, _Flight] = {}
        self.ghosts: dict[typing.Any, _Flight] = {}
        self.recorded: set[int] = set()
        self._seq = itertools.count()
        self._suspects: list[tuple[SweepTask, int]] = []

    def run(self, tasks: typing.Sequence[SweepTask]) -> None:
        self.pending.extend((task, 1) for task in tasks)
        while self.pending or self.retries or self.in_flight:
            if self.runner._drain_requested:
                # Graceful drain: drop everything not yet dispatched and
                # stop waiting on abandoned (timed-out) batches, but let
                # batches already on a worker finish and be recorded —
                # their results are about to arrive and recording them
                # keeps the checkpoint as complete as possible.
                self.pending.clear()
                self.retries.clear()
                self.ghosts.clear()
                if not self.in_flight:
                    break
            now = time.monotonic()
            self._promote_retries(now)
            broken = self._fill(now)
            if not broken:
                broken = self._collect()
            if broken:
                self._recover_from_broken_pool()
            self._expire(time.monotonic())

    # -- submission --------------------------------------------------------
    def _promote_retries(self, now: float) -> None:
        """Move backoff-expired retries to the front of the queue."""
        due: list[tuple[SweepTask, int]] = []
        while self.retries and self.retries[0][0] <= now:
            _, _, task, attempt = heapq.heappop(self.retries)
            if task.index not in self.recorded:
                due.append((task, attempt))
        self.pending.extendleft(reversed(due))

    def _free_slots(self) -> int:
        ghosts_busy = sum(1 for future in self.ghosts
                          if not future.done())
        return self.runner.workers - len(self.in_flight) - ghosts_busy

    def _fill(self, now: float) -> bool:
        """Dispatch batches onto free workers; True if the pool broke."""
        free = self._free_slots()
        while self.pending and free > 0:
            # Split what's left across the free workers, capped by the
            # sizer's wall-time target, so the tail of a sweep doesn't
            # pile onto one worker while others idle.
            limit = max(1, min(
                self.runner._sizer.size(),
                math.ceil(len(self.pending) / free)))
            batch: list[tuple[SweepTask, int]] = []
            while self.pending and len(batch) < limit:
                task, attempt = self.pending.popleft()
                if task.index not in self.recorded:
                    batch.append((task, attempt))
            if not batch:
                continue
            payloads = [_task_payload(task) for task, _ in batch]
            try:
                future = self.runner._pool.submit(execute_batch, payloads)
            except (BrokenProcessPool, RuntimeError):
                # Never dispatched — requeue untouched (not suspects,
                # no attempt charged) and let the recovery path rebuild
                # the pool.
                self.pending.extendleft(reversed(batch))
                return True
            deadline = None
            if self.runner.task_timeout_s is not None:
                deadline = (time.monotonic()
                            + self.runner.task_timeout_s * len(batch))
            self.in_flight[future] = _Flight(batch, deadline)
            free -= 1
        return False

    # -- completion --------------------------------------------------------
    def _collect(self) -> bool:
        """Wait for the next completion/deadline; True if pool broke."""
        waitables = list(self.in_flight) + list(self.ghosts)
        now = time.monotonic()
        if not waitables:
            if self.retries:
                time.sleep(max(0.0, self.retries[0][0] - now))
            return False
        bounds = [flight.deadline for flight in self.in_flight.values()
                  if flight.deadline is not None]
        if self.retries:
            bounds.append(self.retries[0][0])
        timeout = max(0.0, min(bounds) - now) if bounds else None
        done, _ = concurrent.futures.wait(
            waitables, timeout=timeout,
            return_when=concurrent.futures.FIRST_COMPLETED)
        broken = False
        for future in done:
            if future in self.ghosts:
                self._adopt_late(future)
                continue
            flight = self.in_flight.pop(future)
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                self._suspects.extend(flight.batch)
                broken = True
            elif error is not None:
                # Infrastructure failure (e.g. an unpicklable result):
                # charge every task in the batch one attempt.
                for task, attempt in flight.batch:
                    if task.index not in self.recorded:
                        self._after_failure(task, attempt, error)
            else:
                self._absorb(flight, future.result())
        return broken

    def _absorb(self, flight: _Flight, raw: dict) -> None:
        """Record one completed batch's outcomes and telemetry."""
        runner = self.runner
        runner._merge_worker_obs(raw)
        runner.telemetry.record_batch(size=len(flight.batch),
                                      warm=raw.get("warm"))
        for (task, attempt), entry in zip(flight.batch, raw["results"]):
            if task.index in self.recorded:
                continue
            if entry.get("ok"):
                self.recorded.add(task.index)
                self.record(TaskOutcome(
                    task=task, value=entry["value"],
                    wall_time_s=entry["wall_time_s"],
                    events_processed=entry["events_processed"],
                    cached=False, attempts=attempt,
                    worker_pid=raw["worker_pid"],
                ))
                runner._sizer.observe(entry["wall_time_s"])
            else:
                self._after_failure(task, attempt,
                                    RemoteTaskError(entry["error"]))

    def _adopt_late(self, future) -> None:
        """A timed-out batch finally resolved; adopt unclaimed results.

        The values are deterministic, so a late success is identical to
        what the scheduled retry would compute — adopting it just saves
        the re-execution.  Failures are ignored: the timeout already
        charged the attempt and queued the retry.
        """
        flight = self.ghosts.pop(future)
        if future.exception() is not None:
            return
        raw = future.result()
        self.runner._merge_worker_obs(raw)
        for (task, attempt), entry in zip(flight.batch, raw["results"]):
            if entry.get("ok") and task.index not in self.recorded:
                self.recorded.add(task.index)
                self.record(TaskOutcome(
                    task=task, value=entry["value"],
                    wall_time_s=entry["wall_time_s"],
                    events_processed=entry["events_processed"],
                    cached=False, attempts=attempt,
                    worker_pid=raw["worker_pid"],
                ))

    def _after_failure(self, task: SweepTask, attempt: int,
                       error: BaseException) -> None:
        """Apply the retry policy to one failed attempt."""
        runner = self.runner
        if attempt > runner.retries:
            raise ExecutionError(
                f"task {task.key} failed after {attempt} attempt(s): "
                f"{error}"
            ) from error
        delay = runner._backoff_delay_s(task, attempt)
        runner.telemetry.record_retry(task, error, backoff_s=delay)
        heapq.heappush(self.retries, (time.monotonic() + delay,
                                      next(self._seq), task, attempt + 1))

    # -- timeouts ----------------------------------------------------------
    def _expire(self, now: float) -> None:
        """Abandon batches whose per-attempt deadline has passed."""
        if self.runner.task_timeout_s is None:
            return
        for future, flight in list(self.in_flight.items()):
            if (flight.deadline is None or now < flight.deadline
                    or future.done()):
                continue
            del self.in_flight[future]
            if future.cancel():
                # Still queued (a wedged worker was hogging the slot):
                # it never dispatched, so requeue without charging the
                # attempt — that is the whole point of deadline-from-
                # dispatch accounting.
                self.pending.extendleft(reversed(flight.batch))
                continue
            self.ghosts[future] = flight
            budget = self.runner.task_timeout_s * len(flight.batch)
            error = TimeoutError(
                f"no result within {budget:.3f}s "
                f"(batch of {len(flight.batch)}, "
                f"{self.runner.task_timeout_s:.3f}s per task)")
            for task, attempt in flight.batch:
                if task.index not in self.recorded:
                    self._after_failure(task, attempt, error)

    # -- crash recovery ----------------------------------------------------
    def _recover_from_broken_pool(self) -> None:
        """Attribute the crash in isolation, rebuild the pool, go on."""
        suspects = list(self._suspects)
        self._suspects.clear()
        for flight in self.in_flight.values():
            suspects.extend(flight.batch)
        self.in_flight.clear()
        # Ghost batches died with the pool; their retries are already
        # queued (or their tasks recorded), so just drop the futures.
        self.ghosts.clear()
        self.runner._reset_pool()
        for task, _ in suspects:
            if task.index in self.recorded:
                continue
            self.recorded.add(task.index)
            self.record(self.runner._run_isolated(task))
        if (self.pending or self.retries) \
                and self.runner._ensure_pool() is None:
            self._drain_serial()

    def _drain_serial(self) -> None:
        """Final fallback: no pool can be built — finish in-parent."""
        leftovers = list(self.pending)
        self.pending.clear()
        while self.retries:
            _, _, task, attempt = heapq.heappop(self.retries)
            leftovers.append((task, attempt))
        for task, _ in sorted(leftovers, key=lambda item: item[0].index):
            if self.runner._drain_requested:
                return
            if task.index in self.recorded:
                continue
            self.recorded.add(task.index)
            self.record(self.runner._run_serial(task))


class SweepRunner:
    """Executes sweep tasks with caching, parallelism, and telemetry."""

    def __init__(
        self,
        *,
        workers: int = 1,
        cache: ResultCache | None = None,
        telemetry: RunTelemetry | None = None,
        task_timeout_s: float | None = None,
        retries: int = 1,
        backoff_base_s: float = 0.0,
        backoff_factor: float = 2.0,
        backoff_jitter: float = 0.5,
        poison_after: int = 2,
        checkpoint: SweepCheckpoint | None = None,
        batch_target_s: float = 0.25,
        max_batch: int = 64,
        warm_cache_size: int | None = None,
        mp_start: str | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if backoff_base_s < 0 or backoff_factor < 1:
            raise ConfigurationError(
                "backoff base must be >= 0 and factor >= 1")
        if not 0 <= backoff_jitter <= 1:
            raise ConfigurationError("backoff jitter must be in [0, 1]")
        if poison_after < 1:
            raise ConfigurationError("poison_after must be >= 1")
        if batch_target_s < 0:
            raise ConfigurationError("batch_target_s must be >= 0")
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        self.workers = workers
        self.cache = cache
        self.telemetry = telemetry or RunTelemetry()
        self.task_timeout_s = task_timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.backoff_jitter = backoff_jitter
        self.poison_after = poison_after
        self.checkpoint = checkpoint
        self.batch_target_s = batch_target_s
        self.max_batch = max_batch
        self.warm_cache_size = warm_cache_size
        self.mp_start = mp_start
        #: Result of the most recent :meth:`run` (telemetry access for
        #: callers that only see the experiment's return value).
        self.last_run: SweepRunResult | None = None
        #: The adaptive sizer persists across runs, so a later sweep
        #: phase starts from the durations the previous phase observed.
        self._sizer = DispatchSizer(batch_target_s, max_batch)
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._pool_finalizer: weakref.finalize | None = None
        self._drain_requested = False

    # -- graceful drain ----------------------------------------------------
    @property
    def drain_requested(self) -> bool:
        """Whether :meth:`request_drain` has been called (and not cleared)."""
        return self._drain_requested

    def request_drain(self) -> None:
        """Ask the current (or next) :meth:`run` to stop gracefully.

        Safe to call from a signal handler: it only sets a flag.  The
        runner drops queued work, lets in-flight batches finish so their
        outcomes are recorded and checkpointed, then raises
        :class:`SweepDrained` with the partial result.  The flag is
        sticky across :meth:`run` calls — multi-phase drivers (campaign
        per-scheme sweeps, soak rounds) stop at the next phase boundary
        too — until :meth:`clear_drain`.
        """
        self._drain_requested = True

    def clear_drain(self) -> None:
        """Re-arm the runner after a drain (mostly for tests)."""
        self._drain_requested = False

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self):
        """The persistent dispatch pool, created on first use.

        Reused across :meth:`run` calls until :meth:`close` (or a
        worker crash forces a rebuild).  Returns ``None`` — after
        recording the fallback — when no pool can be created.
        """
        if self._pool is not None:
            return self._pool
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=exec_mp_context(self.mp_start),
                initializer=_worker_init,
                initargs=(self.warm_cache_size,),
            )
        except (OSError, ValueError, ImportError) as error:
            self.telemetry.record_fallback(error)
            return None
        self._pool = pool
        self._pool_finalizer = weakref.finalize(self, _shutdown_pool,
                                                pool)
        return pool

    def _reset_pool(self) -> None:
        """Drop the current pool (crashed or being closed)."""
        if self._pool is None:
            return
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        _shutdown_pool(self._pool)
        self._pool = None

    def close(self, *, wait: bool = False) -> None:
        """Shut the persistent worker pool down.

        ``wait=True`` blocks until the workers exit; the default lets
        them finish their current batch and exit on their own.
        """
        if self._pool is None:
            return
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        pool, self._pool = self._pool, None
        try:
            pool.shutdown(wait=wait, cancel_futures=True)
        except Exception:  # pragma: no cover - teardown races
            pass

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ---------------------------------------------------------
    def run(self, tasks: typing.Sequence[SweepTask]) -> SweepRunResult:
        """Run every task and return outcomes in task order."""
        with obs.trace_span("sweep.run", tasks=len(tasks),
                            workers=self.workers):
            return self._run(tasks)

    def _run(self, tasks: typing.Sequence[SweepTask]) -> SweepRunResult:
        self.telemetry.start(workers=self.workers, num_tasks=len(tasks))
        outcomes: dict[int, TaskOutcome] = {}

        resumed_records: dict[int, dict] = {}
        if self.checkpoint is not None:
            resumed_records = self.checkpoint.load(tasks, _code_version())

        misses: list[SweepTask] = []
        for task in tasks:
            record = resumed_records.get(task.index)
            if record is not None:
                outcome = SweepCheckpoint.outcome_from_record(task, record)
                outcomes[task.index] = outcome
                self.telemetry.record_task(outcome)
                continue
            hit, value = self._cache_get(task)
            if hit:
                outcome = TaskOutcome(
                    task=task, value=value, wall_time_s=0.0,
                    events_processed=0, cached=True, attempts=0,
                    worker_pid=os.getpid(),
                )
                outcomes[task.index] = outcome
                self.telemetry.record_task(outcome)
                if self.checkpoint is not None:
                    self.checkpoint.record(outcome)
            else:
                misses.append(task)

        # Executed outcomes are recorded the moment they arrive — in
        # completion order, not batch order — so a crash mid-sweep
        # leaves the checkpoint and cache holding every task finished
        # so far, even when its batch-mates were still running.
        def record(outcome: TaskOutcome) -> None:
            outcomes[outcome.task.index] = outcome
            self.telemetry.record_task(outcome)
            self._cache_put(outcome)
            if self.checkpoint is not None:
                self.checkpoint.record(outcome)

        try:
            if misses:
                if self.workers > 1:
                    # Crash-prone tasks must never execute in the parent
                    # process, so any multi-worker run uses the pool even
                    # for a single miss.
                    self._run_pool(misses, record)
                else:
                    self._run_local(misses, record)
        finally:
            # Flush even when a task ultimately fails: everything that
            # completed before the failure stays resumable.
            if self.checkpoint is not None:
                self.checkpoint.flush()

        if any(task.index not in outcomes for task in tasks):
            # Only a requested drain leaves gaps (every other early exit
            # raises); surface the partial result as an exception so no
            # caller mistakes it for a full grid.
            ordered = [outcomes[task.index] for task in tasks
                       if task.index in outcomes]
            summary = self.telemetry.finish()
            summary["drained"] = True
            result = SweepRunResult(outcomes=ordered, summary=summary)
            self.last_run = result
            raise SweepDrained(result)

        ordered = [outcomes[task.index] for task in tasks]
        result = SweepRunResult(outcomes=ordered,
                                summary=self.telemetry.finish())
        self.last_run = result
        return result

    def run_values(self, tasks: typing.Sequence[SweepTask]) -> list:
        """Convenience wrapper: run and return just the values."""
        return self.run(tasks).values

    # -- internals ---------------------------------------------------------
    @staticmethod
    def _merge_worker_obs(raw: dict) -> None:
        """Adopt a genuine worker's metric deltas and span records.

        Serial (in-parent) execution already accumulated into the live
        registry, so merging again would double-count — the pid check
        tells the two apart."""
        if raw.get("worker_pid") == os.getpid():
            return
        if raw.get("obs"):
            obs.REGISTRY.merge(raw["obs"])
        if raw.get("obs_spans"):
            obs.TRACER.add_records(raw["obs_spans"])

    def _cache_get(self, task: SweepTask) -> tuple[bool, typing.Any]:
        if self.cache is None:
            return False, None
        return self.cache.get_task(task)

    def _cache_put(self, outcome: TaskOutcome) -> None:
        if (self.cache is not None and not outcome.cached
                and not outcome.resumed and outcome.status == "done"):
            self.cache.put_task(outcome.task, outcome.value, meta={
                "wall_time_s": outcome.wall_time_s,
                "events_processed": outcome.events_processed,
            })

    def _backoff_delay_s(self, task: SweepTask, attempt: int) -> float:
        """Backoff before retry ``attempt + 1``: exponential, with
        multiplicative jitter drawn deterministically from the task seed
        and attempt number (reproducible, but de-synchronised across
        tasks so retry storms don't stampede a shared resource)."""
        if self.backoff_base_s <= 0.0:
            return 0.0
        delay = self.backoff_base_s * self.backoff_factor ** max(
            0, attempt - 1)
        if self.backoff_jitter > 0.0:
            lo, hi = split64(task.seed)
            draw = uniform01(mix32(_BACKOFF_SALT, lo, hi, attempt))
            delay *= 1.0 - self.backoff_jitter + 2.0 * self.backoff_jitter * draw
        return delay

    def _run_serial(self, task: SweepTask, *, attempt_offset: int = 0,
                    max_attempts: int | None = None) -> TaskOutcome:
        """Run one task in-process, retrying with the seeded backoff."""
        last_error: BaseException | None = None
        if max_attempts is None:
            max_attempts = self.retries + 1
        for attempt in range(1, max_attempts + 1):
            warm_before = WARM.counters()
            try:
                entry = _run_payload(task)
            except Exception as error:  # noqa: BLE001 — retried, re-raised
                last_error = error
                delay = 0.0
                if attempt < max_attempts:
                    delay = self._backoff_delay_s(
                        task, attempt_offset + attempt)
                self.telemetry.record_retry(task, error, backoff_s=delay)
                if delay > 0.0:
                    time.sleep(delay)
                continue
            self.telemetry.record_warm(WARM.stats_delta(warm_before))
            return TaskOutcome(
                task=task, value=entry["value"],
                wall_time_s=entry["wall_time_s"],
                events_processed=entry["events_processed"], cached=False,
                attempts=attempt_offset + attempt,
                worker_pid=os.getpid(),
            )
        raise ExecutionError(
            f"task {task.key} failed after "
            f"{attempt_offset + max_attempts} attempt(s): {last_error}"
        ) from last_error

    def _run_local(
        self,
        tasks: typing.Sequence[SweepTask],
        record: typing.Callable[[TaskOutcome], None],
    ) -> None:
        """In-process execution that batches like a one-worker pool.

        Consecutive misses whose task function has a batch form are
        grouped up to the dispatch sizer's batch size and run through
        :func:`_run_group`, recording each outcome in task order; a task
        that failed there is retried alone through :meth:`_run_serial`.
        Tasks without a batch form run one at a time through
        :meth:`_run_serial`.  A requested drain stops between groups.
        """
        batchable: dict[str, bool] = {}
        position = 0
        while position < len(tasks) and not self._drain_requested:
            task = tasks[position]
            if task.experiment not in batchable:
                batchable[task.experiment] = _has_batch_form(task)
            if not batchable[task.experiment]:
                record(self._run_serial(task))
                position += 1
                continue
            end = position + 1
            limit = min(len(tasks), position + self._sizer.size())
            while end < limit and tasks[end].experiment == task.experiment:
                end += 1
            group = tasks[position:end]
            position = end
            warm_before = WARM.counters()
            entries = _run_group(group)
            self.telemetry.record_warm(WARM.stats_delta(warm_before))
            for member, entry in zip(group, entries):
                record(self._local_outcome(member, entry))

    def _local_outcome(self, task: SweepTask, entry: dict) -> TaskOutcome:
        """The outcome of an in-process group entry; failures retry."""
        if entry["ok"]:
            self._sizer.observe(entry["wall_time_s"])
            return TaskOutcome(
                task=task, value=entry["value"],
                wall_time_s=entry["wall_time_s"],
                events_processed=entry["events_processed"], cached=False,
                attempts=1, worker_pid=os.getpid(),
            )
        error = entry["error"]
        delay = self._backoff_delay_s(task, 1) if self.retries else 0.0
        self.telemetry.record_retry(task, error, backoff_s=delay)
        if not self.retries:
            raise ExecutionError(
                f"task {task.key} failed after 1 attempt(s): {error}"
            ) from error
        if delay > 0.0:
            time.sleep(delay)
        return self._run_serial(task, attempt_offset=1,
                                max_attempts=self.retries)

    def _run_pool(
        self,
        tasks: list[SweepTask],
        record: typing.Callable[[TaskOutcome], None],
    ) -> None:
        """Dispatch ``tasks`` over the warm pool in adaptive batches,
        recording each outcome as its batch completes."""
        if self._ensure_pool() is None:
            self._run_local(tasks, record)
            return
        _Dispatcher(self, record).run(tasks)

    def _run_isolated(self, task: SweepTask) -> TaskOutcome:
        """Re-run a crash suspect alone in fresh single-worker pools.

        In isolation a dead worker is definitely this task's doing;
        after ``poison_after`` such deaths the task is quarantined as
        *poisoned* rather than retried forever.  Tasks that merely
        shared a pool (or a batch) with the real crasher succeed here
        on the first attempt.
        """
        payload = _task_payload(task)
        crashes = 0
        attempt = 1  # the shared-pool attempt that sent us here
        while crashes < self.poison_after:
            attempt += 1
            try:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=exec_mp_context(self.mp_start),
                    initializer=_worker_init,
                    initargs=(self.warm_cache_size,),
                )
            except (OSError, ValueError, ImportError) as error:
                # No isolation available; running a crash suspect in
                # the parent would risk the whole sweep — quarantine.
                self.telemetry.record_fallback(error)
                break
            with pool:
                future = pool.submit(execute_task, payload)
                try:
                    raw = future.result(timeout=self.task_timeout_s)
                except BrokenProcessPool as error:
                    crashes += 1
                    self.telemetry.record_crash(task, error)
                    if crashes >= self.poison_after:
                        break
                    delay = self._backoff_delay_s(task, attempt)
                    self.telemetry.record_retry(task, error,
                                                backoff_s=delay)
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                except Exception as error:  # noqa: BLE001 — retry policy
                    # Ordinary failure once isolated: hand the task to
                    # the normal in-parent retry loop (it did not kill
                    # this worker, so the parent is safe).
                    delay = (self._backoff_delay_s(task, attempt)
                             if self.retries >= 1 else 0.0)
                    self.telemetry.record_retry(task, error,
                                                backoff_s=delay)
                    if self.retries < 1:
                        raise ExecutionError(
                            f"task {task.key} failed: {error}"
                        ) from error
                    if delay > 0.0:
                        time.sleep(delay)
                    return self._run_serial(
                        task, attempt_offset=attempt,
                        max_attempts=self.retries)
                self._merge_worker_obs(raw)
                self.telemetry.record_warm(raw.get("warm"))
                return TaskOutcome(
                    task=task, value=raw["value"],
                    wall_time_s=raw["wall_time_s"],
                    events_processed=raw["events_processed"],
                    cached=False, attempts=attempt,
                    worker_pid=raw["worker_pid"],
                )
        return TaskOutcome(
            task=task, value=None, wall_time_s=0.0,
            events_processed=0, cached=False, attempts=attempt,
            worker_pid=os.getpid(), status="poisoned",
        )
