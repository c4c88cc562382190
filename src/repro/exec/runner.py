"""Parallel sweep runner with batched, warm-worker dispatch.

A sweep is a list of independent :class:`SweepTask` grid points.  Each
task names a module-level *task function* by its dotted path (so it can
be resolved inside a worker process regardless of the multiprocessing
start method), carries a JSON-able parameter mapping, and gets a
deterministic seed derived from the sweep's root seed via SHA-256 — no
global RNG state is consulted anywhere, which is what makes a parallel
run byte-identical to a serial one.

Execution semantics — one dispatch loop (:class:`_Dispatcher`) runs
every sweep's cache misses, whatever executes them:

* ``workers > 1`` executes batches on one persistent
  ``concurrent.futures.ProcessPoolExecutor`` — created with an explicit
  multiprocessing context (:func:`exec_mp_context`) and a worker
  initializer that sizes the per-worker warm cache — reused across
  :meth:`SweepRunner.run` calls, so multi-phase drivers (the campaign
  CLI runs one sweep per scheme) pay pool construction once.  Any
  multi-worker run uses the pool even for a single miss: crash-prone
  tasks never execute in the parent while a pool exists.
* ``workers <= 1`` (the default), or a pool that cannot be created or
  rebuilt, executes batches in this process, one at a time: the same
  loop submits to an in-parent executor whose results come back
  already resolved.  An in-parent batch is one batch-form group of a
  single experiment, or else a single task, so outcomes, checkpoints
  and drain checks land between tasks that do not share a call.
* Batches are sized adaptively by :class:`DispatchSizer` so each
  targets ``batch_target_s`` of work (sized from observed task
  durations; cache hits never feed the sizer).  Results stream back in
  completion order — a slow batch does not head-of-line-block
  recording, retries, or checkpointing — and are re-ordered in the
  parent, which is free because outcomes are keyed by task index.
  Worker-side metric deltas, spans, and warm-cache stats ship once per
  batch.
* A task function may carry a ``batch(params_list)`` form that returns
  exactly what mapping the function over the list would.  Consecutive
  tasks of such a function in one batch then run as one group in one
  call of it — the campaign and soak chunk tasks use this to draw, set
  up and evaluate a whole batch of chunks at once — so *evaluation*
  follows the dispatch batch.  Checkpoint records, cache entries,
  retries and progress stay per task: each task gets its own value and
  ``events_processed`` and an equal share of the group's wall time.
  If the batch call raises, the group reruns task by task, so a
  failure is still charged to the task that caused it.
* Inside each process a process-wide LRU (:mod:`repro.exec.worker`)
  keyed on content hashes caches resolved task functions, variability
  models, compiled stage/edge arrays, and campaign trajectories across
  tasks in a batch and across batches.  A warm hit can only skip
  redundant construction of a deterministic artefact, never change a
  result — pinned by the batched-vs-serial byte-identity properties.
* One retry policy: a failed attempt is retried — re-dispatched through
  the same loop after its seeded exponential backoff, so other batches
  keep draining the sweep meanwhile — until ``retries`` additional
  attempts have failed, and then the run fails with
  :class:`~repro.errors.ExecutionError`.  Attempt numbers carry over
  every hand-off (crash isolation, the move to in-parent execution).
* ``task_timeout_s`` (``None`` = unlimited) budgets each pool *attempt*
  from the moment its batch is dispatched to a worker — queue wait is
  never charged, so tasks late in submission order cannot spuriously
  time out on a busy pool.  A batch of ``n`` tasks gets ``n`` budgets.
  In-parent batches have no deadline.
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
from repro.exec.cache import ResultCache, _code_version, encode_stored
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
    does not even resolve: running the task reports that error)."""
    try:
        return hasattr(task.resolve(), "batch")
    except Exception:  # noqa: BLE001 — surfaced when the task runs
        return False


def _run_batch(tasks: typing.Sequence[SweepTask]) -> dict:
    """Run a batch of tasks in this process: what both executors return.

    Consecutive tasks of one experiment run as a group
    (:func:`_run_group`), through their function's batch form when it
    has one.  Per-task failures are captured as ``{"ok": False,
    "error": ...}`` entries rather than raised, so one bad task cannot
    take down its batch-mates; the dispatcher applies the retry policy
    per task.  Warm-cache stats ship once for the whole batch.
    """
    warm_before = WARM.counters()
    results: list[dict] = []
    for _, group in itertools.groupby(tasks,
                                      key=lambda task: task.experiment):
        results.extend(_run_group(list(group)))
    return {
        "worker_pid": os.getpid(),
        "results": results,
        "warm": WARM.stats_delta(warm_before),
    }


def execute_batch(payloads: list[dict]) -> dict:
    """Run a batch of tasks in one pool round-trip (worker entry point).

    :func:`_run_batch` over the payloads, with each error rendered by
    ``repr`` (exception types may not pickle) and the batch's metric
    deltas and spans captured for the parent to merge.
    """
    token = obs.begin_capture()
    out = _run_batch([SweepTask(**payload) for payload in payloads])
    for entry in out["results"]:
        if not entry["ok"]:
            entry["error"] = repr(entry["error"])
    if token is not None:
        out["obs"], out["obs_spans"] = obs.end_capture(token)
    return out


def _run_inline(tasks: typing.Sequence[SweepTask]
                ) -> concurrent.futures.Future:
    """The in-parent executor: :func:`_run_batch` now, as a resolved
    future.  Metrics and spans land in the live registry directly, and
    errors keep their exception objects (and tracebacks)."""
    future: concurrent.futures.Future = concurrent.futures.Future()
    future.set_result(_run_batch(tasks))
    return future


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


def _task_error(entry: dict) -> BaseException:
    """A failed result entry's error as an exception (worker errors
    arrive as their ``repr``)."""
    error = entry["error"]
    return error if isinstance(error, BaseException) \
        else RemoteTaskError(error)


def _shutdown_pool(pool, *, wait: bool = False) -> None:
    """Best-effort executor shutdown (finalizer-safe, never raises)."""
    try:
        pool.shutdown(wait=wait, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter-teardown races
        pass


class _Dispatcher:
    """One run's streaming dispatch loop, for the pool and in-parent.

    Keeps at most one batch per free slot in flight — ``workers`` slots
    on the pool, one in-parent — so a submitted batch is picked up
    immediately, which is what lets per-attempt deadlines start at
    dispatch time without charging queue wait.  Completions are
    consumed in completion order (``concurrent.futures.wait``); failed
    tasks re-enter the queue after their seeded backoff elapses, and
    timed-out batches are abandoned to the *ghosts* set: their worker
    still counts as busy until the future resolves, and a late success
    is adopted if the task has not been recorded by a retry in the
    meantime.  Retries, backoff, drain, recording and sizing live here
    alone.
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
        self._batchable: dict[str, bool] = {}

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
        if self.runner._pool is None:
            return 1 - len(self.in_flight)
        ghosts_busy = sum(1 for future in self.ghosts
                          if not future.done())
        return self.runner.workers - len(self.in_flight) - ghosts_busy

    def _fill(self, now: float) -> bool:
        """Dispatch batches onto free slots; True if the pool broke."""
        pool = self.runner._pool
        free = self._free_slots()
        while self.pending and free > 0:
            # Split what's left across the free workers, capped by the
            # sizer's wall-time target, so the tail of a sweep doesn't
            # pile onto one worker while others idle.
            limit = max(1, min(
                self.runner._sizer.size(),
                math.ceil(len(self.pending) / free)))
            batch = self._take(limit, inline=pool is None)
            if not batch:
                continue
            deadline = None
            if pool is None:
                future = _run_inline([task for task, _ in batch])
            else:
                payloads = [_task_payload(task) for task, _ in batch]
                try:
                    future = pool.submit(execute_batch, payloads)
                except (BrokenProcessPool, RuntimeError):
                    # Never dispatched — requeue untouched (not
                    # suspects, no attempt charged) and let the
                    # recovery path rebuild the pool.
                    self.pending.extendleft(reversed(batch))
                    return True
                if self.runner.task_timeout_s is not None:
                    deadline = (time.monotonic()
                                + self.runner.task_timeout_s * len(batch))
            self.in_flight[future] = _Flight(batch, deadline)
            free -= 1
        return False

    def _take(self, limit: int, *,
              inline: bool) -> list[tuple[SweepTask, int]]:
        """Pop the next batch: at most ``limit`` unrecorded tasks.

        An in-parent batch is one batch-form group of a single
        experiment, or else a single task.
        """
        batch: list[tuple[SweepTask, int]] = []
        while self.pending and len(batch) < limit:
            task, attempt = self.pending[0]
            if inline and batch and not self._groups_with(batch[0][0],
                                                          task):
                break
            self.pending.popleft()
            if task.index not in self.recorded:
                batch.append((task, attempt))
        return batch

    def _groups_with(self, head: SweepTask, task: SweepTask) -> bool:
        """Whether ``task`` joins ``head``'s in-parent group."""
        if task.experiment != head.experiment:
            return False
        if head.experiment not in self._batchable:
            self._batchable[head.experiment] = _has_batch_form(head)
        return self._batchable[head.experiment]

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
            if entry["ok"]:
                self._record_done(task, attempt, entry, raw["worker_pid"])
                runner._sizer.observe(entry["wall_time_s"])
            else:
                self._after_failure(task, attempt, _task_error(entry))

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
            if entry["ok"] and task.index not in self.recorded:
                self._record_done(task, attempt, entry, raw["worker_pid"])

    def _record_done(self, task: SweepTask, attempt: int, entry: dict,
                     worker_pid: int) -> None:
        """Record a successful result entry as ``task``'s outcome."""
        self.recorded.add(task.index)
        self.record(TaskOutcome(
            task=task, value=entry["value"],
            wall_time_s=entry["wall_time_s"],
            events_processed=entry["events_processed"],
            cached=False, attempts=attempt, worker_pid=worker_pid,
        ))

    def _after_failure(self, task: SweepTask, attempt: int,
                       error: BaseException) -> None:
        """The retry policy, applied to one failed attempt."""
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
        """Attribute the crash in isolation, rebuild the pool, go on.

        When no pool can be rebuilt the loop finishes the run
        in-parent; queued tasks keep their attempt numbers.
        """
        suspects = list(self._suspects)
        self._suspects.clear()
        for flight in self.in_flight.values():
            suspects.extend(flight.batch)
        self.in_flight.clear()
        # Ghost batches died with the pool; their retries are already
        # queued (or their tasks recorded), so just drop the futures.
        self.ghosts.clear()
        self.runner.close()
        for task, attempt in suspects:
            if task.index not in self.recorded:
                self._run_isolated(task, attempt)
        if self.pending or self.retries:
            self.runner._ensure_pool()

    def _run_isolated(self, task: SweepTask, attempt: int) -> None:
        """Re-run a crash suspect alone in fresh single-worker pools.

        In isolation a dead worker is definitely this task's doing;
        after ``poison_after`` such deaths the task is quarantined as
        *poisoned* rather than retried forever.  Tasks that merely
        shared a pool (or a batch) with the real crasher succeed here
        on the first attempt.  An ordinary failure goes to the retry
        policy with its real attempt number: the shared-pool attempt
        that sent the task here counts, and so does each isolated one.
        """
        runner = self.runner
        crashes = 0
        while crashes < runner.poison_after:
            attempt += 1
            try:
                pool = runner._new_pool(1)
            except (OSError, ValueError, ImportError) as error:
                # No isolation available; running a crash suspect in
                # the parent would risk the whole sweep — quarantine.
                runner.telemetry.record_fallback(error)
                break
            with pool:
                future = pool.submit(execute_batch, [_task_payload(task)])
                try:
                    raw = future.result(timeout=runner.task_timeout_s)
                except BrokenProcessPool as error:
                    crashes += 1
                    runner.telemetry.record_crash(task, error)
                    continue
                except Exception as error:  # noqa: BLE001 — retry policy
                    self._after_failure(task, attempt, error)
                    return
            runner._merge_worker_obs(raw)
            runner.telemetry.record_warm(raw.get("warm"))
            entry = raw["results"][0]
            if entry["ok"]:
                self._record_done(task, attempt, entry, raw["worker_pid"])
            else:
                self._after_failure(task, attempt, _task_error(entry))
            return
        self.recorded.add(task.index)
        self.record(TaskOutcome(
            task=task, value=None, wall_time_s=0.0,
            events_processed=0, cached=False, attempts=attempt,
            worker_pid=os.getpid(), status="poisoned",
        ))


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
            pool = self._new_pool(self.workers)
        except (OSError, ValueError, ImportError) as error:
            self.telemetry.record_fallback(error)
            return None
        self._pool = pool
        self._pool_finalizer = weakref.finalize(self, _shutdown_pool,
                                                pool)
        return pool

    def _new_pool(self, workers: int
                  ) -> concurrent.futures.ProcessPoolExecutor:
        """A fresh pool of ``workers`` on the exec-layer context."""
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=exec_mp_context(self.mp_start),
        )

    def close(self, *, wait: bool = False) -> None:
        """Shut the persistent worker pool down (also how a crashed
        pool is dropped before its rebuild).

        ``wait=True`` blocks until the workers exit; the default lets
        them finish their current batch and exit on their own.
        """
        if self._pool is None:
            return
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        pool, self._pool = self._pool, None
        _shutdown_pool(pool, wait=wait)

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
            # One encoding serves both durable stores.
            cacheable = self._cacheable(outcome)
            if not cacheable and self.checkpoint is None:
                return
            encoded = encode_stored(outcome.value)
            if cacheable:
                self.cache.put_task(outcome.task, outcome.value, meta={
                    "wall_time_s": outcome.wall_time_s,
                    "events_processed": outcome.events_processed,
                }, encoded=encoded)
            if self.checkpoint is not None:
                self.checkpoint.record(outcome, encoded)

        try:
            if misses:
                if self.workers > 1:
                    # Crash-prone tasks must never execute in the parent
                    # process, so any multi-worker run uses the pool even
                    # for a single miss (in-parent only if none builds).
                    self._ensure_pool()
                _Dispatcher(self, record).run(misses)
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

        In-parent batches already accumulated into the live registry,
        so merging again would double-count — the pid check tells the
        two apart."""
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

    def _cacheable(self, outcome: TaskOutcome) -> bool:
        return (self.cache is not None and not outcome.cached
                and not outcome.resumed and outcome.status == "done")

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
