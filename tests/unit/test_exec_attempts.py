"""Attempt accounting in the sweep runner's one dispatch loop.

Retries are charged the same way whether a batch runs on the pool or
in-parent, and a task's attempt number survives every hand-off: from
the pool to crash isolation, and from a pool that cannot be rebuilt to
in-parent execution.
"""

import concurrent.futures
import dataclasses
import os
import re

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.errors import ExecutionError
from repro.exec import SweepRunner, SweepTask, expand_grid

FLAKY = "repro.exec.testing:flaky_task"
BATCHED = "repro.exec.testing:batched_square_task"
SQUARE = "repro.exec.testing:square_task"


def _flaky(tmp_path, fail_times: int) -> SweepTask:
    return SweepTask(
        experiment=FLAKY,
        params={"counter_path": str(tmp_path / "count"),
                "fail_times": fail_times},
        index=0, seed=0, key="flaky[0]",
    )


def _batched_flaky(tmp_path, fail_times: int) -> list[SweepTask]:
    """Three batch-form tasks; the middle one fails ``fail_times``
    attempts (each failed attempt also sinks its group's batch call)."""
    tasks = expand_grid(BATCHED, {"x": (1, 2, 3)}, root_seed=4)
    tasks[1] = dataclasses.replace(tasks[1], params={
        **tasks[1].params, "counter_path": str(tmp_path / "count"),
        "fail_times": fail_times})
    return tasks


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("retries", [0, 1, 2])
@pytest.mark.parametrize("form", ["single", "batch"])
def test_exhausted_task_records_one_retry_per_retry(tmp_path, workers,
                                                    retries, form):
    tasks = ([_flaky(tmp_path, 99)] if form == "single"
             else _batched_flaky(tmp_path, 99))
    guilty = tasks[0] if form == "single" else tasks[1]
    with SweepRunner(workers=workers, retries=retries,
                     batch_target_s=5.0) as runner:
        with pytest.raises(ExecutionError) as excinfo:
            runner.run(tasks)
    logged = runner.telemetry.summary()["retries"]
    assert len(logged) == retries
    assert {r["key"] for r in logged} <= {guilty.key}
    assert re.search(
        rf"task {re.escape(guilty.key)} failed after {retries + 1} "
        r"attempt\(s\)", str(excinfo.value))


class _BreaksOnSecondSubmit:
    """A real pool that breaks when its second batch is submitted.

    ``in_flight=False`` makes that submit raise (the pool was found
    dead before dispatch); ``in_flight=True`` returns a future that
    fails with ``BrokenProcessPool`` (the pool died under the batch).
    """

    def __init__(self, real, in_flight: bool, **kwargs) -> None:
        self._pool = real(**kwargs)
        self._in_flight = in_flight
        self._submits = 0

    def submit(self, fn, *args):
        self._submits += 1
        if self._submits == 1:
            return self._pool.submit(fn, *args)
        error = BrokenProcessPool("pool died")
        if not self._in_flight:
            raise error
        future = concurrent.futures.Future()
        future.set_exception(error)
        return future

    def shutdown(self, *args, **kwargs) -> None:
        self._pool.shutdown(*args, **kwargs)


def _breaking_pools(monkeypatch, *, in_flight: bool) -> list[int]:
    """Make the first dispatch pool break on its second batch and every
    later dispatch pool fail to build; single-worker (isolation) pools
    still build.  Returns the list of requested pool sizes."""
    real = concurrent.futures.ProcessPoolExecutor
    built: list[int] = []

    def factory(*, max_workers, **kwargs):
        built.append(max_workers)
        if max_workers == 1:
            return real(max_workers=1, **kwargs)
        if built.count(max_workers) > 1:
            raise OSError("no pool for you")
        return _BreaksOnSecondSubmit(real, in_flight,
                                     max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        factory)
    return built


class TestAttemptHandOffs:
    def test_retry_finishes_in_parent_with_its_attempt(self, tmp_path,
                                                       monkeypatch):
        built = _breaking_pools(monkeypatch, in_flight=False)
        with SweepRunner(workers=2, retries=1) as runner:
            run = runner.run([_flaky(tmp_path, 1)])
        assert built == [2, 2]  # the rebuild was attempted and failed
        (outcome,) = run.outcomes
        assert outcome.value == 2
        assert outcome.attempts == 2
        assert outcome.worker_pid == os.getpid()
        assert len(run.summary["retries"]) == 1
        assert len(run.summary["serial_fallbacks"]) == 1

    def test_in_parent_finish_keeps_the_remaining_budget(self, tmp_path,
                                                         monkeypatch):
        # One failure in the pool leaves one attempt of retries=1; the
        # in-parent attempt fails too, so the run must stop there.
        _breaking_pools(monkeypatch, in_flight=False)
        with SweepRunner(workers=2, retries=1) as runner:
            with pytest.raises(ExecutionError,
                               match=r"failed after 2 attempt\(s\)"):
                runner.run([_flaky(tmp_path, 2)])
        assert len(runner.telemetry.summary()["retries"]) == 1

    def test_crash_suspect_keeps_its_attempt(self, tmp_path, monkeypatch):
        # The retry (attempt 2) is in flight when the pool dies; its
        # isolated rerun is attempt 3, not a fresh attempt 2.
        built = _breaking_pools(monkeypatch, in_flight=True)
        with SweepRunner(workers=2, retries=2) as runner:
            run = runner.run([_flaky(tmp_path, 1)])
        assert built == [2, 1]
        (outcome,) = run.outcomes
        assert outcome.status == "done"
        assert outcome.value == 2
        assert outcome.attempts == 3


class TestNoPoolFallback:
    def test_unbuildable_pool_runs_in_parent(self):
        tasks = (expand_grid(SQUARE, {"x": (1, 2, 3)}, root_seed=5)
                 + [dataclasses.replace(task, index=3 + task.index)
                    for task in expand_grid(BATCHED, {"x": (4, 5, 6)},
                                            root_seed=5)])
        serial = SweepRunner().run(tasks)
        with SweepRunner(workers=2, mp_start="no-such-method") as runner:
            run = runner.run(tasks)
        assert run.values == serial.values == [1, 4, 9, 16, 25, 36]
        assert len(run.summary["serial_fallbacks"]) == 1
        assert all(o.attempts == 1 for o in run.outcomes)
        assert all(o.worker_pid == os.getpid() for o in run.outcomes)
        # In-parent batches count like pool ones: three single square
        # tasks, then one group of the three batch-form tasks.
        assert run.summary["batches"] == serial.summary["batches"] == 4
