"""Tiny task functions for exercising the sweep runner.

Task functions must be importable by dotted path inside worker
processes, so the test suite's fixtures live here rather than in a test
module.  They are also handy smoke-test payloads for operators trying a
new deployment (``repro.exec.testing:echo_task`` costs microseconds).
"""

from __future__ import annotations

import os
import signal
import time
import typing

from repro.errors import ExecutionError
from repro.exec.cache import decode_result
from repro.exec.runner import TaskPayload


def echo_task(params: dict) -> dict:
    """Return the params (plus the worker pid) — the no-op task."""
    return {**params, "pid": os.getpid()}


def square_task(params: dict) -> TaskPayload:
    """Square ``params['x']``, reporting one processed event."""
    return TaskPayload(value=params["x"] ** 2, events_processed=1)


def batched_square_task(params: dict) -> TaskPayload:
    """:func:`square_task` with a batch form (the runner's group path).

    Reports ``params['x']`` processed events.  With
    ``params['counter_path']`` it first fails like :func:`flaky_task`
    for ``params['fail_times']`` attempts.  The batch form maps the
    task over its list, so one failing member makes the whole batch
    call raise.
    """
    if "counter_path" in params:
        flaky_task(params)
    return TaskPayload(value=params["x"] ** 2,
                       events_processed=params["x"])


def _batched_squares(params_list: list[dict]) -> list[TaskPayload]:
    return [batched_square_task(params) for params in params_list]


batched_square_task.batch = _batched_squares  # type: ignore[attr-defined]


def stored_value_task(params: dict) -> typing.Any:
    """Return the value stored as ``params['stored']`` (its decoded
    :func:`~repro.exec.cache.encode_stored` form), or, with
    ``params['unencodable']``, a set of its items: a value that crosses
    the pool but has no store encoding."""
    if "unencodable" in params:
        return set(params["unencodable"])
    return decode_result(params["stored"])


def sleep_task(params: dict) -> float:
    """Sleep ``params['seconds']`` and return it (timeout tests)."""
    time.sleep(params["seconds"])
    return params["seconds"]


def flaky_task(params: dict) -> int:
    """Fail the first ``params['fail_times']`` attempts (retry tests).

    Attempts are counted in ``params['counter_path']`` so the count
    survives process boundaries.
    """
    path = params["counter_path"]
    try:
        with open(path, encoding="utf-8") as handle:
            attempts = int(handle.read() or 0)
    except FileNotFoundError:
        attempts = 0
    attempts += 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(str(attempts))
    if attempts <= params["fail_times"]:
        raise ExecutionError(f"flaky_task failing attempt {attempts}")
    return attempts


def kill_worker_task(params: dict) -> int:
    """SIGKILL the worker on the first ``params['kill_times']`` attempts.

    Exercises the crash-quarantine path: the process pool sees a dead
    worker (``BrokenProcessPool``), not an exception.  Attempts are
    counted in ``params['counter_path']`` so the count survives the
    worker deaths; once the quota is exhausted the task returns its
    attempt number.  Only meaningful under ``workers > 1`` — in a
    serial run it would kill the parent process.
    """
    path = params["counter_path"]
    try:
        with open(path, encoding="utf-8") as handle:
            attempts = int(handle.read() or 0)
    except FileNotFoundError:
        attempts = 0
    attempts += 1
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(str(attempts))
    if attempts <= params["kill_times"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return attempts
