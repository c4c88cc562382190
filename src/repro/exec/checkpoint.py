"""Append-only sweep checkpointing for crash-tolerant, resumable runs.

A :class:`SweepCheckpoint` logs completed task outcomes as a sweep
progresses, so a run killed mid-sweep can be re-launched with
``--resume`` and only re-execute what is missing.  The file (schema 2)
is a :class:`~repro.exec.recordlog.RecordLog`: a header line
``{schema_version, run_key}``, then one line per completed outcome
carrying its task ``index`` (the last line for an index wins).  The
*run key* hashes every task's (experiment, params, seed, index) and the
code version, so a checkpoint of another run is logged and ignored.
Values use the result cache's store encoding
(:func:`repro.exec.cache.encode_stored`: tagged JSON, with outcome
lists as columns), spliced in as the text the runner already encoded
for the cache, so a resumed sweep is byte-identical to an
uninterrupted one.  ``record`` encodes only the new outcome; every
``every`` completions (and at the end) the buffered lines are appended
and ``fsync``\\ ed — O(1) I/O per outcome, never a rewrite.
:func:`atomic_write_json` serves whole-document state such as the soak
driver's checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import tempfile
import typing

from repro.exec.cache import decode_result, encode_stored
from repro.exec.recordlog import RecordLog, RecordLogCorrupt, fsync_dir

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.exec.runner import SweepTask, TaskOutcome

logger = logging.getLogger("repro.exec.checkpoint")

CHECKPOINT_SCHEMA_VERSION = 2


def atomic_write_json(path: pathlib.Path, data: typing.Any) -> None:
    """Durably replace ``path`` with the JSON encoding of ``data``.

    Temp file in the same directory, ``fsync``, atomic ``rename`` over
    the target, directory ``fsync``: at every instant the target holds
    the old or the new complete document — a SIGKILL mid-write leaves
    the temp file behind, never a torn target.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data))  # one write, not per chunk
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


def compute_run_key(tasks: "typing.Sequence[SweepTask]",
                    code_version: str) -> str:
    """Stable identity of one sweep: its exact task list + code version."""
    payload = json.dumps(
        {"version": code_version,
         "tasks": [[task.index, task.experiment, task.params, task.seed]
                   for task in tasks]},
        sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def read_checkpoint(path: str | os.PathLike) -> dict[int, dict]:
    """Completed records by task index, read-only (torn tail ignored)."""
    return {int(record["index"]): record
            for record in RecordLog.read(path)[1]}


class SweepCheckpoint:
    """Append-only log of completed task outcomes.

    Args:
        path: Checkpoint file location.
        every: Append to disk after this many newly recorded outcomes
            (the runner always flushes once more at the end of the run).
        resume: When False (the default), an existing file is ignored
            and overwritten — explicit opt-in keeps accidental reuse of
            a stale checkpoint from masking fresh results.
    """

    def __init__(self, path: str | os.PathLike, *, every: int = 8,
                 resume: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.every = max(1, every)
        self.resume = resume
        self._log = RecordLog(self.path)
        self._run_key: str | None = None
        self._indices: set[int] = set()
        self._pending: list[bytes] = []
        #: Called after every durable append with the number of completed
        #: indices on disk — the obs stream's ``checkpoint`` events.
        self.on_flush: typing.Callable[[int], None] | None = None

    # -- load --------------------------------------------------------------
    def load(self, tasks: "typing.Sequence[SweepTask]",
             code_version: str) -> dict[int, dict]:
        """Bind to this run and return resumable records by task index.

        Returns ``{}`` — and replaces the file with a fresh header —
        unless ``resume`` is set and the file matches this exact run.
        """
        self._run_key = compute_run_key(tasks, code_version)
        self._pending = []
        completed = self._resume() if self.resume else {}
        self._indices = set(completed)
        if not completed:
            self._log.open_fresh({
                "schema_version": CHECKPOINT_SCHEMA_VERSION,
                "run_key": self._run_key})
        return completed

    def _resume(self) -> dict[int, dict]:
        if not self.path.exists():
            return {}
        try:
            # The header line is parsed on its own so that a schema-1
            # file (one unterminated JSON document) is named as such.
            with open(self.path, "rb") as handle:
                header = json.loads(handle.readline())
            if header["schema_version"] != CHECKPOINT_SCHEMA_VERSION:
                logger.warning(
                    "checkpoint %s has schema %r (expected %r); ignoring",
                    self.path, header["schema_version"],
                    CHECKPOINT_SCHEMA_VERSION)
                return {}
            if header["run_key"] != self._run_key:
                logger.warning(
                    "checkpoint %s belongs to a different run (task grid,"
                    " seed, or code version changed); ignoring", self.path)
                return {}
            completed = {int(record["index"]): record
                         for record in self._log.open_resume()[1]}
        except (OSError, RecordLogCorrupt, LookupError, TypeError,
                ValueError) as error:
            logger.warning("checkpoint %s is unreadable (%s); starting "
                           "fresh", self.path, error)
            return {}
        logger.info("resuming %d completed task(s) from %s",
                    len(completed), self.path)
        return completed

    # -- record ------------------------------------------------------------
    def record(self, outcome: "TaskOutcome",
               encoded: str | None = None) -> None:
        """Encode one completed outcome; append when the batch is full.

        ``encoded`` is the value's :func:`encode_stored` text when the
        caller already has it (the runner shares it with the cache).
        """
        if encoded is None:
            encoded = encode_stored(outcome.value)
        self._pending.append(self._log.encode({
            "index": outcome.task.index,
            "key": outcome.task.key,
            "status": outcome.status,
            "wall_time_s": outcome.wall_time_s,
            "events_processed": outcome.events_processed,
            "attempts": outcome.attempts,
            "worker_pid": outcome.worker_pid,
        }, value=encoded))
        self._indices.add(outcome.task.index)
        if len(self._pending) >= self.every:
            self._append()

    def flush(self) -> None:
        """Durably append every buffered outcome and release the file.

        The runner calls this once, at the end of a run; the next
        :meth:`load` reopens the log.
        """
        if self._run_key is None:
            raise RuntimeError("checkpoint used before load()")
        self._append()
        self._log.close()

    def _append(self) -> None:
        if self._pending:
            self._log.write(b"".join(self._pending))
            self._pending = []
        if self.on_flush is not None:
            try:
                self.on_flush(len(self._indices))
            except Exception:  # pragma: no cover - defensive
                logger.warning("checkpoint on_flush hook failed",
                               exc_info=True)

    # -- rehydration -------------------------------------------------------
    @staticmethod
    def outcome_from_record(task: "SweepTask",
                            record: typing.Mapping) -> "TaskOutcome":
        """Rebuild a :class:`TaskOutcome` from a checkpoint record."""
        from repro.exec.runner import TaskOutcome

        return TaskOutcome(
            task=task,
            value=decode_result(record["value"]),
            wall_time_s=float(record["wall_time_s"]),
            events_processed=int(record["events_processed"]),
            cached=False,
            attempts=int(record["attempts"]),
            worker_pid=int(record["worker_pid"]),
            status=str(record.get("status", "done")),
            resumed=True,
        )
