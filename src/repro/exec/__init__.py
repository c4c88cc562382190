"""Execution layer: batched parallel dispatch, caching, telemetry.

Every paper artefact is a sweep over an embarrassingly parallel grid of
(technique x stress x configuration) points; this package is the
substrate those sweeps run on.  Six layers:

* :mod:`repro.exec.runner` — grid expansion, deterministic per-task
  seeding, and one batched dispatch loop that runs on a persistent
  warm process pool or, with one worker or no pool, in-parent
  (adaptive batch sizing, completion-order result streaming, per-attempt
  deadlines accounted from dispatch, one retry policy with seeded
  exponential backoff, and crash quarantine: a task that repeatedly
  kills its worker is recorded as *poisoned* instead of sinking the
  sweep).  Task functions with a ``batch`` form run a dispatch batch of
  their tasks in one call.
* :mod:`repro.exec.worker` — the per-worker warm cache: an LRU keyed on
  content hashes that memoizes resolved task functions, compiled kernel
  arrays, variability models, criticality indexes and campaign
  trajectories across tasks and batches for the lifetime of the worker.
* :mod:`repro.exec.cache` — an on-disk result cache keyed by a content
  hash of the task configuration plus the code version, kept as an
  append-only pack of per-process segments; records carry a checksum,
  so truncated or corrupted ones are detected, logged, and rebuilt
  instead of served.
* :mod:`repro.exec.recordlog` — the append-only JSONL record log
  (fsync per append, torn-tail truncation on resume) shared by sweep
  checkpoints, the soak journal and the run-event spool.
* :mod:`repro.exec.checkpoint` — append-only persistence of completed
  outcomes on that log, so a sweep killed mid-run resumes where it left
  off with byte-identical results.
* :mod:`repro.exec.telemetry` — per-task wall time, events processed,
  cache hit/miss counts, batch sizes, warm-cache hit rates,
  retries/backoff, crashes, and worker utilization, emitted as
  structured logging records and a machine-readable run summary.
"""

from repro.exec.cache import (
    ResultCache,
    decode_result,
    encode_result,
    encode_stored,
    stable_key,
)
from repro.exec.checkpoint import (
    SweepCheckpoint,
    atomic_write_json,
    compute_run_key,
    read_checkpoint,
)
from repro.exec.recordlog import RecordLog, RecordLogCorrupt
from repro.exec.runner import (
    DispatchSizer,
    SweepDrained,
    SweepRunner,
    SweepRunResult,
    SweepTask,
    TaskOutcome,
    TaskPayload,
    derive_seed,
    exec_mp_context,
    expand_grid,
)
from repro.exec.telemetry import RunTelemetry
from repro.exec.worker import WARM, WarmCache

__all__ = [
    "DispatchSizer",
    "RecordLog",
    "RecordLogCorrupt",
    "ResultCache",
    "RunTelemetry",
    "SweepCheckpoint",
    "SweepDrained",
    "SweepRunResult",
    "SweepRunner",
    "SweepTask",
    "TaskOutcome",
    "TaskPayload",
    "WARM",
    "WarmCache",
    "atomic_write_json",
    "compute_run_key",
    "decode_result",
    "derive_seed",
    "encode_result",
    "encode_stored",
    "exec_mp_context",
    "expand_grid",
    "read_checkpoint",
    "stable_key",
]
