"""Durable run-event stream: an append-only JSONL spool with live tails.

This module is the streaming layer underneath live monitoring of
long-running modes (sweep/campaign/soak): an :class:`EventPublisher`
appends one JSON object per run event to ``events.jsonl`` inside the
run's obs directory, and an :class:`EventStreamReader` tails that file
incrementally (from this or any other process), tolerating the torn
final line an abrupt death can leave behind.  The spool is an
:class:`EventSpool`, a :class:`~repro.exec.recordlog.RecordLog`: its
framing, header rule and torn-tail parser are the checkpoint's and the
soak journal's, but its appends skip the fsync, because events are
*telemetry*, not replay state.

Event framing
-------------
Line 0 is a header (``type="header"``) carrying the schema version, a
run id, the run kind, and the heartbeat interval.  Every subsequent
event carries:

* ``seq`` — monotone sequence number (gaps mean dropped writes and are
  reported by the reader);
* ``wall`` — ``time.time()`` seconds (cross-process comparable; this is
  what staleness detection measures against);
* ``mono_ns`` — ``time.perf_counter_ns()`` of the *writing* process
  (meaningful only relative to other events in the same file; this is
  what rate estimation measures against, immune to wall-clock steps);
* ``type`` — the event kind (``run_start``, ``phase_start``,
  ``progress``, ``round``, ``retry``, ``crash``, ``quarantine``,
  ``fallback``, ``checkpoint``, ``metrics``, ``heartbeat``, ``drain``,
  ``phase_end``, ``run_end``).

The publisher also fans events out to in-process listener callbacks —
the CLI's live status line subscribes there, folding the *same* events
``repro-timber monitor`` folds from disk, so the two can never disagree.

A daemon heartbeat thread emits a ``heartbeat`` event whenever nothing
else has been written for half the heartbeat interval; a reader that
sees no event for more than one full interval may therefore conclude
the writer is dead (the ``stale`` rule in :mod:`repro.obs.health`).
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import threading
import time
import typing

from repro.exec.recordlog import RecordLog, RecordLogCorrupt, parse_lines

logger = logging.getLogger("repro.obs")

STREAM_SCHEMA_VERSION = 1

#: Conventional spool filename inside a run's obs directory.
EVENTS_FILENAME = "events.jsonl"

#: Default heartbeat interval — the liveness contract's unit.
DEFAULT_HEARTBEAT_S = 5.0

#: Minimum seconds between throttled ``progress`` events.
DEFAULT_PROGRESS_EVERY_S = 0.5

#: Minimum seconds between periodic registry snapshot-delta events.
DEFAULT_METRICS_EVERY_S = 5.0


class StreamCorrupt(RecordLogCorrupt):
    """The event spool is damaged in a way a crash cannot explain."""


class EventSpool(RecordLog):
    """The publisher's spool: a record log whose appends never fsync.

    The header is written and fsynced like any record log's (losing it
    would orphan the whole spool).  Appends then flush through one
    handle held open until :meth:`close`, so tails see each event
    promptly, but skip the per-record fsync, which would blow the
    overhead budget on fast sweeps.  Lines are sorted-key JSON with
    ``default=str``: callers pass arbitrary event fields, and telemetry
    stringifies what JSON cannot hold rather than fail the run.
    """

    corrupt = StreamCorrupt
    sort_keys = True
    schema = STREAM_SCHEMA_VERSION
    _handle: typing.IO[bytes] | None = None

    def encode(self, record: dict) -> bytes:
        return json.dumps(record, sort_keys=True, separators=(",", ":"),
                          default=str).encode("utf-8") + b"\n"

    def _append(self, data: bytes) -> None:
        if self._handle is None:
            self._handle = open(self.path, "ab")
        self._handle.write(data)
        self._handle.flush()

    def close(self) -> None:
        super().close()
        handle, self._handle = self._handle, None
        if handle is not None:
            with handle:
                os.fsync(handle.fileno())


def _default_run_id(kind: str) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{kind}-{stamp}-{os.getpid()}"


class EventPublisher:
    """Fans run events out to the JSONL spool and in-process listeners.

    Thread-safe: the heartbeat thread, pool-completion callbacks, and
    the main dispatch loop all emit through one re-entrant lock.  A
    failing file sink degrades to listeners-only with a single warning
    — telemetry must never abort the scientific run it narrates.
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 kind: str = "run",
                 run_id: str | None = None,
                 heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                 meta: dict | None = None,
                 registry: typing.Any = None,
                 progress_every_s: float = DEFAULT_PROGRESS_EVERY_S,
                 metrics_every_s: float = DEFAULT_METRICS_EVERY_S) -> None:
        self.path = pathlib.Path(path) if path is not None else None
        self.kind = kind
        self.run_id = run_id or _default_run_id(kind)
        self.heartbeat_s = max(0.05, float(heartbeat_s))
        self.meta = dict(meta or {})
        self.registry = registry
        self.progress_every_s = progress_every_s
        self.metrics_every_s = metrics_every_s
        self._lock = threading.RLock()
        self._spool = (EventSpool(self.path) if self.path is not None
                       else None)
        self._listeners: list[typing.Callable[[dict], None]] = []
        self._seq = 0
        self._last_emit_ns = time.perf_counter_ns()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._pending_drain: int | None = None
        self._ended = False
        # Cumulative run counters fed by the telemetry bridge; shipped
        # whole in every progress event so any prefix is self-contained.
        self._counts = {
            "done": 0, "executed": 0, "cached": 0, "resumed": 0,
            "poisoned": 0, "retries": 0, "crashes": 0, "fallbacks": 0,
            "batches": 0, "events_processed": 0, "checkpoints": 0,
        }
        self._busy_s = 0.0
        self._workers = 0
        self._phase: str | None = None
        self._phase_total: int | None = None
        self._total_units: int | None = None
        self._dirty = False
        self._last_progress_ns = 0
        self._last_metrics_ns = time.perf_counter_ns()
        self._metrics_before: dict | None = None
        self._attached: list[typing.Any] = []

    # -- lifecycle ---------------------------------------------------------
    def open(self) -> "EventPublisher":
        """Write the header, open the spool, start the heartbeat."""
        with self._lock:
            if self.registry is not None:
                self._metrics_before = self.registry.snapshot()
            self._write({
                "run_id": self.run_id,
                "kind": self.kind,
                "heartbeat_s": self.heartbeat_s,
                "pid": os.getpid(),
                "meta": self.meta,
            }, header=True)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._heartbeat_loop, name="obs-events-heartbeat",
            daemon=True)
        self._thread.start()
        return self

    def close(self, status: str | None = None, **fields: typing.Any) -> None:
        """Flush pending progress, optionally emit ``run_end``, stop."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        with self._lock:
            for telemetry in self._attached:
                try:
                    telemetry.listeners.remove(self._on_telemetry)
                except ValueError:  # pragma: no cover - already gone
                    pass
            self._attached = []
            self._emit_pending_drain()
            self._maybe_progress(force=True)
            if status is not None and not self._ended:
                self.emit("run_end", status=status, **fields)
            if self._spool is not None:
                try:
                    self._spool.close()
                finally:
                    self._spool = None

    def __enter__(self) -> "EventPublisher":
        return self.open()

    def __exit__(self, *exc_info: typing.Any) -> None:
        self.close()

    # -- emission ----------------------------------------------------------
    def add_listener(self, listener: typing.Callable[[dict], None]) -> None:
        """Subscribe an in-process callback to every emitted event."""
        self._listeners.append(listener)

    def emit(self, etype: str, **fields: typing.Any) -> dict:
        """Append one event (spool + listeners) and return it."""
        with self._lock:
            self._seq += 1
            event = {
                "seq": self._seq,
                "type": etype,
                "wall": time.time(),
                "mono_ns": time.perf_counter_ns(),
                **fields,
            }
            self._last_emit_ns = event["mono_ns"]
            if etype == "run_end":
                self._ended = True
            self._write(event)
            for listener in list(self._listeners):
                try:
                    listener(event)
                except Exception:  # pragma: no cover - defensive
                    logger.warning("obs event listener failed",
                                   exc_info=True)
            return event

    def _write(self, record: dict, *, header: bool = False) -> None:
        spool = self._spool
        if spool is None:
            return
        try:
            if header:
                spool.open_fresh(record)
            else:
                spool.write(spool.encode(record))
        except OSError:
            logger.warning("obs event spool write failed; disabling "
                           "file sink", exc_info=True)
            self._spool = None
            try:
                spool.close()
            except OSError:  # pragma: no cover
                pass

    # -- run lifecycle events ----------------------------------------------
    def run_start(self, *, total: int | None = None,
                  unit: str = "tasks",
                  **fields: typing.Any) -> None:
        with self._lock:
            self._total_units = total
            self.emit("run_start", kind=self.kind, total=total,
                      unit=unit, **fields)

    def run_end(self, status: str = "ok", **fields: typing.Any) -> None:
        with self._lock:
            self._emit_pending_drain()
            self._maybe_progress(force=True)
            self.emit("run_end", status=status, **fields)

    def checkpoint(self, **fields: typing.Any) -> None:
        with self._lock:
            self._counts["checkpoints"] += 1
            self.emit("checkpoint",
                      total=self._counts["checkpoints"], **fields)

    def note_drain(self, signum: int) -> None:
        """Record a drain request from a signal handler.

        Handler-safe: only sets a field; the heartbeat thread (or the
        next emission) writes the actual ``drain`` event.
        """
        self._pending_drain = signum

    def _emit_pending_drain(self) -> None:
        if self._pending_drain is not None:
            signum, self._pending_drain = self._pending_drain, None
            self.emit("drain", signum=signum)

    # -- telemetry bridge --------------------------------------------------
    def attach(self, telemetry: typing.Any, *,
               track_phases: bool = True) -> "EventPublisher":
        """Subscribe to a :class:`~repro.exec.telemetry.RunTelemetry`.

        Batch completions, task outcomes, retries, crashes, and
        quarantines flow into the spool without the runner knowing the
        publisher exists.  ``track_phases=False`` suppresses
        ``phase_start``/``phase_end`` for callers whose unit of
        progress is not the runner's (soak emits ``round`` events and
        would otherwise open a phase per round).
        """
        self._track_phases = track_phases
        telemetry.listeners.append(self._on_telemetry)
        self._attached.append(telemetry)
        return self

    def _on_telemetry(self, kind: str, payload: typing.Any) -> None:
        with self._lock:
            self._emit_pending_drain()
            if kind == "start":
                self._workers = payload["workers"]
                self._phase_total = payload["num_tasks"]
                if getattr(self, "_track_phases", True):
                    self._phase = payload.get("phase") or self._phase
                    self.emit("phase_start", phase=self._phase,
                              total=payload["num_tasks"],
                              workers=payload["workers"])
            elif kind == "task":
                counts = self._counts
                counts["done"] += 1
                if payload.status == "poisoned":
                    counts["poisoned"] += 1
                    self.emit("quarantine", key=payload.key,
                              total=counts["poisoned"])
                elif payload.resumed:
                    counts["resumed"] += 1
                elif payload.cached:
                    counts["cached"] += 1
                else:
                    counts["executed"] += 1
                    counts["events_processed"] += payload.events_processed
                    self._busy_s += payload.wall_time_s
                self._dirty = True
                self._maybe_progress()
            elif kind == "batch":
                self._counts["batches"] += 1
                self._dirty = True
                self._maybe_progress()
            elif kind == "retry":
                self._counts["retries"] += 1
                self.emit("retry", key=payload["key"],
                          error=payload["error"],
                          backoff_s=payload["backoff_s"],
                          total=self._counts["retries"])
            elif kind == "crash":
                self._counts["crashes"] += 1
                self.emit("crash", key=payload["key"],
                          error=payload["error"],
                          total=self._counts["crashes"])
            elif kind == "fallback":
                self._counts["fallbacks"] += 1
                self.emit("fallback", error=payload["error"],
                          total=self._counts["fallbacks"])
            elif kind == "finish":
                self._maybe_progress(force=True)
                if getattr(self, "_track_phases", True):
                    self.emit("phase_end", phase=self._phase,
                              wall_time_s=payload.get("wall_time_s"))

    def set_phase(self, phase: str | None) -> None:
        """Name the next phase (e.g. the campaign scheme about to run)."""
        with self._lock:
            self._phase = phase

    def _maybe_progress(self, force: bool = False) -> None:
        now_ns = time.perf_counter_ns()
        if self._dirty and (
                force or (now_ns - self._last_progress_ns)
                >= self.progress_every_s * 1e9):
            self._dirty = False
            self._last_progress_ns = now_ns
            self.emit("progress", phase=self._phase,
                      phase_total=self._phase_total,
                      total=self._total_units,
                      workers=self._workers,
                      busy_s=round(self._busy_s, 6),
                      **self._counts)
        if (self.registry is not None
                and self._metrics_before is not None
                and (force or (now_ns - self._last_metrics_ns)
                     >= self.metrics_every_s * 1e9)):
            self._last_metrics_ns = now_ns
            after = self.registry.snapshot()
            from repro.obs.registry import snapshot_delta

            delta = snapshot_delta(self._metrics_before, after)
            if delta:
                self._metrics_before = after
                self.emit("metrics", delta=delta)

    # -- heartbeat ---------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        # Tick at a quarter interval and emit whenever nothing has been
        # written for half an interval: a live writer's longest silent
        # gap is therefore ~0.75x heartbeat_s, so a reader observing a
        # gap past one full interval knows the writer is gone.
        tick = max(self.heartbeat_s / 4.0, 0.02)
        while not self._stop.wait(tick):
            with self._lock:
                self._emit_pending_drain()
                self._maybe_progress()
                gap_s = (time.perf_counter_ns()
                         - self._last_emit_ns) / 1e9
                if gap_s >= self.heartbeat_s / 2.0:
                    self.emit("heartbeat")


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

class EventStreamReader:
    """Incremental, torn-tail-tolerant reader over an event spool.

    ``poll()`` returns the events appended since the previous call and
    never advances past an incomplete tail, so a live ``--follow`` tail
    and a post-mortem read share one code path.  Parsing is
    :func:`~repro.exec.recordlog.parse_lines`, the record logs' one
    torn-tail rule: an unparseable final line is presumed torn and left
    pending; if a later poll finds complete lines *after* it, the
    damage cannot be a crash artefact and :class:`StreamCorrupt` is
    raised.  The header must pass :meth:`EventSpool.check_header`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = pathlib.Path(path)
        self.header: dict | None = None
        self.last_seq = 0
        #: Sequence gaps observed (count of missing events).
        self.dropped = 0
        self._offset = 0

    def poll(self) -> list[dict]:
        """Parse and return events appended since the last poll."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                raw = handle.read()
        except OSError:
            return []
        events, consumed = parse_lines(raw, self.path, StreamCorrupt,
                                       at=self._offset)
        if self._offset == 0 and events:
            EventSpool(self.path).check_header(events[0])
            self.header = events.pop(0)
        self._offset += consumed
        for event in events:
            seq = event.get("seq")
            if isinstance(seq, int):
                if self.last_seq and seq > self.last_seq + 1:
                    self.dropped += seq - self.last_seq - 1
                self.last_seq = max(self.last_seq, seq)
        return events


def read_events(path: str | os.PathLike
                ) -> tuple[dict | None, list[dict]]:
    """One-shot read: ``(header, events)`` for a spool on disk.

    A missing or empty file yields ``(None, [])``; a torn tail is
    ignored; mid-file damage raises :class:`StreamCorrupt`.
    """
    reader = EventStreamReader(path)
    events = reader.poll()
    return reader.header, events


def events_path(run_dir: str | os.PathLike) -> pathlib.Path:
    """Resolve the spool path for a run directory (or direct file).

    Accepts the ``--obs-out`` directory, a directory holding an ``obs``
    subdirectory, or a path straight to the JSONL file.
    """
    base = pathlib.Path(run_dir)
    if base.is_file():
        return base
    direct = base / EVENTS_FILENAME
    if direct.exists():
        return direct
    nested = base / "obs" / EVENTS_FILENAME
    if nested.exists():
        return nested
    raise FileNotFoundError(
        f"no event stream under {base} (looked for {direct} and "
        f"{nested})")
