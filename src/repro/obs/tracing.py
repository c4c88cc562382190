"""Span tracing: nested, monotonic-clocked spans with cheap no-ops.

A *span* covers one timed region (``sweep.run``, ``pipeline.run``,
``campaign.chunk``, ...).  Spans nest through a per-tracer stack, so a
span opened while another is active records it as its parent; the
resulting tree is what the Chrome trace-event export and the terminal
flame summary render.

Span identifiers are small sequential integers (deterministic given the
same call sequence); the only non-deterministic fields are the
``start_ns``/``end_ns`` monotonic timestamps, which is why byte-identity
checks over observability output compare the metrics registry, never
spans (see the determinism contract in DESIGN.md).

Monotonic timestamps are meaningless *across* processes — each worker's
``perf_counter_ns`` has its own arbitrary origin, so merged traces used
to mis-align by however far apart those origins sat.  Every tracer
therefore records a per-process **wall-clock anchor** at construction
(``time.time_ns() - time.perf_counter_ns()``) and attaches it to every
exported record as ``anchor_ns``; ``start_ns + anchor_ns`` is an
absolute wall-clock nanosecond, which is what the Chrome trace export
aligns on when every record carries an anchor.

When tracing is disabled, :meth:`Tracer.span` returns one shared no-op
context manager — no span object, list append, or timestamp read
happens.  (The caller's ``**attrs`` dict is the only allocation, which
is why hot per-cycle loops use counters, not spans.)
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import typing


@dataclasses.dataclass
class Span:
    """One finished (or in-flight) timed region."""

    span_id: int
    parent_id: int  #: 0 = root (no enclosing span).
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = dataclasses.field(default_factory=dict)

    def to_record(self, anchor_ns: int | None = None) -> dict:
        """JSON-able projection (the JSONL line format).

        ``anchor_ns`` is the owning tracer's wall-clock anchor; when
        given, it rides along so multi-process exports can place this
        span on an absolute timeline.
        """
        record = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": self.attrs,
            "pid": os.getpid(),
        }
        if anchor_ns is not None:
            record["anchor_ns"] = anchor_ns
        return record


class _NoopSpan:
    """Shared do-nothing span: returned whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: typing.Any) -> bool:
        return False

    def set(self, **attrs: typing.Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager recording one real span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Span | None = None

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        parent = tracer._stack[-1].span_id if tracer._stack else 0
        self.span = Span(
            span_id=tracer._next_id,
            parent_id=parent,
            name=self._name,
            start_ns=time.perf_counter_ns(),
            attrs=self._attrs,
        )
        tracer._next_id += 1
        tracer._stack.append(self.span)
        return self

    def __exit__(self, *exc_info: typing.Any) -> bool:
        span = self.span
        assert span is not None
        span.end_ns = time.perf_counter_ns()
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] is span:
            tracer._stack.pop()
        tracer.spans.append(span)
        return False

    def set(self, **attrs: typing.Any) -> None:
        """Attach attributes to the span after it opened."""
        if self.span is not None:
            self.span.attrs.update(attrs)
        else:
            self._attrs.update(attrs)


class Tracer:
    """Collects finished spans for one process."""

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        #: Wall-clock anchor: ``start_ns + wall_anchor_ns`` is an
        #: absolute ``time.time_ns()`` instant.  Captured once per
        #: process so records exported from different workers share a
        #: timeline (back-to-back reads; the sub-microsecond skew
        #: between them is far below scheduling noise).
        self.wall_anchor_ns = time.time_ns() - time.perf_counter_ns()
        #: Records shipped home from worker processes (already dicts).
        #: Span ids may repeat across processes; the ``pid`` field keeps
        #: them distinct in every export.
        self.foreign: list[dict] = []

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._next_id = 1
        self.foreign = []

    def add_records(self, records: typing.Iterable[dict]) -> None:
        """Adopt span records produced in another process."""
        self.foreign.extend(records)

    def span(self, name: str, **attrs: typing.Any):
        """A context manager timing one region (no-op when disabled)."""
        if not self._enabled:
            return NOOP_SPAN
        return _ActiveSpan(self, name, attrs)

    # -- export ------------------------------------------------------------
    def records(self) -> list[dict]:
        """Finished spans as JSON-able records, in completion order.

        Foreign (worker-shipped) records follow the local ones; they
        already carry their own process's ``anchor_ns``."""
        return ([span.to_record(self.wall_anchor_ns)
                 for span in self.spans] + list(self.foreign))

    def write_jsonl(self, path: str | os.PathLike) -> None:
        """Write one JSON record per finished span to ``path``."""
        import pathlib

        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            for record in self.records():
                handle.write(json.dumps(record, sort_keys=True,
                                        default=str) + "\n")
