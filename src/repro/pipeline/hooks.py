"""Shared hook protocols for the cycle-level simulators.

Fault campaigns attach to :class:`~repro.pipeline.pipeline.
PipelineSimulation` and :class:`~repro.pipeline.graph_sim.
GraphPipelineSimulation` through two narrow interfaces:

* a **fault overlay** adds extra delay on selected (cycle, site) pairs
  — sites are stage names in the linear pipeline and destination
  flip-flop names in the graph simulator — and answers one range query,
  the cycles of a window that carry an active fault, so the simulators'
  screened walk can force those cycles onto the scalar replay (its
  screen sees only the fault-free rows);
* a **capture observer** receives every *non-clean* capture outcome.
  Clean captures never fire it: the vector path bulk-skips provably
  clean cycles, so restricting the stream to violations keeps it
  bit-identical between the scalar and kernel executions.

Both are duck-typed so the campaign layer (or tests) can supply plain
objects without importing simulator internals.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.masking import CaptureOutcome

#: ``observer(cycle, site, outcome, lateness_ps)`` — ``site`` is a
#: boundary index (linear pipeline) or flip-flop name (graph).
CaptureObserver = typing.Callable[
    [int, typing.Any, "CaptureOutcome", int], None]


class FaultOverlayLike(typing.Protocol):
    """Extra-delay overlay consulted by the simulators each cycle."""

    def extra_delay_ps(self, cycle: int, key: str) -> int:
        """Extra delay injected at ``key`` on ``cycle`` (0 = none)."""
        ...  # pragma: no cover - protocol

    def active_cycles_between(self, start: int, stop: int) -> list[int]:
        """Sorted cycles of ``[start, stop)`` with any active fault."""
        ...  # pragma: no cover - protocol
