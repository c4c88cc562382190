"""Shared contracts and skeleton of the cycle-level simulators.

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

Both simulators derive from :class:`CycleSimulation`, which owns what
they share: the :meth:`~CycleSimulation.run` loop, the snapshot guard,
the controller period and the choice between the scalar loop and the
one screened walk (:func:`repro.kernels.schedule.screened_walk`).
"""

from __future__ import annotations

import typing

from repro import kernels, obs
from repro.errors import ConfigurationError
from repro.kernels.schedule import screened_walk, stitch_rows
from repro.variability.base import supports_batch

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.masking import CaptureOutcome
    from repro.pipeline.controller import CentralErrorController
    from repro.variability.base import VariabilityModel

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


ResultT = typing.TypeVar("ResultT")


class CycleSimulation(typing.Generic[ResultT]):
    """The run loop both cycle simulators share.

    A subclass keeps only what belongs to its target:

    * ``_simulate_cycle(cycle, result, block=None, k=0)`` — one cycle
      of its capture/borrow/relay state machine, the scalar reference.
      The scalar loop passes no ``block`` (the cycle draws its own
      delays); the screened walk passes the cycle's block of
      precomputed rows and its index ``k`` in it, so both paths are
      bit-identical;
    * ``_block(pos, count)`` — fault-free ``(*rows, interesting)``
      columns for a block of cycles, and ``_walk``, its walk counters;
    * ``_screen(rows, period_ps)`` — which cycles of those rows could
      capture anything but CLEAN from an idle state at ``period_ps``.
      ``_block`` builds ``interesting`` with it at the nominal period;
      the walk calls it again at a slowdown window's period;
    * ``_idle()`` — no borrow or relay state carried, so every capture
      of a screen-clean cycle is clean — and ``_retire_clean``, its
      bulk accounting of such a run;
    * ``_state()`` / ``_install(state)`` — the carried state a
      snapshot holds;
    * ``_start_run``, ``_new_result`` and ``_finish`` — state set-up,
      result type and post-run fix-up.
    """

    #: Trace span of :meth:`run`.
    SPAN: typing.ClassVar[str]
    #: Nominal clock period.
    period_ps: int
    controller: "CentralErrorController | None"
    variability: "VariabilityModel"
    faults: "FaultOverlayLike | None"

    def run(self, num_cycles: int, *, start_cycle: int = 0,
            rows=None) -> ResultT:
        """Simulate cycles ``[start_cycle, num_cycles)`` and aggregate.

        ``start_cycle`` resumes the cycle counter mid-trajectory — the
        counter-based RNG addresses every draw by absolute cycle, so a
        run forked from a :meth:`snapshot` taken at ``start_cycle``
        produces captures bit-identical to the same window of a full
        run from cycle 0.  The result's aggregates cover only the
        simulated window.

        ``rows`` optionally supplies precomputed background rows from
        :meth:`background_rows`, which the screened walk slices instead
        of evaluating its blocks, so repeated forked windows share one
        evaluation; ignored in scalar-kernel mode (the scalar reference
        stays the plain per-cycle loop).
        """
        if num_cycles < 1:
            raise ConfigurationError("need at least one cycle")
        if not 0 <= start_cycle < num_cycles:
            raise ConfigurationError(
                f"start_cycle {start_cycle} outside [0, {num_cycles})")
        if (start_cycle or rows is not None) and self.controller is not None:
            raise ConfigurationError(
                "windowed runs do not support a central controller "
                "(its window state is not part of the snapshot)")
        self._start_run(start_cycle)
        result = self._new_result(num_cycles - start_cycle)
        with obs.trace_span(self.SPAN, scheme=result.scheme,
                            cycles=result.cycles,
                            kernel=kernels.kernel_mode()):
            if kernels.vectorized_enabled() and self._vectorizable():
                screened_walk(self, start_cycle, num_cycles, result, rows)
            else:
                for cycle in range(start_cycle, num_cycles):
                    self._simulate_cycle(cycle, result)
        self._finish(result)
        return result

    def background_rows(self, num_cycles: int):
        """Precomputed fault-free block rows for forked runs.

        The columns of :meth:`_block` over ``[0, num_cycles)``, built
        from ``MAX_BLOCK`` spans.  The overlay is deliberately excluded
        — forked runs force their own fault cycles into each block's
        replay points.
        """
        return stitch_rows(self._block, num_cycles)

    # -- snapshot/fork ---------------------------------------------------
    def snapshot(self):
        """Opaque snapshot of all state carried between cycles.

        Every draw is a pure function of the absolute cycle number, so
        the only mutable inter-cycle state is the target's borrow and
        relay state.  Controller-attached simulations are rejected: the
        controller accumulates slowdown windows that a snapshot does
        not capture.
        """
        if self.controller is not None:
            raise ConfigurationError(
                "snapshots do not cover central-controller state")
        return self._state()

    def restore(self, state) -> None:
        """Install a state previously returned by :meth:`snapshot`."""
        if self.controller is not None:
            raise ConfigurationError(
                "snapshots do not cover central-controller state")
        self._install(state)

    def _vectorizable(self) -> bool:
        """Can this configuration run on the screened walk?

        The walk precomputes whole blocks of draws and accounts clean
        runs through the controller's slowdown windows, so it needs
        batch-capable variability and (when a controller is attached)
        the ``CentralErrorController`` window interface.  Duck-typed
        feedback controllers — e.g. the adaptive voltage scaler, whose
        delay factor depends on flags raised earlier in the block —
        must take the scalar loop.
        """
        if not supports_batch(self.variability):
            return False
        return self.controller is None or (
            hasattr(self.controller, "slowdown_factor")
            and hasattr(self.controller, "windows"))

    def _period_at(self, cycle: int) -> int:
        if self.controller is None:
            return self.period_ps
        return self.controller.period_at(cycle)

    # -- target hooks ----------------------------------------------------
    def _retire_clean(self, result: ResultT, clean: int, slow: int) -> None:
        """Account ``clean`` bulk-skipped idle cycles, ``slow`` of them
        slowed by the controller (the walk already counted those)."""

