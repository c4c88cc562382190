"""Cycle-accurate linear-pipeline timing simulation.

The simulation advances cycle by cycle.  On cycle ``n`` the data launched
at boundary ``i-1`` (possibly delayed by time borrowed there) traverses
stage ``i`` and is captured at boundary ``i``:

    ``lateness = borrow[i-1] + stage_delay(n) - period(n)``

The capture policy decides the outcome (clean / masked / detected /
predicted / failed), time borrowed at ``i`` becomes next cycle's launch
offset, flags feed the central error controller, and the controller's
temporary frequency reduction feeds back into ``period(n)`` — the full
TIMBER control loop of the paper's Sec. 4.

The scalar reference walks every cycle through
:meth:`PipelineSimulation._simulate_cycle`.  The vector path (default
when numpy is available; disable with ``REPRO_SCALAR_KERNELS=1``) is one
screened walk over blocks of cycles.  Each block's stage delays and
screen verdicts — which cycles could capture anything but CLEAN — are
either fresh (:class:`repro.kernels.pipeline.CompiledStages`) or sliced
from shared background rows.  The walk accounts the clean runs in bulk
and replays only the other cycles through the same scalar state machine
— with the precomputed delays, so both paths produce bit-identical
results.
"""

from __future__ import annotations

import bisect
import dataclasses

from repro import kernels, obs
from repro.core.masking import CaptureOutcome
from repro.errors import ConfigurationError, TimingViolationError
from repro.pipeline.controller import CentralErrorController
from repro.pipeline.hooks import CaptureObserver, FaultOverlayLike
from repro.pipeline.schemes import CapturePolicy
from repro.pipeline.stage import PipelineStage
from repro.variability.base import (
    ConstantVariation,
    VariabilityModel,
    supports_batch,
)

# Semantic outcome counters: incremented only in the shared scalar
# state machine, which both execution modes route every non-clean
# capture through — so scalar and vector runs agree bit-for-bit.
_OBS_OUTCOMES = obs.REGISTRY.counter(
    "repro_pipeline_outcomes_total",
    "Non-clean pipeline capture outcomes",
    labelnames=("outcome",))
_OBS_MASKED = _OBS_OUTCOMES.labels(outcome="masked")
_OBS_MASKED_FLAGGED = _OBS_OUTCOMES.labels(outcome="masked_flagged")
_OBS_DETECTED = _OBS_OUTCOMES.labels(outcome="detected")
_OBS_PREDICTED = _OBS_OUTCOMES.labels(outcome="predicted")
_OBS_FAILED = _OBS_OUTCOMES.labels(outcome="failed")


@dataclasses.dataclass
class PipelineResult:
    """Aggregated outcome of one pipeline simulation run."""

    scheme: str
    cycles: int
    period_ps: int
    clean: int = 0
    masked: int = 0
    masked_flagged: int = 0
    detected: int = 0
    predicted: int = 0
    failed: int = 0
    replay_cycles: int = 0
    slow_cycles: int = 0
    total_time_ps: int = 0
    max_borrow_ps: int = 0
    borrow_chain_max: int = 0

    @property
    def captures(self) -> int:
        return (self.clean + self.masked + self.detected + self.predicted
                + self.failed)

    @property
    def error_rate(self) -> float:
        """Violations (masked + detected + failed) per capture."""
        if self.captures == 0:
            return 0.0
        return (self.masked + self.detected + self.failed) / self.captures

    @property
    def nominal_time_ps(self) -> int:
        return self.cycles * self.period_ps

    @property
    def throughput_factor(self) -> float:
        """Achieved throughput relative to an error-free nominal run.

        1.0 means no cycles or time were lost to recovery or slowdown."""
        if self.total_time_ps == 0:
            return 1.0
        return self.nominal_time_ps / self.total_time_ps

    @property
    def ipc_loss_percent(self) -> float:
        return 100.0 * (1.0 - self.throughput_factor)


class PipelineSimulation:
    """A linear pipeline with one capture policy at every boundary."""

    def __init__(
        self,
        stages: list[PipelineStage],
        policy: CapturePolicy,
        *,
        period_ps: int,
        controller: CentralErrorController | None = None,
        variability: VariabilityModel | None = None,
        fail_fast: bool = False,
        faults: "FaultOverlayLike | None" = None,
        capture_observer: "CaptureObserver | None" = None,
    ) -> None:
        if not stages:
            raise ConfigurationError("need at least one stage")
        if policy.num_boundaries != len(stages):
            raise ConfigurationError(
                f"policy covers {policy.num_boundaries} boundaries but the "
                f"pipeline has {len(stages)} stages"
            )
        if period_ps <= 0:
            raise ConfigurationError("period must be > 0")
        self.stages = stages
        self.policy = policy
        self.period_ps = period_ps
        self.controller = controller
        self.variability = variability or ConstantVariation(1.0)
        self.fail_fast = fail_fast
        #: Optional fault overlay adding extra delay on selected
        #: (cycle, stage) pairs; keys are stage names.
        self.faults = faults
        #: Optional callback invoked for every non-clean capture as
        #: ``observer(cycle, boundary_index, outcome, lateness_ps)``.
        #: Clean captures never fire it, so the event stream is
        #: identical between the scalar and vector paths (bulk-skipped
        #: cycles are provably clean).
        self.capture_observer = capture_observer
        #: Launch offset (time borrowed) at each boundary, carried across
        #: cycles: boundary i's borrow delays the data it launches into
        #: stage i+1 next cycle.
        self._borrow = [0] * len(stages)
        self._compiled = None

    def run(self, num_cycles: int, *, start_cycle: int = 0,
            rows=None) -> PipelineResult:
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
        result = PipelineResult(
            scheme=self.policy.name, cycles=num_cycles - start_cycle,
            period_ps=self.period_ps,
        )
        with obs.trace_span("pipeline.run", scheme=self.policy.name,
                            cycles=num_cycles - start_cycle,
                            kernel=kernels.kernel_mode()):
            if kernels.vectorized_enabled() and self._vectorizable():
                self._run_screened(start_cycle, num_cycles, result, rows)
            else:
                chain = 0
                for cycle in range(start_cycle, num_cycles):
                    chain = self._simulate_cycle(cycle, result, chain,
                                                 None)
        result.total_time_ps += result.replay_cycles * self.period_ps
        return result

    def background_rows(self, num_cycles: int):
        """Precomputed fault-free delay rows + screen for forked runs.

        ``(delays, interesting)`` over ``[0, num_cycles)``: the
        concatenation of :meth:`_block` over ``MAX_BLOCK`` spans.  The
        overlay is deliberately excluded — forked runs force their own
        fault cycles into each block's replay points.
        """
        from repro.kernels.schedule import stitch_rows

        return stitch_rows(self._block, num_cycles)

    # -- snapshot/fork ---------------------------------------------------
    def snapshot(self):
        """Opaque snapshot of all state carried between cycles.

        Stage delays and variability factors are pure functions of the
        absolute cycle number (counter-based RNG), so the only mutable
        inter-cycle state is the borrow vector and the policy's relay
        machine.  Controller-attached simulations are rejected: the
        controller accumulates slowdown windows that a snapshot does
        not capture.
        """
        if self.controller is not None:
            raise ConfigurationError(
                "snapshots do not cover central-controller state")
        return (tuple(self._borrow), self.policy.relay_state())

    def restore(self, state) -> None:
        """Install a state previously returned by :meth:`snapshot`."""
        if self.controller is not None:
            raise ConfigurationError(
                "snapshots do not cover central-controller state")
        borrow, relay = state
        if len(borrow) != len(self.stages):
            raise ConfigurationError(
                f"snapshot covers {len(borrow)} boundaries but the "
                f"pipeline has {len(self.stages)} stages")
        self._borrow = list(borrow)
        self.policy.restore_relay_state(relay)

    def _vectorizable(self) -> bool:
        """Can this configuration run on the block kernel?

        The vector path precomputes a whole block of stage delays and
        accounts clean runs through the controller's slowdown windows,
        so it needs batch-capable variability and (when a controller is
        attached) the ``CentralErrorController`` window interface.
        Duck-typed feedback controllers — e.g. the adaptive voltage
        scaler, whose delay factor depends on flags raised earlier in
        the block — must take the scalar loop.
        """
        if not supports_batch(self.variability):
            return False
        return self.controller is None or (
            hasattr(self.controller, "slowdown_factor")
            and hasattr(self.controller, "windows"))

    # -- shared per-cycle state machine ---------------------------------
    def _period_at(self, cycle: int) -> int:
        if self.controller is None:
            return self.period_ps
        return self.controller.period_at(cycle)

    def _simulate_cycle(
        self,
        cycle: int,
        result: PipelineResult,
        chain_length: int,
        delay_row,
    ) -> int:
        """One cycle of capture/borrow/relay bookkeeping.

        ``delay_row`` optionally supplies precomputed per-stage delays
        (from the vector kernel); ``None`` computes them per stage.
        Returns the updated borrow-chain length.
        """
        period = self._period_at(cycle)
        if period > self.period_ps:
            result.slow_cycles += 1
        outcomes: list[CaptureOutcome] = []
        new_borrow = [0] * len(self.stages)
        cycle_flagged = False
        cycle_masked = False
        for index, stage in enumerate(self.stages):
            upstream = (index - 1) % len(self.stages)
            delay = (int(delay_row[index]) if delay_row is not None
                     else stage.delay_ps(cycle, self.variability))
            if self.faults is not None:
                # The overlay rides on top of the base delay in both
                # execution modes: the vector kernel precomputes only
                # the fault-free rows and forces overlay-active cycles
                # onto this scalar replay, so adding the extra here
                # keeps the two paths bit-identical.
                delay += self.faults.extra_delay_ps(cycle, stage.name)
            lateness = self._borrow[upstream] + delay - period
            outcome = self.policy.capture(index, lateness)
            outcomes.append(outcome)
            self._account(result, outcome)
            if self.capture_observer is not None and (
                    outcome.masked or outcome.detected
                    or outcome.predicted or outcome.flagged
                    or outcome.failed):
                self.capture_observer(cycle, index, outcome, lateness)
            if outcome.masked:
                cycle_masked = True
                new_borrow[index] = outcome.borrowed_ps
                result.max_borrow_ps = max(result.max_borrow_ps,
                                           outcome.borrowed_ps)
            if outcome.flagged:
                cycle_flagged = True
            if outcome.failed and self.fail_fast:
                raise TimingViolationError(
                    f"unmaskable violation at boundary {index} "
                    f"(stage {stage.name!r}) on cycle {cycle}: "
                    f"lateness {lateness} ps"
                )
            if outcome.detected:
                result.replay_cycles += self.policy.replay_penalty_cycles
        chain_length = chain_length + 1 if cycle_masked else 0
        result.borrow_chain_max = max(result.borrow_chain_max,
                                      chain_length)
        if cycle_flagged and self.controller is not None:
            self.controller.notify_flag(cycle)
        self.policy.end_of_cycle(outcomes)
        self._borrow = new_borrow
        result.total_time_ps += period
        return chain_length

    # -- screened walk ---------------------------------------------------
    def _idle(self) -> bool:
        """No carried state: every lateness equals delay - period."""
        return not any(self._borrow) and self.policy.relay_idle()

    def _block(self, pos: int, count: int):
        """Fault-free ``(delays, interesting)`` for ``count`` cycles.

        Screened against the *nominal* period: slowdown windows only
        lengthen the period, so this marks a superset of the cycles
        that could capture anything but CLEAN while idle.
        """
        import numpy as np

        from repro.kernels.pipeline import CompiledStages, screen_block

        if self._compiled is None:
            self._compiled = CompiledStages.for_stages(self.stages)
        delays = self._compiled.delay_block(
            np.arange(pos, pos + count, dtype=np.int64), self.variability)
        return delays, screen_block(
            delays, self.period_ps,
            self.policy.clean_lateness_threshold_ps())

    def _run_screened(self, start: int, stop: int, result: PipelineResult,
                      rows) -> None:
        """The screened block walk over cycles ``[start, stop)``.

        Each block's rows are sliced from the caller's shared ``rows``
        (see :meth:`background_rows`) or evaluated by :meth:`_block`.
        While the machine is idle, the walk retires the clean run up to
        the next replay point in bulk; every other cycle replays through
        :meth:`_simulate_cycle` with its precomputed delay row.
        """
        from repro.kernels.pipeline import WALK
        from repro.kernels.schedule import (
            BlockSizer,
            block_spans,
            replay_points,
            slow_cycles_between,
        )

        num_stages = len(self.stages)
        controller = self.controller
        slow_period = (
            int(round(self.period_ps * controller.slowdown_factor))
            if controller is not None else self.period_ps)
        sizer = BlockSizer()
        chain = 0
        for pos, count in block_spans(start, stop, sizer):
            if rows is None:
                delays, interesting = self._block(pos, count)
            else:
                delays, interesting = (column[pos:pos + count]
                                       for column in rows)
            points = replay_points(interesting, pos, self.faults)
            point = replayed = k = 0
            while k < count:
                if self._idle():
                    point = bisect.bisect_left(points, k, point)
                    nxt = points[point] if point < len(points) else count
                    if nxt > k:
                        clean = nxt - k
                        slow = (slow_cycles_between(controller.windows,
                                                    pos + k, pos + nxt)
                                if controller is not None else 0)
                        result.slow_cycles += slow
                        result.clean += clean * num_stages
                        result.total_time_ps += (
                            (clean - slow) * self.period_ps
                            + slow * slow_period)
                        chain = 0
                        k = nxt
                        if k >= count:
                            break
                chain = self._simulate_cycle(pos + k, result, chain,
                                             delays[k])
                replayed += 1
                k += 1
            WALK.block(count, len(points), replayed)
            # Size on the cycles actually replayed: carryover replays
            # escape the screen, and an error storm that degrades to
            # scalar stepping should shrink the blocks.
            sizer.update(replayed / count)

    @staticmethod
    def _account(result: PipelineResult, outcome: CaptureOutcome) -> None:
        if outcome.failed:
            result.failed += 1
            _OBS_FAILED.inc()
        elif outcome.masked:
            result.masked += 1
            _OBS_MASKED.inc()
            if outcome.flagged:
                result.masked_flagged += 1
                _OBS_MASKED_FLAGGED.inc()
        elif outcome.detected:
            result.detected += 1
            _OBS_DETECTED.inc()
        elif outcome.predicted:
            result.predicted += 1
            _OBS_PREDICTED.inc()
        else:
            result.clean += 1
