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
when numpy is available; disable with ``REPRO_SCALAR_KERNELS=1``) is the
screened walk shared with the graph simulator
(:class:`~repro.pipeline.hooks.CycleSimulation`).  Each block's stage
delays and screen verdicts — which cycles could capture anything but
CLEAN — are either fresh (:class:`repro.kernels.pipeline.CompiledStages`)
or sliced from shared background rows.  The walk accounts the clean runs
in bulk and replays only the other cycles through the same scalar state
machine — with the precomputed delays, so both paths produce
bit-identical results.
"""

from __future__ import annotations

import dataclasses

from repro import obs
from repro.core.masking import CaptureOutcome
from repro.errors import ConfigurationError, TimingViolationError
from repro.pipeline.controller import CentralErrorController
from repro.pipeline.hooks import (
    CaptureObserver,
    CycleSimulation,
    FaultOverlayLike,
)
from repro.pipeline.schemes import CapturePolicy
from repro.pipeline.stage import PipelineStage
from repro.variability.base import ConstantVariation, VariabilityModel

# Semantic outcome counters: incremented only in the shared scalar
# state machine, which both execution modes route every non-clean
# capture through — so scalar and vector runs agree bit-for-bit.  The
# fault-lane machine (:mod:`repro.kernels.fault_batch`) bumps the same
# bound series.
OBS_OUTCOMES = obs.REGISTRY.family("repro_pipeline_outcomes_total")
OBS_MASKED = OBS_OUTCOMES.labels(outcome="masked")
OBS_MASKED_FLAGGED = OBS_OUTCOMES.labels(outcome="masked_flagged")
OBS_DETECTED = OBS_OUTCOMES.labels(outcome="detected")
OBS_PREDICTED = OBS_OUTCOMES.labels(outcome="predicted")
OBS_FAILED = OBS_OUTCOMES.labels(outcome="failed")


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


class PipelineSimulation(CycleSimulation[PipelineResult]):
    """A linear pipeline with one capture policy at every boundary.

    Borrow and relay state carry across runs, a full run from cycle 0
    included; only the borrow-chain count starts afresh with each run.
    """

    SPAN = "pipeline.run"

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
        #: Consecutive masked cycles so far in the current run.
        self._chain = 0
        self._compiled = None

    # -- run hooks -------------------------------------------------------
    def _start_run(self, start_cycle: int) -> None:
        self._chain = 0

    def _new_result(self, cycles: int) -> PipelineResult:
        return PipelineResult(scheme=self.policy.name, cycles=cycles,
                              period_ps=self.period_ps)

    def _finish(self, result: PipelineResult) -> None:
        result.total_time_ps += result.replay_cycles * self.period_ps

    def _state(self):
        return (tuple(self._borrow), self.policy.relay_state())

    def _install(self, state) -> None:
        borrow, relay = state
        if len(borrow) != len(self.stages):
            raise ConfigurationError(
                f"snapshot covers {len(borrow)} boundaries but the "
                f"pipeline has {len(self.stages)} stages")
        self._borrow = list(borrow)
        self.policy.restore_relay_state(relay)

    # -- per-cycle state machine -----------------------------------------
    def _simulate_cycle(self, cycle: int, result: PipelineResult,
                        block=None, k: int = 0) -> None:
        """One cycle of capture/borrow/relay bookkeeping.

        ``block`` optionally supplies the vector kernel's
        :meth:`_block`, whose row ``k`` holds this cycle's per-stage
        delays; ``None`` computes them per stage.
        """
        delay_row = None if block is None else block[0][k]
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
        self._chain = self._chain + 1 if cycle_masked else 0
        result.borrow_chain_max = max(result.borrow_chain_max, self._chain)
        if cycle_flagged and self.controller is not None:
            self.controller.notify_flag(cycle)
        self.policy.end_of_cycle(outcomes)
        self._borrow = new_borrow
        result.total_time_ps += period

    # -- screened walk hooks ---------------------------------------------
    def _idle(self) -> bool:
        """No carried state: every lateness equals delay - period."""
        return not any(self._borrow) and self.policy.relay_idle()

    def _retire_clean(self, result: PipelineResult, clean: int,
                      slow: int) -> None:
        result.clean += clean * len(self.stages)
        result.total_time_ps += clean * self.period_ps
        if slow:
            slow_period = int(round(self.period_ps
                                    * self.controller.slowdown_factor))
            result.total_time_ps += slow * (slow_period - self.period_ps)
        self._chain = 0

    @property
    def _walk(self):
        from repro.kernels.pipeline import WALK

        return WALK

    def _block(self, pos: int, count: int):
        """Fault-free ``(delays, interesting)`` for ``count`` cycles.

        ``interesting`` is :meth:`_screen` at the *nominal* period:
        slowdown windows only lengthen the period, so it marks a
        superset of the cycles that could capture anything but CLEAN
        while idle.  The walk screens the hits inside a slowdown window
        again at the slowed period.
        """
        import numpy as np

        from repro.kernels.pipeline import CompiledStages

        if self._compiled is None:
            self._compiled = CompiledStages.for_stages(self.stages)
        delays = self._compiled.delay_block(
            np.arange(pos, pos + count, dtype=np.int64), self.variability)
        return delays, self._screen((delays,), self.period_ps)

    def _screen(self, rows, period_ps: int):
        """Cycles of ``rows`` that could capture anything but CLEAN
        from an idle state at ``period_ps``."""
        from repro.kernels.pipeline import screen_block

        (delays,) = rows
        return screen_block(delays, period_ps,
                            self.policy.clean_lateness_threshold_ps())

    @staticmethod
    def _account(result: PipelineResult, outcome: CaptureOutcome) -> None:
        if outcome.failed:
            result.failed += 1
            OBS_FAILED.inc()
        elif outcome.masked:
            result.masked += 1
            OBS_MASKED.inc()
            if outcome.flagged:
                result.masked_flagged += 1
                OBS_MASKED_FLAGGED.inc()
        elif outcome.detected:
            result.detected += 1
            OBS_DETECTED.inc()
        elif outcome.predicted:
            result.predicted += 1
            OBS_PREDICTED.inc()
        else:
            result.clean += 1
