"""Compiled array form of the linear-pipeline Monte-Carlo loop.

:class:`CompiledStages` freezes a stage list into flat numpy arrays
(nominal delays, sensitization probabilities, each stage's mixer state
after its constant lanes) and evaluates the *data-independent* part of
the simulation — which nominal path each stage exercises and the
variability-scaled delay — for a whole block of cycles in a handful of
vector operations.

Delays are everything the scalar loop computes outside of capture
bookkeeping, and they are produced with the exact arithmetic of
:meth:`repro.pipeline.stage.PipelineStage.delay_ps`: one float64
multiply and one half-even rounding per (cycle, stage), on top of the
bit-identical mixer draws.  :func:`screen_block` marks the cycles that
could possibly capture anything but CLEAN.  The simulators' shared
screened walk feeds on these rows, fresh per block or sliced from
shared background rows: it bulk-accounts the clean runs and replays
only the other cycles through the scalar state machine — reusing the
same delay rows so the result is bit-equal to a fully scalar run.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.rng import (
    cycle_lanes,
    key_id,
    mix32,
    mix32_batch,
    split64,
    uniform01_batch,
)
from repro.kernels.schedule import WalkCounters
from repro.pipeline.stage import SENS_SALT

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.checking_period import CheckingPeriod
    from repro.pipeline.schemes import CapturePolicy
    from repro.pipeline.stage import PipelineStage
    from repro.variability.base import VariabilityModel

#: Walk counters of the pipeline simulator's screened walk.
WALK = WalkCounters("pipeline")


def screen_block(
    delays: "np.ndarray",
    period_ps: int,
    threshold_ps: int,
) -> "np.ndarray":
    """Per-cycle screen: which cycles could capture anything but CLEAN?

    ``delays`` is the ``(C, S)`` block from :meth:`CompiledStages.
    delay_block`; a cycle is *interesting* when any stage's idle-state
    lateness ``delay - period`` exceeds ``threshold_ps``.  The screen
    sees only fault-free delays: the walk forces fault cycles in.
    """
    return np.any(delays - period_ps > threshold_ps, axis=1)


class CompiledStages:
    """Flat-array view of a pipeline's stages for blocked evaluation."""

    def __init__(self, stages: "typing.Sequence[PipelineStage]") -> None:
        self.names = [stage.name for stage in stages]
        self.critical = np.array(
            [stage.critical_delay_ps for stage in stages], dtype=np.float64)
        self.typical = np.array(
            [stage.typical_delay_ps for stage in stages], dtype=np.float64)
        self.prob = np.array(
            [stage.sensitization_prob for stage in stages],
            dtype=np.float64)[None, :]
        lanes = [split64(stage.seed) for stage in stages]
        seed_lo = np.array([lo for lo, _ in lanes], dtype=np.uint32)
        seed_hi = np.array([hi for _, hi in lanes], dtype=np.uint32)
        keys = np.array([key_id(stage.name) for stage in stages],
                        dtype=np.uint32)
        #: ``(1, S)`` mixer state after each stage's constant lanes;
        #: lane order mirrors ``PipelineStage.sensitized`` exactly.
        self.sens_state = mix32_batch([seed_lo, seed_hi, keys],
                                      state=mix32(SENS_SALT))[None, :]

    @classmethod
    def for_stages(
        cls, stages: "typing.Sequence[PipelineStage]",
    ) -> "CompiledStages":
        """A compiled view for ``stages``, via the process warm cache.

        Compilation is a pure function of the stage parameters and the
        result is immutable, so identically parameterised pipelines —
        every task of a sweep grid point, across batches — share one
        compilation per worker instead of recompiling per task.
        """
        from repro.exec.cache import stable_key
        from repro.exec.worker import WARM

        key = stable_key("pipeline-stages", [
            (stage.name, stage.critical_delay_ps, stage.typical_delay_ps,
             stage.sensitization_prob, stage.seed)
            for stage in stages
        ])
        return WARM.get_or_build("compiled", key, lambda: cls(stages))

    def delay_block(
        self,
        cycles: "np.ndarray",
        variability: "VariabilityModel",
    ) -> "np.ndarray":
        """``(C, S)`` int64 stage delays, bit-equal to ``delay_ps``."""
        c_lo, c_hi = cycle_lanes(cycles)
        u = uniform01_batch(mix32_batch([c_lo[:, None], c_hi[:, None]],
                                        state=self.sens_state))
        nominal = np.where(u < self.prob, self.critical, self.typical)
        factor = variability.factor_batch(cycles, self.names)
        delays = np.rint(nominal * factor)
        return np.broadcast_to(delays.astype(np.int64),
                               (len(cycles), len(self.names)))


# ---------------------------------------------------------------------------
# Vectorized capture semantics (shared with the fault-lane batcher)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CaptureParams:
    """Flat parameters of one capture scheme, for array evaluation.

    The analytic counterpart of a :class:`~repro.pipeline.schemes.
    CapturePolicy` with the per-boundary state factored out: everything
    :func:`capture_block` needs to classify a whole array of latenesses
    with the exact element semantics of :mod:`repro.core.masking`.
    Only the schemes whose capture functions are pure in
    ``(lateness, select_in)`` compile — plain, both TIMBER elements,
    razor, canary, dcf and clock-stall.  :meth:`for_policy` returns
    ``None`` for anything else (logical masking depends on the
    boundary; soft-edge has no kind yet) and for subclasses, which may
    override ``capture``, so callers fall back to the scalar state
    machine.
    """

    kind: str
    interval_ps: int = 0
    num_intervals: int = 0
    num_tb: int = 0
    checking_ps: int = 0
    tb_ps: int = 0
    window_ps: int = 0
    guard_ps: int = 0
    resample_ps: int = 0
    consolidation_fits: bool = True

    @property
    def state_free(self) -> bool:
        """Does :func:`capture_block` never borrow time or relay a
        select under this scheme?  Then no capture depends on the cycle
        before it.  dcf borrows its resample delay; both TIMBER
        elements borrow, and timber-ff relays its select."""
        return self.kind in ("plain", "razor", "canary", "clock-stall")

    @classmethod
    def from_checking_period(cls, kind: str,
                             cp: "CheckingPeriod") -> "CaptureParams":
        """Params for the TIMBER schemes, from a checking period."""
        return cls(kind=kind, interval_ps=cp.interval_ps,
                   num_intervals=cp.num_intervals, num_tb=cp.num_tb,
                   checking_ps=cp.checking_ps, tb_ps=cp.tb_ps)

    @classmethod
    def for_policy(cls, policy: "CapturePolicy") -> "CaptureParams | None":
        from repro.pipeline.schemes import (
            CanaryPolicy,
            ClockStallPolicy,
            DcfPolicy,
            PlainPolicy,
            RazorPolicy,
            TimberFFPolicy,
            TimberLatchPolicy,
        )

        # Exact types only: a subclass may override ``capture`` with
        # semantics this block does not model.
        policy_type = type(policy)
        if policy_type is PlainPolicy:
            return cls(kind="plain")
        if policy_type is TimberFFPolicy:
            return cls.from_checking_period("timber-ff", policy.cp)
        if policy_type is TimberLatchPolicy:
            return cls.from_checking_period("timber-latch", policy.cp)
        if policy_type is RazorPolicy:
            return cls(kind="razor", window_ps=policy.window_ps)
        if policy_type is CanaryPolicy:
            return cls(kind="canary", guard_ps=policy.guard_ps)
        if policy_type is DcfPolicy:
            return cls(kind="dcf", window_ps=policy.detect_window_ps,
                       resample_ps=policy.resample_delay_ps)
        if policy_type is ClockStallPolicy:
            return cls(kind="clock-stall", window_ps=policy.window_ps,
                       consolidation_fits=policy.consolidation_fits)
        return None


@dataclasses.dataclass(frozen=True)
class CaptureArrays:
    """Per-element capture outcomes over an array of latenesses.

    The array projection of :class:`repro.core.masking.CaptureOutcome`;
    every field holds the same shape as the input lateness array.
    """

    masked: "np.ndarray"
    detected: "np.ndarray"
    predicted: "np.ndarray"
    flagged: "np.ndarray"
    failed: "np.ndarray"
    borrowed_ps: "np.ndarray"
    borrowed_intervals: "np.ndarray"

    @property
    def event(self) -> "np.ndarray":
        """The capture-observer condition: anything but CLEAN."""
        return (self.masked | self.detected | self.predicted
                | self.flagged | self.failed)


def capture_block(
    params: CaptureParams,
    lateness: "np.ndarray",
    select_in: "np.ndarray | None" = None,
) -> CaptureArrays:
    """Classify an array of latenesses under ``params``'s scheme.

    Element-for-element identical to the scalar capture functions in
    :mod:`repro.core.masking`; ``select_in`` is required for
    ``timber-ff`` (the relay input per element) and ignored elsewhere.
    """
    viol = lateness > 0
    false_ = np.zeros(lateness.shape, dtype=bool)
    zero = np.zeros(lateness.shape, dtype=np.int64)
    if params.kind == "plain":
        return CaptureArrays(masked=false_, detected=false_,
                             predicted=false_, flagged=false_,
                             failed=viol, borrowed_ps=zero,
                             borrowed_intervals=zero)
    if params.kind == "timber-ff":
        effective = np.minimum(select_in, params.num_intervals - 1)
        delta_ps = (effective + 1) * params.interval_ps
        masked = viol & (lateness <= delta_ps)
        intervals = np.where(masked, effective + 1, 0)
        return CaptureArrays(
            masked=masked, detected=false_, predicted=false_,
            flagged=masked & (intervals > params.num_tb),
            failed=viol & ~masked,
            borrowed_ps=np.where(masked, delta_ps, 0),
            borrowed_intervals=intervals)
    if params.kind == "timber-latch":
        masked = viol & (lateness <= params.checking_ps)
        failed = viol & ~masked
        return CaptureArrays(
            masked=masked, detected=false_, predicted=false_,
            flagged=(masked & (lateness > params.tb_ps)) | failed,
            failed=failed,
            borrowed_ps=np.where(masked, lateness, 0),
            borrowed_intervals=zero)
    if params.kind == "razor":
        detected = viol & (lateness <= params.window_ps)
        return CaptureArrays(
            masked=false_, detected=detected, predicted=false_,
            flagged=detected, failed=viol & ~detected,
            borrowed_ps=zero, borrowed_intervals=zero)
    if params.kind == "canary":
        predicted = ~viol & (lateness > -params.guard_ps)
        return CaptureArrays(
            masked=false_, detected=false_, predicted=predicted,
            flagged=predicted, failed=viol,
            borrowed_ps=zero, borrowed_intervals=zero)
    if params.kind == "dcf":
        masked = (viol & (lateness <= params.resample_ps)
                  & (lateness <= params.window_ps))
        return CaptureArrays(
            masked=masked, detected=false_, predicted=false_,
            flagged=false_, failed=viol & ~masked,
            borrowed_ps=np.where(masked, params.resample_ps, 0),
            borrowed_intervals=zero)
    if params.kind == "clock-stall":
        # In the window the stall detects and flags; it masks only when
        # consolidation fits the cycle, else the capture also fails.
        stalled = viol & (lateness <= params.window_ps)
        return CaptureArrays(
            masked=stalled if params.consolidation_fits else false_,
            detected=stalled, predicted=false_, flagged=stalled,
            failed=(viol & ~stalled if params.consolidation_fits
                    else viol),
            borrowed_ps=zero, borrowed_intervals=zero)
    raise ConfigurationError(
        f"no vectorized capture semantics for {params.kind!r}")
