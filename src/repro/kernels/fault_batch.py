"""Fault-lane batched window evaluation for snapshot-forked campaigns.

Snapshot forking (:mod:`repro.campaign.trajectory`) made each fault's
cost O(window); this module removes the remaining per-fault Python
walk.  Faults that share a fork window are near-identical perturbations
of one shared fault-free background, so a whole group is evaluated as
**one numpy batch with a lane axis**: per-lane ``(lanes, window_cycles,
columns)`` disturbance deltas ride on top of the shared background
rows, and a vectorized borrow/select/relay state machine — the array
form of the simulators' ``_simulate_cycle`` — advances every lane per
cycle step.

The batch is only entered when its equivalence to the per-fault forked
path is *provable*:

* the group's fork snapshot must be idle (zero borrow, zero relay
  selects) and the background screen must show no interesting cycle
  between the fork start and a lane's injection cycle — then the lane
  enters its window with exactly zero carried state, and the forked
  run's prefix contributes no events and no semantic counter
  increments;
* a lane's window must fit :data:`MAX_LANE_WINDOW` steps.

Lanes (or whole groups) that fail these checks drop to the existing
per-fault forked path, which is preserved as the executable spec — the
same screen-plus-scalar-replay discipline the cycle kernels use, now
applied along the fault dimension.  Inside the batch, every semantic
counter increment the scalar state machine would have made is
reproduced exactly (bulk ``inc`` per outcome class, per-event relay
depth observations), so :func:`repro.obs.semantic_snapshot` stays
bit-identical across evaluation paths.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro import obs
from repro.campaign.outcomes import (
    BENIGN,
    ESCAPED,
    FALSE_POSITIVE,
    MASKED_ED,
    MASKED_TB,
    RELAYED,
)

#: :func:`repro.campaign.outcomes.classify_flags`'s precedence ladder
#: as an indexable tuple — ``np.select`` resolves each lane to its
#: severity index, this maps the index back to the taxonomy class.
_LADDER = (ESCAPED, RELAYED, MASKED_ED, MASKED_TB, FALSE_POSITIVE,
           BENIGN)
from repro.kernels.graph import CompiledTopology
from repro.kernels.pipeline import CaptureParams, capture_block

#: Longest fork window (in cycles from the injection cycle to the
#: window end, inclusive) a lane may occupy in a batch.  Longer windows
#: — pathological relay horizons — replay through the forked path; the
#: batch buffers stay small and dense.
MAX_LANE_WINDOW = 64

#: Most lanes one :meth:`evaluate` call advances.  A campaign chunk
#: evaluated for a whole dispatch batch can hold thousands of lanes;
#: the evaluator feeds them through in slices of this size, which keeps
#: the ``(lanes, window, columns)`` buffers — and so peak memory —
#: bounded while amortizing the per-call numpy overhead.
MAX_BATCH_LANES = 256

#: Sentinel for "no evaluated arrival" lateness cells; large enough to
#: never win a max against a real lateness, small enough that adding a
#: borrow offset cannot overflow int64.
_BIG_NEG = -(2 ** 60)

# Lane-path internals (``repro_kernel_`` namespace: zero on scalar
# runs, excluded from cross-mode byte-identity checks).  ``batched``
# lanes went through the vectorized lane machine; ``replayed`` lanes
# dropped to the per-fault forked path (divergent window, noisy
# background, or non-idle fork state).
_OBS_LANES = obs.REGISTRY.counter(
    "repro_kernel_fault_lanes_total",
    "Campaign fault lanes by evaluation path",
    labelnames=("kernel", "path"))
_OBS_GROUP = obs.REGISTRY.histogram(
    "repro_kernel_lane_group_faults",
    "Fault lanes evaluated together per batched fork-window group",
    labelnames=("kernel",),
    buckets=(1, 2, 4, 8, 16, 32, 64))

# Semantic simulator counters, re-obtained from the registry (family
# registration is idempotent) so the lane machines can reproduce the
# exact increments the scalar state machine would have made.
_PIPE_OUTCOMES = obs.REGISTRY.counter(
    "repro_pipeline_outcomes_total",
    "Non-clean pipeline capture outcomes",
    labelnames=("outcome",))
_PIPE_MASKED = _PIPE_OUTCOMES.labels(outcome="masked")
_PIPE_MASKED_FLAGGED = _PIPE_OUTCOMES.labels(outcome="masked_flagged")
_PIPE_DETECTED = _PIPE_OUTCOMES.labels(outcome="detected")
_PIPE_PREDICTED = _PIPE_OUTCOMES.labels(outcome="predicted")
_PIPE_FAILED = _PIPE_OUTCOMES.labels(outcome="failed")
_GRAPH_MASKED = obs.REGISTRY.counter(
    "repro_graph_masked_total",
    "Masked graph captures by checking-period interval class",
    labelnames=("interval",))
_GRAPH_MASKED_TB = _GRAPH_MASKED.labels(interval="tb")
_GRAPH_MASKED_ED = _GRAPH_MASKED.labels(interval="ed")
_GRAPH_RELAYED = obs.REGISTRY.counter(
    "repro_graph_relayed_total",
    "Masked captures whose >=2-interval borrow proves an upstream "
    "relay increment").labels()
_GRAPH_ESCAPED = obs.REGISTRY.counter(
    "repro_graph_escaped_total",
    "Failed (unmasked) graph captures",
    labelnames=("protected",))
_GRAPH_ESCAPED_PROT = _GRAPH_ESCAPED.labels(protected="yes")
_GRAPH_ESCAPED_UNPROT = _GRAPH_ESCAPED.labels(protected="no")
_GRAPH_RELAY_DEPTH = obs.REGISTRY.histogram(
    "repro_graph_relay_depth_intervals",
    "Borrowed intervals per masked capture (select-chain depth)",
    buckets=(1, 2, 3, 4, 6, 8)).labels()


@dataclasses.dataclass(frozen=True)
class Lane:
    """One fault's window, as the lane machines consume it.

    ``cycle`` is the absolute injection cycle (the window start),
    ``steps`` the window length in cycles (``window_end - cycle + 1``),
    ``duration`` the leading fault-active cycles, and ``cols`` the
    perturbed column indices (stage or candidate-destination indices,
    per target).
    """

    cycle: int
    steps: int
    duration: int
    magnitude_ps: int
    cols: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class LaneOutcome:
    """Per-lane aggregation, mirroring ``outcome_from_events``."""

    classification: str
    events: int
    worst_lateness_ps: int
    max_borrowed_intervals: int


def _window_cycles(lanes: "typing.Sequence[Lane]", width: int,
                   num_rows: int) -> "np.ndarray":
    """``(L, W)`` absolute cycle index per lane step, clipped to the
    background rows (dead steps past a lane's window read a valid row
    whose values are masked out of every aggregate)."""
    starts = np.array([lane.cycle for lane in lanes],
                      dtype=np.int64)[:, None]
    return np.minimum(starts + np.arange(width, dtype=np.int64)[None, :],
                      num_rows - 1)


def _lane_deltas(lanes: "typing.Sequence[Lane]", width: int,
                 num_cols: int) -> "np.ndarray":
    """``(L, W, C)`` extra-delay deltas: each lane's magnitude on its
    perturbed columns for its fault-active steps, zero elsewhere."""
    delta = np.zeros((len(lanes), width, num_cols), dtype=np.int64)
    for index, lane in enumerate(lanes):
        if lane.cols:
            delta[index, :lane.duration, list(lane.cols)] = (
                lane.magnitude_ps)
    return delta


def _live_mask(lanes: "typing.Sequence[Lane]", width: int) -> "np.ndarray":
    """``(L, W)`` mask of steps inside each lane's own window."""
    steps = np.array([lane.steps for lane in lanes],
                     dtype=np.int64)[:, None]
    return np.arange(width, dtype=np.int64)[None, :] < steps


def _collect(lanes: "typing.Sequence[Lane]", event: "np.ndarray",
             lateness: "np.ndarray", masked: "np.ndarray",
             detected: "np.ndarray", predicted: "np.ndarray",
             flagged: "np.ndarray", failed: "np.ndarray",
             intervals: "np.ndarray") -> "list[LaneOutcome]":
    """Fold the per-capture arrays into one outcome per lane.

    ``event`` must already be masked to live steps; aggregation is
    order-free, exactly like ``outcome_from_events`` over the observer
    stream.
    """
    axes = (1, 2)
    events = event.sum(axes)
    worst = np.where(event, lateness, _BIG_NEG).max(axes)
    worst = np.where(events > 0, worst, 0)
    max_intervals = np.where(event, intervals, 0).max(axes)
    any_failed = (failed & event).any(axes)
    any_relayed = (masked & (intervals >= 2) & event).any(axes)
    any_masked_ed = (((masked & flagged) | detected) & event).any(axes)
    any_masked = (masked & event).any(axes)
    any_warned = ((predicted | flagged) & event).any(axes)
    # classify_flags, vectorized: one np.select down the same severity
    # ladder instead of a python call per lane.
    severity = np.select(
        [any_failed, any_relayed, any_masked_ed, any_masked, any_warned],
        [0, 1, 2, 3, 4], default=5)
    return [
        LaneOutcome(
            classification=_LADDER[severity[i]],
            events=int(events[i]),
            worst_lateness_ps=int(worst[i]),
            max_borrowed_intervals=int(max_intervals[i]),
        )
        for i in range(len(lanes))
    ]


class _LaneMachineBase:
    """Shared lane bookkeeping for both targets."""

    kernel: str = "abstract"

    def _note_batched(self, count: int) -> None:
        if obs.REGISTRY.enabled:
            _OBS_LANES.labels(kernel=self.kernel, path="batched").inc(count)
            _OBS_GROUP.labels(kernel=self.kernel).observe(count)

    def note_replayed(self, count: int) -> None:
        """Account lanes that dropped to the per-fault forked path."""
        if obs.REGISTRY.enabled:
            _OBS_LANES.labels(kernel=self.kernel,
                              path="replayed").inc(count)


class PipelineLaneMachine(_LaneMachineBase):
    """Vectorized borrow/select relay machine for the linear pipeline.

    The lane-axis form of ``PipelineSimulation._simulate_cycle``:
    boundary ``i`` launches into ``i+1`` (circularly) with the time it
    borrowed, and the TIMBER relay hands ``select_out`` one boundary
    downstream per cycle — both are ``np.roll`` along the stage axis.
    """

    kernel = "pipeline"

    def __init__(self, params: CaptureParams, stage_names:
                 "typing.Sequence[str]", period_ps: int) -> None:
        self.params = params
        self.stage_names = list(stage_names)
        self._col = {name: index
                     for index, name in enumerate(stage_names)}
        self.num_cols = len(self.stage_names)
        self.period_ps = period_ps

    @staticmethod
    def state_is_idle(state: "typing.Any") -> bool:
        """Does a snapshot carry zero borrow and zero relay state?"""
        borrow, relay = state
        if any(borrow):
            return False
        if relay is None:
            return True
        select_in, next_select_in = relay
        return not any(select_in) and not any(next_select_in)

    def lane_columns(self, site_names:
                     "typing.Iterable[str]") -> tuple[int, ...]:
        return tuple(self._col[name] for name in site_names)

    def evaluate(self, lanes: "typing.Sequence[Lane]",
                 rows: "typing.Any") -> "list[LaneOutcome]":
        """Advance every lane through its window in one batch.

        ``rows`` is the trajectory's ``(delays, interesting)`` pair;
        each lane reads its own window of background delay rows.
        """
        delays_all = rows[0]
        width = max(lane.steps for lane in lanes)
        count = len(lanes)
        cycles = _window_cycles(lanes, width, delays_all.shape[0])
        delays = delays_all[cycles] + _lane_deltas(lanes, width,
                                                   self.num_cols)
        live = _live_mask(lanes, width)
        shape = (count, width, self.num_cols)
        lateness = np.empty(shape, dtype=np.int64)
        masked = np.empty(shape, dtype=bool)
        detected = np.empty(shape, dtype=bool)
        predicted = np.empty(shape, dtype=bool)
        flagged = np.empty(shape, dtype=bool)
        failed = np.empty(shape, dtype=bool)
        intervals = np.empty(shape, dtype=np.int64)
        borrow = np.zeros((count, self.num_cols), dtype=np.int64)
        select_in = np.zeros((count, self.num_cols), dtype=np.int64)
        for w in range(width):
            late = (np.roll(borrow, 1, axis=1) + delays[:, w, :]
                    - self.period_ps)
            caps = capture_block(self.params, late, select_in)
            lateness[:, w] = late
            masked[:, w] = caps.masked
            detected[:, w] = caps.detected
            predicted[:, w] = caps.predicted
            flagged[:, w] = caps.flagged
            failed[:, w] = caps.failed
            intervals[:, w] = caps.borrowed_intervals
            borrow = caps.borrowed_ps
            if self.params.kind == "timber-ff":
                # select_out relays to the next boundary for the next
                # cycle (borrowed intervals on a mask, else zero).
                select_in = np.roll(caps.borrowed_intervals, 1, axis=1)
        event = ((masked | detected | predicted | flagged | failed)
                 & live[:, :, None])
        if obs.REGISTRY.enabled:
            self._apply_counters(event, masked, detected, predicted,
                                 flagged, failed)
            self._note_batched(count)
        return _collect(lanes, event, lateness, masked, detected,
                        predicted, flagged, failed, intervals)

    @staticmethod
    def _apply_counters(event, masked, detected, predicted, flagged,
                        failed) -> None:
        """Reproduce ``_account``'s per-capture increments in bulk.

        The forked run's prefix is provably clean (the batch
        precondition), so its increments over the whole window equal
        the lane's live events — accounted here class by class with
        ``_account``'s exact precedence (failed before masked, masked
        before detected/predicted).
        """
        _PIPE_FAILED.inc(int((failed & event).sum()))
        live_masked = masked & ~failed & event
        _PIPE_MASKED.inc(int(live_masked.sum()))
        _PIPE_MASKED_FLAGGED.inc(int((live_masked & flagged).sum()))
        _PIPE_DETECTED.inc(int((detected & ~failed & ~masked
                                & event).sum()))
        _PIPE_PREDICTED.inc(int((predicted & ~failed & ~masked
                                 & ~detected & event).sum()))


class GraphLaneMachine(_LaneMachineBase):
    """Vectorized arrival/capture/relay machine for the whole graph.

    The lane-axis form of ``GraphPipelineSimulation._simulate_cycle``:
    per-edge evaluation gates on carried launch offsets or
    sensitization, per-destination lateness is a segment max, protected
    endpoints capture with the scheme (relay select = max over relay
    sources), the rest capture plain.
    """

    kernel = "graph"

    def __init__(self, params: CaptureParams, topology: CompiledTopology,
                 dst_names: "typing.Sequence[str]",
                 period_ps: int) -> None:
        self.params = params
        self.topology = topology
        self._col = {name: index
                     for index, name in enumerate(dst_names)}
        self.num_cols = topology.num_dsts
        self.period_ps = period_ps
        self._plain = CaptureParams(kind="plain")

    @staticmethod
    def state_is_idle(state: "typing.Any") -> bool:
        """Does a snapshot carry zero borrow and zero relay selects?"""
        borrow, select_out = state
        return not borrow and not select_out

    def lane_columns(self, site_names:
                     "typing.Iterable[str]") -> tuple[int, ...]:
        # Faults on non-candidate destinations never get evaluated
        # (the scalar loop adds the extra only when an in-edge fired),
        # so those sites simply contribute no delta column.
        return tuple(self._col[name] for name in site_names
                     if name in self._col)

    def evaluate(self, lanes: "typing.Sequence[Lane]",
                 rows: "typing.Any") -> "list[LaneOutcome]":
        """Advance every lane through its window in one batch.

        ``rows`` is the trajectory's ``(sens, arrival, interesting)``
        triple; each lane reads its own window of background rows.
        """
        topo = self.topology
        sens_all, arrival_all = rows[0], rows[1]
        width = max(lane.steps for lane in lanes)
        count = len(lanes)
        cycles = _window_cycles(lanes, width, sens_all.shape[0])
        sens = sens_all[cycles]
        arrival = arrival_all[cycles]
        extra = _lane_deltas(lanes, width, self.num_cols)
        live = _live_mask(lanes, width)
        num_dsts = self.num_cols
        prot = topo.protected[None, :]
        shape = (count, width, num_dsts)
        lateness = np.empty(shape, dtype=np.int64)
        masked = np.empty(shape, dtype=bool)
        flagged = np.empty(shape, dtype=bool)
        failed = np.empty(shape, dtype=bool)
        failed_prot = np.empty(shape, dtype=bool)
        intervals = np.empty(shape, dtype=np.int64)
        never = np.zeros(shape, dtype=bool)
        # State columns are candidate destinations plus one sentinel
        # column (always zero) standing in for every other FF name.
        borrow = np.zeros((count, num_dsts + 1), dtype=np.int64)
        select = np.zeros((count, num_dsts + 1), dtype=np.int64)
        for w in range(width):
            offsets = borrow[:, topo.src_cols]
            evaluated = (offsets != 0) | sens[:, w, :]
            late_edge = np.where(evaluated,
                                 offsets + arrival[:, w, :]
                                 - self.period_ps,
                                 _BIG_NEG)
            evaluated_dst = topo.per_dst_any(evaluated)
            late = np.where(evaluated_dst,
                            topo.per_dst_max(late_edge) + extra[:, w, :],
                            _BIG_NEG)
            select_in = topo.relay_select_in(select)
            caps = capture_block(self.params, late, select_in)
            caps_plain = capture_block(self._plain, late)
            step_masked = caps.masked & prot
            step_failed_prot = caps.failed & prot
            step_failed = step_failed_prot | (caps_plain.failed & ~prot)
            lateness[:, w] = late
            masked[:, w] = step_masked
            flagged[:, w] = caps.flagged & prot
            failed[:, w] = step_failed
            failed_prot[:, w] = step_failed_prot
            step_intervals = np.where(step_masked,
                                      caps.borrowed_intervals, 0)
            intervals[:, w] = step_intervals
            borrow[:, :num_dsts] = np.where(step_masked,
                                            caps.borrowed_ps, 0)
            select[:, :num_dsts] = step_intervals
        # Every violating capture is an event (the graph observer has
        # no clean filter to apply — it only ever sees violations).
        event = (masked | failed) & live[:, :, None]
        if obs.REGISTRY.enabled:
            self._apply_counters(event, masked, flagged, failed_prot,
                                 failed, intervals)
            self._note_batched(count)
        return _collect(lanes, event, lateness, masked, never, never,
                        flagged, failed, intervals)

    @staticmethod
    def _apply_counters(event, masked, flagged, failed_prot, failed,
                        intervals) -> None:
        """Reproduce ``_simulate_cycle``'s semantic increments in bulk.

        Counter totals are order-free sums; the relay-depth histogram
        is observed per masked event exactly as the scalar loop does
        (events are few — the loop is over violations, not cycles).
        """
        live_masked = masked & event
        _GRAPH_MASKED_ED.inc(int((live_masked & flagged).sum()))
        _GRAPH_MASKED_TB.inc(int((live_masked & ~flagged).sum()))
        _GRAPH_RELAYED.inc(int((live_masked & (intervals >= 2)).sum()))
        _GRAPH_ESCAPED_PROT.inc(int((failed_prot & event).sum()))
        _GRAPH_ESCAPED_UNPROT.inc(int((failed & ~failed_prot
                                       & event).sum()))
        for depth in intervals[live_masked & (intervals > 0)].tolist():
            _GRAPH_RELAY_DEPTH.observe(depth)


def pipeline_machine(sim: "typing.Any") -> "PipelineLaneMachine | None":
    """A lane machine for a ``PipelineSimulation``, or ``None``.

    ``None`` when the configuration's dynamics the batch cannot model:
    an attached controller (period feedback), fail-fast semantics, or a
    capture policy without pure array semantics.
    """
    if sim.controller is not None or sim.fail_fast:
        return None
    params = CaptureParams.for_policy(sim.policy)
    if params is None:
        return None
    return PipelineLaneMachine(params,
                               [stage.name for stage in sim.stages],
                               sim.period_ps)


def graph_machine(sim: "typing.Any") -> "GraphLaneMachine | None":
    """A lane machine for a ``GraphPipelineSimulation``, or ``None``.

    ``None`` when a controller or workload trace is attached (period /
    threshold feedback the batch does not model).
    """
    if sim.controller is not None or sim.trace is not None:
        return None
    if not sim._rows:
        # No candidate endpoints: nothing for a lane delta to perturb
        # and nothing for reduceat segments to reduce over.
        return None
    params = (CaptureParams(kind="plain") if sim.scheme == "plain"
              else CaptureParams.from_checking_period(sim.scheme, sim.cp))
    dst_names = [ff for ff, _ in sim._rows]
    return GraphLaneMachine(params, CompiledTopology.from_sim(sim),
                            dst_names, sim.graph.period_ps)
