"""Fault-lane batched window evaluation for snapshot-forked campaigns.

Snapshot forking (:mod:`repro.campaign.trajectory`) made each fault's
cost O(window); this module removes the remaining per-fault Python
walk.  Faults that share a background are near-identical perturbations
of it, so a batch of them is evaluated as **one numpy problem with a
lane axis**: per-lane ``(lanes, window_cycles, columns)`` disturbance
deltas ride on top of the shared background rows, and a vectorized
borrow/select/relay state machine — the array form of the simulators'
``_simulate_cycle`` — advances every lane per cycle step.

Both targets share :class:`_LaneMachineBase`: the lane loop (window
gather, per-step buffers, event mask, counter bumps, fold) and the
prefix-table pass, which runs each background cycle from idle through
the same per-cycle ``_step`` — the one piece each target supplies.

The machines take and return arrays.  A :class:`LaneBlock` carries the
lanes as columns (injection cycle, window steps, fault duration,
magnitude, perturbed-column mask) and builds its deltas in one
broadcast; :meth:`~_LaneMachineBase.evaluate` returns per-lane
outcome columns — class as an index into
:data:`~repro.campaign.outcomes.SEVERITY_LADDER`, events, worst
lateness, max borrowed intervals — which the campaign evaluator turns
into :class:`~repro.campaign.outcomes.FaultOutcome` records once per
fault.

A lane is only batched when its equivalence to the per-fault forked
path is *provable*:

* its fork snapshot must be idle (zero borrow, zero relay selects) and
  the prefix ``[fork start, injection cycle)`` must be *state-free*:
  no background cycle in it, entered idle, leaves borrow or relay state
  behind (:class:`PrefixTable`, :meth:`~_LaneMachineBase.state_free`).
  By induction the forked run then enters every prefix cycle idle and
  the lane's window with exactly zero carried state; the prefix may
  still capture non-clean outcomes (a canary's standing guard-band
  predictions), but those fall outside the fault's observer window and
  only bump semantic counters, which the table holds as cumulative
  sums;
* its window must fit :data:`MAX_LANE_WINDOW` steps.

Lanes that fail these checks drop to the existing per-fault forked
path, which is preserved as the executable spec — the same
screen-plus-scalar-replay discipline the cycle kernels use, now applied
along the fault dimension.  Inside the batch, every semantic counter
increment the scalar state machine would have made is reproduced
exactly (bulk ``inc`` per outcome class, one bulk relay-depth observe
with the same buckets, and the prefixes' increments from the table's
cumulative counts), so :func:`repro.obs.semantic_snapshot` stays
bit-identical across evaluation paths.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro import obs
from repro.kernels.graph import CompiledTopology
from repro.kernels.pipeline import CaptureArrays, CaptureParams, capture_block
from repro.pipeline import graph_sim as _graph_sim
from repro.pipeline import pipeline as _pipeline_sim

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

#: Background cycles per array call when building a prefix table.
_TABLE_BLOCK = 512

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


@dataclasses.dataclass(frozen=True)
class LaneBlock:
    """Fault lanes as columns, one row per lane, as the lane machines
    consume them.

    ``cycle`` is each lane's absolute injection cycle (the window
    start), ``steps`` its window length in cycles (``window_end - cycle
    + 1``), ``duration`` its leading fault-active cycles and
    ``magnitude_ps`` its extra delay; ``mask`` is the ``(lanes,
    columns)`` mask of the machine columns (stage or candidate
    destination indices, per target) the fault perturbs.
    """

    cycle: "np.ndarray"
    steps: "np.ndarray"
    duration: "np.ndarray"
    magnitude_ps: "np.ndarray"
    mask: "np.ndarray"

    def __len__(self) -> int:
        return len(self.cycle)

    def __getitem__(self, index: slice) -> "LaneBlock":
        return LaneBlock(*(getattr(self, field.name)[index]
                           for field in dataclasses.fields(self)))

    def window(self, num_rows: int) -> tuple:
        """The batch's ``(cycles, delta, live)`` over its widest window.

        ``cycles`` is the ``(L, W)`` background row of each lane step,
        clipped to the rows (dead steps past a lane's window read a
        valid row whose values every aggregate masks out); ``delta``
        the ``(L, W, C)`` extra delay — each lane's magnitude on its
        perturbed columns for its fault-active steps, zero elsewhere —
        in one broadcast; ``live`` the ``(L, W)`` mask of steps inside
        each lane's own window.
        """
        step = np.arange(int(self.steps.max()), dtype=np.int64)
        cycles = np.minimum(self.cycle[:, None] + step, num_rows - 1)
        active = step < self.duration[:, None]
        delta = np.where(active[:, :, None] & self.mask[:, None, :],
                         self.magnitude_ps[:, None, None], 0)
        return cycles, delta, step < self.steps[:, None]


def _collect(event: "np.ndarray", lateness: "np.ndarray",
             caps: CaptureArrays) -> tuple:
    """Fold the stacked ``(lanes, window, columns)`` captures into
    per-lane outcome columns.

    Returns ``(classes, events, worst_lateness_ps,
    max_borrowed_intervals)``, one entry per lane, with ``classes`` as
    indices into :data:`~repro.campaign.outcomes.SEVERITY_LADDER`.
    ``event`` must already be masked to live steps; aggregation is
    order-free, exactly like ``outcome_from_events`` over the observer
    stream.
    """
    axes = (1, 2)
    masked, intervals = caps.masked, caps.borrowed_intervals
    events = event.sum(axes)
    worst = np.where(event, lateness, _BIG_NEG).max(axes)
    worst = np.where(events > 0, worst, 0)
    max_intervals = np.where(event, intervals, 0).max(axes)
    any_failed = (caps.failed & event).any(axes)
    any_relayed = (masked & (intervals >= 2) & event).any(axes)
    any_masked_ed = (((masked & caps.flagged) | caps.detected)
                     & event).any(axes)
    any_masked = (masked & event).any(axes)
    any_warned = ((caps.predicted | caps.flagged) & event).any(axes)
    # classify_flags, vectorized: one np.select down the same severity
    # ladder instead of a python call per lane.
    classes = np.select(
        [any_failed, any_relayed, any_masked_ed, any_masked, any_warned],
        [0, 1, 2, 3, 4], default=5)
    return classes, events, worst, max_intervals


@dataclasses.dataclass(frozen=True)
class PrefixTable:
    """What every background cycle does when entered idle.

    Built once per background, next to its rows, by the lane machine's
    :meth:`~_LaneMachineBase.prefix_table`.  ``state[c]`` tells
    whether cycle ``c``'s captures, entered with zero borrow and relay
    state, leave any behind, and ``carried[c]`` counts such cycles in
    ``[0, c)``.  ``counts[c]`` holds the machine's semantic-counter
    increments (one column per entry of its ``COUNTERS``) summed over
    cycles ``[0, c)``, each entered idle — so a state-free prefix
    ``[start, cycle)`` contributed exactly ``counts[cycle] -
    counts[start]``.
    """

    state: "np.ndarray"
    carried: "np.ndarray"
    counts: "np.ndarray"


#: Capture fields the lane loop stacks per step; borrow amounts only
#: feed the next step's state.
_KEPT = dict(masked=bool, detected=bool, predicted=bool, flagged=bool,
             failed=bool, borrowed_intervals=np.int64)


class _LaneMachineBase:
    """The lane loop and prefix-table pass both targets share.

    A target supplies only its per-cycle state machine:
    ``_step(step_rows, extra, state) -> (lateness, CaptureArrays,
    next_state)`` — one capture step of every lane's ``(lanes, ...)``
    background rows plus its per-column ``extra`` delay, from carried
    ``state`` — with ``_zero_state(count)``, the per-lane
    ``_leaves_state(caps)`` of an idle-entered step, the
    ``_counter_classes(caps)`` masks (one per :attr:`COUNTERS` entry)
    and ``state_is_idle``, plus :meth:`_observe` where it keeps a
    histogram.  :meth:`evaluate` runs the step along each lane's window;
    :meth:`prefix_table` runs it once per background cycle, from idle.
    """

    kernel: str = "abstract"
    #: Semantic counter children, in the column order of the prefix
    #: table's counts and of ``_counter_classes``.
    COUNTERS: tuple = ()
    #: The background's :class:`PrefixTable`; the evaluator installs
    #: it with the background rows it was built from.
    table: "PrefixTable | None" = None
    #: Site name -> machine column.
    _col: "dict[str, int]"
    num_cols: int

    def _observe(self, caps: CaptureArrays, event: "np.ndarray") -> None:
        """Observe the target's histograms over the batch's events."""

    def evaluate(self, lanes: LaneBlock, rows: "typing.Any") -> tuple:
        """Advance every lane through its window in one batch.

        ``rows`` is the trajectory's block columns (the screen's
        verdicts last, unread).  Each lane steps its own window of them
        plus its delta through :meth:`_step`, into preallocated ``(lanes,
        window, columns)`` buffers.  Returns :func:`_collect`'s per-lane
        outcome columns.
        """
        cycles, extra, live = lanes.window(rows[0].shape[0])
        window = [column[cycles] for column in rows[:-1]]
        count, width = live.shape
        shape = (count, width, self.num_cols)
        lateness = np.empty(shape, dtype=np.int64)
        kept = {name: np.empty(shape, dtype) for name, dtype in _KEPT.items()}
        state = self._zero_state(count)
        for w in range(width):
            late, caps, state = self._step(
                [column[:, w] for column in window], extra[:, w], state)
            lateness[:, w] = late
            for name, buffer in kept.items():
                buffer[:, w] = getattr(caps, name)
        caps = CaptureArrays(borrowed_ps=None, **kept)
        event = caps.event & live[:, :, None]
        if obs.REGISTRY.enabled:
            for counter, mask in zip(self.COUNTERS,
                                     self._counter_classes(caps)):
                counter.inc(int((mask & event).sum()))
            self._observe(caps, event)
            _OBS_LANES.labels(kernel=self.kernel, path="batched").inc(count)
            _OBS_GROUP.labels(kernel=self.kernel).observe(count)
        return _collect(event, lateness, caps)

    def prefix_table(self, rows: "typing.Any") -> PrefixTable:
        """The :class:`PrefixTable` of background ``rows``.

        Steps each block of :data:`_TABLE_BLOCK` background cycles once
        through :meth:`_step`, cycles as lanes, each from
        :meth:`_zero_state` — the state machine the lanes run.  The
        counts are int32 whenever every total fits, halving the table's
        memory.
        """
        num_cycles = rows[0].shape[0]
        state = np.empty(num_cycles, dtype=bool)
        counts = np.zeros(
            (num_cycles + 1, len(self.COUNTERS)),
            dtype=(np.int32 if num_cycles * self.num_cols < 2 ** 31
                   else np.int64))
        for pos in range(0, num_cycles, _TABLE_BLOCK):
            stop = min(pos + _TABLE_BLOCK, num_cycles)
            _, caps, _ = self._step(
                [column[pos:stop] for column in rows[:-1]], 0,
                self._zero_state(stop - pos))
            state[pos:stop] = self._leaves_state(caps)
            counts[pos + 1:stop + 1] = np.stack(
                self._counter_classes(caps), axis=-1).sum(axis=1)
        np.cumsum(counts, axis=0, out=counts)
        carried = np.zeros(num_cycles + 1, dtype=np.int64)
        np.cumsum(state, out=carried[1:])
        return PrefixTable(state=state, carried=carried, counts=counts)

    def note_replayed(self, count: int) -> None:
        """Account lanes that dropped to the per-fault forked path."""
        if obs.REGISTRY.enabled:
            _OBS_LANES.labels(kernel=self.kernel,
                              path="replayed").inc(count)

    def lane_mask(self, sites: "typing.Sequence[str]",
                  site_mask: "np.ndarray") -> "np.ndarray":
        """``(lanes, columns)`` perturbed machine columns, from a
        ``(lanes, sites)`` mask over ``sites``.

        Sites without a machine column perturb nothing: faults on
        non-candidate graph destinations never get evaluated (the
        scalar loop adds the extra only when an in-edge fired).
        """
        pairs = [(index, self._col[name])
                 for index, name in enumerate(sites) if name in self._col]
        mask = np.zeros((len(site_mask), self.num_cols), dtype=bool)
        if pairs:
            src, dst = (list(side) for side in zip(*pairs))
            mask[:, dst] = site_mask[:, src]
        return mask

    def state_free(self, starts: "np.ndarray",
                   cycles: "np.ndarray") -> "np.ndarray":
        """Per lane: does no background cycle in ``[starts, cycles)``
        leave state behind?

        A lane forked idle at ``start`` whose prefix is state-free
        enters its window with zero carried state.
        """
        carried = self.table.carried
        return carried[cycles] == carried[starts]

    def add_prefix_counters(self, starts: "np.ndarray",
                            cycles: "np.ndarray") -> None:
        """Bump the semantic counters by what the state-free prefixes
        ``[starts[i], cycles[i])`` captured — one vectorized sum."""
        counts = self.table.counts
        totals = (counts[cycles] - counts[starts]).sum(axis=0)
        for counter, total in zip(self.COUNTERS, totals.tolist()):
            counter.inc(total)


class PipelineLaneMachine(_LaneMachineBase):
    """Vectorized borrow/select relay machine for the linear pipeline.

    The lane-axis form of ``PipelineSimulation._simulate_cycle``:
    boundary ``i`` launches into ``i+1`` (circularly) with the time it
    borrowed, and the TIMBER relay hands ``select_out`` one boundary
    downstream per cycle — both are ``np.roll`` along the stage axis.
    Rows are ``(delays, interesting)``; state is ``(borrow,
    select_in)``, one column per stage.
    """

    kernel = "pipeline"
    COUNTERS = (_pipeline_sim.OBS_FAILED, _pipeline_sim.OBS_MASKED,
                _pipeline_sim.OBS_MASKED_FLAGGED, _pipeline_sim.OBS_DETECTED,
                _pipeline_sim.OBS_PREDICTED)

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

    def _zero_state(self, count: int) -> tuple:
        zero = np.zeros((count, self.num_cols), dtype=np.int64)
        return zero, zero

    def _step(self, step_rows, extra, state) -> tuple:
        borrow, select_in = state
        late = (np.roll(borrow, 1, axis=1) + step_rows[0] + extra
                - self.period_ps)
        caps = capture_block(self.params, late, select_in)
        if self.params.kind == "timber-ff":
            # select_out relays to the next boundary for the next
            # cycle (borrowed intervals on a mask, else zero).
            select_in = np.roll(caps.borrowed_intervals, 1, axis=1)
        return late, caps, (caps.borrowed_ps, select_in)

    @staticmethod
    def _leaves_state(caps: CaptureArrays) -> "np.ndarray":
        """A capture leaves state when it borrows time or relays a select."""
        return ((caps.borrowed_ps != 0)
                | (caps.borrowed_intervals != 0)).any(axis=1)

    @staticmethod
    def _counter_classes(caps: CaptureArrays) -> tuple:
        """``_account``'s per-capture increments as one mask per
        :attr:`COUNTERS` entry, with its exact precedence: failed
        before masked, masked before detected before predicted."""
        kept = ~caps.failed
        live_masked = caps.masked & kept
        rest = kept & ~caps.masked
        return (caps.failed, live_masked, live_masked & caps.flagged,
                caps.detected & rest, caps.predicted & rest & ~caps.detected)


class GraphLaneMachine(_LaneMachineBase):
    """Vectorized arrival/capture/relay machine for the whole graph.

    The lane-axis form of ``GraphPipelineSimulation._simulate_cycle``:
    per-edge evaluation gates on carried launch offsets or
    sensitization, per-destination lateness is a segment max, protected
    endpoints capture with the scheme (relay select = max over relay
    sources), the rest capture plain.  Rows are ``(sens, arrival,
    interesting)``; state is ``(borrow, select)``, one column per
    candidate destination plus one sentinel column (always zero)
    standing in for every other FF name.
    """

    kernel = "graph"
    COUNTERS = (_graph_sim.OBS_MASKED_ED, _graph_sim.OBS_MASKED_TB,
                _graph_sim.OBS_RELAYED, _graph_sim.OBS_ESCAPED_PROT,
                _graph_sim.OBS_ESCAPED_UNPROT)

    def __init__(self, params: CaptureParams, topology: CompiledTopology,
                 dst_names: "typing.Sequence[str]",
                 period_ps: int) -> None:
        self.params = params
        self.topology = topology
        self._col = {name: index
                     for index, name in enumerate(dst_names)}
        self.num_cols = topology.num_dsts
        self.period_ps = period_ps

    @staticmethod
    def state_is_idle(state: "typing.Any") -> bool:
        """Does a snapshot carry zero borrow and zero relay selects?"""
        borrow, select_out = state
        return not borrow and not select_out

    def _zero_state(self, count: int) -> tuple:
        return tuple(np.zeros((2, count, self.num_cols + 1),
                              dtype=np.int64))

    def _step(self, step_rows, extra, state) -> tuple:
        sens, arrival = step_rows
        borrow, select = state
        topo = self.topology
        prot = topo.protected
        offsets = borrow[:, topo.src_cols]
        evaluated = (offsets != 0) | sens
        late_edge = np.where(evaluated,
                             offsets + arrival - self.period_ps,
                             _BIG_NEG)
        late = np.where(topo.per_dst_any(evaluated),
                        topo.per_dst_max(late_edge) + extra, _BIG_NEG)
        caps = capture_block(self.params, late,
                             topo.relay_select_in(select))
        masked = caps.masked & prot
        never = np.zeros(late.shape, dtype=bool)
        caps = CaptureArrays(
            masked=masked, detected=never, predicted=never,
            flagged=caps.flagged & prot,
            # Unprotected endpoints capture plain: any violation fails.
            failed=(caps.failed & prot) | ((late > 0) & ~prot),
            borrowed_ps=np.where(masked, caps.borrowed_ps, 0),
            borrowed_intervals=np.where(masked, caps.borrowed_intervals,
                                        0))
        # Only masked protected captures borrow or relay (in place).
        borrow[:, :self.num_cols] = caps.borrowed_ps
        select[:, :self.num_cols] = caps.borrowed_intervals
        return late, caps, state

    @staticmethod
    def _leaves_state(caps: CaptureArrays) -> "np.ndarray":
        """Any masked capture leaves state (the scalar loop records its
        borrow even when zero), so state-free cycles never observe the
        relay-depth histogram and the table needs no column for it."""
        return caps.masked.any(axis=1)

    def _counter_classes(self, caps: CaptureArrays) -> tuple:
        """``_simulate_cycle``'s semantic increments as one mask per
        :attr:`COUNTERS` entry (order-free sums)."""
        masked, flagged, failed = caps.masked, caps.flagged, caps.failed
        failed_prot = failed & self.topology.protected
        return (masked & flagged, masked & ~flagged,
                masked & (caps.borrowed_intervals >= 2), failed_prot,
                failed & ~failed_prot)

    def _observe(self, caps: CaptureArrays, event: "np.ndarray") -> None:
        # The relay-depth histogram gets every masked event's depth, as
        # the scalar loop observes them one by one.
        intervals = caps.borrowed_intervals
        _graph_sim.OBS_RELAY_DEPTH.observe_many(
            intervals[caps.masked & event & (intervals > 0)])


def pipeline_machine(sim: "typing.Any") -> "PipelineLaneMachine | None":
    """A lane machine for a ``PipelineSimulation``, or ``None``.

    ``None`` when the configuration's dynamics the batch cannot model:
    an attached controller (period feedback), fail-fast semantics, or a
    capture policy without pure array semantics (see
    :meth:`CaptureParams.for_policy`: logical masking, soft-edge and
    policy subclasses).  Every other pipeline scheme — dcf and
    clock-stall included — gets a machine.
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
