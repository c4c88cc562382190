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
lateness, max borrowed intervals — which the campaign evaluator writes
straight into the classified rows of the chunk's
:class:`~repro.campaign.outcomes.OutcomeColumns` block.  The outcomes
stay columns from there to the report, the result store and the soak
journal; no per-fault record is built for a batched lane.

A lane is only batched when its equivalence to the per-fault forked
path is *provable*: its fork snapshot must be idle (zero borrow, zero
relay selects) and the prefix ``[fork start, injection cycle)`` must be
*state-free*: no background cycle in it, entered idle, leaves borrow or
relay state behind (:class:`PrefixTable`,
:meth:`~_LaneMachineBase.state_free`).  By induction the forked run
then enters every prefix cycle idle and the lane's window with exactly
zero carried state; the prefix may still capture non-clean outcomes (a
canary's standing guard-band predictions), but those fall outside the
fault's observer window and only bump semantic counters, which the
table holds as cumulative sums.

Windows of any length batch.  A fault's effect is spent a few cycles
after injection, so a batch **retires** once every lane still inside
its window is idle, past its fault-active steps and facing only quiet
background — cycles that, entered idle, capture nothing and leave no
state (the table's cumulative ``busy`` count).  Such a lane would
enter every remaining cycle idle and capture nothing, so stopping
changes no outcome and no counter.  Windows run in segments of
:data:`_SEGMENT` steps, so the per-step buffers stay bounded.  A
stateful scheme steps a segment one cycle at a time, state carried
across; under a state-free one (:attr:`CaptureParams.state_free`) a
segment's lane-steps capture as lanes of one idle-entered step, like
the prefix table's cycles, and the window stops once every lane is spent.

Lanes that fail the eligibility checks drop to the existing per-fault
forked path, which is preserved as the executable spec — the same
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

#: Window steps per pre-gathered segment.  :meth:`~_LaneMachineBase.
#: evaluate` runs a longer window a segment at a time, which bounds
#: its ``(lanes, segment, columns)`` buffers however long the window.
_SEGMENT = 16

#: Most lane-steps one :meth:`~_LaneMachineBase.evaluate` segment
#: holds.  A campaign chunk evaluated for a whole dispatch batch can
#: hold thousands of lanes; the evaluator feeds them through in slices
#: of :func:`lanes_per_call`, which keeps the ``(lanes, segment,
#: columns)`` buffers — and so peak memory — bounded while amortizing
#: the per-call numpy overhead over as many lanes as short windows fit.
LANE_STEPS = 256 * _SEGMENT


def lanes_per_call(width: int) -> int:
    """Lanes per :meth:`~_LaneMachineBase.evaluate` call for windows of
    at most ``width`` steps: the :data:`LANE_STEPS` one segment holds."""
    return LANE_STEPS // min(width, _SEGMENT)


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
_OBS_LANES = obs.REGISTRY.family("repro_kernel_fault_lanes_total")
_OBS_STEPS = obs.REGISTRY.family("repro_kernel_lane_steps_total")
_OBS_GROUP = obs.REGISTRY.family("repro_kernel_lane_group_faults")


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

    def window(self, num_rows: int, start: int, stop: int) -> tuple:
        """The batch's ``(cycles, delta, live)`` over window steps
        ``[start, stop)``.

        ``cycles`` is the ``(L, W)`` background row of each lane step,
        clipped to the rows (dead steps past a lane's window read a
        valid row whose values every aggregate masks out); ``delta``
        the ``(L, W, C)`` extra delay — each lane's magnitude on its
        perturbed columns for its fault-active steps, zero elsewhere —
        in one broadcast; ``live`` the ``(L, W)`` mask of steps inside
        each lane's own window.
        """
        step = np.arange(start, stop, dtype=np.int64)
        cycles = np.minimum(self.cycle[:, None] + step, num_rows - 1)
        active = step < self.duration[:, None]
        delta = np.where(active[:, :, None] & self.mask[:, None, :],
                         self.magnitude_ps[:, None, None], 0)
        return cycles, delta, step < self.steps[:, None]


def _fold(event: "np.ndarray", lateness: "np.ndarray",
          caps: CaptureArrays) -> list:
    """Fold the stacked ``(lanes, steps, columns)`` captures of one
    window segment into per-lane aggregates.

    Returns ``[events, worst, max_intervals, failed, relayed,
    masked_ed, masked, warned]``, one entry per lane: the event count,
    the worst evaluated lateness of an event (:data:`_BIG_NEG` if none),
    the most borrowed intervals of an event, and the five severity
    flags of :data:`~repro.campaign.outcomes.SEVERITY_LADDER`.
    ``event`` must already be masked to live steps; every aggregate is
    order-free, exactly like ``outcome_from_events`` over the observer
    stream, so segments combine with :data:`_COMBINE`.
    """
    axes = (1, 2)
    masked, intervals = caps.masked, caps.borrowed_intervals
    return [
        event.sum(axes),
        np.where(event, lateness, _BIG_NEG).max(axes),
        np.where(event, intervals, 0).max(axes),
        (caps.failed & event).any(axes),
        (masked & (intervals >= 2) & event).any(axes),
        (((masked & caps.flagged) | caps.detected) & event).any(axes),
        (masked & event).any(axes),
        ((caps.predicted | caps.flagged) & event).any(axes),
    ]


#: How two segments' :func:`_fold` aggregates combine, entry by entry.
_COMBINE = (np.add, np.maximum, np.maximum) + (np.logical_or,) * 5


def _classify(events: "np.ndarray", worst: "np.ndarray",
              max_intervals: "np.ndarray", *flags: "np.ndarray") -> tuple:
    """Per-lane outcome columns from a whole window's :func:`_fold`.

    Returns ``(classes, events, worst_lateness_ps,
    max_borrowed_intervals)``, with ``classes`` as indices into
    :data:`~repro.campaign.outcomes.SEVERITY_LADDER`: classify_flags,
    vectorized — one np.select down the same severity ladder instead
    of a python call per lane.
    """
    classes = np.select(list(flags), [0, 1, 2, 3, 4], default=5)
    return classes, events, np.where(events > 0, worst, 0), max_intervals


@dataclasses.dataclass(frozen=True)
class PrefixTable:
    """What every background cycle does when entered idle.

    Built once per background, next to its rows, by the lane machine's
    :meth:`~_LaneMachineBase.prefix_table`.  ``state[c]`` tells
    whether cycle ``c``'s captures, entered with zero borrow and relay
    state, leave any behind, and ``carried[c]`` counts such cycles in
    ``[0, c)``; ``busy[c]`` counts the cycles in ``[0, c)`` that
    capture an event or leave state, so ``[c, end)`` is *quiet* — each
    cycle, entered idle, captures nothing and stays idle — exactly when
    ``busy[c] == busy[end]``.  ``counts[c]`` holds the machine's
    semantic-counter increments (one column per entry of its
    ``COUNTERS``) summed over cycles ``[0, c)``, each entered idle — so
    a state-free prefix ``[start, cycle)`` contributed exactly
    ``counts[cycle] - counts[start]``.
    """

    state: "np.ndarray"
    carried: "np.ndarray"
    busy: "np.ndarray"
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
    ``state`` — with its :class:`CaptureParams` ``params``,
    ``_zero_state(count)``, the per-lane
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
    params: CaptureParams
    num_cols: int

    def _observe(self, caps: CaptureArrays, event: "np.ndarray") -> None:
        """Observe the target's histograms over the batch's events."""

    def evaluate(self, lanes: LaneBlock, rows: "typing.Any") -> tuple:
        """Advance every lane through its window in one batch.

        ``rows`` is the trajectory's block columns (the screen's
        verdicts last, unread).  Each lane runs its own window of them
        plus its delta through :meth:`_step`, a :meth:`_segment` of at
        most :data:`_SEGMENT` steps at a time.  A state-free scheme's
        window stops at :meth:`_ready_step`, where every lane is spent.
        A stateful scheme's window longer than one segment retires from
        :meth:`_ready_step` on, after the first step that leaves every
        lane still inside its window idle: the steps left would capture
        nothing.  Returns :func:`_classify`'s per-lane outcome columns.
        """
        width = int(lanes.steps.max())
        ready = None
        if self.params.state_free:
            width = self._ready_step(lanes)
        elif width > _SEGMENT:
            ready = self._ready_step(lanes)
        state = self._zero_state(len(lanes))
        totals = None
        done, retired = 0, False
        while done < width and not retired:
            part, state, done, retired = self._segment(
                lanes, rows, done, min(width, done + _SEGMENT), ready,
                state)
            totals = (part if totals is None else
                      [combine(total, value) for combine, total, value
                       in zip(_COMBINE, totals, part)])
        if obs.REGISTRY.enabled:
            run = int(np.minimum(lanes.steps, done).sum())
            _OBS_STEPS.labels(kernel=self.kernel, path="run").inc(run)
            _OBS_STEPS.labels(kernel=self.kernel, path="retired").inc(
                int(lanes.steps.sum()) - run)
            _OBS_LANES.labels(kernel=self.kernel,
                              path="batched").inc(len(lanes))
            _OBS_GROUP.labels(kernel=self.kernel).observe(len(lanes))
        return _classify(*totals)

    def _segment(self, lanes: LaneBlock, rows: "typing.Any", start: int,
                 stop: int, ready: "int | None",
                 state: "typing.Any") -> tuple:
        """Run every lane through window steps ``[start, stop)`` from
        ``state``, or up to the first step at or past ``ready`` (if
        any) that leaves every lane still inside its window idle.

        A state-free scheme's lane-steps capture as lanes of one
        :meth:`_idle_step`; a stateful scheme steps one window step at
        a time into preallocated ``(lanes, segment, columns)`` buffers.
        Returns the steps' :func:`_fold` aggregates, the carried-out
        state, the window step the segment ended at and whether the
        batch retired there.
        """
        cycles, extra, live = lanes.window(rows[0].shape[0], start, stop)
        shape = (len(lanes), stop - start, self.num_cols)
        retired, done = False, stop
        if self.params.state_free:
            lateness, caps = self._idle_step(
                [column[cycles.ravel()] for column in rows[:-1]],
                extra.reshape(-1, self.num_cols))
            lateness = lateness.reshape(shape)
            kept = {name: getattr(caps, name).reshape(shape)
                    for name in _KEPT}
        else:
            window = [column[cycles] for column in rows[:-1]]
            lateness = np.empty(shape, dtype=np.int64)
            kept = {name: np.empty(shape, dtype)
                    for name, dtype in _KEPT.items()}
            for w in range(stop - start):
                late, caps, state = self._step(
                    [column[:, w] for column in window], extra[:, w], state)
                lateness[:, w] = late
                for name, buffer in kept.items():
                    buffer[:, w] = getattr(caps, name)
                done = start + w + 1
                if (ready is not None and done >= ready
                        and self._spent(state, lanes.steps > done)):
                    retired = True
                    ran = slice(0, w + 1)
                    lateness, live = lateness[:, ran], live[:, ran]
                    kept = {name: buffer[:, ran]
                            for name, buffer in kept.items()}
                    break
        caps = CaptureArrays(borrowed_ps=None, **kept)
        event = caps.event & live[:, :, None]
        if obs.REGISTRY.enabled:
            for counter, mask in zip(self.COUNTERS,
                                     self._counter_classes(caps)):
                counter.inc(int((mask & event).sum()))
            self._observe(caps, event)
        return _fold(event, lateness, caps), state, done, retired

    def _ready_step(self, lanes: LaneBlock) -> int:
        """The first window step at which every lane is past its
        fault-active steps and faces only quiet background to its
        window's end (clamped to the window): one ``searchsorted`` of
        the table's ``busy`` count per lane."""
        busy = self.table.busy
        end = lanes.cycle + lanes.steps
        quiet = np.searchsorted(busy, busy[end]) - lanes.cycle
        return int(np.minimum(np.maximum(quiet, lanes.duration),
                              lanes.steps).max())

    @staticmethod
    def _spent(state: "typing.Any", alive: "np.ndarray") -> bool:
        """Is every ``alive`` lane's carried state zero?"""
        return not any((part.any(axis=1) & alive).any() for part in state)

    def _idle_step(self, step_rows: "typing.Any", extra: "typing.Any"
                   ) -> tuple:
        """``(lateness, CaptureArrays)`` of :meth:`_step` over
        ``step_rows``, one lane per row, every lane entered idle."""
        return self._step(step_rows, extra,
                          self._zero_state(len(step_rows[0])))[:2]

    def prefix_table(self, rows: "typing.Any") -> PrefixTable:
        """The :class:`PrefixTable` of background ``rows``.

        Steps each block of :data:`_TABLE_BLOCK` background cycles once
        through :meth:`_idle_step`, cycles as lanes — the state machine
        the lanes run.  The counts are int32 whenever every total fits,
        halving the table's memory.
        """
        num_cycles = rows[0].shape[0]
        state = np.empty(num_cycles, dtype=bool)
        counts = np.zeros(
            (num_cycles + 1, len(self.COUNTERS)),
            dtype=(np.int32 if num_cycles * self.num_cols < 2 ** 31
                   else np.int64))
        busy = np.empty(num_cycles, dtype=bool)
        for pos in range(0, num_cycles, _TABLE_BLOCK):
            stop = min(pos + _TABLE_BLOCK, num_cycles)
            _, caps = self._idle_step(
                [column[pos:stop] for column in rows[:-1]], 0)
            state[pos:stop] = self._leaves_state(caps)
            busy[pos:stop] = caps.event.any(axis=1) | state[pos:stop]
            counts[pos + 1:stop + 1] = np.stack(
                self._counter_classes(caps), axis=-1).sum(axis=1)
        np.cumsum(counts, axis=0, out=counts)
        carried, busy_count = np.zeros((2, num_cycles + 1), dtype=np.int64)
        np.cumsum(state, out=carried[1:])
        np.cumsum(busy, out=busy_count[1:])
        return PrefixTable(state=state, carried=carried, busy=busy_count,
                           counts=counts)

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
