"""The screened block walk of the cycle simulators, and its helpers.

Both cycle simulators (:class:`~repro.pipeline.hooks.CycleSimulation`)
run their vector path through one walk, :func:`screened_walk`, over a
cycle window ``[start, stop)``.  The walk takes a block of fault-free
rows — sliced from shared background rows, or freshly evaluated by the
simulator's ``_block`` — retires runs of provably-clean cycles in bulk
while the carried state is idle, and drops every other cycle to the
simulator's scalar state machine.  The helpers only it uses live here
too:

* :class:`BlockSizer` — adapts the block length to the fraction of
  cycles the walk actually replayed, so an error storm does not waste
  large array evaluations that immediately degenerate to scalar
  stepping, while a quiet workload amortizes the numpy call overhead
  over big blocks.
* :func:`block_spans` — the blocked advance over ``[start, stop)``,
  re-reading the sizer each step.
* :func:`replay_points` — the cycles of a block the walk must replay
  even from an idle state: the screen's hits plus the fault overlay's
  active cycles.
* :class:`WalkCounters` — the ``repro_kernel_cycles_*`` counters,
  bumped once per walked block.
* :func:`stitch_rows` — a simulator's background rows over
  ``[0, num_cycles)``, built from :data:`MAX_BLOCK`-cycle blocks.
* :func:`slow_cycles_between` and :func:`window_at` — exact count of
  slowed cycles inside a bulk-skipped range, and the window covering a
  cycle, by bisecting the controller's (non-overlapping, sorted)
  slowdown windows instead of calling ``period_at`` per cycle.
"""

from __future__ import annotations

import bisect
import typing

from repro import obs

if typing.TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.pipeline.controller import SlowdownWindow
    from repro.pipeline.hooks import CycleSimulation, FaultOverlayLike

#: Block-length bounds for the adaptive sizer.
MIN_BLOCK = 64
MAX_BLOCK = 8192

#: Replayed-cycle fraction above which blocks shrink (mostly-scalar
#: workload) and below which they grow (mostly-clean workload).
DENSE = 0.25
SPARSE = 0.02


class BlockSizer:
    """Adaptive block length for the screened walk."""

    def __init__(self, initial: int = 1024) -> None:
        self.size = max(MIN_BLOCK, min(MAX_BLOCK, initial))

    def update(self, replayed_fraction: float) -> None:
        """Adapt to the fraction of cycles replayed in the last block."""
        if replayed_fraction > DENSE:
            self.size = max(MIN_BLOCK, self.size // 2)
        elif replayed_fraction < SPARSE:
            self.size = min(MAX_BLOCK, self.size * 2)


def block_spans(
    start: int,
    stop: int,
    sizer: BlockSizer,
) -> "typing.Iterator[tuple[int, int]]":
    """Yield ``(pos, count)`` blocks covering cycles ``[start, stop)``.

    The sizer is consulted lazily at each step, so ``sizer.update``
    calls made by the consumer between blocks take effect on the next
    span.  Full runs from cycle 0 and windowed runs forked from a
    trajectory snapshot advance through this one generator.
    """
    pos = start
    while pos < stop:
        count = min(sizer.size, stop - pos)
        yield pos, count
        pos += count


def replay_points(
    interesting: "np.ndarray",
    pos: int,
    faults: "FaultOverlayLike | None",
) -> list[int]:
    """Block-relative cycles a walk replays even from an idle state.

    ``interesting`` is the screen of the block starting at cycle
    ``pos``.  The screen sees only the fault-free rows, so the
    overlay's active cycles inside the block are forced in.  Sorted.
    """
    points = interesting.nonzero()[0].tolist()
    if faults is None:
        return points
    forced = faults.active_cycles_between(pos, pos + len(interesting))
    if not forced:
        return points
    return sorted(set(points).union(cycle - pos for cycle in forced))


# Vector-path internals (``repro_kernel_`` namespace: zero on scalar
# runs, excluded from cross-mode byte-identity checks).
_SCREENED = obs.REGISTRY.family("repro_kernel_cycles_screened_total")
_REPLAYED = obs.REGISTRY.family("repro_kernel_cycles_replayed_total")
_BATCH = obs.REGISTRY.family("repro_kernel_batch_cycles")


class WalkCounters:
    """One kernel's walk counters, bound once, bumped once per block.

    Every walked cycle lands in exactly one series: ``screened`` (retired
    in bulk, screen hits found clean at the slowed period included),
    ``replayed{reason="screen"}`` (a replay point: screen hit or forced
    fault cycle) or ``replayed{reason="carryover"}`` (a clean screen,
    replayed because borrow or relay state carried over from a
    violating predecessor).  Background-row builds walk nothing.
    """

    def __init__(self, kernel: str) -> None:
        self._screened = _SCREENED.labels(kernel=kernel)
        self._screen = _REPLAYED.labels(kernel=kernel, reason="screen")
        self._carryover = _REPLAYED.labels(kernel=kernel,
                                           reason="carryover")
        self._batch = _BATCH.labels(kernel=kernel)

    def block(self, count: int, points: int, replayed: int) -> None:
        """Account a walked block of ``count`` cycles with ``points``
        replay points, ``replayed`` of its cycles replayed in all."""
        self._screened.inc(count - replayed)
        self._screen.inc(points)
        self._carryover.inc(replayed - points)
        self._batch.observe(count)


def stitch_rows(
    block: "typing.Callable[[int, int], tuple]",
    num_cycles: int,
) -> tuple:
    """``block(pos, count)`` over ``[0, num_cycles)``, concatenated.

    The blocks are :data:`MAX_BLOCK` cycles long and every row is a pure
    function of its absolute cycle, so row ``c`` of each returned
    column equals what a walk's own ``block`` call gives for cycle
    ``c``.
    """
    import numpy as np

    parts = [block(pos, min(MAX_BLOCK, num_cycles - pos))
             for pos in range(0, num_cycles, MAX_BLOCK)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _first_window_ending_after(
    windows: "typing.Sequence[SlowdownWindow]",
    cycle: int,
) -> int:
    """Index of the first window with ``end_cycle > cycle``.

    The windows are sorted and disjoint, so their ends are sorted too.
    """
    return bisect.bisect_right(windows, cycle,
                               key=lambda window: window.end_cycle)


def window_at(
    windows: "typing.Sequence[SlowdownWindow]",
    cycle: int,
) -> "SlowdownWindow | None":
    """The slowdown window covering ``cycle``, or ``None``."""
    index = _first_window_ending_after(windows, cycle)
    if index < len(windows) and windows[index].start_cycle <= cycle:
        return windows[index]
    return None


def slow_cycles_between(
    windows: "typing.Sequence[SlowdownWindow]",
    start: int,
    stop: int,
) -> int:
    """Cycles of ``[start, stop)`` covered by any slowdown window.

    ``notify_flag`` merges adjacent episodes, so the windows are sorted
    and disjoint: the overlaps simply add up, and only the windows from
    the first one ending after ``start`` can overlap.
    """
    total = 0
    for index in range(_first_window_ending_after(windows, start),
                       len(windows)):
        window = windows[index]
        if window.start_cycle >= stop:
            break
        total += min(stop, window.end_cycle) - max(start, window.start_cycle)
    return total


def _relax(
    sim: "CycleSimulation",
    block: tuple,
    pos: int,
    points: list[int],
    nxt: int,
    slowed: "dict[int, list[int]]",
) -> int:
    """The first cycle from replay point ``nxt`` on that an idle walk
    must replay at the period in effect.

    A point inside a slowdown window is screened again at the window's
    (longer) period, from ``slowed``, the block's replay points per
    slowed period, built on first use.  A point that is clean there
    leaves an idle machine idle, raises no flag and changes no window,
    so the walk can retire it with the clean run around it.  The slowed
    points go through :func:`replay_points` too, so fault cycles are
    never relaxed.
    """
    windows = sim.controller.windows
    count = len(block[-1])
    while nxt < count:
        window = window_at(windows, pos + nxt)
        if window is None:
            return nxt
        period = sim.controller.period_at(pos + nxt)
        must = slowed.get(period)
        if must is None:
            must = slowed[period] = replay_points(
                sim._screen(block[:-1], period), pos, sim.faults)
        end = min(count, window.end_cycle - pos)
        index = bisect.bisect_left(must, nxt)
        if index < len(must) and must[index] < end:
            return must[index]
        index = bisect.bisect_left(points, end)
        nxt = points[index] if index < len(points) else count
    return nxt


def screened_walk(
    sim: "CycleSimulation",
    start: int,
    stop: int,
    result: typing.Any,
    rows: "tuple | None",
) -> None:
    """Walk ``sim`` over cycles ``[start, stop)`` in screened blocks.

    Each block's rows are sliced from the caller's shared ``rows`` (see
    ``background_rows``) or evaluated by ``sim._block``.  While the
    machine is idle, the walk retires the clean run up to the next
    replay point in bulk — its slowed cycles here, the rest through
    ``sim._retire_clean``; every other cycle replays through
    ``sim._simulate_cycle``, fed the block and its index in it.  The
    block screen uses the nominal period; with a controller attached,
    a replay point inside a slowdown window is screened again at the
    slowed period (:func:`_relax`) and retired with the run when clean
    there.
    """
    controller = sim.controller
    simulate = sim._simulate_cycle
    idle = sim._idle
    walk = sim._walk
    sizer = BlockSizer()
    for pos, count in block_spans(start, stop, sizer):
        block = (sim._block(pos, count) if rows is None
                 else tuple(column[pos:pos + count] for column in rows))
        points = replay_points(block[-1], pos, sim.faults)
        slowed: dict[int, list[int]] = {}
        point = replayed = relaxed = k = 0
        while k < count:
            if idle():
                point = bisect.bisect_left(points, k, point)
                nxt = points[point] if point < len(points) else count
                if controller is not None and nxt < count:
                    nxt = _relax(sim, block, pos, points, nxt, slowed)
                if nxt > k:
                    slow = (slow_cycles_between(controller.windows,
                                                pos + k, pos + nxt)
                            if controller is not None else 0)
                    result.slow_cycles += slow
                    sim._retire_clean(result, nxt - k, slow)
                    skipped = bisect.bisect_left(points, nxt, point)
                    relaxed += skipped - point
                    point = skipped
                    k = nxt
                    if k >= count:
                        break
            simulate(pos + k, result, block, k)
            replayed += 1
            k += 1
        walk.block(count, len(points) - relaxed, replayed)
        # Size on the cycles actually replayed: carryover replays
        # escape the screen, and an error storm that degrades to
        # scalar stepping should shrink the blocks.
        sizer.update(replayed / count)
