"""Error-relay logic: behaviour and cost (paper Secs. 5.1 and 6).

The TIMBER flip-flop borrows *discrete* intervals, so a downstream
flip-flop must be told how many intervals its fanin already borrowed.
The relay contract:

* each TIMBER flip-flop ``g`` produces ``select_out = 0`` if it saw no
  error this cycle, else ``select_in(g) + 1``;
* each TIMBER flip-flop ``f`` receives
  ``select_in(f) = max(select_out(g_1), ..., select_out(g_m))`` over the
  TIMBER flip-flops in its fanin cone;
* the relay must settle between the falling clock edge (when all M1
  samples of the cycle are complete) and the next rising edge — half a
  clock period.

Only fanin flip-flops that are both start- *and* end-points of critical
paths can ever present a non-zero select, so the max-tree at ``f`` only
needs those inputs — the structural reason the relay is cheap (Fig. 8(i)).

:class:`ErrorRelay` implements the behaviour for event-driven simulation;
:func:`relay_cost` prices the relay network for a
:class:`~repro.timing.graph.TimingGraph`.
"""

from __future__ import annotations

import collections
import dataclasses
import math

from repro import obs
from repro.circuit.logic import Logic
from repro.errors import ConfigurationError
from repro.sequential.timber_ff import TimberFlipFlop
from repro.sim.engine import Simulator
from repro.timing.graph import TimingGraph
from repro.units import as_percent

# Event-driven relay activity (deterministic: the simulator is).  Only
# non-zero selects count — an idle relay applying zeros is the
# error-free common case and would swamp the signal.
_OBS_SELECTS = obs.REGISTRY.family(
    "repro_relay_selects_applied_total").labels()
_OBS_SELECT_DEPTH = obs.REGISTRY.family(
    "repro_relay_select_depth_intervals").labels()

#: Gate-equivalents of one 2-bit max node (comparator + 2:1 muxes).
MAX_NODE_AREA = 7.0
#: Gate-equivalents of the select-increment logic at one through-FF.
INCREMENT_AREA = 4.0
#: Gate-equivalents of the per-FF error latch & flag logic.
FLAG_AREA = 3.0
#: Propagation delay of one 2-bit max node (two gate levels).
MAX_NODE_DELAY_PS = 40
#: Delay of the select-increment logic.
INCREMENT_DELAY_PS = 30
#: Leakage per gate-equivalent of relay logic, in the same abstract power
#: units as the cell library.  Relay inputs are all-zero in error-free
#: operation, so the relay contributes (almost) only static power.
RELAY_LEAKAGE_PER_AREA = 1.0


class ErrorRelay:
    """Event-driven select relay between TIMBER flip-flops.

    ``connections`` maps each destination flip-flop to the list of TIMBER
    flip-flops in its fanin cone.  On every falling clock edge the relay
    samples the sources' ``select_out`` values and, ``relay_delay_ps``
    later, applies the max to each destination's ``select_in``.

    ``applied`` keeps the most recent ``history_limit`` applications as
    ``(time_ps, dst_name, select)`` entries.  The bound exists because
    the relay applies one entry per destination per falling edge — an
    unbounded log is a memory leak over soak-length runs; pass ``None``
    to opt in to a full history, or ``0`` to keep none.
    """

    #: Default number of ``applied`` entries retained.
    DEFAULT_HISTORY_LIMIT = 1024

    def __init__(
        self,
        simulator: Simulator,
        clk: str,
        connections: dict[TimberFlipFlop, list[TimberFlipFlop]],
        *,
        relay_delay_ps: int = 100,
        history_limit: int | None = DEFAULT_HISTORY_LIMIT,
    ) -> None:
        if relay_delay_ps < 0:
            raise ConfigurationError("relay delay must be >= 0")
        if history_limit is not None and history_limit < 0:
            raise ConfigurationError("history limit must be >= 0 or None")
        self.simulator = simulator
        self.connections = connections
        self.relay_delay_ps = relay_delay_ps
        self.applied: "collections.deque[tuple[int, str, int]]" = (
            collections.deque(maxlen=history_limit))
        simulator.on_change(clk, self._on_clk)

    def _on_clk(self, sim: Simulator, _signal: str, value: Logic,
                _time_ps: int) -> None:
        if value is not Logic.ZERO:
            return
        # Sample at the falling edge; apply after the relay logic delay.
        snapshot = {
            dst: max((src.select_out for src in srcs), default=0)
            for dst, srcs in self.connections.items()
        }

        def apply(sim_inner: Simulator) -> None:
            for dst, select in snapshot.items():
                dst.set_select(select)
                self.applied.append((sim_inner.now, dst.name, select))
                if select:
                    _OBS_SELECTS.inc()
                    _OBS_SELECT_DEPTH.observe(select)

        sim.after(self.relay_delay_ps, apply, label="relay.apply")


@dataclasses.dataclass(frozen=True)
class RelayCost:
    """Cost summary of the relay network for one deployment."""

    percent_threshold: float
    num_protected_ffs: int
    num_through_ffs: int
    num_relayed_inputs: int
    num_max_nodes: int
    area: float
    leakage: float
    worst_fanin: int
    worst_depth_levels: int
    worst_delay_ps: int

    def timing_slack_percent(self, period_ps: int) -> float:
        """Relay slack as % of its half-clock-period budget (Fig. 8(i-b))."""
        budget = period_ps // 2
        return as_percent(budget - self.worst_delay_ps, budget)

    def meets_budget(self, period_ps: int) -> bool:
        return self.worst_delay_ps <= period_ps // 2


def relay_cost(graph: TimingGraph, percent: float) -> RelayCost:
    """Price the relay network when protecting top-``percent``% endpoints.

    Every critical endpoint gets a TIMBER flip-flop (flag logic).  Only
    endpoints with critical fanin launched by *through* FFs need a
    max-tree; through FFs additionally carry increment logic.  All
    counts come from the graph's memoized criticality view — one index
    build per graph instead of the former two full edge scans per
    endpoint.
    """
    view = graph.criticality().view(percent)
    endpoints = view.endpoints
    through = view.through

    num_max_nodes = 0
    num_relayed = 0
    worst_fanin = 0
    for ff in endpoints:
        fanin = view.fanin_count(ff)
        num_relayed += fanin
        if fanin > 1:
            num_max_nodes += fanin - 1
        worst_fanin = max(worst_fanin, fanin)

    area = (
        num_max_nodes * MAX_NODE_AREA
        + len(through) * INCREMENT_AREA
        + len(endpoints) * FLAG_AREA
    )
    worst_depth = math.ceil(math.log2(worst_fanin)) if worst_fanin > 1 else 0
    worst_delay = worst_depth * MAX_NODE_DELAY_PS + (
        INCREMENT_DELAY_PS if worst_fanin > 0 else 0
    )
    return RelayCost(
        percent_threshold=percent,
        num_protected_ffs=len(endpoints),
        num_through_ffs=len(through),
        num_relayed_inputs=num_relayed,
        num_max_nodes=num_max_nodes,
        area=area,
        leakage=area * RELAY_LEAKAGE_PER_AREA,
        worst_fanin=worst_fanin,
        worst_depth_levels=worst_depth,
        worst_delay_ps=worst_delay,
    )
