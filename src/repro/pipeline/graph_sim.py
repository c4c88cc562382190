"""Cycle-level simulation of a whole timing graph under TIMBER.

The linear :class:`~repro.pipeline.pipeline.PipelineSimulation` studies
one pipe; this simulator runs the *entire* flip-flop graph of a design —
the synthetic processor, or any :class:`~repro.timing.graph.TimingGraph`
— cycle by cycle:

* every register-to-register path is (stochastically) sensitized and
  perturbed by the dynamic-variability model;
* each flip-flop captures with its deployed element (TIMBER at protected
  endpoints, conventional elsewhere) using the analytic capture
  semantics of :mod:`repro.core.masking`;
* the error relay carries selects along the graph's critical edges;
* flags feed the central controller, whose temporary slowdown feeds
  back into the next cycles.

For tractability, only *candidate* edges — those that could possibly
arrive late given the worst borrow plus the variability headroom — are
evaluated per cycle; the rest provably never violate and are skipped.

With numpy available (and ``REPRO_SCALAR_KERNELS`` unset) the candidate
edges are additionally compiled into flat arrays, and the screened walk
shared with the linear pipeline
(:class:`~repro.pipeline.hooks.CycleSimulation`) runs over blocks of
cycles.  Each block's sensitization and idle-state arrival rows are
either evaluated at once or sliced from shared background rows; whole
runs of provably clean cycles are skipped in bulk, and only the cycles
whose screen shows a potentially late edge (plus those carrying
borrow/relay state) go through the dict-based bookkeeping — fed the
precomputed rows, so vector and scalar runs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import obs
from repro.core.checking_period import CheckingPeriod
from repro.core.masking import (
    CaptureOutcome,
    plain_ff_capture,
    timber_ff_capture,
    timber_latch_capture,
)
from repro.errors import ConfigurationError
from repro.kernels.rng import key_id, mix32, split64
from repro.pipeline.controller import CentralErrorController
from repro.pipeline.hooks import (
    CaptureObserver,
    CycleSimulation,
    FaultOverlayLike,
)
from repro.timing.graph import TimingEdge, TimingGraph
from repro.variability.base import ConstantVariation, VariabilityModel

#: Domain-separation salt for the edge-sensitization stream (shared
#: with the vector kernel in :mod:`repro.kernels.graph`).
_SENS_SALT = key_id("graph-sens")

_M32 = 0xFFFFFFFF

# Semantic counters, incremented only inside the shared per-cycle state
# machine (which every violating cycle of both execution modes runs
# through), so scalar and vector runs agree bit-for-bit.  ``tb`` masks
# were absorbed silently in a time-borrowing interval; ``ed`` masks
# reached an error-detection interval and flagged the controller.  The
# fault-lane machine (:mod:`repro.kernels.fault_batch`) bumps the same
# bound series.
OBS_MASKED = obs.REGISTRY.family("repro_graph_masked_total")
OBS_MASKED_TB = OBS_MASKED.labels(interval="tb")
OBS_MASKED_ED = OBS_MASKED.labels(interval="ed")
OBS_RELAYED = obs.REGISTRY.family("repro_graph_relayed_total").labels()
OBS_ESCAPED = obs.REGISTRY.family("repro_graph_escaped_total")
OBS_ESCAPED_PROT = OBS_ESCAPED.labels(protected="yes")
OBS_ESCAPED_UNPROT = OBS_ESCAPED.labels(protected="no")
OBS_RELAY_DEPTH = obs.REGISTRY.family(
    "repro_graph_relay_depth_intervals").labels()


class WorkloadTraceLike(typing.Protocol):
    """Anything exposing a per-cycle sensitization scale."""

    def scale_at(self, cycle: int) -> float:
        ...  # pragma: no cover - protocol


@dataclasses.dataclass
class GraphPipelineResult:
    """Aggregated outcome of a whole-graph simulation run."""

    scheme: str
    cycles: int
    num_ffs: int
    num_protected: int
    candidate_edges: int
    clean_captures: int = 0
    masked: int = 0
    masked_flagged: int = 0
    failed: int = 0
    failed_unprotected: int = 0
    slow_cycles: int = 0
    max_borrow_ps: int = 0
    flags_per_ff: dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def violations(self) -> int:
        return self.masked + self.failed + self.failed_unprotected

    @property
    def masked_fraction(self) -> float:
        if self.violations == 0:
            return 1.0
        return self.masked / self.violations


class GraphPipelineSimulation(CycleSimulation[GraphPipelineResult]):
    """Simulate TIMBER (or nothing) deployed on a timing graph.

    A full run (``start_cycle == 0``) starts from idle carried state; a
    windowed run continues from whatever :meth:`restore` installed.
    """

    SPAN = "graph.run"

    def __init__(
        self,
        graph: TimingGraph,
        *,
        scheme: str,
        percent_checking: float,
        with_tb_interval: bool = True,
        sensitization_prob: float = 0.01,
        variability: VariabilityModel | None = None,
        max_variability_factor: float = 1.15,
        controller: CentralErrorController | None = None,
        trace: "WorkloadTraceLike | None" = None,
        seed: int = 0,
        faults: "FaultOverlayLike | None" = None,
        capture_observer: "CaptureObserver | None" = None,
    ) -> None:
        if scheme not in ("plain", "timber-ff", "timber-latch"):
            raise ConfigurationError(
                f"scheme must be plain/timber-ff/timber-latch, "
                f"got {scheme!r}"
            )
        if not 0 <= sensitization_prob <= 1:
            raise ConfigurationError("sensitization_prob in [0, 1]")
        if max_variability_factor < 1.0:
            raise ConfigurationError("max variability factor >= 1")
        self.graph = graph
        self.period_ps = graph.period_ps
        self.scheme = scheme
        self.seed = seed
        self.sensitization_prob = sensitization_prob
        self.variability = variability or ConstantVariation(1.0)
        self.controller = controller
        #: Optional workload trace scaling the sensitization per cycle.
        self.trace = trace
        #: Optional fault overlay adding extra delay on selected
        #: (cycle, flip-flop) pairs; keys are destination FF names.  The
        #: extra applies only when at least one in-edge was evaluated —
        #: a fault on a path no data traversed this cycle is benign.
        self.faults = faults
        #: Optional callback invoked for every violating capture as
        #: ``observer(cycle, ff_name, outcome, lateness_ps)``.
        self.capture_observer = capture_observer
        if with_tb_interval:
            self.cp = CheckingPeriod.with_tb(graph.period_ps,
                                             percent_checking)
        else:
            self.cp = CheckingPeriod.without_tb(graph.period_ps,
                                                percent_checking)
        # Protected set and relay adjacency come from the graph's
        # memoized criticality view (built once per graph, shared with
        # relay pricing) instead of per-simulation edge rescans.  A
        # critical edge's source that is protected is by construction a
        # through FF, so the view's relay map is exactly the old
        # "critical in-edge from a protected source" adjacency.
        view = graph.criticality().view(percent_checking)
        self.protected = (set() if scheme == "plain"
                          else set(view.endpoints))
        self._relay_srcs: dict[str, list[str]] = {
            ff: list(view.relay_srcs.get(ff, ()))
            for ff in self.protected
        }
        # Candidate edges: could the arrival ever exceed the period?
        # worst case = max borrow carried in + delay * max variability.
        max_borrow = self.cp.checking_ps if self.protected else 0
        self._candidates: dict[str, list[TimingEdge]] = {}
        for ff in graph.ffs:
            edges = [
                e for e in graph.in_edges(ff)
                if max_borrow + e.delay_ps * max_variability_factor
                > graph.period_ps
            ]
            if edges:
                self._candidates[ff] = edges
        # Hot-loop precomputation: per-edge sensitization key ids and
        # variability path names (interned once, never rebuilt per
        # cycle), flat-indexed so the vector kernel and the scalar loop
        # address the same rows.
        self._seed_lanes = split64(seed)
        self._edge_sens_id: dict[TimingEdge, int] = {}
        self._rows: list[tuple[str, list[tuple[int, TimingEdge, int,
                                               str]]]] = []
        flat = 0
        for ff, edges in self._candidates.items():
            entries = []
            for edge in edges:
                sens_id = key_id(f"{edge.src}->{edge.dst}#{edge.delay_ps}")
                self._edge_sens_id[edge] = sens_id
                entries.append((flat, edge, sens_id,
                                f"{edge.src}->{edge.dst}"))
                flat += 1
            self._rows.append((ff, entries))
        self._num_edges = flat
        self._sens_threshold = int(self.sensitization_prob * 2**32)
        self._compiled = None
        # Inter-cycle carried state (borrowed launch offsets and relay
        # selects by FF name).  Reset at the top of every full run;
        # windowed runs (``start_cycle > 0``) continue from whatever a
        # :meth:`restore` installed.
        self._borrow: dict[str, int] = {}
        self._select_out: dict[str, int] = {}

    # -- per-cycle machinery -----------------------------------------------
    def _sens_threshold_at(self, cycle: int) -> int:
        """Integer sensitization threshold in effect on ``cycle``.

        Computed once per cycle (not per edge): the workload trace only
        depends on the cycle, so every edge shares the threshold.
        """
        if self.trace is None:
            return self._sens_threshold
        probability = min(
            1.0, self.sensitization_prob * self.trace.scale_at(cycle))
        return int(probability * 2**32)

    def _edge_sensitized(self, cycle: int, sens_id: int,
                         threshold: int) -> bool:
        lo, hi = self._seed_lanes
        digest = mix32(_SENS_SALT, lo, hi, cycle & _M32, cycle >> 32,
                       sens_id)
        return digest < threshold

    def _sensitized(self, cycle: int, edge: TimingEdge) -> bool:
        return self._edge_sensitized(cycle, self._edge_sens_id[edge],
                                     self._sens_threshold_at(cycle))

    def _capture(self, lateness: int, select_in: int) -> CaptureOutcome:
        if self.scheme == "timber-ff":
            return timber_ff_capture(lateness, select_in, self.cp)
        if self.scheme == "timber-latch":
            return timber_latch_capture(lateness, self.cp)
        return plain_ff_capture(lateness)

    # -- run hooks -------------------------------------------------------
    def _start_run(self, start_cycle: int) -> None:
        if start_cycle == 0:
            self._borrow = {}
            self._select_out = {}

    def _new_result(self, cycles: int) -> GraphPipelineResult:
        return GraphPipelineResult(
            scheme=self.scheme,
            cycles=cycles,
            num_ffs=self.graph.num_ffs,
            num_protected=len(self.protected),
            candidate_edges=self._num_edges,
        )

    def _finish(self, result: GraphPipelineResult) -> None:
        # Captures that saw no (evaluated) violation were clean.
        result.clean_captures = (result.cycles * self.graph.num_ffs
                                 - result.violations)

    def _state(self):
        return (dict(self._borrow), dict(self._select_out))

    def _install(self, state) -> None:
        borrow, select_out = state
        self._borrow = dict(borrow)
        self._select_out = dict(select_out)

    # -- per-cycle state machine -----------------------------------------
    def _simulate_cycle(self, cycle: int, result: GraphPipelineResult,
                        block=None, k: int = 0) -> None:
        """One cycle of arrival/capture/relay bookkeeping.

        ``block`` optionally supplies the vector kernel's
        :meth:`_block`, whose rows ``k`` hold this cycle's precomputed
        per-edge sensitization and arrival; ``None`` computes them per
        edge (the scalar reference).
        """
        sens_row = arrival_row = None
        if block is not None:
            sens_row, arrival_row = block[0][k], block[1][k]
        period = self._period_at(cycle)
        if period > self.period_ps:
            result.slow_cycles += 1
        borrow, select_out = self._borrow, self._select_out
        threshold = (self._sens_threshold_at(cycle)
                     if sens_row is None else 0)
        new_borrow: dict[str, int] = {}
        new_select_out: dict[str, int] = {}
        cycle_flagged = False
        for ff, entries in self._rows:
            lateness = None
            for flat, edge, sens_id, path in entries:
                launch_offset = borrow.get(edge.src, 0)
                if launch_offset == 0:
                    sensitized = (bool(sens_row[flat])
                                  if sens_row is not None
                                  else self._edge_sensitized(
                                      cycle, sens_id, threshold))
                    if not sensitized:
                        continue
                base = (int(arrival_row[flat])
                        if arrival_row is not None
                        else int(round(edge.delay_ps
                                       * self.variability.factor(cycle,
                                                                 path))))
                late = launch_offset + base - period
                if lateness is None or late > lateness:
                    lateness = late
            if lateness is None:
                continue
            if self.faults is not None:
                # Same reasoning as the linear pipeline: the vector
                # kernel's rows are fault-free and overlay-active
                # cycles always replay here, so adding the extra in
                # the scalar state machine keeps both paths bit-equal.
                lateness += self.faults.extra_delay_ps(cycle, ff)
            if lateness <= 0:
                continue
            if ff in self.protected:
                select_in = max(
                    (select_out.get(src, 0)
                     for src in self._relay_srcs.get(ff, ())),
                    default=0,
                )
                outcome = self._capture(lateness, select_in)
            else:
                outcome = plain_ff_capture(lateness)
            if self.capture_observer is not None:
                # Every outcome here is a violation (lateness > 0), so
                # the observer stream matches the non-clean-only
                # contract shared with the vector path.
                self.capture_observer(cycle, ff, outcome, lateness)
            if outcome.masked:
                result.masked += 1
                new_borrow[ff] = outcome.borrowed_ps
                result.max_borrow_ps = max(result.max_borrow_ps,
                                           outcome.borrowed_ps)
                if outcome.borrowed_intervals:
                    new_select_out[ff] = outcome.borrowed_intervals
                    OBS_RELAY_DEPTH.observe(outcome.borrowed_intervals)
                    if outcome.borrowed_intervals >= 2:
                        OBS_RELAYED.inc()
                if outcome.flagged:
                    OBS_MASKED_ED.inc()
                    result.masked_flagged += 1
                    cycle_flagged = True
                    result.flags_per_ff[ff] = (
                        result.flags_per_ff.get(ff, 0) + 1)
                else:
                    OBS_MASKED_TB.inc()
            elif outcome.failed:
                if ff in self.protected:
                    result.failed += 1
                    OBS_ESCAPED_PROT.inc()
                else:
                    result.failed_unprotected += 1
                    OBS_ESCAPED_UNPROT.inc()
        if cycle_flagged and self.controller is not None:
            self.controller.notify_flag(cycle)
        self._borrow, self._select_out = new_borrow, new_select_out

    # -- screened walk hooks ---------------------------------------------
    def _idle(self) -> bool:
        """No borrow or relay select carried into the next cycle."""
        return not self._borrow and not self._select_out

    @property
    def _walk(self):
        from repro.kernels.graph import WALK

        return WALK

    def _block(self, pos: int, count: int):
        """Fault-free ``(sens, arrival, interesting)`` for ``count``
        cycles.

        ``interesting`` is :meth:`_screen` at the *nominal* period: a
        slowdown only makes arrivals less late, so it marks a superset
        of the cycles with any idle-state violation.  The walk screens
        the hits inside a slowdown window again at the slowed period.
        """
        import numpy as np

        from repro.kernels.graph import CompiledEdges

        if self._compiled is None:
            self._compiled = CompiledEdges.for_entries(
                [(edge.delay_ps,
                  f"{edge.src}->{edge.dst}#{edge.delay_ps}", path)
                 for _, entries in self._rows
                 for _, edge, _, path in entries],
                self.seed,
            )
        cycles = np.arange(pos, pos + count, dtype=np.int64)
        if self.trace is None:
            thresholds = np.full(count, self._sens_threshold,
                                 dtype=np.int64)
        else:
            thresholds = np.array(
                [self._sens_threshold_at(cycle)
                 for cycle in range(pos, pos + count)], dtype=np.int64)
        sens, arrival = self._compiled.block(cycles, self.variability,
                                             thresholds)
        return sens, arrival, self._screen((sens, arrival),
                                           self.period_ps)

    def _screen(self, rows, period_ps: int):
        """Cycles of ``rows`` with any idle-state violation at
        ``period_ps``."""
        from repro.kernels.graph import screen_block

        sens, arrival = rows
        return screen_block(sens, arrival, period_ps)
