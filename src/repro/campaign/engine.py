"""Campaign execution: per-fault simulation plus exec-layer fan-out.

A campaign slices its seeded fault population into chunks, wraps every
chunk as a :class:`~repro.exec.runner.SweepTask` (so it flows through
the cache / retry / checkpoint machinery like any other sweep), and
each worker re-generates the population deterministically, simulates
every fault, and classifies the observed capture events.  The chunk is
the unit of checkpoint, cache and retry; evaluation follows the exec
layer's dispatch batch instead: the task's batch form
(:func:`campaign_chunks`) draws, sets up and classifies a whole batch
of chunks at once and splits the results back per chunk.

Three targets are supported:

* ``pipeline`` — :class:`~repro.pipeline.pipeline.PipelineSimulation`
  with any registered architecture (``plain``, ``timber-ff``,
  ``razor``, ``canary``, ...);
* ``graph`` — :class:`~repro.pipeline.graph_sim.
  GraphPipelineSimulation` on a synthetic near-critical chain
  (``plain`` / ``timber-ff`` / ``timber-latch``);
* ``netlist`` — the event-driven simulator with behavioural elements
  (:class:`~repro.sequential.timber_ff.TimberFlipFlop` vs
  :class:`~repro.sequential.flipflop.DFlipFlop`) and real
  :class:`~repro.sim.faults.FaultInjector` pulses (``seu`` / ``delay``
  kinds only — droop and correlated slowdowns are cycle-level notions).

Every fault runs with variability pinned to 1.0, so the only
violations (canary's intentional guard-band predictions aside) are the
injected ones — attribution is exact, and the per-fault event stream
is bit-identical between the scalar and vector kernel paths because
injected cycles always replay through the scalar state machine (see
:mod:`repro.pipeline.hooks`).

Cycle-level targets evaluate faults by **snapshot forking**: the
fault-free background is built once per configuration and kernel mode
into one warm entry (:mod:`repro.campaign.trajectory`, warm-cache kind
``"trajectory"``) — its stride snapshots and, with the vector kernels,
its background rows and the lane machine's prefix table — and each
fault restores the nearest stride snapshot at or before its
injection cycle and simulates only ``[snapshot, window_end]`` instead
of the whole prefix from cycle 0 — O(window) per fault instead of
O(num_cycles).  One evaluator serves both cycle-level targets: it
batches every lane it can prove equivalent through the lane machine
(:mod:`repro.kernels.fault_batch`) and replays the rest one fork at a
time.  Faults travel that path as columns: a chunk is drawn as one
:class:`~repro.campaign.faults.FaultColumns` block, planned and run as
arrays, and folded into an :class:`~repro.campaign.outcomes.
OutcomeColumns` block, which stays columns through the report, the
result store and the soak journal.  :class:`FaultSpec` and
:class:`~repro.campaign.outcomes.FaultOutcome` records are built only
for forked replays and the netlist target.  The full-run evaluators
live in :mod:`repro.campaign.reference` as the executable spec both
paths are pinned against (hypothesis properties and a golden campaign
capture); no runtime path imports them.  The netlist target has no
cycle-level carried-state snapshot and simulates every fault from time
0 (its stimulus is rebuilt per fault anyway).
"""

from __future__ import annotations

import dataclasses
import itertools
import time
import typing

import numpy as np

from repro import kernels, obs
from repro.baselines.architectures import architecture_by_key
from repro.campaign.faults import (
    FAULT_KINDS,
    FaultColumns,
    FaultOverlay,
    FaultSpec,
    check_population,
    iter_population,
    population_columns,
)
from repro.campaign.trajectory import build_trajectory, trajectory_rows_for
from repro.campaign.outcomes import (
    FOLDED,
    SEVERITY_LADDER,
    CaptureEvent,
    FaultOutcome,
    OutcomeColumns,
    outcome_from_events,
)
from repro.core.checking_period import CheckingPeriod
from repro.errors import ConfigurationError
from repro.exec.runner import (
    SweepRunner,
    SweepTask,
    TaskPayload,
    derive_seed,
    task_key,
)
from repro.variability.base import ConstantVariation

#: Dotted task-function name (module-level, worker-importable).
CAMPAIGN_TASK = "repro.campaign.engine:campaign_chunk_task"

_TARGETS = ("pipeline", "graph", "netlist")

#: Kinds with an event-driven (pulse/transition) realisation.
_NETLIST_KINDS = ("seu", "delay")

# Per-fault observability.  The outcome counter is semantic (classes
# are a pure function of the seeded population and the simulators);
# the latency histogram is wall-clock, hence the ``_seconds`` suffix
# that excludes it from determinism checks.
_OBS_OUTCOMES = obs.REGISTRY.counter(
    "repro_campaign_outcomes_total",
    "Classified fault outcomes",
    labelnames=("target", "scheme", "classification"))
_OBS_FAULT_SECONDS = obs.REGISTRY.histogram(
    "repro_campaign_fault_seconds",
    "Wall time to simulate and classify one fault",
    buckets=(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
             0.25, 0.5, 1.0)).labels()
# Snapshot-fork effectiveness: prefix cycles the fork skipped (the
# work the full-run path would have re-simulated) and the length of
# each actually-simulated fork window.
_OBS_PREFIX_SAVED = obs.REGISTRY.counter(
    "repro_campaign_prefix_cycles_saved_total",
    "Fault-free prefix cycles skipped by forking from a trajectory "
    "snapshot").labels()
_OBS_FORK_WINDOW = obs.REGISTRY.histogram(
    "repro_campaign_fork_window_cycles",
    "Cycles simulated per snapshot-forked fault evaluation",
    buckets=(8, 16, 32, 64, 128, 256, 512, 1024, 2048)).labels()


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines one campaign (JSON-able, seed included).

    ``num_cycles`` bounds the cycle range faults land in; every fault
    simulates only up to its own window end, so the per-fault cost is
    independent of the population spread.
    """

    target: str = "pipeline"
    scheme: str = "timber-ff"
    num_faults: int = 1000
    num_cycles: int = 2000
    period_ps: int = 1000
    checking_percent: float = 30.0
    num_stages: int = 5
    sensitization_prob: float = 0.4
    seed: int = 2010
    faults_per_task: int = 25
    kinds: tuple[str, ...] = FAULT_KINDS
    magnitude_range_ps: tuple[int, int] = (20, 220)
    relay_horizon: int = 4
    #: Cycle distance between the background trajectory's snapshots.
    #: Smaller strides shorten fork windows but cost more snapshot
    #: memory; the default keeps windows a few hundred cycles.
    snapshot_stride: int = 256

    def __post_init__(self) -> None:
        if self.target not in _TARGETS:
            raise ConfigurationError(
                f"target must be one of {_TARGETS}, got {self.target!r}")
        if self.faults_per_task < 1:
            raise ConfigurationError("faults_per_task must be >= 1")
        if self.num_stages < 2:
            raise ConfigurationError("need at least two stages")
        if self.relay_horizon < 1:
            raise ConfigurationError("relay_horizon must be >= 1")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be >= 1")
        if self.target == "pipeline":
            try:
                architecture_by_key(self.scheme)
            except KeyError as error:
                raise ConfigurationError(str(error)) from error
        elif self.target == "graph":
            if self.scheme not in ("plain", "timber-ff", "timber-latch"):
                raise ConfigurationError(
                    f"graph campaigns support plain/timber-ff/"
                    f"timber-latch, got {self.scheme!r}")
        elif self.scheme not in ("plain", "timber-ff"):
            raise ConfigurationError(
                f"netlist campaigns support plain/timber-ff, "
                f"got {self.scheme!r}")
        # Everything a worker would otherwise trip over mid-run: the
        # population's draw parameters and the checking period.
        check_population(
            num_faults=self.num_faults, sites=self.sites(),
            num_cycles=self.num_cycles, kinds=self.effective_kinds(),
            magnitude_range_ps=self.magnitude_range_ps)
        self.checking_period

    # -- derived ---------------------------------------------------------
    @property
    def checking_period(self) -> CheckingPeriod:
        return CheckingPeriod.with_tb(self.period_ps,
                                      self.checking_percent)

    @property
    def margin_ps(self) -> int:
        """The recovered margin ``t = c/k`` the report is keyed to."""
        return self.checking_period.interval_ps

    def sites(self) -> list[str]:
        """Ordered injection sites of this campaign's target."""
        if self.target == "pipeline":
            return [f"cs{i}" for i in range(self.num_stages)]
        if self.target == "graph":
            # g0 only launches; faults land on capturing flip-flops.
            return [f"g{i}" for i in range(1, self.num_stages + 1)]
        return ["d"]

    def effective_kinds(self) -> tuple[str, ...]:
        if self.target != "netlist":
            return tuple(self.kinds)
        allowed = tuple(k for k in self.kinds if k in _NETLIST_KINDS)
        return allowed or _NETLIST_KINDS

    def _population_args(self) -> dict:
        return dict(sites=self.sites(), num_cycles=self.num_cycles,
                    seed=self.seed, kinds=self.effective_kinds(),
                    magnitude_range_ps=self.magnitude_range_ps)

    def _check_stop(self, stop: int | None) -> int:
        stop = self.num_faults if stop is None else stop
        if stop > self.num_faults:
            raise ConfigurationError(
                f"stop {stop} past population end {self.num_faults}")
        return stop

    def iter_population(self, start: int = 0,
                        stop: int | None = None
                        ) -> typing.Iterator[FaultSpec]:
        """Stream faults ``[start, stop)`` — counter-based, so any
        slice is byte-identical to the same range of the full
        population, and workers never materialize more than their own
        chunk."""
        return iter_population(num_faults=self._check_stop(stop),
                               start=start, **self._population_args())

    def fault_columns(self, start: int = 0,
                      stop: int | None = None) -> FaultColumns:
        """Faults ``[start, stop)`` as one column block — the same
        faults :meth:`iter_population` streams, drawn as arrays for the
        batched evaluator."""
        return population_columns(num_faults=self._check_stop(stop),
                                  start=start, **self._population_args())

    def population(self) -> list[FaultSpec]:
        return list(self.iter_population())

    def background_params(self) -> dict:
        """Everything the fault-free background trajectory depends on.

        The content-hash key of warm-cache kind ``"trajectory"`` (with
        the kernel mode) — any change to these parameters hashes to a
        new key, so stale trajectories can never alias.
        Fault and chunking parameters are deliberately absent: the
        background is fault-free and shared by the whole population.
        """
        return {
            "target": self.target,
            "scheme": self.scheme,
            "num_cycles": self.num_cycles,
            "period_ps": self.period_ps,
            "checking_percent": self.checking_percent,
            "num_stages": self.num_stages,
            "sensitization_prob": self.sensitization_prob,
            "seed": self.seed,
            "snapshot_stride": self.snapshot_stride,
        }

    # -- (de)serialisation ----------------------------------------------
    def to_params(self) -> dict:
        params = dataclasses.asdict(self)
        params["kinds"] = list(self.kinds)
        params["magnitude_range_ps"] = list(self.magnitude_range_ps)
        return params

    @classmethod
    def from_params(cls, params: typing.Mapping) -> "CampaignConfig":
        fields = dict(params)
        fields["kinds"] = tuple(fields["kinds"])
        fields["magnitude_range_ps"] = tuple(
            fields["magnitude_range_ps"])
        return cls(**fields)


# ---------------------------------------------------------------------------
# Per-fault simulation, one function per target
# ---------------------------------------------------------------------------

def _window_end(config: CampaignConfig, spec: FaultSpec) -> int:
    """Last cycle attributable to ``spec`` (relay effects included)."""
    return min(config.num_cycles - 1,
               spec.last_cycle + config.relay_horizon)


def _collecting_observer(
    config: CampaignConfig,
    spec: FaultSpec,
    events: list[CaptureEvent],
    site_names: list[str] | None,
) -> typing.Callable:
    """Observer recording events inside the fault's influence window."""
    end = _window_end(config, spec)

    def observe(cycle: int, site: typing.Any, outcome: typing.Any,
                lateness_ps: int) -> None:
        if not spec.cycle <= cycle <= end:
            return
        name = site_names[site] if site_names is not None else str(site)
        events.append(CaptureEvent(
            cycle=cycle, site=name, lateness_ps=lateness_ps,
            masked=outcome.masked, detected=outcome.detected,
            predicted=outcome.predicted, flagged=outcome.flagged,
            failed=outcome.failed,
            borrowed_intervals=outcome.borrowed_intervals,
        ))

    return observe


def _build_pipeline_sim(config: CampaignConfig, *,
                        faults: "FaultOverlay | None" = None,
                        capture_observer: typing.Callable | None = None):
    """A fresh linear-pipeline simulation for this campaign config."""
    from repro.pipeline.pipeline import PipelineSimulation
    from repro.pipeline.stage import PipelineStage

    stages = [
        PipelineStage(
            name=site,
            critical_delay_ps=int(config.period_ps * 0.95),
            typical_delay_ps=int(config.period_ps * 0.70),
            sensitization_prob=config.sensitization_prob,
            seed=config.seed + index,
        )
        for index, site in enumerate(config.sites())
    ]
    policy = architecture_by_key(config.scheme).build_policy(
        config.num_stages, config.period_ps, config.checking_percent)
    return PipelineSimulation(
        stages, policy,
        period_ps=config.period_ps,
        variability=ConstantVariation(1.0),
        faults=faults,
        capture_observer=capture_observer,
    )


def _build_graph_sim(config: CampaignConfig, *,
                     faults: "FaultOverlay | None" = None,
                     capture_observer: typing.Callable | None = None):
    """A fresh whole-graph simulation on the synthetic chain."""
    from repro.pipeline.graph_sim import GraphPipelineSimulation
    from repro.timing.graph import TimingGraph

    graph = TimingGraph("campaign-chain", config.period_ps)
    graph.add_ff("g0")
    for index in range(1, config.num_stages + 1):
        graph.add_ff(f"g{index}")
        graph.add_edge(f"g{index - 1}", f"g{index}",
                       int(config.period_ps * 0.9))
    return GraphPipelineSimulation(
        graph,
        scheme=config.scheme,
        percent_checking=config.checking_percent,
        sensitization_prob=config.sensitization_prob,
        variability=ConstantVariation(1.0),
        seed=config.seed,
        faults=faults,
        capture_observer=capture_observer,
    )


_SIM_BUILDERS = {
    "pipeline": _build_pipeline_sim,
    "graph": _build_graph_sim,
}


def full_run_netlist_fault(config: CampaignConfig,
                           spec: FaultSpec) -> tuple[FaultOutcome, int]:
    """One netlist fault, event-driven from time 0 with its stimulus."""
    from repro.circuit.logic import Logic
    from repro.sequential.flipflop import DFlipFlop
    from repro.sequential.timber_ff import TimberFlipFlop
    from repro.sim.clocks import ClockGenerator
    from repro.sim.engine import Simulator
    from repro.sim.faults import FaultInjector

    period = config.period_ps
    cp = config.checking_period
    end = _window_end(config, spec)
    sim = Simulator()
    ClockGenerator(sim, "clk", period)
    sim.set_initial("d", 0)
    if config.scheme == "timber-ff":
        element: typing.Any = TimberFlipFlop(
            sim, name="u1", d="d", clk="clk", q="q", err="err",
            interval_ps=cp.interval_ps, num_intervals=cp.num_intervals,
            num_tb_intervals=cp.num_tb,
        )
    else:
        element = DFlipFlop(sim, name="u1", d="d", clk="clk", q="q")

    # Functional stimulus: capture edge n (at n*period) samples the
    # alternating value n & 1, normally driven a quarter period early.
    # A delay fault postpones the affected cycles' arrivals past the
    # edge instead; an SEU rides a pulse straddling the target edge.
    lead = period // 4
    faulty_cycles = (set(range(spec.cycle, spec.cycle
                               + spec.duration_cycles))
                     if spec.kind == "delay" else set())
    for n in range(1, end + 2):
        arrival = (n * period + spec.magnitude_ps if n in faulty_cycles
                   else n * period - lead)
        sim.drive("d", n & 1, arrival, label=f"stim:{n}")
    injector = FaultInjector(sim)
    if spec.kind == "seu":
        edge = spec.cycle * period
        injector.inject_seu("d", at_ps=edge - spec.magnitude_ps // 2,
                            width_ps=spec.magnitude_ps)

    # Sample Q after the whole capture window (M1 + mux, falling-edge
    # error latch) has settled but before the next stimulus arrives.
    checks: dict[int, Logic] = {}

    def make_check(n: int) -> typing.Callable:
        def check(inner: Simulator) -> None:
            checks[n] = inner.value("q")
        return check

    for n in range(max(1, spec.cycle), end + 1):
        sim.at(n * period + period // 2 + 100, make_check(n),
               label=f"check:{n}")
    sim.run((end + 1) * period)

    events: list[CaptureEvent] = []
    for n in sorted(checks):
        if checks[n] is not Logic.from_value(n & 1):
            events.append(CaptureEvent(
                cycle=n, site=spec.site,
                lateness_ps=spec.magnitude_ps, failed=True))
    if config.scheme == "timber-ff":
        for masking in element.events:
            cycle = masking.cycle_edge_ps // period
            if spec.cycle <= cycle <= end:
                events.append(CaptureEvent(
                    cycle=cycle, site=spec.site,
                    lateness_ps=spec.magnitude_ps, masked=True,
                    flagged=masking.flagged,
                    borrowed_intervals=masking.borrowed_intervals,
                ))
    return outcome_from_events(spec, events), sim.events_processed


class ChunkResult(tuple):
    """``(outcomes, work)`` of one classified chunk.

    Unpacks like the pair it is.  ``units`` keeps each fault's own work
    in population order (summing to ``work``), so a chunk classified
    for several exec tasks at once splits back exactly
    (:func:`chunk_payloads`).
    """

    units: list[int]

    def __new__(cls, outcomes: OutcomeColumns,
                units: list[int]) -> "ChunkResult":
        result = super().__new__(cls, (outcomes, sum(units)))
        result.units = units
        return result


def _finish_chunk(config: CampaignConfig, outcomes: OutcomeColumns,
                  units: list[int], started: float) -> ChunkResult:
    """Per-fault obs for one classified chunk; its :class:`ChunkResult`.

    The chunk shares one wall clock, so the per-fault latency is the
    amortized share; the outcome counter gets one increment per class
    (one ``bincount``) and the latency histogram one bulk observe.
    """
    if obs.REGISTRY.enabled and len(outcomes):
        elapsed = (time.perf_counter() - started) / len(outcomes)
        _OBS_FAULT_SECONDS.observe_many(np.full(len(outcomes), elapsed))
        for classification, count in outcomes.class_counts().items():
            if count:
                _OBS_OUTCOMES.labels(
                    target=config.target, scheme=config.scheme,
                    classification=classification,
                ).inc(count)
    return ChunkResult(outcomes, units)


class _NetlistEvaluator:
    """Netlist faults: one event-driven full run each."""

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config

    def evaluate_chunk(
            self, specs: typing.Sequence[FaultSpec]) -> ChunkResult:
        """Classify ``specs``; outcomes in population order + work."""
        started = time.perf_counter()
        results = [full_run_netlist_fault(self.config, spec)
                   for spec in specs]
        return _finish_chunk(
            self.config,
            OutcomeColumns.from_records(
                [outcome for outcome, _ in results], self.config.sites()),
            [units for _, units in results], started)


class _CycleEvaluator:
    """Snapshot-forked, fault-lane batched evaluation (cycle targets).

    One long-lived simulation forks every fault from the shared
    fault-free background trajectory, and :meth:`evaluate_chunk` — the
    production entry point — runs every lane it can prove equivalent
    to a fork as one numpy batch.  A chunk is planned as columns: each
    fault's fork snapshot, window end and *eligibility* (idle fork
    snapshot, state-free prefix) are array expressions over its
    :class:`~repro.campaign.faults.FaultColumns`, and every lane that
    qualifies runs in as few calls of the lane machine
    (:mod:`repro.kernels.fault_batch`) as the batch cap allows:
    per-lane disturbance deltas on the shared background rows, a
    vectorized borrow/select/relay machine that retires a batch once
    its faults are spent — so windows of any length batch — and
    per-lane folds returned as outcome columns.  Lanes carry absolute
    cycle indices into the one background, so batch composition
    changes arithmetic shape only, never lane semantics.  The semantic
    counters the forked prefixes would have bumped come from the
    machine's prefix table, one vectorized sum per chunk.

    Everything else — a lane whose fork snapshot or prefix carries
    state, and every lane when there is no machine (scalar
    kernels leave the background rows ``None``; logical masking and
    soft-edge have no array semantics) — goes through :meth:`replay`,
    the per-fault fork the batch is pinned against, and the only place
    a :class:`FaultSpec` is built.  Both write the same
    :class:`~repro.campaign.outcomes.OutcomeColumns` block, which is
    what the chunk returns: no per-fault record is built for a batched
    lane.  ``lanes_batched``/``lanes_replayed`` mirror the obs lane
    counters for in-process callers.
    """

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self.sites = config.sites()
        self.site_names = (self.sites if config.target == "pipeline"
                           else None)
        self.sim = _SIM_BUILDERS[config.target](config)
        machine = None
        if kernels.vectorized_enabled():
            from repro.kernels import fault_batch

            self._fault_batch = fault_batch
            machine = (fault_batch.pipeline_machine(self.sim)
                       if config.target == "pipeline"
                       else fault_batch.graph_machine(self.sim))
        self.trajectory, self.rows, table = trajectory_rows_for(
            dict(config.background_params(), kernel=kernels.kernel_mode()),
            lambda: self._build_background(machine))
        self.machine = machine
        if machine is not None:
            machine.table = table
        self._units_per_cycle = (len(self.sim.stages)
                                 if config.target == "pipeline"
                                 else self.sim.graph.num_ffs)
        self.lanes_batched = 0
        self.lanes_replayed = 0

    def _build_background(self, machine) -> tuple:
        """``(trajectory, rows, table)``: one background's warm entry.

        With the vector kernels, the shared fault-free rows
        (delay/sensitization plus the screen's verdicts) come first —
        forks index them and the lane machine perturbs them — then the
        machine's prefix table, and the snapshot walk slices the same
        rows.  Scalar mode keeps only the snapshots, so every lane
        replays through the row-free scalar path.
        """
        config = self.config
        rows = table = None
        if kernels.vectorized_enabled():
            rows = self.sim.background_rows(config.num_cycles)
            if machine is not None:
                table = machine.prefix_table(rows)
        trajectory = build_trajectory(
            lambda: _SIM_BUILDERS[config.target](config),
            num_cycles=config.num_cycles, stride=config.snapshot_stride,
            rows=rows)
        return trajectory, rows, table

    def replay(self, spec: FaultSpec) -> tuple[FaultOutcome, int]:
        """Evaluate one fault by forking the background simulation.

        Swaps in the fault's own overlay and observer (plain attributes
        on the simulators), restores the nearest snapshot at or before
        ``spec.cycle``, and simulates only ``[snapshot, window_end]``.
        The overlay adds zero delay before ``spec.cycle`` and every draw
        is addressed by absolute cycle, so the captured event stream is
        byte-identical to the full-run reference's.
        """
        config = self.config
        end = _window_end(config, spec)
        start, state = self.trajectory.fork_point(spec.cycle)
        events: list[CaptureEvent] = []
        sim = self.sim
        sim.faults = FaultOverlay([spec], self.sites)
        sim.capture_observer = _collecting_observer(
            config, spec, events, self.site_names)
        sim.restore(state)
        result = sim.run(end + 1, start_cycle=start, rows=self.rows)
        if obs.REGISTRY.enabled:
            _OBS_PREFIX_SAVED.inc(start)
            _OBS_FORK_WINDOW.observe(end + 1 - start)
        units = (result.captures if config.target == "pipeline"
                 else result.cycles * result.num_ffs)
        return outcome_from_events(spec, events), units

    def evaluate_chunk(
            self, specs: typing.Sequence[FaultSpec]) -> ChunkResult:
        """Classify ``specs``; outcomes in population order + work.

        ``specs`` is a :class:`~repro.campaign.faults.FaultColumns`
        block or any sequence of :class:`FaultSpec` (turned into one).
        Eligible lanes, in population order, go through the lane
        machine :data:`~repro.kernels.fault_batch.MAX_BATCH_LANES` at
        a time: a lane's fork snapshot decides only whether it
        qualifies, never what it computes, and big batches amortize
        the per-call setup.  Replays run in ascending snapshot order so
        restores stay cache-warm.  Both fill the classified rows of the
        chunk's :class:`~repro.campaign.outcomes.OutcomeColumns` block.
        """
        started = time.perf_counter()
        faults = FaultColumns.from_records(specs, self.sites)
        config = self.config
        cycle = faults.cycle
        snapshot = self.trajectory.fork_indices(cycle)
        start = snapshot * self.trajectory.stride
        end = np.minimum(config.num_cycles - 1,
                         faults.last_cycle + config.relay_horizon)
        # The classified rows: class (a SEVERITY_LADDER index),
        # events, worst lateness, max borrowed intervals.
        outcomes = OutcomeColumns.for_faults(faults)
        folded = outcomes.table[FOLDED:]
        units = (end + 1 - start) * self._units_per_cycle
        batch = self._batchable(snapshot, start, cycle)
        lanes = np.flatnonzero(batch)
        if lanes.size:
            self._run_lanes(faults, lanes, end, folded)
            if obs.REGISTRY.enabled:
                self.machine.add_prefix_counters(start[lanes],
                                                 cycle[lanes])
                _OBS_PREFIX_SAVED.inc(int(start[lanes].sum()))
                _OBS_FORK_WINDOW.observe_many(
                    end[lanes] + 1 - start[lanes])
            self.lanes_batched += lanes.size
        replay = np.flatnonzero(~batch)
        if replay.size:
            if self.machine is not None:
                self.machine.note_replayed(replay.size)
            self.lanes_replayed += replay.size
            replay = replay[np.argsort(snapshot[replay], kind="stable")]
            for index in replay.tolist():
                outcome, units[index] = self.replay(faults[index])
                folded[:, index] = (
                    SEVERITY_LADDER.index(outcome.classification),
                    outcome.events, outcome.worst_lateness_ps,
                    outcome.max_borrowed_intervals)
        return _finish_chunk(config, outcomes, units.tolist(), started)

    def _batchable(self, snapshot: np.ndarray, start: np.ndarray,
                   cycle: np.ndarray) -> np.ndarray:
        """Which faults the lane machine provably evaluates like a fork.

        A lane is equivalent to its forked replay when its fork
        snapshot is idle and no background cycle in ``[fork start,
        injection cycle)`` leaves borrow or relay state (the machine's
        prefix table): the fork then enters the window idle.  The
        prefix may still capture non-clean outcomes — canary
        predictions — outside the fault's observer window; their
        counter increments come from the table.  State *inside* the
        window is fine: the machine models the real rows and those
        events belong to the outcome on every path.  The window may
        have any length: the machine retires a batch once its faults
        are spent.
        """
        machine = self.machine
        if machine is None:
            return np.zeros(len(cycle), dtype=bool)
        used, which = np.unique(snapshot, return_inverse=True)
        idle = np.array([
            machine.state_is_idle(self.trajectory.snapshots[index])
            for index in used.tolist()], dtype=bool)
        return idle[which.reshape(-1)] & machine.state_free(start, cycle)

    def _run_lanes(self, faults: FaultColumns, lanes: np.ndarray,
                   end: np.ndarray, folded: np.ndarray) -> None:
        """Evaluate faults ``lanes`` on the machine into ``folded``."""
        fault_batch = self._fault_batch
        cycle = faults.cycle[lanes]
        block = fault_batch.LaneBlock(
            cycle=cycle,
            steps=end[lanes] + 1 - cycle,
            duration=faults.duration_cycles[lanes],
            magnitude_ps=faults.magnitude_ps[lanes],
            mask=self.machine.lane_mask(faults.sites,
                                        faults.site_mask()[lanes]))
        size = fault_batch.MAX_BATCH_LANES
        for first in range(0, len(block), size):
            folded[:, lanes[first:first + size]] = self.machine.evaluate(
                block[first:first + size], self.rows)


def fault_runner(
        config: CampaignConfig) -> "_CycleEvaluator | _NetlistEvaluator":
    """The campaign evaluator for ``config``.

    Cycle-level targets get the forking, lane-batching evaluator (its
    lane machine exists only with the vector kernels on); the netlist
    target simulates each fault in full.  Both classify a chunk through
    ``evaluate_chunk``.
    """
    if config.target == "netlist":
        return _NetlistEvaluator(config)
    return _CycleEvaluator(config)


# ---------------------------------------------------------------------------
# Exec-layer integration
# ---------------------------------------------------------------------------

def chunk_payloads(result: ChunkResult,
                   sizes: typing.Sequence[int]) -> list[TaskPayload]:
    """Split one classified chunk back into per-task payloads.

    ``sizes`` are the tasks' fault counts in chunk order; each task gets
    its own slice of the outcome block and the work of exactly its
    faults.
    """
    outcomes, _ = result
    payloads: list[TaskPayload] = []
    stop = 0
    for size in sizes:
        start, stop = stop, stop + size
        payloads.append(TaskPayload(
            value=outcomes[start:stop],
            events_processed=sum(result.units[start:stop])))
    return payloads


def _population_spans(run: typing.Sequence[dict]) -> list[list[int]]:
    """The chunks' ``[start, stop)`` ranges, touching ranges merged."""
    spans: list[list[int]] = []
    for params in run:
        if spans and spans[-1][1] == params["start"]:
            spans[-1][1] = params["stop"]
        else:
            spans.append([params["start"], params["stop"]])
    return spans


def campaign_chunks(params_list: typing.Sequence[dict]
                    ) -> list[TaskPayload]:
    """Batch form of :func:`campaign_chunk_task` (``.batch``).

    Consecutive chunks of one configuration parse it once, draw their
    faults as one column block (:meth:`CampaignConfig.fault_columns`
    per contiguous span), and classify them all in one
    ``evaluate_chunk`` of one evaluator; outcomes and work then split
    back per chunk.  The result equals mapping the task over
    ``params_list``: outcomes are pure in the specs, and the evaluator
    never lets a lane's neighbours change what it computes.
    """
    payloads: list[TaskPayload] = []
    for _, group in itertools.groupby(params_list,
                                      key=lambda params: params["config"]):
        run = list(group)
        config = CampaignConfig.from_params(run[0]["config"])
        runner = fault_runner(config)
        with obs.trace_span("campaign.chunk", target=config.target,
                            scheme=config.scheme, start=run[0]["start"],
                            stop=run[-1]["stop"], chunks=len(run)):
            result = runner.evaluate_chunk(FaultColumns.concat([
                config.fault_columns(start, stop)
                for start, stop in _population_spans(run)]))
        payloads.extend(chunk_payloads(
            result, [params["stop"] - params["start"] for params in run]))
    return payloads


def campaign_chunk_task(params: dict) -> TaskPayload:
    """Sweep task: classify one contiguous chunk of the population.

    The evaluator visits the chunk grouped by fork snapshot and
    scatters results back, so the payload's outcome order always
    matches the population order regardless of evaluation path.  The
    exec layer runs a dispatch batch of chunks through the batch form,
    :func:`campaign_chunks`.
    """
    return campaign_chunks([params])[0]


campaign_chunk_task.batch = campaign_chunks  # type: ignore[attr-defined]


def campaign_tasks(config: CampaignConfig) -> list[SweepTask]:
    """Wrap the population chunks as exec-layer sweep tasks."""
    tasks: list[SweepTask] = []
    config_params = config.to_params()
    for index, start in enumerate(range(0, config.num_faults,
                                        config.faults_per_task)):
        stop = min(start + config.faults_per_task, config.num_faults)
        tasks.append(SweepTask(
            experiment=CAMPAIGN_TASK,
            params={"config": config_params, "start": start,
                    "stop": stop},
            index=index,
            seed=derive_seed(config.seed, CAMPAIGN_TASK, start, stop),
            key=task_key(CAMPAIGN_TASK, {
                "target": config.target, "scheme": config.scheme,
                "chunk": index,
            }),
        ))
    return tasks


def warm_backgrounds(configs: typing.Sequence[CampaignConfig]) -> None:
    """Build every config's background in this process.

    The campaign CLI makes this its runner's
    :attr:`~repro.exec.runner.SweepRunner.before_fork`: each config's
    evaluator is built through :func:`fault_runner`, which fills the
    warm ``"trajectory"`` entry — stride snapshots, background rows
    and the lane machine's prefix table — and imports the evaluation
    path.  Fork-started workers inherit both, so none of them builds a
    background or imports the lane machine.  Serial runs, spawn pools
    and runs with nothing to execute (no pool starts) never call it.
    """
    for config in configs:
        fault_runner(config)


@dataclasses.dataclass
class CampaignResult:
    """Classified population plus the coverage report and run summary."""

    config: CampaignConfig
    outcomes: OutcomeColumns
    report: "typing.Any"
    summary: dict


def run_campaign(config: CampaignConfig, *,
                 runner: SweepRunner | None = None,
                 publisher: typing.Any = None) -> CampaignResult:
    """Run the full campaign through the exec layer and classify it.

    ``publisher`` (an opened, telemetry-attached
    :class:`~repro.obs.stream.EventPublisher`) gets the scheme named as
    the current phase, so the ``phase_start``/``phase_end`` events the
    runner's telemetry emits are labelled with the scheme boundary a
    multi-scheme campaign is crossing.
    """
    from repro.campaign.report import build_report

    runner = runner or SweepRunner()
    if publisher is not None:
        publisher.set_phase(config.scheme)
    with obs.trace_span("campaign.run", target=config.target,
                        scheme=config.scheme,
                        faults=config.num_faults):
        run = runner.run(campaign_tasks(config))
    # None = chunk quarantined as poisoned.
    outcomes = OutcomeColumns.concat(
        [value for value in run.values if value is not None])
    return CampaignResult(
        config=config,
        outcomes=outcomes,
        report=build_report(config, outcomes),
        summary=run.summary,
    )
