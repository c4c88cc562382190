"""Shared experiment runners.

Each function reproduces one of the paper's artefacts (or one of the
extension studies documented in DESIGN.md) and returns structured data;
the benchmark harness and the examples render and assert on these.

The Monte-Carlo engines underneath (pipeline, graph, SSTA) run on the
vectorized ``repro.kernels`` path by default and fall back to the
scalar reference under ``REPRO_SCALAR_KERNELS=1``; the two paths are
bit-identical, so sweep results — and therefore on-disk cache entries —
are valid regardless of the kernel mode they were produced in.
"""

from __future__ import annotations

import dataclasses
import itertools

from repro.baselines.architectures import (
    ARCHITECTURES,
    architecture_by_key,
)
from repro.core.architecture import TimberDesign, TimberStyle
from repro.core.structural import StructuralTimberFF, StructuralTimberLatch
from repro.errors import ConfigurationError
from repro.exec.runner import (
    SweepRunner,
    SweepTask,
    TaskPayload,
    derive_seed,
    task_key,
)
from repro.pipeline.controller import CentralErrorController
from repro.pipeline.pipeline import PipelineResult, PipelineSimulation
from repro.pipeline.stage import PipelineStage
from repro.processor.generator import generate_processor
from repro.processor.perfpoints import PERFORMANCE_POINTS, PerformancePoint
from repro.sim.clocks import ClockGenerator
from repro.sim.engine import Simulator
from repro.sim.waveform import WaveformRecorder
from repro.timing.distribution import (
    CriticalPathDistribution,
    distribution_sweep,
)
from repro.timing.graph import TimingGraph
from repro.variability import (
    CompositeVariation,
    LocalVariation,
    VoltageDroopVariation,
)

#: Checking periods studied in the case study (percent of clock period).
CHECKING_PERCENTS = (10.0, 20.0, 30.0, 40.0)

#: Dotted task-function names used by the sweep runner (must stay
#: module-level and importable inside worker processes).
_FIG1_TASK = "repro.analysis.experiments:fig1_point_task"
_FIG8_TASK = "repro.analysis.experiments:fig8_point_task"
_PIPELINE_TASK = "repro.analysis.experiments:pipeline_point_task"


def _point_params(point: PerformancePoint) -> dict:
    """JSON-able parameters from which a worker rebuilds the point."""
    return dataclasses.asdict(point)


def _point_from_params(params: dict) -> PerformancePoint:
    return PerformancePoint(
        name=params["name"],
        period_ps=params["period_ps"],
        endpoint_fractions=tuple(params["endpoint_fractions"]),
        rho=params["rho"],
        hub_gamma=params["hub_gamma"],
        gap_range=tuple(params["gap_range"]),
        wall_frac=params["wall_frac"],
        floor_frac=params["floor_frac"],
    )


# ---------------------------------------------------------------------------
# Fig. 1 — critical-path distribution
# ---------------------------------------------------------------------------

#: Generator shape of the Figs. 1/8 processor (part of its warm key).
_PROCESSOR_SHAPE = {"num_stages": 10, "ffs_per_stage": 200, "fanin": 6}


def _shared_processor(point: PerformancePoint, seed: int) -> TimingGraph:
    """The Figs. 1/8 processor graph at one point and seed, warm-cached.

    Generated once per process (warm kind ``"processor"``, keyed on the
    point's params, the seed and the generator shape) and shared by
    every Fig. 1 and Fig. 8 task at that point and seed, so callers
    must only read it.  :func:`generate_processor` itself stays
    uncached and returns a fresh graph on every call.
    """
    from repro.exec.cache import stable_key
    from repro.exec.worker import WARM

    key = stable_key("processor", _point_params(point), seed,
                     _PROCESSOR_SHAPE)
    return WARM.get_or_build(
        "processor", key,
        lambda: generate_processor(point, seed=seed, **_PROCESSOR_SHAPE))


def fig1_point_task(params: dict) -> list[CriticalPathDistribution]:
    """Sweep task: Fig. 1 distributions for one performance point.

    Reads the process's shared processor graph for the point and seed
    (see :func:`_shared_processor`), which Fig. 8 tasks reuse.
    """
    point = _point_from_params(params["point"])
    return distribution_sweep(_shared_processor(point, params["seed"]))


def fig1_experiment(
    *,
    points: tuple[PerformancePoint, ...] = PERFORMANCE_POINTS,
    seed: int = 2010,
    runner: SweepRunner | None = None,
) -> dict[str, list[CriticalPathDistribution]]:
    """Critical-path distribution at every performance point (Fig. 1)."""
    tasks = [
        SweepTask(
            experiment=_FIG1_TASK,
            params={"point": _point_params(point), "seed": seed},
            index=index,
            seed=derive_seed(seed, _FIG1_TASK, point.name),
            key=task_key(_FIG1_TASK, {"point": point.name}),
        )
        for index, point in enumerate(points)
    ]
    runner = runner or SweepRunner()
    values = runner.run_values(tasks)
    return {point.name: value for point, value in zip(points, values)}


# ---------------------------------------------------------------------------
# Fig. 8 — case-study overheads
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Fig8Row:
    """One bar of the Fig. 8 chart family."""

    point: str
    checking_percent: float
    style: str
    with_tb_interval: bool
    margin_percent: float
    ffs_replaced: int
    ffs_total: int
    power_overhead_percent: float
    relay_area_overhead_percent: float
    relay_slack_percent: float


def fig8_point_task(params: dict) -> list[Fig8Row]:
    """Sweep task: every Fig. 8 row of one performance point.

    Every row's :class:`TimberDesign` reads the process's shared
    processor graph for the point and seed (see
    :func:`_shared_processor`), the one Fig. 1 tasks read.
    """
    point = _point_from_params(params["point"])
    graph = _shared_processor(point, params["seed"])
    rows: list[Fig8Row] = []
    for percent in params["checking_percents"]:
        for style in (TimberStyle.FLIP_FLOP, TimberStyle.LATCH):
            for with_tb in (False, True):
                design = TimberDesign(
                    graph=graph, style=style,
                    percent_checking=percent,
                    with_tb_interval=with_tb,
                )
                summary = design.summary()
                rows.append(Fig8Row(
                    point=point.name,
                    checking_percent=percent,
                    style=style.value,
                    with_tb_interval=with_tb,
                    margin_percent=summary["margin_percent"],
                    ffs_replaced=int(summary["ffs_replaced"]),
                    ffs_total=int(summary["ffs_total"]),
                    power_overhead_percent=(
                        summary["power_overhead_percent"]),
                    relay_area_overhead_percent=(
                        summary["relay_area_overhead_percent"]),
                    relay_slack_percent=summary["relay_slack_percent"],
                ))
    return rows


def fig8_experiment(
    *,
    points: tuple[PerformancePoint, ...] = PERFORMANCE_POINTS,
    seed: int = 2010,
    runner: SweepRunner | None = None,
) -> list[Fig8Row]:
    """All Fig. 8 panels: overhead sweep over points x checking periods.

    Covers (i) relay area/slack, (ii) flip-flop power with and without
    the TB interval, and (iii) latch power with and without the TB
    interval; each panel slices these rows differently.
    """
    tasks = [
        SweepTask(
            experiment=_FIG8_TASK,
            params={
                "point": _point_params(point),
                "seed": seed,
                "checking_percents": list(CHECKING_PERCENTS),
            },
            index=index,
            seed=derive_seed(seed, _FIG8_TASK, point.name),
            key=task_key(_FIG8_TASK, {"point": point.name}),
        )
        for index, point in enumerate(points)
    ]
    runner = runner or SweepRunner()
    rows: list[Fig8Row] = []
    for value in runner.run_values(tasks):
        rows.extend(value)
    return rows


# ---------------------------------------------------------------------------
# Figs. 5 and 7 — two-stage error waveforms
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class WaveformExperiment:
    """Result of a two-stage error scenario on structural circuits."""

    style: str
    recorder: WaveformRecorder
    period_ps: int
    stage1_flagged: bool
    stage2_flagged: bool
    q1_final: str
    q2_final: str


def two_stage_waveform_experiment(
    style: str,
    *,
    period_ps: int = 1000,
    interval_ps: int = 100,
    first_lateness_ps: int = 60,
    extra_lateness_ps: int = 60,
) -> WaveformExperiment:
    """Reproduce the Fig. 5 / Fig. 7 two-stage error scenario.

    A first violation of ``first_lateness_ps`` hits stage 1 (masked in
    the TB interval, not flagged); the borrowed time plus a second
    violation of ``extra_lateness_ps`` hits stage 2 on the next cycle
    (masked with an ED interval, flagged).
    """
    if style not in ("ff", "latch"):
        raise ConfigurationError("style must be 'ff' or 'latch'")
    sim = Simulator()
    ClockGenerator(sim, "clk", period_ps)
    sim.set_initial("d1", 0)
    sim.set_initial("d2", 0)
    checking_ps = 3 * interval_ps
    if style == "ff":
        f1 = StructuralTimberFF(sim, name="f1", d="d1", clk="clk", q="q1",
                                err="err1", interval_ps=interval_ps)
        f2 = StructuralTimberFF(sim, name="f2", d="d2", clk="clk", q="q2",
                                err="err2", interval_ps=interval_ps)

        def relay(_sim: Simulator) -> None:
            f2.set_select(f1.select_out)

        # Relay reads f1's select_out after the falling edge of the cycle
        # with the first error and configures f2 before the next edge.
        sim.at(period_ps + period_ps // 2 + 100, relay, label="relay")
    else:
        StructuralTimberLatch(sim, name="l1", d="d1", clk="clk", q="q1",
                              err="err1", tb_ps=interval_ps,
                              checking_ps=checking_ps)
        StructuralTimberLatch(sim, name="l2", d="d2", clk="clk", q="q2",
                              err="err2", tb_ps=interval_ps,
                              checking_ps=checking_ps)

    recorder = WaveformRecorder(
        ["clk", "d1", "q1", "err1", "d2", "q2", "err2"])
    recorder.attach(sim)
    # First error: D1 arrives late after the edge at t=period.
    sim.drive("d1", 1, period_ps + first_lateness_ps)
    # Two-stage error: stage 2's data inherits the borrowed time (a full
    # interval for the discrete flip-flop, the exact lateness for the
    # continuous latch) and adds its own violation after the edge at
    # t = 2*period.
    inherited = interval_ps if style == "ff" else first_lateness_ps
    second_lateness = inherited + extra_lateness_ps
    sim.drive("d2", 1, 2 * period_ps + second_lateness)
    sim.run(3 * period_ps + period_ps // 2)

    err1 = recorder["err1"].final_value()
    err2 = recorder["err2"].final_value()
    return WaveformExperiment(
        style=style,
        recorder=recorder,
        period_ps=period_ps,
        stage1_flagged=str(err1) == "1",
        stage2_flagged=str(err2) == "1",
        q1_final=str(recorder["q1"].final_value()),
        q2_final=str(recorder["q2"].final_value()),
    )


# ---------------------------------------------------------------------------
# Extension studies: resilience and throughput sweeps
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ResiliencePoint:
    """One (technique, stress-level) cell of the resilience sweep."""

    technique: str
    droop_amplitude: float
    result: PipelineResult


def _variability_from_spec(spec: list[dict]) -> object:
    """Variability model for a JSON-able task spec, warm-cached.

    Every model is deterministic in (seed, cycle, path), so rebuilding
    one inside a worker process reproduces exactly the draws a shared
    instance would have produced serially — which is also what makes it
    safe to share one instance across every task with the same spec.
    """
    from repro.exec.cache import stable_key
    from repro.exec.worker import WARM

    return WARM.get_or_build("variability",
                             stable_key("variability", spec),
                             lambda: _build_variability(spec))


def _build_variability(spec: list[dict]) -> object:
    models: list = []
    for item in spec:
        kind = item["kind"]
        if kind == "local":
            models.append(LocalVariation(
                sigma=item["sigma"], max_factor=item["max_factor"],
                seed=item["seed"],
            ))
        elif kind == "droop":
            models.append(VoltageDroopVariation(
                event_probability=item["event_probability"],
                amplitude=item["amplitude"],
                amplitude_jitter=item["amplitude_jitter"],
                seed=item["seed"],
            ))
        else:
            raise ConfigurationError(f"unknown variability kind {kind!r}")
    if not models:
        raise ConfigurationError("empty variability spec")
    return models[0] if len(models) == 1 else CompositeVariation(models)


def pipeline_point_simulation(params: dict) -> PipelineSimulation:
    """The simulation of one pipeline grid point, ready to run.

    Builds the stages, capture policy, central controller and
    variability stack from the point's primitive parameters.
    """
    stage_spec = params["stage"]
    stages = [
        PipelineStage(
            name=f"{stage_spec['prefix']}{i}",
            critical_delay_ps=stage_spec["critical_delay_ps"],
            typical_delay_ps=stage_spec["typical_delay_ps"],
            sensitization_prob=stage_spec["sensitization_prob"],
            seed=stage_spec["seed"] + i,
        )
        for i in range(params["num_stages"])
    ]
    architecture = architecture_by_key(params["technique"])
    period = params["sim_period_ps"]
    policy = architecture.build_policy(params["num_stages"], period,
                                       params["checking_percent"])
    controller = CentralErrorController(
        period_ps=period, consolidation_latency_ps=period,
    )
    return PipelineSimulation(
        stages, policy, period_ps=period, controller=controller,
        variability=_variability_from_spec(params["variability"]),
    )


def pipeline_point_task(params: dict) -> TaskPayload:
    """Sweep task: one (technique, stress, frequency) pipeline run.

    The shared grid point of the resilience, throughput, and shoot-out
    sweeps: the cycle-accurate run of :func:`pipeline_point_simulation`.
    """
    result = pipeline_point_simulation(params).run(params["num_cycles"])
    return TaskPayload(value=result, events_processed=result.captures)


def _pipeline_tasks(
    grid: list[dict],
    base: dict,
    *,
    root_seed: int,
) -> list[SweepTask]:
    """Wrap pipeline grid points (axis dicts + full params) as tasks."""
    tasks = []
    for index, point in enumerate(grid):
        axes = point["axes"]
        tasks.append(SweepTask(
            experiment=_PIPELINE_TASK,
            params={**base, **point["params"]},
            index=index,
            seed=derive_seed(root_seed, _PIPELINE_TASK,
                             sorted(axes.items())),
            key=task_key(_PIPELINE_TASK, axes),
        ))
    return tasks


def resilience_sweep(
    *,
    techniques: tuple[str, ...] = ("plain", "timber-ff", "timber-latch",
                                   "razor", "canary"),
    droop_amplitudes: tuple[float, ...] = (0.0, 0.04, 0.08, 0.12),
    num_stages: int = 5,
    period_ps: int = 1000,
    checking_percent: float = 30.0,
    num_cycles: int = 20_000,
    seed: int = 11,
    runner: SweepRunner | None = None,
) -> list[ResiliencePoint]:
    """Masked/detected/failed outcomes vs droop stress per technique."""
    grid = [
        {
            "axes": {"droop_amplitude": amplitude, "technique": key},
            "params": {
                "technique": key,
                "variability": [
                    {"kind": "local", "sigma": 0.015, "max_factor": 1.04,
                     "seed": seed},
                    {"kind": "droop", "event_probability": 2e-3,
                     "amplitude": amplitude, "amplitude_jitter": 0.0,
                     "seed": seed + 1},
                ],
            },
        }
        for amplitude, key in itertools.product(droop_amplitudes,
                                                techniques)
    ]
    base = {
        "sim_period_ps": period_ps,
        "checking_percent": checking_percent,
        "num_stages": num_stages,
        "num_cycles": num_cycles,
        "stage": {
            "prefix": "stage",
            "critical_delay_ps": int(period_ps * 0.95),
            "typical_delay_ps": int(period_ps * 0.70),
            "sensitization_prob": 0.05,
            "seed": seed,
        },
    }
    tasks = _pipeline_tasks(grid, base, root_seed=seed)
    runner = runner or SweepRunner()
    results = runner.run_values(tasks)
    return [
        ResiliencePoint(
            technique=point["axes"]["technique"],
            droop_amplitude=point["axes"]["droop_amplitude"],
            result=result,
        )
        for point, result in zip(grid, results)
    ]


@dataclasses.dataclass(frozen=True)
class ThroughputPoint:
    """Throughput of one technique at one overclocking step."""

    technique: str
    overclock_percent: float
    result: PipelineResult

    @property
    def effective_speedup(self) -> float:
        """Achieved speedup vs the nominal-frequency error-free design."""
        overclock = 1.0 + self.overclock_percent / 100.0
        return overclock * self.result.throughput_factor


def throughput_sweep(
    *,
    techniques: tuple[str, ...] = ("timber-ff", "timber-latch", "razor",
                                   "canary"),
    overclock_percents: tuple[float, ...] = (0.0, 4.0, 8.0, 12.0),
    num_stages: int = 5,
    period_ps: int = 1000,
    checking_percent: float = 30.0,
    num_cycles: int = 20_000,
    seed: int = 23,
    runner: SweepRunner | None = None,
) -> list[ThroughputPoint]:
    """Margin-recovery payoff: run faster than sign-off and measure the
    achieved speedup after each scheme's recovery costs."""
    grid = [
        {
            "axes": {"overclock_percent": overclock, "technique": key},
            "params": {
                "technique": key,
                # Policy, controller, and simulation run at the shrunk
                # period; stage delays stay sized to the sign-off period.
                "sim_period_ps": int(round(
                    period_ps / (1.0 + overclock / 100.0))),
            },
        }
        for overclock, key in itertools.product(overclock_percents,
                                                techniques)
    ]
    base = {
        "checking_percent": checking_percent,
        "num_stages": num_stages,
        "num_cycles": num_cycles,
        "stage": {
            "prefix": "stage",
            "critical_delay_ps": int(period_ps * 0.95),
            "typical_delay_ps": int(period_ps * 0.70),
            "sensitization_prob": 0.05,
            "seed": seed,
        },
        "variability": [
            {"kind": "local", "sigma": 0.015, "max_factor": 1.04,
             "seed": seed},
        ],
    }
    tasks = _pipeline_tasks(grid, base, root_seed=seed)
    runner = runner or SweepRunner()
    results = runner.run_values(tasks)
    return [
        ThroughputPoint(
            technique=point["axes"]["technique"],
            overclock_percent=point["axes"]["overclock_percent"],
            result=result,
        )
        for point, result in zip(grid, results)
    ]


def shootout_sweep(
    *,
    techniques: tuple[str, ...] | None = None,
    num_stages: int = 5,
    period_ps: int = 1000,
    checking_percent: float = 30.0,
    num_cycles: int = 10_000,
    stage_seed: int = 300,
    local_seed: int = 61,
    droop_seed: int = 62,
    droop_amplitude: float = 0.07,
    runner: SweepRunner | None = None,
) -> dict[str, PipelineResult]:
    """Every architecture on the same stressed pipeline (study X9)."""
    if techniques is None:
        techniques = tuple(arch.key for arch in ARCHITECTURES)
    grid = [
        {
            "axes": {"technique": key},
            "params": {"technique": key},
        }
        for key in techniques
    ]
    base = {
        "sim_period_ps": period_ps,
        "checking_percent": checking_percent,
        "num_stages": num_stages,
        "num_cycles": num_cycles,
        "stage": {
            "prefix": "so",
            "critical_delay_ps": 950,
            "typical_delay_ps": 700,
            "sensitization_prob": 0.08,
            "seed": stage_seed,
        },
        "variability": [
            {"kind": "local", "sigma": 0.015, "max_factor": 1.03,
             "seed": local_seed},
            {"kind": "droop", "event_probability": 3e-3,
             "amplitude": droop_amplitude, "amplitude_jitter": 0.0,
             "seed": droop_seed},
        ],
    }
    tasks = _pipeline_tasks(grid, base, root_seed=stage_seed)
    runner = runner or SweepRunner()
    results = runner.run_values(tasks)
    return {key: result for key, result in zip(techniques, results)}
