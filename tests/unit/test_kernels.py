"""Scalar-vs-vectorized kernel equivalence (``repro.kernels``).

The vectorized Monte-Carlo path must be *bit-identical* to the scalar
reference — these tests run the same simulation twice in one process
(``REPRO_SCALAR_KERNELS=1`` toggled via monkeypatch, consulted at call
time) and compare whole result dataclasses with ``==``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis.experiments import (
    pipeline_point_simulation,
    pipeline_point_task,
)
from repro.campaign.faults import FaultOverlay, FaultSpec
from repro.kernels.rng import (
    key_id,
    mix32,
    mix32_batch,
    split64,
    std_gauss,
    std_gauss_batch,
    uniform01,
    uniform01_batch,
)
from repro.kernels.schedule import replay_points, window_at
from repro.pipeline.controller import CentralErrorController
from repro.pipeline.graph_sim import GraphPipelineSimulation
from repro.processor.trace import Phase, WorkloadTrace
from repro.timing.graph import TimingGraph
from repro.timing.ssta import run_ssta
from repro.variability import (
    AgingVariation,
    CompositeVariation,
    ConstantVariation,
    LocalVariation,
    ProcessVariation,
    TemperatureDriftVariation,
    VoltageDroopVariation,
)

pytestmark = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="vectorized kernels need numpy")


def run_both_modes(monkeypatch, run):
    """Evaluate ``run()`` under each kernel mode; return both results."""
    monkeypatch.setenv(kernels.SCALAR_ENV, "1")
    assert kernels.kernel_mode() == "scalar"
    scalar = run()
    monkeypatch.delenv(kernels.SCALAR_ENV)
    assert kernels.kernel_mode() == "vector"
    vector = run()
    return scalar, vector


# ---------------------------------------------------------------------------
# RNG primitives
# ---------------------------------------------------------------------------

lanes = st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                 min_size=1, max_size=6)


class TestRng:
    @given(lanes)
    @settings(max_examples=100, deadline=None)
    def test_mix32_batch_matches_scalar(self, values):
        batch = mix32_batch([np.array([v], dtype=np.uint32)
                             for v in values])
        assert int(batch[0]) == mix32(*values)

    @given(lanes)
    @settings(max_examples=100, deadline=None)
    def test_uniform_and_gauss_batch_match_scalar(self, values):
        arrays = [np.array([v], dtype=np.uint32) for v in values]
        u = uniform01_batch(mix32_batch(arrays))
        assert float(u[0]) == uniform01(mix32(*values))
        assert 0.0 <= float(u[0]) < 1.0
        z = std_gauss_batch(arrays)
        assert float(z[0]) == std_gauss(*values)

    def test_key_id_is_stable(self):
        assert key_id("stage0") == key_id("stage0")
        assert split64(key_id("stage0"))[1] == 0


# ---------------------------------------------------------------------------
# Variability: factor_batch == elementwise factor (hypothesis)
# ---------------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def simple_models(draw):
    kind = draw(st.sampled_from(
        ["constant", "local", "droop", "temperature", "aging",
         "process"]))
    if kind == "constant":
        return ConstantVariation(draw(st.floats(0.5, 1.5)))
    if kind == "local":
        return LocalVariation(
            sigma=draw(st.floats(0.0, 0.1)),
            max_factor=draw(st.one_of(st.none(), st.floats(1.0, 1.2))),
            seed=draw(seeds),
        )
    if kind == "droop":
        return VoltageDroopVariation(
            event_probability=draw(st.floats(0.0, 1.0)),
            duration_cycles=draw(st.integers(1, 12)),
            amplitude=draw(st.floats(0.0, 0.2)),
            amplitude_jitter=draw(st.floats(0.0, 0.5)),
            seed=draw(seeds),
        )
    if kind == "temperature":
        return TemperatureDriftVariation(
            amplitude=draw(st.floats(0.0, 0.1)),
            period_cycles=draw(st.integers(2, 10_000)),
        )
    if kind == "aging":
        return AgingVariation(
            max_degradation=draw(st.floats(0.0, 0.2)),
            time_constant_cycles=draw(st.floats(1e3, 1e9)),
            exponent=draw(st.floats(0.1, 1.0)),
        )
    return ProcessVariation(
        sigma=draw(st.floats(0.0, 0.1)),
        chip_sigma=draw(st.floats(0.0, 0.05)),
        seed=draw(seeds),
    )


@st.composite
def any_model(draw):
    if draw(st.booleans()):
        return draw(simple_models())
    return CompositeVariation(
        draw(st.lists(simple_models(), min_size=1, max_size=3)))


cycle_lists = st.lists(st.integers(min_value=0, max_value=2**40),
                       min_size=1, max_size=4, unique=True)
path_lists = st.lists(
    st.text(st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=10),
    min_size=1, max_size=3, unique=True)


class TestFactorBatchProperty:
    @given(model=any_model(), cycles=cycle_lists, paths=path_lists)
    @settings(max_examples=80, deadline=None)
    def test_batch_bitmatches_elementwise_factor(self, model, cycles,
                                                 paths):
        batch = np.broadcast_to(
            model.factor_batch(np.asarray(cycles, dtype=np.int64),
                               paths),
            (len(cycles), len(paths)))
        for i, cycle in enumerate(cycles):
            for j, path in enumerate(paths):
                assert float(batch[i, j]) == model.factor(cycle, path)


# ---------------------------------------------------------------------------
# Pipeline simulation: every scheme, identical PipelineResult
# ---------------------------------------------------------------------------

TECHNIQUES = ("plain", "timber-ff", "timber-latch", "razor", "canary",
              "dcf", "clock-stall", "logical")


def _pipeline_params(technique):
    return {
        "technique": technique,
        "sim_period_ps": 1000,
        "checking_percent": 30.0,
        "num_stages": 4,
        "num_cycles": 2500,
        "stage": {
            "prefix": "kq",
            "critical_delay_ps": 950,
            "typical_delay_ps": 700,
            "sensitization_prob": 0.08,
            "seed": 5,
        },
        "variability": [
            {"kind": "local", "sigma": 0.015, "max_factor": 1.04,
             "seed": 7},
            {"kind": "droop", "event_probability": 3e-3,
             "amplitude": 0.08, "amplitude_jitter": 0.0, "seed": 8},
        ],
    }


class TestPipelineEquivalence:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_scalar_and_vector_results_identical(self, monkeypatch,
                                                 technique):
        params = _pipeline_params(technique)
        scalar, vector = run_both_modes(
            monkeypatch, lambda: pipeline_point_task(params).value)
        assert scalar == vector

    def test_stress_produces_work_on_both_paths(self, monkeypatch):
        # Guard against a vacuous pass: this workload must actually
        # exercise the masking machinery, not just clean bulk skips.
        params = _pipeline_params("timber-ff")
        scalar, vector = run_both_modes(
            monkeypatch, lambda: pipeline_point_task(params).value)
        assert scalar == vector
        assert vector.masked > 0
        assert vector.clean > 0


    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_controller_state_identical(self, monkeypatch, technique):
        scalar, vector = run_both_modes(
            monkeypatch, lambda: _controlled_run(technique))
        assert scalar == vector

    def test_screen_hits_retired_inside_windows(self, monkeypatch):
        # Guard against a vacuous pass of the slowed-period screen: some
        # nominal screen hit must fall inside a slowdown window, be
        # clean at the slowed period and so never reach the scalar
        # machine.
        monkeypatch.delenv(kernels.SCALAR_ENV, raising=False)
        params = _pipeline_params("canary")
        hits = _nominal_points(params, None)
        sim = pipeline_point_simulation(params)
        replayed = _record_replays(sim)
        sim.run(params["num_cycles"])
        windows = sim.controller.windows
        relaxed = {cycle for cycle in hits
                   if window_at(windows, cycle) is not None} - replayed
        assert relaxed

    def test_fault_cycle_inside_window_replays(self, monkeypatch):
        # A fault cycle is forced onto the scalar machine even where
        # the slowed-period screen would retire it.
        params = _pipeline_params("canary")
        monkeypatch.delenv(kernels.SCALAR_ENV, raising=False)
        clean = pipeline_point_simulation(params)
        clean.run(params["num_cycles"])
        hits = _nominal_points(params, None)
        window = next(w for w in clean.controller.windows
                      if w.end_cycle - w.start_cycle > 4)
        cycle = next(c for c in range(window.start_cycle + 2,
                                      window.end_cycle) if c not in hits)
        overlay = FaultOverlay(
            [FaultSpec(fault_id=0, kind="delay", site="kq1", cycle=cycle,
                       duration_cycles=1, magnitude_ps=20)], ["kq1"])
        scalar, vector = run_both_modes(
            monkeypatch, lambda: _controlled_run("canary", overlay))
        assert scalar == vector
        sim = pipeline_point_simulation(params)
        sim.faults = overlay
        replayed = _record_replays(sim)
        sim.run(params["num_cycles"])
        assert window_at(sim.controller.windows, cycle) is not None
        assert cycle in replayed


def _record_replays(sim) -> set[int]:
    """Record every cycle ``sim`` replays through the scalar machine."""
    replayed: set[int] = set()
    simulate = sim._simulate_cycle

    def recording(cycle, *args):
        replayed.add(cycle)
        return simulate(cycle, *args)

    sim._simulate_cycle = recording
    return replayed


def _nominal_points(params, overlay) -> set[int]:
    """The nominal-period replay points of a whole grid-point run."""
    sim = pipeline_point_simulation(params)
    block = sim._block(0, params["num_cycles"])
    return set(replay_points(block[-1], 0, overlay))


def _controlled_run(technique, faults=None):
    """A grid-point run with its controller's windows and flag count."""
    params = _pipeline_params(technique)
    sim = pipeline_point_simulation(params)
    sim.faults = faults
    result = sim.run(params["num_cycles"])
    return (result, sim.controller.windows,
            sim.controller.flags_received)


class TestScalarFallback:
    """Configurations the block kernel cannot express take the scalar
    loop even when vectorization is enabled."""

    def test_feedback_scaler_runs_identically(self, monkeypatch):
        from repro.pipeline.dvfs import AdaptiveVoltageScaler
        from repro.pipeline.pipeline import PipelineSimulation
        from repro.pipeline.schemes import RazorPolicy
        from repro.pipeline.stage import PipelineStage

        def run():
            stages = [
                PipelineStage(name=f"fb{i}", critical_delay_ps=880,
                              typical_delay_ps=780,
                              sensitization_prob=0.3, seed=800 + i)
                for i in range(3)
            ]
            scaler = AdaptiveVoltageScaler(
                period_ps=1000, window_cycles=64, vdd_step=0.01,
                flag_budget=0)
            sim = PipelineSimulation(
                stages, RazorPolicy(3, window_ps=300, replay_penalty=5),
                period_ps=1000, controller=scaler,
                variability=CompositeVariation([
                    LocalVariation(sigma=0.01, max_factor=1.02, seed=81),
                    scaler,
                ]))
            assert not sim._vectorizable()
            return sim.run(1500)

        scalar, vector = run_both_modes(monkeypatch, run)
        assert scalar == vector

    def test_graph_feedback_scaler_runs_identically(self, monkeypatch):
        from repro.pipeline.dvfs import AdaptiveVoltageScaler

        def run():
            scaler = AdaptiveVoltageScaler(
                period_ps=1000, window_cycles=64, vdd_step=0.01,
                flag_budget=0)
            sim = GraphPipelineSimulation(
                _chain_graph(), scheme="timber-ff", percent_checking=30.0,
                sensitization_prob=0.6, controller=scaler,
                variability=CompositeVariation([
                    LocalVariation(sigma=0.02, max_factor=1.06, seed=3),
                    scaler,
                ]), seed=1)
            assert not sim._vectorizable()
            return sim.run(800)

        scalar, vector = run_both_modes(monkeypatch, run)
        assert scalar == vector
        assert vector.masked > 0


# ---------------------------------------------------------------------------
# Graph simulation: scheme x variability grid, identical results
# ---------------------------------------------------------------------------

def _chain_graph():
    graph = TimingGraph("chain", 1000)
    for name in ("a", "b", "c", "d"):
        graph.add_ff(name)
    graph.add_edge("a", "b", 980)
    graph.add_edge("b", "c", 980)
    graph.add_edge("a", "d", 400)
    return graph


def _graph_variability(kind):
    if kind == "constant":
        return ConstantVariation(1.05)
    droop = VoltageDroopVariation(
        event_probability=0.02, amplitude=0.08, amplitude_jitter=0.3,
        seed=5)
    if kind == "droop":
        return droop
    return CompositeVariation([
        LocalVariation(sigma=0.02, max_factor=1.06, seed=3), droop])


class TestGraphEquivalence:
    @pytest.mark.parametrize("scheme",
                             ["plain", "timber-ff", "timber-latch"])
    @pytest.mark.parametrize("kind", ["constant", "droop", "composite"])
    def test_scalar_and_vector_results_identical(self, monkeypatch,
                                                 scheme, kind):
        def run():
            sim = GraphPipelineSimulation(
                _chain_graph(), scheme=scheme, percent_checking=30.0,
                sensitization_prob=0.6,
                variability=_graph_variability(kind), seed=1)
            return sim.run(600)

        scalar, vector = run_both_modes(monkeypatch, run)
        assert scalar == vector
        assert vector.cycles == 600

    def test_traced_run_with_controller_identical(self, monkeypatch):
        trace = WorkloadTrace([
            Phase(name="hot", cycles=150, sensitization_scale=1.6),
            Phase(name="idle", cycles=250, sensitization_scale=0.05),
        ])

        def run():
            sim = GraphPipelineSimulation(
                _chain_graph(), scheme="timber-ff",
                percent_checking=30.0, sensitization_prob=0.5,
                variability=_graph_variability("composite"),
                controller=CentralErrorController(
                    period_ps=1000, consolidation_latency_ps=1000),
                trace=trace, seed=2)
            result = sim.run(900)
            return (result, sim.controller.windows,
                    sim.controller.flags_received)

        scalar, vector = run_both_modes(monkeypatch, run)
        assert scalar == vector
        assert vector[1]

    def test_unit_trace_matches_untraced_run(self, monkeypatch):
        # Regression for the per-cycle threshold hoist in
        # ``_sensitized``: a trace scaling sensitization by exactly 1.0
        # must reproduce the untraced run, in either kernel mode.
        def run(trace):
            sim = GraphPipelineSimulation(
                _chain_graph(), scheme="timber-latch",
                percent_checking=30.0, sensitization_prob=0.4,
                variability=_graph_variability("composite"),
                trace=trace, seed=7)
            return sim.run(500)

        unit = WorkloadTrace([
            Phase(name="flat", cycles=100, sensitization_scale=1.0)])
        for mode in ("1", ""):
            monkeypatch.setenv(kernels.SCALAR_ENV, mode)
            assert run(unit) == run(None)


# ---------------------------------------------------------------------------
# SSTA: identical SstaResult over netlist x variability
# ---------------------------------------------------------------------------

class TestSstaEquivalence:
    @pytest.mark.parametrize("kind", ["constant", "local", "composite"])
    def test_inverter_chain_identical(self, monkeypatch, kind):
        from repro.circuit.generate import inverter_chain

        if kind == "constant":
            variability = ConstantVariation(1.1)
        elif kind == "local":
            variability = LocalVariation(sigma=0.05, seed=4)
        else:
            variability = CompositeVariation([
                LocalVariation(sigma=0.05, seed=4),
                VoltageDroopVariation(event_probability=0.05,
                                      amplitude=0.1, seed=5),
            ])
        netlist = inverter_chain(16)

        def run(period):
            return run_ssta(netlist, period, variability, trials=200)

        for period in (150, 400, 2000):
            scalar, vector = run_both_modes(
                monkeypatch, lambda: run(period))
            assert scalar == vector
            assert scalar._any_violations == vector._any_violations
        # The tightest period must actually violate somewhere, so the
        # equality above compares non-trivial statistics.
        assert run(150)._any_violations > 0

    def test_random_stage_identical(self, monkeypatch):
        from repro.circuit.generate import random_stage

        netlist = random_stage(num_inputs=4, num_outputs=3, depth=5,
                               width=6, seed=9)
        variability = CompositeVariation([
            LocalVariation(sigma=0.04, seed=11),
            TemperatureDriftVariation(amplitude=0.05,
                                      period_cycles=120),
        ])

        def run():
            return run_ssta(netlist, 400, variability, trials=150)

        scalar, vector = run_both_modes(monkeypatch, run)
        assert scalar == vector
