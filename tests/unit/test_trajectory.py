"""Unit tests for simulation snapshots and background trajectories."""

import pytest

from repro.campaign import CampaignConfig, build_trajectory, fault_runner
from repro.campaign.engine import _build_graph_sim
from repro.campaign.trajectory import trajectory_key, trajectory_rows_for
from repro.errors import ConfigurationError
from repro.exec.worker import WARM
from repro.pipeline.controller import CentralErrorController
from repro.pipeline.pipeline import PipelineSimulation
from repro.pipeline.schemes import PlainPolicy, TimberFFPolicy
from repro.pipeline.stage import PipelineStage


def _stages(n=3, period=1000, seed=5):
    return [
        PipelineStage(name=f"s{i}", critical_delay_ps=int(period * 0.95),
                      typical_delay_ps=int(period * 0.7),
                      sensitization_prob=0.4, seed=seed + i)
        for i in range(n)
    ]


def _config(**overrides):
    defaults = dict(target="graph", scheme="timber-ff", num_faults=10,
                    num_cycles=400, snapshot_stride=100, seed=9)
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestPipelineSnapshot:
    def test_windowed_run_matches_full_run_suffix(self):
        from repro.core.checking_period import CheckingPeriod

        def make():
            return PipelineSimulation(
                _stages(), TimberFFPolicy(3, CheckingPeriod.with_tb(
                    1000, 30.0)), period_ps=1000)

        full = make()
        full_result = full.run(200)
        probe = make()
        probe.run(120)
        state = probe.snapshot()
        resumed = make()
        resumed.restore(state)
        window = resumed.run(200, start_cycle=120)
        assert window.cycles == 80
        # The windowed aggregates must equal full-run minus prefix.
        prefix = make().run(120)
        for field in ("masked", "masked_flagged", "detected", "failed",
                      "clean"):
            assert getattr(window, field) == (
                getattr(full_result, field) - getattr(prefix, field)), field

    def test_snapshot_roundtrip_restores_relay_state(self):
        from repro.core.checking_period import CheckingPeriod

        sim = PipelineSimulation(
            _stages(), TimberFFPolicy(3, CheckingPeriod.with_tb(
                1000, 30.0)), period_ps=1000)
        sim.run(57)
        state = sim.snapshot()
        borrow, relay = state
        assert len(borrow) == 3
        select_in, next_select_in = relay
        assert len(select_in) == 3 and len(next_select_in) == 3
        sim.restore(state)
        assert sim.snapshot() == state

    def test_stateless_policy_snapshots_none(self):
        sim = PipelineSimulation(_stages(), PlainPolicy(3),
                                 period_ps=1000)
        assert sim.snapshot()[1] is None
        sim.restore(sim.snapshot())

    def test_controller_rejected(self):
        controller = CentralErrorController(period_ps=1000,
                                            consolidation_latency_ps=120)
        sim = PipelineSimulation(_stages(), PlainPolicy(3),
                                 period_ps=1000, controller=controller)
        with pytest.raises(ConfigurationError):
            sim.snapshot()
        with pytest.raises(ConfigurationError):
            sim.run(100, start_cycle=10)

    def test_bad_start_cycle_rejected(self):
        sim = PipelineSimulation(_stages(), PlainPolicy(3),
                                 period_ps=1000)
        with pytest.raises(ConfigurationError):
            sim.run(100, start_cycle=100)
        with pytest.raises(ConfigurationError):
            sim.run(100, start_cycle=-1)


class TestGraphSnapshot:
    def test_windowed_run_matches_full_run_suffix(self):
        config = _config()
        full = _build_graph_sim(config).run(400)
        probe = _build_graph_sim(config)
        probe.run(250)
        state = probe.snapshot()
        resumed = _build_graph_sim(config)
        resumed.restore(state)
        window = resumed.run(400, start_cycle=250)
        prefix = _build_graph_sim(config).run(250)
        for field in ("masked", "masked_flagged", "failed",
                      "failed_unprotected", "clean_captures"):
            assert getattr(window, field) == (
                getattr(full, field) - getattr(prefix, field)), field

    def test_full_run_resets_carried_state(self):
        config = _config()
        sim = _build_graph_sim(config)
        first = sim.run(400)
        second = sim.run(400)
        assert first == second

    def test_snapshot_roundtrip(self):
        config = _config()
        sim = _build_graph_sim(config)
        sim.run(123)
        state = sim.snapshot()
        sim.restore(state)
        assert sim.snapshot() == state


class TestBuildTrajectory:
    def test_snapshot_spacing_and_fork_points(self):
        config = _config(num_cycles=450, snapshot_stride=100)
        trajectory = build_trajectory(
            lambda: _build_graph_sim(config),
            num_cycles=450, stride=100)
        # Boundaries 0, 100, 200, 300, 400 — all strictly below 450.
        assert trajectory.num_snapshots == 5
        start, _ = trajectory.fork_point(0)
        assert start == 0
        start, _ = trajectory.fork_point(99)
        assert start == 0
        start, _ = trajectory.fork_point(100)
        assert start == 100
        start, _ = trajectory.fork_point(449)
        assert start == 400

    def test_snapshots_match_direct_prefix_runs(self):
        config = _config(num_cycles=300, snapshot_stride=75)
        trajectory = build_trajectory(
            lambda: _build_graph_sim(config),
            num_cycles=300, stride=75)
        for index in range(trajectory.num_snapshots):
            boundary = index * 75
            reference = _build_graph_sim(config)
            if boundary:
                reference.run(boundary)
            assert trajectory.snapshots[index] == reference.snapshot(), (
                boundary)

    def test_faulty_background_rejected(self):
        from repro.campaign import FaultOverlay, FaultSpec

        config = _config()
        overlay = FaultOverlay(
            [FaultSpec(fault_id=0, kind="seu", site="g1", cycle=5,
                       duration_cycles=1, magnitude_ps=100)],
            config.sites())
        with pytest.raises(ConfigurationError):
            build_trajectory(
                lambda: _build_graph_sim(config, faults=overlay),
                num_cycles=100, stride=10)

    def test_bad_stride_rejected(self):
        config = _config()
        with pytest.raises(ConfigurationError):
            build_trajectory(lambda: _build_graph_sim(config),
                             num_cycles=100, stride=0)


class TestTrajectoryCaching:
    def test_warm_cache_kind_trajectory(self):
        config = _config(seed=12345)
        params = config.background_params()
        WARM.clear()
        before = WARM.counters()
        builds = []

        def build():
            builds.append(1)
            return build_trajectory(lambda: _build_graph_sim(config),
                                    num_cycles=config.num_cycles,
                                    stride=config.snapshot_stride)

        first = trajectory_rows_for(params, build)
        second = trajectory_rows_for(params, build)
        assert first is second
        assert len(builds) == 1
        delta = WARM.delta(before, WARM.counters())
        assert delta["trajectory"] == [1, 1]

    def test_key_changes_with_any_background_param(self):
        base = _config().background_params()
        for field, value in (("scheme", "plain"), ("num_cycles", 999),
                             ("seed", 1), ("snapshot_stride", 7)):
            changed = dict(base)
            changed[field] = value
            assert trajectory_key(changed) != trajectory_key(base), field

    @pytest.mark.parametrize("target,scheme", [("pipeline", "timber-ff"),
                                               ("pipeline", "logical"),
                                               ("graph", "timber-latch")])
    def test_second_evaluator_is_one_warm_hit(self, target, scheme):
        configs = [_config(target=target, scheme=scheme, seed=seed)
                   for seed in (31, 32)]
        WARM.clear()
        first = [fault_runner(config) for config in configs]
        before = WARM.counters()
        second = fault_runner(configs[0])
        # Snapshots, rows and prefix table come from one entry.
        assert WARM.delta(before, WARM.counters())["trajectory"] == [1, 0]
        assert second.trajectory is first[0].trajectory
        assert second.rows is first[0].rows
        if second.machine is not None:
            assert second.machine.table is first[0].machine.table
        # The cache holds one entry per background.
        held = len(WARM)
        WARM.discard("trajectory")
        assert held - len(WARM) == len(configs)


class TestForkedEvaluatorFallbacks:
    def test_netlist_always_full_run(self):
        from repro.campaign.engine import _NetlistEvaluator, fault_runner

        config = _config(target="netlist", scheme="timber-ff",
                         kinds=("seu", "delay"))
        assert isinstance(fault_runner(config), _NetlistEvaluator)

    def test_forked_results_match_full_run(self):
        from repro.campaign.engine import fault_runner
        from repro.campaign.reference import FULL_RUN_TARGETS
        from repro.exec.cache import encode_result

        config = _config(num_faults=30, num_cycles=500,
                         snapshot_stride=128)
        runner = fault_runner(config)
        for spec in config.iter_population():
            full = FULL_RUN_TARGETS["graph"](config, spec)
            forked = runner.replay(spec)
            assert encode_result(full[0]) == encode_result(forked[0])
