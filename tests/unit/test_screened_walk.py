"""Unit tests for the screened walk's kernel counters.

Every cycle a vector walk covers lands in exactly one of
``repro_kernel_cycles_screened_total`` (retired in bulk, screen hits
found clean at a slowdown window's period included),
``repro_kernel_cycles_replayed_total{reason="screen"}`` (a screen hit or
forced fault cycle) and ``{reason="carryover"}`` (clean screen, replayed
for carried borrow/relay state) — whether the walk evaluated its blocks,
sliced shared background rows or ran under a central controller.
Building those rows walks nothing.  The walk's window lookups bisect
the controller's windows; they must agree with a linear scan.
"""

import random

import pytest

from repro import kernels, obs
from repro.campaign.faults import FaultOverlay, FaultSpec
from repro.core.checking_period import CheckingPeriod
from repro.kernels.schedule import (
    replay_points,
    slow_cycles_between,
    window_at,
)
from repro.pipeline.controller import CentralErrorController, SlowdownWindow
from repro.pipeline.graph_sim import GraphPipelineSimulation
from repro.pipeline.pipeline import PipelineSimulation
from repro.pipeline.schemes import TimberFFPolicy, TimberLatchPolicy
from repro.pipeline.stage import PipelineStage
from repro.timing.graph import TimingGraph
from repro.variability import ConstantVariation

pytestmark = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="the screened walk needs numpy")

PERIOD = 1000
CYCLES = 3000


def _pipeline(controller=None):
    if controller is None:
        # Sporadic +8% sensitized cycles violate by ~26 ps; TIMBER-FF
        # masks them and the borrow forces the next (screen-clean)
        # cycle to replay.
        policy, factor = (
            TimberFFPolicy(3, CheckingPeriod.with_tb(PERIOD, 30)), 1.08)
    else:
        # TIMBER-latch masks and flags ~140 ps violations, so slowdown
        # windows open; at the slowed period those cycles are clean.
        policy, factor = (
            TimberLatchPolicy(3, CheckingPeriod.with_tb(PERIOD, 30)), 1.2)
    stages = [
        PipelineStage(name=f"s{i}", critical_delay_ps=950,
                      typical_delay_ps=700, sensitization_prob=0.05,
                      seed=5 + i)
        for i in range(3)
    ]
    return PipelineSimulation(
        stages, policy, period_ps=PERIOD, controller=controller,
        variability=ConstantVariation(factor))


def _graph(controller=None):
    graph = TimingGraph("chain", PERIOD)
    for name in ("a", "b", "c", "d"):
        graph.add_ff(name)
    graph.add_edge("a", "b", 980)
    graph.add_edge("b", "c", 980)
    graph.add_edge("c", "d", 980)
    # With a controller, TIMBER-latch masks and flags ~127 ps
    # violations.
    scheme, factor = (("timber-ff", 1.03) if controller is None
                      else ("timber-latch", 1.15))
    return GraphPipelineSimulation(
        graph, scheme=scheme, percent_checking=30.0,
        sensitization_prob=0.05, variability=ConstantVariation(factor),
        controller=controller, seed=3)


BUILDERS = {"pipeline": (_pipeline, "s1"), "graph": (_graph, "c")}


def _counts(kernel: str) -> dict[str, int]:
    snapshot = obs.REGISTRY.snapshot()

    def value(name: str, **labels) -> int:
        for series in snapshot.get(name, {}).get("series", []):
            if series["labels"] == {"kernel": kernel, **labels}:
                return series["value"]
        return 0

    return {
        "screened": value("repro_kernel_cycles_screened_total"),
        "screen": value("repro_kernel_cycles_replayed_total",
                        reason="screen"),
        "carryover": value("repro_kernel_cycles_replayed_total",
                           reason="carryover"),
    }


@pytest.fixture
def metrics(monkeypatch):
    monkeypatch.delenv(kernels.SCALAR_ENV, raising=False)
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    if not was_enabled:
        obs.disable()


def _count_replays(sim) -> list[int]:
    """Record every cycle ``sim`` replays through the scalar machine."""
    replayed: list[int] = []
    simulate = sim._simulate_cycle

    def counting(cycle, *args):
        replayed.append(cycle)
        return simulate(cycle, *args)

    sim._simulate_cycle = counting
    return replayed


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_background_rows_count_nothing(kind, metrics):
    build, _ = BUILDERS[kind]
    build().background_rows(CYCLES)
    assert _counts(kind) == {"screened": 0, "screen": 0, "carryover": 0}


@pytest.mark.parametrize("mode", ["fresh", "shared", "controller"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_counters_partition_walked_cycles(kind, mode, metrics):
    make, site = BUILDERS[kind]

    def build():
        return make(CentralErrorController(
            period_ps=PERIOD, consolidation_latency_ps=PERIOD)
            if mode == "controller" else None)

    rows = build().background_rows(CYCLES) if mode == "shared" else None
    start = 700 if mode == "shared" else 0
    overlay = FaultOverlay(
        [FaultSpec(fault_id=0, kind="delay", site=site, cycle=1500,
                   duration_cycles=3, magnitude_ps=150)],
        [site])
    sim = build()
    sim.faults = overlay
    replayed = _count_replays(sim)
    obs.reset()
    sim.run(CYCLES, start_cycle=start, rows=rows)
    counts = _counts(kind)
    assert counts["carryover"] > 0
    assert counts["screen"] + counts["carryover"] == len(replayed)
    assert (counts["screened"] + counts["screen"] + counts["carryover"]
            == CYCLES - start)
    if mode == "controller":
        # Screen hits retired at the slowed period count as screened.
        points = replay_points(build()._block(0, CYCLES)[-1], 0, overlay)
        assert sim.controller.windows
        assert counts["screen"] < len(points)


def _random_windows(rng: random.Random) -> list[SlowdownWindow]:
    """Sorted, disjoint windows, some adjacent, like ``notify_flag``'s."""
    windows, cycle = [], rng.randrange(0, 5)
    for _ in range(rng.randrange(0, 12)):
        start = cycle + rng.choice([0, 0, 1, rng.randrange(1, 40)])
        end = start + rng.randrange(1, 40)
        windows.append(SlowdownWindow(trigger_cycle=max(0, start - 2),
                                      start_cycle=start, end_cycle=end))
        cycle = end
    return windows


def test_window_bisection_matches_linear_scan():
    rng = random.Random(2010)
    for _ in range(300):
        windows = _random_windows(rng)
        horizon = (windows[-1].end_cycle if windows else 0) + 10
        for cycle in range(horizon):
            covering = [w for w in windows
                        if w.start_cycle <= cycle < w.end_cycle]
            assert window_at(windows, cycle) == (
                covering[0] if covering else None)
        for _ in range(20):
            start = rng.randrange(0, horizon)
            stop = rng.randrange(start, horizon + 1)
            linear = sum(max(0, min(stop, w.end_cycle)
                             - max(start, w.start_cycle))
                         for w in windows)
            assert slow_cycles_between(windows, start, stop) == linear
