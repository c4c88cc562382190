"""Unit tests for the screened walk's kernel counters.

Every cycle a vector walk covers lands in exactly one of
``repro_kernel_cycles_screened_total`` (retired in bulk),
``repro_kernel_cycles_replayed_total{reason="screen"}`` (a screen hit or
forced fault cycle) and ``{reason="carryover"}`` (clean screen, replayed
for carried borrow/relay state) — whether the walk evaluated its blocks
or sliced shared background rows.  Building those rows walks nothing.
"""

import pytest

from repro import kernels, obs
from repro.campaign.faults import FaultOverlay, FaultSpec
from repro.core.checking_period import CheckingPeriod
from repro.pipeline.graph_sim import GraphPipelineSimulation
from repro.pipeline.pipeline import PipelineSimulation
from repro.pipeline.schemes import TimberFFPolicy
from repro.pipeline.stage import PipelineStage
from repro.timing.graph import TimingGraph
from repro.variability import ConstantVariation

pytestmark = pytest.mark.skipif(
    not kernels.HAVE_NUMPY, reason="the screened walk needs numpy")

PERIOD = 1000
CYCLES = 3000


def _pipeline():
    # Sporadic +8% sensitized cycles violate by ~26 ps; TIMBER-FF masks
    # them and the borrow forces the next (screen-clean) cycle to replay.
    stages = [
        PipelineStage(name=f"s{i}", critical_delay_ps=950,
                      typical_delay_ps=700, sensitization_prob=0.05,
                      seed=5 + i)
        for i in range(3)
    ]
    return PipelineSimulation(
        stages, TimberFFPolicy(3, CheckingPeriod.with_tb(PERIOD, 30)),
        period_ps=PERIOD, variability=ConstantVariation(1.08))


def _graph():
    graph = TimingGraph("chain", PERIOD)
    for name in ("a", "b", "c", "d"):
        graph.add_ff(name)
    graph.add_edge("a", "b", 980)
    graph.add_edge("b", "c", 980)
    graph.add_edge("c", "d", 980)
    return GraphPipelineSimulation(
        graph, scheme="timber-ff", percent_checking=30.0,
        sensitization_prob=0.05, variability=ConstantVariation(1.03),
        seed=3)


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


@pytest.mark.parametrize("shared_rows", [False, True],
                         ids=["fresh", "shared"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_counters_partition_walked_cycles(kind, shared_rows, metrics):
    build, site = BUILDERS[kind]
    rows = build().background_rows(CYCLES) if shared_rows else None
    start = 700 if shared_rows else 0
    sim = build()
    sim.faults = FaultOverlay(
        [FaultSpec(fault_id=0, kind="delay", site=site, cycle=1500,
                   duration_cycles=3, magnitude_ps=150)],
        [site])
    replayed = _count_replays(sim)
    obs.reset()
    sim.run(CYCLES, start_cycle=start, rows=rows)
    counts = _counts(kind)
    assert counts["carryover"] > 0
    assert counts["screen"] + counts["carryover"] == len(replayed)
    assert (counts["screened"] + counts["screen"] + counts["carryover"]
            == CYCLES - start)
