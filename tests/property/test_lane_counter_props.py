"""Property: lane batching keeps the semantic counters of forked replay.

A batched lane never simulates its prefix ``[fork start, injection
cycle)``; the lane machine adds the counter increments that prefix
would have made from its background's prefix table instead (a canary's
standing guard-band predictions, for one).  For every (target, scheme)
with a lane machine and a spread of snapshot strides, the same
evaluator must give the same outcomes, work and
:func:`repro.obs.semantic_snapshot` with its machine as without it
(every lane replayed), and the outcomes must equal the full-run
reference's.

The prefix table itself is pinned row by row to the scalar oracle, on
backgrounds stressed past the period so that they mask, fail and relay:
each background cycle, run alone from the idle snapshot with scalar
kernels, must leave state exactly when the table says so and bump the
semantic counters by exactly the table's increments for that cycle.
"""

import contextlib
import json
import os

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import obs
from repro.campaign import CampaignConfig, fault_runner
from repro.campaign.reference import FULL_RUN_TARGETS
from repro.exec.cache import encode_result
from repro.baselines.architectures import architecture_by_key
from repro.kernels import HAVE_NUMPY, SCALAR_ENV
from repro.kernels.fault_batch import graph_machine, pipeline_machine
from repro.pipeline.graph_sim import GraphPipelineSimulation
from repro.pipeline.pipeline import PipelineSimulation
from repro.pipeline.stage import PipelineStage
from repro.timing.graph import TimingGraph
from repro.variability.base import ConstantVariation

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane batching needs the vector kernels")

#: Every (target, scheme) pair with a lane machine.
CONFIGURATIONS = [
    ("pipeline", "plain"),
    ("pipeline", "timber-ff"),
    ("pipeline", "timber-latch"),
    ("pipeline", "razor"),
    ("pipeline", "canary"),
    ("pipeline", "dcf"),
    ("pipeline", "clock-stall"),
    ("graph", "plain"),
    ("graph", "timber-ff"),
    ("graph", "timber-latch"),
]


def _encoded(outcomes) -> str:
    return json.dumps(encode_result(outcomes), sort_keys=True)


def _evaluate(evaluator, specs) -> tuple:
    """``(outcomes, work, semantic snapshot)`` of one chunk, with the
    counters zeroed first and the obs state restored after."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        outcomes, work = evaluator.evaluate_chunk(specs)
        return (_encoded(outcomes), work,
                json.dumps(obs.semantic_snapshot(), sort_keys=True))
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()


@pytest.mark.parametrize("stride", [1, 32, 150, 256])
@pytest.mark.parametrize("target,scheme", CONFIGURATIONS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_batched_counters_match_replayed(target, scheme, stride, seed):
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=12, num_cycles=300,
        seed=seed, snapshot_stride=stride,
    )
    specs = config.population()
    evaluator = fault_runner(config)
    assert evaluator.machine is not None
    batched = _evaluate(evaluator, specs)
    batched_lanes = evaluator.lanes_batched
    assert batched_lanes > 0
    before = evaluator.lanes_replayed
    evaluator.machine = None
    replayed = _evaluate(evaluator, specs)
    assert evaluator.lanes_replayed == before + len(specs)
    assert evaluator.lanes_batched == batched_lanes
    assert batched == replayed
    reference = FULL_RUN_TARGETS[target]
    assert batched[0] == _encoded(
        [reference(config, spec)[0] for spec in specs])


@contextlib.contextmanager
def _scalar_kernels():
    """Pin new simulation runs to the scalar oracle."""
    previous = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[SCALAR_ENV]
        else:
            os.environ[SCALAR_ENV] = previous


def _background_sim(target: str, scheme: str, seed: int,
                    factors: "list[float]", stress: float):
    """A fault-free campaign-shaped simulation whose stage ``i`` (edge
    into ``g{i+1}`` on the graph) has critical delay ``factors[i]``
    periods, every delay scaled by ``stress`` — so its background can
    mask, fail, relay and borrow."""
    period = 1000
    variability = ConstantVariation(stress)
    if target == "pipeline":
        stages = [
            PipelineStage(name=f"cs{index}",
                          critical_delay_ps=int(period * factor),
                          typical_delay_ps=int(period * 0.7),
                          sensitization_prob=0.4, seed=seed + index)
            for index, factor in enumerate(factors)]
        policy = architecture_by_key(scheme).build_policy(
            len(factors), period, 30.0)
        return PipelineSimulation(stages, policy, period_ps=period,
                                  variability=variability)
    graph = TimingGraph("background-chain", period)
    graph.add_ff("g0")
    for index, factor in enumerate(factors, start=1):
        graph.add_ff(f"g{index}")
        graph.add_edge(f"g{index - 1}", f"g{index}", int(period * factor))
    return GraphPipelineSimulation(graph, scheme=scheme,
                                   percent_checking=30.0,
                                   sensitization_prob=0.4,
                                   variability=variability,
                                   max_variability_factor=stress,
                                   seed=seed)


@pytest.mark.parametrize("target,scheme", CONFIGURATIONS)
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       factors=st.lists(st.sampled_from([0.85, 0.95, 1.0]),
                        min_size=3, max_size=5),
       stress=st.sampled_from([1.05, 1.1, 1.15, 1.25, 1.4]))
def test_prefix_table_matches_scalar_cycles(target, scheme, seed,
                                            factors, stress):
    sim = _background_sim(target, scheme, seed, factors, stress)
    machine = (pipeline_machine(sim) if target == "pipeline"
               else graph_machine(sim))
    assume(machine is not None)  # a graph with no candidate endpoint
    num_cycles = 200
    table = machine.prefix_table(sim.background_rows(num_cycles))
    # A fresh simulation's state: a trajectory's ``snapshots[0]``.
    idle = sim.snapshot()
    leaves_state, deltas = [], []
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        with _scalar_kernels():
            for cycle in range(num_cycles):
                before = [counter.value for counter in machine.COUNTERS]
                sim.restore(idle)
                sim.run(cycle + 1, start_cycle=cycle)
                leaves_state.append(not sim._idle())
                deltas.append([counter.value - value for counter, value
                               in zip(machine.COUNTERS, before)])
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()
    assert table.state.tolist() == leaves_state
    assert (table.counts[1:] - table.counts[:-1]).tolist() == deltas
