"""Property: the screened walk is one walk, whatever feeds its rows.

Both cycle simulators run a vector window through one screened block
walk.  Its rows are either evaluated per block or sliced from shared
``background_rows``.  A windowed run fed the shared rows must equal the
same run evaluating its own blocks, and both must equal the scalar
reference: every result field, the carried state left behind, the
capture-observer event stream and the semantic obs snapshot.  Windows
start on and off snapshot-stride and block boundaries, and overlays put
fault cycles before, inside, on the edges of and after the window.
"""

import dataclasses
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.campaign.faults import FaultOverlay, FaultSpec
from repro.core.checking_period import CheckingPeriod
from repro.kernels import HAVE_NUMPY, SCALAR_ENV
from repro.kernels.schedule import MAX_BLOCK
from repro.pipeline.graph_sim import GraphPipelineSimulation
from repro.pipeline.pipeline import PipelineSimulation
from repro.pipeline.schemes import (
    CanaryPolicy,
    PlainPolicy,
    RazorPolicy,
    TimberFFPolicy,
    TimberLatchPolicy,
)
from repro.pipeline.stage import PipelineStage
from repro.timing.graph import TimingGraph
from repro.variability import LocalVariation

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the screened walk needs the vector kernels")

PERIOD = 1000
STAGES = 4
STRIDE = 64


def _policy(scheme: str):
    cp = CheckingPeriod.with_tb(PERIOD, 30)
    return {
        "plain": lambda: PlainPolicy(STAGES),
        "timber-ff": lambda: TimberFFPolicy(STAGES, cp),
        "timber-latch": lambda: TimberLatchPolicy(STAGES, cp),
        "razor": lambda: RazorPolicy(STAGES, window_ps=200),
        "canary": lambda: CanaryPolicy(STAGES, guard_ps=40),
    }[scheme]()


def _pipeline(scheme: str, seed: int, faults=None, observer=None):
    stages = [
        PipelineStage(name=f"s{i}", critical_delay_ps=960,
                      typical_delay_ps=700, sensitization_prob=0.2,
                      seed=seed + i)
        for i in range(STAGES)
    ]
    return PipelineSimulation(
        stages, _policy(scheme), period_ps=PERIOD,
        variability=LocalVariation(sigma=0.03, seed=seed),
        faults=faults, capture_observer=observer)


def _graph(scheme: str, seed: int, faults=None, observer=None):
    graph = TimingGraph("walk-chain", PERIOD)
    for index in range(STAGES + 1):
        graph.add_ff(f"g{index}")
    for index in range(1, STAGES + 1):
        graph.add_edge(f"g{index - 1}", f"g{index}", 960)
    graph.add_edge("g0", "g3", 930)
    return GraphPipelineSimulation(
        graph, scheme=scheme, percent_checking=30.0,
        sensitization_prob=0.2,
        variability=LocalVariation(sigma=0.03, seed=seed),
        seed=seed, faults=faults, capture_observer=observer)


#: simulator builder, fault sites, schemes.
SIMULATORS = {
    "pipeline": (_pipeline, [f"s{i}" for i in range(STAGES)],
                 ["plain", "timber-ff", "timber-latch", "razor",
                  "canary"]),
    "graph": (_graph, [f"g{i}" for i in range(1, STAGES + 1)],
              ["plain", "timber-ff", "timber-latch"]),
}


@st.composite
def windows(draw):
    """``(start, stop, rows_cycles)``: a window and a rows length."""
    stop = draw(st.integers(min_value=2, max_value=2600))
    start = draw(st.one_of(
        st.sampled_from([0, STRIDE, 2 * STRIDE, 1024, 2048]),
        st.integers(min_value=0, max_value=stop - 1),
    ).filter(lambda cycle: cycle < stop))
    rows_cycles = draw(st.sampled_from([stop, stop + 37, MAX_BLOCK + 5]))
    return start, stop, max(stop, rows_cycles)


@st.composite
def fault_specs(draw, start: int, stop: int, sites: list[str]):
    """0-3 faults placed relative to the window ``[start, stop)``."""
    specs = []
    for fault_id in range(draw(st.integers(min_value=0, max_value=3))):
        duration = draw(st.integers(min_value=1, max_value=4))
        where = draw(st.sampled_from(
            ["before", "inside", "start", "last", "after"]))
        cycle = {
            "before": max(0, start - duration
                          + draw(st.integers(min_value=-3, max_value=1))),
            "inside": draw(st.integers(min_value=start,
                                       max_value=stop - 1)),
            "start": start,
            "last": stop - 1,
            "after": stop + draw(st.integers(min_value=0, max_value=5)),
        }[where]
        specs.append(FaultSpec(
            fault_id=fault_id,
            kind=draw(st.sampled_from(["delay", "seu", "droop"])),
            site=draw(st.sampled_from(sites)), cycle=cycle,
            duration_cycles=duration,
            magnitude_ps=draw(st.integers(min_value=20, max_value=400))))
    return specs


def _windowed(build, scheme, seed, specs, sites, start, stop, *,
              scalar: bool, rows=None):
    """Result, end state, events and semantic metrics of one window.

    The window starts from the fault-free state at ``start``, as a
    forked campaign replay does."""
    saved = os.environ.get(SCALAR_ENV)
    was_enabled = obs.enabled()
    os.environ[SCALAR_ENV] = "1" if scalar else "0"
    try:
        prefix = build(scheme, seed)
        if start:
            prefix.run(start)
        state = prefix.snapshot()
        events = []
        sim = build(scheme, seed, faults=FaultOverlay(specs, sites),
                    observer=lambda *event: events.append(event))
        sim.restore(state)
        obs.reset()
        obs.enable()
        result = sim.run(stop, start_cycle=start, rows=rows)
        metrics = json.dumps(obs.semantic_snapshot(), sort_keys=True)
        return (dataclasses.asdict(result), sim.snapshot(), events,
                metrics)
    finally:
        if saved is None:
            os.environ.pop(SCALAR_ENV, None)
        else:
            os.environ[SCALAR_ENV] = saved
        obs.reset()
        if not was_enabled:
            obs.disable()


@pytest.mark.parametrize("kind", sorted(SIMULATORS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2 ** 31))
def test_shared_rows_walk_equals_fresh_walk_and_scalar(kind, data, seed):
    build, sites, schemes = SIMULATORS[kind]
    scheme = data.draw(st.sampled_from(schemes), label="scheme")
    start, stop, rows_cycles = data.draw(windows(), label="window")
    specs = data.draw(fault_specs(start, stop, sites), label="faults")
    rows = build(scheme, seed).background_rows(rows_cycles)

    def window(**kwargs):
        return _windowed(build, scheme, seed, specs, sites, start, stop,
                         **kwargs)

    shared = window(scalar=False, rows=rows)
    fresh = window(scalar=False)
    scalar = window(scalar=True)
    assert shared == fresh
    assert fresh == scalar
