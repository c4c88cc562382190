"""Property: a lane batch that retires early equals the forked replay.

The lane machine batches windows of any length: it steps a long window
in segments and retires the batch once every lane still inside its
window is idle, past its fault-active steps and facing only quiet
background (the prefix table's cumulative ``busy`` count).  Retiring
must be invisible.  For every (target, scheme) with a lane machine, at
relay horizons far past the fault's effect and on backgrounds made
noisy with busy cycles planted in the windows — so that some batches
cannot retire early and run across segment boundaries — the chunk's
outcomes, work and :func:`repro.obs.semantic_snapshot` must be the
same with the machine as without it (every lane replayed through the
per-fault fork).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.campaign import CampaignConfig, FaultSpec, fault_runner
from repro.campaign.engine import _window_end
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY

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

_CYCLES = 400


def _evaluate(evaluator, specs) -> tuple:
    """``(outcomes, work, semantic snapshot, lane steps)`` of one chunk,
    with the counters zeroed first and the obs state restored after."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        outcomes, work = evaluator.evaluate_chunk(specs)
        family = obs.REGISTRY.snapshot().get(
            "repro_kernel_lane_steps_total", {"series": []})
        steps = {"run": 0, "retired": 0}
        for series in family["series"]:
            steps[series["labels"]["path"]] += series["value"]
        return (json.dumps(encode_result(outcomes), sort_keys=True), work,
                json.dumps(obs.semantic_snapshot(), sort_keys=True),
                steps)
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()


def _plant_busy(evaluator, config, planted) -> None:
    """Make each ``(cycle, lateness)`` of ``planted`` a busy background
    cycle: its first column (stage ``cs0``, or every graph edge) arrives
    ``lateness`` ps past the period, so it fails, masks, borrows,
    detects or predicts as the scheme dictates."""
    rows = [column.copy() for column in evaluator.rows]
    for cycle, lateness in planted:
        if config.target == "pipeline":
            rows[0][cycle, 0] = config.period_ps + lateness
        else:
            rows[0][cycle, :] = True
            rows[1][cycle, :] = config.period_ps + lateness
        rows[-1][cycle] = True
    evaluator.rows = tuple(rows)
    evaluator.machine.table = evaluator.machine.prefix_table(
        evaluator.rows)


def _batched_and_replayed(evaluator, specs) -> tuple:
    """The chunk's evaluation with the lane machine, then without."""
    batched = _evaluate(evaluator, specs)
    evaluator.machine = None
    return batched, _evaluate(evaluator, specs)


@pytest.mark.parametrize("target,scheme", CONFIGURATIONS)
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    stride=st.sampled_from([16, 64, 400]),
    relay_horizon=st.sampled_from([12, 30, 70, 140]),
    planted=st.lists(
        st.tuples(st.integers(min_value=0, max_value=_CYCLES - 1),
                  st.sampled_from([-20, 30, 200])),
        max_size=8),
)
def test_retired_batches_match_forked_replay(target, scheme, seed, stride,
                                             relay_horizon, planted):
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=40, num_cycles=_CYCLES,
        seed=seed, snapshot_stride=stride, relay_horizon=relay_horizon)
    evaluator = fault_runner(config)
    if planted:
        _plant_busy(evaluator, config, planted)
    specs = config.population()
    batched, replayed = _batched_and_replayed(evaluator, specs)
    assert batched[:3] == replayed[:3]
    # Every batched window step is either run or retired.
    if evaluator.lanes_batched == len(specs):
        assert sum(batched[3].values()) == sum(
            _window_end(config, spec) + 1 - spec.cycle for spec in specs)


@pytest.mark.parametrize("target,scheme", CONFIGURATIONS)
@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    planted=st.lists(
        st.tuples(st.integers(min_value=0, max_value=119),
                  st.sampled_from([-20, 30, 200])),
        min_size=1, max_size=6),
)
def test_busy_count_matches_scalar_cycles(target, scheme, seed, planted):
    # The oracle: each background cycle run alone from the idle
    # snapshot through the forked path's scalar walk is busy exactly
    # when it reports a capture event or leaves state behind.
    config = CampaignConfig(target=target, scheme=scheme, num_faults=1,
                            num_cycles=120, seed=seed)
    evaluator = fault_runner(config)
    _plant_busy(evaluator, config, planted)
    sim, idle = evaluator.sim, evaluator.trajectory.snapshots[0]
    busy = []
    for cycle in range(config.num_cycles):
        events = []
        sim.capture_observer = lambda *event: events.append(event)
        sim.restore(idle)
        sim.run(cycle + 1, start_cycle=cycle, rows=evaluator.rows)
        busy.append(bool(events) or not sim._idle())
    table = evaluator.machine.table
    assert (table.busy[1:] - table.busy[:-1]).tolist() == busy


@pytest.mark.parametrize("target,scheme", [("pipeline", "timber-ff"),
                                           ("graph", "timber-ff")])
def test_busy_window_cycle_holds_the_batch_across_segments(target,
                                                          scheme):
    # One fault at cycle 100 with a 120-cycle window on a quiet
    # background retires a few steps in.  Plant a violation 40 steps
    # into its window: the batch must run past it — across segment
    # boundaries — before it retires, and still match the fork.
    config = CampaignConfig(target=target, scheme=scheme, num_faults=1,
                            num_cycles=_CYCLES, seed=5,
                            snapshot_stride=64, relay_horizon=120)
    site = config.sites()[0]
    specs = [FaultSpec(fault_id=0, kind="delay", site=site, cycle=100,
                       duration_cycles=1, magnitude_ps=150)]
    quiet = fault_runner(config)
    assert not quiet.machine.table.busy[-1]
    batched, replayed = _batched_and_replayed(quiet, specs)
    assert batched[:3] == replayed[:3]
    assert 0 < batched[3]["run"] < 16 < batched[3]["retired"]

    noisy = fault_runner(config)
    _plant_busy(noisy, config, [(140, 30)])
    batched, replayed = _batched_and_replayed(noisy, specs)
    assert batched[:3] == replayed[:3]
    assert 41 <= batched[3]["run"] < 121
    assert batched[3]["run"] + batched[3]["retired"] == 121
