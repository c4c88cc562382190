"""Unit tests for the lane machine's state-free-prefix eligibility rule.

A lane batches when its fork snapshot is idle and no background cycle
in ``[fork start, injection cycle)`` leaves borrow or relay state (the
machine's prefix table); everything else replays through the forked
path.  These pin the rule's three edges: a never-quiet but state-free
background (canary) batches in full, a state-carrying background
capture inside a prefix forces a replay, and a non-idle fork snapshot
replays its whole group.
"""

import dataclasses
import json

import pytest

from repro.campaign import CampaignConfig, FaultSpec, fault_runner
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane batching needs the vector kernels")


def _encoded(outcomes) -> str:
    return json.dumps(encode_result(outcomes), sort_keys=True)


def _spec(fault_id: int, cycle: int, site: str = "cs0") -> FaultSpec:
    return FaultSpec(fault_id=fault_id, kind="delay", site=site,
                     cycle=cycle, duration_cycles=1, magnitude_ps=120)


def _all_replayed(evaluator, specs) -> str:
    """The chunk's outcomes with the lane machine switched off."""
    machine, evaluator.machine = evaluator.machine, None
    try:
        return _encoded(evaluator.evaluate_chunk(specs)[0])
    finally:
        evaluator.machine = machine


def test_canary_batches_every_lane_at_a_wide_stride():
    # The canary's guard band predicts on most background cycles, so no
    # prefix is quiet — but a prediction carries no state, so every
    # prefix is state-free and every lane batches.
    config = CampaignConfig(scheme="canary", num_faults=240,
                            num_cycles=2000, snapshot_stride=256,
                            seed=7)
    evaluator = fault_runner(config)
    assert evaluator.rows[-1].mean() > 0.5  # never quiet
    assert not evaluator.machine.table.state.any()
    specs = config.population()
    outcomes, _ = evaluator.evaluate_chunk(specs)
    assert evaluator.lanes_replayed == 0
    assert evaluator.lanes_batched == len(specs)
    assert _encoded(outcomes) == _all_replayed(evaluator, specs)


def test_state_carrying_prefix_capture_forces_a_replay():
    # Make background cycle 70 violate at stage cs0: timber-ff masks it
    # and borrows, so the cycle carries state into cycle 71.
    config = CampaignConfig(scheme="timber-ff", num_faults=2,
                            num_cycles=200, snapshot_stride=64, seed=3)
    evaluator = fault_runner(config)
    delays, interesting = (column.copy() for column in evaluator.rows)
    delays[70, 0] = config.period_ps + 30
    interesting[70] = True
    evaluator.rows = (delays, interesting)
    evaluator.machine.table = evaluator.machine.prefix_table(
        evaluator.rows)
    assert evaluator.machine.table.state.nonzero()[0].tolist() == [70]
    # Both fork from the snapshot at 64.  Injected at 68 the prefix
    # [64, 68) is state-free (the masked cycle lies in the window,
    # which the machine models); injected at 100 the prefix holds it.
    early, late = _spec(0, 68), _spec(1, 100)
    outcomes, _ = evaluator.evaluate_chunk([early, late])
    assert (evaluator.lanes_batched, evaluator.lanes_replayed) == (1, 1)
    assert _encoded(outcomes) == _all_replayed(evaluator, [early, late])


def test_dcf_group_with_borrow_in_its_snapshot_replays_whole():
    config = CampaignConfig(scheme="dcf", num_faults=2, num_cycles=300,
                            snapshot_stride=64, seed=5)
    evaluator = fault_runner(config)
    trajectory = evaluator.trajectory
    borrow, relay = trajectory.snapshots[1]
    carried = ((config.period_ps // 10,) + borrow[1:], relay)
    evaluator.trajectory = dataclasses.replace(
        trajectory,
        snapshots=(trajectory.snapshots[0], carried,
                   *trajectory.snapshots[2:]))
    assert not evaluator.machine.state_is_idle(carried)
    group = [_spec(index, cycle) for index, cycle
             in enumerate((64, 80, 100, 127))]
    other = _spec(len(group), 20)
    evaluator.evaluate_chunk([*group, other])
    assert evaluator.lanes_replayed == len(group)
    assert evaluator.lanes_batched == 1
