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
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.campaign import CampaignConfig, fault_runner
from repro.campaign.reference import FULL_RUN_TARGETS
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
