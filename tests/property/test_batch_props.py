"""Property: lane-batched evaluation is byte-identical to forking.

The campaign evaluator groups a chunk's faults by shared fork window
and advances whole groups through a vectorized borrow/select/relay
machine; lanes it cannot prove equivalent (non-idle fork state, noisy
background prefix, oversized window, no array semantics for the
policy) drop to the per-fault forked ``replay``.  Whatever mix of paths
a chunk takes, the encoded :class:`FaultOutcome` stream must match both
the forked replays and the full-run reference byte for byte — across targets,
schemes, snapshot strides, and relay horizons, including forced
all-replay fallbacks and faults on stride boundaries.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignConfig, FaultSpec, fault_runner
from repro.campaign.engine import _window_end
from repro.campaign.reference import FULL_RUN_TARGETS
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY
from repro.kernels.fault_batch import MAX_LANE_WINDOW

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane batching needs the vector kernels")

#: (target, scheme) pairs with a batched lane machine.
CONFIGURATIONS = [
    ("pipeline", "plain"),
    ("pipeline", "timber-ff"),
    ("pipeline", "timber-latch"),
    ("pipeline", "razor"),
    ("pipeline", "canary"),
    ("graph", "plain"),
    ("graph", "timber-ff"),
    ("graph", "timber-latch"),
]


def _encoded(outcome) -> str:
    return json.dumps(encode_result(outcome), sort_keys=True)


@settings(max_examples=10, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    stride=st.sampled_from([1, 32, 64, 150, 400]),
    relay_horizon=st.integers(min_value=1, max_value=8),
)
def test_batched_chunk_matches_forked_and_full_runs(
        configuration, seed, stride, relay_horizon):
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=12, num_cycles=150,
        seed=seed, snapshot_stride=stride, relay_horizon=relay_horizon,
    )
    specs = config.population()
    batched = fault_runner(config)
    assert batched.machine is not None
    batched_outcomes, batched_work = batched.evaluate_chunk(specs)
    forked = [batched.replay(spec) for spec in specs]
    forked_outcomes = [outcome for outcome, _ in forked]
    forked_work = sum(units for _, units in forked)
    assert _encoded(batched_outcomes) == _encoded(forked_outcomes)
    assert batched_work == forked_work
    reference = FULL_RUN_TARGETS[target]
    for spec, outcome in zip(specs, batched_outcomes):
        full_outcome, _ = reference(config, spec)
        assert _encoded(outcome) == _encoded(full_outcome), spec
    assert (batched.lanes_batched + batched.lanes_replayed
            == len(specs))


@settings(max_examples=8, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    stride=st.sampled_from([25, 64, 100]),
    kind=st.sampled_from(["seu", "delay", "droop"]),
)
def test_stride_boundary_fault_matches(configuration, seed, stride,
                                       kind):
    # cycle == stride forks from the snapshot AT the injection cycle: a
    # zero-length quiet prefix, the batching precondition's edge case.
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=2, num_cycles=300,
        seed=seed, snapshot_stride=stride,
    )
    spec = FaultSpec(fault_id=0, kind=kind, site=config.sites()[0],
                     cycle=stride, duration_cycles=2, magnitude_ps=180)
    batched = fault_runner(config)
    start, _ = batched.trajectory.fork_point(spec.cycle)
    assert start == stride
    full_outcome, _ = FULL_RUN_TARGETS[target](config, spec)
    (batched_outcome,), _ = batched.evaluate_chunk([spec])
    assert _encoded(batched_outcome) == _encoded(full_outcome)


@settings(max_examples=6, deadline=None)
@given(
    configuration=st.sampled_from([
        ("pipeline", "timber-ff"),
        ("graph", "timber-ff"),
        ("graph", "timber-latch"),
    ]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_oversized_windows_fall_back_and_still_match(configuration,
                                                     seed):
    # A relay horizon past MAX_LANE_WINDOW makes every lane's window
    # too long to batch: the evaluator must replay everything through
    # the forked path and still match it byte for byte.
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=8, num_cycles=300,
        seed=seed, snapshot_stride=64,
        relay_horizon=MAX_LANE_WINDOW + 40,
    )
    specs = config.population()
    batched = fault_runner(config)
    batched_outcomes, _ = batched.evaluate_chunk(specs)
    # Late faults clamp their window at num_cycles and may still fit
    # the lane cap; everything with an oversized window must replay.
    oversized = sum(
        1 for spec in specs
        if _window_end(config, spec) + 1 - spec.cycle > MAX_LANE_WINDOW)
    assert oversized > 0
    assert batched.lanes_replayed >= oversized
    assert batched.lanes_batched <= len(specs) - oversized
    forked_outcomes = [batched.replay(spec)[0] for spec in specs]
    assert _encoded(batched_outcomes) == _encoded(forked_outcomes)


@settings(max_examples=8, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    stride=st.sampled_from([32, 256]),
)
def test_chunk_walk_equals_per_fault_evaluation(configuration, seed,
                                                stride):
    # evaluate_chunk groups lanes; one-spec chunks run one-spec
    # groups.  Group size must never leak into an outcome.
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=10, num_cycles=200,
        seed=seed, snapshot_stride=stride,
    )
    specs = config.population()
    chunked, _ = fault_runner(config).evaluate_chunk(specs)
    single = fault_runner(config)
    singles = [single.evaluate_chunk([spec])[0][0] for spec in specs]
    assert _encoded(chunked) == _encoded(singles)
