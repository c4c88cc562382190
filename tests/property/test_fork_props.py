"""Property: forked evaluation is byte-identical to full runs.

The campaign evaluator's forked ``replay`` restores the fault-free
state at the nearest stride boundary at or before each fault's cycle
and simulates only the fault's influence window.  Because every
sensitization and variability draw is addressed by absolute cycle and
the overlay adds zero delay before ``spec.cycle``, the encoded
:class:`FaultOutcome` stream must match the full-run reference byte
for byte — across targets, schemes, relay horizons, and snapshot
strides, including a fault landing exactly on a stride boundary.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import (
    CampaignConfig,
    FaultSpec,
    build_report,
    fault_runner,
    iter_population,
    run_campaign,
)
from repro.campaign.engine import _CycleEvaluator
from repro.campaign.reference import FULL_RUN_TARGETS
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="forked evaluation needs the vector kernels")

#: (target, scheme) pairs the forked evaluator supports.
CONFIGURATIONS = [
    ("pipeline", "plain"),
    ("pipeline", "timber-ff"),
    ("pipeline", "timber-latch"),
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
def test_forked_outcomes_match_full_runs(configuration, seed, stride,
                                         relay_horizon):
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=10, num_cycles=150,
        seed=seed, snapshot_stride=stride, relay_horizon=relay_horizon,
    )
    runner = fault_runner(config)
    assert isinstance(runner, _CycleEvaluator)
    reference = FULL_RUN_TARGETS[target]
    for spec in config.iter_population():
        full_outcome, _ = reference(config, spec)
        forked_outcome, _ = runner.replay(spec)
        assert _encoded(forked_outcome) == _encoded(full_outcome), spec


@settings(max_examples=6, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    stride=st.sampled_from([25, 64, 100]),
    kind=st.sampled_from(["seu", "delay", "droop"]),
)
def test_fault_on_stride_boundary_matches(configuration, seed, stride,
                                          kind):
    # The fork point for cycle == stride is the snapshot AT that cycle:
    # a zero-cycle fault-free prefix.  This exercises the boundary
    # between "restore and immediately inject" and "advance first".
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=2, num_cycles=300,
        seed=seed, snapshot_stride=stride,
    )
    spec = FaultSpec(fault_id=0, kind=kind, site=config.sites()[0],
                     cycle=stride, duration_cycles=2, magnitude_ps=180)
    runner = fault_runner(config)
    start, _ = runner.trajectory.fork_point(spec.cycle)
    assert start == stride
    full_outcome, _ = FULL_RUN_TARGETS[target](config, spec)
    forked_outcome, _ = runner.replay(spec)
    assert _encoded(forked_outcome) == _encoded(full_outcome)


@settings(max_examples=6, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    stride=st.sampled_from([40, 256]),
    faults_per_task=st.sampled_from([4, 7, 12]),
)
def test_campaign_reports_independent_of_fork_path(configuration, seed,
                                                   stride,
                                                   faults_per_task):
    # End-to-end: the whole campaign (chunked through the exec layer,
    # outcomes scattered back to population order) must not depend on
    # whether faults ran forked or as full runs.
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=12, num_cycles=150,
        faults_per_task=faults_per_task, seed=seed,
        snapshot_stride=stride,
    )
    full_run = FULL_RUN_TARGETS[target]
    reference = [full_run(config, spec)[0]
                 for spec in config.iter_population()]
    forked = run_campaign(config)
    assert _encoded(forked.outcomes) == _encoded(reference)
    assert _encoded(forked.report) == _encoded(
        build_report(config, reference))


@settings(max_examples=12, deadline=None)
@given(
    num_faults=st.integers(min_value=1, max_value=60),
    start=st.integers(min_value=0, max_value=60),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_population_streaming_is_chunk_invariant(num_faults, start,
                                                 seed):
    # Counter-based seeding: any [start, stop) slice of the stream is
    # byte-identical to the same slice of the full population.
    start = min(start, num_faults)
    kwargs = dict(sites=["s0", "s1", "s2"], num_cycles=200, seed=seed)
    full = list(iter_population(num_faults=num_faults, **kwargs))
    tail = list(iter_population(num_faults=num_faults, start=start,
                                **kwargs))
    assert tail == full[start:]
    assert _encoded(tail) == _encoded(full[start:])
