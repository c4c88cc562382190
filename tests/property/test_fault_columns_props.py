"""Properties: the columnar fault path equals the per-fault one.

Campaign and soak faults reach the lane machine as
:class:`~repro.campaign.faults.FaultColumns` blocks — one int array per
:class:`FaultSpec` field — and are planned, run and folded as arrays.
Per-fault records are only built where one is consumed.  That is an
optimization only if it is invisible, so:

1. column draws (campaign :meth:`CampaignConfig.fault_columns` and soak
   :func:`~repro.soak.generator.specs_for_draws`) equal the scalar
   :func:`~repro.campaign.faults.draw_spec` /
   :func:`~repro.soak.generator.spec_for_draw` loops field by field,
   across the 32-bit counter wrap included;
2. vectorized planning batches exactly the lanes the per-spec rule
   picks (idle fork snapshot, state-free prefix, any window length),
   with windows of 63–65 steps and snapshots that carry state;
3. ``evaluate_chunk`` on a column block equals ``evaluate_chunk`` on the
   same :class:`FaultSpec` list: outcomes, per-fault work units and the
   semantic obs snapshot;
4. every materialized field — specs out of a block, outcomes out of the
   evaluator — is a plain ``int`` or ``str``.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.campaign import CampaignConfig, FaultSpec, fault_runner
from repro.campaign.faults import (
    FAULT_KINDS,
    FaultColumns,
    draw_spec,
    population_columns,
)
from repro.campaign.outcomes import outcome_from_events
from repro.exec.cache import encode_result
from repro.exec.worker import WARM
from repro.kernels import HAVE_NUMPY
from repro.kernels.rng import split64
from repro.soak import build_strata, spec_for_draw
from repro.soak.generator import specs_for_draws

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the columnar path is vectorized")

_WRAP = 2 ** 32

#: (target, scheme) pairs with a lane machine.
MACHINES = [
    ("pipeline", "plain"),
    ("pipeline", "timber-ff"),
    ("pipeline", "razor"),
    ("pipeline", "dcf"),
    ("pipeline", "canary"),
    ("graph", "plain"),
    ("graph", "timber-ff"),
    ("graph", "timber-latch"),
]

_SPEC_FIELDS = [field.name for field in dataclasses.fields(FaultSpec)]


def _encoded(value) -> str:
    return json.dumps(encode_result(value), sort_keys=True)


def _assert_columns_match(block: FaultColumns, specs: list) -> None:
    """``block`` holds ``specs``, compared column by column."""
    assert len(block) == len(specs)
    assert block.fault_id.tolist() == [s.fault_id for s in specs]
    assert [FAULT_KINDS[k] for k in block.kind.tolist()] == [
        s.kind for s in specs]
    assert [block.sites[i] for i in block.site.tolist()] == [
        s.site for s in specs]
    for name in ("cycle", "duration_cycles", "magnitude_ps", "span"):
        assert getattr(block, name).tolist() == [
            getattr(s, name) for s in specs], name


def _assert_plain(record) -> None:
    for name, value in dataclasses.asdict(record).items():
        assert type(value) in (int, str), (name, type(value))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=-(2 ** 63), max_value=2 ** 64 - 1),
    num_stages=st.integers(min_value=2, max_value=7),
    kinds=st.lists(st.sampled_from(FAULT_KINDS), min_size=1, max_size=4,
                   unique=True),
    lo_ps=st.integers(min_value=1, max_value=300),
    width_ps=st.integers(min_value=0, max_value=500),
    max_span=st.integers(min_value=2, max_value=5),
    start=st.one_of(st.integers(min_value=0, max_value=500),
                    st.integers(min_value=_WRAP - 80,
                                max_value=_WRAP + 80)),
    length=st.integers(min_value=1, max_value=120),
)
def test_campaign_column_draw_equals_scalar_loop(seed, num_stages, kinds,
                                                 lo_ps, width_ps, max_span,
                                                 start, length):
    sites = [f"cs{i}" for i in range(num_stages)]
    stop = start + length
    block = population_columns(
        num_faults=stop, start=start, sites=sites, num_cycles=900,
        seed=seed, kinds=kinds, magnitude_range_ps=(lo_ps,
                                                    lo_ps + width_ps),
        max_span=max_span)
    lanes = split64(seed)
    expected = [
        draw_spec(lanes, fault_id, sites=sites, kinds=kinds, lo_ps=lo_ps,
                  hi_ps=lo_ps + width_ps, last_start=900 - 3,
                  max_duration_cycles=3, max_span=max_span)
        for fault_id in range(start, stop)]
    _assert_columns_match(block, expected)
    assert list(block) == expected
    for spec in block:
        _assert_plain(spec)


@settings(max_examples=40, deadline=None)
@given(
    target=st.sampled_from(["pipeline", "graph", "netlist"]),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    bins=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_soak_column_draw_equals_scalar_loop(target, seed, bins, data):
    config = CampaignConfig(
        target=target, scheme="timber-ff", num_faults=1,
        num_cycles=60 if target == "netlist" else 300, seed=seed)
    strata = {s.key: s for s in build_strata(config, bins)}
    fault_id = data.draw(st.integers(min_value=0, max_value=2 ** 33))
    runs = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        key = data.draw(st.sampled_from(sorted(strata)))
        counter = data.draw(st.one_of(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=_WRAP - 5, max_value=_WRAP + 5)))
        count = data.draw(st.integers(min_value=1, max_value=6))
        runs.append([key, counter, count, fault_id])
        fault_id += count
    expected = [spec_for_draw(config, strata[key], counter + offset,
                              first + offset)
                for key, counter, count, first in runs
                for offset in range(count)]
    block = specs_for_draws(config, strata, runs)
    _assert_columns_match(block, expected)
    for index, spec in enumerate(expected):
        assert block[index] == spec
        _assert_plain(block[index])


def _carry_state(evaluator, config, picks) -> None:
    """Make the snapshots at ``picks`` carry borrow, and the background
    cycles one past each pick's boundary borrow when entered idle — so
    non-idle forks and state-carrying prefixes both occur."""
    trajectory = evaluator.trajectory
    snapshots = list(trajectory.snapshots)
    for index in picks:
        borrow, relay = snapshots[index]
        if config.target == "pipeline":
            snapshots[index] = ((config.period_ps // 10,) + borrow[1:],
                                relay)
        else:
            snapshots[index] = ({**borrow, "g1": config.period_ps // 10},
                                relay)
    evaluator.trajectory = dataclasses.replace(
        trajectory, snapshots=tuple(snapshots))
    rows = [column.copy() for column in evaluator.rows]
    for index in picks:
        cycle = min(index * trajectory.stride + 5, config.num_cycles - 1)
        if config.target == "pipeline":
            rows[0][cycle, 0] = config.period_ps + 30
        else:
            rows[0][cycle, :] = True
            rows[1][cycle, :] = config.period_ps + 30
        rows[-1][cycle] = True
    evaluator.rows = tuple(rows)
    evaluator.machine.table = evaluator.machine.prefix_table(
        evaluator.rows)


def _per_spec_rule(evaluator, config, spec) -> bool:
    """The lane rule stated for one spec, with scalar calls only."""
    machine = evaluator.machine
    start, state = evaluator.trajectory.fork_point(spec.cycle)
    return (machine.state_is_idle(state)
            and not machine.table.state[start:spec.cycle].any())


@settings(max_examples=25, deadline=None)
@given(
    configuration=st.sampled_from(MACHINES),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    stride=st.sampled_from([16, 40, 64]),
    relay_horizon=st.sampled_from([1, 4, 60, 61, 62, 63]),
    data=st.data(),
)
def test_vector_plan_picks_the_per_spec_lanes(configuration, seed,
                                              stride, relay_horizon,
                                              data):
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=40, num_cycles=260,
        seed=seed, snapshot_stride=stride, relay_horizon=relay_horizon)
    evaluator = fault_runner(config)
    picks = data.draw(st.lists(
        st.integers(min_value=0,
                    max_value=evaluator.trajectory.num_snapshots - 1),
        max_size=3, unique=True))
    if picks:
        _carry_state(evaluator, config, picks)
    specs = config.population()
    replayed = []

    def replay(spec):
        # Planning is what is under test: skip the simulation.
        replayed.append(spec.fault_id)
        return outcome_from_events(spec, []), 0

    evaluator.replay = replay
    evaluator.evaluate_chunk(specs)
    expected = [spec.fault_id for spec in specs
                if not _per_spec_rule(evaluator, config, spec)]
    assert sorted(replayed) == expected
    assert evaluator.lanes_batched == len(specs) - len(expected)
    assert evaluator.lanes_replayed == len(expected)


def _observed(config, faults) -> tuple:
    """``evaluate_chunk(faults)`` of a fresh evaluator, cold caches,
    plus the semantic obs it produced."""
    was_enabled = obs.enabled()
    WARM.clear()
    obs.reset()
    obs.enable()
    try:
        result = fault_runner(config).evaluate_chunk(faults)
        return result, json.dumps(obs.semantic_snapshot(), sort_keys=True)
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()


@settings(max_examples=12, deadline=None)
@given(
    configuration=st.sampled_from(MACHINES + [("netlist", "timber-ff")]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
    relay_horizon=st.sampled_from([1, 4, 70]),
    start=st.integers(min_value=0, max_value=20),
)
def test_column_block_evaluates_like_spec_list(configuration, seed,
                                               relay_horizon, start):
    target, scheme = configuration
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=start + 24,
        num_cycles=60 if target == "netlist" else 300, seed=seed,
        snapshot_stride=64, relay_horizon=relay_horizon)
    block = config.fault_columns(start)
    specs = list(config.iter_population(start))
    assert block == specs
    from_block, block_obs = _observed(config, block)
    from_specs, specs_obs = _observed(config, specs)
    assert _encoded(from_block[0]) == _encoded(from_specs[0])
    assert from_block.units == from_specs.units
    assert from_block[1] == from_specs[1]
    assert block_obs == specs_obs
    for outcome in from_block[0]:
        _assert_plain(outcome)
    assert all(type(units) is int for units in from_block.units)
