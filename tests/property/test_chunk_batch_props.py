"""Properties: dispatch-batch evaluation equals per-chunk evaluation.

The exec layer runs a dispatch batch of campaign (or soak) chunks
through the task function's batch form: one config parse, one vector
population draw, one evaluator and one ``evaluate_chunk`` for every
chunk of the batch, split back per chunk afterwards.  That is only an
optimization if it is invisible, so:

1. the vector population draw (:func:`repro.campaign.faults.
   draw_specs`, behind ``iter_population``) equals a loop of the scalar
   :func:`~repro.campaign.faults.draw_spec` for any seed, site list,
   kind list, magnitude range, cycle budget and slice — fault ids past
   ``2**32`` included — and the vector soak draw
   (:func:`repro.soak.generator.specs_for_draws`) of any draw runs,
   and of the runs a round's chunk tasks carry for any allocation,
   equals a loop of :func:`~repro.soak.generator.spec_for_draw`;
2. ``campaign_chunk_task.batch`` and ``soak_chunk_task.batch`` return,
   for any split of the chunks into batches, exactly what mapping the
   task over the chunks returns: the same values, the same per-chunk
   ``events_processed``, and the same
   :func:`repro.obs.semantic_snapshot`.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.campaign import CampaignConfig
from repro.campaign.engine import campaign_chunk_task, campaign_tasks
from repro.campaign.faults import (
    FAULT_KINDS,
    draw_spec,
    iter_population,
)
from repro.exec.cache import encode_result
from repro.exec.runner import derive_seed, task_key
from repro.exec.worker import WARM
from repro.kernels import HAVE_NUMPY
from repro.kernels.rng import split64
from repro.soak import (
    SOAK_TASK,
    build_strata,
    soak_chunk_task,
    spec_for_draw,
)
from repro.soak.driver import _numbered, _round_tasks
from repro.soak.generator import specs_for_draws

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the population draw is vectorized")

#: (target, scheme) pairs across every campaign target.
CONFIGURATIONS = [
    ("pipeline", "plain"),
    ("pipeline", "timber-ff"),
    ("pipeline", "razor"),
    ("graph", "timber-ff"),
    ("graph", "timber-latch"),
    ("netlist", "timber-ff"),
]

#: Fault ids near the 32-bit counter wrap, where the vector draw's
#: uint32 lanes must agree with the scalar mixer's masking.
_WRAP = 2 ** 32


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=-(2 ** 63), max_value=2 ** 64 - 1),
    sites=st.lists(st.text(alphabet="abgs0123456789", min_size=1,
                           max_size=4),
                   min_size=1, max_size=7, unique=True),
    kinds=st.lists(st.sampled_from(FAULT_KINDS), min_size=1,
                   max_size=6),
    lo_ps=st.integers(min_value=1, max_value=400),
    width_ps=st.integers(min_value=0, max_value=5000),
    num_cycles=st.integers(min_value=8, max_value=10 ** 7),
    max_duration_cycles=st.integers(min_value=1, max_value=4),
    max_span=st.integers(min_value=2, max_value=5),
    start=st.one_of(st.integers(min_value=0, max_value=2000),
                    st.integers(min_value=_WRAP - 300,
                                max_value=_WRAP + 300),
                    st.integers(min_value=0, max_value=2 ** 40)),
    length=st.integers(min_value=0, max_value=300),
)
def test_vector_draw_equals_scalar_loop(seed, sites, kinds, lo_ps,
                                        width_ps, num_cycles,
                                        max_duration_cycles, max_span,
                                        start, length):
    stop = max(1, start + length)
    last_start = num_cycles - max_duration_cycles
    drawn = list(iter_population(
        num_faults=stop, start=start, sites=sites, num_cycles=num_cycles,
        seed=seed, kinds=kinds, magnitude_range_ps=(lo_ps,
                                                    lo_ps + width_ps),
        max_duration_cycles=max_duration_cycles, max_span=max_span))
    lanes = split64(seed)
    expected = [
        draw_spec(lanes, fault_id, sites=sites, kinds=kinds,
                  lo_ps=lo_ps, hi_ps=lo_ps + width_ps,
                  last_start=last_start,
                  max_duration_cycles=max_duration_cycles,
                  max_span=max_span)
        for fault_id in range(start, stop)
    ]
    assert drawn == expected
    # Plain ints, not numpy scalars: specs feed JSON-encoded outcomes.
    assert all(type(spec.cycle) is int and type(spec.magnitude_ps) is int
               for spec in drawn)


def _soak_draws(data, strata, chunks: int) -> list[list]:
    """``chunks`` lists of ``[stratum, counter_start, count,
    fault_id_start]`` draw runs.

    A run is consecutive counters of one stratum (how a round allocates
    them), some of them across the 32-bit wrap; fault ids run on from
    chunk to chunk."""
    fault_id = data.draw(st.integers(min_value=0, max_value=2 ** 33))
    out = []
    for _ in range(chunks):
        runs = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            stratum = data.draw(st.sampled_from(strata))
            counter = data.draw(st.one_of(
                st.integers(min_value=0, max_value=60),
                st.integers(min_value=_WRAP - 4, max_value=_WRAP + 4)))
            count = data.draw(st.integers(min_value=1, max_value=5))
            runs.append([stratum.key, counter, count, fault_id])
            fault_id += count
        out.append(runs)
    return out


def _scalar_loop(config, strata, runs) -> list:
    """:func:`spec_for_draw` for every draw of ``runs``, one by one."""
    return [spec_for_draw(config, strata[key], counter + offset,
                          fault_id + offset)
            for key, counter, count, fault_id in runs
            for offset in range(count)]


def _split(items: list, cuts: list[int]) -> list[list]:
    """``items`` cut into consecutive non-empty groups at ``cuts``."""
    bounds = sorted({cut for cut in cuts if 0 < cut < len(items)})
    edges = [0, *bounds, len(items)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def _observed(run) -> tuple[list, str]:
    """``run()``'s payloads plus the semantic metrics it produced.

    Both sides start from a cold warm cache, so each builds the
    background trajectory itself."""
    was_enabled = obs.enabled()
    WARM.clear()
    obs.reset()
    obs.enable()
    try:
        payloads = run()
        return payloads, json.dumps(obs.semantic_snapshot(),
                                    sort_keys=True)
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()


def _assert_same(batched: list, mapped: list) -> None:
    assert len(batched) == len(mapped)
    for left, right in zip(batched, mapped):
        assert (json.dumps(encode_result(left.value), sort_keys=True)
                == json.dumps(encode_result(right.value), sort_keys=True))
        assert left.events_processed == right.events_processed


def _config(configuration, seed, num_faults, chunk) -> CampaignConfig:
    target, scheme = configuration
    return CampaignConfig(
        target=target, scheme=scheme, num_faults=num_faults,
        num_cycles=60 if target == "netlist" else 300,
        seed=seed, faults_per_task=chunk, snapshot_stride=64)


@settings(max_examples=12, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    other_scheme=st.sampled_from([None, "plain"]),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    num_faults=st.integers(min_value=1, max_value=40),
    chunk=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
def test_campaign_batch_form_equals_mapped_task(configuration,
                                                other_scheme, seed,
                                                num_faults, chunk, data):
    config = _config(configuration, seed, num_faults, chunk)
    params = [task.params for task in campaign_tasks(config)]
    if other_scheme is not None:
        # A batch may cross a configuration boundary.
        second = _config((config.target, other_scheme), seed,
                         num_faults, chunk)
        params += [task.params for task in campaign_tasks(second)]
    # Resumed or cached chunks leave gaps: the batch form must not
    # assume its chunks are contiguous.
    keep = data.draw(st.lists(st.booleans(), min_size=len(params),
                              max_size=len(params)))
    params = [p for p, kept in zip(params, keep) if kept] or params[:1]
    groups = _split(params, data.draw(st.lists(
        st.integers(min_value=1, max_value=len(params)), max_size=4)))
    mapped, mapped_obs = _observed(
        lambda: [campaign_chunk_task(p) for p in params])
    batched, batched_obs = _observed(
        lambda: [payload for group in groups
                 for payload in campaign_chunk_task.batch(group)])
    _assert_same(batched, mapped)
    assert batched_obs == mapped_obs


@settings(max_examples=10, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    bins=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_soak_batch_form_equals_mapped_task(configuration, seed, bins,
                                            data):
    config = _config(configuration, seed, 1, 1)
    strata = build_strata(config, bins)
    chunks = _soak_draws(data, strata,
                         data.draw(st.integers(min_value=1, max_value=6)))
    params = [{"config": config.to_params(),
               "strata": {s.key: s.to_params() for s in strata},
               "draws": draws} for draws in chunks]
    groups = _split(params, data.draw(st.lists(
        st.integers(min_value=1, max_value=len(params)), max_size=3)))
    mapped, mapped_obs = _observed(
        lambda: [soak_chunk_task(p) for p in params])
    batched, batched_obs = _observed(
        lambda: [payload for group in groups
                 for payload in soak_chunk_task.batch(group)])
    _assert_same(batched, mapped)
    assert batched_obs == mapped_obs


@settings(max_examples=40, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    bins=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_vector_soak_draw_equals_scalar_loop(configuration, seed, bins,
                                             data):
    config = _config(configuration, seed, 1, 1)
    strata = {s.key: s for s in build_strata(config, bins)}
    (runs,) = _soak_draws(data, list(strata.values()), 1)
    assert (specs_for_draws(config, strata, runs)
            == _scalar_loop(config, strata, runs))


@settings(max_examples=40, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    bins=st.integers(min_value=1, max_value=4),
    chunk=st.integers(min_value=1, max_value=30),
    round_index=st.integers(min_value=0, max_value=10 ** 6),
    data=st.data(),
)
def test_round_draw_runs_equal_scalar_loop(configuration, seed, bins,
                                           chunk, round_index, data):
    """A round's chunk tasks carry its allocation as draw runs; the run
    form of the chunks equals the scalar draw loop, draw for draw."""
    config = _config(configuration, seed, 1, chunk)
    strata = build_strata(config, bins)
    by_key = {s.key: s for s in strata}
    # A random allocation over the strata, each stratum's counter
    # somewhere along its stream (the 32-bit wrap included).
    alloc = data.draw(st.lists(st.integers(min_value=0, max_value=60),
                               min_size=len(strata), max_size=len(strata)))
    counters = data.draw(st.lists(
        st.one_of(st.integers(min_value=0, max_value=10 ** 6),
                  st.integers(min_value=_WRAP - 40, max_value=_WRAP + 4)),
        min_size=len(strata), max_size=len(strata)))
    seq_start = data.draw(st.integers(min_value=0, max_value=2 ** 33))
    draws = [[s.key, counter, count]
             for s, counter, count in zip(strata, counters, alloc) if count]
    tasks = _round_tasks(config, {}, round_index,
                         _numbered(draws, seq_start))
    expected = []
    fault_id = seq_start
    for key, counter, count in draws:
        for offset in range(count):
            expected.append(spec_for_draw(config, by_key[key],
                                          counter + offset, fault_id))
            fault_id += 1
    chunks = [task.params["draws"] for task in tasks]
    sizes = [sum(run[2] for run in runs) for runs in chunks]
    assert sum(sizes) == len(expected)
    assert all(size == chunk for size in sizes[:-1])
    assert [task.index for task in tasks] == list(range(len(tasks)))
    # Seeds and keys as every soak run has named its chunk tasks.
    assert [(task.seed, task.key) for task in tasks] == [
        (derive_seed(config.seed, SOAK_TASK, round_index, index),
         task_key(SOAK_TASK, {"target": config.target,
                              "scheme": config.scheme,
                              "round": round_index, "chunk": index}))
        for index in range(len(tasks))]
    assert [spec for runs in chunks
            for spec in specs_for_draws(config, by_key, runs)] == expected
    assert [spec for runs in chunks
            for spec in _scalar_loop(config, by_key, runs)] == expected
