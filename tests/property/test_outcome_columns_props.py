"""Properties: an outcome block is the list of its outcomes.

Campaign and soak outcomes travel as
:class:`~repro.campaign.outcomes.OutcomeColumns` blocks — one int64 row
per :class:`~repro.campaign.outcomes.FaultOutcome` field — from
``evaluate_chunk`` through the report, the result store and the soak
journal.  A block stands in for a list only if no reader can tell, so
for blocks out of real campaigns (pipeline and graph targets with every
lane-machine scheme, and the netlist target):

1. indexing (negative indices too), slicing, iteration, ``==`` in both
   directions and a pickle round trip all agree with ``list(block)``;
2. :func:`~repro.exec.cache.encode_stored` and
   :func:`~repro.exec.cache.encode_result` give the same bytes for the
   block and for the list, and :func:`~repro.exec.cache.decode_result`
   gives back a block equal to both;
3. :func:`~repro.campaign.report.build_report` gives the same
   ``to_json()`` for the block and for the list;
4. :meth:`~repro.columns.ColumnBlock.json_rows` (the text the soak round
   digest hashes) equals ``json.dumps`` of the :meth:`columns` lists
   zipped into rows, for any fields, site names and int64 values.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.architectures import ARCHITECTURES
from repro.campaign import CampaignConfig, OutcomeColumns, fault_runner
from repro.campaign.report import build_report
from repro.exec.cache import decode_result, encode_result, encode_stored
from repro.kernels import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="outcome blocks are numpy tables")

#: (target, scheme): every pipeline scheme with a lane machine, every
#: graph scheme, and the netlist target.
CONFIGURATIONS = (
    [("pipeline", arch.key) for arch in ARCHITECTURES
     if arch.key != "logical"]
    + [("graph", scheme)
       for scheme in ("plain", "timber-ff", "timber-latch")]
    + [("netlist", "timber-ff")])


def _block(target, scheme, seed, start, count):
    config = CampaignConfig(
        target=target, scheme=scheme, seed=seed, num_cycles=300,
        num_faults=start + count,
        num_stages=3 if target == "graph" else 5)
    outcomes, _work = fault_runner(config).evaluate_chunk(
        config.fault_columns(start))
    return config, outcomes


@settings(max_examples=40, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    start=st.integers(min_value=0, max_value=500),
    count=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
def test_block_is_its_list(configuration, seed, start, count, data):
    target, scheme = configuration
    config, block = _block(target, scheme, seed, start, count)
    records = list(block)
    assert isinstance(block, OutcomeColumns)
    assert len(block) == len(records) == count

    index = data.draw(st.integers(min_value=-count, max_value=count - 1))
    assert block[index] == records[index]
    lo, hi, step = (data.draw(st.none() | st.integers(-count - 2,
                                                      count + 2))
                    for _ in range(3))
    step = step or None
    part = block[lo:hi:step]
    assert isinstance(part, OutcomeColumns)
    assert part == records[lo:hi:step] and records[lo:hi:step] == part
    assert list(part) == records[lo:hi:step]

    assert block == records and records == block
    assert block == tuple(records)
    assert not (block != records)
    if count > 1:
        assert block != records[:-1] and records[:-1] != block
    assert pickle.loads(pickle.dumps(block)) == records

    stored = encode_stored(block)
    assert stored == encode_stored(records)
    assert encode_result(block) == encode_result(records)
    assert (json.dumps(encode_result(block), sort_keys=True)
            == json.dumps(encode_result(records), sort_keys=True))
    decoded = decode_result(json.loads(stored))
    assert isinstance(decoded, OutcomeColumns)
    assert decoded == block and decoded == records
    assert encode_stored(decoded) == stored
    assert (decode_result(encode_result(block)) == records)

    assert (build_report(config, block).to_json()
            == build_report(config, records).to_json())


@settings(max_examples=20, deadline=None)
@given(
    configuration=st.sampled_from(CONFIGURATIONS),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    cuts=st.lists(st.integers(min_value=0, max_value=30), max_size=4),
)
def test_concat_of_slices_and_decoded_parts_is_the_block(configuration,
                                                         seed, cuts):
    """Stored parts decode with their own site tables; joined with
    freshly computed ones they still give the whole block."""
    target, scheme = configuration
    _config, block = _block(target, scheme, seed, 0, 30)
    bounds = [0, *sorted(cuts), len(block)]
    parts = [block[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    mixed = [decode_result(json.loads(encode_stored(part)))
             if index % 2 else part for index, part in enumerate(parts)]
    joined = OutcomeColumns.concat(mixed)
    assert joined == block and list(joined) == list(block)
    assert OutcomeColumns.concat([]) == []


@settings(max_examples=60, deadline=None)
@given(
    sites=st.lists(st.text(min_size=1, max_size=6), min_size=1,
                   max_size=5, unique=True),
    count=st.integers(min_value=0, max_value=30),
    data=st.data(),
)
def test_json_rows_is_canonical_json(sites, count, data):
    rows = {}
    for name in OutcomeColumns.fields:
        labels = (sites if name == "site"
                  else OutcomeColumns.labels.get(name))
        values = (st.integers(min_value=0, max_value=len(labels) - 1)
                  if labels is not None
                  else st.integers(min_value=-(2 ** 63),
                                   max_value=2 ** 63 - 1))
        rows[name] = data.draw(st.lists(values, min_size=count,
                                        max_size=count))
    block = OutcomeColumns.from_rows(sites, **rows)
    fields = data.draw(st.lists(st.sampled_from(OutcomeColumns.fields),
                                min_size=1, max_size=9))
    columns = block.columns()
    assert block.json_rows(fields) == json.dumps(
        [list(row) for row in zip(*(columns[name] for name in fields))],
        sort_keys=True, separators=(",", ":"))
