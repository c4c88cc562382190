"""Pool workers ship the store encoding the parent would have written.

A pool worker returns each successful value together with its
:func:`repro.exec.cache.encode_stored` text, and the runner hands that
text to the result cache and the sweep checkpoint unchanged.  For every
value form a task returns — an outcome block, a list of dataclasses, a
dict, ``None`` — the text a forked worker ships must equal the parent's
own encoding of the value it received, and a value without a store
encoding must fail in the parent exactly as it does without a pool.
"""

import concurrent.futures
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import Fig8Row
from repro.campaign.faults import FAULT_KINDS
from repro.campaign.outcomes import (
    SEVERITY_LADDER,
    FaultOutcome,
    OutcomeColumns,
)
from repro.errors import ConfigurationError
from repro.exec import ResultCache, SweepCheckpoint, SweepRunner, SweepTask
from repro.exec.cache import encode_stored
from repro.exec.runner import exec_mp_context, execute_batch

STORED = "repro.exec.testing:stored_value_task"

_ints = st.integers(0, 2**40)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_text = st.text(max_size=8)
_sites = ("cs0", "cs1", "cs2")

_outcomes = st.builds(
    FaultOutcome, fault_id=_ints, kind=st.sampled_from(FAULT_KINDS),
    site=st.sampled_from(_sites), cycle=_ints, magnitude_ps=_ints,
    classification=st.sampled_from(SEVERITY_LADDER), events=_ints,
    worst_lateness_ps=_ints, max_borrowed_intervals=_ints)
_blocks = st.lists(_outcomes, min_size=1, max_size=25).map(
    lambda records: OutcomeColumns.from_records(records, _sites))
_fig8_rows = st.builds(
    Fig8Row, point=_text, checking_percent=_floats, style=_text,
    with_tb_interval=st.booleans(), margin_percent=_floats,
    ffs_replaced=_ints, ffs_total=_ints, power_overhead_percent=_floats,
    relay_area_overhead_percent=_floats, relay_slack_percent=_floats)
_scalars = st.none() | st.booleans() | _ints | _floats | _text

_values = (_blocks
           | st.lists(_outcomes | _fig8_rows, min_size=1, max_size=8)
           | st.dictionaries(_text, _scalars | st.lists(_scalars,
                                                         max_size=3),
                             max_size=4)
           | st.none())


def _payload(params: dict, index: int = 0) -> dict:
    return {"experiment": STORED, "params": params, "index": index,
            "seed": index, "key": f"stored[{index}]"}


@pytest.fixture(scope="module")
def pool():
    with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=exec_mp_context("fork")) as executor:
        yield executor


@settings(max_examples=60, deadline=None)
@given(value=_values)
def test_worker_text_is_the_parents_encoding(pool, value):
    stored = json.loads(encode_stored(value))
    out = pool.submit(execute_batch, [_payload({"stored": stored})],
                      True).result()
    entry = out["results"][0]
    assert entry["ok"]
    assert entry["encoded"] == encode_stored(entry["value"])
    assert entry["encoded"] == encode_stored(value)


def test_no_text_unless_asked(pool):
    out = pool.submit(execute_batch,
                      [_payload({"stored": {"a": 1}})]).result()
    assert out["results"][0]["value"] == {"a": 1}
    assert "encoded" not in out["results"][0]


def test_unencodable_value_ships_without_text(pool):
    out = pool.submit(execute_batch, [_payload({"unencodable": [1, 2]})],
                      True).result()
    entry = out["results"][0]
    assert entry["ok"] and entry["value"] == {1, 2}
    assert "encoded" not in entry


@pytest.mark.parametrize("store", ["cache", "checkpoint"])
def test_unencodable_value_fails_in_the_parent_as_without_a_pool(
        tmp_path, store):
    tasks = [SweepTask(experiment=STORED, params={"unencodable": [3]},
                       index=0, seed=0, key="stored[0]")]
    errors = []
    for workers in (1, 2):
        directory = tmp_path / f"w{workers}"
        runner = SweepRunner(
            workers=workers, retries=0,
            cache=ResultCache(directory) if store == "cache" else None,
            checkpoint=(SweepCheckpoint(directory / "cp.json")
                        if store == "checkpoint" else None),
            mp_start="fork")
        with runner, pytest.raises(ConfigurationError) as caught:
            runner.run(tasks)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] == "cannot cache value of type set"
