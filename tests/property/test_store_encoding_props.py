"""Round-trip properties of the result store encoding.

:func:`repro.exec.cache.encode_stored` is the one serialized form of a
task value in the result cache and the sweep checkpoint.  For every
value a task returns — campaign outcome lists, Fig. 8 rows, scalars —
decoding the stored text gives back an equal value with identical field
types; lists of one scalar-field dataclass travel as columns, and every
other value keeps the tagged :func:`encode_result` form byte for byte.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import Fig8Row
from repro.campaign.outcomes import FaultOutcome
from repro.exec.cache import decode_result, encode_result, encode_stored

_ints = st.integers(-2**40, 2**40)
_floats = st.floats(allow_nan=False)
_text = st.text(max_size=10)

_outcomes = st.builds(
    FaultOutcome, fault_id=_ints, kind=_text, site=_text, cycle=_ints,
    magnitude_ps=_ints, classification=_text, events=_ints,
    worst_lateness_ps=_ints, max_borrowed_intervals=_ints)
_fig8_rows = st.builds(
    Fig8Row, point=_text, checking_percent=_floats, style=_text,
    with_tb_interval=st.booleans(), margin_percent=_floats,
    ffs_replaced=_ints, ffs_total=_ints, power_overhead_percent=_floats,
    relay_area_overhead_percent=_floats, relay_slack_percent=_floats)
_scalars = st.none() | st.booleans() | _ints | _floats | _text


def _stored(value):
    return decode_result(json.loads(encode_stored(value)))


def _field_types(rows):
    return [tuple(type(item) for item in vars(row).values()) for row in rows]


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(_outcomes, min_size=1, max_size=30)
       | st.lists(_fig8_rows, min_size=1, max_size=12))
def test_dataclass_lists_round_trip_as_columns(rows):
    assert "__columns__" in json.loads(encode_stored(rows))
    decoded = _stored(rows)
    assert decoded == rows
    assert _field_types(decoded) == _field_types(rows)


@settings(max_examples=60, deadline=None)
@given(value=_scalars | _fig8_rows | st.just([])
       | st.lists(_scalars, max_size=6)
       | st.dictionaries(_text, _scalars, max_size=4))
def test_other_values_keep_the_tagged_encoding(value):
    assert json.loads(encode_stored(value)) == encode_result(value)
    decoded = _stored(value)
    assert decoded == value
    assert type(decoded) is type(value)


@settings(max_examples=30, deadline=None)
@given(outcomes=st.lists(_outcomes, min_size=1, max_size=5),
       row=_fig8_rows)
def test_mixed_lists_fall_back_to_tagged_dataclasses(outcomes, row):
    value = [*outcomes, row]
    assert json.loads(encode_stored(value)) == encode_result(value)
    assert _stored(value) == value
