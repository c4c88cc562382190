"""Property: ``capture_block`` is the scalar capture, element for element.

:func:`repro.kernels.pipeline.capture_block` classifies whole lateness
arrays for the lane machines; the scalar reference is each policy's own
``capture``.  For every kind :meth:`CaptureParams.for_policy` compiles,
every :class:`CaptureArrays` field must equal the matching
:class:`CaptureOutcome` field at every element — with latenesses drawn
on, and one picosecond either side of, every window edge of the
scheme.  Policies without array semantics must not compile.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.checking_period import CheckingPeriod
from repro.kernels import HAVE_NUMPY
from repro.pipeline.schemes import (
    CanaryPolicy,
    ClockStallPolicy,
    DcfPolicy,
    LogicalMaskingPolicy,
    PlainPolicy,
    RazorPolicy,
    SoftEdgePolicy,
    TimberFFPolicy,
    TimberLatchPolicy,
)

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="capture_block needs the vector kernels")

if HAVE_NUMPY:
    import numpy as np

    from repro.kernels.pipeline import CaptureParams, capture_block

FIELDS = ("masked", "detected", "predicted", "flagged", "failed",
          "borrowed_ps", "borrowed_intervals")

windows = st.integers(min_value=1, max_value=600)


@st.composite
def checking_periods(draw):
    period = draw(st.integers(min_value=200, max_value=5_000))
    percent = draw(st.floats(min_value=2.0, max_value=50.0,
                             allow_nan=False))
    k = draw(st.integers(min_value=1, max_value=4))
    tb = draw(st.integers(min_value=0, max_value=k - 1))
    try:
        cp = CheckingPeriod(period, percent, num_intervals=k, num_tb=tb)
    except Exception:
        assume(False)
        raise
    assume(cp.interval_ps > 0)
    return cp


@st.composite
def schemes(draw):
    """``(make_policy, window edges)`` for one compiled kind;
    ``make_policy(size)`` builds it over ``size`` boundaries."""
    kind = draw(st.sampled_from([
        "plain", "timber-ff", "timber-latch", "razor", "canary", "dcf",
        "clock-stall"]))
    if kind == "plain":
        return PlainPolicy, []
    if kind in ("timber-ff", "timber-latch"):
        cp = draw(checking_periods())
        edges = [cp.tb_ps, cp.checking_ps] + [
            index * cp.interval_ps
            for index in range(1, cp.num_intervals + 1)]
        policy = (TimberFFPolicy if kind == "timber-ff"
                  else TimberLatchPolicy)
        return (lambda size: policy(size, cp)), edges
    window = draw(windows)
    if kind == "razor":
        return (lambda size: RazorPolicy(size, window)), [window]
    if kind == "canary":
        return (lambda size: CanaryPolicy(size, window)), [-window]
    if kind == "dcf":
        resample = draw(windows)
        return (lambda size: DcfPolicy(size, window, resample),
                [window, resample])
    fits = draw(st.booleans())
    return (lambda size: ClockStallPolicy(size, window, fits)), [window]


@st.composite
def cases(draw):
    """A compiled policy, a lateness array covering every window edge
    at -1/0/+1 plus free draws, and a relay input per element."""
    make_policy, edges = draw(schemes())
    free = draw(st.lists(st.integers(min_value=-1_500, max_value=1_500),
                         max_size=12))
    latenesses = sorted({edge + offset for edge in [0, *edges]
                         for offset in (-1, 0, 1)}) + free
    select_in = draw(st.lists(st.integers(min_value=0, max_value=6),
                              min_size=len(latenesses),
                              max_size=len(latenesses)))
    # One boundary per element, so the scalar reference holds a relay
    # select per element.
    return make_policy(len(latenesses)), latenesses, select_in


@settings(max_examples=300, deadline=None)
@given(cases())
def test_capture_block_matches_scalar_capture(case):
    policy, latenesses, select_in = case
    params = CaptureParams.for_policy(policy)
    assert params is not None
    if isinstance(policy, TimberFFPolicy):
        policy.restore_relay_state(
            (tuple(select_in), (0,) * len(select_in)))
    arrays = capture_block(params, np.array(latenesses, dtype=np.int64),
                           np.array(select_in, dtype=np.int64))
    scalar = [policy.capture(index, lateness)
              for index, lateness in enumerate(latenesses)]
    for field in FIELDS:
        column = getattr(arrays, field)
        assert column.shape == (len(latenesses),)
        expected = [getattr(outcome, field) for outcome in scalar]
        assert column.tolist() == expected, (field, latenesses)


class _SubclassedDcf(DcfPolicy):
    """May override ``capture``: must not compile."""


@pytest.mark.parametrize("policy", [
    LogicalMaskingPolicy(4, coverage=0.5),
    SoftEdgePolicy(4, window_ps=100),
    _SubclassedDcf(4, 50, 100),
], ids=["logical", "soft-edge", "dcf-subclass"])
def test_policies_without_array_semantics_do_not_compile(policy):
    assert CaptureParams.for_policy(policy) is None
