"""Property: prefix-state draws and block factors equal the scalar draws.

The draw kernels mix the lanes shared by many draws once and continue
from that state, and sum a Gaussian's Irwin-Hall terms as integers.
Both must reproduce the scalar oracles bit for bit.  The droop model
draws event occurrence for every ``(cycle, offset)`` start of a block
in one pass, so the block properties use contiguous ``np.arange``
cycles, as the screened walk does: blocks that start inside the first
droop duration (where starts before cycle 0 are masked) and blocks
that straddle ``2**32`` (where the high cycle lane changes), as well as
arbitrary ones.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kernels import HAVE_NUMPY
from repro.kernels.rng import mix32, mix32_batch, std_gauss, \
    std_gauss_batch
from repro.variability import (
    CompositeVariation,
    LocalVariation,
    VoltageDroopVariation,
)

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the batch draws need numpy")

if HAVE_NUMPY:
    import numpy as np

lane = st.integers(min_value=0, max_value=2**32 - 1)
seeds = st.integers(min_value=0, max_value=2**63 - 1)


@st.composite
def split_lanes(draw):
    """A prefix of scalar lanes and a rest of equal-length lane arrays."""
    prefix = draw(st.lists(lane, min_size=0, max_size=5))
    width = draw(st.integers(1, 6))
    rest = draw(st.lists(st.lists(lane, min_size=width, max_size=width),
                         min_size=1, max_size=3))
    return prefix, rest


@given(split_lanes())
@settings(max_examples=80, deadline=None)
def test_prefix_state_continues_the_mix(lanes):
    prefix, rest = lanes
    arrays = [np.array(values, dtype=np.uint32) for values in rest]
    state = mix32(*prefix)
    mixed = mix32_batch(arrays, state=state)
    gauss = std_gauss_batch(arrays, state=state)
    for index, column in enumerate(zip(*rest)):
        assert int(mixed[index]) == mix32(*prefix, *column)
        assert float(gauss[index]) == std_gauss(*prefix, *column)


def test_prefix_state_is_not_modified():
    state = mix32_batch([np.arange(4, dtype=np.uint32)])
    before = state.copy()
    mix32_batch([7, 8], state=state)
    std_gauss_batch([np.arange(4, dtype=np.uint32)], state=state)
    assert np.array_equal(state, before)


block_starts = st.one_of(
    st.integers(min_value=0, max_value=16),
    st.integers(min_value=2**32 - 300, max_value=2**32 + 4),
    st.integers(min_value=0, max_value=2**40),
)


@st.composite
def droops(draw):
    return VoltageDroopVariation(
        event_probability=draw(st.sampled_from([0.0, 0.01, 0.1, 0.5,
                                                1.0])),
        duration_cycles=draw(st.integers(1, 12)),
        amplitude=draw(st.floats(0.0, 0.2)),
        amplitude_jitter=draw(st.floats(0.0, 0.5)),
        seed=draw(seeds),
    )


@st.composite
def block_models(draw):
    droop = draw(droops())
    if draw(st.booleans()):
        return droop
    local = LocalVariation(sigma=draw(st.floats(0.0, 0.1)),
                           max_factor=draw(st.one_of(
                               st.none(), st.floats(1.0, 1.2))),
                           seed=draw(seeds))
    return CompositeVariation([local, droop])


@given(model=block_models(), start=block_starts,
       length=st.integers(1, 200),
       paths=st.lists(st.sampled_from(["s0", "s1", "a->b", "x"]),
                      min_size=1, max_size=3, unique=True))
@settings(max_examples=60, deadline=None)
@example(model=VoltageDroopVariation(event_probability=1.0,
                                     duration_cycles=8, amplitude=0.1,
                                     amplitude_jitter=0.3, seed=1),
         start=0, length=20, paths=["s0"])
@example(model=VoltageDroopVariation(event_probability=0.5,
                                     duration_cycles=12, amplitude=0.1,
                                     amplitude_jitter=0.3, seed=2),
         start=2**32 - 30, length=60, paths=["s0"])
def test_block_matches_elementwise_factor(model, start, length, paths):
    cycles = np.arange(start, start + length, dtype=np.int64)
    batch = np.broadcast_to(model.factor_batch(cycles, paths),
                            (length, len(paths)))
    for i, cycle in enumerate(cycles.tolist()):
        for j, path in enumerate(paths):
            assert float(batch[i, j]) == model.factor(cycle, path)
