"""Property: one warm entry holds a background's snapshots, rows and table.

The campaign evaluator builds each fault-free background once per
kernel mode: with the vector kernels, the background rows, then the
lane machine's prefix table, then the stride snapshots walked over
those same rows; in scalar mode, the snapshots alone.  Every part must
equal the one built on its own — the snapshots a fresh
:func:`build_trajectory` walk, the rows ``sim.background_rows``, the
table ``machine.prefix_table(rows)`` — and the build must bump the
same semantic counters as the fresh walk.
"""

import contextlib
import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.campaign import CampaignConfig, build_trajectory, fault_runner
from repro.campaign.engine import _SIM_BUILDERS
from repro.exec.worker import WARM
from repro.kernels import HAVE_NUMPY, SCALAR_ENV

#: Every pipeline scheme and every graph scheme.
CONFIGURATIONS = [
    *(("pipeline", scheme) for scheme in (
        "plain", "timber-ff", "timber-latch", "razor", "canary",
        "logical", "clock-stall", "dcf")),
    ("graph", "plain"),
    ("graph", "timber-ff"),
    ("graph", "timber-latch"),
]

MODES = ["vector", "scalar"] if HAVE_NUMPY else ["scalar"]


def _counted(build):
    """``(build(), semantic snapshot)`` with the counters zeroed first
    and the obs state restored after."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        return build(), json.dumps(obs.semantic_snapshot(), sort_keys=True)
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()


@contextlib.contextmanager
def _kernels(mode: str):
    """Pin new simulation runs to ``mode``'s kernels."""
    previous = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1" if mode == "scalar" else "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[SCALAR_ENV]
        else:
            os.environ[SCALAR_ENV] = previous


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("stride", [1, 37, 256])
@pytest.mark.parametrize("target,scheme", CONFIGURATIONS)
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16))
def test_entry_equals_separately_built_parts(target, scheme, stride, mode,
                                             seed):
    config = CampaignConfig(target=target, scheme=scheme, num_faults=1,
                            num_cycles=400, seed=seed,
                            snapshot_stride=stride)
    WARM.clear()
    with _kernels(mode):
        evaluator, entry_metrics = _counted(lambda: fault_runner(config))
        fresh, fresh_metrics = _counted(lambda: build_trajectory(
            lambda: _SIM_BUILDERS[target](config),
            num_cycles=config.num_cycles, stride=stride))
    assert evaluator.trajectory == fresh
    assert entry_metrics == fresh_metrics

    if mode == "scalar":
        assert evaluator.rows is None
        assert evaluator.machine is None
        return
    rows = _SIM_BUILDERS[target](config).background_rows(config.num_cycles)
    assert len(evaluator.rows) == len(rows)
    for shared, own in zip(evaluator.rows, rows):
        np.testing.assert_array_equal(shared, own)
    machine = evaluator.machine
    if machine is None:  # logical masking has no lane machine
        assert scheme == "logical"
        return
    table = machine.prefix_table(rows)
    for field in dataclasses.fields(table):
        np.testing.assert_array_equal(getattr(machine.table, field.name),
                                      getattr(table, field.name))


def test_kernel_mode_is_in_the_key():
    config = CampaignConfig(target="graph", scheme="timber-ff",
                            num_faults=1, num_cycles=300, seed=4242)
    WARM.clear()
    before = WARM.counters()
    for mode in MODES:
        with _kernels(mode):
            evaluator = fault_runner(config)
        assert (evaluator.rows is None) == (mode == "scalar")
    # One entry per kernel mode: neither mode is served the other's.
    assert WARM.delta(before, WARM.counters())["trajectory"] == [
        0, len(MODES)]
