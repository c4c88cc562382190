"""Property: a table-driven background walk equals the full walk.

Given the lane machine's prefix table, :func:`build_trajectory` walks
only the strides that can carry state: a stride entered idle in which
no cycle, entered idle, leaves borrow or relay state takes the idle
snapshot and its semantic counters off the table.  No benchmark
background carries state, so these plant state-leaving violations at
random cycles of rigged background rows — the mixed case — plus
failures, which leave no state but bump counters a skipped stride must
take off the table.  The snapshots and
:func:`repro.obs.semantic_snapshot` must equal a full walk over the
same rows, and ``sim.run`` must run exactly the strides entered
non-idle or holding a state-leaving cycle.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.campaign import CampaignConfig, build_trajectory
from repro.campaign.engine import _SIM_BUILDERS
from repro.kernels import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the prefix table needs the vector kernels")

#: Schemes whose violations borrow or relay, so a planted cycle
#: leaves state behind.
CONFIGURATIONS = [
    ("pipeline", "timber-ff"),
    ("pipeline", "timber-latch"),
    ("graph", "timber-ff"),
]

_CYCLES = 400


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


def _rigged_rows(sim, config, late) -> tuple:
    """The background rows with each ``cycle: lateness`` of ``late``
    made that late: stage ``cs0`` in the pipeline, every edge in the
    graph.  30 ps is masked (borrow, relay); 600 ps fails."""
    rows = [column.copy() for column in sim.background_rows(_CYCLES)]
    for cycle, lateness in late.items():
        if config.target == "pipeline":
            rows[0][cycle, 0] = config.period_ps + lateness
        else:
            rows[0][cycle, :] = True
            rows[1][cycle, :] = config.period_ps + lateness
        rows[-1][cycle] = True
    return tuple(rows)


def _machine(sim, target):
    from repro.kernels import fault_batch

    return (fault_batch.pipeline_machine(sim) if target == "pipeline"
            else fault_batch.graph_machine(sim))


@pytest.mark.parametrize("stride", [1, 37, 256])
@pytest.mark.parametrize("target,scheme", CONFIGURATIONS)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 16),
       violating=st.lists(st.integers(min_value=0, max_value=_CYCLES - 1),
                          min_size=1, max_size=4, unique=True),
       failing=st.lists(st.integers(min_value=0, max_value=_CYCLES - 1),
                        max_size=4))
def test_table_driven_walk_equals_full_walk(target, scheme, stride, seed,
                                            violating, failing):
    config = CampaignConfig(target=target, scheme=scheme, num_faults=1,
                            num_cycles=_CYCLES, seed=seed,
                            snapshot_stride=stride)
    make_sim = lambda: _SIM_BUILDERS[target](config)  # noqa: E731
    sim = make_sim()
    rows = _rigged_rows(sim, config, {**dict.fromkeys(failing, 600),
                                      **dict.fromkeys(violating, 30)})
    machine = _machine(sim, target)
    machine.table = machine.prefix_table(rows)
    assert machine.table.state.any()

    walked = []

    def recording_sim():
        inner = make_sim()
        run = inner.run

        def recording_run(num_cycles, *, start_cycle=0, rows=None):
            walked.append(start_cycle)
            return run(num_cycles, start_cycle=start_cycle, rows=rows)

        inner.run = recording_run
        return inner

    full, full_metrics = _counted(lambda: build_trajectory(
        make_sim, num_cycles=_CYCLES, stride=stride, rows=rows))
    driven, driven_metrics = _counted(lambda: build_trajectory(
        recording_sim, num_cycles=_CYCLES, stride=stride, rows=rows,
        machine=machine))
    assert driven == full
    assert driven_metrics == full_metrics

    carried = machine.table.carried
    assert walked == [
        start for start in range(0, _CYCLES - stride, stride)
        if not machine.state_is_idle(full.snapshots[start // stride])
        or carried[start + stride] != carried[start]]
