"""Property: state-free schemes capture a window in one call, unchanged.

Only time borrowing and error relaying make one cycle's capture depend
on the cycle before.  A scheme whose :func:`capture_block` never
borrows nor relays (:attr:`CaptureParams.state_free`) lets the lane
machine capture a whole window segment as lanes of one idle-entered
step, and stop the window where every lane is spent.  For every
state-free (target, scheme), on quiet and busy backgrounds, with
windows shorter and longer than one segment, that must give the same
outcome columns, work and :func:`repro.obs.semantic_snapshot` as the
one-step-at-a-time loop, with every window step counted as run or
retired.  Lane calls are sized in lane-steps; the outcomes must not
depend on how many lanes one call holds.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.campaign import CampaignConfig, fault_runner
from repro.campaign.engine import _window_end
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane batching needs the vector kernels")

if HAVE_NUMPY:
    import numpy as np

    from repro.kernels import fault_batch
    from repro.kernels.pipeline import CaptureParams, capture_block

KINDS = ("plain", "timber-ff", "timber-latch", "razor", "canary", "dcf",
         "clock-stall")

#: Every state-free (target, scheme) pair with a lane machine.
STATE_FREE = [
    ("pipeline", "plain"),
    ("pipeline", "razor"),
    ("pipeline", "canary"),
    ("pipeline", "clock-stall"),
    ("graph", "plain"),
]

_CYCLES = 400


@st.composite
def params(draw, kind: str):
    """Random :class:`CaptureParams` of ``kind``."""
    interval = draw(st.integers(min_value=1, max_value=400))
    count = draw(st.integers(min_value=1, max_value=4))
    tb = draw(st.integers(min_value=0, max_value=count - 1))
    windows = st.integers(min_value=1, max_value=600)
    return CaptureParams(
        kind=kind, interval_ps=interval, num_intervals=count, num_tb=tb,
        checking_ps=interval * count, tb_ps=interval * tb,
        window_ps=draw(windows), guard_ps=draw(windows),
        resample_ps=draw(windows), consolidation_fits=draw(st.booleans()))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       lateness=st.lists(st.integers(min_value=-1_500, max_value=1_500),
                         max_size=16),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_state_free_kinds_never_leave_state(kind, data, lateness, seed):
    block = data.draw(params(kind))
    # Lateness 1 is masked by every borrowing scheme.
    lateness = np.array([1, *lateness], dtype=np.int64)
    select_in = np.random.default_rng(seed).integers(
        0, 6, size=lateness.shape)
    caps = capture_block(block, lateness, select_in)
    leaves = (caps.borrowed_ps != 0) | (caps.borrowed_intervals != 0)
    assert leaves.any() != block.state_free


def _evaluate(evaluator, specs) -> tuple:
    """``(outcomes, work, semantic snapshot, lane steps)`` of one chunk,
    with the counters zeroed first and the obs state restored after."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        outcomes, work = evaluator.evaluate_chunk(specs)
        family = obs.REGISTRY.snapshot().get(
            "repro_kernel_lane_steps_total", {"series": []})
        steps = {"run": 0, "retired": 0}
        for series in family["series"]:
            steps[series["labels"]["path"]] += series["value"]
        return (json.dumps(encode_result(outcomes), sort_keys=True), work,
                json.dumps(obs.semantic_snapshot(), sort_keys=True),
                steps)
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()


def _plant_busy(evaluator, config, planted) -> None:
    """Make each ``(cycle, lateness)`` of ``planted`` a busy background
    cycle: its first column (stage ``cs0``, or every graph edge) arrives
    ``lateness`` ps past the period."""
    rows = [column.copy() for column in evaluator.rows]
    for cycle, lateness in planted:
        if config.target == "pipeline":
            rows[0][cycle, 0] = config.period_ps + lateness
        else:
            rows[0][cycle, :] = True
            rows[1][cycle, :] = config.period_ps + lateness
        rows[-1][cycle] = True
    evaluator.rows = tuple(rows)
    evaluator.machine.table = evaluator.machine.prefix_table(
        evaluator.rows)


@pytest.mark.parametrize("relay_horizon", [3, 40])
@pytest.mark.parametrize("target,scheme", STATE_FREE)
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 16),
    planted=st.lists(
        st.tuples(st.integers(min_value=0, max_value=_CYCLES - 1),
                  st.sampled_from([-20, 30, 200])),
        max_size=8),
)
def test_one_call_window_matches_stepped_window(target, scheme,
                                                relay_horizon, seed,
                                                planted):
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=40, num_cycles=_CYCLES,
        seed=seed, snapshot_stride=64, relay_horizon=relay_horizon)
    specs = config.population()
    evaluator = fault_runner(config)
    assert evaluator.machine.params.state_free
    if planted:
        _plant_busy(evaluator, config, planted)
    one_call = _evaluate(evaluator, specs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CaptureParams, "state_free",
                      property(lambda self: False))
        stepped = _evaluate(evaluator, specs)
    assert one_call[:3] == stepped[:3]
    # No background cycle leaves state: every lane batches.
    assert evaluator.lanes_replayed == 0
    windows = [_window_end(config, spec) + 1 - spec.cycle
               for spec in specs]
    for steps in (one_call[3], stepped[3]):
        assert steps["run"] + steps["retired"] == sum(windows)
    if max(windows) > fault_batch._SEGMENT:
        # Past one segment the stepped loop retires at the same step.
        assert one_call[3] == stepped[3]


@pytest.mark.parametrize("target,scheme", [
    ("pipeline", "plain"), ("pipeline", "timber-ff"),
    ("pipeline", "timber-latch"), ("graph", "timber-ff")])
@pytest.mark.parametrize("relay_horizon", [2, 6, 30])
def test_chunk_outcomes_do_not_depend_on_lanes_per_call(target, scheme,
                                                        relay_horizon):
    config = CampaignConfig(
        target=target, scheme=scheme, num_faults=900, num_cycles=2_000,
        seed=17, relay_horizon=relay_horizon)
    specs = config.population()
    budget = _evaluate(fault_runner(config), specs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fault_batch, "lanes_per_call", lambda width: 256)
        sliced_evaluator = fault_runner(config)
        sliced = _evaluate(sliced_evaluator, specs)
    assert sliced_evaluator.lanes_batched > 256
    # Lane-step counts may differ: a state-free call stops at its own
    # lanes' ready step.
    assert budget[:3] == sliced[:3]


def test_lane_calls_hold_a_fixed_number_of_lane_steps():
    assert fault_batch.lanes_per_call(7) == 585
    assert fault_batch.lanes_per_call(fault_batch._SEGMENT) == 256
    assert fault_batch.lanes_per_call(200) == 256


def test_quiet_plain_background_retires_steps():
    config = CampaignConfig(target="pipeline", scheme="plain",
                            num_faults=60, num_cycles=_CYCLES, seed=3,
                            relay_horizon=8)
    evaluator = fault_runner(config)
    assert not evaluator.machine.table.busy[-1]
    steps = _evaluate(evaluator, config.population())[3]
    assert evaluator.lanes_batched == config.num_faults
    assert steps["run"] > 0 and steps["retired"] > 0
