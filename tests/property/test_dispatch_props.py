"""Property: batched warm-worker dispatch never changes results.

The dispatch layer reorders completions, chunks tasks into batches,
shares warm-cached compilations across batch-mates, and retries on the
pool — none of which may leak into results.  For pipeline, graph, and
campaign workloads alike, a batched vectorized run on warm workers must
be *byte-identical* (canonical JSON of the encoded results) to a serial
scalar-mode run: per-task SHA-256 seeding makes every result a pure
function of its task alone, regardless of placement, batching, or which
kernel executed it.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaign import CampaignConfig, run_campaign
from repro.exec import SweepRunner
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY, SCALAR_ENV

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="no numpy: both paths are already scalar")


def _scalar_env(on: bool):
    saved = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1" if on else "0"
    return saved


def _restore_env(saved):
    if saved is None:
        os.environ.pop(SCALAR_ENV, None)
    else:
        os.environ[SCALAR_ENV] = saved


def _both_modes(workload) -> tuple[str, str]:
    """Encoded results of ``workload`` serial-scalar vs batched-vector.

    The batched runner is constructed *inside* the vector-mode window:
    under a fork start method workers snapshot the parent environment at
    pool creation, so the kernel-mode flip must precede it.
    """
    saved = _scalar_env(True)
    try:
        serial = workload(SweepRunner())
    finally:
        _restore_env(saved)
    saved = _scalar_env(False)
    try:
        with SweepRunner(workers=2, batch_target_s=5.0,
                         max_batch=16) as runner:
            batched = workload(runner)
            assert runner.telemetry.summary()["batches"], \
                "expected at least one dispatched batch"
    finally:
        _restore_env(saved)
    return (json.dumps(encode_result(serial), sort_keys=True),
            json.dumps(encode_result(batched), sort_keys=True))


@settings(max_examples=5, deadline=None)
@given(
    techniques=st.sets(
        st.sampled_from(["plain", "timber-ff", "timber-latch", "razor"]),
        min_size=2, max_size=3),
    amplitude=st.sampled_from([0.0, 0.04, 0.08]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_pipeline_sweep_batched_equals_serial(techniques, amplitude,
                                              seed):
    from repro.analysis.experiments import resilience_sweep

    def workload(runner):
        return resilience_sweep(
            techniques=tuple(sorted(techniques)),
            droop_amplitudes=(0.0, amplitude), num_cycles=400,
            seed=seed, runner=runner)

    serial, batched = _both_modes(workload)
    assert serial == batched


@settings(max_examples=4, deadline=None)
@given(
    scheme=st.sampled_from(["plain", "timber-ff"]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_graph_campaign_batched_equals_serial(scheme, seed):
    def workload(runner):
        config = CampaignConfig(
            target="graph", scheme=scheme, num_faults=12,
            num_cycles=120, faults_per_task=3, seed=seed)
        return run_campaign(config, runner=runner).outcomes

    serial, batched = _both_modes(workload)
    assert serial == batched


@settings(max_examples=4, deadline=None)
@given(
    scheme=st.sampled_from(["plain", "timber-ff", "timber-latch"]),
    checking=st.sampled_from([20.0, 30.0]),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_pipeline_campaign_batched_equals_serial(scheme, checking, seed):
    def workload(runner):
        config = CampaignConfig(
            target="pipeline", scheme=scheme, num_faults=12,
            num_cycles=120, faults_per_task=3,
            checking_percent=checking, seed=seed)
        return run_campaign(config, runner=runner).outcomes

    serial, batched = _both_modes(workload)
    assert serial == batched
