"""Unit tests for the campaign evaluator's wiring.

Covers evaluator selection (one cycle-level evaluator in both kernel
modes, the netlist evaluator for netlist campaigns), the
batched/replayed lane accounting, and the per-lane fallback rules —
the byte-identity of the outcomes themselves is pinned by
``tests/property/test_batch_props.py`` and the campaign golden.
"""

import json

import pytest

from repro.campaign import CampaignConfig, fault_runner
from repro.campaign.engine import _CycleEvaluator, _NetlistEvaluator
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY, SCALAR_ENV

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="lane batching needs the vector kernels")


def _config(**overrides):
    base = dict(num_faults=8, num_cycles=200, faults_per_task=8,
                seed=99, snapshot_stride=64)
    base.update(overrides)
    return CampaignConfig(**base)


def _encoded(value) -> str:
    return json.dumps(encode_result(value), sort_keys=True)


class TestRunnerSelectionMatrix:
    def test_default_vector_runner_is_batched(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        for target in ("pipeline", "graph"):
            runner = fault_runner(_config(target=target))
            assert isinstance(runner, _CycleEvaluator)
            assert runner.rows is not None
            assert runner.machine is not None

    def test_scalar_kernels_disable_batching(self, monkeypatch):
        # Scalar mode leaves the background rows None, so the same
        # evaluator skips the lane machine and replays every lane —
        # with the outcomes vector mode produces.
        for target in ("pipeline", "graph"):
            config = _config(target=target)
            specs = config.population()
            monkeypatch.delenv(SCALAR_ENV, raising=False)
            vector, vector_work = (
                fault_runner(config).evaluate_chunk(specs))
            monkeypatch.setenv(SCALAR_ENV, "1")
            runner = fault_runner(config)
            assert isinstance(runner, _CycleEvaluator)
            assert runner.rows is None and runner.machine is None
            scalar, scalar_work = runner.evaluate_chunk(specs)
            assert runner.lanes_batched == 0
            assert runner.lanes_replayed == len(specs)
            assert _encoded(scalar) == _encoded(vector)
            assert scalar_work == vector_work

    def test_netlist_always_takes_full_runs(self):
        config = _config(target="netlist", scheme="plain", num_faults=2)
        runner = fault_runner(config)
        assert isinstance(runner, _NetlistEvaluator)
        outcomes, work = runner.evaluate_chunk(config.population())
        assert [o.fault_id for o in outcomes] == [0, 1]
        assert work > 0


class TestLaneAccounting:
    def test_every_fault_is_batched_or_replayed(self):
        config = _config()
        runner = fault_runner(config)
        specs = config.population()
        runner.evaluate_chunk(specs)
        assert runner.lanes_batched + runner.lanes_replayed == len(specs)
        assert runner.lanes_batched > 0

    def test_unsupported_policy_has_no_machine_and_replays(self):
        # ``logical`` has no pure array capture semantics: the machine
        # factory refuses, every lane replays, outcomes still match the
        # per-fault forked replays.
        config = _config(scheme="logical")
        runner = fault_runner(config)
        assert runner.machine is None
        specs = config.population()
        outcomes, _ = runner.evaluate_chunk(specs)
        assert runner.lanes_batched == 0
        assert runner.lanes_replayed == len(specs)
        forked = [runner.replay(spec)[0] for spec in specs]
        assert _encoded(outcomes) == _encoded(forked)

    def test_single_fault_evaluate_uses_one_lane_group(self):
        config = _config()
        runner = fault_runner(config)
        spec = config.population()[0]
        (outcome,), units = runner.evaluate_chunk([spec])
        assert runner.lanes_batched + runner.lanes_replayed == 1
        assert outcome.fault_id == spec.fault_id
        assert units > 0
