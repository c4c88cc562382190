"""Golden test: snapshot forking must not change campaign output.

``tests/golden/campaign_outcomes.json`` was captured with every fault
simulated from cycle 0 through the full-run reference functions
(:mod:`repro.campaign.reference`), the executable spec the campaign
evaluator must reproduce.  Both of the evaluator's paths — the chunk
path a campaign takes (lanes batched where provable) and the per-fault
forked ``replay`` it falls back to — must match the capture byte for
byte: same outcomes, same capture events, same coverage report.
"""

import json
import pathlib

import pytest

from repro.campaign import (
    CampaignConfig,
    build_report,
    fault_runner,
    run_campaign,
)
from repro.exec.cache import encode_result
from repro.kernels import HAVE_NUMPY

GOLDEN = (pathlib.Path(__file__).parent.parent / "golden"
          / "campaign_outcomes.json")

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="forked evaluation needs the vector kernels")


def _captures():
    return json.loads(GOLDEN.read_text())["captures"]


def _ids(capture):
    return "{target}-{scheme}".format(**capture["config"])


@pytest.mark.parametrize("capture", _captures(), ids=_ids)
def test_batched_campaign_matches_full_run_golden(capture):
    config = CampaignConfig(**capture["config"])
    # The golden pins the batched path, not just "whatever
    # fault_runner returns": the evaluator must have a lane machine.
    assert fault_runner(config).machine is not None
    result = run_campaign(config)
    assert encode_result(result.outcomes) == capture["outcomes"]
    assert encode_result(result.report) == capture["report"]


@pytest.mark.parametrize("capture", _captures(), ids=_ids)
def test_forked_campaign_matches_full_run_golden(capture):
    config = CampaignConfig(**capture["config"])
    runner = fault_runner(config)
    outcomes = [runner.replay(spec)[0]
                for spec in config.iter_population()]
    assert encode_result(outcomes) == capture["outcomes"]
    assert (encode_result(build_report(config, outcomes))
            == capture["report"])
