"""Integration: the paper-scale fault campaign and its crash tolerance.

Two acceptance bars from the campaign engine ride here:

* A seeded 1000-fault campaign against the five-stage pipeline
  reproduces the paper's qualitative claim — the plain design lets
  every sensitized timing error escape, while TIMBER masks most of
  them silently (TB interval) or relays them across cycles, with the
  coverage report keyed to the recovered margin ``t = c/k``.
* A campaign interrupted mid-sweep and resumed from its checkpoint
  produces byte-identical results to an uninterrupted run.
"""

import json

import pytest

from repro.campaign import (
    BENIGN,
    ESCAPED,
    MASKED_TB,
    RELAYED,
    CampaignConfig,
    run_campaign,
)
from repro.exec import SweepCheckpoint, SweepRunner, read_checkpoint
from repro.exec.cache import encode_result


def _encoded(result) -> str:
    return json.dumps(encode_result(result.outcomes), sort_keys=True)


class TestPaperClaim:
    """Plain escapes; TIMBER masks and relays.  1000 faults, seeded."""

    @pytest.fixture(scope="class")
    def results(self):
        return {
            scheme: run_campaign(CampaignConfig(scheme=scheme))
            for scheme in ("plain", "timber-ff")
        }

    def test_campaign_is_paper_scale(self, results):
        for result in results.values():
            assert result.config.num_faults >= 1000
            assert len(result.outcomes) == result.config.num_faults

    def test_plain_design_has_no_coverage(self, results):
        report = results["plain"].report
        assert report.coverage == 0.0
        assert report.counts[ESCAPED] > 0
        assert report.counts[MASKED_TB] == report.counts[RELAYED] == 0

    def test_timber_covers_most_violations(self, results):
        report = results["timber-ff"].report
        assert report.coverage > 0.5
        # Both TIMBER mechanisms contribute: silent time borrowing and
        # multi-cycle error relaying.
        assert report.counts[MASKED_TB] > 0
        assert report.counts[RELAYED] > 0

    def test_timber_escapes_strictly_fewer(self, results):
        assert results["timber-ff"].report.counts[ESCAPED] < \
            results["plain"].report.counts[ESCAPED]

    def test_same_faults_sensitized_under_both_schemes(self, results):
        # Benign counts agree: the improvement is attribution to the
        # scheme, not a different draw of the fault population.
        assert results["plain"].report.counts[BENIGN] == \
            results["timber-ff"].report.counts[BENIGN]

    def test_report_keyed_to_recovered_margin(self, results):
        for result in results.values():
            assert result.report.margin_ps == \
                result.config.checking_period.interval_ps
            assert result.report.checking_percent == \
                result.config.checking_percent


class TestCheckpointResume:
    """Kill-and-resume must be invisible in the results."""

    CONFIG = CampaignConfig(num_faults=150, num_cycles=500,
                            faults_per_task=15, seed=42)

    def test_resume_after_partial_run_byte_identical(self, tmp_path):
        reference = run_campaign(self.CONFIG)

        # Uninterrupted checkpointed run, then amputate half of the
        # completed records — the on-disk state of a run whose process
        # was killed mid-sweep (records flush incrementally, so a kill
        # leaves a valid prefix of the full checkpoint).
        path = tmp_path / "campaign.ckpt.json"
        run_campaign(self.CONFIG, runner=SweepRunner(
            checkpoint=SweepCheckpoint(path, every=1)))
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(read_checkpoint(path)) == 10  # 150 faults / 15 per task
        path.write_bytes(b"".join(lines[:6]))  # header + 5 records

        resumed = run_campaign(self.CONFIG, runner=SweepRunner(
            checkpoint=SweepCheckpoint(path, resume=True)))
        assert resumed.summary["resumed_tasks"] == 5
        assert _encoded(resumed) == _encoded(reference)
        assert resumed.report == reference.report

    def test_full_resume_executes_nothing(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        first = run_campaign(self.CONFIG, runner=SweepRunner(
            checkpoint=SweepCheckpoint(path)))
        resumed = run_campaign(self.CONFIG, runner=SweepRunner(
            checkpoint=SweepCheckpoint(path, resume=True)))
        assert resumed.summary["resumed_tasks"] == 10
        # Nothing executed fresh: every task was replayed from the
        # checkpoint (events_processed reflects the recorded work).
        assert resumed.summary["cache_misses"] == 0
        assert _encoded(resumed) == _encoded(first)

    def test_checkpoint_rejects_different_campaign(self, tmp_path):
        path = tmp_path / "campaign.ckpt.json"
        run_campaign(self.CONFIG, runner=SweepRunner(
            checkpoint=SweepCheckpoint(path)))
        other = CampaignConfig(num_faults=150, num_cycles=500,
                               faults_per_task=15, seed=43)
        resumed = run_campaign(other, runner=SweepRunner(
            checkpoint=SweepCheckpoint(path, resume=True)))
        assert resumed.summary["resumed_tasks"] == 0
