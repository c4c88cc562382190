"""Unit tests for the soak subsystem: strata, estimators, sampler,
ring, journal, checkpoint, and the driver's resume semantics."""

import json

import pytest

from repro.campaign import CampaignConfig
from repro.errors import ConfigurationError, ReproError
from repro.soak import (
    AdaptiveSampler,
    EscapeEstimator,
    JournalCorrupt,
    SoakCheckpoint,
    SoakConfig,
    SoakJournal,
    allocate_counts,
    build_strata,
    run_soak,
    soak_state_from_journal,
    spec_for_draw,
    wilson_interval,
)
from repro.soak.generator import magnitude_bins


def small_config(**overrides) -> CampaignConfig:
    params = dict(target="graph", scheme="timber-ff", num_faults=1,
                  num_cycles=300, faults_per_task=10)
    params.update(overrides)
    return CampaignConfig(**params)


def small_soak(**overrides) -> SoakConfig:
    params = dict(campaign=small_config(), faults_per_round=20,
                  magnitude_bins=2)
    params.update(overrides)
    return SoakConfig(**params)


class TestMagnitudeBins:
    def test_even_split_covers_the_range_exactly(self):
        bins = magnitude_bins(20, 220, 3)
        assert bins[0][0] == 20 and bins[-1][1] == 220
        # Contiguous, non-overlapping, sizes differ by at most one.
        for (lo_a, hi_a), (lo_b, _hi_b) in zip(bins, bins[1:]):
            assert lo_b == hi_a + 1
        sizes = [hi - lo + 1 for lo, hi in bins]
        assert max(sizes) - min(sizes) <= 1

    def test_more_bins_than_integers_clamps(self):
        assert magnitude_bins(5, 6, 10) == [(5, 5), (6, 6)]

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            magnitude_bins(20, 220, 0)
        with pytest.raises(ConfigurationError):
            magnitude_bins(100, 50, 2)


class TestStrata:
    def test_kind_by_bin_grid_in_stable_order(self):
        strata = build_strata(small_config(), 2)
        assert [s.key for s in strata] == [
            "seu/20-120", "seu/121-220",
            "delay/20-120", "delay/121-220",
            "droop/20-120", "droop/121-220",
            "correlated/20-120", "correlated/121-220",
        ]

    def test_netlist_restricts_kinds(self):
        config = small_config(target="netlist", scheme="timber-ff")
        kinds = {s.kind for s in build_strata(config, 2)}
        assert kinds == {"seu", "delay"}

    def test_spec_pure_in_stratum_and_counter(self):
        config = small_config()
        stratum = build_strata(config, 2)[1]
        a = spec_for_draw(config, stratum, 7, fault_id=123)
        b = spec_for_draw(config, stratum, 7, fault_id=999)
        # Shape depends only on (stratum, counter); the id is attached.
        assert a.fault_id == 123 and b.fault_id == 999
        assert (a.kind, a.site, a.cycle, a.duration_cycles,
                a.magnitude_ps, a.span) == \
               (b.kind, b.site, b.cycle, b.duration_cycles,
                b.magnitude_ps, b.span)

    def test_spec_respects_stratum_bounds(self):
        config = small_config()
        for stratum in build_strata(config, 3):
            for counter in range(25):
                spec = spec_for_draw(config, stratum, counter, counter)
                assert spec.kind == stratum.kind
                assert stratum.lo_ps <= spec.magnitude_ps \
                    <= stratum.hi_ps


class TestWilson:
    def test_unsampled_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_interval_brackets_the_rate_within_bounds(self):
        low, high = wilson_interval(3, 10)
        assert 0.0 <= low <= 0.3 <= high <= 1.0

    def test_width_narrows_with_samples(self):
        widths = [wilson_interval(n // 5, n)[1]
                  - wilson_interval(n // 5, n)[0]
                  for n in (5, 50, 500)]
        assert widths[0] > widths[1] > widths[2]

    def test_zero_rate_keeps_positive_width(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high > 0.0  # Wald would collapse here

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)


class TestEstimator:
    def test_counts_and_rates(self):
        estimator = EscapeEstimator(["a", "b"])
        estimator.update("a", "escaped")
        estimator.update("a", "masked_tb", count=3)
        stats = estimator.stats("a")
        assert stats.n == 4 and stats.escaped == 1
        assert stats.escape_rate == 0.25
        assert estimator.total_faults() == 4

    def test_widest_prefers_unsampled(self):
        estimator = EscapeEstimator(["a", "b"])
        estimator.update("a", "benign", count=100)
        assert estimator.widest().key == "b"

    def test_overall_is_uniform_over_strata(self):
        # Unbalanced sampling must not tilt the combined estimate:
        # stratum rates 0.5 and 0.0 combine to 0.25 regardless of n.
        estimator = EscapeEstimator(["a", "b"])
        estimator.update("a", "escaped", count=5)
        estimator.update("a", "benign", count=5)
        estimator.update("b", "benign", count=990)
        assert estimator.overall()["escape_rate"] == \
            pytest.approx(0.25)

    def test_snapshot_restore_round_trip(self):
        estimator = EscapeEstimator(["a", "b"])
        estimator.update("a", "escaped", count=2)
        estimator.update("b", "relayed", count=7)
        clone = EscapeEstimator.restore(["a", "b"],
                                        estimator.snapshot())
        assert clone.snapshot() == estimator.snapshot()
        assert clone.widest().key == estimator.widest().key

    def test_unknown_class_rejected(self):
        estimator = EscapeEstimator(["a"])
        with pytest.raises(ConfigurationError):
            estimator.update("a", "exploded")


class TestSampler:
    def test_allocate_counts_sums_and_is_deterministic(self):
        counts = allocate_counts([0.5, 0.3, 0.2], 7)
        assert sum(counts) == 7
        assert counts == allocate_counts([0.5, 0.3, 0.2], 7)
        # Largest remainder: exact shares 3.5/2.1/1.4 -> 4/2/1.
        assert counts == [4, 2, 1]

    def test_uniform_mode_ignores_the_estimator(self):
        estimator = EscapeEstimator(["a", "b"])
        estimator.update("a", "escaped", count=3)
        sampler = AdaptiveSampler(["a", "b"], adaptive=False)
        assert sampler.weights(estimator) == {"a": 0.5, "b": 0.5}

    def test_adaptive_weights_follow_ci_width_with_floor(self):
        estimator = EscapeEstimator(["wide", "narrow"])
        estimator.update("narrow", "benign", count=400)
        estimator.update("wide", "escaped", count=2)
        estimator.update("wide", "benign", count=2)
        sampler = AdaptiveSampler(["wide", "narrow"], min_weight=0.1)
        weights = sampler.weights(estimator)
        assert weights["wide"] > weights["narrow"] >= 0.1
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_floor_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            AdaptiveSampler(["a", "b"], min_weight=0.6)  # > uniform


class TestJournal:
    def test_fresh_append_read_round_trip(self, tmp_path):
        journal = SoakJournal(tmp_path / "j.jsonl")
        journal.open_fresh({"run_key": "k"})
        journal.append({"type": "round", "round": 0})
        journal.append({"type": "round", "round": 1})
        journal.close()
        header, records = SoakJournal.read(tmp_path / "j.jsonl")
        assert header["run_key"] == "k"
        assert [r["round"] for r in records] == [0, 1]

    def test_unterminated_tail_is_truncated_on_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SoakJournal(path)
        journal.open_fresh({"run_key": "k"})
        journal.append({"type": "round", "round": 0})
        journal.close()
        good = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(b'{"type": "round", "rou')  # torn mid-write
        header, records = SoakJournal(path).open_resume()
        assert header["run_key"] == "k"
        assert len(records) == 1
        assert path.read_bytes() == good

    def test_torn_terminated_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SoakJournal(path)
        journal.open_fresh({"run_key": "k"})
        journal.append({"type": "round", "round": 0})
        journal.close()
        good = path.read_bytes()
        with open(path, "ab") as handle:
            handle.write(b'{"half": \n')
        _header, records = SoakJournal(path).open_resume()
        assert len(records) == 1
        assert path.read_bytes() == good

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SoakJournal(path)
        journal.open_fresh({"run_key": "k"})
        journal.append({"type": "round", "round": 0})
        journal.append({"type": "round", "round": 1})
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"broken\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorrupt):
            SoakJournal(path).open_resume()

    def test_missing_file_resumes_fresh(self, tmp_path):
        header, records = SoakJournal(tmp_path / "nope.jsonl") \
            .open_resume()
        assert header is None and records == []

    def test_append_before_open_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            SoakJournal(tmp_path / "j.jsonl").append({})


class TestSoakCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        checkpoint = SoakCheckpoint(tmp_path / "c.json")
        checkpoint.save("key", {"round": 3, "seq": 60})
        assert checkpoint.load("key") == {"round": 3, "seq": 60}

    def test_wrong_run_key_or_corruption_yields_none(self, tmp_path):
        path = tmp_path / "c.json"
        checkpoint = SoakCheckpoint(path)
        checkpoint.save("key", {"round": 3})
        assert checkpoint.load("other") is None
        path.write_text("{torn", encoding="utf-8")
        assert checkpoint.load("key") is None
        assert SoakCheckpoint(tmp_path / "nope.json").load("key") is None


class TestRunSoak:
    def test_stop_on_max_faults(self, tmp_path):
        result = run_soak(small_soak(),
                          journal_path=tmp_path / "j.jsonl",
                          max_faults=40)
        assert result.stop_reason == "max_faults"
        assert result.total_faults >= 40
        assert result.rounds == 2

    def test_stop_on_target_ci_width(self, tmp_path):
        result = run_soak(small_soak(),
                          journal_path=tmp_path / "j.jsonl",
                          target_ci_width=1.5, max_rounds=50)
        # Width <= 1.5 is vacuous: satisfied after round boundaries
        # are first checked, i.e. immediately.
        assert result.stop_reason == "target_ci_width"
        assert result.rounds == 0

    def test_resume_is_byte_identical(self, tmp_path):
        soak = small_soak()
        run_soak(soak, journal_path=tmp_path / "a.jsonl",
                 checkpoint_path=tmp_path / "a.json", max_rounds=2)
        run_soak(soak, journal_path=tmp_path / "a.jsonl",
                 checkpoint_path=tmp_path / "a.json", resume=True,
                 max_rounds=5)
        run_soak(soak, journal_path=tmp_path / "b.jsonl",
                 max_rounds=5)
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()

    def test_resume_without_checkpoint_rebuilds_from_journal(
            self, tmp_path):
        soak = small_soak()
        run_soak(soak, journal_path=tmp_path / "a.jsonl", max_rounds=3)
        result = run_soak(soak, journal_path=tmp_path / "a.jsonl",
                          resume=True, max_rounds=3)
        # Already at the stop condition: nothing re-runs, state intact.
        assert result.rounds == 3
        assert result.faults_evaluated == 0
        assert result.total_faults == 60

    def test_stale_checkpoint_loses_to_the_journal(self, tmp_path):
        soak = small_soak()
        journal_path = tmp_path / "a.jsonl"
        checkpoint_path = tmp_path / "a.json"
        run_soak(soak, journal_path=journal_path,
                 checkpoint_path=checkpoint_path, max_rounds=3)
        # Truncate the journal's last record: the checkpoint now
        # covers more rounds than the journal holds.
        lines = journal_path.read_bytes().splitlines(keepends=True)
        journal_path.write_bytes(b"".join(lines[:-1]))
        result = run_soak(soak, journal_path=journal_path,
                          checkpoint_path=checkpoint_path,
                          resume=True, max_rounds=3)
        # Round 2 re-ran identically; the journal matches a clean run.
        run_soak(soak, journal_path=tmp_path / "ref.jsonl",
                 max_rounds=3)
        assert journal_path.read_bytes() == \
            (tmp_path / "ref.jsonl").read_bytes()
        assert result.rounds == 3

    def test_config_change_rejects_the_journal(self, tmp_path):
        run_soak(small_soak(), journal_path=tmp_path / "j.jsonl",
                 max_rounds=1)
        other = small_soak(faults_per_round=21)
        with pytest.raises(ConfigurationError):
            run_soak(other, journal_path=tmp_path / "j.jsonl",
                     resume=True, max_rounds=2)

    def test_state_from_journal_matches_driver_accounting(
            self, tmp_path):
        soak = small_soak()
        result = run_soak(soak, journal_path=tmp_path / "j.jsonl",
                          max_rounds=3)
        _header, records = SoakJournal.read(tmp_path / "j.jsonl")
        state = soak_state_from_journal(soak, records)
        assert state["round"] == result.rounds
        assert state["seq"] == result.total_faults
        total = sum(sum(row.values())
                    for row in state["estimator"].values())
        assert total == result.total_faults

    def test_drain_requested_before_first_round(self, tmp_path):
        from repro.exec import SweepRunner

        runner = SweepRunner()
        runner.request_drain()
        result = run_soak(small_soak(),
                          journal_path=tmp_path / "j.jsonl",
                          runner=runner, max_rounds=5)
        assert result.drained and result.stop_reason == "drained"
        assert result.rounds == 0
        runner.close()

    def test_adaptive_narrows_widest_ci_at_least_as_fast(
            self, tmp_path):
        """On a fixed budget the adaptive arm's widest CI is no wider
        than uniform's (the perf gate checks strict improvement on a
        bigger budget; this pins the invariant cheaply)."""
        budget_rounds = 6
        adaptive = run_soak(
            small_soak(), journal_path=tmp_path / "a.jsonl",
            max_rounds=budget_rounds)
        uniform = run_soak(
            small_soak(adaptive=False),
            journal_path=tmp_path / "u.jsonl",
            max_rounds=budget_rounds)
        assert adaptive.total_faults == uniform.total_faults
        assert adaptive.widest["ci_width"] <= \
            uniform.widest["ci_width"] + 1e-12


class TestSoakConfig:
    def test_run_key_tracks_sampling_semantics_only(self):
        base = small_soak()
        assert base.run_key() == small_soak().run_key()
        assert small_soak(faults_per_round=21).run_key() != \
            base.run_key()
        assert small_soak(adaptive=False).run_key() != base.run_key()
        # Operational knobs don't change the stream identity.
        assert small_soak(checkpoint_every_rounds=5).run_key() == \
            base.run_key()

    def test_params_round_trip(self):
        soak = small_soak(min_weight=0.05, adaptive=False)
        clone = SoakConfig.from_params(
            json.loads(json.dumps(soak.to_params())))
        assert clone == soak
