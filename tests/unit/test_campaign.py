"""Unit tests for the fault-campaign engine."""

import dataclasses
import json

import pytest

from repro.campaign import (
    BENIGN,
    ESCAPED,
    FALSE_POSITIVE,
    MASKED_ED,
    MASKED_TB,
    OUTCOME_CLASSES,
    RELAYED,
    CampaignConfig,
    CaptureEvent,
    FaultOverlay,
    FaultSpec,
    build_report,
    classify_events,
    generate_population,
    iter_population,
    render_reports,
    run_campaign,
    write_campaign_bench,
)
from repro.campaign.engine import campaign_chunk_task, fault_runner
from repro.errors import ConfigurationError


def _population(**overrides):
    defaults = dict(num_faults=40, sites=["s0", "s1", "s2"],
                    num_cycles=200, seed=11)
    defaults.update(overrides)
    return generate_population(**defaults)


class TestPopulation:
    def test_deterministic(self):
        assert _population() == _population()

    def test_counter_based_slicing(self):
        # Fault i depends only on (seed, i): a bigger population is a
        # strict superset, so chunked regeneration in workers agrees.
        small = _population(num_faults=10)
        large = _population(num_faults=40)
        assert large[:10] == small

    def test_seed_changes_population(self):
        assert _population(seed=12) != _population()

    def test_windows_fit_in_run(self):
        for spec in _population(num_faults=200):
            assert 1 <= spec.cycle
            assert spec.last_cycle < 200
            assert spec.magnitude_ps > 0

    def test_kind_filter_respected(self):
        specs = _population(kinds=("seu", "droop"))
        assert {s.kind for s in specs} <= {"seu", "droop"}

    def test_correlated_span_fits_sites(self):
        sites = ["s0", "s1", "s2"]
        for spec in _population(num_faults=200):
            if spec.kind == "correlated":
                start = sites.index(spec.site)
                assert start + spec.span <= len(sites)
                assert spec.span >= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _population(num_faults=0)
        with pytest.raises(ConfigurationError):
            _population(sites=[])
        with pytest.raises(ConfigurationError):
            _population(kinds=("gremlin",))
        with pytest.raises(ConfigurationError, match="fault kind"):
            _population(kinds=())
        with pytest.raises(ConfigurationError):
            _population(magnitude_range_ps=(0, 10))
        with pytest.raises(ConfigurationError):
            _population(num_cycles=4)

    @pytest.mark.parametrize("overrides, message", [
        (dict(max_span=1), "max_span"),
        (dict(max_span=0), "max_span"),
        (dict(max_duration_cycles=0), "max_duration_cycles"),
        (dict(max_duration_cycles=-2), "max_duration_cycles"),
    ])
    def test_shape_bounds_rejected_at_call_time(self, overrides, message):
        # Regression: max_span=1 made the scalar draw divide by zero
        # and the vector draw emit span 2 > max_span;
        # max_duration_cycles=0 failed the same way.  Both are now
        # rejected before anything is drawn.
        with pytest.raises(ConfigurationError, match=message):
            iter_population(num_faults=5, sites=["s0", "s1", "s2"],
                            num_cycles=200, seed=11,
                            kinds=("correlated",), **overrides)


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(fault_id=0, kind="gremlin", site="s0", cycle=1,
                      duration_cycles=1, magnitude_ps=50)

    def test_rejects_bad_window_and_magnitude(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(fault_id=0, kind="seu", site="s0", cycle=-1,
                      duration_cycles=1, magnitude_ps=50)
        with pytest.raises(ConfigurationError):
            FaultSpec(fault_id=0, kind="seu", site="s0", cycle=1,
                      duration_cycles=0, magnitude_ps=50)
        with pytest.raises(ConfigurationError):
            FaultSpec(fault_id=0, kind="seu", site="s0", cycle=1,
                      duration_cycles=1, magnitude_ps=0)

    def test_sites_affected(self):
        sites = ["s0", "s1", "s2"]
        droop = FaultSpec(fault_id=0, kind="droop", site="s1", cycle=1,
                          duration_cycles=2, magnitude_ps=50)
        assert droop.sites_affected(sites) == sites
        corr = FaultSpec(fault_id=1, kind="correlated", site="s1",
                         cycle=1, duration_cycles=2, magnitude_ps=50,
                         span=2)
        assert corr.sites_affected(sites) == ["s1", "s2"]
        seu = FaultSpec(fault_id=2, kind="seu", site="s2", cycle=1,
                        duration_cycles=1, magnitude_ps=50)
        assert seu.sites_affected(sites) == ["s2"]


class TestFaultOverlay:
    def _spec(self, **overrides):
        defaults = dict(fault_id=0, kind="delay", site="s1", cycle=5,
                        duration_cycles=2, magnitude_ps=70)
        defaults.update(overrides)
        return FaultSpec(**defaults)

    def test_extra_delay_only_in_window(self):
        overlay = FaultOverlay([self._spec()], ["s0", "s1"])
        assert overlay.extra_delay_ps(5, "s1") == 70
        assert overlay.extra_delay_ps(6, "s1") == 70
        assert overlay.extra_delay_ps(7, "s1") == 0
        assert overlay.extra_delay_ps(5, "s0") == 0

    def test_overlapping_faults_add(self):
        overlay = FaultOverlay(
            [self._spec(), self._spec(fault_id=1, magnitude_ps=30,
                                      cycle=6, duration_cycles=1)],
            ["s0", "s1"])
        assert overlay.extra_delay_ps(6, "s1") == 100

    def test_active_cycles_between_matches_scan(self):
        # Faults on cycles 5-6 and 12; every window edge from before the
        # first to past the last, so edges fall inside, on and outside
        # the fault cycles (empty and inverted windows included).
        sites = ["s0", "s1"]
        overlay = FaultOverlay(
            [self._spec(), self._spec(fault_id=1, site="s0", cycle=12,
                                      duration_cycles=1)], sites)
        for start in range(16):
            for stop in range(16):
                scan = [cycle for cycle in range(start, stop)
                        if any(overlay.extra_delay_ps(cycle, site)
                               for site in sites)]
                assert overlay.active_cycles_between(start, stop) == scan


class TestClassification:
    def _event(self, **flags):
        return CaptureEvent(cycle=3, site="s0", lateness_ps=50, **flags)

    def test_empty_is_benign(self):
        assert classify_events([]) == BENIGN

    def test_escape_dominates(self):
        events = [self._event(masked=True, borrowed_intervals=2),
                  self._event(failed=True)]
        assert classify_events(events) == ESCAPED

    def test_relay_beats_masking_split(self):
        events = [self._event(masked=True, flagged=True),
                  self._event(masked=True, borrowed_intervals=2)]
        assert classify_events(events) == RELAYED

    def test_flagged_mask_is_masked_ed(self):
        assert classify_events(
            [self._event(masked=True, flagged=True)]) == MASKED_ED
        assert classify_events(
            [self._event(detected=True)]) == MASKED_ED

    def test_silent_mask_is_masked_tb(self):
        assert classify_events(
            [self._event(masked=True, borrowed_intervals=1)]) == MASKED_TB

    def test_pure_warning_is_false_positive(self):
        assert classify_events(
            [self._event(predicted=True, flagged=True)]) == FALSE_POSITIVE


class TestCampaignConfig:
    def test_params_round_trip(self):
        config = CampaignConfig(num_faults=80, num_cycles=400)
        rebuilt = CampaignConfig.from_params(
            json.loads(json.dumps(config.to_params())))
        assert rebuilt == config

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(target="fpga")
        with pytest.raises(ConfigurationError):
            CampaignConfig(scheme="not-a-scheme")
        with pytest.raises(ConfigurationError):
            CampaignConfig(target="graph", scheme="razor")
        with pytest.raises(ConfigurationError):
            CampaignConfig(target="netlist", scheme="timber-latch")
        with pytest.raises(ConfigurationError):
            CampaignConfig(num_faults=0)

    @pytest.mark.parametrize("overrides, message", [
        ({"checking_percent": 150}, "checking period"),
        ({"checking_percent": 0}, "checking period"),
        ({"num_cycles": 2}, "no room"),
        ({"kinds": ()}, "at least one fault kind"),
        ({"kinds": ("gremlin",)}, "gremlin"),
        ({"magnitude_range_ps": (0, 10)}, "magnitude"),
    ])
    def test_undrawable_config_rejected_at_construction(self, overrides,
                                                        message):
        # Caught when the config is built, not inside a worker task.
        with pytest.raises(ConfigurationError, match=message):
            CampaignConfig(**overrides)

    def test_sites_per_target(self):
        assert CampaignConfig(num_stages=3).sites() == \
            ["cs0", "cs1", "cs2"]
        assert CampaignConfig(target="graph", scheme="plain",
                              num_stages=3).sites() == ["g1", "g2", "g3"]
        assert CampaignConfig(target="netlist",
                              scheme="plain").sites() == ["d"]

    def test_netlist_kinds_restricted(self):
        config = CampaignConfig(target="netlist", scheme="timber-ff")
        assert set(config.effective_kinds()) <= {"seu", "delay"}

    def test_margin_is_checking_interval(self):
        config = CampaignConfig(period_ps=1000, checking_percent=30.0)
        assert config.margin_ps == config.checking_period.interval_ps
        assert config.margin_ps == 100


class TestChunking:
    def test_chunk_task_equals_direct_loop(self):
        config = CampaignConfig(num_faults=12, num_cycles=120,
                                faults_per_task=5, seed=3)
        payload = campaign_chunk_task(
            {"config": config.to_params(), "start": 5, "stop": 10})
        runner = fault_runner(config)
        direct = [runner.evaluate_chunk([spec])[0][0]
                  for spec in config.population()[5:10]]
        assert payload.value == direct
        assert payload.events_processed > 0

    def test_chunk_layout_independent(self):
        base = dict(num_faults=20, num_cycles=120, seed=3)
        fine = run_campaign(CampaignConfig(faults_per_task=4, **base))
        coarse = run_campaign(CampaignConfig(faults_per_task=20, **base))
        assert fine.outcomes == coarse.outcomes


class TestCampaignEndToEnd:
    @pytest.fixture(scope="class")
    def results(self):
        base = dict(num_faults=120, num_cycles=400, faults_per_task=40,
                    seed=7)
        return {
            scheme: run_campaign(CampaignConfig(scheme=scheme, **base))
            for scheme in ("plain", "timber-ff")
        }

    def test_plain_only_escapes(self, results):
        counts = results["plain"].report.counts
        assert counts[ESCAPED] > 0
        assert counts[MASKED_TB] == counts[MASKED_ED] == 0
        assert counts[RELAYED] == 0
        assert results["plain"].report.coverage == 0.0

    def test_timber_masks_and_relays(self, results):
        counts = results["timber-ff"].report.counts
        assert counts[MASKED_TB] > 0
        assert counts[RELAYED] > 0
        assert results["timber-ff"].report.coverage > 0.5

    def test_attribution_consistent_across_schemes(self, results):
        # The population and sensitization draws are identical, so a
        # fault that is architecturally invisible under one scheme is
        # invisible under the other.
        assert results["plain"].report.counts[BENIGN] == \
            results["timber-ff"].report.counts[BENIGN]

    def test_every_fault_classified(self, results):
        for result in results.values():
            assert len(result.outcomes) == 120
            assert sum(result.report.counts.values()) == 120
            for outcome in result.outcomes:
                assert outcome.classification in OUTCOME_CLASSES


class TestReport:
    def _report(self):
        config = CampaignConfig(num_faults=20, num_cycles=120,
                                faults_per_task=10, seed=3)
        return config, run_campaign(config)

    def test_rates_consistent(self):
        _, result = self._report()
        report = result.report
        assert report.violations <= report.num_faults
        assert 0.0 <= report.coverage <= 1.0
        assert report.escape_rate == pytest.approx(
            1.0 - report.coverage) or report.violations == 0

    def test_render_contains_all_classes(self):
        _, result = self._report()
        text = render_reports([result.report])
        for name in OUTCOME_CLASSES:
            assert name in text

    def test_bench_artefact_schema(self, tmp_path):
        config, result = self._report()
        path = write_campaign_bench(
            tmp_path / "BENCH_campaign.json", [result.report],
            config=config, telemetry=result.summary)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["bench"] == "campaign"
        assert data["schema_version"] == 1
        assert data["config"]["num_faults"] == 20
        report = data["reports"][0]
        assert set(report["counts"]) == set(OUTCOME_CLASSES)
        assert report["margin_ps"] == config.margin_ps
        assert data["telemetry"]["tasks"] == 2


class TestOutcomeEncoding:
    def test_outcomes_are_cacheable(self):
        from repro.exec.cache import decode_result, encode_result

        config = CampaignConfig(num_faults=8, num_cycles=120,
                                faults_per_task=8, seed=3)
        result = run_campaign(config)
        encoded = encode_result(result.outcomes)
        json.dumps(encoded)
        assert decode_result(encoded) == result.outcomes

    def test_outcomes_are_frozen_dataclasses(self):
        config = CampaignConfig(num_faults=4, num_cycles=120,
                                faults_per_task=4, seed=3)
        outcome = run_campaign(config).outcomes[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.classification = "benign"
