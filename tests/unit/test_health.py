"""Unit tests for repro.obs.health: the event-prefix -> RunHealth fold."""

from repro.obs.health import (
    HEALTH_SCHEMA_VERSION,
    HealthFold,
    RunHealth,
    fold_events,
)
from repro.obs.render import (
    format_status_line,
    render_dashboard,
    render_html,
)
from repro.obs.stream import EventPublisher, read_events

SEC = 1_000_000_000  # mono_ns per second


def header(**kwargs):
    base = {"type": "header", "schema": 1, "run_id": "run-1",
            "kind": "sweep", "heartbeat_s": 5.0}
    base.update(kwargs)
    return base


def ev(seq, etype, t=0.0, **fields):
    """Event at ``t`` seconds on both clocks (wall anchored at 1000)."""
    return {"seq": seq, "type": etype, "wall": 1000.0 + t,
            "mono_ns": int(t * SEC), **fields}


def progress(seq, t, done, **fields):
    fields.setdefault("executed", done)
    return ev(seq, "progress", t, done=done, **fields)


class TestLifecycle:
    def test_empty_fold_is_pending(self):
        health = HealthFold().health()
        assert health.lifecycle == "pending"
        assert health.status == "pending"
        assert isinstance(health, RunHealth)

    def test_header_identity(self):
        fold = HealthFold()
        fold.apply(header())
        health = fold.health()
        assert health.run_id == "run-1"
        assert health.kind == "sweep"
        assert health.heartbeat_s == 5.0

    def test_started_wall_comes_from_run_start(self, tmp_path):
        # The spool header carries no wall clock; run_start does.
        spool = tmp_path / "events.jsonl"
        with EventPublisher(spool, kind="sweep", heartbeat_s=60.0) as pub:
            pub.run_start(total=1)
        header_, events = read_events(spool)
        health = fold_events([header_, *events])
        assert health.started_wall == events[0]["wall"]

    def test_run_start_to_done(self):
        health = fold_events([
            header(),
            ev(1, "run_start", 0.0, total=10, unit="tasks"),
            ev(2, "run_end", 1.0, status="ok"),
        ])
        assert health.lifecycle == "done"
        assert health.status == "done"
        assert health.total == 10

    def test_drain_and_drained(self):
        fold = HealthFold()
        fold.apply(header())
        fold.apply(ev(1, "run_start", 0.0))
        fold.apply(ev(2, "drain", 1.0, signum=15))
        assert fold.health().lifecycle == "draining"
        fold.apply(ev(3, "run_end", 2.0, status="drained"))
        assert fold.health().lifecycle == "drained"

    def test_error_status(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0),
            ev(2, "run_end", 1.0, status="error"),
        ])
        assert health.lifecycle == "error"

    def test_total_falls_back_to_phase_totals(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0),
            ev(2, "phase_start", 0.1, phase="plain", total=40,
               workers=2),
            ev(3, "phase_start", 5.0, phase="timber-ff", total=40,
               workers=2),
        ])
        assert health.total == 80
        assert health.phase == "timber-ff"
        assert health.workers == 2


class TestCountersAndRates:
    def test_progress_counters_are_cumulative(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0, total=100),
            progress(2, 1.0, 10, cached=2, executed=8, busy_s=7.5,
                     workers=2),
            progress(3, 2.0, 30, cached=5, executed=25, busy_s=15.0,
                     workers=2),
        ])
        assert health.done == 30
        assert health.cached == 5
        assert health.executed == 25
        assert health.busy_s == 15.0
        assert health.cache_hit_rate == 5 / 30
        # 2 workers over 2s elapsed with 15 busy-seconds: saturated.
        assert health.utilization == 1.0

    def test_throughput_ema_and_eta(self):
        events = [header(), ev(1, "run_start", 0.0, total=100)]
        for i in range(1, 6):
            events.append(progress(i + 1, float(i), i * 10))
        health = fold_events(events)
        # Constant 10 units/s: the EMA converges to the same rate.
        assert abs(health.throughput - 10.0) < 1e-9
        assert abs(health.eta_s - 5.0) < 1e-9
        assert health.throughput_peak >= health.throughput

    def test_eta_absent_once_run_ends(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0, total=100),
            progress(2, 1.0, 10), progress(3, 2.0, 20),
            ev(4, "run_end", 3.0, status="ok"),
        ])
        assert health.eta_s is None

    def test_resilience_events_merge_with_progress_maximum(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0),
            ev(2, "retry", 0.5, key="a", total=3),
            progress(3, 1.0, 10, retries=2),   # older cumulative view
            ev(4, "crash", 1.5, key="b", total=1),
            ev(5, "quarantine", 1.6, key="c", total=2),
        ])
        assert health.retries == 3
        assert health.crashes == 1
        assert health.poisoned == 2

    def test_checkpoint_total(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0),
            ev(2, "checkpoint", 1.0, total=4, records=32),
        ])
        assert health.checkpoints == 4


class TestStaleness:
    def live_prefix(self):
        return [header(), ev(1, "run_start", 0.0),
                progress(2, 1.0, 5)]

    def test_fresh_run_is_not_stale(self):
        health = fold_events(self.live_prefix(), now_wall=1001.5)
        assert not health.stale
        assert health.status == "running"

    def test_silence_past_heartbeat_is_stale(self):
        health = fold_events(self.live_prefix(), now_wall=1011.0)
        assert health.stale
        assert health.status == "stale"
        assert health.lifecycle == "running"
        assert "stalled_heartbeat" in health.flags

    def test_finished_run_never_goes_stale(self):
        events = self.live_prefix() + [
            ev(3, "run_end", 2.0, status="ok")]
        health = fold_events(events, now_wall=99999.0)
        assert not health.stale
        assert health.status == "done"

    def test_stale_after_override(self):
        health = fold_events(self.live_prefix(), now_wall=1003.0,
                             stale_after_s=1.0)
        assert health.stale
        health = fold_events(self.live_prefix(), now_wall=1003.0,
                             stale_after_s=60.0)
        assert not health.stale

    def test_no_now_skips_staleness(self):
        health = fold_events(self.live_prefix())
        assert not health.stale
        assert health.last_event_age_s is None


class TestAnomalyFlags:
    def test_retry_storm(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0),
            progress(2, 1.0, 12, executed=12, retries=12),
        ])
        assert "retry_storm" in health.flags

    def test_few_retries_is_not_a_storm(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0),
            progress(2, 1.0, 100, executed=100, retries=9),
        ])
        assert "retry_storm" not in health.flags

    def test_throughput_collapse(self):
        events = [header(), ev(1, "run_start", 0.0, total=10_000)]
        seq = 2
        # Fast warmup: 100 units/s for 5 samples.
        for i in range(1, 6):
            events.append(progress(seq, float(i), i * 100))
            seq += 1
        # Collapse: 1 unit per 10 s from then on.
        done = 500
        t = 5.0
        for _ in range(6):
            t += 10.0
            done += 1
            events.append(progress(seq, t, done))
            seq += 1
        health = fold_events(events)
        assert "throughput_collapse" in health.flags
        assert health.throughput < 0.25 * health.throughput_peak


class TestSoakRounds:
    def round_ev(self, seq, t, rnd, faults):
        return ev(seq, "round", t, round=rnd, faults=faults,
                  escape_rate=0.25, ci_low=0.2, ci_high=0.3,
                  widest_stratum="seu/0-10", widest_ci_width=0.4,
                  per_stratum=[{"stratum": "seu/0-10", "samples": 10,
                                "width": 0.4}])

    def test_round_switches_unit_to_faults(self):
        health = fold_events([
            header(kind="soak"),
            ev(1, "run_start", 0.0, unit="faults", total=1000),
            self.round_ev(2, 1.0, 1, 200),
            self.round_ev(3, 2.0, 2, 400),
        ])
        assert health.unit == "faults"
        assert health.done == 400
        assert health.soak["rounds"] == 2
        assert health.soak["escape_rate"] == 0.25
        assert health.soak["widest_stratum"] == "seu/0-10"
        # 200 faults/s once the round-based estimator has two samples.
        assert abs(health.throughput - 200.0) < 1e-9
        assert abs(health.eta_s - 3.0) < 1e-9

    def test_runner_progress_does_not_pollute_fault_rate(self):
        # Task-level progress events (the chunk executor) interleave
        # with rounds; once rounds appear, they own rate estimation.
        health = fold_events([
            header(kind="soak"),
            ev(1, "run_start", 0.0, unit="faults"),
            progress(2, 0.5, 3),
            self.round_ev(3, 1.0, 1, 200),
            progress(4, 1.5, 9),
            self.round_ev(5, 2.0, 2, 400),
        ])
        assert abs(health.throughput - 200.0) < 1e-9
        assert health.done == 400


class TestProjection:
    def test_to_json_schema(self):
        health = fold_events([header(), ev(1, "run_start", 0.0)])
        body = health.to_json()
        assert body["schema"] == HEALTH_SCHEMA_VERSION
        for key in ("run_id", "kind", "lifecycle", "status", "stale",
                    "flags", "done", "total", "throughput", "eta_s",
                    "retries", "crashes", "workers", "utilization",
                    "cache_hit_rate", "soak", "last_event_age_s"):
            assert key in body
        assert isinstance(body["flags"], list)

    def test_status_line_and_dashboard_render(self):
        events = [header(), ev(1, "run_start", 0.0, total=100),
                  progress(2, 1.0, 10, cached=4, executed=6,
                           workers=2, busy_s=1.4),
                  ev(3, "retry", 1.2, key="a", total=1)]
        health = fold_events(events, now_wall=1001.5)
        line = format_status_line(health)
        assert "sweep" in line
        assert "10/100" in line
        dashboard = render_dashboard(health)
        assert "run-1" in dashboard
        assert "retries 1" in dashboard

    def test_html_report_renders(self):
        events = [header(kind="soak"),
                  ev(1, "run_start", 0.0, unit="faults"),
                  ev(2, "round", 1.0, round=1, faults=100,
                     escape_rate=0.1, ci_low=0.05, ci_high=0.15,
                     widest_stratum="seu/0-10", widest_ci_width=0.3,
                     per_stratum=[{"stratum": "seu/0-10",
                                   "samples": 10, "width": 0.3}])]
        health = fold_events(events)
        page = render_html(health, events=events)
        assert "<html" in page
        assert "run-1" in page
        assert "seu/0-10" in page


def metrics(seq, t, faults_by_class):
    """A ``metrics`` event carrying outcome-counter snapshot deltas."""
    return ev(seq, "metrics", t, delta={
        "repro_campaign_outcomes_total": {
            "kind": "counter",
            "series": [
                {"labels": {"target": "pipeline", "scheme": "timber-ff",
                            "classification": cls}, "value": value}
                for cls, value in faults_by_class.items()
            ],
        },
    })


class TestFaultThroughput:
    def test_metrics_deltas_sum_into_faults_per_second(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0, total=10),
            metrics(2, 1.0, {"masked_tb": 70, "escaped": 50}),
            metrics(3, 3.0, {"masked_tb": 60, "benign": 20}),
            ev(4, "run_end", 4.0, status="ok"),
        ])
        assert health.faults_classified == 200
        assert abs(health.faults_per_second - 50.0) < 1e-9

    def test_no_metrics_means_no_fault_rate(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0, total=10),
            progress(2, 1.0, 5),
        ])
        assert health.faults_classified == 0
        assert health.faults_per_second is None

    def test_unrelated_metrics_families_are_ignored(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0),
            ev(2, "metrics", 1.0, delta={
                "repro_pipeline_outcomes_total": {
                    "kind": "counter",
                    "series": [{"labels": {"outcome": "masked"},
                                "value": 9}],
                },
            }),
        ])
        assert health.faults_classified == 0

    def test_schema_and_json_round_trip(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0),
            metrics(2, 2.0, {"relayed": 10}),
        ])
        body = health.to_json()
        assert body["schema"] == HEALTH_SCHEMA_VERSION == 2
        assert body["faults_classified"] == 10
        assert abs(body["faults_per_second"] - 5.0) < 1e-9

    def test_renderers_surface_fault_rate(self):
        health = fold_events([
            header(), ev(1, "run_start", 0.0, total=10),
            progress(2, 1.0, 5),
            metrics(3, 2.0, {"masked_tb": 100}),
        ])
        assert "faults/s" in format_status_line(health)
        dashboard = render_dashboard(health)
        assert "classified 100" in dashboard
        assert "faults/s" in dashboard
        html = render_html(health)
        assert "fault throughput" in html
