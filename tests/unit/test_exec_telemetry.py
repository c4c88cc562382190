"""Unit tests for sweep run telemetry."""

import json
import logging

from repro.errors import ExecutionError
from repro.exec import ResultCache, SweepRunner
from repro.exec.runner import expand_grid
from repro.exec.telemetry import RunTelemetry, format_summary

SQUARE = "repro.exec.testing:square_task"
FLAKY = "repro.exec.testing:flaky_task"


def _run(**runner_kwargs):
    runner = SweepRunner(**runner_kwargs)
    runner.run(expand_grid(SQUARE, {"x": (1, 2, 3)}))
    return runner


class TestSummary:
    def test_summary_fields(self):
        runner = _run()
        summary = runner.last_run.summary
        assert summary["tasks"] == 3
        assert summary["cache_hits"] == 0
        assert summary["cache_misses"] == 3
        assert summary["events_processed"] == 3
        assert summary["wall_time_s"] > 0
        assert 0.0 <= summary["worker_utilization"] <= 1.0
        assert len(summary["per_task"]) == 3
        keys = {record["key"] for record in summary["per_task"]}
        assert keys == {"square_task[x=1]", "square_task[x=2]",
                        "square_task[x=3]"}

    def test_cache_hits_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        _run(cache=cache)
        warm = _run(cache=cache)
        summary = warm.last_run.summary
        assert summary["cache_hits"] == 3
        assert summary["cache_misses"] == 0
        assert summary["task_wall_time_s"]["total"] == 0.0

    def test_summary_is_json_able(self):
        json.dumps(_run().last_run.summary)

    def test_per_task_is_the_logged_task_events(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.exec"):
            telemetry = _run().telemetry
        logged = [r.repro_task for r in caplog.records
                  if hasattr(r, "repro_task")]
        assert (json.dumps(telemetry.summary()["per_task"])
                == json.dumps(logged))

    def test_write_summary(self, tmp_path):
        runner = _run()
        path = tmp_path / "nested" / "summary.json"
        runner.telemetry.write_summary(path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["tasks"] == 3

    def test_idle_telemetry_summary(self):
        summary = RunTelemetry().summary()
        assert summary["tasks"] == 0
        assert summary["worker_utilization"] == 0.0

    def test_kernel_mode_captured_at_start(self, monkeypatch):
        """``summary()`` reports the mode the run *started* under, even
        if the environment changes before the summary is taken."""
        from repro.kernels import SCALAR_ENV, kernel_mode

        monkeypatch.delenv(SCALAR_ENV, raising=False)
        telemetry = RunTelemetry()
        telemetry.start(workers=1, num_tasks=0)
        started_mode = kernel_mode()
        monkeypatch.setenv(SCALAR_ENV, "1")
        assert telemetry.summary()["kernel_mode"] == started_mode


class TestResumedRun:
    def test_resumed_run_counts_no_events_anywhere(self, tmp_path):
        """A sweep fully resumed from its checkpoint executed nothing in
        this process: the summary, the registry mirror and the folded
        ``RunHealth`` all report zero events processed."""
        from repro import obs
        from repro.exec import SweepCheckpoint
        from repro.obs.health import fold_events
        from repro.obs.stream import EventPublisher, read_events

        path = tmp_path / "cp.jsonl"
        tasks = expand_grid(SQUARE, {"x": (1, 2, 3)})
        SweepRunner(checkpoint=SweepCheckpoint(path)).run(tasks)
        runner = SweepRunner(
            checkpoint=SweepCheckpoint(path, resume=True))
        spool = tmp_path / "events.jsonl"
        was_enabled = obs.enabled()
        obs.enable()
        try:
            before = obs.REGISTRY.snapshot()
            with EventPublisher(spool, kind="sweep",
                                heartbeat_s=60.0) as publisher:
                publisher.attach(runner.telemetry)
                publisher.run_start(unit="tasks")
                runner.run(tasks)
                publisher.run_end("ok")
            delta = obs.snapshot_delta(before, obs.REGISTRY.snapshot())
        finally:
            if not was_enabled:
                obs.disable()
        summary = runner.telemetry.summary()
        header, events = read_events(spool)
        health = fold_events([header, *events])
        assert summary["resumed_tasks"] == health.resumed == 3
        assert summary["events_processed"] == health.events_processed == 0
        assert "repro_exec_events_processed_total" not in delta


class TestLoggingAndRendering:
    def test_structured_records_emitted(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.exec"):
            _run()
        task_records = [r for r in caplog.records
                        if hasattr(r, "repro_task")]
        assert len(task_records) == 3
        assert task_records[0].repro_task["cached"] is False
        summaries = [r for r in caplog.records
                     if hasattr(r, "repro_summary")]
        assert len(summaries) == 1

    def test_format_summary_shows_hits_and_timings(self, tmp_path):
        cache = ResultCache(tmp_path)
        _run(cache=cache)
        text = format_summary(_run(cache=cache).last_run.summary)
        assert "cache hits: 3" in text
        cold = format_summary(_run().last_run.summary)
        assert "square_task[x=" in cold  # slowest-task timings listed
        assert "misses: 3" in cold

    def test_format_summary_excludes_resumed_from_slowest(self):
        """Resumed tasks replay with their *original* wall time, which
        must not crowd this run's genuinely slowest tasks."""
        summary = _run().last_run.summary
        for record in summary["per_task"]:
            record["resumed"] = True
            record["wall_time_s"] = 999.0
        text = format_summary(summary)
        assert "999.000s" not in text


class TestStructuredLogPayloads:
    """Every ``extra`` payload must survive ``json.dumps`` — log
    processors consume these records without parsing message text."""

    @staticmethod
    def _payloads(caplog, attr):
        return [getattr(r, attr) for r in caplog.records
                if hasattr(r, attr)]

    def test_task_and_summary_payloads(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.exec"):
            _run()
        tasks = self._payloads(caplog, "repro_task")
        assert len(tasks) == 3
        for payload in tasks:
            assert isinstance(payload, dict)
            json.dumps(payload)
        (summary,) = self._payloads(caplog, "repro_summary")
        assert isinstance(summary, dict)
        json.dumps(summary)

    def test_retry_payloads(self, caplog, tmp_path):
        counter = tmp_path / "attempts"
        tasks = expand_grid(
            FLAKY, {"fail_times": (2,)},
            {"counter_path": str(counter)})
        with caplog.at_level(logging.WARNING, logger="repro.exec"):
            SweepRunner(retries=2).run(tasks)
        retries = self._payloads(caplog, "repro_retry")
        assert len(retries) == 2
        for payload in retries:
            assert isinstance(payload, dict)
            assert payload["key"].startswith("flaky_task[")
            json.dumps(payload)

    def test_crash_payloads(self, caplog):
        telemetry = RunTelemetry()
        task = expand_grid(SQUARE, {"x": (1,)})[0]
        with caplog.at_level(logging.WARNING, logger="repro.exec"):
            telemetry.record_crash(
                task, ExecutionError("worker died"))
        (crash,) = self._payloads(caplog, "repro_crash")
        assert isinstance(crash, dict)
        assert crash["key"] == task.key
        json.dumps(crash)
