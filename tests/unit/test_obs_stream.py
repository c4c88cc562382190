"""Unit tests for repro.obs.stream: publisher, reader, spool framing."""

import json
import time
import types

import pytest

from repro.obs.stream import (
    EVENTS_FILENAME,
    STREAM_SCHEMA_VERSION,
    EventPublisher,
    EventStreamReader,
    StreamCorrupt,
    events_path,
    read_events,
)


def fake_task(key="t0", status="done", resumed=False, cached=False,
              events_processed=7, wall_time_s=0.01):
    """A task exec event, as ``RunTelemetry.record_task`` builds it."""
    return {"key": key, "index": 0, "wall_time_s": wall_time_s,
            "events_processed": events_processed, "cached": cached,
            "attempts": 1, "worker_pid": 1, "status": status,
            "resumed": resumed}


def make_publisher(tmp_path, **kwargs):
    kwargs.setdefault("kind", "sweep")
    kwargs.setdefault("heartbeat_s", 60.0)  # quiet during tests
    return EventPublisher(tmp_path / EVENTS_FILENAME, **kwargs)


class TestPublisherFraming:
    def test_header_first_then_monotone_seq(self, tmp_path):
        pub = make_publisher(tmp_path, run_id="r1", meta={"a": 1})
        with pub:
            pub.run_start(total=4, unit="tasks")
            pub.emit("progress", done=1)
            pub.run_end("ok")
        header, events = read_events(tmp_path / EVENTS_FILENAME)
        assert header["type"] == "header"
        assert header["schema"] == STREAM_SCHEMA_VERSION
        assert header["run_id"] == "r1"
        assert header["kind"] == "sweep"
        assert header["meta"] == {"a": 1}
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(1, len(events) + 1))
        assert events[0]["type"] == "run_start"
        assert events[-1]["type"] == "run_end"
        for event in events:
            assert "wall" in event and "mono_ns" in event

    def test_close_with_status_is_noop_after_run_end(self, tmp_path):
        pub = make_publisher(tmp_path)
        pub.open()
        pub.run_start()
        pub.run_end("ok")
        pub.close(status="error")
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        ends = [event for event in events if event["type"] == "run_end"]
        assert len(ends) == 1
        assert ends[0]["status"] == "ok"

    def test_close_with_status_covers_crash_paths(self, tmp_path):
        pub = make_publisher(tmp_path)
        pub.open()
        pub.run_start()
        pub.close(status="error")
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        assert events[-1]["type"] == "run_end"
        assert events[-1]["status"] == "error"

    def test_note_drain_is_deferred_not_immediate(self, tmp_path):
        pub = make_publisher(tmp_path)
        pub.open()
        pub.run_start()
        pub.note_drain(15)
        # Nothing written yet: the handler only sets a field.
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        assert all(event["type"] != "drain" for event in events)
        pub.run_end("drained")
        pub.close()
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        types_ = [event["type"] for event in events]
        assert "drain" in types_
        assert types_.index("drain") < types_.index("run_end")
        drain = next(e for e in events if e["type"] == "drain")
        assert drain["signum"] == 15

    def test_listeners_see_exactly_the_spool_events(self, tmp_path):
        pub = make_publisher(tmp_path)
        seen = []
        pub.add_listener(seen.append)
        with pub:
            pub.run_start(total=1)
            pub.checkpoint(records=1)
            pub.run_end("ok")
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        assert [e["seq"] for e in seen] == [e["seq"] for e in events]
        assert [e["type"] for e in seen] == [e["type"] for e in events]

    def test_file_sink_optional(self):
        pub = EventPublisher(None, kind="sweep", heartbeat_s=60.0)
        seen = []
        pub.add_listener(seen.append)
        with pub:
            pub.run_start()
            pub.run_end("ok")
        assert [event["type"] for event in seen] == ["run_start",
                                                    "run_end"]

    def test_checkpoint_carries_cumulative_total(self, tmp_path):
        pub = make_publisher(tmp_path)
        with pub:
            pub.checkpoint(records=3)
            pub.checkpoint(records=6)
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        totals = [event["total"] for event in events
                  if event["type"] == "checkpoint"]
        assert totals == [1, 2]


class TestTelemetryBridge:
    def test_task_flow_produces_progress(self, tmp_path):
        pub = make_publisher(tmp_path, progress_every_s=0.0)
        telemetry = types.SimpleNamespace(listeners=[])
        pub.attach(telemetry)
        notify = telemetry.listeners[0]
        with pub:
            pub.run_start(total=3)
            notify("start", {"workers": 2, "num_tasks": 3})
            notify("task", fake_task(key="a"))
            notify("task", fake_task(key="b", cached=True))
            notify("task", fake_task(key="c", status="poisoned"))
            notify("finish", {"wall_time_s": 0.5})
            pub.run_end("ok")
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        types_ = [event["type"] for event in events]
        assert "phase_start" in types_
        assert "phase_end" in types_
        assert "quarantine" in types_
        last_progress = [e for e in events if e["type"] == "progress"][-1]
        assert last_progress["done"] == 3
        assert last_progress["executed"] == 1
        assert last_progress["cached"] == 1
        assert last_progress["poisoned"] == 1
        assert last_progress["workers"] == 2
        assert last_progress["events_processed"] == 7

    def test_fault_unit_suppresses_phase_events(self, tmp_path):
        pub = make_publisher(tmp_path, progress_every_s=0.0)
        telemetry = types.SimpleNamespace(listeners=[])
        pub.attach(telemetry)
        notify = telemetry.listeners[0]
        with pub:
            pub.run_start(unit="faults")
            notify("start", {"workers": 1, "num_tasks": 5})
            notify("finish", {"wall_time_s": 0.1})
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        types_ = [event["type"] for event in events]
        assert "phase_start" not in types_
        assert "phase_end" not in types_

    def test_retry_and_crash_events_carry_cumulative_totals(
            self, tmp_path):
        pub = make_publisher(tmp_path)
        telemetry = types.SimpleNamespace(listeners=[])
        pub.attach(telemetry)
        notify = telemetry.listeners[0]
        with pub:
            notify("retry", {"key": "a", "error": "boom",
                             "backoff_s": 0.0})
            notify("retry", {"key": "b", "error": "boom",
                             "backoff_s": 0.1})
            notify("crash", {"key": "c", "error": "dead"})
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        retries = [e for e in events if e["type"] == "retry"]
        assert [event["total"] for event in retries] == [1, 2]
        crash = next(e for e in events if e["type"] == "crash")
        assert crash["total"] == 1

    def test_close_detaches_listener(self, tmp_path):
        pub = make_publisher(tmp_path)
        telemetry = types.SimpleNamespace(listeners=[])
        pub.attach(telemetry)
        pub.open()
        pub.close()
        assert telemetry.listeners == []


class TestHeartbeat:
    def test_heartbeat_fills_idle_gaps(self, tmp_path):
        pub = EventPublisher(tmp_path / EVENTS_FILENAME, kind="soak",
                             heartbeat_s=0.1)
        with pub:
            pub.run_start()
            time.sleep(0.4)
        _, events = read_events(tmp_path / EVENTS_FILENAME)
        assert any(event["type"] == "heartbeat" for event in events)


class TestReader:
    def write_spool(self, path, events):
        with open(path, "wb") as handle:
            for event in events:
                handle.write(json.dumps(event).encode() + b"\n")

    def header(self, **kwargs):
        base = {"type": "header", "schema": STREAM_SCHEMA_VERSION,
                "run_id": "r", "kind": "sweep", "heartbeat_s": 5.0}
        base.update(kwargs)
        return base

    def test_incremental_poll(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        self.write_spool(path, [self.header(),
                                {"seq": 1, "type": "run_start"}])
        reader = EventStreamReader(path)
        first = reader.poll()
        assert [event["type"] for event in first] == ["run_start"]
        assert reader.header["run_id"] == "r"
        with open(path, "ab") as handle:
            handle.write(json.dumps({"seq": 2, "type": "run_end"})
                         .encode() + b"\n")
        second = reader.poll()
        assert [event["type"] for event in second] == ["run_end"]
        assert reader.poll() == []
        assert reader.last_seq == 2

    def test_torn_tail_is_left_pending(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        self.write_spool(path, [self.header(),
                                {"seq": 1, "type": "run_start"}])
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 2, "type": "prog')
        reader = EventStreamReader(path)
        assert [e["seq"] for e in reader.poll()] == [1]
        # The writer was not dead after all: it finishes the line.
        with open(path, "ab") as handle:
            handle.write(b'ress"}\n')
        assert [e["seq"] for e in reader.poll()] == [2]

    def test_torn_terminated_tail_is_pending_too(self, tmp_path):
        # A line that ends in \n but is still unparseable may be the
        # crash artefact itself (buffered halves flushed separately).
        path = tmp_path / EVENTS_FILENAME
        self.write_spool(path, [self.header()])
        with open(path, "ab") as handle:
            handle.write(b'{"seq": 1, "type": "trunc\n')
        reader = EventStreamReader(path)
        assert reader.poll() == []

    def test_midfile_damage_raises(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        self.write_spool(path, [self.header()])
        with open(path, "ab") as handle:
            handle.write(b"garbage\n")
            handle.write(json.dumps({"seq": 2, "type": "run_end"})
                         .encode() + b"\n")
        with pytest.raises(StreamCorrupt):
            EventStreamReader(path).poll()

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        self.write_spool(path, [{"seq": 1, "type": "run_start"}])
        with pytest.raises(StreamCorrupt):
            EventStreamReader(path).poll()

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        self.write_spool(path, [self.header(schema=99)])
        with pytest.raises(StreamCorrupt):
            EventStreamReader(path).poll()

    def test_seq_gaps_are_counted(self, tmp_path):
        path = tmp_path / EVENTS_FILENAME
        self.write_spool(path, [self.header(),
                                {"seq": 1, "type": "run_start"},
                                {"seq": 5, "type": "run_end"}])
        reader = EventStreamReader(path)
        reader.poll()
        assert reader.dropped == 3

    def test_missing_file_polls_empty(self, tmp_path):
        reader = EventStreamReader(tmp_path / "nope.jsonl")
        assert reader.poll() == []
        assert reader.header is None


class TestEventsPath:
    def test_direct_file(self, tmp_path):
        spool = tmp_path / EVENTS_FILENAME
        spool.write_text("")
        assert events_path(spool) == spool

    def test_run_dir(self, tmp_path):
        spool = tmp_path / EVENTS_FILENAME
        spool.write_text("")
        assert events_path(tmp_path) == spool

    def test_nested_obs_dir(self, tmp_path):
        (tmp_path / "obs").mkdir()
        spool = tmp_path / "obs" / EVENTS_FILENAME
        spool.write_text("")
        assert events_path(tmp_path) == spool

    def test_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            events_path(tmp_path / "absent")
