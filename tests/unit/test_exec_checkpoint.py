"""Unit tests for sweep checkpointing and resume."""

import json
import logging
import os

import pytest

from repro.exec import (
    RecordLog,
    SweepCheckpoint,
    SweepRunner,
    SweepTask,
    atomic_write_json,
    compute_run_key,
    expand_grid,
    read_checkpoint,
)
from repro.exec.cache import _code_version

SQUARE = "repro.exec.testing:square_task"
KILLER = "repro.exec.testing:kill_worker_task"


def _tasks(values=(1, 2, 3, 4), root_seed=5):
    return expand_grid(SQUARE, {"x": values}, root_seed=root_seed)


class TestRunKey:
    def test_stable_for_same_tasks(self):
        assert compute_run_key(_tasks(), "v") == \
            compute_run_key(_tasks(), "v")

    def test_sensitive_to_grid_seed_and_version(self):
        base = compute_run_key(_tasks(), "v")
        assert compute_run_key(_tasks((1, 2, 3)), "v") != base
        assert compute_run_key(_tasks(root_seed=6), "v") != base
        assert compute_run_key(_tasks(), "v2") != base


class TestCheckpointFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cp.json"
        tasks = _tasks()
        runner = SweepRunner(checkpoint=SweepCheckpoint(path, every=2))
        run = runner.run(tasks)
        assert path.exists()
        header, records = RecordLog.read(path)
        assert header == {"schema_version": 2,
                          "run_key": compute_run_key(tasks,
                                                     _code_version())}
        assert [record["index"] for record in records] == [0, 1, 2, 3]
        assert sorted(read_checkpoint(path)) == [0, 1, 2, 3]
        # Resume replays every task without executing anything.
        resumed = SweepRunner(
            checkpoint=SweepCheckpoint(path, resume=True)).run(tasks)
        assert resumed.values == run.values
        assert resumed.summary["resumed_tasks"] == 4
        assert all(o.resumed for o in resumed.outcomes)

    def test_partial_checkpoint_fills_the_gap(self, tmp_path):
        path = tmp_path / "cp.json"
        tasks = _tasks()
        reference = SweepRunner(
            checkpoint=SweepCheckpoint(path)).run(tasks)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(
            line for line in lines
            if json.loads(line).get("index") not in (1, 3)))
        assert sorted(read_checkpoint(path)) == [0, 2]
        resumed = SweepRunner(
            checkpoint=SweepCheckpoint(path, resume=True)).run(tasks)
        assert resumed.values == reference.values
        assert resumed.summary["resumed_tasks"] == 2
        # The checkpoint is healed: all four tasks recorded again.
        assert sorted(read_checkpoint(path)) == [0, 1, 2, 3]

    def test_without_resume_flag_file_is_ignored(self, tmp_path):
        path = tmp_path / "cp.json"
        tasks = _tasks()
        SweepRunner(checkpoint=SweepCheckpoint(path)).run(tasks)
        rerun = SweepRunner(checkpoint=SweepCheckpoint(path)).run(tasks)
        assert rerun.summary["resumed_tasks"] == 0

    def test_mismatched_run_key_ignored(self, tmp_path, caplog):
        path = tmp_path / "cp.json"
        SweepRunner(checkpoint=SweepCheckpoint(path)).run(_tasks())
        other = _tasks(root_seed=99)
        with caplog.at_level(logging.WARNING,
                             logger="repro.exec.checkpoint"):
            run = SweepRunner(
                checkpoint=SweepCheckpoint(path, resume=True)).run(other)
        assert run.summary["resumed_tasks"] == 0
        assert any("different run" in record.message
                   for record in caplog.records)

    def test_corrupt_checkpoint_ignored(self, tmp_path, caplog):
        path = tmp_path / "cp.json"
        tasks = _tasks()
        SweepRunner(checkpoint=SweepCheckpoint(path)).run(tasks)
        path.write_text("{truncated", encoding="utf-8")
        with caplog.at_level(logging.WARNING,
                             logger="repro.exec.checkpoint"):
            run = SweepRunner(
                checkpoint=SweepCheckpoint(path, resume=True)).run(tasks)
        assert run.summary["resumed_tasks"] == 0
        assert run.values == [1, 4, 9, 16]
        assert any("unreadable" in record.message
                   for record in caplog.records)

    def test_missing_file_with_resume_is_fresh_start(self, tmp_path):
        path = tmp_path / "nope.json"
        run = SweepRunner(
            checkpoint=SweepCheckpoint(path, resume=True)).run(_tasks())
        assert run.summary["resumed_tasks"] == 0
        assert path.exists()  # written by the end of the run

    def test_flush_before_load_rejected(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "cp.json")
        with pytest.raises(RuntimeError):
            checkpoint.flush()


class TestAtomicWriteJson:
    def test_round_trip_and_no_droppings(self, tmp_path):
        path = tmp_path / "data.json"
        atomic_write_json(path, {"a": [1, 2, 3]})
        assert json.loads(path.read_text(encoding="utf-8")) == \
            {"a": [1, 2, 3]}
        atomic_write_json(path, {"a": [4]})
        assert json.loads(path.read_text(encoding="utf-8")) == \
            {"a": [4]}
        # No temp files survive a successful write.
        assert [p.name for p in tmp_path.iterdir()] == ["data.json"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "er" / "data.json"
        atomic_write_json(path, 7)
        assert json.loads(path.read_text(encoding="utf-8")) == 7

    def test_torn_write_never_corrupts_the_target(self, tmp_path,
                                                  monkeypatch):
        """A crash mid-write leaves the old complete document intact.

        Simulated by making the data unserializable partway through:
        ``json.dump`` streams, so by the time it raises, bytes have
        already been written — to the temp file, never the target.
        """
        path = tmp_path / "cp.json"
        atomic_write_json(path, {"generation": 1, "pad": "x" * 4096})
        before = path.read_bytes()

        class Exploding:
            def __iter__(self):
                raise RuntimeError("simulated crash mid-encode")

        with pytest.raises(TypeError):
            atomic_write_json(path, {"generation": 2,
                                     "bad": Exploding()})
        assert path.read_bytes() == before
        assert json.loads(path.read_text(encoding="utf-8"))[
            "generation"] == 1
        # The failed write's temp file was cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == ["cp.json"]

    def test_torn_replace_leaves_old_or_new_never_mixed(
            self, tmp_path, monkeypatch):
        """Killing between fsync and rename keeps the old document."""
        path = tmp_path / "cp.json"
        atomic_write_json(path, {"generation": 1})
        real_replace = os.replace

        def crash_replace(src, dst):
            raise RuntimeError("simulated SIGKILL before rename")

        monkeypatch.setattr(os, "replace", crash_replace)
        with pytest.raises(RuntimeError):
            atomic_write_json(path, {"generation": 2})
        monkeypatch.setattr(os, "replace", real_replace)
        assert json.loads(path.read_text(encoding="utf-8"))[
            "generation"] == 1


class TestAppendLog:
    def test_flush_appends_through_the_record_log(self, tmp_path,
                                                  monkeypatch):
        """Flushes append through the record log; nothing rewrites."""
        calls = []
        real = RecordLog.write

        def spy(log, data):
            calls.append((log.path, data))
            real(log, data)

        monkeypatch.setattr(RecordLog, "write", spy)
        path = tmp_path / "cp.json"
        SweepRunner(checkpoint=SweepCheckpoint(path, every=3)).run(
            _tasks(range(1, 8)))
        assert [p for p, _ in calls] == [path, path, path]
        header_line = path.read_bytes().splitlines(keepends=True)[0]
        assert path.read_bytes() == \
            header_line + b"".join(data for _, data in calls)

    def test_file_only_grows_and_is_never_rewritten(self, tmp_path):
        path = tmp_path / "cp.json"
        checkpoint = SweepCheckpoint(path, every=3)
        snapshots = []
        checkpoint.on_flush = lambda count: snapshots.append(
            (count, path.read_bytes()))
        SweepRunner(checkpoint=checkpoint).run(_tasks(range(10)))
        assert [count for count, _ in snapshots] == [3, 6, 9, 10]
        for (_, before), (_, after) in zip(snapshots, snapshots[1:]):
            assert len(after) >= len(before)
            assert after.startswith(before)  # appended, never rewritten

    def test_bytes_are_linear_in_outcomes(self, tmp_path):
        path = tmp_path / "cp.json"
        tasks = _tasks(range(2000))
        sizes = []
        checkpoint = SweepCheckpoint(path)
        checkpoint.on_flush = lambda count: sizes.append(
            path.stat().st_size)
        SweepRunner(checkpoint=checkpoint).run(tasks)
        assert sizes == sorted(sizes)
        lines = path.read_bytes().splitlines(keepends=True)
        header, records = lines[0], lines[1:]
        assert len(records) == len(tasks)
        assert path.stat().st_size <= \
            len(header) + len(tasks) * max(map(len, records))

    def test_last_record_for_an_index_wins(self, tmp_path):
        path = tmp_path / "cp.json"
        tasks = _tasks()
        SweepRunner(checkpoint=SweepCheckpoint(path)).run(tasks)
        lines = path.read_bytes().splitlines(keepends=True)
        stale = json.loads(lines[1])
        stale["value"] = -1
        with open(path, "ab") as handle:
            handle.write(lines[1])  # a duplicate first, then the winner
            handle.write(json.dumps(stale).encode("utf-8") + b"\n")
        resumed = SweepRunner(
            checkpoint=SweepCheckpoint(path, resume=True)).run(tasks)
        assert resumed.values == [-1, 4, 9, 16]

    def test_mid_file_damage_starts_fresh(self, tmp_path, caplog):
        path = tmp_path / "cp.json"
        tasks = _tasks()
        SweepRunner(checkpoint=SweepCheckpoint(path)).run(tasks)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"broken\n'
        path.write_bytes(b"".join(lines))
        with caplog.at_level(logging.WARNING,
                             logger="repro.exec.checkpoint"):
            run = SweepRunner(
                checkpoint=SweepCheckpoint(path, resume=True)).run(tasks)
        assert run.summary["resumed_tasks"] == 0
        assert run.values == [1, 4, 9, 16]
        assert any("unreadable" in record.message
                   for record in caplog.records)
        assert sorted(read_checkpoint(path)) == [0, 1, 2, 3]

    def test_schema_1_checkpoint_starts_fresh(self, tmp_path, caplog):
        """A whole-document checkpoint of the old format is not resumed."""
        path = tmp_path / "cp.json"
        tasks = _tasks()
        reference = SweepRunner().run(tasks)
        atomic_write_json(path, {
            "schema_version": 1,
            "run_key": compute_run_key(tasks, _code_version()),
            "completed": {"0": {"key": tasks[0].key, "status": "done",
                                "value": 1, "wall_time_s": 0.0,
                                "events_processed": 1, "attempts": 1,
                                "worker_pid": 1}},
        })
        with caplog.at_level(logging.WARNING,
                             logger="repro.exec.checkpoint"):
            run = SweepRunner(
                checkpoint=SweepCheckpoint(path, resume=True)).run(tasks)
        assert run.summary["resumed_tasks"] == 0
        assert run.values == reference.values
        assert any("schema 1" in record.message
                   for record in caplog.records)
        header, records = RecordLog.read(path)
        assert header["schema_version"] == 2 and len(records) == 4


class TestPoisonedResume:
    def test_poisoned_status_survives_resume(self, tmp_path):
        task = SweepTask(
            experiment=KILLER,
            params={"counter_path": str(tmp_path / "kc"),
                    "kill_times": 99},
            index=0, seed=0, key="killer[0]",
        )
        path = tmp_path / "cp.json"
        first = SweepRunner(workers=2, poison_after=2,
                            checkpoint=SweepCheckpoint(path)).run([task])
        assert first.outcomes[0].status == "poisoned"
        resumed = SweepRunner(
            workers=2,
            checkpoint=SweepCheckpoint(path, resume=True)).run([task])
        # The quarantine verdict is replayed, not re-litigated (no
        # worker is sacrificed again).
        assert resumed.outcomes[0].status == "poisoned"
        assert resumed.outcomes[0].value is None
        assert resumed.summary["crashes"] == []


class TestCachedRerun:
    """A cache hit goes into the checkpoint as the text the cache holds."""

    def _run(self, tmp_path, name, hits):
        from repro.campaign import CampaignConfig
        from repro.campaign.engine import campaign_tasks
        from repro.exec import ResultCache

        config = CampaignConfig(target="pipeline", scheme="timber-ff",
                                num_faults=40, num_cycles=300,
                                faults_per_task=10, seed=3)
        path = tmp_path / name
        with SweepRunner(cache=ResultCache(tmp_path / "cache"),
                         checkpoint=SweepCheckpoint(path)) as runner:
            run = runner.run(campaign_tasks(config))
        assert run.summary["cache_hits"] == hits
        return path.read_bytes()

    def test_hits_are_recorded_without_re_encoding(self, tmp_path,
                                                   monkeypatch):
        from repro.exec import cache, checkpoint, runner
        from repro.exec.cache import ResultCache

        cold = self._run(tmp_path, "cold.json", hits=0)
        # The old path: the hit's text dropped, so the checkpoint
        # re-encodes the decoded value.
        get = ResultCache.get
        monkeypatch.setattr(
            ResultCache, "get",
            lambda self, key: (*get(self, key)[:2], None))
        re_encoded = self._run(tmp_path, "re-encoded.json", hits=4)
        monkeypatch.setattr(ResultCache, "get", get)

        calls = []
        encode_stored = cache.encode_stored

        def counting(value):
            calls.append(value)
            return encode_stored(value)

        for module in (cache, checkpoint, runner):
            monkeypatch.setattr(module, "encode_stored", counting,
                                raising=False)
        warm = self._run(tmp_path, "warm.json", hits=4)
        assert calls == []
        assert warm == re_encoded
        # Same values as the cold run's records, byte for byte.
        assert ([record["value"] for record in
                 RecordLog.read(tmp_path / "warm.json")[1]]
                == [record["value"] for record in
                    RecordLog.read(tmp_path / "cold.json")[1]])
        assert cold != warm  # hits carry no wall time or attempts
