"""Unit tests for the batched warm-worker dispatch layer."""

import dataclasses
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.exec import (
    DispatchSizer,
    ResultCache,
    SweepCheckpoint,
    SweepRunner,
    SweepTask,
    expand_grid,
    read_checkpoint,
)
from repro.exec.runner import execute_batch
from repro.exec.worker import WARM_CACHE_ENV, WarmCache

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

SQUARE = "repro.exec.testing:square_task"
SLEEP = "repro.exec.testing:sleep_task"
FLAKY = "repro.exec.testing:flaky_task"
KILLER = "repro.exec.testing:kill_worker_task"


def _square_tasks(values, root_seed=7):
    return expand_grid(SQUARE, {"x": values}, root_seed=root_seed)


def _sleep_tasks(seconds_list):
    return expand_grid(SLEEP, {"seconds": seconds_list}, root_seed=3)


class TestWarmCache:
    def test_hit_after_miss(self):
        cache = WarmCache(capacity=4)
        built = []

        def builder():
            built.append(1)
            return "artefact"

        assert cache.get_or_build("compiled", "k", builder) == "artefact"
        assert cache.get_or_build("compiled", "k", builder) == "artefact"
        assert built == [1]
        assert cache.counters() == {"compiled": [1, 1]}

    def test_lru_eviction(self):
        cache = WarmCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.get_or_build("k", key, lambda k=key: k)
        assert len(cache) == 2
        # "a" was evicted: looking it up again is a miss.
        cache.get_or_build("k", "a", lambda: "a")
        assert cache.counters()["k"] == [0, 4]

    def test_recently_used_survives_eviction(self):
        cache = WarmCache(capacity=2)
        cache.get_or_build("k", "a", lambda: "a")
        cache.get_or_build("k", "b", lambda: "b")
        cache.get_or_build("k", "a", lambda: "a")  # refresh "a"
        cache.get_or_build("k", "c", lambda: "c")  # evicts "b"
        hits_before = cache.counters()["k"][0]
        cache.get_or_build("k", "a", lambda: "a")
        assert cache.counters()["k"][0] == hits_before + 1

    def test_zero_capacity_disables_retention(self):
        cache = WarmCache(capacity=0)
        built = []
        for _ in range(3):
            cache.get_or_build("k", "a", lambda: built.append(1))
        assert len(built) == 3
        assert len(cache) == 0
        assert cache.counters() == {"k": [0, 3]}

    def test_stats_delta(self):
        cache = WarmCache(capacity=4)
        cache.get_or_build("k", "a", lambda: "a")
        before = cache.counters()
        cache.get_or_build("k", "a", lambda: "a")
        cache.get_or_build("other", "x", lambda: "x")
        assert cache.stats_delta(before) == {"k": [1, 0],
                                             "other": [0, 1]}
        # No activity -> empty delta, nothing to ship.
        assert cache.stats_delta(cache.counters()) == {}

    @staticmethod
    def _serial_sweep_warm(tmp_path, capacity) -> dict:
        """``warm_cache`` block of a ``--workers 1`` CLI sweep run with
        ``REPRO_WARM_CACHE_SIZE`` set to ``capacity`` (unset on None)."""
        env = dict(os.environ)
        env.pop(WARM_CACHE_ENV, None)
        if capacity is not None:
            env[WARM_CACHE_ENV] = str(capacity)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH"))))
        summary = tmp_path / f"summary-{capacity}.json"
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "shootout",
             "--cycles", "100", "--workers", "1", "--no-cache",
             "--summary", str(summary)],
            cwd=REPO_ROOT, env=env, check=True, capture_output=True)
        return json.loads(summary.read_text())["warm_cache"]

    def test_env_sizes_the_serial_parent(self, tmp_path):
        # Serial runs evaluate every task in the parent, so the
        # environment is what sizes its cache: 0 must leave no hits.
        default = self._serial_sweep_warm(tmp_path, None)
        assert sum(kind["hits"] for kind in default.values()) > 0
        disabled = self._serial_sweep_warm(tmp_path, 0)
        assert disabled.keys() == default.keys()
        assert all(kind["hits"] == 0 for kind in disabled.values())


class TestDispatchSizer:
    def test_initial_prior_is_modest(self):
        assert DispatchSizer(0.8, 64).size() == 8

    def test_adapts_to_observed_durations(self):
        sizer = DispatchSizer(1.0, 64)
        for _ in range(20):
            sizer.observe(0.05)
        assert sizer.size() == pytest.approx(20, abs=2)

    def test_capped_by_max_batch(self):
        sizer = DispatchSizer(10.0, 16)
        for _ in range(20):
            sizer.observe(1e-5)
        assert sizer.size() == 16

    def test_never_below_one(self):
        sizer = DispatchSizer(0.01, 64)
        for _ in range(20):
            sizer.observe(5.0)
        assert sizer.size() == 1

    def test_zero_target_disables_batching(self):
        sizer = DispatchSizer(0.0, 64)
        sizer.observe(0.01)
        assert sizer.size() == 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(batch_target_s=-1.0)
        with pytest.raises(ConfigurationError):
            SweepRunner(max_batch=0)


class TestExecuteBatch:
    def test_failures_do_not_sink_batch_mates(self, tmp_path):
        good = dataclasses.asdict(_square_tasks((3,))[0])
        bad = dataclasses.asdict(SweepTask(
            experiment=FLAKY,
            params={"counter_path": str(tmp_path / "c"),
                    "fail_times": 99},
            index=1, seed=0, key="flaky[1]",
        ))
        out = execute_batch([bad, good])
        assert out["worker_pid"] == os.getpid()
        assert out["results"][0]["ok"] is False
        assert "flaky" in out["results"][0]["error"]
        assert out["results"][1]["ok"] is True
        assert out["results"][1]["value"] == 9


class TestBatchedExecution:
    def test_batched_matches_serial(self):
        tasks = _square_tasks(tuple(range(12)))
        serial = SweepRunner().run_values(tasks)
        with SweepRunner(workers=2, batch_target_s=5.0) as runner:
            run = runner.run(tasks)
        assert run.values == serial
        assert run.summary["batches"] >= 1
        assert run.summary["batch_tasks"]["max"] > 1

    def test_per_task_dispatch_when_target_zero(self):
        tasks = _square_tasks(tuple(range(6)))
        with SweepRunner(workers=2, batch_target_s=0.0) as runner:
            run = runner.run(tasks)
        assert run.summary["batches"] == 6
        assert run.summary["batch_tasks"]["max"] == 1

    def test_pool_persists_across_runs(self):
        with SweepRunner(workers=2) as runner:
            runner.run(_square_tasks((1, 2, 3)))
            pool = runner._pool
            assert pool is not None
            run = runner.run(_square_tasks((4, 5, 6)))
            assert runner._pool is pool
        assert run.values == [16, 25, 36]
        assert runner._pool is None  # closed on exit

    def test_run_after_close_rebuilds_pool(self):
        runner = SweepRunner(workers=2)
        try:
            runner.run(_square_tasks((1,)))
            runner.close()
            assert runner.run_values(_square_tasks((2,))) == [4]
        finally:
            runner.close()

    def test_spawn_start_method_supported(self):
        # The dispatch layer must be spawn-safe: dotted-path task
        # resolution, initializer-carried warm-cache config.
        tasks = _square_tasks((2, 3, 4))
        with SweepRunner(workers=2, mp_start="spawn") as runner:
            assert runner.run_values(tasks) == [4, 9, 16]

    def test_retries_resubmitted_to_pool(self, tmp_path):
        # An ordinary pool-path failure retries on the pool, not via
        # the serial in-parent path.
        tasks = [
            SweepTask(
                experiment=FLAKY,
                params={"counter_path": str(tmp_path / f"c{i}"),
                        "fail_times": 1},
                index=i, seed=i, key=f"flaky[{i}]",
            )
            for i in range(3)
        ]
        with SweepRunner(workers=2) as runner:
            run = runner.run(tasks)
        assert [o.value for o in run.outcomes] == [2, 2, 2]
        assert all(o.attempts == 2 for o in run.outcomes)
        assert all(o.worker_pid != os.getpid() for o in run.outcomes)

    def test_retries_exhausted_still_raises(self, tmp_path):
        task = SweepTask(
            experiment=FLAKY,
            params={"counter_path": str(tmp_path / "c"),
                    "fail_times": 10},
            index=0, seed=0, key="flaky[0]",
        )
        with SweepRunner(workers=2) as runner:
            with pytest.raises(ExecutionError, match="flaky"):
                runner.run([task])


class TestTimeoutSemantics:
    def test_queue_wait_not_charged(self):
        # Regression: 8 x 0.25s tasks on 2 workers take ~1s of queue
        # time; with a 1.2s per-attempt budget none may time out even
        # though the last task finishes well past 1.2s of wall time.
        # (The old future.result(timeout=...) accounting charged queue
        # wait and spuriously killed the tail of exactly this sweep.)
        tasks = _sleep_tasks((0.25,) * 8)
        with SweepRunner(workers=2, task_timeout_s=1.2,
                         batch_target_s=0.0, retries=0) as runner:
            run = runner.run(tasks)
        assert run.values == [0.25] * 8
        assert run.summary["retries"] == []

    def test_deadline_scales_with_batch_size(self):
        # A batch of n tasks gets n per-task budgets.
        tasks = _sleep_tasks((0.15,) * 6)
        with SweepRunner(workers=2, task_timeout_s=0.4,
                         batch_target_s=10.0, retries=0) as runner:
            run = runner.run(tasks)
        assert run.values == [0.15] * 6
        assert run.summary["retries"] == []

    def test_overlong_task_times_out(self):
        tasks = _sleep_tasks((5.0,))
        with SweepRunner(workers=2, task_timeout_s=0.2,
                         retries=0) as runner:
            with pytest.raises(ExecutionError, match="no result within"):
                runner.run(tasks)


class TestBatchBoundaries:
    def test_checkpoint_resumes_exactly_completed_prefix(self, tmp_path):
        # A task fails mid-sweep with retries exhausted; everything
        # recorded before the failure must be in the checkpoint, and a
        # resume replays exactly that set without re-executing it.
        counter = tmp_path / "flaky-count"
        tasks = list(_square_tasks(tuple(range(8))))
        tasks.append(SweepTask(
            experiment=FLAKY,
            params={"counter_path": str(counter), "fail_times": 1},
            index=8, seed=99, key="flaky[8]",
        ))
        path = tmp_path / "ckpt.json"
        with SweepRunner(workers=2, retries=0, batch_target_s=5.0,
                         checkpoint=SweepCheckpoint(path, every=1),
                         ) as runner:
            with pytest.raises(ExecutionError):
                runner.run(tasks)
        completed = set(read_checkpoint(path))
        assert completed  # the failure didn't wipe finished work
        assert 8 not in completed
        with SweepRunner(workers=2, retries=0, batch_target_s=5.0,
                         checkpoint=SweepCheckpoint(path, every=1,
                                                    resume=True),
                         ) as runner:
            run = runner.run(tasks)
        by_index = {o.task.index: o for o in run.outcomes}
        assert {i for i, o in by_index.items()
                if o.resumed} == completed
        assert [by_index[i].value for i in range(8)] == \
            [i ** 2 for i in range(8)]
        assert by_index[8].value == 2  # flaky passed on its 2nd attempt
        assert run.summary["resumed_tasks"] == len(completed)

    def test_quarantine_attributes_poison_within_batch(self, tmp_path):
        # The killer shares a batch with innocent tasks: only the
        # killer is poisoned, every batch-mate completes with a value.
        tasks = [SweepTask(
            experiment=KILLER,
            params={"counter_path": str(tmp_path / "kc"),
                    "kill_times": 99},
            index=0, seed=100, key="killer[0]",
        )]
        for i, x in enumerate((2, 3, 4, 5, 6), start=1):
            tasks.append(dataclasses.replace(
                _square_tasks((x,))[0], index=i))
        with SweepRunner(workers=2, poison_after=2,
                         batch_target_s=5.0) as runner:
            run = runner.run(tasks)
        assert run.outcomes[0].status == "poisoned"
        assert run.summary["poisoned"] == ["killer[0]"]
        assert len(run.summary["crashes"]) == 2
        assert [o.status for o in run.outcomes[1:]] == ["done"] * 5
        assert run.values[1:] == [4, 9, 16, 25, 36]

    def test_cache_hits_do_not_skew_sizer(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = _square_tasks(tuple(range(6)))
        with SweepRunner(workers=2, cache=cache) as runner:
            runner.run(tasks)
            ema_after_cold = runner._sizer.observed_task_s
            warm = runner.run(tasks)
            # All hits: nothing executed, so the duration estimate (and
            # hence the next batch size) must be untouched.
            assert warm.summary["cache_hits"] == 6
            assert runner._sizer.observed_task_s == ema_after_cold
            assert warm.summary["batches"] == 0

    def test_sizer_survives_across_phases(self):
        # The campaign CLI reuses one runner across scheme phases; the
        # second phase must start from the durations the first observed
        # rather than from the prior.
        with SweepRunner(workers=2) as runner:
            prior = runner._sizer.observed_task_s
            sizer = runner._sizer
            runner.run(_square_tasks(tuple(range(4))))
            assert runner._sizer is sizer
            assert runner._sizer.observed_task_s != prior
            runner.run(_square_tasks(tuple(range(4, 8))))
            assert runner._sizer is sizer


class TestTelemetryAggregation:
    def test_warm_stats_aggregate_in_summary(self):
        with SweepRunner(workers=2, batch_target_s=5.0) as runner:
            run = runner.run(_square_tasks(tuple(range(10))))
        warm = run.summary["warm_cache"]
        # One lookup per task.  Under a fork start the workers may be
        # born with the parent's resolutions already warm (all hits);
        # under spawn the first lookup per worker is a miss.
        total = warm["task-func"]["hits"] + warm["task-func"]["misses"]
        assert total == 10
        assert warm["task-func"]["hits"] >= 1


BATCHED = "repro.exec.testing:batched_square_task"


def _cache_entries(directory) -> dict:
    """Pack records by key, minus their (timing) ``wall_time_s`` meta
    and the record checksum that covers it."""
    entries = {}
    for path in sorted(directory.glob("pack-*.jsonl")):
        for line in path.read_bytes().splitlines():
            entry = json.loads(line)
            entry["meta"].pop("wall_time_s")
            entry.pop("checksum")
            entries[entry["key"]] = entry
    return entries


class TestGroupExecution:
    """Batch-form tasks: one call per dispatch batch, per-task records."""

    def _campaign_run(self, tmp_path, name, monkeypatch, **runner_kw):
        from repro.campaign import CampaignConfig
        from repro.campaign.engine import campaign_chunk_task, campaign_tasks

        calls = []
        batch = campaign_chunk_task.batch

        def counting(params_list):
            calls.append(len(params_list))
            return batch(params_list)

        monkeypatch.setattr(campaign_chunk_task, "batch", counting)
        config = CampaignConfig(num_faults=120, num_cycles=400, seed=5,
                                faults_per_task=10)
        cache = ResultCache(tmp_path / name)
        checkpoint = SweepCheckpoint(tmp_path / f"{name}.json")
        run = SweepRunner(cache=cache, checkpoint=checkpoint,
                          **runner_kw).run(campaign_tasks(config))
        records = read_checkpoint(tmp_path / f"{name}.json")
        for record in records.values():
            record.pop("wall_time_s")
        return run, records, _cache_entries(tmp_path / name), calls

    def test_serial_grouping_is_invisible(self, tmp_path, monkeypatch):
        grouped, grouped_cp, grouped_cache, calls = self._campaign_run(
            tmp_path, "grouped", monkeypatch)
        single, single_cp, single_cache, single_calls = (
            self._campaign_run(tmp_path, "single", monkeypatch,
                               batch_target_s=0.0))
        assert calls and max(calls) > 1
        assert single_calls == []
        assert grouped.values == single.values
        assert ([o.events_processed for o in grouped.outcomes]
                == [o.events_processed for o in single.outcomes])
        assert grouped_cp == single_cp and len(grouped_cp) == 12
        assert grouped_cache == single_cache and len(grouped_cache) == 12

    def test_group_wall_time_is_amortized(self):
        tasks = expand_grid(BATCHED, {"x": tuple(range(8))}, root_seed=1)
        run = SweepRunner(batch_target_s=5.0).run(tasks)
        assert run.values == [x * x for x in range(8)]
        assert [o.events_processed for o in run.outcomes] == list(range(8))
        # The sizer's prior groups all eight: one call, equal shares.
        assert len({o.wall_time_s for o in run.outcomes}) == 1
        assert run.summary["warm_cache"]["task-func"]["hits"] + \
            run.summary["warm_cache"]["task-func"]["misses"] == 8

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_batch_retries_the_guilty_task(self, tmp_path,
                                                   workers):
        tasks = expand_grid(BATCHED, {"x": tuple(range(6))}, root_seed=2)
        # Task 3 fails twice: once inside the batch call (which sinks
        # the call), once when its group reruns task by task.  Only
        # task 3 is charged, and its retry succeeds.
        guilty = dataclasses.replace(tasks[3], params={
            **tasks[3].params, "counter_path": str(tmp_path / "count"),
            "fail_times": 2})
        tasks[3] = guilty
        with SweepRunner(workers=workers, retries=1,
                         batch_target_s=5.0) as runner:
            run = runner.run(tasks)
        assert run.values == [x * x for x in range(6)]
        assert [r["key"] for r in run.summary["retries"]] == [guilty.key]
        assert [o.attempts for o in run.outcomes] == [1, 1, 1, 2, 1, 1]

    def test_failing_batch_exhausts_retries_on_its_own_key(self, tmp_path):
        tasks = expand_grid(BATCHED, {"x": tuple(range(4))}, root_seed=2)
        tasks[1] = dataclasses.replace(tasks[1], params={
            **tasks[1].params, "counter_path": str(tmp_path / "count"),
            "fail_times": 99})
        with pytest.raises(ExecutionError, match=re.escape(tasks[1].key)):
            SweepRunner(retries=1, batch_target_s=5.0).run(tasks)
