"""Unit tests for the parallel sweep runner."""

import dataclasses
import signal

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.exec import (
    ResultCache,
    SweepRunner,
    SweepTask,
    derive_seed,
    expand_grid,
)

ECHO = "repro.exec.testing:echo_task"
SQUARE = "repro.exec.testing:square_task"
FLAKY = "repro.exec.testing:flaky_task"
KILLER = "repro.exec.testing:kill_worker_task"


def _square_tasks(values, root_seed=7):
    return expand_grid(SQUARE, {"x": values}, root_seed=root_seed)


class TestDeriveSeed:
    def test_stable_across_interpreters(self):
        # SHA-256 over canonical JSON: these constants must never move
        # (a salted hash() would change them every process).
        assert derive_seed(0, "exp") == 5304603747316118249
        assert derive_seed(
            11, "repro.analysis.experiments:pipeline_point_task",
            [("droop_amplitude", 0.04), ("technique", "razor")],
        ) == 6655405220344259627

    def test_sensitive_to_every_part(self):
        base = derive_seed(1, "exp", "a")
        assert derive_seed(2, "exp", "a") != base
        assert derive_seed(1, "other", "a") != base
        assert derive_seed(1, "exp", "b") != base

    def test_non_negative_63_bit(self):
        for seed in range(20):
            value = derive_seed(seed, "exp")
            assert 0 <= value < 2 ** 63


class TestExpandGrid:
    def test_nested_loop_order(self):
        tasks = expand_grid(ECHO, {"a": (1, 2), "b": ("x", "y")})
        points = [(t.params["a"], t.params["b"]) for t in tasks]
        assert points == [(1, "x"), (1, "y"), (2, "x"), (2, "y")]
        assert [t.index for t in tasks] == [0, 1, 2, 3]

    def test_base_params_merged(self):
        tasks = expand_grid(ECHO, {"a": (1,)}, {"shared": 5})
        assert tasks[0].params == {"shared": 5, "a": 1}

    def test_seed_independent_of_other_grid_points(self):
        # Shrinking an axis must not reseed the surviving points.
        wide = expand_grid(ECHO, {"a": (1, 2, 3)}, root_seed=9)
        narrow = expand_grid(ECHO, {"a": (2,)}, root_seed=9)
        by_a = {t.params["a"]: t.seed for t in wide}
        assert narrow[0].seed == by_a[2]

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid(ECHO, {})


class TestSerialExecution:
    def test_results_in_task_order(self):
        runner = SweepRunner()
        values = runner.run_values(_square_tasks((3, 1, 2)))
        assert values == [9, 1, 4]

    def test_events_and_timings_recorded(self):
        runner = SweepRunner()
        run = runner.run(_square_tasks((2, 5)))
        assert run.summary["events_processed"] == 2
        assert run.summary["cache_misses"] == 2
        assert all(o.wall_time_s >= 0 for o in run.outcomes)

    def test_retry_once_then_succeed(self, tmp_path):
        task = SweepTask(
            experiment=FLAKY,
            params={"counter_path": str(tmp_path / "count"),
                    "fail_times": 1},
            index=0, seed=0, key="flaky[0]",
        )
        runner = SweepRunner()
        run = runner.run([task])
        assert run.outcomes[0].value == 2
        assert run.outcomes[0].attempts == 2
        assert len(run.summary["retries"]) == 1

    def test_persistent_failure_raises(self, tmp_path):
        task = SweepTask(
            experiment=FLAKY,
            params={"counter_path": str(tmp_path / "count"),
                    "fail_times": 10},
            index=0, seed=0, key="flaky[0]",
        )
        with pytest.raises(ExecutionError, match="flaky"):
            SweepRunner().run([task])

    def test_bad_experiment_path_rejected(self):
        task = SweepTask(experiment="not-a-dotted-path", params={},
                         index=0, seed=0, key="bad")
        with pytest.raises(ExecutionError):
            SweepRunner().run([task])

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(workers=0)


class TestParallelExecution:
    def test_parallel_matches_serial(self):
        tasks = _square_tasks(tuple(range(8)))
        serial = SweepRunner().run_values(tasks)
        parallel = SweepRunner(workers=3).run_values(tasks)
        assert parallel == serial

    def test_pool_retry_after_worker_failure(self, tmp_path):
        # First (pool) attempt fails; the retry, resubmitted to the
        # pool, wins.
        tasks = [
            SweepTask(
                experiment=FLAKY,
                params={"counter_path": str(tmp_path / f"count{i}"),
                        "fail_times": 1},
                index=i, seed=i, key=f"flaky[{i}]",
            )
            for i in range(2)
        ]
        run = SweepRunner(workers=2).run(tasks)
        assert [o.value for o in run.outcomes] == [2, 2]
        assert all(o.attempts == 2 for o in run.outcomes)

    def test_cache_hits_skip_execution(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = _square_tasks((4, 6))
        cold = SweepRunner(workers=2, cache=cache).run(tasks)
        warm_runner = SweepRunner(workers=2, cache=cache)
        warm = warm_runner.run(tasks)
        assert warm.values == cold.values
        assert warm.summary["cache_hits"] == 2
        assert warm.summary["cache_misses"] == 0
        assert all(o.cached for o in warm.outcomes)


class TestSweepDeterminism:
    """The acceptance bar: parallel == serial for the real sweeps."""

    def test_resilience_sweep_parallel_equals_serial(self):
        from repro.analysis.experiments import resilience_sweep

        kwargs = dict(techniques=("plain", "timber-ff"),
                      droop_amplitudes=(0.0, 0.08), num_cycles=1000)
        serial = resilience_sweep(**kwargs)
        parallel = resilience_sweep(**kwargs,
                                    runner=SweepRunner(workers=2))
        assert serial == parallel
        # Byte-identical, not merely equal: the structured encodings of
        # every result must match exactly.
        from repro.exec.cache import encode_result
        import json

        assert json.dumps(encode_result(serial), sort_keys=True) == \
            json.dumps(encode_result(parallel), sort_keys=True)

    def test_throughput_sweep_parallel_equals_serial(self):
        from repro.analysis.experiments import throughput_sweep

        kwargs = dict(techniques=("timber-ff", "canary"),
                      overclock_percents=(0.0, 8.0), num_cycles=1000)
        assert throughput_sweep(**kwargs) == throughput_sweep(
            **kwargs, runner=SweepRunner(workers=2))


class TestBackoff:
    def test_disabled_by_default(self):
        runner = SweepRunner()
        task = _square_tasks((1,))[0]
        assert runner._backoff_delay_s(task, 1) == 0.0
        assert runner._backoff_delay_s(task, 5) == 0.0

    def test_exponential_growth(self):
        runner = SweepRunner(backoff_base_s=0.1, backoff_jitter=0.0)
        task = _square_tasks((1,))[0]
        delays = [runner._backoff_delay_s(task, a) for a in (1, 2, 3)]
        assert delays == [pytest.approx(0.1), pytest.approx(0.2),
                          pytest.approx(0.4)]

    def test_jitter_is_seeded_and_bounded(self):
        runner = SweepRunner(backoff_base_s=1.0, backoff_jitter=0.25)
        task = _square_tasks((1,))[0]
        first = runner._backoff_delay_s(task, 1)
        # Deterministic: same task + attempt -> same delay, always.
        assert runner._backoff_delay_s(task, 1) == first
        assert 0.75 <= first <= 1.25
        # Different attempts and different task seeds de-synchronise.
        assert runner._backoff_delay_s(task, 2) != 2.0 * first
        other = _square_tasks((1,), root_seed=8)[0]
        assert runner._backoff_delay_s(other, 1) != first

    def test_backoff_surfaced_in_telemetry(self, tmp_path):
        task = SweepTask(
            experiment=FLAKY,
            params={"counter_path": str(tmp_path / "count"),
                    "fail_times": 1},
            index=0, seed=0, key="flaky[0]",
        )
        runner = SweepRunner(backoff_base_s=0.01, backoff_jitter=0.0)
        run = runner.run([task])
        assert run.summary["retries"][0]["backoff_s"] == \
            pytest.approx(0.01)
        assert run.summary["backoff_s_total"] == pytest.approx(0.01)

    def test_invalid_backoff_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(backoff_base_s=-1.0)
        with pytest.raises(ConfigurationError):
            SweepRunner(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            SweepRunner(backoff_jitter=2.0)


class TestCrashQuarantine:
    def _killer(self, tmp_path, kill_times, index=0):
        return SweepTask(
            experiment=KILLER,
            params={"counter_path": str(tmp_path / f"kc{index}"),
                    "kill_times": kill_times},
            index=index, seed=100 + index, key=f"killer[{index}]",
        )

    def test_single_crash_recovers_in_isolation(self, tmp_path):
        # One worker death, then the task completes on the isolated
        # retry — the sweep finishes with a real value.
        tasks = [self._killer(tmp_path, kill_times=1),
                 _square_tasks((3,))[0]]
        tasks[1] = dataclasses.replace(tasks[1], index=1)
        run = SweepRunner(workers=2).run(tasks)
        assert run.outcomes[0].status == "done"
        assert run.outcomes[0].value == 2  # succeeded on attempt 2
        assert run.outcomes[1].value == 9

    def test_persistent_crasher_poisoned_not_fatal(self, tmp_path):
        tasks = [self._killer(tmp_path, kill_times=99),
                 _square_tasks((3,))[0]]
        tasks[1] = dataclasses.replace(tasks[1], index=1)
        run = SweepRunner(workers=2, poison_after=2).run(tasks)
        poisoned = run.outcomes[0]
        assert poisoned.status == "poisoned"
        assert poisoned.value is None
        assert run.summary["poisoned"] == ["killer[0]"]
        assert len(run.summary["crashes"]) == 2
        # Innocent bystanders still complete.
        assert run.outcomes[1].value == 9

    def test_innocent_neighbor_not_poisoned(self, tmp_path):
        # Several clean tasks share the pool with the crasher; all of
        # them must come back with values, not poison.
        tasks = [self._killer(tmp_path, kill_times=99)]
        for i, x in enumerate((2, 3, 4), start=1):
            tasks.append(dataclasses.replace(
                _square_tasks((x,))[0], index=i))
        run = SweepRunner(workers=2, poison_after=2).run(tasks)
        assert [o.status for o in run.outcomes] == \
            ["poisoned", "done", "done", "done"]
        assert run.values[1:] == [4, 9, 16]

    def test_poisoned_outcome_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = self._killer(tmp_path, kill_times=99)
        SweepRunner(workers=2, cache=cache, poison_after=2).run([task])
        assert cache.get_task(task) == (False, None, None)

    def test_invalid_poison_after_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(poison_after=0)

    def test_workers_take_the_default_sigterm_action(self):
        # A fork worker must not keep its parent's flag-setting handler:
        # a broken pool's terminate() has to end a worker stuck on a
        # queue lock that a killed sibling held.
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: None)
        try:
            with SweepRunner(workers=2)._new_pool(1) as pool:
                handler = pool.submit(signal.getsignal,
                                      signal.SIGTERM).result(timeout=60)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert handler == signal.SIG_DFL


class TestTaskSpec:
    def test_resolve_requires_module_colon_function(self):
        task = SweepTask(experiment="repro.exec.testing", params={},
                         index=0, seed=0, key="k")
        with pytest.raises(ConfigurationError):
            task.resolve()

    def test_resolve_unknown_function(self):
        task = SweepTask(experiment="repro.exec.testing:nope", params={},
                         index=0, seed=0, key="k")
        with pytest.raises(ConfigurationError):
            task.resolve()

    def test_tasks_are_plain_data(self):
        task = _square_tasks((1,))[0]
        payload = dataclasses.asdict(task)
        assert payload["experiment"] == SQUARE
        assert SweepTask(**payload) == task
