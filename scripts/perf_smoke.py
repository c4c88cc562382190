#!/usr/bin/env python
"""Perf smoke test: scalar vs vectorized kernels on one small sweep.

Runs the same (small) resilience sweep in one process — once with
``REPRO_SCALAR_KERNELS=1``, once on the default vectorized kernels, and
once vectorized with observability enabled — asserts all three produce
field-for-field identical results, and records the timings to
``BENCH_perf_smoke.json`` and ``BENCH_obs_overhead.json`` (schema v1,
DESIGN.md).  A dispatch-overhead gate then pits batched against
per-task dispatch on a many-tiny-tasks sweep (batched must be >= 3x
tasks/s), checks the warm compile cache actually hits on a real
pipeline sweep, and records both runs to ``BENCH_dispatch.json``.
A Fig. 8 relay gate then times the pre-index scan-per-endpoint relay
analysis against the memoized criticality index on a reduced grid
(must be >= 20x, with a warm-cache hit on a second graph instance)
and merges the result into ``BENCH_fig8_relay.json``.  A campaign
fork gate finally pits snapshot-forked fault evaluation against the
full-run reference on an X12-scale graph campaign (byte-identical
outcomes required, forked must be >= 5x faults/s, scalar baseline
recorded) and merges the result into ``BENCH_x12_campaign_perf.json``,
followed by a batch gate that requires fault-lane batched evaluation
(the default path) to beat per-fault forking by >= 3x faults/s on the
same campaign, again byte-identical and warm-cache-served.  Both
campaign gates warm the trajectory cache first, repeat each timed arm
until it covers ``GATE_ARM_MIN_S`` of wall time, and compare the arms'
median passes; every sample and the quartiles land in the payload.
A soak gate interleaves five 2-second bounded soaks with warm batched
campaign arms on the same config (the median streamed rate must hold
>= 0.8x of the median batch pass rate) and runs an adaptive-vs-uniform
arm on a fixed round budget (adaptive must end with a strictly
narrower widest CI, with compatible overall estimates), writing
``BENCH_soak.json``.  An event-stream gate finally re-times the sweep
with a live ``EventPublisher`` spooling to disk, alternating bare and
streamed arms of ``MONITOR_SWEEPS_PER_ARM`` sweeps each (the median
per-pair overhead must stay < 2% of sweep wall time), writing
``BENCH_monitor.json``.  Every timed gate records each sample and the
quartiles of its arms.  CI runs this on every push; it is also a
convenient local sanity check:

    PYTHONPATH=src python scripts/perf_smoke.py

The observability checks guard the "free when off" contract two ways:
a structural microbenchmark pins the disabled ``Counter.inc`` no-op
path to well under a microsecond per call, and the disabled-vs-enabled
sweep timings are gated at a generous bound that absorbs CI timer
noise (the committed BENCH artefact records the exact numbers; the
PR-3 baseline itself is machine-dependent, so it is not re-measured
here — the disabled run *is* the baseline configuration).
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import pathlib
import statistics
import sys
import time
import typing

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

TECHNIQUES = ("plain", "timber-ff", "timber-latch", "razor", "canary")
AMPLITUDES = (0.0, 0.08)
NUM_CYCLES = 4_000

#: Allowed enabled-vs-disabled overhead on the sweep.  The ISSUE target
#: is <5% for the *disabled* path vs the pre-obs baseline — which the
#: microbench pins structurally; this end-to-end gate bounds the
#: *enabled* path loosely enough to survive shared-runner timer noise.
OBS_OVERHEAD_LIMIT_PERCENT = 25.0
#: Disabled ``Counter.inc`` budget per call (structural no-op check).
NOOP_BUDGET_US = 1.0
NOOP_CALLS = 200_000

#: Dispatch-overhead gate: many tiny tasks, where the process-pool
#: round-trip dominates the work itself.  Batched dispatch must beat
#: one-future-per-task dispatch by at least this factor in tasks/s.
DISPATCH_TASKS = 600
DISPATCH_WORKERS = 2
DISPATCH_SPEEDUP_FLOOR = 3.0

#: Fig. 8 relay-analysis gate: criticality queries through the memoized
#: index must beat the pre-index scan-per-endpoint pattern by at least
#: this factor on a reduced grid (one performance point, two checking
#: percents), and the second graph instance must hit the warm cache.
FIG8_PERCENTS = (10.0, 20.0)
FIG8_SPEEDUP_FLOOR = 20.0

#: Campaign fork gate: snapshot-forked evaluation must beat the
#: full-run reference (every fault re-simulated from cycle 0) by at
#: least this factor at X12 scale, with byte-identical outcomes.  The
#: measured advantage is ~10x at 4000 cycles; the floor absorbs CI
#: noise.  The scalar baseline is recorded (on a subset — it is two
#: orders of magnitude slower) but not gated.
CAMPAIGN_CYCLES = 4_000
CAMPAIGN_FAULTS = 200
CAMPAIGN_SCALAR_FAULTS = 20
CAMPAIGN_SPEEDUP_FLOOR = 5.0

#: Both campaign gates repeat each timed arm until its passes add up
#: to at least this much wall time (and at least ``GATE_MIN_PASSES``
#: passes), then gate on the arms' median pass: one pass of 200 faults
#: is a few milliseconds, far inside timer and scheduler noise.
GATE_ARM_MIN_S = 0.5
GATE_MIN_PASSES = 3

#: Batch gate: fault-lane batched evaluation (the default) must beat
#: the per-fault forked evaluator by at least this factor on the same
#: X12-scale campaign, with byte-identical outcomes and the second
#: runner served from the warm trajectory cache.
BATCH_SPEEDUP_FLOOR = 3.0

#: Soak gate: 10 seconds of bounded soak, split into ``SOAK_PASSES``
#: passes interleaved with warm batched-campaign arms, must sustain at
#: least this fraction of the batched campaign's faults/s on the same
#: config (the round loop, ring, estimator, and group-committed journal
#: are the only additions), medians against medians.  On a fixed round
#: budget the adaptive sampler must leave a strictly narrower widest CI
#: than uniform sampling while the two overall estimates stay
#: statistically compatible (the uniform-stratum combination is
#: unbiased under any allocation).
SOAK_CYCLES = 2_000
SOAK_BATCH_FAULTS = 400
SOAK_RUNTIME_S = 10.0
SOAK_PASSES = 5
SOAK_THROUGHPUT_FLOOR = 0.8
SOAK_CI_CYCLES = 800
SOAK_CI_ROUNDS = 20
SOAK_CI_FAULTS_PER_ROUND = 100

#: Event-stream overhead gate: the same sweep with and without a live
#: ``EventPublisher`` spooling to disk, in ``MONITOR_MIN_PAIRS`` pairs of
#: arms of ``MONITOR_SWEEPS_PER_ARM`` sweeps each (one runner per arm,
#: the streamed arm with one publisher for all of its sweeps).  The two
#: arms take turns sweep by sweep, alternating which goes first, and the
#: median overhead of a streamed sweep over the bare sweep next to it,
#: over every turn, must stay under this percent of sweep wall time.
#: One sweep takes ~0.06 s, so 2% of it is about a millisecond: whole
#: arms timed one after the other drifted apart by more than that on a
#: shared host, and a dozen pairs of single sweeps did not resolve it.
MONITOR_MIN_PAIRS = 9
MONITOR_SWEEPS_PER_ARM = 12
MONITOR_OVERHEAD_LIMIT_PERCENT = 2.0


def _run_sweep():
    from repro.analysis.experiments import resilience_sweep
    from repro.exec.runner import SweepRunner

    # Serial and uncached so both modes execute in this process and
    # measure pure kernel time.
    runner = SweepRunner(workers=1, cache=None)
    return resilience_sweep(
        techniques=TECHNIQUES,
        droop_amplitudes=AMPLITUDES,
        num_cycles=NUM_CYCLES,
        runner=runner,
    )


def _measure(mode: str, *, observability: bool = False):
    from repro import obs
    from repro.kernels import SCALAR_ENV, kernel_mode

    if mode == "scalar":
        os.environ[SCALAR_ENV] = "1"
    else:
        os.environ.pop(SCALAR_ENV, None)
    active = kernel_mode()
    if active != mode:
        raise SystemExit(
            f"kernel mode is {active!r}, wanted {mode!r} "
            "(is numpy importable?)")
    obs.reset()
    if observability:
        obs.enable()
    else:
        obs.disable()
    start = time.perf_counter()
    points = _run_sweep()
    wall = time.perf_counter() - start
    obs.disable()
    obs.reset()
    return points, wall


def _noop_inc_microbench() -> float:
    """Average disabled ``Counter.inc`` cost, in microseconds."""
    from repro.obs.registry import MetricsRegistry

    counter = MetricsRegistry().counter("bench_noop_total").labels()
    start = time.perf_counter()
    for _ in range(NOOP_CALLS):
        counter.inc()
    wall = time.perf_counter() - start
    if counter.value != 0:
        raise SystemExit("disabled counter accumulated — no-op broken")
    return wall / NOOP_CALLS * 1e6


def _dispatch_bench(now: str) -> tuple[dict | None, str | None]:
    """Tiny-task microbench: per-task vs batched dispatch on one pool.

    Returns ``(bench_payload, failure_message)``; the payload records
    both runs so ``BENCH_dispatch.json`` keeps the before/after
    trajectory even on a failing gate.
    """
    from repro.exec import SweepRunner, expand_grid

    tasks = expand_grid("repro.exec.testing:square_task",
                        {"x": tuple(range(DISPATCH_TASKS))},
                        root_seed=5)
    expected = [x * x for x in range(DISPATCH_TASKS)]
    runs = []
    walls = {}
    for label, target_s in (("per_task", 0.0), ("batched", 0.25)):
        with SweepRunner(workers=DISPATCH_WORKERS, cache=None,
                         batch_target_s=target_s) as runner:
            runner.run(tasks[:DISPATCH_WORKERS * 4])  # warm the pool
            start = time.perf_counter()
            run = runner.run(tasks)
            wall = time.perf_counter() - start
        if run.values != expected:
            return None, f"dispatch bench ({label}) computed wrong values"
        walls[label] = wall
        summary = run.summary
        runs.append({
            "dispatch": label,
            "recorded_at": now,
            "wall_time_s": round(wall, 4),
            "tasks": DISPATCH_TASKS,
            "tasks_per_second": round(DISPATCH_TASKS / wall, 1),
            "workers": DISPATCH_WORKERS,
            "batches": summary["batches"],
            "mean_batch_tasks": round(
                summary["batch_tasks"]["mean"], 2),
        })
    speedup = (walls["per_task"] / walls["batched"]
               if walls["batched"] > 0 else float("inf"))

    # Warm compile-cache check: a real (pipeline) sweep through the
    # same dispatch layer must reuse compiled stage arrays across
    # tasks and batches inside the workers.
    from repro.analysis.experiments import resilience_sweep

    with SweepRunner(workers=DISPATCH_WORKERS, cache=None) as runner:
        resilience_sweep(
            techniques=("plain", "timber-ff"),
            droop_amplitudes=(0.0, 0.04, 0.08), num_cycles=500,
            runner=runner)
        assert runner.last_run is not None
        warm = runner.last_run.summary["warm_cache"]

    payload = {
        "bench": "dispatch",
        "schema_version": 1,
        "speedup": round(speedup, 2),
        "speedup_floor": DISPATCH_SPEEDUP_FLOOR,
        "warm_cache": warm,
        "runs": runs,
    }
    if speedup < DISPATCH_SPEEDUP_FLOOR:
        return payload, (
            f"batched dispatch only {speedup:.2f}x faster than "
            f"per-task dispatch (floor {DISPATCH_SPEEDUP_FLOOR:.0f}x; "
            f"per-task {walls['per_task']:.3f}s, "
            f"batched {walls['batched']:.3f}s)")
    compiled = warm.get("compiled", {"hits": 0})
    if compiled["hits"] <= 0:
        return payload, (
            "warm compile cache recorded no hits on the pipeline "
            f"sweep (warm stats: {warm})")
    return payload, None


def _fig8_relay_bench(now: str) -> tuple[dict | None, str | None]:
    """Criticality-index gate on a reduced Fig. 8 grid.

    Times the pre-index relay analysis (``naive_relay_inputs``, one
    full through-set recomputation per endpoint — the pattern behind
    the recorded 142 s scalar baseline) against ``relay_cost`` through
    the memoized index, on the medium performance point at two checking
    percents.  A second, content-identical graph instance must be
    served from the warm cache.  Returns ``(gate_payload,
    failure_message)``; the payload is merged into
    ``BENCH_fig8_relay.json`` alongside the full-grid trajectory.
    """
    from repro.core.relay import relay_cost
    from repro.exec.worker import WARM
    from repro.processor.generator import generate_processor
    from repro.processor.perfpoints import MEDIUM_PERFORMANCE
    from repro.timing.criticality import naive_relay_inputs

    graphs = [generate_processor(MEDIUM_PERFORMANCE, seed=2010)
              for _ in range(2)]

    start = time.perf_counter()
    naive = {percent: naive_relay_inputs(graphs[0], percent)
             for percent in FIG8_PERCENTS}
    naive_wall = time.perf_counter() - start

    before = WARM.counters()
    start = time.perf_counter()
    cold = {percent: relay_cost(graphs[0], percent)
            for percent in FIG8_PERCENTS}
    cold_wall = time.perf_counter() - start
    start = time.perf_counter()
    warm = {percent: relay_cost(graphs[1], percent)
            for percent in FIG8_PERCENTS}
    warm_wall = time.perf_counter() - start
    delta = WARM.stats_delta(before)

    for percent in FIG8_PERCENTS:
        fanins = naive[percent]
        for cost in (cold[percent], warm[percent]):
            if (cost.num_protected_ffs != len(fanins)
                    or cost.num_relayed_inputs != sum(fanins.values())):
                return None, (
                    f"indexed relay_cost diverged from the naive scan "
                    f"at {percent}% checking")

    speedup = naive_wall / cold_wall if cold_wall > 0 else float("inf")
    payload = {
        "recorded_at": now,
        "point": MEDIUM_PERFORMANCE.name,
        "checking_percents": list(FIG8_PERCENTS),
        "edges": graphs[0].num_edges,
        "naive_wall_s": round(naive_wall, 4),
        "indexed_wall_s": round(cold_wall, 4),
        "indexed_warm_wall_s": round(warm_wall, 6),
        "speedup": round(speedup, 1),
        "speedup_floor": FIG8_SPEEDUP_FLOOR,
        "warm_cache": delta,
    }
    if speedup < FIG8_SPEEDUP_FLOOR:
        return payload, (
            f"criticality index only {speedup:.1f}x faster than the "
            f"naive relay scan (floor {FIG8_SPEEDUP_FLOOR:.0f}x; naive "
            f"{naive_wall:.3f}s, indexed {cold_wall:.3f}s)")
    hits = delta.get("criticality", [0, 0])[0]
    if hits < 1:
        return payload, (
            "second graph instance did not hit the warm criticality "
            f"cache (warm stats delta: {delta})")
    return payload, None


def _timed_arm(run) -> tuple[typing.Any, list[float]]:
    """``run()``'s result and the wall time of each of its passes.

    Passes repeat until they cover ``GATE_ARM_MIN_S`` (and number at
    least ``GATE_MIN_PASSES``); the last pass's result is returned.
    """
    samples: list[float] = []
    while len(samples) < GATE_MIN_PASSES or sum(samples) < GATE_ARM_MIN_S:
        start = time.perf_counter()
        result = run()
        samples.append(time.perf_counter() - start)
    return result, samples


def _spread(samples: list[float], digits: int = 5) -> dict:
    """Median, quartiles and every sample of one timed arm."""
    p25, median, p75 = statistics.quantiles(samples, n=4)
    return {"median": round(median, digits), "p25": round(p25, digits),
            "p75": round(p75, digits), "n": len(samples),
            "samples": [round(sample, digits) for sample in samples]}


def _arm_record(label: str, samples: list[float], faults: int,
                now: str) -> dict:
    """One gate arm's payload entry: median pass plus every sample."""
    p25, median, p75 = statistics.quantiles(samples, n=4)
    return {
        "evaluation": label,
        "recorded_at": now,
        "wall_time_s": round(median, 5),
        "faults": faults,
        "num_cycles": CAMPAIGN_CYCLES,
        "faults_per_second": round(faults / median, 1),
        "passes": len(samples),
        "p25_s": round(p25, 5),
        "p75_s": round(p75, 5),
        "samples_s": [round(sample, 5) for sample in samples],
    }


def _campaign_fork_bench(now: str) -> tuple[dict | None, str | None]:
    """Snapshot-forking gate on an X12-scale graph campaign.

    Evaluates the same seeded population three ways — scalar full runs
    (subset, one pass, recorded as the baseline), vectorized full runs
    (the executable spec), and the forked evaluator (nearest background
    snapshot + fault window only) — asserts the encoded outcomes are
    byte-identical, then gates forked against full-run throughput on
    median passes (:func:`_timed_arm`).  The forked evaluator is built
    once before timing, so every pass forks from a warm trajectory; a
    second evaluator for the same config must be served from the warm
    trajectory cache.  Returns ``(gate_payload, failure_message)``;
    the payload is merged into ``BENCH_x12_campaign_perf.json``
    alongside the campaign-shootout trajectory.
    """
    from repro.campaign import CampaignConfig, fault_runner
    from repro.campaign.reference import FULL_RUN_TARGETS
    from repro.exec.cache import encode_result
    from repro.exec.worker import WARM
    from repro.kernels import SCALAR_ENV

    config = CampaignConfig(
        target="graph", scheme="timber-ff",
        num_faults=CAMPAIGN_FAULTS, num_cycles=CAMPAIGN_CYCLES)
    population = list(config.iter_population())
    reference = FULL_RUN_TARGETS[config.target]

    def encoded(outcomes):
        return json.dumps(encode_result(outcomes), sort_keys=True)

    saved = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1"
    try:
        start = time.perf_counter()
        scalar = [reference(config, spec)[0]
                  for spec in population[:CAMPAIGN_SCALAR_FAULTS]]
        scalar_wall = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop(SCALAR_ENV, None)
        else:
            os.environ[SCALAR_ENV] = saved

    full, full_samples = _timed_arm(
        lambda: [reference(config, spec)[0] for spec in population])

    before = WARM.counters()
    # Built before timing: the trajectory and background rows are a
    # once-per-configuration cost, so the arm times warm forks only.
    # Pinned to the per-fault fork (``replay``): this gate measures the
    # fork itself; the batch gate below measures lane batching on top.
    runner = fault_runner(config)
    forked, forked_samples = _timed_arm(
        lambda: [runner.replay(spec)[0] for spec in population])
    fault_runner(config)  # same config: must hit the warm cache
    delta = WARM.stats_delta(before)

    if encoded(scalar) != encoded(full[:CAMPAIGN_SCALAR_FAULTS]):
        return None, ("scalar and vectorized full-run campaign "
                      "outcomes diverged")
    if encoded(full) != encoded(forked):
        return None, ("snapshot-forked campaign outcomes diverged "
                      "from the full-run reference")

    full_wall = statistics.median(full_samples)
    forked_wall = statistics.median(forked_samples)
    speedup = full_wall / forked_wall if forked_wall > 0 else float("inf")
    runs = [{
        "evaluation": "scalar_full_run",
        "recorded_at": now,
        "wall_time_s": round(scalar_wall, 4),
        "faults": CAMPAIGN_SCALAR_FAULTS,
        "num_cycles": CAMPAIGN_CYCLES,
        "faults_per_second": round(CAMPAIGN_SCALAR_FAULTS / scalar_wall,
                                   1),
    }, _arm_record("vector_full_run", full_samples, CAMPAIGN_FAULTS, now),
        _arm_record("vector_forked", forked_samples, CAMPAIGN_FAULTS, now)]
    payload = {
        "recorded_at": now,
        "target": config.target,
        "scheme": config.scheme,
        "snapshot_stride": config.snapshot_stride,
        "speedup": round(speedup, 1),
        "speedup_floor": CAMPAIGN_SPEEDUP_FLOOR,
        "warm_cache": delta,
        "runs": runs,
    }
    if speedup < CAMPAIGN_SPEEDUP_FLOOR:
        return payload, (
            f"forked campaign evaluation only {speedup:.1f}x faster "
            f"than full runs (floor {CAMPAIGN_SPEEDUP_FLOOR:.0f}x; "
            f"median pass full {full_wall:.4f}s, forked "
            f"{forked_wall:.4f}s)")
    hits = delta.get("trajectory", [0, 0])[0]
    if hits < 1:
        return payload, (
            "second evaluator did not hit the warm trajectory cache "
            f"(warm stats delta: {delta})")
    return payload, None


def _campaign_batch_bench(now: str) -> tuple[dict | None, str | None]:
    """Fault-lane batching gate on the same X12-scale campaign.

    Times one chunk of the seeded population through per-fault forked
    replays (``runner.replay``) and through the evaluator's
    ``evaluate_chunk``, asserts the encoded outcome streams are
    byte-identical, and gates batched against forked faults/s on median
    passes (:func:`_timed_arm`), both evaluators built — and the
    trajectory cache warmed — before timing.  The
    evaluator must have a lane machine, must batch (not replay) the
    overwhelming share of its lanes, and a second
    ``fault_runner`` call must be served from the warm trajectory
    cache.  The payload lands next to the fork gate in
    ``BENCH_x12_campaign_perf.json``.
    """
    from repro.campaign import CampaignConfig, fault_runner
    from repro.exec.cache import encode_result
    from repro.exec.worker import WARM

    config = CampaignConfig(
        target="graph", scheme="timber-ff",
        num_faults=CAMPAIGN_FAULTS, num_cycles=CAMPAIGN_CYCLES)
    population = list(config.iter_population())

    def encoded(outcomes):
        return json.dumps(encode_result(outcomes), sort_keys=True)

    reference = fault_runner(config)
    forked_outcomes, forked_samples = _timed_arm(
        lambda: [reference.replay(spec)[0] for spec in population])

    before = WARM.counters()
    runner = fault_runner(config)
    if runner.machine is None:
        return None, "fault_runner built no lane machine"
    (batched_outcomes, _work), batched_samples = _timed_arm(
        lambda: runner.evaluate_chunk(population))
    fault_runner(config)  # same config again: must hit the warm cache
    delta = WARM.stats_delta(before)
    passes = len(batched_samples)

    if encoded(batched_outcomes) != encoded(forked_outcomes):
        return None, ("lane-batched campaign outcomes diverged from "
                      "the forked evaluator")

    forked_wall = statistics.median(forked_samples)
    batched_wall = statistics.median(batched_samples)
    speedup = (forked_wall / batched_wall if batched_wall > 0
               else float("inf"))
    # Lane counts of one pass (every pass evaluates the same chunk).
    lanes_batched = runner.lanes_batched // passes
    lanes_replayed = runner.lanes_replayed // passes
    payload = {
        "recorded_at": now,
        "target": config.target,
        "scheme": config.scheme,
        "snapshot_stride": config.snapshot_stride,
        "speedup": round(speedup, 1),
        "speedup_floor": BATCH_SPEEDUP_FLOOR,
        "lanes_batched": lanes_batched,
        "lanes_replayed": lanes_replayed,
        "warm_cache": delta,
        "runs": [
            _arm_record("vector_forked", forked_samples, CAMPAIGN_FAULTS,
                        now),
            _arm_record("vector_batched", batched_samples,
                        CAMPAIGN_FAULTS, now),
        ],
    }
    if lanes_batched < lanes_replayed:
        return payload, (
            f"batched evaluator replayed more lanes than it batched "
            f"({lanes_replayed} replayed vs {lanes_batched} batched)")
    if speedup < BATCH_SPEEDUP_FLOOR:
        return payload, (
            f"lane-batched evaluation only {speedup:.1f}x faster than "
            f"per-fault forking (floor {BATCH_SPEEDUP_FLOOR:.0f}x; "
            f"median pass forked {forked_wall:.4f}s, batched "
            f"{batched_wall:.4f}s)")
    hits = delta.get("trajectory", [0, 0])[0]
    if hits < 1:
        return payload, (
            "second batched runner did not hit the warm trajectory "
            f"cache (warm stats delta: {delta})")
    return payload, None


def _soak_bench(now: str) -> tuple[dict | None, str | None]:
    """Soak-mode gates: streaming throughput and adaptive CI narrowing.

    Arm one interleaves warm batched-campaign arms (each repeated until
    it covers ``GATE_ARM_MIN_S``) with ``SOAK_PASSES`` bounded soaks
    that share ``SOAK_RUNTIME_S`` on the same target/scheme/cycle config
    (all serial and in-process, so the comparison isolates the soak
    loop's overhead), and gates the median soak rate at
    ``SOAK_THROUGHPUT_FLOOR`` of the median batch pass rate.  Arm two
    runs an adaptive and a uniform soak on an identical fixed round
    budget: the adaptive run's widest per-stratum Wilson CI must end
    strictly narrower, and the two overall escape-rate estimates must
    agree within their combined half-widths (adaptive allocation shifts
    variance between strata, never the estimate's center).  Returns
    ``(bench_payload, failure_message)`` for ``BENCH_soak.json``.
    """
    import tempfile

    from repro.campaign import CampaignConfig, run_campaign
    from repro.exec import SweepRunner
    from repro.soak import SoakConfig, run_soak

    campaign = CampaignConfig(
        target="graph", scheme="timber-ff",
        num_faults=SOAK_BATCH_FAULTS, num_cycles=SOAK_CYCLES)

    def batch_pass() -> None:
        with SweepRunner(workers=1, cache=None) as runner:
            run_campaign(campaign, runner=runner)

    # Both arms run warm on purpose: this pass fills the trajectory
    # cache that every later batch pass and soak round is served from.
    batch_pass()
    batch_samples: list[float] = []
    soak_rates: list[float] = []
    soak_faults = soak_rounds = 0
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="soak-bench-"))
    try:
        soak = SoakConfig(campaign=campaign,
                          faults_per_round=SOAK_BATCH_FAULTS // 2)
        for index in range(SOAK_PASSES):
            batch_samples += _timed_arm(batch_pass)[1]
            with SweepRunner(workers=1, cache=None) as runner:
                streamed = run_soak(
                    soak, runner=runner,
                    journal_path=workdir / f"throughput-{index}.jsonl",
                    max_runtime_s=SOAK_RUNTIME_S / SOAK_PASSES)
            soak_rates.append(streamed.faults_per_second)
            soak_faults += streamed.total_faults
            soak_rounds += streamed.rounds
        batch_rates = [SOAK_BATCH_FAULTS / sample
                       for sample in batch_samples]
        batch_rate = statistics.median(batch_rates)
        soak_rate = statistics.median(soak_rates)

        ci_campaign = CampaignConfig(
            target="graph", scheme="timber-ff", num_faults=1,
            num_cycles=SOAK_CI_CYCLES)
        arms = {}
        for label, adaptive in (("adaptive", True), ("uniform", False)):
            arm = SoakConfig(
                campaign=ci_campaign, adaptive=adaptive,
                faults_per_round=SOAK_CI_FAULTS_PER_ROUND)
            with SweepRunner(workers=1, cache=None) as runner:
                arms[label] = run_soak(
                    arm, journal_path=workdir / f"{label}.jsonl",
                    runner=runner, max_rounds=SOAK_CI_ROUNDS)
        adaptive_result, uniform_result = (arms["adaptive"],
                                           arms["uniform"])
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)

    ratio = soak_rate / batch_rate if batch_rate > 0 else float("inf")
    adaptive_widest = adaptive_result.widest["ci_width"]
    uniform_widest = uniform_result.widest["ci_width"]
    overall_gap = abs(adaptive_result.overall["escape_rate"]
                      - uniform_result.overall["escape_rate"])
    compatible_within = (adaptive_result.overall["ci_half_width"]
                         + uniform_result.overall["ci_half_width"])
    payload = {
        "bench": "soak",
        "schema_version": 1,
        "recorded_at": now,
        "target": campaign.target,
        "scheme": campaign.scheme,
        "throughput": {
            "num_cycles": SOAK_CYCLES,
            "batch_faults": SOAK_BATCH_FAULTS,
            "batch_wall_s": _spread(batch_samples),
            "batch_faults_per_second": round(batch_rate, 1),
            "batch_rates": _spread(batch_rates, 1),
            "soak_runtime_s": SOAK_RUNTIME_S,
            "soak_passes": SOAK_PASSES,
            "soak_faults": soak_faults,
            "soak_rounds": soak_rounds,
            "soak_faults_per_second": round(soak_rate, 1),
            "soak_rates": _spread(soak_rates, 1),
            "ratio": round(ratio, 3),
            "ratio_floor": SOAK_THROUGHPUT_FLOOR,
        },
        "adaptive_gate": {
            "num_cycles": SOAK_CI_CYCLES,
            "rounds": SOAK_CI_ROUNDS,
            "faults_per_round": SOAK_CI_FAULTS_PER_ROUND,
            "adaptive_widest_ci": round(adaptive_widest, 6),
            "uniform_widest_ci": round(uniform_widest, 6),
            "adaptive_overall": adaptive_result.overall,
            "uniform_overall": uniform_result.overall,
            "overall_gap": round(overall_gap, 6),
            "compatible_within": round(compatible_within, 6),
        },
    }
    if ratio < SOAK_THROUGHPUT_FLOOR:
        return payload, (
            f"soak sustained only {ratio:.2f}x of the batched campaign "
            f"rate (floor {SOAK_THROUGHPUT_FLOOR:.2f}; median batch "
            f"{batch_rate:.1f} f/s, median soak {soak_rate:.1f} f/s)")
    if not adaptive_widest < uniform_widest:
        return payload, (
            f"adaptive sampling did not narrow the widest CI below "
            f"uniform on {SOAK_CI_ROUNDS} rounds (adaptive "
            f"{adaptive_widest:.4f}, uniform {uniform_widest:.4f})")
    if overall_gap > compatible_within:
        return payload, (
            f"adaptive and uniform overall escape-rate estimates "
            f"diverged beyond their combined CI half-widths "
            f"({overall_gap:.4f} > {compatible_within:.4f}) — "
            "reweighting looks biased")
    return payload, None


def _monitor_bench(now: str) -> tuple[dict | None, str | None]:
    """Event-stream overhead gate on the perf-smoke sweep.

    Runs the standard resilience sweep in bare/streamed pairs of arms,
    each arm ``MONITOR_SWEEPS_PER_ARM`` sweeps on one runner, the
    streamed arm with a live :class:`EventPublisher` attached to the
    runner's telemetry and spooling to a real file (flush per event,
    heartbeat thread running — the exact ``--events`` configuration).
    A pair's two arms take turns sweep by sweep, and the gate holds the
    median, over every turn, of a streamed sweep's overhead on the bare
    sweep next to it to ``MONITOR_OVERHEAD_LIMIT_PERCENT``: drift of
    the host hits both sides of a turn alike.
    Returns ``(bench_payload, failure_message)`` for
    ``BENCH_monitor.json``.
    """
    import tempfile

    from repro.analysis.experiments import resilience_sweep
    from repro.exec.runner import SweepRunner
    from repro.obs.stream import EventPublisher

    def sweep(runner: SweepRunner) -> float:
        start = time.perf_counter()
        resilience_sweep(
            techniques=TECHNIQUES,
            droop_amplitudes=AMPLITUDES,
            num_cycles=NUM_CYCLES,
            runner=runner,
        )
        return time.perf_counter() - start

    def run_pair(spool: pathlib.Path,
                 first: int) -> list[tuple[float, float]]:
        """``(bare, streamed)`` sweep walls of each turn of one pair."""
        turns = []
        with SweepRunner(workers=1, cache=None) as off_runner, \
                SweepRunner(workers=1, cache=None) as on_runner:
            publisher = EventPublisher(spool, kind="sweep")
            publisher.attach(on_runner.telemetry)
            publisher.open()
            publisher.run_start(unit="tasks")
            for turn in range(first, first + MONITOR_SWEEPS_PER_ARM):
                # Alternate which arm goes first, so drift hits both.
                if turn % 2:
                    on = sweep(on_runner)
                    off = sweep(off_runner)
                else:
                    off = sweep(off_runner)
                    on = sweep(on_runner)
                turns.append((off, on))
            publisher.run_end("ok")
            publisher.close()
        return turns

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="monitor-bench-"))
    pairs: list[list[tuple[float, float]]] = []
    try:
        with SweepRunner(workers=1, cache=None) as runner:
            sweep(runner)  # warm imports and kernel caches
        for pair in range(MONITOR_MIN_PAIRS):
            pairs.append(run_pair(workdir / f"events-{pair}.jsonl",
                                  first=pair))
        spool_bytes = max(path.stat().st_size
                          for path in workdir.glob("events-*.jsonl"))
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)

    # Each streamed sweep against the bare sweep next to it: slow drift
    # of the host cancels within a turn, and the median over every turn
    # of every pair resolves well under the limit.
    turn_overheads = [100.0 * (on - off) / off
                      for turns in pairs for off, on in turns if off > 0]
    overhead = statistics.median(turn_overheads)
    bare = [sum(off for off, _ in turns) for turns in pairs]
    streamed = [sum(on for _, on in turns) for turns in pairs]
    payload = {
        "bench": "monitor",
        "schema_version": 1,
        "recorded_at": now,
        "overhead_percent": round(overhead, 3),
        "overhead_limit_percent": MONITOR_OVERHEAD_LIMIT_PERCENT,
        "pairs": len(pairs),
        "sweeps_per_arm": MONITOR_SWEEPS_PER_ARM,
        "turn_overhead_percent": _spread(turn_overheads, 3),
        "spool_bytes": spool_bytes,
        "runs": [
            {"events": False, "wall_time_s": _spread(bare, 4)},
            {"events": True, "wall_time_s": _spread(streamed, 4)},
        ],
    }
    if overhead > MONITOR_OVERHEAD_LIMIT_PERCENT:
        return payload, (
            f"event stream costs {overhead:.2f}% of sweep wall time "
            f"(median of {len(turn_overheads)} sweep turns; limit "
            f"{MONITOR_OVERHEAD_LIMIT_PERCENT:.0f}%; median arm of "
            f"{MONITOR_SWEEPS_PER_ARM} sweeps bare "
            f"{statistics.median(bare):.3f}s, streamed "
            f"{statistics.median(streamed):.3f}s)")
    return payload, None


def main() -> int:
    scalar_points, scalar_wall = _measure("scalar")
    vector_points, vector_wall = _measure("vector")
    obs_points, obs_wall = _measure("vector", observability=True)

    mismatches = []
    for scalar, vector, observed in zip(scalar_points, vector_points,
                                        obs_points):
        if not (dataclasses.asdict(scalar) == dataclasses.asdict(vector)
                == dataclasses.asdict(observed)):
            mismatches.append((dataclasses.asdict(scalar),
                               dataclasses.asdict(vector)))
    if mismatches:
        for scalar, vector in mismatches:
            print("MISMATCH")
            print("  scalar:", scalar)
            print("  vector:", vector)
        return 1

    cycles = len(scalar_points) * NUM_CYCLES
    now = datetime.datetime.now(
        datetime.timezone.utc).isoformat(timespec="seconds")
    runs = []
    for mode, wall in (("scalar", scalar_wall), ("vector", vector_wall)):
        runs.append({
            "kernel_mode": mode,
            "recorded_at": now,
            "wall_time_s": round(wall, 4),
            "simulated_cycles": cycles,
            "cycles_per_second": round(cycles / wall, 1),
            "workers": 1,
            "cache_hits": 0,
            "cache_misses": len(scalar_points),
            "grid_points": len(scalar_points),
        })
    path = REPO_ROOT / "BENCH_perf_smoke.json"
    path.write_text(json.dumps(
        {"bench": "perf_smoke", "schema_version": 1, "runs": runs},
        indent=2) + "\n", encoding="utf-8")

    # -- observability overhead gates -----------------------------------
    noop_us = _noop_inc_microbench()
    if noop_us > NOOP_BUDGET_US:
        print(f"FAIL: disabled Counter.inc averages {noop_us:.3f}us "
              f"per call (budget {NOOP_BUDGET_US}us) — the no-op path "
              "is not free")
        return 1
    overhead = (100.0 * (obs_wall - vector_wall) / vector_wall
                if vector_wall > 0 else 0.0)
    if overhead > OBS_OVERHEAD_LIMIT_PERCENT:
        print(f"FAIL: observability overhead {overhead:.1f}% exceeds "
              f"{OBS_OVERHEAD_LIMIT_PERCENT:.0f}% "
              f"(disabled {vector_wall:.3f}s, enabled {obs_wall:.3f}s)")
        return 1
    obs_runs = []
    for label, wall in (("obs_disabled", vector_wall),
                        ("obs_enabled", obs_wall)):
        obs_runs.append({
            "kernel_mode": "vector",
            "observability": label == "obs_enabled",
            "recorded_at": now,
            "wall_time_s": round(wall, 4),
            "simulated_cycles": cycles,
            "cycles_per_second": round(cycles / wall, 1),
            "workers": 1,
            "cache_hits": 0,
            "cache_misses": len(scalar_points),
            "grid_points": len(scalar_points),
        })
    obs_path = REPO_ROOT / "BENCH_obs_overhead.json"
    obs_path.write_text(json.dumps({
        "bench": "obs_overhead",
        "schema_version": 1,
        "overhead_percent": round(overhead, 2),
        "noop_inc_us": round(noop_us, 4),
        "runs": obs_runs,
    }, indent=2) + "\n", encoding="utf-8")

    # -- dispatch-overhead gate ------------------------------------------
    dispatch, dispatch_failure = _dispatch_bench(now)
    if dispatch is not None:
        dispatch_path = REPO_ROOT / "BENCH_dispatch.json"
        dispatch_path.write_text(
            json.dumps(dispatch, indent=2) + "\n", encoding="utf-8")
    if dispatch_failure is not None:
        print(f"FAIL: {dispatch_failure}")
        return 1
    assert dispatch is not None

    # -- Fig. 8 relay-analysis (criticality index) gate ------------------
    fig8, fig8_failure = _fig8_relay_bench(now)
    if fig8 is not None:
        fig8_path = REPO_ROOT / "BENCH_fig8_relay.json"
        if fig8_path.exists():
            fig8_doc = json.loads(fig8_path.read_text(encoding="utf-8"))
        else:
            fig8_doc = {"bench": "fig8_relay", "schema_version": 1,
                        "runs": []}
        fig8_doc["criticality_gate"] = fig8
        fig8_path.write_text(json.dumps(fig8_doc, indent=2) + "\n",
                             encoding="utf-8")
    if fig8_failure is not None:
        print(f"FAIL: {fig8_failure}")
        return 1
    assert fig8 is not None

    # -- campaign snapshot-forking gate ----------------------------------
    campaign, campaign_failure = _campaign_fork_bench(now)
    if campaign is not None:
        campaign_path = REPO_ROOT / "BENCH_x12_campaign_perf.json"
        if campaign_path.exists():
            campaign_doc = json.loads(
                campaign_path.read_text(encoding="utf-8"))
        else:
            campaign_doc = {"bench": "x12_campaign_perf",
                            "schema_version": 1, "runs": []}
        campaign_doc["fork_gate"] = campaign
        campaign_path.write_text(
            json.dumps(campaign_doc, indent=2) + "\n", encoding="utf-8")
    if campaign_failure is not None:
        print(f"FAIL: {campaign_failure}")
        return 1
    assert campaign is not None

    # -- campaign fault-lane batching gate -------------------------------
    batch, batch_failure = _campaign_batch_bench(now)
    if batch is not None:
        campaign_path = REPO_ROOT / "BENCH_x12_campaign_perf.json"
        campaign_doc = json.loads(
            campaign_path.read_text(encoding="utf-8"))
        campaign_doc["batch_gate"] = batch
        campaign_path.write_text(
            json.dumps(campaign_doc, indent=2) + "\n", encoding="utf-8")
    if batch_failure is not None:
        print(f"FAIL: {batch_failure}")
        return 1
    assert batch is not None

    # -- soak throughput + adaptive-sampling gate ------------------------
    soak, soak_failure = _soak_bench(now)
    if soak is not None:
        soak_path = REPO_ROOT / "BENCH_soak.json"
        soak_path.write_text(json.dumps(soak, indent=2) + "\n",
                             encoding="utf-8")
    if soak_failure is not None:
        print(f"FAIL: {soak_failure}")
        return 1
    assert soak is not None

    # -- event-stream overhead gate --------------------------------------
    monitor, monitor_failure = _monitor_bench(now)
    if monitor is not None:
        monitor_path = REPO_ROOT / "BENCH_monitor.json"
        monitor_path.write_text(json.dumps(monitor, indent=2) + "\n",
                                encoding="utf-8")
    if monitor_failure is not None:
        print(f"FAIL: {monitor_failure}")
        return 1
    assert monitor is not None

    speedup = scalar_wall / vector_wall if vector_wall > 0 else float("inf")
    print(f"perf smoke OK: {len(scalar_points)} grid points x "
          f"{NUM_CYCLES} cycles identical in both kernel modes "
          "(obs on and off)")
    print(f"  scalar: {scalar_wall:.3f}s   vector: {vector_wall:.3f}s   "
          f"speedup: {speedup:.1f}x")
    print(f"  obs enabled: {obs_wall:.3f}s ({overhead:+.1f}%)   "
          f"disabled inc(): {noop_us:.3f}us/call")
    batched = next(r for r in dispatch["runs"]
                   if r["dispatch"] == "batched")
    per_task = next(r for r in dispatch["runs"]
                    if r["dispatch"] == "per_task")
    print(f"  dispatch: {per_task['tasks_per_second']:.0f} -> "
          f"{batched['tasks_per_second']:.0f} tasks/s "
          f"({dispatch['speedup']:.1f}x batched, mean batch "
          f"{batched['mean_batch_tasks']:.1f} tasks)")
    print(f"  fig8 relay: naive {fig8['naive_wall_s']:.3f}s -> indexed "
          f"{fig8['indexed_wall_s']:.3f}s ({fig8['speedup']:.0f}x, warm "
          f"repeat {fig8['indexed_warm_wall_s'] * 1e3:.1f}ms)")
    forked_run = next(r for r in campaign["runs"]
                      if r["evaluation"] == "vector_forked")
    full_run = next(r for r in campaign["runs"]
                    if r["evaluation"] == "vector_full_run")
    print(f"  campaign: {full_run['faults_per_second']:.0f} -> "
          f"{forked_run['faults_per_second']:.0f} faults/s forked "
          f"({campaign['speedup']:.1f}x at {CAMPAIGN_CYCLES} cycles, "
          "outcomes byte-identical)")
    batched_run = next(r for r in batch["runs"]
                       if r["evaluation"] == "vector_batched")
    batch_forked_run = next(r for r in batch["runs"]
                            if r["evaluation"] == "vector_forked")
    print(f"  lane batching: {batch_forked_run['faults_per_second']:.0f}"
          f" -> {batched_run['faults_per_second']:.0f} faults/s batched "
          f"({batch['speedup']:.1f}x, floor {BATCH_SPEEDUP_FLOOR:.0f}x; "
          f"{batch['lanes_batched']} lanes batched, "
          f"{batch['lanes_replayed']} replayed)")
    throughput = soak["throughput"]
    gate = soak["adaptive_gate"]
    print(f"  soak: {throughput['batch_faults_per_second']:.0f} f/s "
          f"batched vs {throughput['soak_faults_per_second']:.0f} f/s "
          f"streamed ({throughput['ratio']:.2f}x, floor "
          f"{SOAK_THROUGHPUT_FLOOR:.2f}); widest CI "
          f"{gate['uniform_widest_ci']:.4f} uniform -> "
          f"{gate['adaptive_widest_ci']:.4f} adaptive on "
          f"{SOAK_CI_ROUNDS} rounds")
    print(f"  event stream: {monitor['overhead_percent']:+.2f}% sweep "
          f"overhead (limit {MONITOR_OVERHEAD_LIMIT_PERCENT:.0f}%, "
          f"median of {monitor['turn_overhead_percent']['n']} sweep "
          f"turns, spool "
          f"{monitor['spool_bytes']} bytes)")
    print(f"  trajectories written to {path.name}, {obs_path.name}, "
          "BENCH_dispatch.json, BENCH_fig8_relay.json, "
          "BENCH_x12_campaign_perf.json, BENCH_soak.json and "
          "BENCH_monitor.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
