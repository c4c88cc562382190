"""X9 (extension) — the full technique shoot-out.

Every architecture in the library — unprotected, TIMBER flip-flop,
TIMBER latch, Razor, canary, delay-compensation FF, clock-stall, and
logical masking — on the same stressed pipeline, reporting the complete
Table-1 story dynamically: who corrupts state, who masks, who detects,
who predicts, and what each pays in throughput.

Shape checks (the paper's qualitative matrix, measured):

* only the unprotected design fails silently under this (margin-sized)
  stress;
* Razor detects everything but pays replay; clock-stall masks but pays
  a stall per error; canary predicts without ever borrowing;
* the TIMBER variants and logical masking keep ~full throughput;
* nobody flags a false error (flags only happen under violations).

Runs through the parallel sweep runner (one task per architecture) with
the shared on-disk result cache; the appended run summary shows cache
hits and per-task timings.
"""

from conftest import make_sweep_runner, record_bench

from repro.analysis.experiments import shootout_sweep
from repro.analysis.tables import format_table
from repro.exec.telemetry import format_summary

NUM_CYCLES = 10_000


def _run(runner):
    return shootout_sweep(num_cycles=NUM_CYCLES, runner=runner)


def test_shootout(benchmark, report):
    runner = make_sweep_runner()
    results = benchmark.pedantic(_run, args=(runner,), rounds=1,
                                 iterations=1)

    rows = []
    for key, result in results.items():
        rows.append([
            key, result.masked, result.detected, result.predicted,
            result.failed, result.replay_cycles,
            f"{result.throughput_factor:.4f}",
        ])
    table = format_table(
        ["scheme", "masked", "detected", "predicted",
         "failed (silent)", "recovery cycles", "throughput"], rows)

    # The paper's qualitative matrix, dynamically verified.
    assert results["plain"].failed > 0
    for key in ("timber-ff", "timber-latch", "razor", "canary",
                "clock-stall"):
        assert results[key].failed == 0, key
    # The DCF corrupts state under chained borrowing — exactly the
    # paper's Sec. 2 criticism: the borrowed time is *assumed* to be
    # absorbed by a non-critical next stage, and nothing relays the
    # debt, so a two-stage violation lands outside its detector window.
    assert results["dcf"].failed > 0
    assert results["dcf"].masked > 0  # single-stage errors still masked
    assert results["razor"].detected > 0
    assert results["razor"].replay_cycles > 0
    assert results["canary"].predicted > 0
    assert results["clock-stall"].masked > 0
    assert results["clock-stall"].replay_cycles > 0
    # Logical masking with 80% coverage leaks the uncovered boundary.
    assert results["logical"].masked > 0
    # TIMBER keeps ~full throughput; Razor and canary measurably do not.
    assert results["timber-latch"].throughput_factor > 0.999
    assert results["razor"].throughput_factor < \
        results["timber-ff"].throughput_factor
    assert results["canary"].throughput_factor < \
        results["timber-ff"].throughput_factor

    assert runner.last_run is not None
    report("x9_shootout", table)
    # Stdout only: the summary's times and cache counters change from
    # run to run, and the committed table must not.
    print("\nrun summary\n" + format_summary(runner.last_run.summary))
    record_bench(
        "x9_shootout",
        simulated_cycles=len(results) * NUM_CYCLES,
        summary=runner.last_run.summary,
        extra={"grid_points": len(results)},
    )
