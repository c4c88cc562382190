"""X3 (extension) — throughput payoff of spending the recovered margin.

Overclocks the pipeline past its sign-off frequency and measures the
*effective* speedup per scheme once recovery costs are charged.  Shape
checks: the masking schemes convert most of the overclock into real
speedup; Razor's replay and canary's guard-band slowdowns erode the
gain; nobody corrupts state silently within the studied range.

Runs through the parallel sweep runner with the shared on-disk result
cache; the appended run summary shows cache hits and per-task timings.
"""

from conftest import make_sweep_runner, record_bench

from repro.analysis.experiments import throughput_sweep
from repro.analysis.tables import format_table
from repro.exec.telemetry import format_summary

OVERCLOCKS = (0.0, 4.0, 8.0)
TECHNIQUES = ("timber-ff", "timber-latch", "razor", "canary")


def _run(runner):
    return throughput_sweep(
        techniques=TECHNIQUES,
        overclock_percents=OVERCLOCKS,
        num_cycles=12_000,
        runner=runner,
    )


def test_throughput(benchmark, report):
    runner = make_sweep_runner()
    points = benchmark.pedantic(_run, args=(runner,), rounds=1,
                                iterations=1)

    rows = []
    for point in sorted(points, key=lambda p: (p.technique,
                                               p.overclock_percent)):
        rows.append([
            point.technique,
            f"+{point.overclock_percent:.0f}%",
            f"{point.effective_speedup:.4f}",
            point.result.failed,
        ])
    table = format_table(
        ["scheme", "overclock", "effective speedup", "silent failures"],
        rows)

    by_key = {(p.technique, p.overclock_percent): p for p in points}
    top = max(OVERCLOCKS)
    # TIMBER turns the overclock into real speedup.  The flip-flop
    # variant gives back most of it through flagged-error slowdowns but
    # stays net-positive; the latch variant keeps nearly all of it.
    assert by_key[("timber-ff", top)].effective_speedup > 1.001
    assert by_key[("timber-latch", top)].effective_speedup > 1.03
    # TIMBER's payoff beats Razor's and canary's at the same overclock.
    assert by_key[("timber-ff", top)].effective_speedup >= \
        by_key[("razor", top)].effective_speedup
    assert by_key[("timber-ff", top)].effective_speedup >= \
        by_key[("canary", top)].effective_speedup
    # The masking schemes stay correct throughout the studied range.
    for technique in ("timber-ff", "timber-latch"):
        for overclock in OVERCLOCKS:
            assert by_key[(technique, overclock)].result.failed == 0

    assert runner.last_run is not None
    report("x3_throughput_payoff", table)
    # Stdout only: the summary's times and cache counters change from
    # run to run, and the committed table must not.
    print("\nrun summary\n" + format_summary(runner.last_run.summary))
    record_bench(
        "x3_throughput_payoff",
        simulated_cycles=len(points) * 12_000,
        summary=runner.last_run.summary,
        extra={"grid_points": len(points)},
    )
