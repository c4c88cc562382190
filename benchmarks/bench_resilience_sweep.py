"""X1 (extension) — masked / detected / failed outcomes under droop.

Sweeps the voltage-droop amplitude on a five-stage pipeline and compares
the resilience schemes head to head.  Shape checks (the qualitative
claims of Table 1 played out dynamically): the unprotected design fails
silently as soon as droops push paths past the edge; TIMBER masks every
violation within the recovered margin with near-unity throughput; Razor
detects the same violations but pays replay; canary keeps state correct
at a standing throughput cost.

Runs through the parallel sweep runner with the on-disk result cache
(``benchmarks/.sweep-cache``): the first run is cold and fans the grid
out across worker processes; a rerun is served from the cache, and the
run summary appended to the artefact shows the cache hits and per-task
timings.
"""

from conftest import make_sweep_runner, record_bench

from repro.analysis.experiments import resilience_sweep
from repro.analysis.tables import format_table
from repro.exec.telemetry import format_summary

AMPLITUDES = (0.0, 0.04, 0.08)
TECHNIQUES = ("plain", "timber-ff", "timber-latch", "razor", "canary")


def _run(runner):
    return resilience_sweep(
        techniques=TECHNIQUES,
        droop_amplitudes=AMPLITUDES,
        num_cycles=12_000,
        runner=runner,
    )


def test_resilience_sweep(benchmark, report):
    runner = make_sweep_runner()
    points = benchmark.pedantic(_run, args=(runner,), rounds=1,
                                iterations=1)

    rows = []
    for point in points:
        result = point.result
        rows.append([
            point.technique,
            f"{point.droop_amplitude * 100:.0f}%",
            result.masked,
            result.detected,
            result.predicted,
            result.failed,
            f"{result.throughput_factor:.4f}",
        ])
    table = format_table(
        ["scheme", "droop", "masked", "detected", "predicted",
         "failed", "throughput"], rows)

    by_key = {(p.technique, p.droop_amplitude): p.result for p in points}
    worst = max(AMPLITUDES)
    # Plain fails under real droops; the TIMBER variants do not.
    assert by_key[("plain", worst)].failed > 0
    assert by_key[("timber-ff", worst)].failed == 0
    assert by_key[("timber-latch", worst)].failed == 0
    # TIMBER masks; Razor detects (with replay); canary predicts.
    assert by_key[("timber-ff", worst)].masked > 0
    assert by_key[("razor", worst)].detected > 0
    assert by_key[("canary", worst)].predicted > 0
    # Throughput ordering at the worst stress level.
    assert by_key[("timber-ff", worst)].throughput_factor >= \
        by_key[("razor", worst)].throughput_factor
    assert by_key[("timber-ff", worst)].throughput_factor >= \
        by_key[("canary", worst)].throughput_factor
    # With no droops, nothing fails anywhere.
    assert all(by_key[(t, 0.0)].failed == 0 for t in TECHNIQUES)

    assert runner.last_run is not None
    report("x1_resilience_sweep", table)
    # Stdout only: the summary's times and cache counters change from
    # run to run, and the committed table must not.
    print("\nrun summary\n" + format_summary(runner.last_run.summary))
    record_bench(
        "x1_resilience_sweep",
        simulated_cycles=len(points) * 12_000,
        summary=runner.last_run.summary,
        extra={"grid_points": len(points)},
    )
