"""X12 (extension) — seeded fault-injection campaign, scheme shoot-out.

Runs the same seeded 1000-fault population (SEUs, delay faults, droop
pulses, correlated multi-stage slowdowns) against the five-stage
pipeline under each resilience scheme and classifies every fault into
the TB/ED taxonomy.  The paper's qualitative claim at campaign scale:
the plain design lets every sensitized timing error escape as silent
data corruption, the TIMBER flip-flop masks most violations silently
(TB interval) or relays them across cycles, and the TIMBER latch — all
of whose intervals detect — converts nearly everything into masked,
flagged outcomes.

The campaign fans out through the parallel sweep runner (chunked
tasks, on-disk result cache), and the coverage artefact is written in
the ``BENCH_campaign.json`` schema shared with ``repro.cli campaign``.
"""

from conftest import REPO_ROOT, make_sweep_runner, record_bench

from repro.campaign import (
    BENIGN,
    ESCAPED,
    MASKED_ED,
    MASKED_TB,
    RELAYED,
    CampaignConfig,
    render_reports,
    run_campaign,
    write_campaign_bench,
)
from repro.exec.telemetry import format_summary

SCHEMES = ("plain", "timber-ff", "timber-latch")
NUM_FAULTS = 1000
NUM_CYCLES = 2000


def _run(runner):
    results = {}
    for scheme in SCHEMES:
        config = CampaignConfig(scheme=scheme, num_faults=NUM_FAULTS,
                                num_cycles=NUM_CYCLES)
        results[scheme] = run_campaign(config, runner=runner)
    return results


def test_campaign_shootout(benchmark, report):
    runner = make_sweep_runner()
    results = benchmark.pedantic(_run, args=(runner,), rounds=1,
                                 iterations=1)
    reports = {s: results[s].report for s in SCHEMES}

    # Plain: no masking machinery, every sensitized violation escapes.
    assert reports["plain"].coverage == 0.0
    assert reports["plain"].counts[ESCAPED] > 0
    # TIMBER flip-flop: silent TB masking plus multi-cycle relaying.
    assert reports["timber-ff"].coverage > 0.5
    assert reports["timber-ff"].counts[MASKED_TB] > 0
    assert reports["timber-ff"].counts[RELAYED] > 0
    # TIMBER latch: every interval detects, so masking comes flagged.
    assert reports["timber-latch"].coverage > reports["timber-ff"].coverage
    assert reports["timber-latch"].counts[MASKED_ED] > 0
    # Identical populations: benign counts agree across schemes.
    assert len({reports[s].counts[BENIGN] for s in SCHEMES}) == 1
    # Escape ordering is the paper's resilience ordering.
    assert reports["timber-latch"].counts[ESCAPED] < \
        reports["timber-ff"].counts[ESCAPED] < \
        reports["plain"].counts[ESCAPED]

    table = render_reports([reports[s] for s in SCHEMES])
    summary = results[SCHEMES[-1]].summary
    report("x12_campaign", table)
    # Stdout only: the summary's times and cache counters change from
    # run to run, and the committed table must not.
    print("\nrun summary (last scheme)\n" + format_summary(summary))

    write_campaign_bench(
        REPO_ROOT / "BENCH_campaign.json",
        [reports[s] for s in SCHEMES],
        config=results["timber-ff"].config,
        telemetry=summary,
    )
    record_bench(
        "x12_campaign_perf",
        simulated_cycles=len(SCHEMES) * NUM_FAULTS * NUM_CYCLES,
        summary=summary,
        extra={
            "schemes": list(SCHEMES),
            "num_faults": NUM_FAULTS,
            "faults_per_second": round(
                NUM_FAULTS / float(summary["wall_time_s"]), 1),
        },
    )
