"""Randomized fault-campaign engine (paper-scale resilience studies).

``repro.campaign`` answers the paper's headline question at scale: *what
fraction of dynamic timing errors does each scheme mask, detect, or let
escape?*  It generates seeded populations of faults — SEUs, delay
faults, droop pulses, multi-stage correlated slowdowns — injects them
into the cycle-level simulators (linear pipeline and whole graph) and
the event-driven netlist simulator, runs the population through the
exec layer, and classifies every outcome into the TB/ED taxonomy of
:mod:`repro.campaign.outcomes`, producing per-scheme coverage reports
keyed to the recovered timing margin ``c/k``.

Every campaign and soak outcome comes out of one evaluator per target
(:func:`fault_runner`, entry point ``evaluate_chunk``).  Cycle-level
evaluators fork every fault from one fault-free background per
configuration (:mod:`repro.campaign.trajectory`), built once per
process and held in the warm cache; nothing of it goes to disk.  The
full-run oracle the evaluators are pinned against lives in
:mod:`repro.campaign.reference`, which only tests and benchmarks
import.
"""

from repro.campaign.engine import (
    CAMPAIGN_TASK,
    CampaignConfig,
    CampaignResult,
    campaign_chunk_task,
    fault_runner,
    run_campaign,
    warm_backgrounds,
)
from repro.campaign.faults import (
    FAULT_KINDS,
    FaultColumns,
    FaultOverlay,
    FaultSpec,
    draw_spec,
    generate_population,
    iter_population,
)
from repro.campaign.trajectory import BackgroundTrajectory, build_trajectory
from repro.campaign.outcomes import (
    BENIGN,
    ESCAPED,
    FALSE_POSITIVE,
    MASKED_ED,
    MASKED_TB,
    OUTCOME_CLASSES,
    RELAYED,
    CaptureEvent,
    FaultOutcome,
    OutcomeColumns,
    classify_events,
    classify_flags,
)
from repro.campaign.report import (
    CoverageReport,
    build_report,
    render_reports,
    write_campaign_bench,
)

__all__ = [
    "CAMPAIGN_TASK",
    "CampaignConfig",
    "CampaignResult",
    "campaign_chunk_task",
    "fault_runner",
    "run_campaign",
    "warm_backgrounds",
    "FAULT_KINDS",
    "FaultColumns",
    "FaultOverlay",
    "FaultSpec",
    "draw_spec",
    "generate_population",
    "iter_population",
    "BackgroundTrajectory",
    "build_trajectory",
    "BENIGN",
    "ESCAPED",
    "FALSE_POSITIVE",
    "MASKED_ED",
    "MASKED_TB",
    "OUTCOME_CLASSES",
    "RELAYED",
    "CaptureEvent",
    "FaultOutcome",
    "OutcomeColumns",
    "classify_events",
    "classify_flags",
    "CoverageReport",
    "build_report",
    "render_reports",
    "write_campaign_bench",
]
