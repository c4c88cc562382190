"""Full-run reference evaluators: the executable spec of forking.

Each function simulates one fault from cycle 0 in a fresh simulator
and classifies the captures inside its influence window — the obvious,
O(num_cycles)-per-fault definition of a campaign outcome.  The
campaign evaluator (:func:`repro.campaign.engine.fault_runner`) must
reproduce these outcomes byte for byte whether a fault runs as a lane
of the batch machine or as a forked replay; hypothesis properties, a
golden campaign capture and the perf-smoke fork gate compare the
streams.

Nothing under :mod:`repro` imports this module: it is an oracle for
tests and benchmarks, not a runtime path.  (The netlist target has no
snapshot to fork from, so its full run *is* its evaluator and stays in
:mod:`repro.campaign.engine`.)
"""

from __future__ import annotations

from repro.campaign.engine import (
    CampaignConfig,
    _build_graph_sim,
    _build_pipeline_sim,
    _collecting_observer,
    _window_end,
)
from repro.campaign.faults import FaultOverlay, FaultSpec
from repro.campaign.outcomes import (
    CaptureEvent,
    FaultOutcome,
    outcome_from_events,
)


def full_run_pipeline_fault(config: CampaignConfig,
                            spec: FaultSpec) -> tuple[FaultOutcome, int]:
    """Full-run reference: fresh simulation from cycle 0 (spec)."""
    sites = config.sites()
    events: list[CaptureEvent] = []
    simulation = _build_pipeline_sim(
        config,
        faults=FaultOverlay([spec], sites),
        capture_observer=_collecting_observer(config, spec, events,
                                              sites),
    )
    result = simulation.run(_window_end(config, spec) + 1)
    return outcome_from_events(spec, events), result.captures


def full_run_graph_fault(config: CampaignConfig,
                         spec: FaultSpec) -> tuple[FaultOutcome, int]:
    """Full-run reference: fresh simulation from cycle 0 (spec)."""
    events: list[CaptureEvent] = []
    simulation = _build_graph_sim(
        config,
        faults=FaultOverlay([spec], config.sites()),
        capture_observer=_collecting_observer(config, spec, events,
                                              None),
    )
    result = simulation.run(_window_end(config, spec) + 1)
    return (outcome_from_events(spec, events),
            result.cycles * result.num_ffs)


#: The full-run reference per cycle-level target.
FULL_RUN_TARGETS = {
    "pipeline": full_run_pipeline_fault,
    "graph": full_run_graph_fault,
}
