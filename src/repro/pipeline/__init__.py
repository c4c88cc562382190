"""Cycle-level pipeline timing simulation.

This package turns the capture semantics of :mod:`repro.core.masking`
into an end-to-end architecture study: a linear pipeline of stages with
per-cycle variability-perturbed delays, capture elements at each boundary
(plain / TIMBER FF / TIMBER latch / Razor / canary), the error relay, and
the central error-control unit that reduces the clock frequency after a
flagged error.
"""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "stage": ("PipelineStage",),
    "schemes": ("CapturePolicy", "PlainPolicy", "TimberFFPolicy",
                "TimberLatchPolicy", "RazorPolicy", "CanaryPolicy",
                "DcfPolicy", "SoftEdgePolicy", "ClockStallPolicy",
                "LogicalMaskingPolicy"),
    "controller": ("CentralErrorController",),
    "pipeline": ("PipelineResult", "PipelineSimulation"),
    "dvfs": ("AdaptiveVoltageScaler", "VddStep"),
    "graph_sim": ("GraphPipelineResult", "GraphPipelineSimulation"),
})
