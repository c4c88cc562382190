"""Synthetic industrial-processor surrogate.

The paper's case study runs on an industrial ARM processor at three
performance points.  This package generates flip-flop-level timing graphs
whose critical-path start/end structure is calibrated to match the
distribution the paper reports (Fig. 1), plus the workload-driven path
sensitization model behind the multi-stage error-rate argument (Sec. 3).
"""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "perfpoints": ("PerformancePoint", "LOW_PERFORMANCE",
                   "MEDIUM_PERFORMANCE", "HIGH_PERFORMANCE",
                   "PERFORMANCE_POINTS"),
    "generator": ("generate_processor", "calibrate_base"),
    "workload": ("SensitizationModel", "multi_stage_error_probability"),
    "trace": ("Phase", "WorkloadTrace", "synthetic_trace"),
})
