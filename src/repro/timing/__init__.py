"""Timing analysis: FF-level timing graphs, gate-level STA, constraints."""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "graph": ("TimingEdge", "TimingGraph"),
    "criticality": ("CriticalityIndex", "CriticalityView"),
    "sta": ("StaResult", "netlist_to_timing_graph",
            "register_to_register_delays", "run_sta"),
    "paths": ("PathSet", "TimingPath", "enumerate_paths"),
    "constraints": ("HoldFix", "HoldFixPlan", "apply_hold_padding",
                    "hold_padding_plan", "min_delay_by_capture"),
    "distribution": ("CriticalPathDistribution",
                     "critical_path_distribution", "distribution_sweep"),
    "ssta": ("EndpointStatistics", "SstaResult", "run_ssta"),
    "skew": ("SkewSchedule", "schedule_useful_skew", "skewed_graph"),
    "exceptions": ("ExceptionKind", "ExceptionSet", "TimingException",
                   "apply_exceptions", "false_path", "multicycle_path"),
})
