"""TIMBER core: the paper's primary contribution.

* :mod:`repro.core.checking_period` — TB/ED interval arithmetic.
* :mod:`repro.core.masking` — capture-outcome semantics for every scheme.
* :mod:`repro.core.relay` — error-relay behaviour and cost model.
* :mod:`repro.core.architecture` — applying TIMBER to a design.
* :mod:`repro.core.structural` — gate/latch-level TIMBER circuits.
"""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "checking_period": ("CheckingPeriod", "IntervalKind"),
    "masking": ("CaptureOutcome", "timber_ff_capture", "timber_latch_capture",
                "plain_ff_capture", "razor_capture", "canary_capture",
                "soft_edge_capture", "clock_stall_capture"),
    "relay": ("ErrorRelay", "RelayCost", "relay_cost"),
    "architecture": ("TimberDesign", "TimberStyle"),
    "ortree": ("OrTree", "build_or_tree", "consolidation_latency_ps"),
    "selector": ("SelectionResult", "coverage_curve", "endpoint_weights",
                 "select_all_critical", "select_budgeted"),
    "testbench": ("TimberTestbench", "build_timber_testbench"),
})
