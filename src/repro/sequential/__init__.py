"""Behavioural sequential elements for the event-driven simulator.

Each element attaches to a :class:`~repro.sim.engine.Simulator`, watches a
clock and a data signal, and drives an output (plus error signals where
the element detects timing errors).  The TIMBER elements implement the
paper's Sec. 5 semantics; Razor, canary, and delay-compensation flip-flops
implement the baselines of Table 1.
"""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "base": ("ClockedElement", "TimingCheck"),
    "flipflop": ("DFlipFlop",),
    "latch": ("DLatch", "PulseGatedLatch"),
    "timber_ff": ("TimberFlipFlop",),
    "timber_latch": ("TimberLatch",),
    "razor": ("RazorFlipFlop",),
    "canary": ("CanaryFlipFlop",),
    "dcf": ("DelayCompensationFlipFlop",),
    "softedge": ("SoftEdgeFlipFlop",),
})
