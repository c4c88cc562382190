"""repro — reproduction of TIMBER (DATE 2010).

TIMBER masks online timing errors by borrowing time from successive
pipeline stages, relaying error information between TIMBER flip-flops so
multi-stage errors stay masked while a central controller temporarily
reduces the clock frequency.

Public API tour:

* ``repro.core`` — checking-period arithmetic, capture/masking
  semantics, error relay, TIMBER deployment on a design, structural
  (latch-level) TIMBER circuits.
* ``repro.sequential`` — behavioural TIMBER flip-flop/latch plus Razor,
  canary, and delay-compensation baselines for the event-driven
  simulator.
* ``repro.sim`` — deterministic event-driven simulator, clock
  generators, waveform capture.
* ``repro.circuit`` / ``repro.timing`` — netlists, cell library, STA,
  path enumeration, hold-fix planning, critical-path distributions.
* ``repro.pipeline`` — cycle-level pipeline simulation with capture
  policies and the central error controller.
* ``repro.processor`` — synthetic industrial-processor timing graphs
  calibrated to the paper's Fig. 1.
* ``repro.variability`` — local / fast-global / slow-global / static
  variability models.
* ``repro.power`` — cost models and deployment overheads (Fig. 8).
* ``repro.baselines`` — Table-1 taxonomy and architecture models.
* ``repro.analysis`` — experiment runners and report rendering.

Every package resolves its exported names on first use
(:mod:`repro.exports`): ``import repro`` or ``import repro.core`` loads
no submodule, and ``repro.core.TimberDesign`` imports
``repro.core.architecture`` the first time it is read.

Quickstart::

    from repro.core import CheckingPeriod, TimberDesign, TimberStyle
    from repro.processor import MEDIUM_PERFORMANCE, generate_processor

    graph = generate_processor(MEDIUM_PERFORMANCE)
    design = TimberDesign(graph=graph, style=TimberStyle.FLIP_FLOP,
                          percent_checking=30.0)
    print(design.summary())
"""

from repro.exports import lazy_exports

__version__ = "1.0.0"

__all__ = lazy_exports(__name__, {
    "core.architecture": ("TimberDesign", "TimberStyle"),
    "core.checking_period": ("CheckingPeriod", "IntervalKind"),
}) + ["__version__"]
