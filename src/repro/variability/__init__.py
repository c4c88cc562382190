"""Dynamic and static variability models.

A variability model maps ``(cycle, path_id)`` to a multiplicative delay
factor.  The taxonomy follows the paper's Table 1:

* **local dynamic** (:class:`LocalVariation`) — uncorrelated per-path
  per-cycle jitter (crosstalk, local IR noise);
* **fast global dynamic** (:class:`VoltageDroopVariation`) — chip-wide
  voltage droop events lasting a few cycles;
* **slow global dynamic** (:class:`TemperatureDriftVariation`,
  :class:`AgingVariation`) — temperature cycles and wearout that change
  over thousands of cycles or more;
* **static** (:class:`ProcessVariation`) — per-path process spread fixed
  at manufacturing (addressed by speed binning, not TIMBER, but needed
  as context).
"""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "base": ("VariabilityModel", "ConstantVariation", "CompositeVariation"),
    "local": ("LocalVariation",),
    "global_fast": ("DroopEvent", "VoltageDroopVariation"),
    "global_slow": ("TemperatureDriftVariation", "AgingVariation"),
    "process": ("ProcessVariation",),
})
