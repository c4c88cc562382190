"""Baseline techniques for online timing-error resilience (Table 1)."""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "registry": ("TechniqueCategory", "TABLE1_CATEGORIES", "table1_rows"),
    "architectures": ("TechniqueArchitecture", "ARCHITECTURES",
                      "architecture_by_key"),
})
