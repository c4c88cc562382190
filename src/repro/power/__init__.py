"""Power and area models and design-level overhead computation."""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "models": ("DesignCostModel", "DesignCosts"),
    "overhead": ("DeploymentOverhead", "deployment_overhead"),
    "voltage": ("EnergySavings", "VoltageModel", "margin_to_energy_savings"),
})
