"""Metrics, shared experiment runners, and table rendering."""

from repro.exports import lazy_exports

__all__ = lazy_exports(__name__, {
    "tables": ("format_table", "format_series"),
    "report": ("ReportSection", "collect_sections", "generate_report"),
    "sensitivity": ("SensitivityPoint", "SensitivityResult",
                    "overhead_sensitivity"),
    "metrics": ("energy_per_work", "failures_per_billion_cycles",
                "masked_fraction", "summarize_results"),
    "experiments": ("ResiliencePoint", "fig1_experiment", "fig8_experiment",
                    "resilience_sweep", "throughput_sweep",
                    "two_stage_waveform_experiment"),
})
