"""Every metric family the program declares, in one table.

:mod:`repro.obs` declares them all on the process registry when it is
imported, so the families a run exports do not depend on which modules
it happened to import: a campaign that never loads the event-driven
simulator still exports ``repro_sim_events_total`` (at zero).  Each
instrumented module binds its series with
``obs.REGISTRY.family(name).labels(...)``; the comment above each group
names that module.  Families without labels get their one series here,
as they did when each module declared its own.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry


class Family(typing.NamedTuple):
    kind: str
    name: str
    help: str
    labelnames: tuple[str, ...] = ()
    buckets: tuple[float, ...] | None = None


FAMILIES: tuple[Family, ...] = (
    # repro.exec.telemetry: mirrors of the exec tally.
    Family("counter", "repro_exec_tasks_total",
           "Sweep task outcomes by disposition", ("status",)),
    Family("counter", "repro_exec_retries_total", "Task retry attempts"),
    Family("counter", "repro_exec_crashes_total", "Definite worker deaths"),
    Family("counter", "repro_exec_serial_fallbacks_total",
           "Process-pool failures that fell back to serial execution"),
    Family("counter", "repro_exec_events_processed_total",
           "Simulated-work units reported by executed tasks"),
    Family("gauge", "repro_exec_workers",
           "Worker-pool size of the most recent sweep"),
    Family("histogram", "repro_exec_task_seconds",
           "Wall time per executed (non-cached, non-resumed) task", (),
           (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
            60.0)),
    Family("counter", "repro_exec_batches_total",
           "Task batches dispatched, to pool workers or in-parent"),
    Family("histogram", "repro_exec_batch_tasks",
           "Tasks per dispatched batch", (),
           (1, 2, 4, 8, 16, 32, 64, 128, 256)),
    Family("counter", "repro_exec_warm_cache_total",
           "Warm-cache lookups inside workers, by artefact kind and result",
           ("kind", "result")),
    # repro.campaign.engine: per-fault outcomes (semantic), latency
    # (wall-clock) and snapshot-fork reach.
    Family("counter", "repro_campaign_outcomes_total",
           "Classified fault outcomes",
           ("target", "scheme", "classification")),
    Family("histogram", "repro_campaign_fault_seconds",
           "Wall time to simulate and classify one fault", (),
           (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
            0.5, 1.0)),
    Family("counter", "repro_campaign_prefix_cycles_saved_total",
           "Fault-free prefix cycles skipped by forking from a trajectory "
           "snapshot"),
    Family("histogram", "repro_campaign_fork_window_cycles",
           "Cycles simulated per snapshot-forked fault evaluation", (),
           (8, 16, 32, 64, 128, 256, 512, 1024, 2048)),
    # repro.soak.driver: rounds, faults per stratum, CI width and round
    # latency.
    Family("counter", "repro_soak_rounds_total", "Completed soak rounds"),
    Family("counter", "repro_soak_faults_total",
           "Soak faults evaluated, by stratum", ("stratum",)),
    Family("gauge", "repro_soak_widest_ci_width",
           "Widest per-stratum escape-rate Wilson CI width"),
    Family("histogram", "repro_soak_round_seconds",
           "Wall time per soak round (draw + dispatch + update + journal)",
           (), (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
                30.0)),
    # repro.kernels.fault_batch: lane-machine internals.
    Family("counter", "repro_kernel_fault_lanes_total",
           "Campaign fault lanes by evaluation path", ("kernel", "path")),
    Family("counter", "repro_kernel_lane_steps_total",
           "Batched fault-lane window steps the lane machine ran or "
           "retired", ("kernel", "path")),
    Family("histogram", "repro_kernel_lane_group_faults",
           "Fault lanes evaluated together per batched fork-window group",
           ("kernel",), (1, 2, 4, 8, 16, 32, 64)),
    # repro.kernels.schedule: screened-walk internals.
    Family("counter", "repro_kernel_cycles_screened_total",
           "Cycles retired by the block screen without scalar replay",
           ("kernel",)),
    Family("counter", "repro_kernel_cycles_replayed_total",
           "Cycles replayed through the scalar state machine, by reason",
           ("kernel", "reason")),
    Family("histogram", "repro_kernel_batch_cycles",
           "Block sizes fed to the screen (adaptive block sizer output)",
           ("kernel",), (64, 128, 256, 512, 1024, 2048, 4096, 8192)),
    # repro.pipeline.pipeline: non-clean linear-pipeline captures.
    Family("counter", "repro_pipeline_outcomes_total",
           "Non-clean pipeline capture outcomes", ("outcome",)),
    # repro.pipeline.graph_sim: whole-graph captures and relay depth.
    Family("counter", "repro_graph_masked_total",
           "Masked graph captures by checking-period interval class",
           ("interval",)),
    Family("counter", "repro_graph_relayed_total",
           "Masked captures whose >=2-interval borrow proves an upstream "
           "relay increment"),
    Family("counter", "repro_graph_escaped_total",
           "Failed (unmasked) graph captures", ("protected",)),
    Family("histogram", "repro_graph_relay_depth_intervals",
           "Borrowed intervals per masked capture (select-chain depth)",
           (), (1, 2, 3, 4, 6, 8)),
    # repro.sim.engine: event-driven simulator activity.
    Family("counter", "repro_sim_events_total",
           "Events dispatched by Simulator.run()"),
    Family("counter", "repro_sim_toggles_total",
           "Signal toggles applied (initial X->known settles excluded)"),
    Family("gauge", "repro_sim_queue_depth",
           "Live events still queued after the most recent run()"),
    # repro.core.relay: event-driven error-relay activity.
    Family("counter", "repro_relay_selects_applied_total",
           "Non-zero selects applied by the event-driven error relay"),
    Family("histogram", "repro_relay_select_depth_intervals",
           "Select values applied by the event-driven relay (non-zero "
           "only)", (), (1, 2, 3, 4, 6, 8)),
)


def declare(registry: "MetricsRegistry") -> None:
    """Register every family of :data:`FAMILIES` on ``registry``."""
    for spec in FAMILIES:
        if spec.kind == "histogram":
            family = registry.histogram(spec.name, spec.help,
                                        spec.labelnames, spec.buckets)
        else:
            family = getattr(registry, spec.kind)(
                spec.name, spec.help, spec.labelnames)
        if not spec.labelnames:
            family.labels()
