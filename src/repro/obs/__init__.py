"""repro.obs — unified observability: metrics, span tracing, exporters.

One process-wide :class:`~repro.obs.registry.MetricsRegistry`
(:data:`REGISTRY`) and one :class:`~repro.obs.tracing.Tracer`
(:data:`TRACER`) serve every instrumented layer — the event-driven
simulator, the block kernels, the cycle-level pipeline/graph
simulations, the fault-campaign engine, and the exec layer.  All of it
is **off by default**: disabled metric calls are a single flag check on
a pre-bound series (no allocation), and disabled ``trace_span`` calls
return a shared no-op context manager.

Enablement is process-wide, via :func:`enable` or the ``REPRO_OBS=1``
environment variable (checked at import, which is how process-pool
workers inherit the setting — the CLI's ``--obs-out`` sets both).
Worker processes accumulate into their own registry copy; the exec
layer ships per-task snapshot deltas back and merges them, so a
parallel sweep's counters equal a serial run's.

Determinism contract (pinned by ``tests/property/test_obs_props.py``):

* *Semantic* metrics — everything outside the ``repro_exec_`` and
  ``repro_kernel_`` namespaces whose name does not end in ``_seconds``
  — are pure functions of the simulated work, so a fixed seed gives
  bit-identical values across runs **and across kernel modes**
  (``REPRO_SCALAR_KERNELS=1`` vs vectorized).
* ``repro_kernel_*`` metrics describe vector-path internals (screen
  hit rates, batch sizes) and are zero on scalar runs; ``repro_exec_*``
  metrics depend on cache/checkpoint state; ``*_seconds`` histograms
  and span timestamps are wall-clock.  None of these participate in
  byte-identity checks.
"""

from __future__ import annotations

import os
import typing

from repro.obs.health import (
    HEALTH_SCHEMA_VERSION,
    HealthFold,
    RunHealth,
    fold_events,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    snapshot_delta,
)
from repro.obs.tracing import NOOP_SPAN, Span, Tracer

#: Environment variable enabling observability process-wide.
OBS_ENV = "REPRO_OBS"

#: The process-wide metrics registry every instrument site binds to.
REGISTRY = MetricsRegistry()

#: The process-wide span tracer behind :func:`trace_span`.
TRACER = Tracer()

#: Metric-name namespaces and suffixes excluded from the determinism
#: contract (see the module docstring).
NON_SEMANTIC_PREFIXES = ("repro_exec_", "repro_kernel_")
NON_SEMANTIC_SUFFIXES = ("_seconds",)


def enable() -> None:
    """Turn on metrics collection and span tracing for this process."""
    REGISTRY.enable()
    TRACER.enable()


def disable() -> None:
    REGISTRY.disable()
    TRACER.disable()


def enabled() -> bool:
    """Whether metrics collection is on (the common instrument guard)."""
    return REGISTRY.enabled


def tracing_enabled() -> bool:
    return TRACER.enabled


def reset() -> None:
    """Zero all metrics and drop all spans (handles stay valid)."""
    REGISTRY.reset()
    TRACER.reset()


def trace_span(name: str, **attrs: typing.Any):
    """Context manager timing one region on the process tracer."""
    return TRACER.span(name, **attrs)


def env_enabled() -> bool:
    """Whether ``REPRO_OBS`` requests observability."""
    return os.environ.get(OBS_ENV, "0") not in ("", "0")


def begin_capture() -> tuple | None:
    """Open a metrics/spans capture window on the process registry.

    Returns an opaque token for :func:`end_capture`, or ``None`` when
    observability is off (the common case — callers skip the end call).
    The exec layer brackets each worker-side *batch* with one capture
    so the deltas ship across the pool boundary once per batch rather
    than once per task.
    """
    if not REGISTRY.enabled:
        return None
    return (REGISTRY.snapshot(), len(TRACER.spans))


def end_capture(token: tuple) -> tuple[dict, list]:
    """Close a capture window: (metric deltas, span records) since.

    Records carry this process's wall-clock anchor so the parent can
    align them with its own spans on one absolute timeline.
    """
    metrics_before, spans_before = token
    delta = snapshot_delta(metrics_before, REGISTRY.snapshot())
    records = [span.to_record(TRACER.wall_anchor_ns)
               for span in TRACER.spans[spans_before:]]
    return delta, records


def semantic_snapshot(
    registry: MetricsRegistry | None = None,
) -> dict:
    """The snapshot restricted to determinism-contract metrics.

    This is the view byte-identity checks compare: scalar and vector
    kernel runs of the same seeded workload must agree on it exactly.
    """
    snap = (registry or REGISTRY).snapshot()
    return {
        name: record for name, record in snap.items()
        if not name.startswith(NON_SEMANTIC_PREFIXES)
        and not name.endswith(NON_SEMANTIC_SUFFIXES)
    }


if env_enabled():  # pragma: no cover - exercised via subprocess workers
    enable()


__all__ = [
    "DEFAULT_BUCKETS",
    "HEALTH_SCHEMA_VERSION",
    "HealthFold",
    "MetricsRegistry",
    "RunHealth",
    "NON_SEMANTIC_PREFIXES",
    "NON_SEMANTIC_SUFFIXES",
    "NOOP_SPAN",
    "OBS_ENV",
    "REGISTRY",
    "Span",
    "TRACER",
    "Tracer",
    "begin_capture",
    "disable",
    "end_capture",
    "enable",
    "enabled",
    "env_enabled",
    "fold_events",
    "reset",
    "semantic_snapshot",
    "snapshot_delta",
    "trace_span",
    "tracing_enabled",
]
