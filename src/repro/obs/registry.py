"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the counting half of :mod:`repro.obs` (spans live in
:mod:`repro.obs.tracing`).  Design constraints, in priority order:

* **Free when off.**  Observability is disabled by default and the
  instrumented code paths are hot (the block kernels, the event loop),
  so a disabled metric call must not allocate: instrument sites bind
  their series once at import/setup time (``family.labels(...)``), and
  a bound series' ``inc``/``set``/``observe`` is a single flag check
  when the registry is disabled.  Anything costlier than the bound call
  (computing a numpy sum to feed a counter, formatting a label value)
  must be guarded by ``registry.enabled`` at the call site.
* **Deterministic values.**  Metrics carry no timestamps; a counter or
  integer-valued histogram fed from simulation state is bit-identical
  run to run under a fixed seed, which is what lets CI diff Prometheus
  exports across kernel modes.  Timing metrics are segregated by the
  ``_seconds`` name suffix so determinism checks can exclude them
  (see :func:`repro.obs.semantic_snapshot`).
* **Mergeable.**  Worker processes accumulate into their own registry
  copy; :func:`snapshot_delta` and :meth:`MetricsRegistry.merge` ship
  the per-task increments back to the parent (counters and histogram
  buckets add, gauges take the maximum — both order-independent, so a
  parallel sweep merges to the same totals as a serial one).

The registry is not thread-safe; the simulators are single-threaded per
process and cross-process aggregation goes through snapshots.
"""

from __future__ import annotations

import bisect
import typing

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds (generic latency-ish spread).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)

_KINDS = ("counter", "gauge", "histogram")


class Counter:
    """A monotonically increasing count (one labelled series)."""

    __slots__ = ("_registry", "labels", "value")
    kind = "counter"

    def __init__(self, registry: "MetricsRegistry",
                 labels: dict[str, str]) -> None:
        self._registry = registry
        self.labels = labels
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if self._registry._enabled:
            self.value += amount


class Gauge:
    """A value that can go up and down (one labelled series)."""

    __slots__ = ("_registry", "labels", "value")
    kind = "gauge"

    def __init__(self, registry: "MetricsRegistry",
                 labels: dict[str, str]) -> None:
        self._registry = registry
        self.labels = labels
        self.value = 0

    def set(self, value: int | float) -> None:
        if self._registry._enabled:
            self.value = value

    def inc(self, amount: int | float = 1) -> None:
        if self._registry._enabled:
            self.value += amount

    def dec(self, amount: int | float = 1) -> None:
        if self._registry._enabled:
            self.value -= amount


class Histogram:
    """Fixed-bucket distribution (one labelled series).

    ``counts[i]`` is the number of observations with
    ``value <= edges[i]`` exclusive of earlier buckets (raw, not
    cumulative); ``counts[-1]`` is the overflow (+Inf) bucket.  The
    exporter renders the cumulative Prometheus form.
    """

    __slots__ = ("_registry", "labels", "edges", "counts", "sum")
    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry",
                 labels: dict[str, str],
                 edges: tuple[float, ...]) -> None:
        self._registry = registry
        self.labels = labels
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum: int | float = 0

    def observe(self, value: int | float) -> None:
        if self._registry._enabled:
            self.sum += value
            self.counts[bisect.bisect_left(self.edges, value)] += 1

    def observe_many(self, values: typing.Any) -> None:
        """:meth:`observe` every value of a numpy array, in bulk.

        ``np.searchsorted(side="left")`` places each value in the
        bucket ``bisect_left`` would, so the counts match one
        :meth:`observe` per value.
        """
        if self._registry._enabled and len(values):
            import numpy as np

            self.sum += values.sum().item()
            placed = np.bincount(
                np.searchsorted(self.edges, values, side="left"),
                minlength=len(self.counts))
            for index, count in enumerate(placed.tolist()):
                self.counts[index] += count


class MetricFamily:
    """All series of one metric name, across label combinations."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str,
                 help: str, labelnames: tuple[str, ...],
                 buckets: tuple[float, ...] | None) -> None:
        self.registry = registry
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._series: dict[tuple[str, ...], typing.Any] = {}

    def labels(self, **labelvalues: typing.Any):
        """The series for one label combination (created once, cached).

        Bind the result at setup time and call ``inc``/``set``/
        ``observe`` on it in hot code — the lookup here allocates and
        must stay out of disabled-path loops.
        """
        if set(labelvalues) != set(self.labelnames):
            raise ConfigurationError(
                f"metric {self.name!r} takes labels "
                f"{list(self.labelnames)}, got {sorted(labelvalues)}")
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        series = self._series.get(key)
        if series is None:
            labels = dict(zip(self.labelnames, key))
            if self.kind == "counter":
                series = Counter(self.registry, labels)
            elif self.kind == "gauge":
                series = Gauge(self.registry, labels)
            else:
                series = Histogram(self.registry, labels,
                                   self.buckets or DEFAULT_BUCKETS)
            self._series[key] = series
        return series

    def series(self) -> list:
        """All live series, sorted by label values (deterministic)."""
        return [self._series[key] for key in sorted(self._series)]


class MetricsRegistry:
    """Owns every metric family of one process.

    Families are registered idempotently: re-registering the same name
    with the same kind/labels/buckets returns the existing family (so
    module-level instrument sites survive repeated imports), while a
    conflicting re-registration raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, enabled: bool = False) -> None:
        self._enabled = enabled
        self._families: dict[str, MetricFamily] = {}

    # -- lifecycle ---------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def reset(self) -> None:
        """Zero every series (families and bound handles stay valid)."""
        for family in self._families.values():
            for series in family._series.values():
                if family.kind == "histogram":
                    series.counts = [0] * len(series.counts)
                    series.sum = 0
                else:
                    series.value = 0

    # -- registration ------------------------------------------------------
    def _register(self, name: str, kind: str, help: str,
                  labelnames: typing.Sequence[str],
                  buckets: tuple[float, ...] | None = None) -> MetricFamily:
        assert kind in _KINDS
        names = tuple(labelnames)
        existing = self._families.get(name)
        if existing is not None:
            if (existing.kind != kind or existing.labelnames != names
                    or existing.buckets != buckets):
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind} with labels "
                    f"{list(existing.labelnames)}")
            return existing
        family = MetricFamily(self, name, kind, help, names, buckets)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labelnames: typing.Sequence[str] = ()) -> MetricFamily:
        return self._register(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: typing.Sequence[str] = ()) -> MetricFamily:
        return self._register(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: typing.Sequence[str] = (),
                  buckets: typing.Sequence[float] = DEFAULT_BUCKETS,
                  ) -> MetricFamily:
        edges = tuple(sorted(buckets))
        if not edges:
            raise ConfigurationError("histogram needs at least one bucket")
        return self._register(name, "histogram", help, labelnames, edges)

    def family(self, name: str) -> MetricFamily:
        """The registered family ``name`` (the program's own families are
        declared in :mod:`repro.obs.families`)."""
        family = self._families.get(name)
        if family is None:
            raise ConfigurationError(f"metric {name!r} is not declared")
        return family

    # -- inspection --------------------------------------------------------
    def families(self) -> list[MetricFamily]:
        """Every family, sorted by name (deterministic export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> dict:
        """JSON-able view of every live series.

        ``{name: {"kind", "help", "labelnames", "buckets"?, "series":
        [{"labels", "value" | ("sum", "counts")}, ...]}}`` with series
        sorted by label values, so two registries holding the same
        values snapshot byte-identically.
        """
        out: dict[str, dict] = {}
        for family in self.families():
            series_out = []
            for series in family.series():
                entry: dict[str, typing.Any] = {"labels": series.labels}
                if family.kind == "histogram":
                    entry["sum"] = series.sum
                    entry["counts"] = list(series.counts)
                else:
                    entry["value"] = series.value
                series_out.append(entry)
            record: dict[str, typing.Any] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": series_out,
            }
            if family.buckets is not None:
                record["buckets"] = list(family.buckets)
            out[family.name] = record
        return out

    def merge(self, snapshot: typing.Mapping) -> None:
        """Fold a snapshot (typically a worker delta) into this registry.

        Counters and histogram buckets add; gauges take the maximum —
        both commutative, so merge order (i.e. task completion order)
        never changes the totals.  Works regardless of the enabled
        flag: merging is an explicit aggregation step, not
        instrumentation.
        """
        for name, record in snapshot.items():
            family = self._register(
                name, record["kind"], record.get("help", ""),
                tuple(record.get("labelnames", ())),
                tuple(record["buckets"]) if record.get("buckets")
                else None)
            for entry in record["series"]:
                series = family.labels(**entry["labels"])
                if family.kind == "histogram":
                    series.sum += entry["sum"]
                    counts = entry["counts"]
                    if len(counts) != len(series.counts):
                        raise ConfigurationError(
                            f"histogram {name!r} bucket mismatch on merge")
                    for i, count in enumerate(counts):
                        series.counts[i] += count
                elif family.kind == "counter":
                    series.value += entry["value"]
                else:
                    series.value = max(series.value, entry["value"])


def snapshot_delta(before: typing.Mapping,
                   after: typing.Mapping) -> dict:
    """The increments between two snapshots of one registry.

    Counter values and histogram sums/counts subtract; gauges report
    the ``after`` value.  Series present only in ``after`` pass through
    whole; zero-delta series are dropped, so an idle task ships an
    empty mapping across the process-pool boundary.
    """
    delta: dict[str, dict] = {}
    for name, record in after.items():
        prior = {
            tuple(sorted(entry["labels"].items())): entry
            for entry in before.get(name, {}).get("series", ())
        }
        series_out = []
        for entry in record["series"]:
            base = prior.get(tuple(sorted(entry["labels"].items())))
            if record["kind"] == "histogram":
                sum_d = entry["sum"] - (base["sum"] if base else 0)
                counts_d = [
                    count - (base["counts"][i] if base else 0)
                    for i, count in enumerate(entry["counts"])
                ]
                if not any(counts_d):
                    continue
                series_out.append({"labels": entry["labels"],
                                   "sum": sum_d, "counts": counts_d})
            elif record["kind"] == "counter":
                value = entry["value"] - (base["value"] if base else 0)
                if value:
                    series_out.append({"labels": entry["labels"],
                                       "value": value})
            else:
                series_out.append({"labels": entry["labels"],
                                   "value": entry["value"]})
        if series_out:
            delta[name] = {**{k: v for k, v in record.items()
                              if k != "series"},
                           "series": series_out}
    return delta
