"""Per-scheme coverage reports for fault campaigns.

A :class:`CoverageReport` aggregates one campaign's classified faults
into the paper-facing numbers: how many violations each scheme masked
(silently, flagged, or via the relay), how many escaped as silent data
corruption, and how many flags were spurious — all keyed to the
recovered timing margin ``t = c/k`` the scheme is configured for.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import typing

from repro.campaign.outcomes import (
    ESCAPED,
    FALSE_POSITIVE,
    MASKED_ED,
    MASKED_TB,
    OUTCOME_CLASSES,
    RELAYED,
    OutcomeColumns,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.engine import CampaignConfig
    from repro.campaign.outcomes import FaultOutcome

#: Schema version of ``BENCH_campaign.json`` (documented in DESIGN.md).
CAMPAIGN_BENCH_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class CoverageReport:
    """Aggregated taxonomy counts for one (target, scheme) campaign."""

    target: str
    scheme: str
    period_ps: int
    checking_percent: float
    margin_ps: int
    num_faults: int
    counts: dict[str, int]

    @property
    def violations(self) -> int:
        """Faults that produced an actual timing violation."""
        return (self.counts[MASKED_TB] + self.counts[MASKED_ED]
                + self.counts[RELAYED] + self.counts[ESCAPED])

    @property
    def masked_total(self) -> int:
        return (self.counts[MASKED_TB] + self.counts[MASKED_ED]
                + self.counts[RELAYED])

    @property
    def coverage(self) -> float:
        """Fraction of actual violations the scheme absorbed."""
        if self.violations == 0:
            return 1.0
        return self.masked_total / self.violations

    @property
    def escape_rate(self) -> float:
        if self.violations == 0:
            return 0.0
        return self.counts[ESCAPED] / self.violations

    @property
    def false_positive_rate(self) -> float:
        if self.num_faults == 0:
            return 0.0
        return self.counts[FALSE_POSITIVE] / self.num_faults

    def to_json(self) -> dict:
        """Stable JSON form (counts plus the derived rates)."""
        return {
            "target": self.target,
            "scheme": self.scheme,
            "period_ps": self.period_ps,
            "checking_percent": self.checking_percent,
            "margin_ps": self.margin_ps,
            "num_faults": self.num_faults,
            "counts": {name: self.counts[name]
                       for name in OUTCOME_CLASSES},
            "violations": self.violations,
            "coverage": self.coverage,
            "escape_rate": self.escape_rate,
            "false_positive_rate": self.false_positive_rate,
        }


def build_report(config: "CampaignConfig",
                 outcomes: "typing.Sequence[FaultOutcome]",
                 ) -> CoverageReport:
    """Aggregate classified faults into the campaign's coverage report.

    ``outcomes`` is an :class:`~repro.campaign.outcomes.OutcomeColumns`
    block (counted with one ``bincount``) or any sequence of
    :class:`~repro.campaign.outcomes.FaultOutcome` (made into one).
    """
    counts = OutcomeColumns.concat([outcomes]).class_counts()
    return CoverageReport(
        target=config.target,
        scheme=config.scheme,
        period_ps=config.period_ps,
        checking_percent=config.checking_percent,
        margin_ps=config.margin_ps,
        num_faults=len(outcomes),
        counts=counts,
    )


def render_reports(reports: typing.Sequence[CoverageReport]) -> str:
    """Terminal table: one row per scheme, taxonomy columns + rates."""
    header = (["target", "scheme", "margin"] + list(OUTCOME_CLASSES)
              + ["coverage", "escape"])
    rows = [header]
    for report in reports:
        rows.append(
            [report.target, report.scheme, f"{report.margin_ps}ps"]
            + [str(report.counts[name]) for name in OUTCOME_CLASSES]
            + [f"{100.0 * report.coverage:.1f}%",
               f"{100.0 * report.escape_rate:.1f}%"])
    widths = [max(len(row[col]) for row in rows)
              for col in range(len(header))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in rows)


def write_campaign_bench(
    path: str | os.PathLike,
    reports: typing.Sequence[CoverageReport],
    *,
    config: "CampaignConfig | None" = None,
    telemetry: dict | None = None,
) -> pathlib.Path:
    """Write the ``BENCH_campaign.json``-schema coverage artefact.

    Layout (schema documented in DESIGN.md / EXPERIMENTS.md)::

        {"bench": "campaign", "schema_version": 1,
         "config": {...} | null,
         "reports": [<CoverageReport.to_json()>, ...],
         "telemetry": {"wall_time_s": ..., "tasks": ...} | null}
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    data: dict = {
        "bench": "campaign",
        "schema_version": CAMPAIGN_BENCH_SCHEMA,
        "config": dict(config.to_params()) if config is not None else None,
        "reports": [report.to_json() for report in reports],
        "telemetry": None,
    }
    if telemetry is not None:
        data["telemetry"] = {
            "wall_time_s": telemetry.get("wall_time_s"),
            "tasks": telemetry.get("tasks"),
            "workers": telemetry.get("workers"),
            "kernel_mode": telemetry.get("kernel_mode"),
            "cache_hits": telemetry.get("cache_hits"),
            "cache_misses": telemetry.get("cache_misses"),
            "retries": len(telemetry.get("retries", [])),
            "resumed_tasks": telemetry.get("resumed_tasks", 0),
            "poisoned": len(telemetry.get("poisoned", [])),
            "batches": telemetry.get("batches", 0),
            "warm_cache": telemetry.get("warm_cache", {}),
        }
    target.write_text(json.dumps(data, indent=2, sort_keys=False) + "\n",
                      encoding="utf-8")
    return target
