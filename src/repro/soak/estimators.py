"""Incremental per-stratum escape-rate estimation with Wilson CIs.

The estimator is the soak loop's only persistent statistical state: a
plain ``{stratum key: {outcome class: count}}`` table, updated once per
completed round and serialized verbatim into checkpoints (so resume is
a dict copy, not a re-fit).  Everything derived — rates, intervals,
the stratified overall estimate — is recomputed on demand from the
counts, which keeps the state tiny and the arithmetic auditable.

Two estimation choices matter for the soak contract:

* **Per-fault escape rate.**  ``p̂ = escaped / faults injected`` (not
  per *violation*): the denominator grows by exactly the round
  allocation, so every stratum's interval narrows monotonically with
  budget — the property the adaptive sampler's stopping rule
  (``target_ci_width``) relies on.
* **Uniform-weight stratified combination.**  The overall estimate is
  ``mean_s(p̂_s)`` over strata — each stratum contributes its *rate*,
  never its sample count — so the adaptive sampler can allocate draws
  however it likes without biasing the headline number.  (The strata
  partition the fault space into equal-probability cells by
  construction: kinds are drawn uniformly and magnitude bins split the
  range evenly, see :mod:`repro.soak.generator`.)

Wilson score intervals are used instead of normal (Wald) intervals
because soak strata routinely sit at p̂ = 0 for a long time — Wald
collapses to width zero there and would starve exactly the strata that
need budget; Wilson stays honest at the boundaries.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.campaign.outcomes import ESCAPED, OUTCOME_CLASSES
from repro.errors import ConfigurationError

#: z for a 95% interval.  Fixed rather than configurable: the width is
#: only ever *compared* (sampler weights, stop rule), so the level is a
#: convention, and baking it in keeps journal replay byte-identical.
WILSON_Z = 1.959963984540054


def wilson_interval(successes: int, n: int,
                    z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns the vacuous ``(0.0, 1.0)`` when ``n == 0`` — an unsampled
    stratum has maximal width, which is what routes first-round budget
    everywhere.  Pure float arithmetic on IEEE doubles: bit-identical
    across processes, which the journal's logged weights rely on.
    """
    if n < 0 or successes < 0 or successes > n:
        raise ConfigurationError(
            f"bad binomial counts: {successes}/{n}")
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n
                                   + z2 / (4.0 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


@dataclasses.dataclass(frozen=True)
class StratumStats:
    """Derived view of one stratum's counts."""

    key: str
    counts: dict[str, int]
    n: int
    escaped: int
    escape_rate: float
    ci_low: float
    ci_high: float

    @property
    def ci_width(self) -> float:
        return self.ci_high - self.ci_low


class EscapeEstimator:
    """Streaming per-stratum outcome counts plus the derived estimates.

    The stratum set is fixed at construction (it is part of the soak
    run's identity); updates add per-class counts for one stratum.
    """

    def __init__(self, strata_keys: typing.Sequence[str]) -> None:
        if not strata_keys:
            raise ConfigurationError("need at least one stratum")
        if len(set(strata_keys)) != len(strata_keys):
            raise ConfigurationError("duplicate stratum keys")
        self.keys: tuple[str, ...] = tuple(strata_keys)
        self._counts: dict[str, dict[str, int]] = {
            key: {} for key in self.keys}
        #: :meth:`all_stats` of the current counts (dropped on update).
        self._stats: tuple[StratumStats, ...] | None = None

    # -- updates -----------------------------------------------------------
    def update(self, key: str, classification: str,
               count: int = 1) -> None:
        """Add ``count`` outcomes of one class to one stratum."""
        self.update_counts(key, {classification: count})

    def update_counts(self, key: str,
                      counts: typing.Mapping[str, int]) -> None:
        """Merge a per-class count table (journal replay fast path).

        An unknown class raises before any count of the table merges.
        """
        row = self._counts[key]
        for classification in counts:
            if classification not in OUTCOME_CLASSES:
                raise ConfigurationError(
                    f"unknown outcome class {classification!r}")
        for classification, count in counts.items():
            row[classification] = row.get(classification, 0) + int(count)
        self._stats = None

    # -- derived -----------------------------------------------------------
    def stats(self, key: str) -> StratumStats:
        counts = dict(self._counts[key])
        n = sum(counts.values())
        escaped = counts.get(ESCAPED, 0)
        low, high = wilson_interval(escaped, n)
        return StratumStats(
            key=key, counts=counts, n=n, escaped=escaped,
            escape_rate=(escaped / n if n else 0.0),
            ci_low=low, ci_high=high,
        )

    def all_stats(self) -> list[StratumStats]:
        """Every stratum's stats, computed once per count change (the
        same :class:`StratumStats` objects until then: read-only)."""
        if self._stats is None:
            self._stats = tuple(self.stats(key) for key in self.keys)
        return list(self._stats)

    def total_faults(self) -> int:
        return sum(sum(row.values()) for row in self._counts.values())

    def widest(self) -> StratumStats:
        """The stratum with the widest interval (ties: key order)."""
        return max(self.all_stats(), key=lambda stats: stats.ci_width)

    def overall(self) -> dict:
        """Uniform-weight stratified escape estimate (see module doc).

        The half-width combines per-stratum Wilson half-widths as
        independent errors (``sqrt(sum (pi_s * h_s)^2)``) — a summary
        for the status line and benches, not a formal interval.
        """
        stats = self.all_stats()
        pi = 1.0 / len(stats)
        estimate = sum(s.escape_rate for s in stats) * pi
        var = sum((pi * (s.ci_width / 2.0)) ** 2 for s in stats)
        half = math.sqrt(var)
        return {
            "escape_rate": estimate,
            "ci_half_width": half,
            "ci_low": max(0.0, estimate - half),
            "ci_high": min(1.0, estimate + half),
            "n": self.total_faults(),
        }

    # -- (de)serialization -------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, int]]:
        """JSON-able deep copy of the counts (checkpoint payload)."""
        return {key: dict(row) for key, row in self._counts.items()}

    @classmethod
    def restore(cls, strata_keys: typing.Sequence[str],
                snapshot: typing.Mapping[str, typing.Mapping[str, int]],
                ) -> "EscapeEstimator":
        estimator = cls(strata_keys)
        for key, row in snapshot.items():
            if key not in estimator._counts:
                raise ConfigurationError(
                    f"snapshot has unknown stratum {key!r}")
            estimator.update_counts(key, row)
        return estimator
