"""Adaptive round allocation: CI-width weights, floored, no RNG.

The sampler decides how many of the next round's draws each stratum
gets.  Three properties are load-bearing:

* **Deterministic.**  Weights are a pure float function of the
  estimator's counts; integer allocation uses the largest-remainder
  method with ties broken by stratum order.  No random draw anywhere —
  the journal logs the weights per round, and replaying the estimator
  over any journal prefix reproduces them bit-for-bit.
* **Floored.**  Every stratum's weight is clamped below by
  ``min_weight`` (default: half its uniform share), so a stratum whose
  interval happens to narrow early keeps receiving a trickle of draws —
  a nonstationarity hedge, and the reason the unbiased stratified
  estimate (:meth:`repro.soak.estimators.EscapeEstimator.overall`)
  keeps gaining precision in every cell.
* **Unbiased downstream.**  Allocation shifts *precision*, never the
  estimate: the estimator combines strata with uniform weights
  regardless of how many samples each received.
"""

from __future__ import annotations

import math
import typing

from repro.errors import ConfigurationError
from repro.soak.estimators import EscapeEstimator


def allocate_counts(weights: typing.Sequence[float],
                    total: int) -> list[int]:
    """Split ``total`` draws proportionally to ``weights``.

    Largest-remainder (Hamilton) apportionment: each stratum gets the
    floor of its exact share, and the leftover units go to the largest
    fractional remainders, ties broken by position.  Deterministic, and
    off by at most one unit per stratum from the exact shares.
    """
    if total < 0:
        raise ConfigurationError("total draws must be >= 0")
    if not weights or any(w < 0 for w in weights):
        raise ConfigurationError("weights must be non-negative")
    scale = sum(weights)
    if scale <= 0.0:
        raise ConfigurationError("weights must not all be zero")
    exact = [w / scale * total for w in weights]
    counts = [math.floor(x) for x in exact]
    leftover = total - sum(counts)
    order = sorted(range(len(weights)),
                   key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


class AdaptiveSampler:
    """CI-width-proportional stratum weights with a starvation floor.

    ``adaptive=False`` degrades to uniform weights through the same
    code path — the control arm for the adaptive-vs-uniform bench.
    """

    def __init__(self, strata_keys: typing.Sequence[str], *,
                 min_weight: float | None = None,
                 adaptive: bool = True) -> None:
        if not strata_keys:
            raise ConfigurationError("need at least one stratum")
        self.keys = tuple(strata_keys)
        uniform = 1.0 / len(self.keys)
        self.min_weight = (0.5 * uniform if min_weight is None
                           else float(min_weight))
        if not 0.0 <= self.min_weight <= uniform:
            raise ConfigurationError(
                f"min_weight must be in [0, {uniform}] for "
                f"{len(self.keys)} strata, got {self.min_weight}")
        self.adaptive = adaptive

    def weights(self, estimator: EscapeEstimator) -> dict[str, float]:
        """Next-round weights from the estimator's current intervals.

        Raw weights are the Wilson CI widths, normalized, then mapped
        affinely onto ``[min_weight, ...]`` so the floor holds exactly
        and the total stays 1.  All-zero widths (every stratum fully
        resolved) fall back to uniform.
        """
        uniform = 1.0 / len(self.keys)
        if not self.adaptive:
            return {key: uniform for key in self.keys}
        width = {stats.key: stats.ci_width for stats in estimator.all_stats()}
        widths = [width[key] for key in self.keys]
        scale = sum(widths)
        if scale <= 0.0:
            return {key: uniform for key in self.keys}
        spread = 1.0 - len(self.keys) * self.min_weight
        return {
            key: self.min_weight + spread * (width / scale)
            for key, width in zip(self.keys, widths)
        }

    def allocate(self, estimator: EscapeEstimator,
                 total: int) -> tuple[dict[str, float], dict[str, int]]:
        """Weights plus the integer per-stratum draw counts for a round."""
        weights = self.weights(estimator)
        counts = allocate_counts([weights[key] for key in self.keys],
                                 total)
        return weights, dict(zip(self.keys, counts))
