"""Synthetic processor timing-graph generator.

Builds a circular pipeline of flip-flop stages with register-to-register
paths whose delay structure mimics a timing-optimized processor:

* Each flip-flop ``g`` owns an *input-cone criticality* ``L(g)`` — the
  worst delay of any path terminating at it.  ``L`` is drawn through a
  quantile function anchored directly on the performance point's target
  Fig.-1 endpoint fractions, reproducing the post-synthesis "timing
  wall" (many cones packed just under the clock period).
* Exactly one fanin path per flip-flop carries the worst delay; its
  startpoint is picked with probability proportional to the source's
  start-latent raised to ``hub_gamma``, concentrating critical-path
  launches on a few hub flip-flops (register files, bypass muxes, ...).
* The remaining fanin paths fall short of ``L(g)`` by a random gap,
  modelling the sharply sub-critical side inputs of a real cone.

The circular structure (the last stage feeds the first) means critical
chains of any length exist structurally, as in a real processor with
forwarding and control loops — a prerequisite for studying multi-stage
timing errors.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import random

from repro.errors import ConfigurationError
from repro.processor.perfpoints import PerformancePoint
from repro.timing.graph import TimingGraph

#: Criticality thresholds (percent of the period) the anchors refer to.
ANCHOR_PERCENTS = (10.0, 20.0, 30.0, 40.0)


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _correlated_uniforms(rng: random.Random, rho: float,
                         ) -> tuple[float, float]:
    """Gaussian-copula correlated (end, start) latents in (0, 1)."""
    z1 = rng.gauss(0.0, 1.0)
    z2 = rho * z1 + math.sqrt(max(0.0, 1.0 - rho * rho)) * rng.gauss(0.0, 1.0)
    return _normal_cdf(z1), _normal_cdf(z2)


def _cone_quantile(point: PerformancePoint):
    """Quantile function rank-from-top -> worst-cone delay fraction.

    Piecewise-linear through the anchor points: a fraction ``a_c`` of
    flip-flops must have a cone delay of at least ``1 - c/100`` of the
    period, for each anchored ``c``.
    """
    knots = [(0.0, point.wall_frac)]
    for percent, fraction in zip(ANCHOR_PERCENTS, point.endpoint_fractions):
        knots.append((fraction, 1.0 - percent / 100.0))
    knots.append((1.0, point.floor_frac))
    ranks = [rank for rank, _delay in knots]

    def quantile(rank_from_top: float) -> float:
        # The first segment whose upper knot is at or above the rank
        # (the last knot sits at rank 1, the largest rank there is).
        upper = bisect.bisect_left(ranks, rank_from_top, 1)
        (p0, d0), (p1, d1) = knots[upper - 1], knots[upper]
        if p1 == p0:
            return d1
        t = (rank_from_top - p0) / (p1 - p0)
        return d0 + (d1 - d0) * t

    return quantile


@dataclasses.dataclass(frozen=True)
class GeneratedProcessor:
    """A generated graph plus the latents used to build it (for tests)."""

    graph: TimingGraph
    cone_delay_frac: dict[str, float]
    start_latent: dict[str, float]


def generate_processor(
    point: PerformancePoint,
    *,
    num_stages: int = 10,
    ffs_per_stage: int = 200,
    fanin: int = 6,
    seed: int = 2010,
) -> TimingGraph:
    """Generate the synthetic processor at one performance point.

    Uncached: every call draws and returns a fresh graph that the
    caller may mutate.  The Figs. 1/8 sweep tasks share one read-only
    graph per point and seed through the process warm cache instead
    (:mod:`repro.analysis.experiments`).
    """
    return generate_processor_detailed(
        point, num_stages=num_stages, ffs_per_stage=ffs_per_stage,
        fanin=fanin, seed=seed,
    ).graph


def generate_processor_detailed(
    point: PerformancePoint,
    *,
    num_stages: int = 10,
    ffs_per_stage: int = 200,
    fanin: int = 6,
    seed: int = 2010,
) -> GeneratedProcessor:
    """Like :func:`generate_processor`, also returning the latents."""
    if num_stages < 2:
        raise ConfigurationError("need at least 2 pipeline stages")
    if fanin < 1:
        raise ConfigurationError("fanin must be >= 1")
    if ffs_per_stage < fanin + 1:
        raise ConfigurationError("ffs_per_stage must exceed fanin")
    rng = random.Random(repr((seed, point.name, num_stages, ffs_per_stage,
                              fanin)))
    quantile = _cone_quantile(point)
    graph = TimingGraph(f"proc-{point.name}", point.period_ps)

    cone: dict[str, float] = {}
    start_latent: dict[str, float] = {}
    stage_ffs: list[list[str]] = []
    for stage in range(num_stages):
        names: list[str] = []
        for index in range(ffs_per_stage):
            name = f"s{stage}_ff{index}"
            graph.add_ff(name, stage)
            u_end, u_start = _correlated_uniforms(rng, point.rho)
            cone[name] = quantile(1.0 - u_end)
            start_latent[name] = u_start
            names.append(name)
        stage_ffs.append(names)

    gap_lo, gap_hi = point.gap_range
    period = point.period_ps
    triples: list[tuple[str, str, int]] = []
    for stage in range(num_stages):
        sources = stage_ffs[(stage - 1) % num_stages]
        # The same draws as ``weights=``, without re-summing per FF.
        hub_cum_weights = list(itertools.accumulate(
            start_latent[src] ** point.hub_gamma for src in sources
        ))
        for dst in stage_ffs[stage]:
            worst_frac = cone[dst]
            primary = rng.choices(sources, cum_weights=hub_cum_weights,
                                  k=1)[0]
            triples.append((
                primary, dst,
                min(int(round(worst_frac * period)), period),
            ))
            for src in rng.sample(sources, fanin - 1):
                gap = rng.uniform(gap_lo, gap_hi)
                frac = max(point.floor_frac * 0.6, worst_frac - gap)
                triples.append((src, dst, int(round(frac * period))))
    graph.add_edges(triples)
    return GeneratedProcessor(graph=graph, cone_delay_frac=cone,
                              start_latent=start_latent)


def measured_endpoint_fractions(
    graph: TimingGraph,
    percents: tuple[float, ...] = ANCHOR_PERCENTS,
) -> dict[float, float]:
    """Measured fraction of FFs terminating top-c% paths, per c.

    The generator anchors these by construction; this helper verifies
    the calibration (used by tests and the Fig.-1 bench)."""
    return {
        percent: len(graph.critical_endpoints(percent)) / graph.num_ffs
        for percent in percents
    }


def calibrate_base(
    point: PerformancePoint,
    *,
    target_end_fraction: float,
    percent_threshold: float = 20.0,
    **generate_kwargs,
) -> PerformancePoint:
    """Return a performance point recalibrated to a new target.

    With the quantile-anchored construction the endpoint fraction at
    ``percent_threshold`` is a direct parameter, so calibration is exact:
    the matching anchor is replaced (keeping the others monotone).
    """
    if not 0 < target_end_fraction < 1:
        raise ConfigurationError("target fraction must be in (0, 1)")
    if percent_threshold not in ANCHOR_PERCENTS:
        raise ConfigurationError(
            f"threshold must be one of {ANCHOR_PERCENTS}"
        )
    index = ANCHOR_PERCENTS.index(percent_threshold)
    fractions = list(point.endpoint_fractions)
    fractions[index] = target_end_fraction
    for i in range(index - 1, -1, -1):
        fractions[i] = min(fractions[i], fractions[i + 1])
    for i in range(index + 1, len(fractions)):
        fractions[i] = max(fractions[i], fractions[i - 1])
    return dataclasses.replace(
        point, endpoint_fractions=tuple(fractions),
    )
