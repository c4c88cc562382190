"""Stratified, counter-based fault generation for soak runs.

A soak stream partitions the campaign fault space into *strata* — one
per (fault kind x magnitude bin) — so the estimator can resolve each
cell's escape rate independently and the sampler can aim budget at the
unresolved ones.  Two invariants make the stream replayable:

* **Per-stratum seed lanes.**  Each stratum draws from its own RNG
  lanes, derived from the campaign seed and the stratum key alone
  (:func:`stratum_lanes`), so adding, removing, or re-weighting other
  strata never perturbs a stratum's draws.
* **Counter-based draws, decoupled ids.**  Draw ``c`` of a stratum is
  a pure function of ``(lanes, c)`` via the same
  :func:`repro.campaign.faults.draw_spec` the batch population uses —
  the stratum just pins the kind list to one kind and the magnitude
  range to its bin.  The global ``fault_id`` (injection sequence
  number) is passed separately, so the id a fault gets depends on when
  the sampler scheduled it while its *shape* depends only on its
  stratum and counter.  A journal record's draw runs ``(stratum,
  counter start, count)``, numbered from its first fault id, therefore
  regenerate the exact specs with no stored fault data.

Strata are equal-probability cells of the batch population's
distribution: kinds are drawn uniformly there, and the magnitude bins
split the integer range as evenly as possible (sizes differ by at most
one), which is what licenses the estimator's uniform-weight stratified
combination.
"""

from __future__ import annotations

import dataclasses
import functools
import typing

import numpy as np

from repro.campaign.engine import CampaignConfig
from repro.campaign.faults import (
    FAULT_KINDS,
    FaultColumns,
    FaultSpec,
    draw_spec,
    draw_specs,
)
from repro.errors import ConfigurationError
from repro.exec.runner import derive_seed
from repro.kernels.rng import split64

#: Domain-separation tag for per-stratum seed lanes.
STRATUM_SEED_TAG = "soak-stratum"

#: Fault-window shape parameters, matching the batch population's
#: defaults (:func:`repro.campaign.faults.iter_population`) so a soak
#: draw and a population draw sample the same spec distribution.
MAX_DURATION_CYCLES = 3
MAX_SPAN = 3


@dataclasses.dataclass(frozen=True)
class Stratum:
    """One cell of the soak fault space.

    The key doubles as the journal/checkpoint identifier and the seed
    derivation input — it must be stable across runs.
    """

    key: str
    kind: str
    lo_ps: int
    hi_ps: int

    def to_params(self) -> list:
        """Compact JSON form shipped inside soak chunk-task params."""
        return [self.kind, self.lo_ps, self.hi_ps]

    @classmethod
    def from_params(cls, key: str, params: typing.Sequence) -> "Stratum":
        kind, lo_ps, hi_ps = params
        return cls(key=key, kind=str(kind), lo_ps=int(lo_ps),
                   hi_ps=int(hi_ps))


def magnitude_bins(lo_ps: int, hi_ps: int,
                   bins: int) -> list[tuple[int, int]]:
    """Split ``[lo_ps, hi_ps]`` into ``bins`` contiguous integer bins.

    Sizes differ by at most one (earlier bins get the remainder).  When
    the range has fewer integers than requested bins, the bin count
    silently drops to the range width — every bin stays non-empty.
    """
    if bins < 1:
        raise ConfigurationError("need at least one magnitude bin")
    if not 0 < lo_ps <= hi_ps:
        raise ConfigurationError("bad magnitude range")
    width = hi_ps - lo_ps + 1
    bins = min(bins, width)
    base, extra = divmod(width, bins)
    edges: list[tuple[int, int]] = []
    start = lo_ps
    for index in range(bins):
        size = base + (1 if index < extra else 0)
        edges.append((start, start + size - 1))
        start += size
    return edges


def build_strata(config: CampaignConfig,
                 bins: int) -> list[Stratum]:
    """The (kind x magnitude bin) strata of a soak over ``config``.

    Kind order follows ``config.effective_kinds()`` and bins ascend
    within each kind; the order is part of the run identity (it fixes
    allocation tie-breaks and journal layout).
    """
    lo_ps, hi_ps = config.magnitude_range_ps
    strata: list[Stratum] = []
    for kind in config.effective_kinds():
        for bin_lo, bin_hi in magnitude_bins(lo_ps, hi_ps, bins):
            strata.append(Stratum(
                key=f"{kind}/{bin_lo}-{bin_hi}",
                kind=kind, lo_ps=bin_lo, hi_ps=bin_hi,
            ))
    return strata


def stratum_lanes(config: CampaignConfig,
                  key: str) -> tuple[int, int]:
    """The RNG lanes of one stratum's draw stream."""
    return _lanes(config.seed, key)


@functools.lru_cache(maxsize=1024)
def _lanes(seed: int, key: str) -> tuple[int, int]:
    # Hashed once per (seed, stratum), not once per draw block.
    return split64(derive_seed(seed, STRATUM_SEED_TAG, key))


def spec_for_draw(config: CampaignConfig, stratum: Stratum,
                  counter: int, fault_id: int) -> FaultSpec:
    """Regenerate draw ``counter`` of ``stratum`` — pure, id attached.

    The driver uses it when replaying or verifying a journal; the chunk
    task materializes its draws with the vector twin
    :func:`specs_for_draws`, which a property test pins to this
    function draw for draw.  ``config`` already passed
    the population checks (:func:`~repro.campaign.faults.
    check_population`), so the fault window always fits.
    """
    return draw_spec(
        stratum_lanes(config, stratum.key),
        counter,
        sites=config.sites(),
        kinds=(stratum.kind,),
        lo_ps=stratum.lo_ps,
        hi_ps=stratum.hi_ps,
        last_start=config.num_cycles - MAX_DURATION_CYCLES,
        max_duration_cycles=MAX_DURATION_CYCLES,
        max_span=MAX_SPAN,
        fault_id=fault_id,
    )


def specs_for_draws(config: CampaignConfig,
                    strata: typing.Mapping[str, Stratum],
                    runs: typing.Iterable[typing.Sequence]
                    ) -> FaultColumns:
    """:func:`spec_for_draw` over draw runs, as one column block.

    A run ``(stratum, counter_start, count, fault_id_start)`` stands
    for ``count`` draws of one stratum with consecutive counters and
    fault ids — the form a round allocates and journals its draws in.
    The runs expand with ``np.repeat`` into one
    :func:`~repro.campaign.faults.draw_specs` call, each draw with its
    own stratum's seed lanes, kind and magnitude bin; it is
    bit-identical to the scalar :func:`~repro.campaign.faults.
    draw_spec` loop that :func:`spec_for_draw` runs.
    """
    # Per run: seed lanes, kind index, magnitude bin, and the run.
    rows = np.array(
        [(*stratum_lanes(config, key), FAULT_KINDS.index(strata[key].kind),
          strata[key].lo_ps, strata[key].hi_ps, counter, count, fault_id)
         for key, counter, count, fault_id in runs],
        dtype=np.int64).reshape(-1, 8)
    count = rows[:, 6]
    offsets = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                 count)
    table = np.repeat(rows, count, axis=0)
    return draw_specs(
        (table[:, 0], table[:, 1]),
        table[:, 5] + offsets,
        table[:, 7] + offsets,
        sites=config.sites(),
        kinds=table[:, 2:3],
        lo_ps=table[:, 3],
        hi_ps=table[:, 4],
        last_start=config.num_cycles - MAX_DURATION_CYCLES,
        max_duration_cycles=MAX_DURATION_CYCLES,
        max_span=MAX_SPAN,
    )
