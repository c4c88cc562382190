"""Seeded fault populations and the simulator-facing overlay.

A campaign is defined by a *population* of :class:`FaultSpec` records,
generated deterministically from a root seed with the same counter-based
mixer the simulators use (:mod:`repro.kernels.rng`): fault ``i``'s shape
depends only on ``(seed, i)``, so slicing the population into chunks for
the exec layer — or regenerating it inside a worker process — always
yields the same faults.

Populations are drawn as :class:`FaultColumns` blocks: one int array per
:class:`FaultSpec` field (kind and site as indices), filled by one
vector draw (:func:`draw_specs`, bit-identical to the scalar
:func:`draw_spec`).  The batched campaign path plans and classifies
whole blocks as arrays; a block is also a sequence of
:class:`FaultSpec`, materialized one record at a time only where a
per-fault record is consumed (forked replays, the netlist target,
:func:`iter_population`'s stream).

Four fault kinds cover the dynamic-error sources the TIMBER paper and
the fault-campaign literature care about:

* ``seu`` — a single-cycle transient at one site (particle strike);
* ``delay`` — a multi-cycle slowdown of one site (crosstalk, resistive
  defect, local heating);
* ``droop`` — a multi-cycle slowdown of *every* site (supply droop);
* ``correlated`` — a multi-cycle slowdown spanning several consecutive
  sites, the pattern that exercises TIMBER's error relay.

:class:`FaultOverlay` translates a population slice into the narrow
interface the cycle-level simulators consume (see
:mod:`repro.pipeline.hooks`): extra delay per (cycle, site), plus an
active-cycle mask so the vector kernels force injected cycles onto the
scalar replay path.
"""

from __future__ import annotations

import bisect
import dataclasses
import typing

import numpy as np

from repro.columns import ColumnBlock
from repro.errors import ConfigurationError
from repro.kernels.rng import M32, key_id, mix32, mix32_batch, split64

FAULT_KINDS = ("seu", "delay", "droop", "correlated")
#: Kind indices (:class:`FaultColumns` stores kinds by position).
_SEU, _DROOP, _CORRELATED = (FAULT_KINDS.index(kind)
                             for kind in ("seu", "droop", "correlated"))

#: Domain-separation salt for the population stream.
_POPULATION_SALT = key_id("campaign-population")

#: Per-field lanes, so every attribute of a fault draws independently.
_FIELD_KIND = 1
_FIELD_SITE = 2
_FIELD_CYCLE = 3
_FIELD_DURATION = 4
_FIELD_MAGNITUDE = 5
_FIELD_SPAN = 6

#: Faults drawn per :func:`draw_specs` call while streaming a population.
DRAW_BLOCK = 4096


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One injected fault of a campaign population.

    Attributes:
        fault_id: Position in the population (also the draw counter).
        kind: One of :data:`FAULT_KINDS`.
        site: Primary injection site (stage name, flip-flop name, or
            signal, depending on the campaign target).
        cycle: First affected cycle.
        duration_cycles: Number of consecutive affected cycles.
        magnitude_ps: Extra delay (or pulse width) injected.
        span: Number of consecutive sites affected (``correlated``
            only; 1 elsewhere — ``droop`` hits every site regardless).
    """

    fault_id: int
    kind: str
    site: str
    cycle: int
    duration_cycles: int
    magnitude_ps: int
    span: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.cycle < 0 or self.duration_cycles < 1:
            raise ConfigurationError(
                f"fault {self.fault_id}: bad cycle window "
                f"({self.cycle}, {self.duration_cycles})")
        if self.magnitude_ps <= 0:
            raise ConfigurationError(
                f"fault {self.fault_id}: magnitude must be > 0")

    @property
    def last_cycle(self) -> int:
        return self.cycle + self.duration_cycles - 1

    def sites_affected(self, sites: typing.Sequence[str]) -> list[str]:
        """The site names this fault perturbs, given the target's sites."""
        if self.kind == "droop":
            return list(sites)
        if self.kind == "correlated":
            start = sites.index(self.site)
            return list(sites[start:start + self.span])
        return [self.site]


class FaultColumns(ColumnBlock):
    """A block of faults as columns: one int64 row per
    :class:`FaultSpec` field (:class:`~repro.columns.ColumnBlock`).

    ``kind`` holds indices into :data:`FAULT_KINDS` and ``site`` indices
    into ``sites``; every other row holds the field's value.  The
    block is also a sequence of :class:`FaultSpec` — indexing or
    iterating builds the records, with plain ``int``/``str`` fields —
    and compares equal to any sequence holding the same specs.
    """

    record = FaultSpec
    labels = {"kind": FAULT_KINDS}

    @property
    def last_cycle(self) -> np.ndarray:
        return self.cycle + self.duration_cycles - 1

    def site_mask(self) -> np.ndarray:
        """``(faults, sites)`` mask of the sites each fault perturbs —
        :meth:`FaultSpec.sites_affected`, vectorized."""
        column = np.arange(len(self.sites))[None, :]
        first = self.site[:, None]
        width = np.where(self.kind == _CORRELATED, self.span, 1)[:, None]
        return ((self.kind == _DROOP)[:, None]
                | ((column >= first) & (column < first + width)))


def _draw(seed_lanes: tuple[int, int], fault_id: int, field: int) -> int:
    lo, hi = seed_lanes
    return mix32(_POPULATION_SALT, lo, hi, fault_id, field)


def check_population(
    *,
    num_faults: int,
    sites: typing.Sequence[str],
    num_cycles: int,
    kinds: typing.Sequence[str],
    magnitude_range_ps: tuple[int, int],
    max_duration_cycles: int = 3,
    max_span: int = 3,
    start: int = 0,
) -> int:
    """Validate population arguments; returns the last injection start.

    The one set of checks behind both :func:`iter_population` and
    :class:`~repro.campaign.engine.CampaignConfig`, so a configuration
    that could not draw its population is rejected when it is built.
    """
    if num_faults < 1:
        raise ConfigurationError("need at least one fault")
    if not 0 <= start <= num_faults:
        raise ConfigurationError(
            f"start {start} outside [0, {num_faults}]")
    if not sites:
        raise ConfigurationError("need at least one injection site")
    if not kinds:
        raise ConfigurationError("need at least one fault kind")
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ConfigurationError(f"unknown fault kind {kind!r}")
    lo_ps, hi_ps = magnitude_range_ps
    if not 0 < lo_ps <= hi_ps:
        raise ConfigurationError("bad magnitude range")
    if max_duration_cycles < 1:
        raise ConfigurationError(
            f"max_duration_cycles must be >= 1, got {max_duration_cycles}")
    if max_span < 2:
        raise ConfigurationError(
            f"max_span must be >= 2, got {max_span}")
    last_start = num_cycles - max_duration_cycles
    if last_start < 2:
        raise ConfigurationError(
            f"{num_cycles} cycles leave no room for a "
            f"{max_duration_cycles}-cycle fault window")
    return last_start


def population_columns(
    *,
    num_faults: int,
    sites: typing.Sequence[str],
    num_cycles: int,
    seed: int,
    kinds: typing.Sequence[str] = FAULT_KINDS,
    magnitude_range_ps: tuple[int, int] = (20, 220),
    max_duration_cycles: int = 3,
    max_span: int = 3,
    start: int = 0,
) -> FaultColumns:
    """Faults ``[start, num_faults)`` of a deterministic population, as
    one :class:`FaultColumns` block (see :func:`iter_population`)."""
    last_start = check_population(
        num_faults=num_faults, sites=sites, num_cycles=num_cycles,
        kinds=kinds, magnitude_range_ps=magnitude_range_ps,
        max_duration_cycles=max_duration_cycles, max_span=max_span,
        start=start)
    lo_ps, hi_ps = magnitude_range_ps
    counters = np.arange(start, num_faults, dtype=np.int64)
    return draw_specs(
        split64(seed), counters, counters, sites=sites,
        kinds=[[FAULT_KINDS.index(kind) for kind in kinds]],
        lo_ps=lo_ps, hi_ps=hi_ps, last_start=last_start,
        max_duration_cycles=max_duration_cycles, max_span=max_span)


def iter_population(
    *,
    num_faults: int,
    sites: typing.Sequence[str],
    num_cycles: int,
    seed: int,
    kinds: typing.Sequence[str] = FAULT_KINDS,
    magnitude_range_ps: tuple[int, int] = (20, 220),
    max_duration_cycles: int = 3,
    max_span: int = 3,
    start: int = 0,
) -> typing.Iterator[FaultSpec]:
    """Stream faults ``[start, num_faults)`` of a deterministic population.

    Faults land on cycles ``[1, num_cycles - max_duration_cycles)`` so
    every injection window fits inside the run.  All draws are
    counter-based: fault ``i`` is a pure function of ``(seed, i)``,
    independent of every other fault and of the order — or the chunking
    — of generation, so a stream starting at ``start`` is byte-identical
    to the same slice of the full population.  Faults are drawn
    :data:`DRAW_BLOCK` at a time (:func:`population_columns`), so
    soak-scale populations never sit in memory at once.

    Arguments are validated eagerly (:func:`check_population`; this is
    a plain function returning a generator), so a bad configuration
    raises at call time.
    """
    args = dict(sites=sites, num_cycles=num_cycles, kinds=kinds,
                magnitude_range_ps=magnitude_range_ps,
                max_duration_cycles=max_duration_cycles,
                max_span=max_span)
    check_population(num_faults=num_faults, start=start, **args)

    def generate() -> typing.Iterator[FaultSpec]:
        for block in range(start, num_faults, DRAW_BLOCK):
            yield from population_columns(
                num_faults=min(block + DRAW_BLOCK, num_faults),
                start=block, seed=seed, **args)

    return generate()


def draw_specs(
    lanes: tuple[typing.Any, typing.Any],
    counters: np.ndarray,
    fault_ids: np.ndarray,
    *,
    sites: typing.Sequence[str],
    kinds: typing.Any,
    lo_ps: typing.Any,
    hi_ps: typing.Any,
    last_start: int,
    max_duration_cycles: int,
    max_span: int,
) -> FaultColumns:
    """Every draw at once; equal to a :func:`draw_spec` loop.

    Draw ``i`` is ``draw_spec(lanes_i, counters[i], kinds=kinds_i,
    lo_ps=lo_i, hi_ps=hi_i, fault_id=fault_ids[i])``: the two seed
    ``lanes``, ``lo_ps`` and ``hi_ps`` are ints shared by every draw or
    per-draw arrays, and ``kinds`` holds :data:`FAULT_KINDS` indices,
    one row of choices for every draw or one row per draw (a soak
    stratum's single kind).  :func:`~repro.kernels.rng.mix32_batch`
    mixes ``(salt, seed lanes, counter)`` for every draw and then the
    field tag, for all six fields at once (the span draw goes unused
    where :func:`draw_spec` skips it).  The mixer is integer-only and
    the field maps are integer ``%`` of non-negative values, so every
    draw is bit-identical to the scalar one — a counter past ``2**32``
    wraps in both, because :func:`~repro.kernels.rng.mix32` masks each
    lane to 32 bits.
    """
    counters = np.asarray(counters, dtype=np.int64)
    seeded = mix32_batch(list(lanes), state=mix32(_POPULATION_SALT))
    mixed = mix32_batch([(counters & M32).astype(np.uint32)], state=seeded)
    tags = np.array([_FIELD_KIND, _FIELD_SPAN, _FIELD_SITE,
                     _FIELD_DURATION, _FIELD_CYCLE, _FIELD_MAGNITUDE],
                    dtype=np.uint32)[:, None]
    kind_h, span_h, site_h, duration_h, cycle_h, magnitude_h = (
        mix32_batch([tags], state=mixed).astype(np.int64))
    choices = np.broadcast_to(np.asarray(kinds, dtype=np.int64),
                              (len(counters), np.shape(kinds)[-1]))
    kind = choices[np.arange(len(counters)), kind_h % choices.shape[1]]
    span = np.ones(counters.shape, dtype=np.int64)
    if len(sites) > 1:
        span = np.where(kind == _CORRELATED,
                        np.minimum(2 + span_h % (max_span - 1), len(sites)),
                        1)
    return FaultColumns.from_rows(
        sites,
        fault_id=fault_ids,
        kind=kind,
        site=site_h % (len(sites) - span + 1),
        cycle=1 + cycle_h % (last_start - 1),
        duration_cycles=np.where(kind == _SEU, 1,
                                 1 + duration_h % max_duration_cycles),
        magnitude_ps=lo_ps + magnitude_h % (hi_ps - lo_ps + 1),
        span=span,
    )


def draw_spec(
    lanes: tuple[int, int],
    draw_index: int,
    *,
    sites: typing.Sequence[str],
    kinds: typing.Sequence[str],
    lo_ps: int,
    hi_ps: int,
    last_start: int,
    max_duration_cycles: int,
    max_span: int,
    fault_id: int | None = None,
) -> FaultSpec:
    """Draw one fault — pure in ``(lanes, draw_index)``.

    The scalar reference of :func:`draw_specs`, and the soak journal's
    per-draw generator.

    ``fault_id`` defaults to ``draw_index`` (the population case, where
    the position in the population is also the draw counter).  Streaming
    stratified sources (:mod:`repro.soak.generator`) separate the two:
    each stratum keeps its own draw counter (so a stratum's stream is
    independent of how rounds interleave strata) while ``fault_id``
    carries the global injection sequence number.
    """
    kind = kinds[_draw(lanes, draw_index, _FIELD_KIND) % len(kinds)]
    span = 1
    if kind == "correlated" and len(sites) > 1:
        span = 2 + _draw(lanes, draw_index, _FIELD_SPAN) % (max_span - 1)
        span = min(span, len(sites))
    # Correlated faults need `span` consecutive sites after the
    # primary one, so clamp the start index accordingly.
    site_slots = len(sites) - span + 1
    site = sites[_draw(lanes, draw_index, _FIELD_SITE) % site_slots]
    if kind == "seu":
        duration = 1
    else:
        duration = 1 + (_draw(lanes, draw_index, _FIELD_DURATION)
                        % max_duration_cycles)
    cycle = 1 + _draw(lanes, draw_index, _FIELD_CYCLE) % (last_start - 1)
    magnitude = lo_ps + (_draw(lanes, draw_index, _FIELD_MAGNITUDE)
                         % (hi_ps - lo_ps + 1))
    return FaultSpec(
        fault_id=draw_index if fault_id is None else fault_id,
        kind=kind, site=site, cycle=cycle,
        duration_cycles=duration, magnitude_ps=magnitude, span=span,
    )


def generate_population(
    *,
    num_faults: int,
    sites: typing.Sequence[str],
    num_cycles: int,
    seed: int,
    kinds: typing.Sequence[str] = FAULT_KINDS,
    magnitude_range_ps: tuple[int, int] = (20, 220),
    max_duration_cycles: int = 3,
    max_span: int = 3,
) -> list[FaultSpec]:
    """Materialize the full population (see :func:`iter_population`)."""
    return list(iter_population(
        num_faults=num_faults, sites=sites, num_cycles=num_cycles,
        seed=seed, kinds=kinds, magnitude_range_ps=magnitude_range_ps,
        max_duration_cycles=max_duration_cycles, max_span=max_span,
    ))


class FaultOverlay:
    """Extra-delay overlay for one or more faults on a simulator.

    Implements the :class:`repro.pipeline.hooks.FaultOverlayLike`
    protocol: per-(cycle, site) extra delay for the scalar state
    machine, and the active cycles of a window so the screened walk
    always replays injected cycles (its screen sees only fault-free
    delays).
    Overlapping faults add up, like independent physical mechanisms.
    """

    def __init__(self, specs: typing.Sequence[FaultSpec],
                 sites: typing.Sequence[str]) -> None:
        self.specs = list(specs)
        self._by_cycle: dict[int, dict[str, int]] = {}
        for spec in self.specs:
            affected = spec.sites_affected(sites)
            for cycle in range(spec.cycle, spec.cycle
                               + spec.duration_cycles):
                row = self._by_cycle.setdefault(cycle, {})
                for site in affected:
                    row[site] = row.get(site, 0) + spec.magnitude_ps
        self._active = sorted(self._by_cycle)

    def extra_delay_ps(self, cycle: int, key: str) -> int:
        row = self._by_cycle.get(cycle)
        if row is None:
            return 0
        return row.get(key, 0)

    def active_cycles_between(self, start: int, stop: int) -> list[int]:
        """Active cycles in ``[start, stop)``, sorted.

        Fork windows for late faults mostly contain *no* active cycle;
        answering that in O(log n) keeps the screened walk's per-block
        query off the hot path."""
        lo = bisect.bisect_left(self._active, start)
        hi = bisect.bisect_left(self._active, stop, lo)
        return self._active[lo:hi]
