"""Seeded fault populations and the simulator-facing overlay.

A campaign is defined by a *population* of :class:`FaultSpec` records,
generated deterministically from a root seed with the same counter-based
mixer the simulators use (:mod:`repro.kernels.rng`): fault ``i``'s shape
depends only on ``(seed, i)``, so slicing the population into chunks for
the exec layer — or regenerating it inside a worker process — always
yields the same faults.

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

from repro.errors import ConfigurationError
from repro.kernels.rng import key_id, mix32, split64

FAULT_KINDS = ("seu", "delay", "droop", "correlated")

#: Domain-separation salt for the population stream.
_POPULATION_SALT = key_id("campaign-population")

#: Per-field lanes, so every attribute of a fault draws independently.
_FIELD_KIND = 1
_FIELD_SITE = 2
_FIELD_CYCLE = 3
_FIELD_DURATION = 4
_FIELD_MAGNITUDE = 5
_FIELD_SPAN = 6


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
    last_start = num_cycles - max_duration_cycles
    if last_start < 2:
        raise ConfigurationError(
            f"{num_cycles} cycles leave no room for a "
            f"{max_duration_cycles}-cycle fault window")
    return last_start


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
    to the same slice of the full population.  Streaming keeps
    soak-scale populations out of memory: workers materialize only the
    chunk they are classifying.

    Arguments are validated eagerly (:func:`check_population`; this is
    a plain function returning a generator), so a bad configuration
    raises at call time.
    """
    last_start = check_population(
        num_faults=num_faults, sites=sites, num_cycles=num_cycles,
        kinds=kinds, magnitude_range_ps=magnitude_range_ps,
        max_duration_cycles=max_duration_cycles, start=start)
    lo_ps, hi_ps = magnitude_range_ps
    lanes = split64(seed)

    def generate() -> typing.Iterator[FaultSpec]:
        for fault_id in range(start, num_faults):
            yield draw_spec(
                lanes, fault_id, sites=sites, kinds=kinds,
                lo_ps=lo_ps, hi_ps=hi_ps, last_start=last_start,
                max_duration_cycles=max_duration_cycles,
                max_span=max_span)

    return generate()


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
    machine, and a per-block active mask so the vector kernels always
    replay injected cycles (their screens see only fault-free delays).
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
        self._active_array = None

    def extra_delay_ps(self, cycle: int, key: str) -> int:
        row = self._by_cycle.get(cycle)
        if row is None:
            return 0
        return row.get(key, 0)

    def active_cycles(self) -> list[int]:
        return list(self._active)

    def active_cycles_between(self, start: int, stop: int) -> list[int]:
        """Active cycles in ``[start, stop)``, for window replays.

        Fork windows for late faults mostly contain *no* active cycle;
        answering that in O(log n) lets ``_run_rows`` skip its
        copy-and-scan of the interesting screen entirely."""
        lo = bisect.bisect_left(self._active, start)
        hi = bisect.bisect_left(self._active, stop, lo)
        return self._active[lo:hi]

    def active_mask(self, cycles):  # noqa: ANN001 — numpy-optional
        import numpy as np

        if self._active_array is None:
            self._active_array = np.asarray(self._active, dtype=np.int64)
        return np.isin(cycles, self._active_array)
