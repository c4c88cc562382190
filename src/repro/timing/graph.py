"""Flip-flop-level timing graph.

The analyses behind the paper's Figs. 1 and 8 do not need gates — they
need the *register-to-register* timing abstraction of a design: which
flip-flop launches which path into which flip-flop, and with what delay.
:class:`TimingGraph` captures exactly that.  The synthetic processor
generator (:mod:`repro.processor.generator`) produces one; gate-level
netlists can be reduced to one through :func:`repro.timing.sta.run_sta`.
"""

from __future__ import annotations

import dataclasses
import typing
from collections.abc import Iterable, Iterator

from repro.errors import ConfigurationError
from repro.timing.criticality import critical_threshold_ps

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.timing.criticality import CriticalityIndex


@dataclasses.dataclass(frozen=True)
class TimingEdge:
    """A register-to-register combinational path.

    ``delay_ps`` is the *static* (sign-off) worst-case delay of the path;
    dynamic variability multiplies it at runtime.
    """

    src: str
    dst: str
    delay_ps: int

    def __post_init__(self) -> None:
        if self.delay_ps < 0:
            raise ConfigurationError(
                f"path {self.src}->{self.dst}: negative delay"
            )


class TimingGraph:
    """A directed multigraph of flip-flops connected by timed paths."""

    def __init__(self, name: str, period_ps: int) -> None:
        if period_ps <= 0:
            raise ConfigurationError(f"period must be > 0, got {period_ps}")
        self.name = name
        self.period_ps = period_ps
        self._ffs: dict[str, int] = {}  # ff name -> stage index
        self._out: dict[str, list[TimingEdge]] = {}
        self._in: dict[str, list[TimingEdge]] = {}
        # Memoized criticality index; rebuilt lazily after any mutation.
        self._criticality: "CriticalityIndex | None" = None

    # -- construction ----------------------------------------------------
    def add_ff(self, name: str, stage: int = 0) -> str:
        if name in self._ffs:
            raise ConfigurationError(f"duplicate flip-flop {name!r}")
        self._ffs[name] = stage
        self._out[name] = []
        self._in[name] = []
        self._criticality = None
        return name

    def add_edge(self, src: str, dst: str, delay_ps: int) -> TimingEdge:
        return self.add_edges([(src, dst, delay_ps)])[0]

    def add_edges(self, triples: Iterable[tuple[str, str, int]],
                  ) -> list[TimingEdge]:
        """Add ``(src, dst, delay_ps)`` paths in order, all or none.

        The whole batch is validated before any edge is added, so a
        bad triple leaves the graph unchanged; the error is the one the
        first bad triple raises.  Edges join each flip-flop's fanout and
        fanin lists in batch order, and the criticality index is
        invalidated as by any mutation.
        """
        ffs, period = self._ffs, self.period_ps
        edges: list[TimingEdge] = []
        for src, dst, delay_ps in triples:
            for ff in (src, dst):
                if ff not in ffs:
                    raise ConfigurationError(f"unknown flip-flop {ff!r}")
            if delay_ps > period:
                raise ConfigurationError(
                    f"path {src}->{dst} delay {delay_ps} ps violates the "
                    f"sign-off period {period} ps; the static design "
                    f"must meet timing"
                )
            edges.append(TimingEdge(src, dst, delay_ps))
        out, into = self._out, self._in
        for edge in edges:
            out[edge.src].append(edge)
            into[edge.dst].append(edge)
        self._criticality = None
        return edges

    # -- queries -------------------------------------------------------------
    @property
    def ffs(self) -> list[str]:
        return list(self._ffs)

    @property
    def num_ffs(self) -> int:
        return len(self._ffs)

    @property
    def num_edges(self) -> int:
        return sum(len(edges) for edges in self._out.values())

    def stage_of(self, ff: str) -> int:
        return self._ffs[ff]

    def out_edges(self, ff: str) -> list[TimingEdge]:
        return list(self._out[ff])

    def in_edges(self, ff: str) -> list[TimingEdge]:
        return list(self._in[ff])

    def edges(self) -> Iterator[TimingEdge]:
        for edges in self._out.values():
            yield from edges

    def max_in_delay(self, ff: str) -> int:
        """Worst arrival-side path delay at ``ff`` (0 if no fanin)."""
        edges = self._in[ff]
        return max((e.delay_ps for e in edges), default=0)

    def max_out_delay(self, ff: str) -> int:
        """Worst launch-side path delay from ``ff`` (0 if no fanout)."""
        edges = self._out[ff]
        return max((e.delay_ps for e in edges), default=0)

    # -- criticality -----------------------------------------------------------
    def criticality(self) -> "CriticalityIndex":
        """The memoized criticality index for the graph's current edges.

        Compiled once (delay-sorted edge order, shared per worker via
        the warm cache) and invalidated by ``add_ff``/``add_edge``/
        ``add_edges``;
        every ``critical_*`` query below is served from it.
        """
        if self._criticality is None:
            from repro.timing.criticality import CriticalityIndex

            self._criticality = CriticalityIndex.for_graph(self)
        return self._criticality

    def critical_threshold_ps(self, percent: float) -> int:
        """Delay above which a path is 'top ``percent``%' critical.

        The paper classifies a path as top-c% critical when its slack is
        within c% of the clock period, i.e. ``delay >= (1 - c/100) * T``.
        """
        return critical_threshold_ps(self.period_ps, percent)

    def critical_edges(self, percent: float) -> list[TimingEdge]:
        return list(self.criticality().view(percent).edges)

    def critical_endpoints(self, percent: float) -> set[str]:
        """FFs at which at least one top-``percent``% path terminates."""
        return set(self.criticality().view(percent).endpoints)

    def critical_startpoints(self, percent: float) -> set[str]:
        """FFs from which at least one top-``percent``% path originates."""
        return set(self.criticality().view(percent).startpoints)

    def critical_through_ffs(self, percent: float) -> set[str]:
        """FFs that are both start- and end-points of critical paths.

        These are the only FFs susceptible to multi-stage timing errors,
        and the only ones whose error relay must actually do work.
        """
        return set(self.criticality().view(percent).through)

    def critical_fanin_count(self, ff: str, percent: float) -> int:
        """Number of distinct critical-fanin *flip-flops* of ``ff`` that
        are critical *through* FFs — the inputs the error-relay max-tree
        at ``ff`` must combine.  Multiple critical paths from the same
        source share one select signal, so sources are deduplicated."""
        if ff not in self._in:
            raise KeyError(ff)
        return self.criticality().view(percent).fanin_count(ff)

    # -- chains (multi-stage error structure) --------------------------------
    def critical_chains(self, percent: float, max_length: int = 4,
                        ) -> list[list[TimingEdge]]:
        """Enumerate chains of critical paths connected end-to-start.

        A chain ``[p1, ..., pk]`` (dst of ``p_i`` == src of ``p_{i+1}``)
        is the structural prerequisite of a k-stage timing error.  The
        enumeration is bounded by ``max_length`` and deduplicated by edge
        identity; cycles are cut.
        """
        threshold = self.critical_threshold_ps(percent)
        critical_out: dict[str, list[TimingEdge]] = {}
        for edge in self.critical_edges(percent):
            critical_out.setdefault(edge.src, []).append(edge)

        chains: list[list[TimingEdge]] = []

        def extend(chain: list[TimingEdge], visited: set[str]) -> None:
            chains.append(list(chain))
            if len(chain) >= max_length:
                return
            tail = chain[-1].dst
            for edge in critical_out.get(tail, ()):  # follow end-to-start
                if edge.dst in visited:
                    continue
                chain.append(edge)
                visited.add(edge.dst)
                extend(chain, visited)
                visited.discard(edge.dst)
                chain.pop()

        for start_edges in critical_out.values():
            for edge in start_edges:
                if edge.delay_ps >= threshold:
                    extend([edge], {edge.src, edge.dst})
        return chains

    # -- import/export -----------------------------------------------------
    @classmethod
    def from_edges(cls, name: str, period_ps: int,
                   edges: Iterable[tuple[str, str, int]],
                   ) -> "TimingGraph":
        """Build a graph from ``(src, dst, delay_ps)`` triples."""
        graph = cls(name, period_ps)
        triples = list(edges)
        for src, dst, _delay in triples:
            for ff in (src, dst):
                if ff not in graph._ffs:
                    graph.add_ff(ff)
        graph.add_edges(triples)
        return graph
