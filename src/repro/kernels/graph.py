"""Compiled array form of the whole-graph Monte-Carlo loop.

:class:`CompiledEdges` flattens a
:class:`~repro.pipeline.graph_sim.GraphPipelineSimulation`'s candidate
edges — the only ones that can ever violate — into delay / key / path
arrays and evaluates sensitization plus idle-state arrival for a block
of cycles at once.  The common all-clean cycle costs O(edges) numpy work
inside a block instead of O(cycles x edges) Python.  The simulators'
shared screened walk feeds on these rows, fresh per block or sliced
from shared background rows, and keeps dict-based borrow/relay
bookkeeping only for the cycles whose :func:`screen_block` shows a
potentially late edge (and their carryover successors), feeding them
the precomputed sensitization and arrival rows so vector and scalar
runs are bit-equal.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.kernels.rng import (
    cycle_lanes,
    key_id,
    mix32,
    mix32_batch,
    split64,
)
from repro.kernels.schedule import WalkCounters

#: Domain-separation salt for the graph edge-sensitization stream (must
#: match the scalar draw in ``GraphPipelineSimulation``).
GRAPH_SENS_SALT = key_id("graph-sens")

#: Walk counters of the graph simulator's screened walk.
WALK = WalkCounters("graph")


def screen_block(
    sens: "np.ndarray",
    arrival: "np.ndarray",
    nominal_period_ps: int,
) -> "np.ndarray":
    """Per-cycle screen: which cycles have any idle-state violation?

    ``sens`` / ``arrival`` are the ``(C, E)`` blocks from
    :meth:`CompiledEdges.block`.  The screen sees only fault-free
    arrivals: the walk forces fault cycles in.
    """
    return np.any(sens & (arrival > nominal_period_ps), axis=1)


class CompiledEdges:
    """Flat-array view of a graph simulator's candidate edges."""

    def __init__(
        self,
        entries: "typing.Sequence[tuple[int, str, str]]",
        seed: int,
    ) -> None:
        """``entries``: flat ``(delay_ps, sens_key, path_id)`` rows in
        the simulator's iteration order."""
        self.num_edges = len(entries)
        self.delays = np.array([delay for delay, _, _ in entries],
                               dtype=np.float64)[None, :]
        self.keys = np.array([key_id(key) for _, key, _ in entries],
                             dtype=np.uint32)[None, :]
        self.paths = [path for _, _, path in entries]
        #: Mixer state after the salt and seed lanes every edge shares.
        self.prefix = mix32(GRAPH_SENS_SALT, *split64(seed))

    @classmethod
    def for_entries(
        cls,
        entries: "typing.Sequence[tuple[int, str, str]]",
        seed: int,
    ) -> "CompiledEdges":
        """A compiled view for ``entries``, via the process warm cache.

        Compilation is pure in ``(entries, seed)`` and the arrays are
        immutable, so identically parameterised graph simulations share
        one compilation per worker across tasks and batches.
        """
        from repro.exec.cache import stable_key
        from repro.exec.worker import WARM

        key = stable_key("graph-edges", seed, [list(e) for e in entries])
        return WARM.get_or_build("compiled", key,
                                 lambda: cls(entries, seed))

    def block(
        self,
        cycles: "np.ndarray",
        variability: "typing.Any",
        thresholds: "np.ndarray",
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Sensitization mask and idle-state arrivals for a block.

        Returns ``(sens, arrival)``: a ``(C, E)`` bool array of
        sensitization decisions (hash < per-cycle threshold, matching
        the scalar compare) and a ``(C, E)`` int64 array of
        ``round(delay * factor)`` arrivals assuming a zero launch
        offset.  A cycle with borrowed launches adds the offset to the
        same ``arrival`` row, so the values are shared by both states.
        """
        per_cycle = mix32_batch(list(cycle_lanes(cycles)),
                                state=self.prefix)
        digests = mix32_batch([self.keys], state=per_cycle[:, None])
        sens = digests.astype(np.int64) < thresholds[:, None]
        factor = variability.factor_batch(cycles, self.paths)
        arrival = np.rint(self.delays * factor).astype(np.int64)
        shape = (len(cycles), self.num_edges)
        return sens, np.broadcast_to(arrival, shape)


# ---------------------------------------------------------------------------
# Flat topology view (shared with the fault-lane batcher)
# ---------------------------------------------------------------------------

class CompiledTopology:
    """Segment layout of a graph simulator's candidate-edge rows.

    Flattens the ``(dst_ff, [edges])`` rows of a
    :class:`~repro.pipeline.graph_sim.GraphPipelineSimulation` into
    reduceat-ready arrays so per-destination maxima (arrival lateness,
    relay select inputs) collapse in one numpy call per cycle instead
    of a Python loop per edge.  Column ``num_dsts`` is a sentinel that
    always carries zero state — sources and relay inputs that are not
    candidate destinations map there, mirroring the scalar loop's
    ``dict.get(name, 0)``.
    """

    def __init__(
        self,
        dst_names: "typing.Sequence[str]",
        edge_src_names: "typing.Sequence[str]",
        edges_per_dst: "typing.Sequence[int]",
        protected: "typing.Sequence[bool]",
        relay_srcs_per_dst: "typing.Sequence[typing.Sequence[str]]",
    ) -> None:
        self.num_dsts = len(dst_names)
        self.num_edges = len(edge_src_names)
        col = {name: index for index, name in enumerate(dst_names)}
        sentinel = self.num_dsts
        self.src_cols = np.array(
            [col.get(src, sentinel) for src in edge_src_names],
            dtype=np.int64)
        self.dst_starts = np.cumsum([0] + list(edges_per_dst[:-1]),
                                    dtype=np.int64)
        self.protected = np.array(protected, dtype=bool)
        # Relay segments need at least one element for reduceat; empty
        # source lists are padded with the sentinel column (select 0).
        relay_cols: list[int] = []
        relay_starts: list[int] = []
        for srcs in relay_srcs_per_dst:
            relay_starts.append(len(relay_cols))
            cols = [col.get(src, sentinel) for src in srcs]
            relay_cols.extend(cols or [sentinel])
        self.relay_cols = np.array(relay_cols, dtype=np.int64)
        self.relay_starts = np.array(relay_starts, dtype=np.int64)

    @classmethod
    def from_sim(cls, sim: "typing.Any") -> "CompiledTopology":
        """Compile a ``GraphPipelineSimulation``'s candidate rows."""
        dst_names = [ff for ff, _ in sim._rows]
        return cls(
            dst_names=dst_names,
            edge_src_names=[edge.src for _, entries in sim._rows
                            for _, edge, _, _ in entries],
            edges_per_dst=[len(entries) for _, entries in sim._rows],
            protected=[ff in sim.protected for ff in dst_names],
            relay_srcs_per_dst=[sim._relay_srcs.get(ff, ())
                                for ff in dst_names],
        )

    def per_dst_max(self, per_edge: "np.ndarray") -> "np.ndarray":
        """Per-destination maximum over a ``(..., E)`` edge array."""
        return np.maximum.reduceat(per_edge, self.dst_starts, axis=-1)

    def per_dst_any(self, per_edge: "np.ndarray") -> "np.ndarray":
        """Per-destination OR over a ``(..., E)`` bool edge array."""
        return np.logical_or.reduceat(per_edge, self.dst_starts, axis=-1)

    def relay_select_in(self, select: "np.ndarray") -> "np.ndarray":
        """Per-destination relay input from a ``(..., F+1)`` select
        array (sentinel column included): the max select over each
        destination's relay sources, 0 when it has none."""
        return np.maximum.reduceat(select[..., self.relay_cols],
                                   self.relay_starts, axis=-1)
