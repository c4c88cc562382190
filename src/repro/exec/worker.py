"""Per-worker warm state: an LRU of expensive, reusable artefacts.

Every process — each pool worker and the serial parent alike — owns one
process-wide :class:`WarmCache`.  Task functions rebuild everything they
need from primitive parameters (that is what makes parallel runs
byte-identical to serial ones), but much of what they rebuild is
*content-determined*: a :class:`~repro.kernels.pipeline.CompiledStages`
compiled from the same stage parameters is the same object every time,
and a variability model built from the same spec draws the same
factors.  The warm cache memoizes those artefacts across tasks in a batch
and across batches for the lifetime of the worker, keyed by a SHA-256
content hash of the inputs — so a hit can never change a result, only
skip redundant work.

Entries must therefore be **deterministically reconstructible and
safe to share**: either immutable after construction or memoizing pure
functions (every variability model's draws are pure in
``(seed, cycle, path)``).  Mutable simulation state never goes in here.

The cache capacity comes from ``REPRO_WARM_CACHE_SIZE`` (default 64
entries; ``0`` disables retention), the one setting for it: every
process reads it when it builds its cache, and pool workers inherit it
with the environment.  Hit/miss counters are kept per *kind* (``task-func``,
``compiled``, ``variability``, ``criticality``, ``processor``,
``trajectory``, ``evaluator``) so the exec layer can ship per-batch
deltas back to the parent's telemetry.
Campaign populations are not cached: a dispatch batch of campaign
chunks draws its faults once, as one vector draw, through the task's
batch form.  ``trajectory`` entries — fault-free campaign
background trajectories with their stride snapshots — follow the same
invalidation discipline as ``criticality``: the key is a content hash
of everything the trajectory depends on, so a changed configuration
can never alias a stale entry.  ``processor`` entries are the
Figs. 1/8 synthetic processor graphs, keyed on the performance point's
params, the seed and the generator shape; the graph is mutable, so the
tasks that share it only read it.
"""

from __future__ import annotations

import collections
import os
import typing

#: Environment variable overriding the default warm-cache capacity.
WARM_CACHE_ENV = "REPRO_WARM_CACHE_SIZE"

#: Default number of entries kept per process.
DEFAULT_WARM_CACHE_SIZE = 64


def default_capacity() -> int:
    """Capacity from the environment, falling back to the default."""
    raw = os.environ.get(WARM_CACHE_ENV, "")
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_WARM_CACHE_SIZE


class WarmCache:
    """A small LRU of content-addressed artefacts plus hit counters.

    ``capacity <= 0`` disables retention entirely (every lookup builds
    and counts a miss) — useful for pinning down memory or for A/B
    measurements of the warm path.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is None:
            capacity = default_capacity()
        self.capacity = capacity
        self._entries: "collections.OrderedDict[tuple[str, str], typing.Any]" \
            = collections.OrderedDict()
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}

    def get_or_build(
        self,
        kind: str,
        key: str,
        builder: typing.Callable[[], typing.Any],
    ) -> typing.Any:
        """Return the cached artefact for ``(kind, key)``, building once.

        ``builder`` runs on a miss; its result is retained (LRU) and
        returned verbatim on subsequent hits.
        """
        full = (kind, key)
        if full in self._entries:
            self._entries.move_to_end(full)
            self._hits[kind] = self._hits.get(kind, 0) + 1
            return self._entries[full]
        self._misses[kind] = self._misses.get(kind, 0) + 1
        value = builder()
        if self.capacity > 0:
            self._entries[full] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value

    # -- stats -------------------------------------------------------------
    def counters(self) -> dict[str, list[int]]:
        """``{kind: [hits, misses]}`` snapshot (for delta computation)."""
        kinds = set(self._hits) | set(self._misses)
        return {kind: [self._hits.get(kind, 0), self._misses.get(kind, 0)]
                for kind in kinds}

    @staticmethod
    def delta(before: dict[str, list[int]],
              after: dict[str, list[int]]) -> dict[str, list[int]]:
        """Per-kind ``[hits, misses]`` accumulated between two snapshots."""
        out: dict[str, list[int]] = {}
        for kind, (hits, misses) in after.items():
            prev_hits, prev_misses = before.get(kind, [0, 0])
            dh, dm = hits - prev_hits, misses - prev_misses
            if dh or dm:
                out[kind] = [dh, dm]
        return out

    def stats_delta(self, before: dict[str, list[int]]) -> dict:
        return self.delta(before, self.counters())

    def discard(self, kind: str) -> None:
        """Drop every entry of ``kind`` (the counters stay)."""
        for full in [full for full in self._entries if full[0] == kind]:
            del self._entries[full]

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._entries.clear()
        self._hits.clear()
        self._misses.clear()

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide warm cache every call site binds to.
WARM = WarmCache()
