"""Fault-free background trajectories for snapshot-forked campaigns.

Every fault in a campaign population perturbs the *same* fault-free
background: the simulators' draws are all position-addressed by absolute
cycle (counter-based RNG), and a fault overlay adds zero delay before
``spec.cycle``.  So the carried simulator state at any cycle ``c`` of a
faulty run with ``spec.cycle >= c`` is exactly the fault-free state at
``c`` — which this module computes **once** per background
configuration and checkpoints at stride boundaries.

A :class:`BackgroundTrajectory` is just the stride plus the snapshot
tuple; evaluating a fault then means restoring the nearest snapshot at
or before ``spec.cycle`` and simulating only the fault's influence
window instead of re-running the whole prefix from cycle 0.  The
prefix advance itself reuses the vectorized block screen (the builder
simply calls ``sim.run`` stride by stride), so reaching snapshot
points costs a handful of numpy calls per stride.

Each background is built once per process and kept in the warm worker
cache (kind ``"trajectory"``, same invalidation discipline as
``"criticality"``): :func:`trajectory_rows_for` keys the entry by a
``stable_key`` over every parameter the background depends on, so a
changed config hashes to a new key and stale entries can never alias.
The campaign evaluator keeps one entry per background and kernel mode —
the snapshots, plus its background rows and lane-machine prefix table —
and walks the snapshots over those rows.  Nothing is persisted: each
process builds the backgrounds it needs, and fork-started workers
inherit their parent's.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.errors import ConfigurationError
from repro.exec.cache import stable_key
from repro.exec.worker import WARM


@dataclasses.dataclass(frozen=True)
class BackgroundTrajectory:
    """Stride-spaced snapshots of one fault-free background run.

    ``snapshots[i]`` is the simulator's carried state *entering* cycle
    ``i * stride`` — ``snapshots[0]`` is the idle initial state.  Only
    boundaries strictly below ``num_cycles`` are kept; a fork never
    needs a snapshot past the last cycle a fault can land on.
    """

    stride: int
    num_cycles: int
    snapshots: tuple

    def fork_point(self, cycle: int) -> "tuple[int, typing.Any]":
        """``(start_cycle, state)`` of the nearest snapshot <= ``cycle``."""
        if cycle < 0:
            raise ConfigurationError(f"cycle must be >= 0, got {cycle}")
        index = min(cycle // self.stride, len(self.snapshots) - 1)
        return index * self.stride, self.snapshots[index]

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshots)

    def fork_indices(self, cycles: "np.ndarray") -> "np.ndarray":
        """The :meth:`fork_point` snapshot index of every cycle (the
        last-snapshot clamp included), as one array."""
        return np.minimum(np.asarray(cycles, dtype=np.int64) // self.stride,
                          len(self.snapshots) - 1)


def build_trajectory(make_sim: "typing.Callable[[], typing.Any]", *,
                     num_cycles: int, stride: int,
                     rows: "tuple | None" = None) -> BackgroundTrajectory:
    """Run the fault-free background once, snapshotting every stride.

    ``make_sim`` must build a fresh simulator with **no fault overlay
    and no observer** — the trajectory is the shared prefix of every
    faulty run.  Each stride advances through the simulator's normal
    ``run`` entry point, so the vectorized block screen does the heavy
    lifting and the snapshots are bit-identical to scalar-mode ones.
    ``rows`` (the simulator's ``background_rows`` over at least
    ``num_cycles``) go to every stride's ``run``, whose walk then slices
    them instead of evaluating its blocks again.
    """
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    if num_cycles < 1:
        raise ConfigurationError(
            f"num_cycles must be >= 1, got {num_cycles}")
    sim = make_sim()
    if getattr(sim, "faults", None) is not None:
        raise ConfigurationError(
            "background trajectories must be fault-free")
    snapshots = [sim.snapshot()]
    for boundary in range(stride, num_cycles, stride):
        sim.run(boundary, start_cycle=boundary - stride, rows=rows)
        snapshots.append(sim.snapshot())
    return BackgroundTrajectory(stride=stride, num_cycles=num_cycles,
                                snapshots=tuple(snapshots))


def trajectory_key(params: "typing.Mapping[str, typing.Any]") -> str:
    """Content hash of everything a background trajectory depends on."""
    return stable_key("campaign-trajectory", dict(params))


def trajectory_rows_for(
    params: "typing.Mapping[str, typing.Any]",
    builder: "typing.Callable[[], typing.Any]",
) -> "typing.Any":
    """The warm ``"trajectory"`` entry for ``params``; ``builder()``
    fills it on a miss.

    ``builder`` returns whatever the caller keeps per background — the
    campaign evaluator stores its snapshots, background rows and lane
    machine's prefix table together, so one lookup serves all three.
    """
    return WARM.get_or_build("trajectory", trajectory_key(params), builder)
