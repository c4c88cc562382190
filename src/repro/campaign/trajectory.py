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

Trajectories are shared two ways, both content-addressed by a
``stable_key`` over every parameter the background depends on:

* in-process via the warm worker cache (kind ``"trajectory"``, same
  invalidation discipline as ``"criticality"`` — a changed config
  hashes to a new key, so stale entries can never alias);
* optionally on disk through :class:`repro.exec.cache.ResultCache`
  when ``REPRO_TRAJECTORY_CACHE_DIR`` is set (the campaign CLI sets it
  under ``--cache-dir``), with the cache's checksum-on-read corruption
  handling: a tampered or truncated entry is logged, deleted, and
  rebuilt from simulation.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import typing

import numpy as np

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache, stable_key
from repro.exec.worker import WARM

logger = logging.getLogger("repro.campaign.trajectory")

#: Environment variable naming a directory for the on-disk trajectory
#: cache (unset = in-process warm cache only).  Pool workers inherit it
#: from the parent's environment.
TRAJECTORY_CACHE_ENV = "REPRO_TRAJECTORY_CACHE_DIR"


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
                     num_cycles: int, stride: int) -> BackgroundTrajectory:
    """Run the fault-free background once, snapshotting every stride.

    ``make_sim`` must build a fresh simulator with **no fault overlay
    and no observer** — the trajectory is the shared prefix of every
    faulty run.  Each stride advances through the simulator's normal
    ``run`` entry point, so the vectorized block screen does the heavy
    lifting and the snapshots are bit-identical to scalar-mode ones.
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
        sim.run(boundary, start_cycle=boundary - stride)
        snapshots.append(sim.snapshot())
    return BackgroundTrajectory(stride=stride, num_cycles=num_cycles,
                                snapshots=tuple(snapshots))


def trajectory_key(params: "typing.Mapping[str, typing.Any]") -> str:
    """Content hash of everything a background trajectory depends on."""
    return stable_key("campaign-trajectory", dict(params))


def _disk_cache() -> "ResultCache | None":
    directory = os.environ.get(TRAJECTORY_CACHE_ENV, "")
    if not directory:
        return None
    return ResultCache(directory)


def trajectory_for(
    params: "typing.Mapping[str, typing.Any]",
    builder: "typing.Callable[[], BackgroundTrajectory]",
) -> BackgroundTrajectory:
    """The trajectory for ``params``, via warm (and optional disk) cache.

    Lookup order: per-process warm cache, then the on-disk cache named
    by ``REPRO_TRAJECTORY_CACHE_ENV`` (checksum-verified on read — a
    corrupted entry logs a warning, is deleted, and falls through to a
    rebuild), then ``builder()``.  Fresh builds are written back to the
    disk cache best-effort.
    """
    key = trajectory_key(params)

    def load_or_build() -> BackgroundTrajectory:
        disk = _disk_cache()
        if disk is not None:
            hit, value, _stored = disk.get(key)
            if hit and isinstance(value, BackgroundTrajectory):
                return value
        trajectory = builder()
        if disk is not None:
            try:
                disk.put(key, trajectory, experiment="campaign-trajectory",
                         meta={"stride": trajectory.stride,
                               "num_cycles": trajectory.num_cycles})
            except OSError as error:  # best-effort persistence
                logger.warning("could not persist trajectory %s: %s",
                               key[:12], error)
            finally:
                disk.close()
        return trajectory

    return WARM.get_or_build("trajectory", key, load_or_build)


def trajectory_rows_for(
    params: "typing.Mapping[str, typing.Any]",
    builder: "typing.Callable[[], typing.Any]",
) -> "typing.Any":
    """Precomputed background rows for ``params``, via the warm cache.

    ``builder`` returns whatever the caller keeps per background — the
    campaign evaluator stores the rows together with its lane
    machine's prefix table, so one lookup serves both.  Same
    content-addressed kind (``"trajectory"``) and invalidation
    discipline as the snapshots, distinct salt so the two entries never
    collide.  Rows are immutable numpy arrays rebuilt by one cheap
    vectorized pass, so they stay in-process only — unlike the
    snapshots they are never persisted to disk.
    """
    key = stable_key("campaign-trajectory-rows", dict(params))
    return WARM.get_or_build("trajectory", key, builder)
