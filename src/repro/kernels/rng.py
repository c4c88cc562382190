"""Deterministic draw primitives, scalar and vectorized, bit-identical.

Every stochastic decision in the simulators — sensitization, local
delay jitter, droop occurrence, process spread — reduces to hashing a
tuple of small integers (seed, cycle, path key, salt) into 32 bits and
mapping that to a uniform or Gaussian float.  This module implements
that pipeline twice:

* the *scalar* functions (:func:`mix32`, :func:`uniform01`,
  :func:`std_gauss`) in pure Python, and
* the *batch* functions (:func:`mix32_batch`, :func:`uniform01_batch`,
  :func:`std_gauss_batch`) over numpy ``uint32``/``float64`` arrays.

The two are bit-identical by construction, not by testing luck:

* the mixer is integer-only (xor / shift / wrapping 32-bit multiply),
  exact in both Python ints and ``uint32`` arrays;
* uniforms are the dyadic rationals ``(h + 0.5) / 2**32`` — exactly
  representable in a float64, so the int-to-float map never rounds;
* the Gaussian is an Irwin-Hall sum of 12 such uniforms minus 6.  Each
  partial sum needs at most 37 mantissa bits (33 fractional + 4
  integral), so *every* addition is exact and the result is independent
  of summation order.  The batch twin therefore sums the 12 ``uint32``
  hashes as ``int64`` and converts once: ``(sum(h) + 6) * 2**-32 - 6``
  is the same float64 as Python's running loop over ``(h + 0.5) *
  2**-32``, to the last bit.

The mixer folds lanes left to right, so lanes shared by many draws are
mixed once and the result carried as a *prefix state*:
``mix32_batch(rest, state=mix32(*prefix))`` equals ``mix32(*prefix,
*rest)``, and likewise for :func:`std_gauss_batch`.  The draw kernels
mix their salt and seed lanes (and fixed stage or edge keys) once at
model or compile time, and a block's cycle lanes once per block; a
Gaussian then costs one mix step per Irwin-Hall term.

String path identifiers are interned once to 32-bit ids with
:func:`key_id` (CRC-32, cached); the hot loops only ever mix integers.
"""

from __future__ import annotations

import functools
import typing
import zlib

try:  # pragma: no cover - absence exercised via REPRO_SCALAR_KERNELS
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF

#: Murmur3-style finalizer constants (well-studied avalanche behaviour).
_SEED0 = 0x9E3779B9
_MUL1 = 0x85EBCA6B
_MUL2 = 0xC2B2AE35

#: Number of uniforms summed per Gaussian draw (variance = N / 12).
GAUSS_TERMS = 12


@functools.lru_cache(maxsize=65536)
def key_id(text: str) -> int:
    """Stable 32-bit id of a path/edge/gate name (CRC-32 of UTF-8)."""
    return zlib.crc32(text.encode("utf-8"))


def split64(value: int) -> tuple[int, int]:
    """Two 32-bit lanes of an arbitrary (possibly negative) seed."""
    value &= M64
    return value & M32, value >> 32


def mix32(*lanes: int) -> int:
    """Mix integer lanes into one well-scrambled 32-bit value."""
    h = _SEED0
    for lane in lanes:
        h ^= lane & M32
        h = (h * _MUL1) & M32
        h ^= h >> 13
        h = (h * _MUL2) & M32
        h ^= h >> 16
    return h


def uniform01(h: int) -> float:
    """Map a 32-bit hash to a uniform in (0, 1) — exactly representable."""
    return (h + 0.5) * 2.0**-32


def std_gauss(*lanes: int) -> float:
    """Standard-normal draw (Irwin-Hall, 12 terms) for the given lanes."""
    total = 0.0
    for term in range(GAUSS_TERMS):
        h = _SEED0
        for lane in (*lanes, term):
            h ^= lane & M32
            h = (h * _MUL1) & M32
            h ^= h >> 13
            h = (h * _MUL2) & M32
            h ^= h >> 16
        total += (h + 0.5) * 2.0**-32
    return total - 6.0


# ---------------------------------------------------------------------------
# numpy batch twins
# ---------------------------------------------------------------------------

LaneLike = typing.Union[int, "np.ndarray"]


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - CI images always have numpy
        raise RuntimeError(
            "numpy is required for the vector kernels; set "
            "REPRO_SCALAR_KERNELS=1 to use the scalar reference path"
        )


def mix32_batch(lanes: typing.Sequence[LaneLike],
                state: LaneLike = _SEED0) -> "np.ndarray":
    """Vector :func:`mix32` over broadcastable ``uint32`` lanes.

    ``state`` continues an earlier mix: ``mix32_batch(rest,
    state=mix32(*prefix))`` equals ``mix32(*prefix, *rest)``, so lanes
    shared by many draws are mixed once.  ``state`` itself is never
    modified.
    """
    _require_numpy()
    with np.errstate(over="ignore"):
        h = np.uint32(state) if isinstance(state, int) else state
        mul1 = np.uint32(_MUL1)
        mul2 = np.uint32(_MUL2)
        for lane in lanes:
            if isinstance(lane, int):
                lane = np.uint32(lane & M32)
            elif lane.dtype != np.uint32:
                lane = lane.astype(np.uint32)
            # A fresh array, so ``state`` stays intact; the rest of the
            # step reuses its buffer.
            h = h ^ lane
            h *= mul1
            h ^= h >> np.uint32(13)
            h *= mul2
            h ^= h >> np.uint32(16)
    return h


def uniform01_batch(h: "np.ndarray") -> "np.ndarray":
    """Vector :func:`uniform01`; exact, so bit-equal to the scalar."""
    return (h.astype(np.float64) + 0.5) * 2.0**-32


def std_gauss_batch(lanes: typing.Sequence[LaneLike],
                    state: LaneLike = _SEED0) -> "np.ndarray":
    """Vector :func:`std_gauss`, continuing from ``state`` like
    :func:`mix32_batch`: ``std_gauss_batch(rest, state=mix32(*prefix))``
    equals ``std_gauss(*prefix, *rest)``.

    The lanes are mixed once; each Irwin-Hall term is one mix step from
    there.  The 12 hashes are summed exactly as ``int64`` and converted
    once (see the module docstring for why that is bit-equal).
    """
    _require_numpy()
    h = mix32_batch(lanes, state)
    total = np.zeros(np.shape(h), dtype=np.int64)
    for term in range(GAUSS_TERMS):
        total += mix32_batch([term], state=h)
    return (total + GAUSS_TERMS // 2).astype(np.float64) * 2.0**-32 - 6.0


def cycle_lanes(cycles: "np.ndarray") -> tuple["np.ndarray", "np.ndarray"]:
    """Split a non-negative int64 cycle array into two uint32 lanes."""
    _require_numpy()
    cycles = np.asarray(cycles, dtype=np.int64)
    return ((cycles & M32).astype(np.uint32),
            ((cycles >> 32) & M32).astype(np.uint32))
