"""Local (per-path, per-cycle) dynamic variation."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.kernels.rng import key_id, mix32, split64, std_gauss

#: Domain-separation salt so local draws never collide with the other
#: stochastic streams sharing a (seed, cycle, path) tuple.
_SALT = key_id("local-variation")


class LocalVariation:
    """Uncorrelated per-path per-cycle delay jitter.

    Models crosstalk, local supply noise, and data-dependent gate delay:
    each (cycle, path) pair independently draws a Gaussian factor
    ``N(mean, sigma)`` clipped at ``min_factor``.  Draws are deterministic
    in (seed, cycle, path) — re-evaluating the same pair always returns
    the same factor, so simulations are reproducible and models can be
    queried out of order.

    The draw is an Irwin-Hall Gaussian over the integer-lane mixer of
    :mod:`repro.kernels.rng`, so :meth:`factor_batch` reproduces the
    scalar stream bit for bit.  It mixes the salt and seed lanes once
    (at construction) and a block's cycle lanes once per cycle, then
    the path keys and the Gaussian terms.
    """

    def __init__(
        self,
        *,
        sigma: float,
        mean: float = 1.0,
        min_factor: float = 0.5,
        max_factor: float | None = None,
        seed: int = 0,
    ) -> None:
        if sigma < 0:
            raise ConfigurationError("sigma must be >= 0")
        if mean <= 0 or min_factor <= 0:
            raise ConfigurationError("mean and min_factor must be > 0")
        if max_factor is not None and max_factor < min_factor:
            raise ConfigurationError("max_factor must be >= min_factor")
        self.sigma = sigma
        self.mean = mean
        self.min_factor = min_factor
        #: Optional upper clip.  Physical local variation is bounded
        #: (data-dependent delay cannot grow without limit); bounding it
        #: also lets deployments size the recovered margin to a true
        #: worst case, as the paper assumes in Sec. 4.
        self.max_factor = max_factor
        self.seed = seed
        self._seed_lanes = split64(seed)
        #: Mixer state after the (salt, seed) lanes every draw shares.
        self._prefix = mix32(_SALT, *self._seed_lanes)

    def factor(self, cycle: int, path_id: str) -> float:
        if self.sigma == 0:
            return self.mean
        lo, hi = self._seed_lanes
        z = std_gauss(_SALT, lo, hi, cycle & 0xFFFFFFFF, cycle >> 32,
                      key_id(path_id))
        value = self.mean + self.sigma * z
        value = max(self.min_factor, value)
        if self.max_factor is not None:
            value = min(value, self.max_factor)
        return value

    def factor_batch(self, cycles, path_ids):
        import numpy as np

        from repro.kernels.rng import cycle_lanes, mix32_batch, \
            std_gauss_batch

        cycles = np.asarray(cycles, dtype=np.int64)
        if self.sigma == 0:
            return np.full((1, 1), self.mean)
        c_lo, c_hi = cycle_lanes(cycles)
        keys = np.array([key_id(p) for p in path_ids], dtype=np.uint32)
        per_cycle = mix32_batch([c_lo, c_hi], state=self._prefix)
        z = std_gauss_batch([keys[None, :]], state=per_cycle[:, None])
        value = self.mean + self.sigma * z
        value = np.maximum(self.min_factor, value)
        if self.max_factor is not None:
            value = np.minimum(value, self.max_factor)
        return value
