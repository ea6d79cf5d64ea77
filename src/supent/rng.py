"""Seedable, platform-independent random number generation.

Audits and sweeps must reproduce bit-for-bit across machines, so randomness
comes from an explicit xoshiro256** shift-register generator (seeded through
splitmix64, the reference recipe) rather than from a library generator whose
stream is an implementation detail.  Gaussian variates use the Marsaglia
polar method.  Derived per-trial streams are obtained by mixing the base
seed with the trial index, so parallel and serial execution orders draw
identical numbers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["Xoshiro256StarStar"]

_MASK64 = (1 << 64) - 1
# Most Gaussians a matrix draw holds as Python floats at once (32 B each).
GAUSSIAN_CHUNK = 2**12
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding and polar-method Gaussians."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        state = self._seed
        s = []
        for _ in range(4):
            state, z = _splitmix64(state)
            s.append(z)
        if not any(s):
            s[0] = _SPLITMIX_GAMMA
        self._s = s
        self._spare_gaussian: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0**-53)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise DomainError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + int(self.random() * span) % span

    def gaussian(self) -> float:
        """Standard normal variate (Marsaglia polar method)."""
        return self.gaussians(1)[0]

    def gaussians(self, n: int) -> list[float]:
        """The next ``n`` standard normal variates (Marsaglia polar method).

        Each accepted pair of uniforms gives two variates; one that ``n``
        leaves over is kept and comes first in the next call.  The stream
        is that of the polar method drawn one variate at a time; the loop
        keeps the state in locals and steps the generator inline, which
        halves its cost per variate.
        """
        out = []
        spare = self._spare_gaussian
        if spare is not None and n > 0:
            out.append(spare)
            spare = None
        s0, s1, s2, s3 = self._s
        mask, scale, log, sqrt = _MASK64, 2.0**-53, math.log, math.sqrt
        while len(out) < n:
            # two steps of next_u64(), inlined, give the uniforms u and v
            x = (s1 * 5) & mask
            u = ((((x << 7) | (x >> 57)) & mask) * 9) & mask
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
            x = (s1 * 5) & mask
            v = ((((x << 7) | (x >> 57)) & mask) * 9) & mask
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
            u = 2.0 * ((u >> 11) * scale) - 1.0
            v = 2.0 * ((v >> 11) * scale) - 1.0
            r2 = u * u + v * v
            if 0.0 < r2 < 1.0:
                factor = sqrt(-2.0 * log(r2) / r2)
                out.append(u * factor)
                if len(out) < n:
                    out.append(v * factor)
                else:
                    spare = v * factor
        self._s = [s0, s1, s2, s3]
        self._spare_gaussian = spare
        return out

    def complex_gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix of i.i.d. standard complex Gaussians (row-major draw order,
        real part first), drawn GAUSSIAN_CHUNK at a time, so the Python
        floats in flight stay few at any size."""
        g = np.empty(2 * rows * cols)
        for lo in range(0, g.size, GAUSSIAN_CHUNK):
            hi = min(lo + GAUSSIAN_CHUNK, g.size)
            g[lo:hi] = self.gaussians(hi - lo)
        return g.view(complex).reshape(rows, cols)

    def spawn(self, index: int) -> "Xoshiro256StarStar":
        """Independent child stream derived from the base seed and an index.

        Children depend only on (seed, index), never on how much of the
        parent stream has been consumed.
        """
        _, z = _splitmix64((self._seed ^ ((index + 1) * _SPLITMIX_GAMMA)) & _MASK64)
        _, z = _splitmix64(z)
        return Xoshiro256StarStar(z)
