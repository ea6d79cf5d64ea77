"""Seedable, platform-independent random number generation.

Audits and sweeps must reproduce bit-for-bit across machines, so randomness
comes from an explicit xoshiro256** shift-register generator (seeded through
splitmix64, the reference recipe) rather than from a library generator whose
stream is an implementation detail.  Gaussian variates use the Marsaglia
polar method.  Derived per-trial streams are obtained by mixing the base
seed with the trial index, so parallel and serial execution orders draw
identical numbers.

A Gaussian draw has one driver, ``gaussians``, and two sources of polar
pairs with the same bits.  A draw of fewer than LANE_MIN_VARIATES variates
takes each pair from two ``random()`` calls, the polar method as written.
A larger draw cuts the stream into lanes of LANE_STEPS outputs each: the
state update is linear over GF(2), so the jump J = T^LANE_STEPS (T: one
step) is a 256 x 256 bit matrix and lane i starts at J^i s.  The starts
double: while there are k of them, J^(2^l), for the largest 2^l <= k with
l < JUMP_LEVELS, maps the last 2^l to the next 2^l, so past 128 starts
J^128 adds whole blocks of 128.  Numpy steps every lane at once, the
outputs are read back in stream order, and the polar method runs on whole
arrays.  Every float operation in it is exact or correctly rounded, so it
gives the floats of a pair at a time; the logarithm is not (``np.log``
differs from ``math.log`` in the last bit on about 0.35 % of arguments),
so ``math.log`` is taken once per accepted pair.  A draw runs in passes of
at most LANE_CHUNK variates, each planned for the pairs still wanted and
resuming the stream just after the last pair the one before used, so the
generator's state ends where a pair at a time would leave it.  Either way
the driver keeps the spare, the second variate of a last pair that ends
past ``n``, for the next call.  The jump products are XORs of table rows
indexed by the state's 4-bit nibbles, not matrix products, so no BLAS call
(and none of its threads) is involved; the tables (256 KiB) are built on
the first lane draw, in about 3 ms, never at import.

The audit draws many short streams, one per trial (``spawn``), and
``_stream_gaussians`` gives each its Gaussians.  The streams of at most
LANE_MIN_VARIATES pairs, most of which would draw pair by pair, are stepped
together, one lane per stream, so no jump is needed: one pass of the
attempts, with the overdraw, that the largest count of pairs takes, after
which each stream takes its first accepted pairs.  Every other stream, and
one that comes up short, draws itself with ``gaussians``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .qmath import check_integer

__all__ = ["Xoshiro256StarStar"]

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

# Two roles: draws of at least this many variates take their pairs from
# lane passes, smaller ones from two random() calls a pair, and an audit
# stream that wants at most this many pairs joins ``_stream_gaussians``'
# pass.  A lane pass costs at least LANE_STEPS rounds of numpy calls, so
# on a 2-core x86 host (two runs, each the least of 21 means of 20 draws)
# the pairs took 264-268 us at 192 variates against the lanes' 270-281,
# 347 against 285 at 256 and 530 against 307 at 384: the lanes win from
# about 200 variates.  The value stays 512 because of the second role,
# which no benchmark above max-dim 6 measures.  So a 16 x 16 Haar state
# takes the lanes, and a 6 x 6 one (72 variates) two random() calls a
# pair, unless its audit trial's stream is stepped with the others.
LANE_MIN_VARIATES = 512
# Outputs per lane (B in J = T^B).  Stepping costs B rounds of eight numpy
# calls whatever the lane count, and each lane start a table lookup per
# lane.  Medians of 15 draws of 512, 2,048 and 32,768 variates took
# 0.65/0.93/7.55 ms at B = 16, 0.77/1.02/6.42 at 32, 1.09/1.31/6.34 at 64
# and 1.70/1.97/6.78 at 128 (same host).
LANE_STEPS = 32
# Variates per lane pass, at most.  It bounds the temporaries: a full pass
# steps 1,337 lanes and holds about 2 MB of arrays at once.  A
# 65,884-variate draw took 23.3, 16.6, 15.1, 14.3 and 14.7 ms in chunks of
# 2^12 .. 2^16 (medians of 15).
LANE_CHUNK = 2**15
# Lane starts come from tables of J^(2^l), l < JUMP_LEVELS (32 KiB each),
# so past 2^(JUMP_LEVELS - 1) = 128 starts each jump adds a block of 128.
# A full pass's 1,337 starts took 1.14, 0.84, 0.75 and 1.00 ms with 6, 7, 8
# and 9 tables (least of 50, median of 3 alternating rounds, same host):
# a block's gathered table rows, 64 x 4 words per start, outgrow the cache
# at 256 starts.  Eight tables fill the 256 KiB that the tests allow.
JUMP_LEVELS = 8
# A lane pass draws this many standard deviations of the polar method's
# attempt count beyond its mean; when fewer pairs are accepted (about once
# in 10^12 passes) a second pass draws the rest, or a trial stream draws
# itself anew.
OVERDRAW_SD = 7
# The chance that a polar pair of uniforms lands inside the unit disc.
_POLAR_ACCEPT = math.pi / 4
# Most integers in a randint range.  random() takes the 2^53 multiples of
# 2^-53, so int(random() * span) can reach every integer below the span
# only while span <= 2^53: a wider range would leave integers out, and past
# about 2^1024 the product overflows.
RANDINT_MAX_SPAN = 2**53


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step_lanes(state: np.ndarray, steps: int, s1_out: np.ndarray | None = None) -> None:
    """Step each column of ``state`` (4 x lanes, uint64) ``steps`` times in
    place, as ``next_u64`` does; row k of ``s1_out`` receives s1 before step
    k, from which that step's output is made."""
    s1, s2, s3 = state[1], state[2], state[3]
    t = np.empty_like(s1)
    for k in range(steps):
        if s1_out is not None:
            s1_out[k] = s1
        np.left_shift(s1, 17, out=t)
        state[2:] ^= state[:2]  # s2 ^= s0, s3 ^= s1
        state[1::-1] ^= state[2:]  # s1 ^= s2, s0 ^= s3
        s2 ^= t
        np.right_shift(s3, 19, out=t)
        s3 <<= 45
        s3 |= t


_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)[:, None]
_NIBBLE_ROWS = np.arange(0, 64 * 16, 16, dtype=np.uint64)[:, None]


def _nibble_table(images: np.ndarray) -> np.ndarray:
    """The lookup table of the GF(2) map whose image of state bit j
    (bit j % 64 of word j // 64) is ``images[j]`` (4 uint64 words): row
    16 p + v holds the image of the bits of value v in nibble p."""
    images = images.reshape(64, 4, 4)
    table = np.zeros((64, 16, 4), np.uint64)
    for b in range(4):
        table[:, 1 << b : 2 << b] = table[:, : 1 << b] ^ images[:, b, None]
    table.flags.writeable = False  # cached and shared by every generator
    return table.reshape(64 * 16, 4)


def _apply(table: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The map of ``table`` applied to each row of ``states`` (k x 4 uint64):
    the XOR of one table row per nibble."""
    nibbles = (states.T[:, None, :] >> _NIBBLE_SHIFTS) & 15  # word, nibble, row
    rows = nibbles.reshape(64, -1) + _NIBBLE_ROWS
    return np.bitwise_xor.reduce(np.take(table, rows, axis=0), axis=0)


@functools.cache
def _jump_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of J^(2^l), l = 0 .. JUMP_LEVELS - 1, with
    J = T^LANE_STEPS, built on the first lane draw: J's images of the 256
    state bits are those bits' states stepped LANE_STEPS times, and each
    next table's images are the last one's mapped once more by the last
    table."""
    bit = np.arange(256)
    state = np.zeros((4, 256), np.uint64)
    state[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    _step_lanes(state, LANE_STEPS)
    images = state.T.copy()
    tables = [_nibble_table(images)]
    for _ in range(JUMP_LEVELS - 1):
        images = _apply(tables[-1], images)
        tables.append(_nibble_table(images))
    return tuple(tables)


def _lane_starts(state: list[int], lanes: int) -> np.ndarray:
    """The states (lanes x 4 uint64) LANE_STEPS, 2 LANE_STEPS, ... outputs
    apart, the first being ``state``.  While there are k starts, the table
    of J^(2^l), for the largest 2^l <= k with l < JUMP_LEVELS, maps the last
    2^l of them to the next 2^l (fewer at the end)."""
    starts = np.empty((lanes, 4), np.uint64)
    starts[0] = state
    done = 1
    while done < lanes:
        level = min(done.bit_length(), JUMP_LEVELS) - 1
        new = min(1 << level, lanes - done)
        starts[done : done + new] = _apply(_jump_tables()[level], starts[done - (1 << level) :][:new])
        done += new
    return starts


def _stream_uniforms(state: np.ndarray, steps: int) -> np.ndarray:
    """The uniforms 2 (x >> 11) 2^-53 - 1 of the next ``steps`` outputs x
    of each column of ``state`` (4 x lanes uint64, stepped in place), one
    row per lane in stream order."""
    x = np.empty((steps, state.shape[1]), np.uint64)
    _step_lanes(state, steps, x)
    x = x.T.copy()  # stream order
    x *= 5  # next_u64's output: rotl(s1 * 5, 7) * 9
    high = x << 7
    x >>= 57
    x |= high
    x *= 9
    x >>= 11
    u = x.astype(np.float64)
    u *= 2.0**-53
    u *= 2.0
    u -= 1.0
    return u


def _attempts(pairs: int) -> float:
    """The polar attempts that ``pairs`` accepted pairs take, OVERDRAW_SD
    standard deviations beyond the mean: the attempts per pair have mean
    1/p and standard deviation sqrt(1 - p)/p."""
    return (pairs + OVERDRAW_SD * math.sqrt(pairs * (1.0 - _POLAR_ACCEPT))) / _POLAR_ACCEPT


def _polar_variates(uv: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """The two Gaussians of each accepted pair (u, v) with u^2 + v^2 = r2,
    a row each."""
    log = np.fromiter(map(math.log, r2.tolist()), np.float64, r2.size)
    return uv * np.sqrt(-2.0 * log / r2)[:, None]


def _stream_gaussians(streams: list["Xoshiro256StarStar"], pairs: list[int]) -> list[np.ndarray]:
    """Each stream's ``gaussians(2 * pairs[i])``, for generators with no
    spare.  One pass steps the streams of at most LANE_MIN_VARIATES pairs,
    one lane each and left as they are, by the attempts of the largest
    count, and each takes its first ``pairs[i]`` accepted pairs.  Every
    other stream, and one that came up short, draws itself with
    ``gaussians``, from its untouched state."""
    counts = np.array(pairs, dtype=np.int64)
    lane = counts <= LANE_MIN_VARIATES
    g = np.empty(0)
    if lane.any():
        want = counts[lane]
        state = np.array([s._s for s, x in zip(streams, lane) if x], np.uint64).T.copy()
        uv = _stream_uniforms(state, 2 * math.ceil(_attempts(want.max()))).reshape(want.size, -1, 2)
        r2 = uv[..., 0] * uv[..., 0]
        r2 += uv[..., 1] * uv[..., 1]
        inside = (r2 > 0.0) & (r2 < 1.0)
        rank = np.cumsum(inside, axis=1)
        short = rank[:, -1] < want
        taken = inside & (rank <= want[:, None]) & ~short[:, None]
        g = _polar_variates(uv[taken], r2[taken]).ravel()
        lane[lane] = ~short
    drawn = iter(np.split(g, np.cumsum(2 * counts[lane])[:-1]))
    return [next(drawn) if x else s.gaussians(2 * n) for s, n, x in zip(streams, pairs, lane.tolist())]


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding and polar-method Gaussians."""

    def __init__(self, seed: int):
        check_integer(-math.inf, seed=seed)
        self._seed = int(seed) & _MASK64
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
        check_integer(-math.inf, lo=lo, hi=hi)
        if hi < lo:
            raise DomainError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span > RANDINT_MAX_SPAN:
            raise DomainError("randint range holds more than 2^53 integers")
        return lo + int(self.random() * span) % span

    def gaussian(self) -> float:
        """Standard normal variate (Marsaglia polar method)."""
        return float(self.gaussians(1)[0])

    def gaussians(self, n: int) -> np.ndarray:
        """The next ``n`` standard normal variates (Marsaglia polar method).

        Each accepted pair of uniforms gives two variates; one that ``n``
        leaves over is the spare, kept for the next call, which returns it
        first.  The stream is that of the polar method drawn one variate at
        a time.  The pairs come from one source, chosen by ``n``: below
        LANE_MIN_VARIATES two ``random()`` calls a pair, else lane passes.
        Each pass plans the pairs still wanted, at most LANE_CHUNK / 2, and
        leaves the state just after its last accepted pair if it has them
        all, else after its last uniforms; so a pass that falls short and a
        chunk boundary are the same case, and the next pass draws the rest.
        """
        check_integer(0, n=n)
        out = np.empty(n + 1)  # the last pair may end one past n: the spare
        done = 0
        if self._spare_gaussian is not None:
            out[0], self._spare_gaussian, done = self._spare_gaussian, None, 1
        lanes = n >= LANE_MIN_VARIATES
        while done < n:
            if not lanes:
                u, v = 2.0 * self.random() - 1.0, 2.0 * self.random() - 1.0
                r2 = u * u + v * v
                if 0.0 < r2 < 1.0:
                    factor = math.sqrt(-2.0 * math.log(r2) / r2)
                    out[done], out[done + 1] = u * factor, v * factor
                    done += 2
                continue
            need = min((n - done + 1) // 2, LANE_CHUNK // 2)
            starts = _lane_starts(self._s, math.ceil(2.0 * _attempts(need) / LANE_STEPS))
            state = starts.T.copy()
            uv = _stream_uniforms(state, LANE_STEPS).reshape(-1, 2)
            r2 = uv[:, 0] * uv[:, 0]
            r2 += uv[:, 1] * uv[:, 1]
            accepted = np.flatnonzero((r2 > 0.0) & (r2 < 1.0))[:need]
            r2 = r2[accepted]
            out[done : done + 2 * r2.size] = _polar_variates(uv[accepted], r2).ravel()
            done += 2 * r2.size
            used = 2 * (int(accepted[-1]) + 1) if r2.size == need else 2 * len(uv)
            lane, steps = divmod(used, LANE_STEPS)
            self._s = [int(w) for w in (starts[lane] if lane < len(starts) else state[:, -1])]
            for _ in range(steps):
                self.next_u64()
        if done > n:
            self._spare_gaussian = float(out[n])
        return out[:n]

    def complex_gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix of i.i.d. standard complex Gaussians (row-major draw order,
        real part first)."""
        check_integer(0, rows=rows, cols=cols)
        return self.gaussians(2 * rows * cols).view(complex).reshape(rows, cols)

    def spawn(self, index: int) -> "Xoshiro256StarStar":
        """Independent child stream derived from the base seed and an index.

        Children depend only on (seed, index), never on how much of the
        parent stream has been consumed.
        """
        check_integer(-math.inf, index=index)
        _, z = _splitmix64((self._seed ^ ((index + 1) * _SPLITMIX_GAMMA)) & _MASK64)
        _, z = _splitmix64(z)
        return Xoshiro256StarStar(z)
