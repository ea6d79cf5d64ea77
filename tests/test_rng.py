"""Bit guard for the seeded generator.

Audits reproduce from a seed alone, so the Gaussians behind every Haar state
must keep their bits.  The literals are ``float.hex`` strings (and, for the
larger shapes, the sha256 of those strings joined by spaces) of
``haar_random_state`` coefficients, and the generator's next ``next_u64()``
after an odd number of Gaussians, which covers the spare Gaussian a polar
draw carries to the next call.  They were recorded before the Gaussian loop
was rewritten.  The 181 x 182 digest pins a raw draw, not a normalized
state, whose norm depends on OpenBLAS's thread count; it was recorded from
the lane path and matches the one-at-a-time polar method below.  Pure
integer and float arithmetic makes them platform-independent.
"""

import hashlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from supent import harness, rng as rng_module
from supent.errors import DomainError
from supent.rng import Xoshiro256StarStar
from supent.states import BipartiteState

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _hexes(state):
    return [x.hex() for x in state.coeffs.view(float).ravel()]


@pytest.mark.parametrize(
    "shape, seed, recorded",
    [
        ((2, 2), 1, [
            "0x1.2de52e275d000p-1", "0x1.e678746dd29afp-5", "0x1.a135dded207fap-2",
            "-0x1.31e814383deb7p-1", "0x1.18e3d5b53ff42p-3", "-0x1.fbbf9d11b1dd1p-3",
            "-0x1.a5370e00ea891p-3", "-0x1.d2afdc0d9ece7p-5",
        ]),
        ((2, 3), 2, [
            "-0x1.59a966d009f60p-3", "0x1.87e600fdf7ba2p-4", "-0x1.e9c2b9bff7edap-3",
            "0x1.80182d5d3a8dbp-3", "0x1.fa7861e758085p-3", "-0x1.6728c952d33dap-2",
            "0x1.a0415eb23bf69p-3", "-0x1.8d6fdd00f1c3cp-2", "0x1.9fddd2b8e8c70p-3",
            "0x1.db7e09c0264acp-2", "0x1.ada4cb4a6dd6dp-2", "-0x1.f9b874a950534p-3",
        ]),
        ((3, 2), 3, [
            "0x1.757821e10090cp-2", "0x1.13679b7860878p-2", "-0x1.91233ec88519dp-2",
            "0x1.82d60f0aa2a4ep-5", "-0x1.7aad8e277daa8p-2", "-0x1.f8aabc7788929p-2",
            "-0x1.eb40880f7cac3p-3", "0x1.6d63895ddf505p-3", "0x1.1d64e46ddb874p-3",
            "0x1.e50757f83101fp-5", "0x1.84859f30f46bfp-3", "0x1.55376739971f1p-2",
        ]),
    ],
)
def test_haar_state_bits(shape, seed, recorded):
    assert _hexes(harness.haar_random_state(*shape, seed)) == recorded


@pytest.mark.parametrize(
    "shape, seed, digest",
    [
        ((4, 4), 5, "db49be041df9485f21d6048676e41f9675d1e58ca5380bb41b77397c306222d7"),
        ((5, 6), 6, "b4a8961f62b6bb4adbfdec8d86bde77e0d9e7c7f5100da8afa7904729d679f35"),
        ((6, 5), 7, "ef3843148864ba6081d1c8242e8700f1d4f69c02f117b9d8de8d920be62b744f"),
        ((64, 64), 3, "524834e3c938cb968ca26baafa3f9315915d829e9a1ee48172f43345d589ece0"),
    ],
)
def test_haar_state_digests(shape, seed, digest):
    # each state has at most 10,000 entries: above that, OpenBLAS runs the
    # ddot of np.linalg.norm threaded, and the norm's last bit can follow
    # the thread count
    text = " ".join(_hexes(harness.haar_random_state(*shape, seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_a_three_pass_lane_draw_digest():
    # 65,884 variates: two full lane chunks and part of a third.  The draw
    # is pinned before normalizing, which calls no BLAS, so it holds at any
    # thread count.
    g = Xoshiro256StarStar(2026).complex_gaussian_matrix(181, 182)
    text = " ".join(x.hex() for x in g.view(float).ravel())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ef2158f38c8151dab78b77f801b5218581acc5448875d8988addaec8af336253"
    )


@pytest.mark.parametrize(
    "seed, n, last, next_u64, spare",
    [
        (9, 1, "-0x1.42d94640c8e9dp-1", 16981796229282007397, "0x1.98cd5576e6b53p-2"),
        (9, 3, "0x1.2592aae28fccap-2", 12596827927452161363, "0x1.55332b58fde5bp-3"),
        (9, 5, "0x1.00a66d1197cffp+1", 2756707221161059333, "0x1.66ae1fe330756p-5"),
        (2**64 - 1, 7, "-0x1.41bb8c540701dp-1", 11558284878126271842, "0x1.4c13d68882120p+0"),
    ],
)
def test_odd_gaussian_draws_carry_the_spare(seed, n, last, next_u64, spare):
    # the spare is the pair's second variate: the uniforms after it are
    # untouched, and the next Gaussian returns it without drawing
    rng = Xoshiro256StarStar(seed)
    assert [rng.gaussian() for _ in range(n)][-1].hex() == last
    assert rng.next_u64() == next_u64
    assert rng.gaussian().hex() == spare


def test_a_matrix_draw_starts_with_the_spare():
    rng = Xoshiro256StarStar(9)
    rng.gaussian()
    first = rng.complex_gaussian_matrix(1, 2)[0, 0]
    assert first.real.hex() == "0x1.98cd5576e6b53p-2"
    # four Gaussians from the matrix leave the fifth as the spare
    assert rng.gaussian().hex() == "0x1.66ae1fe330756p-5"
    assert rng.next_u64() == 2756707221161059333


def _polar_gaussians(rng, n, spare):
    """The polar method one variate at a time, on the generator's
    ``random()``: the reference the Gaussian loop must match."""
    out = []
    while len(out) < n:
        if spare is not None:
            out.append(spare)
            spare = None
            continue
        u = 2.0 * rng.random() - 1.0
        v = 2.0 * rng.random() - 1.0
        r2 = u * u + v * v
        if 0.0 < r2 < 1.0:
            factor = math.sqrt(-2.0 * math.log(r2) / r2)
            out.append(u * factor)
            spare = v * factor
    return out, spare


def test_gaussian_loop_matches_the_one_at_a_time_polar_method():
    for seed in range(40):
        fast, slow = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
        spare = None
        # odd draws below and above LANE_MIN_VARIATES (512) carry a spare
        # from a pair at a time into a lane draw (511 -> 513, 1 -> 1025) and
        # back (513 -> 0 -> 511)
        for n in (1, 4, 3, 0, 7, 2, 5, 1, 1, 511, 513, 1, 1025, 513, 0, 511, 3):
            expected, spare = _polar_gaussians(slow, n, spare)
            assert [x.hex() for x in fast.gaussians(n)] == [x.hex() for x in expected]
            assert fast.next_u64() == slow.next_u64()


# Below, at and above LANE_MIN_VARIATES (512), and up to three LANE_CHUNKs.
LANE_SHAPES = [(1, 3), (15, 17), (16, 16), (33, 31), (40, 40), (64, 65), (129, 127), (181, 182)]


def _assert_matrix_draws_match(seeds, shapes):
    # an odd gaussian() before and after carries a spare into and out of
    # each matrix draw
    for seed in seeds:
        for rows, cols in shapes:
            fast, slow = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
            got = [fast.gaussian()]
            got += fast.complex_gaussian_matrix(rows, cols).view(float).ravel().tolist()
            got.append(fast.gaussian())
            expected, _ = _polar_gaussians(slow, len(got), None)
            assert [x.hex() for x in got] == [x.hex() for x in expected], (seed, rows, cols)
            assert fast.next_u64() == slow.next_u64(), (seed, rows, cols)


def test_lane_draws_match_the_one_at_a_time_polar_method():
    _assert_matrix_draws_match(range(12), LANE_SHAPES)


def test_a_lane_pass_that_falls_short_draws_the_rest(monkeypatch):
    # planning for every attempt to be accepted leaves about a fifth of
    # each pass's pairs to the next pass
    monkeypatch.setattr(rng_module, "_POLAR_ACCEPT", 1.0)
    _assert_matrix_draws_match(range(3), [(16, 16), (64, 65)])
    fast, slow = Xoshiro256StarStar(5), Xoshiro256StarStar(5)
    expected, _ = _polar_gaussians(slow, 1001, None)
    assert [x.hex() for x in fast.gaussians(1001)] == [x.hex() for x in expected]


# Lane counts at and next to the doublings of _lane_starts and its blocks of
# 128 starts, and the largest pass's 1,337 lanes.
JUMP_LANES = (1, 2, 3, 127, 128, 129, 255, 256, 257, 1337)


def test_lane_starts_are_lane_steps_outputs_apart(monkeypatch):
    for seed in (0, 5):
        stepped = Xoshiro256StarStar(seed)
        expected = []
        for _ in range(max(JUMP_LANES)):
            expected.append(stepped._s)
            for _ in range(rng_module.LANE_STEPS):
                stepped.next_u64()
        state = Xoshiro256StarStar(seed)._s
        for lanes in JUMP_LANES:
            assert rng_module._lane_starts(state, lanes).tolist() == expected[:lanes], (seed, lanes)
    # a pass of LANE_CHUNK variates, the largest, takes the last count
    counts = []
    lane_starts = rng_module._lane_starts

    def counted(s, lanes):
        counts.append(lanes)
        return lane_starts(s, lanes)

    monkeypatch.setattr(rng_module, "_lane_starts", counted)
    Xoshiro256StarStar(1).gaussians(4 * rng_module.LANE_CHUNK)
    assert max(counts) == JUMP_LANES[-1]


def _one_at_a_time_trials(n_trials, max_dim, seed):
    """The audit's trials, every Gaussian of a trial's stream drawn by the
    one-at-a-time polar method: psi, phi, then z1 and z2."""
    base = Xoshiro256StarStar(seed)
    for trial in range(n_trials):
        rng = base.spawn(trial)
        a, b = rng.randint(2, max_dim), rng.randint(2, max_dim)
        g, _ = _polar_gaussians(rng, 4 * a * b + 4, None)
        n = 2 * a * b
        states = [np.array(g[k * n : (k + 1) * n]).view(complex).reshape(a, b) for k in (0, 1)]
        psi, phi = (BipartiteState(c / np.linalg.norm(c)) for c in states)
        z1, z2 = complex(*g[2 * n : 2 * n + 2]), complex(*g[2 * n + 2 :])
        norm = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
        yield trial, psi, phi, z1 / norm, z2 / norm


def _audit_trials(n_trials, max_dim, seed):
    """The audit's draws, its batches joined."""
    return [draw for batch in harness._audit_draws(n_trials, max_dim, seed) for draw in batch]


def _trial_bits(draws):
    return [
        (trial, _hexes(psi), _hexes(phi), [x.hex() for x in (alpha.real, alpha.imag, beta.real, beta.imag)])
        for trial, psi, phi, alpha, beta in draws
    ]


def _fresh_streams(n_trials, max_dim, seed):
    """{trial: (state, 2 d_A d_B)}: each audit trial's stream state just
    after its two dimensions, and its matrices' variate count."""
    base = Xoshiro256StarStar(seed)
    trials = (harness._trial_stream(base, trial, max_dim) for trial in range(n_trials))
    return {trial: (rng._s, 2 * a * b) for trial, rng, a, b in trials}


def _spy_draws(monkeypatch):
    """Spies on the audit's draws: ``passes`` gets the lane states (each a
    stream's ``_s``) of every pass of ``_stream_gaussians``, and ``alone``
    the (state, spare, n) of every stream that draws itself with
    ``gaussians(n)``; the lane passes inside such a draw are its own and
    are not recorded."""
    passes, alone, inside = [], [], []
    stream_uniforms, gaussians = rng_module._stream_uniforms, Xoshiro256StarStar.gaussians

    def spy_pass(state, steps):
        if not inside:
            passes.append(state.T.tolist())
        return stream_uniforms(state, steps)

    def spy_alone(self, n):
        alone.append((self._s, self._spare_gaussian, n))
        inside.append(n)
        try:
            return gaussians(self, n)
        finally:
            inside.pop()

    monkeypatch.setattr(rng_module, "_stream_uniforms", spy_pass)
    monkeypatch.setattr(Xoshiro256StarStar, "gaussians", spy_alone)
    return passes, alone


# Up to max-dim 12 every trial is drawn in the lanes of one pass; at 16
# and 20 some trials' matrices take LANE_MIN_VARIATES or more variates
# (2 d_A d_B >= 512), and those streams draw themselves.
AUDIT_DRAW_CASES = [(n, max_dim) for max_dim in range(2, 13) for n in (1, 5, 40)] + [(30, 16), (12, 20)]


def test_audit_stream_draws_match_the_one_at_a_time_polar_method(monkeypatch):
    _, alone = _spy_draws(monkeypatch)
    large = 0
    for n_trials, max_dim in AUDIT_DRAW_CASES:
        for seed in (0, 7, 24301):
            alone.clear()
            got = _trial_bits(_audit_trials(n_trials, max_dim, seed))
            expected = _trial_bits(_one_at_a_time_trials(n_trials, max_dim, seed))
            assert got == expected, (n_trials, max_dim, seed)
            # the overdraw leaves no stream short (about once in 10^12 a
            # pass is): the streams that draw themselves are the large
            # ones, 4 d_A d_B + 4 variates each, and up to max-dim 12 none
            variates = [len(t[1]) for t in got]
            large_draws = sorted(2 * v + 4 for v in variates if v >= rng_module.LANE_MIN_VARIATES)
            assert sorted(n for _, _, n in alone) == large_draws, (n_trials, max_dim, seed)
            assert max_dim > 12 or not alone, (n_trials, max_dim, seed)
            large += len(large_draws)
    assert large > 0


def test_an_audit_stream_that_falls_short_is_drawn_on_the_loop(monkeypatch):
    # planning for every attempt to be accepted leaves the streams with the
    # most pairs short; each then draws itself, by the loop (4 d_A d_B + 4
    # <= 260 variates), from the state the lane pass left untouched
    monkeypatch.setattr(rng_module, "_POLAR_ACCEPT", 1.0)
    passes, alone = _spy_draws(monkeypatch)
    short = 0
    for seed in range(4):
        passes.clear()
        alone.clear()
        got = _trial_bits(_audit_trials(40, 8, seed))
        assert got == _trial_bits(_one_at_a_time_trials(40, 8, seed)), seed
        fresh = _fresh_streams(40, 8, seed)
        assert passes == [[state for state, _ in fresh.values()]], seed
        untouched = {tuple(state): 2 * v + 4 for state, v in fresh.values()}
        assert all(spare is None and untouched[tuple(state)] == n for state, spare, n in alone), seed
        assert len(alone) < 40, seed
        short += len(alone)
    assert short > 0


def test_audit_lanes_hold_one_certify_batch_at_most(monkeypatch):
    passes, _ = _spy_draws(monkeypatch)
    batches = []
    certified_batch = harness._certified_batch

    def spy(batch):
        batches.append([draw[0] for draw in batch])
        return certified_batch(batch)

    monkeypatch.setattr(harness, "_certified_batch", spy)
    widest = 0
    for coeffs in (1, 300, harness.AUDIT_BATCH_COEFFS):
        monkeypatch.setattr(harness, "AUDIT_BATCH_COEFFS", coeffs)
        for max_dim in (6, 20):
            passes.clear()
            batches.clear()
            harness.random_audit(24, max_dim, seed=3)
            # each pass steps exactly its certify batch's trials with
            # 2 d_A d_B < LANE_MIN_VARIATES, one lane each, from their
            # streams' states
            fresh = _fresh_streams(24, max_dim, 3)
            lanes = [[fresh[t][0] for t in batch if fresh[t][1] < rng_module.LANE_MIN_VARIATES] for batch in batches]
            assert passes == [lane for lane in lanes if lane], (coeffs, max_dim)
            assert max_dim == 6 or any(len(lane) < len(batch) for lane, batch in zip(lanes, batches))
            widest = max(widest, *map(len, passes))
        if coeffs == 1:
            assert len(batches) == 24
    assert widest > 1


def test_small_draws_build_no_jump_table():
    # one cache entry of at most 256 KiB serves every lane draw
    code = (
        "from supent import harness, rng\n"
        "harness.haar_random_state(6, 6, 1)\n"
        "assert rng._jump_tables.cache_info().currsize == 0\n"
        "harness.haar_random_state(16, 16, 1)\n"
        "harness.haar_random_state(128, 128, 1)\n"
        "assert rng._jump_tables.cache_info().currsize == 1\n"
        "assert sum(table.nbytes for table in rng._jump_tables()) <= 256 * 1024\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_bad_generator_arguments_raise_domain_error():
    rng = Xoshiro256StarStar(1)
    bad = [
        lambda: Xoshiro256StarStar(1.5),
        lambda: Xoshiro256StarStar(True),
        lambda: rng.gaussians(2.5),
        lambda: rng.gaussians(True),
        lambda: rng.gaussians(-1),
        lambda: rng.complex_gaussian_matrix(-1, 2),
        lambda: rng.complex_gaussian_matrix(2.0, 2),
        lambda: rng.complex_gaussian_matrix(2, None),
        lambda: rng.randint(0.5, 3),
        lambda: rng.randint(0, 3.0),
        lambda: rng.randint(3, 2),
        lambda: rng.randint(0, 2**53),
        lambda: rng.randint(0, 2**1100),
        lambda: rng.randint(-(2**1100), 0),
        lambda: rng.spawn(1.5),
    ]
    for call in bad:
        with pytest.raises(DomainError):
            call()
    # none of them drew from the stream
    assert rng.next_u64() == Xoshiro256StarStar(1).next_u64()
