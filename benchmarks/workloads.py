"""The benchmark's workloads: input generation (set-up) and one op each.

A workload's schedule is a sequence of cycles with a fixed mix of op classes
(certify-dense and sweep-large-d alternate the kind or family of their one
large op from cycle to cycle), so a run made of whole cycles has the same mix
whatever its length; the seed decides the inputs and their order.  Mixed
sizes are deliberately not split evenly, so that the median and the tail each
fall well inside one size mode instead of between two.

Inputs come from supent's own xoshiro256** generator.  Every op calls supent
through a module attribute (``bounds.certify``, ``cli.cli_main``,
``harness.dimension_sweep``) so that the traced run's patches see it.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from supent import bounds, cli, harness
from supent.rng import Xoshiro256StarStar

import checks

# Index of the generator stream used for warm-up inputs, far from the cycle
# indices, so warm-up never repeats an input that is timed.
_WARMUP_STREAM = 1 << 30

# Reference kernels.  Each workload has one: a fixed piece of work of the
# same kind as its ops that calls nothing in supent.  run.py times it after
# every op to follow the shared host's speed (see NOTES.md, "Noise").
# numpy.linalg.eigvalsh is bound here, at import, so that the traced run's
# patch of it never counts a kernel call.
_eigvalsh = np.linalg.eigvalsh


def _hermitian(d: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    m = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return m @ m.conj().T


_DENSE = (_hermitian(32, 1), _hermitian(64, 2))
_TINY = tuple(_hermitian(d, d) for d in (2, 3, 4, 6))
_SPECTRUM = np.random.default_rng(3).random(2**16 + 1)
_SPECTRUM /= _SPECTRUM.sum()


@dataclass(frozen=True)
class Op:
    label: str  # op class, for the per-class breakdown
    units: int  # work units counted by throughput
    args: tuple


def _shuffle(rng: Xoshiro256StarStar, items: list) -> list:
    for i in range(len(items) - 1, 0, -1):
        j = rng.randint(0, i)
        items[i], items[j] = items[j], items[i]
    return items


def _unit_sphere_pairs(rng: Xoshiro256StarStar, n: int) -> list[tuple[complex, complex]]:
    """n draws of (alpha, beta) uniform on the complex unit sphere.

    On that sphere |alpha|^2 is uniform on [0, 1] and the two phases are
    uniform and independent.  |alpha|^2 is stratified, one draw in each of n
    equal strata in random order: every draw is still uniform, but the mean
    of anything over the n draws varies much less from seed to seed.
    """
    strata = _shuffle(rng, list(range(n)))
    pairs = []
    for k in strata:
        a = (k + rng.random()) / n
        phase_a, phase_b = 2.0 * math.pi * rng.random(), 2.0 * math.pi * rng.random()
        pairs.append((math.sqrt(a) * cmath.exp(1j * phase_a), math.sqrt(1.0 - a) * cmath.exp(1j * phase_b)))
    return pairs


class CertifyDense:
    """One op is one ``bounds.certify`` call on a dense d x d problem."""

    name = "certify-dense"
    unit = "problems"
    # (kind, d, ops per cycle): 38 ops at d = 32, 5 at 64 and 1 at 128, so
    # the median falls near the middle of the d = 32 ops and the tail among
    # the d = 64 ones.  The d = 128 op is a Haar pair in even cycles and a
    # one-sided pair in odd ones: over two cycles, 21 of 88 ops are one-sided.
    LAYOUT = (
        ("haar", 32, 29),
        ("one_sided", 32, 9),
        ("haar", 64, 4),
        ("one_sided", 64, 1),
    )
    LARGE = 128
    # 176 ops, with 4 at d = 128 and 20 at d = 64: the tail is the 7th
    # slowest d = 64 op.
    TAIL_CYCLES = 4
    # States drawn per class; a problem pairs two of them with fresh
    # (alpha, beta), so no two ops share all their inputs.
    POOL = {32: 8, 64: 4, 128: 3}
    ONE_SIDED_POOL = {32: 3, 64: 2, 128: 2}

    def __init__(self, seed: int):
        self.seed = seed
        rng = Xoshiro256StarStar(seed)
        self.pools = {}
        for d, n in self.POOL.items():
            pool = [harness.haar_random_state(d, d, rng.next_u64()) for _ in range(n)]
            self.pools[("haar", d)] = (pool, pool, [(i, j) for i in range(n) for j in range(n) if i != j])
        for d, n in self.ONE_SIDED_POOL.items():
            pairs = [harness.generate_one_sided_pair(d // 2, d // 2, d, rng.next_u64()) for _ in range(n)]
            psis = [p for p, _ in pairs]
            phis = [q for _, q in pairs]
            # psi_i lives on the first B block and phi_j on the second, so any
            # (i, j) is a one-sided orthogonal pair.
            self.pools[("one_sided", d)] = (psis, phis, [(i, j) for i in range(n) for j in range(n)])

    def cycle(self, index: int) -> list[Op]:
        rng = Xoshiro256StarStar(self.seed).spawn(index)
        ops = []
        large = ("haar", "one_sided")[index % 2], self.LARGE, 1
        for kind, d, n in self.LAYOUT + (large,):
            psis, phis, index_pairs = self.pools[(kind, d)]
            for alpha, beta in _unit_sphere_pairs(rng, n):
                i, j = index_pairs[rng.randint(0, len(index_pairs) - 1)]
                ops.append(Op(f"{kind}-{d}", 1, (kind, psis[i], phis[j], alpha, beta)))
        return _shuffle(rng, ops)

    def warmup_ops(self) -> list[Op]:
        """The first op of each size from a stream no cycle uses."""
        first = {}
        for op in self.cycle(_WARMUP_STREAM):
            first.setdefault(op.args[1].dim_a, op)
        return [first[d] for d in sorted(first)]

    @staticmethod
    def run(op: Op):
        _, psi, phi, alpha, beta = op.args
        return bounds.certify(psi, phi, alpha, beta)

    # The reference kernel's mean time between timed ops on the reference
    # host (NOTES.md, "Noise"); the same for the other workloads.
    REFERENCE_S = 2.2e-3

    @staticmethod
    def reference() -> None:
        """Dense eigendecompositions, as inside certify's f(t) search."""
        for m in _DENSE * 4:
            _eigvalsh(m)

    @staticmethod
    def evaluate(op: Op, report) -> tuple[list[str], float]:
        kind, psi, phi, alpha, beta = op.args
        ref = checks.reference_exact(psi.coeffs, phi.coeffs, alpha, beta)
        failures = checks.check_certify(report, ref, one_sided=kind == "one_sided")
        return failures, checks.upper_gap_certify(report)


class AuditSmall:
    """One op is one in-process ``supent audit`` CLI call on tiny problems."""

    name = "audit-small"
    unit = "trials"
    TRIALS = 64
    MAX_DIM = 6
    OPS_PER_CYCLE = 8
    TAIL_CYCLES = 6  # 48 calls

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, index: int) -> list[Op]:
        rng = Xoshiro256StarStar(self.seed).spawn(index)
        return [Op("audit", self.TRIALS, (rng.next_u64() >> 1,)) for _ in range(self.OPS_PER_CYCLE)]

    def warmup_ops(self) -> list[Op]:
        return self.cycle(_WARMUP_STREAM)[:1]

    @classmethod
    def run(cls, op: Op):
        argv = ["audit", "--trials", str(cls.TRIALS), "--max-dim", str(cls.MAX_DIM), "--seed", str(op.args[0])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.cli_main(argv)
        return code, out.getvalue()

    REFERENCE_S = 3.8e-3

    @staticmethod
    def reference() -> None:
        """Scalar entropy evaluations in the interpreter and tiny eigvalsh
        calls, the mix of the audit's grid+golden searches."""
        acc = 0.0
        for k in range(1, 5000):
            t = k / 5000.0
            acc += -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)
        for m in _TINY * 60:
            _eigvalsh(m)

    @staticmethod
    def evaluate(op: Op, result) -> tuple[list[str], float]:
        code, stdout = result
        summary = json.loads(stdout)
        return checks.check_audit(code, summary), summary["mean_upper_margin"]


class SweepLargeD:
    """One op is one ``harness.dimension_sweep([d], family)`` call."""

    name = "sweep-large-d"
    unit = "records"
    SMALL = 2**16 + 1  # 512 KiB of float64
    LARGE = 2**18 + 1  # about 2 MiB
    FAMILIES = ("example3", "example4")
    SMALL_PER_CYCLE = 12
    # 52 records, 4 of them LARGE: the tail is the 7th slowest SMALL record.
    TAIL_CYCLES = 4

    def __init__(self, seed: int):
        self.seed = seed

    def cycle(self, index: int) -> list[Op]:
        """SMALL_PER_CYCLE SMALL records, their families alternating, and one
        LARGE record at a random place, its family alternating by cycle."""
        rng = Xoshiro256StarStar(self.seed).spawn(index)
        phase = rng.randint(0, 1)
        plan = [(self.SMALL, self.FAMILIES[(i + phase) % 2]) for i in range(self.SMALL_PER_CYCLE)]
        plan.insert(rng.randint(0, len(plan)), (self.LARGE, self.FAMILIES[index % 2]))
        return [Op(f"{family}-{d}", 1, (d, family)) for d, family in plan]

    def warmup_ops(self) -> list[Op]:
        # A LARGE record first: in a fresh process SMALL records stay about
        # three times slower until one has run.
        return [Op(f"{f}-{d}", 1, (d, f)) for d, f in ((self.LARGE, "example3"), (self.SMALL, "example3"), (self.SMALL, "example4"))]

    @staticmethod
    def run(op: Op):
        d, family = op.args
        return harness.dimension_sweep([d], family)[0]

    REFERENCE_S = 1.7e-3

    @staticmethod
    def reference() -> None:
        """Mixtures of a d = 2^16+1 spectrum and their entropy sums, as in
        the sweep's objective points."""
        for t in (0.2, 0.4, 0.6, 0.8):
            q = t * _SPECTRUM + (1.0 - t) * _SPECTRUM
            float(q.sum())
            pos = q[q > 0.0]
            float(-(pos * np.log2(pos)).sum())

    @staticmethod
    def evaluate(op: Op, record) -> tuple[list[str], float]:
        return checks.check_sweep(record, op.args[1]), checks.upper_gap_sweep(record)


WORKLOADS = {w.name: w for w in (CertifyDense, AuditSmall, SweepLargeD)}
