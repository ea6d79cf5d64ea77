"""Bipartite pure-state algebra.

A state |psi> = sum_ij C_ij |i>_A |j>_B is stored as its (possibly
unnormalized) coefficient matrix C.  Reduced density matrices are
rho_A = C C^dagger and rho_B = C^T conj(C); entanglement is the Shannon
entropy of the squared Schmidt coefficients of the normalized state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import DimMismatch, DomainError, NotNormalized, ZeroState

__all__ = [
    "BipartiteState",
    "PairStack",
    "norm_squared",
    "inner_product",
    "superpose",
    "reduced_density",
    "entanglement_entropies",
    "classify_orthogonality",
    "mixture_entropy",
]

# A state of squared norm at most ZERO_NORM_SQ counts as vanishing:
# entanglement_entropies raises ZeroState for it, and
# bounds.SuperpositionProblem calls a superposition gamma that small fully
# destructive.  The bounds divide by N^2 = ||gamma||^2, and at this floor
# they still stay finite (bounds.MAX_ENTANGLEMENT).  normalized() rescales
# such a state before dividing by its norm.
ZERO_NORM_SQ = 1e-12

# Largest |<psi|phi>| (simple_lower's test, in bounds) and trace overlap
# Tr[rho(psi) rho(phi)] of two reduced operators (classify_orthogonality) that
# count as 0.  Both are at most 1 for unit states, and an exact 0 computes to
# rounding.  One-sided pairs harness.generate_one_sided_pair(d/2, d/2, d, s)
# rotated by Haar unitaries on both sides (d = 16 to 1024 with five seeds
# each, 2048 and 4096 with one) kept the orthogonal B-side trace overlap at
# or below 5e-18, while the A-side one was about 1/d (2.4e-4 at d = 4096).
# So an absolute 1e-9 parts the two by over five orders of magnitude at
# every dimension a state may have, and needs no scaling with d.
ORTHOGONALITY_TOL = 1e-9


@dataclass(frozen=True)
class BipartiteState:
    """Pure state on a dim_a x dim_b system, as a coefficient matrix."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = qmath.as_complex_matrix(self.coeffs).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def dim_a(self) -> int:
        return self.coeffs.shape[0]

    @property
    def dim_b(self) -> int:
        return self.coeffs.shape[1]

    def normalized(self) -> "BipartiteState":
        """Unit-norm copy.

        Raises ZeroState for the all-zero state and DomainError when the
        squared norm overflows a float.  A state of squared norm at most
        ZERO_NORM_SQ is first scaled by its largest |amplitude|, so that tiny
        amplitudes (down to subnormal ones, whose squares underflow to 0)
        normalize like their unit-scaled copy.
        """
        n2 = norm_squared(self)
        if not math.isfinite(n2):
            raise DomainError("squared norm of the state overflows a float")
        if n2 > ZERO_NORM_SQ:
            return BipartiteState(self.coeffs / np.sqrt(n2))
        peak = float(np.max(np.abs(self.coeffs), initial=0.0))
        if peak == 0.0:
            raise ZeroState("cannot normalize the zero state")
        # numpy divides a complex array by multiplying with 1 / peak, which
        # overflows for a subnormal peak.  Scaling the real and imaginary
        # parts by 2^-e first is exact and leaves the quotient's bits alone.
        mantissa, e = math.frexp(peak)
        scaled = np.ldexp(self.coeffs.view(float), -e).view(complex) / mantissa
        return BipartiteState(scaled / np.sqrt(np.vdot(scaled, scaled).real))


class PairStack:
    """Reduced operators of many pairs (s1, s2) of normalized states.

    Each of a pair's four operators rho_X(s) is built once and held only in
    the one stack of its dimension, A side and B side alike; ``operators``
    gives a row's as views of those stacks.  A square row's A and B members
    are next to each other in their stack.
    """

    def __init__(self, pairs):
        """Raises DomainError for an entry that is not a pair of
        BipartiteStates, DimMismatch for a pair on different spaces and
        NotNormalized unless each squared norm is 1 within qmath.PROB_SLACK."""
        pairs = list(pairs)
        for k, pair in enumerate(pairs):
            _check_dims(pair, f"pairs[{k}]")
            if any(abs(norm_squared(s) - 1.0) > qmath.PROB_SLACK for s in pair):
                raise NotNormalized("a pair stack needs normalized states")
        self._dims = np.array([s1.coeffs.shape for s1, _ in pairs], dtype=int).reshape(-1, 2)
        self._index = np.empty_like(self._dims)  # each (row, side)'s place in its stack
        self._stacks = {}  # dim: (s1 operators, s2 operators) of its (row, side) members
        for d in sorted(set(self._dims.ravel().tolist())):
            members = np.argwhere(self._dims == d).tolist()  # [row, side], row by row
            self._stacks[d] = tuple(
                np.stack([reduced_density(pairs[k][i], "AB"[side]) for k, side in members])
                for i in (0, 1)
            )
            for j, (k, side) in enumerate(members):
                self._index[k, side] = j

    def operators(self, row: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Pair ``row``'s [(rho_A(s1), rho_A(s2)), (rho_B(s1), rho_B(s2))], as
        views of the stacks.  Raises DomainError unless ``row`` is an integer
        (not a bool) from 0 to the last row."""
        qmath.check_integer(0, len(self._dims) - 1, row=row)
        return [
            (self._stacks[d][0][j], self._stacks[d][1][j])
            for d, j in zip(self._dims[row].tolist(), self._index[row].tolist())
        ]

    def entropies(self, rows, t):
        """(S_A, S_B) of t |s1><s1| + (1-t) |s2><s2| for the pair in row ``rows``.

        ``rows`` is a row number (an integer, not a bool) and ``t`` a number,
        giving two floats, or ``rows`` a 1-D integer array of row numbers and
        ``t`` an array of weights of its shape, giving two arrays.  Either
        takes one stacked eigendecomposition per distinct dimension among the
        requested sides, so one for a square row, except that a one-row
        store given arrays takes one per side, broadcast over the weights;
        all give each pair the same bits.  Raises DomainError for rows of any
        other kind or outside the stack, and for a weight outside [0, 1] or
        NaN: the mixture would not be a state.
        """
        n = len(self._dims)
        if not isinstance(rows, np.ndarray):
            qmath.check_integer(0, n - 1, rows=rows)
            qmath.check_numbers(0.0, 1.0, t=t)
            (d_a, d_b), (j, _) = self._dims[rows].tolist(), self._index[rows].tolist()
            if d_a == d_b:  # both sides are members j and j + 1 of one stack
                x1, x2 = self._stacks[d_a]
                return tuple(qmath.psd_entropy(t * x1[j : j + 2] + (1.0 - t) * x2[j : j + 2]).tolist())
            return tuple(qmath.psd_entropy(t * x + (1.0 - t) * y) for x, y in self.operators(rows))
        if not (
            rows.dtype.kind in "iu" and rows.ndim == 1 and isinstance(t, np.ndarray) and t.dtype.kind in "iuf"
            and t.shape == rows.shape and np.all((rows >= 0) & (rows < n))
        ):
            raise DomainError(
                f"rows={rows!r} is no row of the {n}, nor an array of them shaped like t"
            )
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise DomainError(f"mixture weights must lie in [0, 1], got {t!r}")
        if n == 1 and rows.size:  # one pair: broadcast over the weights, not copied per weight
            w = t[:, None, None]
            return tuple(qmath.psd_entropy(w * x + (1.0 - w) * y) for x, y in self.operators(0))
        out = np.empty((2, rows.size))
        dims = self._dims[rows]
        for d, (x1, x2) in self._stacks.items():
            i, side = np.nonzero(dims == d)
            if i.size:
                at = self._index[rows[i], side]
                w = t[i, None, None]
                out[side, i] = qmath.psd_entropy(w * x1[at] + (1.0 - w) * x2[at])
        return out[0], out[1]


def norm_squared(s: BipartiteState) -> float:
    return float(np.vdot(s.coeffs, s.coeffs).real)


def inner_product(s1: BipartiteState, s2: BipartiteState) -> complex:
    """<s1|s2> = sum conj(s1_ij) s2_ij."""
    _check_dims((s1, s2), "(s1, s2)")
    return complex(np.vdot(s1.coeffs, s2.coeffs))


def superpose(alpha: complex, s1: BipartiteState, beta: complex, s2: BipartiteState) -> BipartiteState:
    """Entrywise alpha * s1 + beta * s2; the result may be unnormalized."""
    _check_dims((s1, s2), "(s1, s2)")
    return BipartiteState(alpha * s1.coeffs + beta * s2.coeffs)


def reduced_density(s: BipartiteState, side: str) -> np.ndarray:
    """Reduced density matrix on the requested subsystem ("A" or "B").

    Hermitian, positive semidefinite, with trace equal to the squared norm
    of the state.
    """
    c = s.coeffs
    if side == "A":
        return c @ c.conj().T
    if side == "B":
        return c.T @ c.conj()
    raise DomainError(f"side must be 'A' or 'B', got {side!r}")


def entanglement_entropies(states) -> list[float]:
    """Entropy of entanglement of each normalized state, in ebits.

    The states may be unnormalized and of any shapes: one stacked SVD per
    coefficient shape serves them all, and each state gets the bits it gets
    alone.  Before any SVD, raises ZeroState for a vanishing state and
    DomainError for one whose squared norm overflows a float, for the first
    such state in order; otherwise the error ``shannon_entropy`` raises for
    the first state of the first failing shape.
    """
    states = list(states)
    n2 = [norm_squared(s) for s in states]
    for v in n2:
        if v <= ZERO_NORM_SQ:
            raise ZeroState("entanglement of a vanishing state is undefined")
        if v == math.inf:
            raise DomainError("squared norm of the state overflows a float")
    by_shape = {}
    for k, s in enumerate(states):
        by_shape.setdefault(s.coeffs.shape, []).append(k)
    out = [0.0] * len(states)
    for ks in by_shape.values():
        sigma = qmath.singular_values(np.stack([states[k].coeffs for k in ks]))
        probs = sigma**2 / np.array([n2[k] for k in ks])[:, None]
        for k, e in zip(ks, qmath.shannon_entropy(probs).tolist()):
            out[k] = e
    return out


def classify_orthogonality(stack: PairStack, row: int) -> bool:
    """Whether pair (psi, phi) in row ``row`` of ``stack`` is one-sided
    orthogonal: Tr[rho_B(psi) rho_B(phi)] = 0 (the paper's Eq. 1) or
    Tr[rho_A(psi) rho_A(phi)] = 0 (Eq. 2), each trace overlap counting as 0
    when it is at most ORTHOGONALITY_TOL.

    Either condition implies ordinary orthogonality of the states
    themselves, and either gives Lemma 1's closed form.  Raises DomainError
    for a row that ``stack.operators`` refuses.
    """
    return any(
        float(np.einsum("ij,ji->", rho1, rho2).real) <= ORTHOGONALITY_TOL
        for rho1, rho2 in stack.operators(row)
    )


def mixture_entropy(t: float, overlap_sq: float) -> float:
    """Entropy of t |s1><s1| + (1-t) |s2><s2| for normalized s1, s2 with
    |<s1|s2>|^2 = overlap_sq.

    The mixture has rank at most two, so its nonzero eigenvalues are those
    of the 2x2 Gram-weighted matrix
    [[t, sqrt(t(1-t)) <s1|s2>], [sqrt(t(1-t)) <s2|s1>, 1-t]],
    namely (1 +- r)/2 with r = sqrt((2t-1)^2 + 4t(1-t)|<s1|s2>|^2).  Raises
    DomainError unless ``t`` and ``overlap_sq`` lie in [0, 1], up to h2's
    rounding slack above 1."""
    qmath.check_numbers(0.0, 1.0 + qmath.H2_DOMAIN_SLACK, t=t, overlap_sq=overlap_sq)
    r = math.sqrt((2.0 * t - 1.0) ** 2 + 4.0 * t * (1.0 - t) * overlap_sq)
    return qmath.binary_entropy(0.5 * (1.0 + r))


def _check_dims(pair, name: str) -> None:
    """Raise DomainError unless ``pair``, named ``name``, is a tuple or list
    of two BipartiteStates, and DimMismatch unless they share one space."""
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2
            and all(isinstance(s, BipartiteState) for s in pair)):
        kinds = [type(s).__name__ for s in pair] if isinstance(pair, (tuple, list)) else type(pair).__name__
        raise DomainError(f"{name} is {kinds}, not a pair of BipartiteStates")
    if pair[0].coeffs.shape != pair[1].coeffs.shape:
        raise DimMismatch(f"states live on {pair[0].coeffs.shape} vs {pair[1].coeffs.shape}")
