"""Bipartite pure-state algebra.

A state |psi> = sum_ij C_ij |i>_A |j>_B is stored as its (possibly
unnormalized) coefficient matrix C.  Reduced density matrices are
rho_A = C C^dagger and rho_B = C^T conj(C); entanglement is the Shannon
entropy of the squared Schmidt coefficients of the normalized state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import DimMismatch, DomainError, NotNormalized, ZeroState

__all__ = [
    "BipartiteState",
    "OrthogonalityClass",
    "PairStack",
    "norm_squared",
    "inner_product",
    "superpose",
    "reduced_density",
    "entanglement_entropy",
    "classify_orthogonality",
    "mixture_entropy",
]

ZERO_NORM_SQ = 1e-12
ORTHOGONALITY_TOL = 1e-9
# How far the squared norm of each state of a PairStack may stray from 1.
# normalized() leaves a few ulps; a state that was never normalized misses
# by far more, and would scale every trace overlap and entropy it feeds.
UNIT_NORM_TOL = 1e-8


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


@dataclass(frozen=True)
class OrthogonalityClass:
    """Orthogonality structure of a state pair.

    ``one_sided_eq1``: the B-side reduced operators have orthogonal supports
    (Tr[rho_B(psi) rho_B(phi)] = 0); ``one_sided_eq2`` likewise on the A
    side; ``biorthogonal`` means both.
    """

    one_sided_eq1: bool
    one_sided_eq2: bool

    @property
    def one_sided(self) -> bool:
        return self.one_sided_eq1 or self.one_sided_eq2

    @property
    def biorthogonal(self) -> bool:
        return self.one_sided_eq1 and self.one_sided_eq2


class PairStack:
    """Reduced operators of many pairs (s1, s2) of normalized states.

    Each of a pair's four operators rho_X(s) is built once and held only in
    the stack of its side X and dimension; ``operators`` gives a row's as
    views of those stacks.
    """

    def __init__(self, pairs):
        """Raises DimMismatch for a pair on different spaces and NotNormalized
        unless each squared norm is 1 within UNIT_NORM_TOL."""
        pairs = list(pairs)
        for s1, s2 in pairs:
            _check_dims(s1, s2)
            if any(abs(norm_squared(s) - 1.0) > UNIT_NORM_TOL for s in (s1, s2)):
                raise NotNormalized("a pair stack needs normalized states")
        self._dims = np.array([s1.coeffs.shape for s1, _ in pairs], dtype=int).reshape(-1, 2)
        self._index = np.empty_like(self._dims)  # each row's place in its stack on each side
        self._stacks = {}  # (side, dim): (s1 operators, s2 operators) of its members
        self._views = [[None, None] for _ in pairs]  # each row's operators on each side
        for side, name in enumerate("AB"):
            for d in sorted(set(self._dims[:, side].tolist())):
                members = np.flatnonzero(self._dims[:, side] == d)
                self._index[members, side] = np.arange(members.size)
                x1, x2 = (
                    np.stack([reduced_density(pairs[k][i], name) for k in members]) for i in (0, 1)
                )
                self._stacks[side, d] = x1, x2
                for j, k in enumerate(members.tolist()):
                    self._views[k][side] = x1[j], x2[j]

    def operators(self, row: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Pair ``row``'s [(rho_A(s1), rho_A(s2)), (rho_B(s1), rho_B(s2))], as
        views of the stacks."""
        return self._views[row]

    def entropies(self, rows, t):
        """(S_A, S_B) of t |s1><s1| + (1-t) |s2><s2| for the pair in row ``rows``.

        ``rows`` is a row number (an integer, not a bool) and ``t`` a number,
        giving two floats from that row's operators, or ``rows`` a 1-D integer
        array of row numbers and ``t`` an array of weights of its shape,
        giving two arrays from one stacked eigendecomposition per side and
        distinct dimension; both give each pair the same bits.  Raises
        DomainError for rows of any other kind or outside the stack, and for
        a weight outside [0, 1] or NaN: the mixture would not be a state.
        """
        n = len(self._views)
        if isinstance(rows, numbers.Integral) and not isinstance(rows, bool) and 0 <= rows < n:
            if not (isinstance(t, numbers.Real) and 0.0 <= t <= 1.0):
                raise DomainError(f"a mixture weight must be a number in [0, 1], got {t!r}")
            (a1, a2), (b1, b2) = self.operators(rows)
            return (
                qmath.psd_entropy(t * a1 + (1.0 - t) * a2),
                qmath.psd_entropy(t * b1 + (1.0 - t) * b2),
            )
        if not (
            isinstance(rows, np.ndarray) and rows.dtype.kind in "iu" and rows.ndim == 1
            and isinstance(t, np.ndarray) and t.dtype.kind in "iuf" and t.shape == rows.shape
            and np.all((rows >= 0) & (rows < n))
        ):
            raise DomainError(
                f"rows={rows!r} is no row of the {n}, nor an array of them shaped like t"
            )
        if not np.all((t >= 0.0) & (t <= 1.0)):
            raise DomainError(f"mixture weights must lie in [0, 1], got {t!r}")
        out = np.empty((2, rows.size))
        for (side, d), (x1, x2) in self._stacks.items():
            sel = np.flatnonzero(self._dims[rows, side] == d)
            if sel.size:
                if len(x1) > 1:  # one pair is broadcast, not copied per weight
                    at = self._index[rows[sel], side]
                    x1, x2 = x1[at], x2[at]
                w = t[sel, None, None]
                out[side, sel] = qmath.psd_entropy(w * x1 + (1.0 - w) * x2)
        return out[0], out[1]


def norm_squared(s: BipartiteState) -> float:
    return float(np.vdot(s.coeffs, s.coeffs).real)


def inner_product(s1: BipartiteState, s2: BipartiteState) -> complex:
    """<s1|s2> = sum conj(s1_ij) s2_ij."""
    _check_dims(s1, s2)
    return complex(np.vdot(s1.coeffs, s2.coeffs))


def superpose(alpha: complex, s1: BipartiteState, beta: complex, s2: BipartiteState) -> BipartiteState:
    """Entrywise alpha * s1 + beta * s2; the result may be unnormalized."""
    _check_dims(s1, s2)
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
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def entanglement_entropy(s: BipartiteState) -> float:
    """Entropy of entanglement of the normalized state, in ebits."""
    n2 = norm_squared(s)
    if n2 <= ZERO_NORM_SQ:
        raise ZeroState("entanglement of a vanishing state is undefined")
    sigma = qmath.singular_values(s.coeffs)
    probs = sigma.values**2 / n2
    return qmath.shannon_entropy(probs)


def classify_orthogonality(stack: PairStack, row: int) -> OrthogonalityClass:
    """Classify pair ``row`` of ``stack`` per the reduced-support overlap on
    each side.

    A side counts as orthogonal when the trace overlap Tr[rho(psi) rho(phi)]
    of its two reduced operators is at most ORTHOGONALITY_TOL.
    One-sidedness on either side implies ordinary orthogonality of the
    states themselves.
    """
    (a1, a2), (b1, b2) = stack.operators(row)
    return OrthogonalityClass(
        one_sided_eq1=_trace_overlap(b1, b2) <= ORTHOGONALITY_TOL,
        one_sided_eq2=_trace_overlap(a1, a2) <= ORTHOGONALITY_TOL,
    )


def mixture_entropy(t, overlap_sq: float):
    """Entropy of t |s1><s1| + (1-t) |s2><s2| for normalized s1, s2 with
    |<s1|s2>|^2 = overlap_sq.

    The mixture has rank at most two, so its nonzero eigenvalues are those
    of the 2x2 Gram-weighted matrix
    [[t, sqrt(t(1-t)) <s1|s2>], [sqrt(t(1-t)) <s2|s1>, 1-t]],
    namely (1 +- r)/2 with r = sqrt((2t-1)^2 + 4t(1-t)|<s1|s2>|^2).  ``t``
    is one weight, giving a float, or an array of weights, giving an array;
    each weight gets the same bits either way.  A weight outside
    [0, 1] or an overlap_sq above 1 puts (1 + r)/2 above 1 (unless the
    states are parallel), which h2 rejects beyond its rounding slack.
    """
    r = np.sqrt((2.0 * t - 1.0) ** 2 + 4.0 * t * (1.0 - t) * overlap_sq)
    return qmath.binary_entropy(0.5 * (1.0 + r))


def _check_dims(s1: BipartiteState, s2: BipartiteState) -> None:
    if s1.coeffs.shape != s2.coeffs.shape:
        raise DimMismatch(
            f"states live on {s1.coeffs.shape} vs {s2.coeffs.shape}"
        )


def _trace_overlap(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Tr[rho1 rho2] of two reduced operators on the same side."""
    return float(np.einsum("ij,ji->", rho1, rho2).real)
