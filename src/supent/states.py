"""Bipartite pure-state algebra.

A state |psi> = sum_ij C_ij |i>_A |j>_B is stored as its (possibly
unnormalized) coefficient matrix C.  Reduced density matrices are
rho_A = C C^dagger and rho_B = C^T conj(C); entanglement is the Shannon
entropy of the squared Schmidt coefficients of the normalized state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import DimMismatch, NotNormalized, NotOneSided, ZeroState
from .qmath import Spectrum

__all__ = [
    "BipartiteState",
    "SchmidtForm",
    "OrthogonalityClass",
    "norm_squared",
    "inner_product",
    "superpose",
    "reduced_density",
    "entanglement_entropy",
    "classify_orthogonality",
    "lemma1_canonical_form",
    "mixture_entropy",
    "mixture_entropy_array",
    "mixture_side_entropy",
    "reduced_mixture_entropies",
]

ZERO_NORM_SQ = 1e-12
ORTHOGONALITY_TOL = 1e-9
ONE_SIDED_TOL = 1e-8
_RANK_CUT = 1e-12


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
        """Unit-norm copy; raises ZeroState for vanishing norm."""
        n2 = norm_squared(self)
        if n2 <= ZERO_NORM_SQ:
            raise ZeroState("cannot normalize a state of vanishing norm")
        return BipartiteState(self.coeffs / np.sqrt(n2))


@dataclass(frozen=True)
class SchmidtForm:
    """Schmidt data: squared coefficients plus orthonormal local frames.

    ``coefficients.values`` are the probabilities p_i (squared Schmidt
    coefficients); column k of ``a_vectors``/``b_vectors`` is the k-th
    Schmidt vector on the respective side.
    """

    coefficients: Spectrum
    a_vectors: np.ndarray
    b_vectors: np.ndarray

    def reconstruct(self) -> BipartiteState:
        s = np.sqrt(self.coefficients.values)
        return BipartiteState((self.a_vectors * s) @ self.b_vectors.T)


@dataclass(frozen=True)
class OrthogonalityClass:
    """Orthogonality structure of a state pair.

    ``one_sided_eq1``: the B-side reduced operators have orthogonal supports
    (Tr[rho_B(psi) rho_B(phi)] = 0); ``one_sided_eq2`` likewise on the A
    side; ``biorthogonal`` means both.
    """

    overlap: complex
    one_sided_eq1: bool
    one_sided_eq2: bool
    biorthogonal: bool

    @property
    def one_sided(self) -> bool:
        return self.one_sided_eq1 or self.one_sided_eq2


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


def classify_orthogonality(
    s1: BipartiteState, s2: BipartiteState, tol: float = ORTHOGONALITY_TOL
) -> OrthogonalityClass:
    """Classify the pair per the reduced-support overlap on each side.

    ``tol`` bounds the trace overlap Tr[rho(psi) rho(phi)] of the reduced
    operators of the normalized states.  One-sidedness on either side
    implies ordinary orthogonality of the states themselves.
    """
    _check_dims(s1, s2)
    n1 = s1.normalized()
    n2 = s2.normalized()
    overlap = inner_product(n1, n2)
    eq1 = _trace_overlap(reduced_density(n1, "B"), reduced_density(n2, "B")) <= tol
    eq2 = _trace_overlap(reduced_density(n1, "A"), reduced_density(n2, "A")) <= tol
    return OrthogonalityClass(
        overlap=overlap,
        one_sided_eq1=eq1,
        one_sided_eq2=eq2,
        biorthogonal=eq1 and eq2,
    )


def lemma1_canonical_form(
    s1: BipartiteState, s2: BipartiteState
) -> tuple[SchmidtForm, SchmidtForm]:
    """Joint Schmidt data of a one-sided orthogonal pair.

    Requires the B-side reduced supports to be orthogonal (callers swap the
    sides via transpose first when only the A-side condition holds).  The
    returned forms have mutually orthogonal B-side frames, so stacking them
    realizes the pair on disjoint B-index blocks of sizes d1 and d2 after a
    local rotation.  Reconstruction from each form reproduces the normalized
    input state exactly up to numerical rank truncation.
    """
    _check_dims(s1, s2)
    form1 = _schmidt_form(s1.normalized())
    form2 = _schmidt_form(s2.normalized())
    cross = form1.b_vectors.conj().T @ form2.b_vectors
    worst = float(np.max(np.abs(cross))) if cross.size else 0.0
    if worst > ONE_SIDED_TOL:
        raise NotOneSided(
            f"B-side frames overlap by {worst:.3e} (tol {ONE_SIDED_TOL:g})"
        )
    return form1, form2


def mixture_entropy(s1: BipartiteState, s2: BipartiteState, t: float) -> float:
    """Entropy of t |s1><s1| + (1-t) |s2><s2| for normalized s1, s2.

    The mixture has rank at most two, so its nonzero eigenvalues are those
    of the 2x2 Gram-weighted matrix
    [[t, sqrt(t(1-t)) <s1|s2>], [sqrt(t(1-t)) <s2|s1>, 1-t]],
    namely (1 +- r)/2 with r = sqrt((2t-1)^2 + 4t(1-t)|<s1|s2>|^2).
    """
    _check_mixture_args(s1, s2, t)
    c2 = abs(inner_product(s1, s2)) ** 2
    return qmath.binary_entropy(_mixture_top_eigenvalue(t, c2))


def mixture_entropy_array(ts: np.ndarray, overlap_sq: float) -> np.ndarray:
    """``mixture_entropy`` at every weight in ``ts``, given |<s1|s2>|^2."""
    return qmath.binary_entropy_array(_mixture_top_eigenvalue(np.asarray(ts), overlap_sq))


def reduced_mixture_entropies(
    s1: BipartiteState, s2: BipartiteState, t: float
) -> tuple[float, float]:
    """Entropies (S_A, S_B) of the reduced operators of the rank-2 mixture.

    Unlike the joint mixture the reduced operators are genuinely higher
    rank, so they are diagonalized in full.
    """
    _check_mixture_args(s1, s2, t)
    s_a = mixture_side_entropy(reduced_density(s1, "A"), reduced_density(s2, "A"), t)
    s_b = mixture_side_entropy(reduced_density(s1, "B"), reduced_density(s2, "B"), t)
    return s_a, s_b


def _check_dims(s1: BipartiteState, s2: BipartiteState) -> None:
    if s1.coeffs.shape != s2.coeffs.shape:
        raise DimMismatch(
            f"states live on {s1.coeffs.shape} vs {s2.coeffs.shape}"
        )


def _check_mixture_args(s1: BipartiteState, s2: BipartiteState, t: float) -> None:
    _check_dims(s1, s2)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"mixing weight t={t!r} outside [0, 1]")
    for s in (s1, s2):
        if abs(norm_squared(s) - 1.0) > 1e-8:
            raise NotNormalized("mixture entropies require normalized states")


def _trace_overlap(rho1: np.ndarray, rho2: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", rho1, rho2).real)


def mixture_side_entropy(rho1: np.ndarray, rho2: np.ndarray, t: float) -> float:
    """Entropy of t rho1 + (1-t) rho2 for unit-trace reduced operators."""
    w = qmath.hermitian_eigenvalues(t * rho1 + (1.0 - t) * rho2).values
    return qmath.shannon_entropy(np.maximum(w, 0.0))


def _mixture_top_eigenvalue(t, c2):
    """(1 + r)/2 of ``mixture_entropy``, capped at 1; t may be an array."""
    r = np.sqrt((2.0 * t - 1.0) ** 2 + 4.0 * t * (1.0 - t) * c2)
    return np.minimum(1.0, 0.5 * (1.0 + r))


def _schmidt_form(s: BipartiteState) -> SchmidtForm:
    u, sig, vh = np.linalg.svd(s.coeffs, full_matrices=False)
    keep = sig > max(_RANK_CUT, _RANK_CUT * (sig[0] if sig.size else 0.0))
    sig = sig[keep]
    p = sig**2
    return SchmidtForm(
        coefficients=Spectrum(values=p, trace=float(p.sum())),
        a_vectors=u[:, keep],
        b_vectors=vh[keep, :].T,
    )
