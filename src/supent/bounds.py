"""Exact value and bounds for the entanglement of a two-state superposition.

Conventions.  A problem holds normalized states psi, phi and coefficients
alpha, beta on the complex unit sphere (|alpha|^2 + |beta|^2 = 1); the
superposition gamma = alpha psi + beta phi may itself be unnormalized, and
every bound below refers to the entanglement of gamma / ||gamma||.

The upper-bound family is, with a = |alpha|^2 and N^2 = ||gamma||^2,

    lps_upper      = 2 [a E(psi) + (1-a) E(phi) + h2(a)] / N^2
    theorem2_upper = lps_upper - 2 |S_A - S_B| / N^2
    f(t)           = (t(1-a) + (1-t)a) / (t(1-t))
                     * [t E(psi) + (1-t) E(phi) + h2(t)] / N^2

where S_A, S_B are the entropies of the reduced operators of the mixture
a |psi><psi| + (1-a) |phi><phi|, f(a) reproduces lps_upper exactly, and the
refined variant of f subtracts |S_A(t) - S_B(t)| inside the bracket.

The lower-bound family uses the rescaled coefficients a' = a / N^2,
b' = (1-a) / N^2 (so that the superposition is normalized):

    L1(t) = (1-t) b' / (1 - t(1-a')) E(phi) - (1-t)/t E(psi) - h2(t)/t

and L2 with the roles of the two states exchanged.  Entanglement never
drops below max over t of these, and also never below zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import optimize, qmath, states
from .errors import DegenerateSubspace, DomainError, NotOneSided, NotOrthogonal, ZeroState
from .qmath import binary_entropy
from .states import BipartiteState

__all__ = [
    "SuperpositionProblem",
    "BoundReport",
    "exact_one_sided",
    "lps_upper",
    "theorem2_upper",
    "f_of_t",
    "theorem3_optimal",
    "lower_l",
    "theorem4_optimal",
    "simple_lower",
    "subspace_lower",
    "certify",
    "lps_upper_value",
    "theorem2_upper_value",
    "f_upper_value",
    "lower_value",
    "minimize_f_scalar",
    "minimize_f_with_refinement",
    "maximize_lower_scalar",
    "theorem3_stationarity_residual",
    "theorem4_stationarity_residual",
]

T_EPS = 1e-9
DESTRUCTIVE_NORM_SQ = 1e-12
SANITY_SLACK = 1e-8

# Rounding slack, relative to 1 + |bracket|, for the computed entropies when
# the refined search rules out grid points.  eigvalsh leaves an absolute
# error of a few u = 2^-53 on each eigenvalue of a unit-trace operator, which
# moves its entropy by about d u log2(1/u), or 6e-15 d; the secant
# extrapolations below at most triple that.  1e-9 covers it with room to
# spare at any dimension a dense eigendecomposition can reach.
ENTROPY_ROUNDING = 1e-9

# Every PRUNE_STRIDE-th grid point of the refined search is eigendecomposed
# unconditionally; the bounds on the points between interpolate from them.
PRUNE_STRIDE = 16


@dataclass(frozen=True)
class SuperpositionProblem:
    """Normalized (psi, phi, alpha, beta) with the derived superposition."""

    psi: BipartiteState
    phi: BipartiteState
    alpha: complex
    beta: complex
    gamma: BipartiteState
    gamma_norm_sq: float
    overlap: complex
    e_psi: float
    e_phi: float

    @property
    def alpha_sq(self) -> float:
        return abs(self.alpha) ** 2

    @property
    def beta_sq(self) -> float:
        return abs(self.beta) ** 2

    @classmethod
    def from_states(
        cls, psi: BipartiteState, phi: BipartiteState, alpha: complex, beta: complex
    ) -> "SuperpositionProblem":
        """Build a problem, normalizing the states and (alpha, beta).

        The coefficient pair must lie on the unit sphere within 1e-8; it is
        rescaled onto it exactly so downstream identities hold to machine
        precision.  Raises DomainError for a non-finite or overflowing
        coefficient, and ZeroState when the superposition is fully
        destructive (squared norm below 1e-12).
        """
        psi_n = psi.normalized()
        phi_n = phi.normalized()
        sphere = _weight("alpha", alpha) + _weight("beta", beta)
        if abs(sphere - 1.0) > 1e-8:
            raise DomainError(
                f"|alpha|^2 + |beta|^2 = {sphere!r}, expected 1 within 1e-8"
            )
        scale = 1.0 / math.sqrt(sphere)
        alpha = complex(alpha) * scale
        beta = complex(beta) * scale
        gamma = states.superpose(alpha, psi_n, beta, phi_n)
        n2 = states.norm_squared(gamma)
        if n2 <= DESTRUCTIVE_NORM_SQ:
            raise ZeroState("superposition is fully destructive")
        return cls(
            psi=psi_n,
            phi=phi_n,
            alpha=alpha,
            beta=beta,
            gamma=gamma,
            gamma_norm_sq=n2,
            overlap=states.inner_product(psi_n, phi_n),
            e_psi=states.entanglement_entropy(psi_n),
            e_phi=states.entanglement_entropy(phi_n),
        )


@dataclass(frozen=True)
class BoundReport:
    """Every bound for one problem, plus consistency flags.

    ``lower_l`` is clamped at zero; ``lower_raw`` keeps the unclamped
    optimum for stationarity diagnostics.  ``simple_lower`` is present only
    for orthogonal pairs; ``exact_one_sided`` only when the pair is
    one-sided orthogonal.  ``sane`` records
    lower_l - 1e-8 <= exact_e <= min(upper bounds) + 1e-8.
    """

    exact_e: float
    lps_upper: float
    theorem2_upper: float
    theorem3_upper: float
    t_star_upper: float
    theorem3_refined_upper: float
    lower_l: float
    t_star_lower: float
    branch: str
    lower_raw: float
    simple_lower: Optional[float]
    exact_one_sided: Optional[float]
    sane: bool


# ---------------------------------------------------------------------------
# Scalar layer: every bound as a function of plain numbers.  The harness
# sweeps reuse these directly for structured state families whose
# entanglements are known spectrally, where dense coefficient matrices would
# be prohibitively large.
# ---------------------------------------------------------------------------


def lps_upper_value(e_psi: float, e_phi: float, alpha_sq: float, gamma_norm_sq: float) -> float:
    """2 [a E(psi) + (1-a) E(phi) + h2(a)] / N^2."""
    bracket = alpha_sq * e_psi + (1.0 - alpha_sq) * e_phi + binary_entropy(alpha_sq)
    return 2.0 * bracket / gamma_norm_sq


def theorem2_upper_value(
    e_psi: float, e_phi: float, alpha_sq: float, gamma_norm_sq: float, delta_s: float
) -> float:
    """LPS bound tightened by the reduced-entropy asymmetry |S_A - S_B|."""
    return (
        lps_upper_value(e_psi, e_phi, alpha_sq, gamma_norm_sq)
        - 2.0 * abs(delta_s) / gamma_norm_sq
    )


def f_upper_value(
    t: float,
    e_psi: float,
    e_phi: float,
    alpha_sq: float,
    gamma_norm_sq: float,
    delta_s: float = 0.0,
) -> float:
    """One-parameter upper bound f(t) / N^2; f(a) equals the LPS bound.

    ``delta_s`` is the refined-variant correction |S_A(t) - S_B(t)|
    subtracted inside the bracket (zero for the plain bound).
    """
    _check_t(t)
    bsq = 1.0 - alpha_sq
    prefactor = (t * bsq + (1.0 - t) * alpha_sq) / (t * (1.0 - t))
    bracket = t * e_psi + (1.0 - t) * e_phi + binary_entropy(t) - abs(delta_s)
    return prefactor * bracket / gamma_norm_sq


def lower_value(
    t: float, e_psi: float, e_phi: float, alpha_sq: float, beta_sq: float, branch: str
) -> float:
    """Lower bound L1(t) or L2(t); assumes the superposition is normalized."""
    _check_t(t)
    h = binary_entropy(t)
    if branch == "L1":
        return (
            (1.0 - t) * beta_sq / (1.0 - t * (1.0 - alpha_sq)) * e_phi
            - (1.0 - t) / t * e_psi
            - h / t
        )
    if branch == "L2":
        return (
            (1.0 - t) * alpha_sq / (1.0 - t * (1.0 - beta_sq)) * e_psi
            - (1.0 - t) / t * e_phi
            - h / t
        )
    raise ValueError(f"branch must be 'L1' or 'L2', got {branch!r}")


def minimize_f_scalar(
    e_psi: float,
    e_phi: float,
    alpha_sq: float,
    gamma_norm_sq: float,
    grid_n: int = optimize.DEFAULT_GRID_N,
    tol: float = optimize.DEFAULT_TOL,
) -> tuple[float, float]:
    """Minimize f over t in [eps, 1-eps]; returns (value, t_star).

    Besides the grid + golden-section search the candidate set always
    contains t = |alpha|^2, which pins the result at or below the LPS bound.
    """
    return _minimize_f(
        lambda t: f_upper_value(t, e_psi, e_phi, alpha_sq, gamma_norm_sq),
        alpha_sq,
        grid_n,
        tol,
    )


def _minimize_f(
    objective: Callable[[float], float],
    alpha_sq: float,
    grid_n: int,
    tol: float,
    grid_values: Optional[list[float]] = None,
) -> tuple[float, float]:
    res = optimize.minimize_scalar(
        objective, T_EPS, 1.0 - T_EPS, grid_n=grid_n, tol=tol, grid_values=grid_values
    )
    value, t_star = res.value, res.x_star
    if T_EPS < alpha_sq < 1.0 - T_EPS:
        at_a = objective(alpha_sq)
        if at_a < value:
            value, t_star = at_a, alpha_sq
    return value, t_star


def minimize_f_with_refinement(
    e_psi: float,
    e_phi: float,
    alpha_sq: float,
    gamma_norm_sq: float,
    overlap_sq: float,
    delta_s_fn: Callable[[float], float],
    side_entropies: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    grid_n: int = optimize.DEFAULT_GRID_N,
    tol: float = optimize.DEFAULT_TOL,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Minimize the plain and refined f together.

    Returns ((plain_value, plain_t), (refined_value, refined_t)).  The
    refined candidate set includes the plain minimizer, which pins the
    refined optimum at or below the plain one.

    The refined f subtracts Delta(t) = |S_A(t) - S_B(t)|, the gap between the
    reduced entropies of t |psi><psi| + (1-t) |phi><phi|.
    ``side_entropies`` returns (S_A, S_B) at an array of weights from one
    stacked eigendecomposition per side; ``delta_s_fn`` returns Delta at one
    weight, for the golden-section points between grid points.
    ``overlap_sq`` is |<psi|phi>|^2.

    The grid stage eigendecomposes only the points that could be the grid
    minimum:

    1. S_A and S_B are computed at every PRUNE_STRIDE-th grid point (the
       knots); ``best`` is the least refined f among them.
    2. Each S_X is concave in t, because entropy is concave and rho_X(t) is
       affine in t.  So between two knots S_X lies above their chord and
       below the secants of the two neighbouring knot intervals, extended.
       Concavity also gives S_X >= m = t E(psi) + (1-t) E(phi), and since
       the Holevo quantity does not grow under partial trace,
       S_X <= m + S_AB, where S_AB is the closed-form entropy of the rank-2
       mixture.  With L_X and U_X the tightest of these lower and upper
       bounds, and Araki-Lieb (Delta <= S_AB),
       cap = clip(min(S_AB, max(U_A - L_B, U_B - L_A)), 0, inf) >= Delta,
       and LB = pref (m + h2(t) - cap) / N^2 is at most the refined f.
    3. One more stacked call evaluates the points with
       LB - allowance <= best, where
       allowance = pref ENTROPY_ROUNDING (1 + |m + h2(t)|) / N^2 absorbs
       rounding in the computed entropies.  Every other point keeps LB as
       its grid value: its refined f exceeds ``best``, so it cannot be the
       grid minimum, and the grid argmin, the golden-section path and the
       result are those of a full-grid evaluation, bit for bit.

    A grid weight asked for again (the t = |alpha|^2 or plain-minimizer pin)
    gets the stacked kernel's value, as the full grid would give it.
    """
    plain_value, plain_t = minimize_f_scalar(
        e_psi, e_phi, alpha_sq, gamma_norm_sq, grid_n=grid_n, tol=tol
    )
    ts = optimize.grid_points(T_EPS, 1.0 - T_EPS, grid_n)
    grid = np.asarray(ts)
    delta = np.full(grid_n, np.nan)

    def evaluate(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s_a, s_b = side_entropies(grid[idx])
        delta[idx] = np.abs(s_a - s_b)
        return s_a, s_b

    def objective(t: float) -> float:
        i = int(np.searchsorted(grid, t))
        if i < grid_n and ts[i] == t:
            if math.isnan(delta[i]):
                evaluate(np.array([i]))
            ds = float(delta[i])
        else:
            ds = delta_s_fn(t)
        return f_upper_value(t, e_psi, e_phi, alpha_sq, gamma_norm_sq, delta_s=ds)

    knots = np.unique(np.r_[np.arange(0, grid_n, PRUNE_STRIDE), grid_n - 1])
    s_a, s_b = evaluate(knots)
    floor, allowance = _refined_f_floor(
        grid, grid[knots], s_a, s_b, e_psi, e_phi, alpha_sq, gamma_norm_sq, overlap_sq
    )
    values = floor.tolist()
    for i in knots:
        values[i] = objective(ts[i])
    best = min(values[i] for i in knots)
    todo = np.flatnonzero(np.isnan(delta) & (floor - allowance <= best))
    if todo.size:
        evaluate(todo)
    for i in todo:
        values[i] = objective(ts[i])

    value, t_star = _minimize_f(objective, alpha_sq, grid_n, tol, grid_values=values)
    at_plain = objective(plain_t)
    if at_plain < value:
        value, t_star = at_plain, plain_t
    return (plain_value, plain_t), (value, t_star)


def _refined_f_floor(
    t: np.ndarray,
    knots: np.ndarray,
    s_a: np.ndarray,
    s_b: np.ndarray,
    e_psi: float,
    e_phi: float,
    alpha_sq: float,
    gamma_norm_sq: float,
    overlap_sq: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Lower bound on the refined f at weights ``t`` and its rounding allowance.

    ``s_a``, ``s_b`` are the exact side entropies at ``knots``; see
    ``minimize_f_with_refinement`` for why the bound holds.
    """
    m = t * e_psi + (1.0 - t) * e_phi
    cap = _delta_cap(t, knots, s_a, s_b, m, states.mixture_entropy_array(t, overlap_sq))
    scale = (t * (1.0 - alpha_sq) + (1.0 - t) * alpha_sq) / (t * (1.0 - t) * gamma_norm_sq)
    bracket = m + qmath.binary_entropy_array(t)
    return scale * (bracket - cap), scale * ENTROPY_ROUNDING * (1.0 + np.abs(bracket))


def _delta_cap(
    t: np.ndarray,
    knots: np.ndarray,
    s_a: np.ndarray,
    s_b: np.ndarray,
    m: np.ndarray,
    s_ab: np.ndarray,
) -> np.ndarray:
    """Upper bound on |S_A(t) - S_B(t)| from the side entropies at ``knots``,
    the mean entanglement m(t) and the mixture entropy S_AB(t)."""
    lo_a, hi_a = _concave_envelope(t, knots, s_a, m, m + s_ab)
    lo_b, hi_b = _concave_envelope(t, knots, s_b, m, m + s_ab)
    return np.clip(np.minimum(s_ab, np.maximum(hi_a - lo_b, hi_b - lo_a)), 0.0, None)


def _concave_envelope(
    t: np.ndarray, knots: np.ndarray, s: np.ndarray, floor: np.ndarray, ceiling: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) on a concave function known exactly at ``knots``.

    lo is the chord of the knot interval holding t, raised to ``floor``; hi
    is the lower of the secants of the two neighbouring intervals, extended
    into this one, and ``ceiling``.
    """
    last = knots.size - 2
    j = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, last)
    slope = np.diff(s) / np.diff(knots)
    chord = s[j] + slope[j] * (t - knots[j])
    left = np.where(j > 0, s[j] + slope[j - 1] * (t - knots[j]), np.inf)
    right = np.where(
        j < last, s[j + 1] + slope[np.minimum(j + 1, last)] * (t - knots[j + 1]), np.inf
    )
    return np.maximum(chord, floor), np.minimum(np.minimum(left, right), ceiling)


def maximize_lower_scalar(
    e_psi: float,
    e_phi: float,
    alpha_sq: float,
    beta_sq: float,
    grid_n: int = optimize.DEFAULT_GRID_N,
    tol: float = optimize.DEFAULT_TOL,
) -> tuple[float, float, str]:
    """Maximize max(L1, L2) over t; returns the unclamped (value, t_star, branch)."""
    best: Optional[tuple[float, float, str]] = None
    for branch in ("L1", "L2"):
        res = optimize.maximize_scalar(
            lambda t, b=branch: lower_value(t, e_psi, e_phi, alpha_sq, beta_sq, b),
            T_EPS,
            1.0 - T_EPS,
            grid_n=grid_n,
            tol=tol,
        )
        if best is None or res.value > best[0]:
            best = (res.value, res.x_star, branch)
    return best


def theorem3_stationarity_residual(
    t: float, e_psi: float, e_phi: float, alpha_sq: float
) -> float:
    """|lhs - rhs| of the interior-minimum condition for f:

    a (1-t)^2 / ((1-a) t^2) = (E(psi) - log2 t) / (E(phi) - log2(1-t)).
    """
    bsq = 1.0 - alpha_sq
    lhs = alpha_sq * (1.0 - t) ** 2 / (bsq * t**2)
    rhs = (e_psi - math.log2(t)) / (e_phi - math.log2(1.0 - t))
    return abs(lhs - rhs)


def theorem4_stationarity_residual(
    t: float, e_psi: float, e_phi: float, alpha_sq: float, beta_sq: float, branch: str = "L1"
) -> float:
    """|lhs - rhs| of the interior-maximum condition for L1 (or mirrored L2):

    a b t^2 / (1 - (1-a) t)^2 * E(phi) = E(psi) - log2(1-t).
    """
    if branch == "L1":
        lhs = alpha_sq * beta_sq * t**2 / (1.0 - (1.0 - alpha_sq) * t) ** 2 * e_phi
        rhs = e_psi - math.log2(1.0 - t)
    else:
        lhs = alpha_sq * beta_sq * t**2 / (1.0 - (1.0 - beta_sq) * t) ** 2 * e_psi
        rhs = e_phi - math.log2(1.0 - t)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Problem-level operations.
# ---------------------------------------------------------------------------


def exact_one_sided(p: SuperpositionProblem) -> float:
    """Exact entanglement of the superposition of a one-sided orthogonal pair:

    E = a E(psi) + (1-a) E(phi) + S(rho_AB) - |S(rho_A) - S(rho_B)|

    with a = |alpha|^2 and rho_AB = a |psi><psi| + (1-a) |phi><phi|.
    Raises NotOneSided when neither reduced side has orthogonal supports.
    """
    if not states.classify_orthogonality(p.psi, p.phi).one_sided:
        raise NotOneSided("pair is not one-sided orthogonal on either side")
    s_a, s_b = states.reduced_mixture_entropies(p.psi, p.phi, p.alpha_sq)
    return _one_sided_value(p, s_a, s_b)


def _one_sided_value(p: SuperpositionProblem, s_a: float, s_b: float) -> float:
    t = p.alpha_sq
    s_ab = states.mixture_entropy(p.psi, p.phi, t)
    return t * p.e_psi + (1.0 - t) * p.e_phi + s_ab - abs(s_a - s_b)


def lps_upper(p: SuperpositionProblem) -> float:
    _require_constructive(p)
    return lps_upper_value(p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)


def theorem2_upper(p: SuperpositionProblem) -> float:
    _require_constructive(p)
    s_a, s_b = states.reduced_mixture_entropies(p.psi, p.phi, p.alpha_sq)
    return theorem2_upper_value(
        p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq, delta_s=s_a - s_b
    )


def f_of_t(p: SuperpositionProblem, t: float, refined: bool = False) -> float:
    """Evaluate the f(t) upper bound (refined variant on request)."""
    delta = _ReducedPair.of(p).delta(t) if refined else 0.0
    return f_upper_value(
        t, p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq, delta_s=delta
    )


def theorem3_optimal(p: SuperpositionProblem, refined: bool = False) -> tuple[float, float]:
    """Minimize f(t); returns (value, t_star).

    The refined search additionally evaluates at the plain minimizer so the
    refined optimum can never exceed the plain one.
    """
    _require_constructive(p)
    if not refined:
        return minimize_f_scalar(p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)
    _, refined_result = _refined_search(p, _ReducedPair.of(p))
    return refined_result


def lower_l(p: SuperpositionProblem, t: float, branch: str) -> float:
    """L1/L2 lower bound at mixing weight t, in the unit-norm convention.

    The problem's (alpha, beta) live on the unit sphere while the bound
    family assumes a normalized superposition, so the squared coefficients
    are rescaled by 1 / ||gamma||^2 before evaluation.  May be negative.
    """
    asq, bsq = _rescaled_squares(p)
    return lower_value(t, p.e_psi, p.e_phi, asq, bsq, branch)


def theorem4_optimal(p: SuperpositionProblem) -> tuple[float, float, str]:
    """Best lower bound over t and branch, clamped at zero.

    Returns (value, t_star, branch); the unclamped value at (t_star, branch)
    is recoverable via ``lower_l``.
    """
    _require_constructive(p)
    asq, bsq = _rescaled_squares(p)
    raw, t_star, branch = maximize_lower_scalar(p.e_psi, p.e_phi, asq, bsq)
    return max(0.0, raw), t_star, branch


def simple_lower(p: SuperpositionProblem) -> float:
    """Closed-form lower bound for orthogonal pairs:

    (|beta|^2 - |alpha|^2)[E(phi) - E(psi)] - h2(|alpha|^2) / max(|alpha|^2, |beta|^2).

    Weaker than the optimized bound in typical regimes (it fixes the mixing
    weight instead of optimizing it) and often vacuous, e.g. -2 for
    |alpha| = |beta| with equal entanglements.
    """
    if abs(p.overlap) > states.ORTHOGONALITY_TOL:
        raise NotOrthogonal(
            f"simple lower bound needs orthogonal states, overlap {abs(p.overlap):.3e}"
        )
    asq, bsq = p.alpha_sq, p.beta_sq
    gsq = max(asq, bsq)
    if gsq < 0.5:
        raise DomainError("max(|alpha|^2, |beta|^2) < 1/2 cannot happen on the sphere")
    return (bsq - asq) * (p.e_phi - p.e_psi) - binary_entropy(asq) / gsq


def subspace_lower(psi: BipartiteState, phi: BipartiteState, grid_n: int) -> float:
    """Lower bound on the least entanglement in span{psi, phi}.

    Scans a grid_n x grid_n grid over (p, relative phase) with
    alpha = sqrt(p), beta = e^{i phase} sqrt(1-p), renormalizes each
    superposition, and minimizes the optimized lower bound over the grid.
    The result lower-bounds the minimum exact entanglement over the same
    grid, up to grid resolution.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    psi_n = psi.normalized()
    phi_n = phi.normalized()
    c = states.inner_product(psi_n, phi_n)
    if abs(c) > 1.0 - 1e-9:
        raise DegenerateSubspace(
            f"states are parallel within tolerance (|<psi|phi>| = {abs(c):.12f})"
        )
    e_psi = states.entanglement_entropy(psi_n)
    e_phi = states.entanglement_entropy(phi_n)
    best = math.inf
    for prob in np.linspace(0.0, 1.0, grid_n):
        alpha = math.sqrt(prob)
        amp = math.sqrt(1.0 - prob)
        for phase in np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False):
            beta = amp * complex(math.cos(phase), math.sin(phase))
            n2 = 1.0 + 2.0 * (alpha * beta * c).real
            if n2 <= DESTRUCTIVE_NORM_SQ:
                continue
            raw, _, _ = maximize_lower_scalar(e_psi, e_phi, prob / n2, (1.0 - prob) / n2)
            best = min(best, max(0.0, raw))
            if best == 0.0:
                return 0.0
    return best


def certify(
    psi: BipartiteState, phi: BipartiteState, alpha: complex, beta: complex
) -> BoundReport:
    """Evaluate every bound against the exact entanglement for one problem."""
    return certify_problem(SuperpositionProblem.from_states(psi, phi, alpha, beta))


def certify_problem(p: SuperpositionProblem) -> BoundReport:
    _require_constructive(p)
    exact = states.entanglement_entropy(p.gamma)
    reduced = _ReducedPair.of(p)
    s_a, s_b = reduced.entropies(p.alpha_sq)
    lps = lps_upper(p)
    t2 = theorem2_upper_value(
        p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq, delta_s=s_a - s_b
    )
    (t3, t3_star), (t3r, _) = _refined_search(p, reduced)
    low, low_t, branch = theorem4_optimal(p)
    raw = lower_l(p, low_t, branch)
    one_sided = states.classify_orthogonality(p.psi, p.phi).one_sided
    simple = simple_lower(p) if abs(p.overlap) <= states.ORTHOGONALITY_TOL else None
    ex1 = _one_sided_value(p, s_a, s_b) if one_sided else None
    upper_min = min(lps, t2, t3, t3r)
    sane = (low - SANITY_SLACK <= exact) and (exact <= upper_min + SANITY_SLACK)
    return BoundReport(
        exact_e=exact,
        lps_upper=lps,
        theorem2_upper=t2,
        theorem3_upper=t3,
        t_star_upper=t3_star,
        theorem3_refined_upper=t3r,
        lower_l=low,
        t_star_lower=low_t,
        branch=branch,
        lower_raw=raw,
        simple_lower=simple,
        exact_one_sided=ex1,
        sane=sane,
    )


def _weight(name: str, c: complex) -> float:
    """|c|^2 of a coefficient, rejecting values with no finite weight."""
    try:
        w = abs(c) ** 2
    except OverflowError:
        w = math.inf
    if not math.isfinite(w):
        raise DomainError(f"coefficient {name} = {c!r} is not finite or too large to square")
    return w


def _check_t(t: float) -> None:
    if not T_EPS <= t <= 1.0 - T_EPS:
        raise DomainError(f"t={t!r} outside [{T_EPS:g}, 1 - {T_EPS:g}]")


def _require_constructive(p: SuperpositionProblem) -> None:
    if p.gamma_norm_sq <= DESTRUCTIVE_NORM_SQ:
        raise ZeroState("superposition is fully destructive")


def _rescaled_squares(p: SuperpositionProblem) -> tuple[float, float]:
    return p.alpha_sq / p.gamma_norm_sq, p.beta_sq / p.gamma_norm_sq


@dataclass(frozen=True)
class _ReducedPair:
    """Reduced operators of psi and phi on each side, built once per problem.

    Each method keeps the eigenvalue kernel its value has always come from,
    so the reported bounds stay the same bit for bit.
    """

    a_psi: np.ndarray
    a_phi: np.ndarray
    b_psi: np.ndarray
    b_phi: np.ndarray

    @classmethod
    def of(cls, p: SuperpositionProblem) -> "_ReducedPair":
        return cls(*(states.reduced_density(s, side) for side in "AB" for s in (p.psi, p.phi)))

    def entropies(self, t: float) -> tuple[float, float]:
        """(S_A, S_B) at weight t, as ``states.reduced_mixture_entropies``."""
        return (
            states.mixture_side_entropy(self.a_psi, self.a_phi, t),
            states.mixture_side_entropy(self.b_psi, self.b_phi, t),
        )

    def delta(self, t: float) -> float:
        """|S_A(t) - S_B(t)| at one weight."""
        s_a = _psd_entropy(t * self.a_psi + (1.0 - t) * self.a_phi)
        s_b = _psd_entropy(t * self.b_psi + (1.0 - t) * self.b_phi)
        return abs(s_a - s_b)

    def entropies_batch(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(S_A, S_B) at every weight in ``ts``, one stacked call per side."""
        t = ts[:, None, None]
        return (
            _psd_entropy_batch(t * self.a_psi + (1.0 - t) * self.a_phi),
            _psd_entropy_batch(t * self.b_psi + (1.0 - t) * self.b_phi),
        )


def _refined_search(
    p: SuperpositionProblem, reduced: _ReducedPair
) -> tuple[tuple[float, float], tuple[float, float]]:
    return minimize_f_with_refinement(
        p.e_psi,
        p.e_phi,
        p.alpha_sq,
        p.gamma_norm_sq,
        abs(p.overlap) ** 2,
        delta_s_fn=reduced.delta,
        side_entropies=reduced.entropies_batch,
    )


def _psd_entropy(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(rho)
    w = w[w > 0.0]
    if w.size == 0:
        return 0.0
    return max(0.0, float(-(w * np.log2(w)).sum()))


def _psd_entropy_batch(rhos: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(rhos)
    terms = np.where(w > 0.0, -w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    return np.maximum(0.0, terms.sum(axis=-1))
