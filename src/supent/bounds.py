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
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import optimize, states
from .errors import DegenerateSubspace, DomainError, ZeroState
from .qmath import binary_entropy
from .states import BipartiteState

__all__ = [
    "SuperpositionProblem",
    "BoundReport",
    "simple_lower",
    "subspace_lower",
    "certify",
    "certify_many",
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

# Largest grid_n of subspace_lower: it runs up to grid_n^2 lower-bound
# searches of about 0.4 ms each (2-core x86 host), so a 1024-point grid takes
# about 7 minutes.
MAX_SUBSPACE_GRID = 2**10

# The one grid of every t-search and h2 on it, read-only.
_T_GRID = np.asarray(optimize.grid_points(T_EPS, 1.0 - T_EPS, optimize.DEFAULT_GRID_N))
_T_GRID.setflags(write=False)
_H_GRID = binary_entropy(_T_GRID)
_H_GRID.setflags(write=False)
# The refined search's knots: every PRUNE_STRIDE-th grid index and the last.
_KNOTS = np.append(np.arange(0, _T_GRID.size - 1, PRUNE_STRIDE), _T_GRID.size - 1)


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
    t: float | np.ndarray,
    e_psi: float,
    e_phi: float,
    alpha_sq: float,
    gamma_norm_sq: float,
    delta_s: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """One-parameter upper bound f(t) / N^2; f(a) equals the LPS bound.

    ``delta_s`` is the refined-variant correction |S_A(t) - S_B(t)|
    subtracted inside the bracket (zero for the plain bound).  ``t`` is a
    float or an array of weights, and ``delta_s`` a float or an array of
    the same shape; on an array every entry gets the same bits as the float
    call at that weight.  A sequence of weights is taken as an array.
    """
    t = _check_t(t)
    return _f_value(t, binary_entropy(t), e_psi, e_phi, alpha_sq, gamma_norm_sq, delta_s)


def _f_value(t, h, e_psi, e_phi, alpha_sq, gamma_norm_sq, delta_s=0.0):
    """``f_upper_value`` given h = h2(t)."""
    bracket = t * e_psi + (1.0 - t) * e_phi + h - abs(delta_s)
    return _f_prefactor(t, alpha_sq) * bracket / gamma_norm_sq


def _f_prefactor(t, alpha_sq):
    """(t (1-a) + (1-t) a) / (t (1-t)), the weight of the bracket of f(t)."""
    return (t * (1.0 - alpha_sq) + (1.0 - t) * alpha_sq) / (t * (1.0 - t))


def lower_value(
    t: float | np.ndarray,
    e_psi: float,
    e_phi: float,
    alpha_sq: float,
    beta_sq: float,
    branch: str,
) -> float | np.ndarray:
    """Lower bound L1(t) or L2(t); assumes the superposition is normalized.

    ``t`` is a float or an array of weights, as for ``f_upper_value``.
    """
    t = _check_t(t)
    return _l1(t, binary_entropy(t), *_as_l1(branch, e_psi, e_phi, alpha_sq, beta_sq))


def _l1(t, h, e_psi, e_phi, alpha_sq, beta_sq):
    """L1(t) given h = h2(t)."""
    return (
        (1.0 - t) * beta_sq / (1.0 - t * (1.0 - alpha_sq)) * e_phi
        - (1.0 - t) / t * e_psi
        - h / t
    )


def _as_l1(branch, e_psi, e_phi, alpha_sq, beta_sq):
    """The arguments of the L1 formula for ``branch``: L2 is L1 with
    (psi, a') and (phi, b') exchanged."""
    if branch == "L1":
        return e_psi, e_phi, alpha_sq, beta_sq
    if branch == "L2":
        return e_phi, e_psi, beta_sq, alpha_sq
    raise ValueError(f"branch must be 'L1' or 'L2', got {branch!r}")


def minimize_f_scalar(
    e_psi: float, e_phi: float, alpha_sq: float, gamma_norm_sq: float
) -> tuple[float, float]:
    """Minimize f over t in [eps, 1-eps]; returns (value, t_star).

    Besides the grid + golden-section search the candidate set always
    contains t = |alpha|^2, which pins the result at or below the LPS bound.
    """
    return _minimize_f(*np.array([[e_psi], [e_phi], [alpha_sq], [gamma_norm_sq]]))[0]


def _minimize_f(*cols: np.ndarray) -> list[tuple[float, float]]:
    """``minimize_f_scalar`` in lockstep for the problems of the arrays
    cols = (e_psi, e_phi, alpha_sq, gamma_norm_sq)."""
    f = _pointwise(_f_value, cols)
    found = _golden(f, _f_value(_T_GRID, _H_GRID, *(c[:, None] for c in cols)))
    return _pin(f, found, *_inside(cols[2]))


def minimize_f_with_refinement(
    e_psi: np.ndarray,
    e_phi: np.ndarray,
    alpha_sq: np.ndarray,
    gamma_norm_sq: np.ndarray,
    overlap_sq: np.ndarray,
    stack: states.PairStack,
    pinned: tuple[np.ndarray, np.ndarray],
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Minimize the plain and refined f of n problems in lockstep; returns
    ((plain_value, plain_t), (refined_value, refined_t)) for each.

    Each argument but ``stack`` and ``pinned`` is an array of n.  The refined
    candidate set includes the plain minimizer, which pins the refined
    optimum at or below the plain one.

    The refined f subtracts Delta(t) = |S_A(t) - S_B(t)|, the gap between the
    reduced entropies of t |psi><psi| + (1-t) |phi><phi|.  Row k of ``stack``
    holds the reduced operators of problem k, and ``pinned`` their
    (S_A, S_B) at t = |alpha|^2.  ``overlap_sq`` is |<psi|phi>|^2.

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
    """
    cols = (e_psi, e_phi, alpha_sq, gamma_norm_sq)
    plain = _minimize_f(*cols)
    f = _pointwise(_f_value, cols)

    def objective(rows, t):
        s_a, s_b = stack.entropies(rows, t)
        return f(rows, t, s_a - s_b)

    def on_grid(rows, i, s_a, s_b):
        return _f_value(_T_GRID[i], _H_GRID[i], *(c[rows] for c in cols), s_a - s_b)

    n, k = len(e_psi), _KNOTS.size
    all_rows = np.arange(n)[:, None]
    s_a, s_b = (
        s.reshape(n, k)
        for s in stack.entropies(np.repeat(all_rows, k), np.tile(_T_GRID[_KNOTS], n))
    )
    values, allowance = _refined_f_floor(s_a, s_b, *(c[:, None] for c in cols), overlap_sq[:, None])
    values[:, _KNOTS] = on_grid(all_rows, _KNOTS, s_a, s_b)
    todo = values - allowance <= values[:, _KNOTS].min(axis=1, keepdims=True)
    todo[:, _KNOTS] = False
    rows, i = np.nonzero(todo)
    if rows.size:
        values[rows, i] = on_grid(rows, i, *stack.entropies(rows, _T_GRID[i]))
    found = _golden(objective, values)
    delta = pinned[0] - pinned[1]  # t = |alpha|^2 takes the entropies at hand
    _pin(lambda r, t: f(r, t, delta[r]), found, *_inside(alpha_sq))
    _pin(objective, found, list(range(n)), [t for _, t in plain])
    return list(zip(plain, found))


def _refined_f_floor(s_a, s_b, e_psi, e_phi, alpha_sq, gamma_norm_sq, overlap_sq):
    """Lower bound on the refined f of n problems on the grid, and its rounding
    allowance, each of shape (n, 257).

    Row k of ``s_a``, ``s_b`` holds problem k's exact side entropies at the
    knots, and the other arguments are columns of shape (n, 1); see
    ``minimize_f_with_refinement`` for why the bound holds.
    """
    t = _T_GRID
    m = t * e_psi + (1.0 - t) * e_phi
    cap = _delta_cap(t, t[_KNOTS], s_a, s_b, m, states.mixture_entropy(t, overlap_sq))
    floor = _f_value(t, _H_GRID, e_psi, e_phi, alpha_sq, gamma_norm_sq, cap)
    weight = _f_prefactor(t, alpha_sq) / gamma_norm_sq
    return floor, weight * ENTROPY_ROUNDING * (1.0 + np.abs(m + _H_GRID))


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
    chord = s[..., j] + slope[..., j] * (t - knots[j])
    left = np.where(j > 0, s[..., j] + slope[..., j - 1] * (t - knots[j]), np.inf)
    right = np.where(
        j < last,
        s[..., j + 1] + slope[..., np.minimum(j + 1, last)] * (t - knots[j + 1]),
        np.inf,
    )
    return np.maximum(chord, floor), np.minimum(np.minimum(left, right), ceiling)


def maximize_lower_scalar(
    e_psi: float, e_phi: float, alpha_sq: float, beta_sq: float
) -> tuple[float, float, str]:
    """Maximize max(L1, L2) over t; returns the unclamped (value, t_star, branch)."""
    return _maximize_lower(*np.array([[e_psi], [e_phi], [alpha_sq], [beta_sq]]))[0]


def _maximize_lower(*cols: np.ndarray) -> list[tuple[float, float, str]]:
    """``maximize_lower_scalar`` in lockstep for the problems of the arrays
    cols = (e_psi, e_phi, alpha_sq, beta_sq): one search per branch, L1
    winning ties."""
    found = []
    for branch in ("L1", "L2"):
        l1_cols = _as_l1(branch, *cols)
        grid = _l1(_T_GRID, _H_GRID, *(c[:, None] for c in l1_cols))
        negated = _pointwise(lambda *args: -_l1(*args), l1_cols)
        found.append([(-v, t, branch) for v, t in _golden(negated, -grid)])
    return [l2 if l2[0] > l1[0] else l1 for l1, l2 in zip(*found)]


def _pointwise(formula, cols):
    """``formula(t, h2(t), *params, *extra)`` as an objective f(rows, t, *extra)
    of ``optimize.minimize_many``, search r's params being entry r of each
    array in ``cols``.  One search computes in floats, as ``f_upper_value``
    and ``lower_value`` do, and several in arrays, with the same bits."""
    scalars = list(zip(*(c.tolist() for c in cols)))

    def f(rows, t, *extra):
        params = scalars[rows] if isinstance(rows, int) else (c[rows] for c in cols)
        return formula(t, binary_entropy(t), *params, *extra)

    return f


def _golden(f, grid_values: np.ndarray) -> list[tuple[float, float]]:
    """(value, t_star) of each row's grid + golden-section search on the window."""
    results = optimize.minimize_many(f, T_EPS, 1.0 - T_EPS, grid_values)
    return [(r.value, r.x_star) for r in results]


def _inside(alpha_sq: np.ndarray) -> tuple[list[int], list[float]]:
    """The problems whose |alpha|^2 lies strictly inside the window, and their |alpha|^2."""
    rows = [r for r, a in enumerate(alpha_sq.tolist()) if T_EPS < a < 1.0 - T_EPS]
    return rows, alpha_sq[rows].tolist()


def _pin(f, found: list, rows: list[int], ts: list[float]) -> list:
    """``found`` with ts[k] as search rows[k]'s optimum where f is lower there."""
    for r, t, v in zip(rows, ts, optimize.evaluate(f, rows, ts)):
        if v < found[r][0]:
            found[r] = (v, t)
    return found


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
    e_psi, e_phi, alpha_sq, beta_sq = _as_l1(branch, e_psi, e_phi, alpha_sq, beta_sq)
    lhs = alpha_sq * beta_sq * t**2 / (1.0 - (1.0 - alpha_sq) * t) ** 2 * e_phi
    rhs = e_psi - math.log2(1.0 - t)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Problem-level operations.
# ---------------------------------------------------------------------------


def simple_lower(p: SuperpositionProblem) -> Optional[float]:
    """Closed-form lower bound for orthogonal pairs, None for any other pair:

    (|beta|^2 - |alpha|^2)[E(phi) - E(psi)] - h2(|alpha|^2) / max(|alpha|^2, |beta|^2).

    Weaker than the optimized bound in typical regimes (it fixes the mixing
    weight instead of optimizing it) and often vacuous, e.g. -2 for
    |alpha| = |beta| with equal entanglements.
    """
    if abs(p.overlap) > states.ORTHOGONALITY_TOL:
        return None
    asq, bsq = p.alpha_sq, p.beta_sq
    return (bsq - asq) * (p.e_phi - p.e_psi) - binary_entropy(asq) / max(asq, bsq)


def subspace_lower(psi: BipartiteState, phi: BipartiteState, grid_n: int) -> float:
    """Lower bound on the least entanglement in span{psi, phi}.

    Scans a grid_n x grid_n grid over (p, relative phase) with
    alpha = sqrt(p), beta = e^{i phase} sqrt(1-p), renormalizes each
    superposition, and minimizes the optimized lower bound over the grid.
    The result lower-bounds the minimum exact entanglement over the same
    grid, up to grid resolution.  Raises DomainError unless grid_n is an
    integer in [2, MAX_SUBSPACE_GRID].
    """
    if not (isinstance(grid_n, numbers.Integral) and 2 <= grid_n <= MAX_SUBSPACE_GRID):
        raise DomainError(f"grid_n = {grid_n!r} is not an integer in [2, {MAX_SUBSPACE_GRID}]")
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
    return certify_many([SuperpositionProblem.from_states(psi, phi, alpha, beta)])[0]


def certify_many(problems: Sequence[SuperpositionProblem]) -> list[BoundReport]:
    """``certify`` for each problem, in input order, with the bits it gives
    each alone.  The plain f, refined f, L1 and L2 searches each run for all
    problems in lockstep, and each step of the refined search takes one
    stacked eigendecomposition per side and distinct dimension."""
    problems = list(problems)
    stack = states.PairStack((p.psi, p.phi) for p in problems)
    e_psi, e_phi, asq, bsq, n2 = (
        np.array([getattr(p, name) for p in problems], dtype=float)
        for name in ("e_psi", "e_phi", "alpha_sq", "beta_sq", "gamma_norm_sq")
    )
    overlap_sq = np.array([abs(p.overlap) ** 2 for p in problems])
    pinned = stack.entropies(np.arange(len(problems)), asq)
    upper = minimize_f_with_refinement(e_psi, e_phi, asq, n2, overlap_sq, stack, pinned)
    lower = _maximize_lower(e_psi, e_phi, asq / n2, bsq / n2)
    found = zip(problems, pinned[0].tolist(), pinned[1].tolist(), upper, lower)
    return [_report(stack, row, *args) for row, args in enumerate(found)]


def _report(stack, row, p, s_a, s_b, upper, lower) -> BoundReport:
    """Problem ``p``'s report, given what ``certify_many`` computed for it as
    row ``row`` of ``stack``."""
    ((t3, t3_star), (t3r, _)), (raw, low_t, branch) = upper, lower
    exact = states.entanglement_entropy(p.gamma)
    lps = lps_upper_value(p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)
    t2 = theorem2_upper_value(p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq, delta_s=s_a - s_b)
    low = max(0.0, raw)
    one_sided = states.classify_orthogonality(stack, row).one_sided
    upper_min = min(lps, t2, t3, t3r)
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
        simple_lower=simple_lower(p),
        exact_one_sided=_one_sided_value(p, s_a, s_b) if one_sided else None,
        sane=(low - SANITY_SLACK <= exact) and (exact <= upper_min + SANITY_SLACK),
    )


def _one_sided_value(p: SuperpositionProblem, s_a: float, s_b: float) -> float:
    """Lemma 1: the exact entanglement of a one-sided orthogonal superposition,

    E = a E(psi) + (1-a) E(phi) + S(rho_AB) - |S_A - S_B|

    with a = |alpha|^2, rho_AB = a |psi><psi| + (1-a) |phi><phi| and (s_a, s_b)
    the entropies of its reduced operators.
    """
    t = p.alpha_sq
    s_ab = states.mixture_entropy(t, abs(p.overlap) ** 2)
    return t * p.e_psi + (1.0 - t) * p.e_phi + s_ab - abs(s_a - s_b)


def _weight(name: str, c: complex) -> float:
    """|c|^2 of a coefficient, rejecting values with no finite weight."""
    try:
        w = abs(c) ** 2
    except OverflowError:
        w = math.inf
    if not math.isfinite(w):
        raise DomainError(f"coefficient {name} = {c!r} is not finite or too large to square")
    return w


def _check_t(t):
    """``t`` as a float, or as a float array for an array or sequence of
    weights, after checking that every weight lies in the window."""
    if isinstance(t, numbers.Real):
        t = float(t)
    else:
        try:
            t = np.asarray(t)
        except ValueError as exc:  # a ragged sequence
            raise DomainError(f"t is not an array of weights: {exc}") from None
        if t.dtype.kind not in "iuf":
            raise DomainError(f"t={t!r} is not a real weight or an array of them")
        t = t.astype(float, copy=False)
    inside = (t >= T_EPS) & (t <= 1.0 - T_EPS)
    if not np.all(inside):
        bad = t if isinstance(t, float) else float(t[~inside][0])
        raise DomainError(f"t={bad!r} outside [{T_EPS:g}, 1 - {T_EPS:g}]")
    return t
