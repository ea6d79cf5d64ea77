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
refined variant of f subtracts |S_A(t) - S_B(t)|, capped at h2(t), inside
the bracket.

The lower-bound family uses the rescaled coefficients a' = a / N^2,
b' = (1-a) / N^2 (so that the superposition is normalized):

    L1(t) = (1-t) b' / (1 - t(1-a')) E(phi) - (1-t)/t E(psi) - h2(t)/t

and L2 with the roles of the two states exchanged.  Entanglement never
drops below max over t of these, and also never below zero.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import optimize, states
from .errors import DegenerateSubspace, DomainError, ZeroState
from .qmath import H2_DOMAIN_SLACK, PROB_SLACK, binary_entropy, check_integer, check_numbers
from .states import ZERO_NORM_SQ, BipartiteState

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

# Every t-search and scalar bound takes t in the window [T_EPS, 1 - T_EPS]:
# f divides by t (1 - t) and L1, L2 by t, and the window keeps them finite
# (MAX_ENTANGLEMENT).  The cost is at the ends: at |alpha|^2 = 1, f tends to
# E(psi) as t -> 1, but at the edge it is about h2(T_EPS) = 3e-8 above it.
T_EPS = 1e-9

# Slack of BoundReport.sane, in ebits.  A bound may come within rounding of
# exact_e (the clamped lower bound equals it when gamma is a product state),
# and the entropies carry about 6e-15 d of rounding (see ENTROPY_ROUNDING),
# under 3e-11 at d = 4096.  1e-8 covers that, and a bound wrong in its
# formula misses by far more.  It shares PROB_SLACK's value, not its reason.
SANITY_SLACK = 1e-8

# Largest |<psi|phi>|, as 1 - PARALLEL_TOL, at which subspace_lower takes
# span{psi, phi} to be two-dimensional: the computed overlap of parallel
# normalized states is 1 within a few u = 2^-53, which this catches with a
# wide margin, while the span's second direction phi - <psi|phi> psi keeps a
# norm above 4e-5.
PARALLEL_TOL = 1e-9

# Largest entanglement, in ebits, and largest |S_A - S_B| the scalar layer
# takes.  Its largest caller passes 513 (harness._example4_rows, at
# log2(d - 1) = 1024).  At the window's edge f reaches about 1e21 E as N^2
# nears ZERO_NORM_SQ, and L1 and Theorem 4's residual about 1e12 E and 3e20 E
# as a', b' near 1 / ZERO_NORM_SQ (both excluded).  So at this cap every
# value stays below 1e28, while E = 1e300 would overflow.
MAX_ENTANGLEMENT = 1e6

# Rounding slack, relative to 1 + |bracket|, for the computed entropies when
# the refined search rules out grid points.  eigvalsh leaves an absolute
# error of a few u = 2^-53 on each eigenvalue of a unit-trace operator, which
# moves its entropy by about d u log2(1/u), or 6e-15 d.  A secant of an
# interval w wide, extended a distance x past it, multiplies that by
# 1 + 2 x / w, so the bounds below extend none further than SECANT_REACH w:
# at most 5 times.  1e-9 covers it with room to spare at any dimension a
# dense eigendecomposition can reach.
ENTROPY_ROUNDING = 1e-9

# Farthest a neighbouring interval's secant is extended into the next, in
# widths of its own interval.  The grid stage never reaches it: a point it
# bounds lies within one stride of its interval's knots, and every interval
# beside it is at least one stride wide.  But a golden-section point may
# land within rounding of a grid point, and the secant of so narrow an
# interval, extended across the next, would carry its rounding far past
# ENTROPY_ROUNDING.
SECANT_REACH = 2.0

# Rounding allowance, relative to the size of L1's and L2's terms at the
# window's right edge, when ``_maximize_lower`` rules a branch out: each
# computed value is off by a few u = 2^-53 times the sum of its terms'
# magnitudes.  A branch held below -h2(t)/t comes within that of its
# ceiling only within a few T_EPS of the edge, where its terms are those at
# the edge within a small factor.  1e-12 (about 9000 u) covers both.
LOWER_EDGE_ROUNDING = 1e-12

# Grid strides of the refined search's levels, coarse to fine.  The first
# level eigendecomposes every PRUNE_STRIDES[0]-th grid point and the last;
# each later one, those of its stride next to the grid points still in
# doubt, whose bounds it then tightens; after the last, the points still in
# doubt are eigendecomposed.  So a search makes at most len(PRUNE_STRIDES)
# + 1 stacked calls before golden section.  Each stride divides the grid's
# 256 steps, so a point's neighbours of each stride lie on the grid.
PRUNE_STRIDES = (64, 16, 4)

# Largest grid_n of subspace_lower: it runs up to grid_n^2 lower-bound
# searches of about 0.4 ms each (2-core x86 host), so a 1024-point grid takes
# about 7 minutes.
MAX_SUBSPACE_GRID = 2**10

# The one grid of every t-search, as the floats the searches step from and
# as a read-only array, and h2 on it.
_T_POINTS = optimize.grid_points(T_EPS, 1.0 - T_EPS, optimize.DEFAULT_GRID_N)
_T_GRID = np.asarray(_T_POINTS)
_T_GRID.setflags(write=False)
_H_GRID = binary_entropy(_T_GRID)
_H_GRID.setflags(write=False)
# The refined search's first level: every PRUNE_STRIDES[0]-th grid index and
# the last, and the one of them that starts each grid point's interval.
_KNOTS = np.append(np.arange(0, _T_GRID.size - 1, PRUNE_STRIDES[0]), _T_GRID.size - 1)
_KNOT_BELOW = np.clip(np.searchsorted(_KNOTS, np.arange(_T_GRID.size), side="right") - 1, 0, _KNOTS.size - 2)
_BRANCHES = ("L1", "L2")  # the lower-bound branches; the first wins ties


@dataclass(frozen=True)
class SuperpositionProblem:
    """Normalized (psi, phi, alpha, beta), their superposition and its exact E."""

    psi: BipartiteState
    phi: BipartiteState
    alpha: complex
    beta: complex
    gamma: BipartiteState
    gamma_norm_sq: float
    overlap: complex
    e_psi: float
    e_phi: float
    exact_e: float

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

        The coefficient pair must lie on the unit sphere within PROB_SLACK;
        it is rescaled onto it exactly so downstream identities hold to
        machine precision.  Raises DomainError for a coefficient that is not
        a number, not finite or overflowing, and ZeroState when the
        superposition is fully destructive (squared norm at most ZERO_NORM_SQ).
        """
        (problem,) = cls.from_states_many([(psi, phi, alpha, beta)])
        if problem is None:
            raise ZeroState("superposition is fully destructive")
        return problem

    @classmethod
    def from_states_many(cls, quads) -> list[Optional["SuperpositionProblem"]]:
        """``from_states`` for each (psi, phi, alpha, beta) of ``quads``, in
        order, with None in place of a fully destructive problem.

        The entanglements of all the normalized states and superpositions
        come from one stacked SVD per coefficient shape
        (``states.entanglement_entropies``), with the bits each gets alone.
        Raises as ``from_states`` does, for the first bad quadruple.
        """
        held = []  # (psi, phi, alpha, beta, gamma, gamma_norm_sq) or None
        for psi, phi, alpha, beta in quads:
            psi_n = psi.normalized()
            phi_n = phi.normalized()
            sphere = _weight("alpha", alpha) + _weight("beta", beta)
            if abs(sphere - 1.0) > PROB_SLACK:
                raise DomainError(
                    f"|alpha|^2 + |beta|^2 = {sphere!r}, expected 1 within {PROB_SLACK!r}"
                )
            scale = 1.0 / math.sqrt(sphere)
            alpha = complex(alpha) * scale
            beta = complex(beta) * scale
            gamma = states.superpose(alpha, psi_n, beta, phi_n)
            n2 = states.norm_squared(gamma)
            held.append(None if n2 <= ZERO_NORM_SQ else (psi_n, phi_n, alpha, beta, gamma, n2))
        kept = [h for h in held if h is not None]
        e = iter(states.entanglement_entropies(s for h in kept for s in (h[0], h[1], h[4])))
        # fields in order: the held six, then overlap, e_psi, e_phi and exact_e
        return [
            None if h is None else cls(*h, states.inner_product(*h[:2]), next(e), next(e), next(e))
            for h in held
        ]


@dataclass(frozen=True)
class BoundReport:
    """Every bound for one problem, plus consistency flags.

    ``lower_l`` is clamped at zero; ``lower_raw`` keeps the unclamped
    optimum for stationarity diagnostics.  ``simple_lower`` is present only
    for orthogonal pairs; ``exact_one_sided`` only when the pair is
    one-sided orthogonal.  ``sane`` records
    lower_l - SANITY_SLACK <= exact_e <= min(upper bounds) + SANITY_SLACK.
    ``s_a`` and ``s_b`` are the side entropies S_A, S_B of
    |alpha|^2 |psi><psi| + |beta|^2 |phi><phi|: Theorem 2's asymmetry is
    |s_a - s_b|, and they are Lemma 1's inputs.
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
    s_a: float
    s_b: float


# ---------------------------------------------------------------------------
# Scalar layer: every bound as a function of plain numbers.  The harness
# sweeps reuse these directly for structured state families whose
# entanglements are known spectrally, where dense coefficient matrices would
# be prohibitively large.
# ---------------------------------------------------------------------------


def lps_upper_value(e_psi: float, e_phi: float, alpha_sq: float, gamma_norm_sq: float) -> float:
    """2 [a E(psi) + (1-a) E(phi) + h2(a)] / N^2."""
    _check_upper(e_psi, e_phi, alpha_sq, gamma_norm_sq)
    bracket = alpha_sq * e_psi + (1.0 - alpha_sq) * e_phi + binary_entropy(alpha_sq)
    return 2.0 * bracket / gamma_norm_sq


def theorem2_upper_value(
    e_psi: float, e_phi: float, alpha_sq: float, gamma_norm_sq: float, delta_s: float
) -> float:
    """LPS bound tightened by the reduced-entropy asymmetry |S_A - S_B|."""
    check_numbers(-MAX_ENTANGLEMENT, MAX_ENTANGLEMENT, delta_s=delta_s)
    lps = lps_upper_value(e_psi, e_phi, alpha_sq, gamma_norm_sq)
    return lps - 2.0 * abs(delta_s) / gamma_norm_sq


def f_upper_value(
    t: float, e_psi: float, e_phi: float, alpha_sq: float, gamma_norm_sq: float,
    delta_s: float = 0.0,
) -> float:
    """One-parameter upper bound f(t) / N^2 at one weight t in the window;
    f(a) equals the LPS bound.  ``delta_s`` is the refined-variant correction
    |S_A(t) - S_B(t)|, capped at h2(t), subtracted inside the bracket (zero
    for the plain bound).  The lockstep searches take the same formula over
    arrays."""
    t = _check_t(t)
    _check_upper(e_psi, e_phi, alpha_sq, gamma_norm_sq, delta_s)
    return _f_value(t, binary_entropy(t), e_psi, e_phi, alpha_sq, gamma_norm_sq, delta_s)


def _f_value(t, h, e_psi, e_phi, alpha_sq, gamma_norm_sq, delta_s=None):
    """``f_upper_value`` given h = h2(t): the plain f without ``delta_s``,
    the refined f with |delta_s| capped at h.

    The cap is sound: Araki-Lieb gives |S_A - S_B| <= S_AB <= h2(t) for the
    mixture t |psi><psi| + (1-t) |phi><phi|.  Near the window's edge a
    computed gap can exceed h2(t) by rounding (eigvalsh's error on the O(t)
    eigenvalue, times |log2 t|), and the prefactor, about |alpha|^2 / t,
    would carry that below the exact entanglement of a product gamma.
    """
    bracket = t * e_psi + (1.0 - t) * e_phi + h
    if delta_s is not None:
        delta = abs(delta_s)
        bracket = bracket - (min(delta, h) if isinstance(h, float) else np.minimum(delta, h))
    return _f_prefactor(t, alpha_sq) * bracket / gamma_norm_sq


def _f_prefactor(t, alpha_sq):
    """(t (1-a) + (1-t) a) / (t (1-t)), the weight of the bracket of f(t)."""
    return (t * (1.0 - alpha_sq) + (1.0 - t) * alpha_sq) / (t * (1.0 - t))


def lower_value(
    t: float, e_psi: float, e_phi: float, alpha_sq: float, beta_sq: float, branch: str
) -> float:
    """Lower bound L1(t) or L2(t) at one weight t, as for ``f_upper_value``; ``alpha_sq``
    and ``beta_sq`` are the rescaled weights a', b' >= 0 (above 1 when N^2 < 1)."""
    t = _check_t(t)
    _check_lower(e_psi, e_phi, alpha_sq, beta_sq)
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
    if branch == _BRANCHES[0]:
        return e_psi, e_phi, alpha_sq, beta_sq
    if branch == _BRANCHES[1]:
        return e_phi, e_psi, beta_sq, alpha_sq
    raise DomainError(f"branch must be one of {_BRANCHES!r}, got {branch!r}")


def minimize_f_scalar(
    e_psi: float, e_phi: float, alpha_sq: float, gamma_norm_sq: float
) -> tuple[float, float]:
    """Minimize f over t in [eps, 1-eps]; returns (value, t_star).

    Besides the grid + golden-section search the candidate set always
    contains t = |alpha|^2, which pins the result at or below the LPS bound.
    """
    _check_upper(e_psi, e_phi, alpha_sq, gamma_norm_sq)
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
    stack: states.PairStack,
) -> list[tuple[tuple[float, float], tuple[float, float], tuple[float, float]]]:
    """Minimize the plain and refined f of n problems in lockstep; returns
    ((plain_value, plain_t), (refined_value, refined_t), (S_A, S_B)) for
    each, the last pair at t = |alpha|^2.

    Each argument but ``stack`` is an array of n.  The refined candidate set
    includes t = |alpha|^2 inside the window and the plain minimizer, which
    pins the refined optimum at or below the plain one.

    The refined f subtracts Delta(t) = |S_A(t) - S_B(t)|, the gap between the
    reduced entropies of t |psi><psi| + (1-t) |phi><phi|, capped at h2(t)
    (``_f_value``).  Row k of ``stack`` holds the reduced operators of
    problem k.

    The grid stage eigendecomposes only the points that could be the grid
    minimum, coarse to fine (PRUNE_STRIDES):

    1. The first level computes S_A and S_B at every PRUNE_STRIDES[0]-th
       grid point and the last, in one stacked call with those at
       t = |alpha|^2 and at the plain minimizer.  ``best`` is always the
       least refined f among the grid points computed so far.
    2. Each S_X is concave in t, because entropy is concave and rho_X(t) is
       affine in t.  So between two computed points S_X lies above their
       chord L_X and below U_X, the lower of the secants of the two
       neighbouring intervals between computed points, extended
       (SECANT_REACH).  So cap = clip(max(U_A - L_B, U_B - L_A), 0, inf)
       >= Delta (``_delta_cap``), and LB, the refined f with Delta replaced
       by cap, is at most the refined f.  This needs nothing of E(psi) and
       E(phi), so it holds for any arguments.
    3. A point is in doubt while LB - allowance <= best, where
       allowance = pref ENTROPY_ROUNDING (1 + |m + h2(t)|) / N^2, with
       m = t E(psi) + (1-t) E(phi), absorbs rounding in the computed
       entropies (``_allowance``).  Each later level computes, in
       one stacked call, the points of its stride on either side of each
       point in doubt, once each, and bounds what is still in doubt from
       its row's nearest computed points.  After the last level, one call
       computes every point still in doubt.
    4. Every other point keeps the LB of the level that ruled it out as its
       grid value.  ``best`` only falls, so its refined f still exceeds the
       final ``best``, the least computed value: it cannot be the grid
       minimum, and the grid argmin, the golden-section path and the result
       are those of a full-grid evaluation, bit for bit.
    5. A search stepping alone gets LB - allowance as the floor of
       ``optimize.minimize_many``, its cap taken from every point its row
       has computed, grid points and its earlier golden-section points
       alike (``_cap_at``): a golden-section point whose floor lies above
       the value it is compared with is not eigendecomposed, and the path
       and the result keep every bit.
    """
    cols = (e_psi, e_phi, alpha_sq, gamma_norm_sq)
    plain = _minimize_f(*cols)
    f = _pointwise(_f_value, cols)

    def on_grid(rows, i, delta):
        return _f_value(_T_GRID[i], _H_GRID[i], *(c[rows] for c in cols), delta)

    n, size, k = len(e_psi), _T_GRID.size, _KNOTS.size
    all_rows = np.arange(n)
    plain_t = np.array([t for _, t in plain])
    (s_a, pin_a, plain_a), (s_b, pin_b, plain_b) = (
        np.split(s, [n * k, n * k + n])
        for s in stack.entropies(
            np.concatenate([np.repeat(all_rows, k), all_rows, all_rows]),
            np.concatenate([np.tile(_T_GRID[_KNOTS], n), alpha_sq, plain_t]),
        )
    )
    s_a, s_b = s_a.reshape(n, k), s_b.reshape(n, k)
    t, params = _T_GRID, [c[:, None] for c in cols]
    values = _f_value(t, _H_GRID, *params, _delta_cap(t, _KNOT_BELOW, t[_KNOTS], s_a, s_b))
    allowance = _allowance(t, _H_GRID, *params)
    values[:, _KNOTS] = on_grid(all_rows[:, None], _KNOTS, s_a - s_b)
    best = values[:, _KNOTS].min(axis=1)
    doubt = values - allowance <= best[:, None]
    doubt[:, _KNOTS] = False
    rows, i = np.nonzero(doubt)
    # the computed points as ascending keys row * size + index, and their entropies
    keys, s_a, s_b = (all_rows[:, None] * size + _KNOTS).ravel(), s_a.ravel(), s_b.ravel()
    for stride in PRUNE_STRIDES[1:]:
        if not rows.size:
            break
        at = rows * size + i
        mark = np.zeros(n * size, dtype=bool)  # the stride's points around each point in doubt
        mark[at - i % stride] = mark[at + -i % stride] = True
        mark[keys] = False
        new = np.flatnonzero(mark)
        new_rows, new_i = np.divmod(new, size)
        new_a, new_b = stack.entropies(new_rows, t[new_i])
        values[new_rows, new_i] = on_grid(new_rows, new_i, new_a - new_b)
        np.minimum.at(best, new_rows, values[new_rows, new_i])
        order = np.argsort(np.concatenate([keys, new]), kind="stable")
        keys, s_a, s_b = (np.concatenate(x)[order] for x in ((keys, new), (s_a, new_a), (s_b, new_b)))
        left = ~mark[at]
        rows, i, at = rows[left], i[left], at[left]
        j = np.searchsorted(keys, at) - 1
        values[rows, i] = on_grid(rows, i, _delta_cap(t[i], j, t[keys % size], s_a, s_b))
        left = values[rows, i] - allowance[rows, i] <= best[rows]
        rows, i = rows[left], i[left]
    if rows.size:
        last_a, last_b = stack.entropies(rows, t[i])
        values[rows, i] = on_grid(rows, i, last_a - last_b)
        keys, s_a, s_b = (np.concatenate(x) for x in ((keys, rows * size + i), (s_a, last_a), (s_b, last_b)))

    lone = {}  # row: its computed weights ascending, their S_A and S_B, and its params

    def computed(r):
        if r not in lone:
            mine = np.flatnonzero(keys // size == r)
            mine = mine[np.argsort(keys[mine])]
            params = tuple(c[r].item() for c in cols)
            lone[r] = (t[keys[mine] % size].tolist(), s_a[mine].tolist(), s_b[mine].tolist(), params)
        return lone[r]

    def floor(r, x):
        ts, sa, sb, params = computed(r)
        h = binary_entropy(x)
        return _f_value(x, h, *params, _cap_at(x, ts, sa, sb)) - _allowance(x, h, *params)

    def objective(rows, x):
        x_a, x_b = stack.entropies(rows, x)
        if type(rows) is int:  # a lone search's point tightens its later floors
            ts, sa, sb, _ = computed(rows)
            j = bisect.bisect_left(ts, x)
            if j == len(ts) or ts[j] != x:
                ts.insert(j, x)
                sa.insert(j, x_a)
                sb.insert(j, x_b)
        return f(rows, x, x_a - x_b)

    found = _golden(objective, values, floor=floor)
    # the pins take the entropies at hand
    _pin(lambda r, t: f(r, t, pin_a[r] - pin_b[r]), found, *_inside(alpha_sq))
    _pin(lambda r, t: f(r, t, plain_a[r] - plain_b[r]), found, all_rows.tolist(), plain_t.tolist())
    return list(zip(plain, found, zip(pin_a.tolist(), pin_b.tolist())))


def _delta_cap(
    t: np.ndarray, j: np.ndarray, knots: np.ndarray, s_a: np.ndarray, s_b: np.ndarray
) -> np.ndarray:
    """Upper bound on |S_A(t) - S_B(t)| from the side entropies s_a, s_b,
    concave in t, at the weights ``knots``, where t lies between knots[j]
    and knots[j + 1]: each side lies above the chord of that interval and
    below the secants of the two neighbouring intervals, extended into this
    one.  A neighbour counts where t lies within SECANT_REACH of its widths
    of it, which leaves out one the knots descend into, so ``knots`` may
    hold the ascending runs of several problems end to end, s_a and s_b
    with it, or one run that the rows of s_a and s_b share along their last
    axis."""
    ahead = np.roll(knots, -1) - knots  # each knot's interval; a run's last one descends
    nxt = (j + 1) % knots.shape[-1]
    here, there = t - knots[j], t - knots[j + 1]
    lo, hi = [], []
    for s in (s_a, s_b):
        slope = (np.roll(s, -1, axis=-1) - s) / ahead
        lo.append(s[..., j] + slope[..., j] * here)
        left = np.where(here <= SECANT_REACH * ahead[j - 1], s[..., j] + slope[..., j - 1] * here, np.inf)
        right = np.where(-there <= SECANT_REACH * ahead[nxt], s[..., j + 1] + slope[..., nxt] * there, np.inf)
        hi.append(np.minimum(left, right))
    return np.clip(np.maximum(hi[0] - lo[1], hi[1] - lo[0]), 0.0, None)


def _cap_at(t: float, ts: list, s_a: list, s_b: list) -> float:
    """``_delta_cap`` at the one weight t, in floats, from the side
    entropies s_a, s_b at the distinct ascending weights ``ts``,
    ts[0] <= t <= ts[-1]."""
    j = min(bisect.bisect_right(ts, t), len(ts) - 1) - 1
    lo, hi = [], []
    for s in (s_a, s_b):
        lo.append(s[j] + (s[j + 1] - s[j]) / (ts[j + 1] - ts[j]) * (t - ts[j]))
        up = math.inf
        if j > 0 and t - ts[j] <= SECANT_REACH * (ts[j] - ts[j - 1]):
            up = min(up, s[j] + (s[j] - s[j - 1]) / (ts[j] - ts[j - 1]) * (t - ts[j]))
        if j + 2 < len(ts) and ts[j + 1] - t <= SECANT_REACH * (ts[j + 2] - ts[j + 1]):
            up = min(up, s[j + 1] + (s[j + 2] - s[j + 1]) / (ts[j + 2] - ts[j + 1]) * (t - ts[j + 1]))
        hi.append(up)
    return max(hi[0] - lo[1], hi[1] - lo[0], 0.0)


def _allowance(t, h, e_psi, e_phi, alpha_sq, gamma_norm_sq):
    """pref ENTROPY_ROUNDING (1 + |bracket|) / N^2, with h = h2(t) and
    bracket = t E(psi) + (1-t) E(phi) + h, f's bracket before the gap: the
    rounding allowance of a lower bound on the refined f at t."""
    bracket = t * e_psi + (1.0 - t) * e_phi + h
    return _f_prefactor(t, alpha_sq) / gamma_norm_sq * ENTROPY_ROUNDING * (1.0 + abs(bracket))


def maximize_lower_scalar(
    e_psi: float, e_phi: float, alpha_sq: float, beta_sq: float
) -> tuple[float, float, str]:
    """Maximize max(L1, L2) over t; returns the unclamped (value, t_star, branch)."""
    _check_lower(e_psi, e_phi, alpha_sq, beta_sq)
    return _maximize_lower(*np.array([[e_psi], [e_phi], [alpha_sq], [beta_sq]]))[0]


def _maximize_lower(
    e_psi: np.ndarray, e_phi: np.ndarray, alpha_sq: np.ndarray, beta_sq: np.ndarray
) -> list[tuple[float, float, str]]:
    """``maximize_lower_scalar`` in lockstep for the problems of the arrays
    (e_psi, e_phi, alpha_sq, beta_sq): one golden-section call, whose rows
    search each problem's winning branch, found in closed form, and both
    branches of a problem it cannot call, L1 winning ties.

    Why one branch suffices.  Write a', b' for the weights and
    L1(t) = (1-t)/t [t b' E(phi) / (1 - t(1-a')) - E(psi)] - h2(t)/t.

    1. The bracket is at most 0 where t (b' E(phi) + (1-a') E(psi)) <= E(psi).
       That is linear in t and holds at t = 0; it holds on all of [0, 1]
       when it holds at t = 1, that is when b' E(phi) <= a' E(psi).  Then
       L1(t) <= -h2(t)/t on the whole window.  L2 mirrors this: it is at
       most -h2(t)/t when a' E(psi) <= b' E(phi).
    2. -h2(t)/t rises in t, since d/dt [h2(t)/t] = log2(1-t)/t^2 < 0.  So a
       branch held below it stays below -h2(b)/b, at the window's right edge
       b = 1 - T_EPS, which is the last grid point.
    3. A branch whose value at b exceeds -h2(b)/b therefore beats the other
       one: its bracket is positive at b, so by 1 the other branch is below
       -h2(t)/t everywhere, and the search returns at least its grid
       maximum.  At b the bracket of L1 is
       [(1-T_EPS)(b' E(phi) - a' E(psi)) - T_EPS E(psi)] / (T_EPS + (1-T_EPS) a'),
       so L1 alone is searched when b' E(phi) > a' E(psi) by more than
       about T_EPS E(psi), and L2 alone in the mirror case.
    4. Otherwise both brackets are at most 0 at b and both branches are
       vacuous near the edge; which one is larger there depends on the
       rounding and on terms of order T_EPS, not on the sign of
       b' E(phi) - a' E(psi).  Both are searched, as extra rows, and L1 wins
       ties.  This takes in every exact tie b' E(phi) = a' E(psi).

    A branch's value at b exceeds -h2(b)/b by A - B, its first two terms.
    That margin must exceed LOWER_EDGE_ROUNDING times the size of the terms
    of both branches at b, which covers the rounding of the computed L1 and
    L2, so each problem gets the result, bits included, of searching both
    branches and keeping the larger.
    """
    n = len(e_psi)
    # (branch, column, problem): the columns of the L1 formula for each branch
    table = np.array([_as_l1(b, e_psi, e_phi, alpha_sq, beta_sq) for b in _BRANCHES])
    e1, e2, w1, w2 = table.transpose(1, 0, 2)
    t, h = float(_T_GRID[-1]), float(_H_GRID[-1])
    first = (1.0 - t) * w2 / (1.0 - t * (1.0 - w1)) * e2
    second = (1.0 - t) / t * e1
    size = h / t + first.sum(axis=0) + second.sum(axis=0)
    clear = first - second > LOWER_EDGE_ROUNDING * size
    keep = np.concatenate([~clear[1], ~clear[0]])  # L1 rows, then L2 rows
    branch, rows = np.divmod(np.flatnonzero(keep), n)
    cols = tuple(table[branch, :, rows].T)
    grid = _l1(_T_GRID, _H_GRID, *(c[:, None] for c in cols))
    negated = _pointwise(lambda *args: -_l1(*args), cols)
    best: list = [None] * n
    for r, b, (v, t_star) in zip(rows.tolist(), branch.tolist(), _golden(negated, -grid)):
        if best[r] is None or -v > best[r][0]:  # an L2 row comes second: L1 wins ties
            best[r] = (-v, t_star, _BRANCHES[b])
    return best


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


def _golden(f, grid_values: np.ndarray, **floor) -> list[tuple[float, float]]:
    """(value, t_star) of each row's grid + golden-section search on the
    window, a search stepping alone taking any ``floor`` of
    ``optimize.minimize_many``."""
    results = optimize.minimize_many(f, _T_POINTS, grid_values, **floor)
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
    t = _check_t(t)
    check_numbers(0.0, MAX_ENTANGLEMENT, e_psi=e_psi, e_phi=e_phi)
    check_numbers(-H2_DOMAIN_SLACK, math.nextafter(1.0, 0.0), alpha_sq=alpha_sq)  # a < 1
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
    t = _check_t(t)
    _check_lower(e_psi, e_phi, alpha_sq, beta_sq)
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
    check_integer(2, MAX_SUBSPACE_GRID, grid_n=grid_n)
    psi_n = psi.normalized()
    phi_n = phi.normalized()
    c = states.inner_product(psi_n, phi_n)
    if abs(c) > 1.0 - PARALLEL_TOL:
        raise DegenerateSubspace(
            f"states are parallel within tolerance (|<psi|phi>| = {abs(c):.12f})"
        )
    e_psi, e_phi = states.entanglement_entropies([psi_n, phi_n])
    best = math.inf
    for prob in np.linspace(0.0, 1.0, grid_n):
        alpha = math.sqrt(prob)
        amp = math.sqrt(1.0 - prob)
        for phase in np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False):
            beta = amp * complex(math.cos(phase), math.sin(phase))
            n2 = 1.0 + 2.0 * (alpha * beta * c).real
            if n2 <= ZERO_NORM_SQ:
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
    each alone.  The plain f, refined f and lower searches each run for all
    problems in lockstep, and each step of the refined search takes one
    stacked eigendecomposition per distinct dimension.  It makes no SVD:
    each report's exact entanglement is its problem's ``exact_e``."""
    problems = list(problems)
    stack = states.PairStack((p.psi, p.phi) for p in problems)
    e_psi, e_phi, asq, bsq, n2 = (
        np.array([getattr(p, name) for p in problems], dtype=float)
        for name in ("e_psi", "e_phi", "alpha_sq", "beta_sq", "gamma_norm_sq")
    )
    upper = minimize_f_with_refinement(e_psi, e_phi, asq, n2, stack)
    lower = _maximize_lower(e_psi, e_phi, asq / n2, bsq / n2)
    found = zip(problems, upper, lower)
    return [_report(stack, row, *args) for row, args in enumerate(found)]


def _report(stack, row, p, upper, lower) -> BoundReport:
    """Problem ``p``'s report from what ``certify_many`` found for row ``row`` of ``stack``."""
    ((t3, t3_star), (t3r, _), (s_a, s_b)), (raw, low_t, branch) = upper, lower
    lps = lps_upper_value(p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)
    t2 = theorem2_upper_value(p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq, delta_s=s_a - s_b)
    low = max(0.0, raw)
    one_sided = states.classify_orthogonality(stack, row)
    upper_min = min(lps, t2, t3, t3r)
    return BoundReport(
        exact_e=p.exact_e,
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
        sane=(low - SANITY_SLACK <= p.exact_e) and (p.exact_e <= upper_min + SANITY_SLACK),
        s_a=s_a,
        s_b=s_b,
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
    """|c|^2 of a coefficient, rejecting values that are not real or complex
    numbers (bools included, as ``check_numbers`` does) or have no finite weight."""
    if not (isinstance(c, numbers.Complex) and not isinstance(c, bool)):
        raise DomainError(f"coefficient {name} = {c!r} is not a real or complex number")
    try:
        w = abs(c) ** 2
    except OverflowError:
        w = math.inf
    if not math.isfinite(w):
        raise DomainError(f"coefficient {name} = {c!r} is not finite or too large to square")
    return w


def _check_t(t) -> float:
    """``t`` as a float, after checking that it is a number in the window."""
    check_numbers(T_EPS, 1.0 - T_EPS, t=t)
    return float(t)


def _check_upper(e_psi, e_phi, alpha_sq, gamma_norm_sq, delta_s=0.0) -> None:
    """Raise DomainError unless E(psi), E(phi) lie in [0, MAX_ENTANGLEMENT],
    |alpha|^2 in [0, 1] (to h2's slack), N^2 > ZERO_NORM_SQ, at or below
    which a problem is fully destructive, and |delta_s| <= MAX_ENTANGLEMENT."""
    check_numbers(0.0, MAX_ENTANGLEMENT, e_psi=e_psi, e_phi=e_phi)
    check_numbers(-H2_DOMAIN_SLACK, 1.0 + H2_DOMAIN_SLACK, alpha_sq=alpha_sq)
    check_numbers(math.nextafter(ZERO_NORM_SQ, math.inf), gamma_norm_sq=gamma_norm_sq)
    check_numbers(-MAX_ENTANGLEMENT, MAX_ENTANGLEMENT, delta_s=delta_s)


def _check_lower(e_psi, e_phi, alpha_sq, beta_sq) -> None:
    """Raise DomainError unless E(psi), E(phi) lie in [0, MAX_ENTANGLEMENT] and
    the rescaled weights a' = |alpha|^2 / N^2, b' = |beta|^2 / N^2 in
    [0, 1 / ZERO_NORM_SQ), the range a problem's N^2 > ZERO_NORM_SQ gives them."""
    check_numbers(0.0, MAX_ENTANGLEMENT, e_psi=e_psi, e_phi=e_phi)
    check_numbers(0.0, math.nextafter(1.0 / ZERO_NORM_SQ, 0.0), alpha_sq=alpha_sq, beta_sq=beta_sq)
