import collections
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_state, random_sphere_pair
from supent import bounds, harness, optimize, states
from supent.bounds import (
    T_EPS,
    SuperpositionProblem,
    certify,
    certify_many,
    f_upper_value,
    lower_value,
    lps_upper_value,
    maximize_lower_scalar,
    minimize_f_scalar,
    minimize_f_with_refinement,
    simple_lower,
    subspace_lower,
    theorem3_stationarity_residual,
    theorem4_stationarity_residual,
)
from supent.errors import DegenerateSubspace, DomainError, ZeroState
from supent.qmath import binary_entropy
from supent.states import BipartiteState, entanglement_entropy, superpose

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def block_problem(alpha, beta):
    psi, phi = harness.bell_block_pair()
    return SuperpositionProblem.from_states(psi, phi, alpha, beta)


def triple_problem():
    psi, phi = harness.overlapping_triple_pair()
    return SuperpositionProblem.from_states(psi, phi, INV_SQRT2, INV_SQRT2)


def biorthogonal_problem(alpha=INV_SQRT2, beta=INV_SQRT2):
    psi = np.zeros((2, 2), dtype=complex)
    phi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0
    phi[1, 1] = 1.0
    return SuperpositionProblem.from_states(
        BipartiteState(psi), BipartiteState(phi), alpha, beta
    )


def one_sided_problem(seed, rng):
    psi, phi = harness.generate_one_sided_pair(2, 2, 3, seed)
    alpha, beta = random_sphere_pair(rng)
    return SuperpositionProblem.from_states(psi, phi, alpha, beta)


def random_problem(rng, max_dim=5):
    da, db = rng.integers(2, max_dim + 1), rng.integers(2, max_dim + 1)
    psi = random_state(rng, da, db)
    phi = random_state(rng, da, db)
    alpha, beta = random_sphere_pair(rng)
    return SuperpositionProblem.from_states(psi, phi, alpha, beta)


# -- problem construction ------------------------------------------------------


def test_problem_norm_identity():
    p = triple_problem()
    predicted = (
        p.alpha_sq
        + p.beta_sq
        + 2.0 * (p.alpha.conjugate() * p.beta * p.overlap).real
    )
    assert p.gamma_norm_sq == pytest.approx(predicted, abs=1e-10)
    assert p.alpha_sq + p.beta_sq == pytest.approx(1.0, abs=1e-12)


def test_problem_rejects_off_sphere_coefficients():
    psi, phi = harness.bell_block_pair()
    with pytest.raises(DomainError):
        SuperpositionProblem.from_states(psi, phi, 0.6, 0.9)


@pytest.mark.parametrize("alpha", [1e308, complex(0.6, math.nan), math.inf])
def test_problem_rejects_coefficients_without_finite_weight(alpha):
    psi, phi = harness.bell_block_pair()
    with pytest.raises(DomainError, match="alpha"):
        SuperpositionProblem.from_states(psi, phi, alpha, 0.8)


def test_problem_rejects_destructive_superposition():
    bell = BipartiteState(np.eye(2) / math.sqrt(2.0))
    with pytest.raises(ZeroState):
        SuperpositionProblem.from_states(bell, bell, INV_SQRT2, -INV_SQRT2)


# -- exact_one_sided -----------------------------------------------------------


def test_exact_one_sided_block_pair_any_alpha():
    for alpha in (0.3, 0.6, INV_SQRT2, 0.95):
        beta = math.sqrt(1.0 - alpha * alpha)
        p = block_problem(alpha, beta)
        report = certify(p.psi, p.phi, p.alpha, p.beta)
        assert report.exact_one_sided == pytest.approx(1.0, abs=1e-9)
        assert entanglement_entropy(p.gamma) == pytest.approx(1.0, abs=1e-9)


def test_exact_one_sided_biorthogonal_bell():
    p = biorthogonal_problem()
    report = certify(p.psi, p.phi, p.alpha, p.beta)
    assert report.exact_one_sided == pytest.approx(1.0, abs=1e-12)
    assert entanglement_entropy(p.gamma) == pytest.approx(1.0, abs=1e-12)


def test_exact_one_sided_matches_direct_entropy():
    rng = np.random.default_rng(37)
    for seed in range(20):
        p = one_sided_problem(seed, rng)
        assert certify(p.psi, p.phi, p.alpha, p.beta).exact_one_sided == pytest.approx(
            entanglement_entropy(p.gamma), abs=1e-9
        )


def test_exact_one_sided_absent_for_overlapping_pairs():
    rng = np.random.default_rng(38)
    pairs = [harness.overlapping_triple_pair()]
    pairs += [(random_state(rng, 3, 4), random_state(rng, 3, 4)) for _ in range(3)]
    for psi, phi in pairs:
        assert not states.classify_orthogonality(states.PairStack([(psi, phi)]), 0).one_sided
        assert certify(psi, phi, INV_SQRT2, INV_SQRT2).exact_one_sided is None


# -- lps_upper / theorem2_upper --------------------------------------------------


def test_lps_upper_pure_limit():
    rng = np.random.default_rng(41)
    psi = random_state(rng, 3, 3)
    phi = random_state(rng, 3, 3)
    p = SuperpositionProblem.from_states(psi, phi, 1.0, 0.0)
    assert certify(psi, phi, 1.0, 0.0).lps_upper == pytest.approx(2.0 * p.e_psi, abs=1e-9)


def test_lps_upper_triple_pair():
    psi, phi = harness.overlapping_triple_pair()
    report = certify(psi, phi, INV_SQRT2, INV_SQRT2)
    assert report.lps_upper == pytest.approx(10.0 / 3.0, abs=1e-9)


def test_lps_upper_family_closed_form():
    d = 4097
    e = 0.5 * math.log2(d - 1) + 1.0
    lps = lps_upper_value(e, e, 0.36, 1.0)
    assert lps == pytest.approx(math.log2(d - 1) + 2.0 + 2.0 * binary_entropy(0.36), abs=1e-9)


def test_theorem2_upper_triple_pair():
    psi, phi = harness.overlapping_triple_pair()
    report = certify(psi, phi, INV_SQRT2, INV_SQRT2)
    assert report.theorem2_upper == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_theorem2_equals_lps_for_biorthogonal():
    p = biorthogonal_problem(0.6, 0.8)
    report = certify(p.psi, p.phi, p.alpha, p.beta)
    assert report.theorem2_upper == pytest.approx(report.lps_upper, abs=1e-9)


def test_theorem2_block_pair_dominates_exact():
    p = block_problem(INV_SQRT2, INV_SQRT2)
    t2 = certify(p.psi, p.phi, p.alpha, p.beta).theorem2_upper
    assert t2 == pytest.approx(2.0, abs=1e-9)
    assert t2 >= entanglement_entropy(p.gamma)


# -- f(t) and its minimum ---------------------------------------------------------


def test_f_at_alpha_sq_reproduces_lps_exactly():
    rng = np.random.default_rng(43)
    for _ in range(25):
        p = random_problem(rng)
        args = (p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)
        assert abs(f_upper_value(p.alpha_sq, *args) - lps_upper_value(*args)) <= 1e-12


def test_f_dominates_static_bracket():
    rng = np.random.default_rng(47)
    p = random_problem(rng)
    floor = p.alpha_sq * p.e_psi + p.beta_sq * p.e_phi + binary_entropy(p.alpha_sq)
    for t in np.linspace(0.01, 0.99, 33):
        f = f_upper_value(float(t), p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)
        assert f * p.gamma_norm_sq >= floor - 1e-9


def test_f_family_value_direct_substitution():
    # Diagonal family at d = 2^16 + 1: prefactor 49/25 at t = 3/7, bracket
    # carries the full mean entanglement 9 plus h2(3/7).
    f37 = f_upper_value(3.0 / 7.0, 9.0, 9.0, 0.36, 1.0)
    assert f37 == pytest.approx((49.0 / 25.0) * (9.0 + binary_entropy(3.0 / 7.0)), abs=1e-9)


def test_f_domain_error():
    p = triple_problem()
    with pytest.raises(DomainError):
        f_upper_value(0.0, p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)
    with pytest.raises(DomainError):
        f_upper_value(1.0, p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)
    with pytest.raises(DomainError):
        lps_upper_value(1.0, 1.0, math.nan, 1.0)


def test_theorem3_optimal_pure_limit():
    rng = np.random.default_rng(53)
    psi = random_state(rng, 4, 4)
    phi = random_state(rng, 4, 4)
    p = SuperpositionProblem.from_states(psi, phi, 1.0, 0.0)
    value = certify(psi, phi, 1.0, 0.0).theorem3_upper
    assert value == pytest.approx(p.e_psi, abs=1e-6)
    assert value == pytest.approx(entanglement_entropy(p.gamma), abs=1e-6)


def test_theorem3_optimal_family_t_star():
    # family handled through the scalar layer; dense states at this size are
    # out of reach
    from supent.bounds import minimize_f_scalar

    d = 2**16 + 1
    e = 0.5 * math.log2(d - 1) + 1.0
    value, t_star = minimize_f_scalar(e, e, 0.36, 1.0)
    assert t_star == pytest.approx(3.0 / 7.0, abs=0.01)
    assert value <= f_upper_value(3.0 / 7.0, e, e, 0.36, 1.0) + 1e-12


def test_theorem3_optimal_symmetric_problem():
    # equal coefficients and equal entanglements: f(t) = f(1-t)
    psi, phi = harness.bell_block_pair()
    t_star = certify(psi, phi, INV_SQRT2, INV_SQRT2).t_star_upper
    assert t_star == pytest.approx(0.5, abs=1e-6)


def test_theorem3_interior_stationarity_residual():
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(25):
        p = random_problem(rng)
        t_star = certify(p.psi, p.phi, p.alpha, p.beta).t_star_upper
        if 0.01 < t_star < 0.99:
            checked += 1
            assert (
                theorem3_stationarity_residual(t_star, p.e_psi, p.e_phi, p.alpha_sq)
                <= 1e-6
            )
    assert checked > 10


def test_theorem3_refined_never_exceeds_plain():
    rng = np.random.default_rng(61)
    for _ in range(20):
        p = random_problem(rng)
        report = certify(p.psi, p.phi, p.alpha, p.beta)
        plain, refined = report.theorem3_upper, report.theorem3_refined_upper
        exact = entanglement_entropy(p.gamma)
        assert refined <= plain + 1e-12
        assert exact <= refined + 1e-8


# -- pruned grid of the refined search -------------------------------------------


def _side_densities(p):
    return [(states.reduced_density(p.psi, x), states.reduced_density(p.phi, x)) for x in "AB"]


def _mixture_side_entropies(p, ts):
    """Exhaustive (S_A, S_B) at every weight in ts, straight from eigvalsh."""
    t = ts[..., None, None]
    out = []
    for r1, r2 in _side_densities(p):
        w = np.linalg.eigvalsh(t * r1 + (1.0 - t) * r2)
        terms = np.where(w > 0.0, -w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
        out.append(np.maximum(0.0, terms.sum(axis=-1)))
    return out


def _reference_refined(p):
    """The refined search with Delta evaluated on the whole grid.

    Returns (grid values, (value, t_star)).  Points off the grid take Delta
    from one eigendecomposition per side, summed as on the grid.
    """
    ts = optimize.grid_points(T_EPS, 1.0 - T_EPS, optimize.DEFAULT_GRID_N)
    s_a, s_b = _mixture_side_entropies(p, np.asarray(ts))
    on_grid = dict(zip(ts, np.abs(s_a - s_b).tolist()))

    def delta(t):
        if t in on_grid:
            return on_grid[t]
        s_a, s_b = _mixture_side_entropies(p, np.asarray(t))
        return abs(float(s_a) - float(s_b))

    def f(t):
        return f_upper_value(t, p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq, delta_s=delta(t))

    grid_values = [f(t) for t in ts]
    res = optimize.minimize_scalar(f, T_EPS, 1.0 - T_EPS)
    value, t_star = res.value, res.x_star
    # the t = |alpha|^2 pin, then the plain minimizer
    plain_t = minimize_f_scalar(p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)[1]
    pins = [p.alpha_sq] if T_EPS < p.alpha_sq < 1.0 - T_EPS else []
    for t in pins + [plain_t]:
        if f(t) < value:
            value, t_star = f(t), t
    return grid_values, (value, t_star)


def _pruning_problems():
    rng = np.random.default_rng(83)
    for d in (2, 3, 4, 6, 8, 12, 16, 24, 32):
        alpha, beta = random_sphere_pair(rng)
        yield SuperpositionProblem.from_states(
            random_state(rng, d, d), random_state(rng, d, d), alpha, beta
        )
    for seed in range(4):
        alpha, beta = random_sphere_pair(rng)
        psi, phi = harness.generate_one_sided_pair(2, 3, 4, 500 + seed)
        yield SuperpositionProblem.from_states(psi, phi, alpha, beta)
    # a rank-deficient 8-dimensional A side, where summing the filtered
    # eigenvalues instead of all of them moves the entropy by an ulp
    for d1 in range(2, 6):
        for seed in range(3):
            alpha, beta = random_sphere_pair(rng)
            psi, phi = harness.generate_one_sided_pair(d1, 3, 8, 600 + 10 * d1 + seed)
            yield SuperpositionProblem.from_states(psi, phi, alpha, beta)
    for alpha in (0.3, INV_SQRT2, 0.9):
        yield block_problem(alpha, math.sqrt(1.0 - alpha * alpha))
    for _ in range(3):
        u, v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        product = BipartiteState(np.outer(u, v))
        yield SuperpositionProblem.from_states(product, random_state(rng, 3, 3), 0.6, 0.8)
    for alpha_sq in (1e-6, 1.0 - 1e-6):
        yield SuperpositionProblem.from_states(
            random_state(rng, 5, 5),
            random_state(rng, 5, 5),
            math.sqrt(alpha_sq),
            math.sqrt(1.0 - alpha_sq),
        )


def _refine(problems):
    """``minimize_f_with_refinement`` on the problems, as ``certify_many`` calls it."""
    stack = states.PairStack((p.psi, p.phi) for p in problems)
    e_psi, e_phi, alpha_sq, gamma_norm_sq = (
        np.array([getattr(p, name) for p in problems])
        for name in ("e_psi", "e_phi", "alpha_sq", "gamma_norm_sq")
    )
    overlap_sq = np.array([abs(p.overlap) ** 2 for p in problems])
    pinned = stack.entropies(np.arange(len(problems)), alpha_sq)
    return minimize_f_with_refinement(
        e_psi, e_phi, alpha_sq, gamma_norm_sq, overlap_sq, stack, pinned
    )


def test_refined_pruning_matches_exhaustive_grid(monkeypatch):
    seen = []
    minimize = optimize.minimize_many

    def spy(f, a, b, grid_values):
        seen.append(grid_values)
        return minimize(f, a, b, grid_values)

    monkeypatch.setattr(optimize, "minimize_many", spy)
    problems = list(_pruning_problems())
    results = _refine(problems)
    # the plain f search runs first, then the refined one, each given the
    # grid values of every problem
    _, pruned_rows = seen
    assert len(pruned_rows) == len(results) == len(problems)
    for p, pruned, (_, result) in zip(problems, pruned_rows, results):
        reference, expected = _reference_refined(p)
        assert int(np.argmin(pruned)) == int(np.argmin(reference))
        # every grid value is exact, or lies above the grid minimum
        for got, want in zip(pruned, reference):
            assert got == want or got > min(reference)
        assert result == expected


@settings(max_examples=60, deadline=None)
@given(
    e_psi=st.floats(0.0, 20.0),
    e_phi=st.floats(0.0, 20.0),
    alpha_sq=st.floats(1e-6, 1.0 - 1e-6),
    gamma_norm_sq=st.floats(1e-3, 2.0),
    seed=st.integers(0, 2**32 - 1),
    off_grid=st.lists(st.floats(T_EPS, 1.0 - T_EPS), max_size=32),
)
def test_array_bounds_equal_scalar_bounds(e_psi, e_phi, alpha_sq, gamma_norm_sq, seed, off_grid):
    # The searches take their grid values from the array forms, a lone
    # search its golden-section points from the float forms and a lockstep
    # step from the array forms, off the grid; the two must agree bit for bit
    # at every weight, drawn or uniform.
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(T_EPS, 1.0 - T_EPS, 64).tolist()
    ts = optimize.grid_points(T_EPS, 1.0 - T_EPS, optimize.DEFAULT_GRID_N) + (*off_grid, *uniform)
    grid = np.asarray(ts)
    deltas = rng.uniform(-1.0, 1.0, grid.size)
    args = (e_psi, e_phi, alpha_sq, gamma_norm_sq)
    assert f_upper_value(grid, *args).tolist() == [f_upper_value(t, *args) for t in ts]
    assert f_upper_value(grid, *args, delta_s=deltas).tolist() == [
        f_upper_value(t, *args, delta_s=d) for t, d in zip(ts, deltas.tolist())
    ]
    asq, bsq = alpha_sq / gamma_norm_sq, (1.0 - alpha_sq) / gamma_norm_sq
    for branch in ("L1", "L2"):
        assert bounds.lower_value(grid, e_psi, e_phi, asq, bsq, branch).tolist() == [
            bounds.lower_value(t, e_psi, e_phi, asq, bsq, branch) for t in ts
        ]


def test_array_weights_are_checked_entrywise():
    with pytest.raises(DomainError, match="t=0.0 "):
        f_upper_value(np.array([0.5, 0.0, 1.0]), 1.0, 1.0, 0.5, 1.0)
    with pytest.raises(DomainError, match="t=1.0 "):
        bounds.lower_value(np.array([0.5, 1.0]), 1.0, 1.0, 0.5, 0.5, "L1")


def test_weights_are_coerced_to_a_float_or_a_float_array():
    upper, low = (1.0, 2.0, 0.3, 0.9), (1.0, 2.0, 0.3, 0.7)
    ts = [0.2, 0.5, 0.7]
    # a sequence of weights is an array of them, with the same bits
    assert f_upper_value(ts, *upper).tolist() == f_upper_value(np.array(ts), *upper).tolist()
    for branch in ("L1", "L2"):
        as_array = lower_value(np.array(ts), *low, branch)
        assert lower_value(ts, *low, branch).tolist() == as_array.tolist()
    # any real scalar is a float
    for t in (np.float32(0.5), np.float64(0.5), np.int64(1) / 2, Fraction(1, 2)):
        assert type(f_upper_value(t, *upper)) is float
        assert f_upper_value(t, *upper) == f_upper_value(0.5, *upper)
        assert type(lower_value(t, *low, "L1")) is float
        assert lower_value(t, *low, "L1") == lower_value(0.5, *low, "L1")
    for t in ("0.5", ["0.5"], None, [0.5, None], 0.5j, [[0.5], [0.5, 0.6]]):
        with pytest.raises(DomainError):
            f_upper_value(t, *upper)
        with pytest.raises(DomainError):
            lower_value(t, *low, "L2")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["haar", "one_sided", "product", "block"]),
    dim=st.integers(2, 6),
    alpha_sq=st.floats(1e-6, 1.0 - 1e-6),
)
def test_delta_cap_bounds_entropy_gap(seed, kind, dim, alpha_sq):
    rng = np.random.default_rng(seed)
    if kind == "haar":
        psi, phi = random_state(rng, dim, dim + 1), random_state(rng, dim, dim + 1)
    elif kind == "one_sided":
        psi, phi = harness.generate_one_sided_pair(dim // 2 + 1, dim, dim + 1, seed)
    elif kind == "product":
        u, v = rng.standard_normal((2, dim)) + 1j * rng.standard_normal((2, dim))
        psi, phi = BipartiteState(np.outer(u, v)), random_state(rng, dim, dim)
    else:
        psi, phi = harness.bell_block_pair()
    p = SuperpositionProblem.from_states(
        psi, phi, math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
    )
    t = np.asarray(optimize.grid_points(T_EPS, 1.0 - T_EPS, optimize.DEFAULT_GRID_N))
    s_a, s_b = _mixture_side_entropies(p, t)
    knots = np.arange(0, t.size, bounds.PRUNE_STRIDE)
    m = t * p.e_psi + (1.0 - t) * p.e_phi
    s_ab = states.mixture_entropy(t, abs(p.overlap) ** 2)
    cap = bounds._delta_cap(t, t[knots], s_a[knots], s_b[knots], m, s_ab)
    assert np.all(cap >= np.abs(s_a - s_b) - bounds.ENTROPY_ROUNDING)


@pytest.mark.parametrize("d", [4, 16, 32])
def test_refined_search_eigendecomposes_few_grid_points(d, monkeypatch):
    stacked = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        if a.ndim == 3:
            stacked.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rng = np.random.default_rng(d)
    for _ in range(3):
        alpha, beta = random_sphere_pair(rng)
        p = SuperpositionProblem.from_states(
            random_state(rng, d, d), random_state(rng, d, d), alpha, beta
        )
        stacked.clear()
        _refine([p])
        # one stacked call per side for each batch of grid points
        assert 0 < sum(stacked) // 2 <= 64


# -- L1/L2 and their maximum -------------------------------------------------------


def test_lower_l_limit_is_e_phi():
    rng = np.random.default_rng(67)
    psi = random_state(rng, 3, 4)
    phi = random_state(rng, 3, 4)
    p = SuperpositionProblem.from_states(psi, phi, 0.0, 1.0)
    asq, bsq = p.alpha_sq / p.gamma_norm_sq, p.beta_sq / p.gamma_norm_sq
    value = lower_value(1.0 - 1e-9, p.e_psi, p.e_phi, asq, bsq, "L1")
    assert value == pytest.approx(p.e_phi, abs=1e-6)


def test_lower_l_family_reference_point():
    # closed form at t = 25/28 holds at any family dimension
    for d in (17, 257):
        psi, phi = harness.diagonal_family_states(d, "example4")
        p = SuperpositionProblem.from_states(psi, phi, 0.6, 0.8)
        expected = (
            (1.0 / 50.0) * math.log2(d - 1)
            + 1.0 / 25.0
            - (28.0 / 25.0) * binary_entropy(25.0 / 28.0)
        )
        asq, bsq = p.alpha_sq / p.gamma_norm_sq, p.beta_sq / p.gamma_norm_sq
        value = lower_value(25.0 / 28.0, p.e_psi, p.e_phi, asq, bsq, "L1")
        assert value == pytest.approx(expected, abs=1e-9)


def test_lower_l_product_states_non_positive():
    psi = np.zeros((2, 2), dtype=complex)
    phi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0
    phi[1, 1] = 1.0
    p = SuperpositionProblem.from_states(BipartiteState(psi), BipartiteState(phi), 0.6, 0.8)
    asq, bsq = p.alpha_sq / p.gamma_norm_sq, p.beta_sq / p.gamma_norm_sq
    for t in (0.1, 0.5, 0.9):
        value = lower_value(t, p.e_psi, p.e_phi, asq, bsq, "L1")
        assert value == pytest.approx(-binary_entropy(t) / t, abs=1e-12)
        assert value <= 0.0


def test_theorem4_optimal_pure_limit():
    rng = np.random.default_rng(71)
    psi = random_state(rng, 3, 3)
    phi = random_state(rng, 3, 3)
    p = SuperpositionProblem.from_states(psi, phi, 0.0, 1.0)
    value = certify(psi, phi, 0.0, 1.0).lower_l
    assert value == pytest.approx(p.e_phi, abs=1e-6)


def test_theorem4_optimal_product_pair_clamps_to_zero():
    psi = np.zeros((2, 2), dtype=complex)
    phi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0
    phi[1, 1] = 1.0
    report = certify(BipartiteState(psi), BipartiteState(phi), 0.6, 0.8)
    assert report.lower_l == 0.0
    assert report.lower_raw <= 0.0


def test_theorem4_interior_maximizer_in_high_entanglement_regime():
    # the interior maximizer near 25/28 emerges for large entanglement;
    # exercised through the scalar layer since dense states of entanglement
    # 100 are out of reach
    raw, t_star, branch = maximize_lower_scalar(100.0, 100.0, 0.36, 0.64)
    assert branch == "L1"
    assert t_star == pytest.approx(25.0 / 28.0, abs=0.01)
    assert raw > 0.0
    assert theorem4_stationarity_residual(t_star, 100.0, 100.0, 0.36, 0.64, "L1") <= 1e-6


@pytest.mark.parametrize("branch", ["l1", "L3", ""])
def test_unknown_lower_branch_is_rejected(branch):
    with pytest.raises(ValueError, match="branch"):
        theorem4_stationarity_residual(0.5, 1.0, 2.0, 0.3, 0.7, branch)
    with pytest.raises(ValueError, match="branch"):
        lower_value(0.5, 1.0, 2.0, 0.3, 0.7, branch)


def test_l2_is_l1_with_states_and_weights_exchanged():
    for t, e_psi, e_phi, asq, bsq in ((0.3, 0.4, 2.5, 0.2, 0.9), (0.9, 3.0, 1.0, 0.6, 0.5)):
        l2 = theorem4_stationarity_residual(t, e_psi, e_phi, asq, bsq, "L2")
        assert l2 == theorem4_stationarity_residual(t, e_phi, e_psi, bsq, asq, "L1")
        l2 = lower_value(t, e_psi, e_phi, asq, bsq, "L2")
        assert l2 == lower_value(t, e_phi, e_psi, bsq, asq, "L1")


def test_theorem4_bound_is_valid_lower_bound():
    rng = np.random.default_rng(73)
    for _ in range(25):
        p = random_problem(rng)
        value = certify(p.psi, p.phi, p.alpha, p.beta).lower_l
        assert value <= entanglement_entropy(p.gamma) + 1e-8


# -- simple_lower ---------------------------------------------------------------


def test_simple_lower_symmetric_coefficients_vacuous():
    p = block_problem(INV_SQRT2, INV_SQRT2)
    assert simple_lower(p) == pytest.approx(-2.0, abs=1e-9)
    value = certify(p.psi, p.phi, p.alpha, p.beta).lower_l
    assert simple_lower(p) <= value + 1e-9


def test_simple_lower_family_example():
    psi, phi = harness.diagonal_family_states(65, "example4")
    p = SuperpositionProblem.from_states(psi, phi, 0.6, 0.8)
    expected = -(25.0 / 16.0) * binary_entropy(9.0 / 25.0)
    assert simple_lower(p) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(-1.473, abs=5e-4)
    value = certify(p.psi, p.phi, p.alpha, p.beta).lower_l
    assert simple_lower(p) <= value + 1e-9


def test_simple_lower_boundary_coefficient():
    rng = np.random.default_rng(79)
    psi = BipartiteState(np.diag([1.0, 0.0]).astype(complex))  # product, E = 0
    phi = random_state(rng, 2, 2)
    phi = BipartiteState(phi.coeffs - psi.coeffs * states.inner_product(psi, phi))
    p = SuperpositionProblem.from_states(psi, phi, 0.0, 1.0)
    assert simple_lower(p) == pytest.approx(p.e_phi, abs=1e-12)


def test_simple_lower_requires_orthogonality():
    assert simple_lower(triple_problem()) is None


# -- subspace_lower ---------------------------------------------------------------


def test_subspace_lower_biorthogonal_products_zero():
    psi = np.zeros((2, 2), dtype=complex)
    phi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0
    phi[1, 1] = 1.0
    assert subspace_lower(BipartiteState(psi), BipartiteState(phi), 8) == 0.0


def test_subspace_lower_block_pair_bounded_by_exact_scan():
    psi, phi = harness.bell_block_pair()
    grid_n = 8
    value = subspace_lower(psi, phi, grid_n)
    exact_min = _exact_subspace_scan(psi, phi, grid_n)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert exact_min == pytest.approx(1.0, abs=1e-9)
    assert value <= exact_min + 1e-6


def test_subspace_lower_random_pairs_below_exact_scan():
    rng = np.random.default_rng(83)
    for _ in range(6):
        psi = random_state(rng, 2, 2)
        phi = random_state(rng, 2, 2)
        if abs(states.inner_product(psi, phi)) > 0.99:
            continue
        grid_n = 6
        value = subspace_lower(psi, phi, grid_n)
        assert value <= _exact_subspace_scan(psi, phi, grid_n) + 1e-6


def test_subspace_lower_takes_an_integer_grid_up_to_the_cap(monkeypatch):
    psi, phi = harness.bell_block_pair()
    assert subspace_lower(psi, phi, np.int64(3)) == subspace_lower(psi, phi, 3)

    def refuse(*args, **kwargs):
        raise AssertionError(f"np.linspace called with {args!r}")

    monkeypatch.setattr(bounds.np, "linspace", refuse)
    for grid_n in (2.5, 8.0, "8", None, True, 1, 0, -4, bounds.MAX_SUBSPACE_GRID + 1, 10**12):
        with pytest.raises(DomainError, match="grid_n"):
            subspace_lower(psi, phi, grid_n)


def test_subspace_lower_rejects_parallel_states():
    bell = BipartiteState(np.eye(2) / math.sqrt(2.0))
    with pytest.raises(DegenerateSubspace):
        subspace_lower(bell, bell, 8)


def _exact_subspace_scan(psi, phi, grid_n):
    psi = psi.normalized()
    phi = phi.normalized()
    best = math.inf
    for prob in np.linspace(0.0, 1.0, grid_n):
        for phase in np.linspace(0.0, 2.0 * math.pi, grid_n, endpoint=False):
            alpha = math.sqrt(prob)
            beta = math.sqrt(1.0 - prob) * complex(math.cos(phase), math.sin(phase))
            gamma = superpose(alpha, psi, beta, phi)
            if states.norm_squared(gamma) <= 1e-12:
                continue
            best = min(best, entanglement_entropy(gamma))
    return best


# -- certify ---------------------------------------------------------------------


def test_certify_triple_pair():
    psi, phi = harness.overlapping_triple_pair()
    report = certify(psi, phi, INV_SQRT2, INV_SQRT2)
    assert report.exact_e == pytest.approx(math.log2(3.0), abs=1e-9)
    assert report.sane
    assert report.exact_one_sided is None
    assert report.simple_lower is None
    assert report.theorem2_upper <= report.lps_upper + 1e-9
    assert report.theorem3_upper <= report.lps_upper + 1e-9


def test_certify_block_pair():
    psi, phi = harness.bell_block_pair()
    report = certify(psi, phi, 0.6, 0.8)
    assert report.exact_e == pytest.approx(1.0, abs=1e-9)
    assert report.exact_one_sided == pytest.approx(1.0, abs=1e-9)
    assert report.simple_lower is not None
    assert report.sane


# alpha and beta whose rescaled weights both round to just below 1/2
ROUNDED_HALF = (
    complex(-0.2014404972018415, -0.6778065550635186),
    complex(-0.7060079873150796, -0.03940459170338132),
)


def test_certify_weights_rounded_below_half():
    psi, phi = harness.bell_block_pair()
    p = SuperpositionProblem.from_states(psi, phi, *ROUNDED_HALF)
    assert max(p.alpha_sq, p.beta_sq) < 0.5
    report = certify(psi, phi, *ROUNDED_HALF)
    assert report.simple_lower == pytest.approx(-2.0, abs=1e-9)
    assert report.exact_one_sided == pytest.approx(1.0, abs=1e-9)
    assert report.sane


@pytest.mark.parametrize("kind", ["haar", "one_sided"])
def test_certify_derives_each_pair_quantity_once(kind, monkeypatch):
    if kind == "haar":
        rng = np.random.default_rng(97)
        psi, phi = random_state(rng, 4, 5), random_state(rng, 4, 5)
    else:
        psi, phi = harness.generate_one_sided_pair(2, 3, 4, seed=5)
    calls = collections.Counter()

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(states, "reduced_density")
    counted(states, "inner_product")
    counted(BipartiteState, "normalized")
    report = certify(psi, phi, 0.6, 0.8)
    assert (report.exact_one_sided is not None) == (kind == "one_sided")
    assert calls == {"reduced_density": 4, "inner_product": 1, "normalized": 2}


def _hexed(report):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


def _mixed_draws():
    """(psi, phi, alpha, beta) as the audit draws them, with mixed dimensions
    on either side, and one-sided pairs with weights at and past the window."""
    rng = np.random.default_rng(101)
    for _ in range(40):
        dim_a, dim_b = rng.integers(2, 7, 2)
        yield (
            random_state(rng, dim_a, dim_b),
            random_state(rng, dim_a, dim_b),
            *random_sphere_pair(rng),
        )
    for seed, alpha_sq in enumerate((1e-6, 1.0 - 1e-6, 1e-10, 1.0)):
        psi, phi = harness.generate_one_sided_pair(2, 2, 3, 700 + seed)
        yield psi, phi, math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)


def _stationary_at_alpha_sq():
    """Problems with E(psi) set so that f is stationary at t = |alpha|^2
    (Theorem 3's condition), which makes |alpha|^2 the plain minimizer of
    some of them."""
    rng = np.random.default_rng(103)
    psi, phi = random_state(rng, 3, 4), random_state(rng, 3, 4)
    for x in np.linspace(0.3, 0.9, 13).tolist():
        p = SuperpositionProblem.from_states(psi, phi, x, math.sqrt(1.0 - x * x))
        a = p.alpha_sq
        for e_phi in (0.5, 1.0, 2.0):
            e_psi = (1.0 - a) / a * (e_phi - math.log2(1.0 - a)) + math.log2(a)
            if e_psi >= 0.0:
                yield dataclasses.replace(p, e_psi=e_psi, e_phi=e_phi)


def test_certify_many_equals_certify_bit_for_bit():
    draws = list(_mixed_draws())
    built = [SuperpositionProblem.from_states(*draw) for draw in draws]
    problems = list(_pruning_problems()) + list(_stationary_at_alpha_sq())
    at_alpha_sq = [
        p
        for p in problems
        if minimize_f_scalar(p.e_psi, p.e_phi, p.alpha_sq, p.gamma_norm_sq)[1] == p.alpha_sq
    ]
    assert at_alpha_sq
    for edge in (1e-6, 1.0 - 1e-6):
        assert any(abs(p.alpha_sq - edge) < 1e-12 for p in problems + built)
    reports = certify_many(built + problems)
    alone = [certify(*draw) for draw in draws] + [certify_many([p])[0] for p in problems]
    assert [_hexed(r) for r in reports] == [_hexed(r) for r in alone]
    assert certify_many([]) == []


def test_certify_eigendecomposes_the_audit_in_few_calls(monkeypatch):
    calls, matrices = [], []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        a = np.asarray(a)
        calls.append(1)
        matrices.append(int(np.prod(a.shape[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    harness.random_audit(64, 6, seed=7)
    # trial by trial this is 5,632 calls for the same 9,174 matrices
    assert sum(matrices) == 9174
    assert len(calls) <= 1000
    # a single problem makes the calls it made before the batch search: one
    # per side for t = |alpha|^2, the knots and the unpruned grid points,
    # and one per side at each golden-section point
    calls.clear()
    certify(harness.haar_random_state(4, 4, 1), harness.haar_random_state(4, 4, 2), 0.6, 0.8)
    assert len(calls) <= 88


def test_certify_haar_random():
    rng = np.random.default_rng(89)
    psi = random_state(rng, 4, 4)
    phi = random_state(rng, 4, 4)
    alpha, beta = random_sphere_pair(rng)
    report = certify(psi, phi, alpha, beta)
    assert report.sane


def test_certify_ordering_chain_random_problems():
    rng = np.random.default_rng(97)
    for _ in range(40):
        p = random_problem(rng)
        report = certify(p.psi, p.phi, p.alpha, p.beta)
        exact = report.exact_e
        assert report.lower_l - 1e-8 <= exact
        assert exact <= report.theorem3_refined_upper + 1e-8
        assert report.theorem3_refined_upper <= report.theorem3_upper + 1e-8
        assert report.theorem3_upper <= report.lps_upper + 1e-9
        assert report.theorem2_upper <= report.lps_upper + 1e-9
        assert exact <= report.theorem2_upper + 1e-8


def test_phase_invariance_for_orthogonal_pairs():
    rng = np.random.default_rng(101)
    for seed in range(5):
        psi, phi = harness.generate_one_sided_pair(2, 2, 3, seed)
        alpha = 0.6
        beta = 0.8
        base = certify(psi, phi, alpha, beta)
        for theta in (0.7, 2.1, 4.4):
            rotated = certify(psi, phi, alpha, beta * complex(math.cos(theta), math.sin(theta)))
            for field in (
                "exact_e",
                "lps_upper",
                "theorem2_upper",
                "theorem3_upper",
                "theorem3_refined_upper",
                "lower_l",
            ):
                assert getattr(rotated, field) == pytest.approx(
                    getattr(base, field), abs=1e-9
                ), field


def test_certify_propagates_zero_state():
    bell = BipartiteState(np.eye(2) / math.sqrt(2.0))
    with pytest.raises(ZeroState):
        certify(bell, bell, INV_SQRT2, -INV_SQRT2)


def test_report_is_serializable():
    psi, phi = harness.bell_block_pair()
    report = certify(psi, phi, 0.6, 0.8)
    as_dict = dataclasses.asdict(report)
    assert set(as_dict) >= {
        "exact_e",
        "lps_upper",
        "theorem2_upper",
        "theorem3_upper",
        "t_star_upper",
        "theorem3_refined_upper",
        "lower_l",
        "t_star_lower",
        "branch",
        "simple_lower",
        "exact_one_sided",
        "sane",
    }
