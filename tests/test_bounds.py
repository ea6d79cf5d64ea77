import dataclasses
import math

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
    exact_one_sided,
    f_of_t,
    f_upper_value,
    lower_l,
    lps_upper,
    lps_upper_value,
    maximize_lower_scalar,
    minimize_f_scalar,
    simple_lower,
    subspace_lower,
    theorem2_upper,
    theorem3_optimal,
    theorem3_stationarity_residual,
    theorem4_optimal,
    theorem4_stationarity_residual,
)
from supent.errors import DegenerateSubspace, DomainError, NotOneSided, NotOrthogonal, ZeroState
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
        assert exact_one_sided(p) == pytest.approx(1.0, abs=1e-9)
        assert entanglement_entropy(p.gamma) == pytest.approx(1.0, abs=1e-9)


def test_exact_one_sided_biorthogonal_bell():
    p = biorthogonal_problem()
    assert exact_one_sided(p) == pytest.approx(1.0, abs=1e-12)
    assert entanglement_entropy(p.gamma) == pytest.approx(1.0, abs=1e-12)


def test_exact_one_sided_matches_direct_entropy():
    rng = np.random.default_rng(37)
    for seed in range(20):
        p = one_sided_problem(seed, rng)
        assert exact_one_sided(p) == pytest.approx(
            entanglement_entropy(p.gamma), abs=1e-9
        )


def test_exact_one_sided_rejects_overlapping_pair():
    with pytest.raises(NotOneSided):
        exact_one_sided(triple_problem())


# -- lps_upper / theorem2_upper --------------------------------------------------


def test_lps_upper_pure_limit():
    rng = np.random.default_rng(41)
    psi = random_state(rng, 3, 3)
    phi = random_state(rng, 3, 3)
    p = SuperpositionProblem.from_states(psi, phi, 1.0, 0.0)
    assert lps_upper(p) == pytest.approx(2.0 * p.e_psi, abs=1e-9)


def test_lps_upper_triple_pair():
    assert lps_upper(triple_problem()) == pytest.approx(10.0 / 3.0, abs=1e-9)


def test_lps_upper_family_closed_form():
    d = 4097
    e = 0.5 * math.log2(d - 1) + 1.0
    lps = lps_upper_value(e, e, 0.36, 1.0)
    assert lps == pytest.approx(math.log2(d - 1) + 2.0 + 2.0 * binary_entropy(0.36), abs=1e-9)


def test_theorem2_upper_triple_pair():
    assert theorem2_upper(triple_problem()) == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_theorem2_equals_lps_for_biorthogonal():
    p = biorthogonal_problem(0.6, 0.8)
    assert theorem2_upper(p) == pytest.approx(lps_upper(p), abs=1e-9)


def test_theorem2_block_pair_dominates_exact():
    p = block_problem(INV_SQRT2, INV_SQRT2)
    t2 = theorem2_upper(p)
    assert t2 == pytest.approx(2.0, abs=1e-9)
    assert t2 >= entanglement_entropy(p.gamma)


# -- f_of_t / theorem3_optimal ----------------------------------------------------


def test_f_at_alpha_sq_reproduces_lps_exactly():
    rng = np.random.default_rng(43)
    for _ in range(25):
        p = random_problem(rng)
        assert abs(f_of_t(p, p.alpha_sq) - lps_upper(p)) <= 1e-12


def test_f_dominates_static_bracket():
    rng = np.random.default_rng(47)
    p = random_problem(rng)
    floor = p.alpha_sq * p.e_psi + p.beta_sq * p.e_phi + binary_entropy(p.alpha_sq)
    for t in np.linspace(0.01, 0.99, 33):
        assert f_of_t(p, float(t)) * p.gamma_norm_sq >= floor - 1e-9


def test_f_family_value_direct_substitution():
    # Diagonal family at d = 2^16 + 1: prefactor 49/25 at t = 3/7, bracket
    # carries the full mean entanglement 9 plus h2(3/7).
    f37 = f_upper_value(3.0 / 7.0, 9.0, 9.0, 0.36, 1.0)
    assert f37 == pytest.approx((49.0 / 25.0) * (9.0 + binary_entropy(3.0 / 7.0)), abs=1e-9)


def test_f_domain_error():
    p = triple_problem()
    with pytest.raises(DomainError):
        f_of_t(p, 0.0)
    with pytest.raises(DomainError):
        f_of_t(p, 1.0)


def test_theorem3_optimal_pure_limit():
    rng = np.random.default_rng(53)
    psi = random_state(rng, 4, 4)
    phi = random_state(rng, 4, 4)
    p = SuperpositionProblem.from_states(psi, phi, 1.0, 0.0)
    value, _ = theorem3_optimal(p)
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
    p = SuperpositionProblem.from_states(psi, phi, INV_SQRT2, INV_SQRT2)
    _, t_star = theorem3_optimal(p)
    assert t_star == pytest.approx(0.5, abs=1e-6)


def test_theorem3_interior_stationarity_residual():
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(25):
        p = random_problem(rng)
        value, t_star = theorem3_optimal(p)
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
        plain, _ = theorem3_optimal(p, refined=False)
        refined, _ = theorem3_optimal(p, refined=True)
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


def test_refined_pruning_matches_exhaustive_grid(monkeypatch):
    seen = []
    minimize = optimize.minimize_scalar

    def spy(*args, **kwargs):
        seen.append(kwargs.get("grid_values"))
        return minimize(*args, **kwargs)

    monkeypatch.setattr(optimize, "minimize_scalar", spy)
    for p in _pruning_problems():
        seen.clear()
        result = theorem3_optimal(p, refined=True)
        (pruned,) = [v for v in seen if v is not None]
        reference, expected = _reference_refined(p)
        assert int(np.argmin(pruned)) == int(np.argmin(reference))
        # every grid value is exact, or lies above the grid minimum
        for got, want in zip(pruned, reference):
            assert got == want or got > min(reference)
        assert result == expected


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
    s_ab = states.mixture_entropy_array(t, abs(p.overlap) ** 2)
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
        theorem3_optimal(p, refined=True)
        # one stacked call per side for each batch of grid points
        assert 0 < sum(stacked) // 2 <= 64


# -- lower_l / theorem4_optimal ----------------------------------------------------


def test_lower_l_limit_is_e_phi():
    rng = np.random.default_rng(67)
    psi = random_state(rng, 3, 4)
    phi = random_state(rng, 3, 4)
    p = SuperpositionProblem.from_states(psi, phi, 0.0, 1.0)
    assert lower_l(p, 1.0 - 1e-9, "L1") == pytest.approx(p.e_phi, abs=1e-6)


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
        assert lower_l(p, 25.0 / 28.0, "L1") == pytest.approx(expected, abs=1e-9)


def test_lower_l_product_states_non_positive():
    psi = np.zeros((2, 2), dtype=complex)
    phi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0
    phi[1, 1] = 1.0
    p = SuperpositionProblem.from_states(BipartiteState(psi), BipartiteState(phi), 0.6, 0.8)
    for t in (0.1, 0.5, 0.9):
        assert lower_l(p, t, "L1") == pytest.approx(-binary_entropy(t) / t, abs=1e-12)
        assert lower_l(p, t, "L1") <= 0.0


def test_theorem4_optimal_pure_limit():
    rng = np.random.default_rng(71)
    psi = random_state(rng, 3, 3)
    phi = random_state(rng, 3, 3)
    p = SuperpositionProblem.from_states(psi, phi, 0.0, 1.0)
    value, _, _ = theorem4_optimal(p)
    assert value == pytest.approx(p.e_phi, abs=1e-6)


def test_theorem4_optimal_product_pair_clamps_to_zero():
    psi = np.zeros((2, 2), dtype=complex)
    phi = np.zeros((2, 2), dtype=complex)
    psi[0, 0] = 1.0
    phi[1, 1] = 1.0
    p = SuperpositionProblem.from_states(BipartiteState(psi), BipartiteState(phi), 0.6, 0.8)
    value, t_star, branch = theorem4_optimal(p)
    assert value == 0.0
    assert lower_l(p, t_star, branch) <= 0.0


def test_theorem4_interior_maximizer_in_high_entanglement_regime():
    # the interior maximizer near 25/28 emerges for large entanglement;
    # exercised through the scalar layer since dense states of entanglement
    # 100 are out of reach
    raw, t_star, branch = maximize_lower_scalar(100.0, 100.0, 0.36, 0.64)
    assert branch == "L1"
    assert t_star == pytest.approx(25.0 / 28.0, abs=0.01)
    assert raw > 0.0
    assert theorem4_stationarity_residual(t_star, 100.0, 100.0, 0.36, 0.64, "L1") <= 1e-6


def test_theorem4_bound_is_valid_lower_bound():
    rng = np.random.default_rng(73)
    for _ in range(25):
        p = random_problem(rng)
        value, _, _ = theorem4_optimal(p)
        assert value <= entanglement_entropy(p.gamma) + 1e-8


# -- simple_lower ---------------------------------------------------------------


def test_simple_lower_symmetric_coefficients_vacuous():
    p = block_problem(INV_SQRT2, INV_SQRT2)
    assert simple_lower(p) == pytest.approx(-2.0, abs=1e-9)
    value, _, _ = theorem4_optimal(p)
    assert simple_lower(p) <= value + 1e-9


def test_simple_lower_family_example():
    psi, phi = harness.diagonal_family_states(65, "example4")
    p = SuperpositionProblem.from_states(psi, phi, 0.6, 0.8)
    expected = -(25.0 / 16.0) * binary_entropy(9.0 / 25.0)
    assert simple_lower(p) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(-1.473, abs=5e-4)
    value, _, _ = theorem4_optimal(p)
    assert simple_lower(p) <= value + 1e-9


def test_simple_lower_boundary_coefficient():
    rng = np.random.default_rng(79)
    psi = BipartiteState(np.diag([1.0, 0.0]).astype(complex))  # product, E = 0
    phi = random_state(rng, 2, 2)
    phi = BipartiteState(phi.coeffs - psi.coeffs * states.inner_product(psi, phi))
    p = SuperpositionProblem.from_states(psi, phi, 0.0, 1.0)
    assert simple_lower(p) == pytest.approx(p.e_phi, abs=1e-12)


def test_simple_lower_requires_orthogonality():
    with pytest.raises(NotOrthogonal):
        simple_lower(triple_problem())


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
