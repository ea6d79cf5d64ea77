import collections
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    diagonal_family_states,
    entanglement_entropy,
    random_sphere_pair,
    random_state,
    random_unitary,
    trace_overlaps,
)
from supent import bounds, harness, optimize, qmath, states
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
from supent.errors import DegenerateSubspace, DomainError, SupentError, ZeroState
from supent.qmath import binary_entropy
from supent.states import BipartiteState, superpose

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


@pytest.mark.parametrize("alpha", ["0.6", None, [0.6], np.array([0.6, 0.1]), True])
def test_certify_rejects_coefficients_that_are_not_numbers(alpha):
    psi, phi = harness.bell_block_pair()
    with pytest.raises(DomainError, match="coefficient alpha"):
        certify(psi, phi, alpha, 0.8)


def test_problem_rejects_destructive_superposition():
    bell = BipartiteState(np.eye(2) / math.sqrt(2.0))
    with pytest.raises(ZeroState):
        SuperpositionProblem.from_states(bell, bell, INV_SQRT2, -INV_SQRT2)


def test_problems_built_together_equal_problems_built_alone():
    bell = BipartiteState(np.eye(2) / math.sqrt(2.0))
    draws = list(_mixed_draws())
    draws.insert(3, (bell, bell, INV_SQRT2, -INV_SQRT2))  # fully destructive
    together = SuperpositionProblem.from_states_many(draws)
    assert together[3] is None
    del together[3], draws[3]
    alone = [SuperpositionProblem.from_states(*draw) for draw in draws]
    for p, q in zip(together, alone, strict=True):
        for f in dataclasses.fields(p):
            x, y = getattr(p, f.name), getattr(q, f.name)
            same = np.array_equal(x.coeffs, y.coeffs) if isinstance(x, BipartiteState) else x == y
            assert same and repr(x) == repr(y), f.name
    with pytest.raises(DomainError):
        SuperpositionProblem.from_states_many([draws[0], (bell, bell, 1.0, 1.0)])


def _shape_batch():
    """(psi, phi, alpha, beta) of Haar pairs of two shapes, a one-sided pair
    sharing the first shape and a product pair of a third shape."""
    rng = np.random.default_rng(107)
    for dim_a, dim_b in ((3, 4), (5, 2), (3, 4)):
        yield random_state(rng, dim_a, dim_b), random_state(rng, dim_a, dim_b), *random_sphere_pair(rng)
    yield (*harness.generate_one_sided_pair(2, 2, 3, 11), *random_sphere_pair(rng))
    product = [BipartiteState(np.outer(*(rng.standard_normal(n) for n in (2, 3)))) for _ in range(2)]
    yield (*product, *random_sphere_pair(rng))


def test_problems_carry_the_bits_of_their_superpositions_entanglement():
    problems = SuperpositionProblem.from_states_many(_shape_batch())
    assert len(problems) == 5
    for p in problems:
        assert p.exact_e.hex() == entanglement_entropy(p.gamma).hex()


def test_a_batch_takes_one_svd_per_coefficient_shape(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a)[-2:])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    certify_many(SuperpositionProblem.from_states_many(_shape_batch()))
    # E(psi), E(phi) and E(gamma) of every problem of a shape share one call
    assert sorted(shapes) == [(2, 3), (3, 4), (5, 2)]


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


@pytest.mark.parametrize("d", [32, 64])
def test_one_sided_pair_in_a_rotated_basis_keeps_lemma1(d):
    # Haar unitaries on both sides move the pair off the computational basis;
    # its B-side supports stay orthogonal, its A-side ones overlap by ~1/d.
    # The transposed pair is one-sided on the A side only.
    rng = np.random.default_rng(d)
    u_a, u_b = random_unitary(rng, d), random_unitary(rng, d)
    psi, phi = (
        BipartiteState(u_a @ s.coeffs @ u_b.T) for s in harness.generate_one_sided_pair(d // 2, d // 2, d, d)
    )
    alpha, beta = random_sphere_pair(rng)
    transposed = BipartiteState(psi.coeffs.T), BipartiteState(phi.coeffs.T)
    for pair, (orthogonal, overlapping) in (((psi, phi), (1, 0)), (transposed, (0, 1))):
        overlaps = trace_overlaps(*pair)
        assert overlaps[orthogonal] <= states.ORTHOGONALITY_TOL
        assert 0.5 / d < overlaps[overlapping] < 2.0 / d
        assert states.classify_orthogonality(states.PairStack([pair]), 0) is True
        report = certify(*pair, alpha, beta)
        assert report.exact_one_sided == pytest.approx(report.exact_e, abs=1e-9)


def test_exact_one_sided_absent_for_overlapping_pairs():
    rng = np.random.default_rng(38)
    pairs = [harness.overlapping_triple_pair()]
    pairs += [(random_state(rng, 3, 4), random_state(rng, 3, 4)) for _ in range(3)]
    for psi, phi in pairs:
        assert states.classify_orthogonality(states.PairStack([(psi, phi)]), 0) is False
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


@pytest.mark.parametrize(
    "fn, args",
    [
        (lps_upper_value, (1.0, 1.0, 0.5, 0.0)),
        (lps_upper_value, (1.0, 1.0, 0.5, -1.0)),
        (bounds.theorem2_upper_value, (1.0, 1.0, 0.5, 0.0, 0.1)),
        (bounds.theorem2_upper_value, (1.0, 1.0, 0.5, 1.0, math.nan)),
        (f_upper_value, (0.5, 1.0, 1.0, 0.5, 0.0)),
        (f_upper_value, (0.5, 1.0, 1.0, 0.5, 1.0, math.inf)),
        (f_upper_value, (0.5, -1.0, 1.0, 0.5, 1.0)),
        (lower_value, (0.5, 1.0, math.nan, 0.5, 0.5, "L1")),
        (lower_value, (0.5, 1.0, 1.0, -0.5, 0.5, "L2")),
        (minimize_f_scalar, (1.0, 1.0, 1.5, 1.0)),
        (minimize_f_scalar, (1.0, 1.0, 0.5, 0.0)),
        (minimize_f_scalar, (math.nan, 1.0, 0.5, 1.0)),
        (maximize_lower_scalar, (1.0, 1.0, 0.5, math.nan)),
        (maximize_lower_scalar, (1.0, math.inf, 0.5, 0.5)),
        (theorem3_stationarity_residual, (0.0, 1.0, 1.0, 0.5)),
        (theorem3_stationarity_residual, (0.5, 1.0, 1.0, 1.0)),
        (theorem4_stationarity_residual, (1.0, 1.0, 1.0, 0.5, 0.5)),
        (theorem4_stationarity_residual, (0.5, 1.0, 1.0, -0.5, 0.5)),
        # N^2 = ZERO_NORM_SQ and a' = 1 / ZERO_NORM_SQ: no problem has them
        (lps_upper_value, (1.0, 1.0, 0.5, 1e-12)),
        (minimize_f_scalar, (1.0, 1.0, 0.5, 1e-12)),
        (lower_value, (0.5, 1.0, 1.0, 1e12, 0.0, "L1")),
        (maximize_lower_scalar, (1.0, 1.0, 0.5, 1e12)),
        # just past MAX_ENTANGLEMENT = 1e6, an entanglement and a delta_s
        (f_upper_value, (0.5, 1.000000001e6, 1.0, 0.5, 1.0)),
        (f_upper_value, (0.5, 1.0, 1.0, 0.5, 1.0, -1.000000001e6)),
        (lower_value, (0.5, 1.0, 1.000000001e6, 0.5, 0.5, "L1")),
        (bounds.theorem2_upper_value, (1.0, 1.0, 0.5, 1.0, 1.000000001e6)),
    ],
)
def test_bad_scalar_arguments_raise_domain_error(fn, args):
    # entanglements finite, >= 0 and <= 1e6, N^2 finite and > 1e-12,
    # |alpha|^2 a weight, a' and b' finite, >= 0 and < 1e12, t inside the
    # window, all checked before any arithmetic: no ZeroDivisionError, no
    # numpy warning, no NonFiniteObjective from inside a search
    with pytest.raises(DomainError):
        fn(*args)


def test_scalar_checks_keep_valid_edge_arguments():
    # a' and b' exceed 1 when N^2 < 1, and |alpha|^2 may stray past [0, 1]
    # by h2's rounding slack
    raw, _, _ = maximize_lower_scalar(1.0, 1.0, 2.0, 0.5)  # N^2 = 0.4
    assert math.isfinite(raw)
    for asq in (-1e-13, 1.0 + 1e-13):
        assert math.isfinite(lps_upper_value(1.0, 1.0, asq, 1.0))
        assert math.isfinite(minimize_f_scalar(1.0, 1.0, asq, 1.0)[0])
    assert math.isfinite(theorem3_stationarity_residual(0.5, 1.0, 1.0, 1.0 - 2**-53))
    # the neighbours of the excluded N^2 = ZERO_NORM_SQ and a' = 1 / ZERO_NORM_SQ
    n2 = math.nextafter(states.ZERO_NORM_SQ, math.inf)
    assert math.isfinite(lps_upper_value(1.0, 1.0, 0.5, n2))
    assert math.isfinite(minimize_f_scalar(1.0, 1.0, 0.5, n2)[0])
    big = math.nextafter(1.0 / states.ZERO_NORM_SQ, 0.0)
    assert math.isfinite(lower_value(0.5, 1.0, 1.0, big, 0.0, "L1"))
    assert math.isfinite(maximize_lower_scalar(1.0, 1.0, 0.5, big)[0])


# NaN, +-inf, negatives, 0, values above 1, tiny, ordinary and huge numbers:
# magnitudes run to just past bounds.MAX_ENTANGLEMENT and the cap
# 1 / ZERO_NORM_SQ on a' and b', and on to 1e300, where an unchecked
# bound would overflow to inf.
_CAPS = (bounds.MAX_ENTANGLEMENT, 1.0 / states.ZERO_NORM_SQ)
_SCALARS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1e-300, 0.0, 1e-300, 1.0, 1.5]),
    st.sampled_from(
        [s * x for c in _CAPS for x in (c, math.nextafter(c, math.inf)) for s in (1.0, -1.0)]
        + [1e300, -1e300]
    ),
    st.floats(-8.0, 8.0),
    st.floats(-1.1 * _CAPS[1], 1.1 * _CAPS[1]),
)
_CONTRACT = {
    "lps_upper_value": (lps_upper_value, 4),
    "theorem2_upper_value": (bounds.theorem2_upper_value, 5),
    "f_upper_value": (f_upper_value, 6),
    "lower_value": (lower_value, 5),
    "minimize_f_scalar": (minimize_f_scalar, 4),
    "maximize_lower_scalar": (maximize_lower_scalar, 4),
    "theorem3_stationarity_residual": (theorem3_stationarity_residual, 4),
    "theorem4_stationarity_residual": (theorem4_stationarity_residual, 5),
    "mixture_entropy": (states.mixture_entropy, 2),
    "shannon_entropy": (lambda a, b: qmath.shannon_entropy([a, b, 1.0 - a - b]), 2),
}


@settings(max_examples=400, deadline=None)
@given(
    name=st.sampled_from(sorted(_CONTRACT)),
    xs=st.lists(_SCALARS, min_size=6, max_size=6),
    branch=st.sampled_from(["L1", "L2"]),
)
def test_scalar_layer_returns_finite_floats_or_raises_supent_errors(name, xs, branch):
    fn, arity = _CONTRACT[name]
    args = xs[:arity] + ([branch] if name in ("lower_value", "theorem4_stationarity_residual") else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = fn(*args)
        except SupentError:
            return
    for value in out[:2] if isinstance(out, tuple) else (out,):
        assert isinstance(value, float) and math.isfinite(value), (name, args, out)


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
    # pairs sharing a factor, psi = q0 (x) v and phi = q1 (x) v: S_A = h2(t)
    # and S_B = 0, so the capped gap cancels the bracket's h2(t) and the
    # refined f is flat within rounding, and points stay in doubt through
    # every level to the last call
    for dim_a, dim_b, alpha_sq in ((2, 3, 0.5), (4, 2, 0.05), (3, 3, 0.9)):
        q = random_unitary(rng, dim_a)
        v = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
        psi, phi = (BipartiteState(np.outer(q[:, k], v / np.linalg.norm(v))) for k in (0, 1))
        yield SuperpositionProblem.from_states(psi, phi, math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq))


def _refine(problems):
    """``minimize_f_with_refinement`` on the problems, as ``certify_many`` calls it."""
    stack = states.PairStack((p.psi, p.phi) for p in problems)
    e_psi, e_phi, alpha_sq, gamma_norm_sq = (
        np.array([getattr(p, name) for p in problems])
        for name in ("e_psi", "e_phi", "alpha_sq", "gamma_norm_sq")
    )
    return minimize_f_with_refinement(e_psi, e_phi, alpha_sq, gamma_norm_sq, stack)


def test_refined_pruning_matches_exhaustive_grid(monkeypatch):
    seen, calls = [], []
    minimize, entropies = optimize.minimize_many, states.PairStack.entropies

    def spy(f, xs, grid_values, **floor):
        seen.append((grid_values, len(calls)))
        return minimize(f, xs, grid_values, **floor)

    def counting(self, rows, t):
        calls.append(rows)
        return entropies(self, rows, t)

    monkeypatch.setattr(optimize, "minimize_many", spy)
    monkeypatch.setattr(states.PairStack, "entropies", counting)
    problems = list(_pruning_problems()) + list(_stationary_at_alpha_sq())
    results = _refine(problems)
    # the plain f search runs first, then the refined one, each given the
    # grid values of every problem; before it, every grid level made its
    # stacked call, the last one for the points still in doubt
    _, (pruned_rows, grid_calls) = seen
    assert grid_calls == len(bounds.PRUNE_STRIDES) + 1
    assert all((optimize.DEFAULT_GRID_N - 1) % stride == 0 for stride in bounds.PRUNE_STRIDES)
    assert len(pruned_rows) == len(results) == len(problems)
    for p, pruned, (_, result, _) in zip(problems, pruned_rows, results):
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
    # The searches take their grid values and each lockstep step from the
    # private array formulas, and a lone search its golden-section points
    # from the float arithmetic of the public forms; the two must agree bit
    # for bit at every weight, drawn or uniform.
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(T_EPS, 1.0 - T_EPS, 64).tolist()
    ts = optimize.grid_points(T_EPS, 1.0 - T_EPS, optimize.DEFAULT_GRID_N) + (*off_grid, *uniform)
    grid = np.asarray(ts)
    h = binary_entropy(grid)
    deltas = rng.uniform(-1.0, 1.0, grid.size)
    args = (e_psi, e_phi, alpha_sq, gamma_norm_sq)
    assert bounds._f_value(grid, h, *args).tolist() == [f_upper_value(t, *args) for t in ts]
    assert bounds._f_value(grid, h, *args, deltas).tolist() == [
        f_upper_value(t, *args, delta_s=d) for t, d in zip(ts, deltas.tolist())
    ]
    asq, bsq = alpha_sq / gamma_norm_sq, (1.0 - alpha_sq) / gamma_norm_sq
    for branch in ("L1", "L2"):
        l1_args = bounds._as_l1(branch, e_psi, e_phi, asq, bsq)
        assert bounds._l1(grid, h, *l1_args).tolist() == [
            bounds.lower_value(t, e_psi, e_phi, asq, bsq, branch) for t in ts
        ]


def test_weights_are_coerced_to_a_float_or_a_float_array():
    upper, low = (1.0, 2.0, 0.3, 0.9), (1.0, 2.0, 0.3, 0.7)
    # any real scalar is a float
    for t in (np.float32(0.5), np.float64(0.5), np.int64(1) / 2, Fraction(1, 2)):
        assert type(f_upper_value(t, *upper)) is float
        assert f_upper_value(t, *upper) == f_upper_value(0.5, *upper)
        assert type(lower_value(t, *low, "L1")) is float
        assert lower_value(t, *low, "L1") == lower_value(0.5, *low, "L1")
    # an array or a sequence of weights is not a weight
    rejected = ("0.5", ["0.5"], None, [0.5, None], 0.5j, [[0.5], [0.5, 0.6]], [0.5], [0.2, 0.5])
    for t in (*rejected, np.array([0.2, 0.5]), np.array(0.5), True, False, math.nan):
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
    gap = np.abs(s_a - s_b) - bounds.ENTROPY_ROUNDING
    # computed points as the levels leave them: uniform at each stride, and
    # uneven, with both ends always in
    ends = [0, t.size - 1]
    runs = [np.append(np.arange(0, t.size - 1, stride), t.size - 1) for stride in bounds.PRUNE_STRIDES]
    runs += [np.unique(np.append(rng.choice(t.size, size), ends)) for size in (0, 1, 3, 12, 60)]
    runs.append(np.array(ends))
    point = np.arange(t.size)
    shared = []
    for run in runs:
        j = np.clip(np.searchsorted(run, point, side="right") - 1, 0, run.size - 2)
        shared.append(bounds._delta_cap(t, j, t[run], s_a[run], s_b[run]))
        assert np.all(shared[-1] >= gap)
    # the runs end to end, each point between two of its run's points
    # bounded as from that run alone
    keys = np.concatenate([r * t.size + run for r, run in enumerate(runs)])
    knots = np.concatenate(runs)
    rows, i = np.nonzero([~np.isin(point, run) for run in runs])
    j = np.searchsorted(keys, rows * t.size + i) - 1
    flat = bounds._delta_cap(t[i], j, t[knots], s_a[knots], s_b[knots])
    assert flat.tolist() == [shared[r][k] for r, k in zip(rows.tolist(), i.tolist())]


def test_mixture_entropy_is_at_most_binary_entropy():
    # The top eigenvalue of t |psi><psi| + (1-t) |phi><phi| is at least
    # <psi|rho|psi> >= t and likewise 1 - t, so S_AB <= h2(t) at any overlap;
    # the two are equal for orthogonal states.  The closed form rounds
    # (1 + r)/2 by a few ulps of 1, which h2's slope of at most
    # log2(1/T_EPS) ~ 30 on the window turns into at most ~1e-14.
    t = optimize.grid_points(T_EPS, 1.0 - T_EPS, optimize.DEFAULT_GRID_N)
    for overlap_sq in (*np.linspace(0.0, 1.0, 101).tolist(), 5e-324, 1e-17, 1e-9, 1.0 - 1e-9):
        for w in t:
            assert states.mixture_entropy(w, overlap_sq) <= binary_entropy(w) + 1e-14, overlap_sq


@pytest.mark.parametrize("d", [4, 16, 32])
def test_refined_search_eigendecomposes_few_grid_points(d, monkeypatch):
    stacked = []
    entropies = states.PairStack.entropies

    def counting(self, rows, t):
        if isinstance(rows, np.ndarray):  # a grid level's call; golden section's take an int
            stacked.append(rows.size)
        return entropies(self, rows, t)

    monkeypatch.setattr(states.PairStack, "entropies", counting)
    rng = np.random.default_rng(d)
    for _ in range(3):
        alpha, beta = random_sphere_pair(rng)
        p = SuperpositionProblem.from_states(
            random_state(rng, d, d), random_state(rng, d, d), alpha, beta
        )
        stacked.clear()
        _refine([p])
        # one stacked call for each grid level: 13-16 weights here,
        # t = |alpha|^2 and the plain minimizer among them
        assert 0 < sum(stacked) <= 20


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
        psi, phi = diagonal_family_states(d, "example4")
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
    with pytest.raises(DomainError, match="branch"):
        theorem4_stationarity_residual(0.5, 1.0, 2.0, 0.3, 0.7, branch)
    with pytest.raises(DomainError, match="branch"):
        lower_value(0.5, 1.0, 2.0, 0.3, 0.7, branch)


def test_l2_is_l1_with_states_and_weights_exchanged():
    for t, e_psi, e_phi, asq, bsq in ((0.3, 0.4, 2.5, 0.2, 0.9), (0.9, 3.0, 1.0, 0.6, 0.5)):
        l2 = theorem4_stationarity_residual(t, e_psi, e_phi, asq, bsq, "L2")
        assert l2 == theorem4_stationarity_residual(t, e_phi, e_psi, bsq, asq, "L1")
        l2 = lower_value(t, e_psi, e_phi, asq, bsq, "L2")
        assert l2 == lower_value(t, e_phi, e_psi, bsq, asq, "L1")


def _lower_columns():
    """(e_psi, e_phi, a', b') of seeded audit problems, edge weights and
    near-ties, as four arrays."""
    cols = [
        (p.e_psi, p.e_phi, p.alpha_sq / p.gamma_norm_sq, p.beta_sq / p.gamma_norm_sq)
        for p in SuperpositionProblem.from_states_many(
            draw[1:] for batch in harness._audit_draws(120, 6, 7) for draw in batch
        )
    ]
    for e in (0.0, 1e-30, 0.7, 30.0):
        for a in (1e-9, 1e-6, 0.5, 1.0 - 1e-6, 1.0 - 1e-9, 3e11):
            for b in (T_EPS, 0.25, 1.0 - 1e-9, 1e12):
                cols += [(e, 2.0 * e, a, b), (2.0 * e, e, a, b), (e, e, a, a)]
    cols += [
        # b' E(phi) - a' E(psi) within about T_EPS E of 0, on either side
        (1.0, 0.01 * (1 + 1e-12), 0.01, 1.0),
        (1.0, 0.01 * (1 + 1e-10), 0.01, 1.0),
        (2.0, 1.0 + 1e-11, 0.5, 1.0),
        (1.5, 1.5000000000000002, 0.5, 0.5),
        (3.0, 3.0, 0.5000000000000001, 0.5),
        (2.0, 1.0, 0.25, 0.5),  # an exact tie
    ]
    return tuple(np.array(c) for c in zip(*cols))


def test_a_ruled_out_lower_branch_stays_below_its_ceiling():
    # where b' E(phi) <= a' E(psi), L1 <= -h2(t)/t on the whole window, and
    # L2 in the mirror case: no search of the ruled-out branch can win
    e_psi, e_phi, asq, bsq = _lower_columns()
    d = bsq * e_phi - asq * e_psi
    ceiling = -bounds._H_GRID / bounds._T_GRID
    for branch, ruled_out in (("L1", d <= 0.0), ("L2", d >= 0.0)):
        cols = bounds._as_l1(branch, e_psi, e_phi, asq, bsq)
        values = bounds._l1(bounds._T_GRID, bounds._H_GRID, *(c[ruled_out, None] for c in cols))
        assert ruled_out.sum() > 100
        assert np.all(values <= ceiling)


def test_one_lower_search_per_problem_keeps_the_bits_of_two():
    # the former rule: search both branches, keep the larger, L1 on ties
    cols = _lower_columns()
    both = []
    for branch in ("L1", "L2"):
        l1_cols = bounds._as_l1(branch, *cols)
        grid = bounds._l1(bounds._T_GRID, bounds._H_GRID, *(c[:, None] for c in l1_cols))
        negated = bounds._pointwise(lambda *args: -bounds._l1(*args), l1_cols)
        both.append([(-v, t, branch) for v, t in bounds._golden(negated, -grid)])
    expected = [l2 if l2[0] > l1[0] else l1 for l1, l2 in zip(*both)]
    assert bounds._maximize_lower(*cols) == expected
    # the sign of b' E(phi) - a' E(psi) alone would pick the other branch
    # on some near-ties
    d = cols[1] * cols[3] - cols[0] * cols[2]
    assert any(("L1" if x > 0 else "L2") != r[2] for x, r in zip(d.tolist(), expected))


def test_lower_search_rows_and_ties(monkeypatch):
    searched = []
    golden = bounds._golden

    def spy(f, grid_values):
        searched.append(len(grid_values))
        return golden(f, grid_values)

    monkeypatch.setattr(bounds, "_golden", spy)
    # problems: a clear L1, a clear L2, an exact tie (b' E(phi) = a' E(psi)
    # = 0.5) and identical mirrored columns
    e_psi, e_phi = np.array([1.0, 5.0, 2.0, 1.0]), np.array([5.0, 1.0, 1.0, 1.0])
    asq, bsq = np.array([0.5, 0.5, 0.25, 0.5]), np.array([0.5, 0.5, 0.5, 0.5])
    cols = e_psi, e_phi, asq, bsq
    found = bounds._maximize_lower(*cols)
    # one call: one row each for the clear problems, two each for the tie
    # and the mirrored problem, whose equal rows L1 wins
    assert searched == [6]
    assert [f[2] for f in found[:2]] == ["L1", "L2"]
    assert found[3][2] == "L1"
    # on equal values the L1 row wins
    monkeypatch.setattr(bounds, "_golden", lambda f, grid_values: [(-1.0, 0.5)] * len(grid_values))
    assert bounds._maximize_lower(*(np.array([c[2]]) for c in cols)) == [(1.0, 0.5, "L1")]


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
    psi, phi = diagonal_family_states(65, "example4")
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


def test_subspace_lower_on_a_two_point_grid_keeps_the_ends():
    # grid_n = 2 visits only psi and phi themselves (p = 0 and 1), so the scan
    # never hits 0 and returns its least value: min(E(psi), E(phi)), less the
    # window-edge loss (T_EPS / (1 - T_EPS)) E + h2(T_EPS), about 3.2e-8
    omega = np.exp(2j * math.pi / 3.0)
    pairs = [
        (np.diag([1.0, 1.0]) / math.sqrt(2.0), np.diag([1.0, -1.0]) / math.sqrt(2.0)),
        (np.eye(3) / math.sqrt(3.0), np.diag([1.0, omega, omega**2]) / math.sqrt(3.0)),
    ]
    for c1, c2 in pairs:
        psi, phi = BipartiteState(c1), BipartiteState(c2)
        least = min(entanglement_entropy(psi), entanglement_entropy(phi))
        value = subspace_lower(psi, phi, 2)
        assert 0.0 < value <= least
        assert value == pytest.approx(least, abs=1e-7)


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
    # in lockstep each step makes one call per distinct dimension, 220 in all
    # for 7,286 matrices
    assert sum(matrices) == 7286
    assert len(calls) <= 250
    # a single problem makes one call per side for each grid level, the
    # first of them with t = |alpha|^2 and the plain minimizer, and one for
    # both sides at each golden-section point whose floor does not decide it
    calls.clear()
    certify(harness.haar_random_state(4, 4, 1), harness.haar_random_state(4, 4, 2), 0.6, 0.8)
    assert len(calls) <= 42
    # dense pairs, whose refined grid the certified floor mostly prunes, on
    # concavity alone
    for kind, recorded in (("one_sided", 406), ("haar", 390)):
        matrices.clear()
        for seed in range(4):
            if kind == "one_sided":
                psi, phi = harness.generate_one_sided_pair(16, 16, 32, seed)
            else:
                psi = harness.haar_random_state(32, 32, seed)
                phi = harness.haar_random_state(32, 32, seed + 100)
            certify(psi, phi, 0.6, 0.8)
        assert sum(matrices) == recorded, kind


def _floor_draws(kind):
    """(psi, phi, alpha, beta) of one kind of problem for the lone refined
    search: Haar pairs, one-sided pairs, pairs sharing a factor (whose
    refined f is flat within rounding) and |alpha|^2 within a grid step of
    either end of the window."""
    rng = np.random.default_rng(109)
    if kind == "haar":
        for dim_a, dim_b in ((2, 2), (3, 5), (8, 8), (32, 32)):
            yield random_state(rng, dim_a, dim_b), random_state(rng, dim_a, dim_b), *random_sphere_pair(rng)
    elif kind == "one_sided":
        for seed, (d1, d2, dim_a) in enumerate(((1, 1, 2), (2, 3, 6), (3, 2, 5), (8, 8, 16))):
            yield *harness.generate_one_sided_pair(d1, d2, dim_a, 800 + seed), *random_sphere_pair(rng)
    elif kind == "shared_factor":
        for dim_a, dim_b, alpha_sq in ((2, 3, 0.5), (4, 2, 0.05), (3, 3, 0.9), (5, 3, 0.7)):
            q = random_unitary(rng, dim_a)
            v = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
            psi, phi = (BipartiteState(np.outer(q[:, k], v / np.linalg.norm(v))) for k in (0, 1))
            yield psi, phi, math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
    else:
        for alpha_sq in (T_EPS, 1e-6, 2e-3, 1.0 - 2e-3, 1.0 - 1e-6, 1.0 - T_EPS):
            yield random_state(rng, 3, 4), random_state(rng, 3, 4), math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)


@pytest.mark.parametrize("kind", ["haar", "one_sided", "shared_factor", "window_edge"])
def test_lone_refined_floor_keeps_every_bit(kind, monkeypatch):
    # certify's refined search steps alone, taking a floor for f where it
    # decides the step; with the floor switched off every report keeps its
    # bits, and only the eigendecompositions grow, except for a flat refined
    # f, where no floor clears its rounding allowance
    draws = list(_floor_draws(kind))
    matrices = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    floored = [_hexed(certify(*draw)) for draw in draws]
    with_floor = sum(matrices)
    matrices.clear()
    minimize = optimize.minimize_many
    monkeypatch.setattr(optimize, "minimize_many", lambda f, xs, grid_values, **floor: minimize(f, xs, grid_values))
    assert [_hexed(certify(*draw)) for draw in draws] == floored
    assert sum(matrices) > with_floor or kind == "shared_factor" and sum(matrices) == with_floor


def test_lone_cap_is_the_delta_cap():
    rng = np.random.default_rng(113)
    for size in (2, 3, 5, 40):
        ts = np.sort(rng.uniform(0.0, 1.0, size))
        s_a, s_b = rng.uniform(0.0, 3.0, (2, size))
        for t in np.concatenate([ts, rng.uniform(ts[0], ts[-1], 20)]).tolist():
            j = min(int(np.searchsorted(ts, t, side="right")), size - 1) - 1
            want = bounds._delta_cap(t, j, ts, s_a, s_b)
            assert bounds._cap_at(t, ts.tolist(), s_a.tolist(), s_b.tolist()) == float(want)


def test_cap_extends_no_secant_past_its_reach():
    # a golden-section point 1e-9 past a grid point: the secant of that
    # sliver, its ends off by 1e-13, is 2e-4 too shallow, and extended into
    # the next interval it would fall below S_A, by up to 2e-10 at 1e-6
    # further on, and the cap below Delta
    ts = np.array([0.2, 0.5, 0.5 + 1e-9, 0.7, 0.9])
    s_a = binary_entropy(ts) + np.array([0.0, 1e-13, -1e-13, 0.0, 0.0])
    s_b = 0.1 * ts
    for t in (0.5 + np.geomspace(3e-9, 1e-2, 50)).tolist():
        gap = binary_entropy(t) - 0.1 * t
        assert gap - 1e-12 <= bounds._cap_at(t, ts.tolist(), s_a.tolist(), s_b.tolist()) < math.inf
        assert gap - 1e-12 <= bounds._delta_cap(t, 2, ts, s_a, s_b) < math.inf


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


# Budgets of the invariance tests below, those of the kernel-rounding
# companions in test_report_bits.py: a report's floats (ebit) and its t* (a
# flat optimum).  Over _invariance_quads' 60 pairs on a SkylakeX host, the
# exchange moved values by at most 1.0e-14 and t*_upper by 1.2e-8, with
# t*_lower identical; local unitaries moved values by at most 9.8e-15,
# t*_upper by 1.1e-8 and t*_lower by 2.0e-9.
INVARIANCE_VALUE_TOL = 1e-12
INVARIANCE_T_STAR_TOL = 1e-6
_REPORT_VALUES = [
    f.name for f in dataclasses.fields(bounds.BoundReport) if f.name not in ("t_star_upper", "t_star_lower", "branch", "sane")
]


def _invariance_quads():
    """60 Haar pairs with d_A, d_B in 2..8 and weights on the sphere, each
    with Haar unitaries (U_A, U_B) for its side."""
    rng = np.random.default_rng(5)
    quads, unitaries = [], []
    for _ in range(60):
        dim_a, dim_b = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        quads.append((random_state(rng, dim_a, dim_b), random_state(rng, dim_a, dim_b), *random_sphere_pair(rng)))
        unitaries.append((random_unitary(rng, dim_a), random_unitary(rng, dim_b)))
    return quads, unitaries


def _assert_same_values(report, other):
    for name in _REPORT_VALUES:
        mine, theirs = getattr(report, name), getattr(other, name)
        if mine is None or theirs is None:
            assert mine is theirs, name
        else:
            assert abs(mine - theirs) <= INVARIANCE_VALUE_TOL, name
    assert report.sane == other.sane


def test_exchanging_the_two_states_and_weights_keeps_every_bound():
    # certify(phi, psi, beta, alpha) is the same superposition: t*_upper, the
    # weight on the first state, maps to 1 - t*_upper, and L1 and L2 trade
    # places, with the lower optimum at the same t
    quads, _ = _invariance_quads()
    reports = certify_many(SuperpositionProblem.from_states_many(quads))
    exchanged = certify_many(
        SuperpositionProblem.from_states_many([(phi, psi, beta, alpha) for psi, phi, alpha, beta in quads])
    )
    assert sum(r.lower_l > 0.0 for r in reports) > 0
    for report, other in zip(reports, exchanged):
        _assert_same_values(report, other)
        assert abs(other.t_star_upper - (1.0 - report.t_star_upper)) <= INVARIANCE_T_STAR_TOL
        assert abs(other.t_star_lower - report.t_star_lower) <= INVARIANCE_T_STAR_TOL
        assert {report.branch, other.branch} == {"L1", "L2"}


def test_local_unitaries_keep_every_bound():
    quads, unitaries = _invariance_quads()
    reports = certify_many(SuperpositionProblem.from_states_many(quads))
    rotated = certify_many(
        SuperpositionProblem.from_states_many(
            [
                (BipartiteState(u_a @ psi.coeffs @ u_b.T), BipartiteState(u_a @ phi.coeffs @ u_b.T), alpha, beta)
                for (psi, phi, alpha, beta), (u_a, u_b) in zip(quads, unitaries)
            ]
        )
    )
    for report, other in zip(reports, rotated):
        _assert_same_values(report, other)
        assert abs(other.t_star_upper - report.t_star_upper) <= INVARIANCE_T_STAR_TOL
        assert abs(other.t_star_lower - report.t_star_lower) <= INVARIANCE_T_STAR_TOL
        assert other.branch == report.branch


def test_certify_propagates_zero_state():
    bell = BipartiteState(np.eye(2) / math.sqrt(2.0))
    with pytest.raises(ZeroState):
        certify(bell, bell, INV_SQRT2, -INV_SQRT2)


def test_report_floats_are_python_floats():
    rng = np.random.default_rng(101)
    pairs = [(random_state(rng, 3, 4), random_state(rng, 3, 4)), harness.bell_block_pair()]
    pairs += [harness.generate_one_sided_pair(2, 3, 4, seed) for seed in (1, 2)]
    for psi, phi in pairs:
        report = certify(psi, phi, 0.6, 0.8)
        for field in dataclasses.fields(report):
            value = getattr(report, field.name)
            if value is not None and field.name not in ("branch", "sane"):
                assert type(value) is float, (field.name, type(value))
    assert report.exact_one_sided is not None and report.simple_lower is not None


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


# -- the refined f's Araki-Lieb cap ------------------------------------------


def _log_uniform_coefficients(rng):
    """(alpha, beta) with |alpha|^2 log-uniform on [1e-4, 1] and a random phase on beta."""
    alpha_sq = 10.0 ** rng.uniform(-4.0, 0.0)
    beta = math.sqrt(1.0 - alpha_sq) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return math.sqrt(alpha_sq), beta


def _assert_refined_at_or_above_exact(quads):
    reports = certify_many(SuperpositionProblem.from_states_many(quads))
    assert all(r.sane for r in reports)
    assert min(r.theorem3_refined_upper - r.exact_e for r in reports) >= -bounds.SANITY_SLACK


def test_refined_bound_holds_for_pairs_sharing_a_factor():
    # psi = q0 (x) v and phi = q1 (x) v with q0 orthogonal to q1: psi, phi and
    # gamma are product states, and the computed S_A(t) - S_B(t) can exceed
    # h2(t) by rounding near the window's edge, where 1/t magnifies it.  The
    # 200 pairs, in this draw order, read sane = False 83 times without the cap
    rng = np.random.default_rng(5)
    quads = []
    for _ in range(200):
        dim_a, dim_b = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        q = np.linalg.qr(rng.standard_normal((dim_a, dim_a)) + 1j * rng.standard_normal((dim_a, dim_a)))[0]
        v = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
        v /= np.linalg.norm(v)
        psi, phi = BipartiteState(np.outer(q[:, 0], v)), BipartiteState(np.outer(q[:, 1], v))
        quads.append((psi, phi, *_log_uniform_coefficients(rng)))
    _assert_refined_at_or_above_exact(quads)


def test_refined_bound_holds_for_rotated_one_sided_product_pairs():
    # d1 = d2 = dim_a = 1: two orthogonal B-side vectors on one A state, so
    # gamma is a product state
    rng = np.random.default_rng(17)
    quads = []
    for seed in range(60):
        psi, phi = harness.generate_one_sided_pair(1, 1, 1, seed)
        u = random_unitary(rng, 2)
        quads.append(
            (BipartiteState(psi.coeffs @ u), BipartiteState(phi.coeffs @ u), *_log_uniform_coefficients(rng))
        )
    _assert_refined_at_or_above_exact(quads)


def test_refined_f_caps_the_entropy_gap_at_h2():
    args = (1.0, 2.0, 0.3, 0.9)
    for t in (T_EPS, 0.01, 0.5, 1.0 - T_EPS):
        capped = f_upper_value(t, *args, delta_s=binary_entropy(t))
        assert f_upper_value(t, *args, delta_s=binary_entropy(t) + 1.0) == capped
        assert f_upper_value(t, *args, delta_s=-5.0) == capped
        assert type(capped) is float


# -- sanity and tolerance boundaries ----------------------------------------


def test_sane_fails_just_outside_the_bounds():
    rng = np.random.default_rng(29)
    p = SuperpositionProblem.from_states(random_state(rng, 3, 3), random_state(rng, 3, 3), 0.6, 0.8)
    (r,) = certify_many([p])
    least_upper = min(r.lps_upper, r.theorem2_upper, r.theorem3_upper, r.theorem3_refined_upper)
    assert r.sane
    (above,) = certify_many([dataclasses.replace(p, exact_e=least_upper + 1e-6)])
    assert above.sane is False
    # a product state against a maximally entangled one at a small weight
    # has a positive lower bound
    product = BipartiteState(np.diag([1.0] + [0.0] * 7).astype(complex))
    maximal = BipartiteState(np.eye(8) / np.sqrt(8))
    p = SuperpositionProblem.from_states(product, maximal, math.sqrt(0.01), math.sqrt(0.99))
    (r,) = certify_many([p])
    assert r.sane and r.lower_l > 1.0
    (below,) = certify_many([dataclasses.replace(p, exact_e=r.lower_l - 1e-6)])
    assert below.sane is False


def test_subspace_lower_takes_nearly_parallel_states():
    # |<psi|phi>| = 0.995 spans two dimensions: only 1 - 1e-9 counts as parallel
    psi = BipartiteState(np.diag([1.0, 0.0]).astype(complex))
    phi = BipartiteState(np.diag([0.995, math.sqrt(1.0 - 0.995**2)]).astype(complex))
    assert subspace_lower(psi, phi, 4) >= 0.0


def test_a_nearly_destructive_problem_builds_and_certifies():
    # N^2 = 1 - cos(theta) = 1e-8, above states.ZERO_NORM_SQ = 1e-12
    c = 1.0 - 1e-8
    psi = BipartiteState(np.diag([1.0, 0.0]).astype(complex))
    phi = BipartiteState(np.diag([c, math.sqrt(1.0 - c * c)]).astype(complex))
    p = SuperpositionProblem.from_states(psi, phi, INV_SQRT2, -INV_SQRT2)
    assert p.gamma_norm_sq == pytest.approx(1e-8, rel=1e-6)
    (r,) = certify_many([p])
    assert r.sane
