import math

import numpy as np
import pytest

from helpers import random_state, random_sphere_pair, random_unitary
from supent import harness, qmath, states
from supent.errors import DimMismatch, DomainError, NotNormalized, ZeroState
from supent.qmath import binary_entropy
from supent.states import (
    BipartiteState,
    PairStack,
    classify_orthogonality,
    entanglement_entropy,
    inner_product,
    mixture_entropy,
    norm_squared,
    reduced_density,
    superpose,
)


def bell_state():
    return BipartiteState(np.eye(2) / math.sqrt(2.0))


def basis_state(dim_a, dim_b, i, j):
    c = np.zeros((dim_a, dim_b), dtype=complex)
    c[i, j] = 1.0
    return BipartiteState(c)


# -- norm_squared ------------------------------------------------------------


def test_norm_squared_bell():
    assert norm_squared(bell_state()) == pytest.approx(1.0, abs=1e-12)


def test_norm_squared_overlapping_superposition():
    psi, phi = harness.overlapping_triple_pair()
    s = 1.0 / math.sqrt(2.0)
    gamma = superpose(s, psi, s, phi)
    assert norm_squared(gamma) == pytest.approx(1.5, abs=1e-12)


def test_norm_squared_scaling():
    s = superpose(2.0, basis_state(2, 2, 0, 0), 0.0, basis_state(2, 2, 1, 1))
    assert norm_squared(s) == pytest.approx(4.0)


# -- inner_product -----------------------------------------------------------


def test_inner_product_orthogonal_basis_states():
    assert inner_product(basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)) == 0.0


def test_inner_product_family_pair_orthogonal():
    psi, phi = harness.diagonal_family_states(5, "example3")
    assert inner_product(psi, phi) == pytest.approx(0.0, abs=1e-12)


def test_inner_product_self_is_one():
    rng = np.random.default_rng(5)
    s = random_state(rng, 3, 4)
    assert inner_product(s, s) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_dim_mismatch():
    with pytest.raises(DimMismatch):
        inner_product(basis_state(2, 2, 0, 0), basis_state(2, 3, 0, 0))


# -- superpose ---------------------------------------------------------------


def test_superpose_trivial_coefficients():
    s1 = basis_state(2, 2, 0, 0)
    s2 = basis_state(2, 2, 1, 1)
    out = superpose(1.0, s1, 0.0, s2)
    assert np.array_equal(out.coeffs, s1.coeffs)


def test_superpose_bell_from_products():
    s = 1.0 / math.sqrt(2.0)
    out = superpose(s, basis_state(2, 2, 0, 0), s, basis_state(2, 2, 1, 1))
    assert norm_squared(out) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.coeffs, bell_state().coeffs)


# -- reduced_density ---------------------------------------------------------


def test_reduced_density_bell_maximally_mixed():
    rho = reduced_density(bell_state(), "A")
    assert np.allclose(rho, np.eye(2) / 2.0, atol=1e-12)


def test_reduced_density_triple_state():
    psi, _ = harness.overlapping_triple_pair()
    rho = reduced_density(psi, "A")
    assert np.allclose(rho, np.diag([0.5, 0.25, 0.25]), atol=1e-12)


def test_reduced_density_trace_is_norm():
    rng = np.random.default_rng(8)
    s = BipartiteState(rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
    for side in ("A", "B"):
        rho = reduced_density(s, side)
        assert np.trace(rho).real == pytest.approx(norm_squared(s), rel=1e-12)
        assert np.allclose(rho, rho.conj().T, atol=1e-12)


# -- entanglement_entropy ----------------------------------------------------


def test_entanglement_product_state():
    assert entanglement_entropy(basis_state(2, 2, 0, 0)) == 0.0


def test_entanglement_triple_state():
    psi, phi = harness.overlapping_triple_pair()
    assert entanglement_entropy(psi) == pytest.approx(1.5, abs=1e-12)
    assert entanglement_entropy(phi) == pytest.approx(1.5, abs=1e-12)


def test_entanglement_family_state_d5():
    psi, _ = harness.diagonal_family_states(5, "example3")
    assert entanglement_entropy(psi) == pytest.approx(0.5 * math.log2(4.0) + 1.0, abs=1e-12)


def test_entanglement_zero_state_rejected():
    with pytest.raises(ZeroState):
        entanglement_entropy(BipartiteState(np.zeros((2, 2))))


def test_normalized_scales_tiny_amplitudes_first():
    unit = BipartiteState(np.array([[1.0, -0.5j], [0.0, 2.0]]))
    for scale in (1e-7, 1e-200, 2.0**-1060):
        tiny = BipartiteState(unit.coeffs * scale)
        assert np.array_equal(tiny.normalized().coeffs, unit.normalized().coeffs), scale
    with pytest.raises(ZeroState):
        BipartiteState(np.zeros((2, 3))).normalized()


def test_entropy_routes_agree():
    rng = np.random.default_rng(13)
    for _ in range(30):
        s = random_state(rng, rng.integers(2, 7), rng.integers(2, 7))
        via_svd = entanglement_entropy(s)
        via_a = qmath.shannon_entropy(np.linalg.eigvalsh(reduced_density(s, "A")))
        via_b = qmath.shannon_entropy(np.linalg.eigvalsh(reduced_density(s, "B")))
        assert via_svd == pytest.approx(via_a, abs=1e-10)
        assert via_svd == pytest.approx(via_b, abs=1e-10)


def test_entanglement_local_unitary_invariant():
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = random_state(rng, 4, 5)
        u = random_unitary(rng, 4)
        v = random_unitary(rng, 5)
        rotated = BipartiteState(u @ s.coeffs @ v)
        assert entanglement_entropy(rotated) == pytest.approx(
            entanglement_entropy(s), abs=1e-9
        )


# -- classify_orthogonality ---------------------------------------------------


def test_classify_biorthogonal_products():
    psi, phi = basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)
    cls = classify_orthogonality(PairStack([(psi, phi)]), 0)
    assert cls.biorthogonal and cls.one_sided_eq1 and cls.one_sided_eq2
    assert abs(inner_product(psi, phi)) <= 1e-12


def test_classify_block_pair_one_sided_only():
    psi, phi = harness.bell_block_pair()
    cls = classify_orthogonality(PairStack([(psi, phi)]), 0)
    assert cls.one_sided_eq1
    assert not cls.one_sided_eq2
    assert not cls.biorthogonal
    assert abs(inner_product(psi, phi)) <= 1e-12


def test_classify_identical_states():
    cls = classify_orthogonality(PairStack([(bell_state(), bell_state())]), 0)
    assert not cls.one_sided_eq1 and not cls.one_sided_eq2 and not cls.biorthogonal
    assert inner_product(bell_state(), bell_state()) == pytest.approx(1.0)


def test_one_sided_implies_orthogonal():
    for seed in range(6):
        psi, phi = harness.generate_one_sided_pair(2, 3, 3, seed)
        cls = classify_orthogonality(PairStack([(psi, phi)]), 0)
        assert cls.one_sided_eq1
        assert abs(inner_product(psi, phi)) <= 1e-9


# -- mixture_entropy -----------------------------------------------------------


def test_mixture_entropy_orthogonal_pair_is_binary_entropy():
    psi, phi = harness.bell_block_pair()
    c2 = abs(inner_product(psi, phi)) ** 2
    for t in (0.1, 0.36, 0.5, 0.9):
        assert mixture_entropy(t, c2) == pytest.approx(binary_entropy(t), abs=1e-12)


def test_mixture_entropy_identical_states_zero():
    c2 = abs(inner_product(bell_state(), bell_state())) ** 2
    for t in (0.0, 0.3, 1.0):
        assert mixture_entropy(t, c2) == pytest.approx(0.0, abs=1e-12)


def test_mixture_entropy_half_overlap():
    # overlap 1/2 at t = 1/2: eigenvalues (1 +- 1/2)/2 = {3/4, 1/4}
    psi, phi = harness.overlapping_triple_pair()
    expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    c2 = abs(inner_product(psi, phi)) ** 2
    assert mixture_entropy(0.5, c2) == pytest.approx(expected, abs=1e-12)
    assert mixture_entropy(np.array([0.5, 0.5]), c2).tolist() == pytest.approx([expected] * 2)
    assert expected == pytest.approx(0.811278, abs=5e-7)


def test_mixture_entropy_requires_normalized_inputs():
    big = BipartiteState(2.0 * np.eye(2))
    with pytest.raises(NotNormalized):
        PairStack([(big, bell_state())]).entropies(0, 0.5)
    with pytest.raises(NotNormalized):
        classify_orthogonality(PairStack([(bell_state(), bell_state()), (bell_state(), big)]), 1)
    with pytest.raises(DimMismatch):
        PairStack([(bell_state(), bell_state()), (bell_state(), basis_state(2, 3, 0, 0))])


def test_mixture_entropy_rejects_bad_arguments_in_both_forms():
    for t, c2 in ((0.3, math.nan), (math.nan, 0.5), (1.5, 0.0), (-0.2, 0.5), (0.3, 1.2)):
        with pytest.raises(DomainError):
            mixture_entropy(t, c2)
        with pytest.raises(DomainError):
            mixture_entropy(np.array([0.5, t]), c2)


# -- PairStack -------------------------------------------------------------------


def test_reduced_mixture_entropies_triple_pair():
    psi, phi = harness.overlapping_triple_pair()
    s_a, s_b = PairStack([(psi, phi)]).entropies(0, 0.5)
    assert s_a == pytest.approx(1.5, abs=1e-12)
    assert s_b == pytest.approx(2.0, abs=1e-12)


def test_reduced_mixture_entropies_block_pair():
    psi, phi = harness.bell_block_pair()
    for alpha_sq in (0.09, 0.36, 0.5):
        s_a, s_b = PairStack([(psi, phi)]).entropies(0, alpha_sq)
        assert s_a == pytest.approx(1.0, abs=1e-12)
        assert s_b == pytest.approx(1.0 + binary_entropy(alpha_sq), abs=1e-12)


def test_reduced_mixture_entropies_identical_states():
    rng = np.random.default_rng(23)
    s = random_state(rng, 3, 3)
    e = entanglement_entropy(s)
    for t in (0.2, 0.7):
        s_a, s_b = PairStack([(s, s)]).entropies(0, t)
        assert s_a == pytest.approx(e, abs=1e-10)
        assert s_b == pytest.approx(e, abs=1e-10)


def test_pair_stack_entropies_reject_weights_outside_the_unit_interval():
    stack = PairStack([harness.overlapping_triple_pair()])
    for t in (1.5, -0.2, math.nan):
        with pytest.raises(DomainError):
            stack.entropies(0, t)
        with pytest.raises(DomainError):
            stack.entropies(np.zeros(3, dtype=int), np.array([0.25, t, 0.5]))
    # both ends of the interval are mixtures
    assert stack.entropies(0, 0.0) == pytest.approx((1.5, 1.5), abs=1e-12)
    assert stack.entropies(np.array([0]), np.array([1.0]))[0].tolist() == pytest.approx([1.5])


def _mixed_pairs(rng):
    """Pairs with repeated and mixed dimensions on either side."""
    return [
        (random_state(rng, dim_a, dim_b), random_state(rng, dim_a, dim_b))
        for dim_a, dim_b in ((2, 3), (3, 3), (2, 5), (4, 3), (2, 3), (3, 4))
    ]


def test_pair_stack_gives_each_pair_its_own_bits():
    rng = np.random.default_rng(37)
    pairs = _mixed_pairs(rng)
    stack = PairStack(pairs)
    rows = np.array([0, 3, 3, 1, 5, 4, 2, 0, 4])
    t = rng.uniform(0.0, 1.0, rows.size)
    s_a, s_b = stack.entropies(rows, t)
    alone = [stack.entropies(r, w) for r, w in zip(rows.tolist(), t.tolist())]
    assert s_a.tolist() == [a for a, _ in alone]
    assert s_b.tolist() == [b for _, b in alone]
    # each is the entropy of the mixture of freshly built operators, and a
    # one-row store gives it again
    for r, w, (a, b) in zip(rows.tolist(), t.tolist(), alone):
        psi, phi = pairs[r]
        assert [a, b] == [
            qmath.psd_entropy(w * reduced_density(psi, side) + (1.0 - w) * reduced_density(phi, side))
            for side in "AB"
        ]
        assert PairStack([pairs[r]]).entropies(np.array([0]), np.array([w]))[0].tolist() == [a]
    for bad in (1.5, -0.2, math.nan):
        with pytest.raises(DomainError):
            stack.entropies(rows[:3], np.array([0.5, bad, 0.5]))


def test_pair_stack_entropies_take_any_integer_row_alone():
    stack = PairStack(_mixed_pairs(np.random.default_rng(43)))
    for r in range(6):
        alone = stack.entropies(r, 0.3)
        for row in (np.int64(r), np.int32(r), np.uint8(r)):
            assert stack.entropies(row, 0.3) == alone
        assert stack.entropies(r, np.float64(0.3)) == alone
    rows = np.array([4, 0, 5], dtype=np.uint16)
    s_a, s_b = stack.entropies(rows, np.array([0.3, 0.6, 0.9]))
    assert list(zip(s_a.tolist(), s_b.tolist())) == [
        stack.entropies(r, w) for r, w in ((4, 0.3), (0, 0.6), (5, 0.9))
    ]


def test_pair_stack_entropies_reject_a_bool_row():
    stack = PairStack(_mixed_pairs(np.random.default_rng(43)))
    for row in (True, False, np.bool_(True), np.array([True, False])):
        with pytest.raises(DomainError, match="rows="):
            stack.entropies(row, 0.3 if np.ndim(row) == 0 else np.array([0.3, 0.4]))


def test_pair_stack_entropies_reject_rows_outside_the_stack():
    stack = PairStack(_mixed_pairs(np.random.default_rng(43)))
    for row in (-1, 6, np.int64(-1), np.int64(6), 10**30):
        with pytest.raises(DomainError, match="rows="):
            stack.entropies(row, 0.3)
    for rows in (np.array([0, -1]), np.array([6, 0])):
        with pytest.raises(DomainError, match="rows="):
            stack.entropies(rows, np.array([0.3, 0.4]))


def test_pair_stack_entropies_reject_weights_not_shaped_like_the_rows():
    stack = PairStack(_mixed_pairs(np.random.default_rng(43)))
    for rows, t in (
        (np.array([0]), 0.3),
        (np.array([0, 1]), np.array([0.3])),
        (np.array([0, 1]), [0.3, 0.4]),
        (np.array([0, 1]), np.array(["0.3", "0.4"])),
    ):
        with pytest.raises(DomainError, match="rows="):
            stack.entropies(rows, t)
    for t in (np.array([0.3]), [0.3], "0.3", None):
        with pytest.raises(DomainError, match="weight must be a number"):
            stack.entropies(0, t)


def test_pair_stack_entropies_reject_rows_of_other_kinds():
    stack = PairStack(_mixed_pairs(np.random.default_rng(43)))
    for rows, t in (
        (0.0, 0.3),
        ("0", 0.3),
        (None, 0.3),
        ([0, 1], np.array([0.3, 0.4])),
        (np.array([0.0, 1.0]), np.array([0.3, 0.4])),
        (np.array([[0, 1]]), np.array([[0.3, 0.4]])),
    ):
        with pytest.raises(DomainError, match="rows="):
            stack.entropies(rows, t)


def test_pair_stack_holds_each_operator_once():
    pairs = _mixed_pairs(np.random.default_rng(41))
    stack = PairStack(pairs)
    for k, pair in enumerate(pairs):
        for side, ops in zip("AB", stack.operators(k)):
            for rho, s in zip(ops, pair):
                assert np.array_equal(rho, reduced_density(s, side))
                assert np.shares_memory(rho, rho.base)
    # each operator is a view of the one stack of its side and dimension:
    # rows 0 and 4 are both 2 x 3, and rows 0 and 2 share only dim_a = 2
    (a0, b0), (a2, b2), (a4, b4) = (stack.operators(k) for k in (0, 2, 4))
    for x, y in ((a0, a2), (a0, a4), (b0, b4)):
        assert x[0].base is y[0].base and x[1].base is y[1].base
    assert not np.shares_memory(b0[0], b2[0].base)


# -- joint properties ------------------------------------------------------------


def test_araki_lieb_and_concavity_sandwich():
    rng = np.random.default_rng(29)
    for _ in range(40):
        da, db = rng.integers(2, 6), rng.integers(2, 6)
        psi = random_state(rng, da, db)
        phi = random_state(rng, da, db)
        t = float(rng.uniform(0.05, 0.95))
        s_ab = mixture_entropy(t, abs(inner_product(psi, phi)) ** 2)
        s_a, s_b = PairStack([(psi, phi)]).entropies(0, t)
        assert s_ab - abs(s_a - s_b) >= -1e-9
        excess = s_a - t * entanglement_entropy(psi) - (1.0 - t) * entanglement_entropy(phi)
        assert excess >= -1e-9
        assert excess <= binary_entropy(t) + 1e-9


def test_one_sided_pairs_have_larger_b_entropy():
    # Lemma 1: the B-side supports are orthogonal, so rho_B(t) is the direct
    # sum t rho_B(psi) + (1-t) rho_B(phi) and S_B(t) = t E(psi) + (1-t) E(phi) + h2(t).
    for d1, d2, dim_a in ((2, 2, 3), (1, 3, 4), (3, 2, 5), (4, 4, 4), (2, 5, 6)):
        for seed in range(10):
            psi, phi = harness.generate_one_sided_pair(d1, d2, dim_a, seed)
            e_psi, e_phi = entanglement_entropy(psi), entanglement_entropy(phi)
            for t in (0.1, 0.5, 0.9):
                s_a, s_b = PairStack([(psi, phi)]).entropies(0, t)
                assert s_b >= s_a - 1e-9
                lemma1 = t * e_psi + (1.0 - t) * e_phi + binary_entropy(t)
                assert s_b == pytest.approx(lemma1, abs=1e-10), (d1, d2, dim_a, seed, t)


def test_exact_formula_identity_for_generated_pairs():
    rng = np.random.default_rng(31)
    for seed in range(15):
        psi, phi = harness.generate_one_sided_pair(2, 2, 3, seed)
        alpha, beta = random_sphere_pair(rng)
        t = abs(alpha) ** 2
        gamma = superpose(alpha, psi, beta, phi)
        lhs = entanglement_entropy(gamma)
        s_ab = mixture_entropy(t, abs(inner_product(psi, phi)) ** 2)
        s_a, s_b = PairStack([(psi, phi)]).entropies(0, t)
        rhs = (
            t * entanglement_entropy(psi)
            + (1.0 - t) * entanglement_entropy(phi)
            + s_ab
            - abs(s_a - s_b)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)
