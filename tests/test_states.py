import math

import numpy as np
import pytest

from helpers import (
    diagonal_family_states,
    entanglement_entropy,
    random_state,
    random_sphere_pair,
    random_unitary,
    trace_overlaps,
)
from supent import harness, qmath, states
from supent.errors import DimMismatch, DomainError, NotNormalized, ZeroState
from supent.qmath import binary_entropy
from supent.states import (
    BipartiteState,
    PairStack,
    classify_orthogonality,
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
    psi, phi = diagonal_family_states(5, "example3")
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


@pytest.mark.parametrize("side", ["a", "C", "AB", ""])
def test_unknown_reduced_density_side_is_rejected(side):
    with pytest.raises(DomainError, match="side"):
        reduced_density(bell_state(), side)


# -- entanglement_entropy ----------------------------------------------------


def test_entanglement_product_state():
    assert entanglement_entropy(basis_state(2, 2, 0, 0)) == 0.0


def test_entanglement_triple_state():
    psi, phi = harness.overlapping_triple_pair()
    assert entanglement_entropy(psi) == pytest.approx(1.5, abs=1e-12)
    assert entanglement_entropy(phi) == pytest.approx(1.5, abs=1e-12)


def test_entanglement_family_state_d5():
    psi, _ = diagonal_family_states(5, "example3")
    assert entanglement_entropy(psi) == pytest.approx(0.5 * math.log2(4.0) + 1.0, abs=1e-12)


def test_entanglement_zero_state_rejected():
    with pytest.raises(ZeroState):
        entanglement_entropy(BipartiteState(np.zeros((2, 2))))


def _masked_entropy(s):
    """Entanglement by the one-state formula: one SVD, then -sum p log2 p
    over the positive p = sigma^2 / ||s||^2, dropping the rest."""
    n2 = float(np.vdot(s.coeffs, s.coeffs).real)
    p = np.linalg.svd(s.coeffs, compute_uv=False) ** 2 / n2
    pos = p[p > 0.0]
    return max(0.0, float(-(pos * np.log2(pos)).sum()))


def _mixed_states(rng):
    """Normalized, unnormalized, low-rank and diagonal rank-deficient states,
    their shapes interleaved."""
    shapes = [(2, 2), (3, 5), (5, 3), (16, 16), (1, 4), (12, 9)]
    for k in range(72):
        dim_a, dim_b = shapes[k % len(shapes)]
        g = rng.standard_normal((dim_a, dim_b)) + 1j * rng.standard_normal((dim_a, dim_b))
        kind = k // len(shapes) % 4
        if kind == 1:
            g *= 10.0 ** rng.uniform(-5.0, 5.0)
        elif kind == 2:  # rank r: singular values beyond r round to ~1e-16
            r = 1 + k % min(dim_a, dim_b)
            g = g[:, :r] @ rng.standard_normal((r, dim_b))
        elif kind == 3:  # exact zeros among the singular values
            m = min(dim_a, dim_b)
            diag = rng.random(m) + 0.1
            diag[1::3] = 0.0
            g = np.zeros((dim_a, dim_b), dtype=complex)
            g[range(m), range(m)] = diag
        yield BipartiteState(g)


def test_stacked_entanglement_has_each_states_bits():
    # zeros in a spectrum must leave its sum as the masked copy's; padding
    # them with 1.0 would reorder numpy's pairwise sum past 8 entries
    batch = list(_mixed_states(np.random.default_rng(41)))
    expected = [_masked_entropy(s).hex() for s in batch]
    assert [e.hex() for e in states.entanglement_entropies(batch)] == expected
    assert [entanglement_entropy(s).hex() for s in batch] == expected
    zeros = [s for s in batch if np.any(np.linalg.svd(s.coeffs, compute_uv=False) == 0.0)]
    assert any(min(s.coeffs.shape) > 8 for s in zeros)
    assert states.entanglement_entropies([]) == []


def test_stacked_entanglement_raises_as_one_state():
    good = [bell_state(), basis_state(2, 3, 0, 1), bell_state()]
    for bad, error in (
        (BipartiteState(np.zeros((2, 2))), ZeroState),
        (BipartiteState(np.full((2, 3), 1e200)), DomainError),
    ):
        with pytest.raises(error) as alone:
            entanglement_entropy(bad)
        with pytest.raises(error) as stacked:
            states.entanglement_entropies([good[0], bad, *good[1:]])
        assert str(stacked.value) == str(alone.value)


def test_stacked_shannon_entropy_raises_for_the_first_bad_row():
    rows = np.array([[0.5, 0.5], [0.5, 0.4], [1.5, -0.5], [0.25, 0.75]])
    with pytest.raises(NotNormalized) as stacked:
        qmath.shannon_entropy(rows)
    with pytest.raises(NotNormalized) as alone:
        qmath.shannon_entropy(rows[1])
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(DomainError):
        qmath.shannon_entropy(rows[[0, 2, 1]])
    got = qmath.shannon_entropy(rows[[0, 3]].reshape(2, 1, 2))
    assert got.shape == (2, 1)
    assert got.ravel().tolist() == [qmath.shannon_entropy(rows[0]), qmath.shannon_entropy(rows[3])]


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
    assert classify_orthogonality(PairStack([(psi, phi)]), 0) is True
    assert max(trace_overlaps(psi, phi)) <= states.ORTHOGONALITY_TOL
    assert abs(inner_product(psi, phi)) <= 1e-12


def test_classify_block_pair_one_sided_only():
    psi, phi = harness.bell_block_pair()
    assert classify_orthogonality(PairStack([(psi, phi)]), 0) is True
    overlap_a, overlap_b = trace_overlaps(psi, phi)
    assert overlap_b <= states.ORTHOGONALITY_TOL
    assert overlap_a > states.ORTHOGONALITY_TOL
    assert abs(inner_product(psi, phi)) <= 1e-12


def test_classify_identical_states():
    assert classify_orthogonality(PairStack([(bell_state(), bell_state())]), 0) is False
    assert min(trace_overlaps(bell_state(), bell_state())) > states.ORTHOGONALITY_TOL
    assert inner_product(bell_state(), bell_state()) == pytest.approx(1.0)


def test_one_sided_implies_orthogonal():
    for seed in range(6):
        psi, phi = harness.generate_one_sided_pair(2, 3, 3, seed)
        assert classify_orthogonality(PairStack([(psi, phi)]), 0) is True
        assert trace_overlaps(psi, phi)[1] <= states.ORTHOGONALITY_TOL
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
    assert type(mixture_entropy(np.float64(0.5), c2)) is float
    assert mixture_entropy(np.float64(0.5), c2) == mixture_entropy(0.5, c2)
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
    cases = ((0.3, math.nan), (math.nan, 0.5), (1.5, 0.0), (-0.2, 0.5), (0.3, 1.2), (1.5, 1.0))
    for t, c2 in cases + ((0.5, -1e-13), (math.inf, 1.0)):
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
    # rows 6 and 7 are 3 x 5 and 5 x 3: each one's A side shares a stack with
    # the other's B side
    pairs = _mixed_pairs(rng) + [
        (random_state(rng, *dims), random_state(rng, *dims)) for dims in ((3, 5), (5, 3))
    ]
    stack = PairStack(pairs)
    rows = np.array([0, 3, 6, 3, 1, 7, 5, 4, 2, 0, 7, 4, 6])
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


def _assert_operators_refuse(stack, row):
    # operators, and so classify_orthogonality, take the checked rows only
    for read in (stack.operators, lambda r: classify_orthogonality(stack, r)):
        with pytest.raises(DomainError, match="row = "):
            read(row)


def test_pair_stack_entropies_reject_a_bool_row():
    stack = PairStack(_mixed_pairs(np.random.default_rng(43)))
    for row in (True, False, np.bool_(True), np.array([True, False])):
        with pytest.raises(DomainError, match="rows="):
            stack.entropies(row, 0.3 if np.ndim(row) == 0 else np.array([0.3, 0.4]))
        _assert_operators_refuse(stack, row)


def test_pair_stack_entropies_reject_rows_outside_the_stack():
    stack = PairStack(_mixed_pairs(np.random.default_rng(43)))
    for row in (-1, 6, np.int64(-1), np.int64(6), 10**30):
        with pytest.raises(DomainError, match="rows="):
            stack.entropies(row, 0.3)
        _assert_operators_refuse(stack, row)
    # a wrapped row would answer for another: row 0 is orthogonal, row 1 not
    two = PairStack([(basis_state(2, 2, 0, 0), basis_state(2, 2, 1, 1)), (bell_state(), bell_state())])
    assert [classify_orthogonality(two, row) for row in (0, 1, np.int64(1))] == [True, False, False]
    for row in (-1, -2, 2, 1.0, "0", None):
        _assert_operators_refuse(two, row)
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
    for t in (np.array([0.3]), [0.3], "0.3", None, True, False, np.bool_(True), 0.3j):
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
    held = []  # (operator, (dimension, place in the pair))
    for k, pair in enumerate(pairs):
        for side, ops in zip("AB", stack.operators(k)):
            for i, (rho, s) in enumerate(zip(ops, pair)):
                assert np.array_equal(rho, reduced_density(s, side))
                assert np.shares_memory(rho, rho.base)
                held.append((rho, (rho.shape[0], i)))
    # each operator is a view of the one stack of its dimension, whichever
    # side of whichever row it belongs to: the B sides of rows 0 (2 x 3) and
    # 3 (4 x 3), both sides of row 1 (3 x 3) and the A side of row 5 (3 x 4)
    # share one stack
    for x, x_key in held:
        for y, y_key in held:
            assert (x.base is y.base) == (x_key == y_key)


def test_pair_stack_eigendecomposes_once_per_dimension(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    rng = np.random.default_rng(47)
    stack = PairStack(_mixed_pairs(rng))
    for rows in ([0], [0, 4], [1], [0, 1], [2, 3, 5], [5, 0, 3, 3], list(range(6)) * 3):
        rows = np.array(rows)
        calls.clear()
        stack.entropies(rows, rng.uniform(0.0, 1.0, rows.size))
        # one call for each distinct dimension among the requested sides,
        # together holding each (row, side) once
        dims = {ops[0].shape[0] for r in rows.tolist() for ops in stack.operators(r)}
        assert sorted(shape[-1] for shape in calls) == sorted(dims)
        assert sum(shape[0] for shape in calls) == 2 * rows.size
    # a row alone makes one call per distinct dimension among its sides, so
    # one for the square row 1, and each gets the bits of a row in an array
    for r in range(6):
        calls.clear()
        s_a, s_b = stack.entropies(r, 0.3)
        dims = [ops[0].shape[0] for ops in stack.operators(r)]
        assert calls == ([(2, dims[0], dims[0])] if dims[0] == dims[1] else [(d, d) for d in dims])
        assert [s_a, s_b] == [s[0] for s in stack.entropies(np.array([r]), np.array([0.3]))]
    # a one-row store broadcasts its pair over the weights: one call per side
    calls.clear()
    PairStack(_mixed_pairs(rng)[1:2]).entropies(np.zeros(5, dtype=int), np.linspace(0, 1, 5))
    assert calls == [(5, 3, 3), (5, 3, 3)]


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


def test_a_small_trace_overlap_on_both_sides_is_not_one_sided():
    # |00> against eps |00> + sqrt(1 - eps^2) |11>: trace overlap eps^2 = 1e-5
    # on each side, far above ORTHOGONALITY_TOL's rounding-level 1e-9
    eps = math.sqrt(1e-5)
    psi = BipartiteState(np.diag([1.0, 0.0]).astype(complex))
    phi = BipartiteState(np.diag([eps, math.sqrt(1.0 - eps**2)]).astype(complex))
    assert classify_orthogonality(PairStack([(psi, phi)]), 0) is False
    assert min(trace_overlaps(psi, phi)) > states.ORTHOGONALITY_TOL
