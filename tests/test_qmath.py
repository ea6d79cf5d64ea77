import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supent import qmath
from supent.errors import DomainError, NoConvergence, NotNormalized, SupentError
from supent.qmath import (
    H2_DOMAIN_SLACK,
    PROB_SLACK,
    Spectrum,
    binary_entropy,
    check_integer,
    psd_entropy,
    shannon_entropy,
    singular_values,
)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 40),
    ranks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_psd_entropy_stack_matches_single_matrices(seed, d, ranks):
    # unit-trace PSD matrices of rank 1..d; rank-deficient ones leave zero
    # and round-off eigenvalues in the sum
    rng = np.random.default_rng(seed)
    stack = []
    for fraction in ranks:
        r = 1 + int(fraction * (d - 1))
        g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        rho = g @ g.conj().T
        stack.append(rho / np.trace(rho).real)
    stack = np.array(stack)
    together = psd_entropy(stack)
    assert together.shape == (len(ranks),)
    for rho, s in zip(stack, together):
        alone = psd_entropy(rho)
        assert isinstance(alone, float)
        assert alone == s
        assert alone == pytest.approx(shannon_entropy(np.linalg.eigvalsh(rho)), abs=1e-12)


def test_psd_entropy_diagonalization_failure_is_no_convergence(monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    with pytest.raises(NoConvergence):
        psd_entropy(np.eye(2) / 2)
    with pytest.raises(NoConvergence):
        psd_entropy(np.array([np.eye(2) / 2] * 3))



def test_psd_entropy_of_a_non_finite_matrix_is_a_domain_error():
    # a NaN eigenvalue masked to 1.0 would give an entropy of 0.0
    nan = np.full((2, 2), np.nan)
    for rho in (nan, np.array([np.eye(2) / 2, nan]), np.array([[0.5, np.inf], [np.inf, 0.5]])):
        with pytest.raises(DomainError, match="NaN eigenvalue"):
            psd_entropy(rho)


def test_check_integer_takes_integers_in_range_only():
    check_integer(0, 3, a=0, b=np.int64(3), c=3)
    for bad in (4, -1, 2.0, True, np.float64(1.0), "1", None):
        with pytest.raises(DomainError, match=f"x = {re.escape(repr(bad))} is not an integer"):
            check_integer(0, 3, x=bad)
    with pytest.raises(NotNormalized):
        check_integer(0, 3, NotNormalized, x=4)


def test_matrix_checks_reject_1d_and_non_finite_input():
    for check, shape_word in ((qmath.as_complex_matrix, "2-D matrix"), (singular_values, "stack of them")):
        with pytest.raises(DomainError, match=shape_word):
            check(np.ones(3))
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            m = np.eye(2, dtype=complex)
            m[1, 0] = bad
            with pytest.raises(DomainError, match="entries must be finite"):
                check(m)


def test_singular_values_bell_coefficients():
    sv = singular_values(np.eye(2) / math.sqrt(2.0))
    assert np.allclose(sv, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_singular_values_padded_diagonal():
    c = np.zeros((3, 4))
    c[0, 0], c[1, 1], c[2, 2] = math.sqrt(0.5), 0.5, 0.5
    sv = singular_values(c)
    assert np.allclose(sv, [math.sqrt(0.5), 0.5, 0.5], atol=1e-12)
    assert len(sv) == 3


def test_singular_values_square_against_gram_eigenvalues():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    sv = singular_values(c)
    ev = np.linalg.eigvalsh(c @ c.conj().T)[::-1]
    assert np.allclose(sv**2, ev, atol=1e-9)


def test_singular_value_gram_identity_up_to_8x8():
    rng = np.random.default_rng(11)
    for rows in range(1, 9):
        for cols in (1, rows, 8):
            c = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            sv = singular_values(c)
            ev = np.linalg.eigvalsh(c @ c.conj().T)[::-1]
            assert np.allclose(sv**2, ev[: len(sv)], atol=1e-9)
            # a stack gives each matrix the bits it gets alone
            stacked = singular_values(np.stack([c.conj(), c]))
            assert np.array_equal(stacked[1], sv)


def test_shannon_entropy_reference_values():
    assert shannon_entropy(np.array([1.0])) == 0.0
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy(np.ones(3) / 3) == pytest.approx(math.log2(3.0), abs=1e-12)


def test_shannon_entropy_requires_normalization():
    with pytest.raises(NotNormalized):
        shannon_entropy(np.array([0.5, 0.4]))


def test_shannon_entropy_rejects_nan_and_negative_entries():
    # NaN and a negative entry are no probabilities, even where the sum
    # comes out 1
    for p in ([0.5, 0.5, math.nan], [1.5, -0.5], [1.0, math.inf, -math.inf], [math.nan]):
        with pytest.raises(SupentError):
            shannon_entropy(np.array(p))
    # eigenvalue rounding below 0 is still a probability
    assert shannon_entropy(np.array([0.5 + 1e-15, 0.5, -1e-15])) == pytest.approx(1.0)


def test_shannon_entropy_accepts_spectrum():
    spec = Spectrum(values=np.array([0.5, 0.5]), trace=1.0)
    assert shannon_entropy(spec) == pytest.approx(1.0)


def _read_only(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


def _shannon_spectra(n, rng):
    """Probability vectors of size n: all positive, then (for n >= 3) with
    interior and trailing zeros, then with tiny negative entries."""
    p = rng.random(n) + 0.01
    yield p / p.sum()
    if n < 3:
        return
    z = rng.random(n) + 0.01
    z[1:-1:3] = 0.0
    z[-1] = 0.0
    yield z / z.sum()
    neg = p / p.sum()
    neg[2::5] = -1e-12 * rng.random(neg[2::5].size)
    neg[0] += 1.0 - neg.sum()
    yield neg


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000, 2**16 + 1])
def test_shannon_entropy_has_the_bits_of_the_masked_sum(n):
    # the formula the kernel replaced: drop entries <= 0, then sum
    # -p log2 p over the copy; inputs are read-only, so a kernel that
    # writes into the caller's array fails here
    rng = np.random.default_rng(n)
    for p in _shannon_spectra(n, rng):
        p = _read_only(p)
        pos = p[p > 0.0]
        expected = max(0.0, float(-(pos * np.log2(pos)).sum()))
        assert shannon_entropy(p).hex() == expected.hex()


def _run_spectra(levels, rng):
    """Seeded run-form spectra (values, counts) with ``levels`` distinct
    values summing to 1: all positive, then with a zero and a tiny negative
    run where there are three levels."""
    for _ in range(20):
        counts = rng.integers(1, 5000, levels)
        w = rng.random(levels) + 0.01
        yield w / (w @ counts), counts
    if levels == 3:
        for low in (0.0, -1e-12):
            counts = rng.integers(1, 5000, 3)
            w = rng.random(3) + 0.01
            w[1] = 0.0
            w /= w @ counts
            w[1] = low
            yield w, counts


@pytest.mark.parametrize("levels", [2, 3])
def test_run_entropy_has_the_bits_of_the_dense_spectrum(levels):
    rng = np.random.default_rng(levels)
    for values, counts in _run_spectra(levels, rng):
        dense = shannon_entropy(np.repeat(values, counts))
        assert qmath._run_entropy(values, counts).hex() == dense.hex()


def test_run_entropy_rejects_what_the_dense_path_rejects():
    # a run below -PROB_SLACK, a sum off 1 by 1e-7 (in one entry and spread
    # over a long run), NaN and inf
    cases = [
        (DomainError, [0.5, 0.5 + 2 * PROB_SLACK, -2 * PROB_SLACK], [1, 1, 1]),
        (NotNormalized, [0.5, 0.5 + 1e-7], [1, 1]),
        (NotNormalized, [0.5, (0.5 + 1e-7) / 4096], [1, 4096]),
        (DomainError, [0.5, math.nan], [1, 2]),
        (NotNormalized, [1.0, math.inf], [1, 3]),
    ]
    for error, values, counts in cases:
        values = np.array(values)
        with pytest.raises(error):
            shannon_entropy(np.repeat(values, counts))
        with pytest.raises(error):
            qmath._run_entropy(values, counts)
    # rounding inside the slack passes both
    values = np.array([0.5, (0.5 + 0.5 * PROB_SLACK) / 4096, -0.5 * PROB_SLACK])
    counts = [1, 4096, 1]
    dense = shannon_entropy(np.repeat(values, counts))
    assert qmath._run_entropy(values, counts).hex() == dense.hex()


def test_psd_entropy_has_the_bits_of_the_masked_sum():
    # single matrices and stacks whose spectra hold exact zeros, tiny
    # negative eigenvalues and round-off from rank deficiency, all read-only
    rng = np.random.default_rng(3)
    diagonal = [
        np.diag([0.5, 0.25, 0.25, 0.0]),
        np.diag([0.5, 0.5 + 1e-17, -1e-17, 0.0]),
        np.diag([1.0, 0.0, 0.0, 0.0]),
        np.diag([1.0 + 2e-16, -1e-16, -1e-16, 0.0]),
    ]
    low_rank = []
    for r in (1, 2, 4):
        g = rng.standard_normal((4, r)) + 1j * rng.standard_normal((4, r))
        rho = g @ g.conj().T
        low_rank.append(rho / np.trace(rho).real)
    for rho in [*diagonal, *low_rank, np.array(diagonal), np.array(low_rank)]:
        rho = _read_only(rho)
        w = np.linalg.eigvalsh(rho)
        w = np.where(w > 0.0, w, 1.0)
        expected = np.maximum(-(w * np.log2(w)).sum(axis=-1), 0.0)
        got = psd_entropy(rho)
        assert [float(x).hex() for x in np.ravel(got)] == [float(x).hex() for x in np.ravel(expected)]


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_symmetric(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_binary_entropy_reference_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(1.0 / 50.0) == pytest.approx(0.141441, abs=5e-7)
    h = binary_entropy(np.array([0.5, 0.0, 1.0, 1.0 / 50.0]))
    assert h.tolist() == pytest.approx([1.0, 0.0, 0.0, 0.141441], abs=5e-7)


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-1e-6)
    with pytest.raises(DomainError):
        binary_entropy(1.0 + 1e-6)
    with pytest.raises(DomainError):
        binary_entropy(np.array([0.5, 1.0 + 1e-6]))
    for nan in (math.nan, np.array([0.3, math.nan])):
        with pytest.raises(DomainError):
            binary_entropy(nan)
    # check_numbers' rule: no bools, only reals, in both forms
    for bad in (
        True, False, np.bool_(True), "a", None, 0.3j, [0.3],
        np.array(["a"]), np.array([True]), np.array([0.3j]),
    ):
        with pytest.raises(DomainError):
            binary_entropy(bad)
    assert binary_entropy(1) == binary_entropy(np.int64(0)) == 0.0
    assert binary_entropy(np.float64(0.3)) == binary_entropy(0.3)
    # within slack
    assert binary_entropy(-1e-13) == 0.0
    assert binary_entropy(np.array([-1e-13, 1.0 + 1e-13])).tolist() == [0.0, 0.0]


def test_binary_entropy_array_has_the_bits_of_the_float_calls():
    # np.log2 and math.log2 differ in the last bit on about 0.2 % of weights;
    # every entry of an array must still get the bits of the float call.
    rng = np.random.default_rng(53)
    edges = [0.0, 1.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53]
    clips = [-H2_DOMAIN_SLACK, 1.0 + H2_DOMAIN_SLACK]
    x = np.concatenate(
        [
            rng.uniform(0.0, 1.0, 20_000),
            rng.uniform(0.0, 1e-6, 500),
            1.0 - rng.uniform(0.0, 1e-6, 500),
            edges,
            clips,
        ]
    )
    assert binary_entropy(x).tolist() == [binary_entropy(v) for v in x.tolist()]
    block = x[:12].reshape(3, 4)
    rows = [[binary_entropy(v) for v in row] for row in block.tolist()]
    assert binary_entropy(block).tolist() == rows


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12))
def test_shannon_entropy_permutation_invariant_and_bounded(weights):
    p = np.array(weights) / sum(weights)
    h = shannon_entropy(p)
    assert h == pytest.approx(shannon_entropy(p[::-1].copy()), abs=1e-10)
    assert -1e-12 <= h <= math.log2(len(p)) + 1e-9


def test_spectrum_validates_ordering_and_trace():
    with pytest.raises(DomainError):
        Spectrum(values=np.array([0.1, 0.9]), trace=1.0)
    with pytest.raises(DomainError):
        Spectrum(values=np.array([0.9, 0.1]), trace=2.0)
