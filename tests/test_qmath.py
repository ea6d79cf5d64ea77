import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supent.errors import DomainError, NoConvergence, NotNormalized
from supent.qmath import (
    H2_DOMAIN_SLACK,
    Spectrum,
    binary_entropy,
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


def test_singular_values_bell_coefficients():
    spec = singular_values(np.eye(2) / math.sqrt(2.0))
    assert np.allclose(spec.values, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_singular_values_padded_diagonal():
    c = np.zeros((3, 4))
    c[0, 0], c[1, 1], c[2, 2] = math.sqrt(0.5), 0.5, 0.5
    spec = singular_values(c)
    assert np.allclose(spec.values, [math.sqrt(0.5), 0.5, 0.5], atol=1e-12)
    assert len(spec) == 3


def test_singular_values_square_against_gram_eigenvalues():
    rng = np.random.default_rng(7)
    c = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    sv = singular_values(c)
    ev = np.linalg.eigvalsh(c @ c.conj().T)[::-1]
    assert np.allclose(sv.values**2, ev, atol=1e-9)


def test_singular_value_gram_identity_up_to_8x8():
    rng = np.random.default_rng(11)
    for rows in range(1, 9):
        for cols in (1, rows, 8):
            c = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            sv = singular_values(c)
            ev = np.linalg.eigvalsh(c @ c.conj().T)[::-1]
            assert np.allclose(sv.values**2, ev[: len(sv)], atol=1e-9)
            assert sv.values.sum() == pytest.approx(sv.trace)


def test_shannon_entropy_reference_values():
    assert shannon_entropy(np.array([1.0])) == 0.0
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy(np.ones(3) / 3) == pytest.approx(math.log2(3.0), abs=1e-12)


def test_shannon_entropy_requires_normalization():
    with pytest.raises(NotNormalized):
        shannon_entropy(np.array([0.5, 0.4]))


def test_shannon_entropy_accepts_spectrum():
    spec = Spectrum(values=np.array([0.5, 0.5]), trace=1.0)
    assert shannon_entropy(spec) == pytest.approx(1.0)


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
    with pytest.raises(ValueError):
        Spectrum(values=np.array([0.1, 0.9]), trace=1.0)
    with pytest.raises(ValueError):
        Spectrum(values=np.array([0.9, 0.1]), trace=2.0)
