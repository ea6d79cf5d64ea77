"""Dense complex linear-algebra and entropy kernel.

All entropies are in bits (base-2 logarithms), so entanglement values come
out in ebits.  Matrices are plain complex numpy arrays, and spectra plain
float arrays or a ``Spectrum``, which carries the sum it should have.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, NotNormalized

__all__ = [
    "Spectrum",
    "as_complex_matrix",
    "psd_entropy",
    "singular_values",
    "shannon_entropy",
    "binary_entropy",
]

# How far outside [0, 1] a binary-entropy argument may stray by round-off
# and still be clipped into the interval rather than rejected.
H2_DOMAIN_SLACK = 1e-12

# How far a sum of squared moduli may stray from 1 and still count as 1, and
# a probability fall below 0: a probability spectrum here, the squared norm of
# each state of a ``states.PairStack``, and |alpha|^2 + |beta|^2 of a
# ``bounds.SuperpositionProblem``.  Squared Schmidt coefficients, eigenvalues
# of a unit-trace density and the squared norm of a normalized state carry
# round-off of order 1e-15 per entry, so 1e-8 passes any computed unit sum and
# rejects a mis-normalized one.
PROB_SLACK = 1e-8

# How far a Spectrum's values may sum from its trace, relative to the larger
# of 1, |trace| and sum |values|: n summed values carry round-off of at most
# about n u (u = 2^-53) relative to sum |values|, under 1e-9 for any
# n < 9e6, and numpy's pairwise sum far less.
SPECTRUM_TRACE_SLACK = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Descending singular values plus the sum they should carry.

    ``trace`` is the sum ``values`` are expected to have.
    """

    values: np.ndarray
    trace: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise DomainError("spectrum values must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise DomainError("spectrum values must be finite")
        if v.size > 1 and np.any(np.diff(v) > 0.0):
            raise DomainError("spectrum values must be sorted descending")
        tol = SPECTRUM_TRACE_SLACK * max(1.0, abs(self.trace), float(np.abs(v).sum()))
        if abs(float(v.sum()) - self.trace) > tol:
            raise DomainError("spectrum values do not sum to the stated trace")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)


def as_complex_matrix(matrix) -> np.ndarray:
    """Validate and coerce input to a finite 2-D complex array."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise DomainError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    return m


def psd_entropy(rho):
    """Entropy -tr rho log2 rho of a unit-trace PSD matrix, or of each in a stack.

    ``rho`` is one d x d matrix (the result is a float) or a stack of shape
    (..., d, d) (an array of shape (...)).  Eigenvalues at or below zero
    contribute nothing.  Each matrix of a stack gets the same bits as it
    would alone, so a value never depends on how the calls were batched.

    Raises ``NoConvergence`` if the diagonalization fails, and DomainError
    if an eigenvalue is NaN (a matrix with a non-finite entry).
    """
    try:
        w = np.linalg.eigvalsh(rho)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    s = _entropy_sum(np.where(w <= 0.0, 1.0, w))  # a NaN eigenvalue makes its sum NaN
    if np.isnan(s).any():
        raise DomainError("a matrix has a NaN eigenvalue: its entries are not all finite")
    s = np.maximum(s, 0.0)
    return float(s) if s.ndim == 0 else s


def singular_values(matrix) -> np.ndarray:
    """Descending singular values of a complex matrix, or of each matrix in a
    stack of shape (..., rows, cols).

    Returns min(rows, cols) values per matrix; their squares sum to the
    squared Frobenius norm of that matrix.  A stack takes one LAPACK call,
    and each of its matrices gets the bits it gets alone.  Raises DomainError
    for fewer than two axes or a non-finite entry, and NoConvergence if the
    iteration fails.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2:
        raise DomainError(f"expected a matrix or a stack of them, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix entries must be finite")
    try:
        return np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value iteration failed: {exc}") from exc


def shannon_entropy(p):
    """Shannon entropy -sum p_i log2 p_i of a probability spectrum, in bits,
    or of each spectrum in a stack.

    ``p`` is a ``Spectrum`` or a 1-D array-like of probabilities, giving a
    float, or an array of shape (..., n) of spectra, giving an array of
    shape (...).  Each spectrum must sum to 1 and be >= 0, each within
    PROB_SLACK; the first that fails raises.  Entries at or below zero
    contribute nothing: only a spectrum with some has its positive entries
    compressed into a copy, so that the sum over them runs as it would alone.
    All-positive spectra are summed as they are, with one temporary their
    size.  Each spectrum of a stack gets the bits it gets alone, and the
    input is never written to.
    """
    values = p.values if isinstance(p, Spectrum) else np.asarray(p, dtype=float)
    one = values.ndim <= 1
    rows = values.reshape(1, -1) if one else values.reshape(math.prod(values.shape[:-1]), values.shape[-1])
    low = rows.min(axis=1, initial=math.inf).tolist()
    with np.errstate(invalid="ignore", over="ignore"):  # such a row fails below
        total = rows.sum(axis=1).tolist()
    for lo, sum_ in zip(low, total):
        _check_probabilities(lo, sum_)
    positive = [lo > 0.0 for lo in low]
    if all(positive):
        s = _entropy_sum(rows)
    else:
        s = np.empty(len(rows))
        s[positive] = _entropy_sum(rows[positive])
        for k in (k for k, pos in enumerate(positive) if not pos):
            s[k] = _entropy_sum(rows[k][rows[k] > 0.0])
    if one:
        return max(0.0, float(s[0]))
    return np.where(s > 0.0, s, 0.0).reshape(values.shape[:-1])


def _run_entropy(values: np.ndarray, counts) -> float:
    """``shannon_entropy(np.repeat(values, counts))``, with its bits and checks,
    taking logs of the distinct ``values`` only.

    ``counts`` are positive run lengths.  The checks run on the runs: the
    least value against -PROB_SLACK and ``values @ counts`` against 1.  The
    terms p log2 p of the positive values are repeated in the dense order
    into one array the size of the spectrum, so numpy's pairwise sum runs as
    it does over the dense terms.
    """
    counts = np.asarray(counts)
    with np.errstate(invalid="ignore", over="ignore"):  # such a spectrum fails below
        _check_probabilities(float(values.min()), float(values @ counts))
    positive = values > 0.0
    p = values[positive]
    terms = np.log2(p)
    terms *= p
    return max(0.0, float(-np.repeat(terms, counts[positive]).sum()))


def _check_probabilities(low: float, total: float) -> None:
    """Raise unless a spectrum with least entry ``low`` and sum ``total`` is a
    probability spectrum to PROB_SLACK."""
    if not low >= -PROB_SLACK:  # NaN fails too
        raise DomainError(f"probabilities must be >= {-PROB_SLACK!r}, found {low!r}")
    if not abs(total - 1.0) <= PROB_SLACK:
        raise NotNormalized(f"probabilities sum to {total!r}, expected 1")


def _entropy_sum(p: np.ndarray):
    """-sum p log2 p over the last axis of an array of positive entries.

    Allocates one temporary the size of ``p`` and leaves ``p`` unwritten;
    the sum runs over a fresh contiguous array, so its bits are those of
    ``-(p * np.log2(p)).sum(axis=-1)``.
    """
    terms = np.log2(p)
    terms *= p
    return -terms.sum(axis=-1)


def binary_entropy(x):
    """Binary entropy h2(x) = -x log2 x - (1-x) log2(1-x), with h2(0)=h2(1)=0.

    ``x`` is a number, giving a float, or an array, giving the elementwise
    h2.  Each entry of an array goes through the float arithmetic of a
    number, logs from ``math.log2`` included, so a weight gets the same bits
    either way.  Raises DomainError for NaN, for a value outside [0, 1] by
    more than H2_DOMAIN_SLACK, and for anything but a real number or array
    (a bool included), by ``check_numbers``' rule.
    """
    if isinstance(x, np.ndarray):
        real = x.dtype.kind in "iuf"
        if not (real and np.all((x >= -H2_DOMAIN_SLACK) & (x <= 1.0 + H2_DOMAIN_SLACK))):
            raise DomainError("binary entropy argument is not a real array in [0, 1]")
        return np.fromiter(map(_h2, x.ravel().tolist()), float, x.size).reshape(x.shape)
    if type(x) is not float:  # a float skips check_numbers, as slow as the rest
        check_numbers(-H2_DOMAIN_SLACK, 1.0 + H2_DOMAIN_SLACK, **{"binary entropy argument": x})
    elif not -H2_DOMAIN_SLACK <= x <= 1.0 + H2_DOMAIN_SLACK:
        raise DomainError(f"binary entropy argument {x!r} outside [0, 1]")
    return _h2(x)


def _h2(x: float) -> float:
    """h2(x), taken as 0 outside (0, 1)."""
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x) if 0.0 < x < 1.0 else 0.0


def check_numbers(lo: float, hi: float = math.inf, **named) -> None:
    """Raise DomainError unless each named value is a finite real in [lo, hi], not a bool."""
    for name, x in named.items():
        # a float skips the ABC check, which takes most of a call's time
        real = type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)
        if not (real and lo <= x <= hi and math.isfinite(x)):
            raise DomainError(f"{name}={x!r} is not a finite number in [{lo!r}, {hi!r}]")


def check_integer(lo: float, hi: float = math.inf, error=DomainError, /, **named) -> None:
    """Raise ``error`` unless each named value is an integer in [lo, hi], not a bool."""
    for name, x in named.items():
        # an int skips the ABC check, which takes most of a call's time
        integral = type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)
        if not (integral and lo <= x <= hi):
            raise error(f"{name} = {x!r} is not an integer in [{lo}, {hi}]")
