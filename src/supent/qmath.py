"""Dense complex linear-algebra and entropy kernel.

All entropies are in bits (base-2 logarithms), so entanglement values come
out in ebits.  Matrices are plain complex numpy arrays; spectra carry the sum
they are expected to have as metadata.
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
            raise ValueError("spectrum values must be one-dimensional")
        if not np.all(np.isfinite(v)):
            raise ValueError("spectrum values must be finite")
        if v.size > 1 and np.any(np.diff(v) > 0.0):
            raise ValueError("spectrum values must be sorted descending")
        tol = 1e-9 * max(1.0, abs(self.trace), float(np.abs(v).sum()))
        if abs(float(v.sum()) - self.trace) > tol:
            raise ValueError("spectrum values do not sum to the stated trace")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)


def as_complex_matrix(matrix) -> np.ndarray:
    """Validate and coerce input to a finite 2-D complex array."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def psd_entropy(rho):
    """Entropy -tr rho log2 rho of a unit-trace PSD matrix, or of each in a stack.

    ``rho`` is one d x d matrix (the result is a float) or a stack of shape
    (..., d, d) (an array of shape (...)).  Eigenvalues at or below zero
    contribute nothing.  Each matrix of a stack gets the same bits as it
    would alone, so a value never depends on how the calls were batched.

    Raises ``NoConvergence`` if the diagonalization fails.
    """
    try:
        w = np.linalg.eigvalsh(rho)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    s = np.maximum(_entropy_sum(np.where(w > 0.0, w, 1.0)), 0.0)
    return float(s) if s.ndim == 0 else s


def singular_values(matrix) -> Spectrum:
    """Descending singular values of an arbitrary complex matrix.

    Returns min(rows, cols) values; their squares sum to the squared
    Frobenius norm of the input.
    """
    m = as_complex_matrix(matrix)
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value iteration failed: {exc}") from exc
    return Spectrum(values=s, trace=float(s.sum()))


def shannon_entropy(p) -> float:
    """Shannon entropy -sum p_i log2 p_i of a probability spectrum, in bits.

    Accepts a ``Spectrum`` or any array-like of probabilities; they must sum
    to 1 and be >= 0, each within 1e-8.  Entries at or below zero contribute
    nothing: only when there are some are the positive entries compressed
    into a copy; an all-positive input is summed as it is, with one
    temporary its size.  The input is never written to.
    """
    values = p.values if isinstance(p, Spectrum) else np.asarray(p, dtype=float)
    values = values.reshape(-1)
    low = float(values.min(initial=math.inf))
    if not low >= -1e-8:  # NaN fails too; -inf fails before a sum warns
        raise DomainError(f"probabilities must be >= -1e-8, found {low!r}")
    total = float(values.sum())
    if not abs(total - 1.0) <= 1e-8:  # NaN fails too
        raise NotNormalized(f"probabilities sum to {total!r}, expected 1")
    if not low > 0.0:
        values = values[values > 0.0]
    return max(0.0, float(_entropy_sum(values)))


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
    either way.  Raises DomainError for NaN or for a value outside [0, 1] by
    more than H2_DOMAIN_SLACK.
    """
    if isinstance(x, np.ndarray):
        if not np.all((x >= -H2_DOMAIN_SLACK) & (x <= 1.0 + H2_DOMAIN_SLACK)):
            raise DomainError("binary entropy argument outside [0, 1]")
        return np.fromiter(map(_h2, x.ravel().tolist()), float, x.size).reshape(x.shape)
    if not -H2_DOMAIN_SLACK <= x <= 1.0 + H2_DOMAIN_SLACK:
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
