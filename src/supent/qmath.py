"""Dense complex linear-algebra and entropy kernel.

All entropies are in bits (base-2 logarithms), so entanglement values come
out in ebits.  Matrices are plain complex numpy arrays; spectra carry the sum
they are expected to have as metadata.
"""

from __future__ import annotations

import math
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
    w = np.where(w > 0.0, w, 1.0)
    s = np.maximum(-(w * np.log2(w)).sum(axis=-1), 0.0)
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
    to 1 within 1e-8.  Zero entries contribute nothing (0 log 0 := 0).
    """
    values = p.values if isinstance(p, Spectrum) else np.asarray(p, dtype=float)
    total = float(values.sum())
    if abs(total - 1.0) > 1e-8:
        raise NotNormalized(f"probabilities sum to {total!r}, expected 1")
    pos = values[values > 0.0]
    if pos.size == 0:
        return 0.0
    return max(0.0, float(-(pos * np.log2(pos)).sum()))


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
