"""Dense complex linear-algebra and entropy kernel.

All entropies are in bits (base-2 logarithms), so entanglement values come
out in ebits.  Matrices are plain complex numpy arrays; spectra carry the sum
they are expected to have as metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, NotHermitian, NotNormalized

__all__ = [
    "Spectrum",
    "as_complex_matrix",
    "hermitian_eigenvalues",
    "singular_values",
    "shannon_entropy",
    "binary_entropy",
    "binary_entropy_array",
]

DEFAULT_HERMITICITY_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Descending real spectrum plus the sum it should carry.

    ``values`` holds eigenvalues or singular values sorted in descending
    order; round-off negatives in ``[-tol, 0)`` are cleaned up by the
    producing operation.  ``trace`` is the sum the values are expected to
    have (matrix trace for eigenvalues, plain sum for singular values).
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


def hermitian_eigenvalues(matrix, tol: float = DEFAULT_HERMITICITY_TOL) -> Spectrum:
    """Eigenvalues of a Hermitian matrix, descending.

    Round-off negatives in ``[-tol, 0)`` are clipped to zero so that later
    entropy evaluations never see spurious negative probabilities; genuinely
    negative eigenvalues (below ``-tol``) pass through unchanged.

    Raises ``NotHermitian`` if ``max|M - M^dagger| > tol`` and
    ``NoConvergence`` if the diagonalization fails.
    """
    m = as_complex_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise NotHermitian(f"matrix is not square: shape {m.shape}")
    if m.size and float(np.max(np.abs(m - m.conj().T))) > tol:
        raise NotHermitian(f"matrix is not Hermitian within tol={tol:g}")
    try:
        w = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    w = np.where((w < 0.0) & (w >= -tol), 0.0, w)
    w = np.sort(w)[::-1]
    return Spectrum(values=w, trace=float(np.trace(m).real))


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


def binary_entropy(x: float, tol: float = 1e-12) -> float:
    """Binary entropy h2(x) = -x log2 x - (1-x) log2(1-x), with h2(0)=h2(1)=0."""
    if x < -tol or x > 1.0 + tol:
        raise DomainError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def binary_entropy_array(x, tol: float = 1e-12) -> np.ndarray:
    """Elementwise h2 of an array, with h2(0) = h2(1) = 0.

    numpy's log2 may differ from ``math.log2`` in the last bit, so values
    that are reported go through ``binary_entropy``; this form serves bounds
    that carry their own rounding allowance.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        raise DomainError("binary entropy argument outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    inside = (x > 0.0) & (x < 1.0)
    y = np.where(inside, x, 0.5)
    return np.where(inside, -y * np.log2(y) - (1.0 - y) * np.log2(1.0 - y), 0.0)
