"""Bracketed scalar optimization: grid + golden-section search.

Objectives here involve the binary entropy, whose derivative blows up at the
interval endpoints, so nothing in this module uses derivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NonFiniteObjective

__all__ = [
    "OptimizerResult",
    "grid_points",
    "minimize_scalar",
    "maximize_scalar",
]

DEFAULT_GRID_N = 257
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizerResult:
    x_star: float
    value: float
    iterations: int
    converged: bool


def _checked(f: Callable[[float], float], x: float) -> float:
    v = float(f(x))
    if not math.isfinite(v):
        raise NonFiniteObjective(f"objective returned {v!r} at x={x!r}")
    return v


def grid_points(a: float, b: float, grid_n: int) -> list[float]:
    """The exact uniform evaluation grid used by the searches below."""
    step = (b - a) / (grid_n - 1)
    return [a + i * step for i in range(grid_n - 1)] + [b]


@functools.lru_cache(maxsize=16)
def _grid(a: float, b: float, grid_n: int) -> tuple[float, ...]:
    return tuple(grid_points(a, b, grid_n))


def minimize_scalar(
    f: Callable[[float], float],
    a: float,
    b: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    grid_values: Optional[np.ndarray | Sequence[float]] = None,
) -> OptimizerResult:
    """Global-ish scalar minimization on [a, b].

    Evaluates ``f`` on ``grid_n`` uniform points, then refines around the
    best grid point with golden-section search until the bracket is narrower
    than ``tol``.  The coarse grid guards against multiple local minima; the
    returned value never exceeds any grid sample.

    ``grid_values``, when given, stands in for ``f`` on the grid
    (``grid_points(a, b, grid_n)``): an array or sequence of ``grid_n``
    values, typically computed by one vectorized call.  Each entry must be
    ``f`` there or a value above the grid minimum of ``f``, which leaves the
    best grid point, and with it the whole search, unchanged.  Only the
    golden-section stage then calls ``f``, one point at a time.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")

    xs = _grid(a, b, grid_n)
    if grid_values is None:
        grid_values = [_checked(f, x) for x in xs]
    vals = np.asarray(grid_values, dtype=float)
    if vals.shape != (grid_n,):
        raise ValueError(f"expected {grid_n} grid values, got shape {vals.shape}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        i = int(bad[0])
        raise NonFiniteObjective(f"objective returned {float(vals[i])!r} at x={xs[i]!r}")
    # np.argmin, like min(), takes the first of equal minima
    i_best = int(np.argmin(vals))
    best_x, best_v = xs[i_best], float(vals[i_best])

    lo = xs[max(i_best - 1, 0)]
    hi = xs[min(i_best + 1, grid_n - 1)]
    c = hi - (hi - lo) * _INV_PHI
    d = lo + (hi - lo) * _INV_PHI
    fc = _checked(f, c)
    fd = _checked(f, d)
    iterations = 0
    while (hi - lo) > tol and iterations < max_iter:
        if fc < best_v:
            best_x, best_v = c, fc
        if fd < best_v:
            best_x, best_v = d, fd
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INV_PHI
            fc = _checked(f, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INV_PHI
            fd = _checked(f, d)
        iterations += 1
    for x, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_x, best_v = x, v
    return OptimizerResult(
        x_star=best_x,
        value=best_v,
        iterations=iterations,
        converged=(hi - lo) <= tol,
    )


def maximize_scalar(
    f: Callable[[float], float],
    a: float,
    b: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    grid_values: Optional[np.ndarray | Sequence[float]] = None,
) -> OptimizerResult:
    """As ``minimize_scalar`` with the sign flipped, ``grid_values`` included."""
    if grid_values is not None:
        grid_values = -np.asarray(grid_values, dtype=float)
    res = minimize_scalar(lambda x: -f(x), a, b, grid_n, tol, max_iter, grid_values)
    return OptimizerResult(
        x_star=res.x_star,
        value=-res.value,
        iterations=res.iterations,
        converged=res.converged,
    )

