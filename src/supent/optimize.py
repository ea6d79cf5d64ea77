"""Bracketed scalar optimization: grid + golden-section, and bisection.

Objectives here involve the binary entropy, whose derivative blows up at the
interval endpoints, so nothing in this module uses derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import NoSignChange, NonFiniteObjective

__all__ = [
    "OptimizerResult",
    "grid_points",
    "minimize_scalar",
    "maximize_scalar",
    "find_root_bisect",
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
    return _finite(float(f(x)), x)


def _finite(v: float, x: float) -> float:
    if not math.isfinite(v):
        raise NonFiniteObjective(f"objective returned {v!r} at x={x!r}")
    return v


def grid_points(a: float, b: float, grid_n: int) -> list[float]:
    """The exact uniform evaluation grid used by the searches below."""
    step = (b - a) / (grid_n - 1)
    return [a + i * step for i in range(grid_n - 1)] + [b]


def minimize_scalar(
    f: Callable[[float], float],
    a: float,
    b: float,
    grid_n: int = DEFAULT_GRID_N,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    grid_values: Optional[Sequence[float]] = None,
) -> OptimizerResult:
    """Global-ish scalar minimization on [a, b].

    Evaluates ``f`` on ``grid_n`` uniform points, then refines around the
    best grid point with golden-section search until the bracket is narrower
    than ``tol``.  The coarse grid guards against multiple local minima; the
    returned value never exceeds any grid sample.

    ``grid_values``, when given, stands in for ``f`` on the grid
    (``grid_points(a, b, grid_n)``).  Each entry must be ``f`` there or a
    value above the grid minimum of ``f``, which leaves the best grid point,
    and with it the whole search, unchanged.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    if grid_n < 3:
        raise ValueError("grid_n must be at least 3")

    xs = grid_points(a, b, grid_n)
    if grid_values is None:
        vals = [_checked(f, x) for x in xs]
    else:
        if len(grid_values) != grid_n:
            raise ValueError(f"expected {grid_n} grid values, got {len(grid_values)}")
        vals = [_finite(float(v), x) for x, v in zip(xs, grid_values)]
    i_best = min(range(grid_n), key=vals.__getitem__)
    best_x, best_v = xs[i_best], vals[i_best]

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
) -> OptimizerResult:
    """As ``minimize_scalar`` with the sign flipped."""
    res = minimize_scalar(lambda x: -f(x), a, b, grid_n, tol, max_iter)
    return OptimizerResult(
        x_star=res.x_star,
        value=-res.value,
        iterations=res.iterations,
        converged=res.converged,
    )


def find_root_bisect(
    g: Callable[[float], float],
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> OptimizerResult:
    """Bisection root finding on [a, b]; requires g(a) * g(b) <= 0."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    ga = _checked(g, a)
    gb = _checked(g, b)
    if ga * gb > 0.0:
        raise NoSignChange(f"g({a!r})={ga!r} and g({b!r})={gb!r} have the same sign")
    iterations = 0
    while (b - a) > tol and iterations < max_iter:
        mid = 0.5 * (a + b)
        gm = _checked(g, mid)
        if ga * gm <= 0.0:
            b, gb = mid, gm
        else:
            a, ga = mid, gm
        iterations += 1
    x = 0.5 * (a + b)
    return OptimizerResult(
        x_star=x,
        value=_checked(g, x),
        iterations=iterations,
        converged=(b - a) <= tol,
    )
