"""Bracketed scalar optimization: grid + golden-section search.

Objectives here involve the binary entropy, whose derivative blows up at the
interval endpoints, so nothing in this module uses derivatives.

``minimize_many`` is the one golden-section implementation; it runs n
searches in lockstep and ``minimize_scalar`` is its n = 1 case.  Its
objective ``f(rows, x)`` takes an int and a float when one search steps, so
a single search runs on plain floats, and an int array and a float array
when several do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonFiniteObjective

__all__ = [
    "OptimizerResult",
    "grid_points",
    "evaluate",
    "minimize_many",
    "minimize_scalar",
    "maximize_scalar",
]

DEFAULT_GRID_N = 257
# Golden-section search stops at a bracket narrower than TOL or after
# MAX_ITER steps; from two grid steps of [0, 1] it takes about 40.
TOL = 1e-10
MAX_ITER = 200

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizerResult:
    x_star: float
    value: float
    iterations: int
    converged: bool


@functools.lru_cache(maxsize=16)
def grid_points(a: float, b: float, grid_n: int) -> tuple[float, ...]:
    """The exact uniform evaluation grid used by the searches below."""
    step = (b - a) / (grid_n - 1)
    return tuple(a + i * step for i in range(grid_n - 1)) + (b,)


def evaluate(f: Callable, rows: Sequence[int], xs: Sequence[float]) -> list[float]:
    """[f at xs[k] for search rows[k]] from one call ``f(rows, x)``; raises
    NonFiniteObjective, naming the point, for a NaN or infinite value."""
    if len(rows) == 1:
        return [_value(f, rows[0], xs[0])]
    values = np.asarray(f(np.array(rows, dtype=int), np.array(xs)), dtype=float)
    if not np.isfinite(values).all():
        k = int(np.argmin(np.isfinite(values)))
        raise NonFiniteObjective(f"objective returned {float(values[k])!r} at x={xs[k]!r}")
    return values.tolist()


def _value(f: Callable, row: int, x: float) -> float:
    v = float(f(row, x))
    if not math.isfinite(v):
        raise NonFiniteObjective(f"objective returned {v!r} at x={x!r}")
    return v


def minimize_many(
    f: Callable, a: float, b: float, grid_values: np.ndarray
) -> list[OptimizerResult]:
    """Minimize n objectives on [a, b] in lockstep, row r of the (n, G) array
    ``grid_values`` holding search r's values on ``grid_points(a, b, G)``.

    Each search refines the bracket around its best grid point (the first of
    equal minima) until it is narrower than TOL; one on the edge starts one
    grid step wide and finishes early.  Each step is one call ``f(rows, x)``
    for the searches still going, and each search gets the bits it gets alone.
    Each grid value must be ``f`` there or above its row's grid minimum of
    ``f``, which leaves the best grid point, and with it the whole search,
    unchanged.
    """
    vals = np.asarray(grid_values, dtype=float)
    n, grid_n = vals.shape
    xs = grid_points(a, b, grid_n)
    finite = np.isfinite(vals)
    if not finite.all():
        r, i = np.argwhere(~finite)[0]
        raise NonFiniteObjective(f"objective returned {float(vals[r, i])!r} at x={xs[i]!r}")
    searches = [
        _golden_section(xs[max(i - 1, 0)], xs[min(i + 1, grid_n - 1)], xs[i], v)
        for i, v in zip(vals.argmin(axis=1).tolist(), vals.min(axis=1).tolist())
    ]
    results: list = [None] * n
    active, probes = list(range(n)), [search.send(None) for search in searches]
    while len(active) > 1:
        going, next_probes = [], []
        for r, value in zip(active, evaluate(f, active, probes)):
            try:
                next_probes.append(searches[r].send(value))
                going.append(r)
            except StopIteration as stop:
                results[r] = stop.value
        active, probes = going, next_probes
    if active:  # the last search steps alone, with less overhead per step
        (r,), (x,) = active, probes
        try:
            while True:
                x = searches[r].send(_value(f, r, x))
        except StopIteration as stop:
            results[r] = stop.value
    return results


def _golden_section(lo: float, hi: float, best_x: float, best_v: float):
    """Golden-section search of [lo, hi] from the best point (best_x, best_v),
    as a generator: it yields each point it needs, is sent f there, and
    returns the OptimizerResult."""
    c = hi - (hi - lo) * _INV_PHI
    d = lo + (hi - lo) * _INV_PHI
    fc = yield c
    fd = yield d
    iterations = 0
    while (hi - lo) > TOL and iterations < MAX_ITER:
        if fc < best_v:
            best_x, best_v = c, fc
        if fd < best_v:
            best_x, best_v = d, fd
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * _INV_PHI
            fc = yield c
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * _INV_PHI
            fd = yield d
        iterations += 1
    for x, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_x, best_v = x, v
    return OptimizerResult(best_x, best_v, iterations, converged=(hi - lo) <= TOL)


def minimize_scalar(f: Callable[[float], float], a: float, b: float) -> OptimizerResult:
    """Global-ish minimization of ``f(x)`` on [a, b]: ``minimize_many`` for one
    search, from ``f`` on ``grid_points(a, b, DEFAULT_GRID_N)``.  The coarse
    grid guards against multiple local minima, and the value never exceeds
    any grid sample.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a!r}, {b!r}]")
    vals = np.asarray([[f(x) for x in grid_points(a, b, DEFAULT_GRID_N)]], dtype=float)
    return minimize_many(lambda _, x: f(x), a, b, vals)[0]


def maximize_scalar(f: Callable[[float], float], a: float, b: float) -> OptimizerResult:
    """As ``minimize_scalar`` with the sign flipped."""
    res = minimize_scalar(lambda x: -f(x), a, b)
    return replace(res, value=-res.value)
