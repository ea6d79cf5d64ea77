"""Bracketed scalar optimization: grid + golden-section search.

Objectives here involve the binary entropy, whose derivative blows up at the
interval endpoints, so nothing in this module uses derivatives.

``minimize_many`` is the one golden-section implementation; it runs n
searches in lockstep and ``minimize_scalar`` is its n = 1 case.  Its
objective ``f(rows, x)`` takes an int and a float when one search steps, so
a single search runs on plain floats, and an int array and a float array
when several do.  A search stepping alone may take a certified floor of f
in place of f at a golden-section point, when the floor alone decides the
step.
"""

from __future__ import annotations

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


def grid_points(a: float, b: float, grid_n: int) -> tuple[float, ...]:
    """The uniform grid of grid_n floats from a to b, both included, as a tuple:
    the grid points ``minimize_many`` takes."""
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


def _floored(floor: Callable) -> Callable:
    """``_value`` for a search stepping alone, taking ``floor(row, x)`` in
    place of f where it lies strictly above ``bar``, the least value f has
    given: at or above the least value sent so far, so the floor may stand in
    for f (``_golden_section``)."""
    bar = math.inf

    def value(f: Callable, row: int, x: float) -> float:
        nonlocal bar
        v = floor(row, x)
        if not v > bar:  # f decides this step; a NaN floor never stands in
            v = _value(f, row, x)
            bar = min(bar, v)
        return v

    return value


def minimize_many(
    f: Callable, xs: tuple[float, ...], grid_values: np.ndarray, floor: Callable | None = None
) -> list[OptimizerResult]:
    """Minimize n objectives on [xs[0], xs[-1]] in lockstep, row r of the
    (n, G) array ``grid_values`` holding search r's values on the G ascending
    grid points ``xs``, a tuple of floats (DomainError unless len(xs) == G).

    Each search refines the bracket around its best grid point (the first of
    equal minima) until it is narrower than TOL; one on the edge starts one
    grid step wide and finishes early.  While several searches go, each step
    is one call ``f(rows, x)`` for all of them, and each search gets the bits
    it gets alone.  Each grid value must be ``f`` there or above its row's
    grid minimum of ``f``, which leaves the best grid point, and with it the
    whole search, unchanged.

    ``floor(r, x)``, if given, is a lower bound on ``f(r, x)``, or NaN,
    which is never taken.  A search stepping alone asks it first at each
    point and takes it in place of f when it lies strictly above the least
    value f has given that search alone, and so above the value the point is
    compared with (``_golden_section``): f is called only where its value
    decides the step.
    """
    vals = np.asarray(grid_values, dtype=float)
    n, grid_n = vals.shape
    if len(xs) != grid_n:
        raise DomainError(f"{len(xs)} grid points for {grid_n} grid values per search")
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
        # a search without a floor pays nothing for the floor's bookkeeping
        value = _value if floor is None else _floored(floor)
        try:
            while True:
                x = searches[r].send(value(f, r, x))
        except StopIteration as stop:
            results[r] = stop.value
    return results


def _golden_section(lo: float, hi: float, best_x: float, best_v: float):
    """Golden-section search of [lo, hi] from the best point (best_x, best_v),
    as a generator: it yields each point it needs, is sent f there, and
    returns the OptimizerResult.

    Each point after the first is compared with one other inner point: the
    first, or the better of the step before's two (the upper one on a tie).
    So that point's value is the least sent so far, and best_v is at or
    below it when the new point is compared with best_v.  The value sent
    for such a point may therefore be any floor of f there strictly above
    the least value sent so far: the point loses the step's comparison as
    f's value would, never becomes the best and is dropped, so the path and
    the result keep every bit.
    """
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
    xs = grid_points(a, b, DEFAULT_GRID_N)
    return minimize_many(lambda _, x: f(x), xs, np.asarray([[f(x) for x in xs]], dtype=float))[0]


def maximize_scalar(f: Callable[[float], float], a: float, b: float) -> OptimizerResult:
    """As ``minimize_scalar`` with the sign flipped."""
    res = minimize_scalar(lambda x: -f(x), a, b)
    return replace(res, value=-res.value)
