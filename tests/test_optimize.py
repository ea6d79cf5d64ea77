import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supent import bounds
from supent.errors import DomainError, NonFiniteObjective
from supent.optimize import (
    DEFAULT_GRID_N,
    grid_points,
    maximize_scalar,
    minimize_many,
    minimize_scalar,
)


def test_minimize_quadratic():
    res = minimize_scalar(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
    assert res.converged
    assert res.x_star == pytest.approx(0.3, abs=1e-9)


def test_minimize_boundary_minimum():
    res = minimize_scalar(lambda x: x, 0.0, 1.0)
    assert res.x_star == pytest.approx(0.0, abs=1e-8)
    assert res.value == pytest.approx(0.0, abs=1e-8)


def _on_grid(f, a, b, grid_n):
    """minimize_many's objective, grid points and (1, grid_n) grid values for
    one search of f."""
    xs = grid_points(a, b, grid_n)
    return (lambda _, x: f(x)), xs, np.array([[f(x) for x in xs]])


def test_minimize_value_never_exceeds_grid_samples():
    f = lambda x: math.sin(13.0 * x) + 0.3 * x
    g, xs, grid = _on_grid(f, 0.0, 3.0, 101)
    (res,) = minimize_many(g, xs, grid)
    assert res.value <= grid.min() + 1e-15


def test_minimize_grid_values_above_the_minimum_change_nothing():
    f = lambda x: math.sin(13.0 * x) + 0.3 * x
    g, xs, exact = _on_grid(f, 0.0, 3.0, 101)
    raised = np.where(exact == exact.min(), exact, exact + 1.0)
    assert minimize_many(g, xs, raised) == minimize_many(g, xs, exact)
    # a non-finite grid value is reported with its point
    last_nan = exact.copy()
    last_nan[0, -1] = math.nan
    with pytest.raises(NonFiniteObjective, match=re.escape(f"nan at x={xs[-1]!r}") + "$"):
        minimize_many(g, xs, last_nan)
    one_nan = exact.copy()
    one_nan[0, 7] = math.nan
    with pytest.raises(NonFiniteObjective, match=re.escape(f"nan at x={xs[7]!r}") + "$"):
        minimize_many(g, xs, one_nan)


def test_minimize_many_rejects_grid_points_of_another_count():
    g, xs, grid = _on_grid(lambda x: x * x, 0.0, 1.0, 9)
    for points in (xs[:-1], xs + (2.0,), grid_points(0.0, 1.0, 17)):
        with pytest.raises(DomainError, match="grid points for 9 grid values"):
            minimize_many(g, points, grid)


def test_maximize_with_grid_values_matches_scalar_grid():
    f = lambda x: math.cos(7.0 * x) - (x - 0.4) ** 2
    (res,) = minimize_many(*_on_grid(lambda x: -f(x), 0.0, 2.0, DEFAULT_GRID_N))
    assert maximize_scalar(f, 0.0, 2.0) == replace(res, value=-res.value)


def test_maximize_quadratic():
    res = maximize_scalar(lambda x: -((x - 0.7) ** 2), 0.0, 1.0)
    assert res.x_star == pytest.approx(0.7, abs=1e-9)


def test_maximize_constant():
    res = maximize_scalar(lambda x: 2.5, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(2.5)


def test_minimize_equals_negated_maximize():
    f = lambda x: (x - 0.42) ** 2 + math.cos(3 * x)
    a = minimize_scalar(f, 0.0, 2.0)
    b = maximize_scalar(lambda x: -f(x), 0.0, 2.0)
    assert a.x_star == pytest.approx(b.x_star, abs=1e-9)
    assert a.value == pytest.approx(-b.value, abs=1e-12)


def test_deterministic():
    f = lambda x: math.sin(5 * x)
    r1 = minimize_scalar(f, 0.0, 2.0)
    r2 = minimize_scalar(f, 0.0, 2.0)
    assert (r1.x_star, r1.value, r1.iterations) == (r2.x_star, r2.value, r2.iterations)


def test_non_finite_objective_rejected():
    with pytest.raises(NonFiniteObjective):
        minimize_scalar(lambda x: float("nan"), 0.0, 1.0)


def test_family_objective_minimizer_near_three_sevenths():
    # Diagonal sweep family at d = 2^16 + 1: both entanglements equal 9 and
    # the superposition is normalized, so the scalar bound closes over
    # constants only.
    f = lambda t: bounds.f_upper_value(t, 9.0, 9.0, 0.36, 1.0)
    res = minimize_scalar(f, 1e-9, 1.0 - 1e-9)
    assert res.x_star == pytest.approx(3.0 / 7.0, abs=0.01)



def _wavy(center, ripple, freq):
    return lambda x: (x - center) ** 2 + ripple * math.sin(freq * x)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.floats(-0.5, 1.5), st.floats(0.0, 0.2), st.floats(1.0, 40.0)),
        min_size=1,
        max_size=6,
    ),
    grid_n=st.integers(3, 65),
)
def test_lockstep_search_equals_separate_searches(rows, grid_n):
    # minima left of 0 or right of 1 put a row's best grid point on the edge,
    # where its bracket is one grid step wide and finishes early
    fs = [_wavy(*row) for row in rows]
    xs = grid_points(0.0, 1.0, grid_n)
    calls = []

    def f(r, x):
        calls.append(r)
        if isinstance(r, int):
            return fs[r](x)
        return np.array([fs[k](v) for k, v in zip(r.tolist(), x.tolist())])

    together = minimize_many(f, xs, np.array([[g(x) for x in xs] for g in fs]))
    alone = [minimize_many(*_on_grid(g, 0.0, 1.0, grid_n))[0] for g in fs]
    assert [(r.value, r.x_star, r.iterations, r.converged) for r in together] == [
        (r.value, r.x_star, r.iterations, r.converged) for r in alone
    ]
    # one call per step for all the searches still going, plus the two
    # initial points; a lone search gets an int row and a float
    assert len(calls) == 2 + max(r.iterations for r in alone)
    assert all(isinstance(r, int) == (len(fs) == 1) for r in calls[:2])


def test_lockstep_non_finite_value_names_its_point():
    xs = grid_points(0.0, 1.0, 5)
    grid = np.array([[x * x for x in xs], list(xs)])

    def f(r, x):
        if isinstance(r, int):
            return x * x
        return np.where(r == 1, np.nan, x * x)

    # the second row's best grid point is 0, so its first point is
    # c = hi - (hi - lo) / phi in the bracket [0, xs[1]]
    c = xs[1] - xs[1] * (math.sqrt(5.0) - 1.0) / 2.0
    with pytest.raises(NonFiniteObjective, match=re.escape(f"nan at x={c!r}") + "$"):
        minimize_many(f, xs, grid)
