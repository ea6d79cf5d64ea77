import math

import pytest

from supent import bounds
from supent.errors import NoSignChange, NonFiniteObjective
from supent.optimize import find_root_bisect, grid_points, maximize_scalar, minimize_scalar


def test_minimize_quadratic():
    res = minimize_scalar(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
    assert res.converged
    assert res.x_star == pytest.approx(0.3, abs=1e-9)


def test_minimize_boundary_minimum():
    res = minimize_scalar(lambda x: x, 0.0, 1.0)
    assert res.x_star == pytest.approx(0.0, abs=1e-8)
    assert res.value == pytest.approx(0.0, abs=1e-8)


def test_minimize_value_never_exceeds_grid_samples():
    f = lambda x: math.sin(13.0 * x) + 0.3 * x
    res = minimize_scalar(f, 0.0, 3.0, grid_n=101)
    grid_min = min(f(x) for x in grid_points(0.0, 3.0, 101))
    assert res.value <= grid_min + 1e-15


def test_minimize_grid_values_above_the_minimum_change_nothing():
    f = lambda x: math.sin(13.0 * x) + 0.3 * x
    xs = grid_points(0.0, 3.0, 101)
    exact = [f(x) for x in xs]
    lowest = min(exact)
    raised = [v if v == lowest else v + 1.0 for v in exact]
    assert minimize_scalar(f, 0.0, 3.0, grid_n=101, grid_values=raised) == minimize_scalar(
        f, 0.0, 3.0, grid_n=101
    )
    with pytest.raises(ValueError):
        minimize_scalar(f, 0.0, 3.0, grid_n=101, grid_values=exact[:-1])
    with pytest.raises(NonFiniteObjective):
        minimize_scalar(f, 0.0, 3.0, grid_n=101, grid_values=exact[:-1] + [math.nan])


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


def test_bisect_linear_and_sqrt2():
    res = find_root_bisect(lambda x: x - 0.5, 0.0, 1.0)
    assert res.x_star == pytest.approx(0.5, abs=1e-9)
    res = find_root_bisect(lambda x: x * x - 2.0, 1.0, 2.0)
    assert res.x_star == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert res.converged


def test_bisect_requires_sign_change():
    with pytest.raises(NoSignChange):
        find_root_bisect(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_stationarity_equation_matches_minimizer():
    # Root of the interior-minimum condition for the family objective above
    # coincides with the grid minimizer of f.
    def g(t):
        lhs = 0.36 * (1.0 - t) ** 2 / (0.64 * t * t)
        rhs = (9.0 - math.log2(t)) / (9.0 - math.log2(1.0 - t))
        return lhs - rhs

    root = find_root_bisect(g, 0.3, 0.6)
    f = lambda t: bounds.f_upper_value(t, 9.0, 9.0, 0.36, 1.0)
    res = minimize_scalar(f, 1e-9, 1.0 - 1e-9)
    assert root.x_star == pytest.approx(res.x_star, abs=0.01)
