import numpy as np
import pytest

import barenheat as bh
from barenheat.errors import ExpressionError
from barenheat.expressions import parse_expression


@pytest.fixture(scope="module")
def coords():
    return np.linspace(0.0, 1.0, 5).reshape(-1, 1)


def test_constant(coords):
    expr = parse_expression("2.5")
    assert np.array_equal(expr(0.3, coords), np.full(5, 2.5))
    assert not expr.depends_on_time


def test_cosine_of_pi_x(coords):
    expr = parse_expression("cos(pi*x)")
    assert np.allclose(expr(0.0, coords), np.cos(np.pi * coords[:, 0]), rtol=0, atol=0)


def test_polynomial_product(coords):
    expr = parse_expression("t^2*x + 3*x^2 - 1")
    t = 0.5
    x = coords[:, 0]
    assert np.allclose(expr(t, coords), t**2 * x + 3 * x**2 - 1, rtol=1e-15)
    assert expr.depends_on_time
    assert expr.time_degree == 2


@pytest.mark.parametrize("text", ["t^0", "(1+t)^0*x", "cos(pi*x*t^0)"])
def test_time_to_the_zero_is_constant_in_time(coords, text):
    expr = parse_expression(text)
    assert expr.time_degree == 0
    assert not expr.depends_on_time
    assert np.array_equal(expr(0.7, coords), expr(0.0, coords))


def test_standard_noisy_integrand(coords):
    expr = parse_expression("cos(pi*x)*(1+t)")
    assert np.allclose(expr(0.25, coords), np.cos(np.pi * coords[:, 0]) * 1.25, rtol=1e-15)
    assert expr.time_degree == 1


def test_unary_minus_and_parentheses(coords):
    expr = parse_expression("-(x - 1)^2")
    assert np.allclose(expr(0.0, coords), -((coords[:, 0] - 1.0) ** 2), rtol=1e-15)


def test_y_in_two_dimensions():
    ops = bh.build_operators(2, (2, 2), (1.0, 1.0))
    values = bh.evaluate_on_mesh("x*y", ops)
    assert np.allclose(values, ops.coordinates[:, 0] * ops.coordinates[:, 1], rtol=0, atol=0)


def test_y_rejected_in_one_dimension(coords):
    expr = parse_expression("y")
    with pytest.raises(ExpressionError):
        expr(0.0, coords)


def test_cos_of_time_rejected():
    with pytest.raises(ExpressionError, match="spatial"):
        parse_expression("cos(t)")


def test_unknown_symbol_reports_position():
    with pytest.raises(ExpressionError, match="column 5"):
        parse_expression("1 + sin(x)")


def test_unexpected_character():
    with pytest.raises(ExpressionError):
        parse_expression("x / 2")


def test_trailing_garbage():
    with pytest.raises(ExpressionError):
        parse_expression("x + 1 )")


def test_fractional_exponent_rejected():
    with pytest.raises(ExpressionError, match="exponent"):
        parse_expression("x^1.5")


@pytest.mark.parametrize("text", ["t^4", "t^2*t^2", "(1+t)^4"])
def test_time_degree_above_three_rejected(text):
    with pytest.raises(ExpressionError, match="time degree 4 exceeds 3"):
        parse_expression(text)


def test_cubic_in_time_is_averaged_exactly():
    expr = parse_expression("t^3")
    assert expr.time_degree == 3
    grid = bh.build_time_grid(1.0, 2)
    ops = bh.build_operators(1, 2, 1.0)
    # h_1 averages t^3 over [0, 0.5]: 0.5^4 / 4 / 0.5 = 0.03125.
    values = bh.discretize_integrand(expr, grid, ops).values
    assert values[1] == pytest.approx(np.full(3, 0.03125), rel=1e-15)
