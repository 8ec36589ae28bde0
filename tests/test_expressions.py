import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("text, mesh, axis", [("x", (1, 4, 1.0), 0),
                                               ("y", (2, (3, 2), (1.0, 2.0)), 1)])
def test_bare_coordinate_is_a_copy(text, mesh, axis):
    # Writing into the values of a bare x or y leaves the mesh alone.
    ops = bh.build_operators(*mesh)
    before = ops.coordinates.copy()
    values = bh.evaluate_on_mesh(text, ops)
    assert np.array_equal(values, before[:, axis])
    values[1] = 9.0
    assert np.array_equal(ops.coordinates, before)


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


# Text over the grammar's alphabet: sentences of the grammar, whose
# exponents may be fractional or overflow, and strings of its pieces.  At
# most 24 pieces, or 8 leaves, bound the nesting far below the recursion
# limit.
_NUMBERS = ["0", "2", "0.5", "10", "400", "1e400", "1e-9"]
_SENTENCES = st.recursive(
    st.sampled_from(["x", "y", "t", "pi", *_NUMBERS]),
    lambda inner: st.one_of(st.builds("({}{}{})".format, inner, st.sampled_from("+-*"), inner),
                            st.builds("{}^{}".format, inner, st.sampled_from(_NUMBERS)),
                            st.builds("cos({})".format, inner), st.builds("-{}".format, inner)),
    max_leaves=8)
_PIECES = ["x", "y", "t", "pi", "cos", "(", ")", "+", "-", "*", "^", "/", " ", ".", "e",
           *_NUMBERS]
_COORDS = np.array([[0.0, 0.0], [0.5, 1.0], [2.0, 3.0]])


@settings(max_examples=400, deadline=None)
@given(st.one_of(_SENTENCES, st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)),
       st.lists(st.sampled_from([0.0, 0.75, 2.0, 1e-3]), min_size=1, max_size=3))
def test_any_text_parses_and_evaluates_or_raises_expression_error(text, times):
    # Row by row at single times, and as one block at the column of times:
    # the same bits, or the same ExpressionError.
    outcomes = []
    for evaluate in (lambda expr: np.array([expr(t, _COORDS) for t in times]),
                     lambda expr: expr(np.array(times), _COORDS)):
        try:
            with np.errstate(all="ignore"):
                outcomes.append(evaluate(parse_expression(text)))
        except ExpressionError as exc:
            outcomes.append(str(exc))
    rows, block = outcomes
    if isinstance(rows, str):
        assert block == rows
        return
    assert rows.shape == (len(times), len(_COORDS))
    assert isinstance(block, np.ndarray) and block.tobytes() == rows.tobytes()


@pytest.mark.parametrize("text, formula", [
    ("(x*t)^3 + t^3", lambda t, x: (x * t) ** 3 + t ** 3),
    ("(x + t)^2 * cos(pi*x)", lambda t, x: (x + t) ** 2 * np.cos(np.pi * x)),
    ("(t^0*x)^3", lambda t, x: (t ** 0 * x) ** 3),
])
def test_time_column_on_one_node(text, formula):
    # With one node a spatial value at a column of times is (K, 1) like a
    # time-only one, yet its power stays numpy's power of a node array, and
    # a time-only power stays Python's power of a float.
    coords = np.array([[0.7]])
    times = np.linspace(0.0, 3.0, 2001)
    expr = parse_expression(text)
    rows = np.array([formula(t, coords[:, 0]) for t in times.tolist()])
    assert np.array([expr(t, coords) for t in times]).tobytes() == rows.tobytes()
    assert expr(times, coords).tobytes() == rows.tobytes()
