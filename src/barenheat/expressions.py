"""Tiny expression grammar for integrands and initial data.

Grammar (whitespace ignored)::

    expr   := term (('+' | '-') term)*
    term   := unary ('*' unary)*
    unary  := '-' unary | power
    power  := atom ('^' INTEGER)?
    atom   := NUMBER | 'pi' | 't' | 'x' | 'y' | 'cos' '(' expr ')' | '(' expr ')'

``x`` and ``y`` are the spatial coordinates (``y`` only on 2D meshes), ``t``
is time.  Arguments of ``cos`` must be spatial, of time degree 0 (``t^0``
counts as constant), and time dependence is limited to polynomials of
degree at most 3, so that the two-point Gauss quadrature used for the
per-step averages is exact; ``parse_expression`` rejects a higher degree.
Division is deliberately absent.

An expression evaluates at one time or at a column of times with the bits
of one evaluation per time: +, -, * and cos act elementwise, and a power of
a subtree free of ``x`` and ``y`` is Python's float power of each time's
value, which numpy's power differs from in the last bit of some values and
which raises OverflowError where numpy's returns inf.
"""

import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ExpressionError

# Two-point Gauss quadrature is exact for polynomials up to this degree.
MAX_TIME_DEGREE = 3

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]+)"
    r"|(?P<op>[()+\-*^]))"
)


@dataclass(frozen=True)
class Expression:
    """Parsed expression; call with (t, coords) to evaluate nodewise.

    Stores its text and its tree; ``time_degree``, the degree of the tree
    as a polynomial in t, is derived on first read and kept."""

    text: str
    _root: tuple = field(repr=False)

    @cached_property
    def time_degree(self):
        return _time_degree(self._root)

    @property
    def depends_on_time(self):
        """True unless the expression is a polynomial of degree 0 in t."""
        return self.time_degree > 0

    def __call__(self, t, coords):
        """Evaluate at time ``t`` on node coordinates ``coords`` of shape (P, d).

        ``t`` may also be a 1-D array of K times; the result is then (K, P),
        and row k holds bit for bit the values at the single time ``t[k]``.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.shape[1] < 2 and _contains(self._root, ("y",)):
            raise ExpressionError("'y' is only available on 2D meshes")
        column = isinstance(t, np.ndarray) and t.ndim == 1
        try:
            values = _evaluate(self._root, t.astype(float)[:, None] if column else float(t),
                               coords)
        except OverflowError as exc:
            # Python's float power raises where numpy's returns inf.
            raise ExpressionError(f"overflow in {self.text!r}: {exc}") from exc
        shape = (len(t), len(coords)) if column else (len(coords),)
        if getattr(values, "shape", None) != shape:
            values = np.full(shape, values)
        elif self._root[0] in ("x", "y"):
            # A bare coordinate is a view of ``coords``; the caller owns a copy.
            values = values.copy()
        return values


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == match.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionError(f"unexpected character {stripped[0]!r}", position=pos)
        if match.lastgroup == "number":
            tokens.append(("number", float(match.group("number")), match.start("number")))
        elif match.lastgroup == "name":
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ExpressionError(f"expected {symbol!r}", position=pos)
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {value!r}", position=pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.term()
                node = (value, node, right)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = ("*", node, self.unary())
            else:
                return node

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, pos = self.advance()
            if kind != "number" or not value.is_integer() or value < 0:
                raise ExpressionError("exponent must be a nonnegative integer", position=pos)
            node = ("pow", node, int(value))
        return node

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "number":
            return ("const", value)
        if kind == "name":
            if value == "pi":
                return ("const", np.pi)
            if value in ("t", "x", "y"):
                return (value,)
            if value == "cos":
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                if _time_degree(inner) > 0:
                    raise ExpressionError("cos arguments must be spatial only", position=pos)
                return ("cos", inner)
            raise ExpressionError(f"unknown symbol {value!r}", position=pos)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError("expected a number, symbol, or parenthesis", position=pos)


def _time_degree(node):
    tag = node[0]
    if tag == "t":
        return 1
    if tag in ("const", "x", "y", "cos"):
        return 0
    if tag == "neg":
        return _time_degree(node[1])
    if tag == "pow":
        return _time_degree(node[1]) * node[2]
    if tag == "*":
        return _time_degree(node[1]) + _time_degree(node[2])
    return max(_time_degree(node[1]), _time_degree(node[2]))


def _contains(node, tags):
    """True when the subtree ``node`` has a node tagged with one of ``tags``."""
    return node[0] in tags or any(
        isinstance(child, tuple) and _contains(child, tags) for child in node[1:])


def _evaluate(node, t, coords):
    """Values of ``node`` at the float ``t``, or at each time of a (K, 1)
    column ``t``; subtrees free of x and y give scalars or columns."""
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "t":
        return t
    if tag == "x":
        return coords[:, 0]
    if tag == "y":
        return coords[:, 1]
    if tag == "neg":
        return -_evaluate(node[1], t, coords)
    if tag == "cos":
        return np.cos(_evaluate(node[1], t, coords))
    if tag == "pow":
        base = _evaluate(node[1], t, coords)
        if (isinstance(t, np.ndarray) and isinstance(base, np.ndarray)
                and not _contains(node[1], ("x", "y"))):
            # The power of each single time's value: a Python float, or a
            # numpy float under cos.
            items = base.ravel() if _contains(node[1], ("cos",)) else base.ravel().tolist()
            return np.array([item ** node[2] for item in items]).reshape(base.shape)
        return base ** node[2]
    left = _evaluate(node[1], t, coords)
    right = _evaluate(node[2], t, coords)
    if tag == "+":
        return left + right
    if tag == "-":
        return left - right
    return left * right


def parse_expression(text):
    """Parse ``text`` into an Expression; raises ExpressionError with a column,
    or without one when the time degree exceeds ``MAX_TIME_DEGREE``."""
    if isinstance(text, Expression):
        return text
    expression = Expression(text, _Parser(text).parse())
    if expression.time_degree > MAX_TIME_DEGREE:
        raise ExpressionError(
            f"time degree {expression.time_degree} exceeds {MAX_TIME_DEGREE}, the highest "
            f"that the two-point Gauss average integrates exactly: {text!r}"
        )
    return expression


def evaluate_on_mesh(expression, ops):
    """Evaluate an expression (or string) on the mesh nodes at time 0."""
    return parse_expression(expression)(0.0, ops.coordinates)
