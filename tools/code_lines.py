"""Code lines and physical lines of each ``src/barenheat`` module.

    python tools/code_lines.py [--root CHECKOUT]

Prints a header, then one ``code  lines  module`` line per module of
``CHECKOUT/src/barenheat`` (default: the checkout this script sits in),
then the totals.  A code line is a line that holds a token of Python code:
blank lines, comment lines and the lines of docstrings (a string literal
that opens a module, class or function body) do not count, so a size gate
measured with it does not move when prose is added or trimmed.  The
physical lines are the newlines of the file, as ``wc -l`` counts them, so
the total of that column is ``cat src/barenheat/*.py | wc -l``.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of one module's source text."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(HERE),
                        help="checkout whose src/barenheat is counted")
    args = parser.parse_args(argv)
    package = os.path.join(args.root, "src", "barenheat")
    total = physical = 0
    print(f"{'code':>6}  {'lines':>6}  module")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8", newline="") as handle:
                source = handle.read()
            count, lines = code_lines(source), source.count("\n")
            total += count
            physical += lines
            print(f"{count:6d}  {lines:6d}  {name}")
    print(f"{total:6d}  {physical:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
