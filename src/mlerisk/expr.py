"""Minimal arithmetic expression grammar for user-supplied error densities.

A custom density file declares the log-density and its first three
derivatives as expressions in the variable ``y``::

    # standard normal, written out by hand
    logf = -y^2/2 - log(2*pi)/2
    d1   = -y
    d2   = -1
    d3   = 0

The grammar (README, "Custom error densities") has ``+ - * / ^`` (``^`` is
right-associative power), unary signs, parentheses, the one-argument
functions ``exp``, ``log``, ``sqrt``, ``erf``, ``phi`` and ``Phi`` (standard
normal pdf and cdf), the constant ``pi``, decimal literals and the variable
``y``.  Python's own parser reads the text (``^`` spelled ``**``); a whitelist
walk refuses all else.  Errors raise :class:`ExprSyntaxError` with 1-based
line and column; compiled expressions work elementwise on numpy arrays.
"""

from __future__ import annotations

import ast
import math
import re

import numpy as np

__all__ = ["ExprSyntaxError", "compile_expression", "parse_density_file"]


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _scipy_special(name: str):
    """scipy.special's ``name``, imported on the first call: scipy.special is
    most of a CLI start, and only densities that call erf or Phi need it."""

    def call(x):
        from scipy import special

        return getattr(special, name)(x)

    return call


_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "erf": _scipy_special("erf"),
    "phi": lambda x: np.exp(-0.5 * np.asarray(x, dtype=float) ** 2) / math.sqrt(2 * math.pi),
    "Phi": _scipy_special("ndtr"),
}

# The only names a compiled expression can see: no builtins at all.
_GLOBALS = {"__builtins__": {}, "pi": math.pi, **_FUNCTIONS}

# Characters outside the grammar, and ``**``, which would read as ``^``.
_REFUSED = re.compile(r"\*\*|[^A-Za-z0-9_.+\-*/^()\s]")
_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
# A literal's leading zeros (007, 00.5), which Python refuses and the grammar does not.
_LEADING_ZEROS = re.compile(r"^0+(?=\d)")
# The operators of the grammar; a BinOp or UnaryOp is checked by its operator.
_ALLOWED = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd, ast.USub, ast.Load)
_PREFIX = "lambda y: "


def _column(src: str, offset: int) -> int:
    """1-based text column of ``src[offset]``; each ``**`` in ``src`` was one ``^``."""
    return offset - len(_PREFIX) - src.count("**", 0, offset) + 1


def _check(body: ast.expr, src: str, line: int) -> None:
    """Refuse every node outside the grammar; make each literal a float."""
    for node in ast.walk(body):
        error = None
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None)
            if name in _FUNCTIONS and len(node.args) != 1:
                error = f"{name}() takes exactly one argument"
            elif name is None or name in ("y", "pi"):
                error = "only exp, log, sqrt, erf, phi and Phi can be called"
        elif isinstance(node, ast.Name):
            if node.id not in _FUNCTIONS and node.id not in ("y", "pi"):
                error = f"unknown name {node.id!r}"
            # a name followed by '(' is a callee; (exp)(y) has ')' there
            elif node.id in _FUNCTIONS and src[node.end_col_offset :].lstrip()[:1] != "(":
                error = f"expected '(' after {node.id!r}"
        elif isinstance(node, ast.Constant):
            literal = src[node.col_offset : node.end_col_offset]
            if _NUMBER.fullmatch(literal):
                node.value = float(literal)
            else:
                error = f"unsupported literal {literal!r}"
        elif not isinstance(getattr(node, "op", node), _ALLOWED):
            segment = src[node.col_offset : node.end_col_offset].replace("**", "^")
            error = f"unsupported syntax {segment!r}"
        if error:
            raise ExprSyntaxError(error, line, _column(src, node.col_offset))


def compile_expression(text: str, line: int = 1):
    """Compile one expression into a callable of ``y`` (scalar or array)."""
    if refused := _REFUSED.search(text):
        raise ExprSyntaxError(f"unexpected {refused.group()!r}", line, refused.start() + 1)
    # whitespace and a literal's leading zeros blanked, so columns stay in place
    text = re.sub(r"\s", " ", text)
    text = _NUMBER.sub(lambda m: _LEADING_ZEROS.sub(lambda z: " " * z.end(), m.group()), text)
    src = _PREFIX + text.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
        _check(tree.body.body, src, line)
        return eval(compile(tree, "<expression>", "eval"), dict(_GLOBALS))
    except SyntaxError as exc:
        if (exc.offset or 0) <= len(_PREFIX):  # no position in the text: it ran out
            raise ExprSyntaxError("unexpected end of expression", line, len(text) + 1) from None
        raise ExprSyntaxError(exc.msg, line, _column(src, exc.offset - 1)) from None
    except (RecursionError, MemoryError):  # the parser's and compiler's depth limits
        raise ExprSyntaxError("expression too long or nested too deeply", line, 1) from None


_REQUIRED_KEYS = ("logf", "d1", "d2", "d3")


def parse_density_file(text: str) -> dict:
    """Parse a density declaration into callables keyed by logf/d1/d2/d3."""
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        if not code.strip():
            continue
        if "=" not in code:
            raise ExprSyntaxError("expected '<name> = <expression>'", lineno, 1)
        eq = code.index("=")
        key = code[:eq].strip()
        if key not in _REQUIRED_KEYS:
            raise ExprSyntaxError(
                f"unknown declaration {key!r} (expected one of {', '.join(_REQUIRED_KEYS)})",
                lineno,
                1,
            )
        if key in seen:
            raise ExprSyntaxError(f"duplicate declaration of {key!r}", lineno, 1)
        # the key blanked out, error columns count from the start of the line
        seen[key] = compile_expression(" " * (eq + 1) + code[eq + 1 :], lineno)
    missing = [k for k in _REQUIRED_KEYS if k not in seen]
    if missing:
        raise ValueError(f"density file is missing declarations: {', '.join(missing)}")
    return seen
