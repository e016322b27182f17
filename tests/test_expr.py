"""The custom-density expression parser against the hand-written oracle.

``expr_oracle`` is the recursive-descent parser the library used to ship:
every accepted expression must evaluate bit for bit as its closures do, and
every refused one must be refused by both, on the same line.
"""

import numpy as np
import pytest

import expr_oracle
from mlerisk import expr
from mlerisk.error_models import custom_error
from mlerisk.eta import build_eta_table
from mlerisk.expr import ExprSyntaxError, compile_expression, parse_density_file


def _skew_normal_lines(b: str):
    r = f"phi({b}*y)/Phi({b}*y)"
    return [
        f"log(2) - y^2/2 - log(2*pi)/2 + log(Phi({b}*y))",
        f"-y + {b}*{r}",
        f"-1 - {b}^3*y*{r} - {b}^2*({r})^2",
        f"{b}^3*(2*({r})^3 + 3*{b}*y*({r})^2 + ({b}^2*y^2 - 1)*{r})",
    ]


ACCEPTED = [
    *_skew_normal_lines("2"),
    *_skew_normal_lines("3"),
    "-y^2/2 - log(2*pi)/2",
    "-y",
    "-1",
    "0",
    "-y^2",
    "2^-2^2",
    "y^2^3",
    "--y",
    "+y",
    "-+-y",
    " y ",
    "\ty\t",
    ".5",
    "5.",
    "1e-3",
    "1E+2",
    "1.5e3*y",
    "1e999*0+y",
    "007*y - 00.5 + 007e1 + 1e07",
    "1e-07",
    "2.5E+05",
    "1e-00",
    "-3.2e-010*y",
    "007.5e-03*y + 00e0 + 0.0070",
    "1e999",
    "-1e999",
    "pi",
    "y/0.1 - y*10",
    "(y)",
    "((((y + 1))))",
    "y - y - y",
    "y / 2 / 3",
    "2^y^0.5",
    "(-y)^2 - -y^2",
    "exp(-y^2/2)/sqrt(2*pi)",
    "exp(y) * exp(-y)",
    "log(1 + y^2)",
    "sqrt(y^2 + 1) - sqrt(y^2)",
    "erf(y/sqrt(2))",
    "phi(y) - Phi(y)",
    "Phi(-y)*phi(phi(y))",
    "y*(y*(y*(y + 1) - 2) + 3)",
    "2^-2 + sqrt(4) - exp(0) + erf(0) + Phi(0) + phi(0)*0",
    "-(y^3)/3 + y^2/2 - y",
    "1/(1 + y^2)",
]

REFUSED = [
    "exp",
    "y**2",
    "y//2",
    "1_000",
    "0x1f",
    "1j",
    "True",
    "None",
    "y.real",
    "exp.__class__",
    "__import__('os')",
    "y(2)",
    "pi(y)",
    "exp()",
    "exp(y, 2)",
    "y if y else y",
    "not y",
    "y and y",
    "(y",
    "y)",
    "",
    "   ",
    "sin(y)",
    "x",
    "e",
    "__builtins__",
    "y $",
    "2y",
    "y y",
    "1..2",
    "1e",
    "y^",
    "^y",
    "*y",
    "y +",
    "()",
    "(y)(y)",
    "exp(y)(y)",
    "(exp)(y)",
    "((log))(1+y)",
    "y % 2",
    "y < 1",
    "y == y",
    "lambda",
    "'y'",
    "y[0]",
    "{y}",
    "y;y",
]

ABSCISSAE = np.concatenate(
    [np.linspace(-40.0, 40.0, 801), [-1e300, 1e300, 1e6, -1e6, -0.0]]
)


@pytest.mark.parametrize("text", ACCEPTED)
def test_accepted_expression_matches_oracle_bit_for_bit(text):
    ours, theirs = compile_expression(text), expr_oracle.compile_expression(text)
    with np.errstate(all="ignore"):
        got, want = np.asarray(ours(ABSCISSAE)), np.asarray(theirs(ABSCISSAE))
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("text", REFUSED)
def test_refused_expression_is_refused_by_both_on_the_same_line(text):
    with pytest.raises(ExprSyntaxError) as ours:
        compile_expression(text, line=7)
    with pytest.raises(ExprSyntaxError) as theirs:
        expr_oracle.compile_expression(text, line=7)
    assert ours.value.line == theirs.value.line == 7


def test_compiled_expression_sees_no_builtins():
    assert compile_expression("y").__globals__["__builtins__"] == {}


def test_error_columns_count_from_the_start_of_the_file_line():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_density_file("logf = -y^2/2 - log(2*pi)/2\nd1 = -y $\nd2 = -1\nd3 = 0")
    assert (exc.value.line, exc.value.column) == (2, 9)
    with pytest.raises(ExprSyntaxError, match="unknown name") as exc:
        parse_density_file("  d1   =   sin(y)")
    assert (exc.value.line, exc.value.column) == (1, 12)


def test_columns_count_each_caret_once():
    with pytest.raises(ExprSyntaxError, match="unknown name") as exc:
        compile_expression("y^2^3 + x")
    assert exc.value.column == 9


@pytest.mark.parametrize(
    "text",
    [
        "(" * 400 + "y" + ")" * 400,
        "-y^2/2" + " + 0*y" * 1500,
        "-" * 100000 + "y",
        "^".join(["y"] * 3000),
    ],
    ids=["400-nested-parentheses", "1500-terms", "100000-minus-signs", "3000-powers"],
)
def test_pathological_expression_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_density_file(f"d1 = -y\nlogf = {text}\nd2 = -1\nd3 = 0")
    assert exc.value.line == 2


def test_long_sum_within_the_parser_limit_compiles():
    f = compile_expression("-y^2/2" + " + 0*y" * 900)
    y = np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(f(y), -(y**2) / 2)


def test_custom_eta_table_is_unchanged_from_the_oracle_parser(monkeypatch):
    text = "\n".join(
        f"{key} = {line}" for key, line in zip(("logf", "d1", "d2", "d3"), _skew_normal_lines("2"))
    )
    ours = build_eta_table(custom_error(text))
    monkeypatch.setattr(expr, "compile_expression", expr_oracle.compile_expression)
    theirs = build_eta_table(custom_error(text))
    assert ours.entries == theirs.entries  # every value and bound, compared as floats
