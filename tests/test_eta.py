import collections
import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from mlerisk._quadrature import _cached_nodes_weights
from mlerisk.error_models import custom_error, normal_error, skew_normal_error, student_t_error
from mlerisk.eta import (
    GRID,
    EtaMethod,
    _NodeColumns,
    build_eta_table,
    eta_normal,
    eta_quadrature,
    eta_t,
)
from sample_oracles import eta_monte_carlo
from t_eta_oracle import eta_t_oracle

EXACT_NUS = [
    Fraction(1, 2), 1, 2, Fraction(5, 2), 3, Fraction(7, 2), 4,
    Fraction(21, 5), Fraction(9, 2), 5, 6, Fraction(13, 2), Fraction(101, 7), 30,
]
FLOAT_NUS = [0.3, 0.9, 4.2, 123.456, 1e4]


def test_grid_constraint():
    assert all(l <= 3 * i + 2 * j + k for (i, j, k, l) in GRID)
    assert (0, 0, 2, 0) in GRID and (1, 0, 1, 4) in GRID and (0, 2, 0, 4) in GRID
    assert (0, 0, 0, 4) not in GRID  # a bare fourth moment diverges for t(3)


def test_grid_gamma_shifts_are_non_negative():
    """On the grid every t Gamma shift D0 - u (u <= i+j) is >= 0, so no tail integral diverges."""
    for (i, j, k, l) in GRID:
        if (i + k + l) % 2 == 0:
            d0 = 3 * i + 2 * j + k - (i + k + l) // 2
            assert 2 * (d0 - (i + j)) == 3 * i + 2 * j + k - l >= 0, (i, j, k, l)


def test_eta_normal_values():
    assert eta_normal(0, 0, 2, 0) == 1
    assert eta_normal(1, 0, 1, 0) == 0
    assert eta_normal(0, 0, 4, 0) == 3
    assert eta_normal(0, 1, 0, 0) == -1
    assert eta_normal(0, 0, 2, 2) == 3
    assert eta_normal(0, 0, 1, 1) == -1
    assert eta_normal(0, 1, 0, 1) == 0
    assert isinstance(eta_normal(0, 0, 2, 0), Fraction)


def test_eta_t_closed_forms():
    assert eta_t(0, 0, 2, 0, 3) == Fraction(2, 3)
    assert eta_t(0, 0, 1, 0, 3) == 0
    for nu in (3, 5, Fraction(21, 5)):
        assert eta_t(0, 0, 2, 0, nu) == Fraction(nu + 1, nu + 3)
    # float degrees of freedom take the float path but agree with the rational one
    assert eta_t(0, 1, 2, 2, 4.2) == pytest.approx(float(eta_t(0, 1, 2, 2, Fraction(21, 5))), rel=1e-12)


@pytest.mark.parametrize("nu", EXACT_NUS, ids=str)
def test_exact_t_table_matches_gamma_loop_oracle(nu):
    table = build_eta_table(student_t_error(nu))
    assert table.exact
    for idx in GRID:
        value = table.value(*idx)
        assert type(value) is Fraction, idx
        assert value == eta_t_oracle(*idx, Fraction(nu)), idx


@pytest.mark.parametrize("nu", EXACT_NUS, ids=str)
def test_eta_t_index_rectangle_matches_oracle_or_diverges_alike(nu):
    off_grid = 0
    for idx in itertools.product(range(2), range(3), range(5), range(5)):
        if idx not in GRID:
            off_grid += 1
            with pytest.raises(ValueError, match=r"outside the table grid"):
                eta_t(*idx, nu)
            continue
        value = eta_t(*idx, nu)
        assert type(value) is Fraction and value == eta_t_oracle(*idx, nu), idx
    assert off_grid == 14


def test_float_t_table_is_correctly_rounded_exact_value():
    """Float nu entries are the exact moments at Fraction(nu), rounded once.

    The documented bound is 1e-13 * max(1, |exact|); the kernel meets it with
    room to spare because it rounds only the final integer ratio.
    """
    worst = 0.0
    for nu in FLOAT_NUS:
        table = build_eta_table(student_t_error(nu))
        assert not table.exact
        for idx in GRID:
            exact = float(eta_t_oracle(*idx, Fraction(nu)))
            value = table.value(*idx)
            assert type(value) is float, (nu, idx)
            worst = max(worst, abs(value - exact) / max(1.0, abs(exact)))
    assert worst <= 1e-13
    assert worst == 0.0


@pytest.mark.parametrize("nu", [0, -1.5, math.inf, math.nan])
def test_eta_t_rejects_nu_outside_the_positive_reals(nu):
    with pytest.raises(ValueError, match="positive and finite"):
        eta_t(0, 0, 2, 0, nu)


def test_eta_t_divergence_guard():
    # E[y^4] diverges for t(3); the index is off the grid, so it is refused.
    with pytest.raises(ValueError, match=r"eta\[0,0,0,4\] is outside the table grid"):
        eta_t(0, 0, 0, 4, Fraction(3))


@pytest.mark.parametrize("idx", [(0, 0, 0, 4), (0, 0, 1, 4), (0, 1, 0, 3), (2, 0, 0, 0), (0, 0, -1, 0)])
def test_per_entry_functions_refuse_off_grid_indices(idx):
    pattern = r"eta\[{}\] is outside the table grid".format(",".join(map(str, idx)))
    with pytest.raises(ValueError, match=pattern):
        eta_normal(*idx)
    with pytest.raises(ValueError, match=pattern):
        eta_t(*idx, 3)
    with pytest.raises(ValueError, match=pattern):
        eta_quadrature(normal_error(), *idx)


@pytest.mark.parametrize("idx,expected", [((0, 0, 2, 0), 1.0), ((0, 1, 0, 0), -1.0)])
def test_quadrature_reproduces_normal(idx, expected):
    value, bound = eta_quadrature(normal_error(), *idx, tol=1e-10)
    assert bound <= 1e-10
    assert value == pytest.approx(expected, abs=1e-10)


def test_quadrature_skew_normal_b0_is_normal():
    value, bound = eta_quadrature(skew_normal_error(0.0), 0, 1, 0, 0, tol=1e-10)
    assert value == pytest.approx(-1.0, abs=1e-10)


def test_quadrature_matches_t_closed_form():
    value, _ = eta_quadrature(student_t_error(3), 0, 0, 2, 0, tol=1e-10)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("nu", [3, Fraction(21, 5), 7])
def test_dual_path_closed_form_vs_quadrature(nu):
    model = student_t_error(nu)
    for idx in GRID:
        exact = float(eta_t(*idx, nu))
        value, _ = eta_quadrature(model, *idx, tol=1e-10)
        assert value == pytest.approx(exact, abs=1e-9), idx


def test_dual_path_normal():
    model = normal_error()
    for idx in GRID:
        value, _ = eta_quadrature(model, *idx, tol=1e-10)
        assert value == pytest.approx(float(eta_normal(*idx)), abs=1e-9), idx


def test_build_table_normal(normal_table):
    assert normal_table.exact
    assert normal_table.value(0, 0, 2, 2) == 3
    assert normal_table.value(0, 0, 1, 1) == -1
    assert normal_table.value(0, 1, 0, 1) == 0
    assert all(e.method is EtaMethod.CLOSED_FORM for e in normal_table.entries.values())


def test_build_table_t42_closed_vs_quadrature():
    table = build_eta_table(student_t_error(Fraction(21, 5)))
    assert table.exact
    for idx in GRID:
        value, _ = eta_quadrature(student_t_error(4.2), *idx, tol=1e-10)
        assert float(table.value(*idx)) == pytest.approx(value, abs=1e-9)


def test_invariants_all_models(normal_table, t3_table, sn3_table):
    for table in (normal_table, t3_table, sn3_table):
        table.check_invariants(slack=1e-9)


@pytest.mark.parametrize("build", [lambda: normal_error(), lambda: student_t_error(3)])
def test_symmetric_parity_zeros(build):
    table = build_eta_table(build())
    for (i, j, k, l) in GRID:
        if (i + k + l) % 2 == 1:
            assert float(table.value(i, j, k, l)) == 0.0, (i, j, k, l)


def test_skew_normal_table_has_bounds(sn3_table):
    assert not sn3_table.exact
    assert 0 < max(float(e.abs_error_bound) for e in sn3_table.entries.values()) <= 1e-10
    assert all(e.method is EtaMethod.QUADRATURE for e in sn3_table.entries.values())


def test_table_jsonable(normal_table):
    payload = normal_table.to_jsonable()
    assert payload["0,0,2,0"]["value"] == 1.0
    assert payload["0,0,2,0"]["method"] == "closed_form"
    assert payload["0,0,2,0"]["exact"] == "1"


def _custom_skew_normal(b: str):
    r = f"phi({b}*y)/Phi({b}*y)"
    return custom_error(
        f"logf = log(2) - y^2/2 - log(2*pi)/2 + log(Phi({b}*y))\n"
        f"d1 = -y + {b}*{r}\n"
        f"d2 = -1 - {b}^3*y*{r} - {b}^2*({r})^2\n"
        f"d3 = {b}^3*(2*({r})^3 + 3*{b}*y*({r})^2 + ({b}^2*y^2 - 1)*{r})\n",
        label=f"custom skew-normal({b})",
    )


QUADRATURE_MODELS = {
    "skew-normal(0.5)": lambda: skew_normal_error(0.5),
    "skew-normal(3)": lambda: skew_normal_error(3.0),
    "custom-skew-normal(2)": lambda: _custom_skew_normal("2"),
}


@pytest.mark.parametrize("make", QUADRATURE_MODELS.values(), ids=QUADRATURE_MODELS)
def test_shared_columns_build_equals_per_entry_quadrature_bit_for_bit(make):
    model = make()
    table = build_eta_table(model)
    for idx in GRID:
        value, bound = eta_quadrature(model, *idx)
        assert table.value(*idx).hex() == value.hex(), idx
        assert table.bound(*idx).hex() == bound.hex(), idx


@pytest.mark.parametrize("make", QUADRATURE_MODELS.values(), ids=QUADRATURE_MODELS)
def test_a_build_evaluates_the_model_once_per_level(make):
    model = make()
    sizes = collections.defaultdict(list)  # function name -> grid sizes it was called at

    def counted(name):
        fn = getattr(model, name)

        def call(y):
            sizes[name].append(y.size)
            return fn(y)

        return call

    names = ("pdf", "log_deriv1", "log_deriv2", "log_deriv3")
    build_eta_table(dataclasses.replace(model, **{name: counted(name) for name in names}))
    # pdf runs once at each full level grid reached: levels 0..L, each once
    reached = [_cached_nodes_weights(level)[0].size for level in range(len(sizes["pdf"]))]
    assert sizes["pdf"] == reached and len(reached) >= 3
    # the derivatives see the masked nodes, whose count differs from level to level
    masked = {
        int(np.count_nonzero(model.pdf(_cached_nodes_weights(level)[0]) > 0.0)) for level in range(len(reached))
    }
    for name in names[1:]:
        assert len(sizes[name]) == len(set(sizes[name])) <= len(reached), name
        assert set(sizes[name]) <= masked, name


def test_node_columns_are_read_only():
    columns = _NodeColumns(skew_normal_error(3.0))
    y = _cached_nodes_weights(2)[0]
    for name in ("mask", "y", "g", "log_deriv1", "log_deriv2", "log_deriv3"):
        column = columns(y, name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]


@pytest.mark.slow
def test_skew_normal_monte_carlo_cross_check(sn3_table):
    """Independent sampling-based estimates agree with quadrature (5 sigma)."""
    b = 3.0
    model = skew_normal_error(b)
    rng = np.random.default_rng(2024)
    n = 10_000_000
    delta = b / math.sqrt(1 + b * b)
    draws = delta * np.abs(rng.standard_normal(n)) + math.sqrt(1 - delta**2) * rng.standard_normal(n)
    estimates = eta_monte_carlo(model, draws)
    for idx, (est, se) in estimates.items():
        quad = float(sn3_table.value(*idx))
        assert abs(quad - est) <= 5 * se + 1e-9, (idx, quad, est, se)
