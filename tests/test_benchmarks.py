import math
from fractions import Fraction

import pytest

import exact_cases
from mlerisk import benchmarks
from mlerisk.benchmarks import (
    binomial_bracket,
    binomial_risk,
    coin_equivalent,
    ide,
    rss,
    solve_rss_at_k,
)
from mlerisk.expansion import RiskExpansion, risk_expansion
from mlerisk.moments import AggregatedMoments, x_preset

F = Fraction

WINE = AggregatedMoments(p=11, M2a=0.000326899, M2b=0.000230836, M1=0.116967)


def test_binomial_fair_coin_ten_tosses():
    assert binomial_risk(F(1, 2), F(-1), 10) == F(1, 20) + F(1, 400)


def test_binomial_kl_reduces_to_m_minus_one_over_12():
    for m in (F(1, 2), F(3, 10), F(9, 10)):
        M = 1 / (m * (1 - m))
        for n in (7, 40):
            assert binomial_risk(m, F(-1), n) == F(1, 2 * n) + (M - 1) / (12 * n * n)


def test_binomial_symmetry_in_m():
    for alpha in (-1.0, 0.0, 1.0, 3.0, -6.0):
        assert binomial_risk(0.3, alpha, 17) == pytest.approx(
            binomial_risk(0.7, alpha, 17), rel=1e-14
        )


def test_binomial_bracket_alpha_minus_one():
    assert binomial_bracket(F(-1)) == (2, -2)


def test_binomial_risk_validates_inputs():
    with pytest.raises(ValueError):
        binomial_risk(0.0, -1.0, 10)
    with pytest.raises(ValueError):
        binomial_risk(0.5, -1.0, 0)


# --- I.D.E. ------------------------------------------------------------------


def _ide_bisection_oracle(exp, alpha, k):
    """Solve ED_B(k, m) = ED_R((p+2) k) for m >= 1/2 by plain bisection."""
    target = float(exp.evaluate(alpha, (exp.p + 2) * k))

    def g(m):
        return float(binomial_risk(m, alpha, k)) - target

    lo, hi = 0.5, 1.0 - 1e-12
    if g(lo) > 0:  # the coin is harder than the model for every m
        return None
    for _ in range(200):
        mid = (lo + hi) / 2
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_ide_wine_values(normal_table, t3_table, sn3_table):
    got = ide(risk_expansion(normal_table, WINE), F(-1))
    assert got.m == pytest.approx(0.66, abs=0.005)
    got_t = ide(risk_expansion(t3_table, WINE), F(-1))
    assert got_t.m == pytest.approx(0.81, abs=0.005)
    got_sn = ide(risk_expansion(sn3_table, WINE), F(-1))
    assert got_sn.no_real_root and got_sn.m is None and got_sn.roots is None


def test_ide_no_real_root_for_reference_configs(normal_table):
    result = ide(risk_expansion(normal_table, x_preset("normal", 10)), F(-1))
    assert result.no_real_root
    assert result.M < 4


def test_ide_roots_pair(normal_table):
    result = ide(risk_expansion(normal_table, WINE), F(-1))
    lo, hi = result.roots
    assert lo == pytest.approx(1 - hi, abs=1e-12)
    assert hi >= 0.5
    # both roots solve the matching equation
    for m in result.roots:
        assert float(binomial_risk(m, -1.0, 10)) == pytest.approx(
            float(risk_expansion(normal_table, WINE).evaluate(-1.0, 13 * 10)), rel=1e-9
        )


def test_ide_is_k_independent_against_bisection(normal_table):
    exp = risk_expansion(normal_table, WINE)
    analytic = ide(exp, F(-1)).m
    for k in (5, 10, 100):
        assert _ide_bisection_oracle(exp, -1.0, k) == pytest.approx(analytic, abs=1e-9)


# --- R.S.S. ------------------------------------------------------------------


def test_rss_worked_example(normal_table):
    exp = risk_expansion(normal_table, x_preset("normal", 10))
    result = rss(exp, F(-1))
    assert (result.n, result.benchmark_k) == (111, 10)
    assert result.n_unrounded == pytest.approx(111.19, abs=0.01)


def test_rss_escalates_benchmark(normal_table):
    exp = risk_expansion(normal_table, x_preset("t", 10))
    result = rss(exp, F(-1))
    assert result.benchmark_k == 40
    assert abs(result.n - 322) <= 1
    # below k = 40 the matching equation has no real root
    for k in (10, 20, 30):
        assert solve_rss_at_k(exp, F(-1), k) is None


def test_rss_root_lies_on_decreasing_branch(normal_table, t3_table):
    for table, preset in ((normal_table, "normal"), (t3_table, "pareto")):
        exp = risk_expansion(table, x_preset(preset, 10))
        result = rss(exp, F(-1))
        n = result.n
        assert float(exp.evaluate(-1.0, n)) > float(exp.evaluate(-1.0, n + 1)) > 0


def test_rss_monotone_in_difficulty(normal_table):
    easy = risk_expansion(normal_table, x_preset("normal", 10))
    hard = risk_expansion(normal_table, x_preset("controlled", 10))  # larger q(-1)
    assert hard.q(F(-1)) > easy.q(F(-1))
    k = 10
    assert solve_rss_at_k(hard, F(-1), k) >= solve_rss_at_k(easy, F(-1), k)


def test_rss_reports_failure_when_benchmark_capped(normal_table):
    exp = risk_expansion(normal_table, x_preset("pareto", 10))
    with pytest.raises(ArithmeticError, match="no admissible solution"):
        rss(exp, F(-1), k_max=50)


def test_rss_custom_step(normal_table):
    exp = risk_expansion(normal_table, x_preset("t", 10))
    result = rss(exp, F(-1), k_start=5, k_step=5)
    assert result.benchmark_k == 35  # finer escalation finds an earlier benchmark
    assert result.n >= exp.validity_n_min


@pytest.mark.parametrize(
    "kwargs,name", [({"k_step": 0}, "k_step"), ({"k_step": -10}, "k_step"), ({"k_start": 0}, "k_start")]
)
def test_rss_rejects_non_positive_k_start_and_step(normal_table, kwargs, name):
    exp = risk_expansion(normal_table, x_preset("pareto", 10))  # no admissible k below 1000
    with pytest.raises(ValueError, match=name):
        rss(exp, F(-1), **kwargs)


def test_rss_rejects_a_reversed_k_range(normal_table):
    exp = risk_expansion(normal_table, x_preset("normal", 10))
    with pytest.raises(ValueError, match=r"k_max \(5\).*k_start \(10\)"):
        rss(exp, F(-1), k_max=5)
    assert rss(exp, F(-1), k_max=10).benchmark_k == 10  # a one-point range is allowed


def _first_admissible_root(exp, alpha, k_start, k_step, k_max=1000):
    """rss spelled out: the first k on its grid where solve_rss_at_k's root is admissible."""
    for k in range(k_start, k_max + 1, k_step):
        n = solve_rss_at_k(exp, alpha, k)
        if n is not None and n >= exp.validity_n_min:
            return k, n
    raise ArithmeticError(
        f"required-sample-size equation has no admissible solution at any k <= {k_max}"
    )


@pytest.mark.parametrize("fixture", exact_cases.TABLES)
def test_rss_returns_the_first_admissible_root_of_solve_rss_at_k(fixture, request):
    table = request.getfixturevalue(fixture)
    for moments in exact_cases.sources():
        exp = risk_expansion(table, moments, with_error=False)
        for alpha in exact_cases.ALPHAS:
            for k_start, k_step in ((10, 10), (1, 1), (7, 3)):
                def via_rss():
                    result = rss(exp, alpha, k_start, k_step)
                    return result.benchmark_k, result.n_unrounded

                got = _outcome(via_rss)
                want = _outcome(_first_admissible_root, exp, alpha, k_start, k_step)
                assert exact_cases.same(got, want), (exp.p, alpha, k_start, k_step, got, want)


def test_rss_forms_the_bracket_once_however_far_k_escalates(normal_table, monkeypatch):
    exp = risk_expansion(normal_table, x_preset("t", 10))
    calls = []

    def counted(alpha):
        calls.append(alpha)
        return binomial_bracket(alpha)

    monkeypatch.setattr(benchmarks, "binomial_bracket", counted)
    assert rss(exp, F(-1), k_start=5, k_step=5).benchmark_k >= 5 + 5 * 5  # five escalations or more
    assert len(calls) == 1


# --- coin-toss equivalence ---------------------------------------------------


def test_coin_equivalent_wine_and_crime(normal_table):
    wine_exp = risk_expansion(normal_table, WINE)
    assert coin_equivalent(wine_exp, F(-1), 4898) in (376, 377)
    crime = AggregatedMoments(p=99, M2a=1708.97, M2b=1749.28, M1=2604.5)
    crime_exp = risk_expansion(normal_table, crime)
    assert coin_equivalent(crime_exp, F(-1), 2215) in (22, 23)


def test_coin_equivalent_inverts_rss(normal_table):
    """Matching forward (rss) then backward (coin equivalence) recovers k."""
    exp = risk_expansion(normal_table, WINE)
    result = rss(exp, F(-1), k_start=10)
    assert abs(coin_equivalent(exp, F(-1), result.n) - result.benchmark_k) <= 1


def test_coin_equivalent_validates_n(normal_table):
    exp = risk_expansion(normal_table, WINE)
    with pytest.raises(ValueError):
        coin_equivalent(exp, F(-1), exp.p + 2)


def test_series_decreasing_beyond_validity_all_reference_configs(
    normal_table, t3_table, sn3_table
):
    """ED(alpha=-1, (p+2)k) decreases in k once inside the validity region."""
    configs = [
        (table, x_preset(preset, 10))
        for table in (normal_table, t3_table, sn3_table)
        for preset in ("normal", "t", "controlled", "pareto")
    ] + [
        (table, WINE) for table in (normal_table, t3_table, sn3_table)
    ]
    for table, moments in configs:
        exp = risk_expansion(table, moments)
        ks = [k for k in range(5, 151) if (exp.p + 2) * k >= exp.validity_n_min]
        values = [float(exp.evaluate(-1.0, (exp.p + 2) * k)) for k in ks]
        assert all(a > b for a, b in zip(values, values[1:])), table.model_label


# --- rational paths against their plain expressions -------------------------------


def _plain_bracket(alpha):
    ap = F(1 - alpha, 2) if isinstance(alpha, (int, F)) else (1.0 - alpha) / 2.0
    return 3 * ap * ap - 11 * ap + 10, -9 * ap * ap + 29 * ap - 22


class _PlainExpansion(RiskExpansion):
    def q(self, alpha):
        return self.qa * alpha * alpha + self.qb * alpha + self.qc

    def evaluate(self, alpha, n):
        return self.main / n + self.q(alpha) / (n * n)


def _outcome(f, *args):
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_bracket_and_binomial_risk_equal_their_plain_expressions():
    for alpha in exact_cases.ALPHAS + (F(10**30, 7), True):
        assert exact_cases.same(binomial_bracket(alpha), _plain_bracket(alpha)), alpha
        for m in (F(1, 2), F(1, 3), 0.5):
            for k in (1, 10, 100, 12345):
                cM, c1 = _plain_bracket(alpha)
                q = (cM * (1 / (m * (1 - m))) + c1) / 24
                want = (F(1, 2) if isinstance(q, F) else 0.5) / k + q / (k * k)
                assert exact_cases.same(binomial_risk(m, alpha, k), want), (alpha, m, k)


@pytest.mark.parametrize("fixture", exact_cases.TABLES)
def test_indicators_equal_those_of_the_plain_expressions(fixture, request, monkeypatch):
    """rss, ide and coin_equivalent on the plain q, ED and bracket give the same bits."""
    table = request.getfixturevalue(fixture)
    for moments in exact_cases.sources():
        exp = risk_expansion(table, moments, with_error=False)
        plain = _PlainExpansion(**vars(exp))
        n_actual = 10 * exp.p + 200
        for alpha in exact_cases.ALPHAS:
            got = [_outcome(rss, exp, alpha), _outcome(ide, exp, alpha),
                   _outcome(coin_equivalent, exp, alpha, n_actual)]
            with monkeypatch.context() as patch:
                patch.setattr(benchmarks, "binomial_bracket", _plain_bracket)
                want = [_outcome(rss, plain, alpha), _outcome(ide, plain, alpha),
                        _outcome(coin_equivalent, plain, alpha, n_actual)]
            assert all(map(exact_cases.same, got, want)), (exp.p, alpha, got, want)


# --- one error for a result that is not finite --------------------------------------

NOT_FINITE_ALPHAS = (F(10**300), F(-10**300), 1e300, -1e300, math.inf, -math.inf, math.nan)
NOT_FINITE_IDS = ["exact 1e300", "exact -1e300", "1e300", "-1e300", "inf", "-inf", "nan"]


def _raises_not_finite(call, *args):
    with pytest.raises(ArithmeticError) as info:
        call(*args)
    return (info.type, str(info.value)) == (ArithmeticError, benchmarks._NOT_FINITE)


@pytest.mark.parametrize("alpha", NOT_FINITE_ALPHAS, ids=NOT_FINITE_IDS)
@pytest.mark.parametrize("fixture", ["normal_table", "sn3_table"])
def test_a_result_that_is_not_finite_raises_the_one_error(fixture, alpha, request):
    """An exact alpha beyond a double, a float one whose q overflows, an infinity
    and NaN all end in the same ArithmeticError; ide returns no NaN M."""
    exp = risk_expansion(request.getfixturevalue(fixture), x_preset("t", 10))
    assert _raises_not_finite(rss, exp, alpha)
    assert _raises_not_finite(ide, exp, alpha)
    assert _raises_not_finite(coin_equivalent, exp, alpha, 200)
    assert _raises_not_finite(solve_rss_at_k, exp, alpha, 10)
    assert _raises_not_finite(binomial_risk, 0.5, alpha, 10)


def test_a_bracket_beyond_a_double_raises_the_one_error_where_q_is_finite(t3_table):
    # qa = 13/64 < 3/4, the bracket's alpha^2 coefficient: q(alpha) is still a double
    exp = risk_expansion(t3_table, AggregatedMoments(p=0, M2a=0, M2b=0, M1=0))
    alpha = F(2 * 10**154)
    assert math.isfinite(float(exp.q(alpha)))
    assert _raises_not_finite(rss, exp, alpha)
    assert _raises_not_finite(ide, exp, alpha)
    assert _raises_not_finite(coin_equivalent, exp, alpha, 200)
