import dataclasses
import gc
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest

import mlerisk.expansion
from mlerisk.error_models import normal_error, skew_normal_error, student_t_error
from mlerisk.eta import GRID, EtaEntry, EtaMethod, EtaTable, build_eta_table, eta_normal
from mlerisk.expansion import (
    LTerms,
    RiskExpansion,
    SingularInformationError,
    _evaluate,
    _kernel,
    _metric,
    _propagate_coefficient_error,
    _q,
    _terms,
    _validity_n_min,
    l_terms,
    risk_expansion,
)
from mlerisk.moments import X_PRESET_NAMES, AggregatedMoments, HomogeneousMoments, to_aggregated, x_preset
import exact_cases
from combinator_oracle import ORACLE_CASES

F = Fraction


# --- metric block -----------------------------------------------------------


def test_metric_block_normal(normal_table):
    w, G = _metric(normal_table)
    assert w == 1
    assert G == {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): F(1, 2)}


@pytest.mark.parametrize("fixture", ["normal_table", "t3_table", "sn3_table"])
def test_metric_block_inverse_identity(fixture, request):
    table = request.getfixturevalue(fixture)
    w, G = _metric(table)
    v = lambda *idx: float(table.value(*idx))
    fwd = np.array(
        [
            [v(0, 0, 2, 0), -v(0, 1, 0, 1)],
            [-v(0, 1, 0, 1), 1 + 2 * v(0, 0, 1, 1) + v(0, 0, 2, 2)],
        ]
    )
    inv = np.array([[float(G[a, b]) for b in (0, 1)] for a in (0, 1)])
    assert np.max(np.abs(inv @ fwd - np.eye(2))) < 1e-12
    assert w == 1 / table.value(0, 0, 2, 0)


def test_metric_block_symmetric_cross_term_vanishes(t3_table):
    _, G = _metric(t3_table)
    assert G[0, 1] == G[1, 0] == 0


def test_metric_block_singular():
    entries = {idx: EtaEntry(eta_normal(*idx), F(0), EtaMethod.CLOSED_FORM) for idx in
               build_eta_table(normal_error()).entries}
    # zero out the location information and the sigma row consistently
    entries[(0, 0, 2, 0)] = EtaEntry(F(0), F(0), EtaMethod.CLOSED_FORM)
    entries[(0, 1, 0, 1)] = EtaEntry(F(0), F(0), EtaMethod.CLOSED_FORM)
    broken = EtaTable("broken", entries, exact=True)
    with pytest.raises(SingularInformationError):
        _metric(broken)


# --- eta patterns ------------------------------------------------------------
# A pattern is a product of groups (n, ns): an n-th score derivative with ns
# sigma slots, e.g. ((2, 0), (1, 0)) is L_(BB)B and ((1, 1),) * 3 is L_SSS.

_SSS = ((1, 1),) * 3


def _pattern(table, *groups):
    return _evaluate(table, _terms(groups))


def test_pattern_examples_normal(normal_table):
    assert _pattern(normal_table, (2, 0), (1, 0)) == 0  # -eta[0,1,1,0], odd parity
    # -(1 + 3 eta[0,0,1,1] + 3 eta[0,0,2,2] + eta[0,0,3,3]) = -(1 - 3 + 9 - 15)
    assert _pattern(normal_table, *_SSS) == 8
    v = normal_table.value
    expected = (
        1
        + v(0, 2, 0, 4)
        + 4 * v(0, 0, 2, 2)
        + 2 * v(0, 1, 0, 2)
        + 4 * v(0, 0, 1, 1)
        + 4 * v(0, 1, 1, 3)
    )
    assert _pattern(normal_table, (2, 2), (2, 2)) == expected


def test_pattern_sss_matches_score_cube_quadrature(normal_table):
    """Direct integral of the sigma-score cube as an independent oracle."""
    from mlerisk._quadrature import integrate_real_line

    m = normal_error()

    def integrand(y):
        score = -(1.0 + np.asarray(m.log_deriv1(y)) * y)  # sigma-score at sigma=1
        return score**3 * m.pdf(y)

    res = integrate_real_line(integrand, tol=1e-11)
    # the SSS combinator equals E[l_sigma^3] (minus signs already folded in)
    assert float(_pattern(normal_table, *_SSS)) == pytest.approx(res.value, abs=1e-9)


def _random_rational_table(seed):
    rng = np.random.default_rng(seed)
    entries = {
        idx: EtaEntry(F(int(rng.integers(-999, 1000)), int(rng.integers(1, 97))), F(0), EtaMethod.CLOSED_FORM)
        for idx in GRID
    }
    return EtaTable(f"random rational table {seed}", entries, exact=True)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_derived_patterns_equal_the_hand_expanded_listing_exactly(seed):
    # random entries: eta[0,0,0,0] != 1 and eta[0,0,1,0] != 0 here, so an
    # entry the listing does not read would show up as a mismatch
    table = _random_rational_table(seed)
    assert len(ORACLE_CASES) == 41
    for groups, oracle in ORACLE_CASES.items():
        assert _pattern(table, *groups) == oracle(table), groups


def test_derived_patterns_match_the_listing_on_a_quadrature_table(sn3_table):
    for groups, oracle in ORACLE_CASES.items():
        want = oracle(sn3_table)
        assert abs(_pattern(sn3_table, *groups) - want) <= 1e-15 * max(1.0, abs(want)), groups


def test_every_pattern_term_reads_a_grid_entry():
    from mlerisk import expansion

    families = (
        expansion._PAIR_SINGLE, expansion._TRIPLE, expansion._PAIR_PAIR, expansion._PAIR_TWO, expansion._FOUR
    )
    term_lists = [terms for family in families for terms in family.values()]
    term_lists += [expansion._terms(((3, a), (1, s))) for a in range(4) for s in range(2)]  # (abc)d
    for const, lin in term_lists:
        assert const in (-2, -1, 0, 1, 2)
        for c, idx in lin:
            assert c != 0 and idx in GRID and idx not in ((0, 0, 0, 0), (0, 0, 1, 0))


# --- moment reduction -------------------------------------------------------


def test_to_aggregated_normal_preset():
    agg = to_aggregated(HomogeneousMoments(p=10, m4=F(3), m22=F(1)))
    assert (agg.M2a, agg.M2b, agg.M1) == (0, 0, 120)


@pytest.mark.parametrize("name", ["normal", "controlled"])
def test_parameterless_preset_refuses_a_parameter(name):
    with pytest.raises(ValueError, match=f"'{name}' x preset takes no parameter"):
        x_preset(name, 3, "5")


@pytest.mark.parametrize("name,what", [("t", "t preset nu"), ("pareto", "Pareto preset index b")])
@pytest.mark.parametrize("param", [float("nan"), float("inf")])
def test_parameterised_preset_refuses_a_non_finite_parameter(name, what, param):
    with pytest.raises(ValueError, match=f"{what} must be finite"):
        x_preset(name, 3, param)


def test_to_aggregated_zero_moments():
    agg = to_aggregated(HomogeneousMoments(p=7, m4=F(1), m22=F(0)))
    assert (agg.M2a, agg.M2b, agg.M1) == (0, 0, 7)


def test_to_aggregated_pareto_preset():
    mom = x_preset("pareto", 10)
    agg = to_aggregated(mom)
    assert agg.M2a == 10 * F(7436, 189)
    assert agg.M2b == 10 * F(7436, 189)
    assert agg.M1 == 10 * F(8129, 21) + 90
    assert mom.m4 == F(8129, 21)


def _homogeneous_tensors(p, m4, m22, m3, m21, m111):
    """Explicit permutation-invariant third/fourth moment tensors."""
    t3 = np.empty((p, p, p))
    for i, j, k in itertools.product(range(p), repeat=3):
        if i == j == k:
            t3[i, j, k] = m3
        elif i == j or j == k or i == k:
            t3[i, j, k] = m21
        else:
            t3[i, j, k] = m111
    return t3


def test_to_aggregated_matches_brute_force_tensor():
    p, m4, m22, m3, m21, m111 = 3, 5.0, 1.5, 0.7, -0.2, 0.05
    t3 = _homogeneous_tensors(p, m4, m22, m3, m21, m111)
    M2a = float(np.sum(t3 * t3))
    M2b = float(sum(np.trace(t3[:, :, k]) ** 2 for k in range(p)))
    M1 = float(p * m4 + p * (p - 1) * m22)
    agg = to_aggregated(HomogeneousMoments(p=p, m4=m4, m22=m22, m3=m3, m21=m21, m111=m111))
    assert agg.M2a == pytest.approx(M2a, rel=1e-12)
    assert agg.M2b == pytest.approx(M2b, rel=1e-12)
    assert agg.M1 == pytest.approx(M1, rel=1e-12)


def test_moment_validation():
    with pytest.raises(ValueError, match="m4"):
        HomogeneousMoments(p=3, m4=0.5, m22=1.0)
    with pytest.raises(ValueError, match="M2a"):
        AggregatedMoments(p=3, M2a=-1.0, M2b=0.0, M1=1.0)


# --- L terms and invariants -------------------------------------------------


def test_l2x_insensitive_to_m2_for_quadratic_models(normal_table, t3_table):
    """With vanishing odd-moment weights, M2a/M2b never enter the L2x terms."""
    for table in (normal_table, t3_table):
        base = l_terms(table, AggregatedMoments(p=4, M2a=F(1), M2b=F(2), M1=F(9)))
        bumped = l_terms(table, AggregatedMoments(p=4, M2a=F(10), M2b=F(20), M1=F(9)))
        for name in ("l21", "l22", "l23", "l24", "l25", "l26"):
            assert getattr(base, name) == getattr(bumped, name), name


def _invariants(lt, p):
    """The geometric invariants as the derivation defines them from the L terms."""
    return dict(
        ffe=2 * lt.l11 + lt.l12 + lt.l13 - 2 * lt.l21 - lt.l23 - lt.l22,
        tt1=lt.l23,
        tt2=lt.l24,
        rre=lt.l14 - lt.l15 + lt.l11 - lt.l12 - lt.l25 + lt.l26 + lt.l22 - lt.l21,
        aaee1=lt.l14 - lt.l25 - p,
        aaee2=lt.l15 - lt.l26 - p * p,
        aaem1=lt.l11 + lt.l14 - lt.l25 - lt.l21,
        aaem2=lt.l12 + lt.l15 - lt.l26 - lt.l22,
    )


def test_geometric_invariants_zero_l_terms():
    # only aaee1 = -p = -2 and aaee2 = -p^2 = -4 survive: A = B = 0, C = -24
    assert _q(LTerms(*(F(0),) * 11), 2) == (0, 0, -1)


def test_tt1_is_l23(t3_table):
    """l23 enters q as tt1 and through -l23 in ffe: (0, 1/6, 1/4) per unit."""
    lt = l_terms(t3_table, x_preset("normal", 3))
    bumped = dataclasses.replace(lt, l23=lt.l23 + 1)
    assert tuple(b - a for a, b in zip(_q(lt, 3), _q(bumped, 3))) == (0, F(1, 6), F(1, 4))


# --- assembled expansion: exact reproduction of the published forms ---------


def q96_normal_general(p, m4, m22):
    """96 q(alpha) for the normal error and homogeneous moments, as (A, B, C)."""
    A = 84 + (48 - 9 * m22 + 9 * m4) * p + 9 * m22 * p * p
    B = -8 * (-25 - 3 * (6 + m22 - m4) * p + 3 * (-1 + m22) * p * p)
    C = 300 + 240 * p + 81 * m22 * p - 81 * m4 * p + 48 * p * p - 81 * m22 * p * p
    return A, B, C


@pytest.mark.parametrize("p", [1, 2, 3, 10, 99])
@pytest.mark.parametrize("m4,m22", [(F(3), F(1)), (F(33), F(11)), (F(1), F(1)), (F(8129, 21), F(1))])
def test_normal_error_general_form_exact(normal_table, p, m4, m22):
    exp = risk_expansion(normal_table, HomogeneousMoments(p=p, m4=m4, m22=m22))
    A, B, C = q96_normal_general(p, m4, m22)
    assert exp.qa * 96 == A
    assert exp.qb * 96 == B
    assert exp.qc * 96 == C
    assert exp.main == F(p + 2, 2)


def test_normal_worked_example_exact(normal_table):
    exp = risk_expansion(normal_table, x_preset("normal", 10))
    assert exp.q(F(-1)) == F(-217, 12)
    assert exp.evaluate(F(-1), 120) == F(6, 120) - F(217, 12 * 120 * 120)


def test_t3_general_form_exact(t3_table):
    for p, m4, m22 in [(1, F(3), F(1)), (10, F(33), F(11)), (5, F(7, 2), F(2))]:
        exp = risk_expansion(t3_table, HomogeneousMoments(p=p, m4=m4, m22=m22))
        assert exp.qa * 384 == 6 * (13 + (10 - 3 * m22 + 3 * m4) * p + 3 * m22 * p * p)
        assert exp.qb * 384 == -2 * (
            -77 + (-72 - 51 * m22 + 51 * m4) * p + 3 * (-5 + 17 * m22) * p * p
        )
        assert exp.qc * 384 == 3 * (
            287 + (296 + 90 * m22 - 90 * m4) * p + (65 - 90 * m22) * p * p
        )


def test_alpha_prime_origin_matches_q_at_one(normal_table):
    """q(1) must equal the alpha'-bracket at alpha' = 0 divided by 24."""
    mom = x_preset("t", 4)
    exp = risk_expansion(normal_table, mom)
    gi = _invariants(l_terms(normal_table, mom), 4)
    C = (
        12 * gi["aaee1"]
        - 2 * gi["aaem1"]
        - gi["aaem2"]
        + gi["tt1"]
        + 9 * gi["tt2"]
        + 8 * gi["rre"]
        - 9 * gi["ffe"]
    )
    assert exp.q(F(1)) == C / 24


def test_proposition1_invariance_bitwise(normal_table, t3_table):
    """Quadratic error models ignore the odd-moment aggregates entirely."""
    for table in (normal_table, t3_table):
        base = risk_expansion(table, AggregatedMoments(p=6, M2a=F(1), M2b=F(3), M1=F(20)))
        bumped = risk_expansion(table, AggregatedMoments(p=6, M2a=F(10), M2b=F(30), M1=F(20)))
        assert (base.qa, base.qb, base.qc) == (bumped.qa, bumped.qb, bumped.qc)


def test_skew_normal_not_m2_invariant(sn3_table):
    base = risk_expansion(sn3_table, AggregatedMoments(p=6, M2a=1.0, M2b=3.0, M1=20.0))
    bumped = risk_expansion(sn3_table, AggregatedMoments(p=6, M2a=10.0, M2b=30.0, M1=20.0))
    assert base.qa != bumped.qa or base.qb != bumped.qb or base.qc != bumped.qc


def test_m4_coefficient_sign_interval(normal_table, t3_table):
    """The m4 weight is proportional to a quadratic in alpha with known roots."""

    def m4_coeff_at(table, alpha):
        lo = risk_expansion(table, HomogeneousMoments(p=1, m4=F(1), m22=F(1)))
        hi = risk_expansion(table, HomogeneousMoments(p=1, m4=F(2), m22=F(1)))
        return (hi.q(alpha) - lo.q(alpha))

    # normal: 3 a^2 - 8 a - 27, roots approx -1.95 and 4.62
    assert m4_coeff_at(normal_table, F(-1)) < 0 < m4_coeff_at(normal_table, F(-2))
    assert m4_coeff_at(normal_table, F(4)) < 0 < m4_coeff_at(normal_table, F(5))
    ratio = m4_coeff_at(normal_table, F(-2)) / (3 * 4 + 16 - 27)
    assert m4_coeff_at(normal_table, F(5)) == ratio * (3 * 25 - 40 - 27)
    # t(3): 3 a^2 - 17 a - 45, roots approx -1.97 and 7.63
    assert m4_coeff_at(t3_table, F(-1)) < 0 < m4_coeff_at(t3_table, F(-2))
    assert m4_coeff_at(t3_table, F(7)) < 0 < m4_coeff_at(t3_table, F(8))


def test_validity_n_min(normal_table):
    # positive q: valid from p+3 on
    wine_like = AggregatedMoments(p=11, M2a=0.0003, M2b=0.0002, M1=0.12)
    assert risk_expansion(normal_table, wine_like).validity_n_min == 14
    # x ~ t preset with normal error: decreasing only from ~206
    exp = risk_expansion(normal_table, x_preset("t", 10))
    n0 = exp.validity_n_min
    assert n0 >= 13
    for n in (n0, n0 + 1):
        assert exp.evaluate(F(-1), n) > 0
        assert exp.evaluate(F(-1), n) > exp.evaluate(F(-1), n + 1)
    assert not (
        exp.evaluate(F(-1), n0 - 1) > 0
        and exp.evaluate(F(-1), n0 - 1) > exp.evaluate(F(-1), n0)
    )


def test_main_term_dominates_at_large_n(normal_table):
    exp = risk_expansion(normal_table, x_preset("normal", 10))
    assert float(exp.evaluate(-1.0, 10**6)) == pytest.approx(float(exp.main) / 10**6, abs=1e-8)
    n = 10**9  # the correction is ~|q|/(main n) relative, so 1e-8 needs n this large
    assert float(exp.evaluate(-1.0, n)) == pytest.approx(float(exp.main) / n, rel=1e-8)


def test_dimension_variant_diagnostic(normal_table):
    exp = risk_expansion(normal_table, x_preset("normal", 10))
    assert exp.q_alt is not None
    assert (exp.qa, exp.qb, exp.qc) != tuple(exp.q_alt)
    # d cancels in qa and qb and enters qc as -d/2: p -> p+2 lowers qc by 1
    assert exp.q_alt == (exp.qa, exp.qb, exp.qc - 1)
    assert all(isinstance(c, F) for c in exp.q_alt)
    assert exp.to_jsonable()["q_full_param_count"] == [
        float(exp.qa), float(exp.qb), float(exp.qc - 1)
    ]


def test_exact_tables_give_exact_coeffs_and_quadrature_gives_floats(normal_table, sn3_table):
    exact = risk_expansion(normal_table, x_preset("normal", 3))
    assert exact.is_exact() and exact.coeff_error == 0.0
    approx = risk_expansion(sn3_table, x_preset("normal", 3))
    assert not approx.is_exact()
    assert 0 < approx.coeff_error < 1e-6


def test_jsonable_roundtrip_fields(normal_table):
    exp = risk_expansion(normal_table, x_preset("normal", 10))
    payload = exp.to_jsonable()
    assert payload["main"] == 6.0
    assert payload["q"] == [float(exp.qa), float(exp.qb), float(exp.qc)]
    assert payload["q_exact"] == [str(exp.qa), str(exp.qb), str(exp.qc)]
    assert payload["validity_n_min"] == exp.validity_n_min


# --- rational paths against their plain expressions -------------------------------


@pytest.mark.parametrize("fixture", exact_cases.TABLES)
def test_q_ed_and_the_kernel_dot_equal_their_plain_expressions(fixture, request):
    """Exact results are reduced once per result, so they must be the very
    Fractions the plain expressions give; float inputs keep their bits."""
    table = request.getfixturevalue(fixture)
    for moments in exact_cases.sources():
        exp = risk_expansion(table, moments, with_error=False)
        agg = to_aggregated(moments)
        basis = (1, agg.p, agg.p * agg.p, agg.M2a, agg.M2b, agg.M1)
        for got, row in zip((exp.qa, exp.qb, exp.qc), _kernel(table)):
            assert exact_cases.same(got, sum(k * b for k, b in zip(row, basis)))
        assert table.exact == (type(exp.qa) is F)
        for alpha in exact_cases.ALPHAS:
            q = exp.qa * alpha * alpha + exp.qb * alpha + exp.qc
            assert exact_cases.same(exp.q(alpha), q), alpha
            for n in (exp.p + 3, 100, 12345):
                assert exact_cases.same(exp.evaluate(alpha, n), exp.main / n + q / (n * n)), (alpha, n)


def _plain_q(exp, alpha):
    return exp.qa * alpha * alpha + exp.qb * alpha + exp.qc


def test_a_replaced_expansion_evaluates_with_its_own_coefficients(normal_table):
    """An exact expansion keeps its integer form after the first call; a copy
    made by dataclasses.replace must not reuse the form of its original."""
    exp = risk_expansion(normal_table, x_preset("pareto", 10))
    before = exp.q(F(1, 2)), exp.evaluate(F(-1), 360)
    for changes in ({"qc": exp.qc + F(1, 7)}, {"qa": exp.qa * 3, "main": F(13, 2)}):
        new = dataclasses.replace(exp, **changes)
        for alpha in exact_cases.ALPHAS:
            q = _plain_q(new, alpha)
            assert exact_cases.same(new.q(alpha), q), (changes, alpha)
            assert exact_cases.same(new.evaluate(alpha, 360), new.main / 360 + q / 360**2), (changes, alpha)
    assert (exp.q(F(1, 2)), exp.evaluate(F(-1), 360)) == before


@pytest.mark.parametrize("fixture", ["normal_table", "t21_5_table", "sn3_table"])
def test_repeated_calls_agree_and_an_expansion_equals_its_uncalled_copy(fixture, request):
    table = request.getfixturevalue(fixture)
    exp = risk_expansion(table, x_preset("t", 7), with_error=False)
    copy = dataclasses.replace(exp)
    first = [(exp.q(a), exp.evaluate(a, 100)) for a in exact_cases.ALPHAS]
    again = [(exp.q(a), exp.evaluate(a, 100)) for a in exact_cases.ALPHAS]
    assert all(map(exact_cases.same, first, again))
    assert exp == copy and hash(exp) == hash(copy)
    assert exp.to_jsonable() == copy.to_jsonable()
    assert dataclasses.astuple(exp) == dataclasses.astuple(copy)


def test_the_expansion_fields_are_unchanged():
    assert [(f.name, f.default) for f in dataclasses.fields(RiskExpansion)] == [
        ("p", dataclasses.MISSING), ("main", dataclasses.MISSING), ("qa", dataclasses.MISSING),
        ("qb", dataclasses.MISSING), ("qc", dataclasses.MISSING), ("validity_n_min", dataclasses.MISSING),
        ("coeff_error", 0.0), ("model_label", ""),
    ]


@pytest.mark.parametrize("main,qa", [(6.0, F(-3, 8)), (F(6), -0.375), (6, F(-3, 8)), (6.0, -0.375)],
                         ids=["float main", "float qa", "int main", "both float"])
def test_a_hand_built_float_operand_gives_the_plain_expression(main, qa):
    """A float main or qa (or an int main, whose main/n is a float) keeps the
    plain expressions in type and bits."""
    exp = RiskExpansion(p=10, main=main, qa=qa, qb=F(5, 3), qc=F(-41, 12), validity_n_min=13)
    for alpha in exact_cases.ALPHAS:
        q = _plain_q(exp, alpha)
        assert exact_cases.same(exp.q(alpha), q), alpha
        for n in (13, 100, 12345):
            assert exact_cases.same(exp.evaluate(alpha, n), main / n + q / (n * n)), (alpha, n)


# --- compiled kernel ------------------------------------------------------------


def _moment_sources():
    """p in {0, 1, 2, 10, 40}: every preset and homogeneous moments with odd terms."""
    yield AggregatedMoments(p=0, M2a=0, M2b=0, M1=0)
    for p in (1, 2, 10, 40):
        yield from (x_preset(name, p) for name in X_PRESET_NAMES)
        yield HomogeneousMoments(p=p, m4=F(7, 2), m22=F(6, 5), m3=F(1, 3), m21=F(-1, 7), m111=F(1, 11))
        yield HomogeneousMoments(p=p, m4=F(5), m22=F(9, 4), m3=F(-3, 2), m21=F(2, 5), m111=F(-1, 3))


def _direct_q(table, moments):
    """(qa, qb, qc) from one l_terms call on the moments themselves."""
    agg = to_aggregated(moments)
    return _q(l_terms(table, agg), agg.p)


def _first_valid_n(p, main, q_ref):
    """The definition of validity_n_min: the first n >= p+3 from which ED(-1, .)
    is positive and decreasing (both conditions hold from some n on)."""
    n = p + 3
    while not (main * n + q_ref > 0 and main * n * (n + 1) + q_ref * (2 * n + 1) > 0):
        n += 1
    return n


@pytest.mark.parametrize("fixture", ["normal_table", "t3_table", "t21_5_table"])
def test_kernel_gives_the_direct_route_bit_for_bit_on_exact_tables(fixture, request):
    table = request.getfixturevalue(fixture)
    for moments in _moment_sources():
        exp = risk_expansion(table, moments)
        q = _direct_q(table, moments)
        assert (exp.qa, exp.qb, exp.qc) == q
        assert all(type(c) is F for c in (exp.qa, exp.qb, exp.qc))
        assert exp.to_jsonable()["q_exact"] == [str(c) for c in q]
        p = to_aggregated(moments).p
        assert exp.validity_n_min == _first_valid_n(p, F(p + 2, 2), q[0] - q[1] + q[2])


@pytest.mark.parametrize("model", [skew_normal_error(0.5), skew_normal_error(3.0), student_t_error(4.2)],
                         ids=["sn(0.5)", "sn(3)", "t(4.2)"])
def test_kernel_on_a_float_table_is_no_further_from_exact_than_the_direct_route(model):
    """Against the exact-rational evaluation of the same float table."""
    table = build_eta_table(model)
    exact = EtaTable(
        table.model_label,
        {idx: EtaEntry(F(e.value), e.abs_error_bound, e.method) for idx, e in table.entries.items()},
        exact=True,
    )
    # the float kernel is the exact kernel of the table's binary values, rounded once
    assert _kernel(table) == tuple(tuple(float(k) for k in row) for row in _kernel(exact))
    worst_kernel = worst_direct = 0
    for moments in _moment_sources():
        truth = _direct_q(exact, moments)
        scale = max(abs(c) for c in truth)
        exp = risk_expansion(table, moments, with_error=False)
        worst_kernel = max(worst_kernel, *(abs(F(a) - b) / scale for a, b in zip((exp.qa, exp.qb, exp.qc), truth)))
        worst_direct = max(worst_direct, *(abs(F(a) - b) / scale for a, b in zip(_direct_q(table, moments), truth)))
    assert worst_kernel <= worst_direct
    assert worst_kernel < 1e-14


@pytest.mark.parametrize("shape", [0.5, 3.0])
def test_coeff_error_keeps_its_finite_difference(shape):
    """Only the base point q0 of the finite difference comes from the kernel now."""
    table = build_eta_table(skew_normal_error(shape))
    for moments in (x_preset("pareto", 10), x_preset("normal", 3),
                    HomogeneousMoments(p=40, m4=F(5), m22=F(9, 4), m3=F(-3, 2), m21=F(2, 5), m111=F(-1, 3))):
        agg = to_aggregated(moments)
        direct = _propagate_coefficient_error(table, agg, _direct_q(table, agg))
        assert risk_expansion(table, moments).coeff_error == pytest.approx(direct, rel=1e-6)


def test_l_terms_runs_once_per_table_and_the_kernel_dies_with_it(monkeypatch):
    """Calls of the module attribute, as the benchmark's tracer counts them."""
    calls = []
    original = mlerisk.expansion.l_terms
    monkeypatch.setattr(mlerisk.expansion, "l_terms", lambda *args: calls.append(args) or original(*args))
    table = build_eta_table(normal_error())
    risk_expansion(table, x_preset("pareto", 10))
    assert len(calls) == 1
    risk_expansion(table, x_preset("t", 7))
    risk_expansion(table, AggregatedMoments(p=3, M2a=F(1), M2b=F(2), M1=F(20)))
    assert len(calls) == 1
    sn3 = build_eta_table(skew_normal_error(3.0))
    calls.clear()
    risk_expansion(sn3, x_preset("pareto", 10))  # one kernel pass, 109 bumped tables
    assert len(calls) == 110
    calls.clear()  # the recorded arguments hold the tables
    dropped = weakref.ref(table)
    del table
    gc.collect()
    assert dropped() is None


@pytest.mark.parametrize("q_ref", [float("nan"), float("inf"), -float("inf")])
def test_validity_search_refuses_a_non_finite_reference(q_ref):
    with pytest.raises(ArithmeticError, match="not finite"):
        _validity_n_min(10, 6.0, q_ref)


def test_validity_search_refuses_a_region_beyond_its_cap(normal_table):
    with pytest.raises(ArithmeticError, match="beyond"):
        risk_expansion(normal_table, AggregatedMoments(p=10, M2a=0, M2b=F(10**308), M1=F(10**308)))
    with pytest.raises(ArithmeticError, match="beyond"):
        _validity_n_min(10, 6.0, -1e300)


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: AggregatedMoments(p=10, M2a=0, M2b=0, M1=float("inf")), "M1"),
        (lambda: AggregatedMoments(p=10, M2a=float("nan"), M2b=0, M1=120), "M2a"),
        (lambda: AggregatedMoments(p=10, M2a=0, M2b=float("inf"), M1=200), "M2b"),
        (lambda: HomogeneousMoments(p=3, m4=float("inf"), m22=1), "m4"),
        (lambda: HomogeneousMoments(p=3, m4=3, m22=1, m21=float("nan")), "m21"),
        (lambda: HomogeneousMoments(p=3, m4=3, m22=1, m111=-float("inf")), "m111"),
    ],
)
def test_non_finite_moments_are_refused_by_name(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build()


class _Recording(dict):
    """A table's entries that note every key read by item access."""

    def __init__(self, entries):
        super().__init__(entries)
        self.read = set()

    def __getitem__(self, idx):
        self.read.add(idx)
        return super().__getitem__(idx)


_READ_SET_MODELS = {
    "normal": normal_error(), "t(3)": student_t_error(3), "t(21/5)": student_t_error(F(21, 5)),
    "sn(0.5)": skew_normal_error(0.5), "sn(3)": skew_normal_error(3.0),
}


def _bits(x):
    return type(x), x.hex() if isinstance(x, float) else x


def test_the_expansion_reads_one_set_of_32_entries_and_builds_from_them_alone():
    """What building only the read set relies on: the invariants, the kernel and
    q read the same 32 entries for every model, and a table holding only
    those gives the same kernel bits, q and validity bound."""
    read_sets = {}
    for name, model in _READ_SET_MODELS.items():
        table = build_eta_table(model)
        recording = EtaTable(table.model_label, _Recording(table.entries), table.exact)
        recording.check_invariants()
        _kernel(recording)
        for moments in (x_preset("pareto", 10), x_preset("normal", 3)):
            risk_expansion(recording, moments, with_error=False)
        read = read_sets[name] = frozenset(recording.entries.read)

        restricted = EtaTable(table.model_label, {idx: table.entries[idx] for idx in read}, table.exact)
        restricted.check_invariants()
        assert [list(map(_bits, row)) for row in _kernel(restricted)] == \
            [list(map(_bits, row)) for row in _kernel(table)], name
        for moments in (x_preset("pareto", 10), x_preset("t", 7),
                        AggregatedMoments(p=40, M2a=F(5), M2b=F(9, 4), M1=F(1700))):
            full, part = risk_expansion(table, moments), risk_expansion(restricted, moments)
            for alpha in (-1, 0, F(1, 2), 3):
                assert _bits(part.q(alpha)) == _bits(full.q(alpha)), name
            assert part.validity_n_min == full.validity_n_min, name
            # the restricted table bumps fewer entries, each adding its own rounding
            assert part.coeff_error == pytest.approx(full.coeff_error, rel=1e-6), name
    assert len(set(read_sets.values())) == 1
    (read,) = set(read_sets.values())
    assert len(read) == 32
    assert all(idx[0] != 1 for idx in read)
