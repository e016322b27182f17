import math

import numpy as np
import pytest

from mlerisk.error_models import (
    custom_error,
    error_model_from_spec,
    normal_error,
    skew_normal_error,
    student_t_error,
)
from mlerisk.expr import ExprSyntaxError, compile_expression, parse_density_file

MODELS = {
    "normal": normal_error(),
    "t3": student_t_error(3),
    "t42": student_t_error("4.2"),
    "sn3": skew_normal_error(3.0),
    "sn-2": skew_normal_error(-2.0),
}


def test_normal_log_derivatives_closed_form():
    m = MODELS["normal"]
    assert m.log_deriv1(2.0) == -2.0
    assert m.log_deriv2(0.7) == -1.0
    assert m.log_deriv3(-11.0) == 0.0
    assert m.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)


def test_student_t_values():
    m = MODELS["t3"]
    # second log-derivative at 0 is (nu+1)(0-nu)/nu^2 = -(nu+1)/nu
    assert m.log_deriv2(0.0) == pytest.approx(-4.0 / 3.0, rel=1e-14)
    c3 = math.gamma(2.0) / (math.sqrt(3 * math.pi) * math.gamma(1.5))
    assert m.pdf(0.0) == pytest.approx(c3, rel=1e-13)
    assert c3 == pytest.approx(0.36755, abs=5e-6)


def test_skew_normal_at_zero():
    m = MODELS["sn3"]
    # Phi(0) = 1/2 cancels the factor 2
    assert m.pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_log_derivatives_match_finite_differences(name, order):
    m = MODELS[name]
    ys = np.linspace(-6.0, 6.0, 50)
    logf = lambda y: np.log(m.pdf(y))
    if order == 1:
        h = 1e-5
        fd = (logf(ys + h) - logf(ys - h)) / (2 * h)
        tol = 1e-5
    elif order == 2:
        h = 1e-5
        fd = (logf(ys + h) - 2 * logf(ys) + logf(ys - h)) / h**2
        tol = 2e-4
    else:
        # the third central difference loses ~eps/h^3; 1e-5 steps are hopeless
        # in double precision, so a wider stencil is used for this order
        h = 2e-3
        fd = (
            logf(ys + 2 * h) - 2 * logf(ys + h) + 2 * logf(ys - h) - logf(ys - 2 * h)
        ) / (2 * h**3)
        tol = 1e-4
    got = getattr(m, f"log_deriv{order}")(ys)
    scale = np.maximum(1.0, np.abs(fd))
    assert np.max(np.abs(got - fd) / scale) < tol


def test_skew_normal_b0_equals_normal():
    sn0 = skew_normal_error(0.0)
    n = MODELS["normal"]
    ys = np.linspace(-8.0, 8.0, 41)
    for name in ("log_deriv1", "log_deriv2", "log_deriv3"):
        assert np.allclose(getattr(sn0, name)(ys), getattr(n, name)(ys), atol=1e-12)
    assert np.allclose(sn0.pdf(ys), n.pdf(ys), atol=1e-14)


@pytest.mark.parametrize("name", ["normal", "t3", "t42"])
def test_symmetric_model_parity(name):
    m = MODELS[name]
    ys = np.linspace(0.1, 7.0, 25)
    assert np.allclose(m.log_deriv1(-ys), -m.log_deriv1(ys), atol=1e-13)
    assert np.allclose(m.log_deriv2(-ys), m.log_deriv2(ys), atol=1e-13)
    assert np.allclose(m.log_deriv3(-ys), -m.log_deriv3(ys), atol=1e-13)


def test_skew_normal_far_left_tail_is_finite_and_accurate():
    m = MODELS["sn3"]
    ys = np.array([-15.0, -20.0, -40.0, -80.0])
    d1 = m.log_deriv1(ys)
    # d log f / dy ~ -(1 + b^2) y for y -> -inf
    assert np.all(np.isfinite(d1))
    assert np.allclose(d1, -10.0 * ys, rtol=1e-2)
    assert np.all(np.isfinite(m.log_deriv2(ys)))
    assert np.all(np.isfinite(m.log_deriv3(ys)))


def test_densities_integrate_to_one():
    from mlerisk._quadrature import integrate_real_line

    for m in MODELS.values():
        res = integrate_real_line(m.pdf, tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)


NORMAL_DECL = """
# hand-written standard normal
logf = -y^2/2 - log(2*pi)/2
d1 = -y
d2 = -1
d3 = 0
"""


def test_custom_model_roundtrip():
    m = custom_error(NORMAL_DECL)
    n = MODELS["normal"]
    ys = np.linspace(-5, 5, 21)
    assert np.allclose(m.pdf(ys), n.pdf(ys), rtol=1e-12)
    for name in ("log_deriv1", "log_deriv2", "log_deriv3"):
        assert np.allclose(getattr(m, name)(ys), getattr(n, name)(ys), atol=1e-12)


def test_custom_model_rejects_bad_derivative():
    bad = NORMAL_DECL.replace("d1 = -y", "d1 = -y/2")
    with pytest.raises(ValueError, match="finite differences"):
        custom_error(bad)


def test_custom_model_rejects_restricted_support():
    # a half-line density (exponential) must be refused
    decl = """
logf = -y
d1 = -1
d2 = 0
d3 = 0
"""
    with pytest.raises(ValueError):
        custom_error(decl)


def test_expression_grammar_features():
    f = compile_expression("2^-2 + sqrt(4) - exp(0) + erf(0) + Phi(0) + phi(0)*0")
    assert f(0.0) == pytest.approx(0.25 + 2 - 1 + 0 + 0.5, rel=1e-14)
    g = compile_expression("-y^2")  # unary minus binds looser than power
    assert g(3.0) == -9.0


def test_expression_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_density_file("logf = -y^2/2 - log(2*pi)/2\nd1 = -y $\nd2 = -1\nd3 = 0")
    assert exc.value.line == 2
    with pytest.raises(ExprSyntaxError, match="unknown name"):
        compile_expression("sin(y)")
    with pytest.raises(ValueError, match="missing declarations"):
        parse_density_file("logf = -y^2/2")


def test_error_model_from_spec():
    assert error_model_from_spec("normal").label == "normal"
    assert float(error_model_from_spec("t:4.2").param) == pytest.approx(4.2)
    assert error_model_from_spec("skew-normal:3").param == 3.0
    # both families parse through one exact-rational reader
    assert error_model_from_spec("skew-normal:4.2").param == 4.2
    assert error_model_from_spec("skew-normal:-1/3").param == -1 / 3
    with pytest.raises(ValueError):
        error_model_from_spec("cauchy")
    with pytest.raises(ValueError):
        error_model_from_spec("t")
    for family, name in (("skew-normal", "skew-normal shape b"), ("t", "t degrees of freedom nu")):
        for param in ("nan", "inf", "-inf", "1/0", "1e400", "three"):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                error_model_from_spec(f"{family}:{param}")


def test_a_parameter_exponent_beyond_a_double_is_refused_before_it_is_built():
    # Fraction would build 10**999999999 for these; the refusal needs no such power
    for param in ("1e-999999999", "-2.5E+999999999", "1e1_000_000", "3e-99999999999999999999999"):
        with pytest.raises(ValueError, match="^skew-normal shape b has an exponent beyond the range of a double"):
            error_model_from_spec(f"skew-normal:{param}")
    # an exponent a double's range can still use is read as before
    assert error_model_from_spec("skew-normal:1e-400").param == 0.0
    assert error_model_from_spec("skew-normal:0.0000000001e309").param == 1e299
    with pytest.raises(ValueError, match="^skew-normal shape b must be finite"):
        error_model_from_spec("skew-normal:1e400")


@pytest.mark.parametrize("nu", [0, -1.5, math.inf, math.nan])
def test_student_t_refuses_nu_outside_the_positive_reals(nu):
    with pytest.raises(ValueError, match="^t degrees of freedom nu must be positive and finite"):
        student_t_error(nu)


def test_custom_density_tails_raise_no_numeric_warnings():
    import warnings

    b = "3"
    r = f"phi({b}*y)/Phi({b}*y)"
    skew = (  # log(Phi(3y)) is -inf once Phi underflows, far to the left
        f"logf = log(2) - y^2/2 - log(2*pi)/2 + log(Phi({b}*y))\n"
        f"d1 = -y + {b}*{r}\n"
        f"d2 = -1 - {b}^3*y*{r} - {b}^2*({r})^2\n"
        f"d3 = {b}^3*(2*({r})^3 + 3*{b}*y*({r})^2 + ({b}^2*y^2 - 1)*{r})\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = custom_error(skew)
        assert model.log_pdf(np.array([-40.0]))[0] == -np.inf
        assert model.pdf(np.array([-40.0]))[0] == 0.0
        # exp(-y) overflows far to the left: rejected for the inf, not for a warning
        with pytest.raises(ValueError, match="non-finite values"):
            custom_error("logf = -y\nd1 = -1\nd2 = 0\nd3 = 0\n")


FIELDS = ("pdf", "log_pdf", "log_deriv1", "log_deriv2", "log_deriv3")


@pytest.mark.parametrize("name", ["normal", "t3", "t42", "sn3", "custom-normal"])
@pytest.mark.parametrize(
    "y",
    [np.array(0.3), np.linspace(-3.0, 3.0, 7), np.linspace(-3.0, 3.0, 12).reshape(3, 4)],
    ids=["0d", "1d", "2d"],
)
def test_every_field_returns_a_float_array_shaped_like_its_input(name, y):
    # the custom normal declares constant d2 and d3, which must broadcast
    m = custom_error(NORMAL_DECL) if name == "custom-normal" else MODELS[name]
    for field in FIELDS:
        out = getattr(m, field)(y)
        assert isinstance(out, (np.ndarray, np.floating)), field
        assert np.asarray(out).dtype == np.float64, field
        assert np.shape(out) == y.shape, field


def test_mle_fit_on_custom_normal_matches_builtin_normal():
    from mlerisk.mc import mle_fit

    rng = np.random.default_rng(5)
    x = rng.standard_normal((200, 2))
    y = 0.5 + x @ np.array([1.0, -2.0]) + 1.5 * rng.standard_normal(200)
    init = ([0.0, 0.0, 0.0], 2.0)
    custom = mle_fit(y, x, custom_error(NORMAL_DECL), init=init)
    builtin = mle_fit(y, x, MODELS["normal"], init=init)
    assert custom.converged and builtin.converged
    assert np.allclose(custom.beta, builtin.beta, rtol=0, atol=1e-10)
    assert custom.sigma == pytest.approx(builtin.sigma, rel=0, abs=1e-10)
