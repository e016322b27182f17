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
    assert m.log_deriv(1, 2.0) == -2.0
    assert m.log_deriv(2, 0.7) == -1.0
    assert m.log_deriv(3, -11.0) == 0.0
    assert m.pdf_eval(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)


def test_student_t_values():
    m = MODELS["t3"]
    # second log-derivative at 0 is (nu+1)(0-nu)/nu^2 = -(nu+1)/nu
    assert m.log_deriv(2, 0.0) == pytest.approx(-4.0 / 3.0, rel=1e-14)
    c3 = math.gamma(2.0) / (math.sqrt(3 * math.pi) * math.gamma(1.5))
    assert m.pdf_eval(0.0) == pytest.approx(c3, rel=1e-13)
    assert c3 == pytest.approx(0.36755, abs=5e-6)


def test_skew_normal_at_zero():
    m = MODELS["sn3"]
    # Phi(0) = 1/2 cancels the factor 2
    assert m.pdf_eval(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)


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
    got = np.asarray(m.log_deriv(order, ys), dtype=float)
    scale = np.maximum(1.0, np.abs(fd))
    assert np.max(np.abs(got - fd) / scale) < tol


def test_skew_normal_b0_equals_normal():
    sn0 = skew_normal_error(0.0)
    n = MODELS["normal"]
    ys = np.linspace(-8.0, 8.0, 41)
    for order in (1, 2, 3):
        assert np.allclose(sn0.log_deriv(order, ys), n.log_deriv(order, ys), atol=1e-12)
    assert np.allclose(sn0.pdf(ys), n.pdf(ys), atol=1e-14)


@pytest.mark.parametrize("name", ["normal", "t3", "t42"])
def test_symmetric_model_parity(name):
    m = MODELS[name]
    ys = np.linspace(0.1, 7.0, 25)
    assert np.allclose(m.log_deriv(1, -ys), -np.asarray(m.log_deriv(1, ys)), atol=1e-13)
    assert np.allclose(m.log_deriv(2, -ys), np.asarray(m.log_deriv(2, ys)), atol=1e-13)
    assert np.allclose(m.log_deriv(3, -ys), -np.asarray(m.log_deriv(3, ys)), atol=1e-13)


def test_skew_normal_far_left_tail_is_finite_and_accurate():
    m = MODELS["sn3"]
    ys = np.array([-15.0, -20.0, -40.0, -80.0])
    d1 = np.asarray(m.log_deriv(1, ys))
    # d log f / dy ~ -(1 + b^2) y for y -> -inf
    assert np.all(np.isfinite(d1))
    assert np.allclose(d1, -10.0 * ys, rtol=1e-2)
    assert np.all(np.isfinite(m.log_deriv(2, ys)))
    assert np.all(np.isfinite(m.log_deriv(3, ys)))


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
    for order in (1, 2, 3):
        assert np.allclose(m.log_deriv(order, ys), n.log_deriv(order, ys), atol=1e-12)


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


def test_non_finite_evaluation_reports_offending_point():
    import math
    m = student_t_error(3)
    with pytest.raises(Exception, match="non-finite"):
        m.log_deriv(1, math.nan)


def test_error_model_from_spec():
    assert error_model_from_spec("normal").label == "normal"
    assert float(error_model_from_spec("t:4.2").param) == pytest.approx(4.2)
    assert error_model_from_spec("skew-normal:3").param == 3.0
    with pytest.raises(ValueError):
        error_model_from_spec("cauchy")
    with pytest.raises(ValueError):
        error_model_from_spec("t")


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
        assert model.logpdf(np.array([-40.0]))[0] == -np.inf
        assert model.pdf(np.array([-40.0]))[0] == 0.0
        # exp(-y) overflows far to the left: rejected for the inf, not for a warning
        with pytest.raises(ValueError, match="non-finite values"):
            custom_error("logf = -y\nd1 = -1\nd2 = 0\nd3 = 0\n")
