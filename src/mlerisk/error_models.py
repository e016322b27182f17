"""Error-term distributions with exact first/second/third log-density derivatives.

The whole second-order risk machinery consumes an error density only through
the moment functionals of its log-derivative powers, so a model here is just
the density ``f`` on the real line plus the three derivatives of ``log f``.
Closed forms are provided for the standard normal, the Student t(nu) and the
skew-normal(b) families; anything else comes in through a declarative
expression file (see :mod:`mlerisk.expr`) with all three derivatives supplied
by the user and validated against finite differences at construction.

All callables are vectorised over numpy arrays and pure; instances are frozen
and safe to share between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import special as _sp

from ._quadrature import integrate_real_line
from .expr import parse_density_file

__all__ = [
    "ModelKind",
    "ErrorModel",
    "normal_error",
    "student_t_error",
    "skew_normal_error",
    "custom_error",
    "error_model_from_spec",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class ModelKind(enum.Enum):
    NORMAL = "normal"
    STUDENT_T = "student_t"
    SKEW_NORMAL = "skew_normal"
    CUSTOM = "custom"


class DensityEvaluationError(ValueError):
    """A density or log-derivative returned a non-finite value."""


@dataclass(frozen=True)
class ErrorModel:
    """An error distribution supported on the whole real line.

    ``log_deriv1/2/3`` are d/dy, d^2/dy^2, d^3/dy^3 of log f.  ``param`` holds
    the family parameter (nu for Student t, b for skew-normal), kept as an
    exact :class:`~fractions.Fraction` when one was supplied so downstream
    closed forms can stay rational.
    """

    kind: ModelKind
    pdf: Callable
    log_deriv1: Callable
    log_deriv2: Callable
    log_deriv3: Callable
    param: object = None
    label: str = ""
    logpdf: Callable = None  # optional; falls back to log(pdf)

    def log_pdf(self, y):
        if self.logpdf is not None:
            return self.logpdf(y)
        return np.log(self.pdf(y))

    def log_deriv(self, order: int, y):
        """Evaluate the order-th derivative of log f (order in {1, 2, 3})."""
        if order == 1:
            fn = self.log_deriv1
        elif order == 2:
            fn = self.log_deriv2
        elif order == 3:
            fn = self.log_deriv3
        else:
            raise ValueError(f"order must be 1, 2 or 3, got {order}")
        out = fn(y)
        if np.isscalar(y) or np.ndim(y) == 0:
            out = float(out)
            if not math.isfinite(out):
                raise DensityEvaluationError(
                    f"log-derivative of order {order} is non-finite at y={float(y)!r}"
                )
        return out

    def pdf_eval(self, y):
        out = self.pdf(y)
        if np.isscalar(y) or np.ndim(y) == 0:
            out = float(out)
            if not math.isfinite(out):
                raise DensityEvaluationError(f"density is non-finite at y={float(y)!r}")
        return out

    def __repr__(self):  # keep dataclass noise out of error messages
        return f"ErrorModel({self.label or self.kind.value})"


def _mills_ratio_inverse(u):
    """phi(u)/Phi(u), stable down the entire left tail.

    For u <= 0 the direct ratio is 0/0-prone; rewriting both factors against
    exp(-u^2/2) gives phi/Phi = sqrt(2/pi) / erfcx(-u/sqrt(2)), which is
    accurate for all u (erfcx is the scaled complementary error function).
    """
    u = np.asarray(u, dtype=float)
    return math.sqrt(2.0 / math.pi) / _sp.erfcx(-u / math.sqrt(2.0))


def normal_error() -> ErrorModel:
    return ErrorModel(
        kind=ModelKind.NORMAL,
        pdf=lambda y: np.exp(-0.5 * np.asarray(y, dtype=float) ** 2) / _SQRT_2PI,
        log_deriv1=lambda y: -np.asarray(y, dtype=float),
        log_deriv2=lambda y: np.full_like(np.asarray(y, dtype=float), -1.0),
        log_deriv3=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
        label="normal",
        logpdf=lambda y: -0.5 * np.asarray(y, dtype=float) ** 2 - math.log(_SQRT_2PI),
    )


def student_t_error(nu) -> ErrorModel:
    """Student t with nu degrees of freedom (nu > 0, kept exact if rational)."""
    nu_exact = Fraction(nu) if not isinstance(nu, float) else nu
    nu_f = float(nu)
    if nu_f <= 0:
        raise ValueError("degrees of freedom must be positive")
    log_c = (
        math.lgamma((nu_f + 1) / 2) - math.lgamma(nu_f / 2) - 0.5 * math.log(math.pi * nu_f)
    )
    c = math.exp(log_c)

    def pdf(y):
        y = np.asarray(y, dtype=float)
        return c * (1.0 + y * y / nu_f) ** (-(nu_f + 1) / 2)

    def logpdf(y):
        y = np.asarray(y, dtype=float)
        return log_c - (nu_f + 1) / 2 * np.log1p(y * y / nu_f)

    def d1(y):
        y = np.asarray(y, dtype=float)
        return -(nu_f + 1) * y / (nu_f + y * y)

    def d2(y):
        y = np.asarray(y, dtype=float)
        return (nu_f + 1) * (y * y - nu_f) / (nu_f + y * y) ** 2

    def d3(y):
        y = np.asarray(y, dtype=float)
        return 2 * (nu_f + 1) * y * (3 * nu_f - y * y) / (nu_f + y * y) ** 3

    return ErrorModel(
        kind=ModelKind.STUDENT_T,
        pdf=pdf,
        log_deriv1=d1,
        log_deriv2=d2,
        log_deriv3=d3,
        param=nu_exact,
        label=f"t({nu})",
        logpdf=logpdf,
    )


def skew_normal_error(b: float) -> ErrorModel:
    """Skew-normal with shape b: f(y) = 2 phi(y) Phi(b y)."""
    b = float(b)

    def pdf(y):
        y = np.asarray(y, dtype=float)
        return 2.0 * np.exp(-0.5 * y * y) / _SQRT_2PI * _sp.ndtr(b * y)

    def logpdf(y):
        y = np.asarray(y, dtype=float)
        return math.log(2.0) - 0.5 * y * y - math.log(_SQRT_2PI) + _sp.log_ndtr(b * y)

    def d1(y):
        y = np.asarray(y, dtype=float)
        return -y + b * _mills_ratio_inverse(b * y)

    def d2(y):
        y = np.asarray(y, dtype=float)
        r = _mills_ratio_inverse(b * y)
        return -1.0 - b**3 * y * r - b**2 * r * r

    def d3(y):
        y = np.asarray(y, dtype=float)
        r = _mills_ratio_inverse(b * y)
        return b**3 * (2.0 * r**3 + 3.0 * b * y * r * r + (b * b * y * y - 1.0) * r)

    return ErrorModel(
        kind=ModelKind.SKEW_NORMAL,
        pdf=pdf,
        log_deriv1=d1,
        log_deriv2=d2,
        log_deriv3=d3,
        param=b,
        label=f"skew-normal({b})",
        logpdf=logpdf,
    )


def _validate_custom(model: ErrorModel) -> None:
    """Positivity, normalisation and finite-difference consistency checks."""
    probes = np.linspace(-8.0, 8.0, 33)
    dens = np.asarray(model.pdf(probes), dtype=float)
    if not np.all(np.isfinite(dens)) or np.any(dens <= 0.0):
        bad = probes[~(np.isfinite(dens) & (dens > 0.0))][0]
        raise ValueError(
            f"custom density must be positive on the whole real line; fails near y={bad:.3f} "
            "(restricted-support models are not accepted)"
        )
    try:
        total = integrate_real_line(model.pdf, tol=1e-10)
    except RuntimeWarning:  # a numeric warning made an error stays a fault
        raise
    except Exception as exc:
        raise ValueError(f"custom density is not integrable over the real line: {exc}") from exc
    if not total.converged or abs(total.value - 1.0) > 1e-8:
        raise ValueError(
            f"custom density does not integrate to 1 (got {total.value!r} "
            f"+/- {total.error_bound:.2e})"
        )
    # central finite differences of log f against the declared derivatives
    h = 1e-5
    pts = np.linspace(-5.0, 5.0, 21)
    logf = lambda y: np.log(model.pdf(y))
    fd1 = (logf(pts + h) - logf(pts - h)) / (2 * h)
    fd2 = (logf(pts + h) - 2 * logf(pts) + logf(pts - h)) / h**2
    d1 = np.asarray(model.log_deriv1(pts), dtype=float)
    d2 = np.asarray(model.log_deriv2(pts), dtype=float)
    d3 = np.asarray(model.log_deriv3(pts), dtype=float)
    fd3 = (
        np.asarray(model.log_deriv2(pts + h), dtype=float)
        - np.asarray(model.log_deriv2(pts - h), dtype=float)
    ) / (2 * h)
    for name, got, want, tol in (
        ("d1", d1, fd1, 1e-6),
        ("d2", d2, fd2, 1e-3),
        ("d3", d3, fd3, 1e-4),
    ):
        scale = np.maximum(1.0, np.abs(want))
        err = np.max(np.abs(got - want) / scale)
        if err > tol:
            raise ValueError(
                f"declared {name} disagrees with finite differences of log f "
                f"(max relative error {err:.2e} > {tol:g})"
            )


def _quiet(fn):
    """``fn`` with numpy's overflow and divide-by-zero warnings off.

    A declared log-density may reach -inf (log of an underflowed factor) or
    exp to +inf far in a tail; the quadrature masks such values and
    validation rejects a density whose mass they make infinite.
    """

    def evaluate(y):
        with np.errstate(over="ignore", divide="ignore"):
            return fn(y)

    return evaluate


def custom_error(text: str, label: str = "custom") -> ErrorModel:
    """Build a model from a density declaration (see :mod:`mlerisk.expr`)."""
    decls = parse_density_file(text)
    logf = decls["logf"]
    model = ErrorModel(
        kind=ModelKind.CUSTOM,
        pdf=_quiet(lambda y: np.exp(logf(np.asarray(y, dtype=float)))),
        logpdf=_quiet(lambda y: logf(np.asarray(y, dtype=float))),
        log_deriv1=lambda y: np.asarray(decls["d1"](np.asarray(y, dtype=float)), dtype=float),
        log_deriv2=lambda y: np.asarray(decls["d2"](np.asarray(y, dtype=float)), dtype=float),
        log_deriv3=lambda y: np.asarray(decls["d3"](np.asarray(y, dtype=float)), dtype=float),
        label=label,
    )
    _validate_custom(model)
    return model


def error_model_from_spec(spec: str) -> ErrorModel:
    """Parse a CLI model descriptor: normal | t:<nu> | skew-normal:<b> | custom:<file>."""
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "normal":
        if arg:
            raise ValueError("'normal' takes no parameter")
        return normal_error()
    if name in ("t", "student-t"):
        if not arg:
            raise ValueError("t error model needs degrees of freedom, e.g. t:3")
        # Fraction("4.2") == 21/5, keeping the closed-form eta table exact.
        return student_t_error(Fraction(arg))
    if name in ("skew-normal", "sn"):
        if not arg:
            raise ValueError("skew-normal error model needs a shape, e.g. skew-normal:3")
        return skew_normal_error(float(arg))
    if name == "custom":
        if not arg:
            raise ValueError("custom error model needs a file path, e.g. custom:density.txt")
        with open(arg, "r", encoding="utf-8") as fh:
            return custom_error(fh.read(), label=f"custom:{arg}")
    raise ValueError(f"unknown error model {spec!r}")
