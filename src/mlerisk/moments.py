"""Joint-moment summaries of the standardized explanatory variables.

The n^-2 risk coefficient depends on the regressor distribution only through
three scalar aggregates of its third/fourth joint moments:

    M2a = sum_{i,j,k} m[i,j,k]^2
    M2b = sum_k ( sum_i m[i,i,k] )^2
    M1  = sum_{i,k} m[i,i,k,k]

For permutation-invariant ("homogeneous") regressors these reduce to

    M2a = p m3^2 + 3 p(p-1) m21^2 + p(p-1)(p-2) m111^2
    M2b = p m3^2 + p(p-1)^2 m21^2 + 2 p(p-1) m3 m21
    M1  = p m4  + p(p-1) m22

with m4 = E[x_i^4], m22 = E[x_i^2 x_j^2], m3 = E[x_i^3], m21 = E[x_i^2 x_j],
m111 = E[x_i x_j x_k] over distinct coordinates.  Exact arithmetic is
preserved whenever the moments are rational; the Pareto preset's skewness is
irrational but enters only through its (rational) square, which can be
supplied separately.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "HomogeneousMoments",
    "AggregatedMoments",
    "to_aggregated",
    "x_preset",
    "X_PRESET_NAMES",
]


@dataclass(frozen=True)
class HomogeneousMoments:
    """Moment summary for a permutation-invariant regressor distribution.

    ``m3_squared`` may be given explicitly to keep M2a/M2b exact when m3
    itself is irrational (only m3^2 and m3*m21 ever enter the aggregates).
    """

    p: int
    m4: object
    m22: object
    m3: object = 0
    m21: object = 0
    m111: object = 0
    m3_squared: object = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if self.m3_squared is None:
            object.__setattr__(self, "m3_squared", self.m3 * self.m3)
        _require_finite(self)
        if not self.m4 >= 1:
            raise ValueError("m4 must be >= 1 (Jensen: E[x^4] >= E[x^2]^2 = 1)")
        if not self.m22 >= 0:
            raise ValueError("m22 must be nonnegative")


@dataclass(frozen=True)
class AggregatedMoments:
    p: int  # p = 0 is the intercept-only model; all aggregates vanish then
    M2a: object
    M2b: object
    M1: object

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("p must be a nonnegative integer")
        _require_finite(self)
        if self.p == 0 and any(float(v) != 0.0 for v in (self.M2a, self.M2b, self.M1)):
            raise ValueError("aggregated moments must vanish when p = 0")
        if not self.M2a >= 0:
            raise ValueError("M2a is a sum of squares and must be nonnegative")
        if not self.M2b >= 0:
            raise ValueError("M2b is a sum of squared partial sums and must be nonnegative")
        if not self.M1 >= 0:
            raise ValueError("M1 is a sum of squares and must be nonnegative")


def _require_finite(moments) -> None:
    """Refuse an infinite or NaN moment, or one beyond the range of a double,
    naming it (a Fraction or int is finite but may still overflow float())."""
    for name, value in vars(moments).items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ValueError(f"{name} must be finite, got a value beyond the range of a double") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value}")


def to_aggregated(moments) -> AggregatedMoments:
    """Reduce any moment summary to the aggregated form (identity if already so)."""
    if isinstance(moments, AggregatedMoments):
        return moments
    if not isinstance(moments, HomogeneousMoments):
        raise TypeError(f"unsupported moment summary: {moments!r}")
    p = moments.p
    m3sq = moments.m3_squared
    m21, m111, m3 = moments.m21, moments.m111, moments.m3
    # the cross term is the only place m3 enters unsquared; skipping it when it
    # vanishes keeps rational inputs exact even when m3 itself is irrational
    cross = 0 if (m3 == 0 or m21 == 0) else 2 * p * (p - 1) * m3 * m21
    return AggregatedMoments(
        p=p,
        M2a=p * m3sq + 3 * p * (p - 1) * m21 * m21 + p * (p - 1) * (p - 2) * m111 * m111,
        M2b=p * m3sq + p * (p - 1) ** 2 * m21 * m21 + cross,
        M1=p * moments.m4 + p * (p - 1) * moments.m22,
    )


# The four reference regressor distributions, standardized to mean zero and
# identity second moment:
#   normal      x ~ N_p(0, I)
#   t           x ~ t_p(0, I, nu) rescaled by sqrt((nu-2)/nu), default nu=4.2
#   controlled  x_i iid, +/-1 with probability 1/2
#   pareto      x_i iid Pareto(b) standardized, default b=4.2
X_PRESET_NAMES = ("normal", "t", "controlled", "pareto")


def _pareto_moments(b: Fraction) -> tuple[Fraction, Fraction]:
    """(m4, m3^2) of a standardized Pareto(b) coordinate; needs b > 4."""
    if not b > 4:
        raise ValueError("Pareto preset needs index b > 4 for a finite fourth moment")
    m4 = 6 * (b**3 + b**2 - 6 * b - 2) / (b * (b - 3) * (b - 4)) + 3
    m3sq = 4 * (b + 1) ** 2 * (b - 2) / ((b - 3) ** 2 * b)
    return m4, m3sq


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _exact_param(param, what: str) -> Fraction:
    """A model or preset parameter as an exact rational, 21/5 when not given.

    ``param`` is a number or its text ('3', '4.2', '8129/21').  NaN, an
    infinity, a zero denominator, a value beyond the range of a double and
    text that is no number are all refused, naming ``what``.
    """
    if param is None:
        return Fraction("4.2")
    # Fraction builds 10**|exponent|; past the digits given plus 400 the value
    # overflows a double or rounds to 0, so refuse it before that work
    exponent = _EXPONENT.search(param) if isinstance(param, str) else None
    if exponent and abs(float(exponent[1])) > 400 + len(param):
        raise ValueError(f"{what} has an exponent beyond the range of a double, got {param!r}")
    try:
        value = Fraction(param)
        float(value)  # raises OverflowError beyond the range of a double
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{what} must be finite (a number such as 3, 4.2 or 21/5), got {param!r}") from None
    return value


def x_preset(name: str, p: int, param=None) -> HomogeneousMoments:
    """Homogeneous moment summary for one of the reference x distributions."""
    name = name.lower()
    if name in ("normal", "controlled") and param is not None:
        raise ValueError(f"{name!r} x preset takes no parameter, got {param!r}")
    if name == "normal":
        return HomogeneousMoments(p=p, m4=Fraction(3), m22=Fraction(1))
    if name == "t":
        nu = _exact_param(param, "t preset nu")
        if not nu > 4:
            raise ValueError("t preset needs nu > 4 for finite fourth moments")
        m22 = (nu - 2) / (nu - 4)
        return HomogeneousMoments(p=p, m4=3 * m22, m22=m22)
    if name == "controlled":
        return HomogeneousMoments(p=p, m4=Fraction(1), m22=Fraction(1))
    if name == "pareto":
        b = _exact_param(param, "Pareto preset index b")
        m4, m3sq = _pareto_moments(b)
        return HomogeneousMoments(
            p=p, m4=m4, m22=Fraction(1), m3=float(m3sq) ** 0.5, m3_squared=m3sq
        )
    raise ValueError(f"unknown x preset {name!r} (choose from {X_PRESET_NAMES})")
