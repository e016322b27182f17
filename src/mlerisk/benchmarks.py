"""Binomial benchmark and the sample-size indicators.

The binomial model B(n, m) admits the same kind of n^-2 risk expansion,

    ED_B(alpha, n) = 1/(2n) + [a'^2 (3M-9) + a' (-11M+29) + 10M-22] / (24 n^2),

with a' = (1-alpha)/2 and M = 1/m + 1/(1-m).  Matching it against a
regression expansion yields three indicators:

* I.D.E.  -- the success probability m at which a k-trial binomial is exactly
  as hard to estimate as the regression model at the same parameters-per-
  sample ratio (the equation is k-free);
* R.S.S.  -- the regression sample size matching a k-times fair coin toss,
  escalating k in steps until the root lands inside the expansion's validity
  region;
* coin-toss equivalence -- the fair-coin sample size matching the regression
  model at a given actual n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .expansion import RiskExpansion, _quadratic

__all__ = [
    "binomial_bracket",
    "binomial_risk",
    "IdeResult",
    "ide",
    "solve_rss_at_k",
    "RssResult",
    "rss",
    "coin_equivalent",
]

_NOT_FINITE = "a result is not finite (NaN or infinity); nothing was printed"


def _finite(x) -> float:
    """float(x); an ArithmeticError with the one not-finite message when that is
    NaN or an infinity, or when x is an exact number beyond the range of a double."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ArithmeticError(_NOT_FINITE)
    return f


def binomial_bracket(alpha):
    """(coef_M, coef_1) with bracket = coef_M * M + coef_1, M = 1/m + 1/(1-m)."""
    if isinstance(alpha, (int, Fraction)):
        # in alpha itself, each reduced once: 3a'^2 - 11a' + 10 = (3 alpha^2 + 16 alpha + 21)/4
        # and -9a'^2 + 29a' - 22 = (-9 alpha^2 - 40 alpha - 39)/4
        return _quadratic(3, 16, 21, 4, alpha), _quadratic(-9, -40, -39, 4, alpha)
    ap = (1.0 - alpha) / 2.0
    return 3 * ap * ap - 11 * ap + 10, -9 * ap * ap + 29 * ap - 22


def binomial_risk(m, alpha, n: int):
    """Truncated ED(alpha, n) for the binomial model B(n, m); ArithmeticError
    with the one not-finite message when it is not a finite double."""
    if not 0 < m < 1:
        raise ValueError("m must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be a positive integer")
    M = 1 / (m * (1 - m))
    cM, c1 = binomial_bracket(alpha)
    if isinstance(M, float) or isinstance(cM, float):  # each operand rounds once, as Fraction's float fallback does
        M, cM, c1 = _finite(M), _finite(cM), _finite(c1)
    q = (cM * M + c1) / 24
    half = Fraction(1, 2) if isinstance(q, Fraction) else 0.5
    ed = half / n + q / (n * n)
    _finite(ed)
    return ed


def _fair_coin_q(alpha) -> float:
    """The n^-2 coefficient of ED_B(alpha, n) at m = 1/2 (M = 4), as binomial_risk rounds it."""
    cM, c1 = binomial_bracket(alpha)
    return (_finite(cM) * 4.0 + _finite(c1)) / 24.0


def _larger_root(a: float, b: float, c: float) -> float | None:
    """The larger root x of a x^2 = b x + c (a > 0), or None when it is not real."""
    disc = b * b + 4.0 * a * c
    if disc < 0:
        return None
    return (b + math.sqrt(disc)) / (2.0 * a)


@dataclass(frozen=True)
class IdeResult:
    """Solution of the equal-difficulty equation against B(k, m).

    ``m`` is the root >= 1/2 (None when no admissible root exists, rendered
    as "*"); both roots and the solved M are kept for inspection.
    """

    m: float | None
    roots: tuple | None
    M: object

    @property
    def no_real_root(self) -> bool:
        return self.m is None


def ide(expansion: RiskExpansion, alpha) -> IdeResult:
    """Indicator of the difficulty of estimation.

    Equating the binomial and regression expansions at equal parameters-per-
    sample ratio (regression sample size (p+2)k) cancels both the main terms
    and k entirely, leaving a linear equation for M and then the quadratic
    m(1-m) = 1/M.  M < 4 means the binomial side is harder for every m.
    """
    # the bracket first: at an exact alpha beyond a double, a float table's q raises OverflowError
    cM, c1 = binomial_bracket(alpha)
    if abs(_finite(cM)) < 1e-14:
        return IdeResult(m=None, roots=None, M=None)
    q = expansion.q(alpha)
    p2 = expansion.p + 2
    rhs = 24 * q / (p2 * p2)
    M = (rhs - c1) / cM
    _finite(M)
    if not M >= 4:
        return IdeResult(m=None, roots=None, M=M)
    half_span = math.sqrt(0.25 - 1.0 / float(M))
    lo, hi = 0.5 - half_span, 0.5 + half_span
    return IdeResult(m=hi, roots=(lo, hi), M=M)


def solve_rss_at_k(expansion: RiskExpansion, alpha, k: int) -> float | None:
    """Larger root n of ED_B(alpha, k; m=1/2) = ED_R(alpha, n), if real.

    The matching equation is quadratic in 1/n; the larger-n root is the one
    on the decreasing branch of the truncated expansion (the smaller root is
    a truncation artifact).
    """
    return _larger_root(binomial_risk(0.5, alpha, k), float(expansion.main), _finite(expansion.q(alpha)))


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class RssResult:
    n: int
    benchmark_k: int
    n_unrounded: float


def rss(
    expansion: RiskExpansion,
    alpha,
    k_start: int = 10,
    k_step: int = 10,
    k_max: int = 1000,
) -> RssResult:
    """Required sample size against an escalating fair-coin benchmark.

    Starts at B(k_start, 1/2) and raises k by k_step until the matching
    equation has a real solution inside the validity region (positive and
    decreasing expansion).
    """
    if k_start < 1:
        raise ValueError(f"k_start must be a positive integer, got {k_start}")
    if k_step < 1:
        raise ValueError(f"k_step must be a positive integer, got {k_step}")
    if k_max < k_start:
        raise ValueError(f"k_max ({k_max}) must be at least k_start ({k_start})")
    coin_q, main, q = _fair_coin_q(alpha), float(expansion.main), _finite(expansion.q(alpha))
    for k in range(k_start, k_max + 1, k_step):
        n = _larger_root(_finite(0.5 / k + coin_q / (k * k)), main, q)  # solve_rss_at_k at this k
        if n is not None and n >= expansion.validity_n_min:
            return RssResult(n=_round_half_away(n), benchmark_k=k, n_unrounded=n)
    raise ArithmeticError(
        f"required-sample-size equation has no admissible solution at any k <= {k_max}"
    )


def coin_equivalent(expansion: RiskExpansion, alpha, n_actual: int) -> int:
    """Fair-coin sample size with the same risk as the model at n_actual."""
    if n_actual < expansion.p + 3:
        raise ValueError("n_actual must be at least p + 3")
    qb = _fair_coin_q(alpha)  # first, as in ide: evaluate can raise OverflowError
    v = _finite(expansion.evaluate(alpha, n_actual))
    n = _larger_root(v, 0.5, qb) if v > 0 else None  # v = 1/(2n) + qb/n^2
    if n is None:
        raise ArithmeticError("coin-toss equivalence equation has no positive solution")
    return _round_half_away(_finite(n))
