"""Reference values the benchmark checks every op against.

Two kinds of reference live here, both independent of the code under test:

* the paper's published closed forms and tables (exact normal and t(3)
  coefficients under homogeneous moments, the indicator tables), copied as
  data;
* a plain re-derivation of the indicator arithmetic (binomial expansion,
  I.D.E., R.S.S. escalation, coin-toss equivalence, validity region) from the
  coefficients q = (qa, qb, qc), written without the library's helpers.

Only the standard library is used, so the references cost nothing to import.
"""

from __future__ import annotations

import math
from fractions import Fraction

F = Fraction


def normal_general_scaled(p, m4, m22):
    """96 q for the normal error under homogeneous moments (odd moments inert)."""
    A = 84 + (48 - 9 * m22 + 9 * m4) * p + 9 * m22 * p * p
    B = -8 * (-25 - 3 * (6 + m22 - m4) * p + 3 * (-1 + m22) * p * p)
    C = 300 + 240 * p + 81 * m22 * p - 81 * m4 * p + 48 * p * p - 81 * m22 * p * p
    return 96, A, B, C


def t3_general_scaled(p, m4, m22):
    """384 q for the t(3) error under homogeneous moments (odd moments inert)."""
    A = 6 * (13 + (10 - 3 * m22 + 3 * m4) * p + 3 * m22 * p * p)
    B = -2 * (-77 + (-72 - 51 * m22 + 51 * m4) * p + 3 * (-5 + 17 * m22) * p * p)
    C = 3 * (287 + (296 + 90 * m22 - 90 * m4) * p + (65 - 90 * m22) * p * p)
    return 384, A, B, C


CLOSED_FORMS = {"normal": normal_general_scaled, "t:3": t3_general_scaled}


def closed_form_q(spec: str, p: int, m4, m22) -> tuple[Fraction, Fraction, Fraction]:
    den, A, B, C = CLOSED_FORMS[spec](p, F(m4), F(m22))
    return F(A, den), F(B, den), F(C, den)


def preset_m4_m22(name: str, param=None) -> tuple[Fraction, Fraction]:
    """(m4, m22) of the four standardized reference regressor distributions."""
    if name == "normal":
        return F(3), F(1)
    if name == "controlled":
        return F(1), F(1)
    if name == "t":
        nu = F("4.2") if param is None else F(param)
        m22 = (nu - 2) / (nu - 4)
        return 3 * m22, m22
    if name == "pareto":
        b = F("4.2") if param is None else F(param)
        return 6 * (b**3 + b**2 - 6 * b - 2) / (b * (b - 3) * (b - 4)) + 3, F(1)
    raise ValueError(f"unknown preset {name!r}")


# Published indicator tables at alpha = -1, p = 10: x preset -> (ide, rss, k).
INDICATOR_TABLES = {
    "table1": {
        "normal": ("*", 111, 10),
        "t": ("*", 322, 40),
        "controlled": ("*", 112, 10),
        "pareto": ("*", 741, 110),
    },
    "table2": {
        "normal": ("*", 117, 10),
        "t": ("*", 246, 30),
        "controlled": ("*", 118, 10),
        "pareto": ("*", 689, 90),
    },
    "table3": {
        "normal": ("*", 101, 10),
        "t": ("*", 536, 70),
        "controlled": ("*", 105, 10),
        "pareto": ("*", 1499, 210),
    },
}

# Published wine/crime rows (from the reference aggregates): error -> (ide, rss).
DATASET_TABLES = {
    "table4": {"normal": (0.66, 130), "t:3": (0.81, 135), "skew-normal:3": ("*", 130)},
    "table5": {"normal": ("*", 987), "t:3": (0.72, 1025), "skew-normal:3": ("*", 947)},
}


def q_at(q, alpha) -> float:
    qa, qb, qc = (float(c) for c in q)
    return qa * alpha * alpha + qb * alpha + qc


def ed_regression(p: int, q, alpha, n: int) -> float:
    return (p + 2) / 2 / n + q_at(q, alpha) / (n * n)


def binomial_coeffs(alpha) -> tuple[float, float]:
    """(cM, c1): the n^-2 bracket of B(n, m) is cM * M + c1, M = 1/(m(1-m))."""
    ap = (1.0 - float(alpha)) / 2.0
    return 3 * ap * ap - 11 * ap + 10, -9 * ap * ap + 29 * ap - 22


def ed_fair_coin(alpha, k: int) -> float:
    cM, c1 = binomial_coeffs(alpha)
    return 0.5 / k + (4.0 * cM + c1) / 24.0 / (k * k)


def validity_n_min(p: int, q) -> int:
    """Smallest n >= p+3 with ED(-1, n) positive and decreasing in n."""
    main, q_ref = (p + 2) / 2, q_at(q, -1.0)

    def ok(n):
        return main * n + q_ref > 0 and main * n * (n + 1) + q_ref * (2 * n + 1) > 0

    n = max(p + 3, int(-2 * q_ref / main) - 3 if q_ref < 0 else 0)
    while not ok(n):
        n += 1
    while n - 1 >= p + 3 and ok(n - 1):
        n -= 1
    return n


def ide(p: int, q, alpha=-1.0):
    """Success probability m >= 1/2 of equal difficulty, or '*' when none."""
    cM, c1 = binomial_coeffs(alpha)
    M = (24.0 * q_at(q, alpha) / (p + 2) ** 2 - c1) / cM
    if not M >= 4:
        return "*"
    return 0.5 + math.sqrt(0.25 - 1.0 / M)


def rss(p: int, q, alpha=-1.0, k_start=10, k_step=10, k_max=1000) -> tuple[int, int] | None:
    """(n, k): regression size matching B(k, 1/2) inside the validity region."""
    main, qv, n_min = (p + 2) / 2, q_at(q, alpha), validity_n_min(p, q)
    for k in range(k_start, k_max + 1, k_step):
        c = ed_fair_coin(alpha, k)
        disc = main * main + 4.0 * c * qv
        if disc >= 0:
            n = (main + math.sqrt(disc)) / (2.0 * c)
            if n >= n_min:
                return math.floor(n + 0.5), k
    return None


def coin_equivalent(p: int, q, alpha, n_actual: int) -> int:
    v = ed_regression(p, q, alpha, n_actual)
    cM, c1 = binomial_coeffs(alpha)
    qb = (4.0 * cM + c1) / 24.0
    return math.floor((0.5 + math.sqrt(0.25 + 4.0 * v * qb)) / (2.0 * v) + 0.5)


def q_tolerance(q, coeff_error: float) -> float:
    """Allowed |dq| between two non-exact evaluations of the same coefficients."""
    return coeff_error + 1e-8 + 1e-11 * max(abs(float(c)) for c in q)
