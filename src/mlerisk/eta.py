"""Moment functionals of log-density derivatives (the eta table).

``eta[i, j, k, l]`` is the expectation, under the error density f, of

    (d^3 log f)^i * (d^2 log f)^j * (d log f)^k * y^l .

Every quantity in the risk expansion is a linear combination of these.  The
table is built in closed form for the normal and Student-t families (exact
rational arithmetic whenever the degrees of freedom are rational) and by
adaptive tanh-sinh quadrature for everything else.

Index grid
----------
The expansion machinery only ever references indices with
``l <= 3*i + 2*j + k`` (the y-power never exceeds the total log-derivative
order).  That constraint also characterises the integrals that converge for
every t(nu), nu > 0 -- the unconstrained rectangle would contain plain
moments like E[y^4] that diverge for nu <= 4 -- so the table grid is the
rectangle 0<=i<=1, 0<=j<=2, 0<=k<=4, 0<=l<=4 intersected with it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from ._quadrature import integrate_real_line
from .error_models import ErrorModel, ModelKind

__all__ = [
    "GRID",
    "EtaMethod",
    "EtaEntry",
    "EtaTable",
    "EtaDivergenceError",
    "EtaTableError",
    "eta_normal",
    "eta_t",
    "eta_quadrature",
    "build_eta_table",
]

GRID: tuple[tuple[int, int, int, int], ...] = tuple(
    (i, j, k, l)
    for i in range(2)
    for j in range(3)
    for k in range(5)
    for l in range(5)
    if l <= 3 * i + 2 * j + k
)


class EtaDivergenceError(ArithmeticError):
    """A requested moment integral diverges for the given model."""


class EtaTableError(RuntimeError):
    """Table construction failed; carries the failing index."""


class EtaMethod(enum.Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class EtaEntry:
    value: object  # Fraction (exact) or float
    abs_error_bound: object
    method: EtaMethod


@dataclass(frozen=True)
class EtaTable:
    model_label: str
    entries: Mapping[tuple[int, int, int, int], EtaEntry]
    exact: bool

    def value(self, i: int, j: int, k: int, l: int):
        try:
            return self.entries[(i, j, k, l)].value
        except KeyError:
            raise KeyError(
                f"eta[{i},{j},{k},{l}] is outside the table grid for {self.model_label}"
            ) from None

    def bound(self, i: int, j: int, k: int, l: int):
        return self.entries[(i, j, k, l)].abs_error_bound

    def max_error_bound(self) -> float:
        return max(float(e.abs_error_bound) for e in self.entries.values())

    def to_jsonable(self) -> dict:
        return {
            ",".join(map(str, idx)): {
                "value": float(e.value),
                "err": float(e.abs_error_bound),
                "method": e.method.value,
                **({"exact": str(e.value)} if isinstance(e.value, Fraction) else {}),
            }
            for idx, e in sorted(self.entries.items())
        }

    def check_invariants(self, slack: float = 0.0) -> None:
        """Enforce the normalisation/integration-by-parts identities.

        Each identity holds exactly for the true moments; a table entry may
        miss by its recorded error bound, so identities are required within
        the sum of the participating bounds plus ``slack``.
        """
        v = self.value
        b = lambda *idx: float(self.bound(*idx))
        checks = [
            ("eta[0,0,0,0] == 1", v(0, 0, 0, 0) - 1, b(0, 0, 0, 0)),
            ("eta[0,0,1,0] == 0", v(0, 0, 1, 0), b(0, 0, 1, 0)),
            (
                "eta[0,0,2,0] == -eta[0,1,0,0]",
                v(0, 0, 2, 0) + v(0, 1, 0, 0),
                b(0, 0, 2, 0) + b(0, 1, 0, 0),
            ),
            (
                "eta[0,0,2,1] == -eta[0,1,0,1]",
                v(0, 0, 2, 1) + v(0, 1, 0, 1),
                b(0, 0, 2, 1) + b(0, 1, 0, 1),
            ),
            (
                "1 + 2 eta[0,0,1,1] + eta[0,0,2,2] == -(1 + eta[0,1,0,2] + 2 eta[0,0,1,1])",
                2 + 4 * v(0, 0, 1, 1) + v(0, 0, 2, 2) + v(0, 1, 0, 2),
                4 * b(0, 0, 1, 1) + b(0, 0, 2, 2) + b(0, 1, 0, 2),
            ),
        ]
        for label, residual, allowance in checks:
            if abs(float(residual)) > allowance + slack:
                raise EtaTableError(
                    f"{self.model_label}: identity {label} violated by {float(residual):.3e} "
                    f"(allowance {allowance + slack:.3e})"
                )
        if not float(v(0, 0, 2, 0)) > 0:
            raise EtaTableError(
                f"{self.model_label}: eta[0,0,2,0] (location information) must be positive"
            )


def _double_factorial(n: int) -> int:
    # (-1)!! == 1 by convention
    if n <= 0:
        return 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def eta_normal(i: int, j: int, k: int, l: int) -> Fraction:
    """Closed form for the standard normal error."""
    _check_indices(i, j, k, l)
    if i >= 1:
        return Fraction(0)
    if (k + l) % 2 == 1:
        return Fraction(0)
    return Fraction((-1) ** (j + k) * _double_factorial(k + l - 1))


def _check_indices(i, j, k, l):
    if not (0 <= i <= 1 and 0 <= j <= 2 and 0 <= k <= 4 and 0 <= l <= 4):
        raise ValueError(f"indices out of range: ({i},{j},{k},{l})")


def _t_ch(a: int, b_shift: int, nu):
    """c(nu) * H(a, nu + b_shift) for even a >= 0, as a rational function of nu.

    H(a, b) integrates y^a (1 + y^2/nu)^(-(b+1)/2) over R.  Writing every
    Gamma factor as an integer shift of Gamma(nu/2) or Gamma((nu+1)/2) leaves
    a plain rational expression, so exact arithmetic survives for rational nu.
    """
    one = nu / nu  # Fraction(1) or 1.0, matching nu's type
    if a % 2 == 1:
        return 0 * one
    if a < 0 or not (a < nu + b_shift):
        raise EtaDivergenceError(
            f"moment diverges: H({a}, nu+{b_shift}) requires a < b (nu={nu})"
        )
    A = a // 2
    if b_shift % 2 != 0:
        raise ValueError("internal: b - nu must be even on the table grid")
    # Gamma((b-a)/2) / Gamma(nu/2), shift D = b_shift/2 - A
    D = b_shift // 2 - A
    ratio1 = one
    if D >= 0:
        for r in range(D):
            ratio1 = ratio1 * (nu / 2 + r)
    else:
        for r in range(1, -D + 1):
            ratio1 = ratio1 / (nu / 2 - r)
    # Gamma((nu+1)/2) / Gamma((b+1)/2), shift E/2 = b_shift/2
    ratio2 = one
    for r in range(b_shift // 2):
        ratio2 = ratio2 / ((nu + 1) / 2 + r)
    return (nu**A) * Fraction(_double_factorial(2 * A - 1), 2**A) * ratio1 * ratio2


def eta_t(i: int, j: int, k: int, l: int, nu):
    """Closed form for the t(nu) error; exact when nu is rational.

    Expands (y^2 - 3 nu)^i (y^2 - nu)^j binomially, reducing each term to a
    tail integral with a Gamma-ratio value.  (The 3^(i-s) binomial factor
    comes from the third log-derivative's 3*nu root.)  Raises
    :class:`EtaDivergenceError` when any contributing term fails the
    convergence condition of that integral.
    """
    _check_indices(i, j, k, l)
    nu = Fraction(nu) if isinstance(nu, (int, Fraction)) else float(nu)
    if not nu > 0:
        raise ValueError("nu must be positive")
    total = 0 * (nu / nu)
    b_shift = 6 * i + 4 * j + 2 * k
    for s in range(i + 1):
        for t in range(j + 1):
            a = i + k + l + 2 * s + 2 * t
            ch = _t_ch(a, b_shift, nu)
            if ch == 0:
                continue
            coeff = (
                Fraction(2**i * (-1) ** (j + k + s + t) * 3 ** (i - s))
                * math.comb(i, s)
                * math.comb(j, t)
            )
            total = total + coeff * (nu + 1) ** (i + j + k) * nu ** (-(s + t + 2 * i + j + k)) * ch
    return total


def eta_quadrature(
    model: ErrorModel, i: int, j: int, k: int, l: int, tol: float = 1e-10
) -> tuple[float, float]:
    """Tanh-sinh evaluation of one eta integral; returns (value, error bound)."""
    _check_indices(i, j, k, l)

    def integrand(y):
        f = np.asarray(model.pdf(y), dtype=float)
        out = np.zeros_like(f)
        mask = f > 0.0
        if not mask.any():
            return out
        ym = y[mask]
        g = f[mask]
        if i:
            g = g * np.asarray(model.log_deriv3(ym), dtype=float) ** i
        if j:
            g = g * np.asarray(model.log_deriv2(ym), dtype=float) ** j
        if k:
            g = g * np.asarray(model.log_deriv1(ym), dtype=float) ** k
        if l:
            g = g * ym**l
        out[mask] = g
        return out

    res = integrate_real_line(integrand, tol=tol)
    if not res.converged:
        raise EtaTableError(
            f"quadrature failed to converge for eta[{i},{j},{k},{l}] of {model!r}: "
            f"achieved bound {res.error_bound:.3e} > tol {tol:.1e}"
        )
    return res.value, res.error_bound


def eta_monte_carlo(model: ErrorModel, draws, indices=GRID, chunk: int = 1_000_000) -> dict:
    """Monte-Carlo estimates of eta over ``indices`` from pre-drawn samples.

    Used only as an independent cross-check of the quadrature path in the
    acceptance suite.  Returns {index: (estimate, standard_error)}.  Work is
    chunked and the y-power reduction batched as a matrix product, so 1e7
    draws over the whole grid stay cheap.
    """
    draws = np.asarray(draws, dtype=float)
    n = draws.size
    indices = list(indices)
    ijk_groups: dict[tuple[int, int, int], list[int]] = {}
    max_l = 0
    for pos, (i, j, k, l) in enumerate(indices):
        ijk_groups.setdefault((i, j, k), []).append(pos)
        max_l = max(max_l, l)
    sums = np.zeros(len(indices))
    sqsums = np.zeros(len(indices))
    for start in range(0, n, chunk):
        y = draws[start : start + chunk]
        d1 = np.asarray(model.log_deriv1(y), dtype=float)
        d2 = np.asarray(model.log_deriv2(y), dtype=float)
        d3 = np.asarray(model.log_deriv3(y), dtype=float)
        ypow = np.vander(y, 2 * max_l + 1, increasing=True)  # columns: y^0 .. y^(2 max_l)
        pows = {}
        for name, arr, top in (("d1", d1, 4), ("d2", d2, 2), ("d3", d3, 1)):
            acc = [None, arr]
            for _ in range(top - 1):
                acc.append(acc[-1] * arr)
            pows[name] = acc
        for (i, j, k), positions in ijk_groups.items():
            base = None
            for name, power in (("d3", i), ("d2", j), ("d1", k)):
                if power:
                    factor = pows[name][power]
                    base = factor if base is None else base * factor
            if base is None:
                part = ypow.sum(axis=0)
                part2 = part
            else:
                part = base @ ypow
                part2 = (base * base) @ ypow
            for pos in positions:
                l = indices[pos][3]
                sums[pos] += part[l]
                sqsums[pos] += part2[2 * l]
    out = {}
    for pos, idx in enumerate(indices):
        mean = sums[pos] / n
        var = max(sqsums[pos] / n - mean * mean, 0.0) * n / (n - 1)
        out[idx] = (float(mean), float(math.sqrt(var / n)))
    return out


def build_eta_table(model: ErrorModel, tol: float = 1e-10) -> EtaTable:
    """Populate the full table grid for ``model``.

    Normal and Student-t use their closed forms (error bound 0); all other
    models go through quadrature at ``tol``.  The finished table is validated
    against the integration-by-parts identities before being returned.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    entries: dict[tuple[int, int, int, int], EtaEntry] = {}
    if model.kind is ModelKind.NORMAL:
        for idx in GRID:
            entries[idx] = EtaEntry(eta_normal(*idx), Fraction(0), EtaMethod.CLOSED_FORM)
        exact = True
    elif model.kind is ModelKind.STUDENT_T:
        nu = model.param
        for idx in GRID:
            try:
                value = eta_t(*idx, nu)
            except EtaDivergenceError as exc:
                raise EtaTableError(f"eta{list(idx)} for {model!r}: {exc}") from exc
            zero = Fraction(0) if isinstance(value, Fraction) else 0.0
            entries[idx] = EtaEntry(value, zero, EtaMethod.CLOSED_FORM)
        exact = isinstance(entries[(0, 0, 0, 0)].value, Fraction)
    else:
        for idx in GRID:
            try:
                value, bound = eta_quadrature(model, *idx, tol=tol)
            except EtaTableError:
                raise
            except Exception as exc:
                raise EtaTableError(f"eta{list(idx)} for {model!r}: {exc}") from exc
            entries[idx] = EtaEntry(value, bound, EtaMethod.QUADRATURE)
        exact = False
    table = EtaTable(model_label=model.label or model.kind.value, entries=entries, exact=exact)
    table.check_invariants(slack=10 * tol if not exact else 0.0)
    return table
