"""Moment functionals of log-density derivatives (the eta table).

``eta[i, j, k, l]`` is the expectation, under the error density f, of

    (d^3 log f)^i * (d^2 log f)^j * (d log f)^k * y^l .

Every quantity in the risk expansion is a linear combination of these.  The
table is built in closed form for the normal and Student-t families (exact
rational arithmetic whenever the degrees of freedom are rational) and by
adaptive tanh-sinh quadrature for everything else.  The 136 integrals of a
quadrature table share their node columns: at each level reached, a build
evaluates the density once and each log-derivative at most once, and every
integrand multiplies those cached arrays.  Each integral still runs its own
refinement, so its value, error bound and level are what it gives alone.

Index grid
----------
The expansion machinery only ever references indices with
``l <= 3*i + 2*j + k`` (the y-power never exceeds the total log-derivative
order).  That constraint also characterises the integrals that converge for
every t(nu), nu > 0 -- the unconstrained rectangle would contain plain
moments like E[y^4] that diverge for nu <= 4 -- so the table grid is the
rectangle 0<=i<=1, 0<=j<=2, 0<=k<=4, 0<=l<=4 intersected with it.
``eta_normal``, ``eta_t`` and ``eta_quadrature`` take grid indices only;
any other index raises ``ValueError``.
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
_GRID_SET = frozenset(GRID)


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
    if i or (k + l) % 2:
        return Fraction(0)
    return Fraction((-1) ** (j + k) * _double_factorial(k + l - 1))


def _check_indices(i, j, k, l):
    if (i, j, k, l) not in _GRID_SET:
        raise ValueError(f"eta[{i},{j},{k},{l}] is outside the table grid")


def _prefix_products(start, step):
    """``at(n) = prod_{r<n} (start + r*step)``, each product formed once, on demand."""
    prefix = [1]

    def at(n: int):
        while len(prefix) <= n:
            prefix.append(prefix[-1] * (start + (len(prefix) - 1) * step))
        return prefix[n]

    return at


def _student_t_eta(nu):
    """Return ``eta(i, j, k, l)`` for the t(nu) error, sharing one set-up.

    Expanding (y^2 - 3 nu)^i (y^2 - nu)^j binomially (the 3^(i-s) factor comes
    from the third log-derivative's 3*nu root) reduces every entry to tail
    integrals c(nu) H(a, nu + b), H(a, b) = int y^a (1 + y^2/nu)^(-(b+1)/2) dy,
    with a = i+k+l+2u (u = s+t) and b - nu = 2m, m = 3i+2j+k.  Each H is a
    ratio of Gamma functions at integer shifts of nu/2 and (nu+1)/2.  Writing
    nu = P/Q, every power of nu, Q and 2 that varies with u cancels, leaving

        eta = (-1)^(j+k) 2^i (P+Q)^(i+j+k) Q^i P^(A0-2i-j-k) / U(m)
              * sum_{s,t} (-1)^u 3^(i-s) C(i,s) C(j,t) (2A0+2u-1)!! Q^u R(D0-u)

    where A0 = (i+k+l)/2, D0 = m - A0, U(m) = prod_{r<m} (P+Q+2rQ) is
    Gamma((nu+1)/2) / Gamma((nu+1)/2 + m) up to powers of 2Q, and R(D) =
    prod_{r<D} (P+2rQ) is Gamma(nu/2 + D) / Gamma(nu/2) likewise.  R and U
    are prefix products shared by all entries, so an entry costs a few
    integer products and one normalisation: a ``Fraction`` for rational nu.
    A float nu is taken at its exact binary value P/Q and its entries are the
    integer ratios rounded once to float, i.e. the correctly rounded values
    of the exact moments at that nu.

    Only grid indices are asked for, where l <= 3i+2j+k gives every shift
    D = D0 - u >= D0 - (i+j) = (3i+2j+k-l)/2 >= 0: R(D) is a plain product
    and each tail integral converges (P + 2DQ > 0) for every nu > 0.
    """
    nu = Fraction(nu) if isinstance(nu, (int, Fraction)) else float(nu)
    if not 0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")
    exact = isinstance(nu, Fraction)
    P, Q = nu.as_integer_ratio()
    rising = _prefix_products(P, 2 * Q)
    upper = _prefix_products(P + Q, 2 * Q)

    def eta(i: int, j: int, k: int, l: int):
        if (i + k + l) % 2:
            return Fraction(0) if exact else 0.0
        m = 3 * i + 2 * j + k
        A0 = (i + k + l) // 2
        D0 = m - A0
        total = 0
        for s in range(i + 1):
            for t in range(j + 1):
                u = s + t
                total += (
                    (-1) ** u
                    * 3 ** (i - s)
                    * math.comb(i, s)
                    * math.comb(j, t)
                    * _double_factorial(2 * (A0 + u) - 1)
                    * Q**u
                    * rising(D0 - u)
                )
        num = (-1) ** (j + k) * 2**i * (P + Q) ** (i + j + k) * Q**i * total
        den = upper(m)
        p_power = A0 - 2 * i - j - k
        if p_power >= 0:
            num *= P**p_power
        else:
            den *= P ** (-p_power)
        return Fraction(num, den) if exact else num / den

    return eta


def eta_t(i: int, j: int, k: int, l: int, nu):
    """Closed form for the t(nu) error; exact when nu is rational."""
    _check_indices(i, j, k, l)
    return _student_t_eta(nu)(i, j, k, l)


class _NodeColumns:
    """One model's density and log-derivatives at the tanh-sinh nodes of one build.

    ``integrate_real_line`` hands an integrand the same cached grid at each
    level, and a grid's size identifies its level.  At each level reached,
    ``pdf`` runs once, giving the columns ``mask`` (f > 0), ``y`` (the
    masked nodes) and ``g`` (the masked density).  Each ``log_deriv*``
    runs on that ``y`` the first time an entry asks for it.  Every column is
    read-only, so the integrals that share them can only multiply them; each
    is the array a fresh evaluation would give, bit for bit.  The columns
    live for one build.
    """

    def __init__(self, model: ErrorModel):
        self.model = model
        self._levels: dict[int, dict] = {}  # grid size -> column name -> array

    def __call__(self, y: np.ndarray, name: str) -> np.ndarray:
        """Column ``name`` ('mask', 'y', 'g' or a ``log_deriv*``) at the level of grid ``y``."""
        columns = self._levels.get(y.size)
        if columns is None:
            f = self.model.pdf(y)
            mask = f > 0.0
            columns = self._levels[y.size] = {"mask": mask, "y": y[mask], "g": f[mask]}
            for column in columns.values():
                column.setflags(write=False)
        if name not in columns:
            columns[name] = getattr(self.model, name)(columns["y"])
            columns[name].setflags(write=False)
        return columns[name]


def _quadrature_entry(columns: _NodeColumns, i: int, j: int, k: int, l: int, tol: float):
    """(value, error bound) of eta[i,j,k,l] by tanh-sinh over shared ``columns``."""
    _check_indices(i, j, k, l)

    def integrand(y):
        out = np.zeros(y.shape)
        mask = columns(y, "mask")
        if not mask.any():
            return out
        g = columns(y, "g")
        if i:
            g = g * columns(y, "log_deriv3") ** i
        if j:
            g = g * columns(y, "log_deriv2") ** j
        if k:
            g = g * columns(y, "log_deriv1") ** k
        if l:
            g = g * columns(y, "y") ** l
        out[mask] = g
        return out

    res = integrate_real_line(integrand, tol=tol)
    if not res.converged:
        raise EtaTableError(
            f"quadrature failed to converge for eta[{i},{j},{k},{l}] of {columns.model!r}: "
            f"achieved bound {res.error_bound:.3e} > tol {tol:.1e}"
        )
    return res.value, res.error_bound


def eta_quadrature(
    model: ErrorModel, i: int, j: int, k: int, l: int, tol: float = 1e-10
) -> tuple[float, float]:
    """Tanh-sinh evaluation of one eta integral; returns (value, error bound)."""
    return _quadrature_entry(_NodeColumns(model), i, j, k, l, tol)


def build_eta_table(model: ErrorModel, tol: float = 1e-10) -> EtaTable:
    """Populate the full table grid for ``model``.

    Normal and Student-t use their closed forms (error bound 0); all other
    models go through quadrature at ``tol``.  The finished table is validated
    against the integration-by-parts identities before being returned.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    entries: dict[tuple[int, int, int, int], EtaEntry] = {}
    if model.kind in (ModelKind.NORMAL, ModelKind.STUDENT_T):
        eta = eta_normal if model.kind is ModelKind.NORMAL else _student_t_eta(model.param)
        for idx in GRID:
            value = eta(*idx)
            entries[idx] = EtaEntry(value, type(value)(0), EtaMethod.CLOSED_FORM)
        exact = isinstance(entries[(0, 0, 0, 0)].value, Fraction)
    else:
        columns = _NodeColumns(model)
        for idx in GRID:
            try:
                value, bound = _quadrature_entry(columns, *idx, tol)
            except (EtaTableError, RuntimeWarning):
                raise
            except Exception as exc:
                raise EtaTableError(f"eta{list(idx)} for {model!r}: {exc}") from exc
            entries[idx] = EtaEntry(value, bound, EtaMethod.QUADRATURE)
        exact = False
    table = EtaTable(model_label=model.label or model.kind.value, entries=entries, exact=exact)
    table.check_invariants(slack=10 * tol if not exact else 0.0)
    return table
