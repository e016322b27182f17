"""Assembly of the order n^-2 risk expansion from an eta table and moments.

The expected alpha-divergence of the regression MLE expands as

    ED(alpha, n) = (p+2)/(2n) + q(alpha)/n^2 + o(n^-2),

where q is a quadratic in alpha.  This module carries an
:class:`~mlerisk.eta.EtaTable` plus a moment summary through the chain

    metric block -> pattern combinators -> L terms -> geometric invariants
    -> (qa, qb, qc)

using plain Python arithmetic throughout, so exact rational tables yield
exact rational coefficients.  The sums over the special index pair
{intercept, sigma} are written out verbatim from the published computational
pipeline; where that pipeline and its accompanying derivation disagree, the
pipeline wins, because the published coefficient tables are its output.  Its
use of the regressor count p (rather than the full parameter count p+2)
inside two of the inner products is likewise kept.  Reading p+2 there instead
cancels in qa and qb and lowers qc by exactly 1, so that reading is reported
as the constant shift ``q_full_param_count = [qa, qb, qc - 1]``.

Everything here is pure and immutable; expansions can be evaluated
concurrently over parameter sweeps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .eta import EtaTable, EtaEntry
from .moments import to_aggregated

__all__ = [
    "MetricBlock",
    "LTerms",
    "GeometricInvariants",
    "RiskExpansion",
    "SingularInformationError",
    "metric_block",
    "eta_pattern",
    "l_terms",
    "geometric_invariants",
    "risk_expansion",
    "evaluate_risk",
]

_S = (0, 1)  # special indices: 0 = intercept slot (B type), 1 = sigma slot


class SingularInformationError(ArithmeticError):
    """The {intercept, sigma} information block is numerically singular."""


@dataclass(frozen=True)
class MetricBlock:
    """sigma-free inverse-information data for the {0, sigma} block.

    ``tg00``, ``tg0s``, ``tgss`` are sigma^-2 times the inverse-metric
    entries g^00, g^0s, g^ss; ``eta0020`` is the per-coordinate information
    of the slope block.
    """

    eta0020: object
    delta: object
    tg00: object
    tg0s: object
    tgss: object

    def tg(self, a: int, b: int):
        return (self.tg00, self.tg0s, self.tgss)[a + b]


def metric_block(table: EtaTable) -> MetricBlock:
    v = table.value
    eta0020 = v(0, 0, 2, 0)
    gss = 1 + 2 * v(0, 0, 1, 1) + v(0, 0, 2, 2)
    delta = eta0020 * gss - v(0, 1, 0, 1) ** 2
    if abs(float(delta)) <= 1e-12 * abs(float(eta0020)):
        raise SingularInformationError(
            f"singular information block for {table.model_label}: delta = {float(delta):.3e}"
        )
    return MetricBlock(
        eta0020=eta0020,
        delta=delta,
        tg00=gss / delta,
        tg0s=v(0, 1, 0, 1) / delta,
        tgss=eta0020 / delta,
    )


# ---------------------------------------------------------------------------
# Pattern combinators.  Each maps sigma-counts within the index groups to the
# published linear combination of eta entries.  Slot code: 0 = beta-type
# index, 1 = sigma.  All listed symmetries (order within a group, order of
# the groups of equal shape) hold by construction.
# ---------------------------------------------------------------------------


def _pair_single(t: EtaTable, ns_pair: int, ns_single: int):
    v = t.value
    key = (ns_pair, ns_single)
    if key == (0, 0):
        return -v(0, 1, 1, 0)
    if key == (1, 0):
        return -(v(0, 1, 1, 1) + v(0, 0, 2, 0))
    if key == (0, 1):
        return -(v(0, 1, 0, 0) + v(0, 1, 1, 1))
    if key == (1, 1):
        return -(v(0, 1, 0, 1) + v(0, 1, 1, 2) + v(0, 0, 2, 1))
    if key == (2, 0):
        return -(v(0, 1, 1, 2) + 2 * v(0, 0, 2, 1))
    if key == (2, 1):
        return -(1 + 3 * v(0, 0, 1, 1) + v(0, 1, 0, 2) + 2 * v(0, 0, 2, 2) + v(0, 1, 1, 3))
    raise ValueError(f"bad sigma counts for (ab)c pattern: {key}")


def _triple(t: EtaTable, ns: int):
    v = t.value
    if ns == 0:
        return -v(0, 0, 3, 0)
    if ns == 1:
        return -(v(0, 0, 2, 0) + v(0, 0, 3, 1))
    if ns == 2:
        # the derivation's form; the program listing carries an extra
        # eta[0,0,1,0], identically zero by the table invariants
        return -(2 * v(0, 0, 2, 1) + v(0, 0, 3, 2))
    if ns == 3:
        return -(1 + 3 * v(0, 0, 1, 1) + 3 * v(0, 0, 2, 2) + v(0, 0, 3, 3))
    raise ValueError(f"bad sigma count for abc pattern: {ns}")


def _pair_pair(t: EtaTable, n1: int, n2: int):
    v = t.value
    key = (min(n1, n2), max(n1, n2))
    if key == (0, 0):
        return v(0, 2, 0, 0)
    if key == (0, 1):
        return v(0, 2, 0, 1) + v(0, 1, 1, 0)
    if key == (1, 1):
        return v(0, 2, 0, 2) + 2 * v(0, 1, 1, 1) + v(0, 0, 2, 0)
    if key == (0, 2):
        return v(0, 1, 0, 0) + v(0, 2, 0, 2) + 2 * v(0, 1, 1, 1)
    if key == (1, 2):
        return v(0, 1, 0, 1) + v(0, 2, 0, 3) + 3 * v(0, 1, 1, 2) + 2 * v(0, 0, 2, 1)
    if key == (2, 2):
        return (
            1
            + v(0, 2, 0, 4)
            + 4 * v(0, 0, 2, 2)
            + 2 * v(0, 1, 0, 2)
            + 4 * v(0, 0, 1, 1)
            + 4 * v(0, 1, 1, 3)
        )
    raise ValueError(f"bad sigma counts for (ab)(cd) pattern: {key}")


def _triple_single(t: EtaTable, ns_triple: int, ns_single: int):
    v = t.value
    key = (ns_triple, ns_single)
    if key == (0, 0):
        return v(1, 0, 1, 0)
    if key == (0, 1):
        return v(1, 0, 0, 0) + v(1, 0, 1, 1)
    if key == (1, 0):
        return 2 * v(0, 1, 1, 0) + v(1, 0, 1, 1)
    if key == (2, 0):
        return 4 * v(0, 1, 1, 1) + 2 * v(0, 0, 2, 0) + v(1, 0, 1, 2)
    if key == (1, 1):
        return 2 * v(0, 1, 0, 0) + v(1, 0, 0, 1) + 2 * v(0, 1, 1, 1) + v(1, 0, 1, 2)
    if key == (2, 1):
        return (
            4 * v(0, 1, 0, 1)
            + v(1, 0, 0, 2)
            + 4 * v(0, 1, 1, 2)
            + 2 * v(0, 0, 2, 1)
            + v(1, 0, 1, 3)
        )
    if key == (3, 0):
        return 6 * v(0, 1, 1, 2) + 6 * v(0, 0, 2, 1) + v(1, 0, 1, 3)
    if key == (3, 1):
        return (
            2
            + 6 * v(0, 1, 0, 2)
            + 6 * v(0, 0, 1, 1)
            + v(1, 0, 0, 3)
            + 2 * v(0, 0, 1, 1)
            + 6 * v(0, 1, 1, 3)
            + 6 * v(0, 0, 2, 2)
            + v(1, 0, 1, 4)
        )
    raise ValueError(f"bad sigma counts for (abc)d pattern: {key}")


def _pair_two(t: EtaTable, ns_pair: int, ns_rest: int):
    v = t.value
    key = (ns_pair, ns_rest)
    if key == (0, 0):
        return v(0, 1, 2, 0)
    if key == (0, 1):
        return v(0, 1, 1, 0) + v(0, 1, 2, 1)
    if key == (1, 0):
        return v(0, 1, 2, 1) + v(0, 0, 3, 0)
    if key == (0, 2):
        return v(0, 1, 0, 0) + 2 * v(0, 1, 1, 1) + v(0, 1, 2, 2)
    if key == (1, 1):
        return v(0, 1, 1, 1) + v(0, 0, 2, 0) + v(0, 1, 2, 2) + v(0, 0, 3, 1)
    if key == (2, 0):
        return v(0, 0, 2, 0) + 2 * v(0, 0, 3, 1) + v(0, 1, 2, 2)
    if key == (1, 2):
        return (
            v(0, 1, 0, 1)
            + 2 * v(0, 1, 1, 2)
            + 2 * v(0, 0, 2, 1)
            + v(0, 1, 2, 3)
            + v(0, 0, 3, 2)
        )
    if key == (2, 1):
        # total weight 3 on eta[0,0,2,1], exactly as the source writes it
        return (
            2 * v(0, 0, 2, 1)
            + v(0, 1, 1, 2)
            + v(0, 0, 2, 1)
            + 2 * v(0, 0, 3, 2)
            + v(0, 1, 2, 3)
        )
    if key == (2, 2):
        return (
            1
            + 4 * v(0, 0, 1, 1)
            + v(0, 1, 0, 2)
            + 5 * v(0, 0, 2, 2)
            + 2 * v(0, 1, 1, 3)
            + 2 * v(0, 0, 3, 3)
            + v(0, 1, 2, 4)
        )
    raise ValueError(f"bad sigma counts for (ab)cd pattern: {key}")


def _four(t: EtaTable, ns: int):
    v = t.value
    if ns == 0:
        return v(0, 0, 4, 0)
    if ns == 1:
        return v(0, 0, 3, 0) + v(0, 0, 4, 1)
    if ns == 2:
        return v(0, 0, 2, 0) + 2 * v(0, 0, 3, 1) + v(0, 0, 4, 2)
    if ns == 3:
        return 3 * v(0, 0, 2, 1) + 3 * v(0, 0, 3, 2) + v(0, 0, 4, 3)
    if ns == 4:
        return (
            1 + 4 * v(0, 0, 1, 1) + 6 * v(0, 0, 2, 2) + 4 * v(0, 0, 3, 3) + v(0, 0, 4, 4)
        )
    raise ValueError(f"bad sigma count for abcd pattern: {ns}")


def eta_pattern(table: EtaTable, pattern: str):
    """Evaluate a mixed-index moment pattern such as ``"(BS)S"`` or ``"SSSS"``.

    Slots are B (a beta-type index) or S (sigma); parentheses mark a grouped
    second/third derivative factor.  Patterns that coincide under the listed
    symmetries (order within a group, group order) give identical values.
    """
    s = pattern.replace(" ", "")
    if not re.fullmatch(r"(\([BS]+\)|[BS])+", s):
        raise ValueError(f"pattern {pattern!r} is not a sequence of B/S slots and (...) groups")
    found = re.findall(r"\([BS]+\)|[BS]", s)
    groups = sorted((g.strip("()") for g in found), key=len, reverse=True)
    sizes = [len(g) for g in groups]
    ns = [g.count("S") for g in groups]
    if sizes == [2, 1]:
        return _pair_single(table, ns[0], ns[1])
    if sizes == [1, 1, 1]:
        return _triple(table, sum(ns))
    if sizes == [2, 2]:
        return _pair_pair(table, ns[0], ns[1])
    if sizes == [3, 1]:
        return _triple_single(table, ns[0], ns[1])
    if sizes == [2, 1, 1]:
        return _pair_two(table, ns[0], ns[1] + ns[2])
    if sizes == [1, 1, 1, 1]:
        return _four(table, sum(ns))
    raise ValueError(f"unknown pattern shape {pattern!r}")


# ---------------------------------------------------------------------------
# L terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LTerms:
    l11: object
    l12: object
    l13: object
    l14: object
    l15: object
    l21: object
    l22: object
    l23: object
    l24: object
    l25: object
    l26: object


def l_terms(table: EtaTable, moments) -> LTerms:
    """All eleven metric-contracted L sums for the given moment summary.

    The inverse metric is block diagonal: ``w = 1/eta0020`` on each slope
    index and ``tg`` on the special pair {intercept, sigma}.  Every sum is one
    of four contraction templates, named by the index layout of its defining
    sum (metric pairs ij, kl, su); a template's kernel maps the sigma flags of
    its slots (0 = beta type, 1 = sigma) to an eta combinator value.
    """
    agg = to_aggregated(moments)
    g = metric_block(table)
    p = agg.p
    M2a, M2b, M1 = agg.M2a, agg.M2b, agg.M1
    w = 1 / g.eta0020
    P = [(a, b, g.tg(a, b)) for a in _S for b in _S]  # (a, b, g^ab), special pair

    # each combinator once, keyed by the sigma counts of its groups
    e3p = {(a, s): _pair_single(table, a, s) for a in range(3) for s in _S}
    e3 = [_triple(table, n) for n in range(4)]
    e22 = {(a, b): _pair_pair(table, a, b) for a in range(3) for b in range(3)}
    e211 = {(a, b): _pair_two(table, a, b) for a in range(3) for b in range(3)}
    e4 = [_four(table, n) for n in range(5)]

    pair1 = lambda a, b, c: e3p[a + b, c]  # L_(ab)c
    triple = lambda a, b, c: e3[a + b + c]  # L_abc

    def iks_jlu(A, B):
        out = w**3 * M2a * A(0, 0, 0) * B(0, 0, 0)
        out += w**2 * p * sum(gsu * A(0, 0, s) * B(0, 0, u) for s, u, gsu in P)
        out += w**2 * p * sum(gkl * A(0, k, 0) * B(0, l, 0) for k, l, gkl in P)
        out += w**2 * p * sum(gij * A(i, 0, 0) * B(j, 0, 0) for i, j, gij in P)
        return out + sum(
            gij * gkl * gsu * A(i, k, s) * B(j, l, u)
            for i, j, gij in P for k, l, gkl in P for s, u, gsu in P
        )

    def ijk_lsu(A, B):
        out = w**3 * M2b * A(0, 0, 0) * B(0, 0, 0)
        out += w**2 * p**2 * sum(gkl * A(0, 0, k) * B(l, 0, 0) for k, l, gkl in P)
        out += w * p * sum(
            gkl * gsu * A(0, 0, k) * B(l, s, u) for k, l, gkl in P for s, u, gsu in P
        )
        out += w * p * sum(
            gij * gkl * A(i, j, k) * B(l, 0, 0) for i, j, gij in P for k, l, gkl in P
        )
        return out + sum(
            gij * gkl * gsu * A(i, j, k) * B(l, s, u)
            for i, j, gij in P for k, l, gkl in P for s, u, gsu in P
        )

    def ijkl(head, F):
        out = w**2 * M1 * head
        out += w * p * sum(gkl * F(0, 0, k, l) for k, l, gkl in P)
        out += w * p * sum(gij * F(i, j, 0, 0) for i, j, gij in P)
        return out + sum(gij * gkl * F(i, j, k, l) for i, j, gij in P for k, l, gkl in P)

    def ikjl(head, F):
        return ijkl(head, lambda i, j, k, l: F(i, k, j, l))

    pair_two = lambda a, b, c, d: e211[a + b, c + d]  # L_(ab)cd
    pair_pair = lambda a, b, c, d: e22[a + b, c + d]  # L_(ab)(cd)
    four = lambda a, b, c, d: e4[a + b + c + d]  # L_abcd

    return LTerms(
        # the defining sum of l11 reads iljk, the same sum as ikjl
        l11=ikjl(e211[0, 0], pair_two),
        # The M1 head of l12 follows the published program listing, which
        # pairs M1 with the (ab)(cd) combinator here; its derivation text
        # writes the (ab)cd one instead.  Every published coefficient table
        # requires the listing's variant.
        l12=ijkl(e22[0, 0], pair_two),
        l13=ijkl(e4[0], four),
        l14=ikjl(e22[0, 0], pair_pair),
        l15=ijkl(e22[0, 0], pair_pair),
        l21=iks_jlu(pair1, triple),
        l22=ijk_lsu(pair1, triple),
        l23=iks_jlu(triple, triple),
        l24=ijk_lsu(triple, triple),
        l25=iks_jlu(pair1, pair1),
        # the second factor of l26 is read in the defining sum's sul order
        l26=ijk_lsu(pair1, lambda l, s, u: pair1(s, u, l)),
    )


@dataclass(frozen=True)
class GeometricInvariants:
    ffe: object
    tt1: object
    tt2: object
    rre: object
    aaee1: object
    aaee2: object
    aaem1: object
    aaem2: object


def geometric_invariants(lt: LTerms, p: int) -> GeometricInvariants:
    """Contract the L terms into the invariants entering the expansion.

    The reference pipeline subtracts the regressor count p inside the two
    self-inner-products, where the derivation has the parameter count p + 2.
    """
    return GeometricInvariants(
        ffe=2 * lt.l11 + lt.l12 + lt.l13 - 2 * lt.l21 - lt.l23 - lt.l22,
        tt1=lt.l23,
        tt2=lt.l24,
        rre=lt.l14 - lt.l15 + lt.l11 - lt.l12 - lt.l25 + lt.l26 + lt.l22 - lt.l21,
        aaee1=lt.l14 - lt.l25 - p,
        aaee2=lt.l15 - lt.l26 - p * p,
        aaem1=lt.l11 + lt.l14 - lt.l25 - lt.l21,
        aaem2=lt.l12 + lt.l15 - lt.l26 - lt.l22,
    )


@dataclass(frozen=True)
class RiskExpansion:
    """ED(alpha, n) ~ main/n + (qa alpha^2 + qb alpha + qc)/n^2."""

    p: int
    main: object
    qa: object
    qb: object
    qc: object
    validity_n_min: int
    coeff_error: float = 0.0
    model_label: str = ""

    @property
    def q_alt(self) -> tuple:
        """(qa, qb, qc) under the p+2 dimension reading: only qc moves, by -1."""
        return (self.qa, self.qb, self.qc - 1)

    def q(self, alpha):
        return self.qa * alpha * alpha + self.qb * alpha + self.qc

    def evaluate(self, alpha, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        return self.main / n + self.q(alpha) / (n * n)

    def is_exact(self) -> bool:
        return isinstance(self.qa, Fraction)

    def to_jsonable(self) -> dict:
        out = {
            "p": self.p,
            "main": float(self.main),
            "q": [float(self.qa), float(self.qb), float(self.qc)],
            "validity_n_min": self.validity_n_min,
            "coeff_error": self.coeff_error,
            "model": self.model_label,
        }
        if self.is_exact():
            out["q_exact"] = [str(self.qa), str(self.qb), str(self.qc)]
        out["q_full_param_count"] = [float(c) for c in self.q_alt]
        return out


def evaluate_risk(expansion: RiskExpansion, alpha, n: int):
    """Evaluate the truncated expansion; flags n below the validity region."""
    value = expansion.evaluate(alpha, n)
    return value, n < expansion.validity_n_min


def _q_from_invariants(gi: GeometricInvariants, p: int):
    """(qa, qb, qc) from the bracket written in alpha' = (1 - alpha)/2."""
    A = (
        3 * gi.ffe
        + 3 * gi.tt1
        - 6 * gi.aaem1
        + 6 * gi.aaee1
        - 3 * gi.aaem2
        + 3 * gi.aaee2
        + 3 * p * p
        + 6 * p
    )
    B = (
        3 * gi.ffe
        - 5 * gi.tt1
        - 6 * gi.tt2
        + 6 * gi.aaem1
        - 6 * gi.aaee1
        + 3 * gi.aaem2
        - 3 * gi.aaee2
        - 3 * p * p
        - 6 * p
    )
    C = (
        12 * gi.aaee1
        - 2 * gi.aaem1
        - gi.aaem2
        + gi.tt1
        + 9 * gi.tt2
        + 8 * gi.rre
        - 9 * gi.ffe
    )
    return A / 96, -(A + B) / 48, (A + 2 * B + 4 * C) / 96


def _validity_n_min(p: int, main, q_ref) -> int:
    """Smallest n >= p+3 where ED(-1, .) is positive and decreasing."""

    def ok(n: int) -> bool:
        positive = main * n + q_ref > 0
        decreasing = main * n * (n + 1) + q_ref * (2 * n + 1) > 0
        return positive and decreasing

    n = p + 3
    if q_ref < 0:
        n = max(n, int(-2 * float(q_ref) / float(main)) - 3)
    while not ok(n):
        n += 1
        if n > 10**9:  # main/n dominates eventually; this is unreachable
            raise RuntimeError("validity search did not terminate")
    while n - 1 >= p + 3 and ok(n - 1):
        n -= 1
    return n


def risk_expansion(table: EtaTable, moments, with_error: bool = True) -> RiskExpansion:
    """Assemble the full expansion for an eta table and a moment summary."""
    agg = to_aggregated(moments)
    p = agg.p
    lt = l_terms(table, agg)
    qa, qb, qc = _q_from_invariants(geometric_invariants(lt, p), p)
    main = Fraction(p + 2, 2) if isinstance(qa, Fraction) else (p + 2) / 2
    q_ref = qa - qb + qc  # alpha = -1, the reference divergence
    coeff_error = 0.0
    if with_error and not table.exact:
        coeff_error = _propagate_coefficient_error(table, agg, (qa, qb, qc))
    return RiskExpansion(
        p=p,
        main=main,
        qa=qa,
        qb=qb,
        qc=qc,
        validity_n_min=_validity_n_min(p, main, q_ref),
        coeff_error=coeff_error,
        model_label=table.model_label,
    )


def _propagate_coefficient_error(table: EtaTable, agg, q0) -> float:
    """First-order propagation of per-entry error bounds to max |dq|.

    The coefficients are rational in the eta entries, so a one-sided finite
    difference per entry gives the sensitivity; the reported figure is
    sum_e |dq/d eta_e| * bound_e, maximised over the three coefficients.
    """
    total = [0.0, 0.0, 0.0]
    base = dict(table.entries)
    for idx, entry in table.entries.items():
        bound = float(entry.abs_error_bound)
        if bound == 0.0:
            continue
        h = 1e-6 * max(1.0, abs(float(entry.value)))
        bumped = dict(base)
        bumped[idx] = EtaEntry(entry.value + h, entry.abs_error_bound, entry.method)
        t2 = EtaTable(table.model_label, bumped, exact=False)
        lt = l_terms(t2, agg)
        gi = geometric_invariants(lt, agg.p)
        q1 = _q_from_invariants(gi, agg.p)
        for c in range(3):
            total[c] += abs(float(q1[c]) - float(q0[c])) / h * bound
    return max(total)

