"""Assembly of the order n^-2 risk expansion from an eta table and moments.

The expected alpha-divergence of the regression MLE expands as

    ED(alpha, n) = (p+2)/(2n) + q(alpha)/n^2 + o(n^-2),

where q is a quadratic in alpha.  This module carries an
:class:`~mlerisk.eta.EtaTable` plus a moment summary through the chain

    eta table -> L terms -> (qa, qb, qc)

using plain Python arithmetic throughout, so exact rational tables yield
exact rational coefficients.  :func:`l_terms` is the one public intermediate
stage.  The first expansion of a table runs the chain once over symbolic
moments and keeps the kernel K it yields; every expansion is then
(qa, qb, qc) = K . (1, p, p^2, M2a, M2b, M1).

On exact inputs :func:`l_terms` runs on integers: the eta entries it reads
become numerators over their common denominator D, and the metric (w, G)
numerators over its own, E.  Each l1x sum has degree 2 in the metric and 1
in the eta patterns, each l2x sum degrees 3 and 2, so the unchanged
contraction code yields L D E^2 and L D^2 E^3, each divided once.  A float
table's kernel takes this pass at the exact binary values of its entries.

The eta patterns (expectations of products of score derivatives) follow from
two differentiation rules and agree with the published program listing case
by case; its one extra term, eta[0,0,1,0] in the (SSB) triple, vanishes by
the table invariants.  Where that pipeline and its accompanying derivation
disagree, the pipeline wins, because the published coefficient tables are
its output: the M1 head of l12 and the use of the regressor count p (rather
than the full parameter count p+2) inside two of the inner products follow
the listing.  Reading p+2 there instead cancels in qa and qb and lowers qc
by exactly 1, so that reading is reported as the constant shift
``q_full_param_count = [qa, qb, qc - 1]``.

Everything here is pure apart from the kernel a table keeps after its first
expansion (concurrent first calls compute the same kernel), so expansions can
be evaluated concurrently over parameter sweeps.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .eta import EtaTable, EtaEntry
from .moments import AggregatedMoments, to_aggregated

__all__ = [
    "LTerms",
    "RiskExpansion",
    "SingularInformationError",
    "l_terms",
    "risk_expansion",
]

_S = (0, 1)  # special indices: 0 = intercept slot (B type), 1 = sigma slot


class SingularInformationError(ArithmeticError):
    """The {intercept, sigma} information block is numerically singular."""


def _metric(table: EtaTable) -> tuple:
    """(w, G): the slope-block inverse information w = 1/eta0020, and G[a, b]
    = sigma^-2 g^ab on the special pair {intercept, sigma}."""
    v = table.value
    eta0020 = v(0, 0, 2, 0)
    gss = 1 + 2 * v(0, 0, 1, 1) + v(0, 0, 2, 2)
    delta = eta0020 * gss - v(0, 1, 0, 1) ** 2
    if abs(float(delta)) <= 1e-12 * abs(float(eta0020)):
        raise SingularInformationError(
            f"singular information block for {table.model_label}: delta = {float(delta):.3e}"
        )
    tg = (gss / delta, v(0, 1, 0, 1) / delta, eta0020 / delta)
    return 1 / eta0020, {(a, b): tg[a + b] for a in _S for b in _S}


# ---------------------------------------------------------------------------
# Patterns.  A group of n slots (0 = beta-type index, 1 = sigma) stands for
# the n-th score derivative at sigma = 1 with its x factors dropped: a
# polynomial {(i, j, k, l): coefficient} in the monomials d3^i d2^j d1^k y^l.
# The first derivative is -d1 for a beta slot and -(1 + y d1) for a sigma
# slot; each further beta slot maps P to -P', and each further sigma slot, at
# derivative order m, maps P to -(m P + y P').  A pattern is the expectation
# of the product of its groups, each monomial reading eta[i,j,k,l], with
# eta[0,0,0,0] = 1 and eta[0,0,1,0] = 0 (the table invariants).  Mixed
# partials commute, so a group depends only on its size and sigma count.
# ---------------------------------------------------------------------------

_ONE = (0, 0, 0, 0)
_D1 = (0, 0, 1, 0)


def _derivative(poly: Counter) -> Counter:
    """d/dy, with d1' = d2 and d2' = d3; no group reaches d3'."""
    out = Counter()
    for (i, j, k, l), c in poly.items():
        if j:
            out[i + 1, j - 1, k, l] += j * c
        if k:
            out[i, j + 1, k - 1, l] += k * c
        if l:
            out[i, j, k, l - 1] += l * c
    return out


def _group(n: int, ns: int) -> Counter:
    """The n-th score derivative with ns sigma slots (taken first)."""
    poly = Counter({_ONE: -1, (0, 0, 1, 1): -1} if ns else {_D1: -1})
    for m in range(1, n):
        dp = _derivative(poly)
        if m < ns:
            poly = Counter({mono: -m * c for mono, c in poly.items()})
            for (i, j, k, l), c in dp.items():
                poly[i, j, k, l + 1] -= c
        else:
            poly = Counter({mono: -c for mono, c in dp.items()})
    return poly


@lru_cache(maxsize=None)
def _terms(groups: tuple) -> tuple:
    """(constant, ((coefficient, eta index), ...)) of a product of (n, ns) groups."""
    prod = Counter({_ONE: 1})
    for n, ns in groups:
        group, out = _group(n, ns), Counter()
        for a, ca in prod.items():
            for b, cb in group.items():
                out[tuple(x + y for x, y in zip(a, b))] += ca * cb
        prod = out
    const = prod.pop(_ONE, 0)
    prod.pop(_D1, None)
    return const, tuple((c, idx) for idx, c in sorted(prod.items()) if c)


def _evaluate(table: EtaTable, terms: tuple, scale=1):
    """The pattern ``terms`` on the table's entries, its constant times ``scale``."""
    const, lin = terms
    entries = table.entries
    total = const * scale
    for c, idx in lin:
        v = entries[idx].value
        # unit coefficients skip the product, the costly step for Fractions
        total += v if c == 1 else -v if c == -1 else c * v
    return total


def _singles(n: int, ns: int) -> tuple:
    return ((1, 1),) * ns + ((1, 0),) * (n - ns)


# The five families l_terms reads, (ab)c, abc, (ab)(cd), (ab)cd and abcd,
# keyed by the sigma counts of their groups; _READ holds the entries they read.
_PAIR_SINGLE = {(a, s): _terms(((2, a), (1, s))) for a in range(3) for s in range(2)}
_TRIPLE = {n: _terms(_singles(3, n)) for n in range(4)}
_PAIR_PAIR = {(a, b): _terms(((2, a), (2, b))) for a in range(3) for b in range(3)}
_PAIR_TWO = {(a, b): _terms(((2, a), *_singles(2, b))) for a in range(3) for b in range(3)}
_FOUR = {n: _terms(_singles(4, n)) for n in range(5)}
_FAMILIES = (_PAIR_SINGLE, _TRIPLE, _PAIR_PAIR, _PAIR_TWO, _FOUR)
_READ = sorted({idx for family in _FAMILIES for _, lin in family.values() for _, idx in lin})


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
    index and ``G`` on the special pair {intercept, sigma}.  Every sum is one
    of four contraction templates, named by the index layout of its defining
    sum (metric pairs ij, kl, su); a template's kernel maps the sigma flags of
    its slots (0 = beta type, 1 = sigma) to an eta pattern value.
    """
    agg = to_aggregated(moments)
    w, G = _metric(table)
    p = agg.p
    M2a, M2b, M1 = agg.M2a, agg.M2b, agg.M1
    if isinstance(w, float):  # each product below would round a moment to float anyway; do it once
        M2a, M2b, M1 = float(M2a), float(M2b), float(M1)
    D = 1
    exact = table.exact and all(isinstance(m, (int, Fraction, _Affine)) for m in (M2a, M2b, M1))
    if exact:  # ints, Fractions or the kernel's symbols: the integer pass of the module docstring
        values = {idx: table.entries[idx].value for idx in _READ}
        D = math.lcm(*(v.denominator for v in values.values()))
        table = EtaTable(table.model_label, {
            idx: EtaEntry(v.numerator * (D // v.denominator), 0, None) for idx, v in values.items()
        }, exact=True)
        E = math.lcm(w.denominator, *(g.denominator for g in G.values()))
        w, G = w.numerator * (E // w.denominator), {k: g.numerator * (E // g.denominator) for k, g in G.items()}
    P = [(a, b, gab) for (a, b), gab in G.items()]  # (a, b, g^ab), special pair
    P2 = [(i, j, k, l, gij * gkl) for i, j, gij in P for k, l, gkl in P]
    T3 = [(a, b, c) for a in _S for b in _S for c in _S]

    # each pattern once, keyed by the sigma counts of its groups
    e3p, e3, e22, e211, e4 = (
        {key: _evaluate(table, terms, D) for key, terms in family.items()} for family in _FAMILIES
    )

    pair1 = lambda a, b, c: e3p[a + b, c]  # L_(ab)c
    triple = lambda a, b, c: e3[a + b + c]  # L_abc

    def iks_jlu(A, B):
        out = w**3 * M2a * A(0, 0, 0) * B(0, 0, 0)
        out += w**2 * p * sum(gsu * A(0, 0, s) * B(0, 0, u) for s, u, gsu in P)
        out += w**2 * p * sum(gkl * A(0, k, 0) * B(0, l, 0) for k, l, gkl in P)
        out += w**2 * p * sum(gij * A(i, 0, 0) * B(j, 0, 0) for i, j, gij in P)
        # raise A's slots one at a time: up[j, l, u] = sum of g^ij g^kl g^su A(i, k, s)
        up = {(j, k, s): sum(G[i, j] * A(i, k, s) for i in _S) for j, k, s in T3}
        up = {(j, l, s): sum(G[k, l] * up[j, k, s] for k in _S) for j, l, s in T3}
        up = {(j, l, u): sum(G[s, u] * up[j, l, s] for s in _S) for j, l, u in T3}
        return out + sum(up[t] * B(*t) for t in T3)

    def ijk_lsu(A, B):
        a = {k: sum(gij * A(i, j, k) for i, j, gij in P) for k in _S}  # A's ij pair contracted
        b = {l: sum(gsu * B(l, s, u) for s, u, gsu in P) for l in _S}  # B's su pair contracted
        out = w**3 * M2b * A(0, 0, 0) * B(0, 0, 0)
        out += w**2 * (p * p) * sum(gkl * A(0, 0, k) * B(l, 0, 0) for k, l, gkl in P)
        out += w * p * sum(gkl * A(0, 0, k) * b[l] for k, l, gkl in P)
        out += w * p * sum(gkl * a[k] * B(l, 0, 0) for k, l, gkl in P)
        return out + sum(gkl * a[k] * b[l] for k, l, gkl in P)

    def ijkl(head, F):
        out = w**2 * M1 * head
        out += w * p * sum(gkl * F(0, 0, k, l) for k, l, gkl in P)
        out += w * p * sum(gij * F(i, j, 0, 0) for i, j, gij in P)
        return out + sum(g * F(i, j, k, l) for i, j, k, l, g in P2)

    def ikjl(head, F):
        return ijkl(head, lambda i, j, k, l: F(i, k, j, l))

    pair_two = lambda a, b, c, d: e211[a + b, c + d]  # L_(ab)cd
    pair_pair = lambda a, b, c, d: e22[a + b, c + d]  # L_(ab)(cd)
    four = lambda a, b, c, d: e4[a + b + c + d]  # L_abcd

    lt = LTerms(
        # the defining sum of l11 reads iljk, the same sum as ikjl
        l11=ikjl(e211[0, 0], pair_two),
        # The M1 head of l12 follows the published program listing, which
        # pairs M1 with the (ab)(cd) pattern here; its derivation text
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
    if exact:  # one division per sum
        scales = (Fraction(1, D * E * E),) * 5 + (Fraction(1, D * D * E**3),) * 6
        lt = LTerms(*(x * s for x, s in zip(vars(lt).values(), scales)))
    return lt


def _q(lt: LTerms, p) -> tuple:
    """(qa, qb, qc) from the L terms, through the geometric invariants and the
    bracket written in alpha' = (1 - alpha)/2.

    The reference pipeline subtracts the regressor count p inside the two
    self-inner-products aaee1 and aaee2, where the derivation has the
    parameter count p + 2.
    """
    ffe = 2 * lt.l11 + lt.l12 + lt.l13 - 2 * lt.l21 - lt.l23 - lt.l22
    tt1 = lt.l23
    tt2 = lt.l24
    rre = lt.l14 - lt.l15 + lt.l11 - lt.l12 - lt.l25 + lt.l26 + lt.l22 - lt.l21
    aaee1 = lt.l14 - lt.l25 - p
    aaee2 = lt.l15 - lt.l26 - p * p
    aaem1 = lt.l11 + lt.l14 - lt.l25 - lt.l21
    aaem2 = lt.l12 + lt.l15 - lt.l26 - lt.l22
    A = (
        3 * ffe
        + 3 * tt1
        - 6 * aaem1
        + 6 * aaee1
        - 3 * aaem2
        + 3 * aaee2
        + 3 * p * p
        + 6 * p
    )
    B = (
        3 * ffe
        - 5 * tt1
        - 6 * tt2
        + 6 * aaem1
        - 6 * aaee1
        + 3 * aaem2
        - 3 * aaee2
        - 3 * p * p
        - 6 * p
    )
    C = (
        12 * aaee1
        - 2 * aaem1
        - aaem2
        + tt1
        + 9 * tt2
        + 8 * rre
        - 9 * ffe
    )
    return A / 96, -(A + B) / 48, (A + 2 * B + 4 * C) / 96


def _exact_sum(terms, scale: int = 1):
    """Sum of products of ints and Fractions, over ``scale``, as one Fraction.

    Integer numerators over one denominator, reduced once by the Fraction
    constructor instead of once per operation (Knuth, TAOCP 2, 4.5.1).  None
    when an operand is not an int or a Fraction: the caller then keeps its
    own expression, so a float result keeps its bits.
    """
    num, den = 0, 1
    for term in terms:
        n = d = 1
        for x in term:
            if isinstance(x, int):
                n *= x
            elif isinstance(x, Fraction):
                n, d = n * x.numerator, d * x.denominator
            else:
                return None
        num, den = (num + n, den) if d == den else (num * d + n * den, den * d)
    return Fraction(num, den * scale)


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
        terms = ((self.qa, alpha, alpha), (self.qb, alpha), (self.qc,))
        if self.is_exact() and (q := _exact_sum(terms)) is not None:  # qa a Fraction: so is the plain q
            return q
        return self.qa * alpha * alpha + self.qb * alpha + self.qc

    def evaluate(self, alpha, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        if isinstance(self.main, Fraction) and self.is_exact():  # both terms below are Fractions
            ed = _exact_sum(((self.main, n), (self.qa, alpha, alpha), (self.qb, alpha), (self.qc,)), n * n)
            if ed is not None:  # (main n + q(alpha))/n^2, reduced once
                return ed
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


def _validity_n_min(p: int, main, q_ref) -> int:
    """Smallest n >= p+3 where ED(-1, .) is positive and decreasing."""

    def ok(n: int) -> bool:
        positive = main * n + q_ref > 0
        decreasing = main * n * (n + 1) + q_ref * (2 * n + 1) > 0
        return positive and decreasing

    if not -math.inf < q_ref < math.inf:
        raise ArithmeticError(f"q(-1) = {q_ref} is not finite; no validity region")
    start = -2 * (min(q_ref, 0) / main)  # ok(n) holds from about here on
    if start > 10**9:
        raise ArithmeticError("the validity region starts beyond n = 10^9")
    n = max(p + 3, int(start) - 3)
    while not ok(n):
        n += 1
    while n - 1 >= p + 3 and ok(n - 1):
        n -= 1
    return n


class _Affine:
    """n[0]/d + n[1]/d p + n[2]/d p^2 + n[3]/d M2a + n[4]/d M2b + n[5]/d M1.

    Integer numerators over one denominator keep the kernel pass exact and
    cheap.  Numbers (int or Fraction) scale and shift a form; of two forms
    only p * p multiplies, so a formula that is not affine in them fails.
    """

    __slots__ = ("n", "d")

    def __init__(self, n: list, d: int = 1):
        self.n, self.d = n, d

    def __add__(self, other, sign=1):
        if not isinstance(other, _Affine):
            other = _Affine([other.numerator, 0, 0, 0, 0, 0], other.denominator)
        d = math.lcm(self.d, other.d)
        a, b = d // self.d, sign * (d // other.d)
        return _Affine([x * a + y * b for x, y in zip(self.n, other.n)], d)

    def __mul__(self, other):
        if not isinstance(other, _Affine):
            k = other.numerator
            return _Affine([x * k for x in self.n], self.d * other.denominator)
        if any(self.n[:1] + self.n[2:] + other.n[:1] + other.n[2:]):
            raise TypeError("the expansion is not affine in (1, p, p^2, M2a, M2b, M1)")
        return _Affine([0, 0, self.n[1] * other.n[1], 0, 0, 0], self.d * other.d)

    __rmul__ = __mul__
    __neg__ = lambda self: self * -1
    __sub__ = lambda self, other: self.__add__(other, -1)
    __truediv__ = lambda self, k: _Affine(self.n, self.d * k)


class _Symbols(AggregatedMoments):
    __post_init__ = lambda self: None  # symbols, not numbers: nothing to validate


_BASIS = _Symbols(*(_Affine([int(i == j) for j in range(6)]) for i in (1, 3, 4, 5)))  # p, M2a, M2b, M1


def _kernel(table: EtaTable) -> tuple:
    """K with (qa, qb, qc) = K . (1, p, p^2, M2a, M2b, M1), kept on the table.

    One l_terms pass over symbolic aggregates, stored in the table's instance
    dict, so it lives as long as the table (treated as immutable).  A float
    table is compiled at the exact binary values of its entries and each
    coefficient rounded once, so K adds no rounding of its own.
    """
    if "_kernel" not in table.__dict__:
        exact = table if table.exact else EtaTable(table.model_label, {
            i: EtaEntry(Fraction(e.value), e.abs_error_bound, e.method) for i, e in table.entries.items()
        }, exact=True)
        q = _q(l_terms(exact, _BASIS), _BASIS.p)
        cast = Fraction if table.exact else lambda n, d: n / d
        table.__dict__["_kernel"] = tuple(tuple(cast(n, f.d) for n in f.n) for f in q)
    return table.__dict__["_kernel"]


def risk_expansion(table: EtaTable, moments, with_error: bool = True) -> RiskExpansion:
    """Assemble the full expansion for an eta table and a moment summary."""
    agg = to_aggregated(moments)
    p = agg.p
    basis = (1, p, p * p, agg.M2a, agg.M2b, agg.M1)
    dots = [(_exact_sum(zip(row, basis)), row) for row in _kernel(table)]  # None for a float row of K
    qa, qb, qc = (sum(k * b for k, b in zip(row, basis)) if q is None else q for q, row in dots)
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
        q1 = _q(l_terms(t2, agg), agg.p)
        for c in range(3):
            total[c] += abs(float(q1[c]) - float(q0[c])) / h * bound
    return max(total)

