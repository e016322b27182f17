"""Independent first-principles check of the whole L-term reduction.

Instead of the per-pattern lookup tables and the {intercept, sigma} special
sums, this oracle builds every score-derivative expectation directly:

* the y-kernels of the location/scale score derivatives are integrated by
  quadrature (no pattern tables involved),
* the regressor-moment tensors are materialised explicitly for a small p,
* the eleven L sums are contracted with numpy.einsum over the full
  (p + 2)-dimensional index space with a numerically inverted metric.

Agreement with :func:`mlerisk.expansion.l_terms` verifies the reduced
formulas term by term -- including the asymmetric-error entries that vanish
for normal/t errors and are therefore untouched by the exact rational tests.

One deliberate exception: the implemented pipeline pairs the M1 aggregate in
L12 with the grouped-pair kernel (matching the published computational
pipeline whose output the acceptance anchors are); the defining contraction
pairs it with the pair+singles kernel.  The oracle asserts that the two
differ by exactly that known, quantified offset.
"""

import itertools

import numpy as np
import pytest

from mlerisk._quadrature import integrate_real_line
from mlerisk.error_models import normal_error, skew_normal_error, student_t_error
from mlerisk.eta import build_eta_table
from mlerisk.expansion import _PAIR_PAIR, _PAIR_TWO, _evaluate, _metric, l_terms
from mlerisk.moments import HomogeneousMoments, to_aggregated

B, S = 0, 1  # kernel types: beta-like index (including the intercept), sigma


def _kernels(model):
    """Score-derivative kernels at sigma = 1 as callables of y."""
    d1 = lambda y: np.asarray(model.log_deriv1(y), dtype=float)
    d2 = lambda y: np.asarray(model.log_deriv2(y), dtype=float)
    d3 = lambda y: np.asarray(model.log_deriv3(y), dtype=float)
    k1 = {
        B: lambda y: -d1(y),
        S: lambda y: -(1.0 + d1(y) * y),
    }
    k2 = {
        (B, B): lambda y: d2(y),
        (B, S): lambda y: y * d2(y) + d1(y),
        (S, S): lambda y: 1.0 + 2.0 * d1(y) * y + d2(y) * y * y,
    }
    k3 = {
        (B, B, B): lambda y: -d3(y),
        (B, B, S): lambda y: -(2.0 * d2(y) + d3(y) * y),
        (B, S, S): lambda y: -(4.0 * y * d2(y) + 2.0 * d1(y) + y * y * d3(y)),
        (S, S, S): lambda y: -(2.0 + 6.0 * y * y * d2(y) + 6.0 * y * d1(y) + y**3 * d3(y)),
    }
    return k1, k2, k3


def _expect(model, *factors):
    def integrand(y):
        out = np.asarray(model.pdf(y), dtype=float)
        mask = out > 0
        acc = out.copy()
        vals = np.ones_like(out)
        for fn in factors:
            vals = vals * fn(y)
        acc[mask] = out[mask] * vals[mask]
        acc[~mask] = 0.0
        return acc

    res = integrate_real_line(integrand, tol=1e-12)
    assert res.converged
    return res.value


def _moment_tensors(p, m4, m22, m3, m21, m111):
    """Explicit E[prod of x-tilde] tensors over indices 0..p, sigma."""
    dim = p + 2  # 0, 1..p, sigma(last)
    const = {0, p + 1}  # slots whose regressor factor is identically 1

    def x3(i, j, k):
        real = sorted(t for t in (i, j, k) if t not in const)
        if not real:
            return 1.0
        if len(real) == 1:
            return 0.0  # E[x_i] = 0
        if len(real) == 2:
            return 1.0 if real[0] == real[1] else 0.0
        a, b, c = real
        if a == b == c:
            return m3
        if a == b or b == c or a == c:
            return m21
        return m111

    def x4(i, j, k, l):
        real = sorted(t for t in (i, j, k, l) if t not in const)
        if not real:
            return 1.0
        if len(real) == 1:
            return 0.0
        if len(real) == 2:
            return 1.0 if real[0] == real[1] else 0.0
        if len(real) == 3:
            return x3(*real)  # reuse the 3-index homogeneous structure
        counts = {}
        for t in real:
            counts[t] = counts.get(t, 0) + 1
        sig = sorted(counts.values(), reverse=True)
        if sig == [4]:
            return m4
        if sig == [2, 2]:
            return m22
        if sig == [3, 1]:
            return 0.31  # m31; free parameter, cancels in every contraction
        if sig == [2, 1, 1]:
            return 0.17  # m211; likewise only multiplies off-diagonal metric
        return 0.011  # m1111

    t2 = np.zeros((dim, dim))
    t3 = np.zeros((dim, dim, dim))
    t4 = np.zeros((dim,) * 4)
    for idx in itertools.product(range(dim), repeat=2):
        real = sorted(t for t in idx if t not in const)
        if not real:
            t2[idx] = 1.0
        elif len(real) == 2:
            t2[idx] = 1.0 if real[0] == real[1] else 0.0
    for idx in itertools.product(range(dim), repeat=3):
        t3[idx] = x3(*idx)
    for idx in itertools.product(range(dim), repeat=4):
        t4[idx] = x4(*idx)
    return t2, t3, t4


def _oracle_l_terms(model, p, m4, m22, m3, m21, m111):
    k1, k2, k3 = _kernels(model)
    dim = p + 2
    types = [B] * (p + 1) + [S]

    e1 = {}
    e11 = {(a, b): _expect(model, k1[a], k1[b]) for a in (B, S) for b in (B, S)}
    e2_1 = {}
    e111 = {}
    e2_2 = {}
    e2_11 = {}
    e1111 = {}
    for ta in (B, S):
        for tb in (B, S):
            pa = tuple(sorted((ta, tb)))
            for tc in (B, S):
                e2_1[pa + (tc,)] = _expect(model, k2[pa], k1[tc])
                e111[tuple(sorted((ta, tb, tc)))] = _expect(model, k1[ta], k1[tb], k1[tc])
                for td in (B, S):
                    pb = tuple(sorted((tc, td)))
                    e2_2[(pa, pb)] = _expect(model, k2[pa], k2[pb])
                    e2_11[pa + (tc, td)] = _expect(model, k2[pa], k1[tc], k1[td])
                    e1111[tuple(sorted((ta, tb, tc, td)))] = _expect(
                        model, k1[ta], k1[tb], k1[tc], k1[td]
                    )

    t2, t3, t4 = _moment_tensors(p, m4, m22, m3, m21, m111)

    g = np.empty((dim, dim))
    L_p1 = np.empty((dim, dim, dim))  # L_{(ab)c}
    L_111 = np.empty((dim, dim, dim))  # L_{abc}
    L_pp = np.empty((dim,) * 4)  # L_{(ab)(cd)}
    L_p11 = np.empty((dim,) * 4)  # L_{(ab)cd}
    L_4 = np.empty((dim,) * 4)  # L_{abcd}
    for a in range(dim):
        for b in range(dim):
            g[a, b] = t2[a, b] * e11[(types[a], types[b])]
            for c in range(dim):
                pa = tuple(sorted((types[a], types[b])))
                L_p1[a, b, c] = t3[a, b, c] * e2_1[pa + (types[c],)]
                L_111[a, b, c] = t3[a, b, c] * e111[tuple(sorted((types[a], types[b], types[c])))]
                for d in range(dim):
                    pb = tuple(sorted((types[c], types[d])))
                    L_pp[a, b, c, d] = t4[a, b, c, d] * e2_2[(pa, pb)]
                    L_p11[a, b, c, d] = t4[a, b, c, d] * e2_11[pa + (types[c], types[d])]
                    L_4[a, b, c, d] = t4[a, b, c, d] * e1111[
                        tuple(sorted((types[a], types[b], types[c], types[d])))
                    ]

    gi = np.linalg.inv(g)
    ll = {
        "l11": np.einsum("ij,kl,iljk->", gi, gi, L_p11),
        "l12": np.einsum("ij,kl,ijkl->", gi, gi, L_p11),
        "l13": np.einsum("ij,kl,ijkl->", gi, gi, L_4),
        "l14": np.einsum("ij,kl,ikjl->", gi, gi, L_pp),
        "l15": np.einsum("ij,kl,ijkl->", gi, gi, L_pp),
        "l21": np.einsum("ij,kl,su,iks,jlu->", gi, gi, gi, L_p1, L_111),
        "l22": np.einsum("ij,kl,su,ijk,lsu->", gi, gi, gi, L_p1, L_111),
        "l23": np.einsum("ij,kl,su,iks,jlu->", gi, gi, gi, L_111, L_111),
        "l24": np.einsum("ij,kl,su,ijk,lsu->", gi, gi, gi, L_111, L_111),
        "l25": np.einsum("ij,kl,su,iks,jlu->", gi, gi, gi, L_p1, L_p1),
        "l26": np.einsum("ij,kl,su,ijk,sul->", gi, gi, gi, L_p1, L_p1),
    }
    return ll


MODELS = {
    "normal": normal_error,
    "t(3)": lambda: student_t_error(3),
    "skew-normal(3)": lambda: skew_normal_error(3.0),
}


@pytest.mark.parametrize("model_name", list(MODELS))
@pytest.mark.parametrize("p", [1, 2, 3])
def test_l_terms_match_full_contraction(model_name, p):
    model = MODELS[model_name]()
    m4, m22, m3, m21, m111 = 4.0, 1.3, 0.6, -0.25, 0.15
    table = build_eta_table(model, tol=1e-12)
    moments = HomogeneousMoments(p=p, m4=m4, m22=m22, m3=m3, m21=m21, m111=m111)
    mine = l_terms(table, moments)
    oracle = _oracle_l_terms(model, p, m4, m22, m3, m21, m111)
    agg = to_aggregated(moments)
    w = 1.0 / float(table.value(0, 0, 2, 0))
    l12_offset = (
        w * w * float(agg.M1) * float(_evaluate(table, _PAIR_PAIR[0, 0]) - _evaluate(table, _PAIR_TWO[0, 0]))
    )
    for name, want in oracle.items():
        got = float(getattr(mine, name))
        if name == "l12":
            want = want + l12_offset
        assert got == pytest.approx(want, rel=2e-9, abs=2e-9), name


def test_metric_block_matches_full_inverse():
    model = skew_normal_error(3.0)
    table = build_eta_table(model, tol=1e-12)
    _, G = _metric(table)
    k1, _, _ = _kernels(model)
    e = {
        (a, b): _expect(model, k1[a], k1[b]) for a in (B, S) for b in (B, S)
    }
    fwd = np.array([[e[(B, B)], e[(B, S)]], [e[(B, S)], e[(S, S)]]])
    inv = np.linalg.inv(fwd)
    assert float(G[0, 0]) == pytest.approx(inv[0, 0], rel=1e-10)
    assert float(G[0, 1]) == pytest.approx(inv[0, 1], rel=1e-10, abs=1e-10)
    assert float(G[1, 1]) == pytest.approx(inv[1, 1], rel=1e-10)
