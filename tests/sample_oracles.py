"""Test-only estimators kept as independent oracles for the library.

``eta_monte_carlo`` estimates eta entries from random draws, a cross-check
of the quadrature tables; ``aggregates_brute_force`` forms the moment tensors
directly, a cross-check of the data path's aggregates.
"""

from __future__ import annotations

import math

import numpy as np

from mlerisk.error_models import ErrorModel
from mlerisk.eta import GRID

__all__ = ["eta_monte_carlo", "aggregates_brute_force"]


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


def aggregates_brute_force(x: np.ndarray) -> dict:
    """Direct O(p^3)/O(p^4) tensor sums; the oracle for small p."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    m3 = np.einsum("ti,tj,tk->ijk", x, x, x) / n
    m4 = np.einsum("ti,tj,tk,tl->ijkl", x, x, x, x) / n
    m2a = float(np.sum(m3 * m3))
    m2b = float(sum(np.trace(m3[:, :, k]) ** 2 for k in range(p)))
    m1 = float(np.einsum("iikk->", m4))
    return {"M2a": m2a, "M2b": m2b, "M1": m1}
