"""Tanh-sinh (double-exponential) quadrature over the whole real line.

The change of variable y = sinh((pi/2) sinh(t)) maps R onto itself and turns
any integrand that decays at least algebraically (faster than |y|^-2) into a
double-exponentially decaying function of t, so the trapezoidal rule on a
uniform t-grid converges at an essentially spectral rate.  Levels halve the
step; the difference between two successive levels serves as the error bound,
or the level's rounding floor when the integrand is too large to resolve tol.

Entry points: :func:`integrate_real_line` for scalar adaptive integration
(the error-moment tables and one-off checks), and the cached node/weight
arrays -- full grids plus per-level refinement increments -- consumed by the
batched divergence quadrature in :mod:`mlerisk.mc`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_HALF_PI = math.pi / 2.0

# |t| beyond ~4.3 maps to |y| ~ 1e25; any admissible density underflowed long
# before that, so nodes further out contribute exactly zero.
_T_MAX = 4.3
_BASE_STEP = 0.5
_MAX_LEVEL = 12
_EPS = float(np.finfo(float).eps)


class QuadratureError(Exception):
    """Raised when the requested tolerance cannot be certified."""


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _cached_nodes_weights(level: int) -> tuple[np.ndarray, np.ndarray]:
    """All nodes y = sinh((pi/2) sinh(t)) and weights of the DE rule at ``level``."""
    h = _BASE_STEP / 2**level
    t = np.arange(-int(_T_MAX / h), int(_T_MAX / h) + 1) * h
    s = _HALF_PI * np.sinh(t)
    return _read_only(np.sinh(s), h * np.cosh(t) * _HALF_PI * np.cosh(s))


@lru_cache(maxsize=None)
def _cached_new_nodes_weights(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Only the nodes introduced at ``level`` (odd multiples of its step).

    Trapezoidal refinement halves the step, so the previous level's sum
    contributes exactly half of itself plus these new terms:
    I_L = I_{L-1} / 2 + sum_new.  They are the odd-k entries of the level's
    full grid, copied so that they are contiguous like every other grid.
    """
    y, w = _cached_nodes_weights(level)
    if level <= 0:
        return y, w
    first_odd = 1 - (y.size // 2) % 2  # the grid runs over k = -kmax .. kmax
    return _read_only(y[first_odd::2].copy(), w[first_odd::2].copy())


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_bound: float
    level: int
    converged: bool


def integrate_real_line(fn, tol: float = 1e-10, max_level: int = _MAX_LEVEL) -> QuadResult:
    """Integrate ``fn`` over R adaptively.

    ``fn`` must accept a numpy array of abscissae and return the integrand
    values; non-finite values are treated as integration failure.

    A level is certified once the endpoint terms are below ``tol`` and its
    difference from the previous level is below ``tol``, the difference being
    the bound; or, for an integrand too large to resolve ``tol``, below the
    rounding floor 50 eps sum |f w| of the level's own sum (the roundoff floor
    QUADPACK uses), the floor being the bound.  A result that runs out of
    levels has ``converged`` False and the last difference as its bound.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    prev = None
    value = 0.0
    err = tail = math.inf
    for level in range(max_level + 1):
        y, w = _cached_nodes_weights(level)
        f = np.asarray(fn(y), dtype=float)
        if f.shape != y.shape:
            f = np.broadcast_to(f, y.shape)
        bad = ~np.isfinite(f)
        if bad.any():
            # Non-finite values in the far tails come from 0 * inf artifacts
            # where the density already underflowed; treat them as zero there.
            f = np.where(bad & (np.abs(y) > 1e6), 0.0, f)
            if not np.isfinite(f).all():
                raise QuadratureError(
                    "integrand returned non-finite values at finite abscissae"
                )
        contrib = f * w
        value = float(contrib.sum())
        # a non-negligible endpoint term means the transformed integrand has
        # not died out: the rule would silently integrate a truncated domain
        tail = max(abs(float(contrib[0])), abs(float(contrib[-1])))
        if prev is not None:
            err = abs(value - prev)
            if level >= 2 and tail <= tol:
                if err <= tol:
                    return QuadResult(value=value, error_bound=err, level=level, converged=True)
                floor = 50 * _EPS * float(np.abs(contrib).sum())
                if err <= floor:
                    return QuadResult(value=value, error_bound=floor, level=level, converged=True)
        prev = value
    return QuadResult(value=value, error_bound=max(err, tail), level=max_level, converged=False)
