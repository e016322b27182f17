"""Monte-Carlo estimator of the exact estimation risk.

Nothing here knows about the n^-2 expansion: samples are simulated from the
regression model, the MLE is fitted by damped Newton on the analytic score
and Hessian, the alpha-divergence between the fitted and true predictive
distributions is computed by tanh-sinh quadrature, and the replication
average estimates the risk.  Agreement with the expansion (within
Monte-Carlo error) validates the whole analytic pipeline end to end.

The divergence at a regressor x depends on x only through the shift delta
between the two regression means, so one replication certifies D(delta) on
a Chebyshev-Lobatto grid over its delta range (Trefethen, *Approximation
Theory and Approximation Practice*) and averages the interpolant over the
x sample, instead of integrating once per x.  The certificate is absolute,
1e-9, or the grid's rounding floor 50 eps max|D| where D is too large to
resolve 1e-9.  Only the leading coefficients that matter are evaluated: the
series is chopped where the dropped tail sums to a quarter of that
tolerance (Aurentz & Trefethen, *ACM TOMS* 43, 2017), which moves no value
by more.  Whether a sample has enough distinct deltas for the grid is
decided from its first rows when they suffice, without sorting the sample.

Replications draw their RNG streams from (seed, replication index), so
results do not depend on execution order and the estimator is reproducible
and embarrassingly parallel.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from ._quadrature import _EPS, _cached_new_nodes_weights, _cached_nodes_weights, integrate_real_line
from .error_models import ErrorModel, ModelKind
from .moments import X_PRESET_NAMES

__all__ = [
    "SimConfig",
    "RiskEstimate",
    "MLEFit",
    "draw_regressors",
    "draw_errors",
    "simulate",
    "mle_fit",
    "divergence",
    "estimate_risk",
]

@dataclass(frozen=True)
class SimConfig:
    model: ErrorModel
    x_dist: str
    beta: tuple  # (p+1,) regression coefficients, intercept first
    sigma: float
    n: int
    replications: int
    alpha: float
    seed: int
    x_dist_param: float | None = None  # nu for "t", index b for "pareto"
    divergence_sample: int = 10_000

    def __post_init__(self):
        if self.x_dist not in X_PRESET_NAMES:
            raise ValueError(f"x_dist must be one of {X_PRESET_NAMES}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not all(map(math.isfinite, self.beta)):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.x_dist_param is not None and not math.isfinite(self.x_dist_param):
            raise ValueError(f"x_dist_param must be finite, got {self.x_dist_param}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.divergence_sample < 1:
            raise ValueError("divergence_sample must be at least 1")
        p = len(self.beta) - 1
        if self.n < p + 3:
            raise ValueError(f"n must be at least p + 3 = {p + 3}")

    @property
    def p(self) -> int:
        return len(self.beta) - 1


@dataclass(frozen=True)
class RiskEstimate:
    mean: float
    std_error: float | None  # None when a single replication was requested
    replications_used: int
    divergence_failures: int
    fit_failures: int


def draw_regressors(name: str, param, n: int, p: int, rng) -> np.ndarray:
    """Draw an (n, p) regressor block, standardized by the exact transform."""
    if p == 0:
        return np.empty((n, 0))
    if name == "normal":
        return rng.standard_normal((n, p))
    if name == "t":
        nu = 4.2 if param is None else float(param)
        if nu <= 2:
            raise ValueError("t regressors need nu > 2 for a finite covariance")
        z = rng.standard_normal((n, p))
        w = rng.chisquare(nu, size=n)
        # scale mixture gives covariance nu/(nu-2) I; rescale to identity
        return z * np.sqrt((nu - 2.0) / w)[:, None]
    if name == "controlled":
        return rng.integers(0, 2, size=(n, p)) * 2.0 - 1.0
    if name == "pareto":
        b = 4.2 if param is None else float(param)
        if b <= 2:
            raise ValueError("Pareto regressors need index b > 2 for a finite variance")
        raw = rng.random((n, p)) ** (-1.0 / b)
        mean = b / (b - 1.0)
        sd = math.sqrt(b / ((b - 1.0) ** 2 * (b - 2.0)))
        return (raw - mean) / sd
    raise ValueError(f"unknown x distribution {name!r}")


def draw_errors(model: ErrorModel, n: int, rng) -> np.ndarray:
    if model.kind is ModelKind.NORMAL:
        return rng.standard_normal(n)
    if model.kind is ModelKind.STUDENT_T:
        return rng.standard_t(float(model.param), size=n)
    if model.kind is ModelKind.SKEW_NORMAL:
        b = float(model.param)
        delta = b / math.sqrt(1.0 + b * b)
        u0 = np.abs(rng.standard_normal(n))
        u1 = rng.standard_normal(n)
        return delta * u0 + math.sqrt(1.0 - delta * delta) * u1
    raise ValueError(f"sampling is not available for {model!r}")


def _rep_rng(seed: int, rep: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))


def simulate(config: SimConfig, rep: int = 0):
    """One replication's sample (y, x); deterministic given (seed, rep)."""
    rng = _rep_rng(config.seed, rep)
    return _simulate_with(config, rng)


def _simulate_with(config: SimConfig, rng):
    x = draw_regressors(config.x_dist, config.x_dist_param, config.n, config.p, rng)
    eps = draw_errors(config.model, config.n, rng)
    beta = np.asarray(config.beta, dtype=float)
    y = beta[0] + x @ beta[1:] + config.sigma * eps
    return y, x


@dataclass(frozen=True)
class MLEFit:
    beta: np.ndarray
    sigma: float
    converged: bool
    grad_sup_norm: float
    iterations: int


# Largest change of log sigma in one Newton step: a step of e^1 in sigma is
# ample near the optimum, and far from it an uncapped step can push every
# residual toward overflow.
_MAX_LOG_SIGMA_STEP = 1.0
_MAX_NEWTON_STEPS = 100


def _loglik_and_score(theta, y, xt, model):
    """Log likelihood, its score in (beta, log sigma), and the residual terms."""
    log_sigma = theta[-1]
    sigma = math.exp(log_sigma)
    u = (y - xt @ theta[:-1]) / sigma
    ll = float(np.sum(model.log_pdf(u))) - y.size * log_sigma
    d1 = model.log_deriv1(u)
    score = np.append(-(xt.T @ d1) / sigma, -float(np.sum(1.0 + d1 * u)))
    return ll, score, u, d1


def _neg_hessian(theta, xt, u, d1, model):
    """Minus the log-likelihood Hessian in (beta, log sigma), closed form."""
    sigma = math.exp(theta[-1])
    d2 = model.log_deriv2(u)
    k = theta.size
    a = np.empty((k, k))
    a[:-1, :-1] = -(xt.T @ (d2[:, None] * xt)) / (sigma * sigma)
    a[:-1, -1] = a[-1, :-1] = -(xt.T @ (d2 * u + d1)) / sigma
    a[-1, -1] = -float(np.sum((d2 * u + d1) * u))
    return a


def _ascent_step(a, score):
    """Newton step (a + shift I)^-1 score, shifted when a is not positive definite.

    Away from the optimum heavy-tailed likelihoods are not concave (t(3)
    residuals beyond sqrt(3) have log_deriv2 > 0); the Levenberg shift lifts
    the smallest eigenvalue to 1e-3 of the largest, which keeps the step an
    ascent direction for the line search.
    """
    w = np.linalg.eigvalsh(a)
    top = float(np.max(np.abs(w)))
    shift = 0.0 if w[0] > 1e-12 * top else 1e-3 * top - w[0]
    return np.linalg.solve(a + shift * np.eye(a.shape[0]), score)


def mle_fit(y, x, model: ErrorModel, init=None, grad_tol: float = 1e-8) -> MLEFit:
    """Maximize the sample log likelihood by damped Newton on the analytic score.

    Initialized at the least-squares solution (the global basin for the
    supported families at moderate n); sigma is optimized on the log scale so
    positivity is structural.  Each step solves with the closed-form Hessian
    built from ``log_deriv1``/``log_deriv2`` (Levenberg-shifted where it is
    not negative definite), caps the change of log sigma, and backtracks
    until the log likelihood rises.  Iteration stops once the score
    sup-norm reaches ``0.01 * grad_tol``; convergence means a sup-norm
    below ``grad_tol``.  The last accepted iterate is returned either way,
    flagged.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n, p = y.size, x.shape[1]
    if n < p + 2:
        raise ValueError("need at least p + 2 observations to fit")
    xt = np.column_stack([np.ones(n), x])
    if init is None:
        beta0, *_ = np.linalg.lstsq(xt, y, rcond=None)
        resid = y - xt @ beta0
        s0 = max(float(np.sqrt(np.mean(resid**2))), 1e-12)
    else:
        beta0 = np.asarray(init[0], dtype=float)
        s0 = float(init[1])
    theta = np.append(beta0, math.log(s0))

    ll, score, u, d1 = _loglik_and_score(theta, y, xt, model)
    sup = float(np.max(np.abs(score)))
    iterations = 0
    while iterations < _MAX_NEWTON_STEPS and sup > 0.01 * grad_tol:
        step = _ascent_step(_neg_hessian(theta, xt, u, d1, model), score)
        over = abs(step[-1]) / _MAX_LOG_SIGMA_STEP
        if over > 1.0:
            step /= over
        # Near the optimum the log likelihood is flat to rounding, so a step
        # that keeps it within rounding and shrinks the score is accepted too.
        slack = 1e-13 * (abs(ll) + n)
        for _ in range(40):
            cand = theta + step
            c_ll, c_score, c_u, c_d1 = _loglik_and_score(cand, y, xt, model)
            c_sup = float(np.max(np.abs(c_score)))
            if c_ll > ll or (c_ll >= ll - slack and c_sup < sup):
                break
            step /= 2.0
        else:
            break
        theta, ll, score, u, d1, sup = cand, c_ll, c_score, c_u, c_d1, c_sup
        iterations += 1
    return MLEFit(
        beta=theta[:-1].copy(),
        sigma=math.exp(theta[-1]),
        converged=sup < grad_tol,
        grad_sup_norm=sup,
        iterations=iterations,
    )


# Weak keys: an entry lives only as long as its model.
_NEG_ENTROPY_CACHE: weakref.WeakKeyDictionary[ErrorModel, float] = weakref.WeakKeyDictionary()


def _neg_entropy(model: ErrorModel) -> float:
    """integral of f log f, a model constant shared by all KL evaluations."""
    hit = _NEG_ENTROPY_CACHE.get(model)
    if hit is not None:
        return hit
    res = integrate_real_line(
        lambda y: np.where((f := model.pdf(y)) > 0.0, f * model.log_pdf(y), 0.0),
        tol=1e-12,
    )
    _NEG_ENTROPY_CACHE[model] = res.value
    return res.value


_START_LEVEL = 2
_MAX_LEVEL = 10
_TOL = 1e-9  # absolute; certifies each quadrature, and each Chebyshev profile above its rounding floor


def _refined_batch(weighted_row_sum):
    """Run the trapezoidal refinement I_L = I_{L-1}/2 + (new terms).

    ``weighted_row_sum(u, w)`` returns the weighted integrand summed over the
    node axis.  Returns (values, per-element certified mask).
    """
    total = weighted_row_sum(*_cached_nodes_weights(_START_LEVEL))
    for level in range(_START_LEVEL + 1, _MAX_LEVEL + 1):
        prev, total = total, total / 2.0 + weighted_row_sum(*_cached_new_nodes_weights(level))
        err = np.abs(total - prev)
        if err.max() <= _TOL:
            break
    return total, err <= _TOL


def _divergence_profile(model, deltas, s1, s2, alpha):
    """Per-location-shift divergence values, vectorized over deltas.

    The regression densities at a fixed regressor differ only by a location
    shift delta and the two scales, so each per-x divergence is the 1-D
    integral of f(u)^lo f(v)^hi (KL: f(u) log f(v)), v = (u s1 + delta)/s2;
    the h(x) factor cancels.  alpha = 1 is KL mirrored, D_1(p||q) = D_-1(q||p).
    """
    deltas = np.asarray(deltas, dtype=float)
    if alpha == 1.0:
        s1, s2, deltas, alpha = s2, s1, -deltas, -1.0
    kl = alpha == -1.0
    lo, hi = (1.0 - alpha) / 2.0, (1.0 + alpha) / 2.0

    def row_sum(u, w):
        # Negligible-weight columns go while the other factor is bounded (KL: dropped
        # mass * |log f| << tol); a negative exponent overflows, so keep what is finite.
        if kl:
            base = model.pdf(u) * w
        else:
            lf = model.log_pdf(u)
            with np.errstate(over="ignore"):
                base = np.exp(lo * lf) * w
        keep = np.abs(base) > 1e-18 if lo > 0 and hi >= 0 else np.isfinite(base)
        v = (u[keep][None, :] * s1 + deltas[:, None]) / s2
        if kl:
            g = model.log_pdf(v)
        else:
            with np.errstate(over="ignore"):
                g = np.exp(hi * model.log_pdf(v))
        g[~np.isfinite(g)] = 0.0  # underflowed tail of the other density
        return g @ base[keep]

    vals, ok = _refined_batch(row_sum)
    if kl:
        return math.log(s2 / s1) + _neg_entropy(model) - vals, ok
    return 4.0 / (1.0 - alpha * alpha) * (1.0 - (s1 / s2) ** hi * vals), ok


# Chebyshev-Lobatto profile sizes: the first certification compares the
# 16- and 32-interval interpolants; doubling stops at 512 intervals.
_CHEB_FIRST = 16
_CHEB_CAP = 512


def _lobatto(n_intervals, odd_only=False):
    """Nodes cos(j pi / N) on [-1, 1]; only the odd j when ``odd_only``."""
    j = np.arange(1 if odd_only else 0, n_intervals + 1, 2 if odd_only else 1)
    return np.cos(np.pi * j / n_intervals)


def _cheb_coefficients(values):
    """Chebyshev coefficients of the interpolant through Lobatto-node values.

    ``values[j]`` sits at cos(j pi / N); the coefficients are a DCT-I of the
    values, taken here as the FFT of their even extension.
    """
    n_intervals = values.size - 1
    ext = np.concatenate([values, values[-2:0:-1]])
    coeffs = np.fft.rfft(ext).real[: n_intervals + 1] / n_intervals
    coeffs[0] /= 2.0
    coeffs[-1] /= 2.0
    return coeffs


def _chopped(coeffs, tol):
    """The shortest leading part of ``coeffs`` whose dropped tail sums to at most ``tol``.

    |T_k| <= 1 on [-1, 1], so the part differs from the whole series by at
    most ``tol`` anywhere on the interval.
    """
    tails = np.cumsum(np.abs(coeffs[::-1]))[::-1]  # tails[k] = sum_{j >= k} |c_j|
    return coeffs[: max(1, int(np.count_nonzero(tails > tol)))]


def _certified_profile(profile, lo, hi):
    """Chebyshev coefficients of D on [lo, hi], or None if not certified.

    ``profile(deltas)`` returns (values, certified mask).  The N-interval
    interpolant is checked against the values at the N new nodes of the
    2N-interval grid; once they agree to max(``_TOL``, 50 eps max|D|) -- the
    rounding floor of the grid's largest value, as in
    :func:`integrate_real_line` -- and every node's quadrature is certified,
    the 2N interpolant is returned, chopped to the leading coefficients whose
    dropped tail sums to a quarter of that tolerance.  N doubles from
    ``_CHEB_FIRST``, reusing the values already computed, up to ``_CHEB_CAP``
    intervals.
    """
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    n_intervals = _CHEB_FIRST
    values, ok = profile(mid + half * _lobatto(n_intervals))
    while ok.all() and n_intervals < _CHEB_CAP:
        t_new = _lobatto(2 * n_intervals, odd_only=True)
        new, ok = profile(mid + half * t_new)
        merged = np.empty(2 * n_intervals + 1)
        merged[0::2], merged[1::2] = values, new
        tol = max(_TOL, 50 * _EPS * float(np.max(np.abs(merged))))
        if ok.all() and np.max(np.abs(chebval(t_new, _cheb_coefficients(values)) - new)) <= tol:
            return _chopped(_cheb_coefficients(merged), tol / 4.0)
        values, n_intervals = merged, 2 * n_intervals
    return None


# Rows whose distinct deltas are counted first: more than the first grid's
# 2 * _CHEB_FIRST + 1 nodes among them settles the path without a full sort.
_HEAD_ROWS = 64


def divergence(model, theta1, theta2, alpha, x_sample):
    """Mean alpha-divergence between two fitted regressions over an x sample.

    ``theta1``/``theta2`` are (beta, sigma) pairs; for the risk, theta1 is
    the fitted parameter and theta2 the truth.  Returns (value, number of
    x points whose divergence failed to certify to 1e-9).

    Each per-x divergence depends on x only through the shift delta between
    the two regression means.  With no more distinct deltas than the first
    Chebyshev grid has nodes they are integrated one by one; otherwise D(delta)
    is certified once on a Chebyshev grid over [min delta, max delta] (see
    :func:`_certified_profile` for the tolerance and the chop) and its
    interpolant is averaged over the sample.  The first ``_HEAD_ROWS`` rows
    are counted first: when they alone hold more distinct deltas than the
    grid has nodes, the sample is not sorted.  If the grid cannot be
    certified, every distinct delta is integrated.
    """
    b1, s1 = np.asarray(theta1[0], dtype=float), float(theta1[1])
    b2, s2 = np.asarray(theta2[0], dtype=float), float(theta2[1])
    if s1 <= 0 or s2 <= 0:
        raise ValueError("scales must be positive")
    x_sample = np.asarray(x_sample, dtype=float)
    if x_sample.ndim != 2:
        raise ValueError("x_sample must be an (m, p) matrix")
    deltas = (b1[0] - b2[0]) + x_sample @ (b1[1:] - b2[1:])
    alpha = float(alpha)

    def profile(ds):
        return _divergence_profile(model, ds, s1, s2, alpha)

    uniq = np.unique(deltas[:_HEAD_ROWS])
    if uniq.size <= 2 * _CHEB_FIRST + 1:
        uniq, counts = np.unique(deltas, return_counts=True)
    if uniq.size > 2 * _CHEB_FIRST + 1:
        lo, hi = deltas.min(), deltas.max()
        coeffs = _certified_profile(profile, lo, hi)
        if coeffs is not None:
            t = np.clip((2.0 * deltas - (hi + lo)) / (hi - lo), -1.0, 1.0)
            return float(np.mean(chebval(t, coeffs))), 0
        uniq, counts = np.unique(deltas, return_counts=True)
    vals, ok = profile(uniq)
    return float(counts @ vals) / deltas.size, int(counts[~ok].sum())


def estimate_risk(config: SimConfig) -> RiskEstimate:
    """Replication average of the divergence between fitted and true models.

    Each replication fits a fresh simulated sample and averages the per-x
    divergence over an independent regressor sample (the theoretical risk
    integrates over the true x distribution, not the fitting sample).
    Non-convergent fits are excluded and counted.
    """
    values = []
    divergence_failures = 0
    fit_failures = 0
    beta_true = np.asarray(config.beta, dtype=float)
    for rep in range(config.replications):
        rng = _rep_rng(config.seed, rep)
        y, x = _simulate_with(config, rng)
        fit = mle_fit(y, x, config.model)
        if not fit.converged:
            fit_failures += 1
            continue
        x_fresh = draw_regressors(
            config.x_dist, config.x_dist_param, config.divergence_sample, config.p, rng
        )
        value, fails = divergence(
            config.model,
            (fit.beta, fit.sigma),
            (beta_true, config.sigma),
            config.alpha,
            x_fresh,
        )
        divergence_failures += fails
        values.append(value)
    if not values:
        raise ArithmeticError("all replications failed to converge")
    mean = float(np.mean(values))
    if len(values) > 1:
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    else:
        se = None
    return RiskEstimate(
        mean=mean,
        std_error=se,
        replications_used=len(values),
        divergence_failures=divergence_failures,
        fit_failures=fit_failures,
    )
