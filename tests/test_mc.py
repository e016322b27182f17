import gc
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from scipy import integrate, optimize

import mlerisk
from mlerisk import mc
from mlerisk.error_models import normal_error, skew_normal_error, student_t_error
from mlerisk.expansion import risk_expansion
from mlerisk.mc import (
    SimConfig,
    divergence,
    draw_errors,
    draw_regressors,
    estimate_risk,
    mle_fit,
    simulate,
)
from mlerisk.moments import x_preset


def _config(**kw):
    base = dict(
        model=normal_error(),
        x_dist="normal",
        beta=(0.0, 0.0),
        sigma=1.0,
        n=100,
        replications=10,
        alpha=-1.0,
        seed=1234,
    )
    base.update(kw)
    return SimConfig(**base)


# --- simulation --------------------------------------------------------------


def test_controlled_regressors_are_plus_minus_one():
    y, x = simulate(_config(x_dist="controlled", beta=(0.0, 1.0, -1.0), n=50), rep=0)
    assert set(np.unique(x)) <= {-1.0, 1.0}


def test_zero_regression_matches_error_law():
    cfg = _config(beta=(0.0, 0.0), sigma=1.0, n=50_000)
    y, x = simulate(cfg, rep=0)
    # y should be standard normal: check first two moments loosely
    assert abs(float(np.mean(y))) < 0.02
    assert abs(float(np.std(y)) - 1.0) < 0.02


def test_simulation_is_deterministic_per_seed_and_rep():
    cfg = _config(n=20)
    y1, x1 = simulate(cfg, rep=3)
    y2, x2 = simulate(cfg, rep=3)
    assert np.array_equal(y1, y2) and np.array_equal(x1, x2)
    y3, _ = simulate(cfg, rep=4)
    assert not np.array_equal(y1, y3)


@pytest.mark.parametrize("name,param", [("normal", None), ("t", 4.2), ("controlled", None), ("pareto", 4.2)])
def test_regressor_presets_are_standardized(name, param):
    rng = np.random.default_rng(0)
    x = draw_regressors(name, param, 400_000, 2, rng)
    assert np.max(np.abs(x.mean(axis=0))) < 0.02
    second = x.T @ x / x.shape[0]
    assert np.max(np.abs(np.diag(second) - 1.0)) < 0.05
    assert abs(second[0, 1]) < 0.02


def test_error_sampler_matches_density_moments():
    rng = np.random.default_rng(7)
    for model in (normal_error(), student_t_error(3), skew_normal_error(3.0)):
        draws = draw_errors(model, 200_000, rng)
        # compare E[y] from draws against quadrature of y f(y)
        from mlerisk._quadrature import integrate_real_line

        mean_true = integrate_real_line(lambda y: y * model.pdf(y), tol=1e-10).value
        assert float(np.mean(draws)) == pytest.approx(mean_true, abs=0.02)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        _config(sigma=-1.0)
    with pytest.raises(ValueError):
        _config(x_dist="cauchy")
    with pytest.raises(ValueError):
        _config(n=3, beta=(0.0, 0.0))
    with pytest.raises(ValueError, match="divergence_sample"):
        _config(divergence_sample=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma"):
            _config(sigma=bad)
        with pytest.raises(ValueError, match="beta"):
            _config(beta=(0.0, bad))
        with pytest.raises(ValueError, match="x_dist_param"):
            _config(x_dist="t", x_dist_param=bad)


# --- MLE ----------------------------------------------------------------------


def test_normal_mle_equals_least_squares():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((300, 2))
    xt = np.column_stack([np.ones(300), x])
    y = xt @ np.array([1.0, -0.5, 2.0]) + 0.7 * rng.standard_normal(300)
    fit = mle_fit(y, x, normal_error())
    beta_ols, *_ = np.linalg.lstsq(xt, y, rcond=None)
    assert np.max(np.abs(fit.beta - beta_ols)) < 1e-8
    assert fit.sigma == pytest.approx(float(np.sqrt(np.mean((y - xt @ beta_ols) ** 2))), abs=1e-8)
    assert fit.converged


def test_mle_consistency_large_sample():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((100_000, 1))
    y = 0.3 + 1.7 * x[:, 0] + 1.0 * rng.standard_normal(100_000)
    fit = mle_fit(y, x, normal_error())
    assert 0.99 <= fit.sigma <= 1.01


def test_t_mle_intercept_only_converges():
    rng = np.random.default_rng(13)
    y = 0.5 + rng.standard_t(3, size=400)
    fit = mle_fit(y, np.empty((400, 0)), student_t_error(3))
    assert fit.converged
    assert fit.grad_sup_norm < 1e-8
    assert abs(fit.beta[0] - 0.5) < 0.2


def test_t_mle_beats_ols_on_loglik():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((500, 1))
    y = 1.0 + 2.0 * x[:, 0] + rng.standard_t(3, size=500)
    model = student_t_error(3)
    fit = mle_fit(y, x, model)
    xt = np.column_stack([np.ones(500), x])
    beta_ols, *_ = np.linalg.lstsq(xt, y, rcond=None)
    s_ols = float(np.sqrt(np.mean((y - xt @ beta_ols) ** 2)))

    def loglik(beta, sigma):
        u = (y - xt @ beta) / sigma
        return float(np.sum(model.log_pdf(u))) - 500 * math.log(sigma)

    assert fit.converged
    assert loglik(fit.beta, fit.sigma) >= loglik(beta_ols, s_ols)


def _reference_fit(y, x, model):
    """Optimum by scipy: BFGS on the log likelihood, then a root of the score.

    Written independently of ``mle_fit``; the root finder differences the
    score numerically, so no analytic Hessian is shared.
    """
    xt = np.column_stack([np.ones(y.size), x])

    def negloglik(theta):
        sigma = math.exp(theta[-1])
        u = (y - xt @ theta[:-1]) / sigma
        d1 = model.log_deriv1(u)
        value = -float(np.sum(model.log_pdf(u))) + y.size * theta[-1]
        grad = np.append(xt.T @ d1 / sigma, float(np.sum(1.0 + d1 * u)))
        return value, grad

    beta0, *_ = np.linalg.lstsq(xt, y, rcond=None)
    theta0 = np.append(beta0, math.log(float(np.sqrt(np.mean((y - xt @ beta0) ** 2)))))
    first = optimize.minimize(negloglik, theta0, jac=True, method="BFGS", options={"gtol": 1e-10})
    root = optimize.root(lambda th: negloglik(th)[1], first.x, method="hybr", options={"xtol": 1e-14})
    assert np.max(np.abs(negloglik(root.x)[1])) < 1e-8
    return root.x, negloglik


@pytest.mark.parametrize("model", [normal_error(), student_t_error(3), skew_normal_error(3.0)], ids=repr)
@pytest.mark.parametrize("n,p", [(60, 1), (200, 3), (120, 10)])
def test_newton_fit_matches_scipy_reference(model, n, p):
    rng = np.random.default_rng(100 * n + p)
    x = rng.standard_normal((n, p))
    y = 0.5 + x @ np.linspace(-1.0, 1.0, p) + draw_errors(model, n, rng)
    fit = mle_fit(y, x, model)
    theta, _ = _reference_fit(y, x, model)
    assert fit.converged and fit.grad_sup_norm < 1e-10
    # exact Newton from least squares takes at most 8 steps on these samples;
    # a wrong Hessian still converges through the line search, but slowly
    assert fit.iterations <= 10
    assert np.max(np.abs(fit.beta - theta[:-1])) < 1e-8
    assert abs(fit.sigma - math.exp(theta[-1])) < 1e-8


def test_newton_fit_converges_where_hessian_is_indefinite():
    """Gross outliers at high leverage make the t(3) likelihood non-concave at
    the least-squares start; the shifted Newton steps must still converge."""
    model = student_t_error(3)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 2))
    y = 1.0 + x @ np.array([0.5, -0.3]) + rng.standard_t(3, 100)
    y[:4] += [300.0, -250.0, 400.0, 500.0]
    x[:4, 0] += 6.0
    theta_ref, negloglik = _reference_fit(y, x, model)

    xt = np.column_stack([np.ones(100), x])
    beta0, *_ = np.linalg.lstsq(xt, y, rcond=None)
    theta0 = np.append(beta0, math.log(float(np.sqrt(np.mean((y - xt @ beta0) ** 2)))))
    h = 1e-5
    hess = np.array([
        (negloglik(theta0 + h * e)[1] - negloglik(theta0 - h * e)[1]) / (2 * h) for e in np.eye(4)
    ])
    assert np.linalg.eigvalsh((hess + hess.T) / 2)[0] < 0  # minus the Hessian is indefinite

    fit = mle_fit(y, x, model)
    assert fit.converged
    assert np.max(np.abs(fit.beta - theta_ref[:-1])) < 1e-8
    assert abs(fit.sigma - math.exp(theta_ref[-1])) < 1e-8


@pytest.mark.parametrize("init", [((50.0, -40.0, 30.0), 1e-3), ((0.0, 0.0, 0.0), 1e-6), ((5.0, 5.0, 5.0), 1e8)])
def test_newton_fit_from_far_start_raises_no_warning(init):
    model = skew_normal_error(3.0)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((150, 2))
    y = x @ np.array([1.0, 2.0]) + draw_errors(model, 150, rng)
    near = mle_fit(y, x, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        far = mle_fit(y, x, model, init=init)
    assert far.converged
    assert np.max(np.abs(far.beta - near.beta)) < 1e-8 and abs(far.sigma - near.sigma) < 1e-8


def test_import_does_not_load_scipy_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlerisk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import mlerisk, sys; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # the CLI loads scipy.special only when a skew-normal or custom density needs it
    code = "import mlerisk.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_neg_entropy_cache_releases_dropped_models():
    model = normal_error()
    mc._neg_entropy(model)
    assert model in mc._NEG_ENTROPY_CACHE
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_neg_entropy_cache_serves_a_live_model_without_integrating(monkeypatch):
    model = normal_error()
    xs = np.empty((1, 0))
    theta1, theta2 = (np.array([0.3]), 1.2), (np.array([0.0]), 1.0)
    first, _ = divergence(model, theta1, theta2, -1.0, xs)
    calls = []
    monkeypatch.setattr(mc, "integrate_real_line", lambda *a, **kw: calls.append(a))
    second, _ = divergence(model, theta1, theta2, -1.0, xs)
    assert calls == [] and second == first


# --- divergence ---------------------------------------------------------------


def _gauss_kl(m1, s1, m2, s2):
    return math.log(s2 / s1) + (s1 * s1 + (m1 - m2) ** 2) / (2 * s2 * s2) - 0.5


def test_divergence_zero_at_equal_parameters():
    xs = np.random.default_rng(0).standard_normal((100, 2))
    v, fails = divergence(
        student_t_error(3), (np.array([0.1, 0.2, -0.3]), 1.1), (np.array([0.1, 0.2, -0.3]), 1.1), -1.0, xs
    )
    assert abs(v) < 1e-10 and fails == 0


def test_divergence_matches_gaussian_kl_closed_form():
    xs = np.empty((1, 0))
    for m1, s1, s2 in [(0.3, 1.2, 1.0), (-0.5, 0.8, 1.3), (0.0, 1.0, 1.0)]:
        v, fails = divergence(normal_error(), (np.array([m1]), s1), (np.array([0.0]), s2), -1.0, xs)
        assert fails == 0
        assert v == pytest.approx(_gauss_kl(m1, s1, 0.0, s2), abs=1e-8)


def test_divergence_averages_over_x():
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((500, 1))
    b1, b2 = np.array([0.2, 0.5]), np.array([0.0, 0.0])
    v, _ = divergence(normal_error(), (b1, 1.0), (b2, 1.0), -1.0, xs)
    deltas = (b1[0] - b2[0]) + xs[:, 0] * (b1[1] - b2[1])
    expected = float(np.mean([_gauss_kl(d, 1.0, 0.0, 1.0) for d in deltas]))
    assert v == pytest.approx(expected, abs=1e-9)


def test_divergence_duality():
    xs = np.empty((1, 0))
    t1, t2 = (np.array([0.2]), 1.1), (np.array([0.0]), 0.9)
    for alpha in (0.0, 0.5, 3.0, 1.0, -1.0):
        v1, _ = divergence(student_t_error(3), t1, t2, alpha, xs)
        v2, _ = divergence(student_t_error(3), t2, t1, -alpha, xs)
        if abs(alpha) == 1.0:  # alpha = 1 runs as the mirrored KL itself
            assert v1 == v2
        else:
            assert v1 == pytest.approx(v2, abs=1e-8)


def test_divergence_hellinger_against_quadpack():
    model = student_t_error(3)
    m1, s1, s2 = 0.4, 1.2, 0.9

    def f1(y):
        return model.pdf((y - m1) / s1) / s1

    def f2(y):
        return model.pdf(y / s2) / s2

    target, _ = integrate.quad(lambda y: math.sqrt(f1(y) * f2(y)), -np.inf, np.inf, limit=200)
    expected = 4.0 * (1.0 - target)
    v, _ = divergence(model, (np.array([m1]), s1), (np.array([0.0]), s2), 0.0, np.empty((1, 0)))
    assert v == pytest.approx(expected, abs=1e-8)


def _profile_sizes(monkeypatch):
    """Record how many deltas each call of the per-delta quadrature gets."""
    sizes = []
    direct = mc._divergence_profile

    def counted(model, deltas, *args, **kwargs):
        sizes.append(np.size(deltas))
        return direct(model, deltas, *args, **kwargs)

    monkeypatch.setattr(mc, "_divergence_profile", counted)
    return sizes, direct


def _chops(monkeypatch):
    """Record each certified series handed to the chop, its tolerance and what it keeps."""
    chops = []
    chop = mc._chopped

    def recorded(coeffs, tol):
        kept = chop(coeffs, tol)
        chops.append((coeffs, tol, kept))
        return kept

    monkeypatch.setattr(mc, "_chopped", recorded)
    return chops


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("model", [normal_error(), student_t_error(3), skew_normal_error(3.0)], ids=repr)
@pytest.mark.parametrize("x_dist", ["t", "pareto"])
def test_chebyshev_divergence_matches_per_delta(monkeypatch, x_dist, model, alpha):
    tol = 1e-9
    rng = np.random.default_rng(17)
    xs = draw_regressors(x_dist, None, 10_000, 3, rng)
    # delta spans about [-1.1, 0.5] (t) and [-0.3, 1.1] (pareto); much wider
    # ranges at alpha = 3 exceed what the per-delta quadrature certifies
    b1, s1 = np.array([0.015, 0.03, -0.024, 0.036]), 1.05
    b2, s2 = np.zeros(4), 1.0
    sizes, direct = _profile_sizes(monkeypatch)
    value, fails = divergence(model, (b1, s1), (b2, s2), alpha, xs)
    assert fails == 0
    assert max(sizes) <= mc._CHEB_CAP + 1  # certified on the grid, no fallback

    deltas = b1[0] + xs @ b1[1:]
    per_x, ok = direct(model, deltas, s1, s2, alpha)
    assert ok.all()
    assert abs(value - float(np.mean(per_x))) <= 2 * tol
    lo, hi = deltas.min(), deltas.max()
    chops = _chops(monkeypatch)
    coeffs = mc._certified_profile(lambda d: direct(model, d, s1, s2, alpha), lo, hi)
    t = (2.0 * deltas - (hi + lo)) / (hi - lo)
    chebval = np.polynomial.chebyshev.chebval
    assert np.max(np.abs(chebval(t, coeffs) - per_x)) <= 2 * tol

    # the evaluated series is the shortest leading part of the certified one
    # whose dropped tail sums to at most tol / 4, and moves no value by more
    [(full, chop_tol, kept)] = chops
    assert kept is coeffs and chop_tol == tol / 4  # |D| is far below the rounding floor's reach
    m = coeffs.size
    assert np.array_equal(coeffs, full[:m])
    assert np.abs(full[m:]).sum() <= tol / 4
    assert m == 1 or np.abs(full[m - 1:]).sum() > tol / 4
    assert np.max(np.abs(chebval(t, coeffs) - chebval(t, full))) <= tol / 4


def test_divergence_falls_back_when_the_profile_does_not_certify(monkeypatch):
    """A delta range of +-1e4 around a feature of width ~1 needs far more than
    the capped grid; every distinct delta is then integrated on its own."""
    model = student_t_error(3)
    xs = np.linspace(-1.0, 1.0, 200)[:, None]
    b1, b2 = np.array([0.0, 1e4]), np.zeros(2)
    sizes, direct = _profile_sizes(monkeypatch)
    value, fails = divergence(model, (b1, 1.0), (b2, 1.0), -1.0, xs)
    assert fails == 0
    assert sizes[-1] == 200 and sum(sizes[:-1]) == mc._CHEB_CAP + 1
    per_x, ok = direct(model, xs[:, 0] * 1e4, 1.0, 1.0, -1.0)
    assert ok.all() and value == pytest.approx(float(np.mean(per_x)), abs=1e-12)


def test_a_head_with_few_deltas_still_takes_the_grid_when_the_sample_has_many(monkeypatch):
    """The first rows hold 2 distinct deltas and the whole sample 202: the
    path is decided by the whole sample, as it would be without the head."""
    model = student_t_error(3)
    xs = np.concatenate([np.tile([-1.0, 1.0], mc._HEAD_ROWS // 2), np.linspace(-1.0, 1.0, 200)])[:, None]
    b1, s1, b2, s2 = np.array([0.1, 0.5]), 1.1, np.zeros(2), 1.0
    deltas = b1[0] + xs[:, 0] * b1[1]
    assert np.unique(deltas[: mc._HEAD_ROWS]).size == 2 and np.unique(deltas).size >= 40
    sizes, direct = _profile_sizes(monkeypatch)
    value, fails = divergence(model, (b1, s1), (b2, s2), -1.0, xs)
    assert fails == 0
    assert sizes[0] == mc._CHEB_FIRST + 1 and sum(sizes) <= mc._CHEB_CAP + 1
    per_x, ok = direct(model, deltas, s1, s2, -1.0)
    assert ok.all() and abs(value - float(np.mean(per_x))) <= 2e-9


def test_a_profile_beyond_1e_9_resolution_certifies_at_its_rounding_floor(monkeypatch):
    """At alpha = 3, skew-normal(3) reaches |D| ~ 8e5 on this delta range, where
    1e-9 is below the rounding of D: the grid certifies against 50 eps max|D|
    instead of integrating all 10^4 deltas one by one."""
    model = skew_normal_error(3.0)
    xs = np.linspace(-1.87, 1.51, 10_000)[:, None]
    b1, s1, b2, s2 = np.array([0.0, 1.0]), 1.1, np.zeros(2), 1.0
    sizes, direct = _profile_sizes(monkeypatch)
    value, fails = divergence(model, (b1, s1), (b2, s2), 3.0, xs)
    assert fails == 0 and sum(sizes) <= mc._CHEB_CAP + 1  # no per-delta fallback
    per_x, ok = direct(model, xs[:, 0], s1, s2, 3.0)
    floor = 50 * np.finfo(float).eps * float(np.max(np.abs(per_x)))
    assert ok.all() and floor > mc._TOL
    assert abs(value - float(np.mean(per_x))) <= floor


def test_divergence_with_few_distinct_deltas_integrates_each(monkeypatch):
    rng = np.random.default_rng(4)
    xs = draw_regressors("controlled", None, 10_000, 3, rng)
    sizes, _ = _profile_sizes(monkeypatch)
    _, fails = divergence(student_t_error(3), (np.array([0.1, 0.2, -0.1, 0.3]), 1.1),
                          (np.zeros(4), 1.0), -1.0, xs)
    assert fails == 0 and sizes == [8]


# --- risk estimation ----------------------------------------------------------


def test_estimate_risk_deterministic():
    cfg = _config(replications=5, n=40)
    a = estimate_risk(cfg)
    b = estimate_risk(cfg)
    assert a == b


def test_estimate_risk_single_replication_has_no_se():
    est = estimate_risk(_config(replications=1, n=40))
    assert est.std_error is None
    assert est.replications_used == 1


def test_estimate_risk_mean_positive():
    est = estimate_risk(_config(replications=30, n=60))
    assert est.mean > 0
    assert est.mean + 2 * est.std_error > 0


@pytest.mark.slow
def test_mc_agrees_with_expansion_normal(normal_table):
    cfg = _config(beta=(0.0, 0.0), n=100, replications=4000, seed=99)
    est = estimate_risk(cfg)
    exp = risk_expansion(normal_table, x_preset("normal", 1))
    target = float(exp.evaluate(-1.0, 100))
    assert abs(est.mean - target) <= 3 * est.std_error


@pytest.mark.slow
def test_mc_beta_sigma_invariance():
    a = estimate_risk(_config(beta=(0.0, 0.0), sigma=1.0, replications=3000, seed=5))
    b = estimate_risk(_config(beta=(3.0, -2.0), sigma=2.5, replications=3000, seed=6))
    se = math.hypot(a.std_error, b.std_error)
    assert abs(a.mean - b.mean) <= 3 * se


@pytest.mark.slow
def test_mc_scaled_mean_approaches_parameter_count(normal_table):
    """n * risk tends to (p+2)/2; the gap shrinks between n=100 and n=400."""
    est100 = estimate_risk(_config(n=100, replications=3000, seed=21))
    est400 = estimate_risk(_config(n=400, replications=3000, seed=22))
    target = 1.5  # (p + 2) / 2 at p = 1
    gap100 = abs(100 * est100.mean - target)
    gap400 = abs(400 * est400.mean - target)
    assert gap400 < gap100
