import math

import numpy as np
import pytest

from mlerisk._quadrature import (
    QuadratureError,
    _cached_new_nodes_weights,
    _cached_nodes_weights,
    integrate_real_line,
)


def test_gaussian_integral():
    res = integrate_real_line(lambda y: np.exp(-y * y / 2), tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(math.sqrt(2 * math.pi), abs=1e-12)


def test_gaussian_moments():
    for k, want in ((2, 1.0), (4, 3.0), (6, 15.0)):
        res = integrate_real_line(
            lambda y, k=k: y**k * np.exp(-y * y / 2) / math.sqrt(2 * math.pi), tol=1e-11
        )
        assert res.value == pytest.approx(want, abs=1e-10)


def test_algebraic_tail():
    # Cauchy density: slowest-decaying case the error models produce
    res = integrate_real_line(lambda y: 1.0 / (math.pi * (1.0 + y * y)), tol=1e-11)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-11)


def test_odd_integrand_is_zero():
    res = integrate_real_line(lambda y: y**3 * np.exp(-y * y), tol=1e-12)
    assert abs(res.value) < 1e-12


def test_reported_bound_covers_true_error():
    res = integrate_real_line(lambda y: np.exp(-y * y / 2), tol=1e-9)
    assert abs(res.value - math.sqrt(2 * math.pi)) <= max(res.error_bound, 1e-12)


def test_nonconvergent_integrand_flagged():
    # 1/sqrt(1+y^2) is not integrable; the refinement must not claim success
    res = integrate_real_line(lambda y: 1.0 / np.sqrt(1.0 + y * y), tol=1e-10, max_level=6)
    assert not res.converged


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        integrate_real_line(lambda y: y, tol=0.0)


def test_nonfinite_at_moderate_abscissa_raises():
    def bad(y):
        out = np.zeros_like(y)
        out[np.abs(y - 1.0) < 0.2] = np.nan
        return out

    with pytest.raises(QuadratureError):
        integrate_real_line(bad, tol=1e-8)


def test_refinement_nodes_partition_levels():
    """Old nodes at half weight plus the new odd nodes equal the next level."""
    for level in (1, 2, 3, 5):
        y_prev, w_prev = _cached_nodes_weights(level - 1)
        y_new, w_new = _cached_new_nodes_weights(level)
        y_full, w_full = _cached_nodes_weights(level)
        merged = np.sort(np.concatenate([y_prev, y_new]))
        assert merged == pytest.approx(np.sort(y_full), rel=1e-14)
        total_prev = np.sum(w_prev) / 2 + np.sum(w_new)
        assert total_prev == pytest.approx(np.sum(w_full), rel=1e-12)


def test_new_nodes_are_the_odd_nodes_of_the_full_grid_bit_for_bit():
    for level in (1, 2, 5, 8):
        y_full, w_full = _cached_nodes_weights(level)
        y_new, w_new = _cached_new_nodes_weights(level)
        kmax = (y_full.size - 1) // 2
        odd = np.arange(-kmax, kmax + 1) % 2 == 1
        assert np.array_equal(y_full[odd], y_new)
        assert np.array_equal(w_full[odd], w_new)


def test_running_out_of_levels_is_not_success():
    # a spike of width 1e-3 is not resolved by level 4: the last two levels
    # still differ by the whole value, and that is what must be reported
    true = math.sqrt(math.pi) / 1e3
    res = integrate_real_line(lambda y: np.exp(-((1e3 * y) ** 2)), tol=1e-12, max_level=4)
    assert not res.converged
    assert res.level == 4
    assert res.error_bound >= abs(res.value - true) > 1e-2


def test_large_integrand_certifies_at_its_rounding_floor():
    # |value| ~ 1.8e6: level differences sit near eps * 1.8e6 >> tol, so the
    # level is certified at its own rounding floor, which becomes the bound
    scale = 1e6
    res = integrate_real_line(lambda y: scale * np.exp(-y * y), tol=1e-12)
    assert res.converged
    assert 1e-12 < res.error_bound <= 100 * np.finfo(float).eps * scale * math.sqrt(math.pi)
    assert abs(res.value - scale * math.sqrt(math.pi)) <= res.error_bound


def test_skew_normal_4_deep_entry_reports_a_nonzero_bound():
    from mlerisk.error_models import skew_normal_error
    from mlerisk.eta import eta_quadrature

    # eta[1,2,4,0] ~ 1.28e5 cannot reach tol = 1e-10 in double precision;
    # it is certified at its rounding floor, not stored with bound 0
    value, bound = eta_quadrature(skew_normal_error(4.0), 1, 2, 4, 0)
    assert value == pytest.approx(1.28e5, rel=1e-2)
    assert bound >= 50 * np.finfo(float).eps * abs(value)
