import math

import numpy as np
import pytest

from fejerlab.circle import fejer_mean, poisson_extend
from fejerlab.hardy import hardy_violation, product_hardy_check, taylor_fourier_check

from conftest import coeff_window

PI = math.pi


def _random_analytic_poly(rng, degree):
    coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    return coeff_window(degree, {k: coeffs[k] for k in range(degree + 1)})


# ----------------------------------------------------------- hardy_violation


def test_single_positive_mode_is_hardy():
    f = coeff_window(3, {2: 1.0})
    assert hardy_violation(f) <= 1e-12


def test_conjugate_mode_is_not_hardy():
    f = coeff_window(2, {-1: 1.0})
    assert hardy_violation(f) == 1.0


def test_geometric_boundary_closed_form_is_hardy():
    # boundary values of 1/(1 - z/2): coefficients 2^{-n}, none negative
    f = coeff_window(24, {k: 2.0**-k for k in range(25)})
    assert hardy_violation(f) <= 1e-12


# ------------------------------------------------------------ disk extension


def test_taylor_fourier_polynomial_sum():
    f = coeff_window(8, {k: 1.0 for k in range(9)})
    assert taylor_fourier_check(f, 0.9) <= 1e-10


def test_taylor_fourier_constant_is_exact():
    f = coeff_window(2, {0: 1.0})
    for r in (0.1, 0.5, 0.9):
        assert taylor_fourier_check(f, r) <= 1e-15


def test_taylor_fourier_geometric_coefficients():
    # extension of sum 2^{-n} z^n at radius 1/2 has coefficients 4^{-n}
    f = coeff_window(20, {k: 2.0**-k for k in range(21)})
    assert taylor_fourier_check(f, 0.5) <= 1e-12
    n_samples = 512
    thetas = -PI + (np.arange(n_samples) + 0.5) * (2 * PI / n_samples)
    boundary = poisson_extend(f, 0.5, thetas)
    for n in (0, 1, 3, 7):
        measured = np.sum(boundary * np.exp(-1j * n * thetas)) / n_samples
        assert abs(measured - 4.0**-n) <= 1e-12


def test_taylor_fourier_rejects_non_hardy():
    f = coeff_window(1, {-1: 1.0})
    with pytest.raises(ValueError):
        taylor_fourier_check(f, 0.5)


def test_poisson_extension_keeps_mean():
    rng = np.random.default_rng(1)
    f = _random_analytic_poly(rng, 5)
    for r in (0.2, 0.7, 0.95):
        n_samples = 256
        thetas = -PI + (np.arange(n_samples) + 0.5) * (2 * PI / n_samples)
        vals = poisson_extend(f, r, thetas)
        mean = np.sum(vals) / n_samples
        assert abs(mean - f[5]) <= 1e-12


# ------------------------------------------------------------------- product


def test_product_of_t_with_itself():
    t = coeff_window(1, {1: 1.0})
    report = product_hardy_check(t, t, 1e-12)
    assert report
    assert abs(report.product[2 + 2] - 1.0) <= 1e-15
    assert report.product[2] == 0.0
    assert report.zero_coeff_mismatch == 0.0


def test_product_mean_vanishes_when_one_factor_has_zero_mean():
    rng = np.random.default_rng(2)
    f = coeff_window(5, {k: rng.normal() for k in range(1, 6)})
    for _ in range(20):
        g = _random_analytic_poly(rng, 7)
        report = product_hardy_check(f, g, 1e-10)
        assert abs(report.product[5 + 7]) <= 1e-14


def test_product_random_pairs_negative_coeffs_vanish():
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = _random_analytic_poly(rng, int(rng.integers(0, 17)))
        g = _random_analytic_poly(rng, int(rng.integers(0, 17)))
        report = product_hardy_check(f, g, 1e-12)
        assert report
        assert report.max_negative <= 1e-12
        assert report.zero_coeff_mismatch <= 1e-12
        # support bound: degree of the product window
        assert len(report.product) // 2 == len(f) // 2 + len(g) // 2


def test_product_rejects_non_hardy_factor():
    good = coeff_window(1, {1: 1.0})
    bad = coeff_window(1, {-1: 1.0})
    with pytest.raises(ValueError):
        product_hardy_check(good, bad, 1e-12)


def test_coefficient_product_support():
    f = coeff_window(2, {1: 1.0, 2: 2.0})
    g = coeff_window(3, {0: 1.0, 3: 1.0})
    prod = product_hardy_check(f, g, 1e-12).product
    ks = np.arange(-5, 6)
    outside = np.abs(prod[(ks < 0) | (ks > 5)])
    assert np.max(outside) == 0.0


def test_fejer_mean_keeps_hardy_class_and_band_limits():
    # Fejér means of Hardy functions are analytic polynomials of degree <= n
    rng = np.random.default_rng(4)
    for _ in range(10):
        f = _random_analytic_poly(rng, 12)
        for n in (0, 3, 12):
            mean = fejer_mean(f, n)
            # the mean's window is n, so its degree is at most n
            assert len(mean) == 2 * n + 1
            assert hardy_violation(mean) <= 1e-12
