import math

import numpy as np
import pytest

from fejerlab.circle import poisson_extend
from fejerlab.hardy import hardy_violation, taylor_fourier_check

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
