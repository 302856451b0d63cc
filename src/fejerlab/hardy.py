"""Hardy-class membership on coefficient windows, the Taylor-equals-
Fourier check of the disk extension, and the coefficient mechanics of
products of Hardy functions.

Everything here is band-limited: a window of half-width W is a complex
array with c(k) at index k + W, as in `circle`.  A function is Hardy-class
when its negative Fourier coefficients vanish (up to a tolerance each caller
sets), its disk extension is the power series with the nonnegative
coefficients, and products are handled through coefficient convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import _frozen, poisson_extend, trig_sum

__all__ = [
    "hardy_violation",
    "taylor_fourier_check",
    "ProductReport",
    "product_hardy_check",
]


def hardy_violation(c: np.ndarray) -> float:
    """Largest modulus among the coefficients at negative index (0.0 when
    there are none): a window is Hardy-class at tolerance tol when this is
    at most tol."""
    return float(np.max(np.abs(c[: len(c) // 2]), initial=0.0))


def taylor_fourier_check(c: np.ndarray, r: float) -> float:
    """Worst mismatch between measured and predicted extension coefficients.

    The harmonic extension at radius r is sampled on a uniform grid, its
    Fourier coefficients are recovered by the discrete transform (exact for
    band-limited data), and each is compared with c(n) r^n for n >= 0.
    Hardy-class input (negative coefficients at most 1e-10) is required;
    mismatch <= 1e-12 is typical.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must be in (0, 1), got {r}")
    violation = hardy_violation(c)
    if violation > 1e-10:
        raise ValueError(f"not Hardy-class at tol=1e-10: worst violation {violation:.3e}")
    W = len(c) // 2
    n_samples = max(256, 8 * (W + 1))
    thetas = -math.pi + (np.arange(n_samples) + 0.5) * (2.0 * math.pi / n_samples)
    boundary = poisson_extend(c, r, thetas)
    ks = np.arange(0, W + 1)
    measured = trig_sum(ks, thetas, boundary, -1) / n_samples
    predicted = c[W:] * r**ks
    return float(np.max(np.abs(measured - predicted)))


@dataclass(frozen=True)
class ProductReport:
    passed: bool
    max_negative: float
    zero_coeff_mismatch: float
    # read-only window of fg, half-width the sum of the factors' half-widths
    product: np.ndarray

    def __bool__(self) -> bool:
        return self.passed


def product_hardy_check(f: np.ndarray, g: np.ndarray, tol: float) -> ProductReport:
    """Product of two Hardy-class windows is Hardy-class and multiplicative at 0.

    Checks that all negative-index coefficients of fg are <= tol and that the
    zeroth coefficient of the product equals c_f(0) c_g(0) within tol.  In
    particular a factor with vanishing mean forces the product's mean to
    vanish, which is the annihilation mechanism behind density of analytic
    polynomials.
    """
    for name, h in (("first", f), ("second", g)):
        violation = hardy_violation(h)
        if violation > tol:
            raise ValueError(
                f"{name} factor not Hardy-class at tol={tol}: "
                f"worst violation {violation:.3e}"
            )
    prod = _frozen(np.convolve(f, g), complex)
    max_negative = hardy_violation(prod)
    mismatch = float(abs(prod[len(prod) // 2] - f[len(f) // 2] * g[len(g) // 2]))
    return ProductReport(
        passed=bool(max_negative <= tol and mismatch <= tol),
        max_negative=max_negative,
        zero_coeff_mismatch=mismatch,
        product=prod,
    )
