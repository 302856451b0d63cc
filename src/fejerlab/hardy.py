"""Hardy-class membership tests on coefficient windows, the Taylor-equals-
Fourier check of the disk extension, and the coefficient mechanics of
products of Hardy functions.

Everything here is band-limited: a function is Hardy-class when its negative
Fourier coefficients vanish (up to a tolerance), its disk extension is the
power series with the nonnegative coefficients, and products are handled
through coefficient convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circle import FourierCoefficients, poisson_extend, trig_sum

__all__ = [
    "HardyReport",
    "is_hardy",
    "taylor_fourier_check",
    "coefficient_product",
    "ProductReport",
    "product_hardy_check",
]


@dataclass(frozen=True)
class HardyReport:
    hardy: bool
    tol: float
    max_violation: float
    violating_indices: tuple[int, ...] = field(default=())

    def __bool__(self) -> bool:
        return self.hardy


def is_hardy(f: FourierCoefficients, tol: float) -> HardyReport:
    """True when every coefficient at negative index is <= tol in modulus."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    neg = f.coeffs[: f.window]
    mags = np.abs(neg)
    bad = np.nonzero(mags > tol)[0]
    max_violation = float(np.max(mags)) if neg.size else 0.0
    return HardyReport(
        hardy=bad.size == 0,
        tol=tol,
        max_violation=max_violation,
        violating_indices=tuple(int(i) - f.window for i in bad),
    )


def taylor_fourier_check(f: FourierCoefficients, r: float) -> float:
    """Worst mismatch between measured and predicted extension coefficients.

    The harmonic extension at radius r is sampled on a uniform grid, its
    Fourier coefficients are recovered by the discrete transform (exact for
    band-limited data), and each is compared with c(n) r^n for n >= 0.
    Hardy-class input (negative coefficients at most 1e-10) is required;
    mismatch <= 1e-12 is typical.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must be in (0, 1), got {r}")
    report = is_hardy(f, 1e-10)
    if not report:
        raise ValueError(
            f"not Hardy-class at tol={report.tol}: worst violation {report.max_violation:.3e}"
        )
    n_samples = max(256, 8 * (f.window + 1))
    thetas = -math.pi + (np.arange(n_samples) + 0.5) * (2.0 * math.pi / n_samples)
    boundary = poisson_extend(f, r, thetas)
    ks = np.arange(0, f.window + 1)
    measured = trig_sum(ks, thetas, boundary, -1) / n_samples
    predicted = f.coeffs[f.window:] * r**ks
    return float(np.max(np.abs(measured - predicted)))


def coefficient_product(
    f: FourierCoefficients, g: FourierCoefficients
) -> FourierCoefficients:
    """Coefficients of the pointwise product fg (full convolution window)."""
    window = f.window + g.window
    return FourierCoefficients(
        window=window, coeffs=np.convolve(f.coeffs, g.coeffs)
    )


@dataclass(frozen=True)
class ProductReport:
    passed: bool
    max_negative: float
    zero_coeff_mismatch: float
    product: FourierCoefficients

    def __bool__(self) -> bool:
        return self.passed


def product_hardy_check(
    f: FourierCoefficients, g: FourierCoefficients, tol: float
) -> ProductReport:
    """Product of two Hardy-class windows is Hardy-class and multiplicative at 0.

    Checks that all negative-index coefficients of fg are <= tol and that the
    zeroth coefficient of the product equals c_f(0) c_g(0) within tol.  In
    particular a factor with vanishing mean forces the product's mean to
    vanish, which is the annihilation mechanism behind density of analytic
    polynomials.
    """
    for name, h in (("first", f), ("second", g)):
        report = is_hardy(h, tol)
        if not report:
            raise ValueError(
                f"{name} factor not Hardy-class at tol={tol}: "
                f"worst violation {report.max_violation:.3e}"
            )
    prod = coefficient_product(f, g)
    neg = np.abs(prod.coeffs[: prod.window])
    max_negative = float(np.max(neg)) if neg.size else 0.0
    mismatch = abs(prod[0] - f[0] * g[0])
    return ProductReport(
        passed=max_negative <= tol and mismatch <= tol,
        max_negative=max_negative,
        zero_coeff_mismatch=float(mismatch),
        product=prod,
    )
