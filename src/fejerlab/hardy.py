"""Hardy-class membership on coefficient windows and the Taylor-equals-
Fourier check of the disk extension.

Everything here is band-limited: a window of half-width W is a complex
array of odd length 2W + 1 with c(k) at index k + W, as in `circle`.  A function is Hardy-class
when its negative Fourier coefficients vanish (up to a tolerance each caller
sets), and its disk extension is the power series with the nonnegative
coefficients.  A product of two windows is their `np.convolve`, whose
window is Hardy-class when both factors are.
"""

from __future__ import annotations

import math

import numpy as np

from .circle import _half_width, poisson_extend, trig_sum

__all__ = ["hardy_violation", "taylor_fourier_check"]


def hardy_violation(c: np.ndarray) -> float:
    """Largest modulus among the coefficients at negative index (0.0 when
    there are none): a window is Hardy-class at tolerance tol when this is
    at most tol."""
    return float(np.max(np.abs(c[: _half_width(c)]), initial=0.0))


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
    W = _half_width(c)
    n_samples = max(256, 8 * (W + 1))
    thetas = -math.pi + (np.arange(n_samples) + 0.5) * (2.0 * math.pi / n_samples)
    boundary = poisson_extend(c, r, thetas)
    ks = np.arange(0, W + 1)
    measured = trig_sum(ks, thetas, boundary, -1) / n_samples
    predicted = c[W:] * r**ks
    return float(np.max(np.abs(measured - predicted)))
