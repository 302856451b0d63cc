"""Acceptance gate: the nine release-blocking checks, one test each, with a
printed pass/fail line per criterion.  Criteria marked with a runtime budget
are timed; criterion 9 re-runs the first two at doubled mesh density and
compares every reported norm.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from fejerlab.cli import (
    cmd_blowup,
    cmd_density,
    cmd_duality,
    cmd_fejer_converge,
    cmd_maximal,
    cmd_taylor_fourier,
    cmd_witness,
)
from fejerlab.hardy import hardy_violation

from conftest import coeff_window

PI = math.pi


def _args(**kw):
    base = dict(grid_M=8, ppi=8, seed=0, out=None, config=None)
    base.update(kw)
    return SimpleNamespace(**base)


def _report(number, title, detail, elapsed=None, budget=None):
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.1f}s"
        timing += f" <= {budget:.0f}s]" if budget else "]"
    print(f"[PASS] criterion {number} ({title}): {detail}{timing}")


@pytest.fixture(scope="module")
def duality_runs():
    runs = {}
    for ppi in (8, 16):
        t0 = time.monotonic()
        rows = cmd_duality(_args(ppi=ppi, trials=100, max_order=64))
        runs[ppi] = (rows, time.monotonic() - t0)
    return runs


@pytest.fixture(scope="module")
def blowup_runs():
    runs = {}
    for ppi in (8, 16):
        t0 = time.monotonic()
        rows = cmd_blowup(_args(ppi=ppi, grid_M=25, m=[1, 4, 9, 16, 25]))
        runs[ppi] = (rows, time.monotonic() - t0)
    return runs


def test_criterion_1_duality_equality(duality_runs):
    rows, elapsed = duality_runs[8]
    worst = max(r[5] for r in rows)
    assert worst <= 1e-10
    assert len([r for r in rows if r[0].startswith("step")]) >= 100
    assert elapsed <= 60.0
    _report(
        1,
        "operator-norm duality",
        f"max relative gap {worst:.2e} over {len(rows)} kernels",
        elapsed,
        60,
    )


def test_criterion_2_blowup(blowup_runs):
    rows, elapsed = blowup_runs[8]
    assert [r.m for r in rows] == [1, 4, 9, 16, 25]
    assert all(r.pointwise_min >= r.bound for r in rows)
    assert all(r.norm_linfw >= r.bound for r in rows)
    norms = [r.norm_linfw for r in rows]
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert elapsed <= 600.0
    _report(
        2,
        "operator-norm blow-up",
        f"norms {norms[0]:.3f} .. {norms[-1]:.3f} all above sqrt(m)/(8 pi)",
        elapsed,
        600,
    )


def test_criterion_3_unweighted_convergence():
    t0 = time.monotonic()
    rows = cmd_fejer_converge(
        _args(orders=[16, 64, 256, 1024], arc_length=PI / 2)
    )
    elapsed = time.monotonic() - t0
    errors = [e for _, e in rows]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-2
    assert elapsed <= 60.0
    _report(
        3,
        "unweighted convergence",
        f"arc-indicator errors fall to {errors[-1]:.2e} at order 1024",
        elapsed,
        60,
    )


def test_criterion_4_divergence_witness():
    t0 = time.monotonic()
    rows = cmd_witness(_args(grid_M=64, stages=3, target=1.0))
    elapsed = time.monotonic() - t0
    errors = [r[4] for r in rows]
    assert len(errors) == 3
    assert all(e >= 1.0 for e in errors)
    assert elapsed <= 900.0
    _report(
        4,
        "divergence witness",
        f"three-stage errors {', '.join(f'{e:.2f}' for e in errors)} all >= 1",
        elapsed,
        900,
    )


def test_criterion_5_density_curves():
    t0 = time.monotonic()
    for fn in ("t3", "invquarter"):
        rows = cmd_density(
            _args(function=fn, degrees=[4, 8, 16, 32, 64], grid_M=8)
        )
        errors = [r[1] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 0.2 * errors[0] or errors[-1] <= 1e-8
        for _, err, fejer_err in rows:
            assert err <= fejer_err * (1 + 1e-12) + 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0
    _report(
        5,
        "polynomial density",
        "errors nonincreasing, decayed below 0.2x, under the feasible bound",
        elapsed,
        300,
    )


def test_criterion_6_extension_coefficients():
    rows = cmd_taylor_fourier(_args(radii=[0.5, 0.9]))
    worst = max(r[2] for r in rows)
    assert worst <= 1e-8
    _report(6, "extension coefficients", f"max mismatch {worst:.2e} <= 1e-8")


def test_criterion_7_product_mechanics():
    rng = np.random.default_rng(2024)
    worst_neg, worst_mean = 0.0, 0.0
    for _ in range(100):
        df, dg = rng.integers(0, 17), rng.integers(0, 17)
        f = coeff_window(
            int(df),
            {k: rng.normal() + 1j * rng.normal() for k in range(int(df) + 1)},
        )
        g = coeff_window(
            int(dg),
            {k: rng.normal() + 1j * rng.normal() for k in range(int(dg) + 1)},
        )
        assert hardy_violation(f) <= 1e-12 and hardy_violation(g) <= 1e-12
        # the product's window, half-width df + dg, is the coefficient convolution
        prod = np.convolve(f, g)
        worst_neg = max(worst_neg, hardy_violation(prod))
        worst_mean = max(worst_mean, abs(prod[df + dg] - f[df] * g[dg]))
    assert worst_neg <= 1e-12 and worst_mean <= 1e-12
    _report(
        7,
        "product mechanics",
        f"100 pairs: negative coefficients <= {worst_neg:.1e}, "
        f"mean multiplicative to {worst_mean:.1e}",
    )


def test_criterion_8_maximal_ratio_growth():
    t0 = time.monotonic()
    rows = cmd_maximal(_args(orders=[4, 16, 64]))
    elapsed = time.monotonic() - t0
    ratios = dict(rows)
    assert ratios[4] < ratios[16] < ratios[64]
    assert ratios[64] >= 2.0 * ratios[4]
    assert elapsed <= 600.0
    _report(
        8,
        "maximal-operator growth",
        f"sup (Mw)/w = {ratios[4]:.2f}, {ratios[16]:.2f}, {ratios[64]:.2f}",
        elapsed,
        600,
    )


def test_criterion_9_grid_stability(duality_runs, blowup_runs):
    worst = 0.0
    d8, d16 = duality_runs[8][0], duality_runs[16][0]
    assert [r[0] for r in d8] == [r[0] for r in d16]
    for r8, r16 in zip(d8, d16):
        if r8[2] == "":  # step kernels report gaps only (first-order sampling)
            assert r8[5] <= 1e-10 and r16[5] <= 1e-10
            continue
        for idx in (2, 3):
            worst = max(worst, abs(r8[idx] - r16[idx]) / abs(r8[idx]))
    b8, b16 = blowup_runs[8][0], blowup_runs[16][0]
    for r8, r16 in zip(b8, b16):
        for fieldname in ("norm_linfw", "norm_l1w", "pointwise_min"):
            a, b = getattr(r8, fieldname), getattr(r16, fieldname)
            worst = max(worst, abs(a - b) / abs(a))
    assert worst <= 1e-3
    _report(
        9,
        "grid-refinement stability",
        f"doubling mesh density moves reported norms by <= {worst:.2e}",
    )
