import math

import numpy as np
import pytest

from fejerlab import approx, circle
from fejerlab.approx import (
    StageFailure,
    _default_order_ladder,
    _lags,
    _toeplitz_gram,
    _weighted_ls,
    best_poly_l1w,
    density_curve,
    fejer_error_curve,
    gliding_hump_witness,
)
from fejerlab.circle import (
    KernelSpec,
    PiecewiseConstant,
    SampledFunction,
    fourier_window,
    make_grid,
    synthesize,
)
from fejerlab.operators import assemble_operator, grid_for_kernels, operator_norm
from fejerlab.spaces import make_weight

from conftest import dense_convolution, norm

PI = math.pi


def _inv_quarter(theta):
    return (1.0 - np.exp(1j * theta)) ** -0.25


@pytest.fixture(scope="module")
def fit_grid():
    return grid_for_kernels(4, 8, 64)


def _poly_values(coeffs, theta):
    """The analytic polynomial sum_k coeffs[k] e^{ik theta} at each angle."""
    return np.exp(1j * np.outer(theta, np.arange(coeffs.size))) @ coeffs


@pytest.fixture(scope="module")
def weight4():
    return make_weight(4)


# ------------------------------------------------------------- best_poly_l1w


def test_recovers_exact_polynomial(fit_grid, weight4):
    rng = np.random.default_rng(0)
    target = rng.normal(size=4) + 1j * rng.normal(size=4)
    f = SampledFunction(grid=fit_grid, samples=_poly_values(target, fit_grid.nodes))
    res = best_poly_l1w(f, weight4, 5)
    assert res.poly.dtype == complex and res.poly.shape == (6,)
    assert not res.poly.flags.writeable
    assert res.error <= 1e-8
    assert np.max(np.abs(res.poly[:4] - target)) <= 1e-6
    assert np.max(np.abs(res.poly[4:])) <= 1e-6


def test_error_bounded_by_fejer_candidate(fit_grid, weight4):
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    for degree in (4, 16):
        res = best_poly_l1w(f, weight4, degree)
        assert res.fejer_error is not None
        assert res.error <= res.fejer_error * (1 + 1e-12)


def _smoothed_objectives(monkeypatch):
    """Every smoothed objective IRLS computes from now on, in order: the
    start's, then one per sweep."""
    seen = []
    original = approx._smoothed_objective

    def spy(moduli, c, eps):
        seen.append(original(moduli, c, eps))
        return seen[-1]

    monkeypatch.setattr(approx, "_smoothed_objective", spy)
    return seen


def test_irls_smoothed_objective_monotone(fit_grid, weight4, monkeypatch):
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    objectives = _smoothed_objectives(monkeypatch)
    # the IRLS normal matrix is less well conditioned at degree 64
    for degree in (8, 64):
        objectives.clear()
        res = best_poly_l1w(f, weight4, degree)
        trace = np.array(objectives[: res.iterations + 1])
        assert res.iterations >= 1
        assert np.all(np.diff(trace) <= 1e-12 * (1 + trace[:-1]))


@pytest.mark.parametrize("degree", [0, 8, 64])
def test_weighted_ls_matches_direct_lstsq(fit_grid, weight4, degree):
    # the direct path: an SVD least-squares solve of the scaled design
    nodes = fit_grid.nodes
    c = weight4(nodes) * fit_grid.quad_weights
    A = np.exp(1j * np.outer(nodes, np.arange(degree + 1)))
    y = _inv_quarter(nodes)
    rng = np.random.default_rng(degree)
    for spread in (0, 4, 8):
        # IRLS weights for residuals log-uniform over 10^-spread .. 1
        r = 10.0 ** (-spread * rng.random(nodes.size))
        u = c / np.maximum(r, 1e-8)
        su = np.sqrt(u)
        ref, *_ = np.linalg.lstsq(A * su[:, None], y * su, rcond=None)
        alpha = _weighted_ls(A, np.conj(y), u, _lags(degree + 1))
        assert np.linalg.norm(alpha - ref) <= 1e-10 * np.linalg.norm(ref)
        res, res_ref = (np.linalg.norm(su * (y - A @ a)) for a in (alpha, ref))
        assert abs(res - res_ref) <= 1e-12 * res_ref
        dense = A.conj().T @ (u[:, None] * A)
        G = _toeplitz_gram(A, u, _lags(degree + 1))
        assert np.max(np.abs(G - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_inv_quarter_is_integrable_against_weight(weight4):
    # |f| ~ |theta|^{-1/4} against w ~ |theta|^{-1/2}: the weighted mass is
    # finite, so refining the mesh barely moves it
    vals = []
    for cap in (2e-3, 1e-3):
        grid = make_grid(4, 16, max_cell=cap)
        f = SampledFunction(grid=grid, samples=_inv_quarter(grid.nodes))
        vals.append(norm(f, weight4, "l1"))
    assert abs(vals[1] - vals[0]) <= 2e-3 * vals[0]


def test_nonconvergence_flag_with_tiny_budget(fit_grid, weight4, monkeypatch):
    monkeypatch.setattr(approx, "MAX_ITERS", 2)
    monkeypatch.setattr(approx, "TOL", 1e-15)
    objectives = _smoothed_objectives(monkeypatch)
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    res = best_poly_l1w(f, weight4, 8)
    # the budget, not convergence, ends the run: both sweeps are kept and the
    # last one still gains more than TOL
    assert res.iterations == len(objectives) - 1 == 2
    assert objectives[-2] - objectives[-1] > 1e-15 * max(objectives[-1], 1.0)


def test_fejer_start_up_to_a_quarter_of_the_nodes(monkeypatch):
    # past degree N/4 the midpoint sums alias, so the fit refuses the degree
    monkeypatch.setattr(circle, "EDGE_LEVELS", 1)
    grid = make_grid(1, 2)
    f = SampledFunction(grid=grid, samples=_inv_quarter(grid.nodes))
    w = make_weight(1)
    limit = grid.node_count // 4
    res = best_poly_l1w(f, w, limit)
    assert res.error <= res.fejer_error * (1 + 1e-12)
    with pytest.raises(ValueError, match="node_count / 4"):
        best_poly_l1w(f, w, limit + 1)


def test_start_kept_when_irls_ends_above_it(fit_grid, weight4, monkeypatch):
    seen = []

    def ends_above(A, y, y_conj, c, lags, start, moduli):
        seen.append(start)
        return np.zeros_like(start), np.abs(y), 3

    monkeypatch.setattr(approx, "_irls", ends_above)
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    res = best_poly_l1w(f, weight4, 8)
    [start] = seen
    assert np.array_equal(res.poly, start)
    c = weight4(fit_grid.nodes) * fit_grid.quad_weights
    raw_start = np.sum(np.abs(f.samples - _poly_values(res.poly, fit_grid.nodes)) * c)
    assert res.error == pytest.approx(raw_start, rel=1e-12)
    assert res.error <= res.fejer_error


def test_irls_starts_from_best_start_and_weights_each_sweeps_own_residual(
    fit_grid, weight4, monkeypatch
):
    # replay the run: the start with the smallest raw objective, scored by
    # its own residual, then one weighted least squares solve per sweep
    # whose weights come from the residual of the sweep before it
    monkeypatch.setattr(approx, "TOL", 0.0)
    monkeypatch.setattr(approx, "MAX_ITERS", 4)
    solves, runs = [], []
    weighted_ls, irls = approx._weighted_ls, approx._irls

    def solve_spy(A, y_conj, u, lags):
        solves.append((u, weighted_ls(A, y_conj, u, lags)))
        return solves[-1][1]

    def irls_spy(A, y, y_conj, c, lags, start, moduli):
        runs.append((A, y, c, start, moduli))
        return irls(A, y, y_conj, c, lags, start, moduli)

    monkeypatch.setattr(approx, "_weighted_ls", solve_spy)
    monkeypatch.setattr(approx, "_irls", irls_spy)
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    warm = best_poly_l1w(f, weight4, 4).poly
    solves.clear()
    runs.clear()
    res = best_poly_l1w(f, weight4, 8, warm_start=warm)
    [(A, y, c, start, moduli)] = runs
    starts = [solves[0][1], approx._fejer_candidate(f, A), np.pad(warm, (0, 4))]
    objectives = [float(np.sum(np.abs(y - A @ s) * c)) for s in starts]
    assert np.array_equal(start, starts[int(np.argmin(objectives))])
    assert np.array_equal(moduli, np.abs(y - A @ start))
    assert res.fejer_error == objectives[1]
    sweeps = solves[1:]  # solves[0] is the weighted least squares start
    assert len(sweeps) >= 2
    prev = start
    for u, alpha in sweeps:
        assert np.array_equal(u, c / np.maximum(np.abs(y - A @ prev), approx.SMOOTHING))
        prev = alpha


# ------------------------------------------------------------- density_curve


def test_density_curve_hits_zero_for_low_degree_polynomial(fit_grid, weight4):
    f = SampledFunction(grid=fit_grid, samples=np.exp(3j * fit_grid.nodes))
    results = density_curve(f, weight4, range(5))
    errors = [r.error for r in results]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[3] <= 1e-8 and errors[4] <= 1e-8
    assert errors[0] > 1e-3


def test_density_curve_never_calls_lstsq(fit_grid, weight4, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("IRLS reached np.linalg.lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    results = density_curve(f, weight4, (4, 64))
    for r in results:
        assert np.isfinite(r.error)
        assert r.error <= r.fejer_error * (1 + 1e-12)


def test_density_curve_runs_irls_once_per_degree(fit_grid, weight4, monkeypatch):
    calls = []
    irls = approx._irls

    def counted(*args):
        calls.append(args)
        return irls(*args)

    monkeypatch.setattr(approx, "_irls", counted)
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    density_curve(f, weight4, (4, 16, 64))
    assert len(calls) == 3


def test_density_curve_inv_quarter(fit_grid, weight4):
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    results = density_curve(f, weight4, (4, 8, 16, 32, 64))
    errors = [r.error for r in results]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < errors[0]
    for r in results:
        assert r.error <= r.fejer_error * (1 + 1e-12)


@pytest.mark.parametrize("theta", ["grid", "random"])
def test_phase_table_prefix_is_the_narrower_table_bit_for_bit(fit_grid, theta):
    # _phases fills column k from the bits of k only, so a fit may read the
    # first d + 1 columns of a wider table
    if theta == "grid":
        theta = fit_grid.nodes
    else:
        theta = np.random.default_rng(3).uniform(-PI, PI, 1000)
    wide = circle._phases(theta, 0, 129, 1)
    for K in (1, 2, 5, 17, 65, 100):
        narrow = circle._phases(theta, 0, K, 1)
        assert narrow.flags.f_contiguous and wide[:, :K].flags.f_contiguous
        assert np.array_equal(narrow, wide[:, :K]), K


def _counted_phases(monkeypatch):
    calls = []
    phases = approx._phases

    def counted(*args):
        calls.append(args)
        return phases(*args)

    monkeypatch.setattr(approx, "_phases", counted)
    return calls


def test_density_curve_shares_one_table_bit_for_bit(fit_grid, weight4, monkeypatch):
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    chain, prev = [], None
    for d in (4, 16, 64):
        chain.append(best_poly_l1w(f, weight4, d, warm_start=prev))
        prev = chain[-1].poly
    calls = _counted_phases(monkeypatch)
    curve = density_curve(f, weight4, (64, 4, 16))
    assert len(calls) == 1 and calls[0][2] == 65
    for got, want in zip(curve, chain, strict=True):
        assert np.array_equal(got.poly, want.poly)
        assert got.error == want.error and got.fejer_error == want.fejer_error
        assert got.iterations == want.iterations


def test_density_curve_checks_degrees_before_building_a_table(
    fit_grid, weight4, monkeypatch
):
    calls = _counted_phases(monkeypatch)
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    assert density_curve(f, weight4, []) == []
    limit = fit_grid.node_count // 4
    with pytest.raises(ValueError, match="node_count / 4"):
        density_curve(f, weight4, (4, limit + 1))
    with pytest.raises(ValueError, match=">= 0"):
        density_curve(f, weight4, (-1, 4))
    assert calls == []


def test_best_poly_checks_the_shape_of_given_phases(fit_grid, weight4):
    f = SampledFunction(grid=fit_grid, samples=_inv_quarter(fit_grid.nodes))
    table = circle._phases(fit_grid.nodes, 0, 9, 1)
    best_poly_l1w(f, weight4, 8, phases=table)
    for bad in (table[:, :8], table[1:], table[:, 0]):
        with pytest.raises(ValueError, match="phases must have shape"):
            best_poly_l1w(f, weight4, 8, phases=bad)


# --------------------------------------------------------- fejer_error_curve


def test_error_curve_of_constant_is_zero():
    grid = make_grid(1, 8)
    const = PiecewiseConstant(edges=np.array([-PI, PI]), values=np.array([3.0]))
    errors = fejer_error_curve(const, (1, 4, 16), grid)
    assert np.max(errors) <= 1e-14  # exact mean preservation, synthesis ulps


def test_error_curve_arc_indicator_unweighted_decreases():
    arc = PiecewiseConstant.indicator(0.0, PI / 2)
    orders = (16, 64, 256, 1024)
    grid = make_grid(1, 8, max_cell=2 * PI / (8 * 1025))
    errors = fejer_error_curve(arc, orders, grid)
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-2


def _two_sided_error_curve(f, orders, grid):
    """Per-order oracle: each Fejér mean synthesized from its own two-sided
    window, sum_{|k| <= n} (1 - |k|/(n+1)) c(k) e^{ik theta}."""
    W = max(orders)
    window = fourier_window(f, W)
    f_vals = f(grid.nodes)
    errors = []
    for n in orders:
        k = np.arange(-n, n + 1)
        mean = synthesize(window[W - n : W + n + 1] * (1 - np.abs(k) / (n + 1)), grid.nodes)
        errors.append(np.sum(np.abs(mean - f_vals) * grid.quad_weights))
    return np.array(errors)


@pytest.mark.parametrize(
    "f",
    [
        PiecewiseConstant.indicator(0.0, PI / 2),
        PiecewiseConstant(edges=np.array([-PI, -0.5, 2.0, PI]), values=np.array([0.25, -1.5, 1.0])),
    ],
    ids=["arc", "three-steps"],
)
def test_error_curve_matches_two_sided_oracle(f):
    orders = (16, 64, 256, 1024)
    grid = make_grid(1, 8, max_cell=2 * PI / (8 * 1025), extra_breakpoints=[-0.5, 2.0])
    errors = fejer_error_curve(f, orders, grid)
    oracle = _two_sided_error_curve(f, orders, grid)
    assert np.max(np.abs(errors - oracle) / oracle) <= 1e-13


def test_error_curve_rejects_complex_step_function():
    # a complex step function is refused where it is built
    with pytest.raises(ValueError, match="real"):
        PiecewiseConstant(edges=np.array([-PI, 0.0, PI]), values=np.array([1.0, 1j]))


@pytest.mark.parametrize("p_len", [PI / 2, 1.0, 2.5])
def test_error_curve_order_zero_is_two_p_one_minus_p(p_len):
    # F_0 f is the constant c(0) = p for an arc of measure p, so the error is
    # p (1 - p) + (1 - p) p; the arc's end is a grid edge, so the midpoint
    # rule is exact
    arc = PiecewiseConstant.indicator(0.0, p_len)
    p = p_len / (2 * PI)
    grid = make_grid(1, 8, extra_breakpoints=[p_len])
    [error] = fejer_error_curve(arc, (0,), grid)
    assert abs(error - 2 * p * (1 - p)) <= 1e-15


# ------------------------------------------------------ gliding hump witness


@pytest.fixture(scope="module")
def witness_small():
    return gliding_hump_witness(make_weight(25), 2, growth_target=1.0)


def _witness_function(report, w):
    """The witness's grid, rebuilt as `gliding_hump_witness` builds it at
    the default 8 points per interval, and its bump sum on that grid: at
    each bump's node, its coefficient over w q there."""
    grid = grid_for_kernels(w.M, 8, max(_default_order_ladder(w.M)))
    idx = np.searchsorted(grid.nodes, report.bump_locations)
    assert np.array_equal(grid.nodes[idx], report.bump_locations)
    samples = np.zeros(grid.node_count)
    amp = np.array(report.coefficients) / (w(grid.nodes[idx]) * grid.quad_weights[idx])
    np.add.at(samples, idx, amp)
    return grid, SampledFunction(grid=grid, samples=samples)


def test_stage_errors_of_three_orders_are_each_orders_own():
    # one Fejér family sums every order; each order's errors are the ones it
    # gives alone, bit for bit
    w = make_weight(9)
    grid = grid_for_kernels(w.M, 8, 64)
    wv = w(grid.nodes)
    parts = [(j, 2.0 ** -(k + 1) / (wv[j] * grid.quad_weights[j]))
             for k, j in enumerate((grid.node_count // 2 + 5, 17, grid.node_count - 40))]
    orders = [8, 21, 64]
    alone = [approx._stage_errors(grid, wv, parts, [n])[0] for n in orders]
    assert approx._stage_errors(grid, wv, parts, orders) == alone


def test_witness_two_stages_meet_target(witness_small):
    report = witness_small
    assert len(report.orders) == 2
    assert report.orders[0] < report.orders[1]
    assert all(e >= 1.0 for e in report.stage_errors)


def test_witness_single_stage_triangle_inequality():
    w = make_weight(25)
    report = gliding_hump_witness(w, 1, growth_target=1.0)
    n1 = report.orders[0]
    grid, _ = _witness_function(report, w)
    A = assemble_operator([KernelSpec.fejer(n1)], grid)
    [(res, _)] = operator_norm(A, w)
    c1 = report.coefficients[0]
    # the triangle inequality guarantees error >= c1 (L - 1); the recomputed
    # error beats that bound, and a fortiori meets the target whenever the
    # operator norm exceeds 1/c1 + 1
    assert report.stage_errors[0] >= c1 * (res.value - 1.0) - 1e-9
    assert report.stage_errors[0] >= report.growth_target


def test_witness_errors_match_error_curve_recomputation(witness_small):
    # every stage error from the closed-form oracle on the full grid
    # (N = 7,104), not from the witness's own kernel blocks
    report = witness_small
    w = make_weight(25)
    grid, combined = _witness_function(report, w)
    f = combined.samples
    recomputed = []
    for n in report.orders:
        conv = dense_convolution(KernelSpec.fejer(n), grid, f)
        diff = SampledFunction(grid=grid, samples=conv - f)
        recomputed.append(norm(diff, w, "l1"))
    assert np.max(np.abs(np.array(recomputed) - report.stage_errors)) <= 1e-10


def test_witness_bumps_have_unit_weighted_l1_norm(witness_small):
    report = witness_small
    w = make_weight(25)
    _, combined = _witness_function(report, w)
    total = norm(combined, w, "l1")
    assert abs(total - sum(report.coefficients)) <= 1e-12


def test_witness_stage_failure_for_absurd_target():
    with pytest.raises(StageFailure, match="^stage 1: "):
        gliding_hump_witness(make_weight(4), 1, growth_target=1e6)
