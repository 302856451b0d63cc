import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fejerlab import circle
from fejerlab.circle import (
    KERNEL_BLOCK,
    KernelSpec,
    PiecewiseConstant,
    SampledFunction,
    _phases,
    fejer_kernel_eval,
    fejer_mean,
    fourier_window,
    kernel_blocks,
    make_grid,
    poisson_extend,
    poisson_kernel_eval,
    synthesize,
    trig_sum,
    wrap_angle,
)
from fejerlab import operators
from fejerlab.approx import _default_order_ladder, _fejer_candidate
from fejerlab.cli import _analytic_window
from fejerlab.hardy import hardy_violation, taylor_fourier_check
from fejerlab.operators import (
    _blowup_grid,
    fejer_kernel_mass,
    grid_for_kernels,
    localization_params,
)
from fejerlab.spaces import make_weight

from conftest import coeff_window, dense_convolution

PI = math.pi


# ---------------------------------------------------------------------- grids


def test_make_grid_m1_contains_required_breakpoints():
    grid = make_grid(1, 2)
    for bp in (PI, PI / 2, PI / 3, -PI / 2, -PI / 3):
        assert np.any(np.isclose(grid.edges, bp, rtol=0, atol=0)), bp
    assert abs(np.sum(grid.quad_weights) - 1.0) <= 1e-14


def test_make_grid_required_breakpoints_appear_exactly_once():
    grid = make_grid(3, 4)
    for k in range(1, 2 * 3 + 2):
        for bp in (PI / k, -PI / k):
            assert np.count_nonzero(grid.edges == bp) == 1


def test_make_grid_m2_every_weight_interval_has_enough_nodes():
    grid = make_grid(2, 4)
    pieces = [(PI / 4, PI / 3), (PI / 5, PI / 4), (PI / 3, PI / 2), (PI / 2, PI)]
    for a, b in pieces:
        inside = np.count_nonzero((grid.nodes > a) & (grid.nodes < b))
        assert inside >= 4, (a, b, inside)


def test_make_grid_m16_smallest_cell_is_fine():
    grid = make_grid(16, 8)
    smallest = np.min(np.diff(grid.edges))
    assert smallest <= (PI / 32 - PI / 33) / 8


def test_make_grid_resolution_near_zero():
    M, ppi = 5, 8
    grid = make_grid(M, ppi)
    near = np.diff(grid.edges)[np.abs(grid.nodes) < PI / (2 * M + 1)]
    assert np.max(near) <= PI / (2 * M + 1) / ppi + 1e-15


def test_make_grid_is_symmetric_and_positive():
    # nodes, weights and the weighted quadrature are mirrored under
    # theta -> -theta exactly, not to rounding: the operator sums sample
    # half the rows only then
    for M, ppi, degree in itertools.product(range(1, 9), (8, 16), (32, 64)):
        grid = grid_for_kernels(M, ppi, degree)
        nodes, q = grid.nodes, grid.quad_weights
        assert nodes.size % 2 == 0, (M, ppi, degree)
        assert np.array_equal(nodes, -nodes[::-1]), (M, ppi, degree)
        assert np.array_equal(q, q[::-1]), (M, ppi, degree)
        wq = make_weight(M)(nodes) * q
        assert np.array_equal(wq, wq[::-1]), (M, ppi, degree)
        assert np.all(q > 0)
        assert np.all(np.diff(nodes) > 0)


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(0, 8)
    with pytest.raises(ValueError):
        make_grid(2, 1)
    with pytest.raises(TypeError):
        make_grid(2, 2.5)


def test_grid_max_cell_cap():
    grid = make_grid(1, 4, max_cell=0.01)
    assert np.max(np.diff(grid.edges)) <= 0.01 + 1e-15


@pytest.mark.parametrize(
    "extra", [np.array([0.3, -0.3]), (0.3, -0.3), np.array([])], ids=["array", "tuple", "empty"]
)
def test_make_grid_accepts_array_like_extra_breakpoints(extra):
    grid = make_grid(2, 4, extra_breakpoints=extra)
    listed = make_grid(2, 4, extra_breakpoints=list(extra))
    assert np.array_equal(grid.edges.view(np.uint64), listed.edges.view(np.uint64))
    for bp in wrap_angle(extra):
        assert np.count_nonzero(grid.edges == bp) == 1


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(extra_breakpoints=[math.nan]), "finite"),
        (dict(extra_breakpoints=[0.3, math.inf]), "finite"),
        (dict(extra_breakpoints=np.array([-math.inf])), "finite"),
        (dict(max_cell=math.nan), "max_cell must be positive"),
        (dict(max_cell=0.0), "max_cell must be positive"),
    ],
    ids=["nan-extra", "inf-extra", "minus-inf-extra", "nan-max-cell", "zero-max-cell"],
)
def test_make_grid_rejects_nonfinite_extras_and_bad_max_cell(kwargs, message):
    with pytest.raises(ValueError, match=message):
        make_grid(2, 4, **kwargs)


def _grid_edges_oracle(M, ppi, *, extra_breakpoints=(), max_cell=None, edge_levels=12):
    """make_grid's edges built one base cell at a time: `ppi` (or more, under
    `max_cell`) uniform cells per base cell [a, b] and a dyadic cascade of
    `edge_levels` cells toward each end, from the same IEEE expressions."""
    base = np.array(sorted([0.0] + [PI / k for k in range(1, 2 * M + 2)]))
    pos_edges = [base]
    for a, b in zip(base[:-1], base[1:]):
        pieces = ppi
        if max_cell is not None:
            pieces = max(pieces, math.ceil((b - a) / max_cell))
        u = (b - a) / pieces
        inner = [a + u * j for j in range(1, pieces)]
        left = [a + u * 0.5**lev for lev in range(1, edge_levels + 1)]
        right = [b - u * 0.5**lev for lev in range(1, edge_levels + 1)]
        pos_edges.append(np.array(sorted(set(inner + left + right))))
    pos = np.unique(np.concatenate(pos_edges))
    edges = np.concatenate([-pos[::-1], pos[1:]])
    if len(extra_breakpoints):
        extras = wrap_angle(np.asarray(extra_breakpoints, dtype=float))
        edges = np.unique(np.concatenate([edges, extras]))
    return edges


def _blowup(ms):
    return lambda build: _blowup_grid([localization_params(m) for m in ms], 25, 8)


def _for_kernels(M, ppi, max_degree):
    return lambda build: grid_for_kernels(M, ppi, max_degree)


def _maximal(M):
    return lambda build: build(M, 8)


def _fejer_converge(max_order):
    return lambda build: build(
        1, 8, max_cell=2 * PI / (8 * (max_order + 1)), extra_breakpoints=[PI / 2]
    )


# the grids of the benchmark workloads and of every CLI subcommand's defaults
_EXPERIMENT_GRIDS = {
    "blowup-bench": _blowup([1, 4]),
    "blowup-default": _blowup([1, 4, 9, 16, 25]),
    "witness-bench": _for_kernels(9, 8, max(_default_order_ladder(9))),
    "witness-default": _for_kernels(64, 8, max(_default_order_ladder(64))),
    **{
        f"duality-bench-M{M}-ppi{ppi}": _for_kernels(M, ppi, 32)
        for M in (1, 2) for ppi in (8, 16)
    },
    **{f"duality-default-M{M}": _for_kernels(M, 8, 64) for M in range(1, 9)},
    **{f"maximal-M{M}": _maximal(M) for M in (4, 16, 32, 64)},
    "fejer-converge-bench": _fejer_converge(512),
    "fejer-converge-default": _fejer_converge(1024),
    "density-bench": _for_kernels(16, 8, 64),
    "density-default": _for_kernels(8, 8, 64),
}


@pytest.mark.parametrize("grid_of", _EXPERIMENT_GRIDS.values(), ids=_EXPERIMENT_GRIDS.keys())
def test_make_grid_matches_per_cell_oracle_on_experiment_grids(monkeypatch, grid_of):
    calls = []

    def build(*args, **kwargs):
        calls.append((args, kwargs))
        return make_grid(*args, **kwargs)

    monkeypatch.setattr(operators, "make_grid", build)
    grid = grid_of(build)
    [(args, kwargs)] = calls
    oracle = _grid_edges_oracle(*args, **kwargs)
    assert np.array_equal(grid.edges.view(np.uint64), oracle.view(np.uint64))


@pytest.mark.parametrize("edge_levels", [0, 1, 12])
@pytest.mark.parametrize("max_cell", [None, math.inf, 0.05])
@pytest.mark.parametrize(
    "extra",
    [(), [0.3, -0.3], [-0.5, 2.0], [PI, -PI, 0.0, PI / 3, -PI / 5]],
    ids=["none", "symmetric", "asymmetric", "on-edges"],
)
def test_make_grid_matches_per_cell_oracle_on_edge_cases(
    monkeypatch, edge_levels, max_cell, extra
):
    monkeypatch.setattr(circle, "EDGE_LEVELS", edge_levels)
    for M, ppi in ((1, 2), (3, 5)):
        kwargs = dict(max_cell=max_cell, extra_breakpoints=extra)
        grid = make_grid(M, ppi, **kwargs)
        oracle = _grid_edges_oracle(M, ppi, edge_levels=edge_levels, **kwargs)
        assert np.array_equal(grid.edges.view(np.uint64), oracle.view(np.uint64))
        if 0.0 not in extra:
            # the middle edge is the mirror image -pos[0] of 0
            assert np.signbit(grid.edges[grid.edges == 0.0]).tolist() == [True]


# ------------------------------------------------------------------ piecewise


def test_piecewise_constant_lookup_and_wrap():
    pc = PiecewiseConstant.indicator(0.0, 1.0, value=3.0)
    assert pc(0.5) == 3.0
    assert pc(0.0) == 3.0  # left-closed
    assert pc(-0.3) == 0.0
    assert pc(-1e-20) == 0.0  # below the edge, not rounded onto it
    assert pc(0.5 + 2 * PI) == 3.0
    assert pc(-PI) == pc(PI)


@pytest.mark.parametrize(
    "edges, values, message",
    [
        ([PI], [], "two edges"),
        ([-PI, 0.0, PI], [1.0], "one entry per cell"),
        ([-PI, 0.0, 3.0], [1.0, 2.0], "span"),
        ([-PI, 1.0, 0.5, PI], [1.0, 2.0, 3.0], "increasing"),
        ([-PI, np.nan, PI], [1.0, 2.0], "finite"),
        ([-PI, 0.0, PI], [1.0, np.inf], "finite"),
        ([-PI, 0.0, PI], [1.0, 1j], "real"),
    ],
    ids=["one-edge", "value-count", "span", "not-increasing", "nan-edge", "inf-value", "complex"],
)
def test_piecewise_constant_refusals(edges, values, message):
    with pytest.raises(ValueError, match=message):
        PiecewiseConstant(edges=np.array(edges), values=np.array(values))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sampled_function_rejects_nonfinite_samples(bad):
    grid = make_grid(2, 4)
    samples = np.ones(grid.node_count)
    samples[grid.node_count // 2] = bad
    with pytest.raises(ValueError, match="finite"):
        SampledFunction(grid=grid, samples=samples)


def test_wrap_angle_convention():
    assert wrap_angle(PI) == PI
    assert wrap_angle(-PI) == PI
    assert abs(wrap_angle(3 * PI / 2) - (-PI / 2)) < 1e-15
    # an angle in range comes back bit for bit, as a copy: np.remainder
    # would round theta + 2 pi, moving most negative angles by an ulp of
    # 2 pi and -1e-20 onto 0.0
    rng = np.random.default_rng(5)
    x = np.concatenate(
        [rng.uniform(-PI, PI, 10_000), [-1e-20, np.nextafter(-PI, 0.0), -0.0, 0.0, PI]]
    )
    for theta in (x, np.append(x, [3 * PI, -PI])):  # in range, and mixed
        got = wrap_angle(theta)[: x.size]
        assert np.array_equal(got.view(np.uint64), x.view(np.uint64))
        assert not np.shares_memory(got, theta)


# ------------------------------------------------------- Fourier coefficients


def _undamped_fejer_start(f, degree):
    """Midpoint-sum coefficients c(0..degree) of the samples, read back from
    the Fejér start of the weighted-L1 fit by undoing its 1 - k/(d+1)."""
    damp = 1.0 - np.arange(degree + 1) / (degree + 1.0)
    return _fejer_candidate(f, _phases(f.grid.nodes, 0, degree + 1, 1)) / damp


def test_fourier_coeff_pure_mode_sampled():
    grid = make_grid(1, 8, max_cell=2 * PI / (8 * 17))
    f = SampledFunction(grid=grid, samples=np.exp(3j * grid.nodes))
    for degree in (3, 4):
        coeffs = _undamped_fejer_start(f, degree)
        assert abs(coeffs[3] - 1.0) <= 2e-4
        assert np.max(np.abs(np.delete(coeffs, 3))) <= 2e-4


def test_fourier_coeff_arc_indicator_zero_mode():
    a = 1.0
    arc = PiecewiseConstant.indicator(0.0, a)
    assert abs(fourier_window(arc, 0)[0] - a / (2 * PI)) <= 1e-15


def test_fourier_coeff_arc_closed_form_vs_quadrature():
    # closed form (1 - e^{-ika}) / (2 pi i k) against the exact window and
    # against the Fejér start's midpoint sums on a grid fine enough for 1e-6
    # relative agreement
    a = 1.0
    arc = PiecewiseConstant.indicator(0.0, a)
    grid = make_grid(1, 16, extra_breakpoints=[a], max_cell=5e-4)
    sampled = SampledFunction(grid=grid, samples=arc(grid.nodes).astype(float))
    quad = _undamped_fejer_start(sampled, 8)
    for k in range(1, 9):
        exact = (1 - np.exp(-1j * k * a)) / (2j * PI * k)
        assert abs(fourier_window(arc, k)[2 * k] - exact) <= 1e-14
        assert abs(quad[k] - exact) / abs(exact) <= 1e-6


def test_fourier_window_matches_closed_form():
    # 1.5 * indicator of [a, b]: c(0) = 1.5 (b - a) / (2 pi) and
    # c(k) = 1.5 (e^{-ika} - e^{-ikb}) / (2 pi i k)
    a, b = -0.5, 2.0
    window = fourier_window(PiecewiseConstant.indicator(a, b, value=1.5), 6)
    assert abs(window[6] - 1.5 * (b - a) / (2 * PI)) <= 1e-15
    for k in (*range(-6, 0), *range(1, 7)):
        exact = 1.5 * (np.exp(-1j * k * a) - np.exp(-1j * k * b)) / (2j * PI * k)
        assert abs(window[k + 6] - exact) <= 1e-15


def test_trig_sum_over_several_blocks_matches_direct_formula():
    rng = np.random.default_rng(2)
    b = np.arange(-500, 501)
    rows = circle.TRIG_BLOCK // b.size  # angles per block
    a = rng.uniform(-PI, PI, size=3 * rows + 7)  # three full blocks and a part
    x = rng.normal(size=b.size) + 1j * rng.normal(size=b.size)
    y = rng.normal(size=a.size) + 1j * rng.normal(size=a.size)
    for sign in (1, -1):
        out = trig_sum(a, b, x, sign)
        direct = [np.sum(x * np.exp(sign * 1j * ai * b)) for ai in a]
        assert np.max(np.abs(out - direct)) <= 1e-10 * np.sum(np.abs(x))
        out = trig_sum(b, a, y, sign)
        direct = [np.sum(y * np.exp(sign * 1j * bk * a)) for bk in b]
        assert np.max(np.abs(out - direct)) <= 1e-10 * np.sum(np.abs(y))


def test_synthesis_stack_over_several_blocks_matches_single_windows():
    # a (2W + 1, 3) stack sums every column against one phase table per
    # block, over the band of all columns: a full window, an analytic one
    # and a short middle band
    rng = np.random.default_rng(6)
    W = 400
    theta = rng.uniform(-PI, PI, size=3 * (circle.TRIG_BLOCK // (2 * W + 1)) + 7)
    stack = rng.normal(size=(2 * W + 1, 3)) + 1j * rng.normal(size=(2 * W + 1, 3))
    stack[:W, 1] = 0.0
    stack[: W - 50, 2] = stack[W + 90 :, 2] = 0.0
    out = synthesize(stack, theta)
    assert out.shape == (theta.size, 3)
    for j in range(3):
        single = synthesize(stack[:, j], theta)
        assert np.max(np.abs(out[:, j] - single)) <= 1e-10 * np.sum(np.abs(stack[:, j]))


def test_synthesize_window_with_zero_ends_matches_direct_sum():
    # only the band between the first and last nonzero coefficient is
    # summed; the zeros outside it add nothing to the two-sided sum
    rng = np.random.default_rng(7)
    theta = rng.uniform(-PI, PI, size=61)
    coeffs = rng.normal(size=17) + 1j * rng.normal(size=17)
    for c in (
        _analytic_window(coeffs),
        coeff_window(20, {-3: 1.0, 5: 2j}),
        coeff_window(6, {-6: 0.5}),
        coeff_window(4, {}),
    ):
        W = len(c) // 2
        direct = np.exp(1j * np.multiply.outer(theta, np.arange(-W, W + 1))) @ c
        scale = max(1.0, np.sum(np.abs(c)))
        assert np.max(np.abs(synthesize(c, theta) - direct)) <= 1e-13 * scale
        assert abs(synthesize(c, theta[0]) - direct[0]) <= 1e-13 * scale


def test_trig_sum_synthesis_and_analysis_are_adjoint():
    # <trig_sum(theta, ks, c, +1), x> = <c, trig_sum(ks, theta, x, -1)>
    rng = np.random.default_rng(3)
    ks = np.arange(-300, 301)
    theta = rng.uniform(-PI, PI, size=5 * (circle.TRIG_BLOCK // ks.size) // 2)
    c = rng.normal(size=ks.size) + 1j * rng.normal(size=ks.size)
    x = rng.normal(size=theta.size) + 1j * rng.normal(size=theta.size)
    lhs = np.vdot(x, trig_sum(theta, ks, c, 1))
    rhs = np.vdot(trig_sum(ks, theta, x, -1), c)
    assert abs(lhs - rhs) <= 1e-13 * np.sum(np.abs(c)) * np.sum(np.abs(x))


def test_trig_sum_needs_a_consecutive_integer_range():
    rng = np.random.default_rng(4)
    theta = rng.uniform(-PI, PI, size=7)
    for freqs in (theta[:3], np.array([0, 1, 3]), np.array([0.5, 1.5, 2.5])):
        with pytest.raises(ValueError, match="consecutive integer range"):
            trig_sum(theta, freqs, np.ones(3), 1)
        with pytest.raises(ValueError, match="consecutive integer range"):
            trig_sum(freqs, theta, np.ones(7), -1)
    with pytest.raises(ValueError, match="sign"):
        trig_sum(theta, np.arange(3), np.ones(3), 0)


def test_step_coefficients_take_the_full_range_and_drop_k0(monkeypatch):
    seen = []

    def spy(a, b, x, sign):
        seen.append(np.array(a))
        return trig_sum(a, b, x, sign)

    monkeypatch.setattr(circle, "trig_sum", spy)
    f = PiecewiseConstant.indicator(-0.5, 2.0, value=1.5)
    window = fourier_window(f, 4)
    assert len(seen) == 1 and np.array_equal(seen[0], np.arange(-4, 5))
    assert window[4] == f.integral()
    assert np.all(np.isfinite(window))


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is no wider than double here",
)
@pytest.mark.parametrize("k0, K", [(-8192, 16385), (0, 1025), (0, 16385)])
def test_phase_table_error_against_long_double_reference(k0, K):
    # Reference e^{i k theta} with k = 128 q + r, 0 <= r < 128: the products
    # (128 theta) q and r theta have at most 53 + 8 bits, so they are exact
    # in the 64-bit long double mantissa, unlike a rounded k theta.
    ld = np.longdouble
    rng = np.random.default_rng(5)
    theta = np.concatenate([[PI, -PI + 1e-9, 1e-3, 3.0], rng.uniform(-PI, PI, 36)])
    q, r = np.divmod(np.arange(k0, k0 + K), 128)
    hi = np.multiply.outer(128 * theta.astype(ld), q.astype(ld))
    lo = np.multiply.outer(theta.astype(ld), r.astype(ld))
    cos = np.cos(hi) * np.cos(lo) - np.sin(hi) * np.sin(lo)
    sin = np.sin(hi) * np.cos(lo) + np.cos(hi) * np.sin(lo)
    bound = (2 * math.ceil(math.log2(K)) + 2) * np.finfo(float).eps
    for sign in (1, -1):
        P = circle._phases(theta, k0, K, sign)
        err = np.hypot((P.real - cos).astype(float), (P.imag - sign * sin).astype(float))
        assert np.max(err) <= bound


# ------------------------------------------------------------------- kernels


def test_fejer_kernel_spot_values():
    assert fejer_kernel_eval(1, 0.0) == 2.0
    assert abs(fejer_kernel_eval(1, PI)) <= 1e-30
    assert abs(fejer_kernel_eval(2, 2 * PI / 3)) <= 1e-30


@given(
    n=st.integers(min_value=0, max_value=40),
    theta=st.floats(min_value=-PI, max_value=PI, allow_nan=False),
)
def test_fejer_kernel_matches_coefficient_sum(n, theta):
    ks = np.arange(-n, n + 1)
    series = np.sum((1 - np.abs(ks) / (n + 1)) * np.exp(1j * ks * theta)).real
    assert abs(fejer_kernel_eval(n, theta) - series) <= 1e-12 * (n + 1)


@given(
    n=st.integers(min_value=0, max_value=200),
    theta=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
)
def test_fejer_kernel_nonnegative_and_even(n, theta):
    v = fejer_kernel_eval(n, theta)
    assert v >= 0.0
    assert v == fejer_kernel_eval(n, -theta)


def test_fejer_kernel_unit_mass_exact():
    for n in (0, 1, 5, 64, 300):
        assert abs(fejer_kernel_mass(n, -PI, PI) / (2 * PI) - 1.0) <= 1e-12


def test_fejer_kernel_quadrature_mass_on_grid():
    # midpoint quadrature of the kernel over the circle; second order in the
    # cell width, so a 64x oversampled mesh is comfortably below 1e-5
    for n in (4, 16, 64):
        grid = make_grid(2, 8, max_cell=2 * PI / (64 * (n + 1)))
        total = np.sum(fejer_kernel_eval(n, grid.nodes) * grid.quad_weights)
        assert abs(total - 1.0) <= 1e-5, (n, total)


def test_fejer_kernel_localization_bound_and_decay():
    # the attained supremum oscillates with n as the sine peaks move, so the
    # rigorous claims are the 1/(n+1) envelope and decay along the ladder
    eps = 0.3
    orders = (4, 8, 16, 32, 64, 128, 256, 512)
    sups = []
    for n in orders:
        theta = np.linspace(eps, PI, 4001)
        vals = fejer_kernel_eval(n, theta)
        assert np.max(vals) <= PI**2 / ((n + 1) * eps**2) + 1e-12
        sups.append(np.max(vals))
    assert all(sups[i + 2] < sups[i] for i in range(len(sups) - 2))
    assert sups[-1] < 0.05 * sups[0]


# ------------------------------------------------- kernel tables by phase factors

U = 2.0**-53  # unit roundoff


def _closed_form(kernel, theta):
    """The kernels' closed forms evaluated at the angles themselves: the
    reference the phase-factor tables are checked against."""
    t = np.asarray(theta, dtype=float)
    if kernel.kind == "fejer":
        n = kernel.n
        s = np.sin(0.5 * t)
        tiny = np.abs(s) < 1e-9
        val = (np.sin(0.5 * (n + 1) * t) / np.where(tiny, 1.0, s)) ** 2 / (n + 1)
        return np.where(tiny, float(n + 1), val)
    r = kernel.r
    return (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(t) + r * r)


SAMPLED_KERNELS = [KernelSpec.fejer(n) for n in (0, 1, 32, 108)] + [
    KernelSpec.poisson(r) for r in (0.05, 0.63)
]


def _entry_bound(kernel, diff, reference):
    """How far a table entry may sit from the closed form at the rounded
    difference `diff`, to first order in the rounding errors.

    Every sine or cosine either form takes, of a phase a (theta_i - s_j) with
    |theta_i|, |s_j| < pi, is off by at most about u (2 pi |a| + 4): the
    rounded phases, one ulp from sin or cos, and one rounding each for the
    products and the sum (phase factors) or for fl(theta_i - s_j) (closed
    form).  Fejér: F = num^2 / ((n+1) s^2) with F <= n + 1, so
    |num / s| <= n + 1 and errors d_num, d_s move F by at most
    2 (d_num + (n+1) d_s) / |s|; both forms' errors add, giving
    8 u (n+1) (pi + 3) / |s| with |s| = |sin(t/2)| floored at the 1e-9 where
    both forms return n + 1.  Poisson: P = (1 - r^2) / D with
    D >= (1 - r)^2, so an error d_c in cos t moves P by P 2 r d_c / D; both
    forms' d_c and their four roundings after it give
    P (4 r u (2 pi + 4) / (1 - r)^2 + 8 u).
    """
    if kernel.kind == "fejer":
        s = np.maximum(np.abs(np.sin(0.5 * diff)), 1e-9)
        return 8 * U * (kernel.n + 1) * (PI + 3) / s
    r = kernel.r
    return reference * (4 * r * U * (2 * PI + 4) / (1 - r) ** 2 + 8 * U)


@pytest.mark.parametrize(
    "M, build",
    [
        # the duality grids at --ppi 8 and --max-order 32: 184 and 28 node
        # pairs exactly pi apart, and differences within 6e-6 of +-2 pi
        (1, lambda: grid_for_kernels(1, 8, 32)),
        (2, lambda: grid_for_kernels(2, 8, 32)),
        (4, lambda: make_grid(4, 8, max_cell=2 * PI / 2500)),  # N = 2,940: 134 blocks
    ],
    ids=["duality-M1", "duality-M2", "two-blocks"],
)
def test_kernel_blocks_match_closed_form_of_differences(M, build):
    grid = build()
    x = grid.nodes
    c = make_weight(M)(x) * grid.quad_weights
    for kernel in SAMPLED_KERNELS:
        rowsums = np.empty(x.size)
        colsums = np.zeros(x.size)
        ref_rows = np.empty(x.size)
        ref_cols = np.zeros(x.size)
        for rows, _, block in kernel_blocks([kernel], x, x):
            diff = x[rows, None] - x[None, :]
            ref = _closed_form(kernel, diff)
            assert np.all(np.abs(block - ref) <= _entry_bound(kernel, diff, ref)), kernel
            if kernel.kind == "fejer":
                # sin(t/2) is exactly 0 on the diagonal in both forms
                diag = np.arange(x.size)[rows]
                assert np.all(block[diag - rows.start, diag] == kernel.n + 1)
            rowsums[rows], ref_rows[rows] = block @ c, ref @ c
            colsums += c[rows] @ block
            ref_cols += c[rows] @ ref
        assert np.max(np.abs(rowsums - ref_rows) / ref_rows) <= 1e-13, kernel
        assert np.max(np.abs(colsums - ref_cols) / ref_cols) <= 1e-13, kernel


@pytest.mark.parametrize("M, ppi", [(1, 8), (2, 8), (2, 16)])
def test_stacked_kernel_blocks_are_the_symmetric_one_call_table(M, ppi):
    # the duality grids (N = 410, 510 and 536) span several blocks each;
    # stacked, the blocks are kernel(x, x) bit for bit, and that table is
    # exactly symmetric because products commute exactly.  Its entries are
    # nonnegative, so weighted sums take the blocks as |K| unchanged.
    x = grid_for_kernels(M, ppi, 32).nodes
    assert x.size**2 > KERNEL_BLOCK
    for kernel in [KernelSpec.fejer(n) for n in (0, 1, 32)] + [
        KernelSpec.poisson(r) for r in (0.05, 0.63)
    ]:
        stacked = np.vstack([block.copy() for _, _, block in kernel_blocks([kernel], x, x)])
        table = kernel(x, x)
        assert np.array_equal(stacked.view(np.uint64), table.view(np.uint64)), kernel
        assert np.array_equal(table.view(np.uint64), table.T.view(np.uint64)), kernel
        assert np.all(table >= 0.0), kernel


def test_step_kernels_are_never_sampled():
    # a step kernel's sums come from its cells, so neither a call nor a
    # block pass samples one, and neither falls through to another formula
    x = grid_for_kernels(1, 8, 32).nodes
    step = KernelSpec.custom(
        PiecewiseConstant(
            edges=np.array([-PI, -1.0, 0.0, 1.3, PI]), values=np.array([1.0, -2.0, 0.5, 3.0])
        )
    )
    with pytest.raises(TypeError, match="never sampled"):
        step(x, x)
    with pytest.raises(TypeError, match="never sampled"):
        next(kernel_blocks([step], x, x))


def test_kernel_blocks_reuse_one_workspace_up_to_a_partial_last_block():
    x = grid_for_kernels(2, 16, 32).nodes
    step = KERNEL_BLOCK // x.size
    assert x.size % step  # N = 536: four blocks of 122 rows and one of 48
    for kernel in (KernelSpec.fejer(32), KernelSpec.poisson(0.63)):
        blocks = list(kernel_blocks([kernel], x, x))
        starts = list(range(0, x.size, step))
        assert [rows for rows, _, _ in blocks] == [slice(a, a + step) for a in starts]
        assert [b.shape for _, _, b in blocks] == [(step, x.size)] * (len(starts) - 1) + [
            (x.size - starts[-1], x.size)
        ]
        # every block lives in the one workspace; the last one is intact
        assert all(np.shares_memory(b, blocks[0][2]) for _, _, b in blocks)
        assert np.array_equal(blocks[-1][2], kernel(x[starts[-1] :], x)), kernel
        # a NaN target in the partial last block still fails that block
        targets = x.copy()
        targets[-1] = np.nan
        seen = []
        with pytest.raises(ValueError, match="non-finite"):
            for rows, _, _ in kernel_blocks([kernel], targets, x):
                seen.append(rows)
        assert seen == [rows for rows, _, _ in blocks[:-1]], kernel


def test_kernel_tables_of_distinct_targets_and_sources():
    # the shape of blow-up's window rows: fewer targets than sources
    grid = grid_for_kernels(2, 8, 32)
    targets, sources = grid.nodes[3::7], grid.nodes[::2]
    for kernel in SAMPLED_KERNELS:
        table = kernel(targets, sources)
        assert table.shape == (targets.size, sources.size)
        diff = targets[:, None] - sources[None, :]
        ref = _closed_form(kernel, diff)
        assert np.all(np.abs(table - ref) <= _entry_bound(kernel, diff, ref)), kernel


def test_one_argument_kernel_calls_bitwise_unchanged():
    # with sources = 0 the phase factors are 1 and 0: the closed form exactly;
    # KernelSpec calls fejer_kernel_eval and poisson_kernel_eval with one angle
    rng = np.random.default_rng(11)
    special = np.array([0.0, 1e-10, -1e-10, PI, -PI, 2 * PI, -2 * PI])
    theta = np.concatenate([special, rng.uniform(-10.0, 10.0, size=4000)])
    for kernel in SAMPLED_KERNELS:
        assert np.array_equal(kernel(theta), _closed_form(kernel, theta)), kernel
        for t in special:
            value = kernel(t)
            assert type(value) is float and value == _closed_form(kernel, t), (kernel, t)


# ---------------------------------------------------------------- fejer_mean


def test_fejer_mean_damps_single_mode():
    for k, n in ((1, 1), (2, 5), (3, 8)):
        f = coeff_window(n, {k: 1.0})
        mean = fejer_mean(f, n)
        assert abs(mean[k + n] - (1 - k / (n + 1))) <= 1e-15


def test_fejer_mean_fixes_constants():
    f = coeff_window(4, {0: 1.0})
    for n in range(5):
        assert abs(fejer_mean(f, n)[n] - 1.0) <= 1e-15


def test_fejer_mean_annihilates_high_modes():
    f = coeff_window(10, {7: 2.0, -9: 1.0})
    mean = fejer_mean(f, 5)
    assert np.max(np.abs(mean)) == 0.0


def test_fejer_mean_rejects_small_window():
    f = coeff_window(3, {1: 1.0})
    with pytest.raises(ValueError):
        fejer_mean(f, 4)


@pytest.mark.parametrize(
    "read",
    [
        lambda c: fejer_mean(c, 1),
        lambda c: synthesize(c, 0.3),
        lambda c: poisson_extend(c, 0.5, 0.3),
        hardy_violation,
        lambda c: taylor_fourier_check(c, 0.5),
    ],
    ids=["fejer_mean", "synthesize", "poisson_extend", "hardy_violation", "taylor_fourier_check"],
)
def test_window_readers_reject_even_length(read):
    # an even-length array has no centre: [0, 0, 1, 0] used to read as c(0) = 1
    with pytest.raises(ValueError, match="odd length"):
        read(np.array([0.0, 0.0, 1.0, 0.0], dtype=complex))


def test_windows_are_read_only_complex_arrays():
    arc = PiecewiseConstant.indicator(0.0, 1.0)
    for W, n in ((0, 0), (5, 3), (8, 8)):
        window = fourier_window(arc, W)
        for c, length in ((window, 2 * W + 1), (fejer_mean(window, n), 2 * n + 1)):
            assert isinstance(c, np.ndarray) and c.dtype == complex
            assert c.shape == (length,) and not c.flags.writeable


# ----------------------------------------------------- quadrature convolution


def test_convolve_constant_is_fixed_point():
    # unit kernel mass makes constants fixed points; quadrature is second
    # order, measured 8.9e-8 at this oversampling
    grid = make_grid(1, 8, max_cell=2 * PI / (256 * 9))
    out = dense_convolution(KernelSpec.fejer(8), grid, np.full(grid.node_count, 2.5))
    assert np.max(np.abs(out - 2.5)) <= 1e-6


def test_convolve_single_mode_spectral_value():
    grid = make_grid(1, 8, max_cell=2 * PI / (64 * 2))
    out = dense_convolution(KernelSpec.fejer(1), grid, np.exp(1j * grid.nodes))
    expected = 0.5 * np.exp(1j * grid.nodes)
    assert np.max(np.abs(out - expected)) <= 1e-5


def test_convolve_step_matches_spectral_path_at_second_order():
    arc = PiecewiseConstant.indicator(0.0, PI / 2)
    n = 64
    window = fourier_window(arc, n)
    errs = {}
    for cap_scale in (2.0, 4.0):
        cap = 2 * PI / (8 * (n + 1) * cap_scale)
        grid = make_grid(1, 8, max_cell=cap)
        direct = dense_convolution(KernelSpec.fejer(n), grid, arc(grid.nodes))
        spectral = synthesize(fejer_mean(window, n), grid.nodes)
        errs[cap_scale] = (
            np.max(np.abs(direct - spectral)),
            np.max(np.diff(grid.edges)),
        )
    e1, h1 = errs[2.0]
    e2, h2 = errs[4.0]
    assert e2 <= 2e-4
    # halving the mesh shrinks the disagreement at roughly second order
    order = math.log(e1 / e2) / math.log(h1 / h2)
    assert order >= 1.5, (e1, e2, order)


# ------------------------------------------------------------ poisson_extend


def test_poisson_extend_r0_is_mean():
    f = coeff_window(3, {0: 2.0, 1: 5.0, -2: 1.0})
    assert abs(poisson_extend(f, 0.0, 1.234) - 2.0) <= 1e-15


def test_poisson_extend_constant():
    f = coeff_window(2, {0: 1.0})
    for r, theta in ((0.3, 0.1), (0.9, -2.0)):
        assert abs(poisson_extend(f, r, theta) - 1.0) <= 1e-15


def test_poisson_extend_single_mode_against_quadrature_oracle():
    f = coeff_window(1, {1: 1.0})
    val = poisson_extend(f, 0.5, 0.0)
    assert abs(val - 0.5) <= 1e-14
    # direct quadrature of the Poisson integral on a fine uniform mesh
    npts = 8192
    phi = -PI + (np.arange(npts) + 0.5) * (2 * PI / npts)
    oracle = np.sum(poisson_kernel_eval(0.5, 0.0 - phi) * np.exp(1j * phi)) / npts
    assert abs(val - oracle) <= 1e-12


def test_poisson_extend_rejects_bad_radius():
    f = coeff_window(1, {0: 1.0})
    with pytest.raises(ValueError):
        poisson_extend(f, 1.0, 0.0)
    with pytest.raises(ValueError):
        KernelSpec.poisson(-0.1)


# ------------------------------------------------------------------ parseval


def test_integral_helpers_and_refine():
    pc = PiecewiseConstant.indicator(0.0, PI / 2, value=2.0)
    assert abs(pc.integral() - 2.0 * (PI / 2) / (2 * PI)) <= 1e-15
    grid = make_grid(1, 4)
    f = SampledFunction(grid=grid, samples=pc(grid.nodes).astype(float))
    # both arc edges are grid edges, so the midpoint sum is the exact integral
    assert abs(np.sum(f.samples * grid.quad_weights) - pc.integral()) <= 1e-15
