import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fejerlab.circle import (
    KERNEL_BLOCK,
    AliasingError,
    FourierCoefficients,
    KernelSpec,
    PiecewiseConstant,
    SampledFunction,
    convolve_direct,
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
from fejerlab.operators import fejer_kernel_mass, grid_for_kernels
from fejerlab.spaces import make_weight

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
    grid = make_grid(6, 8)
    # nodes and weights are mirrored under theta -> -theta
    assert np.max(np.abs(grid.nodes + grid.nodes[::-1])) <= 1e-15
    assert np.max(np.abs(grid.quad_weights - grid.quad_weights[::-1])) <= 1e-15
    assert np.all(grid.quad_weights > 0)
    assert np.all(np.diff(grid.nodes) > 0)


def test_make_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_grid(0, 8)
    with pytest.raises(ValueError):
        make_grid(2, 1)


def test_grid_max_cell_cap():
    grid = make_grid(1, 4, max_cell=0.01)
    assert np.max(np.diff(grid.edges)) <= 0.01 + 1e-15


# ------------------------------------------------------------------ piecewise


def test_piecewise_constant_lookup_and_wrap():
    pc = PiecewiseConstant.indicator(0.0, 1.0, value=3.0)
    assert pc(0.5) == 3.0
    assert pc(0.0) == 3.0  # left-closed
    assert pc(-0.3) == 0.0
    assert pc(0.5 + 2 * PI) == 3.0
    assert pc(-PI) == pc(PI)


def test_wrap_angle_convention():
    assert wrap_angle(PI) == PI
    assert wrap_angle(-PI) == PI
    assert abs(wrap_angle(3 * PI / 2) - (-PI / 2)) < 1e-15


# ------------------------------------------------------- Fourier coefficients


def test_fourier_coeff_pure_mode_sampled():
    grid = make_grid(1, 8, max_cell=2 * PI / (8 * 17))
    f = SampledFunction(grid=grid, samples=np.exp(3j * grid.nodes))
    assert abs(fourier_window(f, 3)[3] - 1.0) <= 2e-4
    for k in (-3, -1, 0, 1, 2, 4):
        assert abs(fourier_window(f, abs(k))[k]) <= 2e-4


def test_fourier_coeff_arc_indicator_zero_mode():
    a = 1.0
    arc = PiecewiseConstant.indicator(0.0, a)
    assert abs(fourier_window(arc, 0)[0] - a / (2 * PI)) <= 1e-15


def test_fourier_coeff_arc_closed_form_vs_quadrature():
    # closed form (1 - e^{-ika}) / (2 pi i k) against the midpoint sums on a
    # grid fine enough for 1e-6 relative agreement
    a = 1.0
    arc = PiecewiseConstant.indicator(0.0, a)
    grid = make_grid(1, 16, extra_breakpoints=[a], max_cell=5e-4)
    sampled = SampledFunction(grid=grid, samples=arc(grid.nodes).astype(float))
    for k in range(1, 9):
        exact = (1 - np.exp(-1j * k * a)) / (2j * PI * k)
        assert abs(fourier_window(arc, k)[k] - exact) <= 1e-14
        quad = fourier_window(sampled, k)[k]
        assert abs(quad - exact) / abs(exact) <= 1e-6


def test_fourier_coeff_rejects_aliasing_window():
    grid = make_grid(1, 4)
    f = SampledFunction(grid=grid, samples=np.ones(grid.node_count))
    limit = grid.node_count // 4
    assert fourier_window(f, limit).window == limit
    with pytest.raises(AliasingError):
        fourier_window(f, limit + 1)
    with pytest.raises(AliasingError):
        fourier_window(f, grid.node_count)


def test_fourier_window_matches_closed_form():
    # 1.5 * indicator of [a, b]: c(0) = 1.5 (b - a) / (2 pi) and
    # c(k) = 1.5 (e^{-ika} - e^{-ikb}) / (2 pi i k)
    a, b = -0.5, 2.0
    window = fourier_window(PiecewiseConstant.indicator(a, b, value=1.5), 6)
    assert abs(window[0] - 1.5 * (b - a) / (2 * PI)) <= 1e-15
    for k in (*range(-6, 0), *range(1, 7)):
        exact = 1.5 * (np.exp(-1j * k * a) - np.exp(-1j * k * b)) / (2j * PI * k)
        assert abs(window[k] - exact) <= 1e-15


def test_trig_sum_over_several_blocks_matches_direct_formula():
    rng = np.random.default_rng(2)
    a = rng.uniform(-PI, PI, size=5000)
    b = np.arange(-500, 501)  # 1001 columns: about 2,000 rows per block
    x = rng.normal(size=b.size) + 1j * rng.normal(size=b.size)
    for sign in (1, -1):
        out = trig_sum(a, b, x, sign)
        direct = [np.sum(x * np.exp(sign * 1j * ai * b)) for ai in a]
        assert np.max(np.abs(out - direct)) <= 1e-10 * np.sum(np.abs(x))


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
    "build",
    [
        # the duality grids at --ppi 8 and --max-order 32: 184 and 28 node
        # pairs exactly pi apart, and differences within 6e-6 of +-2 pi
        lambda: grid_for_kernels(1, 8, 32),
        lambda: grid_for_kernels(2, 8, 32),
        lambda: make_grid(4, 8, max_cell=2 * PI / 2500),  # N = 2,940: two blocks
    ],
    ids=["duality-M1", "duality-M2", "two-blocks"],
)
def test_kernel_blocks_match_closed_form_of_differences(build):
    grid = build()
    x = grid.nodes
    c = make_weight(grid.M)(x) * grid.quad_weights
    for kernel in SAMPLED_KERNELS:
        rowsums = np.empty(x.size)
        colsums = np.zeros(x.size)
        ref_rows = np.empty(x.size)
        ref_cols = np.zeros(x.size)
        for rows, block in kernel_blocks(kernel, x, x):
            diff = x[rows, None] - x[None, :]
            ref = _closed_form(kernel, diff)
            assert np.all(np.abs(block - ref) <= _entry_bound(kernel, diff, ref)), kernel
            if kernel.kind == "fejer":
                # sin(t/2) is exactly 0 on the diagonal in both forms
                diag = np.arange(x.size)[rows]
                assert np.all(block[diag - rows.start, diag] == kernel.n + 1)
            if block.shape[0] == x.size:
                # products commute exactly, so the node x node table is symmetric
                assert np.array_equal(block, block.T), kernel
            rowsums[rows], ref_rows[rows] = block @ c, ref @ c
            colsums += c[rows] @ block
            ref_cols += c[rows] @ ref
        assert np.max(np.abs(rowsums - ref_rows) / ref_rows) <= 1e-13, kernel
        assert np.max(np.abs(colsums - ref_cols) / ref_cols) <= 1e-13, kernel


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
        f = FourierCoefficients.from_dict(n, {k: 1.0})
        mean = fejer_mean(f, n)
        assert abs(mean[k] - (1 - k / (n + 1))) <= 1e-15


def test_fejer_mean_fixes_constants():
    f = FourierCoefficients.from_dict(4, {0: 1.0})
    for n in range(5):
        assert abs(fejer_mean(f, n)[0] - 1.0) <= 1e-15


def test_fejer_mean_annihilates_high_modes():
    f = FourierCoefficients.from_dict(10, {7: 2.0, -9: 1.0})
    mean = fejer_mean(f, 5)
    assert np.max(np.abs(mean.coeffs)) == 0.0


def test_fejer_mean_rejects_small_window():
    f = FourierCoefficients.from_dict(3, {1: 1.0})
    with pytest.raises(ValueError):
        fejer_mean(f, 4)


# ------------------------------------------------------------ convolve_direct


def test_convolve_constant_is_fixed_point():
    # unit kernel mass makes constants fixed points; quadrature is second
    # order, measured 8.9e-8 at this oversampling
    grid = make_grid(1, 8, max_cell=2 * PI / (256 * 9))
    f = SampledFunction(grid=grid, samples=np.full(grid.node_count, 2.5))
    out = convolve_direct(f, KernelSpec.fejer(8))
    assert np.max(np.abs(out.samples - 2.5)) <= 1e-6


def test_convolve_single_mode_spectral_value():
    grid = make_grid(1, 8, max_cell=2 * PI / (64 * 2))
    f = SampledFunction(grid=grid, samples=np.exp(1j * grid.nodes))
    out = convolve_direct(f, KernelSpec.fejer(1))
    expected = 0.5 * np.exp(1j * grid.nodes)
    assert np.max(np.abs(out.samples - expected)) <= 1e-5


def test_convolve_step_matches_spectral_path_at_second_order():
    arc = PiecewiseConstant.indicator(0.0, PI / 2)
    n = 64
    window = fourier_window(arc, n)
    errs = {}
    for cap_scale in (2.0, 4.0):
        cap = 2 * PI / (8 * (n + 1) * cap_scale)
        grid = make_grid(1, 8, max_cell=cap)
        sampled = SampledFunction(grid=grid, samples=arc(grid.nodes).astype(float))
        direct = convolve_direct(sampled, KernelSpec.fejer(n))
        spectral = synthesize(fejer_mean(window, n), grid.nodes)
        errs[cap_scale] = (
            np.max(np.abs(direct.samples - spectral)),
            np.max(np.diff(grid.edges)),
        )
    e1, h1 = errs[2.0]
    e2, h2 = errs[4.0]
    assert e2 <= 2e-4
    # halving the mesh shrinks the disagreement at roughly second order
    order = math.log(e1 / e2) / math.log(h1 / h2)
    assert order >= 1.5, (e1, e2, order)


def test_convolve_direct_matches_dense_product(grid_m1):
    # one kernel block, and several blocks (N^2 > KERNEL_BLOCK); the step
    # kernel is signed and not even, so transposed rows show
    step = KernelSpec.custom(
        PiecewiseConstant(
            edges=np.array([-PI, -1.0, 0.0, 1.3, PI]), values=np.array([1.0, -2.0, 0.5, 3.0])
        )
    )
    many_blocks = make_grid(4, 8, max_cell=2 * PI / 2500)
    assert grid_m1.node_count**2 <= KERNEL_BLOCK < many_blocks.node_count**2
    rng = np.random.default_rng(3)
    for kernel in (KernelSpec.fejer(5), step):
        for grid in (grid_m1, many_blocks):
            f = SampledFunction(grid=grid, samples=rng.normal(size=grid.node_count))
            dense = kernel(grid.nodes[:, None] - grid.nodes[None, :])
            direct = convolve_direct(f, kernel)
            expected = dense @ (f.samples * grid.quad_weights)
            assert np.max(np.abs(direct.samples - expected)) <= 1e-13


# ------------------------------------------------------------ poisson_extend


def test_poisson_extend_r0_is_mean():
    f = FourierCoefficients.from_dict(3, {0: 2.0, 1: 5.0, -2: 1.0})
    assert abs(poisson_extend(f, 0.0, 1.234) - 2.0) <= 1e-15


def test_poisson_extend_constant():
    f = FourierCoefficients.from_dict(2, {0: 1.0})
    for r, theta in ((0.3, 0.1), (0.9, -2.0)):
        assert abs(poisson_extend(f, r, theta) - 1.0) <= 1e-15


def test_poisson_extend_single_mode_against_quadrature_oracle():
    f = FourierCoefficients.from_dict(1, {1: 1.0})
    val = poisson_extend(f, 0.5, 0.0)
    assert abs(val - 0.5) <= 1e-14
    # direct quadrature of the Poisson integral on a fine uniform mesh
    npts = 8192
    phi = -PI + (np.arange(npts) + 0.5) * (2 * PI / npts)
    oracle = np.sum(poisson_kernel_eval(0.5, 0.0 - phi) * np.exp(1j * phi)) / npts
    assert abs(val - oracle) <= 1e-12


def test_poisson_extend_rejects_bad_radius():
    f = FourierCoefficients.from_dict(1, {0: 1.0})
    with pytest.raises(ValueError):
        poisson_extend(f, 1.0, 0.0)
    with pytest.raises(ValueError):
        KernelSpec.poisson(-0.1)


# ------------------------------------------------------------------ parseval


def test_bessel_inequality_sampled():
    rng = np.random.default_rng(11)
    grid = make_grid(2, 16, max_cell=5e-3)
    edges = np.unique(np.concatenate([[-PI, PI], rng.uniform(-PI, PI, 12)]))
    pc = PiecewiseConstant(edges=edges, values=rng.normal(size=edges.size - 1))
    f = SampledFunction(grid=grid, samples=pc(grid.nodes).astype(float))
    window = fourier_window(f, grid.node_count // 8)
    lhs = np.sum(np.abs(window.coeffs) ** 2)
    rhs = np.sum(np.abs(f.samples) ** 2 * grid.quad_weights)
    assert lhs <= rhs * (1 + 1e-6)


def test_integral_helpers_and_refine():
    pc = PiecewiseConstant.indicator(0.0, PI / 2, value=2.0)
    assert abs(pc.integral() - 2.0 * (PI / 2) / (2 * PI)) <= 1e-15
    grid = make_grid(1, 4)
    f = SampledFunction(grid=grid, samples=pc(grid.nodes).astype(float))
    # both arc edges are grid edges, so the midpoint sum is the exact integral
    assert abs(f.integral() - pc.integral()) <= 1e-15
