import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fejerlab.circle import (
    KernelSpec,
    PiecewiseConstant,
    SampledFunction,
    kernel_sums,
    make_grid,
    wrap_angle,
)
from fejerlab import cli, operators
from fejerlab.operators import (
    DELTA_SUBDIVISION,
    SPECTRAL_SWITCH,
    NoQualifyingN,
    assemble_operator,
    fejer_blowup,
    fejer_kernel_mass,
    grid_for_kernels,
    localization_params,
    make_bump,
    operator_norm,
)
from fejerlab.spaces import make_weight

from conftest import dense_convolution, norm

PI = math.pi


@pytest.fixture(scope="module")
def grid_past_spectral_switch():
    """A grid whose Fejér operators take spectral sums (N^2 > SPECTRAL_SWITCH)."""
    grid = make_grid(4, 8, max_cell=2 * PI / 2500)  # N = 2,940
    assert grid.node_count**2 > SPECTRAL_SWITCH
    return grid


@pytest.fixture(scope="module")
def grid_past_spectral_switch_asymmetric():
    """Past the spectral switch and not symmetric under negation, like blow-up's grids."""
    grid = make_grid(4, 8, max_cell=2 * PI / 2500, extra_breakpoints=[0.3, 0.61, 2.0])
    assert grid.node_count**2 > SPECTRAL_SWITCH  # N = 2,943
    assert np.max(np.abs(grid.nodes + grid.nodes[::-1])) > 1e-15
    return grid


DUALITY_RADII = [round(0.05 + 0.02 * i, 2) for i in range(30)]


def _random_step_kernels(rng, count):
    """Even nonnegative step kernels on mirrored breakpoints, as `duality` draws them."""
    return [cli._random_even_nonneg_step_kernel(rng) for _ in range(count)]


# ----------------------------------------------------------------- assembly


def test_constant_kernel_maps_to_mean(grid_m1):
    kernel = KernelSpec.fejer(0)
    A = assemble_operator([kernel], grid_m1)
    rng = np.random.default_rng(0)
    f = rng.normal(size=grid_m1.node_count)
    mean = np.sum(f * grid_m1.quad_weights)
    # |K| = K = 1, so both weighted sums of f q are the mean of f
    for [sums] in A.weighted_sums(f * grid_m1.quad_weights):
        assert np.max(np.abs(sums - mean)) <= 1e-14
    conv = dense_convolution(kernel, grid_m1, f)
    assert np.max(np.abs(conv - mean)) <= 1e-14


def test_fejer_row_sums_close_to_one():
    n = 16
    grid = make_grid(2, 8, max_cell=2 * PI / (64 * (n + 1)))
    A = assemble_operator([KernelSpec.fejer(n)], grid)
    [rowsums], [colsums] = A.weighted_sums(grid.quad_weights)
    assert np.max(np.abs(rowsums - 1.0)) <= 1e-4
    assert np.max(np.abs(colsums - 1.0)) <= 1e-4


def test_fejer_matrix_symmetric_on_symmetric_grid(grid_m4):
    # a symmetric |K| has equal row and column sums against any weights
    A = assemble_operator([KernelSpec.fejer(9)], grid_m4)
    c = np.random.default_rng(2).uniform(0.1, 1.0, size=grid_m4.node_count)
    [rowsums], [colsums] = A.weighted_sums(c)
    assert np.max(np.abs(rowsums - colsums)) <= 1e-12 * np.max(rowsums)


def test_assemble_rejects_nonfinite_kernel():
    # a non-finite step kernel is refused where its profile is built, so no
    # operator holds one
    with pytest.raises(ValueError, match="finite"):
        PiecewiseConstant(edges=np.array([-PI, 0.0, PI]), values=np.array([1.0, np.inf]))


def _attaining_inputs(table, l1, linf, wv, q):
    """The inputs that attain each norm, built from its arg_index: the scaled
    indicator e_j / (w_j q_j) of the l1 column j, and w sign(K_{i,:}) of the
    linf row i of the signed kernel table (sign +1 where K is 0)."""
    j, i = l1.arg_index, linf.arg_index
    indicator = np.zeros(wv.size)
    indicator[j] = 1.0 / (wv[j] * q[j])
    return indicator, wv * np.where(table[i] < 0, -1.0, 1.0)


def _assert_attained(table, l1, linf, wv, q):
    """Both norms are the ratio ||A f|| / ||f|| of their attaining inputs,
    with A f = table @ (f q), to 1e-12."""
    for res, f, norm_of in zip(
        (l1, linf),
        _attaining_inputs(table, l1, linf, wv, q),
        (lambda g: np.sum(np.abs(g) * wv * q), lambda g: np.max(np.abs(g) / wv)),
    ):
        ratio = norm_of(table @ (f * q)) / norm_of(f)
        assert abs(ratio - res.value) <= 1e-12 * res.value


def test_weighted_sums_match_dense_matrix(
    grid_m4, grid_past_spectral_switch, grid_past_spectral_switch_asymmetric
):
    # below and past the spectral switch against a dense matrix built here;
    # the step kernel is signed and not even, so a transposed, unsigned or
    # duplicated sum vector shows.  Past the switch the Fejér sums are one
    # spectral vector, so the dense matrix is their oracle there; below it
    # they stay two contractions, which the duality check relies on.  A
    # step kernel's dense oracle is its profile at the rounded differences
    step = KernelSpec.custom(
        PiecewiseConstant(
            edges=np.array([-PI, -1.0, 0.0, 1.3, PI]), values=np.array([1.0, -2.0, 0.5, 3.0])
        )
    )
    w = make_weight(4)
    for kernel, grid in itertools.product(
        (KernelSpec.fejer(0), KernelSpec.fejer(7), KernelSpec.fejer(34), step),
        (grid_m4, grid_past_spectral_switch, grid_past_spectral_switch_asymmetric),
    ):
        sample = step.profile if kernel is step else kernel
        table = sample(grid.nodes[:, None] - grid.nodes[None, :])
        dense = np.abs(table)
        A = assemble_operator([kernel], grid)
        wv = w(grid.nodes)
        wq = wv * grid.quad_weights
        rowsums, colsums = A.weighted_sums(wq)
        spectral = kernel.kind == "fejer" and grid is not grid_m4
        assert A.spectral == spectral and (rowsums is colsums) == spectral
        [rowsums], [colsums] = rowsums, colsums
        assert np.max(np.abs(rowsums - dense @ wq)) <= 1e-13
        assert np.max(np.abs(colsums - dense.T @ wq)) <= 1e-13
        [(l1, linf)] = operator_norm(A, w)
        for res, sums in ((l1, dense.T @ wq), (linf, dense @ wq)):
            assert abs(res.value - np.max(sums / wv)) <= 1e-13 * res.value
        _assert_attained(table, l1, linf, wv, grid.quad_weights)

    # past the switch a Fejér family takes one analysis and one synthesis of
    # the n_max + 1 one-sided frequencies, and each row is its order's own
    frequencies = []
    trig_sum = operators.trig_sum

    def counted(a, b, x, sign):
        frequencies.append(len(a) if sign < 0 else len(b))
        return trig_sum(a, b, x, sign)

    family = [KernelSpec.fejer(n) for n in (0, 7, 34)]
    for grid in (grid_past_spectral_switch, grid_past_spectral_switch_asymmetric):
        wq = w(grid.nodes) * grid.quad_weights
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "trig_sum", counted)
            frequencies.clear()
            rowsums, colsums = assemble_operator(family, grid).weighted_sums(wq)
        assert frequencies == [35, 35] and rowsums is colsums
        for kernel, rows in zip(family, rowsums):
            dense = kernel(grid.nodes[:, None] - grid.nodes[None, :])
            assert np.max(np.abs(rows - dense @ wq)) <= 1e-13, kernel.n


def test_mirrored_sums_match_the_full_block_pass(grid_m4, weight_m4, monkeypatch):
    # on a grid that is its own mirror, with even weights, only the upper
    # half of the rows is sampled; a pass over all N rows, done here, is
    # the direct path it must agree with
    sampled = []

    def counting_sums(kernels, targets, sources, right, left=None):
        sampled.append((len(targets), len(sources)))
        return kernel_sums(kernels, targets, sources, right, left)

    monkeypatch.setattr(operators, "kernel_sums", counting_sums)
    N = grid_m4.node_count
    c = weight_m4(grid_m4.nodes) * grid_m4.quad_weights
    for family in (
        [KernelSpec.fejer(n) for n in (0, 7, 34)],
        [KernelSpec.poisson(r) for r in (0.05, 0.63, 0.97)],
    ):
        rows, cols = kernel_sums(family, grid_m4.nodes, grid_m4.nodes, c, c)
        sampled.clear()
        rowsums, colsums = assemble_operator(family, grid_m4).weighted_sums(c)
        assert sampled == [(N // 2, N)]
        assert np.array_equal(rowsums, rowsums[:, ::-1])
        assert np.max(np.abs(rowsums - rows) / rows) <= 1e-13
        assert np.max(np.abs(colsums - cols) / cols) <= 1e-13

    # an extra breakpoint, odd or even in count, or one weight scaled breaks
    # the mirror, and every row is sampled
    uneven = c.copy()
    uneven[3] *= 1.5
    cases = [(grid_m4, uneven)]
    for extra in ([0.3], [0.3, 0.61]):
        grid = make_grid(4, 8, extra_breakpoints=extra)
        cases.append((grid, weight_m4(grid.nodes) * grid.quad_weights))
    for grid, weights in cases:
        sampled.clear()
        assemble_operator([KernelSpec.fejer(7)], grid).weighted_sums(weights)
        n = grid.node_count
        assert sampled == [(n, n)]


@pytest.mark.parametrize("M", [1, 2])
def test_duality_norms_match_closed_form_of_differences(M):
    # the duality grids at --ppi 8 and --max-order 32; the one-argument
    # kernel call is the closed form bit for bit (test_circle), so the dense
    # matrix here is the kernel at the rounded node differences
    grid = grid_for_kernels(M, 8, 32)
    w = make_weight(M)
    x = grid.nodes
    wv = w(x)
    wq = wv * grid.quad_weights
    diff = x[:, None] - x[None, :]
    for kernel in [KernelSpec.fejer(n) for n in (0, 1, 32, 108)] + [
        KernelSpec.poisson(r) for r in (0.05, 0.63)
    ]:
        dense = np.abs(kernel(diff))
        A = assemble_operator([kernel], grid)
        assert not A.spectral
        [rowsums], [colsums] = A.weighted_sums(wq)
        assert np.max(np.abs(rowsums - dense @ wq) / (dense @ wq)) <= 1e-13, kernel
        assert np.max(np.abs(colsums - wq @ dense) / (wq @ dense)) <= 1e-13, kernel
        [(l1, linf)] = operator_norm(A, w)
        for res, sums in ((l1, wq @ dense), (linf, dense @ wq)):
            assert abs(res.value - np.max(sums / wv)) <= 1e-13 * res.value
        assert abs(l1.value - linf.value) <= 1e-14 * l1.value


def test_spectral_switch_keeps_duality_dense_and_turns_spikes_spectral(monkeypatch):
    # every grid of `duality` at its defaults (--grid-M 8, --ppi 8,
    # --max-order 64) and the 536-node grid of `duality --ppi 16 --max-order
    # 32` stay below the switch, so a Fejér table is read by two
    # contractions; the 3,284-node grid of `blowup --m 1,4 --grid-M 25` is
    # past it, and holds one family of both certified orders
    fejer = KernelSpec.fejer(64)
    duality_grids = [grid_for_kernels(M, 8, 64) for M in range(1, 9)]
    duality_grids.append(grid_for_kernels(2, 16, 32))
    assert duality_grids[-1].node_count == 536
    for grid in duality_grids:
        assert not assemble_operator([fejer], grid).spectral, grid.node_count
    built = []
    original = operators.assemble_operator

    def recording(kernels, grid):
        built.append(original(kernels, grid))
        return built[-1]

    monkeypatch.setattr(operators, "assemble_operator", recording)
    fejer_blowup([1, 4], make_weight(25), points_per_interval=8)
    [A] = built
    assert A.grid.node_count == 3284 and A.spectral
    assert [kernel.n for kernel in A.kernels] == [1, 6]


def test_blowup_measures_each_certified_order_once(monkeypatch):
    # spikes 1 and 2 both certify at n = 1 and spike 3 at n = 3: one norm
    # call on the family (1, 3), and spikes 1 and 2 read one pair
    calls = []
    original = operators.operator_norm

    def recording(A, w):
        calls.append([kernel.n for kernel in A.kernels])
        return original(A, w)

    monkeypatch.setattr(operators, "operator_norm", recording)
    rows = fejer_blowup([1, 2, 3], make_weight(4))
    assert calls == [[1, 3]]
    assert [r.n_of_m for r in rows] == [1, 1, 3]
    assert (rows[0].norm_linfw, rows[0].norm_l1w) == (rows[1].norm_linfw, rows[1].norm_l1w)


def test_weighted_sums_peak_memory_is_three_cache_sized_blocks():
    # one call on the 536-node duality grid holds one workspace of three
    # blocks of at most 2^16 samples (512 kB) plus O(N) vectors; a fresh
    # N x N table per pass would take 2.3 MB each
    grid = grid_for_kernels(2, 16, 32)
    N = grid.node_count
    wq = make_weight(2)(grid.nodes) * grid.quad_weights
    for kernel in (KernelSpec.fejer(32), KernelSpec.poisson(0.63)):
        A = assemble_operator([kernel], grid)
        A.weighted_sums(wq)
        tracemalloc.start()
        try:
            A.weighted_sums(wq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * 2**16 + 64 * 8 * N, (kernel, peak)


def test_family_sums_peak_memory_adds_only_the_sum_arrays():
    # the 28 Poisson radii `duality` puts on weight_M = 2, at N = 536: one
    # call holds the same workspace as a lone kernel plus the family's two
    # (K, N) sum arrays
    grid = grid_for_kernels(2, 16, 32)
    N = grid.node_count
    family = [KernelSpec.poisson(r) for r in DUALITY_RADII if int(100 * r) % 2]
    K = len(family)
    assert (N, K) == (536, 28)
    A = assemble_operator(family, grid)
    wq = make_weight(2)(grid.nodes) * grid.quad_weights
    A.weighted_sums(wq)
    tracemalloc.start()
    try:
        A.weighted_sums(wq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 2**16 + 64 * 8 * N + 2 * K * 8 * N, peak


def test_blowup_window_rows_match_closed_form_of_differences():
    # blow-up samples window nodes against bump nodes: distinct targets and
    # sources, on a grid past the spectral switch
    m = 25
    p = localization_params(m)
    grid = operators._blowup_grid([p], m, 8)
    assert grid.node_count**2 > SPECTRAL_SWITCH
    [row] = fejer_blowup([m], make_weight(m))
    left, right = operators._window_for(p)
    x = grid.nodes
    window = x[(x >= left) & (x <= right)]
    bump = make_bump(m)(x)
    support = np.nonzero(bump)[0]
    kernel = KernelSpec.fejer(p.n_of_m)
    conv = kernel(window[:, None] - x[None, support]) @ (bump * grid.quad_weights)[support]
    assert abs(row.pointwise_min - np.min(conv)) <= 1e-13 * np.min(conv)


def _tied_step_kernel(grid, pairs):
    """Signed, non-even step kernel with edges on the wrapped node differences
    +-(theta_a - theta_b) of the given index pairs, plus one fixed edge."""
    x = grid.nodes
    diffs = [wrap_angle(x[a] - x[b]) for a, b in pairs]
    edges = np.unique([-PI, PI, 1.3, *diffs, *(-d for d in diffs)])
    values = np.resize([1.0, -2.0, 0.5, 3.0, -1.25], edges.size - 1)
    return KernelSpec.custom(PiecewiseConstant(edges=edges, values=values))


@pytest.mark.parametrize("case", ["node-differences", "seam", "asymmetric"])
def test_step_kernel_sums_follow_dense_lookup_at_ties(case, grid_m4):
    # a step kernel's sums come from prefix sums over searched slices; a
    # node difference on an edge, or exactly +-pi, must land in the piece
    # the dense lookup picks, or one node's weight moves between pieces
    if case == "node-differences":
        grid = grid_m4
        kernel = _tied_step_kernel(grid, [(0, 5), (100, 37), (300, 17), (575, 0)])
    elif case == "seam":
        grid = grid_for_kernels(1, 8, 32)
        D = grid.nodes[:, None] - grid.nodes[None, :]
        assert np.count_nonzero(np.abs(D) == PI) == 184
        kernel = KernelSpec.custom(
            PiecewiseConstant(
                edges=np.array([-PI, -1.0, 0.0, 1.3, PI]),
                values=np.array([1.0, -2.0, 0.5, 3.0]),
            )
        )
    else:
        grid = make_grid(4, 8, extra_breakpoints=[0.3, 0.61, 2.0])
        assert np.max(np.abs(grid.nodes + grid.nodes[::-1])) > 1e-15
        kernel = _tied_step_kernel(grid, [(3, 400), (250, 251), (578, 1)])
    nodes = grid.nodes
    dense = np.abs(kernel.profile(nodes[:, None] - nodes[None, :]))
    wq = make_weight(4)(nodes) * grid.quad_weights
    [rowsums], [colsums] = assemble_operator([kernel], grid).weighted_sums(wq)
    assert np.max(np.abs(rowsums - dense @ wq)) <= 1e-13
    assert np.max(np.abs(colsums - dense.T @ wq)) <= 1e-13


@pytest.mark.parametrize("M,ppi", [(1, 8), (1, 16), (2, 8), (2, 16)])
def test_step_kernel_sums_follow_dense_lookup_on_duality_grids(M, ppi):
    # the duality grids, whose nodes pair up exactly pi apart: signed,
    # non-even profiles with random edges, with edges on wrapped node
    # differences, and with end edges just inside or outside +-pi (a node
    # at wrapped difference pi belongs to the last piece either way)
    grid = grid_for_kernels(M, ppi, 32)
    x = grid.nodes
    D = x[:, None] - x[None, :]
    wq = make_weight(M)(x) * grid.quad_weights
    rng = np.random.default_rng(10 * M + ppi)
    for trial in range(36):
        inner = rng.uniform(-PI, PI, size=rng.integers(0, 8))
        if trial % 3 == 1:
            pairs = rng.integers(0, x.size, size=(rng.integers(1, 6), 2))
            inner = np.concatenate([inner[:2], wrap_angle(x[pairs[:, 0]] - x[pairs[:, 1]])])
        inner = np.unique(inner[np.abs(inner) < PI - 1e-9])
        ends = [-PI, PI]
        if trial % 3 == 2:
            ends = [-PI + rng.choice([-9e-13, 9e-13]), PI + rng.choice([-9e-13, 9e-13])]
        edges = np.concatenate([[ends[0]], inner, [ends[1]]])
        values = rng.normal(size=edges.size - 1)
        kernel = KernelSpec.custom(PiecewiseConstant(edges=edges, values=values))
        dense = np.abs(kernel.profile(D))
        [rowsums], [colsums] = assemble_operator([kernel], grid).weighted_sums(wq)
        assert np.max(np.abs(rowsums - dense @ wq)) <= 1e-13
        assert np.max(np.abs(colsums - dense.T @ wq)) <= 1e-13


def test_step_kernel_sums_search_once_among_extended_nodes(monkeypatch):
    # one search of the seam targets for the whole family and both
    # directions, among the 3N nodes [x - 2 pi, x, x + 2 pi]; an even
    # profile's interior targets are one search for rows and columns, a
    # non-even profile's (P-1) per pivot one per direction.  On a grid that
    # is its own mirror every search and every settling covers the upper N/2
    # pivots only, even profiles or not
    mirrored = grid_for_kernels(1, 8, 32)
    uneven_grid = make_grid(3, 8, extra_breakpoints=[0.3])
    assert not np.array_equal(uneven_grid.nodes, -uneven_grid.nodes[::-1])
    uneven = KernelSpec.custom(
        PiecewiseConstant(
            edges=np.array([-PI, -1.0, 0.0, 1.3, PI]), values=np.array([1.0, -2.0, 0.5, 3.0])
        )
    )
    even = KernelSpec.custom(
        PiecewiseConstant(edges=np.array([-PI, -0.4, 0.4, PI]), values=np.array([2.0, 1.0, 2.0]))
    )
    drawn = _random_step_kernels(np.random.default_rng(5), 6)
    calls, settled = [], []
    search, settle = operators._search, operators._settle

    def counted(y, targets):
        calls.append((y.size, targets.size))
        return search(y, targets)

    def counted_settle(y, b, tied, holds):
        settled.append(b.shape[1])
        return settle(y, b, tied, holds)

    monkeypatch.setattr(operators, "_search", counted)
    monkeypatch.setattr(operators, "_settle", counted_settle)
    for grid, half in ((mirrored, True), (uneven_grid, False)):
        N = grid.node_count
        pivots = N // 2 if half else N
        seams = (3 * N, 2 * pivots)
        for family, interior in (
            ([even], [(3 * N, 2 * pivots)]),
            ([uneven], [(3 * N, 3 * pivots)] * 2),
            (
                [uneven, even, uneven],
                [(3 * N, 3 * pivots)] * 2 + [(3 * N, 2 * pivots)] + [(3 * N, 3 * pivots)] * 2,
            ),
            (drawn, [(3 * N, pivots * (k.profile.edges.size - 2)) for k in drawn]),
        ):
            calls.clear()
            settled.clear()
            assemble_operator(family, grid).weighted_sums(grid.quad_weights)
            assert calls == [seams] + interior
            # the seams and each profile settle rows and columns once each
            assert settled == [pivots] * 2 * (1 + len(family))


def test_step_kernel_prefix_sums_within_one_ulp(grid_past_spectral_switch):
    # step-kernel sums are differences of these prefix sums; a plain cumsum
    # is 163 ulps off on these weights, compensated sums at most one
    from fractions import Fraction

    grid = grid_past_spectral_switch
    c = make_weight(4)(grid.nodes) * grid.quad_weights
    total, exact = Fraction(0), [0.0]
    for v in c:
        total += Fraction(v)
        exact.append(float(total))
    exact = np.array(exact)
    assert np.all(np.abs(operators._prefix_sums(c) - exact) <= np.spacing(exact))


@pytest.mark.parametrize("M,ppi", [(1, 8), (1, 16), (2, 8), (2, 16)])
def test_family_sums_are_each_kernels_own_bit_for_bit(M, ppi):
    # the four duality grids: a family shares each block's angle table (and
    # its step kernels the seam searches), yet every kernel's row and column
    # sums are the ones it gives as a family of one, compared as uint64
    grid = grid_for_kernels(M, ppi, 32)
    wq = make_weight(M)(grid.nodes) * grid.quad_weights
    rng = np.random.default_rng(10 * M + ppi)
    for family in (
        [KernelSpec.fejer(n) for n in range(33)],
        [KernelSpec.poisson(r) for r in DUALITY_RADII],
        _random_step_kernels(rng, 24),
    ):
        rowsums, colsums = assemble_operator(family, grid).weighted_sums(wq)
        assert rowsums.shape == colsums.shape == (len(family), grid.node_count)
        for kernel, rows, cols in zip(family, rowsums, colsums):
            [alone_rows], [alone_cols] = assemble_operator([kernel], grid).weighted_sums(wq)
            assert np.array_equal(rows.view(np.uint64), alone_rows.view(np.uint64)), kernel
            assert np.array_equal(cols.view(np.uint64), alone_cols.view(np.uint64)), kernel


def test_family_with_a_nonfinite_kernel_in_the_middle_raises():
    grid = grid_for_kernels(2, 8, 32)
    # a step kernel with a NaN value cannot be built, so no step family holds one
    with pytest.raises(ValueError, match="finite"):
        PiecewiseConstant(edges=np.array([-PI, 0.0, PI]), values=np.array([1.0, np.nan]))
    # a sampled family meets the NaN in its first block, after the kernels before it
    def nan_kernel(t, s, work, angles):
        return np.full((t.size, s.size), np.nan)

    seen = []

    def seen_as(k, kernel):
        def recorded(t, s, work, angles):
            seen.append(k)
            return kernel(t, s, work=work, angles=angles)

        return recorded

    family = [KernelSpec.fejer(3), nan_kernel, KernelSpec.fejer(5)]
    q = grid.quad_weights
    with pytest.raises(ValueError, match="non-finite"):
        kernel_sums([seen_as(k, kernel) for k, kernel in enumerate(family)], grid.nodes,
                    grid.nodes, q, q)
    # the NaN kernel is sampled after the one before it; the one after never is
    assert seen == [0, 1]


def test_assemble_rejects_a_family_of_mixed_kinds():
    grid = grid_for_kernels(1, 8, 32)
    for kernels in ([], [KernelSpec.fejer(2), KernelSpec.poisson(0.5)]):
        with pytest.raises(ValueError, match="one kind"):
            assemble_operator(kernels, grid)


def test_seam_cuts_do_not_depend_on_the_kernel():
    # on the 410-node M = 1 duality grid, 440 seam targets per direction lie
    # within TIE of a node; the shared seam cuts, one search for rows and
    # columns, are rows 0 and P of a full per-kernel search of all P+1
    # edges, for several profiles
    grid = grid_for_kernels(1, 8, 32)
    x = grid.nodes
    assert x.size == 410
    y = np.concatenate([x - 2 * PI, x, x + 2 * PI])
    profiles = [k.profile for k in _random_step_kernels(np.random.default_rng(4), 4)]
    profiles += [
        PiecewiseConstant(
            edges=np.array([-PI, -1.0, 0.0, 1.3, PI]), values=np.array([1.0, -2.0, 0.5, 3.0])
        ),
        # end edges just inside +-pi
        PiecewiseConstant(
            edges=np.array([-PI + 9e-13, 0.2, PI - 9e-13]), values=np.array([1.0, 2.0])
        ),
    ]
    for sign in (1, -1):
        _, tied = operators._search(y, x - sign * np.array([[-PI], [PI]]))
        assert np.count_nonzero(tied) == 440
    # the seams, like the drawn profiles, are their own mirror; the fixed
    # profiles are not, so their column cuts come from a search of their own.
    # The grid is its own mirror, so each holds for the half-pivot search too
    for half in (False, True):
        seams = operators._cuts(x, y, [-PI, PI], lambda r, d: r == 0, half)
        for profile in profiles:
            edges = np.concatenate([[-PI], profile.edges[1:-1], [PI]])
            full = operators._cuts(x, y, edges, lambda r, d: profile.cell(d) >= r, half)
            for shared, cuts in zip(seams, full):
                assert np.array_equal(shared, cuts[[0, -1]]), (profile, half)
    # a node at wrapped difference pi stays in the last piece, [0.5, pi]
    last = KernelSpec.custom(
        PiecewiseConstant(edges=np.array([-PI, 0.5, PI]), values=np.array([0.0, 1.0]))
    )
    in_last = wrap_angle(x[:, None] - x[None, :]) >= 0.5
    at_pi = np.abs(x[:, None] - x[None, :]) == PI
    assert np.count_nonzero(at_pi) == 184 and np.all(in_last[at_pi])
    c = at_pi.any(axis=0) * 1.0  # the nodes with a partner pi away
    [rowsums], [colsums] = assemble_operator([last], grid).weighted_sums(c)
    assert np.array_equal(rowsums, in_last @ c)
    assert np.array_equal(colsums, c @ in_last)


@pytest.mark.parametrize("M", [1, 2])
def test_mirrored_cuts_are_the_all_pivot_search_bit_for_bit(M):
    # on the --ppi 8 duality grids (184 and 28 node pairs exactly pi apart)
    # the half-pivot search, whose lower half of each direction is read off
    # the other direction's settled upper half, gives every cut of the
    # all-pivot search, rows and columns: for the seams, for drawn even
    # profiles, for even profiles with interior edges exactly on node
    # differences, where targets fall on nodes and are settled from a start
    # one node off, and for uneven profiles, random and with interior edges
    # on wrapped node differences, whose rows and columns are searched apart
    grid = grid_for_kernels(M, 8, 32)
    x = grid.nodes
    assert x.size % 2 == 0 and np.array_equal(x, -x[::-1])
    y = np.concatenate([x - 2 * PI, x, x + 2 * PI])
    assert np.count_nonzero(np.abs(x[:, None] - x[None, :]) == PI) == (184, 28)[M - 1]
    rng = np.random.default_rng(20 + M)
    profiles = [k.profile for k in _random_step_kernels(rng, 6)]
    for a, b in rng.integers(0, x.size, size=(6, 2)):
        e = abs(float(wrap_angle(x[a] - x[b])))
        if 0 < e < PI:
            edges = np.array([-PI, -e, e, PI])
            profiles.append(PiecewiseConstant(edges=edges, values=np.array([1.0, 2.0, 1.0])))
    uneven = []
    for trial in range(8):
        inner = rng.uniform(-PI, PI, size=rng.integers(1, 6))
        if trial % 2:
            pairs = rng.integers(0, x.size, size=(rng.integers(1, 6), 2))
            inner = np.concatenate([inner[:2], wrap_angle(x[pairs[:, 0]] - x[pairs[:, 1]])])
        inner = np.unique(inner[np.abs(inner) < PI - 1e-9])
        edges = np.concatenate([[-PI], inner, [PI]])
        if not np.array_equal(edges, -edges[::-1]):
            uneven.append(PiecewiseConstant(edges=edges, values=rng.normal(size=edges.size - 1)))
    assert len(profiles) > 9 and len(uneven) > 6
    cases = [([-PI, PI], lambda r, d: r == 0)]
    cases += [(p.edges[1:-1], lambda r, d, p=p: p.cell(d) > r) for p in profiles + uneven]
    on_node = 0
    for edges, past in cases:
        e = np.asarray(edges)[:, None]
        on_node += np.count_nonzero(np.isin(x - e, y) | np.isin(x + e, y))
        half = operators._cuts(x, y, edges, past, True)
        full = operators._cuts(x, y, edges, past, False)
        for h, f in zip(half, full):
            assert h.dtype == f.dtype and np.array_equal(h, f), edges
    assert on_node > 0


@pytest.mark.parametrize("mirrored", [True, False])
def test_even_step_kernel_sums_exact_at_node_difference_edges(mirrored):
    # even profiles share one interior search for rows and columns, with
    # interior edges exactly on node differences, so each direction's ties
    # are settled by its own rule on the shared cuts.  Integer values and
    # 0/1 weights make every sum an exact integer, so the sums must equal
    # the dense lookup's exactly, on a mirrored grid and on one that is not
    grid = grid_for_kernels(1, 8, 32) if mirrored else make_grid(3, 8, extra_breakpoints=[0.3])
    x = grid.nodes
    assert np.array_equal(x, -x[::-1]) == mirrored
    D = wrap_angle(x[:, None] - x[None, :])
    rng = np.random.default_rng(7 + mirrored)
    c = rng.integers(0, 2, size=x.size).astype(float)
    tied = 0
    for _ in range(12):
        pairs = rng.integers(0, x.size, size=(rng.integers(1, 4), 2))
        pos = np.abs(D[pairs[:, 0], pairs[:, 1]])
        pos = np.unique(pos[(pos > 1e-9) & (pos < PI - 1e-9)])
        if not pos.size:
            continue
        edges = np.concatenate([[-PI], -pos[::-1], pos, [PI]])
        half = rng.integers(0, 5, size=pos.size + 1).astype(float)
        profile = PiecewiseConstant(edges=edges, values=np.concatenate([half[::-1], half[1:]]))
        dense = profile(D)
        tied += np.count_nonzero(np.isin(D, edges[1:-1]))
        [rowsums], [colsums] = assemble_operator([KernelSpec.custom(profile)], grid).weighted_sums(c)
        assert np.array_equal(rowsums, dense @ c), edges
        assert np.array_equal(colsums, c @ dense), edges
    assert tied > 0


# ------------------------------------------------------------ operator_norm


def test_norm_of_constant_kernel_is_weight_mass(weight_m4, grid_m4):
    A = assemble_operator([KernelSpec.fejer(0)], grid_m4)
    [(res, _)] = operator_norm(A, weight_m4)
    wq = weight_m4(grid_m4.nodes) * grid_m4.quad_weights
    assert abs(res.value - np.sum(wq)) <= 1e-13
    # maximizing column sits where the weight equals 1
    assert weight_m4(grid_m4.nodes[res.arg_index]) == 1.0


def test_unweighted_fejer_norm_close_to_one(unit_weight):
    n = 12
    grid = make_grid(1, 8, max_cell=2 * PI / (64 * (n + 1)))
    A = assemble_operator([KernelSpec.fejer(n)], grid)
    [norms] = operator_norm(A, unit_weight)
    for res in norms:
        assert abs(res.value - 1.0) <= 1e-4


@pytest.mark.parametrize("space", ["l1", "linf"])
def test_norm_dominates_random_probes_and_extremal_attains(space, weight_m4, grid_m4):
    kernel = KernelSpec.fejer(6)
    [norms] = operator_norm(assemble_operator([kernel], grid_m4), weight_m4)
    res = norms[["l1", "linf"].index(space)]
    nodes, q = grid_m4.nodes, grid_m4.quad_weights
    dense = kernel(nodes[:, None] - nodes[None, :])  # built once for the probes
    rng = np.random.default_rng(1)
    for _ in range(1000):
        f = rng.normal(size=grid_m4.node_count)
        fn = norm(SampledFunction(grid=grid_m4, samples=f), weight_m4, space)
        if fn == 0:
            continue
        an = norm(SampledFunction(grid=grid_m4, samples=dense @ (f * q)), weight_m4, space)
        assert an <= res.value * fn * (1 + 1e-12)
    f = _attaining_inputs(dense, *norms, weight_m4(nodes), q)[["l1", "linf"].index(space)]
    fn = norm(SampledFunction(grid=grid_m4, samples=f), weight_m4, space)
    conv = dense_convolution(kernel, grid_m4, f)
    an = norm(SampledFunction(grid=grid_m4, samples=conv), weight_m4, space)
    assert abs(an / fn - res.value) <= 1e-12 * res.value


# ------------------------------------------------------------ duality gap
# the two norms of an even nonnegative kernel on a mirrored grid agree to
# rounding, as two contractions of one kernel pass


def test_duality_gap_fejer_sweep(weight_m4):
    grid = grid_for_kernels(4, 8, 64)
    for n in (0, 1, 3, 8, 21, 64):
        A = assemble_operator([KernelSpec.fejer(n)], grid)
        assert not A.spectral
        [(l1, linf)] = operator_norm(A, weight_m4)
        gap = abs(l1.value - linf.value)
        assert gap <= 1e-10 * l1.value, n


def test_duality_gap_constant_kernel_at_rounding_level(weight_m4, grid_m4, monkeypatch):
    # both norms reduce to max_j mass(w)/w_j; the two summation passes stay
    # independent, so the gap is a couple of ulps rather than literal zero
    sampled = []

    def counting_sums(kernels, targets, sources, right, left=None):
        sampled.append((len(targets), len(sources)))
        return kernel_sums(kernels, targets, sources, right, left)

    monkeypatch.setattr(operators, "kernel_sums", counting_sums)
    [(l1, linf)] = operator_norm(assemble_operator([KernelSpec.fejer(0)], grid_m4), weight_m4)
    assert abs(l1.value - linf.value) <= 5e-15
    # the kernel went through kernel_sums, not the spectral path: the
    # upper half of the rows, since grid_m4 is its own mirror, and nothing
    # more, since a norm is read off the sums
    N = grid_m4.node_count
    assert sampled == [(N // 2, N)]


def test_duality_gap_random_step_kernels_property():
    rng = np.random.default_rng(123)
    gaps = []
    for trial in range(100):
        M = int(rng.integers(1, 7))
        grid = make_grid(M, 4)
        w = make_weight(M)
        npos = int(rng.integers(1, 5))
        pos = np.sort(rng.uniform(0.05, PI - 0.05, size=npos))
        edges = np.concatenate([[-PI], -pos[::-1], pos, [PI]])
        half = rng.uniform(0.0, 5.0, size=npos + 1)
        values = np.concatenate([half[::-1], half[1:]])
        kernel = KernelSpec.custom(PiecewiseConstant(edges=edges, values=values))
        [(l1, linf)] = operator_norm(assemble_operator([kernel], grid), w)
        gap = abs(l1.value - linf.value)
        assert gap <= 1e-10 * max(l1.value, 1e-30), trial
        gaps.append(gap)
    # rows and columns are two searches and two contractions, not one vector
    # reported twice, so some gaps show rounding
    assert max(gaps) > 0


# -------------------------------------------------------------- localization


def test_localization_m1_closed_form():
    p = localization_params(1)
    assert p.n_of_m == 1
    # kernel of order one integrates to theta + sin(theta)
    expected = PI / 4 + math.sin(PI / 4)
    assert abs(fejer_kernel_mass(1, -PI / 4, 0.0) - expected) <= 1e-12
    assert expected >= 1.0 / 3.0


def test_fejer_kernel_mass_of_order_zero_is_interval_length():
    # F_0 = 1, and the empty sum of the coefficient form adds exactly zero
    for a, b in ((-0.3, 0.2), (-PI, PI)):
        mass = fejer_kernel_mass(0, a, b)
        assert type(mass) is float and mass == b - a, (a, b)


def test_localization_certified_by_independent_quadrature():
    from fejerlab.circle import fejer_kernel_eval

    for m in (1, 4):
        p = localization_params(m)
        eps = p.epsilon
        for a, b, threshold in (
            (-eps, 0.0, 1.0 / 3.0),
            (-eps, -p.delta_n, 0.25),
        ):
            npts = 200_001
            h = (b - a) / npts
            theta = a + (np.arange(npts) + 0.5) * h
            quad = np.sum(fejer_kernel_eval(p.n_of_m, theta)) * h
            exact = fejer_kernel_mass(p.n_of_m, a, b)
            assert abs(quad - exact) <= 1e-8
            assert exact >= threshold


def test_localization_condition_persists_for_larger_orders():
    for m in (1, 4, 9):
        p = localization_params(m)
        eps = p.epsilon
        for n in (p.n_of_m + 1, p.n_of_m + 3, 2 * p.n_of_m, 4 * p.n_of_m, 8 * p.n_of_m):
            assert fejer_kernel_mass(n, -eps, 0.0) >= 1.0 / 3.0, (m, n)


def test_localization_minimality_and_delta_condition():
    p = localization_params(4)
    assert p.n_of_m >= 1
    if p.n_of_m > 1:
        assert fejer_kernel_mass(p.n_of_m - 1, -p.epsilon, 0.0) < 1.0 / 3.0
    assert fejer_kernel_mass(p.n_of_m, -p.epsilon, -p.delta_n) >= 0.25
    # delta is the largest candidate: the next multiple of epsilon/4096 fails
    step = p.epsilon / DELTA_SUBDIVISION
    assert fejer_kernel_mass(p.n_of_m, -p.epsilon, -(p.delta_n + step)) < 0.25
    assert 0 < p.delta_n < p.epsilon


def test_localization_params_unchanged_by_running_sums():
    # the spike indices of the witness ladder (m = 2..8 squared) and the
    # blow-up defaults; the values are those of the order search that called
    # fejer_kernel_mass once per order
    expected = {
        1: (1, 0.6429296977225694),
        4: (6, 0.0132186000706083),
        9: (34, 0.0025211258319416787),
        16: (108, 0.0007647433517730662),
        25: (266, 0.0003163068384620192),
        36: (551, 0.0001512083685589434),
        49: (1022, 8.169837286583772e-05),
        64: (1743, 4.779645948581664e-05),
    }
    for m, (n, delta) in expected.items():
        p = localization_params(m)
        assert (p.n_of_m, p.delta_n) == (n, delta), m
        if m <= 25:  # the per-order loop as the reference, where it is cheap
            masses = [fejer_kernel_mass(k, -p.epsilon, 0.0) for k in range(1, n + 1)]
            assert [x >= 1 / 3 for x in masses].index(True) + 1 == n, m


def test_localization_no_qualifying_order(monkeypatch):
    # the mass over [-pi/(2m)^2, 0] is below pi, half of the kernel's, at every order
    monkeypatch.setattr(operators, "ONE_THIRD", PI)
    with pytest.raises(NoQualifyingN, match=r"no order n <= 320 .* m=4"):
        localization_params(4)


# ------------------------------------------------------------------- blowup


def test_blowup_small_chain():
    w = make_weight(9)
    rows = fejer_blowup([1, 4, 9], w)
    for r in rows:
        assert r.bound == math.sqrt(r.m) / (8 * PI)
        assert r.pointwise_min >= r.bound
        assert r.norm_linfw >= r.bound
        assert r.norm_l1w >= r.bound
    norms = [r.norm_linfw for r in rows]
    assert all(a < b for a, b in zip(norms, norms[1:]))


def test_blowup_bound_value_m16():
    w = make_weight(16)
    rows = fejer_blowup([16], w)
    assert abs(rows[0].bound - 1.0 / (2 * PI)) <= 1e-15


def test_blowup_upper_bound_sanity():
    # norm on the weighted-L1 side is below sup K * mass(w) * sup(1/w)
    w = make_weight(4)
    rows = fejer_blowup([1, 4], w)
    grid = grid_for_kernels(4, 8, max(r.n_of_m for r in rows))
    wq = np.sum(w(grid.nodes) * grid.quad_weights)
    for r in rows:
        assert r.norm_l1w <= (r.n_of_m + 1.0) * wq * 1.0


def test_blowup_requires_enough_spikes():
    w = make_weight(4)
    with pytest.raises(ValueError, match="spikes"):
        fejer_blowup([1, 9], w)


@pytest.mark.parametrize("ppi", [2, 8, 16])
@pytest.mark.parametrize("m", [1, 2, 4, 9, 25, 64])
def test_blowup_grid_resolves_every_window(m, ppi):
    # the built grid puts at least 4 cells across [0, pi/(2m)^2], 2 nodes on
    # the bump and 1 in the certification window, at the coarsest --ppi
    # too, and holds -pi/(2m)^2 itself as an edge
    p = localization_params(m)
    grid = operators._blowup_grid([p], m, ppi)
    assert np.any(grid.edges == -p.epsilon)
    inside = (grid.edges > 0) & (grid.edges < p.epsilon)
    assert np.count_nonzero(inside) >= 3
    assert np.count_nonzero(make_bump(m)(grid.nodes)) >= 2
    left, right = operators._window_for(p)
    assert np.count_nonzero((grid.nodes >= left) & (grid.nodes <= right)) >= 1


def test_bump_convolution_matches_direct_path():
    w = make_weight(4)
    rows = fejer_blowup([4], w)
    r = rows[0]
    grid = grid_for_kernels(4, 8, r.n_of_m)
    bump = make_bump(4)
    conv = dense_convolution(KernelSpec.fejer(r.n_of_m), grid, bump(grid.nodes))
    lo = PI / 8 - r.delta_n
    window = (grid.nodes >= lo) & (grid.nodes <= PI / 8)
    assert np.min(conv[window]) >= r.bound


def test_blowup_bound_persists_for_larger_sampled_orders():
    # the lower bound holds for every order at or beyond the certified one
    m = 4
    w = make_weight(m)
    p = localization_params(m)
    bound = math.sqrt(m) / (8 * PI)
    for n in (p.n_of_m, p.n_of_m + 1, 2 * p.n_of_m, 4 * p.n_of_m):
        grid = grid_for_kernels(m, 8, n)
        [(_, linf)] = operator_norm(assemble_operator([KernelSpec.fejer(n)], grid), w)
        assert linf.value >= bound, n
