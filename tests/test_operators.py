import itertools
import math

import numpy as np
import pytest

from fejerlab.circle import (
    KERNEL_BLOCK,
    KernelSpec,
    PiecewiseConstant,
    SampledFunction,
    convolve_direct,
    kernel_blocks,
    make_grid,
    wrap_angle,
)
from fejerlab import operators
from fejerlab.operators import (
    DELTA_SUBDIVISION,
    GridTooCoarse,
    NoQualifyingN,
    assemble_operator,
    fejer_blowup,
    fejer_kernel_mass,
    grid_for_kernels,
    localization_params,
    make_bump,
    operator_norm,
)
from fejerlab.spaces import SpaceTag, make_weight, norm

PI = math.pi
L1, LINF = SpaceTag.WEIGHTED_L1, SpaceTag.WEIGHTED_LINF


@pytest.fixture(scope="module")
def grid_past_one_block():
    """A grid whose operator spans several kernel blocks (N^2 > KERNEL_BLOCK)."""
    grid = make_grid(4, 8, max_cell=2 * PI / 2500)  # N = 2,940: two blocks
    assert grid.node_count**2 > KERNEL_BLOCK
    return grid


@pytest.fixture(scope="module")
def grid_past_one_block_asymmetric():
    """Past one kernel block and not symmetric under negation, like blow-up's grids."""
    grid = make_grid(4, 8, max_cell=2 * PI / 2500, extra_breakpoints=[0.3, 0.61, 2.0])
    assert grid.node_count**2 > KERNEL_BLOCK  # N = 2,943
    assert np.max(np.abs(grid.nodes + grid.nodes[::-1])) > 1e-15
    return grid


# ----------------------------------------------------------------- assembly


def test_constant_kernel_maps_to_mean(grid_m1):
    kernel = KernelSpec.fejer(0)
    A = assemble_operator(kernel, grid_m1)
    rng = np.random.default_rng(0)
    f = rng.normal(size=grid_m1.node_count)
    mean = np.sum(f * grid_m1.quad_weights)
    # |K| = K = 1, so both weighted sums of f q are the mean of f
    for sums in A.weighted_sums(f * grid_m1.quad_weights):
        assert np.max(np.abs(sums - mean)) <= 1e-14
    conv = convolve_direct(SampledFunction(grid=grid_m1, samples=f), kernel)
    assert np.max(np.abs(conv.samples - mean)) <= 1e-14


def test_fejer_row_sums_close_to_one():
    n = 16
    grid = grid_for_kernels(2, 8, n, oversample=64)
    A = assemble_operator(KernelSpec.fejer(n), grid)
    rowsums, colsums = A.weighted_sums(grid.quad_weights)
    assert np.max(np.abs(rowsums - 1.0)) <= 1e-4
    assert np.max(np.abs(colsums - 1.0)) <= 1e-4


def test_fejer_matrix_symmetric_on_symmetric_grid(grid_m4):
    # a symmetric |K| has equal row and column sums against any weights
    A = assemble_operator(KernelSpec.fejer(9), grid_m4)
    c = np.random.default_rng(2).uniform(0.1, 1.0, size=grid_m4.node_count)
    rowsums, colsums = A.weighted_sums(c)
    assert np.max(np.abs(rowsums - colsums)) <= 1e-12 * np.max(rowsums)


def test_assemble_rejects_nonfinite_kernel(grid_m1, grid_past_one_block):
    bad = KernelSpec.custom(
        PiecewiseConstant(edges=np.array([-PI, 0.0, PI]), values=np.array([1.0, np.inf]))
    )
    # assembling samples nothing; the kernel is checked on first use
    for grid in (grid_m1, grid_past_one_block):
        A = assemble_operator(bad, grid)
        f = SampledFunction(grid=grid, samples=np.ones(grid.node_count))
        for use in (
            lambda: A.weighted_sums(grid.quad_weights),
            lambda: operator_norm(A, None),
            lambda: convolve_direct(f, bad),
        ):
            with pytest.raises(ValueError):
                use()


def test_weighted_sums_match_dense_matrix(
    grid_m4, grid_past_one_block, grid_past_one_block_asymmetric
):
    # one block and several blocks against a dense matrix built here; the
    # step kernel is signed and not even, so a transposed, unsigned or
    # duplicated sum vector shows.  Past one block the Fejér sums are one
    # spectral vector, so the dense matrix is their oracle there; on one
    # block they stay two contractions, which the duality check relies on.
    step = KernelSpec.custom(
        PiecewiseConstant(
            edges=np.array([-PI, -1.0, 0.0, 1.3, PI]), values=np.array([1.0, -2.0, 0.5, 3.0])
        )
    )
    w = make_weight(4)
    for kernel, grid in itertools.product(
        (KernelSpec.fejer(0), KernelSpec.fejer(7), KernelSpec.fejer(34), step),
        (grid_m4, grid_past_one_block, grid_past_one_block_asymmetric),
    ):
        dense = np.abs(kernel(grid.nodes[:, None] - grid.nodes[None, :]))
        A = assemble_operator(kernel, grid)
        wv = w(grid.nodes)
        wq = wv * grid.quad_weights
        rowsums, colsums = A.weighted_sums(wq)
        spectral = kernel.kind == "fejer" and grid is not grid_m4
        assert A.spectral == spectral and (rowsums is colsums) == spectral
        assert np.max(np.abs(rowsums - dense @ wq)) <= 1e-13
        assert np.max(np.abs(colsums - dense.T @ wq)) <= 1e-13
        norms = operator_norm(A, w)
        for tag, sums in ((L1, dense.T @ wq), (LINF, dense @ wq)):
            assert abs(norms[tag].value - np.max(sums / wv)) <= 1e-13 * norms[tag].value
        i = norms[LINF].arg_index
        signs = np.where(kernel(grid.nodes[i] - grid.nodes) < 0, -1.0, 1.0)
        assert np.array_equal(norms[LINF].extremal, wv * signs)


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
        A = assemble_operator(kernel, grid)
        assert not A.spectral
        rowsums, colsums = A.weighted_sums(wq)
        assert np.max(np.abs(rowsums - dense @ wq) / (dense @ wq)) <= 1e-13, kernel
        assert np.max(np.abs(colsums - wq @ dense) / (wq @ dense)) <= 1e-13, kernel
        norms = operator_norm(A, w)
        for tag, sums in ((L1, wq @ dense), (LINF, dense @ wq)):
            assert abs(norms[tag].value - np.max(sums / wv)) <= 1e-13 * norms[tag].value
        assert abs(norms[L1].value - norms[LINF].value) <= 1e-14 * norms[L1].value


def test_blowup_window_rows_match_closed_form_of_differences():
    # blow-up samples window nodes against bump nodes: distinct targets and
    # sources, on a grid past one kernel block
    m = 4
    grid = make_grid(m, 8, max_cell=2e-3)
    assert grid.node_count**2 > KERNEL_BLOCK
    [row] = fejer_blowup([m], make_weight(m), grid=grid)
    p = localization_params(m)
    left, right = operators._window_for(m, p)
    x = grid.nodes
    window = x[(x >= left) & (x <= right)]
    bump = make_bump(m).profile(x)
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
    dense = np.abs(kernel(nodes[:, None] - nodes[None, :]))
    wq = make_weight(4)(nodes) * grid.quad_weights
    rowsums, colsums = assemble_operator(kernel, grid).weighted_sums(wq)
    assert np.max(np.abs(rowsums - dense @ wq)) <= 1e-13
    assert np.max(np.abs(colsums - dense.T @ wq)) <= 1e-13


def test_step_kernel_prefix_sums_within_one_ulp(grid_past_one_block):
    # step-kernel sums are differences of these prefix sums; a plain cumsum
    # is 163 ulps off on these weights, compensated sums at most one
    from fractions import Fraction

    c = make_weight(4)(grid_past_one_block.nodes) * grid_past_one_block.quad_weights
    total, exact = Fraction(0), [0.0]
    for v in c:
        total += Fraction(v)
        exact.append(float(total))
    exact = np.array(exact)
    assert np.all(np.abs(operators._prefix_sums(c) - exact) <= np.spacing(exact))


# ------------------------------------------------------------ operator_norm


def test_norm_of_constant_kernel_is_weight_mass(weight_m4, grid_m4):
    A = assemble_operator(KernelSpec.fejer(0), grid_m4)
    res = operator_norm(A, weight_m4)[L1]
    wq = weight_m4(grid_m4.nodes) * grid_m4.quad_weights
    assert abs(res.value - np.sum(wq)) <= 1e-13
    # maximizing column sits where the weight equals 1
    assert weight_m4(grid_m4.nodes[res.arg_index]) == 1.0


def test_unweighted_fejer_norm_close_to_one():
    n = 12
    grid = grid_for_kernels(1, 8, n, oversample=64)
    A = assemble_operator(KernelSpec.fejer(n), grid)
    for tag, res in operator_norm(A, None).items():
        assert abs(res.value - 1.0) <= 1e-4, tag


@pytest.mark.parametrize("tag", [L1, LINF])
def test_norm_dominates_random_probes_and_extremal_attains(tag, weight_m4, grid_m4):
    kernel = KernelSpec.fejer(6)
    res = operator_norm(assemble_operator(kernel, grid_m4), weight_m4)[tag]
    nodes, q = grid_m4.nodes, grid_m4.quad_weights
    dense = kernel(nodes[:, None] - nodes[None, :])  # built once for the probes
    rng = np.random.default_rng(1)
    for _ in range(1000):
        f = rng.normal(size=grid_m4.node_count)
        fn = norm(SampledFunction(grid=grid_m4, samples=f), weight_m4, tag)
        if fn == 0:
            continue
        an = norm(SampledFunction(grid=grid_m4, samples=dense @ (f * q)), weight_m4, tag)
        assert an <= res.value * fn * (1 + 1e-12)
    ext = SampledFunction(grid=grid_m4, samples=res.extremal)
    fn = norm(ext, weight_m4, tag)
    an = norm(convolve_direct(ext, kernel), weight_m4, tag)
    assert abs(an / fn - res.value) <= 1e-12 * res.value


# ------------------------------------------------------------ duality gap
# the two norms of an even nonnegative kernel on a mirrored grid agree to
# rounding, as two contractions of one kernel pass


def test_duality_gap_fejer_sweep(weight_m4):
    grid = grid_for_kernels(4, 8, 64)
    for n in (0, 1, 3, 8, 21, 64):
        A = assemble_operator(KernelSpec.fejer(n), grid)
        assert not A.spectral
        norms = operator_norm(A, weight_m4)
        gap = abs(norms[L1].value - norms[LINF].value)
        assert gap <= 1e-10 * norms[L1].value, n


def test_duality_gap_constant_kernel_at_rounding_level(weight_m4, grid_m4, monkeypatch):
    # both norms reduce to max_j mass(w)/w_j; the two summation passes stay
    # independent, so the gap is a couple of ulps rather than literal zero
    sampled = []

    def counting_blocks(kernel, targets, sources):
        sampled.append((len(targets), len(sources)))
        return kernel_blocks(kernel, targets, sources)

    monkeypatch.setattr(operators, "kernel_blocks", counting_blocks)
    norms = operator_norm(assemble_operator(KernelSpec.fejer(0), grid_m4), weight_m4)
    assert abs(norms[L1].value - norms[LINF].value) <= 5e-15
    # the whole N x N kernel went through kernel_blocks, not the spectral path
    N = grid_m4.node_count
    assert (N, N) in sampled


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
        norms = operator_norm(assemble_operator(kernel, grid), w)
        gap = abs(norms[L1].value - norms[LINF].value)
        assert gap <= 1e-10 * max(norms[L1].value, 1e-30), trial
        gaps.append(gap)
    # rows and columns are two searches and two contractions, not one vector
    # reported twice, so some gaps show rounding
    assert max(gaps) > 0


# -------------------------------------------------------------- localization


def test_localization_m1_closed_form():
    p = localization_params(1, 16)
    assert p.n_of_m == 1
    # kernel of order one integrates to theta + sin(theta)
    expected = PI / 4 + math.sin(PI / 4)
    assert abs(fejer_kernel_mass(1, -PI / 4, 0.0) - expected) <= 1e-12
    assert expected >= 1.0 / 3.0


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
    p = localization_params(4, 2000)
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


def test_localization_no_qualifying_order():
    with pytest.raises(NoQualifyingN):
        localization_params(4, 1)


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


def test_blowup_grid_too_coarse():
    w = make_weight(16)
    coarse = make_grid(16, 2, edge_levels=0)
    with pytest.raises(GridTooCoarse):
        fejer_blowup([16], w, grid=coarse)


def test_bump_convolution_matches_direct_path():
    w = make_weight(4)
    rows = fejer_blowup([4], w)
    r = rows[0]
    grid = grid_for_kernels(4, 8, r.n_of_m)
    bump = make_bump(4)
    f = SampledFunction(grid=grid, samples=bump.profile(grid.nodes).astype(float))
    conv = convolve_direct(f, KernelSpec.fejer(r.n_of_m))
    lo = PI / 8 - r.delta_n
    window = (grid.nodes >= lo) & (grid.nodes <= PI / 8)
    assert np.min(conv.samples[window]) >= r.bound


def test_blowup_bound_persists_for_larger_sampled_orders():
    # the lower bound holds for every order at or beyond the certified one
    m = 4
    w = make_weight(m)
    p = localization_params(m, 2000)
    bound = math.sqrt(m) / (8 * PI)
    for n in (p.n_of_m, p.n_of_m + 1, 2 * p.n_of_m, 4 * p.n_of_m):
        grid = grid_for_kernels(m, 8, n)
        A = assemble_operator(KernelSpec.fejer(n), grid)
        assert operator_norm(A, w)[LINF].value >= bound, n


def test_blowup_accepts_fine_user_grid():
    m = 4
    w = make_weight(m)
    grid = make_grid(m, 8, max_cell=2e-3)
    rows = fejer_blowup([m], w, grid=grid)
    assert rows[0].pointwise_min >= rows[0].bound
    assert rows[0].norm_linfw >= rows[0].bound
