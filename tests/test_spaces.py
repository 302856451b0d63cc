import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fejerlab.circle import KernelSpec, PiecewiseConstant, SampledFunction, make_grid, wrap_angle
from fejerlab.maximal import maximal_function
from fejerlab.operators import assemble_operator, make_bump, operator_norm
from fejerlab.spaces import (
    SpaceTag,
    holder_pairing,
    make_weight,
    norm,
    spike_interval,
    weight_l1_norm_series,
)

PI = math.pi
L1, LINF = SpaceTag.WEIGHTED_L1, SpaceTag.WEIGHTED_LINF


# ------------------------------------------------------------------- weight


def test_weight_value_at_pi_is_one():
    for M in (1, 2, 5):
        assert make_weight(M)(PI) == 1.0


def test_weight_value_at_spike_left_endpoint():
    w = make_weight(2)
    assert w(PI / 4) == math.sqrt(2)  # left endpoint of the second spike


def test_weight_is_one_between_spikes():
    w = make_weight(2)
    for theta in np.linspace(PI / 5 + 1e-9, PI / 4 - 1e-9, 7):
        assert w(theta) == 1.0


def test_weight_spikes_closed_on_both_ends():
    w = make_weight(5)
    for m in range(1, 6):
        lo, hi = spike_interval(m)
        root = math.sqrt(m)
        for theta in (lo, hi, -lo, -hi, 0.5 * (lo + hi)):
            assert w(theta) == root, (m, theta)


def _weight_by_spike_loop(M, theta):
    """Oracle: one closed-interval test per spike, sqrt(m) on pi/(2m) <= |theta| <= pi/(2m-1)."""
    t = np.abs(wrap_angle(theta))
    out = np.ones_like(t)
    for m in range(1, M + 1):
        lo, hi = spike_interval(m)
        out = np.where((t >= lo) & (t <= hi), math.sqrt(m), out)
    return out


@pytest.mark.parametrize("M", [1, 25, 64, 4096])
def test_weight_lookup_matches_spike_loop_bit_for_bit(M):
    w = make_weight(M)
    rng = np.random.default_rng(M)
    ends = np.array([spike_interval(m) for m in range(1, M + 1)]).ravel()
    ends = np.concatenate([ends, -ends])  # all 4M spike endpoints
    grid = make_grid(min(M, 64), 8)
    theta = np.concatenate(
        [
            rng.uniform(-PI, PI, 10_000),
            rng.uniform(-1e-3, 1e-3, 10_000),
            ends,
            np.nextafter(ends, np.inf),
            np.nextafter(ends, -np.inf),
            [0.0, -0.0, PI, -PI, 3 * PI, np.nan],
            grid.nodes,
            grid.edges,
        ]
    )
    got, want = w(theta), _weight_by_spike_loop(M, theta)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for t in (0.3, PI / 4, -PI, np.float64(2.0)):
        value = w(t)
        assert type(value) is float and value == _weight_by_spike_loop(M, t), t


def test_weight_profile_invariants():
    w = make_weight(6)
    mids = 0.5 * (w.profile.edges[:-1] + w.profile.edges[1:])
    vals = w.profile(mids)
    assert np.all(vals >= 1.0)
    assert np.max(vals) == math.sqrt(6)
    # even in the cell structure
    assert np.max(np.abs(w.profile(mids) - w.profile(-mids))) == 0.0


@given(theta=st.floats(min_value=-PI, max_value=PI, allow_nan=False))
def test_weight_is_even(theta):
    w = make_weight(4)
    assert w(theta) == w(-theta)


def test_make_weight_rejects_bad_order():
    with pytest.raises(ValueError):
        make_weight(0)


def test_weight_l1_norm_matches_quadrature_oracle():
    from conftest import quadrature_oracle

    w = make_weight(4)
    oracle = quadrature_oracle(lambda t: w.profile(t))
    assert abs(w.l1_norm() - oracle) <= 2e-5


# -------------------------------------------------------------------- series


def test_series_first_partial_is_two_thirds():
    partial, tail = weight_l1_norm_series(1)
    assert abs(partial - 2.0 / 3.0) <= 1e-15
    assert tail > 0


def test_series_partials_nondecreasing():
    values = [weight_l1_norm_series(m)[0] for m in range(1, 40)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_series_brackets_are_nested_and_shrink():
    # [partial, partial + tail] must contain every later partial sum
    p6, t6 = weight_l1_norm_series(10**6)
    p7, t7 = weight_l1_norm_series(10**7)
    assert p6 <= p7 <= p6 + t6
    assert t7 < t6
    # the tail bound tracks the (1/2) M^{-1/2} asymptotic scale
    assert t6 <= 0.75 / math.sqrt(10**6)


def test_series_tail_is_rigorous_against_long_partial():
    p3, t3 = weight_l1_norm_series(1000)
    p_long, _ = weight_l1_norm_series(2_000_000)
    assert p_long <= p3 + t3


# --------------------------------------------------------------------- norms


def test_norm_of_one_is_truncated_weight_mass(weight_m4):
    one = PiecewiseConstant.constant(1.0)
    assert abs(norm(one, weight_m4, L1) - weight_m4.l1_norm()) <= 1e-14


def test_bump_weighted_l1_norm_closed_form():
    w = make_weight(8)
    for m in (1, 2, 3, 5, 8):
        expected = 1.0 / (4 * (2 * m - 1))
        got = norm(make_bump(m), w, L1)
        assert abs(got - expected) <= 1e-15 * (1 + 1 / expected), m
    assert abs(norm(make_bump(1), w, L1) - 0.25) <= 1e-16


def test_bump_weighted_linf_norm_is_one():
    w = make_weight(8)
    for m in (1, 2, 5, 8):
        assert norm(make_bump(m), w, LINF) == 1.0


def test_norms_on_sampled_match_exact_for_aligned_steps(weight_m4, grid_m4):
    bump = make_bump(2)
    sampled = SampledFunction(grid=grid_m4, samples=bump(grid_m4.nodes).astype(float))
    assert abs(norm(sampled, weight_m4, L1) - norm(bump, weight_m4, L1)) <= 1e-15
    assert norm(sampled, weight_m4, LINF) == norm(bump, weight_m4, LINF)


def test_unweighted_norm_is_weight_none(grid_m1):
    f = SampledFunction(grid=grid_m1, samples=np.ones(grid_m1.node_count))
    assert abs(norm(f, None, L1) - 1.0) <= 1e-14
    assert norm(f, None, LINF) == 1.0


# ----------------------------------------------------- norm axiom properties


def _random_pc(rng, complex_values=False):
    cuts = np.sort(rng.uniform(-PI, PI, size=rng.integers(1, 7)))
    edges = np.unique(np.concatenate([[-PI], cuts, [PI]]))
    size = edges.size - 1
    if complex_values:
        values = rng.normal(size=size) + 1j * rng.normal(size=size)
    else:
        values = rng.normal(size=size)
    return PiecewiseConstant(edges=edges, values=values)


@pytest.mark.parametrize("tag", [L1, LINF])
def test_norm_axioms(tag, weight_m4):
    rng = np.random.default_rng(42)
    for _ in range(50):
        f = _random_pc(rng, complex_values=True)
        g = _random_pc(rng, complex_values=True)
        a = rng.normal()
        nf, ng = norm(f, weight_m4, tag), norm(g, weight_m4, tag)
        # absolute homogeneity
        scaled = PiecewiseConstant(edges=f.edges, values=a * f.values)
        assert abs(norm(scaled, weight_m4, tag) - abs(a) * nf) <= 1e-12 * (1 + nf)
        # triangle inequality on the common refinement
        edges = np.unique(np.concatenate([f.edges, g.edges]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        s = PiecewiseConstant(edges=edges, values=f(mids) + g(mids))
        assert norm(s, weight_m4, tag) <= nf + ng + 1e-12 * (1 + nf + ng)
        # lattice property: 0 <= |g'| <= |f| implies norm(g') <= norm(f)
        shrink = PiecewiseConstant(
            edges=f.edges, values=np.abs(f.values) * rng.uniform(0, 1, f.values.size)
        )
        assert norm(shrink, weight_m4, tag) <= nf + 1e-12 * (1 + nf)


def test_weighted_l1_dominates_plain_l1(weight_m8):
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = _random_pc(rng)
        assert norm(f, None, L1) <= norm(f, weight_m8, L1) + 1e-14


def test_weighted_linf_below_sup_norm(weight_m8):
    rng = np.random.default_rng(6)
    for _ in range(25):
        f = _random_pc(rng)
        assert norm(f, weight_m8, LINF) <= np.max(np.abs(f.values)) + 1e-14


# ------------------------------------------------------------------- pairing


def test_pairing_of_constants():
    one = PiecewiseConstant.constant(1.0)
    assert abs(holder_pairing(one, one) - 1.0) <= 1e-15


def test_pairing_of_conjugate_modes(weight_m4):
    grid = make_grid(4, 8, max_cell=2e-3)
    f = SampledFunction(grid=grid, samples=np.exp(1j * grid.nodes))
    g = SampledFunction(grid=grid, samples=np.exp(-1j * grid.nodes))
    pairing = holder_pairing(f, g)
    assert abs(pairing - 1.0) <= 1e-12
    bound = norm(f, weight_m4, L1) * norm(g, weight_m4, LINF)
    assert abs(pairing) <= bound * (1 + 1e-10)


def test_pairing_of_normalized_bump(weight_m8):
    bump = make_bump(3)
    f_norm = norm(bump, weight_m8, L1)
    scaled = PiecewiseConstant(edges=bump.edges, values=bump.values / f_norm)
    pairing = holder_pairing(scaled, bump)
    assert abs(pairing) <= 1.0 * 1.0 + 1e-12


def test_holder_inequality_random_pairs(weight_m4):
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = _random_pc(rng, complex_values=True)
        g = _random_pc(rng, complex_values=True)
        lhs = abs(holder_pairing(f, g))
        rhs = norm(f, weight_m4, L1) * norm(g, weight_m4, LINF)
        assert lhs <= rhs * (1 + 1e-10)


def test_pairing_mixed_representations(grid_m4):
    pc = PiecewiseConstant.indicator(0.0, 1.0)
    sampled = SampledFunction(grid=grid_m4, samples=np.ones(grid_m4.node_count))
    # the indicator's edge at 1.0 is not a grid edge, so quadrature only
    assert abs(holder_pairing(pc, sampled) - holder_pairing(sampled, pc)) == 0.0


def test_bump_support_is_one_sided():
    bump = make_bump(3)
    neg = np.linspace(-PI, -1e-9, 101)
    assert np.max(np.abs(bump(neg))) == 0.0
    lo, hi = spike_interval(3)
    assert bump(0.5 * (lo + hi)) == math.sqrt(3)


def test_value_arrays_are_frozen(weight_m4, grid_m4):
    with pytest.raises(ValueError):
        weight_m4.profile.values[0] = 7.0
    with pytest.raises(ValueError):
        grid_m4.nodes[0] = 0.0
    A = assemble_operator([KernelSpec.fejer(3)], grid_m4)
    [norms] = operator_norm(A, weight_m4)
    for res in norms.values():
        with pytest.raises(ValueError):
            res.extremal[0] = 0.0
    f = SampledFunction.from_callable(weight_m4.profile, grid_m4)
    with pytest.raises(ValueError):
        maximal_function(f).samples[0] = 0.0
