import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fejerlab.circle import KernelSpec, SampledFunction, make_grid
from fejerlab.maximal import maximal_function
from fejerlab.operators import assemble_operator, make_bump, operator_norm
from fejerlab.spaces import make_weight, spike_interval

from conftest import norm, quadrature_oracle

PI = math.pi


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
    # at M = 4,096 the weight read 1 at 4,071 of its negative spike
    # endpoints, from m = 6 on, while wrap_angle moved them by an ulp
    for M in (5, 4096):
        w = make_weight(M)
        lo, hi = np.array([spike_interval(m) for m in range(1, M + 1)]).T
        root = np.sqrt(np.arange(1, M + 1, dtype=float))
        for theta in (lo, hi, -lo, -hi, 0.5 * (lo + hi)):
            assert np.array_equal(w(theta), root), M


def _weight_by_spike_loop(M, theta):
    """Oracle: one closed-interval test per spike, sqrt(m) on
    pi/(2m) <= |theta| <= pi/(2m-1), after reducing theta exactly by
    math.remainder, not by the wrap_angle the weight itself uses."""
    t = np.abs([math.remainder(x, 2 * PI) for x in np.ravel(theta)]).reshape(np.shape(theta))
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
    # theta and -theta share one lookup; any input shape comes back
    assert np.array_equal(w(theta[:, None]), want[:, None])
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


def _truncated_weight_mass(M):
    """Closed form of the integral of the weight with M spikes over dm."""
    return 1.0 + sum((math.sqrt(m) - 1.0) / (2 * m * (2 * m - 1)) for m in range(1, M + 1))


def test_weight_l1_norm_matches_quadrature_oracle():
    w = make_weight(4)
    oracle = quadrature_oracle(lambda t: w.profile(t))
    assert abs(w.profile.integral() - _truncated_weight_mass(4)) <= 1e-15
    assert abs(w.profile.integral() - oracle) <= 2e-5


# --------------------------------------------------------------------- norms
# the grids hold every spike edge, so their sampled norms of steps that jump
# only there are exact up to rounding


def test_norm_of_one_is_truncated_weight_mass(weight_m4, grid_m4):
    one = SampledFunction(grid=grid_m4, samples=np.ones(grid_m4.node_count))
    assert abs(norm(one, weight_m4, "l1") - _truncated_weight_mass(4)) <= 1e-14


def test_bump_weighted_l1_norm_closed_form():
    w = make_weight(8)
    grid = make_grid(8, 8)
    for m in (1, 2, 3, 5, 8):
        expected = 1.0 / (4 * (2 * m - 1))
        bump = SampledFunction(grid=grid, samples=make_bump(m)(grid.nodes))
        got = norm(bump, w, "l1")
        assert abs(got - expected) <= 1e-15 * (1 + 1 / expected), m


def test_bump_weighted_linf_norm_is_one():
    w = make_weight(8)
    grid = make_grid(8, 8)
    for m in (1, 2, 5, 8):
        bump = SampledFunction(grid=grid, samples=make_bump(m)(grid.nodes))
        assert norm(bump, w, "linf") == 1.0




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
    for res in norms:
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.value = 0.0
    f = SampledFunction(grid=grid_m4, samples=weight_m4.profile(grid_m4.nodes))
    with pytest.raises(ValueError):
        maximal_function(f).samples[0] = 0.0
