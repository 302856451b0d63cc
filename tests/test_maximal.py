import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fejerlab import circle, maximal
from fejerlab.circle import PiecewiseConstant, SampledFunction, make_grid
from fejerlab.maximal import maximal_function, weight_maximal_ratio
from fejerlab.spaces import make_weight, spike_interval

PI = math.pi


def brute_force_maximal(samples, q, starts=None):
    """Exhaustive reference: every proper wrapped arc of whole cells, or
    only those that start at the cells `starts`."""
    n = samples.size
    mass = np.abs(samples) * q
    out = np.full(n, -np.inf)
    for s in range(n) if starts is None else starts:
        acc_mass, acc_len = 0.0, 0.0
        for d in range(1, n):
            j = (s + d - 1) % n
            acc_mass += mass[j]
            acc_len += q[j]
            avg = acc_mass / acc_len
            for i in range(d):
                out[(s + i) % n] = max(out[(s + i) % n], avg)
    return out


def quadratic_sweep(samples, q, dtype=float):
    """Every grid-edge arc from every start cell, O(N^2), each summed from
    its own start in `dtype`: the nested arcs from start s cover cell s+j
    when longer than j cells, so each start contributes one suffix maximum
    of its averages ordered by length."""
    n = samples.size
    length = np.tile(np.asarray(q, dtype), 2)
    mass = np.abs(np.tile(samples, 2)).astype(dtype) * length
    out = np.full(2 * n, -np.inf, dtype)
    for s in range(n):
        avg = np.cumsum(mass[s : s + n - 1]) / np.cumsum(length[s : s + n - 1])
        covered = out[s : s + n - 1]
        np.maximum(covered, np.maximum.accumulate(avg[::-1])[::-1], out=covered)
    return np.maximum(out[:n], out[n:])


def _weight_profile(M):
    """The step weight w_M on the grid `weight_maximal_ratio` builds for it."""
    w = make_weight(M)
    grid = make_grid(M, 8)
    return w, grid, w(grid.nodes)


def _grid(M, ppi, levels, **kwargs):
    """make_grid(M, ppi, **kwargs) with `levels` dyadic cells toward each end
    of a base cell in place of circle.EDGE_LEVELS: small grids for the
    cubic brute-force oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circle, "EDGE_LEVELS", levels)
        return make_grid(M, ppi, **kwargs)


def _grid_ratio(M, ppi, levels):
    """sup (Mw)/w over the nodes of _grid(M, ppi, levels)."""
    grid = _grid(M, ppi, levels)
    w = make_weight(M)(grid.nodes)
    profile = maximal_function(SampledFunction(grid=grid, samples=w)).samples
    return float(np.max(profile / w))


def _oracle_input(case):
    """(input, grid, node samples), with N <= 43 since the oracle is cubic."""
    if case == "weight-profile":
        grid = _grid(2, 2, 1)
        f = SampledFunction(grid=grid, samples=make_weight(2).profile(grid.nodes))
        return f, grid, f.samples
    extra = [0.3] if case == "asymmetric" else []
    grid = _grid(1, 3, 2, extra_breakpoints=extra)
    if case == "seam":
        # the best arcs of the first cells wrap across +-pi to the last one
        samples = np.full(grid.node_count, 0.1)
        samples[-1] = 10.0
    elif case == "falling-start":
        # at the middle cell of 5, 1, 10 among equal cells the best arc
        # starts at that cell, where |f| falls: (1 + 10) / 2 = 5.5, while
        # the best arc from a forward rise is (5 + 1 + 10) / 3
        samples = np.full(grid.node_count, 0.1)
        samples[19:22] = [5.0, 1.0, 10.0]
    elif case == "hole":
        # at the zero cell the best arc omits the shortest cell, an N-1-cell
        # arc that neither starts where |f| rises nor ends where it falls
        # when the zero sits on the longest cell, whose neighbours are longer
        # than the shortest
        samples = np.ones(grid.node_count)
        samples[np.argmax(grid.quad_weights)] = 0.0
    else:
        samples = np.random.default_rng(1).normal(size=grid.node_count)
    return SampledFunction(grid=grid, samples=samples), grid, samples


@pytest.mark.parametrize(
    "case", ["random", "asymmetric", "weight-profile", "seam", "falling-start", "hole"]
)
def test_maximal_profile_matches_bruteforce_oracle(case):
    f, grid, samples = _oracle_input(case)
    fast = maximal_function(f).samples
    slow = brute_force_maximal(samples, grid.quad_weights)
    assert np.max(np.abs(fast - slow)) <= 1e-13
    if case == "falling-start":
        # only an arc that starts on a forward fall reaches the oracle there
        rises = np.flatnonzero(samples > np.roll(samples, 1))
        forward = brute_force_maximal(samples, grid.quad_weights, rises)
        assert abs(slow[20] - 5.5) <= 1e-13
        assert abs(forward[20] - 16.0 / 3.0) <= 1e-13


def test_maximal_of_constant(grid_m1):
    f = SampledFunction(grid=grid_m1, samples=np.full(grid_m1.node_count, -3.0))
    prof = maximal_function(f)
    assert np.max(np.abs(prof.samples - 3.0)) <= 1e-9


def test_maximal_of_arc_indicator(grid_m1):
    arc = PiecewiseConstant.indicator(0.0, PI / 2)
    prof = maximal_function(SampledFunction(grid=grid_m1, samples=arc(grid_m1.nodes)))
    inside = (grid_m1.nodes > 0) & (grid_m1.nodes < PI / 2)
    assert np.max(np.abs(prof.samples[inside] - 1.0)) <= 1e-9
    assert np.all(prof.samples <= 1.0 + 1e-9)
    assert np.all(prof.samples > 0.0)


def test_maximal_at_endpoint_neighbor_matches_double_resolution_oracle():
    # quarter-measure arc; values at nodes flanking the endpoint agree with
    # the exhaustive enumeration on a twice-refined grid
    arc = PiecewiseConstant.indicator(0.0, PI / 2)
    coarse = _grid(1, 3, 1)
    fine = _grid(1, 6, 1)
    prof = maximal_function(SampledFunction(grid=coarse, samples=arc(coarse.nodes)))
    fine_samples = np.abs(arc(fine.nodes)).astype(float)
    oracle = brute_force_maximal(fine_samples, fine.quad_weights)
    neighbor = np.argmin(np.abs(coarse.nodes - (PI / 2 + 0.02)))
    fine_neighbor = np.argmin(np.abs(fine.nodes - coarse.nodes[neighbor]))
    # the fine grid offers a superset of arcs, so its maximum dominates, and
    # both sit below 1
    assert prof.samples[neighbor] <= oracle[fine_neighbor] + 1e-13
    assert oracle[fine_neighbor] <= 1.0 + 1e-14


def test_maximal_invariants(grid_m1):
    rng = np.random.default_rng(2)
    f = rng.normal(size=grid_m1.node_count)
    prof_f = maximal_function(SampledFunction(grid=grid_m1, samples=f)).samples
    assert np.all(prof_f >= np.abs(f) - 1e-9)
    assert np.max(prof_f) <= np.max(np.abs(f)) + 1e-9
    # homogeneity
    a = -2.5
    prof_af = maximal_function(SampledFunction(grid=grid_m1, samples=a * f)).samples
    assert np.max(np.abs(prof_af - abs(a) * prof_f)) <= 1e-9
    # monotone in |f|
    g = f * rng.uniform(0, 1, f.size)
    prof_g = maximal_function(SampledFunction(grid=grid_m1, samples=g)).samples
    assert np.all(prof_g <= prof_f + 1e-9)


def test_maximal_sub_averaging(grid_m1):
    rng = np.random.default_rng(3)
    f = rng.normal(size=grid_m1.node_count)
    prof = maximal_function(SampledFunction(grid=grid_m1, samples=f)).samples
    q = grid_m1.quad_weights
    mass = np.abs(f) * q
    n = grid_m1.node_count
    for _ in range(200):
        s = int(rng.integers(0, n))
        d = int(rng.integers(1, n))
        idx = [(s + j) % n for j in range(d)]
        avg = sum(mass[j] for j in idx) / sum(q[j] for j in idx)
        for i in idx:
            assert prof[i] >= avg - 1e-9


def test_maximal_wraps_around_the_seam():
    grid = _grid(1, 4, 2)
    onseam = PiecewiseConstant(
        edges=np.array([-PI, -2.8, 2.8, PI]), values=np.array([1.0, 0.0, 1.0])
    )
    prof = maximal_function(SampledFunction(grid=grid, samples=onseam(grid.nodes)))
    near_pi = np.abs(np.abs(grid.nodes) - PI) < 0.2
    assert np.max(np.abs(prof.samples[near_pi] - 1.0)) <= 1e-9


def test_weight_ratio_grows_like_sqrt_m():
    ratios = {M: _grid_ratio(M, 4, 6) for M in (2, 4, 9)}
    assert all(r >= 1.0 for r in ratios.values())
    assert ratios[4] > 1.0
    values = [ratios[m] for m in (2, 4, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_weight_ratio_lower_bound_from_single_arc():
    # arc = spike plus the adjacent cell just below it gives an explicit bound
    M, ppi, levels = 4, 4, 6
    ratio = _grid_ratio(M, ppi, levels)
    lo, hi = spike_interval(M)
    grid = _grid(M, ppi, levels)
    below = np.max(grid.edges[grid.edges < lo])
    spike_len = hi - lo
    sliver = lo - below
    expected = (math.sqrt(M) * spike_len + sliver) / (spike_len + sliver)
    assert ratio >= expected - 1e-12


def test_weight_ratio_stable_across_two_resolutions():
    # the enumeration itself is the oracle: refining the mesh may only move
    # the ratio up (more arcs), and only marginally (a finer hugging sliver)
    for M in (4, 9):
        coarse = _grid_ratio(M, 4, 8)
        fine = _grid_ratio(M, 8, 10)
        assert fine >= coarse - 1e-12
        assert abs(fine - coarse) <= 2e-3 * coarse


@pytest.mark.parametrize("M", [4, 16])
def test_weight_ratio_matches_quadratic_sweep(M):
    _, grid, samples = _weight_profile(M)
    slow = np.max(quadratic_sweep(samples, grid.quad_weights) / samples)
    fast = weight_maximal_ratio([M])[0][1]
    assert abs(fast - slow) <= 1e-12 * slow


@pytest.mark.parametrize("M", [16, 32])
def test_profile_matches_long_double_sweep(M):
    """Against every arc from every start, each summed from its start in
    long double.  Differences of prefix sums over the whole circle lose
    about 1e-8 relative on arcs over a few of the 2^-12 cascade cells."""
    _, grid, samples = _weight_profile(M)
    exact = quadratic_sweep(samples, grid.quad_weights, np.longdouble)
    fast = maximal_function(SampledFunction(grid=grid, samples=samples)).samples
    assert np.max(np.abs(fast - exact) / exact) <= 1e-13


def _assert_mirrored(grid, samples):
    """The profile of the reversed samples is the reversed profile, within
    1e-13 of its largest value.  Reversing the cells reflects theta to
    -theta on a grid that is its own mirror."""
    assert np.array_equal(grid.quad_weights, grid.quad_weights[::-1])
    fwd = maximal_function(SampledFunction(grid=grid, samples=samples)).samples
    back = maximal_function(SampledFunction(grid=grid, samples=samples[::-1])).samples
    assert np.max(np.abs(back[::-1] - fwd)) <= 1e-13 * np.max(fwd)


@pytest.mark.parametrize("case", ["weight", "random-steps"])
def test_mirrored_samples_give_mirrored_profile(case):
    # w_16 is even, so its profile must be too; the random steps are not
    grid = make_grid(16, 8)
    samples = make_weight(16)(grid.nodes)
    if case == "random-steps":
        samples = samples * np.random.default_rng(4).uniform(0.5, 2.0, grid.node_count)
    _assert_mirrored(grid, samples)


_PALETTE = [0.0, 0.5, -0.5, 1.0, 3.0]
# runs of equal |f| (0.5 and -0.5 share one), rotated across +-pi
_RUNS = st.lists(
    st.tuples(st.integers(1, 6), st.sampled_from(_PALETTE)), min_size=1, max_size=42
)


def _run_samples(grid, runs, shift):
    lengths, values = zip(*runs)
    return np.roll(np.resize(np.repeat(values, lengths), grid.node_count), shift)


@given(runs=_RUNS, shift=st.integers(0, 41))
def test_run_structured_samples_match_bruteforce(runs, shift):
    grid = _grid(1, 3, 2)
    samples = _run_samples(grid, runs, shift)
    fast = maximal_function(SampledFunction(grid=grid, samples=samples)).samples
    slow = brute_force_maximal(samples, grid.quad_weights)
    assert np.max(np.abs(fast - slow)) <= 1e-13


@given(runs=_RUNS, shift=st.integers(0, 41))
def test_run_structured_samples_give_mirrored_profile(runs, shift):
    grid = _grid(1, 3, 2)
    _assert_mirrored(grid, _run_samples(grid, runs, shift))


def test_sweep_updates_once_per_rise_of_each_direction(monkeypatch):
    # the M = 16 profile has 60 edges where it changes among 2,112 cells,
    # 30 rises read forward and 30 read backwards; sweeping from every
    # start cell would make 2,112 nested-arc updates
    _, grid, samples = _weight_profile(16)
    rises = np.count_nonzero(samples > np.roll(samples, 1))
    falls = np.count_nonzero(samples < np.roll(samples, 1))
    calls = []
    fold = maximal._fold_nested

    def counted(*args):
        calls.append(1)
        fold(*args)

    monkeypatch.setattr(maximal, "_fold_nested", counted)
    maximal_function(SampledFunction(grid=grid, samples=samples))
    assert (rises, falls, len(calls)) == (30, 30, 60)
