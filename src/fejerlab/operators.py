"""Discretized convolution operators and their exact norms on the weighted
L1 / weighted Linf pair, plus the Fejér blow-up experiment.

On a grid with nodes theta_i and quadrature weights q_i, the operator with
kernel K acts by (Af)_i = sum_j K(theta_i - theta_j) f_j q_j.  Its norms on
the two weighted sequence spaces have closed forms:

    weighted l1 (sum |f_j| w_j q_j):   max_j  sum_i |K_ij| w_i q_i / w_j
    weighted linf (max |f_j| / w_j):   max_i  sum_j |K_ij| w_j q_j / w_i

For an even kernel the matrix K_ij is symmetric, so the two column/row sum
vectors coincide up to summation order and the two norms agree to rounding.
That is the discrete counterpart of the norm equality between a space and
its associate, and it is an identity of the model, not a grid-convergence
statement.

An operator never stores its matrix.  Fejér and Poisson sums sample the
kernel once, block by block, and take the row sums and the column sums as
two contractions of each block; each block is built from per-node phase
factors in O(N) sines (`kernel_blocks`) and is exactly symmetric, so the
two contractions read one sampled matrix.  A Fejér operator whose matrix
spans more than one kernel block uses its 2n+1 frequencies instead,
F_n(t) = sum_{|k|<=n} (1 - |k|/(n+1)) e^{ikt}, in one spectral transform of
O(N n) phases; that matrix is symmetric and nonnegative on any node set, so
its row sums and column sums are one vector.  A step kernel is never
sampled: its sums come from prefix sums of the weights over the sorted
nodes, in O(N P log N) for P pieces, with separate searches for the rows
and the columns and ties placed by the dense lookup's own test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import (
    KERNEL_BLOCK,
    TWO_PI,
    CircleGrid,
    KernelSpec,
    PiecewiseConstant,
    _frozen,
    fejer_kernel_eval,
    kernel_blocks,
    make_grid,
    trig_sum,
    wrap_angle,
)
from .spaces import SpaceTag, Weight, gap_interval, spike_interval

__all__ = [
    "OperatorMatrix",
    "Bump",
    "LocalizationParams",
    "NormResult",
    "BlowupRow",
    "NoQualifyingN",
    "GridTooCoarse",
    "assemble_operator",
    "operator_norm",
    "make_bump",
    "localization_params",
    "fejer_kernel_mass",
    "fejer_blowup",
    "grid_for_kernels",
]


class NoQualifyingN(RuntimeError):
    """No kernel order up to the search bound satisfies the 1/3 mass condition."""


class GridTooCoarse(RuntimeError):
    """Grid cells near the origin are too wide for the requested spike index."""


@dataclass(frozen=True)
class OperatorMatrix:
    """The operator with kernel K(theta_i - theta_j) on a grid's quadrature.

    The matrix is never stored: `weighted_sums` samples the kernel through
    `kernel_blocks`, block by block, on every call, unless the kernel is
    Fejér and N^2 > KERNEL_BLOCK (those sums come from its 2n+1
    frequencies) or a step kernel (those sums come from prefix sums).
    """

    grid: CircleGrid
    kernel: KernelSpec
    # not a field: the benchmark tracer's `operators.assemble` counter reads it
    entries = None

    @property
    def spectral(self) -> bool:
        """Whether `weighted_sums` returns one spectral vector as both sums."""
        return self.kernel.kind == "fejer" and self.grid.node_count**2 > KERNEL_BLOCK

    def weighted_sums(self, weights: np.ndarray):
        """Row sums sum_j |K_ij| c_j and column sums sum_i |K_ij| c_i.

        Both come from one pass over the kernel, as two contractions of each
        block, so they stay independent computations of the two norms.  A
        Fejér operator past one kernel block returns one spectral vector,
        sum_k damp_k e^{ik theta_i} sum_j e^{-ik theta_j} c_j, as both.  A
        step kernel takes `_step_sums` once for the rows and once for the
        columns; a non-finite step value raises ValueError, as sampling it
        would.
        """
        c = np.asarray(weights, dtype=float)
        nodes = self.grid.nodes
        if self.spectral:
            n = self.kernel.n
            k = np.arange(-n, n + 1)
            damp = 1.0 - np.abs(k) / (n + 1.0)
            sums = trig_sum(nodes, k, damp * trig_sum(k, nodes, c, -1), 1).real
            return sums, sums
        if self.kernel.kind == "custom":
            profile = self.kernel.profile
            if not np.all(np.isfinite(profile.values)):
                raise ValueError("kernel produced non-finite samples")
            prefix = _prefix_sums(c)
            rowsums = _step_sums(profile, nodes, prefix, 1)
            return rowsums, _step_sums(profile, nodes, prefix, -1)
        rowsums = np.empty(nodes.size)
        colsums = np.zeros(nodes.size)
        for rows, block in kernel_blocks(self.kernel, nodes, nodes):
            np.abs(block, out=block)
            rowsums[rows] = block @ c
            colsums += c[rows] @ block
        return rowsums, colsums


TIE = 1e-12  # a node this close to a search target is placed by the exact test


def _prefix_sums(c: np.ndarray) -> np.ndarray:
    """Compensated prefix sums: out[k] = sum_{j<k} c_j to about one ulp.

    `np.cumsum` adds left to right, so each step's rounding error is exact
    by TwoSum; the errors are summed on their own and added back once.
    """
    s = np.cumsum(c)
    prev = np.concatenate([[0.0], s[:-1]])
    part = s - prev
    err = (prev - (s - part)) + (c - part)
    out = np.zeros(c.size + 1)
    out[1:] = s + np.cumsum(err)
    return out


def _search(x, targets, lo, hi, holds):
    """Per target, the index b in [lo, hi] where a predicate that holds on
    [lo, b) and fails on [b, hi) switches, for the sorted nodes x.

    The float search of `targets` in x is the answer unless a node lies
    within TIE of a target.  Those entries are settled by the exact
    predicate, holds(entries, idx) for flat entry numbers, stepping one node
    at a time from the searched index.
    """
    raw = np.searchsorted(x, targets)
    b = np.clip(raw, lo, hi)
    gap = np.minimum(
        np.abs(targets - x[np.maximum(raw - 1, 0)]),
        np.abs(targets - x[np.minimum(raw, x.size - 1)]),
    )
    tied = np.flatnonzero(gap < TIE)
    flat = b.reshape(-1)
    lo = np.broadcast_to(lo, b.shape).reshape(-1)
    hi = np.broadcast_to(hi, b.shape).reshape(-1)
    left = tied[flat[tied] > lo[tied]]
    while left.size:
        left = left[~holds(left, flat[left] - 1)]
        flat[left] -= 1
        left = left[flat[left] > lo[left]]
    right = tied[flat[tied] < hi[tied]]
    while right.size:
        right = right[holds(right, flat[right])]
        flat[right] += 1
        right = right[flat[right] < hi[right]]
    return b


def _step_sums(profile: PiecewiseConstant, x, prefix, sign: int) -> np.ndarray:
    """Row sums sum_j |K(x_i - x_j)| c_j (sign +1) or column sums
    sum_i |K(x_i - x_j)| c_i (sign -1) of a step kernel K, from the
    compensated prefix sums of c over the sorted nodes x.

    For each pivot node the other index splits into at most three runs:
    where the difference wraps across the +-pi seam one way, where it does
    not wrap, and where it wraps the other way.  On each run the wrapped
    difference is monotone, so a kernel piece is one slice of it, found by
    searching x_pivot + (-2 pi, 0, 2 pi) - sign * e_p.  Membership follows
    the dense lookup exactly: wrap_angle(x_i - x_j) >= e_p, with x_i - x_j
    rounded as `kernel_blocks` rounds it.
    """
    n = x.size
    e = profile.edges[1:-1]

    def arg(piv, idx):  # x_i - x_j for rows i = piv, columns j = piv
        return sign * (x[piv] - x[idx])

    def in_first_run(piv, idx):
        d = arg(piv, idx)
        return (sign * d > 0) & (sign * wrap_angle(d) < 0)

    def before_last_run(piv, idx):
        d = arg(piv, idx)
        return (sign * d >= 0) | (sign * wrap_angle(d) <= 0)

    s1 = _search(x, x - math.pi, 0, n, in_first_run)
    s2 = _search(x, x + math.pi, 0, n, before_last_run)
    lo = np.stack([np.zeros(n, dtype=int), s1, s2], axis=1)[:, :, None]
    hi = np.stack([s1, s2, np.full(n, n)], axis=1)[:, :, None]
    shift = np.array([-TWO_PI, 0.0, TWO_PI])
    targets = x[:, None, None] + shift[None, :, None] - sign * e[None, None, :]
    per_pivot = 3 * e.size

    def before_edge(entries, idx):
        w = wrap_angle(arg(entries // per_pivot, idx))
        return (w >= e[entries % e.size]) == (sign > 0)

    cuts = _search(x, targets, lo, hi, before_edge)
    # the pieces run down the shifted edges for rows and up them for columns
    first, last = (hi, lo) if sign > 0 else (lo, hi)
    cuts = np.concatenate([first, cuts, last], axis=2)
    pieces = sign * (prefix[cuts[..., :-1]] - prefix[cuts[..., 1:]])
    return pieces.sum(axis=1) @ np.abs(profile.values)


def assemble_operator(kernel: KernelSpec, grid: CircleGrid) -> OperatorMatrix:
    """The operator of `kernel` on `grid`; the kernel is sampled on use."""
    return OperatorMatrix(grid=grid, kernel=kernel)


@dataclass(frozen=True)
class NormResult:
    value: float
    extremal: np.ndarray  # node samples of an input attaining the norm
    arg_index: int

    def __post_init__(self):
        object.__setattr__(self, "extremal", _frozen(self.extremal))


def operator_norm(A: OperatorMatrix, w: Weight | None) -> dict[SpaceTag, NormResult]:
    """Exact norms of the discrete operator on both weighted spaces.

    Returns {WEIGHTED_L1: ..., WEIGHTED_LINF: ...} from one pass over the
    kernel.  Each result carries an extremal input: a scaled single-node
    indicator for the weighted-L1 norm, and the pattern f_j = w_j
    sign(K_{i*,j}) for the weighted-Linf norm.  Applying the operator to the
    extremal input attains the returned value exactly (up to rounding),
    which is how the norm is certified in the tests.
    """
    nodes = A.grid.nodes
    q = A.grid.quad_weights
    wv = np.ones(nodes.size) if w is None else w(nodes)
    rowsums, colsums = A.weighted_sums(wv * q)

    ratios = colsums / wv
    j = int(np.argmax(ratios))
    extremal = np.zeros(nodes.size)
    extremal[j] = 1.0 / (wv[j] * q[j])
    l1 = NormResult(value=float(ratios[j]), extremal=extremal, arg_index=j)

    ratios = rowsums / wv
    i = int(np.argmax(ratios))
    [(_, row)] = kernel_blocks(A.kernel, nodes[i : i + 1], nodes)
    signs = np.sign(row[0])
    signs[signs == 0] = 1.0
    linf = NormResult(value=float(ratios[i]), extremal=wv * signs, arg_index=i)
    return {SpaceTag.WEIGHTED_L1: l1, SpaceTag.WEIGHTED_LINF: linf}


@dataclass(frozen=True)
class Bump:
    """One-sided test bump: sqrt(m) on [pi/(2m), pi/(2m-1)], zero elsewhere.

    Against any weight with at least m spikes its weighted-Linf norm is 1.
    """

    m: int
    profile: PiecewiseConstant


def make_bump(m: int) -> Bump:
    if m < 1:
        raise ValueError("spike index must be >= 1")
    lo, hi = spike_interval(m)
    return Bump(m=m, profile=PiecewiseConstant.indicator(lo, hi, math.sqrt(m)))


def fejer_kernel_mass(n: int, a: float, b: float) -> float:
    """Exact plain integral of the Fejér kernel over [a, b] (d theta, not dm).

    Termwise antiderivative of the coefficient form:
    (b - a) + 2 sum_{k=1..n} (1 - k/(n+1)) (sin k b - sin k a) / k.
    """
    if n == 0:
        return float(b - a)
    k = np.arange(1, n + 1, dtype=float)
    damp = 1.0 - k / (n + 1.0)
    terms = damp * (np.sin(k * b) - np.sin(k * a)) / k
    return float((b - a) + 2.0 * np.sum(terms))


@dataclass(frozen=True)
class LocalizationParams:
    """Certified localization data for one spike index.

    n_of_m is the smallest kernel order whose mass over [-pi/(2m)^2, 0] is at
    least 1/3; delta_n is the largest value, on a fixed fine subdivision of
    that window, keeping mass at least 1/4 over [-pi/(2m)^2, -delta_n].
    """

    m: int
    n_of_m: int
    delta_n: float

    @property
    def epsilon(self) -> float:
        return math.pi / (2 * self.m) ** 2


ONE_THIRD = 1.0 / 3.0
ONE_FOURTH = 0.25
DELTA_SUBDIVISION = 4096  # delta is a multiple of epsilon / DELTA_SUBDIVISION
MASS_TIE = 1e-12  # order masses this close to 1/3 are recomputed term by term
ORDER_CHUNK = 1 << 16  # orders scored per pass of the order search


def localization_params(m: int, n_max: int | None = None) -> LocalizationParams:
    """Find the smallest qualifying kernel order and its offset for spike m.

    The order search is exhaustive from n = 1 up to n_max (by default
    4 (2m)^2 + 64, since the window [-pi/(2m)^2, 0] shrinks like 1/(2m)^2),
    using the exact kernel mass: running sums over the frequencies give
    every order's mass in one pass, and `fejer_kernel_mass` decides the
    orders whose mass lies within MASS_TIE of 1/3.  Delta is the largest
    multiple of epsilon/DELTA_SUBDIVISION that keeps at least 1/4 of plain
    mass in [-epsilon, -delta], found by bisection.
    """
    if m < 1:
        raise ValueError("spike index must be >= 1")
    if n_max is None:
        n_max = 4 * (2 * m) ** 2 + 64
    eps = math.pi / (2 * m) ** 2
    # each order's mass is eps + 2 sum_k sin(k eps)/k - 2/(n+1) sum_k sin(k eps),
    # from running sums over k, ORDER_CHUNK orders at a time
    n_of_m = None
    sum_a = sum_b = 0.0
    for start in range(1, n_max + 1, ORDER_CHUNK):
        k = np.arange(start, min(start + ORDER_CHUNK, n_max + 1), dtype=float)
        s = np.sin(k * eps)
        a = sum_a + np.cumsum(s / k)
        b = sum_b + np.cumsum(s)
        masses = eps + 2.0 * a - 2.0 * b / (k + 1.0)
        qualifies = masses >= ONE_THIRD
        # the running sums round differently from the termwise mass
        for i in np.flatnonzero(np.abs(masses - ONE_THIRD) < MASS_TIE):
            qualifies[i] = fejer_kernel_mass(int(k[i]), -eps, 0.0) >= ONE_THIRD
        if qualifies.any():
            n_of_m = int(k[np.argmax(qualifies)])
            break
        sum_a, sum_b = a[-1], b[-1]
    if n_of_m is None:
        raise NoQualifyingN(
            f"no order n <= {n_max} puts mass 1/3 on [-pi/(2m)^2, 0] for m={m}"
        )
    # the kernel is nonnegative, so the mass over [-eps, -delta] falls as
    # delta grows: bisect for the last multiple j of eps/DELTA_SUBDIVISION
    # keeping 1/4 (j = DELTA_SUBDIVISION leaves an empty window)
    lo, hi = 0, DELTA_SUBDIVISION
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fejer_kernel_mass(n_of_m, -eps, -(eps * mid / DELTA_SUBDIVISION)) >= ONE_FOURTH:
            lo = mid
        else:
            hi = mid
    if lo == 0:
        raise NoQualifyingN(
            f"no positive offset keeps mass 1/4 for m={m}, n={n_of_m}"
        )
    return LocalizationParams(m=m, n_of_m=n_of_m, delta_n=eps * lo / DELTA_SUBDIVISION)


def grid_for_kernels(
    M: int,
    points_per_interval: int,
    max_degree: int,
    *,
    oversample: int = 8,
    extra_breakpoints=(),
) -> CircleGrid:
    """Grid whose cells also resolve band-limited kernels up to `max_degree`.

    Cell widths are capped at 2 pi / (oversample * (max_degree + 1)), so the
    midpoint sums behind the operator norms are quadrature-converged; the
    points_per_interval knob then only controls the weight-aligned cells and
    refining it leaves the reported norms essentially unchanged.
    """
    cap = 2.0 * math.pi / (oversample * (max_degree + 1))
    return make_grid(
        M,
        points_per_interval,
        max_cell=cap,
        extra_breakpoints=extra_breakpoints,
    )


@dataclass(frozen=True)
class BlowupRow:
    m: int
    n_of_m: int
    delta_n: float
    bound: float
    pointwise_min: float
    norm_linfw: float
    norm_l1w: float


def _window_for(m: int, params: LocalizationParams):
    """Certification window [max(pi/2m - delta, gap start), pi/2m]."""
    lo_gap, hi_gap = gap_interval(m)
    left = max(hi_gap - params.delta_n, np.nextafter(lo_gap, math.pi))
    return left, hi_gap


def _check_window_resolution(grid: CircleGrid, m: int):
    eps = math.pi / (2 * m) ** 2
    inside = (grid.edges > 0) & (grid.edges < eps)
    if np.count_nonzero(inside) < 3:  # fewer than 4 cells across [0, eps]
        raise GridTooCoarse(
            f"grid does not resolve pi/(2m)^2 = {eps:.3e} with >= 4 cells (m={m})"
        )


def fejer_blowup(
    m_list,
    w: Weight,
    grid: CircleGrid | None = None,
    *,
    points_per_interval: int = 8,
    oversample: int = 8,
) -> list[BlowupRow]:
    """Lower-bound experiment: unbounded operator norms along the spikes.

    For each spike index m the certified kernel order n(m) and offset delta
    are computed, the convolution of the kernel with the m-th bump is
    evaluated on the window [pi/(2m) - delta, pi/(2m)] (where the weight is
    1), and the minimum there is compared against the bound sqrt(m)/(8 pi).
    The weighted operator norms dominate that pointwise value, so the table
    exhibits norms growing without bound as m increases.

    When no grid is passed, one is built that resolves the largest certified
    kernel order and contains the certification windows as cells.
    """
    m_list = sorted(int(m) for m in m_list)
    if w.M < max(m_list):
        raise ValueError(f"weight holds M={w.M} spikes, need >= {max(m_list)}")

    params = {m: localization_params(m) for m in m_list}

    if grid is None:
        extra = []
        for m in m_list:
            left, right = _window_for(m, params[m])
            # window interior cells so several nodes certify the minimum
            extra.extend(np.linspace(left, right, 5)[:-1])
            extra.append(-params[m].epsilon)
        grid = grid_for_kernels(
            w.M,
            points_per_interval,
            max(p.n_of_m for p in params.values()),
            oversample=oversample,
            extra_breakpoints=extra,
        )

    rows = []
    q = grid.quad_weights
    for m in m_list:
        _check_window_resolution(grid, m)
        p = params[m]
        bound = math.sqrt(m) / (8.0 * math.pi)
        bump = make_bump(m)
        bump_vals = bump.profile(grid.nodes)
        support = np.nonzero(bump_vals)[0]
        if support.size < 2:
            raise GridTooCoarse(f"bump m={m} not resolved by the grid")

        left, right = _window_for(m, p)
        window = np.nonzero((grid.nodes >= left) & (grid.nodes <= right))[0]
        if window.size == 0:
            raise GridTooCoarse(f"no grid nodes in certification window for m={m}")

        # convolution restricted to the bump support
        bump_q = bump_vals[support] * q[support]
        pointwise_min = min(
            float(np.min(block @ bump_q))
            for _, block in kernel_blocks(
                lambda t, s: fejer_kernel_eval(p.n_of_m, t, s),
                grid.nodes[window],
                grid.nodes[support],
            )
        )

        norms = operator_norm(assemble_operator(KernelSpec.fejer(p.n_of_m), grid), w)
        rows.append(
            BlowupRow(
                m=m,
                n_of_m=p.n_of_m,
                delta_n=p.delta_n,
                bound=bound,
                pointwise_min=pointwise_min,
                norm_linfw=norms[SpaceTag.WEIGHTED_LINF].value,
                norm_l1w=norms[SpaceTag.WEIGHTED_L1].value,
            )
        )
    return rows
