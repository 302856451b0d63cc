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

An operator holds a family of kernels of one kind on one grid (a lone
kernel is a family of one) and never stores a matrix; `operator_norm`
looks the weight up once per family.  Fejér and Poisson sums come from one
`kernel_sums` call, which samples each kernel once, block by block, and
takes the row sums and the column sums as two contractions of each block;
each block is built from per-node phase factors in O(N) sines and is
exactly symmetric, so the two contractions read one sampled matrix.  In
each block the family shares one half-angle table, sin(t/2) for every
Fejér order and its square for every Poisson radius, and each kernel's
block is bit for bit the one it gives alone.  When the grid is its own
mirror exactly, N even and nodes == -nodes[::-1], and the weights
c == c[::-1] exactly (as on a `make_grid` grid without extra breakpoints,
with an even weight), only the upper N/2 rows are sampled: the kernels are even, so
row N-1-i is row i reversed.  The lower row sums are the upper ones read
backwards, and the column sums are p_j + p_{N-1-j} for the upper rows'
contraction p, so rows and columns stay two contractions of one sampled
half.  A Fejér family whose matrices have more than SPECTRAL_SWITCH
samples uses the frequencies of the real, even
F_n(t) = sum_{|k|<=n} (1 - |k|/(n+1)) e^{ikt} instead, in one analysis and
one synthesis of k = 0..n_max for the family, O(N n_max) phases; that
matrix is symmetric and nonnegative on any node set, so its row sums and
column sums are one vector.  A step kernel is never sampled: its sums come
from prefix sums of the weights over the 3N nodes extended periodically,
[x - 2 pi, x, x + 2 pi], with searches of its N (P+1) cuts, in
O(N P log N) for P pieces.  The two end cuts of every profile are the
+-pi seams, which do not depend on the profile, so a family searches them
once, and each kernel searches only its interior edges, once for rows and
columns when the edges are their own mirror.  Each node counts once, by
its copy in the window around the pivot, and ties take the dense lookup's
own cell index, so a node at wrapped difference pi stays in the last
piece.  Step kernels' rows are not mirrored (a left-closed cell makes
K(-t) != K(t) on an edge), but on a mirrored grid each direction searches
and settles the upper N/2 pivots only and reads its lower half off the
other direction's upper half: pivot N-1-p meets node N-1-j at the rounded
difference at which pivot p meets node j in the other direction, and the
column tie rule is the row rule's complement read backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import (
    TWO_PI,
    CircleGrid,
    KernelSpec,
    PiecewiseConstant,
    fejer_kernel_eval,
    fejer_multiplier,
    fejer_one_sided,
    kernel_sums,
    make_grid,
    trig_sum,
    wrap_angle,
)
from .spaces import Weight, gap_interval, spike_interval

__all__ = [
    "OperatorMatrix",
    "LocalizationParams",
    "NormResult",
    "BlowupRow",
    "NoQualifyingN",
    "assemble_operator",
    "operator_norm",
    "make_bump",
    "localization_params",
    "fejer_kernel_mass",
    "fejer_blowup",
    "grid_for_kernels",
    "kernel_cell_cap",
]

SPECTRAL_SWITCH = 8_000_000  # Fejér operators past N^2 = this (N > 2,828) go spectral


class NoQualifyingN(RuntimeError):
    """No kernel order up to the search bound satisfies the 1/3 mass condition."""


@dataclass(frozen=True)
class OperatorMatrix:
    """The operators with kernels K_k(theta_i - theta_j), k < K, of one kind
    on a grid's quadrature.

    No matrix is stored: `weighted_sums` contracts the kernels in one
    `kernel_sums` call, block by block, on every call, unless they are Fejér
    and N^2 > SPECTRAL_SWITCH (those sums come from one transform pair of
    their one-sided frequencies) or step kernels (those sums come from
    prefix sums).  On an exactly mirror-symmetric grid with mirrored
    weights it samples the upper N/2 rows only.
    """

    grid: CircleGrid
    kernels: tuple[KernelSpec, ...]
    # not a field: the benchmark tracer's `operators.assemble` counter reads it
    entries = None

    @property
    def spectral(self) -> bool:
        """Whether `weighted_sums` returns one spectral array as both sums."""
        return self.kernels[0].kind == "fejer" and self.grid.node_count**2 > SPECTRAL_SWITCH

    def weighted_sums(self, weights: np.ndarray):
        """Row sums sum_j |K_k,ij| c_j and column sums sum_i |K_k,ij| c_i,
        as two (K, N) arrays, row k for kernel k.

        Both come from one `kernel_sums` pass over each kernel, as two
        contractions of each block, so they stay independent computations of
        the two norms; Fejér and Poisson entries are nonnegative, so the
        blocks are |K|.
        The family decides once whether the grid is its own mirror, N even
        and nodes exactly -nodes[::-1].  The pass covers rows i < N/2 only
        there and with c exactly c[::-1]: the kernels are even, so row
        N-1-i is row i reversed, the lower row sums copy the upper ones
        backwards and the column sums are p + p[::-1] for the upper rows'
        column contraction p.  Otherwise every row is sampled.  Fejér
        operators past the spectral switch return one spectral array as
        both, from one analysis and one synthesis of the one-sided
        frequencies k = 0..n_max for the whole family.  Step kernels take
        both sums, mirrored search or not, from one `_step_sums` call; their
        values are finite by construction.
        """
        c = np.asarray(weights, dtype=float)
        nodes = self.grid.nodes
        if self.spectral:
            # F_n is even and c real, so with a_k = sum_j e^{-ik x_j} c_j
            # the sum over |k| <= n is the real part of the one-sided
            # Fejér table's synthesis
            orders = [kernel.n for kernel in self.kernels]
            k = np.arange(max(orders) + 1)
            table = fejer_one_sided(trig_sum(k, nodes, c, -1), orders)
            sums = trig_sum(nodes, k, table, 1).real.T
            return sums, sums
        n = nodes.size
        mirrored = n % 2 == 0 and np.array_equal(nodes, -nodes[::-1])
        if self.kernels[0].kind == "custom":
            profiles = [kernel.profile for kernel in self.kernels]
            return _step_sums(profiles, nodes, _prefix_sums(c), mirrored)
        h = n // 2 if mirrored and np.array_equal(c, c[::-1]) else n
        rowsums, colsums = kernel_sums(self.kernels, nodes[:h], nodes, c, c[:h])
        if h < n:
            # row n-1-i is row i reversed, so the lower rows' part of column
            # j is the upper rows' part of column n-1-j
            rowsums = np.concatenate([rowsums, rowsums[:, ::-1]], axis=1)
            colsums = colsums + colsums[:, ::-1]
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


def _search(y, targets):
    """The float search of `targets` among sorted nodes y that bracket every
    target, y[0] < target <= y[-1]: the indices b with
    y[b - 1] < target <= y[b], and the flags of the entries with a node
    within TIE of their target, which `_settle` places by the exact test."""
    b = np.searchsorted(y, targets)
    gap = np.minimum(targets - y[b - 1], y[b] - targets)
    return b, gap < TIE


def _settle(y, b, tied, holds):
    """Per target, the index where a predicate that holds on [0, b) and fails
    on [b, len(y)) switches: the searched indices b, in which each tied
    entry steps one node at a time by the exact predicate,
    holds(entries, idx) for flat entry numbers.  With no tied entry that is
    b itself; otherwise a copy."""
    tied = np.flatnonzero(tied)
    if not tied.size:
        return b
    flat = b.flatten()
    left = tied[flat[tied] > 0]
    while left.size:
        left = left[~holds(left, flat[left] - 1)]
        flat[left] -= 1
        left = left[flat[left] > 0]
    right = tied[flat[tied] < y.size]
    while right.size:
        right = right[holds(right, flat[right])]
        flat[right] += 1
        right = right[flat[right] < y.size]
    return flat.reshape(b.shape)


def _cuts(x, y, edges, past, mirrored):
    """Where the row cuts x_piv - edges[r] and the column cuts x_piv + edges[r]
    fall among the 3N extended nodes y = [x - 2 pi, x, x + 2 pi], for every
    pivot: two (len(edges), N) arrays of indices into y.

    Each direction is searched and settled for the pivots x[lo:], with
    lo = N/2 if the grid is its own mirror (`mirrored`: N even and
    x == -x[::-1], so y == -y[::-1]) and 0 otherwise.  Edges that are their
    own mirror, edges == -edges[::-1], make the column targets x + e_r the
    row targets x - e_{m-1-r} bit for bit (negation is exact), so one float
    search serves both, its rows reversed for the columns.  Ties follow the
    dense lookup profile(x_i - x_j) exactly: with sign +1 for rows and -1
    for columns, d = sign * (x_piv - x_j), rounded as that difference, and
    w = wrap_angle(d), the copy rint(sign * (d - w) / 2 pi) of node j is in
    the window (-pi, pi] around the pivot; copies below it come before
    every cut and copies above it after, and the window copy comes before
    cut r when past(r, d) for rows and when not for columns.  Pivot N-1-p
    meets node N-1-j at the d at which pivot p meets node j in the other
    direction, where copy 2-c passes exactly when copy c fails here, so the
    lower half of each direction is 3N - the other's upper half, reversed.
    """
    n = x.size
    lo = n // 2 if mirrored else 0
    pivots = x[lo:]

    def before_cut(sign):
        def holds(entries, idx):
            r, piv = np.divmod(entries, pivots.size)
            copy, j = np.divmod(idx, n)
            d = sign * (pivots[piv] - x[j])
            window = np.rint(sign * (d - wrap_angle(d)) / TWO_PI) + 1
            inside = past(r, d) == (sign > 0)
            return (copy < window) | ((copy == window) & inside)

        return holds

    edges = np.asarray(edges)[:, None]
    own_mirror = np.array_equal(edges, -edges[::-1])
    rows = _search(y, pivots - edges)  # edge by edge, one sorted run of targets each
    cols = [a[::-1] for a in rows] if own_mirror else _search(y, pivots + edges)
    rows, cols = _settle(y, *rows, before_cut(1)), _settle(y, *cols, before_cut(-1))
    # the lower lo pivots of each direction, none when lo = 0
    return tuple(
        np.concatenate([y.size - other[:, ::-1][:, :lo], own], axis=1)
        for own, other in ((rows, cols), (cols, rows))
    )


def _step_sums(profiles, x, prefix, mirrored):
    """Row sums sum_j |K(x_i - x_j)| c_j and column sums
    sum_i |K(x_i - x_j)| c_i of step kernels K, two (K, N) arrays with one
    row per profile, from the compensated prefix sums of c over the sorted
    nodes x.

    A profile with P pieces cuts the extended nodes y = [x - 2 pi, x,
    x + 2 pi], built once per family, at its P+1 edges (`_cuts`).  The end
    edges are taken at the +-pi seams: the lookup clips there, so the end
    cuts are the ends of the window (-pi, pi] around the pivot, whatever
    the profile's end edges within 1e-12 of +-pi, and one search places
    them for every profile and both directions; each profile's P-1 interior
    edges take one more, or two when they are not their own mirror.  When
    the grid is its own mirror (`mirrored`, decided once per family by
    `OperatorMatrix.weighted_sums`) every search and settling covers the
    upper N/2 pivots only.  Each node has one copy in that window, so a
    piece is one slice of the extended nodes and its weight a difference of
    the prefix sums over the three copies, gathered once per direction.
    """
    total = prefix[-1]
    S = np.concatenate([prefix[:-1], prefix[:-1] + total, prefix + 2.0 * total])
    y = np.concatenate([x - TWO_PI, x, x + TWO_PI])
    # every cell is past the first seam and none reaches the last, so a node
    # at wrapped difference pi stays in the last piece
    seams = _cuts(x, y, [-math.pi, math.pi], lambda r, d: r == 0, mirrored)
    sums = np.empty((2, len(profiles), x.size))
    for k, profile in enumerate(profiles):
        # interior edge r is cut r + 1: the cells at or past it are those > r
        inner = _cuts(x, y, profile.edges[1:-1], lambda r, d: profile.cell(d) > r, mirrored)
        for sign, out, seam, cut in zip((1, -1), sums[:, k], seams, inner):
            Sb = S[np.concatenate([seam[:1], cut, seam[1:]])]
            # the pieces run down the extended nodes for rows and up them for columns
            pieces = sign * (Sb[:-1] - Sb[1:])
            out[:] = np.abs(profile.values) @ pieces
    return sums[0], sums[1]


def assemble_operator(kernels, grid: CircleGrid) -> OperatorMatrix:
    """The operators of a non-empty sequence of kernels of one kind on
    `grid`; the kernels are sampled on use."""
    kernels = tuple(kernels)
    if len({kernel.kind for kernel in kernels}) != 1:
        raise ValueError("an operator family needs kernels of exactly one kind")
    return OperatorMatrix(grid=grid, kernels=kernels)


@dataclass(frozen=True)
class NormResult:
    value: float
    arg_index: int  # the node whose column (l1) or row (linf) attains the norm


def operator_norm(A: OperatorMatrix, w: Weight) -> list[tuple[NormResult, NormResult]]:
    """Exact norms of the discrete operators on both weighted spaces.

    Returns one (l1, linf) pair per kernel of A, in its order: the norm on
    weighted l1 (sum |f_j| w_j q_j), max_j of the column sums over w_j,
    then the norm on weighted linf (max |f_j| / w_j), max_i of the row sums
    over w_i, from one lookup of the weight and one pass over each kernel:
    its upper N/2 rows when the grid and the weights are exactly mirrored,
    all N rows otherwise (`OperatorMatrix.weighted_sums`).  Nothing else is
    sampled, and each space reads the family's (K, N) ratios in one pass,
    one argmax per kernel.  Each result names the node that attains it:
    the input e_j / (w_j q_j) attains the l1 norm at its column j, and
    f = w sign(K_{i,:}) the linf norm at its row i.
    """
    wv = w(A.grid.nodes)
    rowsums, colsums = A.weighted_sums(wv * A.grid.quad_weights)

    def attained(sums):
        # row by row in memory: a spectral family's sums are a transposed table
        ratios = np.divide(sums, wv, order="C")
        j = np.argmax(ratios, axis=1)
        values = ratios[np.arange(j.size), j]
        return [NormResult(value=v, arg_index=i) for v, i in zip(values.tolist(), j.tolist())]

    return list(zip(attained(colsums), attained(rowsums)))


def make_bump(m: int) -> PiecewiseConstant:
    """One-sided test bump: sqrt(m) on [pi/(2m), pi/(2m-1)], zero elsewhere.

    Against any weight with at least m spikes its weighted-Linf norm is 1.
    """
    if m < 1:
        raise ValueError("spike index must be >= 1")
    lo, hi = spike_interval(m)
    return PiecewiseConstant.indicator(lo, hi, math.sqrt(m))


def fejer_kernel_mass(n: int, a: float, b: float) -> float:
    """Exact plain integral of the Fejér kernel over [a, b] (d theta, not dm).

    Termwise antiderivative of the coefficient form:
    (b - a) + 2 sum_{k=1..n} (1 - k/(n+1)) (sin k b - sin k a) / k.
    """
    k = np.arange(1, n + 1, dtype=float)
    terms = fejer_multiplier(n)[1:] * (np.sin(k * b) - np.sin(k * a)) / k
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


def localization_params(m: int) -> LocalizationParams:
    """Find the smallest qualifying kernel order and its offset for spike m.

    The order search is exhaustive from n = 1 up to n_max = 4 (2m)^2 + 64,
    since the window [-pi/(2m)^2, 0] shrinks like 1/(2m)^2,
    using the exact kernel mass: running sums over the frequencies give
    every order's mass in one pass, and `fejer_kernel_mass` decides the
    orders whose mass lies within MASS_TIE of 1/3.  Delta is the largest
    multiple of epsilon/DELTA_SUBDIVISION that keeps at least 1/4 of plain
    mass in [-epsilon, -delta], found by bisection.
    """
    if m < 1:
        raise ValueError("spike index must be >= 1")
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
    extra_breakpoints=(),
) -> CircleGrid:
    """Grid whose cells also resolve band-limited kernels up to `max_degree`.

    Cell widths are capped at `kernel_cell_cap(max_degree)`, so the midpoint
    sums behind the operator norms are quadrature-converged; the
    points_per_interval knob then only controls the weight-aligned cells and
    refining it leaves the reported norms essentially unchanged.
    """
    return make_grid(
        M,
        points_per_interval,
        max_cell=kernel_cell_cap(max_degree),
        extra_breakpoints=extra_breakpoints,
    )


def kernel_cell_cap(max_degree: int) -> float:
    """The widest cell that resolves kernels of trigonometric degree up to
    `max_degree`: 2 pi / (8 (max_degree + 1)), eight cells per period of
    the top frequency."""
    return 2.0 * math.pi / (8 * (max_degree + 1))


@dataclass(frozen=True)
class BlowupRow:
    m: int
    n_of_m: int
    delta_n: float
    bound: float
    pointwise_min: float
    norm_linfw: float
    norm_l1w: float


def _window_for(p: LocalizationParams):
    """Certification window [max(pi/2m - delta, gap start), pi/2m]."""
    lo_gap, hi_gap = gap_interval(p.m)
    left = max(hi_gap - p.delta_n, np.nextafter(lo_gap, math.pi))
    return left, hi_gap


def _blowup_grid(params, M: int, points_per_interval: int) -> CircleGrid:
    """The grid of `fejer_blowup` for the localizations `params`: cells
    capped for the largest certified order, each certification window split
    into four cells, and every -pi/(2m)^2 a cell edge."""
    extra = []
    for p in params:
        left, right = _window_for(p)
        # window interior cells so several nodes certify the minimum
        extra.extend(np.linspace(left, right, 5)[:-1])
        extra.append(-p.epsilon)
    return grid_for_kernels(
        M,
        points_per_interval,
        max(p.n_of_m for p in params),
        extra_breakpoints=extra,
    )


def fejer_blowup(m_list, w: Weight, *, points_per_interval: int = 8) -> list[BlowupRow]:
    """Lower-bound experiment: unbounded operator norms along the spikes.

    For each spike index m the certified kernel order n(m) and offset delta
    are computed, the convolution of the kernel with the m-th bump is
    evaluated on the window [pi/(2m) - delta, pi/(2m)] (where the weight is
    1), and the minimum there is compared against the bound sqrt(m)/(8 pi).
    The weighted operator norms dominate that pointwise value, so the table
    exhibits norms growing without bound as m increases.

    All rows share one grid (`_blowup_grid`): cells of at most
    2 pi / (8 (n + 1)) for the largest certified order n, with each window
    split into four cells and -pi/(2m)^2 a cell edge, so every bump and
    every window holds grid nodes.  The norms come from one operator family
    of the distinct certified orders; spikes of one order read one pair.
    """
    m_list = sorted({int(m) for m in m_list})
    if w.M < max(m_list):
        raise ValueError(f"weight holds M={w.M} spikes, need >= {max(m_list)}")

    params = [localization_params(m) for m in m_list]
    grid = _blowup_grid(params, w.M, points_per_interval)
    orders = list(dict.fromkeys(p.n_of_m for p in params))
    family = assemble_operator([KernelSpec.fejer(n) for n in orders], grid)
    norms = dict(zip(orders, operator_norm(family, w)))

    rows = []
    q = grid.quad_weights
    for p in params:
        m = p.m
        bound = math.sqrt(m) / (8.0 * math.pi)
        bump_vals = make_bump(m)(grid.nodes)
        support = np.nonzero(bump_vals)[0]
        left, right = _window_for(p)
        window = np.nonzero((grid.nodes >= left) & (grid.nodes <= right))[0]

        # convolution restricted to the bump support
        bump_q = bump_vals[support] * q[support]
        [conv], _ = kernel_sums(
            # a plain callable, not KernelSpec.fejer: the benchmark counts
            # this sampling through `operators.fejer_kernel_eval`
            [lambda t, s, work, angles: fejer_kernel_eval(p.n_of_m, t, s, work, angles)],
            grid.nodes[window],
            grid.nodes[support],
            bump_q,
        )
        pointwise_min = float(np.min(conv))

        l1, linf = norms[p.n_of_m]
        rows.append(
            BlowupRow(
                m=m,
                n_of_m=p.n_of_m,
                delta_n=p.delta_n,
                bound=bound,
                pointwise_min=pointwise_min,
                norm_linfw=linf.value,
                norm_l1w=l1.value,
            )
        )
    return rows
