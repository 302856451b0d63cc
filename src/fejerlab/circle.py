"""Grids, function representations, quadrature, Fourier coefficients,
kernels and convolution on the unit circle.

The circle is parameterized by the angle theta in (-pi, pi] and carries the
normalized measure dm = |d theta| / (2 pi), so the full circle has measure 1.

Grids are composite: the cell edges always contain the points +-pi/k for
k = 1..2M+1 (plus 0 and +-pi), so that the spiked step weights used elsewhere
in this package are represented exactly, with no sampling error.  Within each
base cell the mesh is uniform except for a short geometric (dyadic) cascade
toward both ends; clustering nodes at the weight's jump points is what makes
node-sampled suprema stable under mesh refinement.  One vectorized
construction builds the edges of all base cells from the same expressions.
Quadrature is the composite midpoint rule: nodes are cell midpoints, weights
are cell lengths divided by 2 pi.

A step function (`PiecewiseConstant`) is real and finite, and its
constructor is the one place that is checked; grid samples
(`SampledFunction`) are finite, and may be complex.

A Fourier window of half-width W is a read-only complex array of length
2W + 1 with c(k) at index k + W; every function that takes one reads W
from its length, which must be odd (ValueError otherwise: an even-length
array has no centre for c(0)).  `fejer_multiplier` writes the Fejér
damping 1 - k/(n+1) for k = 0..n, and `fejer_one_sided` the table of
Fejér means of real data: c(0), then 2 c(k) (1 - k/(n+1)).

Kernels are summed, never stored: `kernel_sums` samples the tables
K(theta_i - s_j) KERNEL_BLOCK = 2^16 samples (512 kB) at a time, each block
written in place into one workspace of three such tables, allocated once
per call, and returns the row and column contractions of the blocks.
Fejér and Poisson tables come from per-angle phase factors by angle
addition, O(rows + columns) sines per block and one einsum contraction of
the stacked factor pairs per table, which rounds as two outer products and
their sum do; near the diagonal each sine carries about 1e-16 absolute
error where fl(theta_i - s_j) would be exact.  Non-finite weights are
refused before sampling, and a non-finite sample through its row's sum.
Both kinds read one half-angle table, sin(t/2) and its square: Poisson
is written (1 - r)(1 + r) / ((1 - r)^2 + 4 r sin^2(t/2)), with no
cancellation in the denominator.  `kernel_sums` builds that table once per
block for the whole family, and every kernel finishes its own table from
it.

`trig_sum` phases over frequencies k0..k0+K-1 come from the binary powers
e^{+-i 2^j theta} (2^j theta is exact) by doubling, TRIG_BLOCK (1 MB) at a
time, each within (2 ceil(log2 K) + 2) eps when |k0| < K.  The table is
built frequency-major, one contiguous row of angles per frequency, so each
doubling step multiplies contiguous rows by one array.  Synthesis takes a
(K, m) stack of coefficient columns against one table, and `synthesize`
sums only the band between the first and last nonzero coefficient.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
KERNEL_BLOCK = 2**16  # kernel samples per block in kernel_sums (512 kB)
TRIG_BLOCK = 2**16  # complex phases per block in trig_sum (1 MB)
EDGE_LEVELS = 12  # dyadic cells toward each end of a base cell in make_grid

__all__ = [
    "CircleGrid",
    "PiecewiseConstant",
    "SampledFunction",
    "KernelSpec",
    "wrap_angle",
    "make_grid",
    "fourier_window",
    "fejer_kernel_eval",
    "poisson_kernel_eval",
    "fejer_multiplier",
    "fejer_one_sided",
    "synthesize",
    "trig_sum",
    "kernel_sums",
    "poisson_extend",
]


def wrap_angle(theta):
    """Reduce angles to the fundamental interval (-pi, pi], as a new array.

    An angle already in it comes back bit for bit: np.remainder would add
    2 pi to a negative one and round the sum, moving it by an ulp of 2 pi
    or, within about 4.4e-16 below 0, onto 0.
    """
    t = np.array(theta, dtype=float)
    inside = (t > -math.pi) & (t <= math.pi)
    if np.all(inside):
        return t
    r = np.remainder(t, TWO_PI)
    return np.where(inside, t, np.where(r > math.pi, r - TWO_PI, r))


def _frozen(a, dtype=float):
    out = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CircleGrid:
    """Composite partition of [-pi, pi] with midpoint quadrature.

    edges        cell boundaries, increasing, edges[0] = -pi, edges[-1] = pi
    nodes        cell midpoints
    quad_weights cell lengths / 2 pi; strictly positive, summing to 1
    """

    edges: np.ndarray
    nodes: np.ndarray
    quad_weights: np.ndarray

    @property
    def node_count(self) -> int:
        return self.nodes.size


def _sorted_distinct(x):
    """np.unique of a finite float array, by the same sort and adjacent
    comparison, without the np.ma.is_masked call of numpy 2's np.unique,
    which imports numpy.ma on first use."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def make_grid(
    M: int,
    points_per_interval: int,
    *,
    extra_breakpoints=(),
    max_cell: float | None = None,
) -> CircleGrid:
    """Build a composite circle grid aligned with the breakpoints +-pi/k.

    Base cell edges are 0, +-pi/k for k = 1..2M+1, and +-pi.  A base cell
    [a, b] gets `pieces` uniform cells of width u = (b - a) / pieces, edges
    a + u*j, where pieces is `points_per_interval` or more when `max_cell`
    demands it, and a cascade of EDGE_LEVELS shrinking cells at both ends,
    edges a + u*0.5**l and b - u*0.5**l: one vectorized construction for all
    base cells.  The mesh is exactly symmetric under theta -> -theta as long
    as `extra_breakpoints` (array-like, finite) is empty or symmetric.

    max_cell caps the width of every cell; pass roughly 2*pi/(8*(n+1)) when
    the grid has to resolve kernels of trigonometric degree n.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if operator.index(points_per_interval) < 2:
        raise ValueError(
            f"points_per_interval must be >= 2, got {points_per_interval}"
        )
    if max_cell is not None and not max_cell > 0:
        raise ValueError("max_cell must be positive")
    extras = np.asarray(extra_breakpoints, dtype=float).ravel()
    if not np.all(np.isfinite(extras)):
        raise ValueError("extra breakpoints must be finite")

    base = np.sort(np.append(math.pi / np.arange(1, 2 * M + 2), 0.0))
    a, b = base[:-1], base[1:]
    pieces = np.full(a.size, float(points_per_interval))
    if max_cell is not None:
        pieces = np.maximum(pieces, np.ceil((b - a) / max_cell))
    u = (b - a) / pieces
    # interior edges a + u*j, j = 1..pieces-1, of every base cell in turn; the
    # counts turn int only here, so an absurd cap fails in np.repeat, never wraps
    inner = pieces.astype(int) - 1
    cell = np.repeat(np.arange(a.size), inner)
    j = np.arange(1, cell.size + 1) - np.repeat(np.cumsum(inner) - inner, inner)
    # the dyadic cascades u*0.5**l, l = 1..EDGE_LEVELS, as (cells, levels) tables
    cascade = u[:, None] * np.array([0.5**lev for lev in range(1, EDGE_LEVELS + 1)])
    left, right = a[:, None] + cascade, b[:, None] - cascade
    pos = _sorted_distinct(
        np.concatenate([base, a[cell] + u[cell] * j, left.ravel(), right.ravel()])
    )

    edges = np.concatenate([-pos[::-1], pos[1:]])
    if extras.size:
        edges = _sorted_distinct(np.concatenate([edges, wrap_angle(extras)]))

    widths = np.diff(edges)
    if not np.all(widths > 0):
        raise ValueError("degenerate cells in grid construction")
    nodes = 0.5 * (edges[:-1] + edges[1:])
    return CircleGrid(
        edges=_frozen(edges),
        nodes=_frozen(nodes),
        quad_weights=_frozen(widths / TWO_PI),
    )


@dataclass(frozen=True)
class PiecewiseConstant:
    """Real, finite step function on the circle, exact on its own partition.

    Cells are left-closed: the value on [edges[j], edges[j+1]) is values[j],
    and the last cell is closed at pi.  Angles are wrapped to (-pi, pi]
    before lookup.  Construction is the one check of a step function: it
    raises ValueError unless the edges are finite, span [-pi, pi] and
    increase strictly, and the values are real and finite, a 1-D array of
    one per cell; both are stored as read-only float arrays.
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise ValueError("step function values must be real")
        edges = _frozen(self.edges)
        values = _frozen(self.values)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("need at least two edges")
        if values.shape != (edges.size - 1,):
            raise ValueError("values must be a 1-D array with one entry per cell")
        if not (np.all(np.isfinite(edges)) and np.all(np.isfinite(values))):
            raise ValueError("step function edges and values must be finite")
        if not (
            abs(edges[0] + math.pi) <= 1e-12 and abs(edges[-1] - math.pi) <= 1e-12
        ):
            raise ValueError("edges must span [-pi, pi]")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)

    def cell(self, theta):
        """Index of the cell that holds each angle, after wrapping."""
        t = wrap_angle(theta)
        return np.clip(
            np.searchsorted(self.edges, t, side="right") - 1, 0, self.values.size - 1
        )

    def __call__(self, theta):
        return self.values[self.cell(theta)]

    def integral(self) -> float:
        """Exact integral with respect to dm."""
        return np.sum(self.values * np.diff(self.edges)) / TWO_PI

    @staticmethod
    def indicator(a: float, b: float, value=1.0) -> "PiecewiseConstant":
        """Indicator of the arc [a, b] scaled by `value`, -pi <= a < b <= pi."""
        if not (-math.pi <= a < b <= math.pi):
            raise ValueError("need -pi <= a < b <= pi")
        edges = [-math.pi, a, b, math.pi]
        vals = [0.0, value, 0.0]
        if a == -math.pi:
            edges, vals = edges[1:], vals[1:]
        if b == math.pi:
            edges, vals = edges[:-1], vals[:-1]
        return PiecewiseConstant(edges=np.array(edges), values=np.array(vals))


@dataclass(frozen=True)
class SampledFunction:
    """Finite node samples of a function on a circle grid.

    Quadrature treats the function as constant on each cell, which is exact
    whenever the underlying function is a step function whose jumps lie on
    the grid edges.  Samples other than a finite 1-D array of one per node
    raise ValueError.
    """

    grid: CircleGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        samples = _frozen(
            samples, dtype=complex if np.iscomplexobj(samples) else float
        )
        if samples.shape != (self.grid.node_count,):
            raise ValueError("samples must be a 1-D array with one per grid node")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)


def fourier_window(f: PiecewiseConstant, window: int) -> np.ndarray:
    """All coefficients c(k) = integral of f(theta) e^{-ik theta} dm with
    |k| <= window of a step function, c(k) at index k + window of a
    read-only complex array, exact in closed form as one vectorized pass.

    Summation by parts turns the cell integrals into one sum over the jumps:
    c(k) = sum_j (v_j - v_{j-1}) e^{-ik e_j} / (2 pi i k) over the left edges
    e_j, with v_{-1} the last value, since e^{ik pi} = e^{-ik pi}.
    """
    ks = np.arange(-window, window + 1)
    jumps = f.values - np.roll(f.values, 1)
    out = trig_sum(ks, f.edges[:-1], jumps, -1) / (TWO_PI * 1j * np.where(ks, ks, 1))
    out[window] = f.integral()
    return _frozen(out, complex)


def _planes(theta, sources, work, angles):
    """The table a kernel at theta_i - sources_j is written into, the second
    plane of the workspace `work` of three tables of that shape (fresh ones
    when it is None), and the half-angle table `angles`, built in `work`
    when it is None."""
    if work is None:
        work = [np.empty(theta.shape + sources.shape) for _ in range(3)]
    return work[1], _half_angle_table(theta, sources, work) if angles is None else angles


def _pair_sum(f, g, out):
    """f_0(i) g_0(j) + f_1(i) g_1(j) for two pairs of per-angle factor
    arrays, written into `out` as one einsum contraction over the stacked
    pairs, in about 3/4 of the time of two outer products and their sum
    at a 2^16-sample block (2 cores, numpy 2.4.6).  einsum rounds each
    product and then the sum, with no fused multiply-add (the angle-table
    tests check this build), so the table is those three passes' bit for
    bit, but for the sign of a zero entry (the sum starts from +0), which
    no kernel table lets through: a Fejér entry is a square or n + 1, and
    Poisson reads only squares."""
    f, g = np.array(f), np.array(g)
    ij = list(range(1, f.ndim + g.ndim - 1))
    return np.einsum(f, [0, *ij[: f.ndim - 1]], g, [0, *ij[f.ndim - 1 :]], ij, out=out)


def _sin_table(a: float, theta, sources, out):
    """sin(a (theta_i - sources_j)) for every pair, written into `out`, by
    angle addition: sin(a t) cos(a s) + cos(a t) (-sin(a s)) from
    O(len theta + len sources) sines and cosines in one contraction
    (`_pair_sum`).  Products commute exactly, so with theta = sources the
    table is exactly antisymmetric."""
    at, au = a * theta, a * sources
    return _pair_sum((np.sin(at), np.cos(at)), (np.cos(au), -np.sin(au)), out)


def _half_angle_table(theta, sources, planes):
    """The table every sampled kernel reads, from sin((theta_i - sources_j)/2):
    the sines with the removable singularities of the Fejér kernel
    (|sin| < 1e-9, where it is n + 1) set to 1, in the first plane, the
    flat indices of those entries, and the squares of the sines before that
    patch, in the third.  The squares find those entries: rounding is
    monotone and the double below 1e-9 squares below fl(1e-9 * 1e-9), so
    fl(s^2) < fl(1e-9 * 1e-9) exactly when |s| < 1e-9."""
    s, _, squares = planes
    _sin_table(0.5, theta, sources, s)
    np.multiply(s, s, out=squares)
    tiny = np.flatnonzero(squares < 1e-9 * 1e-9)
    np.put(s, tiny, 1.0)
    return s, tiny, squares


def fejer_kernel_eval(n: int, theta, sources=0.0, work=None, angles=None):
    """Fejér kernel of order n >= 0 at t = theta_i - sources_j, as a table of
    shape theta.shape + sources.shape.

    Closed form (1/(n+1)) (sin((n+1)t/2) / sin(t/2))^2; the removable
    singularity at t = 0 (mod 2 pi) is filled with the coefficient-sum
    value n + 1.  Both sines come from `_sin_table`; with the default
    sources = 0 its factors are 1 and 0, so they are the sines of theta/2
    and (n+1) theta/2 bit for bit.  `work`, if given, holds three tables of
    the result's shape; the floating-point passes run in place in them and
    the result is the second (the singular entries are held as flat
    indices, not as a per-sample mask).  `angles` is the half-angle table of `_half_angle_table`, which depends
    only on the angles: kernels sampled at the same angles pass the one
    table, and a kernel given none builds its own in `work`.
    """
    if n < 0:
        raise ValueError("kernel order must be >= 0")
    t = np.asarray(theta, dtype=float)
    u = np.asarray(sources, dtype=float)
    out, (s, tiny, _) = _planes(t, u, work, angles)
    _sin_table(0.5 * (n + 1), t, u, out)
    out /= s
    out *= out
    out /= n + 1
    np.put(out, tiny, n + 1)
    return out if out.ndim else float(out)


def poisson_kernel_eval(r: float, theta, sources=0.0, work=None, angles=None):
    """Poisson kernel (1 - r^2) / (1 - 2 r cos t + r^2) for 0 <= r < 1 at
    t = theta_i - sources_j, as a table of shape theta.shape + sources.shape.

    It is evaluated in the half-angle form
    (1 - r)(1 + r) / ((1 - r)^2 + 4 r sin^2(t/2)), whose denominator adds
    two nonnegative terms and so has no cancellation, from the squared sines
    of `_half_angle_table`; with the default sources = 0 the sine is
    sin(theta/2) bit for bit.  `work` and `angles` are as in
    `fejer_kernel_eval`, and the result is the second table of `work`.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"need 0 <= r < 1, got {r}")
    t = np.asarray(theta, dtype=float)
    u = np.asarray(sources, dtype=float)
    out, (_, _, squares) = _planes(t, u, work, angles)
    np.multiply(squares, 4.0 * r, out=out)
    out += (1.0 - r) ** 2
    np.divide((1.0 - r) * (1.0 + r), out, out=out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelSpec:
    """Convolution kernel: Fejér of order n, Poisson at radius r, or a custom
    step profile, whose sums come from its cells and which is never
    sampled."""

    kind: str
    n: int | None = None
    r: float | None = None
    profile: PiecewiseConstant | None = field(default=None, repr=False)

    @staticmethod
    def fejer(n: int) -> "KernelSpec":
        if n < 0:
            raise ValueError("Fejér order must be >= 0")
        return KernelSpec(kind="fejer", n=int(n))

    @staticmethod
    def poisson(r: float) -> "KernelSpec":
        if not 0.0 <= r < 1.0:
            raise ValueError(f"Poisson radius must be in [0, 1), got {r}")
        return KernelSpec(kind="poisson", r=float(r))

    @staticmethod
    def custom(profile: PiecewiseConstant) -> "KernelSpec":
        if not isinstance(profile, PiecewiseConstant):
            raise TypeError("custom kernels take a PiecewiseConstant")
        return KernelSpec(kind="custom", profile=profile)

    def __call__(self, theta, sources=0.0, work=None, angles=None):
        """K(theta_i - sources_j), as a table of shape theta.shape + sources.shape.

        The table is written into the workspace `work` of three such
        tables when one is given, and reads the half-angle table `angles`
        when one is given.  A step kernel raises TypeError: its
        values are `profile` at the differences.
        """
        if self.kind == "fejer":
            return fejer_kernel_eval(self.n, theta, sources, work=work, angles=angles)
        if self.kind == "poisson":
            return poisson_kernel_eval(self.r, theta, sources, work=work, angles=angles)
        raise TypeError("a step kernel is never sampled; look up its profile")


def _half_width(c) -> int:
    """The half-width W of a window of length 2W + 1; ValueError for an
    even length, which has no centre for c(0)."""
    if len(c) % 2 == 0:
        raise ValueError(f"a Fourier window has odd length 2W + 1, got {len(c)}")
    return len(c) // 2


def fejer_multiplier(n: int) -> np.ndarray:
    """The Fejér damping 1 - k/(n+1) at k = 0..n; at -k it is the same."""
    return 1.0 - np.arange(n + 1) / (n + 1.0)


def fejer_one_sided(c, orders) -> np.ndarray:
    """Fejér means of a real function from its coefficients c(0), c(1), ...:
    column j of the (max(orders) + 1, len(orders)) table holds c(0), then
    2 c(k) (1 - k/(n_j+1)) for 0 < k <= n_j, then zeros, so the real part
    of its synthesis is the n_j-th mean.  ValueError for a negative order
    or fewer than max(orders) + 1 coefficients."""
    top = max(orders)
    if min(orders) < 0:
        raise ValueError("order must be >= 0")
    if len(c) <= top:
        raise ValueError(f"{len(c)} coefficients are too few for Fejér order {top}")
    table = np.zeros((top + 1, len(orders)), dtype=complex)
    for column, n in zip(table.T, orders):
        column[: n + 1] = c[: n + 1] * fejer_multiplier(n)
    table[1:] *= 2.0
    return table


def _phases(theta, k0: int, K: int, sign: int):
    """Table P[i, m] = e^{sign i (k0 + m) theta_i}, m < K, built
    frequency-major: a C-contiguous (K, rows) table Q, returned as its
    transpose P = Q.T.  Row 0 of Q is the product of
    z_j = e^{sign i 2^j theta} over the bits of |k0| (conjugated for
    k0 < 0), and row doubling Q[w:2w] = Q[:w] z_j, w = 2^j, multiplies
    contiguous rows by one contiguous array, about half the cost per
    element of broadcasting z_j down the columns of a row-major table."""
    bits = max(abs(k0), K - 1).bit_length()
    z = np.exp(sign * 1j * (2.0 ** np.arange(bits)[:, None] * theta))
    Q = np.empty((K, theta.size), dtype=complex)
    base = np.prod(z[[j for j in range(bits) if abs(k0) >> j & 1]], axis=0)
    Q[0] = base if k0 >= 0 else base.conj()
    for j in range((K - 1).bit_length()):
        w = 1 << j
        np.multiply(Q[: min(w, K - w)], z[j], out=Q[w : 2 * w])
    return Q.T


def trig_sum(a, b, x, sign: int):
    """Trigonometric sum sum_j x_j e^{sign i a_i b_j} for every a_i.

    One of a and b is a run of consecutive integers k0, ..., k0 + K - 1, the
    frequencies (ValueError otherwise); the angles go TRIG_BLOCK phases (1 MB)
    at a time into `_phases`, whose binary powers of e^{+-i theta} keep each
    phase within (2 ceil(log2 K) + 2) eps for |k0| < K (about 4 eps measured
    at K = 16,385), where exp at a rounded k theta is off by about K eps.
    Synthesis (b the frequencies) fills out[rows] = P @ x, and x may be a
    (K, m) stack of m coefficient columns, summed against one phase table,
    giving a (len(a), m) result; analysis accumulates out += x[rows] @ P.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    a, b = (np.ravel(np.asarray(v, dtype=float)) for v in (a, b))
    for synthesis, ks, angles in ((True, b, a), (False, a, b)):
        if ks.size and float(ks[0]).is_integer() and np.all(np.diff(ks) == 1):
            break
    else:
        raise ValueError("trig_sum needs a consecutive integer range as a or b")
    out = np.zeros((a.size,) + np.shape(x)[1:], dtype=complex)
    step = max(1, TRIG_BLOCK // ks.size)
    for start in range(0, angles.size, step):
        rows = slice(start, start + step)
        P = _phases(angles[rows], int(ks[0]), ks.size, sign)
        if synthesis:
            out[rows] = P @ x
        else:
            out += x[rows] @ P
    return out


def synthesize(c: np.ndarray, theta):
    """Evaluate sum_k c(k) e^{ik theta} at the given angles, c(k) at index
    k + W of a window of length 2W + 1; a (2W + 1, m) stack of windows gives
    one column per window.  Only the band between the first and last nonzero
    coefficient (of any column) is summed, so an analytic window, zero at
    negative k, builds a phase table of W + 1 frequencies, not 2W + 1."""
    W = _half_width(c)
    band = np.flatnonzero(np.any(np.reshape(c, (len(c), -1)), axis=1))
    lo, hi = (band[0], band[-1] + 1) if band.size else (W, W + 1)
    out = trig_sum(theta, np.arange(lo - W, hi - W), c[lo:hi], 1)
    return out if np.ndim(theta) else out[0]


def kernel_sums(kernels, targets, sources, right, left=None):
    """Contractions of a family of kernels K_k(targets_i - sources_j): the
    row sums sum_j K_k,ij right_j as a (K, len(targets)) array, row k for
    kernels[k], and, when `left` is given, the column sums
    sum_i left_i K_k,ij as a (K, len(sources)) array, else None.

    The kernels are sampled about KERNEL_BLOCK samples at a time, a block of
    rows of targets against all sources, from kernels[k](targets[rows],
    sources, work=..., angles=...), each block written into one workspace
    of three block-sized tables allocated per call and contracted both ways
    before the next is drawn.  Each block's half-angle table
    (`_half_angle_table`, sin(t/2) and its square) is built once, before any
    kernel runs, and passed to every kernel as `angles`, so each kernel's
    block is bit for bit the one it gives alone; past it a Fejér order takes
    one more contraction and 4 elementwise passes, a Poisson radius 3
    passes.  A lone kernel is a family of one.  This is the only place an
    N x N kernel is sampled, and only Fejér and Poisson kernels are: their
    blocks come from per-angle phase factors in O(len(rows) + len(sources))
    sines and are exactly symmetric when targets and sources are the same
    nodes; near the diagonal a Fejér entry differs from the closed form at
    the rounded difference by about 1e-16 (n+1) / |sin(t/2)|.

    Raises ValueError when `right` or `left` is not finite, before any
    sampling, and when a kernel produces a non-finite sample: each block's
    row contraction is checked, not the block, since with finite `right` a
    NaN sample, or an infinite one at any weight (inf * 0 is NaN), makes
    its row's sum non-finite.  Sampling and contracting run with numpy's
    invalid-operation warning off, so such a NaN (from sin(inf), say)
    raises here rather than as a RuntimeWarning.
    """
    targets = np.asarray(targets, dtype=float)
    sources = np.asarray(sources, dtype=float)
    if not (np.isfinite(right).all() and (left is None or np.isfinite(left).all())):
        raise ValueError("kernel_sums needs finite weights right and left")
    step = max(1, KERNEL_BLOCK // max(1, sources.size))
    work = np.empty((3, min(step, targets.size), sources.size))
    rowsums = np.empty((len(kernels), targets.size))
    colsums = None if left is None else np.zeros((len(kernels), sources.size))
    with np.errstate(invalid="ignore"):
        for start in range(0, targets.size, step):
            rows = slice(start, start + step)
            t = targets[rows]
            planes = work[:, : t.size]
            angles = _half_angle_table(t, sources, planes)
            for k, kernel in enumerate(kernels):
                block = np.asarray(kernel(t, sources, work=planes, angles=angles))
                row = block @ right
                if not np.isfinite(row).all():
                    raise ValueError("kernel produced non-finite samples")
                rowsums[k, rows] = row
                if left is not None:
                    colsums[k] += left[rows] @ block
    return rowsums, colsums


def poisson_extend(c: np.ndarray, r: float, theta):
    """Harmonic extension at radius r: sum_k c(k) r^{|k|} e^{ik theta}.

    For band-limited data this coincides with the Poisson integral of the
    boundary function; the series form is exact and needs no quadrature.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"need 0 <= r < 1, got {r}")
    W = _half_width(c)
    return synthesize(c * r ** np.abs(np.arange(-W, W + 1)), theta)
