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
array has no centre for c(0)).  `fejer_multiplier` is the one place the
Fejér damping 1 - |k|/(n+1) is written.

Kernels are sampled as tables K(theta_i - s_j), block by block, in
`kernel_blocks`: KERNEL_BLOCK = 2^16 samples (512 kB) at a time, each block
written in place into one workspace of three such tables, allocated once
per call and reused for every block.  Fejér and Poisson tables come from
per-angle phase factors by angle addition, O(rows + columns) sines per
block; near the diagonal each sine carries about 1e-16 absolute error where
fl(theta_i - s_j) would be exact.  A family of kernels of one kind builds
each block's angle table once, sin(t/2) for every Fejér order and cos t
for every Poisson radius, and every kernel finishes its own table from it.

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
KERNEL_BLOCK = 2**16  # kernel samples per block in kernel_blocks (512 kB)
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
    "fejer_mean",
    "synthesize",
    "trig_sum",
    "kernel_blocks",
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
    increase strictly, and the values are real and finite, one per cell;
    both are stored as read-only float arrays.
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
        if values.size != edges.size - 1:
            raise ValueError("values must have one entry per cell")
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
    the grid edges.  A NaN or infinite sample raises ValueError.
    """

    grid: CircleGrid
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples)
        samples = _frozen(
            samples, dtype=complex if np.iscomplexobj(samples) else float
        )
        if samples.size != self.grid.node_count:
            raise ValueError("one sample per grid node required")
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


def _planes(work, count: int, shape):
    """`count` tables of `shape` to write a kernel table into: the leading
    planes of the workspace `work`, or fresh arrays when it is None."""
    if work is None:
        return [np.empty(shape) for _ in range(count)]
    return work[:count]


def _outer(a, b, out):
    """Outer product a_i b_j of two arrays of angle factors, written into
    `out`.  einsum takes about half the time of np.multiply.outer's
    buffered broadcast at a 2^16-sample block, and its products are the
    same but for the sign of a zero product (+0 where the factors give -0),
    which no kernel table lets through: a Fejér entry is a square or n + 1,
    a Poisson denominator adds 1."""
    a, b = np.asarray(a), np.asarray(b)
    ij = list(range(a.ndim + b.ndim))
    return np.einsum(a, ij[: a.ndim], b, ij[a.ndim :], out=out)


def _sin_table(a: float, theta, sources, out, tmp):
    """sin(a (theta_i - sources_j)) for every pair, written into `out`, by
    angle addition: sin(a t) cos(a s) - cos(a t) sin(a s) from
    O(len theta + len sources) sines and cosines and two outer products,
    the second in `tmp`.  Products commute exactly, so with
    theta = sources the table is exactly antisymmetric."""
    at, au = a * theta, a * sources
    _outer(np.sin(at), np.cos(au), out)
    out -= _outer(np.cos(at), np.sin(au), tmp)
    return out


def _half_angle_sines(theta, sources, s, tmp):
    """The table every Fejér order shares: sin((theta_i - sources_j)/2),
    written into `s` with the removable singularities (|sin| < 1e-9, where
    the kernel is n + 1) set to 1, and the flat indices of those entries."""
    _sin_table(0.5, theta, sources, s, tmp)
    tiny = np.flatnonzero(np.abs(s, out=tmp) < 1e-9)
    np.put(s, tiny, 1.0)
    return s, tiny


def _cosines(theta, sources, c, tmp):
    """The table every Poisson radius shares: cos(theta_i - sources_j) =
    cos theta_i cos sources_j + sin theta_i sin sources_j, written into `c`."""
    _outer(np.cos(theta), np.cos(sources), c)
    c += _outer(np.sin(theta), np.sin(sources), tmp)
    return c


def _shared(angles, kind, build, *args):
    """The angle table of `kind` in the dict `angles`, built by
    `build(*args)` unless a kernel of that kind, sampled at the same
    angles, stored it there; a kernel of another kind rebuilds it, since
    both kinds keep theirs in the first plane of the workspace.  With no
    dict (None) nothing is shared."""
    if angles is None:
        return build(*args)
    if kind not in angles:
        angles.clear()
        angles[kind] = build(*args)
    return angles[kind]


def fejer_kernel_eval(n: int, theta, sources=0.0, work=None, angles=None):
    """Fejér kernel of order n >= 0 at t = theta_i - sources_j, as a table of
    shape theta.shape + sources.shape.

    Closed form (1/(n+1)) (sin((n+1)t/2) / sin(t/2))^2; the removable
    singularity at t = 0 (mod 2 pi) is filled with the coefficient-sum
    value n + 1.  Both sines come from `_sin_table`; with the default
    sources = 0 its factors are 1 and 0, so they are the sines of theta/2
    and (n+1) theta/2 bit for bit.  `work`, if given, holds three tables of
    the result's shape; the floating-point passes run in place in them and
    the result is the second (the `tiny` mask takes one byte per sample).
    The sin(t/2) table, in the first, depends only on the angles: kernels
    sampled at the same angles pass one dict `angles`, and the first Fejér
    kernel stores the table there for the other orders to read.
    """
    if n < 0:
        raise ValueError("kernel order must be >= 0")
    t = np.asarray(theta, dtype=float)
    u = np.asarray(sources, dtype=float)
    s, out, tmp = _planes(work, 3, t.shape + u.shape)
    s, tiny = _shared(angles, "fejer", _half_angle_sines, t, u, s, tmp)
    _sin_table(0.5 * (n + 1), t, u, out, tmp)
    out /= s
    out *= out
    out /= n + 1
    np.put(out, tiny, n + 1)
    return out if out.ndim else float(out)


def poisson_kernel_eval(r: float, theta, sources=0.0, work=None, angles=None):
    """Poisson kernel (1 - r^2) / (1 - 2 r cos t + r^2) for 0 <= r < 1 at
    t = theta_i - sources_j, as a table of shape theta.shape + sources.shape.

    cos t comes from per-angle factors (`_cosines`); with the default
    sources = 0 it is cos theta bit for bit.  `work`, if given, holds at
    least two tables of the result's shape; the result is written into the
    second.
    The cos t table, in the first, depends only on the angles and is shared
    through `angles` as in `fejer_kernel_eval`.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"need 0 <= r < 1, got {r}")
    t = np.asarray(theta, dtype=float)
    u = np.asarray(sources, dtype=float)
    c, out = _planes(work, 2, t.shape + u.shape)
    # the result's plane is free while the shared table is built
    c = _shared(angles, "poisson", _cosines, t, u, c, out)
    np.multiply(c, -2.0 * r, out=out)
    out += 1.0
    out += r * r
    np.divide(1.0 - r * r, out, out=out)
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
        tables when one is given, and reads or stores its kind's angle
        table in the dict `angles`.  A step kernel raises TypeError: its
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
    """The Fejér damping 1 - |k|/(n+1) at k = -n..n, index k + n."""
    return 1.0 - np.abs(np.arange(-n, n + 1)) / (n + 1.0)


def fejer_mean(c: np.ndarray, n: int) -> np.ndarray:
    """Coefficients of the n-th Fejér mean, c(k) (1 - |k|/(n+1)) for |k| <= n,
    as a read-only window of half-width n.

    The input window (c(k) at index k + W, length 2W + 1) must be at least
    n, otherwise the mean is not determined by the available coefficients.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    W = _half_width(c)
    if W < n:
        raise ValueError(f"window {W} too small for Fejér order {n}")
    return _frozen(c[W - n : W + n + 1] * fejer_multiplier(n), complex)


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


def kernel_blocks(kernels, targets, sources):
    """Samples K(targets[rows] - sources) of a family of kernels, one block
    of rows at a time.

    Yields (rows, k, block) for every block of rows and, within it, every
    kernel k of the sequence `kernels` in turn: `rows` is a slice of
    `targets` and `block` of shape (len(rows), len(sources)), about
    KERNEL_BLOCK samples, from kernels[k](targets[rows], sources,
    work=..., angles=...).  One workspace of three block-sized tables is
    allocated per call and every block is written into it, so a block is
    valid only until the next one is drawn: the caller may overwrite it but
    must not keep it.  The kernels of a block share one dict `angles`, so
    Fejér orders share one sin(t/2) table and Poisson radii one cos t
    table per block, and each kernel's block is the one it gives alone.
    A lone kernel is a family of one.  This is the only place an N x N
    kernel is sampled, and only Fejér and Poisson kernels are: their blocks
    come from per-angle phase factors in O(len(rows) + len(sources)) sines
    and are exactly symmetric when targets and sources are the same nodes;
    near the diagonal a Fejér entry differs from the closed form at the
    rounded difference by about 1e-16 (n+1) / |sin(t/2)|.

    Raises ValueError when a kernel produces a non-finite sample.
    """
    targets = np.asarray(targets, dtype=float)
    sources = np.asarray(sources, dtype=float)
    step = max(1, KERNEL_BLOCK // max(1, sources.size))
    work = np.empty((3, min(step, targets.size), sources.size))
    for start in range(0, targets.size, step):
        rows = slice(start, start + step)
        t = targets[rows]
        angles = {}
        for k, kernel in enumerate(kernels):
            block = np.asarray(kernel(t, sources, work=work[:, : t.size], angles=angles))
            if not np.all(np.isfinite(block)):
                raise ValueError("kernel produced non-finite samples")
            yield rows, k, block


def poisson_extend(c: np.ndarray, r: float, theta):
    """Harmonic extension at radius r: sum_k c(k) r^{|k|} e^{ik theta}.

    For band-limited data this coincides with the Poisson integral of the
    boundary function; the series form is exact and needs no quadrature.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"need 0 <= r < 1, got {r}")
    W = _half_width(c)
    return synthesize(c * r ** np.abs(np.arange(-W, W + 1)), theta)
