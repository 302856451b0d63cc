"""Grids, function representations, quadrature, Fourier coefficients,
kernels and convolution on the unit circle.

The circle is parameterized by the angle theta in (-pi, pi] and carries the
normalized measure dm = |d theta| / (2 pi), so the full circle has measure 1.

Grids are composite: the cell edges always contain the points +-pi/k for
k = 1..2M+1 (plus 0 and +-pi), so that the spiked step weights used elsewhere
in this package are represented exactly, with no sampling error.  Within each
base cell the mesh is uniform except for a short geometric (dyadic) cascade
toward both ends; clustering nodes at the weight's jump points is what makes
node-sampled suprema stable under mesh refinement.  Quadrature is the
composite midpoint rule: nodes are cell midpoints, weights are cell lengths
divided by 2 pi.

Kernels are sampled as tables K(theta_i - s_j), block by block, in
`kernel_blocks`.  Fejér and Poisson tables come from per-angle phase factors
by angle addition, O(rows + columns) sines per block; near the diagonal each
sine carries about 1e-16 absolute error where fl(theta_i - s_j) would be
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
KERNEL_BLOCK = 8_000_000  # kernel samples per block in kernel_blocks
TRIG_BLOCK = 2_000_000  # complex phases per block in trig_sum

__all__ = [
    "CircleGrid",
    "PiecewiseConstant",
    "SampledFunction",
    "FourierCoefficients",
    "KernelSpec",
    "AliasingError",
    "wrap_angle",
    "make_grid",
    "fourier_window",
    "fejer_kernel_eval",
    "poisson_kernel_eval",
    "fejer_mean",
    "synthesize",
    "trig_sum",
    "kernel_blocks",
    "convolve_direct",
    "poisson_extend",
]


class AliasingError(ValueError):
    """Requested Fourier index lies beyond the safe window of a sampled function."""


def wrap_angle(theta):
    """Reduce angles to the fundamental interval (-pi, pi]."""
    t = np.remainder(np.asarray(theta, dtype=float), TWO_PI)
    return np.where(t > math.pi, t - TWO_PI, t)


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
    M: int
    points_per_interval: int

    @property
    def node_count(self) -> int:
        return self.nodes.size


def _subdivide(a: float, b: float, pieces: int, edge_levels: int) -> np.ndarray:
    """Interior edges of a base cell [a, b]: `pieces` uniform cells with a
    dyadic cascade of `edge_levels` extra cells toward each endpoint."""
    u = (b - a) / pieces
    inner = [a + u * j for j in range(1, pieces)]
    left = [a + u * 0.5**lev for lev in range(1, edge_levels + 1)]
    right = [b - u * 0.5**lev for lev in range(1, edge_levels + 1)]
    return np.array(sorted(set(inner + left + right)))


def make_grid(
    M: int,
    points_per_interval: int,
    *,
    extra_breakpoints=(),
    max_cell: float | None = None,
    edge_levels: int = 12,
) -> CircleGrid:
    """Build a composite circle grid aligned with the breakpoints +-pi/k.

    Base cell edges are 0, +-pi/k for k = 1..2M+1, and +-pi.  Every base cell
    is divided into at least `points_per_interval` uniform cells (more when
    `max_cell` demands a finer global resolution), and each base cell gets a
    geometric cascade of `edge_levels` shrinking cells at both of its ends.
    The resulting mesh is exactly symmetric under theta -> -theta as long as
    `extra_breakpoints` is empty or itself symmetric.

    max_cell caps the width of every cell; pass roughly 2*pi/(8*(n+1)) when
    the grid has to resolve kernels of trigonometric degree n.
    """
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if points_per_interval < 2:
        raise ValueError(
            f"points_per_interval must be >= 2, got {points_per_interval}"
        )
    if max_cell is not None and max_cell <= 0:
        raise ValueError("max_cell must be positive")

    base = [0.0] + [math.pi / k for k in range(1, 2 * M + 2)]
    base = np.array(sorted(base))

    pos_edges = [base]
    for a, b in zip(base[:-1], base[1:]):
        pieces = points_per_interval
        if max_cell is not None:
            pieces = max(pieces, math.ceil((b - a) / max_cell))
        pos_edges.append(_subdivide(a, b, pieces, edge_levels))
    pos = np.unique(np.concatenate(pos_edges))

    edges = np.concatenate([-pos[::-1], pos[1:]])
    if extra_breakpoints:
        extras = wrap_angle(np.asarray(extra_breakpoints, dtype=float))
        edges = np.unique(np.concatenate([edges, extras]))

    widths = np.diff(edges)
    if np.any(widths <= 0):
        raise ValueError("degenerate cells in grid construction")
    nodes = 0.5 * (edges[:-1] + edges[1:])
    return CircleGrid(
        edges=_frozen(edges),
        nodes=_frozen(nodes),
        quad_weights=_frozen(widths / TWO_PI),
        M=M,
        points_per_interval=points_per_interval,
    )


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function on the circle, exact on its own partition.

    Cells are left-closed: the value on [edges[j], edges[j+1]) is values[j],
    and the last cell is closed at pi.  Angles are wrapped to (-pi, pi]
    before lookup.
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        edges = _frozen(self.edges)
        values = np.asarray(self.values)
        values = _frozen(values, dtype=complex if np.iscomplexobj(values) else float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("need at least two edges")
        if values.size != edges.size - 1:
            raise ValueError("values must have one entry per cell")
        if not (
            abs(edges[0] + math.pi) <= 1e-12 and abs(edges[-1] - math.pi) <= 1e-12
        ):
            raise ValueError("edges must span [-pi, pi]")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)

    def __call__(self, theta):
        t = wrap_angle(theta)
        idx = np.clip(
            np.searchsorted(self.edges, t, side="right") - 1, 0, self.values.size - 1
        )
        return self.values[idx]

    def integral(self) -> complex | float:
        """Exact integral with respect to dm."""
        return np.sum(self.values * np.diff(self.edges)) / TWO_PI

    @staticmethod
    def constant(value) -> "PiecewiseConstant":
        return PiecewiseConstant(
            edges=np.array([-math.pi, math.pi]), values=np.array([value])
        )

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


def merge_partitions(f: PiecewiseConstant, g: PiecewiseConstant):
    """Common refinement of two step functions: (edges, f values, g values)."""
    edges = np.unique(np.concatenate([f.edges, g.edges]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return edges, f(mids), g(mids)


@dataclass(frozen=True)
class SampledFunction:
    """Node samples of a function on a circle grid.

    Quadrature treats the function as constant on each cell, which is exact
    whenever the underlying function is a step function whose jumps lie on
    the grid edges.
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
        object.__setattr__(self, "samples", samples)

    def integral(self):
        return np.sum(self.samples * self.grid.quad_weights)

    @staticmethod
    def from_callable(fn, grid: CircleGrid) -> "SampledFunction":
        return SampledFunction(grid=grid, samples=np.asarray(fn(grid.nodes)))


@dataclass(frozen=True)
class FourierCoefficients:
    """Finite window of coefficients c(k) for |k| <= window."""

    window: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = _frozen(np.asarray(self.coeffs), dtype=complex)
        if self.window < 0:
            raise ValueError("window must be >= 0")
        if coeffs.size != 2 * self.window + 1:
            raise ValueError("need 2*window + 1 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def __getitem__(self, k: int) -> complex:
        if abs(k) > self.window:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.window])

    @property
    def ks(self):
        return np.arange(-self.window, self.window + 1)

    @staticmethod
    def from_dict(window: int, entries: dict) -> "FourierCoefficients":
        coeffs = np.zeros(2 * window + 1, dtype=complex)
        for k, v in entries.items():
            if abs(k) > window:
                raise ValueError(f"index {k} outside window {window}")
            coeffs[k + window] = v
        return FourierCoefficients(window=window, coeffs=coeffs)


def _pc_fourier_coeff(f: PiecewiseConstant, ks):
    """Exact coefficients of a step function at the integer array `ks`.

    Summation by parts turns the cell integrals into one sum over the jumps:
    c(k) = sum_j (v_j - v_{j-1}) e^{-ik e_j} / (2 pi i k) over the left edges
    e_j, with v_{-1} the last value, since e^{ik pi} = e^{-ik pi}.
    """
    out = np.empty(ks.shape, dtype=complex)
    nz = ks != 0
    out[~nz] = f.integral()
    jumps = f.values - np.roll(f.values, 1)
    out[nz] = trig_sum(ks[nz], f.edges[:-1], jumps, -1) / (TWO_PI * 1j * ks[nz])
    return out


def fourier_window(f, window: int) -> FourierCoefficients:
    """All coefficients c(k) = integral of f(theta) e^{-ik theta} dm with
    |k| <= window, as one vectorized pass.

    Step functions use the exact closed form; sampled functions use midpoint
    quadrature and refuse windows beyond node_count/4, where the midpoint
    sums are no longer trustworthy (aliasing).
    """
    ks = np.arange(-window, window + 1)
    if isinstance(f, PiecewiseConstant):
        coeffs = _pc_fourier_coeff(f, ks)
    elif isinstance(f, SampledFunction):
        limit = f.grid.node_count // 4
        if window > limit:
            raise AliasingError(
                f"window {window} beyond safe window {limit} "
                f"for {f.grid.node_count} nodes"
            )
        fq = f.samples * f.grid.quad_weights
        coeffs = trig_sum(ks, f.grid.nodes, fq, -1)
    else:
        raise TypeError(f"unsupported representation {type(f).__name__}")
    return FourierCoefficients(window=window, coeffs=coeffs)


def _sin_table(a: float, theta, sources):
    """sin(a (theta_i - sources_j)) for every pair, by angle addition:
    sin(a t) cos(a s) - cos(a t) sin(a s) from O(len theta + len sources)
    sines and cosines and two elementwise outer products.  Products commute
    exactly, so with theta = sources the table is exactly antisymmetric."""
    at, au = a * theta, a * sources
    out = np.asarray(np.multiply.outer(np.sin(at), np.cos(au)))
    out -= np.multiply.outer(np.cos(at), np.sin(au))
    return out


def fejer_kernel_eval(n: int, theta, sources=0.0):
    """Fejér kernel of order n >= 0 at t = theta_i - sources_j, as a table of
    shape theta.shape + sources.shape.

    Closed form (1/(n+1)) (sin((n+1)t/2) / sin(t/2))^2; the removable
    singularity at t = 0 (mod 2 pi) is filled with the coefficient-sum
    value n + 1.  Both sines come from `_sin_table`; with the default
    sources = 0 its factors are 1 and 0, so they are the sines of theta/2
    and (n+1) theta/2 bit for bit.
    """
    if n < 0:
        raise ValueError("kernel order must be >= 0")
    t = np.asarray(theta, dtype=float)
    u = np.asarray(sources, dtype=float)
    s = _sin_table(0.5, t, u)
    tiny = np.abs(s) < 1e-9
    s[tiny] = 1.0
    out = _sin_table(0.5 * (n + 1), t, u)
    out /= s
    out *= out
    out /= n + 1
    out[tiny] = n + 1
    return out if out.ndim else float(out)


def poisson_kernel_eval(r: float, theta, sources=0.0):
    """Poisson kernel (1 - r^2) / (1 - 2 r cos t + r^2) for 0 <= r < 1 at
    t = theta_i - sources_j, as a table of shape theta.shape + sources.shape.

    cos t = cos theta_i cos sources_j + sin theta_i sin sources_j from
    per-angle factors; with the default sources = 0 it is cos theta bit for
    bit.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"need 0 <= r < 1, got {r}")
    t = np.asarray(theta, dtype=float)
    u = np.asarray(sources, dtype=float)
    out = np.asarray(np.multiply.outer(np.cos(t), np.cos(u)))
    out += np.multiply.outer(np.sin(t), np.sin(u))
    out *= -2.0 * r
    out += 1.0
    out += r * r
    np.divide(1.0 - r * r, out, out=out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class KernelSpec:
    """Convolution kernel: Fejér of order n, Poisson at radius r, or a custom
    step profile evaluated with wrap-around."""

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

    def __call__(self, theta, sources=0.0):
        """K(theta_i - sources_j), as a table of shape theta.shape + sources.shape."""
        if self.kind == "fejer":
            return fejer_kernel_eval(self.n, theta, sources)
        if self.kind == "poisson":
            return poisson_kernel_eval(self.r, theta, sources)
        return self.profile(np.subtract.outer(theta, sources))


def fejer_mean(f: FourierCoefficients, n: int) -> FourierCoefficients:
    """Coefficients of the n-th Fejér mean, c(k) (1 - |k|/(n+1)) for |k| <= n,
    in a window of n.

    The input window must be at least n, otherwise the mean is not
    determined by the available coefficients.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if f.window < n:
        raise ValueError(f"window {f.window} too small for Fejér order {n}")
    damp = 1.0 - np.abs(np.arange(-n, n + 1)) / (n + 1.0)
    coeffs = f.coeffs[f.window - n : f.window + n + 1] * damp
    return FourierCoefficients(window=n, coeffs=coeffs)


def trig_sum(a, b, x, sign: int):
    """Dense trigonometric sum sum_j x_j e^{sign i a_i b_j} for every a_i.

    The phase matrix is built TRIG_BLOCK entries at a time, over blocks of
    rows, so memory stays bounded however long `a` is.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    a = np.ravel(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    out = np.empty(a.size, dtype=complex)
    step = max(1, TRIG_BLOCK // max(1, b.size))
    for start in range(0, a.size, step):
        rows = slice(start, start + step)
        out[rows] = np.exp(sign * 1j * np.outer(a[rows], b)) @ x
    return out


def synthesize(f: FourierCoefficients, theta):
    """Evaluate sum_k c(k) e^{ik theta} at the given angles."""
    out = trig_sum(theta, f.ks, f.coeffs, 1)
    return out if np.ndim(theta) else complex(out[0])


def kernel_blocks(kernel, targets, sources):
    """Kernel samples K(targets[rows] - sources), one block of rows at a time.

    Yields (rows, block) with `rows` a slice of `targets` and `block` of
    shape (len(rows), len(sources)), about KERNEL_BLOCK samples each, from
    kernel(targets[rows], sources).  Each block is a fresh array that the
    caller owns and may overwrite.  This is the only place an N x N kernel
    is sampled.  Fejér and Poisson blocks come from per-angle phase factors
    in O(len(rows) + len(sources)) sines and are exactly symmetric when
    targets and sources are the same nodes; near the diagonal a Fejér entry
    differs from the closed form at the rounded difference by about
    1e-16 (n+1) / |sin(t/2)|.  A step profile looks up the rounded
    differences targets[rows, None] - sources[None, :].

    Raises ValueError when the kernel produces a non-finite sample.
    """
    targets = np.asarray(targets, dtype=float)
    sources = np.asarray(sources, dtype=float)
    step = max(1, KERNEL_BLOCK // max(1, sources.size))
    for start in range(0, targets.size, step):
        rows = slice(start, start + step)
        block = np.asarray(kernel(targets[rows], sources))
        if not np.all(np.isfinite(block)):
            raise ValueError("kernel produced non-finite samples")
        yield rows, block


def convolve_direct(f: SampledFunction, kernel: KernelSpec) -> SampledFunction:
    """Quadrature convolution (f * K)(theta_i) = sum_j K(theta_i - theta_j) f_j q_j.

    This is the discrete model of the convolution operator: applying the
    assembled operator matrix to the samples gives exactly these numbers.
    """
    nodes = f.grid.nodes
    fq = f.samples * f.grid.quad_weights
    out = np.empty(nodes.size, dtype=fq.dtype)
    for rows, block in kernel_blocks(kernel, nodes, nodes):
        out[rows] = block @ fq
    return SampledFunction(grid=f.grid, samples=out)


def poisson_extend(f: FourierCoefficients, r: float, theta):
    """Harmonic extension at radius r: sum_k c(k) r^{|k|} e^{ik theta}.

    For band-limited data this coincides with the Poisson integral of the
    boundary function; the series form is exact and needs no quadrature.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"need 0 <= r < 1, got {r}")
    damped = FourierCoefficients(
        window=f.window, coeffs=f.coeffs * r ** np.abs(f.ks)
    )
    return synthesize(damped, theta)
