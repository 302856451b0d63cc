"""Brute-force Hardy-Littlewood maximal function on the circle.

The supremum over arcs is replaced by a maximum over the finitely many arcs
whose endpoints are grid cell edges (wrapping across +-pi, proper arcs only).
For step inputs whose jumps lie on the grid this maximum is exact arc
arithmetic.  The companion experiment tracks sup (Mw)/w for the truncated
spiked weights: in the discrete model this ratio is the norm of the maximal
operator on the weighted-Linf space, and it grows without bound with the
truncation order, which is why norm convergence of Fejér means fails on the
weighted-L1 side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import CircleGrid, PiecewiseConstant, SampledFunction, _frozen, make_grid
from .spaces import make_weight

__all__ = [
    "MaximalProfile",
    "maximal_function",
    "weight_maximal_ratio",
    "sliding_max",
]


@dataclass(frozen=True)
class MaximalProfile:
    grid: CircleGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))

    @property
    def sup(self) -> float:
        return float(np.max(self.values))


def sliding_max(a: np.ndarray, window: int) -> np.ndarray:
    """out[i] = max(a[i-window+1 .. i]) with circular wrap, in O(len) time.

    Van Herk / Gil-Werman: block prefix and suffix maxima of block size
    `window`; each window spans at most two blocks.
    """
    a = np.asarray(a, dtype=float)
    n = a.size
    if not 1 <= window <= n:
        raise ValueError("window must be in [1, len]")
    if window == 1:
        return a.copy()
    ext = np.concatenate([a[-(window - 1):], a])
    m = ext.size
    nblocks = -(-m // window)
    padded = np.concatenate([ext, np.full(nblocks * window - m, -np.inf)])
    blocks = padded.reshape(nblocks, window)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    ends = np.arange(window - 1, m)
    starts = ends - window + 1
    return np.maximum(suffix[starts], prefix[ends])


def maximal_function(f, grid: CircleGrid | None = None) -> MaximalProfile:
    """Largest arc average of |f| over grid-edge arcs containing each node.

    Arcs run over every contiguous block of 1 .. N-1 cells (the full circle
    is excluded as improper).  Since nodes lie strictly inside their cells,
    an arc contains node i exactly when it contains cell i, so the answer is
    a windowed maximum of per-length-d arc averages.
    """
    if isinstance(f, PiecewiseConstant):
        if grid is None:
            raise ValueError("a grid is required for step-function input")
        f = SampledFunction(grid=grid, samples=np.abs(f(grid.nodes)))
    elif not isinstance(f, SampledFunction):
        raise TypeError(f"unsupported representation {type(f).__name__}")

    g = f.grid
    n = g.node_count
    q = g.quad_weights
    mass = np.abs(f.samples) * q

    # doubled cumulative sums so wrapped arcs are plain differences
    cmass = np.concatenate([[0.0], np.cumsum(np.concatenate([mass, mass]))])
    cq = np.concatenate([[0.0], np.cumsum(np.concatenate([q, q]))])

    out = np.full(n, -np.inf)
    starts = np.arange(n)
    for d in range(1, n):
        avg = (cmass[starts + d] - cmass[starts]) / (cq[starts + d] - cq[starts])
        # node i is covered by arcs starting at s in (i-d, i]
        out = np.maximum(out, sliding_max(avg, d))
    return MaximalProfile(grid=g, values=out)


def weight_maximal_ratio(
    M_list, *, points_per_interval: int = 8, edge_levels: int = 12
) -> list[tuple[int, float]]:
    """sup over nodes of (Mw)/w for each truncation order M.

    The maximizing arcs hug single spikes from just outside, where the weight
    is 1, so the ratio grows like sqrt(M).
    """
    rows = []
    for M in sorted(int(M) for M in M_list):
        w = make_weight(M)
        grid = make_grid(M, points_per_interval, edge_levels=edge_levels)
        profile = maximal_function(w.profile, grid)
        ratio = float(np.max(profile.values / w(grid.nodes)))
        rows.append((M, ratio))
    return rows
