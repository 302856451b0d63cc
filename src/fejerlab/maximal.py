"""Brute-force Hardy-Littlewood maximal function on the circle.

The supremum over arcs is replaced by a maximum over the finitely many arcs
whose endpoints are grid cell edges (wrapping across +-pi, proper arcs only).
For step inputs whose jumps lie on the grid this maximum is exact arc
arithmetic.  The sweep visits each start cell once and takes one suffix
maximum over the nested arcs that start there, O(N^2) in all.  The
companion experiment tracks sup (Mw)/w for the truncated spiked weights: in
the discrete model this ratio is the norm of the maximal operator on the
weighted-Linf space, and it grows without bound with the truncation order,
which is why norm convergence of Fejér means fails on the weighted-L1 side.
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
]


@dataclass(frozen=True)
class MaximalProfile:
    grid: CircleGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))


def maximal_function(f, grid: CircleGrid | None = None) -> MaximalProfile:
    """Largest arc average of |f| over grid-edge arcs containing each node.

    Arcs run over every contiguous block of 1 .. N-1 cells (the full circle
    is excluded as improper).  Since nodes lie strictly inside their cells,
    an arc contains node i exactly when it contains cell i.  The arcs that
    start at one cell are nested, so the best of them at each covered cell
    is a suffix maximum of their averages ordered by length.
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

    # out[c] for c in [0, 2n) collects cell c mod n; arcs starting at s
    # cover cells s .. s+n-2 of the doubled circle
    out = np.full(2 * n, -np.inf)
    for s in range(n):
        avg = (cmass[s + 1 : s + n] - cmass[s]) / (cq[s + 1 : s + n] - cq[s])
        # cell s+j lies in every arc from s longer than j cells
        covered = out[s : s + n - 1]
        np.maximum(covered, np.maximum.accumulate(avg[::-1])[::-1], out=covered)
    return MaximalProfile(grid=g, values=np.maximum(out[:n], out[n:]))


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
