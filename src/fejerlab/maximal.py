"""Exact grid Hardy-Littlewood maximal function on the circle.

The supremum over arcs is replaced by a maximum over the finitely many arcs
whose endpoints are grid cell edges (wrapping across +-pi, proper arcs only).
For step inputs whose jumps lie on the grid this maximum is exact arc
arithmetic.

Only a few of the N(N-1) arcs can attain it.  Call an edge a run start when
the cells on its two sides differ in |f|; let R be their number.  Lemma:
moving one end of an arc inside a run of value v adds or drops cells of
value v, which moves the average monotonically toward v.  So among the arcs
[a, b) that contain cell c, a maximizer has its left end at a run start, at
c or at b-N+1, and its right end at a run start, at c+1 or at a+N-1.
Applying this to the left end and then the right end (and once more to the
left end when the right end lands on c+1) leaves four kinds of arc:
(i) arcs that start at a run start, (ii) arcs that end at one, (iii) the
single cell c and (iv) the N-1-cell arcs, each of which leaves out one
cell.  Kind (iii) needs no pass of its own: the arc from the start of c's
run through c has the same average (kind i), and with no run start |f| is
constant and any kind (iv) arc has it too.  Kinds (i) and (ii) are nested
families of N-1 arcs per run start and kind (iv) takes O(N), so the sweep
costs O(N R) instead of O(N^2).

The companion experiment tracks sup (Mw)/w for the truncated spiked
weights.  In the discrete model this ratio is the norm of the maximal
operator on the weighted-Linf space, the dual of weighted L1, and it grows
with the truncation order.  The paper's convergence theorem assumes that M
is bounded on that dual, so this growth shows the spiked weight violates
the hypothesis, as its counterexample must; it is not by itself a proof
that Fejér means fail to converge in norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import CircleGrid, SampledFunction, _frozen, make_grid
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


def maximal_function(f: SampledFunction) -> MaximalProfile:
    """Largest arc average of |f| over grid-edge arcs containing each node,
    from the samples of f on its grid.  A step function is sampled at the
    nodes first; the averages are exact when its jumps lie on grid edges.

    Arcs run over every contiguous block of 1 .. N-1 cells (the full circle
    is excluded as improper).  Since nodes lie strictly inside their cells,
    an arc contains node i exactly when it contains cell i.

    A run start is an edge whose two cells differ in |f|.  Moving an arc end
    inside a run of value v moves the average monotonically toward v, so
    the maximum at each cell is attained by (i) an arc starting at a run
    start, (ii) an arc ending at one, (iii) the cell alone, which (i) or
    (iv) matches, or (iv) an arc of N-1 cells (see the module docstring).
    The arcs from (or into) one run start are nested, so the best of them
    at each covered cell is a running maximum of their averages ordered by
    length: O(N) per run start, and O(N R) in all for R run starts.
    """
    g = f.grid
    n = g.node_count
    q = g.quad_weights
    a = np.abs(f.samples)
    mass = a * q

    # doubled cumulative sums so wrapped arcs are plain differences; every
    # arc [s, s + L) is taken with its start s in [0, n), as in the full
    # enumeration, so each average here is bitwise one of its values
    cmass = np.concatenate([[0.0], np.cumsum(np.concatenate([mass, mass]))])
    cq = np.concatenate([[0.0], np.cumsum(np.concatenate([q, q]))])

    # out[c] for c in [0, 2n) collects cell c mod n
    out = np.full(2 * n, -np.inf)
    for s in np.flatnonzero(a != np.roll(a, 1)):
        # (i) arcs s .. s+L-1 for L = 1 .. n-1; cell s+j lies in those with L > j
        avg = (cmass[s + 1 : s + n] - cmass[s]) / (cq[s + 1 : s + n] - cq[s])
        _fold_nested(out[s : s + n - 1], avg)
        # (ii) arcs ending at cell s-1 (s+n-1 doubled), by start t = s+1 ..
        # s+n-1 taken mod n; cell s+n-1-j lies in those longer than j cells
        head = (cmass[s + n] - cmass[s + 1 : n]) / (cq[s + n] - cq[s + 1 : n])
        tail = (cmass[s] - cmass[:s]) / (cq[s] - cq[:s])
        _fold_nested(out[s + 1 : s + n][::-1], np.concatenate([head, tail])[::-1])
    out = np.maximum(out[:n], out[n:])
    # (iv) the arc from s of n-1 cells omits cell s-1 and covers every other
    full = (cmass[n - 1 : 2 * n - 1] - cmass[:n]) / (cq[n - 1 : 2 * n - 1] - cq[:n])
    best = int(np.argmax(full))
    cover = np.full(n, full[best])
    cover[best - 1] = np.max(np.delete(full, best))
    np.maximum(out, cover, out=out)
    return MaximalProfile(grid=g, values=out)


def _fold_nested(covered: np.ndarray, avg: np.ndarray) -> None:
    """covered[j] = max(covered[j], max(avg[j:])) in place: covered[j] lies
    in the nested arcs whose averages are avg[j:]."""
    np.maximum(covered, np.maximum.accumulate(avg[::-1])[::-1], out=covered)


def weight_maximal_ratio(
    M_list, *, points_per_interval: int = 8, edge_levels: int = 12
) -> list[tuple[int, float]]:
    """sup over nodes of (Mw)/w for each truncation order M.

    The maximizing arcs hug single spikes from just outside, where the weight
    is 1, so the ratio grows like sqrt(M).
    """
    rows = []
    for M in sorted({int(M) for M in M_list}):
        w = make_weight(M)
        grid = make_grid(M, points_per_interval, edge_levels=edge_levels)
        profile = maximal_function(SampledFunction.from_callable(w.profile, grid))
        ratio = float(np.max(profile.values / w(grid.nodes)))
        rows.append((M, ratio))
    return rows
