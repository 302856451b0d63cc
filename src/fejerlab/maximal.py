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
constant and any kind (iv) arc has it too.  Kind (ii) is kind (i) on the
mirrored cells, since an arc that ends at a run start starts at one when
the circle is read backwards.  Kinds (i) and (ii) are nested families of
N-1 arcs per run start, and kind (iv) is found by the cell it leaves out in
O(N), so the sweep costs O(N R) instead of O(N^2).

Each arc's mass and length are summed from its own start, so an arc over a
few of the tiny cells at a weight jump is as accurate as its own cells, not
the difference of two prefix sums of size about 1.

The companion experiment tracks sup (Mw)/w for the truncated spiked
weights.  In the discrete model this ratio is the norm of the maximal
operator on the weighted-Linf space, the dual of weighted L1, and it grows
with the truncation order.  The paper's convergence theorem assumes that M
is bounded on that dual, so this growth shows the spiked weight violates
the hypothesis, as its counterexample must; it is not by itself a proof
that Fejér means fail to converge in norm.
"""

from __future__ import annotations

import numpy as np

from .circle import SampledFunction, make_grid
from .spaces import make_weight

__all__ = [
    "maximal_function",
    "weight_maximal_ratio",
]


def maximal_function(f: SampledFunction) -> SampledFunction:
    """Largest arc average of |f| over grid-edge arcs containing each node,
    as samples on the grid of f.  A step function is sampled at the nodes
    first; the averages are exact when its jumps lie on grid edges.

    Arcs run over every contiguous block of 1 .. N-1 cells (the full circle
    is excluded as improper).  Since nodes lie strictly inside their cells,
    an arc contains node i exactly when it contains cell i.

    A run start is an edge whose two cells differ in |f|.  Moving an arc end
    inside a run of value v moves the average monotonically toward v, so
    the maximum at each cell is attained by (i) an arc starting at a run
    start, (ii) an arc ending at one, which is (i) on the mirrored cells,
    (iii) the cell alone, which (i) or (iv) matches, or (iv) an arc of N-1
    cells, found by the one cell it leaves out (see the module docstring).
    Every arc of kinds (i) and (ii) is summed from its own start.  The arcs
    from one run start are nested, so the best of them at each covered cell
    is a running maximum of their averages ordered by length: O(N) per run
    start and direction, and O(N R) in all for R run starts.
    """
    g = f.grid
    a = np.abs(f.samples)
    q = g.quad_weights
    out = np.maximum(_from_run_starts(a, q), _from_run_starts(a[::-1], q[::-1])[::-1])
    # (iv) the arc of n-1 cells that leaves out cell c covers every other cell
    mass = a * q
    full = (np.sum(mass) - mass) / (np.sum(q) - q)
    best = int(np.argmax(full))
    cover = np.full(g.node_count, full[best])
    cover[best] = np.max(np.delete(full, best))
    np.maximum(out, cover, out=out)
    return SampledFunction(grid=g, samples=out)


def _from_run_starts(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Best average of `a` at each cell over the arcs that start at a run
    start and cover it (kind i), each arc's mass and length summed from its
    start: the real and imaginary parts of one cumulative sum."""
    n = a.size
    cells = np.tile(a * q + 1j * q, 2)
    # out[c] for c in [0, 2n) collects cell c mod n
    out = np.full(2 * n, -np.inf)
    for s in np.flatnonzero(a != np.roll(a, 1)):
        # arcs s .. s+L-1 for L = 1 .. n-1; cell s+j lies in those with L > j
        sums = np.cumsum(cells[s : s + n - 1])
        _fold_nested(out[s : s + n - 1], sums.real / sums.imag)
    return np.maximum(out[:n], out[n:])


def _fold_nested(covered: np.ndarray, avg: np.ndarray) -> None:
    """covered[j] = max(covered[j], max(avg[j:])) in place: covered[j] lies
    in the nested arcs whose averages are avg[j:]."""
    np.maximum(covered, np.maximum.accumulate(avg[::-1])[::-1], out=covered)


def weight_maximal_ratio(M_list, *, points_per_interval: int = 8) -> list[tuple[int, float]]:
    """sup over nodes of (Mw)/w for each truncation order M.

    The maximizing arcs hug single spikes from just outside, where the weight
    is 1, so the ratio grows like sqrt(M).
    """
    rows = []
    for M in sorted({int(M) for M in M_list}):
        grid = make_grid(M, points_per_interval)
        w = make_weight(M)(grid.nodes)
        profile = maximal_function(SampledFunction(grid=grid, samples=w))
        rows.append((M, float(np.max(profile.samples / w))))
    return rows
