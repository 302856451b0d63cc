"""Exact grid Hardy-Littlewood maximal function on the circle.

The supremum over arcs is replaced by a maximum over the finitely many arcs
whose endpoints are grid cell edges (wrapping across +-pi, proper arcs only).
For step inputs whose jumps lie on the grid this maximum is exact arc
arithmetic.

Only a few of the N(N-1) arcs can attain it.  Read the cells in one
direction and call an edge a rise when the cell after it is larger in |f|
than the cell before it.  A fall of one direction is a rise of the other,
so each of the R edges where |f| changes is a rise of exactly one
direction.  Lemma: let [a, b) be an arc of 2 <= L <= N-2 cells that
maximizes the average A among the arcs that contain cell c.  If a != c,
dropping cell a or adding cell a-1 keeps c covered, so
|f|(a-1) <= A <= |f|(a).  When the two differ, a is a rise; when they are
equal, sliding a left through the run of value A keeps A and ends at a
rise (a larger left neighbour would beat A) or at an arc of N-1 cells.
If a = c, the same argument at the right end puts b at a fall.  That
leaves four kinds of arc: (i) arcs that start at a rise, (ii) arcs that
end at a fall, (iii) the single cell c and (iv) the N-1-cell arcs, each of
which leaves out one cell.  Kind (iii) needs no pass of its own.  When
the left end of c's run is a rise, the arc from there through c has the
same average (kind i); when its right end is a fall, so has the arc from c
to there (kind ii).  When neither is, both neighbours of the run are
larger, so an arc from c into one of them beats the cell and another kind
attains the maximum; with no rise at all |f| is constant and any kind (iv)
arc has it.  Kind (ii) is kind (i) on the mirrored cells, since an arc
that ends at a fall starts at a rise when the circle is read backwards.
Kinds (i) and (ii) are nested families of N-1 arcs per rise of their
direction, R families in all, and kind (iv) is found by the cell it
leaves out in O(N), so the sweep costs O(N R) instead of O(N^2).

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

    A rise is an edge where |f| goes up in the reading direction.  The
    maximum at each cell is attained by (i) an arc starting at a forward
    rise, (ii) an arc ending where |f| falls, which is (i) on the mirrored
    cells, (iii) the cell alone, which (i), (ii) or another kind matches,
    or (iv) an arc of N-1 cells, found by the one cell it leaves out (see
    the module docstring).  Every arc of kinds (i) and (ii) is summed from
    its own start.  The arcs from one rise are nested, so the best of them
    at each covered cell is a running maximum of their averages ordered by
    length: O(N) per rise, and O(N R) in all for the R edges where |f|
    changes, each a rise of one direction.
    """
    g = f.grid
    a = np.abs(f.samples)
    q = g.quad_weights
    out = np.maximum(_from_rises(a, q), _from_rises(a[::-1], q[::-1])[::-1])
    # (iv) the arc of n-1 cells that leaves out cell c covers every other cell
    mass = a * q
    full = (np.sum(mass) - mass) / (np.sum(q) - q)
    best = int(np.argmax(full))
    cover = np.full(g.node_count, full[best])
    cover[best] = np.max(np.delete(full, best))
    np.maximum(out, cover, out=out)
    return SampledFunction(grid=g, samples=out)


def _from_rises(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Best average of `a` at each cell over the arcs that start at a rise
    (an edge where `a` goes up) and cover it (kind i), each arc's mass and
    length summed from its start: the real and imaginary parts of one
    cumulative sum."""
    n = a.size
    cells = np.tile(a * q + 1j * q, 2)
    # out[c] for c in [0, 2n) collects cell c mod n
    out = np.full(2 * n, -np.inf)
    for s in np.flatnonzero(a > np.roll(a, 1)):
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
