"""The spiked step weight.

The weight equals sqrt(m) on the closed arcs pi/(2m) <= |theta| <= pi/(2m-1)
for m = 1..M and 1 everywhere else (spikes with m > M are truncated away,
which only lowers the weight off the represented spikes).  It is even, lies
in [1, sqrt(M)], and its reciprocal is bounded by 1; it weights the pair
L1(w) (integral of |f| w dm) and Linf(1/w) (sup of |f| / w) on which
`operators.operator_norm` measures convolution operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import PiecewiseConstant, wrap_angle

__all__ = [
    "Weight",
    "make_weight",
    "spike_interval",
    "gap_interval",
]


def spike_interval(m: int):
    """Arc [pi/(2m), pi/(2m-1)] carrying the value sqrt(m) (positive side)."""
    return math.pi / (2 * m), math.pi / (2 * m - 1)


def gap_interval(m: int):
    """Open arc (pi/(2m+1), pi/(2m)) between spikes m+1 and m (positive side)."""
    return math.pi / (2 * m + 1), math.pi / (2 * m)


@dataclass(frozen=True)
class Weight:
    """Truncated spiked weight with M spike pairs.

    `profile` is the exact step representation used for integration, and
    point evaluation reads it too: __call__ looks theta and -theta up in it,
    stacked in one lookup, and takes the larger value.  The weight is even
    and the profile's cells are left-closed, so at an edge that is the
    larger of the two cells that meet there: every spike is closed on both
    ends and sqrt(m) wins at shared endpoints, on both sides of the circle.
    O(log M) per angle.
    """

    M: int
    profile: PiecewiseConstant

    def __call__(self, theta):
        t = wrap_angle(theta)
        out = np.maximum(*self.profile(np.stack([t, -t])))
        return out if out.ndim else float(out)


def make_weight(M: int) -> Weight:
    """Exact step representation of the weight truncated at spike M."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    # positive edges 0, pi/(2M), pi/(2M-1), ..., pi/1: the cell ending at
    # pi/k is spike (k+1)/2 for odd k, a gap or the central plateau otherwise
    k = np.arange(2 * M, 0, -1)
    pos_edges = np.concatenate([[0.0], math.pi / k])
    pos_values = np.where(k % 2 == 1, np.sqrt((k + 1) / 2), 1.0)
    full_edges = np.concatenate([-pos_edges[::-1], pos_edges[1:]])
    full_values = np.concatenate([pos_values[::-1], pos_values])
    return Weight(
        M=M, profile=PiecewiseConstant(edges=full_edges, values=full_values)
    )
