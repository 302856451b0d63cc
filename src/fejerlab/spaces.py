"""The spiked step weight, the weighted L1 / weighted Linf norm pair, and the
duality pairing between them.

The weight equals sqrt(m) on the closed arcs pi/(2m) <= |theta| <= pi/(2m-1)
for m = 1..M and 1 everywhere else (spikes with m > M are truncated away,
which only lowers the weight off the represented spikes).  It is even, lies
in [1, sqrt(M)], and its reciprocal is bounded by 1, so the two norms

    WEIGHTED_L1:   ||f w||_L1      (integral of |f| w dm)
    WEIGHTED_LINF: ||f / w||_Linf  (sup of |f| / w)

form an associate pair under the pairing integral of f g dm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circle import (
    TWO_PI,
    PiecewiseConstant,
    SampledFunction,
    merge_partitions,
    wrap_angle,
)

__all__ = [
    "SpaceTag",
    "Weight",
    "make_weight",
    "weight_l1_norm_series",
    "norm",
    "holder_pairing",
    "spike_interval",
    "gap_interval",
]


class SpaceTag(Enum):
    WEIGHTED_L1 = "weighted-l1"
    WEIGHTED_LINF = "weighted-linf"


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
    point evaluation reads it too: __call__ looks |theta| up among its
    edges and takes the larger of the two cells that meet at an edge, so
    every spike is closed on both ends and sqrt(m) wins at shared
    endpoints, on both sides of the circle.  O(log M) per angle.
    """

    M: int
    profile: PiecewiseConstant

    def __call__(self, theta):
        t = np.abs(wrap_angle(theta))
        edges, values = self.profile.edges, self.profile.values
        lo, hi = (
            np.clip(np.searchsorted(edges, t, side=side) - 1, 0, values.size - 1)
            for side in ("left", "right")
        )
        out = np.maximum(values[lo], values[hi])
        return out if out.ndim else float(out)

    def l1_norm(self) -> float:
        """Exact integral of the truncated weight with respect to dm."""
        return 1.0 + sum(
            (math.sqrt(m) - 1.0) / (2 * m * (2 * m - 1)) for m in range(1, self.M + 1)
        )


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


def weight_l1_norm_series(M_terms: int):
    """Partial sums of the two defining series of the weight's L1 norm, plus a
    rigorous tail bound.

    partial = sum_{m<=M} (1/(2m) - 1/(2m+1)) + sum_{m<=M} sqrt(m) (1/(2m-1) - 1/(2m))

    The first tail telescopes below sum (1/(2m) - 1/(2m+2)) = 1/(2(M+1)).  The
    second tail is sum_{m>M} 1/(2 sqrt(m) (2m-1)); the summand is decreasing,
    so the integral test with the substitution u = sqrt(x) gives

        sum_{m>M} <= int_M^inf dx / (2 sqrt(x) (2x-1)) = int du / (2u^2 - 1)
                  = (1/(2 sqrt(2))) log((sqrt(2) sqrt(M)+1)/(sqrt(2) sqrt(M)-1)),

    which is ~ (1/2) M^{-1/2} for large M.
    """
    if M_terms < 1:
        raise ValueError("M_terms must be >= 1")
    m = np.arange(1, M_terms + 1, dtype=float)
    first = np.sum(1.0 / (2 * m) - 1.0 / (2 * m + 1))
    second = np.sum(np.sqrt(m) * (1.0 / (2 * m - 1) - 1.0 / (2 * m)))
    partial = float(first + second)

    tail_first = 1.0 / (2.0 * (M_terms + 1))
    s = math.sqrt(2.0) * math.sqrt(M_terms)
    tail_second = math.log((s + 1.0) / (s - 1.0)) / (2.0 * math.sqrt(2.0))
    return partial, tail_first + tail_second


def _weight_values(w, theta):
    if w is None:
        return np.ones_like(np.asarray(theta, dtype=float))
    return w(theta)


def norm(f, w: Weight | None, tag: SpaceTag) -> float:
    """Norm of f in the tagged space (w = None means the unweighted pair).

    Step functions are integrated exactly on the common refinement with the
    weight's partition; sampled functions use their grid's quadrature.
    """
    if isinstance(f, PiecewiseConstant):
        if w is None:
            edges, fv = f.edges, f.values
            wv = np.ones(fv.size)
        else:
            edges, fv, wv = merge_partitions(f, w.profile)
        if tag is SpaceTag.WEIGHTED_L1:
            return float(np.sum(np.abs(fv) * wv * np.diff(edges)) / TWO_PI)
        if tag is SpaceTag.WEIGHTED_LINF:
            return float(np.max(np.abs(fv) / wv))
    elif isinstance(f, SampledFunction):
        wv = _weight_values(w, f.grid.nodes)
        if tag is SpaceTag.WEIGHTED_L1:
            return float(np.sum(np.abs(f.samples) * wv * f.grid.quad_weights))
        if tag is SpaceTag.WEIGHTED_LINF:
            return float(np.max(np.abs(f.samples) / wv))
    else:
        raise TypeError(f"unsupported representation {type(f).__name__}")
    raise ValueError(f"unknown space tag {tag!r}")


def holder_pairing(f, g) -> complex:
    """Duality pairing: integral of f(theta) g(theta) dm (no conjugation).

    Its modulus is bounded by ||f||_{L1(w)} * ||g||_{Linf(1/w)} for every
    admissible weight; both representations are integrated exactly when they
    are step functions, otherwise by the shared grid's quadrature.
    """
    if isinstance(f, PiecewiseConstant) and isinstance(g, PiecewiseConstant):
        edges, fv, gv = merge_partitions(f, g)
        return complex(np.sum(fv * gv * np.diff(edges)) / TWO_PI)
    if isinstance(f, SampledFunction) and isinstance(g, SampledFunction):
        if f.grid is not g.grid and not np.array_equal(f.grid.nodes, g.grid.nodes):
            raise ValueError("sampled pairing requires a shared grid")
        return complex(np.sum(f.samples * g.samples * f.grid.quad_weights))
    if isinstance(f, PiecewiseConstant) and isinstance(g, SampledFunction):
        fv = f(g.grid.nodes)
        return complex(np.sum(fv * g.samples * g.grid.quad_weights))
    if isinstance(f, SampledFunction) and isinstance(g, PiecewiseConstant):
        return holder_pairing(g, f)
    raise TypeError("unsupported pair of representations")
