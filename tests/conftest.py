import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("numeric")

from fejerlab.circle import PiecewiseConstant, make_grid
from fejerlab.spaces import Weight, make_weight


@pytest.fixture(scope="session")
def grid_m1():
    return make_grid(1, 8)


@pytest.fixture(scope="session")
def grid_m4():
    return make_grid(4, 8)


@pytest.fixture(scope="session")
def weight_m4():
    return make_weight(4)


@pytest.fixture(scope="session")
def weight_m8():
    return make_weight(8)


@pytest.fixture(scope="session")
def unit_weight():
    """The weight 1 on the whole circle: no spikes."""
    return Weight(M=0, profile=PiecewiseConstant(edges=[-math.pi, math.pi], values=[1.0]))


def coeff_window(W, entries):
    """Window of half-width W, c(k) at index k + W: the {k: c(k)} of
    `entries`, zero elsewhere."""
    c = np.zeros(2 * W + 1, dtype=complex)
    for k, v in entries.items():
        assert abs(k) <= W, f"index {k} outside window {W}"
        c[k + W] = v
    return c


def quadrature_oracle(fn, n_points=200_001):
    """Independent fine uniform midpoint rule for integral of fn over dm."""
    h = 2.0 * math.pi / n_points
    theta = -math.pi + (np.arange(n_points) + 0.5) * h
    return np.sum(fn(theta)) * h / (2.0 * math.pi)


def dense_convolution(kernel, grid, samples):
    """Closed-form oracle of the quadrature convolution
    sum_j K(x_i - x_j) f_j q_j: the kernel's one-angle form at the rounded
    differences x[rows, None] - x[None, j] over the j with f_j q_j != 0,
    about 2^20 samples of rows at a time."""
    x = grid.nodes
    fq = np.asarray(samples) * grid.quad_weights
    cols = np.flatnonzero(fq)
    out = np.zeros(x.size, dtype=fq.dtype)
    step = max(1, 2**20 // max(1, cols.size))
    for start in range(0, x.size, step):
        rows = slice(start, start + step)
        out[rows] = kernel(x[rows, None] - x[None, cols]) @ fq[cols]
    return out


def norm(f, w, space):
    """Reference weighted norm of grid samples f (a SampledFunction):
    space "l1" is sum |f| w q over the nodes, "linf" is max |f| / w."""
    wv = w(f.grid.nodes)
    if space == "l1":
        return float(np.sum(np.abs(f.samples) * wv * f.grid.quad_weights))
    return float(np.max(np.abs(f.samples) / wv))
