"""Weighted-L1 best polynomial approximation, Fejér-mean error curves, and a
gliding-hump witness for non-uniformly-bounded Fejér means.

The minimization of sum_i |f_i - q(theta_i)| w_i q_i over analytic
polynomials q of fixed degree is solved by iteratively reweighted least
squares with residual smoothing: each sweep solves a weighted least squares
problem with weights c_i / max(|r_i|, eps), which never increases the
eps-smoothed objective (majorize-minimize).  That objective is convex, so
each fit runs IRLS once, from the start with the smallest raw objective
among the weighted least squares fit, the Fejér mean and the previous
degree's polynomial.  The Fourier design
A_ik = exp(i k theta_i) is the binary-power phase table of `circle.trig_sum`,
and A^H diag(u) A is Hermitian Toeplitz, so each sweep solves the Toeplitz
normal equations: three matrix-vector products with A (the Gram lags, the
right-hand side and the new residual) and one (d+1) x (d+1) solve, with the
lag index and conj(f) built once per fit and |r| taken once per sweep.  The
Fejér start reads the same design, as the damped midpoint sums A^H (f q).
A density curve builds one phase table for its top degree, and each fit
reads its first d+1 columns: `_phases` fills column k from the bits of k
only, so they are bit for bit the table the fit would build alone.
Correctness is certified externally: for Hardy-class data the Fejér mean of
matching order is a feasible polynomial, so the achieved objective must not
exceed the Fejér mean's objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import (
    CircleGrid,
    KernelSpec,
    PiecewiseConstant,
    SampledFunction,
    _frozen,
    _phases,
    fejer_multiplier,
    fejer_one_sided,
    fourier_window,
    kernel_sums,
    synthesize,
)
from .operators import (
    assemble_operator,
    grid_for_kernels,
    localization_params,
    operator_norm,
)
from .spaces import Weight

__all__ = [
    "FitResult",
    "StageFailure",
    "WitnessReport",
    "best_poly_l1w",
    "density_curve",
    "fejer_error_curve",
    "gliding_hump_witness",
]


SMOOTHING = 1e-8  # residual floor eps of the smoothed IRLS objective
MAX_ITERS = 200  # IRLS sweeps per fit
TOL = 1e-10  # IRLS stops once a sweep gains at most TOL max(objective, 1)
MAX_ORDER = 600  # largest Fejér order on the witness's candidate ladder


@dataclass(frozen=True)
class FitResult:
    # read-only alpha_0..alpha_d of q(t) = sum_k alpha_k t^k on the circle
    poly: np.ndarray
    error: float
    iterations: int
    fejer_error: float


def _raw_objective(moduli, c):
    return float(np.sum(moduli * c))


def _smoothed_objective(moduli, c, eps):
    """sum c_i h(|r_i|) of the residual moduli, h(r) = r above eps and
    r^2 / (2 eps) + eps / 2 at or below it, where only those entries are
    rewritten."""
    h = moduli * c
    small = moduli <= eps
    r = moduli[small]
    h[small] = (r * r / (2.0 * eps) + 0.5 * eps) * c[small]
    return float(np.sum(h))


def _lags(size):
    """Index |l - j| into t and the mask l < j of the size x size Toeplitz
    matrix G_jl = t_{l-j}, built once per fit."""
    k = np.arange(size)
    lag = k[None, :] - k[:, None]
    return np.abs(lag), lag < 0


def _toeplitz_gram(A, u, lags):
    """G = A^H diag(u) A for the Fourier design A_ik = exp(i k theta_i).

    G is Hermitian Toeplitz, G_jl = t_{l-j} with
    t_m = sum_i u_i exp(i m theta_i) = (u @ A)_m and t_{-m} = conj(t_m), so
    it takes one matrix-vector product instead of an N x (d+1) product;
    `lags` is `_lags(d + 1)`.
    """
    index, lower = lags
    G = (u @ A)[index]
    np.conjugate(G, out=G, where=lower)
    return G


def _weighted_ls(A, y_conj, u, lags):
    """Minimize sum u_i |y_i - (A alpha)_i|^2 over alpha in the Fourier design.

    Solves the normal equations G alpha = A^H (u y), whose right-hand side
    is conj((u conj(y)) @ A), from y_conj = conj(y).  G is positive definite
    for u > 0 and at least d+1 distinct nodes.
    """
    b = np.conj((u * y_conj) @ A)
    return np.linalg.solve(_toeplitz_gram(A, u, lags), b)


def _irls(A, y, y_conj, c, lags, start, moduli):
    """Minimize sum c_i |y_i - (A alpha)_i| from a coefficient start whose
    residual moduli |y - A start| are `moduli`; y_conj = conj(y) and `lags`
    is `_lags(d + 1)`, both built once per fit.

    Each sweep solves the Toeplitz normal equations of the weighted least
    squares problem with weights c_i / max(|r_i|, SMOOTHING), then takes
    the new residual's moduli once, for both its smoothed objective and the
    next sweep's weights.  Returns the coefficients, their residual moduli
    and the number of sweeps kept.
    """
    alpha = start
    obj = _smoothed_objective(moduli, c, SMOOTHING)
    sweeps = 0
    for _ in range(MAX_ITERS):
        u = c / np.maximum(moduli, SMOOTHING)
        alpha_new = _weighted_ls(A, y_conj, u, lags)
        moduli_new = np.abs(y - A @ alpha_new)
        obj_new = _smoothed_objective(moduli_new, c, SMOOTHING)
        if obj_new > obj * (1.0 + 1e-12) + 1e-300:
            break  # MM guarantees nonincrease; stop if rounding says otherwise
        alpha, moduli, sweeps = alpha_new, moduli_new, sweeps + 1
        if obj - obj_new <= TOL * max(obj_new, 1.0):
            break
        obj = obj_new
    return alpha, moduli, sweeps


def _fejer_candidate(f: SampledFunction, A):
    """Fejér mean of order d as a feasible polynomial: the midpoint sums
    A^H (f q) of the samples against the fit's design A, with d + 1 columns,
    damped by 1 - k/(d+1)."""
    sums = np.conj(np.conj(f.samples * f.grid.quad_weights) @ A)
    return fejer_multiplier(A.shape[1] - 1) * sums


def _check_degree(degree: int, node_count: int):
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree > node_count // 4:
        raise ValueError(
            f"degree {degree} is past node_count / 4 = {node_count // 4}, "
            "where the Fejér start's midpoint sums alias"
        )


def best_poly_l1w(
    f: SampledFunction,
    w: Weight,
    degree: int,
    *,
    warm_start: np.ndarray | None = None,
    phases: np.ndarray | None = None,
) -> FitResult:
    """Approximately minimize ||f - q||_{L1(w)} over polynomials of `degree`.

    The starts are the weighted least squares fit, the Fejér mean of order
    `degree` from the midpoint sums of the samples against the fit's design
    and the zero-padded warm start.  Past degree N/4 those sums alias, so
    such a degree raises ValueError.  IRLS runs once, at most MAX_ITERS
    sweeps, from the start with the smallest raw objective and that start's
    residual: the smoothed objective is convex, so every start leads to the
    same minimum.  If the run ends above its start, the start is kept, so
    the result is never above any start.  The reported error is the plain
    discrete weighted-L1 objective of the returned polynomial.

    `phases`, if given, is `circle._phases(f.grid.nodes, 0, K, 1)` for some
    K > degree, of shape (N, K) (ValueError otherwise), and the fit's design
    is its first degree + 1 columns; `density_curve` shares one such table
    among its fits.  Without it the fit builds its own, K = degree + 1.
    """
    _check_degree(degree, f.grid.node_count)
    nodes = f.grid.nodes
    if phases is None:
        phases = _phases(nodes, 0, degree + 1, 1)
    elif phases.ndim != 2 or phases.shape[0] != nodes.size or phases.shape[1] <= degree:
        raise ValueError(
            f"phases must have shape (N, > degree) = ({nodes.size}, > {degree}), "
            f"got {phases.shape}"
        )
    A = phases[:, : degree + 1]
    c = w(nodes) * f.grid.quad_weights
    y = f.samples.astype(complex)
    y_conj = np.conj(y)
    lags = _lags(degree + 1)

    starts = [_weighted_ls(A, y_conj, c, lags), _fejer_candidate(f, A)]
    if warm_start is not None:
        starts.append(np.pad(warm_start, (0, degree + 1 - warm_start.size)))
    moduli = [np.abs(y - A @ s) for s in starts]
    objectives = [_raw_objective(m, c) for m in moduli]

    k = int(np.argmin(objectives))
    alpha, end_moduli, iters = _irls(A, y, y_conj, c, lags, starts[k], moduli[k])
    raw = _raw_objective(end_moduli, c)
    if objectives[k] < raw:  # the start itself is a valid feasible point
        alpha, raw = starts[k], objectives[k]
    return FitResult(
        poly=_frozen(alpha, complex),
        error=raw,
        iterations=iters,
        fejer_error=objectives[1],
    )


def density_curve(f: SampledFunction, w: Weight, degrees) -> list[FitResult]:
    """Best-approximation errors along increasing degrees.

    Each distinct degree is fitted once, in ascending order, warm-started
    with the previous polynomial, so the reported errors are nonincreasing
    by construction (feasible sets are nested).  Every degree is checked
    before the curve builds one phase table for the top degree, which each
    fit reads as `best_poly_l1w(..., phases=...)`.
    """
    degrees = sorted({int(d) for d in degrees})
    if not degrees:
        return []
    for d in degrees:
        _check_degree(d, f.grid.node_count)
    phases = _phases(f.grid.nodes, 0, degrees[-1] + 1, 1)
    results = []
    prev = None
    for d in degrees:
        res = best_poly_l1w(f, w, d, warm_start=prev, phases=phases)
        results.append(res)
        prev = res.poly
    return results


def fejer_error_curve(f: PiecewiseConstant, n_list, grid: CircleGrid):
    """Unweighted errors ||f * F_n - f||_L1 of a step function, per order.

    The Fejér means come from f's closed-form Fourier coefficients and are
    evaluated at the nodes of `grid`, so the mean itself carries no
    quadrature error; the error integral is the grid's midpoint rule.  Every
    step function is real, so each mean is the real part of its column of
    the one-sided Fejér table (`fejer_one_sided`), and the table, zero at
    negative frequencies, is one `synthesize` call, which builds one phase
    table of max(n_list) + 1 frequencies for all the orders.
    """
    n_list = [int(n) for n in n_list]
    top = max(n_list)
    table = fejer_one_sided(fourier_window(f, top)[top:], n_list)
    means = synthesize(np.pad(table, ((top, 0), (0, 0))), grid.nodes).real
    f_vals = f(grid.nodes)
    return np.array(
        [np.sum(np.abs(mean - f_vals) * grid.quad_weights) for mean in means.T]
    )


class StageFailure(RuntimeError):
    """A witness stage that no candidate order can complete; the message
    names the stage."""


@dataclass(frozen=True)
class WitnessReport:
    """A single function whose Fejér-mean errors stay large along a chosen
    subsequence of orders.

    The function is a weighted sum of unit-norm extremal inputs of the
    convolution operators: sum_k c_k g_k with c_k = 2^{-k}.  The
    reported stage errors are recomputed from scratch on the assembled
    function, not accumulated from intermediate estimates.
    """

    orders: tuple[int, ...]
    coefficients: tuple[float, ...]
    bump_locations: tuple[float, ...]
    stage_errors: tuple[float, ...]
    growth_target: float

    def summary(self) -> str:
        lines = [
            f"gliding-hump witness: {len(self.orders)} stages, "
            f"target {self.growth_target}",
        ]
        for k, (n, ck, loc, err) in enumerate(
            zip(self.orders, self.coefficients, self.bump_locations, self.stage_errors),
            start=1,
        ):
            lines.append(
                f"  stage {k}: n={n} c={ck:g} bump at theta={loc:.6f} "
                f"error={err:.6f}"
            )
        return "\n".join(lines)


def _default_order_ladder(M: int):
    """Candidate Fejér orders up to MAX_ORDER: certified localization orders
    of square spike indices and their doublings."""
    ladder = set()
    m = 2
    while m * m <= M:
        n = localization_params(m * m).n_of_m
        for mult in (1, 2):
            if mult * n <= MAX_ORDER:
                ladder.add(mult * n)
        m += 1
    ladder.update(
        n for n in (64, 96, 128, 192, 256, 384, 512) if n <= MAX_ORDER
    )
    return sorted(ladder)


def _stage_errors(grid, wv, parts, orders):
    """Errors ||f * F_n - f||_{L1(w)} of the sparse bump sum, recomputed
    exactly as the full quadrature convolution would produce them, every
    order in one Fejér family's `kernel_sums`."""
    idx = np.array([p[0] for p in parts])
    amp = np.array([p[1] for p in parts])  # f value at the node
    fq = amp * grid.quad_weights[idx]
    f_full = np.zeros(grid.node_count)
    np.add.at(f_full, idx, amp)
    family = [KernelSpec.fejer(n) for n in orders]
    convs, _ = kernel_sums(family, grid.nodes, grid.nodes[idx], fq)
    return [float(np.sum(np.abs(conv - f_full) * wv * grid.quad_weights)) for conv in convs]


def gliding_hump_witness(
    w: Weight,
    stages: int,
    growth_target: float = 1.0,
    *,
    points_per_interval: int = 8,
) -> WitnessReport:
    """Assemble f = sum_k c_k g_k whose Fejér-mean errors meet the target.

    g_k is the exact unit-norm extremal input of the convolution operator
    with kernel order n_k on the weighted-L1 space (a scaled single-node
    indicator at the maximizing column, the node bump_locations[k] of
    grid_for_kernels(w.M, points_per_interval, top ladder order)).  Orders are chosen greedily from a
    candidate ladder, strictly increasing; a candidate is accepted only if
    every stage chosen so far still meets the target on the partially
    assembled function, so the final report is certified by construction.
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    coeffs = tuple(2.0 ** -(k + 1) for k in range(stages))
    ladder = _default_order_ladder(w.M)
    grid = grid_for_kernels(w.M, points_per_interval, max(ladder))

    wv = w(grid.nodes)
    orders: list[int] = []
    parts: list[tuple[int, float]] = []  # (node index, sample value)

    for k in range(stages):
        for n in ladder:
            if orders and n <= orders[-1]:
                continue
            [(l1, _)] = operator_norm(assemble_operator([KernelSpec.fejer(n)], grid), w)
            j = l1.arg_index
            amp = coeffs[k] / (wv[j] * grid.quad_weights[j])
            trial_parts = parts + [(j, amp)]
            errs = _stage_errors(grid, wv, trial_parts, orders + [n])
            if all(e >= growth_target for e in errs):
                orders.append(n)
                parts, stage_errors = trial_parts, errs
                break
        else:
            raise StageFailure(
                f"stage {k + 1}: no candidate order <= {ladder[-1]} reaches error "
                f">= {growth_target} given earlier stages"
            )

    return WitnessReport(
        orders=tuple(orders),
        coefficients=coeffs,
        bump_locations=tuple(float(grid.nodes[j]) for j, _ in parts),
        stage_errors=tuple(stage_errors),
        growth_target=growth_target,
    )
