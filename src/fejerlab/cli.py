"""Experiment driver: each verification is a subcommand with CSV output.

Each in-run contract prints one line,

    [PASS] name: value sense threshold (margin m)

with `sense` one of <, <=, >, >= and numbers printed in full precision.  The
margin is how far the value lies on the passing side of the threshold: it is
negative on a failure and 0 at equality, which passes only <= and >=.

Exit codes: 0 when every in-run contract holds, 2 when a contract is
violated (the violated invariant is named on stderr), 1 on configuration
errors, a --config file that cannot be read or an --out path that cannot
be written among them.  Only `duality` and `taylor-fourier` draw random
inputs, so only they read --seed; with a fixed seed every CSV output is
byte-identical across re-runs.

A subcommand accepts only the flags it reads; any other flag is a
configuration error.  Options may also come from a config file of
`key = value` lines via --config; explicit flags win on conflict.

main(argv) may be called repeatedly in one process: it builds its parser on
the first call and keeps no per-call state.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import csvio
from .approx import StageFailure, density_curve, fejer_error_curve, gliding_hump_witness
from .circle import KernelSpec, PiecewiseConstant, SampledFunction, make_grid
from .hardy import taylor_fourier_check
from .maximal import weight_maximal_ratio
from .operators import (
    SPECTRAL_SWITCH,
    NoQualifyingN,
    assemble_operator,
    fejer_blowup,
    grid_for_kernels,
    kernel_cell_cap,
    operator_norm,
)
from .spaces import make_weight

PASS, FAIL = "PASS", "FAIL"


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # configuration problems exit 1, not 2
        self.print_usage(sys.stderr)
        raise ConfigError(message)


class ContractViolation(Exception):
    """A violated in-run contract; the message is `name: detail`."""


def _check(name: str, value, threshold, sense: str):
    """Print the contract line for `value sense threshold` and raise
    ContractViolation unless it holds."""
    value, threshold = float(value), float(threshold)
    ok = {
        "<": value < threshold,
        "<=": value <= threshold,
        ">": value > threshold,
        ">=": value >= threshold,
    }[sense]
    margin = threshold - value if sense[0] == "<" else value - threshold
    detail = f"{value!r} {sense} {threshold!r} (margin {margin!r})"
    print(f"[{PASS if ok else FAIL}] {name}: {detail}")
    if not ok:
        raise ContractViolation(f"{name}: {detail}")


# ---------------------------------------------------------------------------
# subcommands


def _random_even_nonneg_step_kernel(rng) -> KernelSpec:
    """Random symmetric nonnegative step kernel on mirrored breakpoints."""
    npos = int(rng.integers(2, 6))
    pos = np.sort(rng.uniform(0.05, math.pi - 0.05, size=npos))
    edges = np.concatenate([[-math.pi], -pos[::-1], pos, [math.pi]])
    half = rng.uniform(0.0, 4.0, size=npos + 1)
    values = np.concatenate([half[::-1], half[1:]])
    return KernelSpec.custom(PiecewiseConstant(edges=edges, values=values))


def cmd_duality(args) -> list:
    rng = np.random.default_rng(args.seed)
    fejer_orders = list(range(0, args.max_order + 1, max(1, args.max_order // 32)))
    poisson_radii = [round(0.05 + 0.02 * i, 2) for i in range(30)]

    # (label, weight_M, kernel) in draw order
    jobs = [(f"fejer:{n}", 1 + n % args.grid_M, KernelSpec.fejer(n)) for n in fejer_orders]
    jobs += [
        (f"poisson:{r}", 1 + int(100 * r) % args.grid_M, KernelSpec.poisson(r))
        for r in poisson_radii
    ]
    for t in range(args.trials):
        M = int(rng.integers(1, args.grid_M + 1))
        jobs.append((f"step:{t}", M, _random_even_nonneg_step_kernel(rng)))

    # one operator family per grid and kernel kind, in order of first use: one
    # weight lookup, and the family's kernels share each block's half-angle
    # table or their step-kernel seam searches; rows go back in draw order
    families = {}
    for i, (_, M, kernel) in enumerate(jobs):
        families.setdefault((M, kernel.kind), []).append(i)
    grids = {}
    rows = [None] * len(jobs)
    for (M, kind), members in families.items():
        if M not in grids:
            grids[M] = grid_for_kernels(M, args.ppi, args.max_order), make_weight(M)
        grid, w = grids[M]
        A = assemble_operator([jobs[i][2] for i in members], grid)
        if A.spectral:
            # both norms would be one spectral vector: the gap would be 0 unchecked
            raise ConfigError(
                f"{jobs[members[0]][0]} on weight_M={M} needs {grid.node_count}^2 samples, "
                f"past the spectral switch ({SPECTRAL_SWITCH}); lower --max-order or --ppi"
            )
        for i, (l1, linf) in zip(members, operator_norm(A, w)):
            n1, ninf = l1.value, linf.value
            gap = abs(n1 - ninf)
            # step kernels are reported gap-only: pointwise sampling of their jumps
            # is first-order in the mesh, so their norms are not refinement-stable
            shown = (n1, ninf) if kind != "custom" else ("", "")
            rows[i] = (jobs[i][0], M, *shown, gap, gap / max(n1, ninf))

    if args.out:
        csvio.write_rows(
            args.out,
            ["kernel", "weight_M", "norm_l1w", "norm_linfw", "gap", "rel_gap"],
            rows,
        )
    worst = np.max([row[-1] for row in rows])
    print(f"max relative duality gap over {len(rows)} kernels: {worst:.3e}")
    _check("duality-equality", worst, 1e-10, "<=")
    return rows


def cmd_blowup(args) -> list:
    w = make_weight(max(args.grid_M, max(args.m)))
    rows = fejer_blowup(args.m, w, points_per_interval=args.ppi)
    if args.out:
        csvio.write_rows(
            args.out,
            ["m", "n_m", "delta_n", "bound", "pointwise_min", "norm_linfw", "norm_l1w"],
            [dataclasses.astuple(r) for r in rows],
        )
    for r in rows:
        print(
            f"m={r.m} n={r.n_of_m} bound={r.bound:.5f} "
            f"pointwise_min={r.pointwise_min:.5f} norm_linfw={r.norm_linfw:.6f}"
        )
    # the worst row's excess over its bound sqrt(m)/(8 pi)
    pointwise = [r.pointwise_min - r.bound for r in rows]
    _check("blowup-pointwise", np.min(pointwise), 0.0, ">=")
    norm_excess = [r.norm_linfw - r.bound for r in rows]
    _check("blowup-norm-bound", np.min(norm_excess), 0.0, ">=")
    # spikes that certify at one order read one operator, so the norm must
    # rise only from one order to the next; one distinct order cannot grow
    norms = list({r.n_of_m: r.norm_linfw for r in rows}.values())
    if len(norms) > 1:
        _check("blowup-growth", np.min(np.diff(norms)), 0.0, ">")
    return rows


def cmd_fejer_converge(args) -> list:
    arc = PiecewiseConstant.indicator(0.0, args.arc_length)
    # the contracts read the errors in ascending order; a repeated order runs once
    orders = sorted(set(args.orders))
    grid = make_grid(
        1,
        args.ppi,
        max_cell=kernel_cell_cap(orders[-1]),
        extra_breakpoints=[args.arc_length],
    )
    errors = fejer_error_curve(arc, orders, grid)
    rows = list(zip(orders, errors))
    if args.out:
        csvio.write_rows(args.out, ["n", "error"], rows)
    for n, e in rows:
        print(f"n={n} unweighted L1 error={e:.6f}")
    # one distinct order has nothing to fall from
    if len(orders) > 1:
        _check("fejer-converge-monotone", np.max(np.diff(errors)), 1e-12, "<=")
    _check("fejer-converge-small", errors[-1], 1e-2, "<")
    return rows


def cmd_witness(args) -> list:
    w = make_weight(args.grid_M)
    report = gliding_hump_witness(
        w,
        args.stages,
        growth_target=args.target,
        points_per_interval=args.ppi,
    )
    print(report.summary())
    rows = [
        (k + 1, n, c, loc, err)
        for k, (n, c, loc, err) in enumerate(
            zip(report.orders, report.coefficients, report.bump_locations, report.stage_errors)
        )
    ]
    if args.out:
        csvio.write_rows(
            args.out, ["stage", "n", "coefficient", "bump_theta", "error"], rows
        )
        with open(str(args.out) + ".txt", "w", encoding="utf-8") as fh:
            fh.write(report.summary() + "\n")
    _check("witness-stages", np.min(report.stage_errors), args.target, ">=")
    return rows


_DENSITY_FUNCTIONS = {
    "t3": lambda theta: np.exp(3j * theta),
    "invquarter": lambda theta: (1.0 - np.exp(1j * theta)) ** -0.25,
}


def cmd_density(args) -> list:
    fn = _DENSITY_FUNCTIONS[args.function]
    grid = grid_for_kernels(args.grid_M, args.ppi, max(args.degrees))
    w = make_weight(args.grid_M)
    f = SampledFunction(grid=grid, samples=fn(grid.nodes))
    # density_curve fits each distinct degree once, in ascending order
    degrees = sorted(set(args.degrees))
    results = density_curve(f, w, degrees)
    errors = [r.error for r in results]
    rows = [(d, r.error, r.fejer_error) for d, r in zip(degrees, results)]
    if args.out:
        csvio.write_rows(args.out, ["degree", "error", "fejer_error"], rows)
    for d, r in zip(degrees, results):
        print(f"degree={d} error={r.error:.3e} fejer_error={r.fejer_error:.3e}")
    # one distinct degree has nothing to fall from
    if len(degrees) > 1:
        _check("density-monotone", np.max(np.diff(errors)), 1e-12, "<=")
    # below a fifth of the first error, or at most the 1e-8 floor: whichever
    # is larger decides (the floor on a tie); one distinct degree cannot decay
    if degrees[-1] > degrees[0]:
        threshold, sense = max((0.2 * errors[0], "<"), (1e-8, "<="))
        _check("density-decay", errors[-1], threshold, sense)
    excess = [r.error - r.fejer_error * (1 + 1e-12) for r in results]
    _check("density-fejer-bound", np.max(excess), 1e-12, "<=")
    return rows


def cmd_maximal(args) -> list:
    rows = weight_maximal_ratio(args.orders, points_per_interval=args.ppi)
    if args.out:
        csvio.write_rows(args.out, ["M", "ratio"], rows)
    for M, ratio in rows:
        print(f"M={M} sup (Mw)/w = {ratio:.6f}")
    print(
        "untruncated weight: sup (Mw)/w is infinite, so the maximal operator is"
        " unbounded on X' = Linf(1/w), the hypothesis the paper's counterexample"
        " must violate"
    )
    ratios = [r for _, r in rows]
    # the rows hold distinct orders; one order cannot grow
    if len(rows) > 1:
        _check("maximal-growth", np.min(np.diff(ratios)), 0.0, ">")
    # sqrt(M) scaling doubles the ratio exactly at 4x, where grid error
    # decides the sign, so only a wider span must double it
    if rows[-1][0] > 4 * rows[0][0]:
        _check("maximal-doubling", ratios[-1], 2.0 * ratios[0], ">=")
    return rows


def _analytic_window(coeffs):
    """The window of half-width W = len(coeffs) - 1 with c(k) = coeffs[k]
    for k = 0..W and zeros at negative index."""
    return np.pad(np.asarray(coeffs, dtype=complex), (len(coeffs) - 1, 0))


def _taylor_fourier_inputs(seed):
    rng = np.random.default_rng(seed)
    rand = rng.normal(size=17) + 1j * rng.normal(size=17)
    return [
        ("unit-poly-8", _analytic_window(np.ones(9))),
        ("geometric-32", _analytic_window(2.0 ** -np.arange(33))),
        ("random-16", _analytic_window(rand)),
    ]


def cmd_taylor_fourier(args) -> list:
    rows = []
    radii = list(dict.fromkeys(args.radii))  # a repeated radius runs once
    for name, f in _taylor_fourier_inputs(args.seed):
        for r in radii:
            mismatch = taylor_fourier_check(f, r)
            rows.append((name, r, mismatch))
            print(f"{name} r={r} mismatch={mismatch:.3e}")
    if args.out:
        csvio.write_rows(args.out, ["input", "radius", "mismatch"], rows)
    # extension coefficients against the boundary ones
    _check("taylor-fourier", np.max([row[-1] for row in rows]), 1e-8, "<=")
    return rows


# ---------------------------------------------------------------------------
# option plumbing


def _number(convert, lo=-math.inf, hi=math.inf, *, open_lo=False, open_hi=False):
    """argparse type: one `convert` value inside the interval from lo to hi,
    each end closed unless marked open.  NaN and +-inf are never inside."""
    if hi == math.inf:
        interval = f"{'>' if open_lo else '>='} {lo}"
    else:
        interval = f"in {'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"

    def parse(text: str):
        try:
            x = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"not a valid {convert.__name__}: {text!r}"
            ) from exc
        if not -math.inf < x < math.inf:
            raise argparse.ArgumentTypeError(f"{text.strip()} is not finite")
        if not ((x > lo if open_lo else x >= lo) and (x < hi if open_hi else x <= hi)):
            raise argparse.ArgumentTypeError(f"{text.strip()} is not {interval}")
        return x

    return parse


def _list_of(convert, lo=-math.inf, hi=math.inf, **ends):
    """argparse type: a non-empty comma-separated list of `_number` values."""
    item = _number(convert, lo, hi, **ends)

    def parse(text: str):
        values = [item(x) for x in text.split(",") if x.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return values

    return parse


# the flags several subcommands read; each subcommand adds the ones it reads
_SHARED = {
    "--grid-M": dict(type=_number(int, 1), default=8, help="weight truncation order"),
    "--ppi": dict(type=_number(int, 2), default=8, help="points per weight interval"),
    "--seed": dict(type=_number(int, 0), default=0),
}


# Built on the first call and shared by every later one: parsing fills a
# fresh namespace, errors and help read sys.stderr and the terminal width when
# they print, and no default is mutable, so no call leaves state for the next
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="fejerlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **_SHARED[flag])
        p.add_argument("--out", type=str, default=None, help="CSV output path")
        p.add_argument("--config", type=str, default=None, help="key=value option file")

    p = sub.add_parser("duality", help="norm equality on the associate pair")
    common(p, "--grid-M", "--ppi", "--seed")
    p.add_argument("--trials", type=_number(int, 0), default=100)
    p.add_argument("--max-order", type=_number(int, 0), default=64)
    p.set_defaults(func=cmd_duality)

    p = sub.add_parser("blowup", help="unbounded operator norms along the spikes")
    common(p, "--grid-M", "--ppi")
    p.add_argument("--m", type=_list_of(int, 1), default=(1, 4, 9, 16, 25))
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("fejer-converge", help="unweighted L1 convergence of Fejér means")
    common(p, "--ppi")
    p.add_argument("--orders", type=_list_of(int, 0), default=(16, 64, 256, 1024))
    p.add_argument(
        "--arc-length",
        type=_number(float, 0.0, math.pi, open_lo=True),
        default=math.pi / 2,
    )
    p.set_defaults(func=cmd_fejer_converge)

    p = sub.add_parser("witness", help="gliding-hump divergence witness")
    common(p, "--grid-M", "--ppi")
    p.add_argument("--stages", type=_number(int, 1), default=3)
    p.add_argument("--target", type=_number(float, 0.0, open_lo=True), default=1.0)
    p.set_defaults(func=cmd_witness, grid_M=64)

    p = sub.add_parser("density", help="weighted-L1 polynomial approximation curve")
    common(p, "--grid-M", "--ppi")
    p.add_argument("--function", choices=sorted(_DENSITY_FUNCTIONS), default="invquarter")
    p.add_argument("--degrees", type=_list_of(int, 0), default=(4, 8, 16, 32, 64))
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("maximal", help="maximal operator ratio on the weights")
    common(p, "--ppi")
    p.add_argument("--orders", type=_list_of(int, 1), default=(4, 16, 64))
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("taylor-fourier", help="extension coefficients match boundary ones")
    common(p, "--seed")
    p.add_argument(
        "--radii",
        type=_list_of(float, 0.0, 1.0, open_lo=True, open_hi=True),
        default=(0.5, 0.9),
    )
    p.set_defaults(func=cmd_taylor_fourier)

    return parser


def _config_flags(path):
    """The `key = value` lines of a config file as `--key value` arguments."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            flags += [f"--{key.replace('_', '-')}", value]
    return flags


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argv[0] is the subcommand (the top-level parser takes no
            # options); file entries go before the explicit flags, which win
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        args.func(args)
    # a file that cannot be read or written is a configuration problem too
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (NoQualifyingN, StageFailure, ValueError) as exc:
        print(f"contract violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
