"""Workload definitions and the table of traced bindings.

A workload is a fixed list of `fejerlab` subcommands.  The argv is the same
on every commit; only `{seed}` is filled in from the benchmark's `--seed`,
and only for the two experiments whose output depends on it.
"""

from __future__ import annotations

# label -> argv template; each experiment also gets `--out <dir>/<label>.csv`.
# Each experiment takes a few seconds, so a run repeats it several times and
# the minimum over repetitions is steady on a host shared with other tenants.
WORKLOADS: dict[str, list[tuple[str, list[str]]]] = {
    # Dense O(N^2) Fejér certificates on streamed operators (N = 3,284 and
    # 5,036, above the 3,000-node materialization limit): kernel sampling
    # under OperatorMatrix.weighted_sums dominates, so spectral or cached
    # kernel sums (ROADMAP item 2) act here.
    "spikes": [
        ("blowup", ["blowup", "--m", "1,4", "--grid-M", "25", "--ppi", "8"]),
        ("witness", ["witness", "--stages", "1", "--target", "1.0", "--grid-M", "9"]),
    ],
    # 326 norms on small materialized grids (N = 410 to 536): Fejér, Poisson
    # and random step kernels, so the materialized operator path and
    # step-function lookups (ROADMAP item 3) act here.  With --grid-M 2 the
    # random kernels' grid sizes, and so the work, vary little with the seed.
    "duality-mix": [
        ("duality-ppi8", ["duality", "--trials", "100", "--max-order", "32",
                          "--grid-M", "2", "--seed", "{seed}", "--ppi", "8"]),
        ("duality-ppi16", ["duality", "--trials", "100", "--max-order", "32",
                           "--grid-M", "2", "--seed", "{seed}", "--ppi", "16"]),
    ],
    # Never touches `operators`: the O(N^2) maximal sweep (ROADMAP item 4b),
    # trigonometric synthesis and IRLS least squares.
    "sweeps": [
        ("maximal", ["maximal", "--orders", "4,16,32"]),
        ("fejer-converge", ["fejer-converge", "--orders", "16,64,256,512"]),
        ("density", ["density", "--function", "invquarter",
                     "--degrees", "4,8,16,32,64", "--grid-M", "16"]),
        ("taylor-fourier", ["taylor-fourier", "--radii", "0.5,0.9", "--seed", "{seed}"]),
    ],
}


def experiments(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    return [
        (label, [a.replace("{seed}", str(seed)) for a in argv])
        for label, argv in WORKLOADS[workload]
    ]


SPIKES, DUALITY, SWEEPS = "spikes", "duality-mix", "sweeps"

# (module, attribute, layer, workloads that must call it through this binding)
# A function imported into several modules is rebound in each of them, so a
# call is counted whichever module makes it.  "Class.method" entries are
# rebound on the class.
BINDINGS: list[tuple[str, str, str, tuple[str, ...]]] = [
    ("circle", "fejer_kernel_eval", "circle.kernel_eval", (SPIKES, DUALITY)),
    ("operators", "fejer_kernel_eval", "circle.kernel_eval", (SPIKES,)),
    ("circle", "poisson_kernel_eval", "circle.kernel_eval", (DUALITY,)),
    ("circle", "PiecewiseConstant.__call__", "circle.step_lookup", (SPIKES, DUALITY, SWEEPS)),
    ("circle", "synthesize", "circle.synthesize", (SWEEPS,)),
    ("approx", "synthesize", "circle.synthesize", (SWEEPS,)),
    ("circle", "fourier_window", "circle.fourier_window", ()),
    ("approx", "fourier_window", "circle.fourier_window", (SWEEPS,)),
    ("circle", "make_grid", "circle.make_grid", ()),
    ("operators", "make_grid", "circle.make_grid", (SPIKES, DUALITY, SWEEPS)),
    ("maximal", "make_grid", "circle.make_grid", (SWEEPS,)),
    ("cli", "make_grid", "circle.make_grid", (SWEEPS,)),
    ("spaces", "Weight.__call__", "spaces.weight_eval", (SPIKES, DUALITY, SWEEPS)),
    ("operators", "assemble_operator", "operators.assemble", ()),
    ("approx", "assemble_operator", "operators.assemble", (SPIKES,)),
    ("cli", "assemble_operator", "operators.assemble", (DUALITY,)),
    ("operators", "operator_norm", "operators.norm", (SPIKES,)),
    ("approx", "operator_norm", "operators.norm", (SPIKES,)),
    ("cli", "operator_norm", "operators.norm", (DUALITY,)),
    ("operators", "OperatorMatrix.weighted_sums", "operators.weighted_sums", (SPIKES, DUALITY)),
    ("operators", "localization_params", "operators.localization", (SPIKES,)),
    ("approx", "localization_params", "operators.localization", (SPIKES,)),
    ("operators", "fejer_blowup", "operators.blowup", ()),
    ("cli", "fejer_blowup", "operators.blowup", (SPIKES,)),
    ("maximal", "maximal_function", "maximal.sweep", (SWEEPS,)),
    ("maximal", "weight_maximal_ratio", "maximal.ratio", ()),
    ("cli", "weight_maximal_ratio", "maximal.ratio", (SWEEPS,)),
    ("hardy", "taylor_fourier_check", "hardy.taylor_fourier", ()),
    ("cli", "taylor_fourier_check", "hardy.taylor_fourier", (SWEEPS,)),
    ("approx", "best_poly_l1w", "approx.irls", (SWEEPS,)),
    ("approx", "density_curve", "approx.density", ()),
    ("cli", "density_curve", "approx.density", (SWEEPS,)),
    ("approx", "fejer_error_curve", "approx.error_curve", ()),
    ("cli", "fejer_error_curve", "approx.error_curve", (SWEEPS,)),
    ("approx", "gliding_hump_witness", "approx.witness", ()),
    ("cli", "gliding_hump_witness", "approx.witness", (SPIKES,)),
]
