"""fejerlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload spikes --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  One
process runs one workload.  It calls `fejerlab.cli.main(argv)` once per
experiment, in a closed loop with one caller, and repeats the workload's
experiment list (a pass) until `--seconds` have elapsed; a pass is never cut
short, so a run holds at least one.

--trace 0  times the passes with nothing wrapped and prints the end-to-end
           metrics; a timing is the sum over experiments of each one's
           fastest repetition.
--trace 1  runs one untraced pass and then one traced pass (see tracer.py),
           checks that both wrote byte-identical files, and prints the
           per-layer metrics.

Outputs, a run record and (traced) the spans go to
`.bench_out/<workload>/seed<S>-trace<T>/`.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Exit code 0
when the run completed, 2 when it could not start (for example no `src/`).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import outputs
import tracer
from workloads import BINDINGS, WORKLOADS, experiments

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 11  # at least this many; one per pass when there are more


def pin_threads():
    """One BLAS/OpenMP thread: unpinned OpenBLAS timings drift by about a
    third run to run on two cores.  BLAS reads these when numpy is first
    imported, so this must run before anything imports numpy."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cli():
    """Import fejerlab.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "fejerlab" / "cli.py").is_file():
        raise FileNotFoundError(f"no fejerlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fejerlab.cli

    if Path(fejerlab.cli.__file__).resolve().parent != SRC / "fejerlab":
        raise ImportError(f"fejerlab imported from {fejerlab.cli.__file__}, not {SRC}")
    return fejerlab.cli


def measure_setup(n: int) -> list[float]:
    """Seconds from launching a fresh interpreter until numpy and
    fejerlab.cli are imported, as a user pays it before every experiment.
    perf_counter is CLOCK_MONOTONIC on Linux, so the child's reading is
    comparable with the parent's."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import numpy, fejerlab.cli, time; print(repr(time.perf_counter()))"
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return samples


def call_experiment(cli, argv: list[str], log_path: Path) -> dict:
    """One closed-loop call of cli.main; its stdout and stderr go to a log."""
    buf = io.StringIO()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed experiment, not a failed benchmark
            traceback.print_exc()
            code = -1
    end = time.perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)
    text = buf.getvalue()
    log_path.write_text(text, encoding="utf-8")
    return {"argv": argv, "exit": code, "start": start, "end": end,
            "cpu": after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime,
            "fail_lines": sum(line.startswith("[FAIL]") for line in text.splitlines())}


def run_pass(cli, workload: str, seed: int, out_dir: Path, trace=None) -> list[dict]:
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for label, argv in experiments(workload, seed):
        argv = argv + ["--out", str(out_dir / f"{label}.csv")]
        log = out_dir / f"{label}.log"
        if trace is None:
            res = call_experiment(cli, argv, log)
        else:
            with trace.span("cli.main", "cli.main"):
                res = call_experiment(cli, argv, log)
        res["label"] = label
        results.append(res)
    return results


def check_pass(results: list[dict], out_dir: Path, seed: int, tolerances: dict) -> None:
    """Adds `reference`, `contracts` and `failed` to each experiment result."""
    for res in results:
        csv_path = out_dir / f"{res['label']}.csv"
        problems = []
        if res["exit"] != 0:
            problems.append(f"exit code {res['exit']}")
        if res["fail_lines"]:
            problems.append(f"{res['fail_lines']} FAIL lines")
        if not csv_path.is_file():
            problems.append("no CSV written")
        else:
            try:
                res["reference"] = outputs.compare_reference(
                    res["label"], csv_path, seed, tolerances)
                res["contracts"] = outputs.contracts(res["argv"], csv_path)
            except (KeyError, ValueError, ZeroDivisionError) as exc:
                problems.append(f"unreadable CSV: {exc!r}")
            else:
                problems += res["reference"]["mismatches"]
                problems += [f"contract {c['name']} margin {c['margin']}"
                             for c in res["contracts"] if not c["margin"] >= 0]
        res["problems"] = problems
        res["failed"] = bool(problems)


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
        "platform": platform.platform(),
    }


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(len(ordered) * q))) - 1]


def pass_wall(results: list[dict]) -> float:
    return results[-1]["end"] - results[0]["start"]


# -- the two kinds of run ------------------------------------------------------


def timed_run(cli, args, run_dir: Path, tolerances: dict):
    passes, setup = [], []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        passes.append(run_pass(cli, args.workload, args.seed, run_dir / f"pass{len(passes)}"))
        # one launch per pass samples the host over the whole run, not in one burst
        setup += measure_setup(1)
    setup += measure_setup(SETUP_LAUNCHES - len(setup))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i, results in enumerate(passes):
        check_pass(results, run_dir / f"pass{i}", args.seed, tolerances)
    flat = [r for results in passes for r in results]
    failed = sum(r["failed"] for r in flat)
    margins = [c["margin"] for r in flat for c in r.get("contracts", ())
               if math.isfinite(c["margin"])]
    # Other tenants of a shared host only ever add time, so each experiment's
    # fastest repetition is the steadiest estimate of its own cost; the
    # workload's cost is the sum over its experiments.
    labels = [r["label"] for r in passes[0]]
    walls = {label: [r["end"] - r["start"] for r in flat if r["label"] == label]
             for label in labels}
    cpus = {label: [r["cpu"] for r in flat if r["label"] == label] for label in labels}
    metrics = {
        "wall_s": (sum(min(v) for v in walls.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (sum(min(v) for v in cpus.values()), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (1.0 - failed / len(flat), "ratio"),
        # -1 when no contract could be read; every experiment has failed then
        "min_margin": (min(margins) if margins else -1.0, "ratio"),
    }
    samples = {"setup_s": setup, "pass_wall_s": [pass_wall(results) for results in passes]}
    samples.update({f"wall_s[{label}]": v for label, v in walls.items()})
    extra = {"error_rate": failed / len(flat), "passes": len(passes)}
    return passes, metrics, samples, extra


def traced_run(cli, args, run_dir: Path, tolerances: dict):
    # The untraced pass goes first and warms the allocator, so the traced
    # pass runs in the state of the fastest timed repetitions.
    plain = run_pass(cli, args.workload, args.seed, run_dir / "untraced")
    with tracer.Tracer() as trace:
        unwrapped = trace.unwrapped_bindings()
        traced = run_pass(cli, args.workload, args.seed, run_dir / "traced", trace)
    check_pass(plain, run_dir / "untraced", args.seed, tolerances)
    check_pass(traced, run_dir / "traced", args.seed, tolerances)

    identical = True
    for res in traced:
        names = {p.name for d in ("traced", "untraced")
                 for p in (run_dir / d).glob(f"{res['label']}.csv*")}
        for name in sorted(names):
            a, b = run_dir / "traced" / name, run_dir / "untraced" / name
            if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                res["problems"].append(f"{name} differs between traced and untraced runs")
                res["failed"] = identical = False

    spans = trace.spans
    (run_dir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    metrics = layer_metrics(spans, run_dir / "traced")
    metrics["trace.wall_s"] = (pass_wall(traced), "s")
    metrics["trace.overhead_s"] = (trace.overhead_s, "s")

    calls = tracer.binding_calls(spans)
    coverage = {
        f"{module}.{attr}": calls.get(f"{module}.{attr}", 0)
        for module, attr, _, _ in BINDINGS
    }
    uncovered = [
        f"{module}.{attr}" for module, attr, _, workloads in BINDINGS
        if args.workload in workloads and not coverage[f"{module}.{attr}"]
    ]
    for name in trace.missing + uncovered + unwrapped:
        print(f"warning: traced binding {name} is missing, unwrapped or never called",
              file=sys.stderr)
    extra = {
        "untraced_wall_s": pass_wall(plain),
        "coverage": coverage, "missing": trace.missing, "uncovered": uncovered,
        "unwrapped": unwrapped, "traced_csv_identical": identical,
        "layers": tracer.layer_summary(spans),
    }
    return [plain, traced], metrics, {}, extra


def layer_metrics(spans, out_dir: Path) -> dict:
    layers = tracer.layer_summary(spans)

    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    norm_ms = [1e3 * d for d in tracer.durations(spans, "operators.norm")]
    assembled = get("operators.assemble", "calls")
    candidates = tracer.descendants_of(spans, "operators.norm", "approx.witness")
    kernel_evals = get("circle.kernel_eval", "count")
    return {
        "circle.kernel_eval.s": (get("circle.kernel_eval", "s"), "s"),
        "circle.kernel_evals": (kernel_evals, "count"),
        "circle.kernel_bytes": (8 * kernel_evals, "B"),
        "circle.step_lookup.s": (get("circle.step_lookup", "s"), "s"),
        "circle.step_lookup.points": (get("circle.step_lookup", "count"), "count"),
        "circle.synthesize.s": (get("circle.synthesize", "s"), "s"),
        "circle.fourier_window.s": (get("circle.fourier_window", "s"), "s"),
        "circle.nodes": (get("circle.make_grid", "count"), "count"),
        "circle.make_grid.s": (get("circle.make_grid", "s"), "s"),
        "spaces.weight_eval.s": (get("spaces.weight_eval", "s"), "s"),
        "operators.assemble.s": (get("operators.assemble", "s"), "s"),
        "operators.materialized_share": (
            get("operators.assemble", "count") / assembled if assembled else 0.0, "ratio"),
        "operators.norm_ms.p50": (statistics.median(norm_ms) if norm_ms else 0.0, "ms"),
        "operators.norm_ms.p90": (quantile(norm_ms, 0.9) if norm_ms else 0.0, "ms"),
        "operators.norm_calls": (len(norm_ms), "count"),
        "operators.weighted_sums.s": (get("operators.weighted_sums", "s"), "s"),
        "operators.weighted_sums.self_s": (get("operators.weighted_sums", "self_s"), "s"),
        "operators.weighted_sums.calls": (get("operators.weighted_sums", "calls"), "count"),
        "operators.localization.s": (get("operators.localization", "s"), "s"),
        "maximal.sweep.s": (get("maximal.sweep", "s"), "s"),
        "maximal.arcs": (get("maximal.sweep", "count"), "count"),
        "hardy.taylor_fourier.s": (get("hardy.taylor_fourier", "s"), "s"),
        "approx.irls.s": (get("approx.irls", "s"), "s"),
        "approx.irls.iters": (get("approx.irls", "count"), "count"),
        "approx.error_curve.self_s": (get("approx.error_curve", "self_s"), "s"),
        "approx.witness.self_s": (get("approx.witness", "self_s"), "s"),
        "approx.witness.accept_ratio": (
            get("approx.witness", "count") / candidates if candidates else 0.0, "ratio"),
        "cli.self_s": (get("cli.main", "self_s"), "s"),
        "cli.csv_bytes": (sum(p.stat().st_size for p in out_dir.glob("*.csv")), "B"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        cli = import_cli()
        tolerances = outputs.load_tolerances()
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    run_dir = OUT_ROOT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = traced_run if args.trace else timed_run
    passes, metrics, samples, extra = run(cli, args, run_dir, tolerances)
    flat = [r for results in passes for r in results]
    failed = sum(r["failed"] for r in flat)

    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed),
        "experiments": [
            {key: r.get(key) for key in
             ("label", "argv", "exit", "failed", "problems", "reference", "contracts")}
            | {"seconds": r["end"] - r["start"]}
            for r in flat
        ],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "samples": samples,
        **extra,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    for name, s in samples.items():
        print(f"{name:34s} median {statistics.median(s):.6g} p90 {quantile(s, 0.9):.6g} "
              f"min {min(s):.6g} max {max(s):.6g} over {len(s)} samples")
    for name, value in extra.items():
        if isinstance(value, (int, float, bool)):
            print(f"{name:34s} {value}")
    for r in (r for r in flat if r["failed"]):
        print(f"FAILED {r['label']}: {'; '.join(r['problems'][:5])}")
    print(f"record: {run_dir / 'record.json'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(flat),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
