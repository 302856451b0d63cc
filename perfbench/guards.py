"""The benchmark's own tests: layer coverage and repeatable counts.

    python3 -m pytest perfbench/guards.py

The file name keeps these out of the repository's default test run: they
run every workload twice with tracing on (about three minutes on two cores).

* Every traced binding exists, and no module holds an untraced reference to
  a traced function, so a refactor that moves a name cannot silently report
  0 s for its layer.
* Every binding records at least one call on each workload meant to
  exercise it.
* The work counts repeat exactly across two runs with one seed.
"""

from __future__ import annotations

import pytest

import run
import tracer
from workloads import BINDINGS, WORKLOADS

SEED = 7
REPEATED_COUNTS = (
    "circle.kernel_evals", "circle.nodes", "maximal.arcs", "approx.irls.iters", "cli.csv_bytes",
)


@pytest.fixture(scope="module")
def cli():
    run.pin_threads()
    return run.import_cli()


def test_every_binding_is_traced(cli):
    with tracer.Tracer() as trace:
        unwrapped = trace.unwrapped_bindings()
    assert trace.missing == []
    assert unwrapped == []


def _traced_pass(cli, workload, out_dir):
    with tracer.Tracer() as trace:
        results = run.run_pass(cli, workload, SEED, out_dir, trace)
    assert [r["exit"] for r in results] == [0] * len(results)
    return trace.spans, run.layer_metrics(trace.spans, out_dir)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def two_runs(request, cli):
    workload = request.param
    base = run.OUT_ROOT / "guards" / workload
    return workload, [_traced_pass(cli, workload, base / f"run{i}") for i in (1, 2)]


def test_layer_coverage(two_runs):
    workload, [(spans, _), _] = two_runs
    calls = tracer.binding_calls(spans)
    expected = [f"{m}.{a}" for m, a, _, workloads in BINDINGS if workload in workloads]
    assert [name for name in expected if not calls.get(name)] == []


def test_counts_repeat(two_runs):
    _, [(_, first), (_, second)] = two_runs
    assert {k: first[k] for k in REPEATED_COUNTS} == {k: second[k] for k in REPEATED_COUNTS}
