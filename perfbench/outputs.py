"""Checks on the CSV files an experiment writes.

Two checks, both read only the files:

* `compare_reference`: every number is compared with the stored reference
  output at the tolerance stored beside it in `reference/tolerances.json`.
  Rows whose key starts with a `seeded` prefix depend on `--seed`; they are
  compared only at the reference seed, and otherwise only their key is.
* `contracts`: each in-run contract of the subcommand, recomputed from the
  CSV as (name, value, threshold, margin).  The margin is signed and
  relative: `value / threshold - 1` for a lower bound and
  `1 - value / threshold` for an upper bound, so it is negative exactly
  when the contract fails.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def load_tolerances() -> dict:
    return json.loads((REFERENCE_DIR / "tolerances.json").read_text(encoding="utf-8"))


def _close(got: str, want: str, tol) -> bool:
    if tol == "exact" or want == "" or got == "":
        return got == want
    g, w = float(got), float(want)
    if tol.get("mirror"):  # even weight on a symmetric grid: -x is as good as x
        g, w = abs(g), abs(w)
    return abs(g - w) <= tol.get("atol", 0.0) + tol.get("rtol", 0.0) * abs(w)


def compare_reference(label: str, path, seed: int, tolerances: dict) -> dict:
    """Counts of compared numbers and of seeded rows left uncompared, and
    the mismatches, for the experiment `label`."""
    spec = tolerances["experiments"][label]
    ref = read_csv(REFERENCE_DIR / f"{label}.csv")
    got = read_csv(path)
    result = {"compared": 0, "seeded_rows_skipped": 0, "mismatches": []}
    if not got or list(got[0]) != list(ref[0]) or len(got) != len(ref):
        result["mismatches"].append(
            f"shape: {len(got)} rows {list(got[0]) if got else []} "
            f"vs reference {len(ref)} rows {list(ref[0])}"
        )
        return result
    seeded = tuple(spec.get("seeded", ()))
    at_reference_seed = seed == tolerances["reference_seed"]
    for i, (g, r) in enumerate(zip(got, ref)):
        key = spec["key"]
        if seeded and r[key].startswith(seeded) and not at_reference_seed:
            result["seeded_rows_skipped"] += 1
            columns = {key: "exact"}
        else:
            columns = spec["columns"]
        for col, tol in columns.items():
            result["compared"] += 1
            if not _close(g[col], r[col], tol):
                result["mismatches"].append(f"row {i} {col}: {g[col]} vs {r[col]}")
    return result


# -- contracts ---------------------------------------------------------------


def _lower(name, value, threshold):
    return {"name": name, "value": value, "threshold": threshold,
            "margin": value / threshold - 1.0}


def _upper(name, value, threshold):
    return {"name": name, "value": value, "threshold": threshold,
            "margin": 1.0 - value / threshold}


def _decreasing(name, xs, values):
    return [
        _upper(f"{name}[{x0}->{x1}]", b, a)
        for x0, x1, a, b in zip(xs, xs[1:], values, values[1:])
    ]


def _increasing(name, xs, values):
    return [
        _lower(f"{name}[{x0}->{x1}]", b, a)
        for x0, x1, a, b in zip(xs, xs[1:], values, values[1:])
    ]


def _col(rows, name, kind=float):
    return [kind(r[name]) for r in rows]


def _blowup(rows, argv):
    out = []
    for r in rows:
        bound = float(r["bound"])
        out.append(_lower(f"blowup-pointwise[m={r['m']}]", float(r["pointwise_min"]), bound))
        out.append(_lower(f"blowup-norm-bound[m={r['m']}]", float(r["norm_linfw"]), bound))
    return out + _increasing("blowup-growth", _col(rows, "m", int), _col(rows, "norm_linfw"))


def _witness(rows, argv):
    target = float(argv[argv.index("--target") + 1])
    return [_lower(f"witness-stage[{r['stage']}]", float(r["error"]), target) for r in rows]


def _duality(rows, argv):
    return [_upper("duality-equality", max(_col(rows, "rel_gap")), 1e-10)]


def _maximal(rows, argv):
    Ms, ratios = _col(rows, "M", int), _col(rows, "ratio")
    out = _increasing("maximal-growth", Ms, ratios)
    if Ms[-1] >= 4 * Ms[0]:
        out.append(_lower("maximal-doubling", ratios[-1], 2.0 * ratios[0]))
    return out


def _fejer_converge(rows, argv):
    ns, errors = _col(rows, "n", int), _col(rows, "error")
    return _decreasing("fejer-converge-monotone", ns, errors) + [
        _upper("fejer-converge-small", errors[-1], 1e-2)
    ]


def _density(rows, argv):
    degrees, errors = _col(rows, "degree", int), _col(rows, "error")
    decay = _upper("density-decay", errors[-1], 0.2 * errors[0])
    floor = _upper("density-decay", errors[-1], 1e-8)  # the contract's alternative
    out = _decreasing("density-monotone", degrees, errors)
    out.append(max(decay, floor, key=lambda c: c["margin"]))
    for r in rows:
        if r["fejer_error"]:
            out.append(_upper(f"density-fejer-bound[{r['degree']}]",
                              float(r["error"]), float(r["fejer_error"])))
    return out


def _taylor_fourier(rows, argv):
    return [_upper("taylor-fourier", max(_col(rows, "mismatch")), 1e-8)]


CONTRACTS = {
    "blowup": _blowup,
    "witness": _witness,
    "duality": _duality,
    "maximal": _maximal,
    "fejer-converge": _fejer_converge,
    "density": _density,
    "taylor-fourier": _taylor_fourier,
}


def contracts(argv: list[str], path) -> list[dict]:
    return CONTRACTS[argv[0]](read_csv(path), argv)
