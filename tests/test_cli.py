import re
import shlex
from pathlib import Path

import pytest

from fejerlab.cli import ContractViolation, _check, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

# [PASS|FAIL] name: value sense threshold (margin m)
CONTRACT_LINE = re.compile(
    r"\[(?P<verdict>PASS|FAIL)\] (?P<name>[a-z-]+): (?P<value>\S+) "
    r"(?P<sense><=|>=|<|>) (?P<threshold>\S+) \(margin (?P<margin>\S+)\)$"
)


def test_invalid_subcommand_is_config_error(capsys):
    assert main(["not-a-command"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_invalid_flag_value_is_config_error(capsys):
    assert main(["duality", "--trials", "banana"]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["maximal", "--ppi", "1"],
        ["blowup", "--m", "0"],
        ["fejer-converge", "--orders", ","],
        ["witness", "--stages", "0"],
        ["witness", "--target", "nan"],
        ["taylor-fourier", "--radii", "1.5"],
        ["duality", "--max-order", "-2", "--grid-M", "1"],
        ["density", "--degrees", "-1", "--grid-M", "2"],
        ["duality", "--grid-M", "0"],
        ["duality", "--trials", "-1"],
        ["duality", "--seed", "-1"],
        ["blowup", "--oversample", "0"],
        ["fejer-converge", "--arc-length", "4"],
        ["taylor-fourier", "--radii", "nan"],
    ],
)
def test_out_of_range_argument_is_config_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


# (subcommand, flag, value): each subcommand accepts only the flags it reads
UNREAD_FLAGS = [
    ("blowup", "--seed", "1"),
    ("fejer-converge", "--seed", "1"),
    ("witness", "--seed", "1"),
    ("density", "--seed", "1"),
    ("maximal", "--seed", "1"),
    ("fejer-converge", "--grid-M", "2"),
    ("maximal", "--grid-M", "2"),
    ("taylor-fourier", "--grid-M", "2"),
    ("taylor-fourier", "--ppi", "4"),
]


@pytest.mark.parametrize("command,flag,value", UNREAD_FLAGS)
def test_ignored_flag_is_config_error(command, flag, value, tmp_path, capsys):
    assert main([command, flag, value]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err
    # the same flag from a config file is rejected the same way
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "Traceback" not in err


def test_readme_examples_parse():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [
        line.split("#", 1)[0] for line in block.splitlines() if line.startswith("fejerlab ")
    ]
    assert len(examples) == 7
    parser = build_parser()
    for line in examples:
        parser.parse_args(shlex.split(line)[1:])


def test_missing_config_file_is_config_error(capsys):
    assert main(["duality", "--config", "/nonexistent/file"]) == 1


def test_taylor_fourier_passes_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "tf.csv"
    assert main(["taylor-fourier", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "input,radius,mismatch"
    assert "[PASS]" in capsys.readouterr().out


def test_fejer_converge_contract_violation_exits_two(capsys):
    # a decreasing order list makes the error sequence increase
    code = main(["fejer-converge", "--orders", "256,16"])
    assert code == 2
    out, err = capsys.readouterr()
    assert "contract violation" in err
    [fail] = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    value, threshold = CONTRACT_LINE.match(fail).group("value", "threshold")
    assert float(value) != float(threshold)


@pytest.mark.parametrize("sense", ["<", "<=", ">", ">="])
def test_check_prints_value_threshold_and_signed_margin(sense, capsys):
    good, bad = (1.0, 3.0) if sense[0] == "<" else (3.0, 1.0)
    _check("probe", good, 2.0, sense)
    assert capsys.readouterr().out == f"[PASS] probe: {good} {sense} 2.0 (margin 1.0)\n"
    with pytest.raises(ContractViolation) as exc:
        _check("probe", bad, 2.0, sense)
    assert exc.value.name == "probe"
    assert capsys.readouterr().out == f"[FAIL] probe: {bad} {sense} 2.0 (margin -1.0)\n"
    # equality passes only the non-strict senses, with margin 0
    if sense.endswith("="):
        _check("probe", 2.0, 2.0, sense)
        assert capsys.readouterr().out == f"[PASS] probe: 2.0 {sense} 2.0 (margin 0.0)\n"
    else:
        with pytest.raises(ContractViolation, match="probe"):
            _check("probe", 2.0, 2.0, sense)
        assert capsys.readouterr().out == f"[FAIL] probe: 2.0 {sense} 2.0 (margin 0.0)\n"


def test_check_never_prints_a_failing_comparison_as_equal(capsys):
    # both would print as 4.000 at three decimals
    with pytest.raises(ContractViolation):
        _check("probe", 3.999914, 3.999952, ">=")
    m = CONTRACT_LINE.match(capsys.readouterr().out.rstrip("\n"))
    assert (m["value"], m["threshold"]) == ("3.999914", "3.999952")
    assert float(m["margin"]) < 0


# small arguments for each subcommand, and the contracts each one checks
CONTRACTS = {
    "duality": (
        ["--trials", "3", "--grid-M", "2", "--max-order", "8"],
        {"duality-equality"},
    ),
    "blowup": (
        ["--m", "1,4", "--grid-M", "4", "--ppi", "4"],
        {"blowup-pointwise", "blowup-norm-bound", "blowup-growth"},
    ),
    "fejer-converge": (
        ["--orders", "16,256"],
        {"fejer-converge-monotone", "fejer-converge-small"},
    ),
    "witness": (
        ["--stages", "1", "--target", "0.5", "--grid-M", "9"],
        {"witness-stages"},
    ),
    "density": (
        ["--function", "t3", "--degrees", "3,5", "--grid-M", "2"],
        {"density-monotone", "density-decay", "density-fejer-bound"},
    ),
    "maximal": (
        ["--orders", "2,16", "--ppi", "4"],
        {"maximal-growth", "maximal-doubling"},
    ),
    "taylor-fourier": ([], {"taylor-fourier"}),
}


@pytest.mark.parametrize("command", sorted(CONTRACTS))
def test_each_subcommand_prints_its_contracts(command, capsys):
    argv, names = CONTRACTS[command]
    assert main([command, *argv]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    matches = [CONTRACT_LINE.match(line) for line in lines]
    assert all(matches), lines
    assert {m["name"] for m in matches} == names
    for m in matches:
        assert m["verdict"] == "PASS" and float(m["margin"]) >= 0.0, m.group(0)


def test_blowup_csv_header_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["blowup", "--m", "1,4", "--grid-M", "4"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == "m,n_m,delta_n,bound,pointwise_min,norm_linfw,norm_l1w"


def test_duality_past_one_block_is_config_error(tmp_path, capsys):
    # --max-order 400 caps cells at 2 pi / 3208: a Fejér operator's norms would
    # be one spectral vector, so the duality check refuses instead of passing
    out = tmp_path / "d.csv"
    assert main(["duality", "--max-order", "400", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "kernel block" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_duality_determinism_and_pass(tmp_path, capsys):
    out1 = tmp_path / "d1.csv"
    out2 = tmp_path / "d2.csv"
    args = ["duality", "--trials", "8", "--seed", "7", "--grid-M", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "spelling",
    [["--config", "{}"], ["--config={}"], ["--conf", "{}"]],
    ids=["separate", "equals", "prefix"],
)
def test_config_file_supplies_defaults_and_flags_win(spelling, tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("orders = 16,32\narc-length = 1.0\n")
    config = [a.format(cfg) for a in spelling]
    # the file's orders run; they stop short of the final-error contract
    assert main(["fejer-converge", *config]) == 2
    outlines = capsys.readouterr().out.splitlines()
    assert outlines[0].startswith("n=16 ")
    assert outlines[1].startswith("n=32 ")
    code = main(["fejer-converge", *config, "--orders", "64,1024"])
    assert code == 0
    outlines = capsys.readouterr().out.splitlines()
    assert outlines[0].startswith("n=64 ")  # flag beat the config file
    assert outlines[1].startswith("n=1024 ")


def test_maximal_exact_fourfold_span_skips_doubling(capsys):
    # sqrt(M) scaling doubles the ratio exactly at 4x, so grid error would
    # decide the sign: ratio(16) = 3.999828 against 2 * ratio(4) = 3.999906
    assert main(["maximal", "--orders", "4,16", "--ppi", "4"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] maximal-growth" in out and "maximal-doubling" not in out


def test_maximal_subcommand_small(capsys, tmp_path):
    out = tmp_path / "m.csv"
    code = main(["maximal", "--orders", "2,16", "--ppi", "4", "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "M,ratio"


def test_density_t3_small(capsys):
    code = main(["density", "--function", "t3", "--degrees", "3,5", "--grid-M", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


@pytest.mark.parametrize("degrees", ["64", "3,3"])
def test_density_single_distinct_degree_skips_decay(degrees, capsys):
    # one distinct degree would compare its error with a fifth of itself
    argv = ["density", "--function", "invquarter", "--degrees", degrees, "--grid-M", "16"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[PASS] density-monotone" in out and "[PASS] density-fejer-bound" in out
    assert "density-decay" not in out


def test_density_rows_labelled_with_sorted_degrees(tmp_path):
    # the fits run in ascending degree, so the argument order must not matter
    csv = {}
    for degrees in ("5,3", "3,5"):
        csv[degrees] = tmp_path / f"density-{degrees}.csv"
        argv = ["density", "--function", "t3", "--degrees", degrees, "--grid-M", "2"]
        assert main(argv + ["--out", str(csv[degrees])]) == 0
    assert csv["5,3"].read_bytes() == csv["3,5"].read_bytes()


def test_density_without_fejer_candidate_prints_na(monkeypatch, capsys):
    # a degree above N/4 has no Fejér candidate: its fejer_error is None
    import dataclasses

    from fejerlab import cli

    fit = cli.density_curve
    monkeypatch.setattr(
        cli,
        "density_curve",
        lambda *args: [dataclasses.replace(r, fejer_error=None) for r in fit(*args)],
    )
    code = main(["density", "--function", "t3", "--degrees", "3,5", "--grid-M", "2"])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in err
    assert out.count("fejer_error=n/a") == 2


def test_write_rows_format(tmp_path):
    import numpy as np

    from fejerlab.csvio import write_rows

    rows = [
        (np.int64(3), 0.1, 1.5 - 2j, ""),
        (4, np.float64(1 / 3), np.complex128(-0.5 + 0.25j), "a"),
    ]
    path = write_rows(tmp_path / "sub" / "t.csv", ["n", "x", "z", "s"], rows)
    assert path.read_bytes() == (
        b"n,x,z,s\r\n3,0.1,1.5-2.0j,\r\n4,0.3333333333333333,-0.5+0.25j,a\r\n"
    )


def test_witness_subcommand_writes_sidecar(tmp_path):
    out = tmp_path / "w.csv"
    code = main(
        ["witness", "--stages", "1", "--target", "0.5", "--grid-M", "9", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    sidecar = out.with_name(out.name + ".txt")
    assert "stage 1" in sidecar.read_text()
