import argparse
import contextlib
import copy
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fejerlab.circle import KernelSpec
from fejerlab.cli import (
    ContractViolation,
    _check,
    _random_even_nonneg_step_kernel,
    build_parser,
    main,
)
from fejerlab.csvio import write_rows
from fejerlab.operators import assemble_operator, grid_for_kernels, operator_norm
from fejerlab.spaces import Weight, make_weight

README = Path(__file__).resolve().parents[1] / "README.md"

# [PASS|FAIL] name: value sense threshold (margin m)
CONTRACT_LINE = re.compile(
    r"\[(?P<verdict>PASS|FAIL)\] (?P<name>[a-z-]+): (?P<value>\S+) "
    r"(?P<sense><=|>=|<|>) (?P<threshold>\S+) \(margin (?P<margin>\S+)\)$"
)


def _python(code, *args):
    """Run `code` in a fresh interpreter that imports fejerlab from src/."""
    path = [str(README.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )


def test_grid_and_a_run_leave_numpy_ma_unimported():
    # numpy 2's np.unique imports numpy.ma on first use, a launch cost that
    # make_grid's edge dedupe avoids; fejer-converge also adds an extra edge
    code = (
        "import sys\n"
        "from fejerlab.circle import make_grid\n"
        "from fejerlab.cli import main\n"
        "make_grid(25, 8)\n"
        "assert main(['fejer-converge']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _python(code).stdout.splitlines()[-1] == "False"


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
        ["witness", "--target", "inf"],
        ["witness", "--target", "1e400"],
        ["taylor-fourier", "--radii", "1.5"],
        ["duality", "--max-order", "-2", "--grid-M", "1"],
        ["density", "--degrees", "-1", "--grid-M", "2"],
        ["duality", "--grid-M", "0"],
        ["duality", "--trials", "-1"],
        ["duality", "--seed", "-1"],
        ["blowup", "--oversample", "8"],
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


def test_undecodable_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"ppi = 4\n\xff = 3\n")
    assert main(["maximal", "--config", str(cfg)]) == 1
    assert "configuration error" in capsys.readouterr().err


# valid (flag, value) pairs per subcommand, and tokens no value flag accepts
VALID_FLAGS = {
    "duality": [("--trials", "3"), ("--grid-M", "2"), ("--max-order", "8"), ("--ppi", "4"),
                ("--seed", "1")],
    "blowup": [("--m", "1,4"), ("--grid-M", "4"), ("--ppi", "4")],
    "fejer-converge": [("--orders", "16,256"), ("--ppi", "4"), ("--arc-length", "1.0")],
    "witness": [("--stages", "1"), ("--target", "0.5"), ("--grid-M", "9"), ("--ppi", "4")],
    "density": [("--function", "t3"), ("--degrees", "3,5"), ("--grid-M", "2"), ("--ppi", "4")],
    "maximal": [("--orders", "2,16"), ("--ppi", "4")],
    "taylor-fourier": [("--radii", "0.5,0.9"), ("--seed", "1")],
}
BAD_TOKENS = ["-1", "abc", "nan", "inf", "1e400", ""]


@st.composite
def _invalid_argv(draw):
    command = draw(st.sampled_from(sorted(VALID_FLAGS)))
    valid = VALID_FLAGS[command]
    good = draw(st.lists(st.sampled_from(valid), max_size=3))
    bad_value = st.tuples(st.sampled_from([flag for flag, _ in valid]), st.sampled_from(BAD_TOKENS))
    unknown = st.tuples(st.sampled_from(["--bogus", "--oversample"]), st.just("8"))
    bad = draw(st.lists(bad_value | unknown, min_size=1, max_size=2))
    pairs = draw(st.permutations(good + bad))
    return [command, *(token for pair in pairs for token in pair)]


@settings(max_examples=60)
@given(argv=_invalid_argv())
def test_random_invalid_argv_is_config_error(argv):
    # every drawn argv fails while parsing, so no experiment prints anything
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == 1, argv
    assert out.getvalue() == ""
    assert "configuration error" in err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_unwritable_out_is_config_error(tmp_path, capsys):
    assert main(["maximal", "--orders", "4", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and str(tmp_path) in err
    assert "Traceback" not in err


def test_taylor_fourier_passes_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "tf.csv"
    assert main(["taylor-fourier", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "input,radius,mismatch"
    assert "[PASS]" in capsys.readouterr().out


def test_fejer_converge_contract_violation_exits_two(capsys):
    # orders up to 32 leave the final error above 1e-2
    code = main(["fejer-converge", "--orders", "16,32"])
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
    assert str(exc.value).split(": ", 1)[0] == "probe"
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
    # --max-order 400 caps cells at 2 pi / 3208: past the spectral switch a
    # Fejér operator's norms would be one spectral vector, so the duality
    # check refuses instead of passing
    out = tmp_path / "d.csv"
    assert main(["duality", "--max-order", "400", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "spectral switch" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_duality_determinism_and_pass(tmp_path, capsys):
    out1 = tmp_path / "d1.csv"
    out2 = tmp_path / "d2.csv"
    args = ["duality", "--trials", "8", "--seed", "7", "--grid-M", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def _duality_reference(out, seed, trials, max_order, grid_M, ppi):
    """`duality`'s CSV from one operator norm per kernel, in draw order."""
    rng = np.random.default_rng(seed)
    setups = {}
    rows = []

    def run(kernel, label, M, report_norms):
        if M not in setups:
            setups[M] = grid_for_kernels(M, ppi, max_order), make_weight(M)
        grid, w = setups[M]
        [(l1, linf)] = operator_norm(assemble_operator([kernel], grid), w)
        n1, ninf = l1.value, linf.value
        gap = abs(n1 - ninf)
        shown = (n1, ninf) if report_norms else ("", "")
        rows.append((label, M, *shown, gap, gap / max(n1, ninf)))

    for n in range(0, max_order + 1, max(1, max_order // 32)):
        run(KernelSpec.fejer(n), f"fejer:{n}", 1 + n % grid_M, True)
    for r in [round(0.05 + 0.02 * i, 2) for i in range(30)]:
        run(KernelSpec.poisson(r), f"poisson:{r}", 1 + int(100 * r) % grid_M, True)
    for t in range(trials):
        M = int(rng.integers(1, grid_M + 1))
        run(_random_even_nonneg_step_kernel(rng), f"step:{t}", M, False)
    write_rows(out, ["kernel", "weight_M", "norm_l1w", "norm_linfw", "gap", "rel_gap"], rows)


@pytest.mark.parametrize("seed", [0, 3])
def test_duality_families_write_the_per_kernel_csv(seed, tmp_path, monkeypatch, capsys):
    # `duality` takes one operator family per grid and kernel kind, then
    # writes the rows back in draw order: the bytes are those of one norm
    # per kernel, and the weight is looked up once per family, not per norm
    args = ["--trials", "20", "--max-order", "32", "--grid-M", "2", "--ppi", "8"]
    expected = tmp_path / "reference.csv"
    _duality_reference(expected, seed, 20, 32, 2, 8)
    lookups = []
    original = Weight.__call__

    def counted(self, theta):
        lookups.append(np.size(theta))
        return original(self, theta)

    monkeypatch.setattr(Weight, "__call__", counted)
    out = tmp_path / "d.csv"
    assert main(["duality", *args, "--seed", str(seed), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()
    assert 0 < len(lookups) <= 6


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
    # the paper's statement follows the table: the CSV holds only its rows
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("untruncated weight: sup (Mw)/w is infinite")
    assert "unbounded on X' = Linf(1/w)" in lines[2]


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["maximal", "--orders", "4,4"], 1),
        (["blowup", "--m", "4,4", "--grid-M", "4"], 1),
        # spikes 1 and 2 both certify at n = 1: two rows of one operator
        (["blowup", "--m", "1,2", "--grid-M", "2"], 2),
        (["maximal", "--orders", "4"], 1),
        (["fejer-converge", "--orders", "512,512,16"], 2),
        # a second degree-4 fit would warm-start from the first and differ
        (["density", "--degrees", "4,4", "--grid-M", "2"], 1),
        # three inputs at one radius
        (["taylor-fourier", "--radii", "0.5,0.5"], 3),
    ],
    ids=["argv0", "argv1", "argv2", "argv3", "argv4", "argv5", "argv6"],
)
def test_repeated_order_runs_once(argv, rows, tmp_path, capsys):
    # a repeated order is one experiment, and a growth contract over one
    # distinct order would compare nothing, so it prints no line
    out = tmp_path / "rows.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + rows
    assert "growth" not in capsys.readouterr().out


def test_density_t3_small(capsys):
    code = main(["density", "--function", "t3", "--degrees", "3,5", "--grid-M", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 3


@pytest.mark.parametrize("degrees", ["64", "3,3"])
def test_density_single_distinct_degree_skips_decay(degrees, capsys):
    # one distinct degree would compare its error with a fifth of itself,
    # and the monotone contract would compare nothing and pass at -inf
    argv = ["density", "--function", "invquarter", "--degrees", degrees, "--grid-M", "16"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "[PASS] density-fejer-bound" in out
    assert "density-decay" not in out and "density-monotone" not in out


@pytest.mark.parametrize("orders", ["512", "512,512"])
def test_fejer_converge_single_distinct_order_skips_monotone(orders, capsys):
    # one distinct order has no successor to compare with
    assert main(["fejer-converge", "--orders", orders]) == 0
    out = capsys.readouterr().out
    assert "[PASS] fejer-converge-small" in out
    assert "fejer-converge-monotone" not in out


def test_fejer_converge_grid_takes_the_kernel_cell_cap(monkeypatch):
    # fejer-converge builds its own grid, for its extra breakpoint, with the
    # cell cap grid_for_kernels puts on a grid for its top order
    from fejerlab import cli, operators

    caps = {}

    def recorder(module):
        build = module.make_grid

        def recorded(*args, **kwargs):
            caps[module.__name__] = kwargs["max_cell"]
            return build(*args, **kwargs)

        monkeypatch.setattr(module, "make_grid", recorded)

    recorder(cli)
    recorder(operators)
    assert main(["fejer-converge", "--orders", "256,16", "--ppi", "4"]) == 0
    grid_for_kernels(1, 4, 256)
    assert caps["fejerlab.cli"] == caps["fejerlab.operators"] == 2 * np.pi / (8 * 257)


def test_density_rows_labelled_with_sorted_degrees(tmp_path):
    # the fits run in ascending degree, so the argument order must not matter
    csv = {}
    for degrees in ("5,3", "3,5"):
        csv[degrees] = tmp_path / f"density-{degrees}.csv"
        argv = ["density", "--function", "t3", "--degrees", degrees, "--grid-M", "2"]
        assert main(argv + ["--out", str(csv[degrees])]) == 0
    assert csv["5,3"].read_bytes() == csv["3,5"].read_bytes()


def test_fejer_converge_rows_in_ascending_order(tmp_path):
    # the errors fall with the order, whichever order the list gives
    csv = {}
    for orders in ("256,16", "16,256"):
        csv[orders] = tmp_path / f"fejer-{orders}.csv"
        argv = ["fejer-converge", "--orders", orders, "--out", str(csv[orders])]
        assert main(argv) == 0
    assert csv["256,16"].read_bytes() == csv["16,256"].read_bytes()


def test_write_rows_format(tmp_path):
    import numpy as np

    from fejerlab.csvio import write_rows

    rows = [
        (np.int64(3), 0.1, ""),
        (4, np.float64(1 / 3), "a"),
    ]
    path = write_rows(tmp_path / "sub" / "t.csv", ["n", "x", "s"], rows)
    assert path.read_bytes() == b"n,x,s\r\n3,0.1,\r\n4,0.3333333333333333,a\r\n"


def test_witness_subcommand_writes_sidecar(tmp_path):
    out = tmp_path / "w.csv"
    code = main(
        ["witness", "--stages", "1", "--target", "0.5", "--grid-M", "9", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    sidecar = out.with_name(out.name + ".txt")
    assert "stage 1" in sidecar.read_text()


def test_unwritable_witness_sidecar_is_config_error(tmp_path, capsys):
    out = tmp_path / "w.csv"
    out.with_name(out.name + ".txt").mkdir()
    code = main(
        ["witness", "--stages", "1", "--target", "0.5", "--grid-M", "9", "--out", str(out)]
    )
    assert code == 1
    # the CSV is written before the sidecar fails
    assert out.read_text().startswith("stage,n,coefficient,bump_theta,error")
    assert "configuration error" in capsys.readouterr().err


def _commands():
    """The subparsers of the shared parser, by command name."""
    (commands,) = [
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return commands


def test_no_parser_default_is_mutable():
    # main reuses one parser for every call: a mutable default would be one
    # object shared by every call's namespace, so a command that changed it in
    # place would change every later call's default
    commands = _commands()
    assert len(commands) == 7
    for name, sub in commands.items():
        for action in sub._actions:
            assert not isinstance(action.default, (list, dict, set)), (name, action.dest)
        for dest, default in sub._defaults.items():
            assert not isinstance(default, (list, dict, set)), (name, dest)


def test_parser_is_built_once_and_not_at_import():
    assert build_parser() is build_parser()
    code = "import fejerlab.cli as cli\nprint(cli.build_parser.cache_info().currsize)\n"
    assert _python(code).stdout.splitlines()[-1] == "0"


def test_runs_on_the_defaults_leave_the_parser_defaults_as_they_were(tmp_path, capsys):
    # the five commands whose defaults are sequences each run once on them
    def defaults():
        return {
            name: ([a.default for a in sub._actions], dict(sub._defaults))
            for name, sub in _commands().items()
        }

    before = copy.deepcopy(defaults())
    for name in ("blowup", "fejer-converge", "density", "maximal", "taylor-fourier"):
        assert main([name, "--out", str(tmp_path / f"{name}.csv")]) == 0
    capsys.readouterr()
    assert defaults() == before


def test_help_exits_zero_with_the_same_text_twice(capsys):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["maximal", "--help"])
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith("usage: fejerlab maximal")


def test_invalid_argv_after_a_valid_call_is_config_error(capsys):
    assert main(["taylor-fourier"]) == 0
    capsys.readouterr()
    assert main(["taylor-fourier", "--radii", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: fejerlab taylor-fourier")
    assert "configuration error" in err
