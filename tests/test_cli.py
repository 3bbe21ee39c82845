"""End-to-end CLI behaviour, run in-process through cli.main."""

import argparse
import csv

import pytest

from cfqm import cli, spin_model


def test_grid_parser():
    assert cli._grid("0.1,0.2,0.4") == [0.1, 0.2, 0.4]
    assert cli._grid("1:4:3") == pytest.approx([1.0, 2.0, 4.0])
    assert cli._grid("4:64:3") == [4.0, 16.0, 64.0]  # geomspace gives 15.99...
    for bad in ("1:4", "1:4:x", "abc"):
        with pytest.raises(ValueError, match="comma-separated values or lo:hi:count"):
            cli._grid(bad)


def test_plan_prints_machine_readable_line(capsys):
    rc = cli.main(["plan", "--scheme", "CF4-2", "--time", "8", "--spins",
                   "16", "--eps", "1e-4"])
    out = capsys.readouterr().out
    assert rc == 0
    line = out.strip().splitlines()[-1]
    fields = dict(tok.split("=", 1) for tok in line.split())
    assert fields["scheme"] == "CF4-2"
    assert int(fields["r"]) >= 1
    assert int(fields["exponentials"]) == int(fields["r"]) * 40
    assert float(fields["quadrature"]) > 0


def test_plan_missing_flags_exit():
    with pytest.raises(SystemExit) as err:
        cli.main(["plan", "--scheme", "CF2-1", "--time", "1"])
    assert "missing required flags" in str(err.value)
    assert "--spins" in str(err.value)


def test_unknown_scheme_reports_error_line(capsys):
    rc = cli.main(["plan", "--scheme", "CF9-9", "--time", "1",
                   "--spins", "4", "--eps", "1e-3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("error: SchemeLookupError: unknown scheme 'CF9-9'; available: "
                   "CF2-1, CF4-2, CF4-3, CF6-5, CF6-6, GS6-4, GS10-6\n")


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--axis", "time", "--grid", "1,2", "--scheme",
                   "CF2-1", "--spins", "4", "--eps", "1e-3",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("CF2-1,1,")


def test_sweep_missing_axis_parameter(tmp_path, capsys):
    rc = cli.main(["sweep", "--axis", "time", "--grid", "1,2", "--scheme",
                   "CF2-1", "--eps", "1e-3", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ValueError:")


def test_validate_exits_zero_when_bounds_hold(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = cli.main(["validate", "--scheme", "CF2-1", "--spins", "3",
                   "--samples", "3", "--seed", "11", "--out", str(out)])
    assert rc == 0
    assert "ok=True" in capsys.readouterr().out
    assert out.exists()


def test_validate_writes_every_scheme_to_one_csv(tmp_path, capsys):
    out = tmp_path / "v.csv"
    rc = cli.main(["validate", "--scheme", "CF2-1", "--scheme", "GS6-4",
                   "--spins", "3", "--samples", "3", "--seed", "1",
                   "--out", str(out)])
    assert rc == 0
    heads = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert heads == ["scheme=CF2-1", "scheme=GS6-4"]
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme_id,t0,h,measured_error,bound_total,ratio,status"
    assert [line.split(",")[0] for line in lines[1:]] == ["CF2-1"] * 3 + ["GS6-4"] * 3
    assert all(line.endswith(",ok") for line in lines[1:])


def test_verify_order_default_grid(capsys):
    rc = cli.main(["verify-order", "--scheme", "CF2-1", "--spins", "2",
                   "--seed", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok=True" in out


def test_verify_order_error_line_on_bad_grid(capsys):
    rc = cli.main(["verify-order", "--scheme", "CF2-1", "--spins", "2",
                   "--seed", "5", "--grid", "1e-5,2e-5"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: GridTooFineError:")


def test_argparse_rejects_unknown_axis(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["sweep", "--axis", "sideways", "--grid", "1", "--scheme",
                  "CF2-1", "--eps", "1e-3", "--spins", "4", "--out", "x.csv"])
    assert err.value.code == 2


@pytest.mark.parametrize("flag,value,name", [
    ("--time", "nan", "total_time"),
    ("--time", "inf", "total_time"),
    ("--eps", "inf", "epsilon"),
    ("--eps", "nan", "epsilon"),
])
def test_plan_rejects_non_finite_inputs(capsys, flag, value, name):
    args = {"--time": "8", "--eps": "1e-3"}
    args[flag] = value
    rc = cli.main(["plan", "--scheme", "CF4-2", "--spins", "8",
                   "--time", args["--time"], "--eps", args["--eps"]])
    captured = capsys.readouterr()
    assert rc != 0
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {name} must be finite, got {value}\n"


def test_sweep_rejects_non_finite_budget(tmp_path, capsys):
    rc = cli.main(["sweep", "--axis", "time", "--grid", "1,2", "--scheme",
                   "CF2-1", "--spins", "4", "--eps", "nan",
                   "--out", str(tmp_path / "x.csv")])
    assert rc != 0
    assert capsys.readouterr().err == (
        "error: ValueError: epsilon must be finite, got nan\n")


@pytest.mark.parametrize("flag,value,detail", [
    ("--time", "nan", "t0 must be finite, got nan"),
    ("--time", "inf", "t0 must be finite, got inf"),
    ("--grid", "nan,0.5", "step sizes must be finite, got [nan, 0.5]"),
])
def test_verify_order_rejects_non_finite_inputs(monkeypatch, capsys, flag, value,
                                                detail):
    def no_matrix_work(*args, **kwargs):
        raise AssertionError("matrix work before the input check")

    # the exact step's exponents and the reference's micro-steps both
    # start from sector_generators
    monkeypatch.setattr(spin_model, "sector_generators", no_matrix_work)
    rc = cli.main(["verify-order", "--scheme", "CF4-2", "--spins", "3",
                   flag, value])
    captured = capsys.readouterr()
    assert rc != 0
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {detail}\n"


def test_sweep_rejects_non_integer_spins(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = cli.main(["sweep", "--axis", "spins", "--grid", "2.5,4", "--scheme",
                   "CF2-1", "--eps", "1e-3", "--time", "4", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc != 0
    assert captured.out == ""
    assert captured.err == "error: ValueError: n must be an integer, got 2.5\n"
    assert not out.exists()


def test_geometric_grid_drives_spins_sweep(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = cli.main(["sweep", "--axis", "spins", "--grid", "4:64:3", "--eps",
                   "1e-3", "--scheme", "CF2-1", "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    with open(out, newline="") as fh:
        assert [row["axis_value"] for row in csv.DictReader(fh)] == ["4", "16", "64"]


@pytest.mark.filterwarnings("error")  # numpy's warnings would print before the line
@pytest.mark.parametrize("command, grid, detail", [
    # sweep cases are named by grid and detail alone
    pytest.param(command, grid, detail,
                 id="-".join([grid, detail] if command == "sweep" else [command, grid]))
    for command, grid, detail in [
        ("sweep", "1:inf:3", "total_time must be finite, got inf"),
        ("sweep", "-1:4:3", "total_time must be positive, got -1.0"),
        ("sweep", "0:4:3", "Geometric sequence cannot include zero"),
        ("sweep", "1:4", "grid must be comma-separated values or lo:hi:count, got '1:4'"),
        ("verify-order", "0:1:3", "Geometric sequence cannot include zero"),
    ]])
def test_bad_geometric_grid_end_reports_one_error_line(tmp_path, capsys, command, grid,
                                                       detail):
    # the grid is parsed by the subcommand, not by argparse, so a grid that
    # numpy or the parser rejects leaves through the one error line (exit 1)
    out = tmp_path / "x.csv"
    args = (["--axis", "time", "--eps", "1e-3", "--spins", "4", "--out", str(out)]
            if command == "sweep" else ["--spins", "2"])
    rc = cli.main([command, f"--grid={grid}", "--scheme", "CF2-1"] + args)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: ValueError: {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["validate", "--scheme", "CF4-2", "--spins", "3", "--samples", "2"],
    ["verify-order", "--scheme", "CF4-2", "--spins", "3"],
])
def test_negative_seed_reports_error_line(tmp_path, capsys, command):
    out = tmp_path / "out.txt"
    extra = [] if command[0] == "verify-order" else ["--out", str(out)]
    rc = cli.main(command + extra + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert rc != 0
    assert captured.out == ""
    assert captured.err == (
        "error: ValueError: seed must be a non-negative integer, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["validate", "--scheme", "CF2-1", "--spins", "-3", "--samples", "1"],
    ["verify-order", "--scheme", "CF2-1", "--spins", "-3"],
])
def test_negative_spins_reports_error_line(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    extra = [] if command[0] == "verify-order" else ["--out", str(out)]
    rc = cli.main(command + extra)
    captured = capsys.readouterr()
    assert rc != 0
    assert captured.out == ""
    assert captured.err == "error: ValueError: n must be an integer >= 2, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--axis", "spins", "--grid", "1e300"],
    ["plan", "--time", "8", "--spins", str(10 ** 300)],
    ["plan", "--time", "8", "--spins", str(10 ** 400)],
    ["plan", "--time", "8", "--spins", str(2 ** 53 + 1)],
])
def test_overflowing_inputs_report_one_error_line(tmp_path, capsys, command):
    # a chain too long for a float used to end in an OverflowError traceback
    out = tmp_path / "x.csv"
    extra = ["--out", str(out)] if command[0] == "sweep" else []
    rc = cli.main(command + extra + ["--eps", "1e-3", "--scheme", "CF4-2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ValueError: ")
    assert not out.exists()


# the Suzuki counts of the plans below: vacuous (eps beyond the model's
# validity) or floored at one product-formula step, 2 * (2 * 5**(s-1))
TINY_TIME_SUZUKI = {("CF2-1", "1e-300"): "4", ("CF4-2", "1e-70"): "20"}


@pytest.mark.parametrize("scheme_id, total_time, eps, r", [
    ("CF4-2", "5e-324", "1e-3", 1),
    ("CF4-2", "1e-300", "1e-3", 1),
    ("GS10-6", "5e-324", "1e-3", 1),
    ("CF2-1", "1e-300", "5e-324", 1),
    ("CF6-5", "1e-320", "1e-3", 1),
    ("CF4-2", "1e-70", "1e-300", 1304956),
])
def test_tiny_total_times_plan(capsys, scheme_id, total_time, eps, r):
    # tails that underflow stop, and the quadrature term keeps its 1/h**g
    # weights when h**(2s+1) underflows; these used to report that the
    # series diverge everywhere, end in a traceback or plan r = 1 unsoundly
    rc = cli.main(["plan", "--scheme", scheme_id, "--time", total_time,
                   "--spins", "2", "--eps", eps])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    fields = dict(tok.split("=", 1) for tok in captured.out.split())
    assert int(fields["r"]) == r
    assert fields["suzuki_exponentials"] == TINY_TIME_SUZUKI.get(
        (scheme_id, total_time), "None")
    if r > 1:
        assert fields["quadrature"] == "7.663092e-307"


def test_sweep_keeps_rows_around_an_overflowing_suzuki_count(tmp_path, capsys):
    # at T = 1e300 no plan exists and the Suzuki count overflows a float;
    # that row gets an empty Suzuki cell and the feasible T = 1 row is kept
    out = tmp_path / "y.csv"
    rc = cli.main(["sweep", "--axis", "time", "--grid", "1,1e300", "--eps",
                   "1e-3", "--spins", "4", "--scheme", "CF4-2",
                   "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["ok", "infeasible"]
    assert int(rows[0]["suzuki_exponentials"]) > 0
    assert float(rows[1]["axis_value"]) == 1e300
    assert rows[1]["suzuki_exponentials"] == ""


#: Every subcommand's option strings; a new, renamed or removed option
#: shows up here as a reviewed diff.
CLI_OPTIONS = {
    "plan": ["--eps", "--scheme", "--spins", "--time"],
    "sweep": ["--axis", "--eps", "--grid", "--out", "--scheme", "--spins",
              "--time"],
    "validate": ["--out", "--samples", "--scheme", "--seed", "--spins"],
    "verify-order": ["--grid", "--scheme", "--seed", "--spins", "--time"],
}


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    (subparsers,) = [action for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction)]
    got = {name: sorted(opt for action in sub._actions
                        for opt in action.option_strings
                        if opt not in ("-h", "--help"))
           for name, sub in subparsers.choices.items()}
    assert got == CLI_OPTIONS
