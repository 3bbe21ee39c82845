"""End-to-end CLI behaviour, run in-process through cli.main."""

import numpy as np
import pytest

from cfqm import cli, spin_model


def test_grid_parser():
    assert cli._grid("0.1,0.2,0.4") == [0.1, 0.2, 0.4]
    assert cli._grid("1:4:3") == pytest.approx([1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        cli._grid("1:4")


def test_gen_model_roundtrip(tmp_path, capsys):
    out = tmp_path / "model.txt"
    rc = cli.main(["gen-model", "--spins", "5", "--seed", "3",
                   "--out", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    loaded = spin_model.load_model(out)
    want = spin_model.random_model(5, seed=3)
    assert np.array_equal(loaded.phases, want.phases)
    assert np.array_equal(loaded.freqs, want.freqs)


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
    assert err.startswith("error: SchemeLookupError:")


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
