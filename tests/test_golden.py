"""Golden outputs: pinned sweeps, random plans and the README's examples.

The sweep CSVs under ``tests/data/`` pin every plan the bounds produce on
a fixed grid, byte for byte, so a refactor of the bound evaluation cannot
move a single float.  ``plans_random.csv`` does the same for seeded
random (scheme, T, eps, n) points off that grid, from tiny total times,
where the quadrature term takes its underflow branch, to budgets no step
count meets, whose rows carry the planner's error line.  The README test runs the documented ``cfqm plan``
command and compares its output with the README's code block, so the
published numbers cannot go stale, and runs every other command of the
README's command-line block, so the examples stay runnable.  The README's
``validate`` CSV and ``verify-order`` line are pinned too: the bounds,
sample points and verdicts byte for byte, ``measured_error`` to 1e-12
absolute and ``ratio`` to 1e-12 relative.  With the bound fixed, the ratio
pins each measured error to 1e-12 *relative*, far below 1e-12 absolute
(1.9e-18 on a GS6-4 row measuring 1.94e-6, less on smaller errors), so a
kernel change that only moves the rounding of a step can move this golden.

After a deliberate change to the plans, regenerate the CSVs with
``python tests/test_golden.py`` and review the diff.  Before it rewrites
the validate CSV, that command prints to stderr what the re-record moves:
the rows whose measured error changed, by scheme, the largest absolute
change of a measured error and relative change of a ratio, and any change
in the pinned columns.
"""

import contextlib
import csv
import io
import math
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cfqm import cli, planner
from cfqm.errors import InfeasiblePlanError
from cfqm.schemes import SCHEME_IDS, load_scheme
from cfqm.spin_model import TAYLOR_BOUND_C

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
VALIDATE_GOLDEN = DATA / "validate_readme.csv"
VERIFY_ORDER_GOLDEN = "scheme=CF6-5 slope=7.0285 window=[6.85, 7.30] ok=True\n"

#: axis -> (grid, keyword arguments of planner.sweep)
PINNED_SWEEPS = {
    "time": ([1.0, 16.0, 256.0, 4096.0, 65536.0],
             dict(epsilon=1e-3, n=128)),
    "error": ([1e-2, 1e-5, 1e-8, 1e-11, 1e-20],
              dict(total_time=1024.0, n=128)),
    "spins": ([2, 8, 32, 128, 512, 2048],
              dict(epsilon=1e-3)),
}


def _golden_path(axis: str) -> Path:
    return DATA / f"sweep_{axis}.csv"


def _run_sweep(axis: str, out: Path) -> None:
    grid, kwargs = PINNED_SWEEPS[axis]
    planner.sweep(axis, grid, list(SCHEME_IDS), out, **kwargs)


@pytest.mark.parametrize("axis", sorted(PINNED_SWEEPS))
def test_pinned_sweep_matches_golden_csv(axis, tmp_path):
    out = tmp_path / f"{axis}.csv"
    _run_sweep(axis, out)
    assert out.read_bytes() == _golden_path(axis).read_bytes()


RANDOM_PLANS_GOLDEN = DATA / "plans_random.csv"
RANDOM_PLANS_SEED = 20241025
RANDOM_PLANS_COLUMNS = (
    "scheme_id", "total_time", "epsilon", "n", "r", "exponentials",
    "suzuki_exponentials", "magnus_taylor", "cfqm_taylor", "quadrature",
    "trotter", "status",
)


def _random_plan_points() -> list[tuple[str, float, float, int]]:
    """600 seeded (scheme, T, eps, n) points: 540 with T in 1e-2..3e10 and
    eps in 1e-16..1, and 60 with T in 1e-80..1e-40 and eps in 1e-300..1e-3;
    n is log-uniform in 2..1e6 throughout."""
    rng = np.random.default_rng(RANDOM_PLANS_SEED)
    points = []
    for k in range(600):
        scheme_id = SCHEME_IDS[int(rng.integers(len(SCHEME_IDS)))]
        if k % 10 == 9:
            log_t, log_eps = rng.uniform(-80.0, -40.0), rng.uniform(-300.0, -3.0)
        else:
            log_t, log_eps = rng.uniform(-2.0, 10.5), rng.uniform(-16.0, 0.0)
        n = int(round(10.0 ** rng.uniform(math.log10(2.0), 6.0)))
        points.append((scheme_id, 10.0 ** log_t, 10.0 ** log_eps, n))
    return points


def _run_random_plans(out: Path) -> None:
    """Plan every random point and write one row each: the plan's step
    count, costs and bound terms, or the error line of an infeasible one."""
    records = []
    for scheme_id, total_time, epsilon, n in _random_plan_points():
        model_bounds = planner.ModelBounds(c=TAYLOR_BOUND_C, n=n)
        head = [scheme_id, total_time, epsilon, n]
        try:
            p = planner.plan(load_scheme(scheme_id), model_bounds, total_time,
                             epsilon)
        except InfeasiblePlanError as exc:
            records.append(head + [None] * 7 + [str(exc)])
            continue
        bd = p.breakdown
        records.append(head + [p.r, p.exponentials, p.suzuki_exponentials,
                               bd.magnus_taylor, bd.cfqm_taylor, bd.quadrature,
                               bd.trotter, "ok"])
    planner._write_csv(out, RANDOM_PLANS_COLUMNS, records)


def test_random_plans_match_golden_csv(tmp_path):
    out = tmp_path / "plans.csv"
    _run_random_plans(out)
    assert out.read_bytes() == RANDOM_PLANS_GOLDEN.read_bytes()


def _readme_plan_example() -> tuple[list[str], str]:
    """The README's ``cfqm plan`` command and the output block shown for it."""
    text = README.read_text()
    command = re.search(r"^cfqm (plan .*)$", text, re.MULTILINE).group(1)
    shown = re.search(r"`plan` output is .*?\n\n```\n(.*?)```", text,
                      re.DOTALL).group(1)
    return shlex.split(command), shown


def test_readme_plan_output_is_current():
    argv, shown = _readme_plan_example()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    assert buf.getvalue() == shown


def _readme_commands() -> list[list[str]]:
    """Every ``cfqm ...`` command of the README "Command line" block, with
    continuation lines joined."""
    text = README.read_text()
    block = re.search(r"^## Command line\n.*?```sh\n(.*?)```", text,
                      re.DOTALL | re.MULTILINE).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cfqm ")]


def _readme_command(name: str) -> list[str]:
    return next(argv for argv in _readme_commands() if argv[0] == name)


def _run_readme_validate(out: Path) -> None:
    argv = _readme_command("validate")
    argv[argv.index("--out") + 1] = str(out)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


#: validate CSV columns pinned byte for byte
VALIDATE_PINNED = ("scheme_id", "t0", "h", "bound_total", "status")


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _validate_diff(old: list[dict], new: list[dict]) -> str:
    """What replacing the validate rows ``old`` by ``new`` moves."""
    pairs = list(zip(old, new))
    moved = Counter(b["scheme_id"] for a, b in pairs
                    if a["measured_error"] != b["measured_error"])
    d_error = max((abs(float(b["measured_error"]) - float(a["measured_error"]))
                   for a, b in pairs), default=0.0)
    d_ratio = max((abs(float(b["ratio"]) - float(a["ratio"])) / abs(float(a["ratio"]))
                   if a["ratio"] != b["ratio"] else 0.0 for a, b in pairs), default=0.0)
    pinned = [f"row {k} {col}: {a[col]} -> {b[col]}" for k, (a, b) in enumerate(pairs)
              for col in VALIDATE_PINNED if a[col] != b[col]]
    if len(old) != len(new):
        pinned.append(f"row count: {len(old)} -> {len(new)}")
    by_scheme = ", ".join(f"{sid} {count}" for sid, count in moved.items())
    return (f"measured_error changed in {sum(moved.values())} of {len(new)} rows"
            f"{': ' + by_scheme if moved else ''}\n"
            f"largest |delta measured_error|: {d_error:.3g}\n"
            f"largest relative delta ratio: {d_ratio:.3g}\n"
            f"pinned column changes: {'; '.join(pinned) or 'none'}")


def test_validate_diff_reports_moved_rows_and_pinned_columns():
    old = [dict(scheme_id=sid, t0="0.1", h="0.2", bound_total="1e-3",
                status="ok", measured_error="1e-6", ratio="1e-3")
           for sid in ("CF4-2", "GS6-4")]
    assert _validate_diff(old, old) == (
        "measured_error changed in 0 of 2 rows\nlargest |delta measured_error|: 0\n"
        "largest relative delta ratio: 0\npinned column changes: none")
    new = [dict(old[0]), dict(old[1], measured_error="1.5e-6", ratio="1.5e-3", h="0.3")]
    assert _validate_diff(old, new) == (
        "measured_error changed in 1 of 2 rows: GS6-4 1\n"
        "largest |delta measured_error|: 5e-07\nlargest relative delta ratio: 0.5\n"
        "pinned column changes: row 1 h: 0.2 -> 0.3")


def test_readme_validate_csv_matches_golden(tmp_path):
    out = tmp_path / "report.csv"
    _run_readme_validate(out)
    got, want = _read_rows(out), _read_rows(VALIDATE_GOLDEN)
    assert len(got) == len(want) == 50
    for row, ref in zip(got, want):
        for col in VALIDATE_PINNED:
            assert row[col] == ref[col], (col, row, ref)
        assert math.isclose(float(row["measured_error"]),
                            float(ref["measured_error"]), rel_tol=0, abs_tol=1e-12)
        assert math.isclose(float(row["ratio"]), float(ref["ratio"]),
                            rel_tol=1e-12, abs_tol=0)


def test_readme_verify_order_line_matches_golden(capsys):
    assert cli.main(_readme_command("verify-order")) == 0
    assert capsys.readouterr().out == VERIFY_ORDER_GOLDEN


def test_readme_commands_run(tmp_path):
    commands = _readme_commands()
    assert sorted(argv[0] for argv in commands) == sorted(cli._COMMANDS)
    for argv in commands:
        if "--out" in argv:
            k = argv.index("--out") + 1
            argv[k] = str(tmp_path / argv[k])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0, argv
        heads = [line.split()[0] for line in buf.getvalue().splitlines()]
        if argv[0] == "sweep":
            assert heads == ["wrote"], argv
        else:
            ids = [argv[pos + 1] for pos, tok in enumerate(argv) if tok == "--scheme"]
            assert heads == [f"scheme={sid}" for sid in ids], argv


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for axis in PINNED_SWEEPS:
        _run_sweep(axis, _golden_path(axis))
        print(f"wrote {_golden_path(axis)}", file=sys.stderr)
    _run_random_plans(RANDOM_PLANS_GOLDEN)
    print(f"wrote {RANDOM_PLANS_GOLDEN}", file=sys.stderr)
    old_rows = _read_rows(VALIDATE_GOLDEN) if VALIDATE_GOLDEN.exists() else []
    _run_readme_validate(VALIDATE_GOLDEN)
    print(_validate_diff(old_rows, _read_rows(VALIDATE_GOLDEN)), file=sys.stderr)
    print(f"wrote {VALIDATE_GOLDEN}", file=sys.stderr)
