"""Command-line front end.

Four subcommands: ``plan`` (steps and exponential count for a budget),
``sweep`` (CSV over a time/error/spins grid), ``validate`` (CSV of measured
vs bound on a random dense model) and ``verify-order`` (empirical
convergence slope).  The dense model of the last two is fully set by
``--spins`` and ``--seed``.  Successful runs exit 0; failures print a single
machine-readable ``error: <Type>: <detail>`` line to stderr and exit 1, a
bad ``--grid`` included; what argparse itself rejects exits 2 with usage.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import planner, schemes, spin_model


def _grid(text: str) -> list[float]:
    """Parse a comma-separated numeric grid; ``a:b:k`` expands to k geometric
    points from a to b, each snapped to an integer within 1e-12 relative."""
    try:
        if ":" not in text:
            return [float(tok) for tok in text.split(",") if tok]
        lo, hi, num = text.split(":")
        lo, hi, num = float(lo), float(hi), int(num)
    except ValueError:
        raise ValueError("grid must be comma-separated values or lo:hi:count, "
                         f"got {text!r}") from None
    with np.errstate(invalid="ignore"):  # a bad end fails later, in one error line
        points = np.geomspace(lo, hi, num)
    near = np.round(points)  # geomspace misses exact powers by a few ulps
    return list(np.where(np.isclose(points, near, rtol=1e-12, atol=0), near, points))


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "scheme" in names:
        p.add_argument("--scheme", required=True, action="append",
                       dest="schemes", metavar="ID",
                       help="scheme identifier, repeatable "
                            f"(known: {', '.join(schemes.SCHEME_IDS)})")
    if "time" in names:
        p.add_argument("--time", type=float, help="total evolution time T")
    if "spins" in names:
        p.add_argument("--spins", type=int, help="number of spins n")
    if "eps" in names:
        p.add_argument("--eps", type=float, help="target error budget")
    if "seed" in names:
        p.add_argument("--seed", type=int, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfqm",
        description="Plan, sweep and validate commutator-free quasi-Magnus "
                    "propagators for time-dependent spin chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="steps/exponentials meeting an error budget")
    _add_common(p, "scheme", "time", "spins", "eps")

    p = sub.add_parser("sweep", help="cost sweep over time, error or spins")
    p.add_argument("--axis", required=True, choices=planner.SWEEP_AXES)
    p.add_argument("--grid", required=True,
                   help="comma-separated values, or lo:hi:count (geometric)")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p, "scheme", "time", "spins", "eps")

    p = sub.add_parser("validate", help="measured one-step error vs the bound")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--out", required=True,
                   help="output CSV path (one row per scheme and sample)")
    _add_common(p, "scheme", "spins", "seed")

    p = sub.add_parser("verify-order", help="empirical convergence slope")
    p.add_argument("--grid", default="0.3:0.7:5",
                   help="step sizes to fit over (default %(default)s)")
    p.add_argument("--time", type=float, default=0.0, help="window start t0")
    _add_common(p, "scheme", "spins", "seed")

    return parser


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise SystemExit(f"error: UsageError: missing required flags {flags}")


def _cmd_plan(args) -> int:
    _require(args, "time", "spins", "eps")
    mb = planner.ModelBounds(c=spin_model.TAYLOR_BOUND_C, n=args.spins)
    for scheme_id in args.schemes:
        scheme = schemes.load_scheme(scheme_id)
        p = planner.plan(scheme, mb, args.time, args.eps)
        b = p.breakdown
        print(f"scheme={p.scheme_id} T={p.total_time:g} n={p.n} "
              f"eps={p.epsilon:g} r={p.r} h={p.h:.9g} "
              f"exponentials={p.exponentials} "
              f"suzuki_exponentials={p.suzuki_exponentials} "
              f"magnus_taylor={b.magnus_taylor:.6e} "
              f"cfqm_taylor={b.cfqm_taylor:.6e} "
              f"quadrature={b.quadrature:.6e} trotter={b.trotter:.6e}")
    return 0


def _cmd_sweep(args) -> int:
    planner.sweep(args.axis, _grid(args.grid), args.schemes, args.out,
                  total_time=args.time, epsilon=args.eps, n=args.spins)
    print(f"wrote {args.out}")
    return 0


def _cmd_validate(args) -> int:
    _require(args, "spins")
    reports = planner.validate(args.schemes, args.seed, args.spins,
                               args.samples, args.out)
    for report in reports:
        flagged = sum(1 for row in report.rows
                      if row.status not in ("ok", "violated"))
        print(f"scheme={report.scheme_id} samples={len(report.rows)} "
              f"flagged={flagged} max_ratio={report.max_ratio:.6g} "
              f"ok={report.ok}")
    if not all(report.ok for report in reports):
        print("error: BoundViolation: measured error exceeded the bound",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify_order(args) -> int:
    _require(args, "spins")
    grid = _grid(args.grid)
    model = spin_model.random_model(args.spins, seed=args.seed)
    failed = False
    for scheme_id in args.schemes:
        scheme = schemes.load_scheme(scheme_id)
        slope = planner.verify_order(scheme, model, grid, t0=args.time)
        lo, hi = planner.slope_window(scheme.s)
        ok = lo <= slope <= hi
        print(f"scheme={scheme_id} slope={slope:.4f} "
              f"window=[{lo:.2f}, {hi:.2f}] ok={ok}")
        failed = failed or not ok
    if failed:
        print("error: OrderMismatch: measured slope outside the accepted "
              "window", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "verify-order": _cmd_verify_order,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, RuntimeError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
