"""Smoke tests for the offline tools under ``scripts/``."""

import importlib.util
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from cfqm import bounds, planner, schemes

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_script(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # the script's dataclasses look their module up by name while it runs,
    # and it puts src/ on sys.path; both are undone after the test
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module


def test_derive_script_quick_slope_on_bundled_cf2_1(monkeypatch):
    pytest.importorskip("scipy")
    script = _load_script(monkeypatch, "derive_scheme_coefficients")
    text = resources.files("cfqm.data").joinpath("cf2-1.txt").read_text()
    lo, hi = planner.slope_window(1)
    assert lo <= script.quick_slope(text) <= hi


def test_derive_script_package_calls_on_bundled_coefficients(monkeypatch):
    # every script helper that reads the package's coefficient maps, fed the
    # shipped CF4-2 and GS6-4 coefficients
    pytest.importorskip("scipy")
    script = _load_script(monkeypatch, "derive_scheme_coefficients")
    cf4 = schemes.load_scheme("CF4-2")
    t = schemes.transform_matrices(cf4.s).T
    problem = script.Problem("CF4-2", s=cf4.s, m=cf4.m, split=False)
    params = script.free_from_matrix(cf4.y @ t, cf4.m, cf4.s)
    assert script._y_rows(problem, params) == pytest.approx(cf4.y, abs=1e-14)
    spread = script.extended_coeff_spread(problem, params)
    assert abs(spread - schemes.compute_cbar(cf4, 1.0)) <= 1e-12
    assert spread <= script._soft_spread(problem, params)
    assert script.bound_figure(problem, params) > 0.0
    text = script.format_scheme(problem, params, "CF4-2 round trip")
    assert schemes.parse_scheme_text(text).y == pytest.approx(cf4.y, abs=1e-14)

    gs = schemes.load_scheme("GS6-4")
    t = schemes.transform_matrices(gs.s).T
    problem = script.Problem("GS6-4", s=gs.s, m=gs.m, split=True)
    params = np.concatenate([
        script.free_from_matrix(gs.y_rho @ t, gs.m, gs.s),
        script.free_from_matrix(gs.y_sigma[:-1] @ t, gs.m - 1, gs.s)])
    assert script.bound_figure(problem, params) > 0.0
    reparsed = schemes.parse_scheme_text(
        script.format_scheme(problem, params, "GS6-4 round trip"))
    assert reparsed.rho == pytest.approx(gs.rho, abs=1e-13)
    assert reparsed.sigma == pytest.approx(gs.sigma, abs=1e-13)


def _shipped_problem(script, scheme_id, t_constant=False):
    """The script's Problem for a bundled scheme, and the free parameters
    of its shipped coefficients (x = y T, per family)."""
    scheme = schemes.load_scheme(scheme_id)
    s, m, t = scheme.s, scheme.m, schemes.t_matrix(scheme.s)
    problem = script.Problem(scheme_id, s=s, m=m, split=scheme.is_split,
                             t_constant=t_constant)
    if not scheme.is_split:
        return scheme, problem, script.free_from_matrix(scheme.y @ t, m, s)
    tbar = scheme.y_rho @ t
    tbar_free = (script.free_from_matrix(tbar[:, :1], m, 1) if t_constant
                 else script.free_from_matrix(tbar, m, s))
    vbar_free = script.free_from_matrix(scheme.y_sigma[:-1] @ t, m - 1, s)
    return scheme, problem, np.concatenate([tbar_free, vbar_free])


@pytest.mark.parametrize("scheme_id", schemes.SCHEME_IDS)
def test_shipped_scheme_satisfies_its_order_conditions(monkeypatch, scheme_id):
    # an algebraic certificate that each data file is an order-2s scheme:
    # its product equals exp(Omega^[2s]) word by word through grade 2s
    pytest.importorskip("scipy")
    script = _load_script(monkeypatch, "derive_scheme_coefficients")
    scheme, problem, params = _shipped_problem(
        script, scheme_id, t_constant=scheme_id == "GS10-6")
    assert np.abs(problem.residual(params)).max() <= 1e-14
    moved = params.copy()
    moved[0] += 1e-6  # the first row's grade-1 coefficient: sum_i x_{i,1} = 1
    assert np.abs(problem.residual(moved)).max() >= 1e-7

    candidate = script.candidate_scheme(problem, params)
    for name in ("y", "rho", "sigma"):
        want = getattr(scheme, name)
        if want is not None:
            assert np.abs(getattr(candidate, name) - want).max() <= 1e-14
    cbar = schemes.compute_cbar(scheme, 1.0)
    pars = bounds.BoundParams(c=1.0, cbar=cbar, h=0.1, s=scheme.s, m=scheme.m, n=128)
    want = bounds.step_error(scheme, pars).total
    assert script.bound_figure(problem, params) == pytest.approx(want, rel=1e-14)


def test_gs10_6_is_order_six_only_for_a_constant_exchange_part(monkeypatch):
    # GS10-6 was derived with a time-independent exchange part; under a
    # time-dependent one its product has no theta_3 word, which
    # exp(Omega^[6]) carries with weight 1/12
    pytest.importorskip("scipy")
    script = _load_script(monkeypatch, "derive_scheme_coefficients")
    _, problem, params = _shipped_problem(script, "GS10-6")
    assert np.abs(problem.residual(params)).max() == pytest.approx(1 / 12, rel=1e-12)
