"""Smoke tests for the offline tools under ``scripts/``."""

import importlib.util
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from cfqm import planner, schemes

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
    text = script.format_nonsplit(problem, params, "CF4-2 round trip")
    assert schemes.parse_scheme_text(text).y == pytest.approx(cf4.y, abs=1e-14)

    gs = schemes.load_scheme("GS6-4")
    t = schemes.transform_matrices(gs.s).T
    problem = script.Problem("GS6-4", s=gs.s, m=gs.m, split=True)
    params = np.concatenate([
        script.free_from_matrix(gs.y_rho @ t, gs.m, gs.s),
        script.free_from_matrix(gs.y_sigma[:-1] @ t, gs.m - 1, gs.s)])
    assert script.bound_figure(problem, params) > 0.0
    reparsed = schemes.parse_scheme_text(
        script.format_split(problem, params, "GS6-4 round trip"))
    assert reparsed.rho == pytest.approx(gs.rho, abs=1e-13)
    assert reparsed.sigma == pytest.approx(gs.sigma, abs=1e-13)
