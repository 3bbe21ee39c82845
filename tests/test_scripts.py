"""Smoke tests for the offline tools under ``scripts/``."""

import importlib.util
import sys
from importlib import resources
from pathlib import Path

import pytest

from cfqm import planner

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
