"""The entry points the benchmark's tracer wraps must exist and be used.

``bench/tracing.py`` wraps module attributes by name.  A renamed or
deleted kernel, or a kernel that stops looking a wrapped name up by
attribute, breaks only the traced benchmark run, silently; these tests
catch both.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from cfqm import propagators, schemes, spin_model

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    for module, attr, name in _load_tracing().TRACED:
        assert callable(getattr(module, attr, None)), name


def test_kernels_call_the_traced_names_by_attribute(monkeypatch):
    calls = Counter()

    def count(module, attr, weight):
        fn = getattr(module, attr)

        def counted(*args, **kwargs):
            calls[attr] += weight(*args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    count(np.linalg, "eigh", lambda a: 1)
    count(spin_model, "hamiltonians_at", lambda model, times: np.size(times))
    model = spin_model.random_model(4, seed=3)
    # the exact step and the reference exponentiate by real Taylor
    # products; only the trotterized step's 2x2 bond blocks go through eigh
    propagators.cfqm_step(schemes.load_scheme("CF4-2"), model, 0.2, 0.3)
    assert calls["eigh"] == 0
    propagators.trotterized_cfqm_step(schemes.load_scheme("CF4-2"), model, 0.2, 0.3)
    assert calls["eigh"] > 0
    calls.clear()
    monkeypatch.setattr(propagators, "_REFERENCE_CACHE", {})
    propagators.reference_propagator(model, 0.2, 0.5, tol=1e-10)
    assert calls["eigh"] == 0
    # every micro-step time goes through hamiltonians_at: the meshes are
    # 16, 32, ..., 16 * 2^j (j >= 2), so 16 * (2^(j+1) - 1) times in all
    assert calls["hamiltonians_at"] % 16 == 0
    doubled = calls["hamiltonians_at"] // 16 + 1
    assert doubled >= 8 and doubled & (doubled - 1) == 0
