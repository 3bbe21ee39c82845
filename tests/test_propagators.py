"""Matrix-level propagators: exponentials, product formulas, references."""

import math

import numpy as np
import pytest

from cfqm import propagators, schemes, spin_model
from cfqm.propagators import (
    cfqm_step,
    evolve,
    expm_antihermitian,
    midpoint_step,
    node_times,
    product_formula_factors,
    product_formula_spec,
    reference_propagator,
    spectral_distance,
    split_step,
    trotterized_cfqm_step,
)
from cfqm.spin_model import HeisenbergModel, random_model
from oracles import dense_trotterized_step, per_factor_split_step


def test_expm_antihermitian_pauli_x_closed_form():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    tau = 0.83
    want = math.cos(tau) * np.eye(2) - 1j * math.sin(tau) * sx
    assert expm_antihermitian(sx, tau) == pytest.approx(want, abs=1e-14)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expm_antihermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)
    with pytest.raises(ValueError):
        expm_antihermitian(np.zeros((2, 3)), 0.1)


def test_node_times_centered_gauss():
    scheme = schemes.load_scheme("CF4-2")
    t0, h = 1.0, 0.4
    ts = node_times(scheme, t0, h)
    mid = t0 + h / 2
    assert ts == pytest.approx([mid - h / (2 * math.sqrt(3)),
                                mid + h / (2 * math.sqrt(3))])


def test_product_formula_stage_tables():
    pf1 = product_formula_spec(1)
    assert pf1.xi == (0.5, 0.5)
    assert pf1.beta == (0.0, 1.0)
    for s in (1, 2, 3):
        pf = product_formula_spec(s)
        assert pf.num_stages == 2 * 5 ** (s - 1)
        assert sum(pf.xi) == pytest.approx(1.0, abs=1e-13)
        assert sum(pf.beta) == pytest.approx(1.0, abs=1e-13)
        assert max(map(abs, pf.xi + pf.beta)) <= 1.0 + 1e-12


def test_midpoint_equals_first_order_scheme_step():
    model = random_model(3, seed=4)
    scheme = schemes.load_scheme("CF2-1")
    t0, h = 0.2, 0.35
    assert cfqm_step(scheme, model, t0, h) == pytest.approx(
        midpoint_step(model, t0, h), abs=1e-14)


def test_steps_are_unitary():
    model = random_model(3, seed=6)
    eye = np.eye(model.dim)
    for scheme_id in ("CF2-1", "CF4-3", "CF6-5", "GS6-4"):
        scheme = schemes.load_scheme(scheme_id)
        step = split_step if scheme.is_split else cfqm_step
        u = step(scheme, model, 0.4, 0.3)
        assert u.conj().T @ u == pytest.approx(eye, abs=1e-12)
    u = trotterized_cfqm_step(schemes.load_scheme("CF4-2"), model, 0.4, 0.3)
    assert u.conj().T @ u == pytest.approx(eye, abs=1e-12)


def test_step_dispatch_guards():
    model = random_model(2, seed=0)
    with pytest.raises(ValueError):
        cfqm_step(schemes.load_scheme("GS6-4"), model, 0.0, 0.1)
    with pytest.raises(ValueError):
        split_step(schemes.load_scheme("CF4-2"), model, 0.0, 0.1)
    with pytest.raises(ValueError):
        trotterized_cfqm_step(schemes.load_scheme("GS6-4"), model, 0.0, 0.1)


def test_structured_steps_keep_the_dense_cap():
    big = random_model(spin_model.MAX_DENSE_SPINS + 1, seed=0)
    with pytest.raises(ValueError, match="dense matrices"):
        trotterized_cfqm_step(schemes.load_scheme("CF4-2"), big, 0.0, 0.1)
    with pytest.raises(ValueError, match="dense matrices"):
        split_step(schemes.load_scheme("GS6-4"), big, 0.0, 0.1)


def test_trotter_defect_shrinks_at_third_order():
    # s=1 product formula: ||S(h) - exp(-ihH)|| = O(h^3)
    model = random_model(3, seed=11)
    scheme = schemes.load_scheme("CF2-1")
    t0 = 0.5

    def defect(h):
        return spectral_distance(trotterized_cfqm_step(scheme, model, t0, h),
                                 cfqm_step(scheme, model, t0, h))

    r = defect(0.2) / defect(0.1)
    assert r == pytest.approx(8.0, rel=0.25)


def test_trotterized_step_exact_when_parts_commute():
    # with zero drive frequencies and quarter-pi phases the field vanishes,
    # so at n=2 the even part is (numerically) zero and the product formula
    # introduces no error at all
    model = HeisenbergModel(n=2, phases=np.array([math.pi / 2, math.pi / 2]),
                            freqs=np.zeros(2))
    scheme = schemes.load_scheme("CF4-2")
    defect = spectral_distance(trotterized_cfqm_step(model=model, scheme=scheme,
                                                     t0=0.3, h=0.4),
                               cfqm_step(scheme, model, 0.3, 0.4))
    assert defect < 1e-12


def test_tree_product_matches_sequential():
    rng = np.random.default_rng(12)
    for count in (1, 2, 5, 8):
        stack = np.empty((count, 6, 6), dtype=complex)
        for k in range(count):
            q, _ = np.linalg.qr(rng.normal(size=(6, 6))
                                + 1j * rng.normal(size=(6, 6)))
            stack[k] = q
        seq = np.eye(6, dtype=complex)
        for k in range(count):
            seq = stack[k] @ seq
        assert propagators._tree_product(stack.copy()) == pytest.approx(
            seq, abs=1e-13)


def test_reunitarize_pulls_back_to_unitary():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    drifted = q * (1.0 + 3e-9)  # small coherent defect
    fixed = propagators._reunitarize(drifted)
    defect = spectral_distance(fixed.conj().T @ fixed, np.eye(5))
    assert defect < 1e-15


def test_reference_memoizes_and_evolve_composes():
    model = random_model(2, seed=13)
    r1 = reference_propagator(model, 0.0, 0.3, tol=1e-10)
    r2 = reference_propagator(model, 0.0, 0.3, tol=1e-10)
    assert r1 is r2
    # two midpoint steps compose right-to-left
    u = evolve(model, 0.1, 0.4, 2, "midpoint")
    want = midpoint_step(model, 0.3, 0.2) @ midpoint_step(model, 0.1, 0.2)
    assert u == pytest.approx(want, abs=1e-14)


def test_midpoint_rule_is_second_order():
    model = random_model(2, seed=14)
    ref = reference_propagator(model, 0.0, 0.4, tol=1e-12)
    e4 = spectral_distance(evolve(model, 0.0, 0.4, 4, "midpoint"), ref)
    e8 = spectral_distance(evolve(model, 0.0, 0.4, 8, "midpoint"), ref)
    assert e4 / e8 == pytest.approx(4.0, rel=0.2)


def test_evolve_validation_and_scheme_dispatch():
    model = random_model(2, seed=2)
    scheme = schemes.load_scheme("CF4-2")
    u = evolve(model, 0.0, 0.5, 2, "cfqm", scheme=scheme)
    want = cfqm_step(scheme, model, 0.25, 0.25) @ cfqm_step(scheme, model, 0.0, 0.25)
    assert u == pytest.approx(want, abs=1e-14)
    with pytest.raises(ValueError):
        evolve(model, 0.0, 0.5, 0, "midpoint")
    with pytest.raises(ValueError):
        evolve(model, 0.0, -0.5, 2, "midpoint")
    with pytest.raises(ValueError):
        evolve(model, 0.0, 0.5, 2, "not-a-method")


@pytest.mark.parametrize("scheme_id", ["CF2-1", "CF4-2", "CF4-3", "CF6-5", "CF6-6"])
def test_trotterized_step_matches_dense_oracle(scheme_id):
    # n = 2..8 (CF6-* up to 7) puts the unpaired last site in the odd part
    # for odd n and in the even part for even n
    scheme = schemes.load_scheme(scheme_id)
    top = 7 if scheme_id.startswith("CF6") else 8
    for n in range(2, top + 1):
        for seed in (1, 2):
            model = random_model(n, seed=seed)
            for h in (0.1, 0.6):
                t0 = 0.7 * seed
                dist = spectral_distance(trotterized_cfqm_step(scheme, model, t0, h),
                                         dense_trotterized_step(scheme, model, t0, h))
                assert dist <= 1e-12, (n, seed, h, dist)


def test_product_formula_factors_merge_same_block_neighbours():
    for s, length in ((1, 3), (2, 11), (3, 51)):
        factors = product_formula_factors(s)
        assert len(factors) == length
        parts = [part for part, _ in factors]
        assert all(a != b for a, b in zip(parts, parts[1:]))
        for part in (0, 1):
            total = sum(coeff for p, coeff in factors if p == part)
            assert total == pytest.approx(1.0, abs=1e-13)
    assert product_formula_factors(1) == ((1, 0.5), (0, 1.0), (1, 0.5))


@pytest.mark.parametrize("scheme_id", ["GS6-4", "GS10-6"])
def test_split_step_matches_per_factor_exponentials(scheme_id):
    scheme = schemes.load_scheme(scheme_id)
    for n in range(2, 9):
        model = random_model(n, seed=20 + n)
        for t0, h in ((0.3, 0.1), (2.2, 0.6)):
            dist = spectral_distance(split_step(scheme, model, t0, h),
                                     per_factor_split_step(scheme, model, t0, h))
            assert dist <= 1e-12, (n, t0, h, dist)
