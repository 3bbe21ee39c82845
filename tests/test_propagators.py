"""Matrix-level propagators: exponentials, product formulas, references."""

import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from cfqm import propagators, schemes, spin_model
from cfqm.propagators import (
    _expm,
    _midpoint_product,
    _phase_chain,
    _suzuki_stages,
    cfqm_step,
    node_times,
    product_formula_factors,
    reference_propagator,
    spectral_distance,
    split_step,
    trotterized_cfqm_step,
)
from cfqm.spin_model import HeisenbergModel, random_model
from oracles import (
    dense_cfqm_step,
    dense_reference_propagator,
    dense_trotterized_step,
    expm_antihermitian,
    per_factor_split_step,
)


def midpoint_dense(model, t0, t1, num_steps):
    """The blockwise midpoint product as a dense matrix."""
    return spin_model.dense(model.n, _midpoint_product(model, t0, t1, num_steps))


def test_expm_antihermitian_pauli_x_closed_form():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    tau = 0.83
    want = math.cos(tau) * np.eye(2) - 1j * math.sin(tau) * sx
    assert _expm(sx, tau) == pytest.approx(want, abs=1e-14)
    # a stack is exponentiated entry by entry
    stack = _expm(np.stack([sx, 2.0 * sx]), tau)
    assert stack[0] == pytest.approx(want, abs=1e-14)
    assert stack[1] == pytest.approx(_expm(sx, 2.0 * tau), abs=1e-14)


@pytest.mark.parametrize("theta", [1e-3, 0.04, 0.5, 1.0, 1.5, 4.0, 20.0])
@pytest.mark.parametrize("d", [1, 2, 8, 35, 70])
def test_expm_matches_eigh_oracle(d, theta):
    # random symmetric stacks whose largest absolute row sum is theta: the
    # Taylor degree, the Paterson-Stockmeyer blocks and (theta > 1) the
    # squarings all vary across the grid
    rng = np.random.default_rng(d)
    stack = rng.normal(size=(3, d, d))
    stack = stack + np.swapaxes(stack, -1, -2)
    stack *= theta / np.abs(stack).sum(axis=-1).max()
    for tau in (1.0, -0.5):
        u = _expm(stack / tau, tau)
        want = expm_antihermitian(stack, 1.0)
        assert np.linalg.norm(u - want, 2, axis=(-2, -1)).max() <= 1e-13
        defect = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(d)
        assert np.linalg.norm(defect, 2, axis=(-2, -1)).max() <= 1e-13


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_expm_rejects_non_finite_exponents(bad):
    h = spin_model.hamiltonian_at(random_model(2, seed=1), 0.3)
    poisoned = h.copy()
    poisoned[1, 2] = poisoned[2, 1] = bad
    with pytest.raises(ValueError, match="exponent norm must be finite"):
        _expm(poisoned, 0.1)
    with pytest.raises(ValueError, match="exponent norm must be finite"), \
            np.errstate(invalid="ignore"):  # inf * 0 entries
        _expm(h, bad)


def test_node_times_centered_gauss():
    scheme = schemes.load_scheme("CF4-2")
    t0, h = 1.0, 0.4
    ts = node_times(scheme, t0, h)
    mid = t0 + h / 2
    assert ts == pytest.approx([mid - h / (2 * math.sqrt(3)),
                                mid + h / (2 * math.sqrt(3))])


def test_product_formula_stage_tables():
    assert _suzuki_stages(1) == [(0.5, 0.0), (0.5, 1.0)]
    for s in (1, 2, 3):
        xi, beta = zip(*_suzuki_stages(s))
        assert len(xi) == 2 * 5 ** (s - 1)
        assert sum(xi) == pytest.approx(1.0, abs=1e-13)
        assert sum(beta) == pytest.approx(1.0, abs=1e-13)
        assert max(map(abs, xi + beta)) <= 1.0 + 1e-12


def test_midpoint_equals_first_order_scheme_step():
    model = random_model(3, seed=4)
    scheme = schemes.load_scheme("CF2-1")
    t0, h = 0.2, 0.35
    assert cfqm_step(scheme, model, t0, h) == pytest.approx(
        midpoint_dense(model, t0, t0 + h, 1), abs=1e-14)


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


def test_reference_memoizes_and_midpoint_product_composes():
    model = random_model(2, seed=13)
    r1 = reference_propagator(model, 0.0, 0.3, tol=1e-10)
    r2 = reference_propagator(model, 0.0, 0.3, tol=1e-10)
    assert r1 is r2
    # two midpoint micro-steps compose right-to-left
    u = midpoint_dense(model, 0.1, 0.5, 2)
    h_at = spin_model.hamiltonian_at
    want = _expm(h_at(model, 0.4), 0.2) @ _expm(h_at(model, 0.2), 0.2)
    assert u == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("t0,t1,tol,detail", [
    (0.0, 0.3, math.nan, "tol must be finite, got nan"),
    (0.0, 0.3, math.inf, "tol must be finite, got inf"),
    (math.nan, 0.3, 1e-10, "t0 must be finite, got nan"),
    (0.0, math.inf, 1e-10, "t1 must be finite, got inf"),
    (0.0, math.nan, 1e-10, "t1 must be finite, got nan"),
])
def test_reference_rejects_non_finite_inputs(monkeypatch, t0, t1, tol, detail):
    class NoLookup(dict):
        def get(self, key, default=None):
            raise AssertionError("memo lookup before the input check")

    def no_matrix_work(*args, **kwargs):
        raise AssertionError("matrix work before the input check")

    # every micro-step chunk starts from hamiltonians_at
    monkeypatch.setattr(spin_model, "hamiltonians_at", no_matrix_work)
    monkeypatch.setattr(propagators, "_REFERENCE_CACHE", NoLookup())
    with pytest.raises(ValueError) as err:
        reference_propagator(random_model(3, seed=1), t0, t1, tol=tol)
    assert str(err.value) == detail


@pytest.mark.parametrize("t0,h,detail", [
    (math.nan, 0.2, "t0 must be finite, got nan"),
    (math.inf, 0.2, "t0 must be finite, got inf"),
    (0.3, math.nan, "h must be finite, got nan"),
    (0.3, -math.inf, "h must be finite, got -inf"),
])
@pytest.mark.parametrize("step,scheme_id", [
    (cfqm_step, "CF4-2"), (trotterized_cfqm_step, "CF4-2"), (split_step, "GS6-4"),
])
def test_steps_reject_non_finite_inputs(monkeypatch, step, scheme_id, t0, h, detail):
    def no_matrix_work(*args, **kwargs):
        raise AssertionError("matrix work before the input check")

    monkeypatch.setattr(np.linalg, "eigh", no_matrix_work)
    monkeypatch.setattr(propagators, "_expm", no_matrix_work)
    with pytest.raises(ValueError) as err:
        step(schemes.load_scheme(scheme_id), random_model(3, seed=1), t0, h)
    assert str(err.value) == detail


def test_reference_memory_stays_on_sector_blocks(monkeypatch):
    # the micro-step chunks are built as sector blocks: at n = 8 a dense
    # (64, 256, 256) chunk alone would be 32 MB
    model = random_model(8, seed=1)
    monkeypatch.setattr(propagators, "_REFERENCE_CACHE", {})
    tracemalloc.start()
    try:
        reference_propagator(model, 0.3, 0.5, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


def test_midpoint_rule_is_second_order():
    model = random_model(2, seed=14)
    ref = reference_propagator(model, 0.0, 0.4, tol=1e-12)
    e4 = spectral_distance(midpoint_dense(model, 0.0, 0.4, 4), ref)
    e8 = spectral_distance(midpoint_dense(model, 0.0, 0.4, 8), ref)
    assert e4 / e8 == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("scheme_id", ["CF2-1", "CF4-2", "CF4-3", "CF6-5", "CF6-6"])
def test_cfqm_step_matches_dense_oracle(scheme_id):
    # exponents built from exchange/field weights against exponents summed
    # from dense node Hamiltonians
    scheme = schemes.load_scheme(scheme_id)
    top = 7 if scheme_id.startswith("CF6") else 8
    for n in range(2, top + 1):
        for seed in (1, 2):
            model = random_model(n, seed=seed)
            for h in (0.1, 0.6):
                t0 = 0.7 * seed
                dist = spectral_distance(cfqm_step(scheme, model, t0, h),
                                         dense_cfqm_step(scheme, model, t0, h))
                assert dist <= 1e-12, (n, seed, h, dist)


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


def test_split_eigenbases_keep_sectors_when_local_spectra_are_degenerate():
    # zero frequencies and phases pi/2 leave fields of roundoff size, so
    # every bond block has a (near) threefold degenerate triplet, which a
    # 4x4 eigh is free to mix across |00>, |11> and the middle pair
    for n in range(3, 7):
        zero_field = HeisenbergModel(n=n, phases=np.full(n, math.pi / 2),
                                     freqs=np.zeros(n))
        for model in (zero_field, random_model(n, seed=80 + n)):
            for scheme_id in ("CF4-2", "CF6-5"):
                scheme = schemes.load_scheme(scheme_id)
                u = trotterized_cfqm_step(scheme, model, 0.3, 0.4)
                assert _off_sector_nonzeros(u) == 0, (n, scheme_id)
                dist = spectral_distance(u, dense_trotterized_step(scheme, model, 0.3, 0.4))
                assert dist <= 1e-12, (n, scheme_id, dist)
            t = 0.9
            groups = propagators._split_eigenbases(
                n, np.array([1.0]), spin_model.field_amplitudes(model, t)[None])
            for p, dense in enumerate(spin_model.split_at(model, t)):
                rebuilt = spin_model.dense(n, [
                    (w[0, p] * lam[0, p, ..., None, :]) @ np.swapaxes(w[0, p], -1, -2)
                    for w, lam in groups])
                assert np.linalg.norm(rebuilt - dense, 2) <= 1e-14, (n, p)


def test_phase_chain_matches_dense_product():
    rng = np.random.default_rng(11)
    d = 5

    def orthogonal(batch):
        return np.linalg.qr(rng.normal(size=batch + (d, d)))[0]

    for batch in ((), (2,), (3, 2)):
        shared = orthogonal(batch)
        for changes in ([], [orthogonal(batch) for _ in range(4)], [shared] * 4):
            first, last = orthogonal(batch), orthogonal(batch)
            phases = np.exp(1j * rng.uniform(-np.pi, np.pi,
                                             size=(len(changes) + 1,) + batch + (d,)))
            diag = phases[..., None] * np.eye(d)
            want = diag[0] @ first
            for change, phase in zip(changes, diag[1:]):
                want = phase @ change @ want
            want = last @ want
            got = _phase_chain(first, changes, phases, last)
            assert got.shape == batch + (d, d)
            assert np.abs(got - want).max() <= 1e-13, (batch, len(changes))


def test_product_formula_factors_merge_same_block_neighbours():
    for s, length in ((1, 3), (2, 11), (3, 51)):
        factors = product_formula_factors(s)
        assert len(factors) == length
        # exact, parts and coefficients: the trotterized step chains only half
        assert factors == factors[::-1], s
        parts = [part for part, _ in factors]
        assert all(a != b for a, b in zip(parts, parts[1:]))
        for part in (0, 1):
            total = sum(coeff for p, coeff in factors if p == part)
            assert total == pytest.approx(1.0, abs=1e-13)
    assert product_formula_factors(1) == ((1, 0.5), (0, 1.0), (1, 0.5))


def test_one_exponential_trotterized_step_is_complex_symmetric():
    # every factor exp(-i tau P) has a real symmetric P, and the factors
    # form a palindrome, so CF2-1's single exponential is its own transpose
    scheme = schemes.load_scheme("CF2-1")
    for n in range(2, 9):
        for seed in (1, 2):
            model = random_model(n, seed=seed)
            for h in (0.1, 0.6):
                u = trotterized_cfqm_step(scheme, model, 0.7 * seed, h)
                assert np.abs(u - u.T).max() <= 1e-15, (n, seed, h)


@pytest.mark.parametrize("scheme_id", ["GS6-4", "GS10-6"])
def test_split_step_matches_per_factor_exponentials(scheme_id):
    scheme = schemes.load_scheme(scheme_id)
    for n in range(2, 9):
        model = random_model(n, seed=20 + n)
        for t0, h in ((0.3, 0.1), (2.2, 0.6)):
            dist = spectral_distance(split_step(scheme, model, t0, h),
                                     per_factor_split_step(scheme, model, t0, h))
            assert dist <= 1e-12, (n, t0, h, dist)


def test_split_step_applies_zero_exchange_rows():
    # GS6-4 with its rho rows 2 and 5 zeroed: they pair under time
    # antisymmetry, so the parser accepts it, and their exchange factors,
    # applied as unit phases, must leave the step unchanged
    lines = resources.files("cfqm.data").joinpath("gs6-4.txt").read_text().splitlines()
    rho_rows = [i for i, line in enumerate(lines) if line.startswith("rho ")]
    for i in (rho_rows[1], rho_rows[4]):
        lines[i] = "rho 0 0"
    scheme = schemes.parse_scheme_text("\n".join(lines))
    assert not scheme.rho[[1, 4]].any()
    for n in range(2, 7):
        model = random_model(n, seed=20 + n)
        for t0, h in ((0.3, 0.1), (2.2, 0.6)):
            dist = spectral_distance(split_step(scheme, model, t0, h),
                                     per_factor_split_step(scheme, model, t0, h))
            assert dist <= 1e-12, (n, t0, h, dist)


def _off_sector_nonzeros(u):
    """Nonzeros of u between basis states with different spins down."""
    down = np.array([bin(i).count("1") for i in range(len(u))])
    return np.count_nonzero(u[down[:, None] != down[None, :]])


def test_propagators_are_exactly_block_diagonal_over_sectors():
    for n in range(2, 9):
        model = random_model(n, seed=40 + n)
        t0, h = 0.4, 0.2
        outputs = [reference_propagator(model, t0, t0 + h, tol=1e-9)]
        for scheme_id in ("CF4-3", "CF6-5", "GS6-4", "GS10-6"):
            scheme = schemes.load_scheme(scheme_id)
            if scheme.is_split:
                outputs.append(split_step(scheme, model, t0, h))
            elif n <= 7 or scheme.s < 3:
                outputs.append(cfqm_step(scheme, model, t0, h))
                outputs.append(trotterized_cfqm_step(scheme, model, t0, h))
        for u in outputs:
            assert u.shape == (2 ** n, 2 ** n) and u.dtype == complex
            assert _off_sector_nonzeros(u) == 0, n


def test_spectral_distance_blockwise_matches_dense_svd():
    for n in (2, 3, 5, 8):
        model = random_model(n, seed=50 + n)
        scheme = schemes.load_scheme("CF4-2")
        ref = reference_propagator(model, 1.0, 1.2, tol=1e-9)
        exact = cfqm_step(scheme, model, 1.0, 0.2)
        trotter = trotterized_cfqm_step(scheme, model, 1.0, 0.2)
        split = split_step(schemes.load_scheme("GS6-4"), model, 1.0, 0.2)
        for u, v in ((exact, ref), (trotter, ref), (trotter, exact), (split, ref)):
            dense = np.linalg.norm(u - v, 2)
            assert abs(spectral_distance(u, v) - dense) <= 1e-14 * dense, n
    # a matrix with entries off the sectors takes the dense SVD unchanged
    rng = np.random.default_rng(5)
    u, v = rng.normal(size=(2, 16, 16)) + 1j * rng.normal(size=(2, 16, 16))
    assert spectral_distance(u, v) == float(np.linalg.norm(u - v, 2))


@pytest.mark.parametrize("n", range(2, 7))
def test_reference_matches_dense_oracle(n):
    model = random_model(n, seed=60 + n)
    for t0, t1 in ((0.0, 0.3), (2.1, 2.6)):
        dist = spectral_distance(reference_propagator(model, t0, t1, tol=1e-11),
                                 dense_reference_propagator(model, t0, t1, tol=1e-11))
        assert dist <= 1e-12, (n, t0, dist)
