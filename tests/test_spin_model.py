"""Dense Heisenberg chain with cosine drives: norms, splits, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfqm import spin_model
from cfqm.errors import DataIntegrityError
from cfqm.spin_model import (
    HeisenbergModel,
    field_diagonal,
    hamiltonian_at,
    hamiltonians_at,
    load_model,
    random_model,
    save_model,
    split_at,
    taylor_bound_c,
)


def test_dimensions_and_hermiticity():
    model = random_model(3, seed=1)
    h = hamiltonian_at(model, 0.7)
    assert h.shape == (8, 8)
    assert np.allclose(h, h.conj().T)


def test_operator_norm_stays_normalized():
    # (n-1) exchange terms and n field terms, each of norm <= 1/(4n):
    # ||H(t)|| <= 3(n-1)/(4n) + n/(4n) < 1
    for n in (2, 3, 5):
        model = random_model(n, seed=n)
        for t in (0.0, 1.3, 7.9):
            h = hamiltonian_at(model, t)
            assert np.linalg.norm(h, ord=2) <= 1.0 + 1e-12


def test_field_diagonal_matches_cosines():
    model = HeisenbergModel(n=2, phases=np.array([0.0, math.pi / 2]),
                            freqs=np.array([1.0, 0.5]))
    diag = field_diagonal(model, 0.0)
    # site 1 amplitude cos(0) = 1, site 2 amplitude cos(pi/2) = 0, scaled by 1/(4n)
    z1 = np.array([1.0, 1.0, -1.0, -1.0])
    assert diag == pytest.approx(z1 / 8.0)


def test_split_parts_sum_to_hamiltonian():
    for n in (2, 3, 4, 5):
        model = random_model(n, seed=10 + n)
        for t in (0.0, 2.1):
            h_odd, h_even = split_at(model, t)
            assert h_odd + h_even == pytest.approx(hamiltonian_at(model, t),
                                                   abs=1e-15)


def test_split_parts_are_disjoint_blocks():
    # H_odd at n=4 must be exactly block(1,2) (+) block(3,4), each block the
    # exchange term plus the field of its left site; H_even couples only
    # (2,3) and carries the fields of sites 2 and 4
    model = random_model(4, seed=8)
    t = 0.9
    h_odd, h_even = split_at(model, t)
    exchange = np.array([[1.0, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]])
    zfield = np.diag([1.0, 1.0, -1.0, -1.0])  # sigma_z on the left site
    amps = np.cos(model.phases + model.freqs * t)
    eye4 = np.eye(4)
    block12 = (exchange + amps[0] * zfield) / 16.0
    block34 = (exchange + amps[2] * zfield) / 16.0
    assert h_odd == pytest.approx(np.kron(block12, eye4) + np.kron(eye4, block34),
                                  abs=1e-15)
    block23 = (exchange + amps[1] * zfield) / 16.0
    site4 = np.kron(np.eye(8), np.diag([1.0, -1.0]))
    want_even = (np.kron(np.kron(np.eye(2), block23), np.eye(2))
                 + amps[3] / 16.0 * site4)
    assert h_even == pytest.approx(want_even, abs=1e-15)


def test_hamiltonians_at_batches_match_single_calls():
    model = random_model(4, seed=5)
    times = np.array([0.0, 0.4, 3.3])
    batch = hamiltonians_at(model, times)
    for k, t in enumerate(times):
        assert batch[k] == pytest.approx(hamiltonian_at(model, t))


def test_random_model_seeded_and_ranged():
    m1 = random_model(5, seed=42)
    m2 = random_model(5, seed=42)
    assert np.array_equal(m1.phases, m2.phases)
    assert np.array_equal(m1.freqs, m2.freqs)
    assert np.all((0 <= m1.phases) & (m1.phases < 2 * np.pi))
    assert np.all((0.5 <= m1.freqs) & (m1.freqs <= 1.0))


def test_taylor_bound_c_unit_for_slow_drives():
    assert taylor_bound_c(random_model(4, seed=0)) == 1.0
    fast = HeisenbergModel(n=2, phases=np.zeros(2), freqs=np.array([1.0, 2.5]))
    with pytest.warns(RuntimeWarning):
        c = taylor_bound_c(fast)
    assert c == 2.5


def test_model_validation():
    with pytest.raises(ValueError):
        HeisenbergModel(n=1, phases=np.zeros(1), freqs=np.ones(1))
    with pytest.raises(ValueError):
        HeisenbergModel(n=3, phases=np.zeros(2), freqs=np.ones(3))
    # the model itself is legal at any size; only dense matrices are capped
    big = random_model(spin_model.MAX_DENSE_SPINS + 1, seed=0)
    with pytest.raises(ValueError):
        spin_model.hamiltonian_at(big, 0.0)


def test_save_load_round_trip(tmp_path):
    model = random_model(6, seed=9)
    path = tmp_path / "chain.txt"
    save_model(model, path)
    back = load_model(path)
    assert back.n == model.n
    assert np.array_equal(back.phases, model.phases)
    assert np.array_equal(back.freqs, model.freqs)


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("heisenberg 3\nsite 0.1 0.9\nsite 0.2 0.8\n")  # one row short
    with pytest.raises(DataIntegrityError):
        load_model(path)
    path.write_text("ising 3\n")
    with pytest.raises(DataIntegrityError):
        load_model(path)


@given(st.integers(2, 6), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_split_covers_every_field_site(n, seed):
    # the two parts together must contain each site's field exactly once,
    # including the last site when n is odd (no dangling terms)
    model = random_model(n, seed=seed)
    t = 0.37
    h_odd, h_even = split_at(model, t)
    assert h_odd + h_even == pytest.approx(hamiltonian_at(model, t), abs=1e-15)
    # and the parts must not double-count: diagonals add up exactly
    assert np.diag(h_odd) + np.diag(h_even) == pytest.approx(
        np.diag(hamiltonian_at(model, t)), abs=1e-15)


def test_coupling_matrix_cache_is_write_protected():
    mat = spin_model.coupling_matrix(random_model(3, seed=0))
    with pytest.raises(ValueError):
        mat[0, 0] = 123.0


def test_split_is_the_dense_embedding_of_local_terms():
    for n in range(2, 8):
        model = random_model(n, seed=30 + n)
        t = 1.1
        fields = spin_model.field_amplitudes(model, t)
        parts = []
        for parity in (1, 0):
            sites, blocks, end = spin_model.local_terms(n, parity, 1.0 / (4 * n), fields)
            assert sites == tuple(range(2 - parity, n, 2))
            assert (end is not None) == (n % 2 == parity)
            part = np.zeros((2 ** n, 2 ** n))
            for site, block in zip(sites, blocks):
                part += np.kron(np.kron(np.eye(2 ** (site - 1)), block),
                                np.eye(2 ** (n - site - 1)))
            if end is not None:
                part += np.kron(np.eye(2 ** (n - 1)), np.diag(end))
            parts.append(part)
        h_odd, h_even = split_at(model, t)
        assert np.array_equal(h_odd, parts[0])
        assert np.array_equal(h_even, parts[1])
        assert h_odd + h_even == pytest.approx(hamiltonian_at(model, t), abs=1e-15)

