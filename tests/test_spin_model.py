"""Dense Heisenberg chain with cosine drives: norms, splits, sectors."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfqm import spin_model
from cfqm.spin_model import (
    HeisenbergModel,
    field_diagonal,
    hamiltonians_at,
    random_model,
    split_at,
)
from oracles import kron_coupling, kron_generators


def dense_h(model, t):
    """H(t) from the Kronecker-product build of the oracles."""
    return kron_generators(model, 1.0, spin_model.field_amplitudes(model, t))


def dense_blocks_h(model, t):
    """H(t) scattered from the module's own sector blocks."""
    return spin_model.dense(model.n, [b[0] for b in hamiltonians_at(model, [t])])


def test_dimensions_and_hermiticity():
    model = random_model(3, seed=1)
    h = dense_h(model, 0.7)
    assert h.shape == (8, 8)
    assert np.allclose(h, h.conj().T)


def test_operator_norm_stays_normalized():
    # (n-1) exchange terms and n field terms, each of norm <= 1/(4n):
    # ||H(t)|| <= 3(n-1)/(4n) + n/(4n) < 1
    for n in (2, 3, 5):
        model = random_model(n, seed=n)
        for t in (0.0, 1.3, 7.9):
            h = dense_h(model, t)
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
            assert h_odd + h_even == pytest.approx(dense_h(model, t), abs=1e-15)


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
    stacks = hamiltonians_at(model, times)
    groups = spin_model.sector_groups(model.n)
    assert len(stacks) == len(groups)
    for stack, (rows, cols) in zip(stacks, groups):
        assert stack.shape == (len(times),) + np.broadcast_shapes(rows.shape, cols.shape)
        for k, t in enumerate(times):
            assert stack[k] == pytest.approx(dense_h(model, t)[rows, cols],
                                             rel=0.0, abs=1e-15)


def test_random_model_seeded_and_ranged():
    m1 = random_model(5, seed=42)
    m2 = random_model(5, seed=42)
    assert np.array_equal(m1.phases, m2.phases)
    assert np.array_equal(m1.freqs, m2.freqs)
    assert np.all((0 <= m1.phases) & (m1.phases < 2 * np.pi))
    assert np.all((0.5 <= m1.freqs) & (m1.freqs <= 1.0))


def test_model_validation():
    with pytest.raises(ValueError):
        HeisenbergModel(n=1, phases=np.zeros(1), freqs=np.ones(1))
    with pytest.raises(ValueError):
        HeisenbergModel(n=3, phases=np.zeros(2), freqs=np.ones(3))
    # the model itself is legal at any size; only dense matrices are capped
    big = random_model(spin_model.MAX_DENSE_SPINS + 1, seed=0)
    with pytest.raises(ValueError):
        dense_blocks_h(big, 0.0)


@given(st.integers(2, 6), st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_split_covers_every_field_site(n, seed):
    # the two parts together must contain each site's field exactly once,
    # including the last site when n is odd (no dangling terms)
    model = random_model(n, seed=seed)
    t = 0.37
    h_odd, h_even = split_at(model, t)
    h = dense_h(model, t)
    assert h_odd + h_even == pytest.approx(h, abs=1e-15)
    # and the parts must not double-count: diagonals add up exactly
    assert np.diag(h_odd) + np.diag(h_even) == pytest.approx(np.diag(h), abs=1e-15)


def test_coupling_matrix_cache_is_write_protected():
    # the exchange part C is cached only as its sector blocks
    for block in spin_model._sector_coupling(3):
        with pytest.raises(ValueError):
            block[0, 0, 0] = 123.0


def test_split_is_the_dense_embedding_of_local_terms():
    for n in range(2, 8):
        model = random_model(n, seed=30 + n)
        t = 1.1
        fields = spin_model.field_amplitudes(model, t)
        parts = []
        for parity in (1, 0):
            sites, blocks, end = spin_model.local_terms(n, parity, 1.0, fields)
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
        assert h_odd + h_even == pytest.approx(dense_h(model, t), abs=1e-15)



@pytest.mark.parametrize("n", [-3, 0, 1, 2.5, 4.0])
def test_random_model_rejects_invalid_n_before_drawing(monkeypatch, n):
    def no_draw(*args, **kwargs):
        raise AssertionError("random draw before the n check")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=rf"^n must be an integer >= 2, got {n}$"):
        random_model(n, seed=1)


def test_random_model_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        random_model(3, seed=-1)


def test_sector_groups_partition_the_basis():
    for n in range(2, 11):
        groups = spin_model.sector_groups(n)
        assert len(groups) == n // 2 + 1
        seen = []
        for k, (rows, cols) in enumerate(groups):
            down = sorted({k, n - k})
            size = math.comb(n, k)
            assert rows.shape == (len(down), size, 1)
            assert cols.shape == (len(down), 1, size)
            assert np.array_equal(rows[..., 0], cols[:, 0])
            for j, idx in zip(down, cols[:, 0]):
                assert all(bin(i).count("1") == j for i in idx)
            seen.extend(cols.ravel())
        assert sorted(seen) == list(range(2 ** n))


def test_sector_coupling_equals_the_gathered_dense_exchange():
    # built from the sector states, every block, the dense exchange part and
    # H(t) are exactly the Kronecker-product build's
    for n in range(2, 11):
        spin_model._sector_coupling.cache_clear()
        want = kron_coupling(n)
        model = random_model(n, seed=90 + n)
        coupling = spin_model.dense(n, spin_model._sector_coupling(n))
        assert coupling.dtype == np.float64
        assert np.array_equal(coupling, want)
        for (rows, cols), block in zip(spin_model.sector_groups(n),
                                       spin_model._sector_coupling(n)):
            assert np.array_equal(block, want[rows, cols])
            assert not block.flags.writeable
        for t in (0.0, 2.7):
            h = dense_blocks_h(model, t)
            assert h.dtype == np.float64
            assert np.array_equal(h, dense_h(model, t))


def test_dense_matrices_leave_no_dense_cache():
    # a dense H(t) and the dense exchange part scatter the cached sector
    # blocks (1.5 MB at n = 10); a cached dense C would hold another 8 MB.
    # Every cache of the module starts empty, so what the calls keep is traced
    for cached in vars(spin_model).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    model = random_model(10, seed=3)
    gc.collect()
    tracemalloc.start()
    try:
        dense_blocks_h(model, 0.4)
        spin_model.dense(model.n, spin_model._sector_coupling(model.n))
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 4 * 2 ** 20, retained


def test_hamiltonian_is_block_diagonal_over_sectors():
    # the exchange and the fields conserve sum sigma^z: the sector blocks
    # hold every nonzero, and sector_generators gathers exactly those blocks
    for n in range(2, 8):
        model = random_model(n, seed=70 + n)
        h = dense_h(model, 0.6)
        blocks = spin_model.sector_generators(
            model, 1.0, spin_model.field_amplitudes(model, 0.6))
        rebuilt = np.zeros_like(h)
        for (rows, cols), block in zip(spin_model.sector_groups(n), blocks):
            rebuilt[rows, cols] = block
        assert np.array_equal(rebuilt, h)
