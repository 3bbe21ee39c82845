"""Coefficient transforms and scheme data files."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfqm import schemes
from cfqm.errors import DataIntegrityError, SchemeLookupError
from cfqm.schemes import (
    SCHEME_IDS,
    compute_cbar,
    load_scheme,
    parse_scheme_text,
    t_matrix,
    transform_matrices,
)
from oracles import scalar_compute_cbar

SQ3 = math.sqrt(3.0)


def test_t_matrix_frozen_values():
    assert t_matrix(1) == pytest.approx(np.array([[1.0]]))
    assert t_matrix(2) == pytest.approx(np.array([[1.0, 0.0], [0.0, 1.0 / 12.0]]))
    want3 = np.array([
        [1.0, 0.0, 1.0 / 12.0],
        [0.0, 1.0 / 12.0, 0.0],
        [1.0 / 12.0, 0.0, 1.0 / 80.0],
    ])
    assert t_matrix(3) == pytest.approx(want3)
    # extended columns: first row tracks the averaged integral of A itself
    assert t_matrix(1, jmax=5)[0] == pytest.approx(
        np.array([1.0, 0.0, 1.0 / 12.0, 0.0, 1.0 / 80.0]))


def test_t_matrix_bits_match_exact_quotients():
    # every entry is the correctly rounded rational (1 - (-1)^k) / (k 2^k),
    # k = g + j, over the extended columns that compute_cbar scans
    for s in range(1, 7):
        jmax = 64 * s
        exact = np.array([[float(Fraction(1 - (-1) ** (g + j), (g + j) * 2 ** (g + j)))
                           for j in range(1, jmax + 1)] for g in range(s)])
        assert t_matrix(s, jmax).tobytes() == exact.tobytes(), s
        assert t_matrix(s).tobytes() == exact[:, :s].tobytes(), s
        assert transform_matrices(s).T.tobytes() == exact[:, :s].tobytes(), s


def test_t_matrix_tail_envelope():
    # |T[g, j]| <= 2^(1-j)/j for every g, the envelope behind compute_cbar's
    # certified tail bound; it holds exactly, with no rounding slack
    for s in range(1, 7):
        t = t_matrix(s, 64 * s)
        j = np.arange(1, 64 * s + 1)
        assert np.all(np.abs(t) <= 2.0 ** (1 - j) / j), s


def test_inverse_transform_frozen_values():
    # the graded -> averaged map T^{-1} used by the derivation script
    r2 = np.linalg.inv(transform_matrices(2).T)
    assert r2 == pytest.approx(np.diag([1.0, 12.0]))
    r3 = np.linalg.inv(transform_matrices(3).T)
    want = np.array([
        [2.25, 0.0, -15.0],
        [0.0, 12.0, 0.0],
        [-15.0, 0.0, 180.0],
    ])
    assert r3 == pytest.approx(want, rel=1e-12, abs=1e-12)


def _assert_exact_moments(s, nodes, weights):
    # an s-point Gauss-Legendre rule integrates x^g over [-1, 1] exactly
    # for g = 0..2s-1
    for g in range(2 * s):
        exact = 2.0 / (g + 1) if g % 2 == 0 else 0.0
        assert abs(float(np.dot(weights, nodes ** g)) - exact) <= 1e-13, (s, g)


def test_transform_invariants_all_orders():
    for s in range(1, 7):
        tm = transform_matrices(s)
        _assert_exact_moments(s, tm.nodes, tm.weights)
        r = np.linalg.inv(tm.T)
        assert r @ tm.T == pytest.approx(np.eye(s), abs=1e-12)
        assert tm.Q @ np.ones(s) == pytest.approx(tm.T[:, 0], abs=1e-13)
        # T^{-1} Q 1 = e_1: quadrature of the plain average recovers alpha_1
        assert r @ tm.Q @ np.ones(s) == pytest.approx(
            np.eye(s)[0], abs=1e-9)


def test_gauss_legendre_frozen_nodes():
    tm2 = transform_matrices(2)
    assert tm2.nodes == pytest.approx([-1 / SQ3, 1 / SQ3])
    assert tm2.weights == pytest.approx([1.0, 1.0])
    tm3 = transform_matrices(3)
    assert tm3.nodes == pytest.approx([-math.sqrt(3 / 5), 0.0, math.sqrt(3 / 5)])
    assert tm3.weights == pytest.approx([5 / 9, 8 / 9, 5 / 9])
    # the rules stop at s = 6: a scheme file asking for more is rejected
    with pytest.raises(DataIntegrityError, match="implausible sizes"):
        parse_scheme_text("scheme X s=7 m=1 kind=non-split\ny" + " 0" * 7 + "\n")


def test_quadrature_matrix_entries():
    q = transform_matrices(2).Q
    # first row w_k/2, second row w_k c_k/4
    assert q[0] == pytest.approx([0.5, 0.5])
    assert q[1] == pytest.approx([-1 / (4 * SQ3), 1 / (4 * SQ3)])


def test_z_from_y_matches_literature_fourth_order():
    # the classic two-exponential fourth-order scheme in node coordinates,
    # as the loader derives them from the stored y rows
    z = load_scheme("CF4-2").z
    want = np.array([
        [0.25 - SQ3 / 6.0, 0.25 + SQ3 / 6.0],
        [0.25 + SQ3 / 6.0, 0.25 - SQ3 / 6.0],
    ])
    assert z == pytest.approx(want, rel=1e-12)


def test_xbar_known_values():
    # extended-basis coefficients xbar_j = sum_g y_g T[g, j]
    assert (np.array([1.0]) @ t_matrix(1, 3)).tolist() == [1.0, 0.0, 1.0 / 12.0]
    # CF4-2 first row in the graded basis: x = (1/2, 1/6)
    assert np.array([0.5, 2.0]) @ t_matrix(2) == pytest.approx([0.5, 1.0 / 6.0])


@given(st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=4),
       st.integers(1, 12))
@settings(max_examples=80)
def test_xbar_tail_envelope(row, j):
    # |T[g, j]| <= 2^(1-j)/j for every g, hence the certified tail bound
    # used when maximizing over the extended basis
    xbar_j = (np.array(row) @ t_matrix(len(row), j))[-1]
    assert abs(xbar_j) <= 2.0 ** (1 - j) / j * sum(abs(v) for v in row) + 1e-12


def test_compute_cbar_frozen():
    assert compute_cbar(load_scheme("CF2-1"), 1.0) == pytest.approx(1.0)
    assert compute_cbar(load_scheme("CF4-2"), 1.0) == pytest.approx(0.5)
    assert compute_cbar(load_scheme("CF4-2"), 2.0) == pytest.approx(1.0)
    # the vectorised scan agrees bit for bit with an independent scalar scan
    for scheme_id in SCHEME_IDS:
        scheme = load_scheme(scheme_id)
        for c in (0.1, 0.5, 1.0, 1.7, 3.0):
            assert compute_cbar(scheme, c) == scalar_compute_cbar(scheme, c)


def test_all_bundled_schemes_load_and_validate():
    for scheme_id in SCHEME_IDS:
        scheme = load_scheme(scheme_id)
        assert scheme.scheme_id == scheme_id
        if scheme.is_split:
            assert scheme.rho.shape == (scheme.m, scheme.s)
            assert np.all(scheme.sigma[-1] == 0.0)
        else:
            assert scheme.y.shape == (scheme.m, scheme.s)
            assert scheme.z.shape == (scheme.m, scheme.s)


def test_load_scheme_unknown_id():
    with pytest.raises(SchemeLookupError):
        load_scheme("CF8-9")


def test_parse_round_trip():
    text = """
    # order-4, two exponentials
    scheme CF4-2 s=2 m=2 kind=non-split
    y 0.5 2.0
    y 0.5 -2.0
    """
    scheme = parse_scheme_text(text)
    assert scheme.s == 2 and scheme.m == 2 and not scheme.is_split
    assert scheme.y == pytest.approx(np.array([[0.5, 2.0], [0.5, -2.0]]))


def test_parse_rejects_broken_antisymmetry():
    text = """
    scheme CF4-2 s=2 m=2 kind=non-split
    y 0.5 2.0
    y 0.5 2.0
    """
    with pytest.raises(DataIntegrityError):
        parse_scheme_text(text)


def test_parse_rejects_malformed_input():
    with pytest.raises(DataIntegrityError):
        parse_scheme_text("y 1.0\n")  # no header
    with pytest.raises(DataIntegrityError):
        parse_scheme_text("scheme X s=1 m=1 kind=sideways\ny 1.0\n")
    with pytest.raises(DataIntegrityError):
        # row count does not match m
        parse_scheme_text("scheme X s=1 m=2 kind=non-split\ny 1.0\n")
    with pytest.raises(DataIntegrityError):
        # column count does not match s
        parse_scheme_text("scheme X s=2 m=1 kind=non-split\ny 1.0\n")


def test_parse_split_requires_empty_trailing_sigma():
    text = """
    scheme X s=1 m=2 kind=split
    rho 0.5
    rho 0.5
    sigma 1.0
    sigma 0.5
    """
    with pytest.raises(DataIntegrityError):
        parse_scheme_text(text)
