"""Closed-form invariants of the unperturbed equation at the origin."""

import cmath
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import Direction


def test_formal_data_matrices():
    d = su.formal_data(0.5)
    assert np.allclose(np.diag(d.Lambda), [0.0, -1.5, -3.5])
    assert np.allclose(np.diag(su.formal_data(2.0).Lambda), [0.0, 0.0, -2.0])
    assert np.allclose(np.diag(su.formal_data(4.0).Lambda), [0.0, 2.0, 0.0])
    assert np.allclose(np.diag(d.Q), [1.0, 2.0, 0.0])


def test_formal_monodromy_values():
    assert np.allclose(np.diag(su.formal_monodromy(0.5)), [1, -1, -1], atol=1e-14)
    assert np.allclose(su.formal_monodromy(3), np.eye(3), atol=1e-13)
    assert np.allclose(np.diag(su.formal_monodromy(0.25)), [1, 1j, 1j], atol=1e-14)


def test_singular_directions():
    assert su.singular_directions(-2.0) == frozenset()
    assert su.singular_directions(0.5) == frozenset({0.0, math.pi})
    assert su.singular_directions(3.0) == frozenset({0.0, math.pi})


def test_stokes_matrix_entries():
    for d in Direction:
        assert np.array_equal(su.stokes_matrix(-1.0, d), np.eye(3))
    m0 = su.stokes_matrix(0.5, Direction.ZERO)
    assert m0[0, 2] == pytest.approx(-1j * math.sqrt(math.pi), rel=1e-13)
    mpi = su.stokes_matrix(2.0, Direction.PI)
    assert mpi[0, 1] == pytest.approx(-2j * math.pi, rel=1e-12)


def test_stokes_identity_across_nonpositive_integers():
    # entries are entire in nu and vanish exactly at 0, -1, -2, ...
    for m in range(9):
        for d in Direction:
            assert su.max_abs(su.stokes_matrix(-float(m), d) - np.eye(3)) == 0.0


def test_monodromy_origin_integer_cases():
    for nu in (0, -1, -2):
        assert np.allclose(su.monodromy_origin(nu), np.eye(3), atol=0)
    m1 = su.monodromy_origin(1.0)
    expected = np.eye(3, dtype=complex)
    expected[0, 1] = 2j * math.pi   # -2 pi i e^{-i pi} / Gamma(1)
    expected[0, 2] = -1j * math.pi  # -pi i / Gamma(1)
    assert su.max_abs(m1 - expected) <= 1e-12


def test_monodromy_origin_group_relation_and_spectrum():
    rng = np.random.default_rng(21)
    for _ in range(50):
        nu = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        m0 = su.monodromy_origin(nu)
        product = (
            su.stokes_matrix(nu, Direction.PI)
            @ su.stokes_matrix(nu, Direction.ZERO)
            @ su.formal_monodromy(nu)
        )
        assert su.max_abs(m0 - product) == 0.0  # same construction, exact
        lam = cmath.exp(2j * math.pi * nu)
        diag = np.diag(m0)
        assert abs(diag[0] - 1.0) <= 1e-13
        assert abs(diag[1] - lam) <= 1e-12 * max(1.0, abs(lam))
        assert abs(diag[2] - lam) <= 1e-12 * max(1.0, abs(lam))
