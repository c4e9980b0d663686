"""Gamma machinery and the 3x3 matrix helpers."""

import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold.errors import GammaPoleError, MatrixShapeError, SingularMatrixError


def random_off_integer(rng, scale=20.0):
    while True:
        z = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        if abs(z) > scale:
            continue
        if abs(z.real - round(z.real)) < 0.05 and abs(z.imag) < 0.05:
            continue
        return z


def test_gamma_factorials():
    assert su.gamma(1) == pytest.approx(1.0)
    assert su.gamma(5) == pytest.approx(24.0)


def test_gamma_half():
    # reflection at 1/2: Gamma(1/2)^2 = pi
    assert su.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_pole_raises():
    for z in (0.0, -1.0, -7.0, -3.0 + 1e-12j):
        with pytest.raises(GammaPoleError):
            su.gamma(z)


def test_reciprocal_gamma_exact_zeros():
    assert su.reciprocal_gamma(0) == 0
    assert su.reciprocal_gamma(-3) == 0
    assert su.reciprocal_gamma(-12.0) == 0
    assert su.reciprocal_gamma(2) == pytest.approx(1.0)


def test_rising_factorial_values():
    assert su.rising_factorial(0.3 + 0.1j, 0) == 1.0
    assert su.rising_factorial(2, 3) == pytest.approx(24.0)  # 2*3*4
    assert su.rising_factorial(-1, 3) == 0  # factor (nu+1) vanishes exactly


def test_rising_factorial_vs_gamma_ratio():
    rng = np.random.default_rng(10)
    for _ in range(100):
        nu = random_off_integer(rng, scale=6.0)
        n = int(rng.integers(0, 12))
        ratio = su.gamma(nu + n) * su.reciprocal_gamma(nu)
        assert abs(su.rising_factorial(nu, n) - ratio) <= 1e-12 * max(1.0, abs(ratio))


def test_exp_diagonal():
    m = su.exp_diagonal(np.diag([0.0, 0.5 - 2, 0.5 - 4]).astype(complex), 2j * math.pi)
    assert np.allclose(np.diag(m), [1.0, -1.0, -1.0], atol=1e-14)
    assert np.allclose(su.exp_diagonal(np.zeros((3, 3))), np.eye(3))
    m2 = su.exp_diagonal(np.diag([1.0, 2.0, 0.0]).astype(complex), 1j * math.pi)
    assert np.allclose(np.diag(m2), [-1.0, 1.0, 1.0], atol=1e-15)


def test_exp_diagonal_rejects_offdiagonal():
    bad = np.eye(3, dtype=complex)
    bad[1, 0] = 1e-3
    with pytest.raises(MatrixShapeError):
        su.exp_diagonal(bad)


def test_exp_nilpotent_shape_and_values():
    assert np.allclose(su.exp_first_row_nilpotent(np.zeros((3, 3))), np.eye(3))
    t = np.zeros((3, 3), dtype=complex)
    t[0, 1] = 1.0
    m = su.exp_first_row_nilpotent(t, 2j * math.pi)
    expected = np.eye(3, dtype=complex)
    expected[0, 1] = 2j * math.pi
    assert np.allclose(m, expected, atol=0)
    bad = t.copy()
    bad[1, 2] = 0.5
    with pytest.raises(MatrixShapeError):
        su.exp_first_row_nilpotent(bad)


def test_inverse3_matches_numpy():
    rng = np.random.default_rng(12)
    for _ in range(100):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert su.max_abs(su.inverse3(m) - np.linalg.inv(m)) <= 1e-12 * su.max_abs(np.linalg.inv(m))


def test_inverse3_singularity_threshold_is_scale_aware():
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]], dtype=complex)
    for scale in (1.0, 1e6, 1e-6):
        with pytest.raises(SingularMatrixError):
            su.inverse3(scale * singular)


def test_matmul_associative_at_unit_scale():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
        assert su.max_abs((a @ b) @ c - a @ (b @ c)) <= 1e-13


def test_reflection_matches_mpmath():
    # the reflected branch reduces the argument of sin(pi z) by the nearest integer, so
    # relative accuracy holds right up to the zeros of 1/Gamma (and the poles of Gamma)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2016)
    points = [-3.000001, -0.999999, -7.0024]
    for j in range(300):
        x = rng.uniform(-20.0, 0.0)
        points.append(complex(x, rng.uniform(-3.0, 3.0)) if j % 3 == 0 else x)
    with mp.workdps(40):
        for z in points:
            ref = mp.rgamma(mp.mpc(z))
            assert abs(su.reciprocal_gamma(z) - ref) <= 1e-13 * abs(ref), z
            assert abs(su.gamma(z) * ref - 1) <= 1e-13, z
