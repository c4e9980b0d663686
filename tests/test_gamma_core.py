"""Gamma machinery and the 3x3 matrix helpers."""

import cmath
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import gammas
from stokes_unfold.errors import GammaPoleError, MatrixShapeError, SingularMatrixError
from stokes_unfold.mat3 import invertible_det3


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


def test_invertible_det3_threshold_is_scale_aware():
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]], dtype=complex)
    for scale in (1.0, 1e6, 1e-6):
        with pytest.raises(SingularMatrixError):
            invertible_det3(scale * singular)


def test_lanczos_sum_written_out_keeps_every_bit():
    # the loop form of the Lanczos sum, transcribed: _lanczos writes the same nine terms out
    # in the same order, and must give the same bits
    coefficients = (
        0.99999999999980993, 676.5203681218851, -1259.1392167224028, 771.32342877765313,
        -176.61502916214059, 12.507343278686905, -0.13857109526572012, 9.9843695780195716e-6,
        1.5056327351493116e-7,
    )

    def loop_form(z):
        w = z - 1.0
        acc = coefficients[0]
        for i in range(1, len(coefficients)):
            acc += coefficients[i] / (w + i)
        t = w + 7.0 + 0.5
        return math.sqrt(2.0 * math.pi) * t ** (w + 0.5) * cmath.exp(-t) * acc

    rng = np.random.default_rng(25)
    for re, im in zip(rng.uniform(0.5, 140.0, 20000).tolist(), rng.uniform(-60.0, 60.0, 20000).tolist()):
        z = complex(re, im)
        assert repr(gammas._lanczos(z)) == repr(loop_form(z)), z


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


def test_gamma_on_the_disc_of_radius_50_matches_mpmath():
    # the module's contract, 1e-12 relative on |z| <= 50 away from the poles, off the strip
    # Re z in [-20, 0]: the disc, Re z < -20, the real axis and 1e-8 ... 1e-2 from a pole
    # (1.7e-13 worst on these 500, at z = 0.33 + 34.1i)
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(50)
    points = []
    for j in range(500):
        if j % 4 == 0:
            x = rng.uniform(-50.0, -20.0)
            z = complex(x, rng.uniform(-1.0, 1.0) * math.sqrt(2500.0 - x * x))
        elif j % 4 == 1:
            z = complex(rng.uniform(-50.0, 50.0), 0.0)
        elif j % 4 == 2:
            k, d = -int(rng.integers(0, 50)), (-1) ** int(rng.integers(2)) * 10.0 ** rng.uniform(-8.0, -2.0)
            z = complex(k + d, 0.0) if j % 8 == 2 else complex(k, d)
        else:
            z = 50.0 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if z.real <= 0.5 and abs(z - round(z.real)) < 1e-8:
            continue  # on a pole (or a zero of 1/Gamma) to within 1e-8
        points.append(z)
    assert len(points) >= 490
    assert sum(z.real < -20 for z in points) >= 125 and sum(z.real > 0 for z in points) >= 125
    with mp.workdps(40):
        for z in points:
            ref = mp.gamma(mp.mpc(z))
            assert abs(su.gamma(z) - ref) <= 1e-12 * abs(ref), z
            assert abs(su.reciprocal_gamma(z) * ref - 1) <= 1e-12, z


def test_gamma_past_the_lanczos_power_overflow_matches_mpmath():
    # t^(z - 1/2) overflows alone from real z of about 142.3, Gamma itself past 171.6: the
    # band between, reflected or not, is within 5e-13 relative of 40 digits, and past it
    # Gamma is refused
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(171)
    points = [142.3, 142.5, 150.0, 171.5, 171.6, -142.5, -170.5, 150.0 + 1e3j]
    for j in range(300):
        x = rng.uniform(142.3, 171.6)
        points.append(complex(x, rng.uniform(-5.0, 5.0)) if j % 3 == 0 else x)
    with mp.workdps(40):
        for z in points:
            ref = mp.gamma(mp.mpc(z))
            assert abs(su.gamma(z) - ref) <= 5e-13 * abs(ref), z
            assert abs(su.reciprocal_gamma(z) * ref - 1) <= 5e-13, z
    for z in (171.7, 1000.0, -170.7, 1e308 + 1e308j):
        with pytest.raises(ValueError, match="overflows a double"):
            su.gamma(z)
