"""Laplace resummation: values, asymptotic agreement, two-sided jumps, and the Hankel-loop
jump against the lateral sums and the Borel transform."""

import cmath
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import LaplaceQuery, SeriesKind, borel
from stokes_unfold.errors import DecayConditionError, SingularDirectionError, ToleranceError

# high-precision values of the defining ray integral (30-digit quadrature
# of (1 -+ zeta)^(-nu) e^(-zeta/x) along the stated ray, divided by x)
PSI_HALF_AT_01_EXP3 = 1.0193311325100478 + 0.0490794802116646j  # x = 0.1 e^{i pi/3}, theta = pi/2
PHI_TWO_AT_011_3PI4 = 1.1161489395598375 - 0.2362538113137839j  # x = 0.11 e^{3i pi/4}, theta = 5 pi/6


def _lateral_sums(nu, kind, x, tol=su.TOL_DEFAULT, delta=su.DELTA_DEFAULT):
    """(plus, minus): the resummed values on the rays theta_sing + delta and theta_sing - delta."""
    ts = borel.singular_direction(kind)
    return tuple(su.laplace_sum(LaplaceQuery(nu, kind, x, ts + side, tol)) for side in (delta, -delta))


def test_nu_zero_sums_to_one():
    q = LaplaceQuery(0.0, SeriesKind.PSI, 0.1, math.pi / 4)
    assert su.laplace_sum(q) == pytest.approx(1.0, abs=1e-10)
    q = LaplaceQuery(0.0, SeriesKind.PHI, -0.1 + 0.02j, math.pi + math.pi / 5)
    assert su.laplace_sum(q) == pytest.approx(1.0, abs=1e-10)


def test_terminating_case_equals_polynomial():
    # nu = -2: the series is the polynomial 1 - 2x + 2x^2
    x = 0.2
    q = LaplaceQuery(-2.0, SeriesKind.PSI, x, math.pi / 4)
    assert su.laplace_sum(q) == pytest.approx(1 - 2 * x + 2 * x * x, abs=1e-10)


def test_against_high_precision_reference():
    q = LaplaceQuery(0.5, SeriesKind.PSI, 0.1 * cmath.exp(1j * math.pi / 3), math.pi / 2, 1e-11)
    assert su.laplace_sum(q) == pytest.approx(PSI_HALF_AT_01_EXP3, abs=1e-10)
    q = LaplaceQuery(2.0, SeriesKind.PHI, 0.11 * cmath.exp(3j * math.pi / 4), 5 * math.pi / 6, 1e-11)
    assert su.laplace_sum(q) == pytest.approx(PHI_TWO_AT_011_3PI4, abs=1e-10)


def test_asymptotic_partial_sum_agreement():
    # 20-term partial sum within the order-1 Gevrey remainder envelope
    nu, x, theta = 0.5, 0.1 * cmath.exp(1j * math.pi / 3), math.pi / 2
    value = su.laplace_sum(LaplaceQuery(nu, SeriesKind.PSI, x, theta))
    series = su.build_series(nu, SeriesKind.PSI, 20)
    c, a = su.gevrey_constants(nu)
    bound = c * a**20 * math.factorial(20) * abs(x) ** 20
    assert abs(value - series.partial_sum(x, terms=20)) <= bound


def test_direction_independence():
    tol = 1e-10
    x = 0.1 * cmath.exp(1j * math.pi / 5)
    for kind, th1, th2 in (
        (SeriesKind.PSI, math.pi / 6, math.pi / 3),
        (SeriesKind.PHI, -math.pi / 6, math.pi / 4),
    ):
        a = su.laplace_sum(LaplaceQuery(0.5, kind, x, th1, tol))
        b = su.laplace_sum(LaplaceQuery(0.5, kind, x, th2, tol))
        assert abs(a - b) <= 2 * tol


def test_against_live_quadrature_oracle():
    # independent high-precision evaluation of the defining ray integral
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 20
    cases = [
        (0.5, SeriesKind.PSI, 0.1 * cmath.exp(1j * math.pi / 6), math.pi / 3),
        (-3.5, SeriesKind.PSI, 0.2 * cmath.exp(-1j * math.pi / 8), math.pi / 5),
        (1.7, SeriesKind.PHI, 0.12 * cmath.exp(1j * 0.8 * math.pi), math.pi - 0.4),
    ]
    for nu, kind, x, theta in cases:
        sign = -1 if kind is SeriesKind.PSI else 1
        w = mp.e ** (1j * mp.mpf(theta))

        def f(s):
            return (1 + sign * s * w) ** (-mp.mpf(nu)) * mp.e ** (-s * w / x)

        reference = complex(w * mp.quad(f, [0, 1, 2, 5, 20, 80]) / x)
        value = su.laplace_sum(LaplaceQuery(nu, kind, x, theta, 1e-11))
        assert value == pytest.approx(reference, abs=1e-9)


def test_growing_borel_factor_still_converges():
    # Re(nu) < 0 makes the Borel factor grow polynomially along the ray; the
    # truncation bound accounts for it
    q = LaplaceQuery(-3.5, SeriesKind.PSI, 0.1, math.pi / 4, 1e-10)
    v1 = su.laplace_sum(q)
    v2 = su.laplace_sum(LaplaceQuery(-3.5, SeriesKind.PSI, 0.1, math.pi / 3, 1e-10))
    assert abs(v1 - v2) <= 2e-10


def test_two_sided_needs_points_in_the_right_half_plane():
    with pytest.raises(DecayConditionError):
        _lateral_sums(0.5, SeriesKind.PHI, 0.15)  # PHI needs x near the pi direction
    with pytest.raises(DecayConditionError):
        _lateral_sums(0.5, SeriesKind.PSI, -0.15)


def test_theta_on_universal_cover():
    # theta is not reduced mod 2 pi; a full extra turn selects the same
    # geometric ray and hence the same value
    x = 0.1 * cmath.exp(1j * math.pi / 5)
    a = su.laplace_sum(LaplaceQuery(0.5, SeriesKind.PSI, x, math.pi / 4, 1e-11))
    b = su.laplace_sum(LaplaceQuery(0.5, SeriesKind.PSI, x, math.pi / 4 + 2 * math.pi, 1e-11))
    assert abs(a - b) <= 2e-11


def test_decay_condition_error():
    with pytest.raises(DecayConditionError):
        su.laplace_sum(LaplaceQuery(0.5, SeriesKind.PSI, 0.1, math.pi))  # Re(e^{i pi}/0.1) < 0


def test_singular_direction_error():
    with pytest.raises(SingularDirectionError):
        su.laplace_sum(LaplaceQuery(0.5, SeriesKind.PSI, 0.1, 0.0))
    with pytest.raises(SingularDirectionError):
        su.laplace_sum(LaplaceQuery(0.5, SeriesKind.PHI, -0.1, math.pi))


def test_two_sided_no_jump_at_nonpositive_integers():
    for nu in (0, -1, -2, -3):
        plus, minus = _lateral_sums(nu, SeriesKind.PSI, 0.15)
        assert abs(minus - plus) <= 1e-9
        plus, minus = _lateral_sums(nu, SeriesKind.PHI, -0.15)
        assert abs(minus - plus) <= 1e-9


def test_two_sided_jump_psi_closed_form():
    # minus - plus = -(2 pi i / Gamma(1/2)) x^{-1/2} e^{-1/x}
    nu, x = 0.5, 0.15
    plus, minus = _lateral_sums(nu, SeriesKind.PSI, x, tol=1e-11)
    expected = -2j * math.pi / math.sqrt(math.pi) * x ** (-nu) * math.exp(-1.0 / x)
    assert (minus - plus) == pytest.approx(expected, rel=1e-7)


def test_two_sided_jump_phi_closed_form():
    # minus - plus = -(2 pi i e^{-i pi nu} / Gamma(nu)) x^{-nu} e^{1/x} on the
    # lower-edge branch of x^{-nu} (arg x = -pi)
    nu = 0.5
    x = -0.15
    plus, minus = _lateral_sums(nu, SeriesKind.PHI, x, tol=1e-11)
    x_pow = cmath.exp(-nu * (math.log(abs(x)) - 1j * math.pi))
    expected = -2j * math.pi * cmath.exp(-1j * math.pi * nu) / math.sqrt(math.pi) * x_pow * math.exp(1.0 / x)
    assert (minus - plus) == pytest.approx(expected, rel=1e-7)


def test_two_sided_delta_independence():
    a = _lateral_sums(0.5, SeriesKind.PSI, 0.15, tol=1e-11, delta=math.pi / 12)
    b = _lateral_sums(0.5, SeriesKind.PSI, 0.15, tol=1e-11, delta=math.pi / 18)
    assert abs(a[0] - b[0]) <= 2e-11
    assert abs(a[1] - b[1]) <= 2e-11


@pytest.mark.parametrize("nu", [0.5, 1.0 / 3.0, 2.0, 3.7])
def test_jump_quadrature_matches_closed_forms(nu):
    c_psi = su.stokes_jump_quadrature(nu, SeriesKind.PSI, 0.15, tol=1e-11)
    assert abs(c_psi - (-2j * math.pi * su.reciprocal_gamma(nu))) <= 1e-6 * abs(c_psi)
    c_phi = su.stokes_jump_quadrature(nu, SeriesKind.PHI, -0.15, tol=1e-11)
    closed = su.jump_coefficient_closed(nu, SeriesKind.PHI)
    assert abs(c_phi - closed) <= 1e-6 * abs(closed)


def test_jump_zero_for_terminating_case():
    assert abs(su.stokes_jump_quadrature(-1.0, SeriesKind.PSI, 0.15)) <= 1e-8


def test_jump_at_the_rounding_floor_is_never_a_silent_zero():
    # at tol 1e-14 the lateral-sum difference returned exactly 0j for nu = 0.005, x = 0.02
    closed = su.jump_coefficient_closed(0.005, SeriesKind.PSI)
    for tol in (1e-14, 1e-16):
        try:
            c = su.stokes_jump_quadrature(0.005, SeriesKind.PSI, 0.02, tol=tol)
        except ToleranceError:
            continue
        assert abs(c - closed) <= 1e-9 * abs(closed), tol
    with pytest.raises(ToleranceError):
        su.stokes_jump_quadrature(0.005, SeriesKind.PSI, 0.02, tol=1e-20)


def _lateral_factor(nu, kind, x):
    """x^nu e^(+-1/x) on the branch of ``stokes_jump_quadrature``: principal for PSI,
    arg x in (-2 pi, 0) for PHI."""
    if kind is SeriesKind.PSI:
        return cmath.exp(nu * cmath.log(x) + 1.0 / x)
    a = cmath.phase(x)
    return cmath.exp(nu * (math.log(abs(x)) + 1j * (a - 2.0 * math.pi if a > 0.0 else a)) - 1.0 / x)


def test_lateral_sum_difference_matches_the_jump():
    # each lateral sum is within tol absolute, so their difference times x^nu e^(+-1/x) is
    # within 2 tol |x^nu e^(+-1/x)| of the jump, here taken at tol 1e-13 (relative)
    rng = np.random.default_rng(24)
    for j in range(16):
        kind = (SeriesKind.PSI, SeriesKind.PHI)[j % 2]
        nu, tol = rng.uniform(0.0, 4.0), (1e-8, 1e-10)[j // 2 % 2]
        x = rng.uniform(0.1, 0.3) * cmath.exp(1j * rng.uniform(-0.5, 0.5)) * (1 if j % 2 == 0 else -1)
        plus, minus = _lateral_sums(nu, kind, x, tol)
        factor = _lateral_factor(nu, kind, x)
        jump = su.stokes_jump_quadrature(nu, kind, x, tol=1e-13)
        assert abs((minus - plus) * factor - jump) <= 2 * tol * abs(factor), (nu, kind, x, tol)


def test_loop_integrand_is_the_borel_transform_times_the_laplace_kernel():
    # on tau = -|x| mu p^2, p = 1 + i theta, zeta = 1 + tau: the integrand plus the nu = 0
    # loop p e^(k p^2) is p (|x| mu)^nu (1 - zeta)^(-nu) e^((1 - zeta)/x)
    for nu, x in ((0.5, 0.15), (1.0 / 3.0, 0.05 + 0.1j), (3.7, 0.2 * cmath.exp(-1.1j)), (2.0 - 0.5j, 0.3)):
        nu, x = complex(nu), complex(x)
        mu, w = borel._hankel_parabola(nu, cmath.phase(x))
        k = mu * cmath.exp(-1j * cmath.phase(x))
        theta = np.array([-0.8 * w, -2.0, -0.5, 0.7, 3.0, 0.9 * w])
        values = borel._loop_integrand(nu, k)(theta)
        for t, value in zip(theta, values):
            p = 1.0 + 1j * t
            tau = -abs(x) * mu * p * p
            kernel = cmath.exp(-tau / x)
            expected = p * (abs(x) * mu) ** nu * su.borel_transform_value(nu, SeriesKind.PSI, 1.0 + tau) * kernel
            assert abs(value + p * kernel - expected) <= 1e-13 * abs(p * kernel) * max(1.0, abs(p) ** (-2 * nu.real)), (nu, x, t)
