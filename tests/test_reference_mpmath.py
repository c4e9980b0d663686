"""Accuracy contracts against 30- and 40-digit mpmath: each public numeric function is
held to the bound its docstring states, on seeded samples of its domain."""

import cmath
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold.borel import LaplaceQuery, laplace_sum
from stokes_unfold.errors import DoubleRangeError, SingularDirectionError
from stokes_unfold.perturbed import OffDiagonal, PerturbParams

mp = pytest.importorskip("mpmath")


def _ray_integral(nu, kind, x, theta):
    """x^{-1} int_0^{infty e^{i theta}} (1 -+ zeta)^{-nu} e^{-zeta/x} d zeta at 30 digits,
    on the principal branch continued from zeta = 0."""
    with mp.workdps(30):
        d = mp.expjpi(mp.mpf(theta) / mp.pi)
        x, nu = mp.mpc(x), mp.mpc(nu)
        c1 = (-1 if kind is su.SeriesKind.PSI else 1) * d
        rate = (d / x).real
        breaks = [0, 0.5, 1.6, 4.0] + [4.0 + k / rate for k in (4, 16, 64)] + [mp.inf]
        value = mp.quad(lambda s: mp.exp(-nu * mp.log(1 + c1 * s) - d * s / x), breaks)
        return complex(d / x * value)


def _laplace_queries(seed, count):
    """Admissible queries: nu in [-2, 4] (a third complex), both kinds, |x| in
    [0.05, 0.5] at any argument, rays within 1.3 of arg x, tol 1e-6 ... 1e-12."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        nu = complex(rng.uniform(-2.0, 4.0), rng.uniform(-1.0, 1.0) if rng.random() < 1 / 3 else 0.0)
        kind = (su.SeriesKind.PSI, su.SeriesKind.PHI)[rng.integers(2)]
        x = rng.uniform(0.05, 0.5) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        query = LaplaceQuery(nu, kind, x, cmath.phase(x) + rng.uniform(-1.3, 1.3),
                             10.0 ** -int(rng.integers(6, 13)))
        try:
            query.validate()
        except SingularDirectionError:
            continue
        out.append(query)
    return out


@pytest.mark.parametrize("query", _laplace_queries(2016, 20), ids=lambda q: f"{q.kind.name}-nu{q.nu:.3g}")
def test_laplace_sum_within_tol(query):
    reference = _ray_integral(query.nu, query.kind, query.x, query.theta)
    assert abs(laplace_sum(query) - reference) <= query.tol


def _two_pole(s, p, q, span):
    """int_0^span tau^p (2s + tau)^(-q) dtau at 40 digits, from its 2F1 closed form."""
    with mp.workdps(40):
        s, p, q, span = (mp.mpf(v) for v in (s, p, q, span))
        return span ** (p + 1) * (2 * s) ** (-q) / (p + 1) * mp.hyp2f1(q, p + 1, p + 2, -span / (2 * s))


def _ratio_cases(seed, count):
    """(a, b, x, tol): a in [1e-3, 1.2] and b - 1 in [0.01, 500] log-uniform (p = b - 1
    beyond 40 in about a third), |x + a| / a in [0.01, 100] log-uniform, where the
    closed form stays a normal double."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a, b = 10.0 ** rng.uniform(-3.0, math.log10(1.2)), 1.0 + 10.0 ** rng.uniform(-2.0, math.log10(499.0))
        k = 10.0 ** rng.uniform(-2.0, 2.0)
        if b * math.log((2.0 + k) / k) < 600.0:
            out.append((a, b, -a - k * a, (1e-10, 1e-12)[rng.integers(2)]))
    return out


@pytest.mark.parametrize("a, b, x, tol", _ratio_cases(13, 24))
def test_ratio_integral_check_within_1e12(a, b, x, tol):
    with mp.workdps(40):
        exact = -1 / (2 * mp.mpf(a) * b) * ((mp.mpf(x) + a) / (mp.mpf(x) - a)) ** b
    quadrature, closed = su.ratio_integral_check(a, b, x, tol)
    assert abs(quadrature - exact) <= 1e-12 * abs(exact)
    assert abs(closed - exact) <= 1e-12 * abs(exact)


def _offdiag_reference(nu, sqrt_eps, x):
    """Phi12 / Phi13 at real x: ((x - s)/(x + s))^z times the two-pole integral, and
    half of it on the x_L side."""
    z = 1.0 / (2.0 * sqrt_eps)
    span = abs(x) - sqrt_eps
    with mp.workdps(40):
        s, xm = mp.mpf(sqrt_eps), mp.mpf(x)
        ratio = (xm - s) / (xm + s)
        value = ratio ** (1 / (2 * s)) * _two_pole(sqrt_eps, z + nu / 2 - 1, z - nu / 2 + 1, span)
        return complex(value if x > 0 else value / 2)


def _offdiag_cases(seed, count):
    """(nu, 1/sqrt_eps, span/sqrt_eps, entry, tol): nu in [-3.3, 7.25], 1/sqrt_eps in
    [1.5, 1001] and span in [0.1, 30] sqrt_eps log-uniform, where the defining integral
    converges (p > -1) and the entry is a normal double."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        nu, inv = rng.uniform(-3.3, 7.25), 10.0 ** rng.uniform(math.log10(1.5), math.log10(1001.0))
        k, entry = 10.0 ** rng.uniform(-1.0, math.log10(30.0)), (OffDiagonal.PHI12, OffDiagonal.PHI13)[rng.integers(2)]
        x = (1.0 + k) / inv * (1 if entry is OffDiagonal.PHI12 else -1)
        if inv / 2.0 + nu / 2.0 - 1.0 > -1.0 and 1e-300 < abs(_offdiag_reference(nu, 1.0 / inv, x)) < 1e300:
            out.append((nu, inv, k, entry, (1e-10, 1e-12)[rng.integers(2)]))
    return out


_OFFDIAG_EDGES = (
    # p = z + nu/2 - 1 in (-1, 0]: the endpoint singularity
    [(nu, 1.5, k, e, 1e-12) for nu in (-1.4, -0.9, 0.5) for k in (0.1, 5.0) for e in OffDiagonal]
    # p near 50 and 500, the old Gauss-Jacobi cut-over at p = 40 and beyond
    + [(0.5, inv, k, e, 1e-12) for inv in (101.0, 1001.0) for k in (0.5, 30.0) for e in OffDiagonal]
    # refused by the p <= 40 chain on [sqrt_eps, span] with an absolute tolerance
    + [(7.25, inv, 30.0, e, tol) for inv in (1.5, 2.5) for e in OffDiagonal for tol in (1e-10, 1e-12)]
)


@pytest.mark.parametrize("nu, inv, k, entry, tol", _offdiag_cases(7, 24) + _OFFDIAG_EDGES)
def test_offdiag_solution_quadrature_within_1e12(nu, inv, k, entry, tol):
    s = 1.0 / inv
    x = (1.0 + k) * s * (1 if entry is OffDiagonal.PHI12 else -1)
    exact = _offdiag_reference(nu, s, x)
    if exact == 0:  # below every double (10^-695 at nu = 1/2, 1/sqrt_eps = 1001, k = 0.5): refused
        with pytest.raises(DoubleRangeError):
            su.offdiag_solution_quadrature(PerturbParams(nu, s), x, entry, tol)
        return
    value = su.offdiag_solution_quadrature(PerturbParams(nu, s), x, entry, tol)
    assert abs(value - exact) <= 1e-12 * abs(exact)


def test_offdiag_phi13_past_the_overflow_of_phi1():
    # Phi1 = 21^500 overflows on its own at the first point; 40-digit values at 1/sqrt_eps = 1001, nu = 1/2, x = x_L - 0.1 sqrt_eps and x_L - sqrt_eps
    s = 1.0 / 1001.0
    for k, exact in ((0.1, 0.0106922542396534), (1.0, 0.0207778344425008)):
        value = su.offdiag_solution_quadrature(PerturbParams(0.5, s), -s - k * s, OffDiagonal.PHI13)
        assert value == pytest.approx(exact, rel=1e-12)


def _borel_draws(seed, count):
    """(nu, kind, zeta): nu in [-5, 5] + [-2, 2]i, |zeta| <= 3 and at least 1e-3 off the
    cut; a third of the draws lie within 0.1 of the cut, on either side."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        nu = complex(rng.uniform(-5.0, 5.0), rng.uniform(-2.0, 2.0))
        kind = (su.SeriesKind.PSI, su.SeriesKind.PHI)[rng.integers(2)]
        if rng.random() < 1 / 3:  # w = 1 -+ zeta just above or below the cut w <= 0
            w = complex(-rng.uniform(0.0, 2.0), (-1) ** rng.integers(2) * 10.0 ** rng.uniform(-3.0, -1.0))
            zeta = 1.0 - w if kind is su.SeriesKind.PSI else w - 1.0
        else:
            zeta = 3.0 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        w = 1.0 - zeta if kind is su.SeriesKind.PSI else 1.0 + zeta
        if abs(zeta) <= 3.0 and (abs(w.imag) if w.real <= 0.0 else abs(w)) >= 1e-3:
            out.append((nu, kind, zeta))
    return out


def test_borel_transform_value_within_1e13():
    with mp.workdps(30):
        for nu, kind, zeta in _borel_draws(2016, 1000):
            w = 1 - mp.mpc(zeta) if kind is su.SeriesKind.PSI else 1 + mp.mpc(zeta)
            exact = complex(mp.power(w, -mp.mpc(nu)))
            assert abs(su.borel_transform_value(nu, kind, zeta) - exact) <= 1e-13 * abs(exact), (nu, kind, zeta)


def test_stokes_matrix_entries_within_1e13():
    # a quarter of the nu sit within 1e-2 of the zeros of 1/Gamma at 0, -1, ..., -19, and a
    # quarter are real
    rng = np.random.default_rng(2016)
    with mp.workdps(30):
        for j in range(1000):
            if j % 4 == 0:
                nu = float(-rng.integers(0, 20) + (-1) ** rng.integers(2) * 10.0 ** rng.uniform(-9.0, -2.0))
            else:
                nu = complex(rng.uniform(-20.0, 20.0), rng.uniform(-3.0, 3.0) if j % 4 != 1 else 0.0)
            rg = mp.rgamma(mp.mpc(nu))
            for direction, entry, exact in (
                (su.Direction.ZERO, (0, 2), -1j * mp.pi * rg),
                (su.Direction.PI, (0, 1), -2j * mp.pi * mp.expjpi(-mp.mpc(nu)) * rg),
            ):
                exact = complex(exact)
                value = su.stokes_matrix(nu, direction)[entry]
                assert abs(value - exact) <= 1e-13 * abs(exact), (nu, direction)
