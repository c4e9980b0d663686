"""Accuracy contracts against 30- and 40-digit mpmath: each public numeric function is
held to the bound its docstring states, on seeded samples of its domain."""

import cmath
import functools
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import borel, perturbed, quad
from stokes_unfold.borel import LaplaceQuery, laplace_sum
from stokes_unfold.errors import DoubleRangeError, SingularDirectionError, ToleranceError
from stokes_unfold.perturbed import OffDiagonal, PerturbParams

mp = pytest.importorskip("mpmath")
EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=None)
def _ray_integral(nu, kind, x, theta, near=()):
    """x^{-1} int_0^{infty e^{i theta}} (1 -+ zeta)^{-nu} e^{-zeta/x} d zeta at 30 digits,
    on the principal branch continued from zeta = 0, with the extra breaks ``near``."""
    with mp.workdps(30):
        d = mp.expjpi(mp.mpf(theta) / mp.pi)
        x, nu = mp.mpc(x), mp.mpc(nu)
        c1 = (-1 if kind is su.SeriesKind.PSI else 1) * d
        rate = (d / x).real
        breaks = sorted({0.0, 0.5, 1.6, 4.0, *near})
        breaks += [breaks[-1] + k / rate for k in (4, 16, 64)] + [mp.inf]
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


def _near_breaks(query):
    """Breaks at s* +- {1, 10, 100} clearance, where the ray passes closest to zeta = 1:
    without them mp.quad is off by up to 1.2e-3 when the ray passes 1e-3 from the cut."""
    rel = query.theta - borel.singular_direction(query.kind)
    star, clearance = math.cos(rel), abs(math.sin(rel))
    return tuple(b for b in (star + k * clearance for k in (0, -1, 1, -10, 10, -100, 100)) if b > 0.0)


def _near_margin_queries():
    """Rays clearing zeta = 1 by 1.01, 10 and 100 times the admissible 10 sqrt(tol), for four
    nu and tol 1e-6, 1e-9 and 1e-12, PSI and PHI in turn, with |x| = 0.2 at 0.3 from the ray."""
    out = []
    for nu in (0.5, 2.71, -1.5, 4.2):
        for tol in (1e-6, 1e-9, 1e-12):
            for j, factor in enumerate((1.01, 10.0, 100.0)):
                kind = (su.SeriesKind.PSI, su.SeriesKind.PHI)[j % 2]
                theta = borel.singular_direction(kind) + math.asin(min(1.0, factor * 10.0 * math.sqrt(tol)))
                out.append(LaplaceQuery(nu, kind, 0.2 * cmath.exp(1j * (theta - 0.3)), theta, tol))
    return out


def test_laplace_sum_near_the_admissibility_margin():
    # within tol or refused; the adaptive Gauss-Legendre chain this rule replaced refused 13
    # of these 36, and the rule may refuse no more
    refused = []
    for query in _near_margin_queries():
        try:
            value = laplace_sum(query)
        except ToleranceError:
            refused.append(query)
            continue
        reference = _ray_integral(query.nu, query.kind, query.x, query.theta, _near_breaks(query))
        assert abs(value - reference) <= query.tol, query
    assert len(refused) <= 13, refused


def test_laplace_sum_where_the_chain_stalled():
    # the ray clears zeta = 1 by 0.28, yet the Gauss-Legendre chain refused this query
    # ("quadrature stalled" on a panel 4e-15 wide); the rule returns it within tol or
    # refuses it by its rounding estimate
    query = LaplaceQuery(5.936539728737454 + 0.42535135212292974j, su.SeriesKind.PHI,
                         -0.33160106602671907 - 0.3249240580234746j, -3.4276585900277157, 1e-11)
    try:
        value = laplace_sum(query)
    except ToleranceError as exc:
        assert "rounding estimate" in str(exc)
        return
    assert abs(value - _ray_integral(query.nu, query.kind, query.x, query.theta, _near_breaks(query))) <= query.tol


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


@functools.lru_cache(maxsize=None)
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


_PHI12_OUT_TO_ONE = [(nu, n) for nu in (0.5, 3.3, -0.5, 2.71) for n in (100, 1000, 5000, 20000)]


@pytest.mark.parametrize("nu, n", _PHI12_OUT_TO_ONE)
def test_offdiag_phi12_out_to_x_one(nu, n):
    # PHI12 from x_R to x = 1 along the resonant sequence, 1/sqrt_eps up to 4 10^4: within
    # tol 1e-10 everywhere; at tol 1e-12 within tol, or refused by the rounding estimate,
    # which grows as (p + |q|) eps = eps / sqrt_eps, past 1/sqrt_eps of about 4500
    params = PerturbParams.from_resonant_index(nu, n)
    exact = _offdiag_reference(nu, params.sqrt_eps, 1.0)
    value = su.offdiag_solution_quadrature(params, 1.0, OffDiagonal.PHI12, 1e-10)
    assert abs(value - exact) <= 1e-10 * abs(exact)
    try:
        value = su.offdiag_solution_quadrature(params, 1.0, OffDiagonal.PHI12, 1e-12)
    except ToleranceError as exc:
        assert "rounding estimate" in str(exc) and 1.0 / params.sqrt_eps > 4500.0
        return
    assert abs(value - exact) <= 1e-12 * abs(exact)


def _recording(monkeypatch, module):
    """The (sum, estimate) pairs of every trapezoid call ``module`` makes."""
    calls = []

    def recording(f, w, rtol, **kwargs):
        value, err = quad.trapezoid(f, w, rtol, **kwargs)
        calls.append((value, err))
        return value, err

    monkeypatch.setattr(module, "trapezoid", recording)
    return calls


def test_the_rules_estimate_bounds_the_error(monkeypatch):
    # each value these sweeps return is within the rule's own estimate of the reference,
    # scaled onto the value: the Laplace pieces' estimates add, over |x|; the two-pole sum
    # is in units of H, so its estimate scales by g = value / sum, whose exponential adds
    # its own rounding, eps (2 + |log g|) relative
    def two_pole_bound(value, scaled, err):
        g = abs(value / scaled)
        return err * g + EPS * (2.0 + abs(math.log(g))) * abs(value)

    laplace, two_pole = _recording(monkeypatch, borel), _recording(monkeypatch, perturbed)
    for query in _laplace_queries(2016, 20):
        laplace.clear()
        error = abs(laplace_sum(query) - _ray_integral(query.nu, query.kind, query.x, query.theta))
        assert error <= sum(err for _, err in laplace) / abs(query.x), query
    for a, b, x, tol in _ratio_cases(13, 24):
        with mp.workdps(40):
            exact = complex(-1 / (2 * mp.mpf(a) * b) * ((mp.mpf(x) + a) / (mp.mpf(x) - a)) ** b)
        quadrature, _ = su.ratio_integral_check(a, b, x, tol)
        (scaled, err), = two_pole[-1:]
        assert abs(quadrature - exact) <= two_pole_bound(quadrature, scaled, err), (a, b, x, tol)
    cases = [(nu, inv, k, entry, tol) for nu, inv, k, entry, tol in _offdiag_cases(7, 24) + _OFFDIAG_EDGES
             if _offdiag_reference(nu, 1.0 / inv, (1.0 + k) / inv * (1 if entry is OffDiagonal.PHI12 else -1)) != 0]
    cases += [(nu, 2.0 * n + nu, (2.0 * n + nu) - 1.0, OffDiagonal.PHI12, tol)
              for nu, n in _PHI12_OUT_TO_ONE for tol in (1e-10, 1e-12)]
    for nu, inv, k, entry, tol in cases:
        s = 1.0 / inv
        x = (1.0 + k) * s * (1 if entry is OffDiagonal.PHI12 else -1)
        try:
            value = su.offdiag_solution_quadrature(PerturbParams(nu, s), x, entry, tol)
        except ToleranceError:
            continue
        (scaled, err), = two_pole[-1:]
        assert abs(value - _offdiag_reference(nu, s, x)) <= two_pole_bound(value, scaled, err), (nu, inv, k, entry, tol)


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


def _jump_closed(nu, kind):
    """-2 pi i / Gamma(nu), times e^(-i pi nu) for PHI, at 30 digits."""
    with mp.workdps(30):
        value = -2j * mp.pi * mp.rgamma(mp.mpf(nu))
        return complex(value * mp.expjpi(-mp.mpf(nu)) if kind is su.SeriesKind.PHI else value)


def _jump_error(nu, kind, x, tol):
    exact = _jump_closed(nu, kind)
    return abs(su.stokes_jump_quadrature(nu, kind, x, tol=tol) - exact) / abs(exact)


@pytest.mark.parametrize("kind", list(su.SeriesKind), ids=lambda k: k.name)
@pytest.mark.parametrize("radius", [0.02, 0.05, 0.1278, 0.3])
def test_stokes_jump_within_1e9_on_real_x(kind, radius):
    # the lateral-sum difference was off by 8.4e8 relative at nu = 0.005, x = 0.02; at
    # nu = 1e-12 the nu = 0 loop must come off exactly (exp - 1 for expm1 misses by 7e-6)
    x = radius if kind is su.SeriesKind.PSI else -radius
    for nu in (1e-12, 1e-6, 0.005, 0.01, 1.0 / 3.0, 0.5, 2.0, 3.7):
        for tol in (1e-8, 1e-10, 1e-12):
            assert _jump_error(nu, kind, x, tol) <= 1e-9, (nu, tol)


@pytest.mark.parametrize("kind", list(su.SeriesKind), ids=lambda k: k.name)
def test_stokes_jump_within_1e7_next_to_nu_zero(kind):
    # the jump of the resum workload's seed 32 that missed at 5.3e-6
    x = 0.1278 if kind is su.SeriesKind.PSI else -0.1278
    for tol in (1e-8, 1e-10, 1e-12):
        assert _jump_error(3.47357e-8, kind, x, tol) <= 1e-7, tol


def test_stokes_jump_within_1e9_on_complex_x():
    # PSI at |arg x| <= 1.2, PHI at |arg(-x)| <= 1.2: both half-planes, the lower-edge branch
    rng = np.random.default_rng(24)
    for j in range(60):
        kind = (su.SeriesKind.PSI, su.SeriesKind.PHI)[j % 2]
        nu = rng.uniform(0.0, 4.0) if j % 3 else 10.0 ** rng.uniform(-6.0, -1.0)
        x = rng.uniform(0.02, 0.3) * cmath.exp(1j * rng.uniform(-1.2, 1.2))
        x = x if kind is su.SeriesKind.PSI else -x
        tol = (1e-8, 1e-10, 1e-12)[j // 3 % 3]
        assert _jump_error(nu, kind, x, tol) <= 1e-9, (nu, kind, x, tol)


def test_stokes_jump_refuses_what_it_cannot_certify():
    # below the rounding floor, and where c -> 0 next to a negative integer nu
    for nu, tol in ((0.5, 1e-17), (3.7, 1e-16), (-1.0 + 1e-8, 1e-10), (-2.0 - 1e-6, 1e-10)):
        with pytest.raises(ToleranceError):
            su.stokes_jump_quadrature(nu, su.SeriesKind.PSI, 0.15, tol=tol)


def _residue_closed(nu, n, side):
    """d_L2 = e^{i pi (1 - nu)} w and d_R3 = -w/2, w = z^{1-nu} (nu)_n / n! with z = n + nu/2,
    at 30 digits."""
    with mp.workdps(30):
        nu = mp.mpf(nu)
        w = (n + nu / 2) ** (1 - nu) * mp.rf(nu, n) / mp.factorial(n)
        return complex(mp.expjpi(1 - nu) * w if side == "L" else -w / 2)


@pytest.mark.parametrize("tol", [1e-10, 1e-8])
def test_residue_oracle_within_tol_or_refused(tol, monkeypatch):
    # each value is within tol max(|d|, 1) of the closed form and within the rule's own
    # estimate, scaled onto d (the prefactor is 1/2 for R, of modulus 1 for L), from one
    # call of 65 nodes; the rest raise ToleranceError, and every n <= 5 is returned
    calls, estimates = [], []

    def recording(f, w, rtol, **kwargs):
        value, err = quad.trapezoid(lambda phi: calls.append(phi.size) or f(phi), w, rtol, **kwargs)
        estimates.append(err)
        return value, err

    monkeypatch.setattr(perturbed, "trapezoid", recording)
    refused = []
    for nu in (0.5, 2.0, 3.3, 0.37, -0.5):
        for n in (*range(1, 21), 50, 100):
            params = PerturbParams.from_resonant_index(nu, n)
            for side in "LR":
                calls.clear()
                try:
                    value = su.residue_numeric_oracle(params, side, tol=tol)
                except ToleranceError:
                    refused.append(n)
                    continue
                exact = _residue_closed(nu, n, side)
                err = abs(value - exact)
                assert err <= tol * max(abs(exact), 1.0), (nu, n, side, err)
                assert err <= estimates[-1] * (0.5 if side == "R" else 1.0) / (2.0 * math.pi), (nu, n, side)
                assert calls == [65], (nu, n, side, calls)
    assert min(refused) > 5 and refused.count(50) == refused.count(100) == 10, refused
