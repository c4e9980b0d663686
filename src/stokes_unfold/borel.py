"""Laplace resummation along rays and the Stokes jump across the singular direction.

``laplace_sum`` evaluates

    x^{-1} * integral over the ray from 0 to infinity e^{i theta} of
    (1 -+ zeta)^{-nu} e^{-zeta/x} d zeta

by breaking the ray where it passes closest to the Borel singularity and summing
each piece with ``quad.trapezoid`` after a double-exponential map.  By Cauchy's
theorem the difference of the two lateral sums around the singular direction is
the same integral over one Hankel loop around the Borel cut;
``stokes_jump_quadrature`` integrates that loop with the factor e^{-+1/x} taken
out exactly, and its coefficient reproduces the Stokes-matrix entries.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DecayConditionError, SingularDirectionError
from .gammas import reciprocal_gamma
from .quad import exp_exp, exp_exp_window, tanh_sinh, tanh_sinh_window, trapezoid
from .series import SeriesKind, build_series, gevrey_constants

TOL_DEFAULT = 1e-10
DELTA_DEFAULT = math.pi / 12
_RESIDUAL_STEP = 1e-5
_RAY_MARGIN = 10.0  # times sqrt(tol), minimum ray clearance from the Borel singularity
_LOOP_DECAY = 40.0  # the Hankel loop is cut where its kernel has fallen to e^-40
_END_SHARE = sys.float_info.epsilon  # of a piece's budget, the most each end of its window leaves out


def singular_direction(kind: SeriesKind) -> float:
    """The one anti-Stokes direction of each family: 0 for PSI, pi for PHI."""
    return 0.0 if kind is SeriesKind.PSI else math.pi


@dataclass(frozen=True)
class LaplaceQuery:
    """One resummation request.

    ``theta`` lives on the universal cover (it is never reduced mod 2 pi);
    the decay condition Re(e^{i theta}/x) > 0 is what actually constrains
    the pair (x, theta).
    """

    nu: complex
    kind: SeriesKind
    x: complex
    theta: float
    tol: float = TOL_DEFAULT

    def decay_rate(self) -> float:
        return (cmath.exp(1j * self.theta) / complex(self.x)).real

    def validate(self) -> None:
        x = complex(self.x)
        if x == 0:
            raise DecayConditionError("x must be nonzero")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.decay_rate() <= 0.0:
            raise DecayConditionError(
                f"Re(e^(i theta)/x) = {self.decay_rate():.3e} <= 0; no decay along the ray"
            )
        _, clearance = _closest_approach(self.theta - singular_direction(self.kind))
        if clearance < _RAY_MARGIN * math.sqrt(self.tol):
            raise SingularDirectionError(
                f"ray at theta = {self.theta} passes within {clearance:.2e} of the Borel singularity"
            )


def _closest_approach(rel: float) -> tuple[float, float]:
    """(s*, clearance): the ray {s e^(i rel)}, rel measured from the singular direction,
    passes closest to the Borel singularity at s* = max(0, cos rel), at distance |sin rel|,
    or 1 when cos rel <= 0 and s* = 0."""
    cos_rel = math.cos(rel)
    return (cos_rel, abs(math.sin(rel))) if cos_rel > 0.0 else (0.0, 1.0)


def laplace_sum(query: LaplaceQuery) -> complex:
    """Value of the resummed series for the direction and point in ``query``.

    Absolute error <= query.tol.  The integrand branch is the principal one
    continued along the ray from zeta = 0, which never meets the cut for
    admissible directions.

    The ray is broken at its closest approach s* to zeta = 1, so the near-singularity
    ends both pieces: tanh-sinh carries [0, s*], and exp-exp [s*, inf) in r = c (s - s*),
    c the decay rate, sharing the absolute budget 0.5 tol |x|.  Each end of a
    window is cut where what it leaves out is below eps of that budget, and
    ``quad.trapezoid`` certifies each sum or raises ToleranceError.
    """
    query.validate()
    nu = complex(query.nu)
    x = complex(query.x)
    direction = cmath.exp(1j * query.theta)
    c = query.decay_rate()
    rel = query.theta - singular_direction(query.kind)
    star, clearance = _closest_approach(rel)
    cos_rel, sin_rel = math.cos(rel), math.sin(rel)
    # Re(1 -+ zeta) at s*, so that near the cut |1 -+ zeta|^2 = sin^2 rel + d^2 cancels nothing
    base = sin_rel * sin_rel if star > 0.0 else 1.0
    slope = -direction / x

    def integrand(d):  # (1 -+ zeta)^(-nu) e^(-zeta/x) at zeta = (s* + d) e^(i theta)
        re, im = base - d * cos_rel, -(star + d) * sin_rel
        return np.exp(-nu * (0.5 * np.log(re * re + im * im) + 1j * np.arctan2(im, re)) + slope * (star + d))

    budget = 0.5 * query.tol * abs(x) / (2 if star > 0.0 else 1)
    end = _END_SHARE * budget
    log_near = -math.log(min(clearance, 0.5))  # bounds |log|1 -+ zeta|| at 0 and near s*
    log_peak = math.pi * abs(nu.imag) + abs(nu.real) * log_near
    # the exponent's rounding is about one ulp of the size of each of its parts: |nu log(1 -+
    # zeta)| <= |nu| (pi + log_near), and |zeta / x| at the ray's mean s* + 1/c under the
    # weight e^(-c s); the maps and the exponential add 4
    cond = 4.0 + abs(nu) * (math.pi + log_near) + abs(slope) * (star + 1.0 / c)
    total = 0j
    if star > 0.0:
        lam = log_peak + math.log(star / end)  # each end leaves out at most s* e^(log_peak - lam)
        v0, w = tanh_sinh_window(lam, lam)

        def head(v):  # s from 0 to s*: d = -s* (1 - u)
            _, log_rest, log_jac = tanh_sinh(v0 + v)
            return integrand(-star * np.exp(log_rest)) * (star * np.exp(log_jac))

        total += trapezoid(head, w, 0.0, atol=budget, cond=cond)[0]
    # at r = c d the integrand is below e^log_peak (1 + r/c)^g e^(-r), g = max(0, -Re nu),
    # and (1 + r/c)^g e^(-r/2) peaks at r = 2g - c, so past R what is left is below
    # 2 e^(log_peak + log_bump - R/2) / c
    growth = max(0.0, -nu.real)
    log_bump = growth * math.log(2.0 * growth / c) + 0.5 * c - growth if 2.0 * growth > c else 0.0
    lam_tail = log_peak - math.log(c * end)
    v0, w = exp_exp_window(max(1.0, lam_tail), 2.0 * (lam_tail + log_bump + math.log(2.0)))

    def tail(v):
        r, jac = exp_exp(v0 + v)
        return integrand(r / c) * (jac / c)

    total += trapezoid(tail, w, 0.0, atol=budget, cond=cond)[0]
    return direction * total / x


def _hankel_parabola(nu: complex, a: float) -> tuple[float, float]:
    """(mu, w) of the loop tau = -|x| mu (1 + i theta)^2, theta in [-w, w], around the cut
    tau >= 0 of (-tau)^(-nu), for arg x = a in (-pi/2, pi/2).  On it the Laplace kernel is
    e^(-tau/x) = e^(k p^2), k = mu e^(-i a), p = 1 + i theta, of modulus
    e^(mu (cos a (1 - theta^2) + 2 theta sin a)): mu = max(1, |nu|) cos^2 a keeps its peak
    e^(mu / cos a) at most e^max(1, |nu|), and at +-w it has fallen to e^-_LOOP_DECAY, with
    the growth of |p|^(1 - 2 Re nu) added to that margin."""
    ca, sa = math.cos(a), abs(math.sin(a))
    mu = max(1.0, abs(nu)) * ca * ca
    w = (sa + math.sqrt(1.0 + _LOOP_DECAY * ca / mu)) / ca
    margin = _LOOP_DECAY + max(0.0, 1.0 - 2.0 * nu.real) * math.log(w)
    return mu, (sa + math.sqrt(1.0 + margin * ca / mu)) / ca


def _loop_integrand(nu: complex, k: complex):
    """theta -> p (p^(-2 nu) - 1) e^(k p^2), p = 1 + i theta, on the principal branch.  The
    -1 subtracts the nu = 0 loop, whose integral is exactly 0; written with expm1 it keeps
    the sum's relative accuracy as nu -> 0."""
    def f(theta):
        p = 1.0 + 1j * theta
        return p * np.expm1(-2.0 * nu * np.log(p)) * np.exp(k * p * p)
    return f


def stokes_jump_quadrature(nu, kind: SeriesKind, x, tol: float = TOL_DEFAULT) -> complex:
    """Coefficient c in (minus - plus) = c x^{-nu} e^{-1/x} (PSI) or
    c x^{-nu} e^{+1/x} (PHI), for the lateral sums plus and minus, the ``laplace_sum``
    values on the rays theta_sing + DELTA_DEFAULT and theta_sing - DELTA_DEFAULT,
    extracted by quadrature.

    Closed forms: c = -2 pi i / Gamma(nu) for PSI and
    c = -2 pi i e^{-i pi nu} / Gamma(nu) for PHI.  For the pi direction the
    x^nu normalisation takes arg x on the lower edge (arg x in (-2 pi, 0)),
    the branch on which the PHI closed form holds.

    The (x, tol) for which either ray's ``LaplaceQuery.validate`` raises are refused
    with the same errors.  By Cauchy's theorem minus - plus is the Laplace integral of the
    Borel transform over a loop around its cut; with zeta = 1 + tau it is
    x^{-1} e^{-1/x} times the loop integral of (-tau)^{-nu} e^{-tau/x}.  On
    the parabola tau = -|x| mu p^2, p = 1 + i theta (``_hankel_parabola``),
    c = -2 i k^{1-nu} times the integral over theta of p^{1-2 nu} e^{k p^2},
    k = mu e^{-i arg x}, from which the nu = 0 loop (integral 0) is
    subtracted; ``quad.trapezoid`` sums it, and no Gamma function enters.
    PHI at x is PSI at -x, since zeta -> -zeta maps one Borel transform and
    its rays onto the other, times e^{-i pi nu}: arg(-x) = arg x + pi on the
    lower edge.  At nu = 0, -1, -2, ... the Borel transform is a polynomial
    with no cut, and c = 0 exactly.

    ``tol`` bounds the error of c relative to |c|: the sum stops where its
    halving and rounding estimates are both below tol times its value, and
    ToleranceError is raised where they never get there: below the rounding
    floor (every tol under about 1e-16, and at times 1e-14 with nu near 4
    and |arg x| near 1.2), and next to a negative integer nu, where c tends
    to 0 (within 1e-7 of -1 at tol 1e-10).  On real nu in [1e-15, 4],
    |arg x| <= 1.2 (PSI) or |arg(-x)| <= 1.2 (PHI) and tol in [1e-14, 1e-8]
    it is within 1e-13 relative of 30-digit values of the closed forms where
    it does not refuse, in 1 or 2 integrand calls on real x;
    tests/test_reference_mpmath.py holds it to 1e-9 there.
    """
    x = complex(x)
    nu = complex(nu)
    ts = singular_direction(kind)
    for side in (DELTA_DEFAULT, -DELTA_DEFAULT):
        LaplaceQuery(nu, kind, x, ts + side, tol).validate()
    if nu.imag == 0.0 and nu.real <= 0.0 and nu.real.is_integer():
        return 0j
    a = cmath.phase(x if kind is SeriesKind.PSI else -x)
    mu, w = _hankel_parabola(nu, a)
    k = mu * cmath.exp(-1j * a)
    loop, _ = trapezoid(_loop_integrand(nu, k), w, tol)
    c = -2j * cmath.exp((1.0 - nu) * cmath.log(k)) * loop
    return c if kind is SeriesKind.PSI else c * cmath.exp(-1j * math.pi * nu)


def jump_coefficient_closed(nu, kind: SeriesKind) -> complex:
    """The closed-form jump coefficient matching stokes_jump_quadrature."""
    base = -2j * math.pi * reciprocal_gamma(nu)
    if kind is SeriesKind.PHI:
        base *= cmath.exp(-1j * math.pi * complex(nu))
    return base


def asymptotic_remainders(nu, kind: SeriesKind, x, theta, n_max: int = 15):
    """(N, |sum - partial_sum_N|, C A^N N! |x|^N) for N = 0..n_max.

    The third column is the order-1 Gevrey envelope with the family
    constants; the resummed value must sit inside it for every N.
    """
    value = laplace_sum(LaplaceQuery(nu, kind, x, theta))
    series = build_series(nu, kind, n_max)
    big_c, big_a = gevrey_constants(nu)
    out = []
    for n in range(n_max + 1):
        err = abs(value - series.partial_sum(x, terms=n))
        bound = big_c * big_a**n * math.factorial(n) * abs(complex(x)) ** n
        out.append((n, err, bound))
    return out


def resummed_ode_residual(nu, kind: SeriesKind, x, theta, tol: float = TOL_DEFAULT) -> float:
    """|x^2 u' + (nu x -+ 1) u +- 1| for the resummed function, with u'
    taken as a central finite difference of two resummations 1e-5 away."""
    nu = complex(nu)
    x = complex(x)
    u = laplace_sum(LaplaceQuery(nu, kind, x, theta, tol))
    up = laplace_sum(LaplaceQuery(nu, kind, x + _RESIDUAL_STEP, theta, tol))
    um = laplace_sum(LaplaceQuery(nu, kind, x - _RESIDUAL_STEP, theta, tol))
    du = (up - um) / (2.0 * _RESIDUAL_STEP)
    if kind is SeriesKind.PSI:
        res = x * x * du + (nu * x - 1.0) * u + 1.0
    else:
        res = x * x * du + (nu * x + 1.0) * u - 1.0
    return abs(res)
