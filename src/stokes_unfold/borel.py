"""Laplace resummation along rays and extraction of the side-difference jumps.

``laplace_sum`` evaluates

    x^{-1} * integral over the ray from 0 to infinity e^{i theta} of
    (1 -+ zeta)^{-nu} e^{-zeta/x} d zeta

by truncating the ray where an analytic tail bound falls below the error
budget and running adaptive Gauss-Legendre panels on what is left.  The
two-sided values around a singular direction then give the jump whose
coefficient reproduces the Stokes-matrix entries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DecayConditionError, SingularDirectionError
from .gammas import reciprocal_gamma
from .quad import integrate_chain
from .series import SeriesKind, build_series, gevrey_constants

TOL_DEFAULT = 1e-10
DELTA_DEFAULT = math.pi / 12
_RAY_MARGIN = 10.0  # times sqrt(tol), minimum ray clearance from the Borel singularity


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
        rel = self.theta - singular_direction(self.kind)
        # distance of the ray {s e^(i theta)} from the unit singular point
        clearance = 1.0 if math.cos(rel) <= 0.0 else abs(math.sin(rel))
        if clearance < _RAY_MARGIN * math.sqrt(self.tol):
            raise SingularDirectionError(
                f"ray at theta = {self.theta} passes within {clearance:.2e} of the Borel singularity"
            )


def _truncation(c: float, growth: float, tol_tail: float) -> float:
    # smallest T with (1+T)^growth e^{-cT}/c <= tol_tail, then doubled
    t = 10.0 / c
    for _ in range(3):
        t = (math.log(1.0 / (tol_tail * c)) + growth * math.log1p(t)) / c
        t = max(t, 1.0 / c)
    return 2.0 * t


def laplace_sum(query: LaplaceQuery) -> complex:
    """Value of the resummed series for the direction and point in ``query``.

    Absolute error <= query.tol.  The integrand branch is the principal one
    continued along the ray from zeta = 0, which never meets the cut for
    admissible directions.
    """
    query.validate()
    nu = complex(query.nu)
    x = complex(query.x)
    direction = cmath.exp(1j * query.theta)
    c = query.decay_rate()
    growth = max(0.0, -nu.real)
    t_max = _truncation(c, growth, query.tol * abs(x) / 10.0)
    c1 = (-1.0 if query.kind is SeriesKind.PSI else 1.0) * direction
    c2 = -direction / x

    def integrand(s):  # (1 -+ zeta)^(-nu) e^(-zeta/x) at zeta = s e^(i theta)
        return np.exp(-nu * np.log1p(c1 * s) + c2 * s)

    # pre-split around the region nearest the unit singular point
    breaks = [0.0] + [b for b in (0.5, 1.6, 4.0) if b < t_max] + [t_max]
    value = integrate_chain(integrand, breaks, tol_abs=0.5 * query.tol * abs(x))
    return direction * value / x


def two_sided_values(nu, kind: SeriesKind, x, tol: float = TOL_DEFAULT,
                     delta: float = DELTA_DEFAULT) -> tuple[complex, complex]:
    """Resummed values just above and just below the singular direction.

    Returns (plus, minus) for the rays theta_sing + delta and
    theta_sing - delta; by homotopy the values do not depend on delta
    within the admissible range.
    """
    ts = singular_direction(kind)
    plus = laplace_sum(LaplaceQuery(nu, kind, x, ts + delta, tol))
    minus = laplace_sum(LaplaceQuery(nu, kind, x, ts - delta, tol))
    return plus, minus


def stokes_jump_quadrature(nu, kind: SeriesKind, x, tol: float = TOL_DEFAULT,
                           delta: float = DELTA_DEFAULT) -> complex:
    """Coefficient c in (minus - plus) = c x^{-nu} e^{-1/x} (PSI) or
    c x^{-nu} e^{+1/x} (PHI), extracted by quadrature.

    Closed forms: c = -2 pi i / Gamma(nu) for PSI and
    c = -2 pi i e^{-i pi nu} / Gamma(nu) for PHI.  For the pi direction the
    x^nu normalisation takes arg x on the lower edge (arg x in [-pi, 0)),
    the branch on which the PHI closed form holds.

    Each lateral sum is within tol absolute, so c carries up to
    2 tol |x^nu e^{+-1/x}| absolute error: at small nu it meets 1e-6
    relative only for |x| >~ 0.065, and nothing is raised below that.
    """
    x = complex(x)
    nu = complex(nu)
    plus, minus = two_sided_values(nu, kind, x, tol, delta)
    if kind is SeriesKind.PSI:
        factor = cmath.exp(nu * cmath.log(x) + 1.0 / x)
    else:
        a = cmath.phase(x)
        if a > 0.0:
            a -= 2.0 * math.pi
        factor = cmath.exp(nu * (math.log(abs(x)) + 1j * a) - 1.0 / x)
    return (minus - plus) * factor


def jump_coefficient_closed(nu, kind: SeriesKind) -> complex:
    """The closed-form jump coefficient matching stokes_jump_quadrature."""
    base = -2j * math.pi * reciprocal_gamma(nu)
    if kind is SeriesKind.PHI:
        base *= cmath.exp(-1j * math.pi * complex(nu))
    return base


def asymptotic_remainders(nu, kind: SeriesKind, x, theta, n_max: int = 15,
                          tol: float = TOL_DEFAULT):
    """(N, |sum - partial_sum_N|, C A^N N! |x|^N) for N = 0..n_max.

    The third column is the order-1 Gevrey envelope with the family
    constants; the resummed value must sit inside it for every N.
    """
    value = laplace_sum(LaplaceQuery(nu, kind, x, theta, tol))
    series = build_series(nu, kind, n_max)
    big_c, big_a = gevrey_constants(nu)
    out = []
    for n in range(n_max + 1):
        err = abs(value - series.partial_sum(x, terms=n))
        bound = big_c * big_a**n * math.factorial(n) * abs(complex(x)) ** n
        out.append((n, err, bound))
    return out


def resummed_ode_residual(nu, kind: SeriesKind, x, theta, tol: float = TOL_DEFAULT,
                          step: float = 1e-5) -> float:
    """|x^2 u' + (nu x -+ 1) u +- 1| for the resummed function, with u'
    taken as a central finite difference of two nearby resummations."""
    nu = complex(nu)
    x = complex(x)
    u = laplace_sum(LaplaceQuery(nu, kind, x, theta, tol))
    up = laplace_sum(LaplaceQuery(nu, kind, x + step, theta, tol))
    um = laplace_sum(LaplaceQuery(nu, kind, x - step, theta, tol))
    du = (up - um) / (2.0 * step)
    if kind is SeriesKind.PSI:
        res = x * x * du + (nu * x - 1.0) * u + 1.0
    else:
        res = x * x * du + (nu * x + 1.0) * u - 1.0
    return abs(res)
