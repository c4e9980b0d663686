"""Accuracy contracts against 30-digit mpmath: each public numeric function is held
to the bound its docstring states, on seeded samples of its domain."""

import cmath
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold.borel import LaplaceQuery, laplace_sum
from stokes_unfold.errors import SingularDirectionError

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
