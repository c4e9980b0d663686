"""Formal series: coefficients, Gevrey constants, defining-equation residuals,
and the closed-form Borel transforms."""

import cmath
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import SeriesKind
from stokes_unfold.errors import BranchCutError


def test_terminating_psi_at_zero():
    s = su.build_series(0.0, SeriesKind.PSI, 5)
    assert s.coefficients == (1, 0, 0, 0, 0, 0)


def test_terminating_phi_at_minus_one():
    s = su.build_series(-1.0, SeriesKind.PHI, 5)
    assert s.coefficients == (1, 1, 0, 0, 0, 0)


def test_half_psi_coefficients():
    s = su.build_series(0.5, SeriesKind.PSI, 3)
    assert s.coefficients == (1.0, 0.5, 0.75, 1.875)


def test_coefficients_match_rising_factorials():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    for _ in range(20):
        nu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        psi = su.build_series(nu, SeriesKind.PSI, 12)
        phi = su.build_series(nu, SeriesKind.PHI, 12)
        for n in range(13):
            with mp.workdps(30):
                rf = complex(mp.rf(mp.mpc(nu), n))
            assert psi.coefficients[n] == pytest.approx(rf, abs=1e-12 * max(1, abs(rf)))
            assert phi.coefficients[n] == pytest.approx((-1) ** n * rf, abs=1e-12 * max(1, abs(rf)))


def test_gevrey_constants():
    assert su.gevrey_constants(0.5) == (1.0, 1.0)
    assert su.gevrey_constants(3.0) == (1.0, 4.0)


@pytest.mark.parametrize("nu,kind", [(0.5, SeriesKind.PSI), (1.0, SeriesKind.PHI), (1.75 + 0.5j, SeriesKind.PSI)])
def test_residual_vanishes_exactly(nu, kind):
    res = su.ode_residual_coefficients(su.build_series(nu, kind, 10))
    assert all(c == 0 for c in res[:11])


def test_residual_of_terminating_series_is_identically_zero():
    res = su.ode_residual_coefficients(su.build_series(-2.0, SeriesKind.PSI, 10))
    assert all(c == 0 for c in res)  # including the degree-11 tail


def test_borel_transform_values():
    assert su.borel_transform_value(1.23, SeriesKind.PSI, 0.0) == pytest.approx(1.0)
    assert su.borel_transform_value(0.5, SeriesKind.PSI, 0.5) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert su.borel_transform_value(2.0, SeriesKind.PHI, 1.0) == pytest.approx(0.25, rel=1e-14)


def test_borel_transform_partial_sum_oracle():
    # 60-term partial sums of sum c_n/n! zeta^n as the independent oracle
    rng = np.random.default_rng(4)
    for _ in range(40):
        nu = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        kind = SeriesKind.PSI if rng.random() < 0.5 else SeriesKind.PHI
        zeta = rng.uniform(0, 0.6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        series = su.build_series(nu, kind, 60)
        partial = sum(c / math.factorial(n) * zeta**n for n, c in enumerate(series.coefficients))
        assert su.borel_transform_value(nu, kind, zeta) == pytest.approx(partial, abs=1e-9)


def test_borel_transform_cut_errors():
    with pytest.raises(BranchCutError):
        su.borel_transform_value(0.5, SeriesKind.PSI, 1.5)
    with pytest.raises(BranchCutError):
        su.borel_transform_value(0.5, SeriesKind.PHI, -2.0)
    with pytest.raises(BranchCutError):
        su.borel_transform_value(0.5, SeriesKind.PSI, 1.0 + 1e-14j)


def test_partial_sum_horner():
    s = su.build_series(0.5, SeriesKind.PSI, 5)
    x = 0.07 + 0.02j
    direct = sum(c * x**n for n, c in enumerate(s.coefficients))
    assert s.partial_sum(x) == pytest.approx(direct, rel=1e-14)
    assert s.partial_sum(x, terms=2) == pytest.approx(1.0 + 0.5 * x, rel=1e-14)
