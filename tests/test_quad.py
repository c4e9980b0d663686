"""The quadrature engine: adaptive Gauss-Legendre chains against closed forms, their
integrand-call count, and their refusal of a tolerance below the rounding floor."""

import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import quad
from stokes_unfold.errors import ToleranceError

EPS = np.finfo(float).eps


def _exp_chain(c, points):
    """int of e^(c s) along the polyline through points."""
    return (np.exp(c * points[-1]) - np.exp(c * points[0])) / c


def _borel_closed(nu, x, t):
    """int_0^t (1+s)^(-nu) e^(-s/x) ds for nu = 0 and nu = -2, from the antiderivative."""
    poly = {0: lambda s: 1.0, -2: lambda s: (1 + s) ** 2 + 2 * x * (1 + s) + 2 * x * x}[nu]
    anti = lambda s: -x * np.exp(-s / x) * poly(s)
    return anti(t) - anti(0.0)


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_chain_integrates_exponential_on_a_polyline(tol):
    # |e^(c s)| <= e^2.5 on the path, so rounding stays below the smallest tol
    points = [0.0, 1.0 + 1.0j, 2.0 - 0.5j, 3.0]
    for c in (-1.0 + 2.0j, 0.5 + 3.0j, -12.0):
        exact = _exp_chain(c, points)
        assert abs(quad.integrate_chain(lambda s: np.exp(c * s), points, tol) - exact) <= tol


@pytest.mark.parametrize("nu", [0, -2])
def test_chain_integrates_the_borel_integrand(nu):
    # the integrand of borel.laplace_sum on the real ray, with its breaks
    x, t = 0.2 + 0.1j, 12.0
    for tol in (1e-8, 1e-12):
        value = quad.integrate_chain(lambda s: (1 + s) ** (-nu) * np.exp(-s / x),
                                     [0.0, 0.5, 1.6, 4.0, t], tol)
        assert abs(value - _borel_closed(nu, x, t)) <= tol


def test_chain_refuses_a_non_finite_integrand():
    with pytest.raises(ToleranceError, match="not finite"):
        quad.integrate_chain(lambda s: np.where(s < 0.5, 1.0, np.nan), [0.0, 1.0], 1e-8)


def _panel(f, a, b):
    """One Gauss-Legendre panel from a to b."""
    return quad.gl_panel(f, np.array([0.5 * (a + b)]), np.array([0.5 * (b - a)]))[0]


def test_batched_panels_agree_with_single_panels():
    f = lambda s: np.exp((0.3 - 2.0j) * s) / (1.0 + s * s)
    a = np.array([0.0, 0.25, 1.0 + 1.0j, -2.0])
    b = np.array([0.25, 1.0 + 1.0j, 3.0, -1.5 + 0.1j])
    batch = quad.gl_panel(f, 0.5 * (a + b), 0.5 * (b - a))
    assert batch.shape == (4,)
    for value, lo, hi in zip(batch, a, b):
        single = _panel(f, lo, hi)
        assert abs(value - single) <= 4 * EPS * abs(single)


def _bisections(f, points, tol_abs, max_depth=48):
    """Bisections an adaptive rule makes with one panel at a time."""
    count = 0
    budget = tol_abs / (len(points) - 1)
    for a, b in zip(points, points[1:]):
        stack = [(a, b, _panel(f, a, b), budget, 0)]
        while stack:
            a0, b0, whole, tol0, depth = stack.pop()
            mid = 0.5 * (a0 + b0)
            left, right = _panel(f, a0, mid), _panel(f, mid, b0)
            count += 1
            if abs(whole - left - right) > tol0 and depth < max_depth:
                stack += [(a0, mid, left, tol0 / 2, depth + 1), (mid, b0, right, tol0 / 2, depth + 1)]
    return count


def test_chain_calls_the_integrand_once_per_bisection():
    # a pole 0.01 off the path forces several levels of bisection
    g = lambda s: 1.0 / (s - (0.7 + 0.01j))
    shapes = []
    f = lambda s: shapes.append(np.shape(s)) or g(s)
    points = [0.0, 0.5, 1.0, 2.0]
    bisections = _bisections(g, points, 1e-12)
    assert bisections > 2 * len(points)
    quad.integrate_chain(f, points, 1e-12)
    assert len(shapes) == 1 + bisections
    assert shapes == [(3, 20)] + [(2, 20)] * bisections


def test_stokes_jump_batches_its_panels(monkeypatch):
    calls = []
    panel = quad.gl_panel
    monkeypatch.setattr(quad, "gl_panel", lambda *args: calls.append(1) or panel(*args))
    su.stokes_jump_quadrature(0.5, su.SeriesKind.PSI, 0.15)
    assert len(calls) > 10


def test_tolerance_below_the_rounding_floor_is_refused_promptly(monkeypatch):
    # at 1e-16 rounding keeps some panel's estimate just above its budget; the walk
    # must refuse at the depth limit, not bisect the whole tree below it
    calls = []
    panel = quad.gl_panel

    def counted(*args):
        calls.append(1)
        if len(calls) > 1000:
            raise RuntimeError("more than 1000 gl_panel calls")
        return panel(*args)

    monkeypatch.setattr(quad, "gl_panel", counted)
    query = su.LaplaceQuery(0.5, su.SeriesKind.PSI, 0.1, math.pi / 12, 1e-16)
    with pytest.raises(ToleranceError, match="stalled"):
        su.laplace_sum(query)
    assert len(calls) <= 1000
