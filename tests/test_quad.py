"""The quadrature engine: adaptive Gauss-Legendre chains against closed forms, the
panels they evaluate and how they batch them, and their refusal of a tolerance below
the rounding floor; the nested trapezoid rule's sums, nodes, estimates and refusals."""

import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import borel, perturbed, quad
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


def _one_panel_walk(f, points, tol_abs, max_depth=48):
    """The panels (centre, half-length) an adaptive rule evaluates with one panel at a
    time, its depth-first sum of the accepted pairs, and the sum of their moduli."""
    panels, total, scale = [], 0j, 0.0
    budget = tol_abs / (len(points) - 1)

    def panel(a, b):
        panels.append((0.5 * (a + b), 0.5 * (b - a)))
        return _panel(f, a, b)

    for a, b in zip(points, points[1:]):
        stack = [(a, b, panel(a, b), budget, 0)]
        while stack:
            a0, b0, whole, tol0, depth = stack.pop()
            mid = 0.5 * (a0 + b0)
            left, right = panel(a0, mid), panel(mid, b0)
            if abs(whole - left - right) <= tol0 or depth >= max_depth:
                total += left + right
                scale += abs(left + right)
            else:
                stack += [(a0, mid, left, tol0 / 2, depth + 1), (mid, b0, right, tol0 / 2, depth + 1)]
    return panels, total, scale


def _record_panels(monkeypatch, module):
    """The panels (centre, half-length) of every gl_panel call, one list per call, and the
    segment count of every chain ``module`` starts; more than 1000 calls raise."""
    calls, segments = [], []
    panel, chain = quad.gl_panel, quad.integrate_chain

    def recorded(f, mid, half):
        calls.append(list(zip(mid.tolist(), half.tolist())))
        if len(calls) > 1000:
            raise RuntimeError("more than 1000 gl_panel calls")
        return panel(f, mid, half)

    monkeypatch.setattr(quad, "gl_panel", recorded)
    monkeypatch.setattr(module, "integrate_chain",
                        lambda f, points, tol_abs: segments.append(len(points) - 1)
                        or chain(f, points, tol_abs))
    return calls, segments


def test_chain_evaluates_the_panels_of_a_one_panel_walk(monkeypatch):
    # a pole 0.01 off the path forces several levels of bisection
    g = lambda s: 1.0 / (s - (0.7 + 0.01j))
    points = [0.0, 0.5, 1.0, 2.0]
    expected, reference, scale = _one_panel_walk(g, points, 1e-12)
    assert len(expected) > 6 * len(points)
    calls, _ = _record_panels(monkeypatch, quad)
    value = quad.integrate_chain(g, points, 1e-12)
    assert sorted(sum(calls, [])) == sorted(expected)
    assert len(calls[0]) == 3 * (len(points) - 1)
    assert max(map(len, calls)) <= 2 * quad._BATCH
    assert abs(value - reference) <= 2 * EPS * scale


def test_lateral_sums_batch_their_panels(monkeypatch):
    calls, _ = _record_panels(monkeypatch, borel)
    su.two_sided_values(0.5, su.SeriesKind.PSI, 0.15)
    assert 1 < len(calls) <= 4


def test_stokes_jump_sums_one_loop_without_panels(monkeypatch):
    calls, _ = _record_panels(monkeypatch, borel)
    nodes, trapezoid = [], quad.trapezoid
    monkeypatch.setattr(borel, "trapezoid", lambda f, w, rtol: trapezoid(
        lambda theta: nodes.append(theta) or f(theta), w, rtol))
    su.stokes_jump_quadrature(0.5, su.SeriesKind.PSI, 0.15, tol=1e-10)
    assert calls == []
    assert 1 <= len(nodes) <= 2


def _refusal_bound(segments):
    """Panels a refusal may cost: the first call, and at most _MAX_DEPTH + 1 full batches."""
    return 3 * segments + 2 * quad._BATCH * (quad._MAX_DEPTH + 1)


def test_tolerance_below_the_rounding_floor_is_refused_promptly(monkeypatch):
    # at 1e-16 rounding keeps some panel's estimate just above its budget; the walk
    # must refuse at the depth limit, not bisect the whole tree below it
    calls, segments = _record_panels(monkeypatch, borel)
    query = su.LaplaceQuery(0.5, su.SeriesKind.PSI, 0.1, math.pi / 12, 1e-16)
    with pytest.raises(ToleranceError, match="stalled"):
        su.laplace_sum(query)
    assert len(calls) <= 1000
    assert sum(map(len, calls)) <= _refusal_bound(*segments)


def test_two_pole_integral_refuses_a_tolerance_below_rounding_in_bounded_panels(monkeypatch):
    # a walk that bisects every failing panel of a level at once doubles its panels at
    # each level here and runs out of memory
    calls, segments = _record_panels(monkeypatch, perturbed)
    with pytest.raises(ToleranceError, match="stalled"):
        perturbed._two_pole_integral(0.1, 2.0, 5.0, 10.0, 1e-20)
    assert len(calls) <= 1000
    assert sum(map(len, calls)) <= _refusal_bound(*segments)


def _gaussian(a, b):
    """int over the real line of e^(-a t^2 + b t), Re a > 0."""
    return complex(np.sqrt(np.pi / a) * np.exp(b * b / (4 * a)))


@pytest.mark.parametrize("rtol", [1e-6, 1e-10, 1e-13])
def test_trapezoid_sums_gaussians_within_the_request(rtol):
    # e^(-a t^2) with Re a >= 0.5 is below e^-40 past |t| = 9
    for a, b in ((1.0, 0.0), (0.5 + 0.3j, 1.0 - 2.0j), (2.0 - 1.0j, 3.0j)):
        exact = _gaussian(a, b)
        value, err = quad.trapezoid(lambda t: np.exp(-a * t * t + b * t), 9.0, rtol)
        assert err <= rtol * abs(value)
        assert abs(value - exact) <= rtol * abs(exact)
        if rtol >= 1e-10:  # above the rounding floor the halving estimate bounds the error
            assert abs(value - exact) <= err


def test_trapezoid_doubles_on_nested_nodes():
    # a pole 0.2 off the line takes several doublings; each call holds only new nodes
    nodes = []
    f = lambda t: nodes.append(t) or np.exp(-t * t) / (t * t + 0.04)
    quad.trapezoid(f, 7.0, 1e-12)
    n0 = quad._TRAP_N0
    assert len(nodes) > 2
    assert [len(t) for t in nodes] == [2 * n0 + 1] + [2 * n0 * 2**j for j in range(len(nodes) - 1)]
    n = n0 * 2 ** (len(nodes) - 1)
    assert np.sort(np.concatenate(nodes)) == pytest.approx(np.linspace(-7.0, 7.0, 2 * n + 1), abs=1e-12)


def test_trapezoid_refuses_below_the_rounding_floor_at_once():
    calls = []
    f = lambda t: calls.append(t) or np.exp(-t * t)
    with pytest.raises(ToleranceError, match="rounding"):
        quad.trapezoid(f, 7.0, 1e-17)
    assert len(calls) <= 2


def test_trapezoid_refuses_past_its_node_cap():
    # a pole 1e-4 off the line needs a step of about 1e-5, far finer than the cap allows
    with pytest.raises(ToleranceError, match="halving"):
        quad.trapezoid(lambda t: 1.0 / (t * t + 1e-8), 7.0, 1e-10)


def test_trapezoid_refuses_a_non_finite_integrand():
    with pytest.raises(ToleranceError, match="not finite"):
        quad.trapezoid(lambda t: np.where(t > 1.0, np.inf, 1.0), 7.0, 1e-8)


def test_trapezoid_is_the_periodic_rule_on_a_period():
    # over [-pi, pi] the two end nodes are one point: e^(cos t) has the mean I_0(1), and the
    # 64-node rule is exact to roundoff, from the first call
    calls = []
    value, err = quad.trapezoid(lambda t: calls.append(t.size) or np.exp(np.cos(t)), math.pi, 1e-14)
    assert calls == [2 * quad._TRAP_N0 + 1]
    assert abs(value - 2.0 * math.pi * 1.2660658777520082) <= 1e-14 * abs(value)
    # an integral that vanishes exactly cancels to roundoff, which only an absolute floor
    # on the request can certify
    wave = lambda t: np.exp(3j * t) * (2.0 + np.cos(t)) ** -1
    with pytest.raises(ToleranceError, match="rounding"):
        quad.trapezoid(lambda t: np.exp(3j * t), math.pi, 1e-10)
    value, err = quad.trapezoid(lambda t: np.exp(3j * t), math.pi, 1e-10, atol=1e-12)
    assert abs(value) <= err <= 1e-12
    # and cond scales the rounding estimate, where it is the larger of the two
    _, err1 = quad.trapezoid(wave, math.pi, 1e-10)
    _, err8 = quad.trapezoid(wave, math.pi, 1e-10, cond=8.0)
    assert err8 == 8.0 * err1


def test_trapezoid_refusal_names_the_bound_that_set_the_request():
    # e^(3it) integrates to 0 over a period, so the request is max(rtol |T|, atol) = atol
    # when atol > 0, and rtol |T| (at roundoff) when it is not
    wave = lambda t: np.exp(3j * t)
    with pytest.raises(ToleranceError, match=r"exceeds the request 1\.000e-20 \(atol 1e-20\)$"):
        quad.trapezoid(wave, math.pi, 1e-10, atol=1e-20)
    with pytest.raises(ToleranceError, match=r"\(rtol 1e-10\)$"):
        quad.trapezoid(wave, math.pi, 1e-10)
    # where rtol |T| is the larger, the message names rtol although atol is set
    with pytest.raises(ToleranceError, match=r"\(rtol 1e-17\)$"):
        quad.trapezoid(lambda t: np.exp(np.cos(t)), math.pi, 1e-17, atol=1e-30)
