"""The quadrature rule: the nested trapezoid rule's sums, nodes, estimates and refusals,
the double-exponential maps against closed forms, and the refusals of the integrals that
run on them below their rounding floor."""

import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import borel, perturbed, quad
from stokes_unfold.errors import ToleranceError


def _counting(monkeypatch, module):
    """Record the node count of every integrand call the trapezoid sums of ``module`` make."""
    calls, trapezoid = [], quad.trapezoid

    def counted(f, w, rtol, **kwargs):
        return trapezoid(lambda v: calls.append(v.size) or f(v), w, rtol, **kwargs)

    monkeypatch.setattr(module, "trapezoid", counted)
    return calls


@pytest.mark.parametrize("p, q", [(-0.95, 0.5), (-0.5, 0.0), (0.0, 2.0), (3.5, 1.5), (40.0, 0.25)])
def test_tanh_sinh_integrates_endpoint_powers(p, q):
    # int_0^1 u^p (1 - u)^q du = B(p + 1, q + 1), with the power at 0 taken from log u, so
    # that p near -1, whose mass lies at u ~ e^(-1/(p+1)), is resolved
    exact = math.exp(math.lgamma(p + 1) + math.lgamma(q + 1) - math.lgamma(p + q + 2))
    lam = 40.0 / min(1.0, p + 1.0)
    v0, w = quad.tanh_sinh_window(lam, 40.0)

    def f(v):
        log_u, log_rest, log_jac = quad.tanh_sinh(v0 + v)
        return np.exp(p * log_u + q * log_rest + log_jac)

    value, err = quad.trapezoid(f, w, 1e-13)
    assert abs(value - exact) <= max(err, 1e-13 * exact)


def test_tanh_sinh_window_reaches_the_ends_it_promises():
    v0, w = quad.tanh_sinh_window(30.0, 700.0)
    log_u, _, _ = quad.tanh_sinh(np.array([v0 - w]))
    _, log_rest, _ = quad.tanh_sinh(np.array([v0 + w]))
    assert log_u[0] <= -30.0 + 1e-9 and log_rest[0] <= -700.0 + 1e-9


@pytest.mark.parametrize("a", [0.0, 0.5, 3.0])
def test_exp_exp_integrates_exponential_decay(a):
    # int_0^inf r^a e^(-r) dr = Gamma(a + 1)
    v0, w = quad.exp_exp_window(40.0, 2.0 * (40.0 + a * math.log(80.0)))

    def f(v):
        r, jac = quad.exp_exp(v0 + v)
        return r ** a * np.exp(-r) * jac

    value, err = quad.trapezoid(f, w, 1e-13)
    assert abs(value - math.gamma(a + 1)) <= max(err, 1e-13 * math.gamma(a + 1))
    r_lo, _ = quad.exp_exp(np.array([v0 - w]))
    r_hi, _ = quad.exp_exp(np.array([v0 + w]))
    assert r_lo[0] <= math.exp(-40.0) and r_hi[0] >= 2.0 * (40.0 + a * math.log(80.0))


def test_stokes_jump_sums_one_loop_without_panels(monkeypatch):
    # one trapezoid sum over the Hankel loop, and no lateral Laplace sum
    calls = _counting(monkeypatch, borel)
    monkeypatch.setattr(borel, "laplace_sum", lambda query: pytest.fail("the jump took a lateral sum"))
    su.stokes_jump_quadrature(0.5, su.SeriesKind.PSI, 0.15, tol=1e-10)
    assert 1 <= len(calls) <= 2


def test_tolerance_below_the_rounding_floor_is_refused_promptly(monkeypatch):
    # at 1e-16 the rounding estimate of the first piece exceeds the request, which it
    # reports at once instead of doubling toward the node cap
    calls = _counting(monkeypatch, borel)
    query = su.LaplaceQuery(0.5, su.SeriesKind.PSI, 0.1, math.pi / 12, 1e-16)
    with pytest.raises(ToleranceError, match="rounding estimate"):
        su.laplace_sum(query)
    assert len(calls) <= 2 and sum(calls) <= 2 * (2 * quad._TRAP_N0 + 1)


def test_two_pole_integral_refused_by_the_rounding_estimate_within_the_first_levels(monkeypatch):
    calls = _counting(monkeypatch, perturbed)
    with pytest.raises(ToleranceError, match="rounding estimate"):
        perturbed._two_pole_integral(0.1, 2.0, 5.0, 10.0, 1e-20)
    assert len(calls) <= 3 and sum(calls) <= 8 * quad._TRAP_N0 + 1


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
