"""The quadrature rule: the nested trapezoid rule's sums, nodes, estimates and refusals,
the double-exponential maps against closed forms, and the refusals of the integrals that
run on them below their rounding floor."""

import cmath
import math
import re

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
    # one trapezoid sum over the Hankel loop and no lateral Laplace sum: on real x and real nu
    # the loop integrand is conjugate-even, and the sum is one call of the 65 nodes theta >= 0;
    # a complex x or a complex nu takes the full 129
    calls = _counting(monkeypatch, borel)
    monkeypatch.setattr(borel, "laplace_sum", lambda query: pytest.fail("the jump took a lateral sum"))
    for nu, x, nodes in ((0.5, 0.15, 65), (1e-6, 0.3, 65), (2.7, 0.05, 65), (3.7, -0.1, 65),
                         (0.5, 0.15 * cmath.exp(0.4j), 129), (0.5 + 0.3j, 0.15, 129)):
        kind = su.SeriesKind.PSI if x.real > 0 else su.SeriesKind.PHI
        for tol in (1e-8, 1e-10, 1e-12):
            calls.clear()
            su.stokes_jump_quadrature(nu, kind, x, tol=tol)
            assert calls == [nodes], (nu, x, tol, calls)


def test_laplace_head_sums_129_nodes_in_one_call(monkeypatch):
    # on a ray with s* > 0 the head [0, s*] is one call of 129 nodes: the next call is the
    # tail's first level of 65, where a second head level would have held 128
    calls = _counting(monkeypatch, borel)
    for query in (su.LaplaceQuery(0.5, su.SeriesKind.PSI, 0.1, math.pi / 12),
                  su.LaplaceQuery(0.5, su.SeriesKind.PSI, 0.2, 0.3, 1e-12),
                  su.LaplaceQuery(2.5, su.SeriesKind.PHI, -0.15, math.pi - 0.4, 1e-12)):
        calls.clear()
        su.laplace_sum(query)
        assert calls[:2] == [129, 2 * quad._TRAP_N0 + 1], (query, calls)


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


def _loop(nu, x):
    """The Stokes jump's loop integrand at (nu, x), PSI, and the half-width of its sum."""
    mu, w = borel._hankel_parabola(complex(nu), cmath.phase(x))
    return borel._loop_integrand(complex(nu), mu * cmath.exp(-1j * cmath.phase(x))), w


FIRST_LEVEL_CASES = {
    "gaussian-a4": (lambda t: np.exp(-4.0 * t * t + (1.0 - 2.0j) * t), 9.0, 1e-12),
    "gaussian-a16": (lambda t: np.exp(-(16.0 + 4.0j) * t * t + 3.0j * t), 9.0, 1e-12),
    "loop-nu2.7": (*_loop(2.7, 0.05), 1e-10),
    "loop-nu1e-6": (*_loop(1e-6, 0.3), 1e-12),
    "loop-nu0.37-complex-x": (*_loop(0.37, 0.1 * cmath.exp(-1.1j)), 1e-10),
}


@pytest.mark.parametrize("case", sorted(FIRST_LEVEL_CASES))
def test_first_level_of_64_returns_the_same_sum_in_one_call_fewer(case):
    # where the default start needs two or more levels, n0 = 64 evaluates the same nodes
    # (w/64) 2j = (w/32) j in one call fewer and returns the same (value, estimate) bits;
    # the identity is that of complex-valued f, whose levels are all complex arrays
    f, w, rtol = FIRST_LEVEL_CASES[case]
    default, fine = [], []
    expected = quad.trapezoid(lambda t: default.append(t.size) or f(t), w, rtol)
    got = quad.trapezoid(lambda t: fine.append(t.size) or f(t), w, rtol, n0=64)
    assert len(default) >= 2
    assert fine == [129] + default[2:]
    assert repr(got) == repr(expected)


CONJ_EVEN_CASES = {
    "gaussian": (lambda t: np.exp(-2.0 * t * t + 1.5j * t) * (1.0 + 0.3j * t), 9.0, 1e-13, 32),
    "pole-0.2": (lambda t: np.exp(-t * t) / (t * t + 0.04), 7.0, 1e-12, 32),
    "period": (lambda t: np.exp(np.cos(t) + 2j * np.sin(t)), math.pi, 1e-13, 32),
    "loop-nu0.7": (*_loop(0.7, 0.2), 1e-12, 64),
    "loop-nu17.5": (*_loop(17.5, 0.45), 1e-13, 64),
}


@pytest.mark.parametrize("case", sorted(CONJ_EVEN_CASES))
def test_conjugate_even_sum_evaluates_the_half_t_nonnegative(case):
    # f(-t) = conj f(t): the sum calls f on t >= 0 only, n0 + 1 nodes and then the n new
    # midpoints of each doubling, and returns the full sum's level and value to roundoff
    f, w, rtol, n0 = CONJ_EVEN_CASES[case]
    t = np.linspace(0.0, w, 97)
    assert np.abs(f(-t) - np.conj(f(t))).max() <= 1e-15 * np.abs(f(t)).max()
    full, half = [], []
    expected, expected_err = quad.trapezoid(lambda v: full.append(v) or f(v), w, rtol, n0=n0)
    value, err = quad.trapezoid(lambda v: half.append(v) or f(v), w, rtol, n0=n0, conj_even=True)
    assert [v.size for v in half] == [n0 + 1] + [v.size // 2 for v in full[1:]]
    assert all((v >= 0.0).all() for v in half)
    assert np.sort(np.concatenate(half)) == pytest.approx(np.linspace(0.0, w, n0 * 2 ** (len(half) - 1) + 1))
    assert value.imag == 0.0 and err <= rtol * abs(value)
    assert abs(value - expected) <= 2.0 * max(err, expected_err)


CONJ_EVEN_REFUSALS = {
    # (f, w, rtol, kwargs, whether the quoted estimates are the full sum's bits)
    "not-finite": (lambda t: np.where(np.abs(t) > 1.0, np.inf, 1.0), 7.0, 1e-8, {}, True),
    "rounding": (lambda t: np.exp(-t * t), 7.0, 1e-17, {}, True),
    "node-cap": (lambda t: 1.0 / (t * t + 1e-8), 7.0, 1e-10, {}, True),
    "atol": (lambda t: np.exp(3j * t), math.pi, 1e-10, {"atol": 1e-20}, True),
    # a request or a level set by roundoff: the estimates are roundoff, and move with it
    "zero-integral": (lambda t: np.exp(3j * t), math.pi, 1e-10, {}, False),
    "rounding-floor": (lambda t: np.exp(np.cos(t)), math.pi, 1e-17, {"atol": 1e-30}, False),
}


@pytest.mark.parametrize("case", sorted(CONJ_EVEN_REFUSALS))
def test_conjugate_even_sum_refuses_as_the_full_sum(case):
    # the same ToleranceError and message; where the estimates it quotes are roundoff, they
    # are roundoff of another summation order, and only the words are the same
    f, w, rtol, kwargs, same_bits = CONJ_EVEN_REFUSALS[case]
    messages = []
    for conj_even in (False, True):
        with pytest.raises(ToleranceError) as refusal:
            quad.trapezoid(f, w, rtol, conj_even=conj_even, **kwargs)
        messages.append(str(refusal.value))
    if same_bits:
        assert messages[0] == messages[1]
    else:
        number = r"\d\.\d{3}e[+-]\d+"
        assert [re.sub(number, "#", m) for m in messages] == [re.sub(number, "#", messages[0])] * 2


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


_RESONANT = su.PerturbParams.from_resonant_index(0.5, 2)
TOL_ENTRY_POINTS = {
    "integrate_path": lambda tol: su.integrate_path(su.CompanionSystem.perturbed(_RESONANT),
                                                    su.polyline(0.5, 0.6), np.eye(3), tol),
    "numerical_monodromy": lambda tol: su.numerical_monodromy(_RESONANT, "R", tol),
    "unperturbed_monodromy": lambda tol: su.unperturbed_monodromy(0.5, tol=tol),
    "residue_numeric_oracle": lambda tol: su.residue_numeric_oracle(_RESONANT, "R", tol),
    "offdiag_solution_quadrature": lambda tol: su.offdiag_solution_quadrature(_RESONANT, 0.5, su.OffDiagonal.PHI12, tol),
    "ratio_integral_check": lambda tol: su.ratio_integral_check(0.5, 2.0, -1.0, tol),
    "laplace_sum": lambda tol: su.laplace_sum(su.LaplaceQuery(0.5, su.SeriesKind.PSI, 0.2, 0.3, tol)),
    "stokes_jump_quadrature": lambda tol: su.stokes_jump_quadrature(0.5, su.SeriesKind.PSI, 0.15, tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_tol_must_be_finite_and_positive(entry, tol):
    # an infinite tol would certify whatever the rule or the series returned, and the
    # others would be refused later as unreachable (ToleranceError, exit 5), not as input
    with pytest.raises(ValueError, match=f"tol must be finite and positive, got {tol}"):
        TOL_ENTRY_POINTS[entry](tol)
