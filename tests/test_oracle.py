"""ODE-continuation oracle: the integrator itself and the monodromy reports."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import CompanionSystem, PerturbParams, oracle
from stokes_unfold.errors import GuardError, PathError, SingularMatrixError, ToleranceError
from stokes_unfold.mat3 import invertible_det3
from stokes_unfold.oracle import (
    STIFFNESS_LIMIT,
    _build_report,
    closed_loop_eigenvalues,
    expected_log_flag,
    loop_around,
)
from stokes_unfold.paths import Arc, ContourPath, Line, circle, polyline
from stokes_unfold.perturbed import monodromy_exponent_factor, residue_numeric_oracle
from stokes_unfold.unperturbed import exponent_diagonals


def frozen_system(a):
    """Constant-coefficient system for closed-form comparison: q = 1 and P = A."""
    return CompanionSystem(np.ones(1, dtype=complex), np.array([a], dtype=complex), (), 0.0)


def series_exp(a, terms=25):
    out = np.eye(3, dtype=complex)
    power = np.eye(3, dtype=complex)
    for k in range(1, terms):
        power = power @ a / k
        out = out + power
    return out


def test_constant_coefficient_against_series_exponential():
    a = np.diag([-1.0, -2.0, 0.0]).astype(complex)
    a[0, 1] = a[1, 2] = 1.0
    y = su.integrate_path(frozen_system(a), polyline(0.0, 1.0), np.eye(3), tol=1e-11)
    assert su.max_abs(y - series_exp(a)) <= 1e-10


def test_dense_constant_system_against_series_exponential():
    # all nine entries of A nonzero and no symmetry, so a transposed or misaligned block
    # in the term product would show; a complex path scales A by 0.6 + 0.8i
    rng = np.random.default_rng(151)
    a = 0.7 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    y0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.all(np.abs(a) > 0.05)
    y = su.integrate_path(frozen_system(a), polyline(0.0, 0.6 + 0.8j), y0, tol=1e-12)
    expected = series_exp((0.6 + 0.8j) * a, terms=40) @ y0
    assert su.max_abs(y - expected) <= 1e-11 * su.max_abs(expected)


def test_dense_fuchsian_system_against_closed_form():
    # A = R/(x - p), so q = x - p and P = R, with R = V diag(w) V^-1 dense: the A(x)
    # commute, so the transport from x0 to x is V diag(((x - p)/(x0 - p))^w) V^-1
    rng = np.random.default_rng(152)
    v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pole, w = 0.2 + 0.1j, np.array([0.5, -1.3 + 0.4j, 2.2])
    r = v @ np.diag(w) @ np.linalg.inv(v)
    assert np.all(np.abs(r) > 0.05)
    system = CompanionSystem(np.array([-pole, 1.0]), np.array([r, np.zeros((3, 3))]), (pole,), 1.0)
    x0, x1 = 0.3 - 0.5j, 1.7 + 0.6j  # the segment keeps clear of the pole and its cut
    y = su.integrate_path(system, polyline(x0, x1), np.eye(3), tol=1e-12)
    expected = v @ np.diag(((x1 - pole) / (x0 - pole)) ** w) @ np.linalg.inv(v)
    assert su.max_abs(y - expected) <= 1e-10 * su.max_abs(expected)


OFF_AXIS_POINTS = (0.3 + 0.2j, -0.7 + 0.05j, 0.01 - 0.4j, 2.5 + 1.5j)


@pytest.mark.parametrize("nu,sqrt_eps", [(0.5, 0.25), (3.3 + 0.7j, 0.1), (-1.0, 0.6)])
def test_perturbed_companion_matrix(nu, sqrt_eps):
    params = PerturbParams(nu, sqrt_eps)
    system = CompanionSystem.perturbed(params)
    for x in OFF_AXIS_POINTS:
        a = system.matrix(x)
        # (Lambda x + Q)/(x^2 - eps), written out
        rational = np.diag([1, (nu - 2) * x + 2, (nu - 4) * x]) / (x * x - sqrt_eps**2)
        assert np.allclose(a, rational + np.eye(3, k=1), rtol=1e-14, atol=0.0)
    stack = system.matrix(np.array(OFF_AXIS_POINTS))
    assert stack.shape == (len(OFF_AXIS_POINTS), 3, 3)
    for j, x in enumerate(OFF_AXIS_POINTS):
        assert np.array_equal(stack[j], system.matrix(x))
    assert system.poles == (complex(params.x_L), complex(params.x_R))
    assert oracle.CLEARANCE_FACTOR * system.scale == 1e-3 * sqrt_eps


@pytest.mark.parametrize("nu", [0.5, 3.0, -2.0, 0.5 + 0.25j])
def test_unperturbed_companion_matrix(nu):
    system = CompanionSystem.unperturbed(nu)
    for x in OFF_AXIS_POINTS:
        expected = np.diag([1 / x**2, (nu - 2) / x + 2 / x**2, (nu - 4) / x]) + np.eye(3, k=1)
        assert np.allclose(system.matrix(x), expected, rtol=1e-14, atol=0.0)
    stack = system.matrix(np.array(OFF_AXIS_POINTS))
    assert stack.shape == (len(OFF_AXIS_POINTS), 3, 3)
    for j, x in enumerate(OFF_AXIS_POINTS):
        assert np.array_equal(stack[j], system.matrix(x))
    assert system.poles == (0j,)
    assert oracle.CLEARANCE_FACTOR * system.scale == 1e-3


def test_step_plan_keeps_every_step_within_reach():
    # 2 pi / 0.3 steps around x_R, each of length 0.3 r from a centre at distance r from
    # the nearest singular point, so that every step's series converges at least as 0.3^m
    params = PerturbParams.from_resonant_index(0.5, 1)
    system = CompanionSystem.perturbed(params)
    c, t, r, _ = oracle._steps(loop_around(params, "R"), system.poles, oracle.CLEARANCE_FACTOR * system.scale)
    assert len(c) == 21  # pins the step count of this loop
    assert np.allclose(np.abs(c[:, None] - np.array(system.poles)).min(axis=1), r, rtol=1e-15, atol=0)
    assert np.all(np.abs(t) <= 0.3 * r * (1 + 1e-12))


def test_refuses_rather_than_returns_a_wrong_matrix():
    # with x_L missing from the poles the steps about the L loop are sized by x_R
    # alone, up to 0.9 of the distance to x_L, where the series converge too slowly
    params = PerturbParams.from_resonant_index(0.5, 1)
    hiding = dataclasses.replace(CompanionSystem.perturbed(params), poles=(complex(params.x_R),))
    with pytest.raises(ToleranceError, match="has not converged"):
        su.integrate_path(hiding, loop_around(params, "L"), np.eye(3), tol=1e-9)
    # far past the stiffness guard the series needs more terms than the cap
    stiff = PerturbParams.from_resonant_index(0.5, 15)
    with pytest.raises(ToleranceError, match="has not converged"):
        su.integrate_path(CompanionSystem.perturbed(stiff), loop_around(stiff, "L"), np.eye(3), 1e-9)


@pytest.mark.parametrize("nu", [0.37, 1.3, 2.71, 3.6])
def test_monodromy_sweep_meets_invariants(nu):
    # every L and R loop inside the stiffness guard and three origin loops, at tol 1e-9
    for which in ("L", "R"):
        for n in range(1, 6):
            params = PerturbParams.from_resonant_index(nu, n)
            if 1.0 / params.sqrt_eps > STIFFNESS_LIMIT:
                continue
            report = su.numerical_monodromy(params, which, tol=1e-9)
            assert report.max_invariant_error <= 1e-8, (which, n)
            assert report.log_detected == expected_log_flag(params, which), (which, n)
    for radius in (0.5, 1.0, 2.0):
        assert su.unperturbed_monodromy(nu, radius, tol=1e-9).max_invariant_error <= 1e-8, radius


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
@pytest.mark.parametrize("nu", [0.5, 1.3, 2.3])
def test_origin_loops_meet_tight_tol(nu, tol):
    # the recurrence reads q and P themselves, so even tol 1e-13 is met (7.5e-15 worst)
    for radius in (0.5, 1.0, 2.0):
        assert su.unperturbed_monodromy(nu, radius, tol).max_invariant_error <= 1e-12, radius


@pytest.mark.parametrize("nu", [0.5, 3.3, 0.37])
def test_loop_around_both_singular_points_meets_tight_tol_at_any_n(nu):
    # the radius-1 circle keeps far from x_L and x_R, so its cost and error stay flat in n;
    # its eigenvalues are exp(2 pi i Lambda), each a_k's residues summed over both points
    closed = tuple(np.diag(su.formal_monodromy(nu)))
    for n in (1, 10, 10**3, 10**5):
        params = PerturbParams.from_resonant_index(nu, n)
        m = su.integrate_path(CompanionSystem.perturbed(params), circle(0.0, 1.0), np.eye(3), tol=1e-12)
        assert _build_report(m, closed).max_invariant_error <= 1e-12, n  # 3.5e-13 worst, at n = 1


def test_contractible_loop_is_identity():
    params = PerturbParams(0.5, 0.25)
    system = CompanionSystem.perturbed(params)
    loop = circle(2.0, 0.4)
    y = su.integrate_path(system, loop, np.eye(3), tol=1e-9)
    assert su.max_abs(y - np.eye(3)) <= 1e-8


def test_path_clearance_precondition():
    params = PerturbParams(0.5, 0.25)
    system = CompanionSystem.perturbed(params)
    x_r, c = params.x_R, oracle.CLEARANCE_FACTOR * system.scale
    # refused somewhere within [0.7, 1] clearance: a path ending on x_R, one passing it at
    # 0.5 clearance and a circle through it, each after finitely many steps
    for path in (polyline(0.0, x_r), polyline(0.1 + 0.5j * c, 0.4 + 0.5j * c), circle(x_r + 0.1, 0.1)):
        with pytest.raises(PathError, match=r"of the singular point \(0\.25\+0j\)"):
            su.integrate_path(system, path, np.eye(3))
    # a path passing at 3 clearance is transported, as the homotopic one that keeps away;
    # the weight -1.75 at x_R amplifies the step truncation there (3.0e-7 at tol 1e-13)
    near = su.integrate_path(system, polyline(0.1, x_r + 3j * c, 0.4), np.eye(3), tol=1e-13)
    far = su.integrate_path(system, polyline(0.1, x_r + 0.1j, 0.4), np.eye(3), tol=1e-13)
    assert su.max_abs(near - far) <= 1e-5 * su.max_abs(far)
    # no step evaluates A on a path of zero length, so one on a singular point returns y0
    y0 = np.array([[1.0, 0.5j, 0.0], [0.0, 2.0, 0.25], [0.1, 0.0, 1.0]])
    assert np.array_equal(su.integrate_path(system, polyline(x_r, x_r), y0), y0)


def test_initial_matrix_must_be_invertible():
    params = PerturbParams(0.5, 0.25)
    system = CompanionSystem.perturbed(params)
    with pytest.raises(SingularMatrixError):
        su.integrate_path(system, polyline(0.0, 0.1), np.zeros((3, 3)))


def test_initial_data_refused_exactly_where_invertible_det3_refuses():
    # a singular matrix nudged by delta in one entry (det = delta, threshold 1e-13 * 12^3 =
    # 1.728e-10 at scale 1), at every scale: the transport refuses its initial data by the
    # scale-aware determinant rule of invertible_det3
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]], dtype=complex)
    nudge = np.zeros((3, 3), dtype=complex)
    nudge[1, 0] = 1.0
    a = np.eye(3, k=1)
    system = frozen_system(a)
    refused = []
    for scale in 10.0 ** np.arange(-8, 9):
        for delta in (0.0, 1e-14, 1e-12, 1e-10, 1.7e-10, 1.75e-10, 1e-9, 1e-6):
            y0 = scale * (singular + delta * nudge)
            try:
                invertible_det3(y0)
            except SingularMatrixError:
                with pytest.raises(SingularMatrixError):
                    su.integrate_path(system, polyline(0.0, 0.5), y0)
                refused.append(delta)
            else:
                y = su.integrate_path(system, polyline(0.0, 0.5), y0)
                assert su.max_abs(y - series_exp(0.5 * a) @ y0) <= 1e-12 * su.max_abs(y0)
    assert refused == [0.0, 1e-14, 1e-12, 1e-10, 1.7e-10] * 17


def scalar_companion(params):
    """The expanded scalar equation y^(3) + c2 y^(2) + c1 y' + c0 y = 0, the factors
    d/dx - a_k composed with a_1's acting first, as a system in (y, y', y^(2)) over
    q = s^3, s = x^2 - eps, so that (c0, c1, c2) is minus the last row of A = P/q:
    a_k = u_k/s with u_k = Lambda_k x + Q_k, so that a_k' = v_k/s^2 with
    v_k = Lambda_k s - 2x u_k, and a_k^(2) = -(2 u_k s + 4x v_k)/s^3."""
    poly = np.polynomial.Polynomial
    lam, q_diag = exponent_diagonals(params.nu)
    x, s = poly([0.0, 1.0]), poly([-params.sqrt_eps**2, 0.0, 1.0])
    u1, u2, u3 = (poly([c, l]) for l, c in zip(lam, q_diag))
    v1, v2 = (l * s - 2.0 * x * u for l, u in zip(lam, (u1, u2)))
    c0 = v1 * u2 + u1 * v2 + 2.0 * u1 * s + 4.0 * x * v1 + u3 * v1 - u1 * u2 * u3  # s^3 c0
    c1 = (u1 * u2 + u1 * u3 + u2 * u3 - 2.0 * v1 - v2) * s  # s^3 c1
    c2 = -(u1 + u2 + u3) * s**2  # s^3 c2
    q = (s**3).coef.astype(complex)
    p = np.zeros((len(q), 3, 3), dtype=complex)
    p[:, 0, 1] = p[:, 1, 2] = q
    for column, c in enumerate((c0, c1, c2)):
        p[:len(c.coef), 2, column] = -c.coef
    return CompanionSystem(q, p, (complex(params.x_L), complex(params.x_R)), params.sqrt_eps)


def test_scalar_and_companion_routes_agree():
    # transporting the expanded scalar equation and the factored system from
    # matched initial data gives the same first component
    params = PerturbParams(0.8, 0.25)
    scalar = scalar_companion(params)
    x0, x1 = 0.5, 1.1
    path = polyline(x0, x1)
    scalar_end = su.integrate_path(scalar, path, np.eye(3), tol=1e-11)

    # initial data conversion: rows (y, L1 y, L2 L1 y) in terms of (y, y', y'')
    system = CompanionSystem.perturbed(params)

    def conversion(x):
        a1, a2, _ = system.matrix(x).diagonal()
        h = 1e-6
        a1p = (system.matrix(x + h)[0, 0] - system.matrix(x - h)[0, 0]) / (2 * h)
        t = np.zeros((3, 3), dtype=complex)
        t[0, 0] = 1.0
        t[1] = [-a1, 1.0, 0.0]
        t[2] = [a2 * a1 - a1p, -(a1 + a2), 1.0]
        return t

    special_end = su.integrate_path(system, path, conversion(x0), tol=1e-11)
    # first row of both transports is y(x1) for the three basis solutions
    assert su.max_abs(special_end[0] - scalar_end[0]) <= 1e-8


def test_first_component_satisfies_scalar_equation():
    # 4th-order finite differences of the transported first component on a
    # uniform grid, pushed through the expanded scalar equation; the stride-2
    # stencils sit above the per-sample integration jitter
    params = PerturbParams(0.8, 0.25)
    system, scalar = CompanionSystem.perturbed(params), scalar_companion(params)
    x0, x1 = 0.8, 1.2
    n = 480
    h = (x1 - x0) / n
    xs = [x0 + k * h for k in range(n + 1)]
    ys = []
    y = np.eye(3, dtype=complex)
    for a, b in zip(xs, xs[1:]):
        ys.append(y[0, 0])
        y = su.integrate_path(system, polyline(a, b), y, tol=1e-12)
    ys.append(y[0, 0])

    def derivatives(k, stride):
        hh = stride * h
        f = lambda j: ys[k + j * stride]
        d1 = (f(-2) - 8 * f(-1) + 8 * f(1) - f(2)) / (12 * hh)
        d2 = (-f(-2) + 16 * f(-1) - 30 * f(0) + 16 * f(1) - f(2)) / (12 * hh * hh)
        d3 = (f(-3) - 8 * f(-2) + 13 * f(-1) - 13 * f(1) + 8 * f(2) - f(3)) / (8 * hh**3)
        return np.array([d1, d2, d3])

    worst = 0.0
    for k in range(6, n - 5, 7):
        d1, d2, d3 = derivatives(k, 2)
        c0, c1, c2 = -scalar.matrix(xs[k])[2]
        worst = max(worst, abs(d3 + c2 * d2 + c1 * d1 + c0 * ys[k]))
    assert worst <= 1e-6


@pytest.mark.parametrize(
    "nu,n,which",
    [(0.5, 1, "R"), (0.5, 2, "R"), (2.0, 1, "L"), (2.0, 2, "R")],
)
def test_numerical_monodromy_matches_closed_invariants(nu, n, which):
    params = PerturbParams.from_resonant_index(nu, n)
    report = su.numerical_monodromy(params, which, tol=1e-10)
    assert report.max_invariant_error <= 1e-6
    assert report.log_detected == expected_log_flag(params, which)
    assert abs(np.linalg.det(report.M_numeric)) > 0


def test_numerical_monodromy_no_log_when_d_vanishes():
    params = PerturbParams.from_resonant_index(-1.0, 2)
    report = su.numerical_monodromy(params, "R", tol=1e-10)
    assert report.log_detected is False
    assert report.max_invariant_error <= 1e-6


def test_composed_loops_match_infinity_relation():
    params = PerturbParams.from_resonant_index(0.5, 1)
    # continuation around gamma_R followed by gamma_L from the same base point
    path = ContourPath([*loop_around(params, "R"), *loop_around(params, "L")])
    m = su.integrate_path(CompanionSystem.perturbed(params), path, np.eye(3), tol=1e-10)
    st_l, st_r = su.unfolded_stokes(params)
    m_hat = su.formal_monodromy(params.nu)
    closed = np.linalg.eigvals(st_l @ st_r @ m_hat)
    from stokes_unfold.oracle import _match_eigenvalues

    err, _ = _match_eigenvalues(tuple(np.linalg.eigvals(m)), tuple(closed))
    assert err <= 1e-5


def test_stiffness_guard():
    params = PerturbParams.from_resonant_index(0.5, 50)
    with pytest.raises(GuardError):
        su.numerical_monodromy(params, "L")
    with pytest.raises(GuardError, match=r"1/sqrt\(eps\) = 12\.500 exceeds the stiffness guard 12"):
        su.numerical_monodromy(PerturbParams.from_resonant_index(0.5, 6), "R")


def test_transport_past_the_stiffness_guard():
    # 1/sqrt(eps) = 12.5 sits just past the guard, which integrate_path does not apply
    params = PerturbParams.from_resonant_index(0.5, 6)
    m = su.integrate_path(CompanionSystem.perturbed(params), loop_around(params, "R"), np.eye(3), 1e-10)
    report = _build_report(m, closed_loop_eigenvalues(params, "R"))
    assert report.max_invariant_error <= 1e-5


def test_unperturbed_monodromy_reports():
    rep = su.unperturbed_monodromy(0.0, radius=1.0, tol=1e-9)
    assert su.max_abs(rep.M_numeric - np.eye(3)) <= 1e-6
    assert rep.log_detected is False

    rep = su.unperturbed_monodromy(0.5, radius=1.0, tol=1e-9)
    matched = sorted(rep.eigenvalues_numeric, key=lambda v: v.real)
    assert abs(matched[0] + 1.0) <= 1e-6
    assert abs(matched[1] + 1.0) <= 1e-6
    assert abs(matched[2] - 1.0) <= 1e-6
    assert rep.log_detected is False  # distinct-eigenvalue block is semisimple

    rep = su.unperturbed_monodromy(3.0, radius=1.0, tol=1e-9)
    assert max(abs(v - 1.0) for v in rep.eigenvalues_numeric) <= 1e-6
    assert rep.log_detected is True


def test_unperturbed_radius_bounds():
    with pytest.raises(ValueError):
        su.unperturbed_monodromy(0.5, radius=0.3)


@pytest.mark.parametrize("side_fn", [closed_loop_eigenvalues, expected_log_flag, monodromy_exponent_factor,
                                     residue_numeric_oracle, loop_around, su.numerical_monodromy],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("side", ["x", "l", "origin", ""])
def test_side_names_other_than_l_and_r_are_refused(side_fn, side):
    params = PerturbParams.from_resonant_index(0.5, 1)
    with pytest.raises(ValueError, match="which must be 'L' or 'R'"):
        side_fn(params, side)


def test_base_point_independence():
    # same invariants from the standard base point 0 and from i sqrt(eps)/2
    params = PerturbParams.from_resonant_index(0.5, 1)
    s = params.sqrt_eps
    system = CompanionSystem.perturbed(params)
    m1 = su.integrate_path(system, loop_around(params, "L"), np.eye(3), tol=1e-10)
    base = 0.5j * s
    m2 = su.integrate_path(
        system,
        circle(params.x_L, abs(base - params.x_L), angle_start=cmath.phase(base - params.x_L)),
        np.eye(3),
        tol=1e-10,
    )
    e1 = sorted(np.linalg.eigvals(m1), key=lambda v: (round(v.real, 6), round(v.imag, 6)))
    e2 = sorted(np.linalg.eigvals(m2), key=lambda v: (round(v.real, 6), round(v.imag, 6)))
    assert max(abs(a - b) for a, b in zip(e1, e2)) <= 1e-6


def test_closed_loop_eigenvalues_at_resonance():
    # at resonance the eigenvalue multisets collapse to the constant pattern
    nu = 0.5
    params = PerturbParams.from_resonant_index(nu, 2)
    eig_r = closed_loop_eigenvalues(params, "R")
    assert eig_r[0] == pytest.approx(cmath.exp(1j * math.pi * nu), abs=1e-12)
    assert eig_r[1] == pytest.approx(cmath.exp(3j * math.pi * nu), abs=1e-12)
    assert eig_r[2] == pytest.approx(cmath.exp(1j * math.pi * nu), abs=1e-12)


def test_paths_geometry():
    with pytest.raises(PathError):
        ContourPath([Line(0.0, 1.0), Line(2.0, 3.0)])  # endpoint mismatch
    arc = Arc(0.0, 1.0, 0.0, math.pi)
    assert arc.point(0.0) == pytest.approx(1.0)
    assert arc.point(1.0) == pytest.approx(-1.0)
    assert arc.length == pytest.approx(math.pi)
    loop = circle(1.0, 0.5, angle_start=math.pi)
    assert loop.segments[0].point(0.0) == pytest.approx(0.5)
    # a negative radius would make the length negative and the steps run backwards
    for radius in (-1.0, math.nan):
        with pytest.raises(PathError, match="radius >= 0"):
            circle(0.0, radius)
    assert Arc(0.0, 0.0, 0.0, math.pi).length == 0.0
    # an array of s evaluates elementwise
    s = np.array([0.0, 0.1, 0.2, 0.3, 0.55, 8 / 9, 1.0])
    for segment in (Arc(0.5 - 0.2j, 0.7, 0.3, -4.0), Line(0.2 - 1.0j, 1.5 + 2.0j)):
        values = segment.point(s)
        assert values.shape == s.shape
        assert all(values[j] == segment.point(t) for j, t in enumerate(s.tolist()))


def _all_steps_transport(system, path, y0, tol):
    """integrate_path with its stopping rule evaluated for every step after every term:
    the reference that the one-step-first evaluation must match bit for bit."""
    y = np.array(y0, dtype=complex)
    c, t, r, segments = oracle._steps(path, system.poles, oracle.CLEARANCE_FACTOR * system.scale)
    rows = oracle._recurrence_rows(system, c, t)
    n, k, width = len(c), oracle._MAX_TERMS, rows.shape[-1]
    zw = np.zeros((n, 1, 6 * k + width, 3), dtype=complex)
    zw[:, 0, 6 * k:6 * k + 3] = np.eye(3)
    phi = np.tile(np.eye(3, dtype=complex), (n, 1, 1))
    small = np.zeros(n, dtype=int)
    for m in range(k):
        at = 6 * (k - m)
        w = (rows @ zw[..., at:at + width, :]).reshape(n, 3, 3)
        term = w / (m + 1)
        zw[:, 0, at - 6:at - 3], zw[:, 0, at - 3:at] = term, w
        phi += term
        below = np.abs(term).max(axis=(1, 2)) <= tol * np.maximum(1.0, np.abs(phi).max(axis=(1, 2)))
        small = (small + 1) * below
        if small.min() >= 2:
            break
    else:
        j = int(np.argmin(small))
        raise ToleranceError(f"Taylor series about {c[j]:.6g} has not converged to tol = {tol:g} "
                             f"in {k} terms on {segments[j]}")
    for step in phi:
        y = step @ y
    return y


def _reference_cases():
    tols = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 0.5, 10.0)
    for nu, n in ((0.5, 2), (2.71, 1)):
        params = PerturbParams.from_resonant_index(nu, n)
        for which in ("L", "R"):
            for tol in tols:
                yield f"{which}-nu{nu}-n{n}-{tol:g}", CompanionSystem.perturbed(params), loop_around(params, which), tol
    for tol in tols:
        yield f"origin-{tol:g}", CompanionSystem.unperturbed(1.3), circle(0.0, 1.0), tol
    zero = CompanionSystem(np.ones(1, dtype=complex), np.zeros((1, 3, 3), dtype=complex), (0j,), 1.0)
    for tol in (1e-9, 0.5, 10.0):
        yield f"zero-{tol:g}", zero, circle(0.0, 1.0), tol
    for n in (8, 15):  # past the stiffness guard; n = 15 needs more terms than the cap
        params = PerturbParams.from_resonant_index(0.5, n)
        for which in ("L", "R"):
            yield f"stiff-{which}-n{n}", CompanionSystem.perturbed(params), loop_around(params, which), 1e-9
    # term-cap refusals at an interior step, which the refusal must name as the reference does
    params = PerturbParams.from_resonant_index(0.5, 13)
    s = params.sqrt_eps
    for name, path in (("polyline", polyline(-1, 0.5j * s, 1)), ("circle", circle(s, 1.5 * s))):
        yield f"interior-{name}-n13", CompanionSystem.perturbed(params), path, 1e-12


@pytest.mark.parametrize("system,path,tol", [case[1:] for case in _reference_cases()],
                         ids=[case[0] for case in _reference_cases()])
def test_transport_matches_the_all_steps_stopping_test(system, path, tol):
    y0 = np.array([[1.0, 0.5j, 0.0], [0.0, 2.0, 0.25], [0.1, 0.0, 1.0]])
    if tol >= 1.0:  # a relative bound of 1 or more is refused before any step is taken
        with pytest.raises(ValueError, match=f"tol must be below 1, got {tol}"):
            su.integrate_path(system, path, y0, tol)
        return
    try:
        expected = _all_steps_transport(system, path, y0, tol)
    except ToleranceError as refusal:
        with pytest.raises(ToleranceError) as raised:
            su.integrate_path(system, path, y0, tol)
        assert str(raised.value) == str(refusal)
    else:
        assert np.array_equal(su.integrate_path(system, path, y0, tol), expected)
