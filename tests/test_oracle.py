"""ODE-continuation oracle: the integrator itself and the monodromy reports."""

import cmath
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


class FrozenSystem:
    """Constant-coefficient system for closed-form comparison."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=complex)

    def matrix(self, x):
        return np.broadcast_to(self.a, np.shape(x) + (3, 3))

    def singularities(self):
        return ()

    def clearance(self):
        return 0.0


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
    system = FrozenSystem(a)
    y = su.integrate_path(system, polyline(0.0, 1.0), np.eye(3), tol=1e-11)
    assert su.max_abs(y - series_exp(a)) <= 1e-10


def test_dense_constant_system_against_series_exponential():
    # all nine entries of A nonzero and no symmetry, so a transposed or misaligned block
    # in the term product would show; a complex path scales A by 0.6 + 0.8i
    rng = np.random.default_rng(151)
    a = 0.7 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    y0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.all(np.abs(a) > 0.05)
    y = su.integrate_path(FrozenSystem(a), polyline(0.0, 0.6 + 0.8j), y0, tol=1e-12)
    expected = series_exp((0.6 + 0.8j) * a, terms=40) @ y0
    assert su.max_abs(y - expected) <= 1e-11 * su.max_abs(expected)


class FuchsianSystem:
    """A = R/(x - p) with R = P diag(w) P^-1 dense: the A(x) commute, so the transport
    from x0 to x is P diag(((x - p)/(x0 - p))^w) P^-1, and every A_l is dense."""

    def __init__(self, pole, p, w):
        self.pole, self.p, self.w = pole, p, np.asarray(w)
        self.r = p @ np.diag(self.w) @ np.linalg.inv(p)

    def matrix(self, x):
        return self.r / (np.asarray(x)[..., None, None] - self.pole)

    def exact(self, x0, x):
        return self.p @ np.diag(((x - self.pole) / (x0 - self.pole)) ** self.w) @ np.linalg.inv(self.p)

    def singularities(self):
        return (self.pole,)

    def clearance(self):
        return 1e-3


def test_dense_fuchsian_system_against_closed_form():
    rng = np.random.default_rng(152)
    p = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    system = FuchsianSystem(0.2 + 0.1j, p, [0.5, -1.3 + 0.4j, 2.2])
    assert np.all(np.abs(system.r) > 0.05)
    x0, x1 = 0.3 - 0.5j, 1.7 + 0.6j  # the segment keeps clear of the pole and its cut
    y = su.integrate_path(system, polyline(x0, x1), np.eye(3), tol=1e-12)
    expected = system.exact(x0, x1)
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
    assert system.singularities() == (complex(params.x_L), complex(params.x_R))
    assert system.clearance() == 1e-3 * sqrt_eps


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
    assert system.singularities() == (0j,)
    assert system.clearance() == 1e-3


class Recording:
    """A companion system that records the points of every matrix call, and may hide
    some of its singular points."""

    def __init__(self, system, hidden=()):
        self.system = system
        self.hidden = hidden
        self.calls = []

    def matrix(self, x):
        self.calls.append(np.ravel(x))
        return self.system.matrix(x)

    def singularities(self):
        return tuple(p for p in self.system.singularities() if p not in self.hidden)

    def clearance(self):
        return self.system.clearance()


def test_transport_samples_once_away_from_singularities():
    # one matrix call per path samples 64 points on a circle about every step centre;
    # each circle has radius 0.6 r for a centre at distance r from the nearest
    # singularity, so every sample stays at least 0.4 r away
    params = PerturbParams.from_resonant_index(0.5, 1)
    recording = Recording(CompanionSystem.perturbed(params))
    su.integrate_path(recording, loop_around(params, "R"), np.eye(3), tol=1e-9)
    (points,) = recording.calls
    circles = points.reshape(-1, 64)
    assert len(circles) == 21  # pins the step count of this loop: 2 pi / 0.3 steps
    singular = np.array(recording.singularities())
    for samples in circles:
        r = np.abs(samples.mean() - singular).min()
        assert np.abs(samples[:, None] - singular).min() >= 0.4 * r * (1 - 1e-12)


def test_refuses_rather_than_returns_a_wrong_matrix():
    # with x_L missing from singularities() the steps about the L loop are sized by x_R
    # alone, and x_L falls inside their sampling circles
    params = PerturbParams.from_resonant_index(0.5, 1)
    hiding = Recording(CompanionSystem.perturbed(params), hidden=(complex(params.x_L),))
    # the same test refuses the radius-1 origin loop at tol 1e-13: no singular point lies
    # inside its sampling circles, but the double pole 2/x^2 outside leaves ~2.5e-13 there
    for refused in (lambda: su.integrate_path(hiding, loop_around(params, "L"), np.eye(3), tol=1e-9),
                    lambda: su.unperturbed_monodromy(0.5, radius=1.0, tol=1e-13)):
        with pytest.raises(ToleranceError, match="have not decayed") as refusal:
            refused()
        assert ("either the system does not report a singular point inside the sampling circle, "
                "or A's coefficients decay too slowly for 64 terms at this tol") in str(refusal.value)
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


def test_contractible_loop_is_identity():
    params = PerturbParams(0.5, 0.25)
    system = CompanionSystem.perturbed(params)
    loop = circle(2.0, 0.4)
    y = su.integrate_path(system, loop, np.eye(3), tol=1e-9)
    assert su.max_abs(y - np.eye(3)) <= 1e-8


def test_path_clearance_precondition():
    params = PerturbParams(0.5, 0.25)
    system = CompanionSystem.perturbed(params)
    x_r, c = params.x_R, system.clearance()
    # refused somewhere within [0.7, 1] clearance: a path ending on x_R, one passing it at
    # 0.5 clearance and a circle through it, each after finitely many steps
    for path in (polyline(0.0, x_r), polyline(0.1 + 0.5j * c, 0.4 + 0.5j * c), circle(x_r + 0.1, 0.1)):
        with pytest.raises(PathError, match=r"of the singular point \(0\.25\+0j\)"):
            su.integrate_path(system, path, np.eye(3))
    # a path passing at 3 clearance is transported, as the homotopic one that keeps away;
    # the weight -1.75 at x_R amplifies the step truncation there (6.7e-7 at tol 1e-13)
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
    system = FrozenSystem(np.eye(3, k=1))
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
                assert su.max_abs(y - series_exp(0.5 * system.a) @ y0) <= 1e-12 * su.max_abs(y0)
    assert refused == [0.0, 1e-14, 1e-12, 1e-10, 1.7e-10] * 17


def test_scalar_and_companion_routes_agree():
    # transporting the expanded scalar equation and the factored system from
    # matched initial data gives the same first component
    params = PerturbParams(0.8, 0.25)

    class ScalarCompanion:
        def matrix(self, x):
            m = np.zeros((np.size(x), 3, 3), dtype=complex)
            m[:, 0, 1] = 1.0
            m[:, 1, 2] = 1.0
            for row, point in zip(m, np.ravel(x)):
                c2, c1, c0 = su.scalar_form_coefficients(params, point)
                row[2] = [-c0, -c1, -c2]
            return m.reshape(np.shape(x) + (3, 3))

        def singularities(self):
            return (complex(params.x_L), complex(params.x_R))

        def clearance(self):
            return 1e-3 * params.sqrt_eps

    x0, x1 = 0.5, 1.1
    path = polyline(x0, x1)
    scalar_end = su.integrate_path(ScalarCompanion(), path, np.eye(3), tol=1e-11)

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
    system = CompanionSystem.perturbed(params)
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
        c2, c1, c0 = su.scalar_form_coefficients(params, xs[k])
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
    c, t, r, segments = oracle._steps(path, system.singularities(), system.clearance())
    rho = oracle._SAMPLE_RATIO * r
    n, k = len(c), oracle._CAUCHY_POINTS
    d = oracle._taylor_coefficients(system, c, rho, tol, segments)
    d *= (t[:, None] * (t / rho)[:, None] ** oracle._POWERS)[:, :, None]
    d = np.ascontiguousarray(d.reshape(n, k, 3, 3).transpose(0, 2, 1, 3)).reshape(n, 3, 1, 3 * k)
    terms = np.empty((n, 1, 3 * (k + 1), 3), dtype=complex)
    terms[:, 0, 3 * k:] = np.eye(3)
    phi = np.tile(np.eye(3, dtype=complex), (n, 1, 1))
    small = np.zeros(n, dtype=int)
    for m in range(k):
        term = (d[..., :3 * (m + 1)] @ terms[..., 3 * (k - m):, :]).reshape(n, 3, 3) / (m + 1)
        terms[:, 0, 3 * (k - m - 1):3 * (k - m)] = term
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
    zero = CompanionSystem(np.zeros(1, dtype=complex), np.array([1]), np.zeros((3, 1), dtype=complex), 1.0)
    for tol in (1e-9, 0.5, 10.0):
        yield f"zero-{tol:g}", zero, circle(0.0, 1.0), tol
    for n in (8, 15):  # past the stiffness guard; n = 15 needs more terms than the cap
        params = PerturbParams.from_resonant_index(0.5, n)
        for which in ("L", "R"):
            yield f"stiff-{which}-n{n}", CompanionSystem.perturbed(params), loop_around(params, which), 1e-9


@pytest.mark.parametrize("system,path,tol", [case[1:] for case in _reference_cases()],
                         ids=[case[0] for case in _reference_cases()])
def test_transport_matches_the_all_steps_stopping_test(system, path, tol):
    y0 = np.array([[1.0, 0.5j, 0.0], [0.0, 2.0, 0.25], [0.1, 0.0, 1.0]])
    try:
        expected = _all_steps_transport(system, path, y0, tol)
    except ToleranceError as refusal:
        with pytest.raises(ToleranceError) as raised:
            su.integrate_path(system, path, y0, tol)
        assert str(raised.value) == str(refusal)
    else:
        assert np.array_equal(su.integrate_path(system, path, y0, tol), expected)
