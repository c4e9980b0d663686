"""Independent verification engine: adaptive Runge-Kutta continuation of the
companion 3x3 system along contour paths, and numerical monodromy compared
with the closed forms through conjugacy invariants (eigenvalue multisets,
determinant, Jordan structure) rather than raw matrices, because the
numerical frame differs from the closed-form solution frame by an unknown
constant conjugation.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, PathError, ResonanceError, StepUnderflowError, ToleranceError
from .mat3 import as_matrix3, identity3, inverse3, max_abs
from .paths import ContourPath, circle, concat
from .perturbed import (
    PerturbParams,
    ResonanceClass,
    _partial_fraction_weights,
    characteristic_exponents,
    classify_resonance,
    residues,
)
from .unperturbed import monodromy_origin

STIFFNESS_LIMIT = 12.0
CLEARANCE_FACTOR = 1e-3
JORDAN_RTOL = 1e-4
_EIG_GROUP_TOL = 1e-8
_MAX_STEPS = 200_000

# Dormand-Prince 5(4) tableau. Row i of _DP_A weights stages 0..i-1 in the argument
# of stage i; its last row is b5, so the last stage is the derivative at y5.  _DP_C
# holds the nodes of stages 1..5; stage 6 shares c = 1 with stage 5 and stage 0 is
# the previous step's last.
_DP_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_DP_NODE = (None, 0, 1, 2, 3, 4, 4)  # stage i -> its node's index in _DP_C
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = np.append(_DP_A[6], 0.0) - _DP_B4  # b5 - b4, the weights of the error estimate


@dataclass(frozen=True, eq=False)
class CompanionSystem:
    """Y' = A(x) Y with A upper bidiagonal: ones on the superdiagonal, and on the diagonal
    a(x) = weights @ (x - poles)^(-powers), a table fixed when the system is built.
    """

    poles: np.ndarray
    powers: np.ndarray
    weights: np.ndarray  # 3 x J
    scale: float  # length unit of the clearance around the poles

    @classmethod
    def perturbed(cls, params: PerturbParams) -> "CompanionSystem":
        """a_k = w_R/(x - x_R) + w_L/(x - x_L)."""
        return cls(np.array([params.x_R, params.x_L], dtype=complex), np.array([1, 1]),
                   np.array(_partial_fraction_weights(params), dtype=complex), params.sqrt_eps)

    @classmethod
    def unperturbed(cls, nu) -> "CompanionSystem":
        """a = (0, nu - 2, nu - 4)/x + (1, 2, 0)/x^2: irregular at the origin."""
        return cls(np.zeros(2, dtype=complex), np.array([1, 2]),
                   np.array([(0, 1), (nu - 2, 2), (nu - 4, 0)], dtype=complex), 1.0)

    def matrix(self, x) -> np.ndarray:
        """A(x) at a point, or the (m, 3, 3) stack of A at the m points of a 1-D array."""
        xs = np.atleast_1d(x)
        terms = (xs - self.poles[:, None]) ** -self.powers[:, None]  # J x m
        a = np.zeros((xs.size, 3, 3), dtype=complex)
        # einsum, not matmul: BLAS rounds a stack of points differently from a single one
        a.reshape(-1, 9)[:, ::4] = np.einsum("kj,jm->mk", self.weights, terms)
        a[:, 0, 1] = a[:, 1, 2] = 1.0
        return a if np.ndim(x) else a[0]

    def singularities(self) -> tuple:
        return tuple(complex(p) for p in np.unique(self.poles))

    def clearance(self) -> float:
        return CLEARANCE_FACTOR * self.scale


@dataclass(frozen=True)
class MonodromyReport:
    """Numerical monodromy with its frame-independent comparison data."""

    M_numeric: np.ndarray
    eigenvalues_numeric: tuple
    eigenvalues_closed: tuple
    log_detected: bool
    max_invariant_error: float


def integrate_path(system: CompanionSystem, path: ContourPath, y0, tol: float = 1e-9) -> np.ndarray:
    """Transport the fundamental matrix along ``path`` (local error <= tol
    per step, embedded 5(4) pair with a PI step controller)."""
    y = as_matrix3(y0).astype(complex)
    inverse3(y)  # rejects non-invertible initial data
    clearance = system.clearance()
    for sing in system.singularities():
        if path.min_distance(sing) < clearance:
            raise PathError(
                f"path passes within {path.min_distance(sing):.3e} of the singular point {sing}"
            )
    for segment in path:
        y = _integrate_segment(system, segment, y, tol)
    return y


def _integrate_segment(system: CompanionSystem, segment, y: np.ndarray, tol: float) -> np.ndarray:
    # dY/ds = v(s) A(x(s)) Y: stage i keeps A(x_i) Y_i in k[i] and the velocity v_i in
    # v[i], and the tableau rows, scaled by h v, absorb the velocities
    s = 0.0
    h = 0.05
    err_prev = 1.0
    k = np.empty((7, 3, 3), dtype=complex)
    k_rows = k.reshape(7, 9)
    k_stages = list(k)
    v = np.empty(7, dtype=complex)
    v[0] = segment.velocity(0.0)
    np.matmul(system.matrix(segment.point(0.0)), y, out=k[0])
    for _ in range(_MAX_STEPS):
        if s >= 1.0:
            return y
        h = min(h, 1.0 - s)
        if h < 1e-12:
            raise StepUnderflowError(f"step size underflow at s = {s:.6f} on {segment}")
        nodes = s + h * _DP_C
        a = system.matrix(segment.point(nodes))
        v[1:6] = segment.velocity(nodes)
        v[6] = v[5]
        hv = h * v
        tableau = _DP_A * hv[:6]
        for i in range(1, 7):
            y_stage = y + np.dot(tableau[i, :i], k_rows[:i]).reshape(3, 3)
            np.matmul(a[_DP_NODE[i]], y_stage, out=k_stages[i])
        err = max_abs(np.dot(_DP_E * hv, k_rows)) / max(1.0, max_abs(y_stage))
        if err <= tol:
            s += h
            y = y_stage
            k[0] = k[6]  # first-same-as-last: y_stage was y5, the last stage's argument
            v[0] = v[6]
            factor = 0.9 * (tol / max(err, 1e-300)) ** 0.2 * (err_prev / tol) ** 0.04
            err_prev = max(err, 1e-300)
            h *= min(5.0, max(0.2, factor))
        else:
            h *= max(0.1, 0.9 * (tol / err) ** 0.25)
    raise ToleranceError("step budget exhausted before reaching the end of the segment")


def _match_eigenvalues(numeric, closed):
    """Optimal assignment (exhaustive for n = 3) of numeric to closed
    eigenvalues; returns (max matched distance, numeric tuple reordered)."""
    best_err = math.inf
    best_order = None
    for perm in itertools.permutations(range(3)):
        err = max(abs(numeric[perm[i]] - closed[i]) for i in range(3))
        if err < best_err:
            best_err = err
            best_order = perm
    return best_err, tuple(numeric[i] for i in best_order)


def _repeated_groups(closed):
    """[(value, multiplicity)] for eigenvalues repeated within 1e-8."""
    groups = []
    for v in closed:
        for i, (w, m) in enumerate(groups):
            if abs(v - w) < _EIG_GROUP_TOL:
                groups[i] = (w, m + 1)
                break
        else:
            groups.append((v, 1))
    return [(v, m) for v, m in groups if m >= 2]


def detect_log_structure(m, closed_eigenvalues, rtol: float = JORDAN_RTOL) -> bool:
    """True when M is non-semisimple at a repeated eigenvalue.

    A semisimple eigenvalue of multiplicity k leaves rank(M - lambda I) at
    3 - k; the (3-k)-th singular value rising above rtol * scale flags a
    Jordan block.  Rank is conjugation invariant, so the test works in the
    numerical frame.
    """
    m = as_matrix3(m)
    scale = max(1.0, max_abs(m))
    for value, mult in _repeated_groups(closed_eigenvalues):
        sv = np.linalg.svd(m - value * np.eye(3), compute_uv=False)
        if sv[3 - mult] > rtol * scale:
            return True
    return False


def _build_report(m, closed, det_closed) -> MonodromyReport:
    numeric = tuple(np.linalg.eigvals(m))
    err_eig, ordered = _match_eigenvalues(numeric, closed)
    err_det = abs(np.linalg.det(m) - det_closed) / max(1.0, abs(det_closed))
    return MonodromyReport(
        M_numeric=m,
        eigenvalues_numeric=ordered,
        eigenvalues_closed=tuple(closed),
        log_detected=detect_log_structure(m, closed),
        max_invariant_error=float(max(err_eig, err_det)),
    )


def _stiffness_guard(params: PerturbParams, allow_stiff: bool) -> None:
    if 1.0 / params.sqrt_eps > STIFFNESS_LIMIT and not allow_stiff:
        raise GuardError(f"1/sqrt(eps) = {1.0 / params.sqrt_eps:.3f} exceeds the stiffness guard {STIFFNESS_LIMIT}")


def loop_around(params: PerturbParams, which: str) -> ContourPath:
    """The standard loops based at x0 = 0: a circle of radius sqrt(eps)
    around x_R starting at angle pi, or around x_L starting at angle 0."""
    s = params.sqrt_eps
    if which == "R":
        return circle(params.x_R, s, angle_start=math.pi)
    if which == "L":
        return circle(params.x_L, s, angle_start=0.0)
    raise ValueError("which must be 'L' or 'R'")


def closed_loop_eigenvalues(params: PerturbParams, which: str) -> tuple:
    """Eigenvalue multiset {e^{2 pi i rho_1}, e^{2 pi i (rho_2 - 1)},
    e^{2 pi i (rho_3 - 2)}} of the closed-form monodromy at side ``which``."""
    e = characteristic_exponents(params)
    rho = e.rho_R if which == "R" else e.rho_L
    return tuple(cmath.exp(2j * math.pi * (rho[k] - k)) for k in range(3))


def numerical_monodromy(params: PerturbParams, which: str, tol: float = 1e-9,
                        allow_stiff: bool = False) -> MonodromyReport:
    """Monodromy of the identity-normalized solution at x0 = 0 around the
    requested singular point, with conjugacy-invariant comparison data.

    Refuses 1/sqrt(eps) > 12 unless ``allow_stiff``: beyond that the local
    exponents drive the dynamic range on the loop past what double
    precision tracks reliably.
    """
    _stiffness_guard(params, allow_stiff)
    cls = classify_resonance(params)
    if cls not in (ResonanceClass.B, ResonanceClass.C):
        raise ResonanceError(f"closed-form comparison needs class B or C, got {cls.value}")
    system = CompanionSystem.perturbed(params)
    m = integrate_path(system, loop_around(params, which), identity3(), tol)
    closed = closed_loop_eigenvalues(params, which)
    det_closed = closed[0] * closed[1] * closed[2]
    return _build_report(m, closed, det_closed)


def expected_log_flag(params: PerturbParams, which: str) -> bool:
    """Whether the closed forms predict a logarithm (d != 0) at this side."""
    res = residues(params)
    d = res.d_R3 if which == "R" else res.d_L2
    return abs(d) > 1e-12


def unperturbed_monodromy(nu, radius: float = 1.0, tol: float = 1e-9) -> MonodromyReport:
    """Loop of the given radius around the origin of the unperturbed
    equation, compared against the closed-form monodromy there."""
    if not 0.5 <= radius <= 2.0:
        raise ValueError("radius must lie in [0.5, 2]")
    system = CompanionSystem.unperturbed(nu)
    m = integrate_path(system, circle(0.0, radius), identity3(), tol)
    m0 = monodromy_origin(nu)
    closed = tuple(np.diag(m0))  # triangular, eigenvalues on the diagonal
    det_closed = closed[0] * closed[1] * closed[2]
    return _build_report(m, closed, det_closed)


def composed_loop_matrix(params: PerturbParams, tol: float = 1e-9,
                         allow_stiff: bool = False) -> np.ndarray:
    """Continuation around gamma_R followed by gamma_L from the same base
    point; its eigenvalues match those of the closed-form inverse monodromy
    at infinity."""
    _stiffness_guard(params, allow_stiff)
    system = CompanionSystem.perturbed(params)
    path = concat(loop_around(params, "R"), loop_around(params, "L"))
    return integrate_path(system, path, identity3(), tol)
