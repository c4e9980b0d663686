"""Independent verification engine: Taylor-series continuation of the companion
3x3 system along contour paths, and numerical monodromy compared
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

from .errors import GuardError, PathError, ToleranceError
from .mat3 import as_matrix3, identity3, invertible_det3, max_abs
from .paths import ContourPath, circle
from .perturbed import (
    PerturbParams,
    _partial_fraction_weights,
    _side_column,
    characteristic_exponents,
    resonance_index,
    residues,
)
from .unperturbed import exponent_diagonals, monodromy_origin

STIFFNESS_LIMIT = 12.0
CLEARANCE_FACTOR = 1e-3
JORDAN_RTOL = 1e-4
_EIG_GROUP_TOL = 1e-8
# Taylor steps |t| <= _STEP_RATIO r sample A at _CAUCHY_POINTS points of the circle of
# radius _SAMPLE_RATIO r about their centre, and the series stops by _CAUCHY_POINTS terms
_STEP_RATIO = 0.3
_SAMPLE_RATIO = 0.6
_CAUCHY_POINTS = 64
_POWERS = np.arange(_CAUCHY_POINTS)
_UNIT_ROOTS = np.exp(2j * np.pi * _POWERS / _CAUCHY_POINTS)
# row l of _DFT maps A at the sample points to its l-th coefficient (Cauchy's formula)
_DFT = np.conj(_UNIT_ROOTS[np.outer(_POWERS, _POWERS) % _CAUCHY_POINTS]) / _CAUCHY_POINTS


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
        """(x^2 - eps) a = Lambda x + Q as a_k = w_R/(x - x_R) + w_L/(x - x_L)."""
        return cls(np.array([params.x_R, params.x_L], dtype=complex), np.array([1, 1]),
                   np.array(_partial_fraction_weights(params), dtype=complex), params.sqrt_eps)

    @classmethod
    def unperturbed(cls, nu) -> "CompanionSystem":
        """x^2 a = Lambda x + Q as a = Lambda/x + Q/x^2: irregular at the origin."""
        return cls(np.zeros(2, dtype=complex), np.array([1, 2]), np.transpose(exponent_diagonals(nu)), 1.0)

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
    """Transport the fundamental matrix along ``path`` by Taylor-series continuation.

    Steps t_j from centres c_j have |t_j| <= 0.3 r_j, r_j the distance from c_j to the
    nearest singularity (the segment length when there is none).  One ``system.matrix``
    call samples A on 64 points of the circle of radius 0.6 r_j about every centre, whose
    DFT gives A's Taylor coefficients there.  (m+1) Y_{m+1} = sum_l A_l Y_{m-l} then runs
    for all steps at once until, for every step j, two consecutive terms fall below
    tol * max(1, |Phi_j|), so ``tol`` bounds each step's truncation, not the transported
    matrix: at nu = 1/2, sqrt(eps) = 1/4, a path passing 3 clearances from x_R (weight
    -1.75) is off by 1.2e-3 relative at tol 1e-9.  The rule is the same for every step,
    but it is evaluated on one step first: the all-steps test runs only after a term at
    which that step passed twice in a row, and a step that fails it becomes the one
    watched.  Each term is one broadcast product of contiguous slices,
    (n, 3, 1, 3(m+1)) @ (n, 1, 3(m+1), 3) for n steps, written into its slot: row i of
    t A_l t^l for l < 64 lies side by side in d[j, i, 0], and the terms Y_m t^m so far
    are stacked newest first at the end of terms[j, 0].  Raises SingularMatrixError when
    ``y0`` fails the determinant rule of ``invertible_det3``; PathError by the clearance
    rule of ``_steps`` (a path of zero length returns ``y0``); ToleranceError, naming the
    segment, by the decay test of ``_taylor_coefficients`` or when a series has not
    converged by 64 terms; ValueError unless tol > 0.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    y = as_matrix3(y0).astype(complex)
    invertible_det3(y)  # rejects non-invertible initial data
    c, t, r, segments = _steps(path, system.singularities(), system.clearance())
    if not segments:  # a path of zero length
        return y
    rho = _SAMPLE_RATIO * r
    n, k = len(c), _CAUCHY_POINTS
    # d[j, i, 0, 3l:3l+3] is row i of t A_l t^l about centre j, and terms[j, 0, 3(k-m):3(k-m+1)]
    # is Y_m t^m, so that sum_l (t A_l t^l)(Y_{m-l} t^{m-l}) is one broadcast product of a
    # 1 x 3(m+1) row by a 3(m+1) x 3 block, both contiguous slices, for every (j, i): numpy
    # runs the stacked (n, 3, 3(m+1)) @ (n, 3(m+1), 3) form as n separate small products
    d = _taylor_coefficients(system, c, rho, tol, segments)
    d *= (t[:, None] * (t / rho)[:, None] ** _POWERS)[:, :, None]
    d = np.ascontiguousarray(d.reshape(n, k, 3, 3).transpose(0, 2, 1, 3)).reshape(n, 3, 1, 3 * k)
    terms = np.empty((n, 1, 3 * (k + 1), 3), dtype=complex)
    terms[:, 0, 3 * k:] = np.eye(3)
    phis = np.empty((2, n, 3, 3), dtype=complex)  # Phi after term m in phis[m % 2]
    phis[1] = np.eye(3)

    def below(m):  # the rule after term m, per step
        term = terms[:, 0, 3 * (k - m - 1):3 * (k - m)]
        return np.abs(term).max(axis=(1, 2)) <= tol * np.maximum(1.0, np.abs(phis[m % 2]).max(axis=(1, 2)))

    def first_open(now, prev):  # the first step not below after term m, else after m - 1
        return int(np.argmin(now)) if not now.all() else int(np.argmin(prev))

    # j is the watched step and ``failed`` the last term at which it failed the rule; the
    # start -1 lets a stop come at m = 1 (tol >= 0.5 can stop there), never at m = 0
    j, failed, cached = 0, -1, (-1, None)
    for m in range(k):
        term = terms[:, 0, 3 * (k - m - 1):3 * (k - m)]
        np.matmul(d[..., :3 * (m + 1)], terms[..., 3 * (k - m):, :], out=term[:, :, None])
        term /= m + 1
        phi = np.add(phis[(m + 1) % 2], term, out=phis[m % 2])
        if not _maybe_below(term[j], phi[j], tol):
            failed = m
        elif failed < m - 1:
            now = below(m)
            prev = cached[1] if cached[0] == m - 1 else below(m - 1)
            if now.all() and prev.all():
                break
            j = first_open(now, prev)
            failed, cached = (m if not now[j] else m - 1), (m, now)
    else:
        j = first_open(below(k - 1), below(k - 2))
        raise ToleranceError(f"Taylor series about {c[j]:.6g} has not converged to tol = {tol:g} "
                             f"in {_CAUCHY_POINTS} terms on {segments[j]}")
    for step in phi:
        y = step @ y
    return y


def _maybe_below(term, phi, tol: float) -> bool:
    """Whether one step's term may be below tol * max(1, |Phi|), with CPython's abs; numpy's
    complex abs differs from it by up to 2 ulp, so a relative slack of 1e-12 keeps this
    from rejecting what the all-steps rule accepts."""
    bound = tol * max(1.0, max(map(abs, phi.ravel().tolist())))
    return max(map(abs, term.ravel().tolist())) <= (1.0 + 1e-12) * bound


def _taylor_coefficients(system, c, rho, tol: float, segments) -> np.ndarray:
    """A_l rho^l, l < 64, about every centre as an (n, 64, 9) array: the DFT of A on the
    circles.  An unreported pole inside a circle aliases onto the last two; a reported
    double pole, at 1/0.6 of the circle's radius, leaves ~(l + 1) 0.6^l of A there."""
    samples = system.matrix((c[:, None] + rho[:, None] * _UNIT_ROOTS).ravel())
    samples = np.reshape(samples, (len(c), _CAUCHY_POINTS, 9))
    coeffs = _DFT @ samples
    tail = np.abs(coeffs[:, -2:]).max(axis=(1, 2))
    aliased = np.flatnonzero(tail > tol * np.abs(samples).max(axis=(1, 2)))
    if aliased.size:
        j = aliased[0]
        raise ToleranceError(f"Taylor coefficients of A about {c[j]:.6g} have not decayed below tol = {tol:g} on "
                             f"{segments[j]}: either the system does not report a singular point inside the sampling "
                             f"circle, or A's coefficients decay too slowly for {_CAUCHY_POINTS} terms at this tol")
    return coeffs


def _steps(path: ContourPath, singular, clearance: float) -> tuple:
    """Arrays of the centres c_j, steps t_j and radii r_j, and the segment of each step;
    each step runs an arc length 0.3 r_j on from its centre.  PathError at a centre within
    ``clearance`` of a singular point: accepted steps keep more than 0.7 clearance away, so a
    path is refused somewhere within [0.7, 1] clearance, and one through a singular point
    after finitely many steps, as r_j shrinks at least 0.7-fold per step toward it."""
    centres, ends, radii, segments = [], [], [], []
    for segment in path:
        length = segment.length
        s = 0.0
        x = complex(segment.point(0.0))
        while length and s < 1.0:
            r = min((abs(x - p) for p in singular), default=length)
            if r <= clearance and singular:
                near = min(singular, key=lambda p: abs(x - p))
                raise PathError(f"path passes within {r:.3e} of the singular point {near}")
            s = min(1.0, s + _STEP_RATIO * r / length)
            centres.append(x)
            x = complex(segment.point(s))
            ends.append(x)
            radii.append(r)
            segments.append(segment)
    c = np.array(centres)
    return c, np.array(ends) - c, np.array(radii), segments


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


def detect_log_structure(m, closed_eigenvalues) -> bool:
    """True when M is non-semisimple at a repeated eigenvalue.

    A semisimple eigenvalue of multiplicity k leaves rank(M - lambda I) at
    3 - k; the (3-k)-th singular value rising above JORDAN_RTOL * scale flags a
    Jordan block.  Rank is conjugation invariant, so the test works in the
    numerical frame.
    """
    m = as_matrix3(m)
    scale = max(1.0, max_abs(m))
    for value, mult in _repeated_groups(closed_eigenvalues):
        sv = np.linalg.svd(m - value * np.eye(3), compute_uv=False)
        if sv[3 - mult] > JORDAN_RTOL * scale:
            return True
    return False


def _build_report(m, closed) -> MonodromyReport:
    numeric = tuple(np.linalg.eigvals(m))
    err_eig, ordered = _match_eigenvalues(numeric, closed)
    det_closed = closed[0] * closed[1] * closed[2]
    err_det = abs(np.linalg.det(m) - det_closed) / max(1.0, abs(det_closed))
    return MonodromyReport(
        M_numeric=m,
        eigenvalues_numeric=ordered,
        eigenvalues_closed=tuple(closed),
        log_detected=detect_log_structure(m, closed),
        max_invariant_error=float(max(err_eig, err_det)),
    )


def loop_around(params: PerturbParams, which: str) -> ContourPath:
    """The standard loops based at x0 = 0: a circle of radius sqrt(eps)
    around x_R starting at angle pi, or around x_L starting at angle 0."""
    centre, start = ((params.x_R, math.pi), (params.x_L, 0.0))[_side_column(which)]
    return circle(centre, params.sqrt_eps, angle_start=start)


def closed_loop_eigenvalues(params: PerturbParams, which: str) -> tuple:
    """Eigenvalue multiset {e^{2 pi i rho_1}, e^{2 pi i (rho_2 - 1)},
    e^{2 pi i (rho_3 - 2)}} of the closed-form monodromy at side ``which``."""
    e = characteristic_exponents(params)
    rho = (e.rho_R, e.rho_L)[_side_column(which)]
    return tuple(cmath.exp(2j * math.pi * (rho[k] - k)) for k in range(3))


def numerical_monodromy(params: PerturbParams, which: str, tol: float = 1e-9) -> MonodromyReport:
    """Monodromy of the identity-normalized solution at x0 = 0 around the
    requested singular point, with conjugacy-invariant comparison data.

    Before any transport, ResonanceError unless ``resonance_index`` holds (the gate
    of ``residues``), then GuardError for 1/sqrt(eps) > 12, where the local exponents
    drive the dynamic range on the loop past what double precision tracks reliably.
    """
    resonance_index(params)
    if 1.0 / params.sqrt_eps > STIFFNESS_LIMIT:
        raise GuardError(f"1/sqrt(eps) = {1.0 / params.sqrt_eps:.3f} exceeds the stiffness guard {STIFFNESS_LIMIT}")
    m = integrate_path(CompanionSystem.perturbed(params), loop_around(params, which), identity3(), tol)
    return _build_report(m, closed_loop_eigenvalues(params, which))


def expected_log_flag(params: PerturbParams, which: str) -> bool:
    """Whether the closed forms predict a logarithm (d != 0) at this side."""
    j = _side_column(which)  # first, so that a bad side is refused on any params
    res = residues(params)
    return abs((res.d_R3, res.d_L2)[j]) > 1e-12


def unperturbed_monodromy(nu, radius: float = 1.0, tol: float = 1e-9) -> MonodromyReport:
    """Loop of the given radius around the origin of the unperturbed
    equation, compared against the closed-form monodromy there."""
    if not 0.5 <= radius <= 2.0:
        raise ValueError("radius must lie in [0.5, 2]")
    m = integrate_path(CompanionSystem.unperturbed(nu), circle(0.0, radius), identity3(), tol)
    # the closed-form monodromy is triangular, with its eigenvalues on the diagonal
    return _build_report(m, tuple(np.diag(monodromy_origin(nu))))
