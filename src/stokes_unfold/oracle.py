"""Independent verification engine: Taylor-series continuation of the companion
3x3 system q Y' = P Y along contour paths by the recurrence of its polynomial pair,
and numerical monodromy compared with the closed forms through conjugacy invariants
(eigenvalue multisets, determinant, Jordan structure) rather than raw matrices, because
the numerical frame differs from the closed-form solution frame by an unknown constant
conjugation.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, PathError, ToleranceError
from .mat3 import as_matrix3, identity3, invertible_det3, max_abs
from .paths import ContourPath, circle
from .perturbed import (
    PerturbParams,
    _side_column,
    characteristic_exponents,
    resonance_index,
    residues,
)
from .quad import _require_tol
from .unperturbed import exponent_diagonals, monodromy_origin

STIFFNESS_LIMIT = 12.0
CLEARANCE_FACTOR = 1e-3
JORDAN_RTOL = 1e-4
_EIG_GROUP_TOL = 1e-8
# Taylor steps |t| <= _STEP_RATIO r, and every step's series stops by _MAX_TERMS terms
_STEP_RATIO = 0.3
_MAX_TERMS = 64
# The watched step's term passes when max|term_j| <= _RULE_SLACK * tol * max(1, max|Phi_j|),
# with CPython's abs; numpy's complex abs differs from it by up to 2 ulp, so the relative slack
# of 1e-12 keeps this from rejecting what the all-steps rule accepts.  Before Phi_j is read, a
# term above _REACH_SLACK times that bound at the running reach fails it too: max|Phi_j| exceeds
# the reach by no more than the rounding of 64 sums and absolute values, below 1e-13 relative
_RULE_SLACK = 1.0 + 1e-12
_REACH_SLACK = 1.0 + 1e-9
_EYE3 = identity3()
_EYE3.flags.writeable = False


@dataclass(frozen=True, eq=False)
class CompanionSystem:
    """q(x) Y' = P(x) Y for a scalar polynomial q and a 3 x 3 matrix polynomial P, both
    as coefficients in ascending powers of x padded to one length D + 1.  The companion
    systems have D = 2, and A = P/q upper bidiagonal with ones on the superdiagonal.
    """

    q: np.ndarray  # D + 1
    p: np.ndarray  # D + 1 x 3 x 3
    poles: tuple  # the roots of q
    scale: float  # length unit of the clearance around the poles

    @classmethod
    def perturbed(cls, params: PerturbParams) -> "CompanionSystem":
        """q = x^2 - eps and P = Lambda x + Q + q N, N the ones of the superdiagonal."""
        return cls._pair(params.nu, params.sqrt_eps**2, (complex(params.x_L), complex(params.x_R)),
                         params.sqrt_eps)

    @classmethod
    def unperturbed(cls, nu) -> "CompanionSystem":
        """q = x^2 and P = Lambda x + Q + q N: irregular at the origin."""
        return cls._pair(nu, 0.0, (0j,), 1.0)

    @classmethod
    def _pair(cls, nu, eps: float, poles: tuple, scale: float) -> "CompanionSystem":
        lam, q_diag = exponent_diagonals(nu)
        q = np.array([-eps, 0.0, 1.0], dtype=complex)
        p = np.zeros((3, 3, 3), dtype=complex)
        p.reshape(3, 9)[:, 1::4] = q[:, None]  # q N, N the ones of the superdiagonal
        p.reshape(3, 9)[:2, ::4] = q_diag, lam
        return cls(q, p, poles, scale)

    def matrix(self, x) -> np.ndarray:
        """A(x) = P(x)/q(x) at a point, or the (m, 3, 3) stack of A at the m points of a 1-D
        array; elementwise Horner steps, so a stack rounds as its points one by one."""
        xs = np.atleast_1d(x)[:, None, None]
        p, q = self.p[-1], self.q[-1]
        for pk, qk in zip(self.p[-2::-1], self.q[-2::-1]):
            p, q = p * xs + pk, q * xs + qk
        a = p / q
        return a if np.ndim(x) else a[0]


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
    nearest singularity (the segment length when there is none).  About c_j the Taylor
    coefficients of q Y' = P Y obey a recurrence of order D, the pair's degree: with
    Z_m = Y_m t_j^m, P~_i = P_i(c_j) t_j^(i+1) and q~_i = q_i(c_j) t_j^i in powers of x - c_j,
    q~_0 (m+1) Z_{m+1} = sum_{i<=D} P~_i Z_{m-i} - sum_{1<=i<=D} q~_i (m+1-i) Z_{m+1-i}.
    It runs for all steps at once until, for every step j, two consecutive terms fall
    below tol * max(1, |Phi_j|), so ``tol`` bounds each step's truncation, not the
    transported matrix: at nu = 1/2, sqrt(eps) = 1/4, a path passing 3 clearances from x_R
    (weight -1.75) is off by 1.2e-3 relative at tol 1e-9.  The rule is the same for every
    step, but it is evaluated on one watched step first: the all-steps test runs after
    each term that this step passes, its first failing step becomes the one watched, and
    one flag keeps whether every step passed after the previous term; a refusal at the
    term cap names the watched step.  The watched step's term is first held against a
    running bound on |Phi_j|, its last exact read plus the largest entries of the terms
    added since, and Phi_j is read only when the term could pass; a term above the bound
    fails the exact rule too, so the loop stops where testing every step after every term
    would.
    Beside Z_m the loop keeps W_m = m Z_m, so that each term costs the same: W_{m+1} is
    one broadcast product of contiguous slices, the rows of ``_recurrence_rows`` by the
    last D + 1 pairs (Z, W), and Z_{m+1} = W_{m+1}/(m+1).  Raises
    SingularMatrixError when ``y0`` fails the determinant rule of ``invertible_det3``;
    PathError by the clearance rule of ``_steps`` (a path of zero length returns ``y0``);
    ToleranceError, naming the segment, when a series has not converged by 64 terms (past
    the stiffness guard, or where a step nears a singular point that the system does not
    report); ValueError unless 0 < tol < 1, since a relative bound of 1 or more lets a
    step's truncation be as large as the step's own transport.
    """
    _require_tol(tol)
    if tol >= 1.0:
        raise ValueError(f"tol must be below 1, got {tol}: a step's truncation may otherwise "
                         f"be as large as the step's transport")
    y = as_matrix3(y0).astype(complex)
    invertible_det3(y)  # rejects non-invertible initial data
    c, t, r, segments = _steps(path, system.poles, CLEARANCE_FACTOR * system.scale)
    if not segments:  # a path of zero length
        return y
    rows = _recurrence_rows(system, c, t)
    n, k, width = len(c), _MAX_TERMS, rows.shape[-1]
    # zw[j, 0, 6(k-m):6(k-m)+6] is Z_m over W_m about centre j, newest first, so that the last
    # D + 1 pairs are the contiguous ``width`` rows from Z_m on; a row is written before it is
    # read, but for Z_0 = I, W_0 = 0 and the zero pairs m < 0 in the last ``width`` rows.
    # numpy runs the stacked (n, 3, width) @ (n, width, 3) form as n separate small products
    zw = np.empty((n, 1, 6 * k + width, 3), dtype=complex)
    zw[:, 0, 6 * k:] = 0.0
    zw[:, 0, 6 * k:6 * k + 3] = _EYE3
    phi = np.zeros((n, 3, 1, 3), dtype=complex)  # Phi after the terms so far, shaped as a term
    phi.reshape(n, 9)[:, ::4] = 1.0
    # j is the watched step, ``settled`` says that every step met the rule after the previous
    # term; its start False lets a stop come at m = 1 (tol >= 0.5 can), never at m = 0.
    # ``reach`` bounds max|Phi_j|: the last exact read plus the largest |entry| of each term since
    j, settled, reach = 0, False, 1.0
    rule, reject = _RULE_SLACK * tol, _REACH_SLACK * _RULE_SLACK * tol
    for m in range(k):
        at = 6 * (k - m)
        term, w = zw[:, 0, at - 6:at - 3, None], zw[:, 0, at - 3:at, None]
        np.matmul(rows, zw[..., at:at + width, :], out=w)
        np.divide(w, m + 1, out=term)
        phi += term
        size = max(map(abs, term[j].ravel().tolist()))
        reach += size
        if size > reject * max(reach, 1.0):  # fails the rule whatever Phi_j is
            settled = False
            continue
        reach = max(map(abs, phi[j].ravel().tolist()))
        if not size <= rule * max(1.0, reach):
            settled = False
            continue
        below = np.abs(term).max(axis=(1, 2, 3)) <= tol * np.maximum(1.0, np.abs(phi).max(axis=(1, 2, 3)))
        if settled and below.all():
            break
        settled = below.all()
        if not settled:
            j, reach = int(np.argmin(below)), math.inf
    else:
        raise ToleranceError(f"Taylor series about {c[j]:.6g} has not converged to tol = {tol:g} "
                             f"in {_MAX_TERMS} terms on {segments[j]}")
    for step in phi[:, :, 0]:
        y = step @ y
    return y


@functools.cache
def _shift_table(d: int) -> tuple:
    """C(l, i) and the powers max(l - i, 0) for i, l = 0..d, the degree's part of the shift."""
    i = np.arange(d + 1)
    comb, power = np.array([[math.comb(l, k) for l in i] for k in i]), np.maximum(i - i[:, None], 0)
    comb.flags.writeable = power.flags.writeable = False
    return comb, power


def _recurrence_rows(system, c, t) -> np.ndarray:
    """The recurrence about every centre as an (n, 3, 1, 6(D+1)) array: row i of the map
    from the pairs (Z_{m-b}, W_{m-b}), b = 0..D side by side, to q~_0 W_{m+1}, divided by
    q~_0.  Block b holds row i of P~_b and -q~_{b+1} at column i (q~_{D+1} = 0)."""
    n, d = len(c), len(system.q) - 1
    comb, power = _shift_table(d)
    # shift[j, i, l] = C(l, i) c_j^(l-i) takes coefficients in x to those in x - c_j; all
    # centres as one (n(D+1), D+1) matrix, so that each product below is a single call
    shift = (comb * c[:, None, None] ** power).reshape(-1, d + 1)
    t_powers = t[:, None] ** np.arange(d + 2)
    q = (shift @ system.q).reshape(n, d + 1) * t_powers[:, :-1]
    p = (shift @ system.p.reshape(d + 1, 9)).reshape(n, d + 1, 9) * t_powers[:, 1:, None]
    rows = np.zeros((n, 3, d + 1, 2, 3), dtype=complex)
    rows[:, :, :, 0] = p.reshape(n, d + 1, 3, 3).transpose(0, 2, 1, 3)
    rows[:, :, :-1, 1] = -q[:, None, 1:, None] * _EYE3[:, None]
    rows /= q[:, 0, None, None, None, None]
    return rows.reshape(n, 3, 1, 6 * (d + 1))


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
    dist = [[abs(v - w) for v in numeric] for w in closed]
    best_err = math.inf
    best_order = None
    for perm in itertools.permutations(range(3)):
        err = max(dist[0][perm[0]], dist[1][perm[1]], dist[2][perm[2]])
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
        sv = np.linalg.svd(m - value * _EYE3, compute_uv=False)
        if sv[3 - mult] > JORDAN_RTOL * scale:
            return True
    return False


def _build_report(m, closed) -> MonodromyReport:
    numeric = tuple(np.linalg.eigvals(m).tolist())
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
