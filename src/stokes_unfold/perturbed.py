"""The perturbed Fuchsian equation, (x^2 - eps) a = Lambda x + Q in the notation of
``unperturbed``, with singular points at +-sqrt(eps).

Covers the rational coefficients and their scalar expansion, characteristic
exponents and indicial data at the three singular points, the resonance
classification, the residue coefficients that gate logarithmic terms, the
monodromy matrices at a logarithmic resonance, and the unfolded Stokes
matrices.  Closed forms hold in the two resonance families where
n = 1/(2 sqrt(eps)) - nu/2 is a non-negative integer; everything else
raises ResonanceError.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BranchCutError,
    DivergentIntegralError,
    DoubleRangeError,
    OrdinaryPointError,
    PathError,
    ResonanceError,
    SingularPointError,
)
from .gammas import log_gamma_ratio, reciprocal_gamma
from .mat3 import exp_first_row_nilpotent, max_abs
from .quad import integrate_chain
from .unperturbed import exponent_diagonals

INTEGRALITY_TOL = 1e-9
_SINGULARITY_MARGIN = 1e-12
_RESIDUE_NODES = 4096
_LOG_DBL_MIN, _LOG_DBL_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


class ResonanceClass(Enum):
    B = "B"
    C = "C"
    D = "D"
    OTHER_RESONANT = "other-resonant"
    NON_RESONANT = "non-resonant"


class SingularPoint(Enum):
    XL = "xL"
    XR = "xR"
    INFINITY = "infinity"


class OffDiagonal(Enum):
    PHI12 = "phi12"
    PHI13 = "phi13"


class ResidueKind(Enum):
    L2 = "L2"
    R3 = "R3"


@dataclass(frozen=True)
class PerturbParams:
    """Parameter pair (nu, sqrt(eps)) with 0 < sqrt(eps) < 1."""

    nu: complex
    sqrt_eps: float

    def __post_init__(self):
        object.__setattr__(self, "nu", complex(self.nu))
        object.__setattr__(self, "sqrt_eps", float(self.sqrt_eps))
        if not (0.0 < self.sqrt_eps < 1.0):
            raise ValueError("sqrt_eps must lie in (0, 1); the unperturbed equation is a separate object")

    @classmethod
    def from_resonant_index(cls, nu, n: int) -> "PerturbParams":
        """Parameters on the resonant sequence 1/sqrt(eps) = nu + 2 n."""
        nu = complex(nu)
        if nu.imag != 0.0:
            raise ValueError("resonant sequences are defined for real nu")
        scale = nu.real + 2.0 * n
        if scale <= 1.0:
            raise ValueError(f"nu + 2 n = {scale} must exceed 1")
        return cls(nu, 1.0 / scale)

    @property
    def x_L(self) -> float:
        return -self.sqrt_eps

    @property
    def x_R(self) -> float:
        return self.sqrt_eps


@dataclass(frozen=True)
class ExponentData:
    """Characteristic exponents at x_R, x_L, infinity and their differences."""

    rho_R: tuple
    rho_L: tuple
    rho_inf: tuple
    delta_R21: complex
    delta_L21: complex
    delta_R32: complex
    delta_L32: complex
    delta_R31: complex
    delta_L31: complex


@dataclass(frozen=True)
class ResidueData:
    """Log-term coefficients and the nilpotent matrices built from them."""

    d_L2: complex
    d_R3: complex
    T_L: np.ndarray
    T_R: np.ndarray
    d_R2: complex = 0j
    d_L3: complex = 0j


def characteristic_exponents(params: PerturbParams) -> ExponentData:
    return exponent_data(params.nu, params.sqrt_eps)


def exponent_data(nu, sqrt_eps: float) -> ExponentData:
    """Exponents at x_R = sqrt_eps, x_L = -sqrt_eps and infinity for a signed sqrt_eps;
    flipping its sign relabels the two singular points."""
    h = 1.0 / (2.0 * sqrt_eps)
    rho_r = (h, nu / 2.0 + 2.0 * h, nu / 2.0)
    rho_l = (-h, nu / 2.0 - 2.0 * h, nu / 2.0)
    rho_inf = (0j, 1.0 - nu, 2.0 - nu)
    d_r21 = nu / 2.0 + h
    d_l21 = nu / 2.0 - h
    return ExponentData(
        rho_R=rho_r,
        rho_L=rho_l,
        rho_inf=rho_inf,
        delta_R21=d_r21,
        delta_L21=d_l21,
        delta_R32=-2.0 * h,
        delta_L32=2.0 * h,
        delta_R31=d_l21,
        delta_L31=d_r21,
    )


def _check_off_singularities(params: PerturbParams, x: complex) -> None:
    if min(abs(x - params.x_R), abs(x - params.x_L)) < _SINGULARITY_MARGIN:
        raise SingularPointError(f"x = {x} is a singular point of the equation")


def _partial_fraction_weights(params: PerturbParams):
    """Weights (w_R, w_L) of a_k(x) = w_R/(x-x_R) + w_L/(x-x_L), k = 1, 2, 3: the residues
    w_j = (Lambda + Q/x_j)/2 of (Lambda x + Q)/(x^2 - eps) at x_j."""
    lam, q = exponent_diagonals(params.nu)
    return [((l + c / params.x_R) / 2.0, (l + c / params.x_L) / 2.0) for l, c in zip(lam, q)]


def scalar_form_coefficients(params: PerturbParams, x) -> tuple:
    """(c2, c1, c0) of the expanded scalar equation y''' + c2 y'' + c1 y' + c0 y = 0.

    Obtained by composing the three first-order factors; with each factor
    d/dx - a_k the expansion is
      c2 = -(a1 + a2 + a3)
      c1 = a1 a2 + a1 a3 + a2 a3 - 2 a1' - a2'
      c0 = a1' a2 + a1 a2' - a1'' + a3 a1' - a1 a2 a3.
    """
    x = complex(x)
    _check_off_singularities(params, x)
    u_r, u_l = 1.0 / (x - params.x_R), 1.0 / (x - params.x_L)
    # a_k, -a_k' and a_k''/2: the sums of w_j u_j, w_j u_j^2 and w_j u_j^3
    a, da, dda = ([wr * u_r**o + wl * u_l**o for wr, wl in _partial_fraction_weights(params)] for o in (1, 2, 3))
    return _compose(a[0], -da[0], 2.0 * dda[0], a[1], -da[1], a[2])


def _compose(a1, a1p, a1pp, a2, a2p, a3) -> tuple:
    """(c2, c1, c0) of the composed factors from a_k and their derivatives."""
    c2 = -(a1 + a2 + a3)
    c1 = a1 * a2 + a1 * a3 + a2 * a3 - 2.0 * a1p - a2p
    c0 = a1p * a2 + a1 * a2p - a1pp + a3 * a1p - a1 * a2 * a3
    return c2, c1, c0


def infinity_form_coefficients(params: PerturbParams, t) -> tuple:
    """Normalized coefficients of the equation after x = 1/t, used for the
    indicial data at infinity."""
    t = complex(t)
    if t == 0:
        raise SingularPointError("t = 0 must be approached by a limit")
    return _invert(scalar_form_coefficients(params, 1.0 / t), t)


def _invert(c, t) -> tuple:
    """Coefficients at t of the equation after x = 1/t, from its (c2, c1, c0) at x = 1/t."""
    c2, c1, c0 = c
    return 6.0 / t - c2 / t**2, 6.0 / t**2 - 2.0 * c2 / t**3 + c1 / t**4, -c0 / t**6


def _near_integer(v, tol: float = INTEGRALITY_TOL) -> bool:
    v = complex(v)
    return abs(v.imag) <= tol and abs(v.real - round(v.real)) <= tol


def classify_resonance(params: PerturbParams) -> ResonanceClass:
    """Resonance type from the integrality pattern of the exponent differences.

    B: both delta_R21 and delta_L21 integral; C: only delta_L21; D: only
    delta_R21.  Any remaining integral difference (necessarily one of the
    +-1/sqrt(eps) pair) is OTHER_RESONANT.
    """
    e = characteristic_exponents(params)
    r21 = _near_integer(e.delta_R21)
    l21 = _near_integer(e.delta_L21)
    if r21 and l21:
        return ResonanceClass.B
    if l21:
        return ResonanceClass.C
    if r21:
        return ResonanceClass.D
    if _near_integer(e.delta_L32):
        return ResonanceClass.OTHER_RESONANT
    return ResonanceClass.NON_RESONANT


def resonance_index(params: PerturbParams) -> int:
    """n = 1/(2 sqrt(eps)) - nu/2, validated as a non-negative integer."""
    val = 1.0 / (2.0 * params.sqrt_eps) - params.nu / 2.0
    if not _near_integer(val) or round(val.real) < 0:
        raise ResonanceError(
            f"1/(2 sqrt_eps) - nu/2 = {val} is not a non-negative integer; "
            "no logarithmic closed forms apply"
        )
    return int(round(val.real))


def indicial_roots(params: PerturbParams, point: SingularPoint) -> tuple:
    """Roots of the indicial cubic at the requested singular point.

    The cubic coefficients b_i = lim c_i(x) (x - x_j)^{3-i} are exact: near x_j,
    a_k ~ w_k/(x - x_j), so a_k, a_k', a_k'' lead with w_k, -w_k, 2 w_k; at infinity
    a_k ~ Lambda_k/x, an Euler equation, which x = 1/t maps to its value at t = 1.
    The roots, ordered to align with the closed-form exponent tuple, are within 2e-13
    of them on seeded sweeps of (nu, sqrt_eps), 1/sqrt_eps in [1.5, 8], some nu complex.
    """
    if point is SingularPoint.INFINITY:
        if _near_integer(params.nu) and round(params.nu.real) == 0:
            raise OrdinaryPointError("infinity is an ordinary point when nu = 0")
        w = exponent_diagonals(params.nu)[0]
    else:
        side = 0 if point is SingularPoint.XR else 1
        w = [pair[side] for pair in _partial_fraction_weights(params)]
    b = _compose(w[0], -w[0], 2.0 * w[0], w[1], -w[1], w[2])
    if point is SingularPoint.INFINITY:
        b = _invert(b, 1.0)
    b2, b1, b0 = b
    roots = np.roots([1.0, b2 - 3.0, 2.0 - b2 + b1, b0])
    e = characteristic_exponents(params)
    target = {
        SingularPoint.XR: e.rho_R,
        SingularPoint.XL: e.rho_L,
        SingularPoint.INFINITY: e.rho_inf,
    }[point]
    ordered = []
    pool = list(roots)
    for t in target:
        j = int(np.argmin([abs(r - t) for r in pool]))
        ordered.append(complex(pool.pop(j)))
    return tuple(ordered)


def diagonal_solutions(params: PerturbParams, x) -> tuple:
    """Diagonal entries Phi1, Phi2, Phi3 and the closed-form Phi23.

    Factorwise principal branches of (x - x_R)^a (x - x_L)^b, so the cuts
    run along (-inf, x_R] and (-inf, x_L]; evaluation on a cut raises.
    """
    x = complex(x)
    s = params.sqrt_eps
    if abs(x.imag) < _SINGULARITY_MARGIN and x.real <= s + _SINGULARITY_MARGIN:
        raise BranchCutError(f"x = {x} lies on a branch cut of the diagonal solutions")
    lr = cmath.log(x - s)
    ll = cmath.log(x + s)
    return _diag_from_logs(params, lr + ll, lr - ll)


def _real_axis_diag(params: PerturbParams, x: float) -> tuple:
    """Diagonal entries on the real trajectories |x| > sqrt(eps), using the
    real positive determination of (x^2 - eps)^p and of the factor ratio."""
    s = params.sqrt_eps
    if abs(x) <= s:
        raise SingularPointError("real-axis determination needs |x| > sqrt(eps)")
    log_q = math.log(x * x - s * s)
    log_ratio = math.log((x - s) / (x + s)) if x > s else math.log((s - x) / (-x - s))
    return _diag_from_logs(params, log_q, log_ratio)


def _diag_from_logs(params: PerturbParams, log_q, log_ratio) -> tuple:
    """(Phi1, Phi2, Phi3, Phi23) from the chosen logarithms of
    q = (x - x_R)(x - x_L) and of the ratio (x - x_R)/(x - x_L)."""
    nu = params.nu
    z = 1.0 / (2.0 * params.sqrt_eps)
    phi1 = cmath.exp(z * log_ratio)
    phi2 = cmath.exp(0.5 * (nu - 2.0) * log_q + 2.0 * z * log_ratio)
    phi3 = cmath.exp(0.5 * (nu - 4.0) * log_q)
    phi23 = -0.5 * cmath.exp(0.5 * (nu - 2.0) * log_q)
    return phi1, phi2, phi3, phi23


def ratio_integral_check(a: float, b: float, x: float, tol: float = 1e-10) -> tuple:
    """Quadrature and closed form of int_{-a}^x (s+a)^{b-1}/(s-a)^{b+1} ds
    along the negative real axis, for a > 0, b > 1, x < -a.

    Closed form: -(1/(2ab)) ((x+a)/(x-a))^b.  Substituting tau = -(s+a)
    makes the integrand tau^{b-1} (2a+tau)^{-(b+1)}, real and positive, so
    ``_two_pole_integral`` settles it without branch bookkeeping; ``tol`` is
    relative to span max h, span = |x + a|.  At tol 1e-10 and 1e-12 the quadrature
    is within 1e-13 relative of 40-digit values for a in [1e-3, 1.2], b in
    [1.01, 500] and span up to 100 a, wherever the closed form is a normal double.
    Where the integral's scale H or ((x+a)/(x-a))^b leaves the range of normal
    doubles, DoubleRangeError states its log-magnitude.
    """
    a = float(a)
    b = float(b)
    x = float(x)
    if not (a > 0 and b > 1 and x < -a):
        raise ValueError("need a > 0, b > 1 and x < -a")
    scaled, log_scale = _two_pole_integral(a, b - 1.0, b + 1.0, -(x + a), tol)
    _require_normal_double("integral", log_scale)
    _require_normal_double("closed-form", b * math.log((x + a) / (x - a)))
    quadrature = -scaled * math.exp(log_scale)
    closed = -1.0 / (2.0 * a * b) * ((x + a) / (x - a)) ** b
    return complex(quadrature), complex(closed)


def log_resonant_d_values(nu, n: int) -> tuple[complex, complex]:
    """Closed-form (d_L2, d_R3) at resonance index n.

    Both equal (phase) z^{1-nu} (nu)^{(n)} / n! with z = n + nu/2; the
    phase for d_L2 is e^{i pi (1-nu)}, i.e. the (-z)^{1-nu} branch with
    log(-r) = ln r + i pi, the choice pinned by the confluence limits.
    Non-positive integer nu gives exact zeros once n >= 1 - nu; smaller n
    sit outside the derived closed forms and raise.

    Accuracy, against 50-digit values on every n with nu + 2n > 1: within 1e-13
    relative for |nu| <= 8 and 1e-12 for |nu| <= 50; within 1.9e-14 for the complex nu
    of the tests.
    """
    d_l2, d_r3, _ = log_resonant_d_range(nu, n, n)
    return complex(d_l2[0]), complex(d_r3[0])


def log_resonant_d_range(nu, n_min: int, n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays of d_L2 = e^{i pi (1-nu)} w_n, d_R3 = -w_n/2 (complex) and delta = |w_n - 1/Gamma(nu)|
    (float) for n_min <= n <= n_max, w_n = z^{1-nu} (nu)^{(n)} / n! = R/Gamma(nu) with R from
    gammas.log_gamma_ratio on every row, and delta = |1/Gamma(nu)| |expm1(log R)|.  Against
    50-digit values delta is within 1e-13 relative on the series rows (z >= 8, z > 2 |nu|)
    and 1e-10 on the rows below, for the |nu| <= 8 of the tests (1.0e-11 at nu = 1.99).
    Next to nu = 0 and 2, where R = 1 on every row, delta shrinks with the distance and
    loses relative accuracy in proportion (3.8e-5 at nu = 2 - 1e-9, n = 7).
    """
    nu = complex(nu)
    if n_min < 0:
        raise ResonanceError("resonance index must be >= 0")
    count = n_max - n_min + 1
    if _near_integer(nu) and round(nu.real) <= 0:
        if n_min >= 1 - round(nu.real):
            return np.zeros(count, dtype=complex), np.zeros(count, dtype=complex), np.zeros(count)
        raise ResonanceError(
            "for integer nu <= 0 the closed forms need nu/2 + 1/(2 sqrt_eps) >= 1"
        )
    rg = reciprocal_gamma(nu)
    log_r = log_gamma_ratio(nu, n_min, count)
    if nu.imag or nu.real + 2.0 * n_min <= 0.0:  # R complex: complex nu, or z <= 0 on a row
        w = rg * np.exp(log_r)
        deltas = abs(rg) * np.abs(np.expm1(log_r))
    else:
        # R real: Im log R is pi times the number of negative factors n + nu, so
        # R = cos(Im log R) e^{Re log R} with the cosine exactly +-1
        sign = np.cos(log_r.imag)
        w = rg.real * sign * np.exp(log_r.real)
        deltas = abs(rg.real) * np.abs(sign * np.expm1(log_r.real) + (sign - 1.0))
    phase = cmath.exp(1j * math.pi * (1.0 - nu))
    return phase * w, np.asarray(-0.5 * w, dtype=complex), deltas


def residues(params: PerturbParams) -> ResidueData:
    """Residue data (d values and the nilpotent matrices T_L, T_R).

    Only the logarithmic-resonance classes B and C carry residue closed
    forms; class D and the other patterns produce no logarithmic terms
    and raise ResonanceError.
    """
    cls = classify_resonance(params)
    if cls not in (ResonanceClass.B, ResonanceClass.C):
        raise ResonanceError(f"no logarithmic residue data in resonance class {cls.value}")
    n = resonance_index(params)
    d_l2, d_r3 = log_resonant_d_values(params.nu, n)
    t_l = np.zeros((3, 3), dtype=complex)
    t_l[0, 1] = d_l2
    t_r = np.zeros((3, 3), dtype=complex)
    t_r[0, 2] = d_r3
    return ResidueData(d_L2=d_l2, d_R3=d_r3, T_L=t_l, T_R=t_r)


def residue_numeric_oracle(params: PerturbParams, which: ResidueKind) -> complex:
    """Contour-integral evaluation of the residue coefficients.

    Trapezoid rule with 4096 points on a circle of radius sqrt(eps)/2
    around the relevant singular point.  The pole factor has the integer
    exponent n+1 and winds harmlessly; the other factor's argument is
    tracked continuously around the circle, anchored at -pi on the negative
    real axis, which is the determination matching the Gamma closed forms.
    """
    cls = classify_resonance(params)
    if cls not in (ResonanceClass.B, ResonanceClass.C):
        raise ResonanceError(f"no residue oracle in resonance class {cls.value}")
    n = resonance_index(params)
    s = params.sqrt_eps
    z = 1.0 / (2.0 * s)
    p = z + params.nu / 2.0 - 1.0  # branch-point exponent (integer only in class B)
    if which is ResidueKind.L2:
        center, other, anchor, prefactor = -s, s, -math.pi, 1.0
    elif which is ResidueKind.R3:
        center, other, anchor, prefactor = s, -s, 0.0, -0.5
    else:
        raise ValueError(f"unknown residue kind {which!r}")
    r = s / 2.0
    phi = 2.0 * math.pi * np.arange(_RESIDUE_NODES) / _RESIDUE_NODES
    xs = center + r * np.exp(1j * phi)
    w = xs - other
    ang = np.unwrap(np.angle(w))
    ang += anchor - ang[0]
    outer = np.exp(p * (np.log(np.abs(w)) + 1j * ang))
    inner = (r * np.exp(1j * phi)) ** (-(n + 1))
    total = (r / _RESIDUE_NODES) * np.sum(outer * inner * np.exp(1j * phi))
    return prefactor * complex(total)


def monodromy_exponent_factor(params: PerturbParams, side: str) -> np.ndarray:
    """Diagonal factor exp(pi i (Lambda + Q / x_j)) for side "L" or "R"."""
    lam, q = exponent_diagonals(params.nu)
    x_j = params.x_L if side == "L" else params.x_R
    return np.diag(np.exp(1j * math.pi * (np.array(lam) + np.array(q) / x_j)))


def monodromy_matrices(params: PerturbParams) -> tuple[np.ndarray, np.ndarray]:
    """(M_L, M_R) as products of the diagonal exponent factor and the
    unipotent exponential of 2 pi i T_j.

    At a logarithmic resonance the two factors commute; the commutator is
    verified to 1e-12 as a guard against misuse.
    """
    out = []
    for side, u in zip("LR", unfolded_stokes(params)):
        d = monodromy_exponent_factor(params, side)
        m = d @ u
        if max_abs(m - u @ d) > 1e-12 * max(1.0, max_abs(m)):
            raise ResonanceError("exponent factor and unipotent factor fail to commute")
        out.append(m)
    return out[0], out[1]


def unfolded_stokes(params: PerturbParams) -> tuple[np.ndarray, np.ndarray]:
    """(St_L(eps), St_R(eps)) = (exp(2 pi i T_L), exp(2 pi i T_R))."""
    res = residues(params)
    return (
        exp_first_row_nilpotent(res.T_L, 2j * math.pi),
        exp_first_row_nilpotent(res.T_R, 2j * math.pi),
    )


def offdiag_solution_quadrature(params: PerturbParams, x, which: OffDiagonal,
                                tol: float = 1e-10) -> complex:
    """Iterated-integral entries Phi12 / Phi13 by quadrature on the real paths.

    PHI12 integrates from x_R to real x > x_R; PHI13 from x_L to real
    x < x_L.  Values use the real-trajectory determination (positive real
    powers along the path); the integral is ``_two_pole_integral``, and ``tol``
    is relative to span max h, span = |x| - sqrt_eps.  At tol 1e-10 and 1e-12 the
    entries are within 3e-13 relative of 40-digit 2F1 values for nu in
    [-3.3, 7.25], 1/sqrt_eps in [1.5, 1001] and span up to 30 sqrt_eps, wherever
    the entry is a normal double.  Where the entry's scale H Phi1^(+-1) leaves the
    range of normal doubles, DoubleRangeError states its log-magnitude.
    """
    if params.nu.imag != 0.0:
        raise ValueError("offdiagonal quadrature is implemented for real nu")
    nu = params.nu.real
    s = params.sqrt_eps
    z = 1.0 / (2.0 * s)
    x = complex(x)
    if abs(x.imag) > 1e-13:
        raise PathError("integration paths run along the real axis; x must be real")
    xr = x.real
    p = z + nu / 2.0 - 1.0  # endpoint exponent at the base singular point
    q = z - nu / 2.0 + 1.0
    if p <= -1.0:
        raise DivergentIntegralError("endpoint exponent <= -1: the defining integral diverges")
    if which is OffDiagonal.PHI12:
        if xr <= s + _SINGULARITY_MARGIN:
            raise PathError("PHI12 needs real x > x_R")
        span = xr - s
    elif which is OffDiagonal.PHI13:
        if xr >= -s - _SINGULARITY_MARGIN:
            raise PathError("PHI13 needs real x < x_L")
        span = -xr - s
    else:
        raise ValueError(f"unknown entry {which!r}")

    # Phi1 = (span / (2 sqrt_eps + span))^(+-z) and the integral can each overflow while
    # their product is moderate, so their logarithms are added before exponentiating;
    # substituting tau = -(t + sqrt_eps) flips the orientation of PHI13, so the
    # -(1/2) prefactor of the entry becomes +1/2 against this integral
    scaled, log_scale = _two_pole_integral(s, p, q, span, tol)
    log_phi1 = z * math.log(span / (2.0 * s + span))
    if which is OffDiagonal.PHI12:
        log_mag, factor = log_scale + log_phi1, 1.0
    else:
        log_mag, factor = log_scale - log_phi1, 0.5
    _require_normal_double(which.name, log_mag)
    return complex(factor * scaled * math.exp(log_mag))


def _require_normal_double(name: str, log_mag: float) -> None:
    """DoubleRangeError, stating log10 of the scale, unless exp(log_mag) is a normal double."""
    if not _LOG_DBL_MIN <= log_mag <= _LOG_DBL_MAX:
        raise DoubleRangeError(f"{name} scale is 10^{log_mag / math.log(10.0):.1f}, "
                               "outside the range of normal doubles")


def _two_pole_integral(s: float, p: float, q: float, span: float, tol: float) -> tuple:
    """(I / H, log H) for I = int_0^span tau^p (2s + tau)^(-q) dtau, p > -1 and p + q > 0.

    The integrand h rises up to its crest c = 2 s p / (q - p) and falls after it (c is
    taken as span when q <= p).  H = t^p (2s + u)^(-q), with c clipped to
    [min(span, s), span] as t and to [0, span] as u, bounds h on [min(span, s), span],
    and on all of (0, span] when p > 0; it is h's maximum when c lies in the first
    interval.  One adaptive Gauss-Legendre chain on breaks graded geometrically toward
    0 integrates h / H to tol * span absolute down to lo = 1e-18 min(span, s), and the
    leading term lo h(lo) / (p+1) covers [0, lo] (relative error q lo / 2s).  Working
    in units of H keeps p and q of several hundred clear of overflow and underflow.
    """
    crest = 2.0 * s * p / (q - p) if q > p else span
    t, u = min(span, max(min(span, s), crest)), min(span, max(0.0, crest))
    f = lambda tau: np.exp(p * np.log(tau / t) - q * np.log((2.0 * s + tau) / (2.0 * s + u)))
    lo = min(span, s) * 1e-18
    head = lo * f(lo) / (p + 1.0)
    log_scale = p * math.log(t / (2.0 * s + u)) + (p - q) * math.log(2.0 * s + u)
    chain = integrate_chain(f, _geometric_breaks(lo, span), tol_abs=tol * span)
    return head + chain.real, log_scale


def _geometric_breaks(lo: float, hi: float):
    """Panel breakpoints accumulating geometrically (factor 4) toward ``lo``."""
    pts = [hi]
    v = hi
    while v / 4.0 > lo:
        v /= 4.0
        pts.append(v)
    pts.append(lo)
    return list(reversed(pts))
