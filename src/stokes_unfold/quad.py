"""Quadrature: one nested trapezoid rule, and the double-exponential maps that carry an
interval or a half-line onto the real line for it.

``trapezoid`` serves integrands analytic in a strip about the real line and either
negligible past its ends or periodic, where the rule converges geometrically in the node
count (Trefethen & Weideman, SIAM Rev. 56, 2014); it reports its own error estimate and
refuses what it cannot certify.  After ``tanh_sinh`` (onto (0, 1)) or ``exp_exp`` (onto
(0, inf), for integrands that decay exponentially) an integrand analytic on the open
interval, with at worst algebraic behaviour at a finite end, decays double-exponentially
in the new variable, so the same rule converges geometrically without breaks graded
toward an endpoint (Takahasi & Mori, Publ. RIMS 9, 1974; Mori & Sugihara, J. Comput.
Appl. Math. 127, 2001).  Each map comes with the window of the new variable outside of
which its ends are as small as the caller asks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ToleranceError

_TRAP_N0 = 32  # first trapezoid level: 2 _TRAP_N0 + 1 nodes
_TRAP_CAP = 4096  # largest n a trapezoid sum doubles to
_EPS = np.finfo(float).eps


def tanh_sinh(v):
    """Logarithms (log u, log(1 - u), log du/dv) of u = 1 / (1 + e^(-pi sinh v)) =
    (1 + tanh((pi/2) sinh v)) / 2, which maps the real line onto (0, 1).  In logarithms
    neither end underflows, and each keeps its own relative precision: log u = pi sinh v
    + O(u) as v -> -inf, so an endpoint power u^p with p near -1, whose mass lies at
    u ~ e^(-1/(p+1)), is still resolved."""
    y = np.pi * np.sinh(v)
    log_u, log_rest = -np.logaddexp(0.0, -y), -np.logaddexp(0.0, y)
    return log_u, log_rest, log_u + log_rest + np.log(np.pi * np.cosh(v))


def tanh_sinh_window(lam_lo: float, lam_hi: float) -> tuple[float, float]:
    """(centre, half-width) of the v-interval at whose ends u <= e^(-lam_lo) and
    1 - u <= e^(-lam_hi)."""
    lo, hi = -math.asinh(lam_lo / math.pi), math.asinh(lam_hi / math.pi)
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def exp_exp(v):
    """(r, dr/dv) for r = e^(v - e^(-v)), which maps the real line onto (0, inf): r falls
    to 0 double-exponentially as v -> -inf, and so does e^(-r) as v -> +inf, which makes it
    the map for integrands that decay like e^(-r) (Mori & Sugihara 2001)."""
    e = np.exp(-v)
    r = np.exp(v - e)
    return r, r * (1.0 + e)


def exp_exp_window(lam_lo: float, r_hi: float) -> tuple[float, float]:
    """(centre, half-width) of the v-interval at whose ends r <= e^(-lam_lo) (lam_lo >= 1)
    and r >= r_hi (r_hi >= 1)."""
    lo, hi = -math.log(lam_lo), math.log(r_hi) + 1.0
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def trapezoid(f, w: float, rtol: float, atol: float = 0.0, cond: float = 1.0) -> tuple[complex, float]:
    """Trapezoid sum of f over [-w, w] with 2n + 1 equispaced nodes, n = _TRAP_N0 doubled on
    nested nodes: each doubling calls f once, on the new midpoints only.  Returns the sum of
    the first level whose halving estimate |T_n - T_(n/2)| (T_(n/2) sums every other node,
    no new evaluation) and rounding estimate cond eps h sum |terms| both lie within the
    request max(rtol |T_n|, atol), with the larger of the two as its error estimate.  cond
    bounds the relative error of each computed term in units of eps, so that the estimate
    bounds the error also where a term carries more than one ulp; dividing rtol and atol by
    cond instead would make the same rounding test, but return an estimate short of it.

    The rounding estimate does not fall as n grows, so a level whose halving estimate is
    already below it refuses a request below it with ToleranceError; so do a halving
    estimate still above the request at n = _TRAP_CAP and a term that is not finite.  f
    maps a numpy array of nodes to the array of its values, and must be negligible at
    +-w, since the sum does not see past them, or 2w-periodic: then the two end nodes are
    one point whose half weights add up, and the sum is the periodic rule with 2n nodes."""
    def evaluate(theta):
        values = f(theta)
        if not np.isfinite(values).all():
            raise ToleranceError(f"trapezoid integrand not finite on [{-w}, {w}]")
        return values

    n = _TRAP_N0
    h = w / n
    values = evaluate(h * np.arange(-n, n + 1))
    coarse = 2.0 * h * (values[::2].sum() - 0.5 * (values[0] + values[-1]))
    while True:
        total = h * (values.sum() - 0.5 * (values[0] + values[-1]))
        halving = abs(total - coarse)
        rounding = cond * _EPS * h * float(np.abs(values).sum())
        request = max(rtol * abs(total), atol)
        if max(halving, rounding) <= request:
            return complex(total), max(halving, rounding)
        if halving <= rounding:
            bound = f"atol {atol:g}" if atol > rtol * abs(total) else f"rtol {rtol:g}"
            raise ToleranceError(f"trapezoid rounding estimate {rounding:.3e} exceeds the "
                                 f"request {request:.3e} ({bound})")
        if 2 * n > _TRAP_CAP:
            raise ToleranceError(f"trapezoid halving estimate {halving:.3e} exceeds the "
                                 f"request {request:.3e} at n = {n}")
        h *= 0.5
        finer = np.empty(4 * n + 1, dtype=complex)
        finer[::2] = values
        finer[1::2] = evaluate(h * np.arange(1 - 2 * n, 2 * n, 2))
        values, n, coarse = finer, 2 * n, total
