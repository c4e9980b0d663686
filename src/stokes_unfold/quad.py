"""Quadrature engine: adaptive Gauss-Legendre panels on complex segments.

All integrands handled here are analytic on their paths, so fixed-order
panels with bisection on a straddle estimate converge geometrically; the
absolute error budget is split between the two halves at every split.
Algebraic endpoint behaviour is left to the caller, who grades the breaks
geometrically toward the endpoint (``perturbed._two_pole_integral``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ToleranceError

_ORDER = 20  # Gauss-Legendre nodes per panel
_MAX_DEPTH = 48  # bisections below a coarse panel before the estimate must hold
_X, _W = np.polynomial.legendre.leggauss(_ORDER)


def gl_panel(f, mid, half):
    """Gauss-Legendre panels with centres ``mid`` and half-lengths ``half`` (arrays of one
    length m) on straight segments, from one call of f on the (m, _ORDER) node grid."""
    return half * (f(mid[:, None] + half[:, None] * _X) @ _W)


def integrate_chain(f, points, tol_abs: float) -> complex:
    """Adaptive integral along the polyline through ``points`` (Gander & Gautschi, BIT 40,
    2000): one call of f for the coarse panels, one per bisection for both halves.  A panel
    whose estimate still exceeds its budget after _MAX_DEPTH bisections raises
    ToleranceError, so a tolerance below the rounding floor is refused, not walked.
    Centres and half-lengths are 0.5 (a + b) and 0.5 (b - a) of each panel's ends, formed
    on Python scalars for the two halves of a bisection."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    budget = float(tol_abs) / (len(pts) - 1)
    lo, hi = np.array(pts[:-1]), np.array(pts[1:])
    coarse = gl_panel(f, 0.5 * (lo + hi), 0.5 * (hi - lo)).tolist()
    stack = [(a, b, c, budget, 0) for a, b, c in zip(pts, pts[1:], coarse)][::-1]
    total = 0j
    while stack:
        a0, b0, whole, tol0, depth = stack.pop()
        mid = 0.5 * (a0 + b0)
        left, right = gl_panel(f, np.array([0.5 * (a0 + mid), 0.5 * (mid + b0)]),
                               np.array([0.5 * (mid - a0), 0.5 * (b0 - mid)])).tolist()
        err = abs(whole - left - right)
        if not math.isfinite(err):
            raise ToleranceError(f"integrand not finite on [{a0}, {b0}]")
        if err <= tol0:
            total += left + right
        elif depth >= _MAX_DEPTH:
            raise ToleranceError(f"quadrature stalled on [{a0}, {b0}] "
                                 f"with error estimate {err:.3e}")
        else:
            stack.append((a0, mid, left, 0.5 * tol0, depth + 1))
            stack.append((mid, b0, right, 0.5 * tol0, depth + 1))
    return total
