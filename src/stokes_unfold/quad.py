"""Quadrature engine: adaptive Gauss-Legendre panels on complex segments.

All integrands handled here are analytic on their paths, so fixed-order
panels with bisection on a straddle estimate converge geometrically; the
absolute error budget is split between the two halves at every split.
Panels are evaluated in batches, one integrand call per batch, while the
bisection tree and the order in which accepted panels are summed stay those
of a one-panel-at-a-time depth-first walk, so the batch size never changes
a bit of a result.  Algebraic endpoint behaviour is left to the caller, who
grades the breaks geometrically toward the endpoint
(``perturbed._two_pole_integral``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ToleranceError

_ORDER = 20  # Gauss-Legendre nodes per panel
_MAX_DEPTH = 48  # bisections below a coarse panel before the estimate must hold
_BATCH = 64  # panels bisected per integrand call after the first
_X, _W = np.polynomial.legendre.leggauss(_ORDER)


def gl_panel(f, mid, half):
    """Gauss-Legendre panels with centres ``mid`` and half-lengths ``half`` (arrays of one
    length m) on straight segments, from one call of f on the (m, _ORDER) node grid.  The
    weights go in with ``@``: a Stokes jump is the difference of two lateral sums times
    e^(1/|x|), and a reduction that rounds differently (``einsum``) moves such jumps by
    up to 6 % relative on a seeded sweep at |x| down to 0.02."""
    return half * (f(mid[:, None] + half[:, None] * _X) @ _W)


def _halves(a, b):
    """Midpoints of the panels from ``a`` to ``b`` (arrays), with the centres and
    half-lengths of their left halves followed by those of their right halves."""
    mid = 0.5 * (a + b)
    return (mid, np.concatenate((0.5 * (a + mid), 0.5 * (mid + b))),
            np.concatenate((0.5 * (mid - a), 0.5 * (b - mid))))


def integrate_chain(f, points, tol_abs: float) -> complex:
    """Adaptive integral along the polyline through ``points`` (Gander & Gautschi, BIT 40,
    2000).  Each segment is a coarse panel with budget tol_abs / (segments); a panel is
    bisected while |whole - left - right| exceeds its budget, and each half gets half of
    it.  A panel whose estimate still exceeds its budget after _MAX_DEPTH bisections
    raises ToleranceError, so a tolerance below the rounding floor is refused, not walked.

    One call of f evaluates the coarse panels and both halves of each; every later call
    evaluates both halves of up to _BATCH panels taken off a depth-first stack.  So no
    call holds more than 2 _BATCH panels after the first, and where every panel fails (a
    tolerance below the rounding floor) the depth limit is met within _MAX_DEPTH + 1
    calls.  Each accepted panel carries an integer key, its segment and then its path of
    halves with the right half first, and the accepted sums are added in key order: the
    order a one-panel walk would add them in.  Centres and half-lengths are 0.5 (a + b)
    and 0.5 (b - a) of each panel's ends."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    budget = float(tol_abs) / (len(pts) - 1)
    lo, hi = np.array(pts[:-1]), np.array(pts[1:])
    mid, centres, halves = _halves(lo, hi)
    first = gl_panel(f, np.concatenate((mid, centres)),
                     np.concatenate((0.5 * (hi - lo), halves))).tolist()
    # (a, b, whole, budget, depth, key); a panel at depth d owns the keys
    # [key, key + 2^(_MAX_DEPTH - d)), its right half the lower half of them
    batch = [(a, b, whole, budget, 0, k << _MAX_DEPTH)
             for k, (a, b, whole) in enumerate(zip(pts, pts[1:], first))]
    mids, values = mid.tolist(), first[len(batch):]
    stack, accepted = [], []
    while True:
        split = []
        for (a0, b0, whole, tol0, depth, key), m0, left, right in zip(
                batch, mids, values, values[len(batch):]):
            err = abs(whole - left - right)
            if not math.isfinite(err):
                raise ToleranceError(f"integrand not finite on [{a0}, {b0}]")
            if err <= tol0:
                accepted.append((key, left + right))
            elif depth >= _MAX_DEPTH:
                raise ToleranceError(f"quadrature stalled on [{a0}, {b0}] "
                                     f"with error estimate {err:.3e}")
            else:
                split += [(m0, b0, right, 0.5 * tol0, depth + 1, key),
                          (a0, m0, left, 0.5 * tol0, depth + 1,
                           key + (1 << (_MAX_DEPTH - depth - 1)))]
        stack += reversed(split)  # the stack's top stays first in depth-first order
        if not stack:
            break
        batch = stack[:-_BATCH - 1:-1]
        del stack[-_BATCH:]
        mid, centres, halves = _halves(np.array([p[0] for p in batch]),
                                       np.array([p[1] for p in batch]))
        mids, values = mid.tolist(), gl_panel(f, centres, halves).tolist()
    total = 0j
    for _, value in sorted(accepted):
        total += value
    return total
