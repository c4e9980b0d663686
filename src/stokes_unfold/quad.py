"""Quadrature engine: adaptive Gauss-Legendre panels on complex segments, and a
nested trapezoid rule for integrands that decay on both sides of a line.

All integrands handled here are analytic on their paths, so fixed-order
panels with bisection on a straddle estimate converge geometrically; the
absolute error budget is split between the two halves at every split.
Panels are evaluated in batches, one integrand call per batch, while the
bisection tree and the order in which accepted panels are summed stay those
of a one-panel-at-a-time depth-first walk, so the batch size never changes
a bit of a result.  Algebraic endpoint behaviour is left to the caller, who
grades the breaks geometrically toward the endpoint
(``perturbed._two_pole_integral``).

``trapezoid`` serves integrands analytic in a strip about the real line and
either negligible past its ends or periodic, where the rule converges
geometrically in the node count (Trefethen & Weideman, SIAM Rev. 56, 2014); it
reports its own error estimate and refuses what it cannot certify.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ToleranceError

_ORDER = 20  # Gauss-Legendre nodes per panel
_MAX_DEPTH = 48  # bisections below a coarse panel before the estimate must hold
_BATCH = 64  # panels bisected per integrand call after the first
_X, _W = np.polynomial.legendre.leggauss(_ORDER)
_TRAP_N0 = 32  # first trapezoid level: 2 _TRAP_N0 + 1 nodes
_TRAP_CAP = 4096  # largest n a trapezoid sum doubles to
_EPS = np.finfo(float).eps


def gl_panel(f, mid, half):
    """Gauss-Legendre panels with centres ``mid`` and half-lengths ``half`` (arrays of one
    length m) on straight segments, from one call of f on the (m, _ORDER) node grid.  The
    weights go in with ``@``: a reduction that rounds differently (``einsum``) would move
    the last bits of every lateral Laplace sum."""
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
