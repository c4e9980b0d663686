"""Quadrature engines: adaptive Gauss-Legendre panels on complex segments,
plus a Gauss-Jacobi panel for algebraic endpoint behaviour.

All integrands handled here are analytic on their paths, so fixed-order
panels with bisection on a straddle estimate converge geometrically; the
absolute error budget is split between the two halves at every split.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ToleranceError


@functools.lru_cache(maxsize=None)
def _nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


@functools.lru_cache(maxsize=256)
def _jacobi_nodes(n: int, exponent: float):
    """Nodes and weights of the n-point Gauss rule for (1 + x)^exponent on [-1, 1].

    Golub & Welsch (1969): the nodes are the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the orthonormal polynomials p_k.  They get one
    Newton step on p_n, and the weights are the Christoffel numbers
    1 / sum_{k<n} p_k(x)^2 at the polished nodes: the Golub-Welsch weights
    mu_0 v_0^2 lose up to 5e-13 relative on the clustered nodes next to x = 1,
    where the eigenvector error ~ eps / gap grows with the exponent.
    """
    c = float(exponent)
    k = np.arange(1, n + 1, dtype=float)
    s = 2.0 * k + c
    # p_{k+1} b_{k+1} = (x - a_k) p_k - b_k p_{k-1}, with b_0 = 0 and p_0 = mu_0^(-1/2)
    a = np.append(c / (c + 2.0), c * c / (s[:-1] * (s[:-1] + 2.0)))
    b = np.append(0.0, 2.0 * k * (k + c) / (s * np.sqrt((s + 1.0) * (s - 1.0))))
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(b[1:-1], 1) + np.diag(b[1:-1], -1))
    p0 = (2.0 ** (c + 1.0) / (c + 1.0)) ** -0.5

    def recurrence(x):  # p_n, p_n' and sum_{k<n} p_k^2 at the points x
        p_prev, dp_prev, dp, christoffel = (np.zeros_like(x) for _ in range(4))
        p = np.full_like(x, p0)
        for j in range(n):
            christoffel += p * p
            p_prev, p, dp_prev, dp = (p, ((x - a[j]) * p - b[j] * p_prev) / b[j + 1],
                                      dp, ((x - a[j]) * dp + p - b[j] * dp_prev) / b[j + 1])
        return p, dp, christoffel

    p, dp, _ = recurrence(x)
    x = x - p / dp
    w = 1.0 / recurrence(x)[2]
    x.flags.writeable = w.flags.writeable = False
    return x, w


_ORDER = 20  # Gauss-Legendre nodes per panel
_MAX_DEPTH = 48  # bisections below a coarse panel before the estimate must hold


def gl_panel(f, a, b):
    """Gauss-Legendre panels on the straight segments from the endpoint arrays a to b,
    from one call of f on the (m, _ORDER) node grid."""
    x, w = _nodes(_ORDER)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * (f(mid[:, None] + half[:, None] * x) @ w)


def integrate_chain(f, points, tol_abs: float) -> complex:
    """Adaptive integral along the polyline through ``points`` (Gander & Gautschi, BIT 40,
    2000): one call of f for the coarse panels, one per bisection for both halves."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two points")
    budget = float(tol_abs) / (len(pts) - 1)
    coarse = gl_panel(f, np.array(pts[:-1]), np.array(pts[1:])).tolist()
    stack = [(a, b, c, budget, 0) for a, b, c in zip(pts, pts[1:], coarse)][::-1]
    total = 0j
    while stack:
        a0, b0, whole, tol0, depth = stack.pop()
        mid = 0.5 * (a0 + b0)
        left, right = gl_panel(f, np.array([a0, mid]), np.array([mid, b0])).tolist()
        err = abs(whole - left - right)
        if not math.isfinite(err):
            raise ToleranceError(f"integrand not finite on [{a0}, {b0}]")
        if err <= tol0 or depth >= _MAX_DEPTH:
            if err > 10.0 * tol0:
                raise ToleranceError(f"quadrature stalled on [{a0}, {b0}] "
                                     f"with error estimate {err:.3e}")
            total += left + right
        else:
            stack.append((a0, mid, left, 0.5 * tol0, depth + 1))
            stack.append((mid, b0, right, 0.5 * tol0, depth + 1))
    return total


def jacobi_panel(g, a, b, exponent: float, order: int = 48) -> complex:
    """integral_a^b (t - a)^exponent g(t) dt for smooth g and exponent > -1.

    Gauss-Jacobi nodes absorb the algebraic endpoint factor exactly.  The rule
    is built by Golub-Welsch (eigenvalues of the Jacobi matrix, one Newton
    step, Christoffel weights) once per (order, exponent).  At order 48 it
    integrates x^m (1+x)^exponent over [-1, 1], m = 0..95, within 2e-14
    relative of 30-digit values for exponents 0 to 60 (6.8e-14 at -0.9).
    """
    if exponent <= -1:
        raise ValueError("endpoint exponent must exceed -1")
    x, w = _jacobi_nodes(order, float(exponent))
    h = (b - a) / 2.0
    t = a + h * (x + 1.0)
    return h ** (float(exponent) + 1.0) * complex(np.sum(w * g(t)))
