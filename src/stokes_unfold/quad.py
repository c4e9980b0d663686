"""Quadrature: one nested trapezoid rule, and the double-exponential maps that carry an
interval or a half-line onto the real line for it.

``trapezoid`` serves integrands analytic in a strip about the real line and either
negligible past its ends or periodic, where the rule converges geometrically in the node
count (Trefethen & Weideman, SIAM Rev. 56, 2014); it reports its own error estimate and
refuses what it cannot certify.  Its first level has 65 nodes; the Stokes jump and the
head of a Laplace sum, whose sums reach 129, start there instead.  A conjugate-even
integrand, f(-t) = conj f(t), is summed from its half t >= 0: the Stokes jump on real x
and real nu evaluates 65 nodes, and the residue oracle's circle on real nu 33.  After
``tanh_sinh`` (onto (0, 1)) or ``exp_exp`` (onto (0, inf), for integrands that decay exponentially) an
integrand analytic on the open interval, with at worst algebraic behaviour at a finite
end, decays double-exponentially in the new variable, so the same rule converges
geometrically without breaks graded toward an endpoint (Takahasi & Mori, Publ. RIMS 9,
1974; Mori & Sugihara, J. Comput. Appl. Math. 127, 2001).  Each map comes with the window
of the new variable outside of which its ends are as small as the caller asks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ToleranceError

_TRAP_N0 = 32  # first trapezoid level: 2 _TRAP_N0 + 1 nodes
_TRAP_CAP = 4096  # largest n a trapezoid sum doubles to
_EPS = np.finfo(float).eps


def _require_tol(tol: float) -> None:
    """ValueError unless tol is finite and positive: a tolerance of inf certifies nothing."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


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


def trapezoid(f, w: float, rtol: float, atol: float = 0.0, cond: float = 1.0,
              n0: int = _TRAP_N0, conj_even: bool = False) -> tuple[complex, float]:
    """Trapezoid sum of f over [-w, w] with 2n + 1 equispaced nodes, n = n0 doubled on
    nested nodes: the first call of f holds the 2 n0 + 1 nodes of the first level, and each
    doubling calls f once more, on the new midpoints only.  Returns the sum of
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
    one point whose half weights add up, and the sum is the periodic rule with 2n nodes.

    The halving estimate of T_n is the error of T_(n/2), where the rule converges
    geometrically, so a sum certified at n = 64 has the error of T_32.  A caller whose sums
    reach that level passes n0 = 64: one call of 129 nodes instead of 65 and then 64.  For
    a complex-valued f, T_64, T_32 and both estimates are then the same doubles, since the
    node (w/64) 2j is (w/32) j; a real-valued f is summed as reals at the first level and
    as complex numbers past it, in another order.  Where n = 32 would have been certified,
    such a sum returns the finer T_64.

    A caller whose f is conjugate-even, f(-t) = conj f(t), passes conj_even: f is then
    called on the nodes t >= 0 only, n0 + 1 of them and the n new midpoints on each
    doubling, and T_n = h (Re f_0 + 2 sum_(0<j<n) Re f_j + Re f_n) is the full sum with
    its imaginary part, which is 0, left out.  T_(n/2) sums every other node of the half
    grid, and the rounding estimate sums |f_0| + 2 sum_(0<j<=n) |f_j|, which is sum |terms|
    over the full grid; the requests and refusals are those of the full sum."""
    if conj_even:
        def fold(v):  # the full sum of the nodes v from its half on t >= 0
            re = v.real
            return 2.0 * float(re.sum()) - float(re[0]) - float(re[-1])

        def mass(v):
            mod = np.abs(v)
            return 2.0 * float(mod.sum()) - float(mod[0])
    else:
        def fold(v):
            return v.sum() - 0.5 * (v[0] + v[-1])

        def mass(v):
            return float(np.abs(v).sum())

    n = n0
    h = w / n
    values = f(h * (np.arange(n + 1) if conj_even else np.arange(-n, n + 1)))
    coarse = None
    while True:
        size = mass(values)  # not finite where a term is not, or where finite terms overflow
        if not math.isfinite(size) and not np.isfinite(values).all():
            raise ToleranceError(f"trapezoid integrand not finite on [{-w}, {w}]")
        if coarse is None:
            coarse = 2.0 * h * fold(values[::2])
        total = h * fold(values)
        halving = abs(total - coarse)
        rounding = cond * _EPS * h * size
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
        finer = np.empty(2 * len(values) - 1, dtype=complex)
        finer[::2] = values
        finer[1::2] = f(h * np.arange(1 if conj_even else 1 - 2 * n, 2 * n, 2))
        values, n, coarse = finer, 2 * n, total
