"""High-precision references for the benchmark, computed with mpmath.

Every value here comes from the paper's closed forms evaluated at ``DPS``
decimal digits, independently of the package under test: the Stokes and
jump constants, the logarithmic-resonance d-values with their limits and
the ``stokes_err`` columns, and the eigenvalue multisets of the loop
monodromies.  ``crosscheck`` re-evaluates a reference at ``CHECK_DPS``
digits so that reference error is known to sit far below every bound the
benchmark judges and every error it reports (the smallest is about 1e-16).
"""

from __future__ import annotations

from itertools import permutations

import mpmath

DPS = 30
CHECK_DPS = 40
GUARD_DIGITS = 20
CROSSCHECK_RTOL = 1e-20
CROSSCHECK_FLOOR = 1e-12  # magnitude below which a reference counts as zero


def _mpf(v):
    return mpmath.mpf(float(v))


def stokes_entries(nu):
    """(St_0 entry (1,3), St_pi entry (1,2)) = (-pi i/Gamma(nu), -2 pi i e^{-i pi nu}/Gamma(nu))."""
    nu = _mpf(nu)
    rg = mpmath.rgamma(nu)
    return -1j * mpmath.pi * rg, -2j * mpmath.pi * mpmath.exp(-1j * mpmath.pi * nu) * rg


def jump_coefficient(nu, kind: str):
    """Jump coefficient of the PSI ("psi") or PHI ("phi") family:
    2 St_0[1,3] and St_pi[1,2]."""
    st0, stpi = stokes_entries(nu)
    return 2 * st0 if kind == "psi" else stpi


def d_limits(nu):
    """(d_L2, d_R3) at n = infinity: (-e^{-i pi nu}/Gamma(nu), -1/(2 Gamma(nu)))."""
    nu = _mpf(nu)
    rg = mpmath.rgamma(nu)
    return -mpmath.exp(-1j * mpmath.pi * nu) * rg, -rg / 2


def _ratio(nu, n):
    # R = z^{1-nu} Gamma(n+nu) / (Gamma(nu) Gamma(n+1)) with z = n + nu/2
    z = n + nu / 2
    return mpmath.exp((1 - nu) * mpmath.log(z) + mpmath.loggamma(n + nu)
                      - mpmath.loggamma(nu) - mpmath.loggamma(n + 1))


def confluence_row(nu, n: int) -> dict:
    """d_L2, d_R3 and the four error columns of the confluence table at index n.

    ``stokes_err_R`` is pi |2 d_R3 + 1/Gamma(nu)|, the max-norm distance of
    exp(2 pi i T_R) from St_0 (they differ only at entry (1,3)); likewise
    ``stokes_err_L`` at entry (1,2).

    The log-Gamma difference cancels about log10(n) digits and the error
    columns are differences of order 1/z^2 between numbers of order one, so
    everything runs with GUARD_DIGITS extra digits and is rounded at the end.
    """
    with mpmath.extradps(GUARD_DIGITS):
        nuf = _mpf(nu)
        w = _ratio(nuf, n)
        d_l2 = mpmath.exp(1j * mpmath.pi * (1 - nuf)) * w
        d_r3 = -w / 2
        lim_l2, lim_r3 = d_limits(nu)
        st0, stpi = stokes_entries(nu)
        row = {
            "d_L2": d_l2,
            "d_R3": d_r3,
            "err_L2": abs(d_l2 - lim_l2),
            "err_R3": abs(d_r3 - lim_r3),
            "stokes_err_L": abs(2j * mpmath.pi * d_l2 - stpi),
            "stokes_err_R": abs(2j * mpmath.pi * d_r3 - st0),
        }
    return {k: +v for k, v in row.items()}


def loop_eigenvalues(nu, n: int, which: str):
    """Eigenvalues e^{2 pi i (rho_k - k)} of the monodromy around x_R or x_L.

    With h = 1/(2 sqrt(eps)) = (nu + 2n)/2 the exponents are
    rho_R = (h, nu/2 + 2h, nu/2) and rho_L = (-h, nu/2 - 2h, nu/2).
    """
    nuf = _mpf(nu)
    h = (nuf + 2 * n) / 2
    rho = (h, nuf / 2 + 2 * h, nuf / 2) if which == "R" else (-h, nuf / 2 - 2 * h, nuf / 2)
    return tuple(mpmath.exp(2j * mpmath.pi * (rho[k] - k)) for k in range(3))


def origin_eigenvalues(nu):
    """Eigenvalues of the monodromy around the origin: {1, e^{2 pi i nu}, e^{2 pi i nu}}."""
    e = mpmath.exp(2j * mpmath.pi * _mpf(nu))
    return (mpmath.mpc(1), e, e)


def expected_log(nu, n: int, which: str) -> bool:
    """Whether the loop monodromy has a Jordan block: d_L2 (L) or d_R3 (R) nonzero."""
    row = confluence_row(nu, n)
    return abs(row["d_L2"] if which == "L" else row["d_R3"]) > 1e-12


def rel_err(computed, ref, scale=None) -> float:
    """|computed - ref| / |ref|, evaluated in mpmath.

    Where the reference vanishes (below 1e-20 of ``scale``, as stokes_err_R
    does at nu = 1 and 2) the error is taken relative to ``scale`` instead.
    """
    den = abs(ref)
    if scale is not None and den < 1e-20 * scale:
        den = mpmath.mpf(scale)
    diff = abs(mpmath.mpmathify(complex(computed)) - ref)
    if den == 0:
        return 0.0 if diff == 0 else float("inf")
    return float(diff / den)


def eigen_err(numeric, closed) -> float:
    """Max distance under the best matching of two eigenvalue triples."""
    vals = [mpmath.mpmathify(complex(v)) for v in numeric]
    return float(min(max(abs(vals[p[i]] - closed[i]) for i in range(3))
                     for p in permutations(range(3))))


def compute(fn, *args):
    """Evaluate a reference function at DPS digits."""
    with mpmath.workdps(DPS):
        return fn(*args)


def _flatten(value):
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in _flatten(value[k])]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _flatten(v)]
    return [value]


def crosscheck(fn, *args) -> float:
    """Worst relative disagreement of ``fn(*args)`` between DPS and CHECK_DPS
    digits; raises when it exceeds CROSSCHECK_RTOL."""
    with mpmath.workdps(DPS):
        low = _flatten(fn(*args))
    with mpmath.workdps(CHECK_DPS):
        high = _flatten(fn(*args))
        worst = 0.0
        for a, b in zip(low, high):
            if isinstance(b, bool):
                if a != b:
                    raise AssertionError(f"{fn.__name__}{args}: flag differs between precisions")
                continue
            d = abs(mpmath.mpmathify(a) - b)
            worst = max(worst, float(d / max(abs(b), CROSSCHECK_FLOOR)))
    if worst > CROSSCHECK_RTOL:
        raise AssertionError(f"{fn.__name__}{args}: {DPS} vs {CHECK_DPS} digits differ by {worst:.2e}")
    return worst
