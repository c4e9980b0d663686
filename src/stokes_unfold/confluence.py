"""Resonant parameter sequences and convergence tables: the unfolded Stokes
matrices exp(2 pi i T_j) against the Stokes matrices of the unperturbed
equation, along 1/sqrt(eps) = nu + 2 n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gammas import BERNOULLI_EVEN, reciprocal_gamma
from .perturbed import PerturbParams, log_resonant_d_range


@dataclass(frozen=True)
class ConfluenceRow:
    """One resonance index of the convergence table."""

    n: int
    sqrt_eps: float
    d_L2: complex
    d_R3: complex
    err_L2: float
    err_R3: float
    stokes_err_L: float
    stokes_err_R: float


def resonant_sequence(nu: float, n_min: int, n_max: int) -> list:
    """Parameters with 1/(2 sqrt(eps)) - nu/2 = n exactly, n_min <= n <= n_max."""
    if n_max < n_min:
        raise ValueError("empty resonance index range")
    if float(nu) + 2.0 * n_min <= 1.0:
        raise ValueError(f"nu + 2 n_min = {float(nu) + 2.0 * n_min} must exceed 1")
    return [PerturbParams.from_resonant_index(nu, n) for n in range(n_min, n_max + 1)]


def limit_targets(nu) -> tuple[complex, complex]:
    """Limits of (d_L2, d_R3): (-e^{-i pi nu}/Gamma(nu), -1/(2 Gamma(nu))).

    Both vanish at non-positive integer nu through the entire 1/Gamma.
    """
    rg = reciprocal_gamma(nu)
    return -cmath.exp(-1j * math.pi * complex(nu)) * rg, -0.5 * rg


def _ratio_series() -> np.ndarray:
    """Row k-1 holds (-1)^{k+1} (B_{k+1}(a) - B_{k+1}) / (k (k+1)) by powers a^1 .. a^25, k = 1..24:
    log Gamma(z+a) - log Gamma(z) - a log z ~ sum_k z^{-k} (row k-1 @ a^p) (DLMF 5.11.13)."""
    bern = [BERNOULLI_EVEN[j // 2] if j % 2 == 0 else (0, 1) for j in range(25)]
    bern[1] = (-1, 2)
    rows = np.zeros((24, 25))
    for k in range(1, 25):
        for p in range(1, k + 2):
            num, den = bern[k + 1 - p]
            rows[k - 1, p - 1] = (-1) ** (k + 1) * math.comb(k + 1, p) * num / (den * k * (k + 1))
    return rows


_RATIO_SERIES = _ratio_series()
_RATIO_Z_POWERS = np.arange(1, 25)
_RATIO_A_POWERS = np.arange(1, 26)


def _log1p(w: complex) -> complex:
    """log(1 + w) for |w| < 1, free of the rounding of 1 + w."""
    u, v = w.real, w.imag
    return complex(0.5 * math.log1p(u * (2.0 + u) + v * v), math.atan2(v, 1.0 + u))


def gamma_ratio_probe(z: float, alpha) -> complex:
    """Gamma(z + alpha) / (Gamma(z) z^alpha), which tends to 1 as z grows.

    Small non-negative integer alpha reduces to the exact finite product
    prod (1 + k/z).  Other alpha, real or complex, take the generalized-Bernoulli
    series of log Gamma(z + alpha) - log Gamma(z) - alpha log z (DLMF 5.11.13;
    Tricomi & Erdelyi 1951) to 1/z^24, summed at z + m >= max(10, 4 |alpha|)
    after m upward steps of the recurrence, each adding log(1 + alpha/(z + j)).

    Accuracy, against 40-digit mpmath for z > |alpha| + 1 up to 1e4: within
    1.1e-15 relative for |alpha| <= 4 and 1e-14 for |alpha| <= 20; beyond, the
    error grows like |alpha| eps (4.1e-13 at |alpha| = 316).
    """
    z = float(z)
    alpha = complex(alpha)
    if not z > abs(alpha) + 1.0:
        raise ValueError("probe needs z > |alpha| + 1")
    if alpha.imag == 0.0 and alpha.real == round(alpha.real) and 0 <= alpha.real <= 8:
        out = 1.0
        for k in range(int(alpha.real)):
            out *= 1.0 + k / z
        return complex(out)
    m = max(0, math.ceil(max(10.0, 4.0 * abs(alpha)) - z))
    shift = alpha * math.log1p(m / z) - sum(_log1p(alpha / (z + j)) for j in range(m))
    series = (1.0 / (z + m)) ** _RATIO_Z_POWERS @ _RATIO_SERIES @ alpha ** _RATIO_A_POWERS
    return cmath.exp(complex(series) + shift)


def thread_count() -> int:
    """Always 1: a table is one vectorized pass; kept for the benchmark, which records it."""
    return 1


def confluence_table(nu: float, n_min: int, n_max: int) -> list:
    """ConfluenceRow per index, ordered by n; rows are emitted even when a
    downstream convergence check would fail (the table is the artifact).

    The error columns are delta, delta/2, 2 pi delta and pi delta, with
    delta = |d_L2 - d_L2(inf)|: exp(2 pi i T_j) differs from the Stokes
    matrix only by 2 pi i (d_j - d_j(inf)) in one entry, and |e^{i pi (1-nu)}| = 1."""
    resonant_sequence(nu, n_min, n_min)  # validates the range start
    if n_max < n_min:
        raise ValueError("empty resonance index range")
    nu = float(nu)
    d_l2, d_r3, deltas = log_resonant_d_range(nu, n_min, n_max)
    return [
        ConfluenceRow(n, 1.0 / (nu + 2.0 * n), d_l2_n, d_r3_n, delta, 0.5 * delta,
                      2.0 * math.pi * delta, math.pi * delta)
        for n, d_l2_n, d_r3_n, delta in zip(range(n_min, n_max + 1), d_l2, d_r3, deltas)
    ]


def fitted_rate(rows, column: str = "stokes_err_R") -> float:
    """Least-squares slope of log(err) against log(n) over the last decade
    of resonance indices present in ``rows``."""
    ns = np.array([r.n for r in rows], dtype=float)
    errs = np.array([getattr(r, column) for r in rows], dtype=float)
    keep = (ns >= ns.max() / 10.0) & (errs > 0.0)
    if int(keep.sum()) < 2:
        raise ValueError("need at least two usable rows in the last decade")
    slope = np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0]
    return float(slope)
