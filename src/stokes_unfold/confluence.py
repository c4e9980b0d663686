"""Resonant parameter sequences and convergence tables: the unfolded Stokes
matrices exp(2 pi i T_j) against the Stokes matrices of the unperturbed
equation, along 1/sqrt(eps) = nu + 2 n.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gammas import reciprocal_gamma
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


def gamma_ratio_probe(z: float, alpha) -> complex:
    """Gamma(z + alpha) / (Gamma(z) z^alpha), which tends to 1 as z grows.

    Small non-negative integer alpha reduces to the exact finite product
    prod (1 + k/z); everything else goes through log-Gamma differences so
    z may run into the thousands without overflow.
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
    if alpha.imag == 0.0:
        return complex(math.exp(math.lgamma(z + alpha.real) - math.lgamma(z) - alpha.real * math.log(z)))
    from scipy.special import loggamma

    return complex(np.exp(loggamma(z + alpha) - loggamma(z) - alpha * np.log(z)))


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
