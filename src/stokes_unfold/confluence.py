"""Limit targets and convergence tables: the unfolded Stokes
matrices exp(2 pi i T_j) against the Stokes matrices of the unperturbed
equation, along 1/sqrt(eps) = nu + 2 n.
"""

from __future__ import annotations

import cmath
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError
from .gammas import log_gamma_ratio, reciprocal_gamma
from .perturbed import log_resonant_d_range


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


def limit_targets(nu) -> tuple[complex, complex]:
    """Limits of (d_L2, d_R3): (-e^{-i pi nu}/Gamma(nu), -1/(2 Gamma(nu))).

    Both vanish at non-positive integer nu through the entire 1/Gamma.
    """
    rg = reciprocal_gamma(nu)
    return -cmath.exp(-1j * math.pi * complex(nu)) * rg, -0.5 * rg


def gamma_ratio_probe(z: float, alpha) -> complex:
    """Gamma(z + alpha) / (Gamma(z) z^alpha), which tends to 1 as z grows.

    The Gamma-ratio kernel gammas.log_gamma_ratio at nu = alpha + 1, n = z - 1, whose
    midpoint is zeta = z + (alpha - 1)/2, times (zeta/z)^alpha; real or complex alpha.

    Accuracy, against 40-digit mpmath for z > |alpha| + 1 up to 1e4: within 1e-14
    relative for |alpha| <= 8 and for the complex alpha in the tests.
    """
    z = float(z)
    alpha = complex(alpha)
    if not z > abs(alpha) + 1.0:
        raise ValueError("probe needs z > |alpha| + 1")
    (log_r,) = log_gamma_ratio(alpha + 1.0, z - 1.0, 1)
    return cmath.exp(log_r + alpha * cmath.log((z + (alpha - 1.0) / 2.0) / z))


def thread_count() -> int:
    """Always 1: a table is one vectorized pass; kept for the benchmark, which records it."""
    return 1


@dataclass(frozen=True, eq=False)
class ConfluenceTable(Sequence):
    """The convergence table as read-only numpy columns, one entry per resonance index.

    ``n``, ``sqrt_eps`` and ``delta = |d_L2 - d_L2(inf)|`` are int and float columns,
    ``d_L2`` and ``d_R3`` complex.  The error columns are the properties ``err_L2``,
    ``err_R3``, ``stokes_err_L`` and ``stokes_err_R``: delta, delta/2, 2 pi delta and
    pi delta.  As a sequence, item i is the ConfluenceRow of index n[i] with Python
    int, float and complex fields, built when it is read.
    """

    n: np.ndarray
    sqrt_eps: np.ndarray
    d_L2: np.ndarray
    d_R3: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        for name in ("n", "sqrt_eps", "d_L2", "d_R3", "delta"):
            column = getattr(self, name).view()
            if column.shape != self.n.shape or column.ndim != 1:
                raise ValueError(f"column {name} has shape {column.shape}, n has {self.n.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def err_L2(self) -> np.ndarray:
        return self.delta

    @property
    def err_R3(self) -> np.ndarray:
        return 0.5 * self.delta

    @property
    def stokes_err_L(self) -> np.ndarray:
        return 2.0 * math.pi * self.delta

    @property
    def stokes_err_R(self) -> np.ndarray:
        return math.pi * self.delta

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i: int) -> ConfluenceRow:
        i = operator.index(i)
        return _row(self.n[i].item(), self.sqrt_eps[i].item(), self.d_L2[i].item(), self.d_R3[i].item(),
                    self.delta[i].item())

    def __iter__(self):
        return map(_row, self.n.tolist(), self.sqrt_eps.tolist(), self.d_L2.tolist(), self.d_R3.tolist(),
                   self.delta.tolist())


def _row(n: int, sqrt_eps: float, d_l2: complex, d_r3: complex, delta: float) -> ConfluenceRow:
    return ConfluenceRow(n, sqrt_eps, d_l2, d_r3, delta, 0.5 * delta, 2.0 * math.pi * delta, math.pi * delta)


def confluence_table(nu: float, n_min: int, n_max: int) -> ConfluenceTable:
    """ConfluenceTable of the indices n_min..n_max, in order; rows are emitted even
    when a downstream convergence check would fail (the table is the artifact).

    Arrays of d_L2, d_R3 and delta = |d_L2 - d_L2(inf)| come from one vectorized
    pass.  The error columns are delta, delta/2, 2 pi delta and pi delta:
    exp(2 pi i T_j) differs from the Stokes matrix only by 2 pi i (d_j - d_j(inf))
    in one entry, and |e^{i pi (1-nu)}| = 1.  ResonanceError unless nu is real, then ValueError
    unless it is finite, n_min <= n_max and 1/sqrt(eps) = nu + 2 n exceeds 1 at n_min."""
    nu = complex(nu)
    if nu.imag:
        raise ResonanceError("confluence tables need real nu")
    nu = nu.real
    if not math.isfinite(nu):
        raise ValueError(f"nu must be finite, got {nu}")
    if nu + 2.0 * n_min <= 1.0:
        raise ValueError(f"nu + 2 n_min = {nu + 2.0 * n_min} must exceed 1")
    if n_max < n_min:
        raise ValueError("empty resonance index range")
    n = np.arange(n_min, n_max + 1)
    d_l2, d_r3, deltas = log_resonant_d_range(nu, n_min, n_max)
    return ConfluenceTable(n, 1.0 / (nu + 2.0 * n), d_l2, d_r3, deltas)


def fitted_rate(table: ConfluenceTable, column: str = "stokes_err_R") -> float:
    """Least-squares slope of log(err) against log(n) over the last decade
    of resonance indices present in ``table``."""
    ns = table.n.astype(float)
    errs = getattr(table, column)
    keep = (ns >= ns.max() / 10.0) & (errs > 0.0)
    if int(keep.sum()) < 2:
        raise ValueError("need at least two usable rows in the last decade")
    slope = np.polyfit(np.log(ns[keep]), np.log(errs[keep]), 1)[0]
    return float(slope)
