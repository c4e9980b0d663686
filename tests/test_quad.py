"""Quadrature engines: the Gauss-Jacobi rule against exact moments, and its memo."""

import math

import numpy as np
import pytest

from stokes_unfold import quad


def exact_moments(beta: float, count: int) -> list:
    """(I_m, A_m) for m < count: I_m = int_{-1}^1 x^m (1+x)^beta dx and A_m, the same
    integral of |x|^m, to 30 digits.  Substituting x = 1 - 2t gives
    I_m = 2^{beta+1} sum_j C(m, j) (-2)^j B(j+1, beta+1), an alternating sum summed
    at 80 digits; the part of I_m on [-1, 0] is (-1)^m B(m+1, beta+1)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        b = mp.mpf(beta)
        betas = [mp.beta(1, b + 1)]
        for j in range(1, count):
            betas.append(betas[-1] * j / (j + b + 1))  # B(j+1, b+1)
        out = []
        for m in range(count):
            i_m = 2 ** (b + 1) * mp.fsum(math.comb(m, j) * (-2) ** j * betas[j] for j in range(m + 1))
            out.append((float(i_m), float(i_m + (1 - (-1) ** m) * betas[m])))
    return out


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.7, 12.3, 40.0, 60.0])
def test_gauss_jacobi_integrates_moments(beta):
    # order 48 is exact through degree 95; the error is taken relative to the integral
    # of |x|^m, which is the moment itself except where odd m makes the moment cancel
    x, w = quad._jacobi_nodes(48, beta)
    for m, (moment, absolute) in enumerate(exact_moments(beta, 96)):
        assert abs(np.sum(w * x ** m) - moment) <= 1e-13 * absolute, m


def test_jacobi_rule_is_built_once_per_order_and_exponent(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(len(m)) or eigvalsh(m))
    g = np.cos
    first = quad.jacobi_panel(g, 0.0, 0.7, 3.0625)
    assert quad.jacobi_panel(g, 0.0, 0.7, 3.0625) == first
    assert calls == [48]
    quad.jacobi_panel(g, 0.0, 0.7, 3.0625, order=24)
    assert calls == [48, 24]
