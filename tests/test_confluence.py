"""Resonant sequences, limit targets, Gamma-ratio probe and the tables."""

import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import ResonanceClass


def test_resonant_sequence_type_c():
    seq = su.resonant_sequence(0.5, 1, 3)
    assert [1.0 / p.sqrt_eps for p in seq] == pytest.approx([2.5, 4.5, 6.5])
    assert all(su.classify_resonance(p) is ResonanceClass.C for p in seq)


def test_resonant_sequence_type_b():
    seq = su.resonant_sequence(2.0, 1, 3)
    assert [1.0 / p.sqrt_eps for p in seq] == pytest.approx([4.0, 6.0, 8.0])
    assert all(su.classify_resonance(p) is ResonanceClass.B for p in seq)


def test_resonant_sequence_range_errors():
    with pytest.raises(ValueError):
        su.resonant_sequence(0.9, 0, 3)  # nu + 0 <= 1
    with pytest.raises(ValueError):
        su.resonant_sequence(0.5, 3, 1)


def test_limit_targets():
    lim_l2, lim_r3 = su.limit_targets(2.0)
    assert lim_l2 == pytest.approx(-1.0, abs=1e-14)
    assert lim_r3 == pytest.approx(-0.5, abs=1e-14)
    assert su.limit_targets(0.5)[1] == pytest.approx(-0.5 / math.sqrt(math.pi), rel=1e-13)
    assert su.limit_targets(-1.0) == (0.0, 0.0)


def test_gamma_ratio_probe_exact_cases():
    for z in (10.0, 137.0, 4000.0):
        assert su.gamma_ratio_probe(z, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert su.gamma_ratio_probe(z, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_gamma_ratio_probe_rate():
    # leading defect |a(a-1)|/(2z) = 1.25e-3 at z = 100, halving like 1/z
    e100 = abs(su.gamma_ratio_probe(100.0, 0.5) - 1.0)
    assert e100 < 2e-3
    e200 = abs(su.gamma_ratio_probe(200.0, 0.5) - 1.0)
    assert e200 < 0.6 * e100


def test_gamma_ratio_probe_precondition():
    with pytest.raises(ValueError):
        su.gamma_ratio_probe(2.0, 1.7)


def test_gamma_ratio_probe_complex_alpha():
    v = su.gamma_ratio_probe(500.0, 0.3 + 0.2j)
    assert abs(v - 1.0) < 1e-3


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.7, -0.8, 3.2, 0.3 + 0.2j, -1.1 + 2j])
def test_gamma_ratio_probe_matches_mpmath(alpha):
    # a difference of two log-Gammas near 8e4 at z = 1e4 would miss by ~1e-11
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = mp.mpmathify(alpha)
        for z in np.geomspace(abs(alpha) + 1.05, 1e4, 25):
            zz = mp.mpf(float(z))
            ref = complex(mp.exp(mp.loggamma(zz + a) - mp.loggamma(zz) - a * mp.log(zz)))
            assert abs(su.gamma_ratio_probe(float(z), alpha) - ref) <= 1e-14 * abs(ref), z


def test_table_nu2_sits_at_the_limit():
    rows = su.confluence_table(2.0, 1, 5)
    for r in rows:
        assert r.stokes_err_L <= 1e-12 and r.stokes_err_R <= 1e-12
        assert abs(r.d_L2 + 1.0) <= 1e-13 and abs(r.d_R3 + 0.5) <= 1e-13


def test_table_zero_columns_for_nonpositive_integer_nu():
    rows = su.confluence_table(-1.0, 2, 4)
    for r in rows:
        assert r.d_L2 == 0 and r.d_R3 == 0
        assert r.err_L2 == 0 and r.err_R3 == 0
        assert r.stokes_err_L == 0 and r.stokes_err_R == 0
        # +0, never -0: the CSV prints the sign of a zero
        for x in (r.d_L2.real, r.d_L2.imag, r.d_R3.real, r.d_R3.imag,
                  r.err_L2, r.err_R3, r.stokes_err_L, r.stokes_err_R):
            assert math.copysign(1.0, x) == 1.0


def test_table_and_d_values_share_one_definition():
    for nu in (0.5, 3.3, 2.0):
        for r in su.confluence_table(nu, 1, 200):
            assert (r.d_L2, r.d_R3) == su.log_resonant_d_values(nu, r.n)
            assert r.err_L2 == 2 * r.err_R3
            assert r.stokes_err_L == 2 * r.stokes_err_R


def test_table_matches_mpmath():
    # every column against z^{1-nu} (nu)_n / n! and 1/Gamma(nu) at 50 digits,
    # with z = n + nu/2 formed in mpmath; the error columns are delta, delta/2,
    # 2 pi delta, pi delta with delta = |w - 1/Gamma(nu)|, so they test the
    # series without cancellation, down to z = 8 and next to nu = 1 and 2
    mp = pytest.importorskip("mpmath")
    bounds = {nu: 1e-13 for nu in (0.5, 3.3, 0.01, 3.99, 7.25, -2.5, 1.99, 1.0 + 1e-7)}
    bounds.update({nu: 1e-12 for nu in (20.0, -30.5, 50.3)})  # the accuracy of 1/Gamma
    with mp.workdps(50):
        for nu, bound in bounds.items():
            nu_mp = mp.mpf(nu)
            for n in (8, 20, 63, 64, 65, 100, 10**3, 10**4, 10**5, 10**6):
                if nu + 2 * n <= 1:
                    continue  # outside the resonant sequence (nu = -30.5 at n = 8)
                (r,) = su.confluence_table(nu, n, n)
                w = (n + nu_mp / 2) ** (1 - nu_mp) * mp.rf(nu_mp, n) / mp.factorial(n)
                delta = abs(w - mp.rgamma(nu_mp))
                refs = {
                    "d_L2": mp.exp(1j * mp.pi * (1 - nu_mp)) * w,
                    "d_R3": -w / 2,
                    "err_L2": delta,
                    "err_R3": delta / 2,
                    "stokes_err_L": 2 * mp.pi * delta,
                    "stokes_err_R": mp.pi * delta,
                }
                for col, ref in refs.items():
                    rel = abs(getattr(r, col) - ref) / abs(ref)
                    assert rel <= bound, f"nu={nu} n={n} {col}: rel err {float(rel):.2e}"


def test_rate_constant_over_the_whole_range():
    # stokes_err_R z^2 -> 2 pi |1/(2 Gamma(nu))| |B_3(nu/2)| / 3, with an
    # O(1/z^2) correction from the next term of the midpoint series
    for nu in (0.5, 3.3):
        x = nu / 2.0
        b3 = x**3 - 1.5 * x**2 + 0.5 * x
        const = 2.0 * math.pi * abs(0.5 / math.gamma(nu)) * abs(b3) / 3.0
        for n in (10**2, 10**3, 10**4, 10**5, 10**6):
            (r,) = su.confluence_table(nu, n, n)
            z = n + nu / 2.0
            assert abs(r.stokes_err_R * z**2 / const - 1.0) <= 1.0 / z**2, (nu, n)


def test_table_converges_and_row_fields():
    rows = su.confluence_table(0.5, 10, 1000)
    assert [r.n for r in rows] == list(range(10, 1001))
    errs = [r.stokes_err_R for r in rows]
    tail = errs[len(errs) // 2 :]
    assert all(a >= b for a, b in zip(tail, tail[1:]))
    assert errs[-1] <= 1e-3
    assert rows[-1].err_R3 <= 1e-3
    assert rows[0].sqrt_eps == pytest.approx(1.0 / 20.5)


def test_diagonal_factor_constancy_and_product():
    import cmath

    from stokes_unfold.perturbed import PerturbParams, monodromy_exponent_factor

    nu = 3.3
    target_l = np.diag([cmath.exp(-1j * math.pi * nu)] * 2 + [cmath.exp(1j * math.pi * nu)])
    target_r = np.diag(
        [cmath.exp(1j * math.pi * nu), cmath.exp(3j * math.pi * nu), cmath.exp(1j * math.pi * nu)]
    )
    for n in (1, 7, 40):
        p = PerturbParams.from_resonant_index(nu, n)
        d_l = monodromy_exponent_factor(p, "L")
        d_r = monodromy_exponent_factor(p, "R")
        assert su.max_abs(d_l - target_l) <= 1e-10
        assert su.max_abs(d_r - target_r) <= 1e-10
        assert su.max_abs(d_l @ d_r - su.formal_monodromy(nu)) <= 1e-10
