"""Resonant sequences, limit targets, Gamma-ratio probe and the tables."""

import cmath
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import ResonanceClass
from stokes_unfold.errors import ResonanceError
from stokes_unfold.gammas import _midpoint_coefficients, log_gamma_ratio, reciprocal_gamma
from stokes_unfold.perturbed import log_resonant_d_range


def test_resonant_sequence_type_c():
    seq = [su.PerturbParams.from_resonant_index(0.5, n) for n in (1, 2, 3)]
    assert [1.0 / p.sqrt_eps for p in seq] == pytest.approx([2.5, 4.5, 6.5])
    assert all(su.classify_resonance(p) is ResonanceClass.C for p in seq)


def test_resonant_sequence_type_b():
    seq = [su.PerturbParams.from_resonant_index(2.0, n) for n in (1, 2, 3)]
    assert [1.0 / p.sqrt_eps for p in seq] == pytest.approx([4.0, 6.0, 8.0])
    assert all(su.classify_resonance(p) is ResonanceClass.B for p in seq)


def test_resonant_sequence_range_errors():
    with pytest.raises(ValueError):
        su.confluence_table(0.9, 0, 3)  # nu + 0 <= 1
    with pytest.raises(ValueError):
        su.confluence_table(0.5, 3, 1)


def test_complex_nu_is_refused_before_the_range_checks():
    # the resonant sequence 1/sqrt(eps) = nu + 2 n is defined for real nu only
    for nu in (0.5 + 0.1j, complex(math.inf, 1.0)):
        with pytest.raises(ResonanceError, match="^confluence tables need real nu$"):
            su.confluence_table(nu, 1, 3)


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


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.7, -0.8, 3.2, 0.3 + 0.2j, -1.1 + 2j, 0.0, 1.0, 8.0])
def test_gamma_ratio_probe_matches_mpmath(alpha):
    # a difference of two log-Gammas near 8e4 at z = 1e4 would miss by ~1e-11
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a = mp.mpmathify(alpha)
        for z in np.geomspace(abs(alpha) + 1.05, 1e4, 25):
            zz = mp.mpf(float(z))
            ref = complex(mp.exp(mp.loggamma(zz + a) - mp.loggamma(zz) - a * mp.log(zz)))
            assert abs(su.gamma_ratio_probe(float(z), alpha) - ref) <= 1e-14 * abs(ref), z


def test_table_columns_and_row_view():
    table = su.confluence_table(0.5, 1, 20)  # recurrence rows for n < 8, midpoint series above
    count = 20
    assert isinstance(table, su.ConfluenceTable) and len(table) == count
    for name, kind in [("n", "i"), ("sqrt_eps", "f"), ("d_L2", "c"), ("d_R3", "c"), ("delta", "f")]:
        column = getattr(table, name)
        assert (column.dtype.kind, column.dtype.itemsize, column.shape) == (kind, 16 if kind == "c" else 8, (count,))
        with pytest.raises(ValueError):
            column[0] = 0
    with pytest.raises(AttributeError):
        table.delta = np.zeros(count)
    with pytest.raises(ValueError):
        su.ConfluenceTable(table.n, table.sqrt_eps[:-1], table.d_L2, table.d_R3, table.delta)
    rows = list(table)
    assert rows == [table[i] for i in range(count)]
    assert table[-1] == rows[-1] and table[-1].n == 20 and table[-count].n == 1
    with pytest.raises(IndexError):
        table[count]
    with pytest.raises(IndexError):
        table[-count - 1]
    assert [type(v) for v in vars(rows[9]).values()] == [int, float, complex, complex] + [float] * 4
    (row,) = su.confluence_table(0.5, 9, 9)
    assert row == rows[8]
    for name in ("sqrt_eps", "d_L2", "d_R3", "err_L2", "err_R3", "stokes_err_L", "stokes_err_R"):
        column = getattr(table, name)
        assert np.array([getattr(r, name) for r in rows], dtype=column.dtype).tobytes() == column.tobytes(), name


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
    # series without cancellation, from z = 8 up and next to nu = 1 and 2; at
    # n < 8 the error columns of the recurrence rows are held to 1e-10
    mp = pytest.importorskip("mpmath")
    bounds = {nu: 1e-13 for nu in (0.5, 3.3, 0.01, 3.99, 7.25, -2.5, 1.99, 1.0 + 1e-7)}
    bounds.update({nu: 1e-12 for nu in (20.0, -30.5, 50.3)})  # the accuracy of 1/Gamma
    with mp.workdps(50):
        for nu, bound in bounds.items():
            nu_mp = mp.mpf(nu)
            for n in (0, 1, 2, 5, 7, 8, 20, 63, 64, 65, 100, 10**3, 10**4, 10**5, 10**6):
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
                    col_bound = bound if n >= 8 or col.startswith("d_") else 1e-10
                    assert rel <= col_bound, f"nu={nu} n={n} {col}: rel err {float(rel):.2e}"


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


def _plain_series(nu, n0, count):
    """The midpoint series of log_gamma_ratio by plain Horner steps, log_r * t + c."""
    z = np.arange(count, dtype=float) + n0 + nu / 2.0
    coeffs = _midpoint_coefficients(nu)
    t = 1.0 / z**2
    log_r = coeffs[-1]
    for c in coeffs[-2::-1]:
        log_r = log_r * t + c
    return log_r * t


def _plain_d_range(nu, n_min, n_max):
    """log_resonant_d_range's formulas on every row as written: the cosine sign of R on
    all rows of the real branch, and -0.5 w cast after the product."""
    nu = complex(nu)
    rg = reciprocal_gamma(nu)
    log_r = log_gamma_ratio(nu, n_min, n_max - n_min + 1)
    if nu.imag or nu.real + 2.0 * n_min <= 0.0:
        w = rg * np.exp(log_r)
        deltas = abs(rg) * np.abs(np.expm1(log_r))
    else:
        sign = np.cos(log_r.imag)
        w = rg.real * sign * np.exp(log_r.real)
        deltas = abs(rg.real) * np.abs(sign * np.expm1(log_r.real) + (sign - 1.0))
    phase = cmath.exp(1j * math.pi * (1.0 - nu))
    return phase * w, np.asarray(-0.5 * w, dtype=complex), deltas


_REAL_NU = tuple(float(v) for v in np.random.default_rng(2718).uniform(-7.9, 8.0, 12))
_PLAIN_NU = _REAL_NU + (-0.5, -3.7, 1.0, 2.0, 3.0, 1.0 + 1e-9, 2.0 - 1e-9, 0.7 + 0.3j, -1.5 + 2.0j, 2.0 - 0.5j)


@pytest.mark.parametrize("nu", _PLAIN_NU)
def test_series_rows_match_plain_horner(nu):
    nu = nu.real if complex(nu).imag == 0.0 else complex(nu)
    n0 = math.ceil(max(8.0, 2.0 * abs(nu) + 1.0) - nu.real / 2.0)  # every row a series row
    for count in (1, 40, 3000):
        ours, plain = log_gamma_ratio(nu, n0, count), _plain_series(nu, n0, count)
        assert ours.dtype == plain.dtype and ours.tobytes() == plain.tobytes(), count


@pytest.mark.parametrize("nu", _PLAIN_NU)
def test_d_range_matches_plain_formulas(nu):
    # head rows, negative factors n + nu and long series ranges alike, column by column
    for n_min, n_max in ((4, 40), (5, 300), (10, 20000), (64, 64)):
        for ours, plain in zip(log_resonant_d_range(nu, n_min, n_max), _plain_d_range(nu, n_min, n_max)):
            assert ours.dtype == plain.dtype and ours.tobytes() == plain.tobytes(), (n_min, n_max)
