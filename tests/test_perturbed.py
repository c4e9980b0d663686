"""Perturbed-equation data: coefficients, exponents, resonance classes,
residues, monodromy, unfolded Stokes matrices and the quadrature entries."""

import cmath
import math

import numpy as np
import pytest

import stokes_unfold as su
from stokes_unfold import (
    CompanionSystem,
    OffDiagonal,
    PerturbParams,
    ResonanceClass,
    SeriesKind,
    SingularPoint,
    oracle,
    perturbed,
    quad,
)
from stokes_unfold.errors import (
    BranchCutError,
    DivergentIntegralError,
    DoubleRangeError,
    OrdinaryPointError,
    PathError,
    ResonanceError,
    SingularPointError,
    ToleranceError,
)
from stokes_unfold.perturbed import log_resonant_d_range, monodromy_exponent_factor, resonance_index

# 30-digit quadrature of the defining iterated integrals at nu = 1/2, n = 2
PHI12_HALF_N2_AT_05 = 0.0075640123246726374
PHI13_HALF_N2_AT_M05 = 0.2786777516417034


def coefficients_a(p, x):
    """a_1, a_2, a_3 at x: the diagonal of the companion matrix the ODE oracle transports."""
    return tuple(CompanionSystem.perturbed(p).matrix(x).diagonal())


def test_params_validation():
    with pytest.raises(ValueError):
        PerturbParams(0.5, 1.5)
    with pytest.raises(ValueError):
        PerturbParams(0.5, 0.0)
    with pytest.raises(ValueError):
        PerturbParams.from_resonant_index(0.9, 0)  # nu + 2n <= 1
    p = PerturbParams.from_resonant_index(0.5, 2)
    assert p.sqrt_eps == pytest.approx(1.0 / 4.5)
    assert p.x_L == -p.sqrt_eps and p.x_R == p.sqrt_eps


def test_coefficients_partial_fractions():
    p = PerturbParams(0.7, 0.2)
    s = p.sqrt_eps
    x = 0.37 + 0.11j
    a1, a2, a3 = coefficients_a(p, x)
    h = 1.0 / (2.0 * s)
    assert a1 == pytest.approx(h * (1.0 / (x - s) - 1.0 / (x + s)), rel=1e-14)
    nu = 0.7
    a2_direct = ((nu - 2) / 2 + 1 / s) / (x - s) + ((nu - 2) / 2 - 1 / s) / (x + s)
    a3_direct = (nu - 4) / 2 * (1 / (x - s) + 1 / (x + s))
    assert a2 == pytest.approx(a2_direct, rel=1e-13)
    assert a3 == pytest.approx(a3_direct, rel=1e-13)


def test_coefficients_exponent_form_equivalence():
    # the displayed rational form and the exponent form agree identically
    p = PerturbParams(0.5, 0.2)
    x = 0.5j
    e = su.characteristic_exponents(p)
    direct = coefficients_a(p, x)
    from_exponents = tuple(
        (rho_r - k) / (x - p.x_R) + (rho_l - k) / (x - p.x_L)
        for k, (rho_r, rho_l) in enumerate(zip(e.rho_R, e.rho_L))
    )
    for a, b in zip(direct, from_exponents):
        assert abs(a - b) <= 1e-13 * max(1.0, abs(a))


def test_coefficients_confluence_limit():
    # a_1 = 1/(x^2 - eps) exactly, hence tends to the unperturbed 1/x^2 with
    # deviation eps/(x^2 (x^2 - eps)) -- about 1.23e-6 at x = 0.3, eps = 1e-8
    x = 0.3
    eps = 1e-8
    a1 = coefficients_a(PerturbParams(1.3, 1e-4), x)[0]
    assert a1 == pytest.approx(1.0 / (x * x - eps), rel=1e-12)
    assert abs(a1 - 1.0 / x**2) <= 2e-6


def test_coefficients_singularity_error():
    p = PerturbParams(0.5, 0.2)
    for x_j in (p.x_L, p.x_R):
        with pytest.raises(SingularPointError):
            su.scalar_form_coefficients(p, x_j)


def test_scalar_form_fuchs_pole_orders():
    # c_i (x - x_j)^{3-i} admits a finite limit at each finite singular point
    p = PerturbParams(1.2, 0.25)
    for x_j in (p.x_L, p.x_R):
        for h in (1e-5, 5e-6):
            g1 = [c * h ** (3 - i) for i, c in zip((2, 1, 0), su.scalar_form_coefficients(p, x_j + h))]
            g2 = [
                c * (h / 2) ** (3 - i)
                for i, c in zip((2, 1, 0), su.scalar_form_coefficients(p, x_j + h / 2))
            ]
        for a, b in zip(g1, g2):
            assert abs(a - b) <= 2e-4 * max(1.0, abs(a))


def test_infinity_transform_matches_displayed_form_at_nu_zero():
    # the y''-free transformed equation at nu = 0, against its displayed
    # coefficients (with the (1 -+ sqrt(eps) t)^2 denominators)
    p = PerturbParams(0.0, 0.2)
    s, eps, t = 0.2, 0.04, 0.1
    c2, c1, c0 = su.infinity_form_coefficients(p, t)
    disp_c2 = -3 * s * (1 - 1 / (2 * s)) / (1 - s * t) + 3 * s * (1 + 1 / (2 * s)) / (1 + s * t)
    disp_c1 = (
        (-2 * eps + 0.5) / (1 - s * t)
        + (-2 * eps + 0.5) / (1 + s * t)
        + eps * (1 - 3 / (2 * s) + 1 / (2 * eps)) / (1 - s * t) ** 2
        + eps * (1 + 3 / (2 * s) + 1 / (2 * eps)) / (1 + s * t) ** 2
    )
    assert c2 == pytest.approx(disp_c2, abs=1e-10)
    assert c1 == pytest.approx(disp_c1, abs=1e-10)
    assert abs(c0) <= 1e-10


def test_characteristic_exponent_values():
    p = PerturbParams(0.5, 2.0 / 9.0)
    e = su.characteristic_exponents(p)
    assert np.allclose(e.rho_R, [2.25, 4.75, 0.25])
    assert np.allclose(e.rho_L, [-2.25, -4.25, 0.25])
    assert np.allclose(e.rho_inf, [0.0, 0.5, 1.5])


def test_exponent_difference_identities():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = PerturbParams(rng.uniform(-4, 4), 1.0 / rng.uniform(1.5, 9.0))
        e = su.characteristic_exponents(p)
        for rho, d21, d32, d31 in ((e.rho_R, e.delta_R21, e.delta_R32, e.delta_R31),
                                   (e.rho_L, e.delta_L21, e.delta_L32, e.delta_L31)):
            assert d21 == pytest.approx(rho[1] - rho[0], abs=1e-12)
            assert d32 == pytest.approx(rho[2] - rho[1], abs=1e-12)
            assert d31 == pytest.approx(rho[2] - rho[0], abs=1e-12)
        assert e.delta_R31 == pytest.approx(e.delta_L21, abs=1e-12)
        assert e.delta_L31 == pytest.approx(e.delta_R21, abs=1e-12)
        assert e.delta_L21 == pytest.approx(e.delta_R21 + e.delta_R32, abs=1e-12)
        assert e.delta_L32 == pytest.approx(1.0 / p.sqrt_eps, abs=1e-12)
        # exponent sum over all three points is the Fuchs constant 3
        total = sum(e.rho_R) + sum(e.rho_L) + sum(e.rho_inf)
        assert total == pytest.approx(3.0, abs=1e-10)


def test_indicial_roots_match_closed_exponents():
    p = PerturbParams(2.0, 0.25)
    assert np.allclose(su.indicial_roots(p, SingularPoint.XR), [2.0, 5.0, 1.0], atol=1e-8)
    p2 = PerturbParams(0.5, 0.2)
    assert np.allclose(su.indicial_roots(p2, SingularPoint.INFINITY), [0.0, 0.5, 1.5], atol=1e-8)
    rng = np.random.default_rng(32)
    for _ in range(10):
        p3 = PerturbParams(rng.uniform(-3, 3), 1.0 / rng.uniform(1.5, 8.0))
        e = su.characteristic_exponents(p3)
        for point, target in (
            (SingularPoint.XR, e.rho_R),
            (SingularPoint.XL, e.rho_L),
            (SingularPoint.INFINITY, e.rho_inf),
        ):
            if point is SingularPoint.INFINITY and abs(p3.nu) < 1e-9:
                continue
            roots = su.indicial_roots(p3, point)
            assert max(abs(r - t) for r, t in zip(roots, target)) <= 1e-8


def test_indicial_roots_exact_sweep():
    # exponents read off the factors: roundoff of the partial-fraction weights
    rng = np.random.default_rng(33)
    worst = 0.0
    for j in range(200):
        nu = rng.uniform(-3, 3) + (1j * rng.uniform(-2, 2) if j % 3 == 0 else 0.0)
        p = PerturbParams(nu, 1.0 / rng.uniform(1.5, 8.0))
        e = su.characteristic_exponents(p)
        for point, target in ((SingularPoint.XL, e.rho_L), (SingularPoint.XR, e.rho_R),
                              (SingularPoint.INFINITY, e.rho_inf)):
            roots = su.indicial_roots(p, point)
            worst = max(worst, max(abs(r - t) for r, t in zip(roots, target)))
    assert worst <= 1e-14


def test_indicial_ordinary_point_error():
    with pytest.raises(OrdinaryPointError):
        su.indicial_roots(PerturbParams(0.0, 0.2), SingularPoint.INFINITY)


def test_resonance_classification():
    assert su.classify_resonance(PerturbParams(0.5, 1.0 / 4.5)) is ResonanceClass.C
    assert su.classify_resonance(PerturbParams(2.0, 0.25)) is ResonanceClass.B
    assert su.classify_resonance(PerturbParams(1.0, 0.25)) is ResonanceClass.OTHER_RESONANT
    # delta_R21 = 2 but delta_L21 = -1.5: type D
    assert su.classify_resonance(PerturbParams(0.5, 1.0 / 3.5)) is ResonanceClass.D
    assert su.classify_resonance(PerturbParams(0.31, 1.0 / math.sqrt(7.3))) is ResonanceClass.NON_RESONANT


def test_odd_integer_nu_on_resonant_sequence_is_type_b():
    # nu = 1, n = 2: 1/sqrt(eps) = 5, both exponent differences are integers
    # (3 and -2) and nu/2 + 1/(2 sqrt(eps)) = 3, so the closed forms apply;
    # d_L2 = 1 for every n because the Gamma factors collapse
    p = PerturbParams.from_resonant_index(1.0, 2)
    assert su.classify_resonance(p) is ResonanceClass.B
    res = su.residues(p)
    assert res.d_L2 == pytest.approx(1.0, abs=1e-13)
    assert su.residue_numeric_oracle(p, "L") == pytest.approx(1.0, abs=1e-10)
    lim_l2, _ = su.limit_targets(1.0)
    assert lim_l2 == pytest.approx(1.0, abs=1e-14)


def test_resonance_index():
    assert resonance_index(PerturbParams.from_resonant_index(0.5, 3)) == 3
    with pytest.raises(ResonanceError):
        resonance_index(PerturbParams(0.31, 1.0 / math.sqrt(7.3)))


def test_diagonal_solutions_identities():
    p = PerturbParams(1.3, 0.2)
    x = 0.4 + 0.3j
    phi1, phi2, phi3, phi23 = su.diagonal_solutions(p, x)
    ratio = ((x + p.sqrt_eps) / (x - p.sqrt_eps)) ** (1.0 / p.sqrt_eps)
    assert phi23 / phi2 == pytest.approx(-0.5 * ratio, rel=1e-12)
    # product of the diagonal entries carries exponent sum nu-3 and the
    # accumulated ratio power 3/(2 sqrt(eps))
    nu, s = 1.3, p.sqrt_eps
    prod = phi1 * phi2 * phi3
    direct = cmath.exp(
        (nu - 3.0) * (cmath.log(x - s) + cmath.log(x + s))
        + 1.5 / s * (cmath.log(x - s) - cmath.log(x + s))
    )
    assert prod == pytest.approx(direct, rel=1e-12)


def test_diagonal_solutions_confluence_limit():
    x = 0.4
    phi1 = su.diagonal_solutions(PerturbParams(0.5, 1e-3), x)[0]
    assert abs(phi1 - math.exp(-1.0 / x)) <= 1e-4 * math.exp(-1.0 / x)


def test_diagonal_solutions_nu4_third_entry():
    p = PerturbParams(4.0, 0.2)
    assert su.diagonal_solutions(p, 0.7 + 0.1j)[2] == pytest.approx(1.0, rel=1e-14)


def test_diagonal_solutions_cut_error():
    p = PerturbParams(0.5, 0.2)
    for x in (-1.0, 0.1, p.x_R, -0.3):
        with pytest.raises(BranchCutError):
            su.diagonal_solutions(p, x)


def test_ratio_integral_closed_forms():
    quadrature, closed = su.ratio_integral_check(0.5, 2.0, -1.0)
    assert closed == pytest.approx(-1.0 / 18.0, rel=1e-14)
    assert quadrature == pytest.approx(closed, rel=1e-10)
    quadrature, closed = su.ratio_integral_check(1.0, 3.0, -2.0)
    assert closed == pytest.approx(-(1.0 / 6.0) * (1.0 / 27.0), rel=1e-13)
    assert quadrature == pytest.approx(closed, rel=1e-10)


def test_ratio_integral_random_region():
    rng = np.random.default_rng(33)
    for _ in range(10):
        a = rng.uniform(0.1, 1.2)
        b = rng.uniform(1.2, 6.0)
        x = -a - rng.uniform(0.1, 3.0)
        quadrature, closed = su.ratio_integral_check(a, b, x)
        assert abs(quadrature - closed) <= 1e-8 * abs(closed)


def test_ratio_integral_preconditions():
    with pytest.raises(ValueError):
        su.ratio_integral_check(0.5, 0.9, -1.0)
    with pytest.raises(ValueError):
        su.ratio_integral_check(0.5, 2.0, -0.4)


@pytest.mark.parametrize("a, b, x, log10_scale", [
    (1e-3, 500.0, -1.2e-3, "-514.3"),  # true value about -10^-521
    (1e-3, 2000.0, -1.2e-3, "-2076.4"),
    (0.5, 3000.0, -0.6, "-3123.2"),
])
def test_ratio_integral_refuses_values_below_double_range(a, b, x, log10_scale):
    # both ends would underflow to a silent -0j
    with pytest.raises(DoubleRangeError, match=rf"10\^{log10_scale},"):
        su.ratio_integral_check(a, b, x)


def test_residues_nu2_exact():
    for n in range(2, 11):
        res = su.residues(PerturbParams.from_resonant_index(2.0, n))
        assert abs(res.d_L2 + 1.0) <= 1e-12
        assert abs(res.d_R3 + 0.5) <= 1e-12
        assert res.d_R2 == 0 and res.d_L3 == 0


def test_residues_zero_at_nonpositive_integer_nu():
    res = su.residues(PerturbParams.from_resonant_index(-1.0, 2))
    assert res.d_L2 == 0 and res.d_R3 == 0


def test_residue_matrices_shape():
    res = su.residues(PerturbParams.from_resonant_index(0.5, 2))
    assert res.T_L[0, 1] == res.d_L2 and res.T_R[0, 2] == res.d_R3
    assert np.count_nonzero(res.T_L) == 1 and np.count_nonzero(res.T_R) == 1


def test_residues_rejected_outside_implemented_classes():
    with pytest.raises(ResonanceError):
        su.residues(PerturbParams(1.0, 0.25))  # other-resonant
    with pytest.raises(ResonanceError):
        su.residues(PerturbParams(0.5, 1.0 / 3.5))  # type D
    with pytest.raises(ResonanceError):
        su.residues(PerturbParams.from_resonant_index(-3.0, 3))  # below the derived branch


def test_residue_gate_is_the_resonance_index(monkeypatch):
    # seeded points of every class, negative indices included: the residues, the contour
    # oracle and the ODE oracle refuse exactly where resonance_index does, the ODE oracle
    # before any transport, and what it accepts is class B or C (integer nu <= 0, whose
    # closed forms need n >= 1 - nu, is not drawn)
    def no_transport(*args, **kwargs):
        raise AssertionError("the refused point reached the Taylor transport")

    monkeypatch.setattr(oracle, "integrate_path", no_transport)
    rng = np.random.default_rng(19)
    draws = []
    for _ in range(40):
        n = int(rng.integers(-4, 8))
        nu_int = float(rng.integers(1, 12))
        nu_frac = nu_int - 4.0 + rng.uniform(0.05, 0.95)
        draws += [PerturbParams.from_resonant_index(nu, n) for nu in (nu_int, nu_frac) if nu + 2 * n > 1.0]
        m = math.ceil((nu_frac + 1.0) / 2.0) + int(rng.integers(0, 4))
        draws.append(PerturbParams(nu_frac, 1.0 / (2 * m - nu_frac)))  # D: only delta_R21 = m integral
        draws.append(PerturbParams(nu_frac, 1.0 / int(rng.integers(2, 12))))  # other-resonant
        draws.append(PerturbParams(complex(rng.uniform(-3, 8), rng.uniform(-1, 1)), rng.uniform(0.05, 0.95)))
    seen, negative = set(), 0
    for p in draws:
        cls = su.classify_resonance(p)
        seen.add(cls)
        try:
            resonance_index(p)
        except ResonanceError:
            negative += cls in (ResonanceClass.B, ResonanceClass.C)
            for call in (su.residues, lambda q: su.residue_numeric_oracle(q, "L"),
                         lambda q: su.residue_numeric_oracle(q, "R"),
                         lambda q: su.numerical_monodromy(q, "L")):
                with pytest.raises(ResonanceError):
                    call(p)
            continue
        assert cls in (ResonanceClass.B, ResonanceClass.C)
        su.residues(p)
        # tol 1: what the gate accepts is computed; accuracy refusals are tested elsewhere
        su.residue_numeric_oracle(p, "L", tol=1.0)
        su.residue_numeric_oracle(p, "R", tol=1.0)
    assert seen == set(ResonanceClass) and negative > 0
    # a class-B point with index -1 is refused under the stiffness guard as well
    assert su.classify_resonance(PerturbParams(5.0, 1.0 / 3.0)) is ResonanceClass.B
    with pytest.raises(ResonanceError, match="not a non-negative integer"):
        su.numerical_monodromy(PerturbParams(5.0, 1.0 / 3.0), "L")
    # and one past it (1/sqrt(eps) = 20): the gate comes before the guard
    with pytest.raises(ResonanceError, match="not a non-negative integer"):
        su.numerical_monodromy(PerturbParams.from_resonant_index(30.0, -5), "L")
    for nu in (math.nan, math.inf):
        with pytest.raises(ValueError):
            su.confluence_table(nu, 1, 5)


def test_residue_oracle_nu2():
    p = PerturbParams.from_resonant_index(2.0, 1)
    assert su.residue_numeric_oracle(p, "L") == pytest.approx(-1.0, abs=1e-10)
    assert su.residue_numeric_oracle(p, "R") == pytest.approx(-0.5, abs=1e-10)


def test_residue_oracle_type_c():
    p = PerturbParams.from_resonant_index(0.5, 2)
    res = su.residues(p)
    assert su.residue_numeric_oracle(p, "L") == pytest.approx(res.d_L2, rel=1e-9)
    assert su.residue_numeric_oracle(p, "R") == pytest.approx(res.d_R3, rel=1e-9)


def test_residue_oracle_accuracy_contract():
    # the docstring's contract: within tol max(|d|, 1) of the closed form or ToleranceError,
    # with every n up to `returned` returned.  The rounding estimate is a bound: at tol 1e-7 it
    # refuses five cases with n = 9, 10 whose errors are at most 2.8e-8; n <= 10 needs 1e-5
    for tol, returned in ((1e-10, 5), (1e-8, 7), (1e-7, 8), (1e-5, 10)):
        refused = set()
        for nu in (0.5, 2.0, 3.3, 0.37, -0.5, 1.3, 2.71, 3.6):
            for n in range(11):
                if nu + 2 * n <= 1.0:
                    continue
                p = PerturbParams.from_resonant_index(nu, n)
                res = su.residues(p)
                for kind, closed in (("L", res.d_L2), ("R", res.d_R3)):
                    try:
                        value = su.residue_numeric_oracle(p, kind, tol=tol)
                    except ToleranceError:
                        refused.add(n)
                        continue
                    assert abs(value - closed) <= tol * max(abs(closed), 1.0), (tol, nu, n, kind)
        assert all(n > returned for n in refused), (tol, refused)


def test_residue_oracle_refuses_indices_its_nodes_alias(monkeypatch):
    # from n = 64 on the 64 nodes of the first level see u^-n as u^-(n - 64), and the nested
    # 32-node sum sees the same alias, so the halving estimate cannot tell: without the guard
    # nu = 1/2, n = 74 is certified at tol 1e-10 as -9.8e50, where d_R3 = -0.28
    for n in (64, 74, 100, 1000):
        for side in "LR":
            with pytest.raises(ToleranceError, match="alias"):
                su.residue_numeric_oracle(PerturbParams.from_resonant_index(0.5, n), side, tol=1e-3)
    # the guard's index is the node count on the period of the trapezoid rule's first level
    first = []
    monkeypatch.setattr(perturbed, "trapezoid", lambda f, w, rtol, **kwargs: quad.trapezoid(
        lambda phi: first.append(phi.size) or f(phi), w, rtol, **kwargs))
    su.residue_numeric_oracle(PerturbParams.from_resonant_index(0.5, 2), "R")
    assert first == [perturbed._ORACLE_ALIAS_INDEX + 1]


def test_integer_exponent_integrand_has_no_residue_at_other_point():
    # class B makes the L2-integrand meromorphic; around x_R it is analytic,
    # so the same contour integral vanishes
    p = PerturbParams.from_resonant_index(2.0, 1)
    s = p.sqrt_eps
    z = 1.0 / (2.0 * s)
    n = resonance_index(p)
    phi = 2.0 * math.pi * np.arange(4096) / 4096
    xs = p.x_R + (s / 2.0) * np.exp(1j * phi)
    integrand = (xs - s) ** (z + p.nu.real / 2 - 1) / (xs + s) ** (n + 1)
    total = (s / 2.0 / 4096) * np.sum(integrand * np.exp(1j * phi))
    assert abs(total) <= 1e-12


def test_monodromy_matrices_type_b_display():
    p = PerturbParams.from_resonant_index(2.0, 2)
    m_l, m_r = su.monodromy_matrices(p)
    expected_l = np.eye(3, dtype=complex)
    expected_l[0, 1] = 2j * math.pi * (-1.0)
    expected_r = np.eye(3, dtype=complex)
    expected_r[0, 2] = 2j * math.pi * (-0.5)
    assert su.max_abs(m_l - expected_l) <= 1e-12
    assert su.max_abs(m_r - expected_r) <= 1e-12


def test_monodromy_matrices_type_c_display():
    nu = 0.5
    p = PerturbParams.from_resonant_index(nu, 2)
    m_l, m_r = su.monodromy_matrices(p)
    res = su.residues(p)
    e_p = cmath.exp(1j * math.pi * nu)
    e_m = cmath.exp(-1j * math.pi * nu)
    e_3 = cmath.exp(3j * math.pi * nu)
    expected_r = np.diag([e_p, e_3, e_p]).astype(complex)
    expected_r[0, 2] = 2j * math.pi * e_p * res.d_R3
    expected_l = np.diag([e_m, e_m, e_p]).astype(complex)
    expected_l[0, 1] = 2j * math.pi * e_m * res.d_L2
    assert su.max_abs(m_r - expected_r) <= 1e-12
    assert su.max_abs(m_l - expected_l) <= 1e-12


def test_monodromy_eigenvalues_match_exponent_multiset():
    p = PerturbParams.from_resonant_index(0.5, 2)
    e = su.characteristic_exponents(p)
    _, m_r = su.monodromy_matrices(p)
    closed = sorted(
        (cmath.exp(2j * math.pi * (rho - k)) for k, rho in enumerate(e.rho_R)),
        key=lambda v: (round(v.real, 9), round(v.imag, 9)),
    )
    numeric = sorted(np.linalg.eigvals(m_r), key=lambda v: (round(v.real, 9), round(v.imag, 9)))
    assert max(abs(a - b) for a, b in zip(closed, numeric)) <= 1e-12


def test_monodromy_factor_commutation():
    from stokes_unfold.mat3 import exp_first_row_nilpotent

    for nu, n in [(0.5, 2), (2.0, 1), (3.3, 2)]:
        p = PerturbParams.from_resonant_index(nu, n)
        res = su.residues(p)
        for side, t in (("L", res.T_L), ("R", res.T_R)):
            d = monodromy_exponent_factor(p, side)
            u = exp_first_row_nilpotent(t, 2j * math.pi)
            assert su.max_abs(d @ u - u @ d) <= 1e-12


def test_diagonal_exponentials_match_entrywise_exp_bytewise():
    # the diagonal factors exponentiate the (Lambda, Q) diagonals directly, with the
    # same floating-point operations as exp(scale D) taken entrywise on the 3x3 matrices
    def exp_diagonal(a, scale):
        return np.diag(np.exp(scale * np.diag(a)))

    for nu in (0.5, 2.0, 3.3, -1.25, 0.3 + 0.7j):
        lam, q = su.formal_data(nu).Lambda, su.formal_data(nu).Q
        assert su.formal_monodromy(nu).tobytes() == exp_diagonal(lam, 2j * math.pi).tobytes()
        for sqrt_eps in (0.05, 1 / 3, 0.9):
            p = PerturbParams(nu, sqrt_eps)
            for side, x_j in (("L", p.x_L), ("R", p.x_R)):
                expected = exp_diagonal(lam + q / x_j, 1j * math.pi)
                assert monodromy_exponent_factor(p, side).tobytes() == expected.tobytes()


def test_unfolded_stokes_values_and_infinity_relation():
    p = PerturbParams.from_resonant_index(2.0, 3)
    st_l, st_r = su.unfolded_stokes(p)
    expected_l = np.eye(3, dtype=complex)
    expected_l[0, 1] = -2j * math.pi
    expected_r = np.eye(3, dtype=complex)
    expected_r[0, 2] = -1j * math.pi
    assert su.max_abs(st_l - expected_l) <= 1e-12
    assert su.max_abs(st_r - expected_r) <= 1e-12

    res0 = su.residues(PerturbParams.from_resonant_index(-1.0, 2))
    assert res0.d_L2 == 0 and res0.d_R3 == 0  # identity unfolded matrices

    for nu, n in [(0.5, 1), (2.0, 2), (3.3, 2), (-1.0, 3), (1.0, 2)]:
        params = PerturbParams.from_resonant_index(nu, n)
        m_l, m_r = su.monodromy_matrices(params)
        st_l, st_r = su.unfolded_stokes(params)
        m_hat = su.formal_monodromy(nu)
        lhs = m_l @ np.linalg.inv(m_hat) @ m_r @ m_hat
        assert su.max_abs(lhs - st_l @ st_r @ m_hat) <= 1e-12


@pytest.mark.parametrize("nu", [0.37, 0.5, 1.3, 2.0, 3.3, -0.5])
@pytest.mark.parametrize("n", [415, 10**3, 10**4, 10**5, 10**6])
def test_monodromy_matrices_serve_every_index(nu, n):
    # every index the confluence table reports: the factors commute and the relation at
    # infinity holds up to the roundoff of exp(2 pi i w), |w| ~ 2n (worst seen 1.8e-14 n)
    p = PerturbParams.from_resonant_index(nu, n)
    m_l, m_r = su.monodromy_matrices(p)
    st_l, st_r = su.unfolded_stokes(p)
    d_l, d_r = monodromy_exponent_factor(p, "L"), monodromy_exponent_factor(p, "R")
    m_hat = su.formal_monodromy(nu)
    assert su.max_abs(m_l - st_l @ d_l) <= 3e-14 * n
    assert su.max_abs(m_r - st_r @ d_r) <= 3e-14 * n
    lhs = m_l @ np.linalg.inv(m_hat) @ m_r @ m_hat
    assert su.max_abs(lhs - st_l @ st_r @ m_hat) <= 3e-14 * n


def test_offdiag_quadrature_reference_values():
    p = PerturbParams.from_resonant_index(0.5, 2)
    v12 = su.offdiag_solution_quadrature(p, 0.5, OffDiagonal.PHI12, tol=1e-11)
    assert v12 == pytest.approx(PHI12_HALF_N2_AT_05, rel=1e-9)
    v13 = su.offdiag_solution_quadrature(p, -0.5, OffDiagonal.PHI13, tol=1e-11)
    assert v13 == pytest.approx(PHI13_HALF_N2_AT_M05, rel=1e-9)


def test_offdiag_confluence_limit():
    # Phi12 approaches x^nu e^{-2/x} times the resummed series as eps -> 0
    nu, x = 0.5, 0.3
    v = su.offdiag_solution_quadrature(PerturbParams(nu, 1e-3), x, OffDiagonal.PHI12, tol=1e-12)
    phi = su.laplace_sum(su.LaplaceQuery(nu, SeriesKind.PHI, x, 0.0, 1e-12))
    limit = x**nu * math.exp(-2.0 / x) * phi
    assert abs(v - limit) <= 1e-3 * abs(limit)


def test_offdiag_preconditions():
    p = PerturbParams.from_resonant_index(0.5, 2)
    with pytest.raises(PathError):
        su.offdiag_solution_quadrature(p, 0.1, OffDiagonal.PHI12)  # inside [x_L, x_R]
    with pytest.raises(PathError):
        su.offdiag_solution_quadrature(p, 0.5 + 0.2j, OffDiagonal.PHI12)
    with pytest.raises(PathError):
        su.offdiag_solution_quadrature(p, 0.5, OffDiagonal.PHI13)  # wrong side
    with pytest.raises(DivergentIntegralError):
        su.offdiag_solution_quadrature(PerturbParams(-5.0, 1.0 / 2.1), 0.9, OffDiagonal.PHI12)


@pytest.mark.parametrize("nu, x_over_s, which, log10_scale", [
    (-400.0, 31.0, OffDiagonal.PHI12, "863.2"),  # above DBL_MAX
    (-100.0, -1.1, OffDiagonal.PHI13, "340.6"),
    (300.0, 31.0, OffDiagonal.PHI12, "-477.8"),  # below DBL_MIN
])
def test_offdiag_refuses_entries_outside_double_range(nu, x_over_s, which, log10_scale):
    s = 1.0 / 1001.0
    with pytest.raises(DoubleRangeError, match=rf"10\^{log10_scale},"):
        su.offdiag_solution_quadrature(PerturbParams(nu, s), x_over_s * s, which)


def test_sign_flip_mirror_identity():
    # the sqrt(eps) -> -sqrt(eps) relabelling ties the two families together
    for nu, n in [(0.5, 2), (2.0, 2), (3.3, 1)]:
        d_l2, d_r3 = su.log_resonant_d_values(nu, n)
        assert d_l2 == pytest.approx(2.0 * cmath.exp(-1j * math.pi * nu) * d_r3, rel=1e-13)


def test_complex_d_values_match_mpmath():
    # complex nu, and real nu = -2.5 where z = n + nu/2 < 0 at n = 0, 1 makes R complex
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for nu in (0.3 + 0.7j, -1.2 + 0.4j, 0.5 + 5j, -2.5):
            nu_mp = mp.mpmathify(nu)
            for n in range(41):
                w = (n + nu_mp / 2) ** (1 - nu_mp) * mp.rf(nu_mp, n) / mp.factorial(n)
                d_l2, d_r3 = su.log_resonant_d_values(nu, n)
                for got, ref in ((d_l2, mp.exp(1j * mp.pi * (1 - nu_mp)) * w), (d_r3, -w / 2)):
                    assert abs(got - ref) <= 1e-13 * abs(ref), (nu, n)


@pytest.mark.parametrize("nu", [-1 + 1e-10, -1 - 3e-10, -2 + 5e-10, -3 + 2e-10, -7 + 1e-10, 1e-10, -4e-10])
def test_d_values_next_to_a_nonpositive_integer_nu_match_mpmath(nu):
    # 1/Gamma(nu) is small there but not zero, so neither are the d-values; rows below
    # n = 1 - round(nu) are served too.  delta holds 1e-10 away from nu = 0, where R = 1 costs
    # it relative accuracy in proportion to the distance
    mp = pytest.importorskip("mpmath")
    n_min = next(n for n in range(40) if nu + 2 * n > 1)
    d_l2, d_r3, delta = log_resonant_d_range(nu, n_min, 39)
    with mp.workdps(50):
        nu_mp = mp.mpf(nu)
        for i, n in enumerate(range(n_min, 40)):
            w = (n + nu_mp / 2) ** (1 - nu_mp) * mp.rf(nu_mp, n) / mp.factorial(n)
            for got, ref in ((d_l2[i], mp.exp(1j * mp.pi * (1 - nu_mp)) * w), (d_r3[i], -w / 2)):
                assert abs(got - ref) <= 1e-13 * abs(ref), n
            if abs(nu) > 0.5:
                ref = abs(w - mp.rgamma(nu_mp))
                assert abs(delta[i] - ref) <= 1e-10 * ref, n
