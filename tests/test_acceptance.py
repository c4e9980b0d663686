"""Acceptance gate: the eleven end-to-end criteria, one test each.

Every test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
failure output) and then asserts.  Criterion 5 pins the fitted decay exponent
of the unfolded Stokes matrices to the second order stated for the resonant
sequence (-2 +- 0.2): at z = n + nu/2, the midpoint of the Gamma-ratio
arguments, the first-order corrections cancel and
log(d/d_inf) = -B_3(nu/2)/(3 z^2) + O(z^-4).  It also checks the rate constant
that expansion predicts at n = 1000.  Criteria 1, 3 and 8 are properties of
``stokes-unfold check``: they run that check and report its result.
"""

import cmath
import math

import numpy as np

import stokes_unfold as su
from stokes_unfold import Direction, PerturbParams, SeriesKind, SingularPoint, borel, checks
from stokes_unfold.errors import OrdinaryPointError
from stokes_unfold.oracle import expected_log_flag
from stokes_unfold.perturbed import _real_axis_diag


def report(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    return ok


def test_criterion_01_stokes_jumps_vs_quadrature():
    ok, detail = checks.check_jump_closed_forms(np.random.default_rng(0))
    assert report(1, "stokes jump closed forms vs quadrature", ok, detail)


def _lateral_sums(nu, kind, x):
    """(plus, minus): the resummed values on the rays theta_sing +- DELTA_DEFAULT."""
    ts = borel.singular_direction(kind)
    return tuple(su.laplace_sum(su.LaplaceQuery(nu, kind, x, ts + side)) for side in (su.DELTA_DEFAULT, -su.DELTA_DEFAULT))


def test_criterion_02_identity_degeneration():
    worst_entry = 0.0
    worst_jump = 0.0
    for nu in (0, -1, -2, -3):
        for d in Direction:
            worst_entry = max(worst_entry, su.max_abs(su.stokes_matrix(nu, d) - np.eye(3)))
        for kind, x in ((SeriesKind.PSI, 0.15), (SeriesKind.PHI, -0.15)):
            plus, minus = _lateral_sums(nu, kind, x)
            worst_jump = max(worst_jump, abs(minus - plus))
    ok = report(
        2, "identity degeneration at non-positive integers",
        worst_entry == 0.0 and worst_jump <= 1e-9,
        f"entries {worst_entry:.1e}, jumps {worst_jump:.2e}",
    )
    assert ok


def test_criterion_03_residues_vs_contour_oracle():
    # relative 1e-8 on the nonzero residues, |numeric| <= 1e-12 on the exact zeros
    ok, detail = checks.check_residues_vs_oracle(np.random.default_rng(0))
    assert report(3, "residue closed forms vs contour oracle (10 pairs, classes B and C)", ok, detail)


def test_criterion_04_nu_two_exactness():
    lim_l2, lim_r3 = su.limit_targets(2.0)
    worst = 0.0
    for n in range(1, 51):
        d_l2, d_r3 = su.log_resonant_d_values(2.0, n)
        worst = max(worst, abs(d_l2 - (-1.0)), abs(d_r3 - (-0.5)))
        worst = max(worst, abs(d_l2 - lim_l2), abs(d_r3 - lim_r3))
    ok = report(4, "nu = 2 sits exactly at the limits for n in [1, 50]", worst <= 1e-12, f"worst {worst:.2e}")
    assert ok


def test_criterion_05_confluence_convergence():
    details = []
    ok_monotone = ok_final = ok_rate = ok_const = True
    for nu in (0.5, 3.3):
        rows = su.confluence_table(nu, 10, 1000)
        # stokes_err_R * z^2 -> 2 pi |d_inf| |B_3(nu/2)| / 3 with d_inf = -1/(2 Gamma(nu));
        # stokes_err_L carries |d_L2 limit| = 2 |d_inf|, hence twice the constant
        z = rows[-1].n + nu / 2.0
        x = nu / 2.0
        b3 = x**3 - 1.5 * x**2 + 0.5 * x
        const_r = 2.0 * math.pi * abs(0.5 / math.gamma(nu)) * abs(b3) / 3.0
        for column, const in (("stokes_err_L", 2.0 * const_r), ("stokes_err_R", const_r)):
            errs = [getattr(r, column) for r in rows]
            tail = errs[len(errs) // 2 :]
            ok_monotone &= all(a >= b for a, b in zip(tail, tail[1:]))
            ok_final &= errs[-1] <= 1e-3
            rate = su.fitted_rate(rows, column)
            ok_rate &= -2.2 <= rate <= -1.8
            ratio = errs[-1] * z * z / const
            ok_const &= abs(ratio - 1.0) <= 1e-3
            details.append(
                f"nu={nu} {column}: final {errs[-1]:.2e}, exponent {rate:+.3f}, "
                f"err*z^2/constant {ratio:.6f}"
            )
    report(5, "confluence convergence (monotone, final <= 1e-3, exponent -2 +- 0.2, B_3 rate constant)",
           ok_monotone and ok_final and ok_rate and ok_const, "; ".join(details))
    assert ok_monotone, "eventual monotone decrease failed"
    assert ok_final, "final distance above 1e-3"
    assert ok_rate, (
        "fitted rate exponent outside -2 +- 0.2; measured values: " + "; ".join(details)
    )
    assert ok_const, (
        "err*z^2 at n = 1000 off the B_3 rate constant by more than 1e-3: " + "; ".join(details)
    )


def test_criterion_06_gamma_ratio_limit_bound():
    worst_margin = 0.0
    ok = True
    for alpha in (0.25, 0.5, 1.7):
        bound_const = 2.0 * abs(alpha * (alpha - 1.0))
        for z in np.geomspace(50.0, 5000.0, 20):
            err = abs(su.gamma_ratio_probe(float(z), alpha) - 1.0)
            ok = ok and err <= bound_const / z
            worst_margin = max(worst_margin, err * z / bound_const)
    ok = report(6, "Gamma-ratio limit with explicit 2|a(a-1)|/z bound", ok,
                f"worst err/(bound) {worst_margin:.3f}")
    assert ok


def test_criterion_07_monodromy_oracle_agreement():
    worst = 0.0
    logs_ok = True
    for nu, n in ((0.5, 1), (0.5, 2), (2.0, 1), (2.0, 2)):
        params = PerturbParams.from_resonant_index(nu, n)
        assert 1.0 / params.sqrt_eps in (2.5, 4.5, 4.0, 6.0)
        for which in ("L", "R"):
            rep = su.numerical_monodromy(params, which, tol=1e-10)
            worst = max(worst, rep.max_invariant_error)
            logs_ok = logs_ok and rep.log_detected == expected_log_flag(params, which)
    ok = report(7, "numerical monodromy matches closed invariants", worst <= 1e-6 and logs_ok,
                f"worst invariant error {worst:.2e}")
    assert ok


def test_criterion_08_group_relations():
    ok, detail = checks.check_group_factorizations(np.random.default_rng(0))
    assert report(8, "monodromy factorizations and the infinity relation", ok, detail)


def test_criterion_09_borel_sum_function_properties():
    tol = 1e-10
    worst_dir = 0.0
    worst_res = 0.0
    gevrey_ok = True
    angle = {SeriesKind.PSI: 2 * math.pi / 3, SeriesKind.PHI: math.pi / 3}
    for nu in (0.5, 2.0):
        for kind in SeriesKind:
            for radius in (0.05, 0.1):
                x = radius * cmath.exp(1j * angle[kind])
                a = su.laplace_sum(su.LaplaceQuery(nu, kind, x, angle[kind] - math.pi / 6, tol))
                b = su.laplace_sum(su.LaplaceQuery(nu, kind, x, angle[kind] + math.pi / 6, tol))
                worst_dir = max(worst_dir, abs(a - b))
                for _, err, bound in su.asymptotic_remainders(nu, kind, x, angle[kind], n_max=15):
                    gevrey_ok = gevrey_ok and err <= bound
                worst_res = max(worst_res, su.resummed_ode_residual(nu, kind, x, angle[kind], tol))
    ok = report(
        9, "resummation properties (direction independence, Gevrey envelope, residual)",
        worst_dir <= 2 * tol and gevrey_ok and worst_res <= 1e-6,
        f"direction {worst_dir:.2e}, residual {worst_res:.2e}",
    )
    assert ok


def test_criterion_10_ratio_integral_identity():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(10):
        a = rng.uniform(0.1, 1.2)
        b = rng.uniform(1.2, 6.0)
        x = -a - rng.uniform(0.1, 3.0)
        quadrature, closed = su.ratio_integral_check(a, b, x)
        worst = max(worst, abs(quadrature - closed) / abs(closed))
    # instantiation with a = sqrt(eps), b = 1/sqrt(eps) at a resonant point
    params = PerturbParams.from_resonant_index(0.5, 2)
    s = params.sqrt_eps
    x = -3.0 * s
    quadrature, _ = su.ratio_integral_check(s, 1.0 / s, x, tol=1e-12)
    diag = _real_axis_diag(params, x)
    worst_inst = abs(diag[1] * quadrature - diag[3]) / abs(diag[3])
    ok = report(10, "two-pole ratio integral identity", worst <= 1e-8 and worst_inst <= 1e-8,
                f"worst rel {worst:.2e}, instantiation {worst_inst:.2e}")
    assert ok


def test_criterion_11_indicial_consistency():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        params = PerturbParams(rng.uniform(-3.0, 3.0), 1.0 / rng.uniform(1.5, 8.0))
        e = su.characteristic_exponents(params)
        for point, target in (
            (SingularPoint.XL, e.rho_L),
            (SingularPoint.XR, e.rho_R),
            (SingularPoint.INFINITY, e.rho_inf),
        ):
            if point is SingularPoint.INFINITY and abs(params.nu) < 1e-9:
                continue
            roots = su.indicial_roots(params, point)
            worst = max(worst, max(abs(r - t) for r, t in zip(roots, target)))
    raised = False
    try:
        su.indicial_roots(PerturbParams(0.0, 0.2), SingularPoint.INFINITY)
    except OrdinaryPointError:
        raised = True
    ok = report(11, "indicial roots match closed exponents; ordinary point at infinity for nu=0",
                worst <= 1e-8 and raised, f"worst root error {worst:.2e}")
    assert ok
