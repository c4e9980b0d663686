"""Named property checks over every module, runnable from the CLI.

Each check draws its samples from a seeded generator, measures a worst-case
error against the bound it declares and returns ``(passed, detail)``, reported
rather than raised; ``ALL_CHECKS`` is the single statement of each property.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import borel, confluence, oracle, perturbed, unperturbed
from .gammas import gamma, reciprocal_gamma
from .mat3 import exp_first_row_nilpotent, identity3, max_abs
from .paths import circle
from .series import SeriesKind, build_series, borel_transform_value, ode_residual_coefficients


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    detail: str


def _bounded(err, bound, note=""):
    detail = f"max error {err:.3e} against bound {bound:.3e}"
    if note:
        detail += f" ({note})"
    return bool(err <= bound), detail


def _random_nus(rng, count, scale=20.0, keep_clear_of_integers=True):
    """count uniform draws from the disc |nu| <= scale, with keep_clear_of_integers outside
    the squares of half-side 0.05 about the integers, by rejection.  A batch rng.random(2 k)
    holds the doubles of 2 k scalar calls in order and holds only the pairs still missing,
    so the numbers, and where the stream stands after them, do not depend on the batching;
    width u - scale is rng.uniform(-scale, scale) bit for bit."""
    width = 2.0 * scale
    out = []
    while len(out) < count:
        u = (width * rng.random(2 * (count - len(out))) - scale).tolist()
        for z in map(complex, u[::2], u[1::2]):
            if abs(z) > scale:
                continue
            if keep_clear_of_integers and abs(z.real - round(z.real)) < 0.05 and abs(z.imag) < 0.05:
                continue
            out.append(z)
    return out


def _random_nu(rng, scale=20.0, keep_clear_of_integers=True):
    return _random_nus(rng, 1, scale, keep_clear_of_integers)[0]


# ---------------------------------------------------------------- gamma core


def check_gamma_reflection(rng):
    worst = 0.0
    for z in _random_nus(rng, 1000):
        ref = math.pi / cmath.sin(math.pi * z)
        worst = max(worst, abs(gamma(z) * gamma(1.0 - z) - ref) / abs(ref))
    return _bounded(worst, 1e-10)


def check_gamma_recurrence(rng):
    worst = 0.0
    for z in _random_nus(rng, 1000):
        g1 = gamma(z + 1.0)
        worst = max(worst, abs(g1 - z * gamma(z)) / abs(g1))
    return _bounded(worst, 1e-11)


def check_reciprocal_product(rng):
    worst = 0.0
    for z in _random_nus(rng, 500):
        worst = max(worst, abs(reciprocal_gamma(z) * gamma(z) - 1.0))
    return _bounded(worst, 1e-11)


def check_nilpotent_exponential(rng):
    # 100 draws of (t12, t13, scale), in the order of 600 scalar normal() calls
    draws = rng.normal(size=(100, 6))
    entries = draws[:, 0::2] + 1j * draws[:, 1::2]
    t = np.zeros((100, 3, 3), dtype=complex)
    t[:, 0, 1:] = entries[:, :2]
    scaled = entries[:, 2, None, None] * t
    series = np.tile(identity3(), (100, 1, 1))
    power = series.copy()
    for k in range(1, 11):
        power = power @ scaled / k
        series += power
    worst = max(max_abs(exp_first_row_nilpotent(tj, scale) - sj)
                for tj, scale, sj in zip(t, entries[:, 2], series))
    return _bounded(worst, 1e-14)


# ------------------------------------------------------------- formal series


def check_borel_partial_sums(rng):
    worst = 0.0
    for _ in range(60):
        nu = _random_nu(rng, scale=3.0, keep_clear_of_integers=False)
        kind = SeriesKind.PSI if rng.random() < 0.5 else SeriesKind.PHI
        zeta = 0.6 * cmath.exp(1j * rng.uniform(0, 2 * math.pi)) * rng.random()
        series = build_series(nu, kind, 60)
        partial = sum(
            c / math.factorial(k) * zeta**k for k, c in enumerate(series.coefficients)
        )
        worst = max(worst, abs(partial - borel_transform_value(nu, kind, zeta)))
    return _bounded(worst, 1e-9)


def check_series_residual(rng):
    worst = 0.0
    for nu in (0.5, -2.0, 1.0, 1.75 + 0.5j):
        for kind in SeriesKind:
            res = ode_residual_coefficients(build_series(nu, kind, 12))
            worst = max(worst, max(abs(c) for c in res[:13]))
    return _bounded(worst, 0.0, "exact zeros required")


def check_terminating_series(rng):
    ok = True
    for m in range(4):
        nu = -m
        for kind in SeriesKind:
            s = build_series(nu, kind, 12)
            nonzero = [c for c in s.coefficients if c != 0]
            top = s.coefficients[m]
            expected = math.factorial(m) * ((-1) ** m if kind is SeriesKind.PSI else 1)
            ok = ok and len(nonzero) == m + 1 and top == expected
    return ok, "top coefficients and lengths checked"


# ------------------------------------------------------------- borel laplace


def check_direction_independence(rng):
    tol = 1e-10
    worst = 0.0
    for nu, kind in ((0.5, SeriesKind.PSI), (2.0, SeriesKind.PHI)):
        x = 0.1 * cmath.exp(1j * math.pi / 5)
        a = borel.laplace_sum(borel.LaplaceQuery(nu, kind, x, math.pi / 6, tol))
        b = borel.laplace_sum(borel.LaplaceQuery(nu, kind, x, math.pi / 3, tol))
        worst = max(worst, abs(a - b))
    return _bounded(worst, 2.0 * tol)


def check_asymptotic_bound(rng):
    # test directions chosen per family: PSI has positive coefficients, so
    # an obtuse arg x keeps even the order-0 remainder |f| inside C = 1;
    # PHI alternates and wants an acute direction for the same reason
    angle = {SeriesKind.PSI: 2.0 * math.pi / 3.0, SeriesKind.PHI: math.pi / 3.0}
    ok = True
    worst_ratio = 0.0
    for nu in (0.5, 2.0):
        for kind in SeriesKind:
            for radius in (0.05, 0.1):
                x = radius * cmath.exp(1j * angle[kind])
                rows = borel.asymptotic_remainders(nu, kind, x, angle[kind], n_max=15)
                for _, err, bound in rows:
                    worst_ratio = max(worst_ratio, err / bound)
                    ok = ok and err <= bound
    return ok, f"worst remainder/bound ratio {worst_ratio:.3f}"


def check_resummed_ode(rng):
    worst = 0.0
    for nu in (0.5, 2.0):
        for kind in SeriesKind:
            x = 0.1 * cmath.exp(1j * math.pi / 3)
            worst = max(worst, borel.resummed_ode_residual(nu, kind, x, math.pi / 3))
    return _bounded(worst, 1e-6)


def check_jump_closed_forms(rng):
    worst = 0.0
    for nu in (0.5, 1.0 / 3.0, 2.0, 3.7):
        for kind, x in ((SeriesKind.PSI, 0.15), (SeriesKind.PHI, -0.15)):
            c = borel.stokes_jump_quadrature(nu, kind, x, tol=1e-11)
            closed = borel.jump_coefficient_closed(nu, kind)
            worst = max(worst, abs(c - closed) / abs(closed))
    return _bounded(worst, 1e-6)


# ---------------------------------------------------------- initial equation


def check_origin_monodromy_structure(rng):
    worst = 0.0
    for _ in range(50):
        nu = _random_nu(rng, scale=5.0)
        m0 = unperturbed.monodromy_origin(nu)
        product = (
            unperturbed.stokes_matrix(nu, unperturbed.Direction.PI)
            @ unperturbed.stokes_matrix(nu, unperturbed.Direction.ZERO)
            @ unperturbed.formal_monodromy(nu)
        )
        worst = max(worst, max_abs(m0 - product))
        lam = cmath.exp(2j * math.pi * nu)  # e^{2 pi i nu} grows fast in Im nu: compare relatively
        diag = np.diag(m0)
        worst = max(worst, abs(diag[0] - 1.0))
        worst = max(worst, abs(diag[1] - lam) / max(1.0, abs(lam)))
        worst = max(worst, abs(diag[2] - lam) / max(1.0, abs(lam)))
    return _bounded(worst, 1e-12)


def check_stokes_identity_at_degenerate(rng):
    worst = 0.0
    for m in range(0, 8):
        for d in unperturbed.Direction:
            worst = max(worst, max_abs(unperturbed.stokes_matrix(-m, d) - identity3()))
    return _bounded(worst, 0.0)


def check_jump_matches_stokes_entry(rng):
    worst = 0.0
    for nu in (0.5, 2.0, 3.7):
        c = borel.stokes_jump_quadrature(nu, SeriesKind.PSI, 0.15, tol=1e-11)
        entry = unperturbed.stokes_matrix(nu, unperturbed.Direction.ZERO)[0, 2]
        worst = max(worst, abs(0.5 * c - entry) / abs(entry))
    return _bounded(worst, 1e-6)


# --------------------------------------------------------- perturbed equation


def _random_params(rng):
    nu = rng.uniform(-4.0, 4.0)
    inv = rng.uniform(1.5, 9.0)
    return perturbed.PerturbParams(nu, 1.0 / inv)


def check_exponent_identities(rng):
    worst = 0.0
    for _ in range(50):
        p = _random_params(rng)
        e = perturbed.characteristic_exponents(p)
        worst = max(worst, abs(e.delta_R31 - e.delta_L21))
        worst = max(worst, abs(e.delta_L31 - e.delta_R21))
        worst = max(worst, abs(e.delta_L21 - (e.delta_R21 + e.delta_R32)))
        worst = max(worst, abs(e.delta_L32 - 1.0 / p.sqrt_eps))
        for rho, d21, d32, d31 in ((e.rho_R, e.delta_R21, e.delta_R32, e.delta_R31),
                                   (e.rho_L, e.delta_L21, e.delta_L32, e.delta_L31)):
            for delta, (i, j) in ((d21, (1, 0)), (d32, (2, 1)), (d31, (2, 0))):
                worst = max(worst, abs(delta - (rho[i] - rho[j])))
        total = sum(e.rho_R) + sum(e.rho_L) + sum(e.rho_inf)
        worst = max(worst, abs(total - 3.0))
    return _bounded(worst, 1e-10)


RESONANT_PAIRS = (
    (2.0, 1), (2.0, 3), (4.0, 2), (-1.0, 2), (1.0, 2),
    (0.5, 1), (0.5, 2), (3.3, 2), (-0.5, 2), (2.5, 3),
)


def check_residues_vs_oracle(rng):
    worst = 0.0
    for nu, n in RESONANT_PAIRS:
        params = perturbed.PerturbParams.from_resonant_index(nu, n)
        res = perturbed.residues(params)
        for side, closed in (("L", res.d_L2), ("R", res.d_R3)):
            numeric = perturbed.residue_numeric_oracle(params, side)
            if closed == 0:
                # relative error is degenerate on the exact zeros; hold the
                # oracle to an absolute 1e-12 there, rescaled onto the bound
                worst = max(worst, (abs(numeric) / 1e-12) * 1e-8)
            else:
                worst = max(worst, abs(numeric - closed) / abs(closed))
    return _bounded(worst, 1e-8)


def check_group_factorizations(rng):
    worst = 0.0
    for nu, n in [(0.5, 1), (0.5, 3), (2.0, 1), (2.0, 4), (3.3, 2), (-1.0, 3), (1.0, 2), (4.0, 1), (2.5, 2), (0.25, 2)]:
        params = perturbed.PerturbParams.from_resonant_index(nu, n)
        m_l, m_r = perturbed.monodromy_matrices(params)
        st_l, st_r = perturbed.unfolded_stokes(params)
        d_l = perturbed.monodromy_exponent_factor(params, "L")
        d_r = perturbed.monodromy_exponent_factor(params, "R")
        m_hat = unperturbed.formal_monodromy(nu)
        worst = max(worst, max_abs(m_l - d_l @ st_l))
        worst = max(worst, max_abs(m_r - st_r @ d_r))
        worst = max(worst, max_abs(m_l - st_l @ d_l))
        worst = max(worst, max_abs(m_r - d_r @ st_r))
        lhs = m_l @ np.linalg.inv(m_hat) @ m_r @ m_hat
        worst = max(worst, max_abs(lhs - st_l @ st_r @ m_hat))
    return _bounded(worst, 1e-12)


def check_jordan_structure(rng):
    ok = True
    for nu, n in [(0.5, 1), (2.0, 1), (-1.0, 2)]:
        params = perturbed.PerturbParams.from_resonant_index(nu, n)
        for m, which in zip(perturbed.monodromy_matrices(params), "LR"):
            eigs = oracle.closed_loop_eigenvalues(params, which)
            ok = ok and oracle.detect_log_structure(m, eigs) == oracle.expected_log_flag(params, which)
    return ok, "rank test against d != 0"


def check_sign_flip_symmetry(rng):
    """Flipping the sign of sqrt(eps) relabels the two singular points:
    the exponent roles swap and the two residue families mirror each other
    through the factor 2 e^{-i pi nu}."""
    worst = 0.0
    for _ in range(20):
        p = _random_params(rng)
        e = perturbed.characteristic_exponents(p)
        flipped = perturbed.exponent_data(p.nu, -p.sqrt_eps)
        worst = max(worst, max(abs(a - b) for a, b in zip(flipped.rho_R, e.rho_L)))
        worst = max(worst, max(abs(a - b) for a, b in zip(flipped.rho_L, e.rho_R)))
    for nu, n in [(0.5, 2), (2.0, 2), (3.3, 1)]:
        d_l2, d_r3 = perturbed.log_resonant_d_values(nu, n)
        mirror = 2.0 * cmath.exp(-1j * math.pi * nu) * d_r3
        worst = max(worst, abs(d_l2 - mirror))
    return _bounded(worst, 1e-12)


def check_phi23_consistency(rng):
    worst = 0.0
    for nu, n in [(0.5, 2), (2.0, 1)]:
        params = perturbed.PerturbParams.from_resonant_index(nu, n)
        s = params.sqrt_eps
        x = -3.0 * s
        quadrature, _ = perturbed.ratio_integral_check(s, 1.0 / s, x, tol=1e-12)
        diag = perturbed._real_axis_diag(params, x)
        worst = max(worst, abs(diag[1] * quadrature - diag[3]) / abs(diag[3]))
    return _bounded(worst, 1e-8)


# ----------------------------------------------------------------- confluence


def check_diagonal_factor_constancy(rng):
    worst = 0.0
    for nu in (0.5, 2.0, 3.3):
        target_l = np.diag([cmath.exp(-1j * math.pi * nu)] * 2 + [cmath.exp(1j * math.pi * nu)])
        target_r = np.diag(
            [cmath.exp(1j * math.pi * nu), cmath.exp(3j * math.pi * nu), cmath.exp(1j * math.pi * nu)]
        )
        for n in (1, 5, 20):
            params = perturbed.PerturbParams.from_resonant_index(nu, n)
            d_l = perturbed.monodromy_exponent_factor(params, "L")
            d_r = perturbed.monodromy_exponent_factor(params, "R")
            worst = max(worst, max_abs(d_l - target_l), max_abs(d_r - target_r))
            worst = max(worst, max_abs(d_l @ d_r - unperturbed.formal_monodromy(nu)))
    return _bounded(worst, 1e-10)


def check_confluence_convergence(rng):
    """Monotone decrease, final size and the second-order (-2 +- 0.2) rate exponent."""
    details = []
    ok = True
    for nu in (0.5, 3.3):
        table = confluence.confluence_table(nu, 10, 1000)
        errs = table.stokes_err_R
        tail = errs[len(errs) // 2 :]
        monotone = bool(np.all(tail[:-1] >= tail[1:]))
        final_ok = bool(errs[-1] <= 1e-3)
        rate = confluence.fitted_rate(table, "stokes_err_R")
        rate_ok = -2.2 <= rate <= -1.8
        ok = ok and monotone and final_ok and rate_ok
        details.append(f"nu={nu}: final {errs[-1]:.2e}, fitted exponent {rate:+.3f}")
    return ok, "; ".join(details)


def check_probe_rate(rng):
    ok = True
    for alpha in (0.25, 0.5, 1.7):
        e1 = abs(confluence.gamma_ratio_probe(100.0, alpha) - 1.0)
        e2 = abs(confluence.gamma_ratio_probe(200.0, alpha) - 1.0)
        ok = ok and e2 < 0.6 * e1
    return ok, "halving z scales the defect by < 0.6"


# ----------------------------------------------------------------- ode oracle


def check_loop_orientation(rng):
    params = perturbed.PerturbParams.from_resonant_index(0.5, 1)
    system = oracle.CompanionSystem.perturbed(params)
    loop = oracle.loop_around(params, "R")
    m = oracle.integrate_path(system, loop, identity3(), tol=1e-10)
    m_rev = oracle.integrate_path(system, loop.reversed(), identity3(), tol=1e-10)
    worst, _ = oracle._match_eigenvalues(
        tuple(np.linalg.eigvals(m)), tuple(1.0 / np.linalg.eigvals(m_rev))
    )
    return _bounded(worst, 1e-6)


def check_base_point_independence(rng):
    params = perturbed.PerturbParams.from_resonant_index(0.5, 1)
    system = oracle.CompanionSystem.perturbed(params)
    s = params.sqrt_eps
    m1 = oracle.integrate_path(system, oracle.loop_around(params, "L"), identity3(), tol=1e-10)
    shifted = circle(params.x_L, s, angle_start=math.pi / 2)
    m2 = oracle.integrate_path(system, shifted, identity3(), tol=1e-10)
    e1 = sorted(np.linalg.eigvals(m1), key=lambda v: (v.real, v.imag))
    e2 = sorted(np.linalg.eigvals(m2), key=lambda v: (v.real, v.imag))
    worst = max(abs(a - b) for a, b in zip(e1, e2))
    return _bounded(worst, 1e-6)


def check_radius_independence(rng):
    r1 = oracle.unperturbed_monodromy(0.5, radius=0.7, tol=1e-9)
    r2 = oracle.unperturbed_monodromy(0.5, radius=1.3, tol=1e-9)
    e1 = sorted(r1.eigenvalues_numeric, key=lambda v: (v.real, v.imag))
    e2 = sorted(r2.eigenvalues_numeric, key=lambda v: (v.real, v.imag))
    worst = max(abs(a - b) for a, b in zip(e1, e2))
    worst = max(worst, abs(float(r1.log_detected) - float(r2.log_detected)))
    return _bounded(worst, 1e-6)


def check_determinant_identity(rng):
    worst = 0.0
    for nu, n, which in [(0.5, 1, "R"), (2.0, 1, "L")]:
        params = perturbed.PerturbParams.from_resonant_index(nu, n)
        report = oracle.numerical_monodromy(params, which, tol=1e-10)
        e = perturbed.characteristic_exponents(params)
        rho = e.rho_R if which == "R" else e.rho_L
        det_closed = cmath.exp(2j * math.pi * (sum(rho) - 3.0))
        worst = max(worst, abs(np.linalg.det(report.M_numeric) - det_closed))
    return _bounded(worst, 1e-6)


# ------------------------------------------------------------------------ cli


def check_serialization_roundtrip(rng):
    import json

    from .cli import complex_to_json

    worst_bad = 0
    for _ in range(200):
        z = complex(rng.normal() * 10.0**rng.integers(-8, 8), rng.normal())
        blob = json.dumps(complex_to_json(z))
        back = json.loads(blob)
        if complex(back["re"], back["im"]) != z:
            worst_bad += 1
    return worst_bad == 0, f"{worst_bad} mismatches in 200"


ALL_CHECKS = (
    ("complex_core", check_gamma_reflection),
    ("complex_core", check_gamma_recurrence),
    ("complex_core", check_reciprocal_product),
    ("complex_core", check_nilpotent_exponential),
    ("formal_series", check_borel_partial_sums),
    ("formal_series", check_series_residual),
    ("formal_series", check_terminating_series),
    ("borel_laplace", check_direction_independence),
    ("borel_laplace", check_asymptotic_bound),
    ("borel_laplace", check_resummed_ode),
    ("borel_laplace", check_jump_closed_forms),
    ("initial_equation", check_origin_monodromy_structure),
    ("initial_equation", check_stokes_identity_at_degenerate),
    ("initial_equation", check_jump_matches_stokes_entry),
    ("perturbed_equation", check_exponent_identities),
    ("perturbed_equation", check_residues_vs_oracle),
    ("perturbed_equation", check_group_factorizations),
    ("perturbed_equation", check_jordan_structure),
    ("perturbed_equation", check_sign_flip_symmetry),
    ("perturbed_equation", check_phi23_consistency),
    ("confluence", check_diagonal_factor_constancy),
    ("confluence", check_confluence_convergence),
    ("confluence", check_probe_rate),
    ("ode_oracle", check_loop_orientation),
    ("ode_oracle", check_base_point_independence),
    ("ode_oracle", check_radius_independence),
    ("ode_oracle", check_determinant_identity),
    ("cli", check_serialization_roundtrip),
)


def run_checks(name_filter: str | None = None, seed: int = 0) -> list:
    """Run the property suite and return one CheckResult per property.

    ``name_filter`` keeps the checks whose module tag or name contains the
    substring; the seed makes every random sample reproducible.  Tags come from
    ``ALL_CHECKS`` and names from the functions, so filtering and reporting agree.
    """
    results = []
    for module, fn in ALL_CHECKS:
        name = fn.__name__.removeprefix("check_")
        if name_filter and name_filter not in module and name_filter not in name:
            continue
        passed, detail = fn(np.random.default_rng(seed))
        results.append(CheckResult(module, name, passed, detail))
    return results
