"""Command-line driver.

Subcommands: ``invariants`` (closed forms at the origin), ``perturbed``
(resonant monodromy data), ``confluence`` (convergence tables, JSON or CSV,
optionally with a gnuplot script), ``oracle`` (numerical monodromy reports)
and ``check`` (the property suite).

Output is JSON on stdout with complex numbers as {"re": .., "im": ..}
objects; every float serializes with enough digits to round-trip exactly.
Exit codes: 0 success, 2 argument/parse errors, 3 invalid-regime
parameters, 4 guard refusals, 5 tolerance or property failures.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import sys

import numpy as np

from .checks import run_checks
from .confluence import confluence_table, fitted_rate, limit_targets
from .errors import GuardError, StokesUnfoldError, ToleranceError
from .mat3 import max_abs
from .oracle import expected_log_flag, numerical_monodromy, unperturbed_monodromy
from .perturbed import (
    PerturbParams,
    characteristic_exponents,
    classify_resonance,
    monodromy_matrices,
    residues,
    unfolded_stokes,
)
from .unperturbed import Direction, formal_data, formal_monodromy, monodromy_origin, singular_directions, stokes_matrix

SCHEMA_VERSION = "1"
INVARIANT_TOL = 1e-6

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_REGIME = 3
EXIT_GUARD = 4
EXIT_TOLERANCE = 5

CSV_HEADER = "n,sqrt_eps,d_L2_re,d_L2_im,d_R3_re,d_R3_im,err_L2,err_R3,stokes_err_L,stokes_err_R"
# one %-format per row prints each float as format(x, ".17g") does; one block's row
# lists and text are the only per-row Python objects alive at once, so the block
# size bounds the memory the text output adds to the table's columns
_CSV_ROW = "%d" + ",%.17g" * 9 + "\n"
_CSV_BLOCK_ROWS = 4096
# one row of payload["rows"] at its depth in the indent-2 record; %r prints a float as
# json does, except nan and +-inf, which json spells NaN and +-Infinity, so a block's text
# goes through str.replace, which returns it as it is when it holds neither
_JSON_ROW = """
      {
        "n": %d,
        "sqrt_eps": %r,
        "d_L2": {
          "re": %r,
          "im": %r
        },
        "d_R3": {
          "re": %r,
          "im": %r
        },
        "err_L2": %r,
        "err_R3": %r,
        "stokes_err_L": %r,
        "stokes_err_R": %r
      }"""


def complex_to_json(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def matrix_to_json(m) -> list:
    return [[complex_to_json(v) for v in row] for row in np.asarray(m, dtype=complex)]


def parse_nu(text: str) -> complex:
    """Real or 'a+bi' complex literal, finite."""
    try:
        nu = complex(text.strip().replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse nu from {text!r}")
    if not cmath.isfinite(nu):
        raise argparse.ArgumentTypeError(f"nu must be finite, got {text!r}")
    return nu


def _record(command: str, params: dict, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
        "payload": payload,
    }


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def cmd_invariants(args) -> int:
    nu = args.nu
    data = formal_data(nu)
    payload = {
        "Lambda": matrix_to_json(data.Lambda),
        "Q": matrix_to_json(data.Q),
        "formal_monodromy": matrix_to_json(formal_monodromy(nu)),
        "stokes_0": matrix_to_json(stokes_matrix(nu, Direction.ZERO)),
        "stokes_pi": matrix_to_json(stokes_matrix(nu, Direction.PI)),
        "monodromy_origin": matrix_to_json(monodromy_origin(nu)),
        "singular_directions": sorted(singular_directions(nu)),
    }
    _emit(_record("invariants", {"nu": complex_to_json(nu)}, payload))
    return EXIT_OK


def cmd_perturbed(args) -> int:
    params = PerturbParams.from_resonant_index(args.nu, args.n)
    exp = characteristic_exponents(params)
    cls = classify_resonance(params)
    res = residues(params)
    m_l, m_r = monodromy_matrices(params)
    st_l, st_r = unfolded_stokes(params)
    m_hat = formal_monodromy(params.nu)
    infinity_residual = max_abs(
        m_l @ np.linalg.inv(m_hat) @ m_r @ m_hat - st_l @ st_r @ m_hat
    )
    payload = {
        "sqrt_eps": params.sqrt_eps,
        "resonance_class": cls.value,
        "exponents": {
            "rho_R": [complex_to_json(v) for v in exp.rho_R],
            "rho_L": [complex_to_json(v) for v in exp.rho_L],
            "rho_inf": [complex_to_json(v) for v in exp.rho_inf],
            "delta_R21": complex_to_json(exp.delta_R21),
            "delta_L21": complex_to_json(exp.delta_L21),
            "delta_R32": complex_to_json(exp.delta_R32),
            "delta_L32": complex_to_json(exp.delta_L32),
        },
        "d_L2": complex_to_json(res.d_L2),
        "d_R3": complex_to_json(res.d_R3),
        "d_R2": complex_to_json(res.d_R2),
        "d_L3": complex_to_json(res.d_L3),
        "T_L": matrix_to_json(res.T_L),
        "T_R": matrix_to_json(res.T_R),
        "M_L": matrix_to_json(m_l),
        "M_R": matrix_to_json(m_r),
        "unfolded_stokes_L": matrix_to_json(st_l),
        "unfolded_stokes_R": matrix_to_json(st_r),
        "infinity_relation_residual": infinity_residual,
    }
    _emit(_record("perturbed", {"nu": complex_to_json(args.nu), "n": args.n}, payload))
    return EXIT_OK


def _columns(table):
    """The table's real columns in CSV_HEADER order."""
    return (table.n, table.sqrt_eps, table.d_L2.real, table.d_L2.imag, table.d_R3.real, table.d_R3.imag,
            table.err_L2, table.err_R3, table.stokes_err_L, table.stokes_err_R)


def _row_blocks(table):
    """The table's rows as tuples of Python numbers, in blocks of at most _CSV_BLOCK_ROWS."""
    columns = _columns(table)
    for lo in range(0, len(table), _CSV_BLOCK_ROWS):
        yield zip(*(c[lo:lo + _CSV_BLOCK_ROWS].tolist() for c in columns))


def _csv_blocks(table):
    """The CSV text: the header, then one text per row block."""
    yield CSV_HEADER + "\n"
    for rows in _row_blocks(table):
        yield "".join([_CSV_ROW % row for row in rows])


def _json_rows(table):
    """The text of payload["rows"] for a non-empty table, one text per row block."""
    lead = "["
    for rows in _row_blocks(table):
        yield lead + ",".join([_JSON_ROW % row for row in rows]).replace("nan", "NaN").replace("inf", "Infinity")
        lead = ","
    yield "\n    ]"


def _write_gnuplot(prefix: str, table) -> None:
    csv_path = prefix + ".csv"
    script_path = prefix + ".gp"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_csv_blocks(table))
    script = "\n".join(
        [
            "set datafile separator ','",
            "set logscale xy",
            "set xlabel 'resonance index n'",
            "set ylabel 'max-norm distance to the Stokes matrices'",
            f"plot '{csv_path}' skip 1 using 1:9 with linespoints title 'stokes_err_L', \\",
            f"     '{csv_path}' skip 1 using 1:10 with linespoints title 'stokes_err_R'",
            "",
        ]
    )
    with open(script_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)


def cmd_confluence(args) -> int:
    table = confluence_table(args.nu, args.n_min, args.n_max)
    if args.gnuplot:
        _write_gnuplot(args.gnuplot, table)
    if args.format == "csv":
        sys.stdout.writelines(_csv_blocks(table))
        return EXIT_OK
    lim_l2, lim_r3 = limit_targets(args.nu.real)
    payload = {"limit_d_L2": complex_to_json(lim_l2), "limit_d_R3": complex_to_json(lim_r3), "rows": []}
    if len(table) >= 4:
        try:
            payload["fitted_rate_L"] = fitted_rate(table, "stokes_err_L")
            payload["fitted_rate_R"] = fitted_rate(table, "stokes_err_R")
        except ValueError:
            pass
    params = {"nu": complex_to_json(args.nu), "n_min": args.n_min, "n_max": args.n_max}
    # the rows stream between the halves of the record printed with an empty list
    head, _, tail = json.dumps(_record("confluence", params, payload), indent=2).partition('"rows": []')
    sys.stdout.write(head + '"rows": ')
    sys.stdout.writelines(_json_rows(table))
    sys.stdout.write(tail + "\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.which == "origin":
        if args.n is not None:
            args.parser.error("argument --n: not used by the origin loop")
        report = unperturbed_monodromy(args.nu, tol=args.tol)
        expected_log = None
        params_json = {"nu": complex_to_json(args.nu), "which": "origin"}
    else:
        if args.n is None:
            args.parser.error("argument --n: required for the L and R loops")
        params = PerturbParams.from_resonant_index(args.nu, args.n)
        report = numerical_monodromy(params, args.which, tol=args.tol)
        expected_log = expected_log_flag(params, args.which)
        params_json = {"nu": complex_to_json(args.nu), "n": args.n, "which": args.which}
    payload = {
        "monodromy": matrix_to_json(report.M_numeric),
        "eigenvalues_numeric": [complex_to_json(v) for v in report.eigenvalues_numeric],
        "eigenvalues_closed": [complex_to_json(v) for v in report.eigenvalues_closed],
        "log_detected": report.log_detected,
        "max_invariant_error": report.max_invariant_error,
        "invariant_tolerance": INVARIANT_TOL,
    }
    if expected_log is not None:
        payload["log_expected"] = expected_log
    _emit(_record("oracle", params_json, payload))
    if report.max_invariant_error > INVARIANT_TOL:
        return EXIT_TOLERANCE
    if expected_log is not None and report.log_detected != expected_log:
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_check(args) -> int:
    results = run_checks(args.filter, seed=args.seed)
    if not results:  # a mistyped filter would otherwise pass with no check run
        args.parser.error(f"argument --filter: no property matches {args.filter!r}")
    payload = {
        "seed": args.seed,
        "filter": args.filter,
        "results": [
            {"module": r.module, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "passed": sum(1 for r in results if r.passed),
        "failed": sum(1 for r in results if not r.passed),
    }
    _emit(_record("check", {}, payload))
    return EXIT_OK if all(r.passed for r in results) else EXIT_TOLERANCE


@functools.cache  # built by the first main call; parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-unfold",
        description="Analytic invariants of a third-order equation across the confluence of its singular points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="closed-form invariants of the unperturbed equation")
    p.add_argument("--nu", type=parse_nu, required=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("perturbed", help="resonant monodromy data of the perturbed equation")
    p.add_argument("--nu", type=parse_nu, required=True)
    p.add_argument("--n", type=int, required=True, help="resonance index: 1/sqrt(eps) = nu + 2 n")
    p.set_defaults(func=cmd_perturbed)

    p = sub.add_parser("confluence", help="convergence table along the resonant sequence")
    p.add_argument("--nu", type=parse_nu, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--gnuplot", metavar="PREFIX",
                   help="also write PREFIX.csv and a gnuplot script PREFIX.gp")
    p.set_defaults(func=cmd_confluence)

    p = sub.add_parser("oracle", help="numerical monodromy via ODE continuation")
    p.add_argument("--nu", type=parse_nu, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--which", choices=("L", "R", "origin"), required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_oracle, parser=p)  # args.parser.error prints this usage line

    p = sub.add_parser("check", help="run the property-check suite")
    p.add_argument("--filter", default=None, help="substring filter on module or check name")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StokesUnfoldError, ValueError) as exc:
        code = (EXIT_GUARD if isinstance(exc, GuardError)
                else EXIT_TOLERANCE if isinstance(exc, ToleranceError) else EXIT_REGIME)
        _emit({"error": {"exit_code": code, "type": type(exc).__name__, "message": str(exc)}})
        return code


if __name__ == "__main__":
    sys.exit(main())
