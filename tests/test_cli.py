"""Command-line interface: payload contents, formats, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pytest

import stokes_unfold
from stokes_unfold.cli import CSV_HEADER, complex_to_json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def as_complex(obj):
    return complex(obj["re"], obj["im"])


def test_invariants_half(capsys):
    code, rec = run_json(capsys, "invariants", "--nu", "0.5")
    assert code == 0
    assert rec["schema_version"] == "1"
    assert rec["command"] == "invariants"
    st0 = rec["payload"]["stokes_0"]
    assert as_complex(st0[0][2]) == pytest.approx(-1j * math.sqrt(math.pi), rel=1e-12)
    assert rec["payload"]["singular_directions"] == pytest.approx([0.0, math.pi])


def test_invariants_identity_case(capsys):
    code, rec = run_json(capsys, "invariants", "--nu", "-2")
    assert code == 0
    for key in ("stokes_0", "stokes_pi"):
        mat = rec["payload"][key]
        for i in range(3):
            for j in range(3):
                assert as_complex(mat[i][j]) == (1.0 if i == j else 0.0)
    assert rec["payload"]["singular_directions"] == []


def test_invariants_nu_one(capsys):
    code, rec = run_json(capsys, "invariants", "--nu", "1")
    assert code == 0
    assert as_complex(rec["payload"]["stokes_pi"][0][1]) == pytest.approx(2j * math.pi, rel=1e-12)


def test_invariants_complex_nu(capsys):
    code, rec = run_json(capsys, "invariants", "--nu", "0.5+0.25i")
    assert code == 0
    assert rec["params"]["nu"] == {"re": 0.5, "im": 0.25}


def test_parse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--nu", "abc"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,exit_code", [
    (("oracle", "--nu", "0.5", "--n", "1", "--which", "R", "--tol", "0"), 3),
    (("oracle", "--nu", "0.5", "--n", "1", "--which", "R", "--tol", "-1"), 3),
    (("oracle", "--nu", "0", "--which", "origin", "--tol", "nan"), 3),
    (("oracle", "--nu", "nan", "--which", "origin"), 2),
    (("invariants", "--nu", "nan"), 2),
    (("invariants", "--nu", "1e400"), 2),
    (("invariants", "--nu", "172"), 3),
    (("perturbed", "--nu", "172", "--n", "1"), 3),
    (("confluence", "--nu", "172", "--n-min", "0", "--n-max", "3"), 3),
    (("oracle", "--nu", "0.5", "--n", "1", "--which", "R", "--tol", "inf"), 3),
    (("oracle", "--nu", "0.5", "--which", "origin", "--n", "3"), 2),
    (("oracle", "--nu", "0.5", "--n", "2", "--which", "R", "--tol", "1e300"), 3),
])
def test_bad_input_is_refused(capsys, argv, exit_code):
    # a tol that is not finite and positive or, for the oracle, not below 1, a non-finite nu,
    # a nu whose Gamma overflows and an --n that the origin loop would drop are refused
    if exit_code == 2:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        message = "argument --n: not used by the origin loop" if "--n" in argv else "argument --nu: nu must be finite"
        assert message in capsys.readouterr().err
        return
    code, rec = run_json(capsys, *argv)
    assert code == rec["error"]["exit_code"] == 3
    assert rec["error"]["type"] == "ValueError"


def test_perturbed_type_b(capsys):
    code, rec = run_json(capsys, "perturbed", "--nu", "2", "--n", "2")
    assert code == 0
    payload = rec["payload"]
    assert payload["resonance_class"] == "B"
    assert as_complex(payload["d_L2"]) == pytest.approx(-1.0, abs=1e-12)
    assert as_complex(payload["d_R3"]) == pytest.approx(-0.5, abs=1e-12)
    assert payload["infinity_relation_residual"] <= 1e-12


def test_perturbed_type_c_monodromy_pattern(capsys):
    code, rec = run_json(capsys, "perturbed", "--nu", "0.5", "--n", "2")
    assert code == 0
    payload = rec["payload"]
    assert payload["resonance_class"] == "C"
    m_r = payload["M_R"]
    assert as_complex(m_r[0][0]) == pytest.approx(1j, abs=1e-12)
    assert as_complex(m_r[1][1]) == pytest.approx(-1j, abs=1e-12)  # e^{3 pi i/2}
    assert as_complex(m_r[2][2]) == pytest.approx(1j, abs=1e-12)
    assert as_complex(m_r[1][0]) == 0 and as_complex(m_r[2][0]) == 0


def test_perturbed_odd_integer_nu_succeeds_as_type_b(capsys):
    code, rec = run_json(capsys, "perturbed", "--nu", "1", "--n", "2")
    assert code == 0
    assert rec["payload"]["resonance_class"] == "B"
    assert as_complex(rec["payload"]["d_L2"]) == pytest.approx(1.0, abs=1e-12)


def test_perturbed_serves_large_indices(capsys):
    # a large index is served, not refused for the roundoff of exp(2 pi i w), |w| ~ 2n
    code, rec = run_json(capsys, "perturbed", "--nu", "0.5", "--n", "1000")
    assert code == 0
    assert rec["payload"]["resonance_class"] == "C"
    assert rec["payload"]["infinity_relation_residual"] <= 3e-14 * 1000


def test_perturbed_invalid_regime_exit_code(capsys):
    code, rec = run_json(capsys, "perturbed", "--nu", "-3", "--n", "3")
    assert code == 3
    assert rec["error"]["exit_code"] == 3
    assert "message" in rec["error"]


@pytest.mark.parametrize("argv", [("perturbed",), ("oracle", "--which", "R")])
def test_complex_nu_on_resonant_sequence_exit_code(capsys, argv):
    # the resonant sequence 1/sqrt(eps) = nu + 2 n is defined for real nu only
    code, rec = run_json(capsys, *argv, "--nu", "0.5+0.25i", "--n", "1")
    assert code == 3
    assert rec["error"]["exit_code"] == 3
    assert "real nu" in rec["error"]["message"]


def test_confluence_csv_format(capsys):
    code, out = run_cli(capsys, "confluence", "--nu", "2", "--n-min", "1", "--n-max", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 10
        assert float(cells[8]) <= 1e-12 and float(cells[9]) <= 1e-12


def test_confluence_csv_roundtrip(capsys):
    code, out = run_cli(capsys, "confluence", "--nu", "0.5", "--n-min", "1", "--n-max", "4", "--format", "csv")
    assert code == 0
    import stokes_unfold as su

    rows = su.confluence_table(0.5, 1, 4)
    for line, row in zip(out.strip().split("\n")[1:], rows):
        cells = line.split(",")
        assert float(cells[1]) == row.sqrt_eps  # 17 significant digits round-trip
        assert complex(float(cells[2]), float(cells[3])) == row.d_L2


@pytest.mark.parametrize("nu", ["0.5", "2", "-1", "-2.5", "1.0000001"])
def test_confluence_output_matches_row_formatting(capsys, monkeypatch, nu):
    # the columnar writers against the rows of the table, across the recurrence/series
    # split and over CSV blocks of 7 rows, the last one short
    monkeypatch.setattr("stokes_unfold.cli._CSV_BLOCK_ROWS", 7)
    table = stokes_unfold.confluence_table(float(nu), 2, 80)
    fields = ("sqrt_eps", "d_L2", "d_R3", "err_L2", "err_R3", "stokes_err_L", "stokes_err_R")
    code, out = run_cli(capsys, "confluence", "--nu", nu, "--n-min", "2", "--n-max", "80", "--format", "csv")
    assert code == 0
    expected = [CSV_HEADER]
    for i in range(len(table)):
        r = table[i]
        cells = [str(r.n)]
        for x in (getattr(r, f) for f in fields):
            cells += [format(x.real, ".17g"), format(x.imag, ".17g")] if isinstance(x, complex) else [format(x, ".17g")]
        expected.append(",".join(cells))
    assert out == "\n".join(expected) + "\n"
    if nu == "-2.5":
        # d_R3 = -w/2 with w real, so d_R3_im is +0 on every row, where Gamma(n + nu) < 0 too
        assert {line.split(",")[5] for line in out.splitlines()[1:]} == {"0"}
    code, rec = run_json(capsys, "confluence", "--nu", nu, "--n-min", "2", "--n-max", "80")
    assert code == 0
    rows = [{"n": r.n, **{f: complex_to_json(v) if isinstance(v, complex) else v
                          for f, v in ((f, getattr(r, f)) for f in fields)}} for r in table]
    assert json.dumps(rec["payload"]["rows"]) == json.dumps(rows)  # keeps the sign of every zero


def _row_dict_output(nu, n_min, n_max, table=None):
    """The confluence command's stdout as json.dump(indent=2) of a record with one dict
    per row prints it, and its exit code."""
    try:
        table = stokes_unfold.confluence_table(nu, n_min, n_max) if table is None else table
    except ValueError as exc:
        return 3, json.dumps({"error": {"exit_code": 3, "type": "ValueError", "message": str(exc)}}, indent=2) + "\n"
    lim_l2, lim_r3 = stokes_unfold.limit_targets(nu)
    columns = (table.n, table.sqrt_eps, table.d_L2.real, table.d_L2.imag, table.d_R3.real, table.d_R3.imag,
               table.err_L2, table.err_R3, table.stokes_err_L, table.stokes_err_R)
    payload = {
        "limit_d_L2": complex_to_json(lim_l2),
        "limit_d_R3": complex_to_json(lim_r3),
        "rows": [{"n": n, "sqrt_eps": se, "d_L2": {"re": l2r, "im": l2i}, "d_R3": {"re": r3r, "im": r3i},
                  "err_L2": e2, "err_R3": e3, "stokes_err_L": sl, "stokes_err_R": sr}
                 for n, se, l2r, l2i, r3r, r3i, e2, e3, sl, sr in zip(*(c.tolist() for c in columns))],
    }
    if len(table) >= 4:
        try:
            payload["fitted_rate_L"] = stokes_unfold.fitted_rate(table, "stokes_err_L")
            payload["fitted_rate_R"] = stokes_unfold.fitted_rate(table, "stokes_err_R")
        except ValueError:
            pass
    record = {"schema_version": "1", "command": "confluence",
              "params": {"nu": complex_to_json(nu), "n_min": n_min, "n_max": n_max}, "payload": payload}
    return 0, json.dumps(record, indent=2) + "\n"


@pytest.mark.parametrize("n_min, n_max", [(1, 1), (1, 3), (10, 200), (60, 70)])
@pytest.mark.parametrize("nu", ["0.5", "2", "-1.5", repr(1 / 3), "3.7", "-1"])
def test_confluence_json_streams_the_row_dict_bytes(capsys, monkeypatch, nu, n_min, n_max):
    # blocks of 7 rows, so every range but 1..1 and 1..3 has block joins, and those two
    # are too short for the fitted rates; 60..70 crosses n = 64; -1.5 and -1 from n = 1
    # are refused, and at -1 every delta is 0, so the fitted rates are refused too
    monkeypatch.setattr("stokes_unfold.cli._CSV_BLOCK_ROWS", 7)
    code, out = run_cli(capsys, "confluence", "--nu", nu, "--n-min", str(n_min), "--n-max", str(n_max))
    assert (code, out) == _row_dict_output(float(nu), n_min, n_max)


def test_confluence_json_non_finite_and_signed_zero(capsys, monkeypatch):
    # NaN, +-inf and -0.0 in several columns and blocks, outside the last decade that the
    # fitted rates read; d_L2 and d_R3 take theirs from the column w they are derived from
    monkeypatch.setattr("stokes_unfold.cli._CSV_BLOCK_ROWS", 7)
    table = stokes_unfold.confluence_table(0.5, 1, 40)
    sqrt_eps, w, delta = (np.array(c) for c in (table.sqrt_eps, table.w, table.delta))
    delta[:3] = math.inf, math.nan, -0.0
    sqrt_eps[5] = -math.inf
    w[9], w[15], w[20] = math.nan, -math.inf, -0.0
    table = dataclasses.replace(table, sqrt_eps=sqrt_eps, w=w, delta=delta)
    monkeypatch.setattr("stokes_unfold.cli.confluence_table", lambda *args: table)
    code, out = run_cli(capsys, "confluence", "--nu", "0.5", "--n-min", "1", "--n-max", "40")
    assert (code, out) == _row_dict_output(0.5, 1, 40, table)
    assert all(word in out for word in ("NaN", "Infinity", "-Infinity", "-0.0", "fitted_rate_L"))


def test_confluence_json_with_gnuplot_files(tmp_path, capsys):
    prefix = str(tmp_path / "table")
    code, out = run_cli(capsys, "confluence", "--nu", "0.5", "--n-min", "3", "--n-max", "30", "--gnuplot", prefix)
    assert (code, out) == _row_dict_output(0.5, 3, 30)
    _, csv_out = run_cli(capsys, "confluence", "--nu", "0.5", "--n-min", "3", "--n-max", "30", "--format", "csv")
    assert (tmp_path / "table.csv").read_text() == csv_out
    csv_path = prefix + ".csv"
    assert (tmp_path / "table.gp").read_text() == (
        "set datafile separator ','\nset logscale xy\nset xlabel 'resonance index n'\n"
        "set ylabel 'max-norm distance to the Stokes matrices'\n"
        f"plot '{csv_path}' skip 1 using 1:9 with linespoints title 'stokes_err_L', \\\n"
        f"     '{csv_path}' skip 1 using 1:10 with linespoints title 'stokes_err_R'\n"
    )


def test_confluence_json_payload(capsys):
    code, rec = run_json(capsys, "confluence", "--nu", "-1", "--n-min", "2", "--n-max", "4")
    assert code == 0
    for row in rec["payload"]["rows"]:
        assert as_complex(row["d_L2"]) == 0
        assert as_complex(row["d_R3"]) == 0


def test_confluence_gnuplot_artifacts(tmp_path, capsys):
    prefix = str(tmp_path / "table")
    code, _ = run_cli(
        capsys, "confluence", "--nu", "0.5", "--n-min", "1", "--n-max", "5",
        "--format", "csv", "--gnuplot", prefix,
    )
    assert code == 0
    csv_text = (tmp_path / "table.csv").read_text()
    assert csv_text.startswith(CSV_HEADER)
    script = (tmp_path / "table.gp").read_text()
    assert "logscale" in script and "table.csv" in script


def test_confluence_output_deterministic(capsys):
    _, out1 = run_cli(capsys, "confluence", "--nu", "0.5", "--n-min", "1", "--n-max", "20", "--format", "csv")
    _, out2 = run_cli(capsys, "confluence", "--nu", "0.5", "--n-min", "1", "--n-max", "20", "--format", "csv")
    assert out1 == out2


def test_oracle_guard_exit(capsys):
    code, rec = run_json(capsys, "oracle", "--nu", "0.5", "--n", "50", "--which", "L")
    assert code == 4
    assert rec["error"]["exit_code"] == 4


def test_oracle_checks_the_resonance_index_before_the_guard(capsys):
    # 1/sqrt(eps) = 20 is past the guard, and n = -5 is off the resonant sequence
    code, rec = run_json(capsys, "oracle", "--nu", "30", "--n", "-5", "--which", "L")
    assert code == rec["error"]["exit_code"] == 3
    assert rec["error"]["type"] == "ResonanceError"


def test_oracle_loop_without_n_is_an_argument_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--nu", "0.5", "--which", "L"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the usage line is the subcommand's, so that it shows the oracle options
    assert captured.err.startswith("usage: stokes-unfold oracle [-h] --nu NU [--n N]")
    assert "stokes-unfold oracle: error: argument --n: required for the L and R loops" in captured.err


def test_oracle_origin(capsys):
    code, rec = run_json(capsys, "oracle", "--nu", "0", "--which", "origin")
    assert code == 0
    payload = rec["payload"]
    assert payload["log_detected"] is False
    assert payload["max_invariant_error"] <= 1e-6
    for v in payload["eigenvalues_numeric"]:
        assert as_complex(v) == pytest.approx(1.0, abs=1e-6)


def test_oracle_perturbed_run(capsys):
    code, rec = run_json(capsys, "oracle", "--nu", "0.5", "--n", "1", "--which", "R", "--tol", "1e-8")
    assert code == 0
    assert rec["payload"]["log_detected"] is True
    assert rec["payload"]["log_expected"] is True
    assert rec["payload"]["max_invariant_error"] <= 1e-6


def test_oracle_r_loop_n5_meets_invariant_tolerance(capsys):
    code, rec = run_json(capsys, "oracle", "--nu", "0.5", "--n", "5", "--which", "R", "--tol", "1e-9")
    assert code == 0
    assert rec["payload"]["max_invariant_error"] <= 1e-6


def test_check_filter_and_determinism(capsys):
    code, out1 = run_cli(capsys, "check", "--filter", "formal_series", "--seed", "42")
    assert code == 0
    rec = json.loads(out1)
    names = {r["name"] for r in rec["payload"]["results"]}
    assert names == {"borel_partial_sums", "series_residual", "terminating_series"}
    assert all(r["passed"] for r in rec["payload"]["results"])
    code2, out2 = run_cli(capsys, "check", "--filter", "formal_series", "--seed", "42")
    assert out1 == out2


def test_check_filter_matching_nothing_is_an_argument_error(capsys):
    # a mistyped filter runs no property, so it is refused rather than reported as a pass
    with pytest.raises(SystemExit) as exc:
        main(["check", "--filter", "nosuchcheck"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: stokes-unfold check [-h] [--filter FILTER]")
    assert "stokes-unfold check: error: argument --filter: no property matches 'nosuchcheck'" in captured.err


def test_check_reports_known_rate_defect(capsys, monkeypatch):
    # the second-order rate window passes on the program as it is ...
    code, rec = run_json(capsys, "check", "--filter", "confluence_convergence")
    assert code == 0
    results = rec["payload"]["results"]
    assert len(results) == 1
    assert results[0]["passed"] is True
    assert "fitted exponent" in results[0]["detail"]
    # ... and a first-order decay fails the property and reaches exit code 5
    monkeypatch.setattr("stokes_unfold.confluence.fitted_rate", lambda *args: -1.0)
    code, rec = run_json(capsys, "check", "--filter", "confluence_convergence")
    assert code == 5
    results = rec["payload"]["results"]
    assert len(results) == 1
    assert results[0]["passed"] is False
    assert "fitted exponent -1.000" in results[0]["detail"]


def test_parser_is_reused_without_leaking_options(capsys):
    code, rec = run_json(capsys, "check", "--filter", "borel", "--seed", "5")
    assert code == 0 and rec["payload"]["seed"] == 5 and len(rec["payload"]["results"]) < 28
    code, rec = run_json(capsys, "check")
    assert code == 0
    assert (rec["payload"]["seed"], rec["payload"]["filter"], len(rec["payload"]["results"])) == (0, None, 28)


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "stokes_unfold.cli", "invariants", "--nu", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["command"] == "invariants"


_WITHOUT_SCIPY = """
import contextlib, io, json, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(name + " is blocked")

sys.meta_path.insert(0, BlockScipy())
import stokes_unfold as su
from stokes_unfold import cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["check"])
results = json.loads(out.getvalue())["payload"]["results"]
quadrature, closed = su.ratio_integral_check(0.5, 2.0, -1.0)
probe = su.gamma_ratio_probe(500.0, 0.3 + 0.2j)
print(json.dumps({"code": code, "passed": sum(r["passed"] for r in results), "total": len(results),
                  "ratio_error": abs(quadrature - closed) / abs(closed), "probe_defect": abs(probe - 1.0),
                  "scipy_loaded": "scipy" in sys.modules}))
"""


def test_check_runs_with_scipy_blocked():
    src = str(Path(stokes_unfold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env, capture_output=True, text=True,
                           timeout=300)
    assert child.returncode == 0, child.stderr
    rec = json.loads(child.stdout.splitlines()[-1])
    assert (rec["code"], rec["passed"], rec["total"]) == (0, 28, 28)
    assert rec["ratio_error"] < 1e-9
    assert 0.0 < rec["probe_defect"] < 1e-3
    assert rec["scipy_loaded"] is False
