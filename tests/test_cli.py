"""Command-line interface: payload contents, formats, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

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


def test_check_filter_and_determinism(capsys):
    code, out1 = run_cli(capsys, "check", "--filter", "formal_series", "--seed", "42")
    assert code == 0
    rec = json.loads(out1)
    names = {r["name"] for r in rec["payload"]["results"]}
    assert names == {"borel_partial_sums", "series_residual", "terminating_series"}
    assert all(r["passed"] for r in rec["payload"]["results"])
    code2, out2 = run_cli(capsys, "check", "--filter", "formal_series", "--seed", "42")
    assert out1 == out2


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
