"""Self-tests of the benchmark (not of the package).

    python3 perfbench/selftest.py

They check that inputs depend on the seed only through their values, that
every workload's checker counts a corrupted output as a failure, that the
references agree with themselves at two precisions, that calibrated times
follow the calibration samples, and that tiny runs of every workload,
untraced and traced, emit every metric that BENCHMARK.json names.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

su = run.import_package()
import reference as ref  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import numpy as np  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ENV = run.child_env()


def tiny(name):
    """The workload with its passes cut to a few cheap operations."""
    wl = workloads.make(name, su)
    if name == "resum":
        wl.tols, wl.nu_strata = (1e-8,), 2
    elif name == "confluence":
        wl.strata, wl.n_hi = 3, 300
    elif name == "oracle":
        wl.combos, wl.probe_combos, wl.origin_loops = (("L", 1, 1e-9),), (("R", 1, 1e-9),), 1
    else:
        make = wl.make_passes

        def small_passes(rng, count):  # everything but the full suite and the table
            return [[op for op in ops if op.label != "confluence" and op.args["argv"] != ["check"]]
                    for ops in make(rng, count)]

        wl.make_passes = small_passes
    return wl


def passes(wl, seed, count=3):
    return wl.make_passes(np.random.default_rng(seed), count)


def shape(ps):
    return [[(op.label, op.units) for op in ops] for ops in ps]


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, su)
            a, b = passes(wl, 7), passes(wl, 7)
            self.assertEqual([[op.args for op in ops] for ops in a],
                             [[op.args for op in ops] for ops in b], name)

    def test_other_seed_other_values_same_shape(self):
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, su)
            a, b = passes(wl, 7), passes(wl, 8)
            self.assertEqual(shape(a), shape(b), name)
            self.assertNotEqual([[op.args for op in ops] for ops in a],
                                [[op.args for op in ops] for ops in b], name)

    def test_nu_ranges(self):
        (batch,) = passes(workloads.Resum(su), 3)[0]
        self.assertEqual(batch.units, 48)
        for j in batch.args["jumps"]:
            self.assertTrue(0.0 < j["nu"] <= 4.0)
            self.assertTrue(0.1 <= abs(j["x"]) <= 0.3)
        (probe,) = workloads.Resum(su).make_probe(np.random.default_rng(3))
        self.assertTrue(all(0.05 <= abs(j["x"]) <= 0.055 for j in probe.args["jumps"]))
        for ops in passes(workloads.Oracle(su), 3):
            for op in ops:
                self.assertGreater(op.args["nu"], 0.0)
                if op.label != "origin":
                    self.assertLessEqual(op.args["nu"] + 2 * op.args["n"], 12.0)
        tables = passes(workloads.Confluence(su), 3)[0]
        ns = [t.args["n_max"] for t in tables]
        self.assertEqual((min(ns), max(ns)), (100, 20000))
        self.assertEqual([t.units for t in tables], [n - 9 for n in ns])

    def test_golden_sequence_covers_prefixes(self):
        u = workloads._sequence(np.random.default_rng(0), 13)
        for p in (3, 5, 8, 13):
            pts = sorted(u[:p])
            self.assertLess(max(np.diff(pts + [pts[0] + 1.0])), 3.0 / p)


class References(unittest.TestCase):
    def test_two_precisions_agree(self):
        for nu in (0.25, 1.0, 2.0, 3.5):
            for n in (10, 64, 65, 1000, 20000):
                self.assertLess(ref.crosscheck(ref.confluence_row, nu, n), ref.CROSSCHECK_RTOL)
            for kind in ("psi", "phi"):
                ref.crosscheck(ref.jump_coefficient, nu, kind)
            for which in "LR":
                ref.crosscheck(ref.loop_eigenvalues, nu, 4, which)

    def test_against_package_closed_forms(self):
        nu = 0.5
        self.assertLess(ref.rel_err(su.jump_coefficient_closed(nu, su.SeriesKind.PHI),
                                    ref.compute(ref.jump_coefficient, nu, "phi")), 1e-12)
        d_l2, d_r3 = su.log_resonant_d_values(nu, 7)
        row = ref.compute(ref.confluence_row, nu, 7)
        self.assertLess(ref.rel_err(d_l2, row["d_L2"]), 1e-12)
        self.assertLess(ref.rel_err(d_r3, row["d_R3"]), 1e-12)


def _prepared(wl, seed=5):
    ops = passes(wl, seed, 1)[0]
    for op in ops:
        wl.prepare(op)
    return ops


class Checkers(unittest.TestCase):
    def test_resum_corrupted_jump(self):
        wl = workloads.Resum(su)
        (op,) = _prepared(wl)
        out = wl.digest(op, wl.run(op))
        self.assertEqual((wl.check(op, out).attempted, wl.check(op, out).failed), (48, 0))
        bad = wl.check(op, out[:-1] + [out[-1] * (1 + 1e-4)])
        self.assertEqual(bad.failed, 1)

    def test_confluence_sign_flipped_d_l2(self):
        wl = tiny("confluence")
        op = _prepared(wl)[-1]
        ok, picked = wl.digest(op, wl.run(op))
        self.assertEqual(wl.check(op, (ok, picked)).failed, 0)
        n = max(picked)
        d_l2, d_r3, st = picked[n]
        self.assertEqual(wl.check(op, (ok, {**picked, n: (-d_l2, d_r3, st)})).failed, 1)
        self.assertEqual(wl.check(op, (False, {})).failed, 1)

    def test_oracle_perturbed_eigenvalue(self):
        wl = workloads.Oracle(su)
        op = _prepared(wl)[0]  # n = 1: passes at the seed
        eig, log_detected, reported = wl.digest(op, wl.run(op))
        self.assertEqual(wl.check(op, (eig, log_detected, reported)).failed, 0)
        moved = (eig[0] * (1 + 1e-4),) + tuple(eig[1:])
        self.assertEqual(wl.check(op, (moved, log_detected, reported)).failed, 1)
        self.assertEqual(wl.check(op, (moved, log_detected, 1e-3)).failed, 1)
        self.assertEqual(wl.check(op, (eig, not log_detected, reported)).failed, 1)

    def test_cli_bad_exit_code(self):
        wl = workloads.Cli(su)
        ops = {op.label: op for op in reversed(_prepared(wl))}
        op = ops["invariants"]
        code, text = wl.run(op)
        self.assertEqual(wl.check(op, (code, text)).failed, 0)
        self.assertEqual(wl.check(op, (5, text)).failed, 1)
        self.assertEqual(wl.check(op, (0, text[:-20])).failed, 1)
        rec = json.loads(text)
        rec["payload"]["stokes_0"][0][2]["im"] *= -1
        self.assertEqual(wl.check(op, (0, json.dumps(rec))).failed, 1)

    def test_cli_failed_property_is_reported(self):
        wl = workloads.Cli(su)
        op = next(o for o in _prepared(wl) if o.args["argv"][:1] == ["check"])
        payload = {"results": [{"module": "m", "name": "a", "passed": True, "detail": ""},
                               {"module": "m", "name": "b", "passed": False, "detail": ""}],
                   "passed": 1, "failed": 1}
        text = json.dumps({"schema_version": "1", "command": "check", "params": {}, "payload": payload})
        o = wl.check(op, (5, text))
        self.assertEqual((o.attempted, o.failed, o.findings), (1, 0, ["property m.b fails"]))
        self.assertEqual(wl.check(op, (0, text)).failed, 1)


class Calibration(unittest.TestCase):
    def test_scales_follow_the_samples_around_each_operation(self):
        ref_s = run.CALIBRATION_REF_S
        f = run.scales([ref_s, ref_s, 2 * ref_s, 2 * ref_s, 2 * ref_s])
        self.assertEqual(len(f), 4)
        self.assertAlmostEqual(f[0], 1.0)
        self.assertAlmostEqual(f[3], 0.5)
        self.assertGreater(run.calibrate(), 0.0)


class Smoke(unittest.TestCase):
    def _names(self, kind):
        return {m["name"] for m in SPEC[kind]}

    def test_tiny_runs_emit_every_metric(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                wl = tiny(name)
                prepared = run.Passes(wl, 1, 1)
                metrics, extra, chk = run.end_to_end(wl, prepared, 0.01, ENV)
                self.assertEqual(set(metrics), self._names("end_to_end"))
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)
                self.assertEqual(chk["failed"], 0, chk["notes"])
                self.assertGreaterEqual(chk["attempted"], 1)
                self.assertIn("max_rel_err", chk)
                run.run_probe(wl, prepared.probe)
                metrics, extra, chk, _ = run.traced(wl, prepared, 0.01)
                self.assertEqual(set(metrics), self._names("per_layer"))
                self.assertEqual(chk["failed"], 0, chk["notes"])

    def test_tracer_restores_bindings(self):
        from stokes_unfold import borel, checks, oracle, quad

        before = (borel.integrate_chain, quad.gl_panel, oracle.CompanionSystem.matrix, checks.ALL_CHECKS)
        t = tracer.Tracer().install()
        self.assertIsNot(quad.gl_panel, before[1])
        su.stokes_jump_quadrature(0.5, su.SeriesKind.PSI, 0.15)
        t.uninstall()
        after = (borel.integrate_chain, quad.gl_panel, oracle.CompanionSystem.matrix, checks.ALL_CHECKS)
        self.assertEqual(before, after)
        self.assertGreater(t.calls["quad.gl_panel"], 10)
        self.assertEqual(t.calls["borel.laplace_sum"], 2)

    def test_command_line_contract(self):
        with tempfile.TemporaryDirectory() as out:
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "resum",
                                   "--seed", "3", "--seconds", "0.5", "--trace", "0", "--out", out],
                                  capture_output=True, text=True, check=False, timeout=180)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        for m in SPEC["end_to_end"]:
            self.assertEqual(last["metrics"][m["name"]]["unit"], m["unit"])

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as bare:
            target = Path(bare) / "perfbench"
            target.mkdir()
            for path in HERE.glob("*.py"):
                (target / path.name).write_bytes(path.read_bytes())
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "resum",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, check=False, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
