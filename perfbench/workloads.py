"""The four benchmark workloads: seeded inputs, the call under test, and the
check of every output against the mpmath references.

Each workload is a closed loop with one caller.  Its inputs come in
*passes*: one pass is a fixed grid of the categorical choices (series kind,
tolerance, resonance index, table size, command), and the seed draws the
continuous values (nu, x, radius) inside it.  Where a value changes the cost
of an operation it follows a golden-ratio sequence over the passes from a
seeded start, so that the passes a run gets through cover its range evenly
whatever their number.  A different seed therefore changes every value but
not the shape of the work, which is what keeps medians comparable between
seeds.

Every operation is checked.  An operation fails when its output misses its
rule: a value off the mpmath reference by more than the bound, an exit code
that disagrees with its payload, output that does not parse.  The timed
inputs are those on which the program met every rule at the commit the
benchmark was written for; a failure there is a regression and makes the
run incorrect.  Where the program is known to miss a rule, a few
fixed-size seeded operations of each workload form its *known-defect
probe*, run once and untimed after the timed loop, whose misses are
reported beside the result without counting as failures of the run.  Properties that the ``check`` command itself reports
as failing are findings of the program, recorded by name.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import reference as ref

# Equal to stokes_unfold.cli.INVARIANT_TOL when this benchmark was written;
# kept here so that a change to the program cannot move the failure rule.
INVARIANT_TOL = 1e-6
JUMP_RTOL = 1e-6          # bound of checks.check_jump_closed_forms
CLOSED_FORM_RTOL = 1e-9   # Stokes entries, d-values, closed eigenvalues
CSV_HEADER = "n,sqrt_eps,d_L2_re,d_L2_im,d_R3_re,d_R3_im,err_L2,err_R3,stokes_err_L,stokes_err_R"
N_MIN = 10


@dataclass
class Op:
    label: str
    args: dict
    units: int
    ref: dict = field(default_factory=dict)
    ref_calls: list = field(default_factory=list)

    def reference(self, fn, *args):
        """Evaluate a reference, remembering the call for the precision cross-check."""
        self.ref_calls.append((fn, args))
        return ref.compute(fn, *args)


@dataclass
class Outcome:
    attempted: int = 1
    failed: int = 0
    max_rel_err: float = 0.0
    notes: list = field(default_factory=list)
    findings: list = field(default_factory=list)

    def fail(self, note: str):
        self.failed += 1
        self.notes.append(note)

    def err(self, value: float):
        self.max_rel_err = max(self.max_rel_err, value)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _nu_in(rng, lo: float, hi: float) -> float:
    # uniform on (lo, hi]
    return hi - (hi - lo) * rng.random()


def _sequence(rng, count: int) -> list:
    """Points in [0, 1) for passes 0..count-1 from a seeded start: every
    prefix of the golden-ratio sequence covers [0, 1) evenly."""
    start = rng.random()
    return [(start + p * GOLDEN) % 1.0 for p in range(count)]


def _columns(rng, slots: int, count: int) -> list:
    """One golden-ratio sequence per slot of a pass; [pass][slot] in [0, 1)."""
    seqs = [_sequence(rng, count) for _ in range(slots)]
    return [[seqs[k][p] for k in range(slots)] for p in range(count)]


def _sample_rows(rng, n_max: int) -> list:
    """Rows checked against the reference: both ends, both sides of the
    n = 64 product/lgamma crossover, and three seeded interior rows."""
    rows = {N_MIN, 64, 65, n_max}
    rows.update(int(v) for v in rng.integers(N_MIN + 1, n_max, size=3))
    return sorted(r for r in rows if N_MIN <= r <= n_max)


def _python(code: str) -> list:
    return [sys.executable, "-c", code]


def _complex(obj) -> complex:
    return complex(obj["re"], obj["im"])


# ----------------------------------------------------------------- resum


class Resum:
    """Stokes jumps by Borel-Laplace quadrature (layers quad and borel).

    One operation is one pass: a jump for every series kind, tolerance and
    nu stratum, back to back (48 jumps).  Each jump is one attempted check.
    The timed |x| lies in [0.1, 0.3]: below about 0.065 the jump misses the
    1e-6 rule at small nu, whatever the tolerance (at |x| = 0.05 the error
    is about 2e-5 at nu = 0.01 and grows like e^{1/|x|} / nu) and flags
    nothing; the probe keeps |x| in [0.05, 0.055] and nu in (0, 0.01].
    """

    name = "resum"
    tail_pct = 90.0
    unit = "jumps"
    kinds = ("psi", "phi")
    tols = (1e-8, 1e-10, 1e-12)
    nu_strata = 8
    x_range = (0.1, 0.3)
    probe_x_range = (0.05, 0.055)
    pass_seconds = 0.03  # measured at the commit the benchmark was written for

    def __init__(self, su):
        self.su = su

    def _jumps(self, rng, x_range, nu_strata, nu_hi):
        jumps = []
        for kind in self.kinds:
            for tol in self.tols:
                for s in range(nu_strata):
                    nu = _nu_in(rng, nu_hi * s / nu_strata, nu_hi * (s + 1) / nu_strata)
                    ax = rng.uniform(*x_range)
                    jumps.append({"nu": nu, "kind": kind, "x": ax if kind == "psi" else -ax, "tol": tol})
        return Op("pass", {"jumps": jumps}, len(jumps))

    def make_passes(self, rng, count: int) -> list:
        # thousands of jumps per run: plain stratified draws average out
        return [[self._jumps(rng, self.x_range, self.nu_strata, 4.0)] for _ in range(count)]

    def make_probe(self, rng) -> list:
        return [self._jumps(rng, self.probe_x_range, 2, 0.01)]

    def prepare(self, op: Op):
        for j in op.args["jumps"]:
            j["kind_enum"] = self.su.SeriesKind.PSI if j["kind"] == "psi" else self.su.SeriesKind.PHI
        op.ref["c"] = [op.reference(ref.jump_coefficient, j["nu"], j["kind"]) for j in op.args["jumps"]]

    def run(self, op: Op):
        jump = self.su.stokes_jump_quadrature
        return [jump(j["nu"], j["kind_enum"], j["x"], tol=j["tol"]) for j in op.args["jumps"]]

    def digest(self, op: Op, out):
        return [complex(v) for v in out]

    def check(self, op: Op, out) -> Outcome:
        o = Outcome(attempted=len(op.args["jumps"]))
        for j, c, value in zip(op.args["jumps"], op.ref["c"], out):
            e = ref.rel_err(value, c)
            o.err(e)
            if not e <= JUMP_RTOL:
                o.fail(f"jump nu={j['nu']:.6g} {j['kind']} x={j['x']:.4g} tol={j['tol']:g}: "
                       f"rel err {e:.2e}")
        return o

    def setup_argv(self, op: Op) -> list:
        # the first jump of the pass: set-up, not the pass, is measured
        j = op.args["jumps"][0]
        return _python("import stokes_unfold as su\n"
                f"su.stokes_jump_quadrature({j['nu']!r}, su.SeriesKind.{j['kind'].upper()}, "
                f"{j['x']!r}, tol={j['tol']!r})\n")


# ------------------------------------------------------------ confluence


class Confluence:
    """Confluence tables along 1/sqrt(eps) = nu + 2n (gammas, perturbed,
    unperturbed, mat3, confluence).

    One operation is one table; a pass is a table for each n_max of a fixed
    log-spaced grid from n_lo to n_hi, back to back.  The seed draws nu and
    the checked rows; the grid is fixed so that every seed does the same
    work and the median operation is always the middle table of the grid.
    The known defect, the cancellation in stokes_err_R, has no stated
    accuracy to fail; it shows in max_rel_err of every run, so there is no
    probe.
    """

    name = "confluence"
    # the middle of the 8300-row tables; p75 fell among their fastest, which
    # moved twice as much between runs
    tail_pct = 80.0
    unit = "rows"
    strata = 7
    n_lo, n_hi = 100, 20000
    pass_seconds = 2.0

    def __init__(self, su):
        self.su = su

    def make_passes(self, rng, count: int) -> list:
        grid = [int(round(self.n_lo * (self.n_hi / self.n_lo) ** (k / (self.strata - 1))))
                for k in range(self.strata)]
        passes = []
        for u in _columns(rng, self.strata, count):
            tables = []
            for k, n_max in enumerate(grid):
                # every fourth table sits at an integer nu (resonance class B)
                nu = float(1 + int(4 * u[k])) if k % 4 == 3 else 4.0 * (1.0 - u[k])
                tables.append(Op("table", {"nu": nu, "n_max": n_max, "rows": _sample_rows(rng, n_max)},
                                 n_max - N_MIN + 1))
            passes.append(tables)
        return passes

    def make_probe(self, rng) -> list:
        return []

    def prepare(self, op: Op):
        a = op.args
        op.ref["rows"] = {n: op.reference(ref.confluence_row, a["nu"], n) for n in a["rows"]}
        op.ref["scale"] = float(abs(op.reference(ref.stokes_entries, a["nu"])[0]))

    def run(self, op: Op):
        return self.su.confluence_table(op.args["nu"], N_MIN, op.args["n_max"])

    def digest(self, op: Op, rows):
        a = op.args
        ok = len(rows) == a["n_max"] - N_MIN + 1 and all(r.n == N_MIN + i for i, r in enumerate(rows))
        picked = {n: rows[n - N_MIN] for n in a["rows"]} if ok else {}
        return ok, {n: (r.d_L2, r.d_R3, r.stokes_err_R) for n, r in picked.items()}

    def check(self, op: Op, out) -> Outcome:
        o = Outcome()
        ok, picked = out
        desc = f"table nu={op.args['nu']!r} n_max={op.args['n_max']}"
        if not ok:
            o.fail(f"{desc}: wrong rows")
            return o
        worst_d = 0.0
        for n, (d_l2, d_r3, st_err) in picked.items():
            r = op.ref["rows"][n]
            worst_d = max(worst_d, ref.rel_err(d_l2, r["d_L2"]), ref.rel_err(d_r3, r["d_R3"]))
            o.err(ref.rel_err(st_err, r["stokes_err_R"], scale=op.ref["scale"]))
        o.err(worst_d)
        if not worst_d <= CLOSED_FORM_RTOL:
            o.fail(f"{desc}: d-value rel err {worst_d:.2e}")
        return o

    def setup_argv(self, op: Op) -> list:
        a = op.args
        return _python("import stokes_unfold as su\n"
                       f"su.confluence_table({a['nu']!r}, {N_MIN}, {a['n_max']})\n")


# ---------------------------------------------------------------- oracle


class Oracle:
    """ODE-continuation monodromy (oracle, perturbed.coefficients_a, mat3, paths).

    The timed loops are L at n = 1..5 and both tolerances, R at n = 1 and
    both tolerances, R at n = 2 and tol 1e-10, and origin loops, with nu at
    least NU_GAP from an integer.  R loops at tol 1e-9 miss the invariant
    tolerance from n = 2 on (always at n = 5), and at tol 1e-10 from n = 3
    or 4 on; within about 1e-3 of nu = 2, 3, 4 the L loops miss the Jordan
    block that the closed forms predict.  The probe runs R at tol 1e-9 for
    n = 2..5 and an L loop 1e-4 above an integer.
    """

    name = "oracle"
    tail_pct = 75.0
    unit = "loops"
    combos = tuple(("L", n, tol) for n in (1, 2, 3, 4, 5) for tol in (1e-9, 1e-10)) + (
        ("R", 1, 1e-9), ("R", 1, 1e-10), ("R", 2, 1e-10))
    probe_combos = tuple(("R", n, 1e-9) for n in (2, 3, 4, 5))
    origin_loops = 2
    pass_seconds = 3.0
    NU_GAP = 0.01

    def __init__(self, su):
        self.su = su

    @classmethod
    def _nu(cls, u, hi):
        """nu = hi (1 - u), moved to NU_GAP from the nearest integer when closer."""
        nu = hi * (1.0 - u)
        k = round(nu)
        if abs(nu - k) < cls.NU_GAP:
            nu = k - cls.NU_GAP if nu < k or k + cls.NU_GAP > hi else k + cls.NU_GAP
        return nu

    @staticmethod
    def _loop(which, n, tol, nu):
        return Op(f"{which}/n={n}/{tol:g}", {"nu": nu, "n": n, "which": which, "tol": tol}, 1)

    def make_passes(self, rng, count: int) -> list:
        passes = []
        for u in _columns(rng, len(self.combos) + 2 * self.origin_loops, count):
            # nu + 2n <= 12
            ops = [self._loop(*c, self._nu(u[k], min(4.0, 12.0 - 2 * c[1]))) for k, c in enumerate(self.combos)]
            for j in range(self.origin_loops):
                k = len(self.combos) + 2 * j
                ops.append(Op("origin", {"nu": self._nu(u[k], 4.0), "radius": 0.5 + 1.5 * u[k + 1]}, 1))
            passes.append(ops)
        return passes

    def make_probe(self, rng) -> list:
        ops = [self._loop(*c, self._nu(rng.random(), min(4.0, 12.0 - 2 * c[1]))) for c in self.probe_combos]
        return ops + [self._loop("L", 1, 1e-9, float(rng.integers(2, 5)) + 1e-4)]

    def prepare(self, op: Op):
        a = op.args
        if op.label == "origin":
            op.ref["eig"] = op.reference(ref.origin_eigenvalues, a["nu"])
            return
        op.args["params"] = self.su.PerturbParams.from_resonant_index(a["nu"], a["n"])
        op.ref["eig"] = op.reference(ref.loop_eigenvalues, a["nu"], a["n"], a["which"])
        op.ref["log"] = op.reference(ref.expected_log, a["nu"], a["n"], a["which"])
        # the program's own expectation, which its CLI compares against
        op.ref["program_log"] = self.su.oracle.expected_log_flag(op.args["params"], a["which"])

    def run(self, op: Op):
        a = op.args
        if op.label == "origin":
            return self.su.unperturbed_monodromy(a["nu"], a["radius"])
        return self.su.numerical_monodromy(a["params"], a["which"], a["tol"])

    def digest(self, op: Op, report):
        return tuple(report.eigenvalues_numeric), bool(report.log_detected), float(report.max_invariant_error)

    def check(self, op: Op, out) -> Outcome:
        o = Outcome()
        eig, log_detected, reported_err = out
        e = ref.eigen_err(eig, op.ref["eig"])
        o.err(e)
        flagged = reported_err > INVARIANT_TOL
        if op.label != "origin":
            flagged = flagged or log_detected != op.ref["program_log"]
        desc = f"{op.label} nu={op.args['nu']:.6g}"
        how = "flagged" if flagged else "not flagged"
        if not e <= INVARIANT_TOL:
            o.fail(f"{desc}: invariant error {e:.2e} > {INVARIANT_TOL:g} ({how} by the program)")
        elif op.label != "origin" and log_detected != op.ref["log"]:
            o.fail(f"{desc}: log_detected={log_detected}, expected {op.ref['log']} ({how} by the program)")
        return o

    def setup_argv(self, op: Op) -> list:
        a = op.args
        if op.label == "origin":
            return _python(f"import stokes_unfold as su\nsu.unperturbed_monodromy({a['nu']!r}, {a['radius']!r})\n")
        return _python("import stokes_unfold as su\n"
                f"p = su.PerturbParams.from_resonant_index({a['nu']!r}, {a['n']})\n"
                f"su.numerical_monodromy(p, {a['which']!r}, {a['tol']!r})\n")


# ------------------------------------------------------------------- cli


class Cli:
    """The README's command lines through ``cli.main`` in this process, with
    stdout captured (argument parsing, the cli and checks layers, JSON and
    CSV serialization).  Interpreter start-up and import are what setup_s
    measures: one fresh ``python -m stokes_unfold.cli`` per sample.  A child
    process per command moved by +-13% between 2-s windows, with no
    relation to the calibration loop."""

    name = "cli"
    # among the oracle commands: p90 fell at the fastest of the full check
    # commands, an extreme that moved twice as much between runs
    tail_pct = 75.0
    unit = "commands"
    pass_seconds = 3.0

    def __init__(self, su):
        self.su = su

    def make_passes(self, rng, count: int) -> list:
        """The README's command lines with seeded values.  The loop index n
        cycles through 1..3 over the passes from a seeded start.  The table
        is printed as CSV and as JSON: with nine commands the median falls
        between these two, of nearly equal cost, and not in a gap between
        commands of different cost."""
        first_n = int(rng.integers(3))
        passes = []
        for p, u in enumerate(_columns(rng, 6, count)):
            nus = [repr(4.0 * (1.0 - v)) for v in u]
            n_loop = str(1 + (first_n + p) % 3)
            cmds = [
                ("invariants", ["invariants", "--nu", nus[0]]),
                ("perturbed", ["perturbed", "--nu", nus[1], "--n", str(int(rng.integers(1, 6)))]),
                ("confluence", ["confluence", "--nu", nus[2], "--n-min", str(N_MIN), "--n-max", "1000",
                                "--format", "csv"]),
                ("confluence", ["confluence", "--nu", nus[5], "--n-min", str(N_MIN), "--n-max", "1000"]),
                ("oracle", ["oracle", "--nu", nus[3], "--n", n_loop, "--which", "L"]),
                ("oracle", ["oracle", "--nu", nus[3], "--n", n_loop, "--which", "R"]),
                ("oracle", ["oracle", "--nu", nus[4], "--which", "origin"]),
                ("check", ["check"]),
                ("check", ["check", "--filter", "borel", "--seed", str(int(rng.integers(0, 1000)))]),
            ]
            ops = []
            for label, argv in cmds:
                args = {"argv": argv}
                if label == "confluence":
                    args["rows"] = _sample_rows(rng, 1000)
                ops.append(Op(label, args, 1))
            passes.append(ops)
        return passes

    def prepare(self, op: Op):
        argv = op.args["argv"]
        opts = dict(zip(argv[1::2], argv[2::2]))
        nu = float(opts["--nu"]) if "--nu" in opts else None
        if op.label == "invariants":
            op.ref["stokes"] = op.reference(ref.stokes_entries, nu)
        elif op.label == "perturbed":
            op.ref["row"] = op.reference(ref.confluence_row, nu, int(opts["--n"]))
        elif op.label == "confluence":
            op.ref["rows"] = {n: op.reference(ref.confluence_row, nu, n) for n in op.args["rows"]}
            op.ref["scale"] = float(abs(op.reference(ref.stokes_entries, nu)[0]))
        elif op.label == "oracle":
            which = opts["--which"]
            op.ref["eig"] = (op.reference(ref.origin_eigenvalues, nu) if which == "origin"
                             else op.reference(ref.loop_eigenvalues, nu, int(opts["--n"]), which))

    def make_probe(self, rng) -> list:
        return []

    def run(self, op: Op):
        from stokes_unfold import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.args["argv"]))
        return code, buf.getvalue()

    def digest(self, op: Op, out):
        return out

    def check(self, op: Op, out) -> Outcome:
        code, text = out
        desc = " ".join(op.args["argv"])
        o = Outcome()
        try:
            if "csv" in op.args["argv"]:
                self._check_csv(op, code, text, o, desc)
                return o
            rec = json.loads(text)
            if rec.get("schema_version") != "1" or rec.get("command") != op.label:
                o.fail(f"{desc}: schema_version/command mismatch")
                return o
            payload = rec["payload"]
            getattr(self, f"_check_{op.label}")(op, code, payload, o, desc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            o.fail(f"{desc}: output does not parse ({type(exc).__name__}: {exc}); exit {code}")
        return o

    def _closed(self, o, desc, what, value, reference):
        e = ref.rel_err(value, reference)
        o.err(e)
        if not e <= CLOSED_FORM_RTOL:
            o.fail(f"{desc}: {what} rel err {e:.2e}")

    def _exit(self, o, desc, code, expected):
        if code != expected:
            o.fail(f"{desc}: exit {code}, payload implies {expected}")

    def _check_invariants(self, op, code, payload, o, desc):
        self._exit(o, desc, code, 0)
        st0, stpi = op.ref["stokes"]
        self._closed(o, desc, "stokes_0[1,3]", _complex(payload["stokes_0"][0][2]), st0)
        self._closed(o, desc, "stokes_pi[1,2]", _complex(payload["stokes_pi"][0][1]), stpi)

    def _check_perturbed(self, op, code, payload, o, desc):
        self._exit(o, desc, code, 0)
        for key in ("d_L2", "d_R3"):
            self._closed(o, desc, key, _complex(payload[key]), op.ref["row"][key])

    def _check_oracle(self, op, code, payload, o, desc):
        bad = payload["max_invariant_error"] > payload["invariant_tolerance"]
        if "log_expected" in payload:
            bad = bad or payload["log_detected"] != payload["log_expected"]
        self._exit(o, desc, code, 5 if bad else 0)
        closed = [_complex(v) for v in payload["eigenvalues_closed"]]
        e_closed = ref.eigen_err(closed, op.ref["eig"])
        o.err(e_closed)
        if not e_closed <= CLOSED_FORM_RTOL:
            o.fail(f"{desc}: closed eigenvalues off by {e_closed:.2e}")
        e = ref.eigen_err([_complex(v) for v in payload["eigenvalues_numeric"]], op.ref["eig"])
        o.err(e)
        if e > INVARIANT_TOL and not bad:
            o.fail(f"{desc}: invariant error {e:.2e} but exit {code}")

    def _check_check(self, op, code, payload, o, desc):
        results = payload["results"]
        failed = [r for r in results if not r["passed"]]
        self._exit(o, desc, code, 5 if failed else 0)
        if payload["passed"] != len(results) - len(failed) or payload["failed"] != len(failed):
            o.fail(f"{desc}: pass/fail counts disagree with the results")
        o.findings.extend(f"property {r['module']}.{r['name']} fails" for r in failed)

    def _check_csv(self, op, code, text, o, desc):
        self._exit(o, desc, code, 0)
        lines = text.splitlines()
        if not lines or lines[0] != CSV_HEADER:
            o.fail(f"{desc}: CSV header mismatch")
            return
        rows = list(csv.reader(lines[1:]))
        if any(len(r) != 10 for r in rows):
            o.fail(f"{desc}: CSV rows malformed")
            return
        self._check_table(op, [(int(r[0]), complex(float(r[2]), float(r[3])),
                                complex(float(r[4]), float(r[5])), float(r[9])) for r in rows], o, desc)

    def _check_confluence(self, op, code, payload, o, desc):
        self._exit(o, desc, code, 0)
        self._check_table(op, [(r["n"], _complex(r["d_L2"]), _complex(r["d_R3"]), r["stokes_err_R"])
                               for r in payload["rows"]], o, desc)

    def _check_table(self, op, rows, o, desc):
        """``rows``: (n, d_L2, d_R3, stokes_err_R) as the command printed them."""
        if [r[0] for r in rows] != list(range(N_MIN, 1001)):
            o.fail(f"{desc}: table rows malformed")
            return
        for n in op.args["rows"]:
            _, d_l2, d_r3, st_err = rows[n - N_MIN]
            r = op.ref["rows"][n]
            self._closed(o, desc, f"d_L2 at n={n}", d_l2, r["d_L2"])
            self._closed(o, desc, f"d_R3 at n={n}", d_r3, r["d_R3"])
            o.err(ref.rel_err(st_err, r["stokes_err_R"], scale=op.ref["scale"]))

    def setup_argv(self, op: Op) -> list:
        return [sys.executable, "-m", "stokes_unfold.cli", *op.args["argv"]]


def make(name: str, su):
    return {"resum": Resum, "confluence": Confluence, "oracle": Oracle, "cli": Cli}[name](su)


WORKLOADS = ("resum", "confluence", "oracle", "cli")
