"""Benchmark of stokes-unfold: one workload, one seed, one run.

    python3 perfbench/run.py --workload resum --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  The run generates its inputs from the
seed, computes the mpmath references, measures set-up time in fresh
interpreters, then runs the workload as a closed loop with one caller for
about ``--seconds`` (whole passes, ending at the pass boundary nearest to
that time), checks every output, runs the workload's known-defect probe
once, prints a table of all metrics and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics that
BENCHMARK.json names.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs a quarter of the time untraced and the same passes again
with the public functions of every layer wrapped, and reports the per-layer
metrics.

An operation's time is the time it ran: its wall time, capped at the CPU
time of the process (all threads) over the same interval.  On the shared
2-vCPU VM the benchmark was written on, the hypervisor takes the vCPU away
for tens of milliseconds at a time (steal time in /proc/stat); that shows in
wall time and not in CPU time, and made throughput and tails of the same
code move by 15-40% between runs.  Every load here runs on one thread, so
the cap only removes time the process did not run; work spread over
several threads still counts by its wall time.

Times are then *calibrated*: a fixed pure-Python and numpy loop,
independent of the package, runs between any two operations, and every
operation's time is scaled by CALIBRATION_REF_S over the calibration time
measured around it.  The speed of a core there moves by up to 2x within
seconds; the scaled times read as milliseconds on a core as fast as the one
the benchmark was written on.  Raw wall times are kept in the record.  The full record (every metric, provenance, probe results) is
written to ``--out`` (default ``perfbench/out``), the spans of a traced run
next to it.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread per process, set here before numpy loads and in every child.
# confluence_table's default pool of min(8, cpu_count) threads made tables
# 2.4x slower on a 2-vCPU host and moved them by +-30% between 2-s windows,
# which no calibration removes; OpenBLAS starts a thread per core at import,
# which more than tripled the spread of interpreter start-up times there.
SINGLE_THREAD_ENV = {"STOKES_UNFOLD_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
ENV_BEFORE = {k: os.environ.get(k) for k in SINGLE_THREAD_ENV}
os.environ.update(SINGLE_THREAD_ENV)

import numpy as np  # noqa: E402

import reference as ref
import tracer as tracer_mod
import workloads

ROOT = Path(__file__).resolve().parent.parent
THREADS_ENV = "STOKES_UNFOLD_THREADS"
SETUP_REPS = 15
CROSSCHECK_SAMPLE = 8
MAX_PASSES = 300  # distinct passes prepared at most; a longer run reuses them
# Tail percentiles a run may fall back to when it has too few samples for
# its workload's tail_pct.
TAIL_GRID = (50.0, 75.0, 90.0, 99.0, 99.9)
# Median time of one calibrate() on the 2-vCPU x86-64 VM (Python 3, numpy)
# the benchmark was written on; scaled times read as milliseconds there.
CALIBRATION_REF_S = 1.45e-3
CALIBRATION_REPS = 2  # best of: a calibration sample hit by an interrupt is dropped


def import_package():
    """Import stokes_unfold from this checkout's src/, or exit with a message."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stokes_unfold
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import stokes_unfold from {src}: {exc}")
    if Path(stokes_unfold.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: stokes_unfold resolved to {stokes_unfold.__file__}, not {src}")
    return stokes_unfold


# ------------------------------------------------------------- statistics


def tail(times, pct):
    """(value, percentile) at ``pct``, the workload's tail percentile, which
    a run of the benchmark's length leaves at least ten samples beyond.  A
    shorter run falls back to the highest grid percentile that does (the
    median below 20 samples).  The percentile is fixed per workload, not
    per run: it would otherwise move with the run's operation count."""
    n = len(times)
    if n * (1.0 - pct / 100.0) < 10.0:
        pct = max([p for p in TAIL_GRID if n * (1.0 - p / 100.0) >= 10.0], default=TAIL_GRID[0])
    return float(np.percentile(times, pct)), pct


def _calibration_body():
    # interpreter arithmetic, calls, complex math and small numpy arrays,
    # the mix the package's layers spend their time in
    acc = 0j
    z = 0.3 + 0.1j
    for k in range(600):
        acc += z * z * 0.5 + cmath.exp(-z) / (k + 1.0) + math.lgamma(1.0 + (k & 15))
        z = z * 0.999 + 0.001j
    s = 0
    for i in range(6000):
        s += i * i % 7
    a = np.arange(16.0)
    for _ in range(120):
        a = np.sqrt(a * a + 1.0)
    return acc, s, a


def calibrate():
    """Wall time of the calibration loop (best of CALIBRATION_REPS)."""
    best = float("inf")
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        _calibration_body()
        best = min(best, time.perf_counter() - t0)
    return best


def scales(cal):
    """Scale factor of operation i, which ran between calibration samples
    cal[i] and cal[i + 1]: CALIBRATION_REF_S over the median of the two
    samples before it and the two after it."""
    n = len(cal) - 1
    return [CALIBRATION_REF_S / statistics.median(cal[max(0, i - 1):min(n, i + 2) + 1])
            for i in range(n)]


# ------------------------------------------------------------- provenance


def _git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def child_env():
    """Environment of child interpreters: this checkout's src/ on the path,
    SINGLE_THREAD_ENV."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD_ENV)


def provenance(su, seed):
    import mpmath
    import scipy
    from stokes_unfold import confluence

    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "stokes_unfold": getattr(su, "__version__", None),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "sched_affinity": sorted(os.sched_getaffinity(0)),
        "confluence_threads": confluence.thread_count(),
        "env": SINGLE_THREAD_ENV,
        "env_before": ENV_BEFORE,
        "calibration_ref_s": CALIBRATION_REF_S,
    }


# ------------------------------------------------------------------ loop


def run_passes(wl, passes, seconds=None, count=None, tracer=None):
    """Closed loop over whole passes: ``count`` of them, or with ``seconds``
    until the pass boundary nearest to that time.  A calibration sample is
    taken before every operation and after the last one.  Each output is
    checked as it arrives, untimed, and only the outcome is kept, so that
    the benchmark's own memory does not grow with the run."""
    walls, cpus, cal, ops, outcomes, units = [], [], [], [], [], 0
    done = 0
    gc.collect()
    start = time.perf_counter()
    while True:
        for op in passes.get(done):
            cal.append(calibrate())
            if tracer is not None:
                tracer.op_id = len(walls)
            c0 = time.process_time()
            t0 = time.perf_counter()
            out = wl.run(op)
            t1 = time.perf_counter()
            cpus.append(time.process_time() - c0)
            walls.append(t1 - t0)
            ops.append(op)
            outcomes.append(wl.check(op, wl.digest(op, out)))
            units += op.units
        done += 1
        elapsed = time.perf_counter() - start
        if done == count or (seconds is not None and elapsed + 0.5 * elapsed / done >= seconds):
            break
    cal.append(calibrate())
    return {"wall": time.perf_counter() - start, "walls": walls, "cpus": cpus, "cal": cal,
            "ops": ops, "check": summarize(outcomes), "units": units, "passes": done}


def ran(res):
    """Calibrated time each operation ran: wall time capped at CPU time."""
    return [min(w, c) * k for w, c, k in zip(res["walls"], res["cpus"], scales(res["cal"]))]


class Passes:
    """``count`` passes drawn from one seeded stream, with their references,
    all prepared before any timing starts, and the workload's known-defect
    probe.  The references of a seeded sample of operations are checked
    against a higher precision.  A run that outlasts the prepared passes
    reuses them in order."""

    def __init__(self, wl, seed, count):
        self.items = wl.make_passes(np.random.default_rng(seed), count)
        self.probe = wl.make_probe(np.random.default_rng([seed, 2]))
        for op in [op for ops in self.items for op in ops] + self.probe:
            wl.prepare(op)
        flat = [op for ops in self.items for op in ops]
        picks = np.random.default_rng([seed, 1]).choice(
            len(flat), size=min(CROSSCHECK_SAMPLE, len(flat)), replace=False)
        self.crosscheck = max((ref.crosscheck(fn, *args) for i in picks
                               for fn, args in flat[int(i)].ref_calls), default=0.0)
        gc.collect()
        gc.freeze()  # keep the prepared inputs out of the collector's scans

    def get(self, i):
        return self.items[i % len(self.items)]


def passes_needed(wl, seconds):
    """Distinct passes to prepare: enough for ``seconds`` at twice the speed
    the workload ran at when the benchmark was written."""
    return int(min(MAX_PASSES, math.ceil(2.0 * seconds / wl.pass_seconds) + 1))


def summarize(outcomes):
    attempted = failed = 0
    worst = 0.0
    notes, findings = [], []
    for o in outcomes:
        attempted += o.attempted
        failed += o.failed
        worst = max(worst, o.max_rel_err)
        notes.extend(o.notes)
        findings.extend(o.findings)
    return {"attempted": attempted, "failed": failed, "max_rel_err": worst,
            "notes": notes, "findings": findings}


def run_probe(wl, probe):
    """The known-defect probe, untimed: operations outside the timed inputs
    where the program is known to miss its accuracy.  Its failures are
    reported, not counted as failures of the run."""
    chk = summarize([wl.check(op, wl.digest(op, wl.run(op))) for op in probe])
    return {"attempted": chk["attempted"], "failed": chk["failed"],
            "max_rel_err": chk["max_rel_err"], "notes": chk["notes"]}


def measure_setup(wl, op, env):
    """Median calibrated time of fresh interpreter -> import -> first
    operation, wall time capped at the child's CPU time as for operations,
    and the raw wall times.  With OpenBLAS on one thread, start-up follows
    the calibration loop (correlation 0.74 over 40 samples)."""
    argv = wl.setup_argv(op)
    raw, ran_s, cal = [], [], [calibrate()]
    for _ in range(SETUP_REPS):
        c0 = _children_cpu()
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              check=False)
        raw.append(time.perf_counter() - t0)
        ran_s.append(min(raw[-1], _children_cpu() - c0))
        cal.append(calibrate())
        if proc.returncode not in (0, 5):
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-400:]}")
    return statistics.median(t * k for t, k in zip(ran_s, scales(cal))), raw


def _children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


# ------------------------------------------------------------------ main


def end_to_end(wl, passes, seconds, env):
    first = passes.get(0)[0]
    setup_s, setup_samples = measure_setup(wl, first, env)
    wl.run(first)  # warm-up: lazy set-up and caches, untimed
    res = run_passes(wl, passes, seconds=seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = ran(res)
    n = len(times)
    chk = res["check"]
    tail_v, tail_p = tail(times, wl.tail_pct)
    metrics = {
        "throughput": res["units"] / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail_v,
        "cpu_ms_per_op": 1e3 * sum(c * k for c, k in zip(res["cpus"], scales(res["cal"]))) / n,
        "setup_s": setup_s,
        "peak_rss_mb": peak,
    }
    raw_tail, _ = tail(res["walls"], tail_p)
    extra = {
        "op_tail_percentile": tail_p,
        "op_samples": n,
        "work_units": res["units"],
        "work_unit": wl.unit,
        "wall_s": res["wall"],
        "passes": res["passes"],
        "calibration_median_ms": 1e3 * statistics.median(res["cal"]),
        "raw_throughput": res["units"] / sum(res["walls"]),
        "raw_op_p50_ms": 1e3 * statistics.median(res["walls"]),
        "raw_op_tail_ms": 1e3 * raw_tail,
        "raw_cpu_ms_per_op": 1e3 * sum(res["cpus"]) / n,
        "setup_samples_s": setup_samples,
    }
    if n <= 2000:
        extra["op_times_ms"] = [round(1e3 * t, 3) for t in times]
    return metrics, extra, chk


def traced(wl, passes, seconds):
    """Untraced passes for a quarter of the time, then the same passes
    traced (which takes a few times as long)."""
    wl.run(passes.get(0)[0])  # warm-up, as for the untraced run
    base = run_passes(wl, passes, seconds=seconds / 4.0)
    tracer = tracer_mod.Tracer().install()
    try:
        res = run_passes(wl, passes, count=base["passes"], tracer=tracer)
    finally:
        tracer.uninstall()
    chk = res["check"]
    n = len(res["walls"])
    units = res["units"]
    totals = tracer.layer_totals()
    calls = tracer.calls
    metrics = {}
    for layer, (count, self_s) in totals.items():
        metrics[f"{layer}.calls_per_op"] = count / n
        metrics[f"{layer}.self_ms_per_op"] = 1e3 * self_s / n
    metrics["quad.panels_per_op"] = calls.get("quad.gl_panel", 0) / n
    metrics["quad.segments_per_op"] = calls.get("quad.integrate_segment", 0) / n
    metrics["borel.laplace_sums_per_op"] = calls.get("borel.laplace_sum", 0) / n
    metrics["gammas.calls_per_row"] = totals["gammas"][0] / units
    metrics["unperturbed.stokes_matrix_calls_per_row"] = calls.get("unperturbed.stokes_matrix", 0) / units
    metrics["oracle.rhs_evals_per_op"] = calls.get("oracle.CompanionSystem.matrix", 0) / n
    metrics["perturbed.coefficients_a_calls_per_op"] = calls.get("perturbed.coefficients_a", 0) / n
    full_checks = [i for i, op in enumerate(res["ops"]) if op.args.get("argv") == ["check"]]
    for tag in sorted(set(tracer.check_tags.values())):
        per_run = [sum(v for (op_id, name), v in tracer.incl_by_op.items()
                       if op_id == i and tracer.check_tags.get(name) == tag) for i in full_checks]
        metrics[f"checks.{tag}.wall_ms"] = 1e3 * statistics.median(per_run) if per_run else 0.0
    # both sides timed as the untraced run is, so that a change of core
    # speed between the untraced and the traced passes is not overhead
    metrics["trace.overhead_ratio"] = (sum(ran(res)) / units) / (sum(ran(base)) / base["units"])
    metrics["trace.layer_share"] = sum(s for _, s in totals.values()) / sum(res["walls"])
    extra = {"ops": n, "work_units": units, "work_unit": wl.unit, "untraced_wall_s": base["wall"],
             "traced_wall_s": res["wall"], "passes": res["passes"]}
    return metrics, extra, chk, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"))
    args = parser.parse_args(argv)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    su = import_package()
    env = child_env()
    wl = workloads.make(args.workload, su)

    count = passes_needed(wl, args.seconds)
    passes = Passes(wl, args.seed, count)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "passes_prepared": count,
              "reference_crosscheck_max": passes.crosscheck}
    if args.trace:
        metrics, extra, chk, tr = traced(wl, passes, args.seconds)
    else:
        metrics, extra, chk = end_to_end(wl, passes, args.seconds, env)
    record.update({
        "provenance": provenance(su, args.seed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
        "details": extra,
        "attempted": chk["attempted"],
        "failed": chk["failed"],
        "correct": chk["failed"] == 0,
        "failure_notes": chk["notes"][:50],
        "findings": sorted(set(chk["findings"])),
        "accuracy": {"fail_frac": {"value": chk["failed"] / chk["attempted"], "unit": "ratio"},
                     "max_rel_err": {"value": chk["max_rel_err"], "unit": "ratio"}},
        "known_defect_probe": run_probe(wl, passes.probe),
    })

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tr.write(out_dir / f"{stem}-spans.json.gz")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    _print_table(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def _print_table(record):
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    rows = dict(record["metrics"])
    rows.update(record.get("accuracy", {}))
    for name, m in rows.items():
        print(f"  {name:45s} {m['value']:<14.6g} {m['unit']}")
    d = record["details"]
    print("  " + "  ".join(f"{k}={v}" for k, v in d.items() if not isinstance(v, list)))
    print(f"  attempted {record['attempted']}  failed {record['failed']}  correct {record['correct']}")
    for note in record["failure_notes"][:10]:
        print(f"  - {note}")
    for finding in record["findings"]:
        print(f"  reported by the program: {finding}")
    probe = record["known_defect_probe"]
    if probe["attempted"]:
        print(f"  known-defect probe (untimed, not counted above): {probe['failed']} of "
              f"{probe['attempted']} miss their rule, max rel err {probe['max_rel_err']:.3g}")
    for note in probe["notes"][:5]:
        print(f"    - {note}")


if __name__ == "__main__":
    sys.exit(main())
