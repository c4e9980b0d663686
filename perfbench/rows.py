"""Time the rows of the hand-timed table in ROADMAP.md with the harness.

    python3 perfbench/rows.py

Each row runs REPEATS times untraced (the 10^5-row table once), with the
median and quartiles reported next to the hand-timed figure, and once more
under the tracer, which splits that run's time into per-layer self time.  The row definitions and the
hand-timed figures live in design.json; the result is written to
perfbench/out/rows.json.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from pathlib import Path

import run

os.environ.pop(run.THREADS_ENV, None)
su = run.import_package()
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
REPEATS = 7
LONG_ROW = "confluence_table_1e5_serial"  # about 3.5 s: timed once


def _rows():
    psi = su.SeriesKind.PSI
    p1 = su.PerturbParams.from_resonant_index(0.5, 1)
    p5 = su.PerturbParams.from_resonant_index(0.5, 5)
    return {
        "gamma_x1000": lambda: [su.gamma(3.3 + 1j) for _ in range(1000)],
        "laplace_sum": lambda: su.laplace_sum(su.LaplaceQuery(0.5, psi, 0.1, su.DELTA_DEFAULT)),
        "stokes_jump_quadrature": lambda: su.stokes_jump_quadrature(0.5, psi, 0.15),
        "confluence_table_1e3_serial": lambda: su.confluence_table(0.5, 10, 1000, threads=1),
        "confluence_table_1e3_pool": lambda: su.confluence_table(0.5, 10, 1000),
        "confluence_table_1e5_serial": lambda: su.confluence_table(0.5, 10, 100000, threads=1),
        "numerical_monodromy_n1": lambda: su.numerical_monodromy(p1, "R", 1e-9),
        "numerical_monodromy_n5": lambda: su.numerical_monodromy(p5, "R", 1e-9),
        "unperturbed_monodromy": lambda: su.unperturbed_monodromy(0.5),
        "run_checks": lambda: __import__("stokes_unfold.checks", fromlist=["run_checks"]).run_checks(),
    }


def main() -> int:
    hand = json.loads((HERE / "design.json").read_text())["baseline_rows"]
    out = {}
    for name, fn in _rows().items():
        repeats = 1 if name == LONG_ROW else REPEATS
        fn()  # warm-up
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        tr = tracer.Tracer(span_cap=0).install()
        try:
            t0 = time.perf_counter()
            fn()
            traced_s = time.perf_counter() - t0
        finally:
            tr.uninstall()
        q = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
        layers = {k: round(1e3 * v[1], 3) for k, v in tr.layer_totals().items() if v[0]}
        out[name] = {"median_ms": 1e3 * q[1], "q1_ms": 1e3 * q[0], "q3_ms": 1e3 * q[2],
                     "repeats": repeats, "hand_ms": hand[name]["hand_ms"],
                     "traced_ms": 1e3 * traced_s, "layer_self_ms": layers}
        r = out[name]
        print(f"{name:30s} {r['median_ms']:10.2f} ms ({r['q1_ms']:.2f}..{r['q3_ms']:.2f})"
              f"  hand {r['hand_ms']:>8} ms  ratio {r['median_ms'] / r['hand_ms']:.2f}"
              f"  traced {r['traced_ms']:.2f} ms  {layers}")
    record = {"rows": out, "provenance": run.provenance(su, None, None)}  # env cleared above
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "rows.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
