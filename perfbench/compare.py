"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records that ``run.py`` writes (``--out``), any
number of untraced runs per workload.  For every end-to-end metric of
BENCHMARK.json the row gives each side's median and quartiles, the ratio of
the medians (new / base) and a verdict:

- ``unresolved``: the base runs spread (quartile distance over median) wider
  than the metric's bound, and not every new run beats every base run;
- ``worse``: the new median is worse than the base median by more than the
  bound;
- ``better``: the new side wins at least nine tenths of the runs paired by
  seed, and the medians differ by more than the base quartile distance;
- ``unchanged``: anything else.

The accuracy figures (``fail_frac``, ``max_rel_err``) carry no bound and are
listed for information.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: record}} for the untraced records in ``directory``."""
    out = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def _value(rec, name):
    m = rec["metrics"].get(name) or rec.get("accuracy", {}).get(name)
    return None if m is None else float(m["value"])


def summary(values):
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, new, pairs, bound, better):
    """Verdict for one metric; ``base``/``new`` are value lists, ``pairs``
    (base, new) tuples of runs with the same seed."""
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = summary(base)
    _, n_med, _ = summary(new)
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else float("inf")
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound and not all_better:
        return "unresolved"
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if change < -bound:
        return "worse"
    if pairs:
        wins = sum(1 for b, n in pairs if sign * n > sign * b) >= 0.9 * len(pairs)
    else:
        wins = all_better
    if wins and change > 0 and abs(n_med - b_med) > (b_q3 - b_q1):
        return "better"
    return "unchanged"


def compare(base_dir, new_dir, spec):
    base, new = load(base_dir), load(new_dir)
    rows = []
    metrics = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [("fail_frac", "ratio", "lower", None), ("max_rel_err", "ratio", "lower", None)]
    for workload in [w["name"] for w in spec["workloads"]]:
        b_runs, n_runs = base.get(workload, {}), new.get(workload, {})
        if not b_runs or not n_runs:
            rows.append((workload, "-", "-", "-", "-", "-", "missing on one side"))
            continue
        for name, unit, better, bound in metrics:
            bv = [v for v in (_value(r, name) for r in b_runs.values()) if v is not None]
            nv = [v for v in (_value(r, name) for r in n_runs.values()) if v is not None]
            if not bv or not nv:
                continue
            pairs = [(_value(b_runs[s], name), _value(n_runs[s], name))
                     for s in sorted(set(b_runs) & set(n_runs))]
            pairs = [(b, n) for b, n in pairs if b is not None and n is not None]
            bs, ns = summary(bv), summary(nv)
            ratio = ns[1] / bs[1] if bs[1] else (1.0 if not ns[1] else float("inf"))
            v = "info" if bound is None else verdict(bv, nv, pairs, bound, better)
            rows.append((workload, f"{name} [{unit}]", _fmt(bs), _fmt(ns), f"{ratio:.3f}",
                         f"{len(bv)}/{len(nv)}", v))
    return rows


def _fmt(s):
    q1, med, q3 = s
    return f"{med:.4g} ({q1:.4g}..{q3:.4g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two directories of benchmark records")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(args.base, args.new, spec)
    header = ("workload", "metric", "base median (q1..q3)", "new median (q1..q3)", "new/base",
              "runs", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
