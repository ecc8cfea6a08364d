"""Run the benchmark in a parent and a change checkout in alternating pairs.

Usage::

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR OUT_JSON \\
        [--workload W ...] [--pairs 10] [--seed 7] [--seconds 15] [--parent-rev REV]

Each checkout runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` from its own root.  Pair k runs the parent first for even k and
the change first for odd k.  ``OUT_JSON`` receives every run's final JSON
line and, per workload and end-to-end metric of ``BENCHMARK.json``, the
medians of both sides, the parent's interquartile range and the number of
pairs the change won (ties count for neither side).  Workloads already in an
existing ``OUT_JSON`` and not run again are kept.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    """One timed benchmark run: its record (correct, attempted, failed and the metric
    values) and the ``machine:`` line it printed."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited with code {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    record = {key: result[key] for key in ("correct", "attempted", "failed")}
    record.update((name, m["value"]) for name, m in result["metrics"].items())
    machine = next((ln[len("machine: "):] for ln in lines if ln.startswith("machine: ")), "")
    return record, machine


def _iqr(values: list[float]) -> float:
    """Distance between the 25th and 75th percentiles, by linear interpolation."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _round(x: float) -> float:
    return float(f"{x:.6g}")


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary and failure counts of pairs {"parent": record, "change": record}.

    ``better`` maps each metric to "lower" or "higher".
    """
    summary = {}
    for name, sense in better.items():
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        wins = sum((c < q) if sense == "lower" else (c > q) for q, c in zip(par, chg))
        p_med, c_med = statistics.median(par), statistics.median(chg)
        summary[name] = {
            "parent_median": _round(p_med),
            "change_median": _round(c_med),
            "ratio_change_over_parent": round(c_med / p_med, 3) if p_med else None,
            "parent_iqr": _round(_iqr(par)),
            "change_better_pairs": wins,
            "pairs": len(pairs),
        }
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    failed.update((f"attempted_{side}", sum(p[side]["attempted"] for p in pairs))
                  for side in ("parent", "change"))
    return {"summary": summary, "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("out")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--parent-rev", default="", help="recorded as the parent's name")
    opts = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]

    out = {}
    if os.path.exists(opts.out):
        with open(opts.out, encoding="utf-8") as fh:
            out = json.load(fh)
    out.update({
        "what": "perfbench final JSON line per run (python3 perfbench/run.py --workload W "
                f"--seed {opts.seed} --seconds {opts.seconds:g} --trace 0), parent against the "
                "change, in alternating pairs run back to back on one machine; parent_iqr is the "
                "distance between the 25th and 75th percentiles (linear interpolation) of the "
                "parent's runs",
        "parent": opts.parent_rev or out.get("parent", ""),
        "seed": opts.seed, "seconds": opts.seconds, "trace": 0,
        "pair_order": "pair k runs parent then change for even k and change then parent for "
                      "odd k; every pair records its order",
    })
    out.setdefault("workloads", {})
    dirs = {"parent": opts.parent, "change": opts.change}
    for workload in workloads:
        pairs = []
        for k in range(opts.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"pair": k, "order": f"{order[0]} first"}
            for side in order:
                pair[side], out["machine"] = run_once(dirs[side], workload, opts.seed,
                                                      opts.seconds)
            pairs.append(pair)
            print(f"{workload} pair {k}: op_p50_s parent {pair['parent']['op_p50_s']:.4g} "
                  f"change {pair['change']['op_p50_s']:.4g}", flush=True)
        out["workloads"][workload] = dict(summarize(pairs, better), pairs=pairs)
        with open(opts.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
