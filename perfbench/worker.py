"""One benchmark process: import spinphase, build inputs, run operations.

Started by ``run.py`` as a fresh interpreter, never imported.  Modes:

first   set up, then run input ``--first`` once (one ``first_op_s`` sample)
steady  set up, run the first input once, then cycle through all inputs
        until ``--seconds`` have elapsed (the timed operations)
trace   set up, then a traced pass, an untraced pass and a second traced
        pass over the first inputs (the per-layer metrics)

Protocol on standard output: ``READY <inputs hash>`` once set-up is done (the
parent's clock for ``setup_s`` stops when it reads that line), then one
``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (imports spinphase from SRC)

TRACE_OPS = 2  # inputs in one traced pass


def _result(payload: dict):
    import numpy
    import scipy

    payload["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}
    print("RESULT " + json.dumps(payload), flush=True)


def _run_pass(workload, args):
    """Run every prepared input once: (durations, failure messages, failed ops)."""
    durations, failures, failed = [], [], 0
    for k, arg in enumerate(args):
        t0 = time.perf_counter()
        fails = workloads.run_op(workload, arg)
        durations.append(time.perf_counter() - t0)
        failures += [f"input {k}: {msg}" for msg in fails]
        failed += bool(fails)
    return durations, failures, failed


def _setup(opts):
    t0 = time.perf_counter()
    items = workloads.generate(opts.workload, opts.seed, opts.size)
    args = workloads.prepare(opts.workload, items, opts.workdir)
    inputs_s = time.perf_counter() - t0
    print(f"READY {workloads.inputs_hash(items)}", flush=True)
    return args, inputs_s


def run_first(opts):
    args, _ = _setup(opts)
    k = opts.first % len(args)
    durations, failures, failed = _run_pass(opts.workload, args[k:k + 1])
    _result({"first_op_s": durations[0], "attempted": 1, "failed": failed,
             "failures": failures})


def run_steady(opts):
    args, _ = _setup(opts)
    first, failures, failed = _run_pass(opts.workload, args[:1])
    durations = []
    t0 = time.perf_counter()
    for arg in itertools.cycle(args):  # at least one operation
        d, f, n = _run_pass(opts.workload, [arg])
        durations += d
        failed += n
        failures += f
        wall = time.perf_counter() - t0
        if wall >= opts.seconds:
            break
    _result({
        "first_op_s": first[0], "durations": durations, "wall_s": wall,
        "attempted": 1 + len(durations), "failed": failed, "failures": failures[:20],
        "block": workloads.SIZES[opts.size][opts.workload][1],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })


def run_trace(opts):
    from layers import PER_LAYER
    from tracer import Tracer

    args, inputs_s = _setup(opts)
    args = args[:TRACE_OPS]
    passes, failures, failed = [], [], 0
    for traced in (True, False, True):
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():
            _, f, n = _run_pass(opts.workload, args)
        passes.append((time.perf_counter() - t0, tracer))
        failures += f
        failed += n
    (_, tr_1), (wall_plain, _), (wall_2, tr_2) = passes

    counts_1, counts_2 = tr_1.exact_counts(), tr_2.exact_counts()
    mismatched = sorted(k for k in counts_1.keys() | counts_2.keys()
                        if counts_1.get(k) != counts_2.get(k))
    metrics, absent = {}, set(tr_2.absent)
    for m in PER_LAYER:
        if m.value is None:
            continue
        absent.update(n for n in m.uses if n not in tr_2.traced)
        value = m.value(tr_2)
        metrics[m.name] = value / len(args) if m.per_op else value
    metrics["setup.inputs_s"] = inputs_s
    metrics["trace.overhead_ratio"] = wall_2 / wall_plain
    _result({
        "metrics": metrics, "ops": len(args), "attempted": 3 * len(args),
        "failed": failed, "failures": failures[:20],
        "count_mismatches": mismatched[:20], "absent": sorted(absent),
        "functions": tr_2.function_table(),
    })


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("first", "steady", "trace"))
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--first", type=int, default=0, help="input run first (mode first)")
    opts = p.parse_args(argv)
    if workloads.spinphase_location() != os.path.join(SRC, "spinphase"):
        print(f"spinphase imported from {workloads.spinphase_location()}, not {SRC}",
              file=sys.stderr)
        return 2
    {"first": run_first, "steady": run_steady, "trace": run_trace}[opts.mode](opts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
