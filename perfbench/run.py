"""spinphase benchmark: seeded, oracle-checked workloads timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload phase_budget --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``layers.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric by name
with its unit, the inputs' seed and hash, the machine and versions, and any
failed check.

Load shape: a closed loop with one caller.  Operations run back to back in
one single-threaded process, BLAS/OpenMP pools are pinned to one thread, and
workloads never run concurrently.  Each process is a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("phase_budget", "convergence_sweep", "cyclic_geometry", "simulate_export")
IMPORTTIME_RUNS = 3
RUN_BUDGET_S = 170.0  # every process this run starts is killed once this has passed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure (not a failed check of the program)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _time_left(opts) -> float:
    left = opts.deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_BUDGET_S:g} s")
    return left


def spawn_worker(mode: str, opts, workdir: str, first: int = 0) -> dict:
    """Run one worker process; returns its result with ``setup_s`` and ``inputs_hash``.

    ``setup_s`` runs from just before the process is started until it
    reports that its inputs are ready.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", opts.workload, "--seed", str(opts.seed),
           "--seconds", str(opts.seconds), "--size", opts.size, "--workdir", workdir,
           "--first", str(first)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(_time_left(opts), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result_lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not ready.startswith("READY ") or not result_lines:
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    result = json.loads(result_lines[-1][len("RESULT "):])
    result.update(setup_s=setup_s, inputs_hash=ready.split()[1])
    return result


def _importtime_once(opts) -> dict:
    """Import costs of ``import spinphase`` (then scipy.interpolate) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import spinphase; import scipy.interpolate"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=_time_left(opts),
    )
    if proc.returncode != 0:
        raise BenchError(f"import spinphase failed: {proc.stderr.strip()[-300:]}")
    rows = []  # (depth, name, self s, cumulative s) in the order printed (children first)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "self [us]" in line:
            continue
        label = parts[2][1:]
        name = label.lstrip(" ")
        rows.append(((len(label) - len(name)) // 2, name,
                     int(parts[0].split(":")[1]) * 1e-6, int(parts[1]) * 1e-6))
    top = next((i for i, r in enumerate(rows) if r[0] == 0 and r[1] == "spinphase"), None)
    if top is None:
        raise BenchError("python -X importtime reported no import of spinphase")

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    def parent(i):
        return next((j for j in range(i + 1, len(rows)) if rows[j][0] < rows[i][0]), None)

    def cumulative(name):
        return sum(r[3] for r in rows if r[1] == name)

    scipy_s = sum(
        rows[i][3] for i in range(top)
        if is_scipy(rows[i][1]) and not is_scipy(rows[parent(i)][1])  # outermost scipy imports
    )
    return {
        "setup.import_numpy_s": cumulative("numpy"),
        "setup.import_scipy_s": scipy_s,
        "setup.import_scipy_integrate_s": cumulative("scipy.integrate"),
        "setup.import_scipy_interpolate_s": cumulative("scipy.interpolate"),
        "setup.import_spinphase_s": sum(
            r[2] for r in rows[: top + 1] if r[1] == "spinphase" or r[1].startswith("spinphase.")
        ),
    }


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def timed_run(opts, workdir):
    """End-to-end metrics: one timed process plus fresh processes for set-up samples.

    There is one fresh process per input of the first block (the timed one
    runs input 0 first), so the first-operation samples cover every stratum
    once; their mean is then nearly independent of the seed.
    """
    steady = spawn_worker("steady", opts, workdir)
    fresh = [steady] + [spawn_worker("first", opts, workdir, first=k)
                        for k in range(1, steady["block"])]
    durations = steady["durations"]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in fresh), "s"),
        "first_op_s": (statistics.fmean(r["first_op_s"] for r in fresh), "s"),
        "ops_per_s": (len(durations) / steady["wall_s"], "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "peak_rss_mib": (steady["peak_rss_mib"], "MiB"),
    }
    notes = [
        f"samples: setup_s and first_op_s over {len(fresh)} fresh processes; "
        f"ops_per_s and op_p50_s over {len(durations)} operations after the first",
        "setup_s samples: " + " ".join(f"{r['setup_s']:.3f}" for r in fresh),
        "first_op_s samples: " + " ".join(f"{r['first_op_s']:.3f}" for r in fresh),
    ]
    return fresh, metrics, notes, steady.get("versions", {})


def trace_run(opts, workdir):
    """Per-layer metrics: import-time breakdown plus one traced worker."""
    from layers import PER_LAYER

    imports = [_importtime_once(opts) for _ in range(IMPORTTIME_RUNS)]
    traced = spawn_worker("trace", opts, workdir)
    values = dict(traced["metrics"])
    for key in imports[0]:
        values[key] = statistics.median(run[key] for run in imports)
    metrics = {m.name: (values[m.name], m.unit) for m in PER_LAYER}
    notes = [f"traced pass: {traced['ops']} operations; per-layer values are per operation"]
    notes += [f"absent binding: {name}" for name in traced["absent"]]
    notes += [f"FAIL exact count differs between traced passes: {k}"
              for k in traced["count_mismatches"]]
    notes.append("function                                            calls   incl_s    self_s")
    notes += [f"  {name:<48s} {calls:>8d} {incl:8.4f} {self_s:9.4f}"
              for name, calls, incl, self_s in traced["functions"]]
    return [traced], metrics, notes, traced.get("versions", {})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="spinphase benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the smallest input set (self-test only)")
    opts = p.parse_args(argv)
    opts.deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "spinphase", "__init__.py")):
        print(f"benchmark: no spinphase sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        runs, metrics, notes, versions = (trace_run if opts.trace else timed_run)(opts, workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass

    hashes = {r["inputs_hash"] for r in runs}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    mismatches = runs[0].get("count_mismatches", [])
    correct = failed == 0 and len(hashes) == 1 and not mismatches

    env = dict(machine(), **versions)
    print("machine: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: workload={opts.workload} seed={opts.seed} size={opts.size} "
          f"sha256={','.join(sorted(hashes))}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<48s} {value:.6g} {unit}")
    for f in failures:
        print(f"FAIL {f}")
    if len(hashes) != 1:
        print("FAIL worker processes generated different inputs from one seed")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4g} of attempted operations")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
