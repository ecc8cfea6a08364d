"""Run the acceptance CLI runs in-process and write what each one produced.

Usage::

    python3 scripts/acceptance_runs.py OUT_DIR

Each run writes its output files into ``OUT_DIR/<run>/`` and its exit code,
standard output and standard error into ``OUT_DIR/<run>.out``.  The runs
execute with ``OUT_DIR`` as the working directory and relative output
paths, so the printed ``wrote`` lines do not depend on ``OUT_DIR``, and the
trees written by two checkouts compare with ``diff -r``.  spinphase is
imported from the ``src`` directory of the checkout holding this script.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spinphase import cli  # noqa: E402  (imported from this checkout's src)

POLYNOMIAL_CONFIG = "polynomial_config.json"
ROTATION_CONFIG = "rotation_config.json"
FORMATS = ["--formats", "csv,json,gnuplot"]
RUNS = {
    "simulate_uniform_rotation": ["simulate", "--profile", "uniform_rotation", "--t-end", "200"],
    "simulate_sinusoidal": ["simulate", "--profile", "sinusoidal", "--t-end", "300"],
    "simulate_cone": ["simulate", "--profile", "cone", "--t-end", "100"],
    "phases_uniform_rotation": ["phases", "--profile", "uniform_rotation", "--t-end", "200"],
    "phases_sinusoidal": ["phases", "--profile", "sinusoidal", "--t-end", "125.66370614359172"],
    "stokes": ["stokes"],
    "stokes_B2": ["stokes", "--B", "2.0", "--n-nodes", "4001"],
    "convergence": ["convergence"],
    "timescale": ["timescale", "--B", "2", "--omega", "0.1"],
    # integer B0 and c0: the stored params keep B0 an int and turn coefficients into floats
    "simulate_polynomial_config": ["simulate", "--config", POLYNOMIAL_CONFIG],
    # integer epsilon, max_step and t_start become floats; integer B0 stays an int
    "phases_rotation_config": ["phases", "--config", ROTATION_CONFIG],
}


def run_all(out_dir: str) -> dict[str, int]:
    """Execute every run with ``out_dir`` as working directory; returns the exit codes."""
    os.makedirs(out_dir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        with open(POLYNOMIAL_CONFIG, "w", encoding="utf-8") as fh:
            json.dump({"profile": {"kind": "polynomial_angle",
                                   "params": {"B0": 1, "c0": 0, "c1": 0.1}},
                       "params": {"t_end": 100.0}}, fh)
        with open(ROTATION_CONFIG, "w", encoding="utf-8") as fh:
            json.dump({"profile": {"kind": "uniform_rotation", "params": {"B0": 2, "omega": 0.1},
                                   "epsilon": 1, "t_domain": [0, 100]},
                       "integrator": {"rel_tol": 1e-9, "max_step": 5},
                       "params": {"t_start": 1, "t_end": 50}}, fh)
        codes = {}
        for name, argv in RUNS.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[name] = cli.main(argv + ["--out", name] + FORMATS)
            with open(f"{name}.out", "w", encoding="utf-8") as fh:
                fh.write(f"exit {codes[name]}\n--- stdout\n{out.getvalue()}"
                         f"--- stderr\n{err.getvalue()}")
        return codes
    finally:
        os.chdir(cwd)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: acceptance_runs.py OUT_DIR", file=sys.stderr)
        return 2
    for name, code in run_all(argv[0]).items():
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
