"""Mutation audit: each listed one-line mutant of ``src/`` must fail tier-1.

Usage::

    python3 scripts/mutants.py

Tier-1 first runs once on an unmodified copy, and the audit stops with exit code 2
if that run fails, since every mutant would then read as killed.  Then, for each
entry of ``MUTANTS``, the checkout (``src/``, ``tests/``, ``scripts/``
and the top-level files, which the tests read) is copied into a temporary
directory, the entry's old text, which must occur exactly once in its module,
is replaced by the new text, and tier-1 runs there with ``-x`` and a fixed
Hypothesis seed.  Each mutant prints ``killed`` with the first failing test,
or ``survived``.  A mutant declared in ``OPEN`` names the item that will kill
it; it is expected to survive.  The exit code is 1 if an undeclared mutant survives
or a declared one is killed (so its declaration can go), else 0.  A killed
mutant takes a few seconds and a survivor one full tier-1 run.  Standard
library only.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--hypothesis-seed=0"]
COPIED = ("src", "tests", "scripts")  # the directories a copy takes, beside the top-level files

# name: (module under src/spinphase, old text, new text, what the mutant breaks)
MUTANTS = {
    "M1": ("exact_dynamics.py", "axis=1))) / 15.0", "axis=1))) / 1500.0",
           "the CF4 Richardson estimate reads 100x too small"),
    "M3": ("geometric_phases.py", "fac = 4.0**j", "fac = 2.0**j",
           "the Romberg table removes h, h**2, h**3 instead of h**2, h**4, h**6"),
    "M9": ("adiabatic_engine.py", "2.0 * td * pd * ct", "1.0 * td * pd * ct",
           "the theta_dot * phi_dot cross term of d2s0/dt2 is halved"),
    "M12": ("exact_dynamics.py", "float(np.min(mags)) <= 0.5:", "float(np.min(mags)) <= 0.05:",
            "the OverlapLoss floor drops from 0.5 to 0.05"),
    "M16": ("exact_dynamics.py", "_NORM_TOL = 1e-9", "_NORM_TOL = 1e-3",
            "initial states 1e-3 off the unit norm are renormalized silently"),
    "grid_multiple_1": ("exact_dynamics.py", "-intervals % _GRID_MULTIPLE", "-intervals % 1",
                        "the default grid's interval count is not rounded to a multiple of 8"),
    "no_uniformity_test": ("geometric_phases.py",
                           "uniform = max(dt.max() - dt[0], dt[0] - dt.min()) <= tol",
                           "uniform = True",
                           "the trajectory integrals decimate non-uniform grids"),
    "no_extrapolation": ("geometric_phases.py",
                         "return _romberg_limit([finest] + [estimate(s) for s in "
                         "_strides(times)[1:]])",
                         "return finest",
                         "the trajectory integrals are plain trapezoid sums"),
    "horizon_ignores_phi_dot": ("verification.py", "np.sin(s.theta) * s.phi_dot",
                                "0.0 * s.phi_dot",
                                "check_horizon takes its rate from theta_dot alone"),
    "trajectory_any_width": ("exact_dynamics.py", "if width not in (2, 3) or",
                             "if width is None or",
                             "a Trajectory accepts states of any width"),
    "loop_time_unit_unchecked": ("geometric_phases.py", "if not self.time_unit > 0:", "if False:",
                                 "an MLoop accepts a zero or negative time_unit"),
    "write_in_place": ("cli.py", 'tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")',
                       "tmp = path", "write_outputs writes straight to the final path"),
}
# mutants expected to survive today, each with the open item that will kill it.  M1 needs
# none: the default-grid test of the trajectory integrals sees its 100x looser CF4 runs
OPEN: dict[str, str] = {}


def mutate(tree: str, module: str, old: str, new: str) -> None:
    """Replace the one occurrence of ``old`` in ``src/spinphase/<module>`` under ``tree``."""
    path = os.path.join(tree, "src", "spinphase", module)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{module}: {old!r} occurs {count} times, not once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))


def run(name: str | None) -> tuple[bool, str]:
    """Run tier-1 on a copy with mutant ``name`` applied, or on an unmodified copy for None:
    (failed, the first failing test or the summary line)."""
    with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
        tree = os.path.join(tmp, "tree")
        for part in COPIED:
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tree, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        for entry in os.scandir(ROOT):
            if entry.is_file():
                shutil.copy2(entry.path, tree)
        if name is not None:
            mutate(tree, *MUTANTS[name][:3])
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env,
                              capture_output=True, text=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode != 0, failed[0] if failed else (lines[-1] if lines else proc.stderr)


def main() -> int:
    failed, detail = run(None)
    if failed:
        print(f"tier-1 fails on the unmodified copy: {detail}", file=sys.stderr)
        return 2
    print(f"{'unmodified':24s} passed   {detail}", flush=True)
    wrong = []
    for name in MUTANTS:
        killed, detail = run(name)
        verdict = "killed" if killed else "survived"
        note = f"  [declared open: {OPEN[name]}]" if name in OPEN else ""
        print(f"{name:24s} {verdict:8s} {detail}  ({MUTANTS[name][3]}){note}", flush=True)
        if killed == (name in OPEN):
            wrong.append(name)
    if wrong:
        print(f"not as declared: {', '.join(wrong)}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
