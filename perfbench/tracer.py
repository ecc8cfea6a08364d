"""Outside-in tracer: wraps spinphase's public functions without editing them.

At trace time the tracer enumerates the public functions each spinphase
module defines (so a function added later is traced with no benchmark edit)
and rebinds every module-level name bound to one of them, in every spinphase
module.  Modules import each other in the ``from .field_profiles import
sample`` style, so each importing module holds its own binding.  The scipy
bindings ``solve_ivp`` (exact_dynamics) and ``quad`` (geometric_phases) are
wrapped too; a binding that no longer exists is reported as absent.

Each call is a span with a name, start, end and parent.  Spans are folded
into per-(parent, name) totals as they close, which keeps memory flat over
hundreds of thousands of calls: call count, inclusive time, and self time
(duration minus the wrapped children).  Hooks read exact counts from return
values: ``nfev`` of ``solve_ivp``, steps of the fixed-step steppers, and the
size of the files ``write_outputs`` wrote.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

MODULES = ("field_profiles", "exact_dynamics", "adiabatic_engine", "geometric_phases",
           "verification", "cli")
FOREIGN = (("exact_dynamics", "solve_ivp"), ("geometric_phases", "quad"))


def _nfev(result):
    return {"exact_dynamics.rhs_evals": int(result.nfev)}


def _steps(result):
    return {"exact_dynamics.stepper.steps": len(result.times) - 1}


def _bytes_written(paths):
    return {"cli.bytes_written": sum(os.path.getsize(p) for p in paths)}


HOOKS = {
    "exact_dynamics.solve_ivp": _nfev,
    "exact_dynamics.exponential_midpoint_schrodinger": _steps,
    "exact_dynamics.exponential_midpoint_bloch": _steps,
    "cli.write_outputs": _bytes_written,
}


class Tracer:
    """Context manager that traces spinphase while active and restores it after."""

    def __init__(self):
        self.calls = defaultdict(int)  # (parent, name) -> calls
        self.incl = defaultdict(float)  # (parent, name) -> inclusive seconds
        self.self_s = defaultdict(float)  # (parent, name) -> self seconds
        self.counters = defaultdict(int)
        self.absent: list[str] = []
        self.traced: set[str] = set()
        self._stack: list[list] = []  # [name, start, child seconds]
        self._restore: list[tuple] = []

    # -- binding ---------------------------------------------------------
    def _targets(self):
        """(original, qualified name) for every function to wrap."""
        found = {}
        for mod_name in MODULES:
            try:
                mod = importlib.import_module(f"spinphase.{mod_name}")
            except ImportError:
                self.absent.append(f"spinphase.{mod_name}")
                continue
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    found[obj] = f"{mod_name}.{attr}"
        for mod_name, attr in FOREIGN:
            mod = sys.modules.get(f"spinphase.{mod_name}")
            obj = getattr(mod, attr, None)
            if obj is None:
                self.absent.append(f"{mod_name}.{attr}")
            else:
                found[obj] = f"{mod_name}.{attr}"
        return found

    def _wrap(self, fn, name):
        stack, calls, incl, self_s = self._stack, self.calls, self.incl, self.self_s
        hook, counters = HOOKS.get(name), self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                key = (stack[-1][0] if stack else None, name)
                calls[key] += 1
                incl[key] += dur
                self_s[key] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                for counter, value in hook(result).items():
                    counters[counter] += value
            return result

        return traced

    def __enter__(self):
        targets = self._targets()
        self.traced = set(targets.values())
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        modules = [m for name, m in list(sys.modules.items())
                   if name == "spinphase" or name.startswith("spinphase.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = wrappers.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, obj))
        return self

    def __exit__(self, *exc):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()
        return False

    # -- queries ---------------------------------------------------------
    def n_calls(self, name, parent=...):
        return sum(c for (p, n), c in self.calls.items()
                   if n == name and (parent is ... or p == parent))

    def inclusive(self, *names):
        return sum(v for (_, n), v in self.incl.items() if n in names)

    def self_time(self, *names):
        return sum(v for (_, n), v in self.self_s.items() if n in names)

    def module_self_time(self, module):
        return sum(v for (_, n), v in self.self_s.items() if n.split(".")[0] == module)

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly between two traced passes."""
        counts = {f"{n}<-{p}": c for (p, n), c in self.calls.items()}
        counts.update(self.counters)
        return counts

    def function_table(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, inclusive s, self s) per traced function, by self time."""
        names = {n for _, n in self.calls}
        rows = [(n, self.n_calls(n), self.inclusive(n), self.self_time(n)) for n in names]
        return sorted(rows, key=lambda r: -r[3])
