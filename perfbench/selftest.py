"""Self-test of the benchmark itself; checks no timing.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json, the metric table in ``layers.py`` and the
printed results agree on metric names and units; that every workload runs at
the tiny size with and without tracing and passes its checks; that the
inputs are a pure function of the seed and stay inside the program's
guards; and that each workload's correctness gate rejects a wrong answer and
a raised SpinPhaseError.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from spinphase import cli, geometric_phases, verification  # noqa: E402
from spinphase.errors import ConfigError  # noqa: E402

END_KEYS = {"name", "unit", "better", "bound"}
LAYER_KEYS = {"name", "unit", "better"}


def check_definitions(bench: dict):
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    ends = bench["end_to_end"]
    assert all(set(m) == END_KEYS for m in ends)
    assert [(m["name"], m["unit"], m["better"]) for m in ends] == \
        [row[:3] for row in layers.END_TO_END]
    assert all(0 < m["bound"] <= 0.25 for m in ends)
    setup = next(m for m in ends if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in ends)
    per = bench["per_layer"]
    assert all(set(m) == LAYER_KEYS for m in per)
    assert [(m["name"], m["unit"]) for m in per] == [(m.name, m.unit) for m in layers.PER_LAYER]
    # the mapping: every layer metric names what it should move and where
    e2e = {m["name"] for m in ends} | {"n/a (reported)"}
    for m in layers.PER_LAYER:
        assert m.what and m.on, m.name
        moved = {part.split(";")[0].strip() for part in m.moves.split(",")}
        assert moved <= e2e, (m.name, moved - e2e)
        assert m.name.split(".")[0] in tracer.MODULES + ("setup", "trace"), m.name


def run_bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_run(bench: dict, workload: str, trace: int):
    lines, result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, lines
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in wanted]
    for m in wanted:  # every metric is printed by name with its unit
        assert any(ln.split()[:1] == [m["name"]] and ln.endswith(" " + m["unit"])
                   for ln in lines), m["name"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values()), values
    assert any(ln.startswith("inputs: ") and "sha256=" in ln for ln in lines)
    assert any(ln.startswith("machine: ") and "nproc=" in ln for ln in lines)


def check_inputs():
    for w in workloads.WORKLOADS:
        for size in workloads.SIZES:
            a, b = workloads.generate(w, 3, size), workloads.generate(w, 3, size)
            assert a == b and workloads.inputs_hash(a) == workloads.inputs_hash(b)
            blocks, per_block = workloads.SIZES[size][w]
            assert len(a) == blocks * per_block
        assert workloads.inputs_hash(workloads.generate(w, 3)) != \
            workloads.inputs_hash(workloads.generate(w, 4))
    for args in ((1.0, 0.6, 0.0, 10.0), (1.0, 0.1, 0.0, 1e4), (1.0, 0.1, 0.6, 10.0)):
        with contextlib.suppress(workloads.InputOutOfRange):
            workloads._check_guards(*args)
            raise AssertionError(f"guard accepted {args}")


@contextlib.contextmanager
def patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _shift_budget(fn):
    def wrong(*a, **kw):
        b = fn(*a, **kw)
        dec = dataclasses.replace(b.decomposition,
                                  phi_total_exact=b.decomposition.phi_total_exact + 1e-3)
        return dataclasses.replace(b, decomposition=dec, r_total=b.r_total + 1e-3)
    return wrong


def _flatten_slopes(fn):
    def wrong(*a, **kw):
        return dataclasses.replace(fn(*a, **kw), slopes=[(1.0, 0.0)] * 3)
    return wrong


def _shift(fn):
    return lambda *a, **kw: fn(*a, **kw) + 1e-6


def _raise(_fn):
    def broken(*_a, **_kw):
        raise ConfigError("injected")
    return broken


def _exit_code(_fn):
    return lambda *_a, **_kw: 5


GATES = {
    "phase_budget": (verification, "run_phase_budget", _shift_budget),
    "convergence_sweep": (verification, "run_convergence", _flatten_slopes),
    "cyclic_geometry": (geometric_phases, "berry_phi1", _shift),
    "simulate_export": (cli, "main", _exit_code),
}


def check_gates():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_work-selftest-") as workdir:
        for w, (module, name, wrong) in GATES.items():
            arg = workloads.prepare(w, workloads.generate(w, 5, "tiny"), workdir)[0]
            with patched(module, name, wrong):
                assert workloads.run_op(w, arg), f"{w}: wrong answer passed the gate"
            with patched(module, name, _raise):
                fails = workloads.run_op(w, arg)
                assert fails and fails[0].startswith("ConfigError"), fails


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_definitions(bench)
    check_inputs()
    check_gates()
    for w in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(bench, w, trace)
            print(f"ok {w} trace={trace}", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
