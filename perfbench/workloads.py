"""Seeded inputs, operations and oracle checks of the spinphase benchmark.

Inputs are plain data generated from the workload seed with the stdlib
``random`` module, so a seed gives the same inputs on every machine.  They
come in blocks, each stratified over the workload's parameter ranges (one
draw from each of n equal slices of every range, slices shuffled
independently), so the work in one block, and in one pass over all blocks,
barely depends on the seed while the inputs themselves do.

Every numeric setting an operation depends on (tolerances, grid and node
counts, step counts, the epsilon list) is part of the generated input and is
passed to spinphase explicitly, so a change to a library default cannot
change the work being measured.

Operations look up spinphase functions through their module at call time
(``verification.run_phase_budget``, not a local alias), so the tracer's
rebinding of module attributes is seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import traceback

import numpy as np

import spinphase
from spinphase import cli, exact_dynamics, field_profiles, geometric_phases, verification
from spinphase.errors import SpinPhaseError

WORKLOADS = ("phase_budget", "convergence_sweep", "cyclic_geometry", "simulate_export")

# (blocks, inputs per block) per workload.  The timed process cycles through
# all inputs; each input of the first block starts one fresh process.
SIZES = {
    "full": {"phase_budget": (2, 8), "convergence_sweep": (1, 4), "cyclic_geometry": (1, 4),
             "simulate_export": (1, 4)},
    "tiny": {"phase_budget": (1, 2), "convergence_sweep": (1, 1), "cyclic_geometry": (1, 1),
             "simulate_export": (1, 1)},
}

REL_TOL = 1e-11
ABS_TOL = 1e-13
PERTURBATIVE_LIMIT = 0.5  # spinphase.adiabatic_engine.PERTURBATIVE_LIMIT
HORIZON_SHARE = 0.1  # spans must stay within HORIZON_SHARE * t2
SIMULATE_HEADER = "t,Bx,By,Bz,Sx,Sy,Sz,re_up,im_up,re_dn,im_dn,phase_total,phi0,phi2"


class InputOutOfRange(Exception):
    """A generated input would violate a guard of the program."""


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def _grid_n(b_max: float, span: float) -> int:
    """Node count spinphase's default grid would choose (16 per radian of B)."""
    return max(257, int(math.ceil(span * 16.0 * b_max)) + 1)


def _check_guards(b_min: float, rate: float, accel: float, span: float):
    """Reject an input whose span or slowness breaks the program's guards.

    rate bounds |theta_dot| and accel bounds |theta_ddot|; B is constant or
    bounded below by b_min.  The horizon guard is span <= 0.1 * t2 with
    t2 = B**3 / rate**4; the perturbative guard is |delta|, |gamma| < 0.5.
    """
    if rate > 0.0 and span > HORIZON_SHARE * b_min**3 / rate**4:
        raise InputOutOfRange(f"span {span} beyond {HORIZON_SHARE}*t2")
    delta, gamma = rate / b_min, accel / b_min**2
    if max(delta, gamma) >= PERTURBATIVE_LIMIT:
        raise InputOutOfRange(f"delta={delta}, gamma={gamma} outside the perturbative guard")


def _phase_budget_inputs(rng, n):
    n_uni, n_sin = (n + 1) // 2, n // 2
    uni = zip(_strata(rng, 0.8, 1.2, n_uni), _strata(rng, 0.04, 0.10, n_uni),
              _strata(rng, 100.0, 200.0, n_uni))
    sin = zip(_strata(rng, 0.8, 1.2, n_sin), _strata(rng, 0.2, 0.4, n_sin),
              _strata(rng, 0.03, 0.06, n_sin))
    uni_items, sin_items = [], []
    for b0, omega, t_end in uni:
        _check_guards(b0, omega, 0.0, t_end)
        uni_items.append({"kind": "uniform_rotation", "B0": b0, "omega": omega,
                          "t_end": t_end, "grid_n": _grid_n(b0, t_end)})
    for b0, theta0, big_omega in sin:
        period = 2.0 * math.pi / big_omega
        _check_guards(b0, theta0 * big_omega, theta0 * big_omega**2, period)
        sin_items.append({"kind": "sinusoidal_angle", "B0": b0, "theta0": theta0,
                          "Omega": big_omega, "t_end": period, "grid_n": _grid_n(b0, period)})
    # alternate the two kinds so every prefix of a pass mixes them evenly
    items = [x for pair in zip(uni_items, sin_items) for x in pair] + uni_items[n_sin:]
    for item in items:
        item.update(rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return items


def _convergence_inputs(rng, n):
    eps_list = [0.16, 0.08, 0.04, 0.02]
    horizon = 2.0 * math.pi
    items = []
    for theta0, big_omega, b0 in zip(_strata(rng, 0.2, 0.4, n), _strata(rng, 0.8, 1.2, n),
                                     _strata(rng, 0.9, 1.1, n)):
        for eps in eps_list:
            rate = theta0 * big_omega * eps
            _check_guards(b0, rate, rate * big_omega * eps, horizon / eps)
        items.append({"theta0": theta0, "Omega": big_omega, "B0": b0, "eps_list": eps_list,
                      "horizon": horizon, "n_nodes": 1201,
                      "rel_tol": REL_TOL, "abs_tol": ABS_TOL})
    return items


def _cyclic_inputs(rng, n):
    items = []
    for theta_c, omega_phi, theta0, big_omega in zip(
        _strata(rng, 0.6, 1.2, n), _strata(rng, 0.03, 0.07, n),
        _strata(rng, 0.2, 0.4, n), _strata(rng, 0.03, 0.06, n),
    ):
        # the cone moves only in azimuth (theta_dot = 0); the loop profile is in-plane
        _check_guards(1.0, theta0 * big_omega, theta0 * big_omega**2, 2.0 * math.pi / big_omega)
        items.append({
            "cone": {"B0": 1.0, "theta_c": theta_c, "omega_phi": omega_phi},
            "n_steps": 20000,
            "loop": {"B0": 1.0, "theta0": theta0, "Omega": big_omega},
            "n_nodes": 801,
            # tabulated twin: uniform table, n_table nodes per period plus pad
            # nodes on each side so the spline is periodic to roundoff inside
            "table": {"n_table": 400, "pad": 32, "fd_step": 1e-4},
        })
    return items


def _simulate_inputs(rng, n):
    t_end = 200.0
    items = []
    for b0, omega in zip(_strata(rng, 0.8, 1.2, n), _strata(rng, 0.05, 0.10, n)):
        _check_guards(b0, omega, 0.0, t_end)
        items.append({"B0": b0, "omega": omega, "t_start": 0.0, "t_end": t_end,
                      "grid_n": _grid_n(b0, t_end), "rel_tol": REL_TOL, "abs_tol": ABS_TOL})
    return items


_GENERATORS = {
    "phase_budget": _phase_budget_inputs,
    "convergence_sweep": _convergence_inputs,
    "cyclic_geometry": _cyclic_inputs,
    "simulate_export": _simulate_inputs,
}


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    """Plain-data inputs of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    blocks, per_block = SIZES[size][workload]
    return [item for _ in range(blocks) for item in _GENERATORS[workload](rng, per_block)]


def inputs_hash(items: list[dict]) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Operations.  Each prepare() turns plain inputs into program arguments (the
# set-up side); each op runs one unit of user-visible work and returns the
# list of failed checks, empty when every oracle holds.
# ---------------------------------------------------------------------------

def _cfg(item, grid):
    return exact_dynamics.IntegratorConfig(
        rel_tol=item["rel_tol"], abs_tol=item["abs_tol"], max_step=math.inf,
        dense_output_grid=grid, method="DOP853",
    )


def _within(name, got, want, tol):
    err = abs(got - want)
    return [] if err <= tol else [f"{name}: |{got!r} - {want!r}| = {err:.3g} > {tol:g}"]


def _prepare_phase_budget(item, _workdir):
    if item["kind"] == "uniform_rotation":
        profile = field_profiles.uniform_rotation(item["B0"], item["omega"], theta_init=0.0)
    else:
        profile = field_profiles.sinusoidal_angle(item["B0"], theta0=item["theta0"],
                                                  Omega=item["Omega"])
    t_span = (0.0, item["t_end"])
    return {"item": item, "profile": profile, "t_span": t_span,
            "cfg": _cfg(item, np.linspace(0.0, item["t_end"], item["grid_n"]))}


def _op_phase_budget(arg):
    item = arg["item"]
    budget = verification.run_phase_budget(arg["profile"], arg["t_span"], arg["cfg"])
    if item["kind"] == "uniform_rotation":
        exact = -0.5 * math.hypot(item["B0"], item["omega"]) * item["t_end"]
        return _within("phi_total_exact", budget.decomposition.phi_total_exact, exact, 1e-5)
    return _within("r_total", budget.r_total, 0.0, 1e-4)


def _prepare_convergence(item, _workdir):
    return {"item": item,
            "family": verification.sinusoidal_family(theta0=item["theta0"],
                                                     Omega=item["Omega"], B0=item["B0"]),
            "cfg": _cfg(item, None)}


def _op_convergence(arg):
    item = arg["item"]
    report = verification.run_convergence(arg["family"], item["eps_list"], item["horizon"],
                                          arg["cfg"], n_nodes=item["n_nodes"])
    fails = []
    for order, ((slope, _), tol) in enumerate(zip(report.slopes, (0.2, 0.2, 0.3))):
        fails += _within(f"order-{order} slope", slope, order + 1.0, tol)
    return fails


def _prepare_cyclic(item, _workdir):
    cone = item["cone"]
    profile = field_profiles.cone_3d(cone["B0"], theta_c=cone["theta_c"],
                                     omega_phi=cone["omega_phi"], phi_init=0.0)
    # exact rotating-frame eigenstate: spin up along B(0) - omega_phi * z
    chi = math.atan2(cone["B0"] * math.sin(cone["theta_c"]),
                     cone["B0"] * math.cos(cone["theta_c"]) - cone["omega_phi"])
    psi0 = np.array([math.cos(0.5 * chi), math.sin(0.5 * chi)], dtype=complex)

    lp, tab = item["loop"], item["table"]
    loop_profile = field_profiles.sinusoidal_angle(lp["B0"], theta0=lp["theta0"],
                                                   Omega=lp["Omega"])
    loop_period = 2.0 * math.pi / lp["Omega"]
    taus = np.arange(-tab["pad"], tab["n_table"] + tab["pad"] + 1) * (loop_period / tab["n_table"])
    twin = field_profiles.user_tabulated(
        taus, np.full_like(taus, lp["B0"]), lp["theta0"] * np.sin(lp["Omega"] * taus),
        fd_step=tab["fd_step"],
    )
    return {"item": item, "cone": profile, "psi0": psi0, "chi": chi,
            "cone_period": 2.0 * math.pi / cone["omega_phi"],
            "loops": (("analytic", loop_profile), ("tabulated", twin)),
            "loop_period": loop_period}


def _op_cyclic(arg):
    item = arg["item"]
    cone, lp = item["cone"], item["loop"]
    period, chi = arg["cone_period"], arg["chi"]
    fails = []
    # (a) fixed-step stepper over one cone period
    traj = exact_dynamics.exponential_midpoint_schrodinger(
        arg["cone"], arg["psi0"], (0.0, period), item["n_steps"])
    end_phase = float(np.angle(np.vdot(arg["psi0"], traj.states[-1])))
    omega_rot = math.sqrt(cone["B0"]**2 - 2.0 * cone["B0"] * cone["omega_phi"]
                          * math.cos(cone["theta_c"]) + cone["omega_phi"]**2)
    wrapped = (end_phase - (math.pi - 0.5 * omega_rot * period) + math.pi) % (2.0 * math.pi)
    fails += _within("end phase (mod 2pi)", wrapped - math.pi, 0.0, 1e-6)
    # (b) both Aharonov-Anandan routes and the first-order Berry phase
    aa_c = geometric_phases.aa_geometric_phase_coordinate(traj)
    aa_s = geometric_phases.aa_geometric_phase_solid_angle(traj, refine=True)
    aa_exact = -math.pi * (1.0 - math.cos(chi))
    fails += _within("AA coordinate - solid angle", aa_c - aa_s, 0.0, 1e-6)
    fails += _within("AA coordinate", aa_c, aa_exact, 1e-5)
    fails += _within("AA solid angle", aa_s, aa_exact, 1e-5)
    phi1 = geometric_phases.berry_phi1(arg["cone"], (0.0, period))
    fails += _within("berry_phi1", phi1, math.pi * (1.0 - math.cos(cone["theta_c"])), 1e-9)
    # (c) holonomy identity on forward and reversed loops, analytic and tabulated
    holonomy = -math.pi * lp["theta0"]**2 * lp["Omega"] / 4.0
    span = (0.0, arg["loop_period"])
    for name, profile in arg["loops"]:
        loops = [(f"{name}_forward", geometric_phases.loop_from_profile(
                     profile, span, item["n_nodes"], reverse=False)),
                 (f"{name}_reversed", geometric_phases.loop_from_profile(
                     profile, span, item["n_nodes"], reverse=True))]
        fwd, rev = verification.run_stokes_check(loops, [lp["B0"]])
        for row, want in ((fwd, holonomy), (rev, -holonomy)):
            fails += _within(f"{row.loop_id} line", row.line_integral, want, 1e-6)
            fails += _within(f"{row.loop_id} surface", row.surface_integral, want, 1e-6)
        fails += _within(f"{name} line reversal", fwd.line_integral + rev.line_integral, 0.0, 1e-15)
        fails += _within(f"{name} surface reversal",
                         fwd.surface_integral + rev.surface_integral, 0.0, 1e-15)
    return fails


def _prepare_simulate(item, workdir):
    out = os.path.join(workdir, "simulate")
    argv = ["simulate", "--profile", "uniform_rotation",
            "--B0", repr(item["B0"]), "--omega", repr(item["omega"]), "--theta-init", "0",
            "--epsilon", "1", "--t-start", repr(item["t_start"]), "--t-end", repr(item["t_end"]),
            "--grid-n", str(item["grid_n"]), "--rel-tol", repr(item["rel_tol"]),
            "--abs-tol", repr(item["abs_tol"]), "--max-step", "inf",
            "--out", out, "--formats", "csv,json"]
    return {"item": item, "argv": argv, "out": out, "csv_digest": None}


def _op_simulate(arg):
    item = arg["item"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(arg["argv"])
    if code != 0:
        return [f"exit code {code}"]
    with open(os.path.join(arg["out"], "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(os.path.join(arg["out"], "traj.csv"), "rb") as fh:
        csv_bytes = fh.read()
    exact = -0.5 * math.hypot(item["B0"], item["omega"]) * item["t_end"]
    fails = _within("phase_total_end", summary["phase_total_end"], exact, 1e-5)
    lines = csv_bytes.decode().splitlines()
    if lines[0] != SIMULATE_HEADER:
        fails.append(f"traj.csv header {lines[0]!r}")
    if len(lines) - 1 != item["grid_n"]:
        fails.append(f"traj.csv has {len(lines) - 1} rows, expected {item['grid_n']}")
    digest = hashlib.sha256(csv_bytes).hexdigest()
    if arg["csv_digest"] is None:
        arg["csv_digest"] = digest
    elif digest != arg["csv_digest"]:
        fails.append("traj.csv differs from the previous run of the same input")
    return fails


OPS = {
    "phase_budget": (_prepare_phase_budget, _op_phase_budget),
    "convergence_sweep": (_prepare_convergence, _op_convergence),
    "cyclic_geometry": (_prepare_cyclic, _op_cyclic),
    "simulate_export": (_prepare_simulate, _op_simulate),
}


def prepare(workload: str, items: list[dict], workdir: str) -> list[dict]:
    """Build the program arguments of every input (profiles, grids, argv)."""
    prep = OPS[workload][0]
    return [prep(item, workdir) for item in items]


def run_op(workload: str, arg: dict) -> list[str]:
    """Run one checked operation; a raised error is a failed check, not a crash."""
    try:
        return OPS[workload][1](arg)
    except SpinPhaseError as exc:
        return [f"{type(exc).__name__}: {exc}"]
    except Exception as exc:  # any other escape is a program defect; record and go on
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return [f"unexpected {type(exc).__name__} at {where.filename}:{where.lineno}: {exc}"]


def spinphase_location() -> str:
    return os.path.dirname(os.path.abspath(spinphase.__file__))
