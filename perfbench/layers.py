"""Metric definitions and the layer-to-end-to-end mapping of the benchmark.

The layers are spinphase's modules, plus ``setup`` (interpreter start and
imports) and ``trace`` (the tracer itself).  Every per-layer value comes from
the traced run and is per operation: the total over one traced pass divided
by the operations in it, except the per-call and per-step times and the
set-up and trace figures.  A zero means the workload bypasses that layer.

``moves`` names the end-to-end metric a change to that layer should move and
``on`` the workloads where it should (and, after a semicolon, where it
should stay flat).  In this single-caller process nothing contends, so a
faster layer saves at most its self-time share of an operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# name, unit, better, meaning
END_TO_END = (
    ("setup_s", "s", "lower",
     "fresh interpreter start -> import spinphase -> inputs generated; median over fresh processes"),
    ("first_op_s", "s", "lower",
     "first operation in a fresh process; mean over one process per input of a block"),
    ("ops_per_s", "1/s", "higher",
     "checked operations per second, cycling through the inputs, after the first operation"),
    ("op_p50_s", "s", "lower", "median time of one checked operation"),
    ("peak_rss_mib", "MiB", "lower", "ru_maxrss of the process running the timed passes"),
)

SOLVER = "exact_dynamics.solve_ivp"
QUAD = "geometric_phases.quad"
SAMPLE = "field_profiles.sample"
STEPPERS = ("exact_dynamics.exponential_midpoint_schrodinger",
            "exact_dynamics.exponential_midpoint_bloch")
QUADRATURES = ("geometric_phases.phi0", "geometric_phases.phi2", "geometric_phases.berry_phi1")
INTEGRATORS = ("exact_dynamics.integrate_schrodinger", "exact_dynamics.integrate_bloch")


def _per_call(total_s, calls):
    return 1e6 * total_s / calls if calls else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    what: str
    moves: str
    on: str
    uses: tuple[str, ...] = ()  # traced functions the value is read from
    value: Callable | None = None  # tracer -> total over the pass (or a ratio)
    per_op: bool = True


PER_LAYER = (
    LayerMetric("field_profiles.sample.calls", "count/op", "scalar sample calls",
                "op_p50_s, ops_per_s", "phase_budget, convergence_sweep, simulate_export",
                (SAMPLE,), lambda t: t.n_calls(SAMPLE)),
    LayerMetric("field_profiles.sample.calls_from_solver", "count/op",
                "sample calls whose parent span is solve_ivp", "op_p50_s",
                "phase_budget, simulate_export; an array-sampling change must not slow these",
                (SAMPLE, SOLVER), lambda t: t.n_calls(SAMPLE, parent=SOLVER)),
    LayerMetric("field_profiles.sample.us_per_call", "us/call", "sample self time per call",
                "op_p50_s", "phase_budget (analytic); cyclic_geometry (tabulated twin)",
                (SAMPLE,), lambda t: _per_call(t.self_time(SAMPLE), t.n_calls(SAMPLE)),
                per_op=False),
    LayerMetric("field_profiles.self_s", "s/op",
                "self time of every public field_profiles function", "ops_per_s",
                "cyclic_geometry, convergence_sweep", (),
                lambda t: t.module_self_time("field_profiles")),
    LayerMetric("exact_dynamics.rhs_evals", "count/op", "sum of nfev returned by solve_ivp",
                "op_p50_s", "phase_budget, simulate_export, convergence_sweep; 0 on cyclic_geometry",
                (SOLVER,), lambda t: t.counters["exact_dynamics.rhs_evals"]),
    LayerMetric("exact_dynamics.solver.self_s", "s/op", "solve_ivp time minus wrapped children",
                "op_p50_s", "phase_budget, simulate_export, convergence_sweep",
                (SOLVER,), lambda t: t.self_time(SOLVER)),
    LayerMetric("exact_dynamics.hamiltonian_matrix.self_s", "s/op",
                "building the 2x2 matrix on each spinor right-hand-side call", "op_p50_s",
                "phase_budget, simulate_export", ("exact_dynamics.hamiltonian_matrix",),
                lambda t: t.self_time("exact_dynamics.hamiltonian_matrix")),
    LayerMetric("exact_dynamics.integrations", "count/op",
                "integrate_schrodinger and integrate_bloch calls", "op_p50_s",
                "phase_budget, simulate_export, convergence_sweep", INTEGRATORS,
                lambda t: sum(t.n_calls(n) for n in INTEGRATORS)),
    LayerMetric("exact_dynamics.phase_retries", "count/op",
                "extra integrate_schrodinger calls from grid doubling in schrodinger_phase",
                "op_p50_s", "phase_budget (0 at the seed commit)",
                ("exact_dynamics.schrodinger_phase", INTEGRATORS[0]),
                lambda t: t.n_calls(INTEGRATORS[0], parent="exact_dynamics.schrodinger_phase")
                - t.n_calls("exact_dynamics.schrodinger_phase")),
    LayerMetric("exact_dynamics.extract_total_phase.self_s", "s/op",
                "phase unwrapping, tracked-eigenvector calls excluded", "op_p50_s",
                "phase_budget, simulate_export", ("exact_dynamics.extract_total_phase",),
                lambda t: t.self_time("exact_dynamics.extract_total_phase")),
    LayerMetric("exact_dynamics.stepper.self_s", "s/op",
                "self time of the exponential-midpoint steppers", "ops_per_s",
                "cyclic_geometry only", STEPPERS, lambda t: t.self_time(*STEPPERS)),
    LayerMetric("exact_dynamics.stepper.us_per_step", "us/step",
                "stepper self time per step, field sampling excluded", "ops_per_s",
                "cyclic_geometry only", STEPPERS,
                lambda t: _per_call(t.self_time(*STEPPERS),
                                    t.counters["exact_dynamics.stepper.steps"]),
                per_op=False),
    LayerMetric("exact_dynamics.self_s", "s/op",
                "self time of the module, solve_ivp included", "op_p50_s",
                "all; the solver part is 0 on cyclic_geometry", (),
                lambda t: t.module_self_time("exact_dynamics")),
    LayerMetric("adiabatic_engine.tracked_eigenvector.calls", "count/op",
                "one call per grid node during phase extraction", "op_p50_s",
                "phase_budget, simulate_export", ("adiabatic_engine.tracked_eigenvector",),
                lambda t: t.n_calls("adiabatic_engine.tracked_eigenvector")),
    LayerMetric("adiabatic_engine.tracked_eigenvector.us_per_call", "us/call",
                "inclusive time per tracked_eigenvector call", "op_p50_s",
                "phase_budget, simulate_export", ("adiabatic_engine.tracked_eigenvector",),
                lambda t: _per_call(t.inclusive("adiabatic_engine.tracked_eigenvector"),
                                    t.n_calls("adiabatic_engine.tracked_eigenvector")),
                per_op=False),
    LayerMetric("adiabatic_engine.quasi_stationary.calls", "count/op",
                "one call per node in run_convergence", "ops_per_s", "convergence_sweep only",
                ("adiabatic_engine.quasi_stationary",),
                lambda t: t.n_calls("adiabatic_engine.quasi_stationary")),
    LayerMetric("adiabatic_engine.quasi_stationary.us_per_call", "us/call",
                "inclusive time per quasi_stationary call", "ops_per_s", "convergence_sweep only",
                ("adiabatic_engine.quasi_stationary",),
                lambda t: _per_call(t.inclusive("adiabatic_engine.quasi_stationary"),
                                    t.n_calls("adiabatic_engine.quasi_stationary")),
                per_op=False),
    LayerMetric("adiabatic_engine.self_s", "s/op", "self time of the module", "op_p50_s",
                "phase_budget, convergence_sweep", (),
                lambda t: t.module_self_time("adiabatic_engine")),
    LayerMetric("geometric_phases.quad.integrand_evals", "count/op", "sample calls under quad",
                "op_p50_s", "phase_budget; berry_phi1 in cyclic_geometry", (SAMPLE, QUAD),
                lambda t: t.n_calls(SAMPLE, parent=QUAD)),
    LayerMetric("geometric_phases.quadrature_s", "s/op",
                "inclusive time of phi0, phi2 and berry_phi1", "op_p50_s",
                "phase_budget; berry_phi1 in cyclic_geometry", QUADRATURES,
                lambda t: t.inclusive(*QUADRATURES)),
    LayerMetric("geometric_phases.phi_dyn_expect.self_s", "s/op",
                "expectation-value dynamical phase", "op_p50_s", "phase_budget",
                ("geometric_phases.phi_dyn_expect",),
                lambda t: t.self_time("geometric_phases.phi_dyn_expect")),
    LayerMetric("geometric_phases.aa_phase.self_s", "s/op", "both Aharonov-Anandan routes",
                "ops_per_s", "cyclic_geometry",
                ("geometric_phases.aa_geometric_phase_coordinate",
                 "geometric_phases.aa_geometric_phase_solid_angle"),
                lambda t: t.self_time("geometric_phases.aa_geometric_phase_coordinate",
                                      "geometric_phases.aa_geometric_phase_solid_angle")),
    LayerMetric("geometric_phases.loop_from_profile.self_s", "s/op", "loop sampling",
                "ops_per_s", "cyclic_geometry", ("geometric_phases.loop_from_profile",),
                lambda t: t.self_time("geometric_phases.loop_from_profile")),
    LayerMetric("geometric_phases.stokes_surface_integral.self_s", "s/op",
                "enclosed area with the edge-crossing test", "ops_per_s", "cyclic_geometry",
                ("geometric_phases.stokes_surface_integral",),
                lambda t: t.self_time("geometric_phases.stokes_surface_integral")),
    LayerMetric("geometric_phases.self_s", "s/op", "self time of the module, quad included",
                "ops_per_s", "cyclic_geometry, phase_budget", (),
                lambda t: t.module_self_time("geometric_phases")),
    LayerMetric("verification.check_horizon.self_s", "s/op", "horizon probe", "ops_per_s",
                "convergence_sweep, phase_budget", ("verification.check_horizon",),
                lambda t: t.self_time("verification.check_horizon")),
    LayerMetric("verification.self_s", "s/op",
                "runner self time (the node loop in run_convergence)", "ops_per_s",
                "convergence_sweep, phase_budget", (),
                lambda t: t.module_self_time("verification")),
    LayerMetric("cli.main.self_s", "s/op", "command body: row rendering, trapezoid series",
                "op_p50_s", "simulate_export only", ("cli.main",),
                lambda t: t.self_time("cli.main")),
    LayerMetric("cli.parse_cli.self_s", "s/op", "argument parsing", "op_p50_s",
                "simulate_export only", ("cli.parse_cli",), lambda t: t.self_time("cli.parse_cli")),
    LayerMetric("cli.write_outputs.self_s", "s/op", "file writing", "op_p50_s",
                "simulate_export only", ("cli.write_outputs",),
                lambda t: t.self_time("cli.write_outputs")),
    LayerMetric("cli.bytes_written", "B/op", "bytes of the files write_outputs wrote",
                "op_p50_s", "simulate_export only", ("cli.write_outputs",),
                lambda t: t.counters["cli.bytes_written"]),
    LayerMetric("setup.import_numpy_s", "s", "numpy import, cumulative, python -X importtime",
                "setup_s", "all"),
    LayerMetric("setup.import_scipy_s", "s", "every scipy import made by import spinphase",
                "setup_s; a lazy import that lowers it must be checked against first_op_s",
                "all"),
    LayerMetric("setup.import_scipy_integrate_s", "s", "scipy.integrate import, cumulative",
                "setup_s, first_op_s", "all"),
    LayerMetric("setup.import_scipy_interpolate_s", "s",
                "scipy.interpolate import, cumulative, made after import spinphase "
                "(user_tabulated imports it lazily)",
                "setup_s, first_op_s", "all"),
    LayerMetric("setup.import_spinphase_s", "s", "self time of spinphase's own modules",
                "setup_s", "all"),
    LayerMetric("setup.inputs_s", "s", "input generation and preparation in the traced process",
                "setup_s", "all"),
    LayerMetric("trace.overhead_ratio", "ratio", "traced pass wall time / untraced pass wall time",
                "n/a (reported)", "all"),
)
