"""Command-line front end: profile configs in, CSV/JSON/gnuplot artifacts out.

Commands
--------
simulate     integrate one run and dump the full trajectory table
phases       phase budget for a quasi-stationary run (prints the 2x diagnostic)
convergence  truncation-order study over a list of adiabaticity scales
stokes       line-vs-surface holonomy table for parameter-plane loops
timescale    first breakdown time of the second-order phase

Exit codes: 0 success, 2 usage, 3 config, 4 I/O, 5 numerical failure.
Numbers are serialized with 17 significant digits; CSV is the machine
interface, the gnuplot script the human one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from . import verification
from .errors import ConfigError, IoError, SpinPhaseError
from .exact_dynamics import (
    MAX_GRID_NODES,
    IntegratorConfig,
    _csv,
    bloch_series,
    bloch_to_spinor,
    extract_total_phase,
    integrate_schrodinger,
)
from .field_profiles import (
    FieldProfile,
    _finite,
    is_in_plane,
    profile_from_dict,
    profile_to_dict,
    sample,
)
from . import field_profiles
from .adiabatic_engine import tracked_eigenvector
from .geometric_phases import loop_from_profile, phase_series

OUT_DIR_ENV = "SPINPHASE_OUT_DIR"
_KIND_ALIASES = {
    "sinusoidal": "sinusoidal_angle",
    "polynomial": "polynomial_angle",
    "cone": "cone_3d",
}
# Profile params that field_profiles.KIND_PARAMS does not default; given params replace them
# key by key, except that given coefficients replace the default c0, c1.
_PROFILE_DEFAULTS = {
    "constant": {"B0": 1.0},
    "uniform_rotation": {"B0": 1.0, "omega": 0.1},
    "polynomial_angle": {"B0": 1.0, "c0": 0.0, "c1": 0.1},
    "sinusoidal_angle": {"B0": 1.0, "theta0": 0.3, "Omega": 0.05},
    "cone_3d": {"B0": 1.0, "theta_c": math.pi / 3, "omega_phi": 0.05},
}
_REQUIRED, _OPTIONAL = object(), object()
_EXTENSIONS = {"csv": ".csv", "json": ".json", "gnuplot": ".gp"}  # output file of each format
FORMATS = tuple(_EXTENSIONS)


class _Param(NamedTuple):
    """A command param.  ``least`` is the least value of an int count (capped at
    MAX_GRID_NODES) or the least length of a list."""

    flag: str
    type: Callable
    default: object  # or _REQUIRED, or _OPTIONAL (left out unless given)
    least: int | None = None
    help: str | None = None


class _Command(NamedTuple):
    """A subcommand.  ``profile`` is True when it builds one from the profile flags.
    ``flags`` are its rows other than params.  ``body`` returns its files, keyed by file
    name, and its stdout lines."""

    help: str
    body: Callable
    profile: bool
    flags: list
    params: dict

    def all_flags(self) -> list:
        return self.flags + [(p.flag, f"params.{name}", p.type, p.help)
                             for name, p in self.params.items()]

    @property
    def integrates(self) -> bool:
        """True when the command takes the integrator flags, and with them the config key."""
        return any(dest.startswith("integrator.") for _, dest, *_ in self.flags)


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one CLI run; JSON round-trippable."""

    command: str
    profile: FieldProfile | None
    integrator: IntegratorConfig
    output_dir: str
    formats: tuple[str, ...]
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "command": self.command,
            "output_dir": self.output_dir,
            "formats": list(self.formats),
            "params": dict(self.params),
        }
        if _COMMANDS[self.command].integrates:
            d["integrator"] = {"rel_tol": self.integrator.rel_tol,
                               "abs_tol": self.integrator.abs_tol}
            if math.isfinite(self.integrator.max_step):
                d["integrator"]["max_step"] = self.integrator.max_step
        if self.profile is not None:
            d["profile"] = profile_to_dict(self.profile)
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """Validate a run description, from a config file or from flags.

        Fills the param defaults of the command's ``_COMMANDS`` entry and the
        profile defaults of ``_PROFILE_DEFAULTS``; any invalid, unknown or
        non-finite value, and an ``integrator`` key for a command without the
        integrator flags, raises :class:`ConfigError`.
        """
        try:
            command = d["command"]
        except (KeyError, TypeError):
            raise ConfigError("run config must name a command") from None
        if not isinstance(command, str) or command not in _COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        unknown = [k for k in d if k not in [f.name for f in fields(RunConfig)]]
        if unknown:
            raise ConfigError(f"unknown run config key {unknown[0]!r}")
        if "integrator" in d and not _COMMANDS[command].integrates:
            raise ConfigError(f"{command} takes no run config key 'integrator'")
        integ = d.get("integrator", {})
        if not isinstance(integ, dict) or not set(integ) <= {"rel_tol", "abs_tol", "max_step"}:
            raise ConfigError(f"integrator takes rel_tol, abs_tol, max_step; got {integ!r}")
        formats = d.get("formats", ["csv", "json"])
        if not isinstance(formats, (list, tuple)):
            raise ConfigError(f"formats must be a list, got {formats!r}")
        for f in formats:
            if f not in FORMATS:
                raise ConfigError(f"unknown output format {f!r}")
        return RunConfig(
            command=command,
            profile=_profile(command, d.get("profile")),
            integrator=IntegratorConfig(**integ),
            output_dir=str(d.get("output_dir", _default_out_dir())),
            formats=tuple(formats),
            params=_params(command, d.get("params", {})),
        )


def _default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV, ".")


def _profile(command: str, d) -> FieldProfile | None:
    if not _COMMANDS[command].profile:
        if d is not None:
            raise ConfigError(f"{command} has no profile; got profile {d!r}")
        return None
    d = {} if d is None else d
    if not isinstance(d, dict) or not isinstance(d.get("params", {}), dict):
        raise ConfigError(f"profile must be an object with a params object, got {d!r}")
    kind = str(d.get("kind", "uniform_rotation"))
    kind = _KIND_ALIASES.get(kind, kind)
    params = d.get("params", {})
    defaults = _PROFILE_DEFAULTS.get(kind, {})
    if kind == "polynomial_angle" and any(k != "B0" for k in params):
        defaults = {"B0": defaults["B0"]}
    return profile_from_dict({**d, "kind": kind, "params": {**defaults, **params}})


def _params(command: str, given) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"params must be an object, got {given!r}")
    table = _COMMANDS[command].params
    unknown = [k for k in given if k not in table]
    if unknown:
        raise ConfigError(f"{command} takes no param {unknown[0]!r}")
    params = {}
    for name, spec in table.items():
        value = given.get(name, spec.default)
        if value is _REQUIRED:
            raise ConfigError(f"{command} requires {name}")
        if value is _OPTIONAL:
            continue
        if spec.type is int:
            if (isinstance(value, bool) or not isinstance(value, int)
                    or not spec.least <= value <= MAX_GRID_NODES):
                raise ConfigError(f"{name} must be an integer in [{spec.least}, "
                                  f"{MAX_GRID_NODES}], got {value!r}")
        elif spec.type is _floats:
            if not isinstance(value, list) or len(value) < spec.least:
                raise ConfigError(f"{name} needs at least {spec.least} values, got {value!r}")
            value = [_finite(name, v) for v in value]
        else:
            value = _finite(name, value)
        params[name] = value
    # each run integrates or samples over a span that must not be empty
    if ("t_end" in params and params["t_end"] == params["t_start"]
            or params.get("horizon") == 0.0 or command == "stokes" and params["Omega"] == 0.0):
        raise ConfigError(f"{command} needs a non-empty time span")
    return params


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from None


def _coeffs(text: str) -> dict:
    return {f"c{k}": c for k, c in enumerate(_floats(text))}


# (flag, run-config key path, type, help); each flag sets one key of the
# dict that RunConfig.from_dict reads.
_COMMON_FLAGS = [
    ("--config", "config", str, "JSON run configuration file"),
    ("--out", "output_dir", str, "output directory"),
    ("--formats", "formats", lambda s: [f for f in s.split(",") if f],
     "comma list from csv,json,gnuplot ('' for none)"),
]
_INTEGRATOR_FLAGS = [
    ("--rel-tol", "integrator.rel_tol", float, None),
    ("--abs-tol", "integrator.abs_tol", float, None),
    ("--max-step", "integrator.max_step", float, None),
]
# flags of the commands that build a profile
_PROFILE_RUN_FLAGS = [
    ("--profile", "profile.kind", str, "field profile kind"),
    ("--B0", "profile.params.B0", float, None),
    ("--omega", "profile.params.omega", float, "rotation rate (uniform_rotation)"),
    ("--theta0", "profile.params.theta0", float, "angle amplitude (sinusoidal), angle (constant)"),
    ("--Omega", "profile.params.Omega", float, "angle frequency (sinusoidal)"),
    ("--theta-init", "profile.params.theta_init", float, "initial angle (uniform_rotation)"),
    ("--theta-c", "profile.params.theta_c", float, "cone polar angle"),
    ("--omega-phi", "profile.params.omega_phi", float, "cone azimuth rate"),
    ("--coeffs", "profile.params", _coeffs, "polynomial angle coefficients c0,c1,..."),
    ("--epsilon", "profile.epsilon", float, "adiabaticity scale"),
]


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix of a flag is an unknown flag, never the flag itself
    p = argparse.ArgumentParser(
        prog="spinphase",
        description="Spin-1/2 evolution in a slowly varying magnetic field: "
        "solutions, phase corrections, and verification runs.",
        allow_abbrev=False,
    )
    subs = p.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        # only the flags actually given reach the namespace
        sub = subs.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS,
                              allow_abbrev=False)
        for flag, dest, type_, help_ in _COMMON_FLAGS + command.all_flags():
            sub.add_argument(flag, dest=dest, metavar=dest, type=type_, help=help_)
    return p


def parse_cli(argv) -> RunConfig:
    """Turn an argv list into a validated RunConfig (usage errors exit 2).

    The given flags become the keys of a run-config dict, so flags and a
    ``--config`` file both go through :meth:`RunConfig.from_dict`.  Next to
    ``--config`` only ``--out`` and ``--formats`` may be given; they
    override the file.
    """
    given = vars(_build_parser().parse_args(argv))
    command = given.pop("command")
    config = given.pop("config", None)
    d = {"command": command}
    if config is not None:
        extra = [flag for flag, dest, *_ in _COMMANDS[command].all_flags() if dest in given]
        if extra:
            raise ConfigError(f"{extra[0]} cannot be combined with --config")
        d = _read_config(config, command)
    for dest, value in given.items():
        *path, key = dest.split(".")
        node = d
        for part in path:
            node = node.setdefault(part, {})
        if isinstance(value, dict):  # --coeffs adds c0, c1, ... to the profile params
            node.setdefault(key, {}).update(value)
        else:
            node[key] = value
    return RunConfig.from_dict(d)


def _read_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(d, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    d.setdefault("command", command)
    if d["command"] != command:
        raise ConfigError(f"config file is for {d['command']!r} but {command!r} was invoked")
    return d


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _cmd_simulate(rc: RunConfig) -> tuple[dict, list[str]]:
    profile = rc.profile
    t_span = (rc.params["t_start"], rc.params["t_end"])
    cfg = rc.integrator
    if "grid_n" in rc.params:
        cfg = replace(cfg, dense_output_grid=np.linspace(t_span[0], t_span[1], rc.params["grid_n"]))
    in_plane = is_in_plane(profile)
    if in_plane:
        psi0 = tracked_eigenvector(profile, t_span[0])
        reference = "tracked_eigenvector"
    else:
        s0 = sample(profile, t_span[0])
        psi0 = bloch_to_spinor(s0.B_vec / s0.B_mag)
        reference = "initial_state"
    traj = integrate_schrodinger(profile, psi0, t_span, cfg)
    phases = extract_total_phase(traj, reference)
    spins = bloch_series(traj)

    samples = sample(profile, traj.times)
    phi0_series, phi2_series = phase_series(samples, traj.times)

    up, dn = traj.states[:, 0], traj.states[:, 1]
    table = np.column_stack([traj.times, samples.B_vec, spins, up.real, up.imag, dn.real, dn.imag,
                             phases, phi0_series, phi2_series])
    csv = _csv("t,Bx,By,Bz,Sx,Sy,Sz,re_up,im_up,re_dn,im_dn,phase_total,phi0,phi2", table)
    summary = {
        "command": "simulate",
        "profile": profile_to_dict(profile),
        "t_span": list(t_span),
        "reference": reference,
        "phase_total_end": float(phases[-1]),
        "norm_drift": traj.metadata["norm_drift"],
        "spin_norm_drift": float(np.max(np.abs(np.sum(spins**2, axis=1) - 1.0))),
    }
    gnuplot = "\n".join(
        [
            "set datafile separator ','",
            "set key autotitle columnhead",
            "set xlabel 't'",
            "plot 'traj.csv' using 1:5 with lines, \\",
            "     'traj.csv' using 1:6 with lines, \\",
            "     'traj.csv' using 1:7 with lines",
            "pause -1",
        ]
    ) + "\n"
    files = {"traj.csv": csv, "summary.json": summary, "plot.gp": gnuplot}
    return files, [f"phase_total({t_span[1]:g}) = {phases[-1]:.12g}"]


def _cmd_phases(rc: RunConfig) -> tuple[dict, list[str]]:
    t_span = (rc.params["t_start"], rc.params["t_end"])
    budget = verification.run_phase_budget(rc.profile, t_span, rc.integrator)
    payload = budget.as_dict()
    payload["metadata"] = budget.metadata
    return {"phases.json": payload}, budget.report_lines()


def _cmd_convergence(rc: RunConfig) -> tuple[dict, list[str]]:
    p = rc.params
    family = verification.sinusoidal_family(theta0=p["theta0"], Omega=p["Omega"], B0=p["B0"])
    report = verification.run_convergence(family, p["eps_list"], p["horizon"])
    lines = [
        f"order-{k} slope = {s:.4f} (stderr {se:.4f})"
        for k, (s, se) in enumerate(report.slopes)
    ]
    files = {
        "convergence.csv": report.to_csv(),
        "summary.json": report.summary(),
        "plot.gp": "set datafile separator ','\nset logscale xy\n"
        "set key autotitle columnhead\n"
        "plot 'convergence.csv' using 1:2 with linespoints, \\\n"
        "     'convergence.csv' using 1:3 with linespoints, \\\n"
        "     'convergence.csv' using 1:4 with linespoints\npause -1\n",
    }
    return files, lines


def _cmd_stokes(rc: RunConfig) -> tuple[dict, list[str]]:
    p = rc.params
    profile = field_profiles.sinusoidal_angle(p["B_list"][0], p["theta0"], p["Omega"])
    period = 2.0 * math.pi / p["Omega"]
    n = p["n_nodes"]
    loops = [
        ("ellipse_forward", loop_from_profile(profile, (0.0, period), n)),
        ("ellipse_reversed", loop_from_profile(profile, (0.0, period), n, reverse=True)),
    ]
    rows = verification.run_stokes_check(loops, p["B_list"])
    worst = max(r.abs_diff for r in rows)
    files = {
        "stokes.csv": verification.stokes_csv(rows),
        "summary.json": {"rows": [r.__dict__ for r in rows], "worst_abs_diff": worst},
    }
    return files, [f"{r.loop_id}: line={r.line_integral:.10g} surface={r.surface_integral:.10g}"
                   for r in rows]


def _cmd_timescale(rc: RunConfig) -> tuple[dict, list[str]]:
    demo = verification.run_timescale_demo(rc.params["B"], rc.params["omega"])
    return {"timescale.json": demo.as_dict()}, [
        f"t1 = {demo.t1:g}", f"phi2(t1) = {demo.phi2_at_t1:g}", f"t2 = {demo.t2:g}"]


_SPAN = {"t_start": _Param("--t-start", float, 0.0), "t_end": _Param("--t-end", float, _REQUIRED)}
_RUN_FLAGS = _INTEGRATOR_FLAGS + _PROFILE_RUN_FLAGS
_COMMANDS = {
    "simulate": _Command(
        "integrate and export one trajectory", _cmd_simulate, True, _RUN_FLAGS,
        {**_SPAN, "grid_n": _Param("--grid-n", int, _OPTIONAL, 2, "output grid size")}),
    "phases": _Command(
        "phase budget on the quasi-stationary branch", _cmd_phases, True, _RUN_FLAGS, _SPAN),
    "convergence": _Command(
        "truncation-order study", _cmd_convergence, False, [], {
            "eps_list": _Param("--eps", _floats, [0.16, 0.08, 0.04, 0.02], 2,
                               "comma list of scales"),
            "theta0": _Param("--theta0", float, 0.3),
            "Omega": _Param("--Omega", float, 1.0),
            "B0": _Param("--B0", float, 1.0),
            "horizon": _Param("--horizon", float, 2.0 * math.pi, help="fixed eps*t span")}),
    "stokes": _Command("holonomy identity table", _cmd_stokes, False, [], {
        "theta0": _Param("--theta0", float, 0.3),
        "Omega": _Param("--Omega", float, 0.05),
        "B_list": _Param("--B", _floats, [1.0], 1, "comma list of field strengths"),
        "n_nodes": _Param("--n-nodes", int, 801, 4)}),
    "timescale": _Command("second-order phase breakdown time", _cmd_timescale, False, [], {
        "B": _Param("--B", float, 1.0),
        "omega": _Param("--omega", float, 0.05)}),
}


# ---------------------------------------------------------------------------
# Output writing and entry point
# ---------------------------------------------------------------------------

def write_outputs(files: dict, config: RunConfig) -> list[str]:
    """Write the files of the selected formats into the output directory; returns paths.

    ``files`` maps file names to payloads; a name's extension gives its
    format.  With an empty format list nothing is written and the JSON
    files go to standard output instead.  JSON is strict: a non-finite
    number is written as ``null``.
    """
    if not config.formats:
        for name, payload in files.items():
            if name.endswith(_EXTENSIONS["json"]):
                sys.stdout.write(_json({name: payload}) + "\n")
        return []
    paths = []
    try:
        os.makedirs(config.output_dir, exist_ok=True)
        for fmt in config.formats:
            for name, payload in files.items():
                if not name.endswith(_EXTENSIONS[fmt]):
                    continue
                path = os.path.join(config.output_dir, name)
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(_json(payload, indent=2) + "\n" if fmt == "json" else payload)
                paths.append(path)
    except OSError as exc:
        raise IoError(f"cannot write outputs under {config.output_dir}: {exc}") from exc
    return paths


def _json(payload, indent=None) -> str:
    """Strict JSON text of a payload, with every non-finite float as null."""
    def finite(x):
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        if isinstance(x, (float, np.floating)) and not math.isfinite(x):
            return None
        return x

    return json.dumps(finite(payload), indent=indent, sort_keys=True, default=float,
                      allow_nan=False)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        rc = parse_cli(argv)
        files, lines = _COMMANDS[rc.command].body(rc)
        paths = write_outputs(files, rc)
        for line in lines:
            print(line)
        for path in paths:
            print(f"wrote {path}")
        return 0
    except SpinPhaseError as exc:
        print(f"spinphase: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"spinphase: I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
