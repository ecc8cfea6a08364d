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
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import field_profiles, verification
from .errors import ConfigError, IoError, SpinPhaseError
from .exact_dynamics import (
    IntegratorConfig,
    _check_count,
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
    """A subcommand.  ``integrates`` is True when it integrates one field profile: then
    it takes the integrator and profile flags and config keys.  ``body`` returns its
    files, keyed by file name, and its stdout lines."""

    help: str
    body: Callable
    integrates: bool
    params: dict

    def all_flags(self) -> list:
        return (_RUN_FLAGS if self.integrates else []) + [
            (p.flag, f"params.{name}", p.type, p.help) for name, p in self.params.items()]


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one CLI run, built from a config file or flags by
    :meth:`from_dict`."""

    command: str
    profile: FieldProfile | None
    integrator: IntegratorConfig
    output_dir: str
    formats: tuple[str, ...]
    params: dict = field(default_factory=dict)

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
    if not _COMMANDS[command].integrates:
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
            _check_count(name, value, spec.least)
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
    for B in params.get("B_list", ()):
        if not B > 0:
            raise ConfigError(f"B_list entries must be positive, got {B}")
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
# flags of the commands that integrate a profile
_RUN_FLAGS = [
    ("--rel-tol", "integrator.rel_tol", float, None),
    ("--abs-tol", "integrator.abs_tol", float, None),
    ("--max-step", "integrator.max_step", float, None),
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


@functools.cache  # parse_args does not change the parser, so each process builds one
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
    override the file.  All calls in one process share one parser.  Every
    flag takes one value, so ``--flag v`` goes on as ``--flag=v``, even v = ``-1,2``.
    """
    tokens, joined = iter(argv), []
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_FLAGS else None
        joined.append(token if value is None else f"{token}={value}")
    given = vars(_build_parser().parse_args(joined))
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
# CSV rendering
# ---------------------------------------------------------------------------

# _csv renders this many cells at a time, so its scratch arrays stay near a megabyte
_CSV_BLOCK_CELLS = 1 << 12
# 10**q for q = 0..20, each exact as a double, and its Veltkamp halves
_POW10 = np.array([float(10**q) for q in range(21)])
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# A cell's row is five 8-byte words: "-0.000", D's leading digit and ".", then the word [g] of
# each 4-digit group g of D, its digits each followed by "." (the last "." is the separator's
# column); [j, g]: the index in D of group j's last nonzero digit when it is g, 0 for g = 0
_LEAD_WORDS = np.frombuffer(b"".join(b"-0.000%d." % d for d in range(10)), np.uint64)
_PAIR_WORDS = np.frombuffer(b"".join(b"%d.%d." % divmod(v, 10) for v in range(100)), np.uint32)
_GROUP_WORDS = _PAIR_WORDS[np.stack(np.divmod(np.arange(10**4), 100), -1)].view(np.uint64).ravel()
_GROUP_LAST = np.array([np.maximum.outer(*pairs).ravel() for pairs in np.where(np.arange(100) > 0,
    np.arange(1, 17, 2).reshape(4, 2, 1) + (np.arange(100) % 10 > 0), 0)], np.uint8)


def _row_masks():
    """The 0/255 masks that keep the characters of a cell's 40-byte row, one per layout.

    Row 17 * (21 * neg + k + 4) + last is the mask of a nonzero cell with sign
    bit ``neg``, decimal exponent k in [-4, 16] and last nonzero digit
    ``last``; rows 714 and 715 are those of 0.0 and -0.0.
    """
    masks = np.zeros((2, 21, 17, 40), np.uint8)
    masks[1, ..., 0] = 255  # "-"
    masks[..., 39] = 255  # the separator
    up_to_last = np.tri(17, dtype=bool)  # [last, i]: digit i is at or before digit last
    for k in range(-4, 17):
        layout = masks[:, k + 4]
        if k < 0:
            layout[..., 1:2 - k] = 255  # "0." and -k-1 zeros
        layout[..., 6:39:2][:, up_to_last | (np.arange(17) <= k)] = 255  # digits
        if k >= 0:
            layout[:, k + 1:, 7 + 2 * k] = 255  # the point, when a nonzero digit follows
    zeros = np.zeros((2, 40), np.uint8)
    zeros[:, [1, 39]] = 255  # "0" and the separator
    zeros[1, 0] = 255
    return np.concatenate([masks.reshape(-1, 40), zeros])


_ROW_MASKS = _row_masks()


def _csv(header: str, columns: Sequence, labels: Sequence[str] | None = None):
    """Yield the CSV as ASCII bytes blocks: the header line, then one line per row.

    The table's columns are the 1-D arrays and the columns of the 2-D arrays in
    ``columns``, in order, all of one length.  Every cell is the ``'%.17g' % x``
    text of its value, which round-trips a float exactly; given ``labels``,
    each line starts with its row's label.  ``_CSV_BLOCK_CELLS`` cells' worth
    of rows are stacked and rendered at a time, so no full table or text is
    ever held.

    The cells are rendered by numpy.  For 1e-4 <= |x| < 1e17 ``%g`` writes x
    in fixed notation with decimal exponent k = floor(log10|x|) and 17
    significant digits, the integer D = round(|x| * 10**q) with q = 16 - k
    in [0, 20].  10**q is an exact double, so Dekker's product (Veltkamp
    splitting) gives |x| * 10**q as p + e exactly, with p >= 1e16 an integer,
    and D = p + round(e).  D's leading digit and four 4-digit groups are read
    from tables and laid out around the decimal point, trailing zeros
    stripped.  A cell falls back to ``'%.17g' %`` when it is not finite,
    when %g would write it in exponent notation (|x| < 1e-4, or |x| that
    rounds to 1e17 or more), when the estimate of k from log10 is off by
    one, or when e is exactly half-way between two integers.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    width = sum(c.shape[1] if c.ndim == 2 else 1 for c in columns)
    step = max(1, _CSV_BLOCK_CELLS // width)
    yield f"{header}\n".encode()
    for i in range(0, len(columns[0]), step):
        lines = _csv_lines(np.column_stack([c[i:i + step] for c in columns]))
        if labels is not None:
            lines = b"".join(b"%s,%s\n" % (label.encode(), line)
                             for label, line in zip(labels[i:i + step], lines.splitlines()))
        yield lines


def _csv_lines(block):
    """ASCII lines of the 2-D float ``block``: its cells in ``'%.17g'`` form joined by commas."""
    x = block.ravel()
    n = x.size
    neg = np.signbit(x)
    a = np.abs(x)
    zero = a == 0.0
    nonzero = np.isfinite(a) & ~zero
    k = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.intp)
    fixed = nonzero & (k >= -4) & (k <= 16)
    a[~fixed] = 1.0
    k[~fixed] = 0
    q = 16 - k
    # Dekker's product: a * 10**q == p + e exactly
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[q], _POW10_LO[q]
    p = a * _POW10[q]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # D is the cell's %g digits when k was right (1e16 <= p + e and D < 1e17) and e is no tie
    fast = zero | (fixed & ((p > 1e16) | ((p == 1e16) & (e >= 0.0)))
                   & (digits < 10**17) & (e - np.floor(e) != 0.5))
    digits[~fast] = 10**16  # any 17-digit D: the fallback overwrites these cells

    # the leading digit, then two 8-digit halves as four 4-digit groups, most significant first
    lead = digits // 10**16
    rest = digits - lead * 10**16
    high = rest // 10**8
    halves = np.stack([high, rest - high * 10**8])
    high = halves // 10**4
    groups = np.stack([high, halves - high * 10**4], axis=1).reshape(4, n)

    rows = np.empty((n, 40), np.uint8)
    words = rows.view(np.uint64)
    words[:, 0] = _LEAD_WORDS[lead]
    last = np.zeros(n, np.uint8)
    for j, group in enumerate(groups):
        words[:, 1 + j] = _GROUP_WORDS[group]
        np.maximum(last, _GROUP_LAST[j][group], out=last)
    rows &= np.take(_ROW_MASKS, np.where(zero, 714 + neg, 17 * (21 * neg + k + 4) + last), axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = ["%.17g" % v for v in x[slow].tolist()]
        rows[slow] = np.array(texts, dtype="S40").view(np.uint8).reshape(-1, 40)
    rows[:, 39] = ord(",")
    rows[block.shape[1] - 1::block.shape[1], 39] = ord("\n")
    # every character a mask dropped is a zero byte
    return rows.tobytes().translate(None, b"\0")


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
    phi0_series, phi2_series = phase_series(samples)

    up, dn = traj.states[:, 0], traj.states[:, 1]
    csv = _csv("t,Bx,By,Bz,Sx,Sy,Sz,re_up,im_up,re_dn,im_dn,phase_total,phi0,phi2",
               [traj.times, samples.B_vec, spins, up.real, up.imag, dn.real, dn.imag,
                phases, phi0_series, phi2_series])
    summary = {
        "command": "simulate",
        "profile": profile_to_dict(profile),
        "t_span": list(t_span),
        "reference": reference,
        "phase_total_end": float(phases[-1]),
        "norm_drift": traj.metadata["norm_drift"],
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
    dec = budget.decomposition
    phases = {
        **asdict(dec),
        "residual_eps4": budget.r_total,
        "r_aa": budget.r_aa,
        "aa_over_phi2_ratio": dec.phi_geom_aa / dec.phi2 if dec.phi2 != 0.0 else math.nan,
    }
    lines = [f"{k:>20s} = {v:+.12g}" for k, v in phases.items()]
    return {"phases.json": {**phases, "metadata": budget.metadata}}, lines


def _cmd_convergence(rc: RunConfig) -> tuple[dict, list[str]]:
    p = rc.params
    family = verification.sinusoidal_family(theta0=p["theta0"], Omega=p["Omega"], B0=p["B0"])
    report = verification.run_convergence(family, p["eps_list"], p["horizon"])
    lines = [
        f"order-{k} slope = {s:.4f} (stderr {se:.4f})"
        for k, (s, se) in enumerate(report.slopes)
    ]
    files = {
        "convergence.csv": _csv("epsilon,err_order0,err_order1,err_order2", [list(zip(
            report.epsilons, report.errors_order0, report.errors_order1, report.errors_order2))]),
        "summary.json": {
            "epsilons": report.epsilons,
            "slopes": [s for s, _ in report.slopes],
            "slope_stderrs": [se for _, se in report.slopes],
        },
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
        "stokes.csv": _csv("loop_id,line_integral,surface_integral,abs_diff",
                           [[(r.line_integral, r.surface_integral, r.abs_diff) for r in rows]],
                           labels=[r.loop_id for r in rows]),
        "summary.json": {"rows": [asdict(r) for r in rows], "worst_abs_diff": worst},
    }
    return files, [f"{r.loop_id}: line={r.line_integral:.10g} surface={r.surface_integral:.10g}"
                   for r in rows]


def _cmd_timescale(rc: RunConfig) -> tuple[dict, list[str]]:
    demo = verification.run_timescale_demo(rc.params["B"], rc.params["omega"])
    return {"timescale.json": asdict(demo)}, [
        f"t1 = {demo.t1:g}", f"phi2(t1) = {demo.phi2_at_t1:g}", f"t2 = {demo.t2:g}"]


_SPAN = {"t_start": _Param("--t-start", float, 0.0), "t_end": _Param("--t-end", float, _REQUIRED)}
_COMMANDS = {
    "simulate": _Command(
        "integrate and export one trajectory", _cmd_simulate, True,
        {**_SPAN, "grid_n": _Param("--grid-n", int, _OPTIONAL, 2, "output grid size")}),
    "phases": _Command(
        "phase budget on the quasi-stationary branch", _cmd_phases, True, _SPAN),
    "convergence": _Command(
        "truncation-order study", _cmd_convergence, False, {
            "eps_list": _Param("--eps", _floats, [0.16, 0.08, 0.04, 0.02], 2,
                               "comma list of scales"),
            "theta0": _Param("--theta0", float, 0.3),
            "Omega": _Param("--Omega", float, 1.0),
            "B0": _Param("--B0", float, 1.0),
            "horizon": _Param("--horizon", float, 2.0 * math.pi, help="fixed eps*t span")}),
    "stokes": _Command("holonomy identity table", _cmd_stokes, False, {
        "theta0": _Param("--theta0", float, 0.3),
        "Omega": _Param("--Omega", float, 0.05),
        "B_list": _Param("--B", _floats, [1.0], 1, "comma list of field strengths"),
        "n_nodes": _Param("--n-nodes", int, 801, 4)}),
    "timescale": _Command("second-order phase breakdown time", _cmd_timescale, False, {
        "B": _Param("--B", float, 1.0),
        "omega": _Param("--omega", float, 0.05)}),
}
_VALUE_FLAGS = frozenset(f for c in _COMMANDS.values() for f, *_ in _COMMON_FLAGS + c.all_flags())


# ---------------------------------------------------------------------------
# Output writing and entry point
# ---------------------------------------------------------------------------

def write_outputs(files: dict, config: RunConfig) -> list[str]:
    """Write the files of the selected formats into the output directory; returns paths.

    ``files`` maps file names to payloads; a name's extension gives its
    format.  A CSV payload is the block iterator of :func:`_csv`: it is
    rendered while it is written, and not at all unless its format is
    selected.  A format given twice is written once.  Each file is written
    under a temporary name in the output directory and then renamed over the
    file's name, so a write that fails leaves the previous run's file whole
    and removes the temporary file.  With an empty format list nothing is
    written and the JSON files go to standard output instead.  JSON is
    strict: a non-finite number is written as ``null``.
    """
    if not config.formats:
        for name, payload in files.items():
            if name.endswith(_EXTENSIONS["json"]):
                sys.stdout.write(_json({name: payload}) + "\n")
        return []
    paths = []
    try:
        os.makedirs(config.output_dir, exist_ok=True)
        for fmt in dict.fromkeys(config.formats):
            for name, payload in files.items():
                if not name.endswith(_EXTENSIONS[fmt]):
                    continue
                path = os.path.join(config.output_dir, name)
                if fmt != "csv":
                    text = _json(payload, indent=2) + "\n" if fmt == "json" else payload
                    payload = [text.encode()]
                _write_then_rename(path, payload)
                paths.append(path)
    except OSError as exc:
        raise IoError(f"cannot write outputs under {config.output_dir}: {exc}") from exc
    return paths


def _write_then_rename(path: str, blocks) -> None:
    """Write the byte blocks to a temporary file beside ``path``, then rename it to ``path``.

    On any failure the temporary file is removed and ``path`` is left as it was.
    """
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(blocks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


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
