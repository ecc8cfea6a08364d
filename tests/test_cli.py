import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinphase import (
    IntegratorConfig,
    Trajectory,
    bloch_series,
    cli,
    exact_dynamics,
    phi0,
    phi2,
    profile_from_dict,
    sinusoidal_angle,
    verification,
)
from spinphase.cli import RunConfig, _build_parser, _csv, main, parse_cli, write_outputs


def run_main(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_simulate_flags():
    rc = parse_cli(
        "simulate --profile uniform_rotation --B0 1.0 --omega 0.1 "
        "--t-end 200 --rel-tol 1e-10 --out runs/".split()
    )
    assert rc.command == "simulate"
    assert rc.profile.kind == "uniform_rotation"
    assert rc.profile.params["omega"] == 0.1
    assert rc.integrator.rel_tol == 1e-10
    assert rc.output_dir == "runs/"
    assert rc.params["t_end"] == 200.0


def test_parse_convergence_eps_order_preserved():
    rc = parse_cli("convergence --eps 0.16,0.08,0.04,0.02 --theta0 0.3".split())
    assert rc.params["eps_list"] == [0.16, 0.08, 0.04, 0.02]
    assert rc.params["theta0"] == 0.3


def test_parse_config_file(tmp_path):
    cfg = {
        "command": "phases",
        "profile": {
            "kind": "uniform_rotation",
            "params": {"B0": 1.0, "omega": 0.1},
            "epsilon": 1.0,
            "t_domain": [0.0, 300.0],
        },
        "integrator": {"rel_tol": 1e-9, "abs_tol": 1e-12},
        "output_dir": str(tmp_path),
        "formats": ["json"],
        "params": {"t_start": 0.0, "t_end": 100.0},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc = parse_cli(["phases", "--config", str(path)])
    assert rc.command == "phases"
    assert rc.integrator.rel_tol == 1e-9
    assert rc.params["t_end"] == 100.0


def test_default_out_dir_env(monkeypatch):
    monkeypatch.setenv("SPINPHASE_OUT_DIR", "/tmp/spin_out_env")
    rc = parse_cli("timescale --B 1 --omega 0.05".split())
    assert rc.output_dir == "/tmp/spin_out_env"


def test_one_parser_serves_every_call():
    # parse_args leaves the parser as it was, so one parser per process reads every argv
    assert _build_parser() is _build_parser()
    argv = "simulate --profile sinusoidal --theta0 0.2 --t-end 10 --grid-n 11 --out a".split()
    first = parse_cli(argv)
    assert parse_cli("stokes --theta0 0.25 --n-nodes 11".split()).params["theta0"] == 0.25
    with pytest.raises(SystemExit) as exc:
        parse_cli(["simulate", "--t-end"])
    assert exc.value.code == 2
    assert parse_cli(argv) == first


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [["not-a-command"], ["convergence", "--profile", "cone"]])
def test_usage_error_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 2


def test_convergence_config_with_a_profile_exits_3(tmp_path, capsys):
    # convergence always builds its own sinusoidal family
    path = _config_file(tmp_path, {"profile": {"kind": "sinusoidal"}})
    assert run_main(["convergence", "--config", path, "--out", str(tmp_path)]) == 3
    assert "convergence has no profile" in capsys.readouterr().err


def test_config_error_exits_3(tmp_path):
    assert run_main(["simulate", "--profile", "bogus", "--t-end", "5",
                     "--out", str(tmp_path)]) == 3
    assert run_main(["simulate", "--out", str(tmp_path)]) == 3  # missing --t-end
    assert run_main(["simulate", "--t-end", "5", "--formats", "xml",
                     "--out", str(tmp_path)]) == 3


def test_io_error_exits_4(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = run_main(["timescale", "--B", "1", "--omega", "0.05",
                     "--out", str(blocker / "sub")])
    assert code == 4


def test_numerical_error_exits_5(tmp_path):
    # delta = 0.8 breaks the perturbative guard after passing the horizon check
    code = run_main(["phases", "--profile", "uniform_rotation", "--B0", "1.0",
                     "--omega", "0.8", "--t-end", "0.2", "--out", str(tmp_path)])
    assert code == 5


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

def test_simulate_writes_expected_files(tmp_path):
    argv = ["simulate", "--profile", "uniform_rotation", "--B0", "1.0", "--omega", "0.1",
            "--t-end", "20", "--grid-n", "201", "--rel-tol", "1e-9",
            "--formats", "csv,json,gnuplot", "--out", str(tmp_path)]
    assert run_main(argv) == 0
    csv_path = tmp_path / "traj.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == "t,Bx,By,Bz,Sx,Sy,Sz,re_up,im_up,re_dn,im_dn,phase_total,phi0,phi2"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["phase_total_end"] == pytest.approx(-0.5 * math.sqrt(1.01) * 20, abs=1e-4)
    assert "traj.csv" in (tmp_path / "plot.gp").read_text()


def test_simulate_deterministic_output(tmp_path):
    argv_tpl = ["simulate", "--profile", "sinusoidal", "--theta0", "0.3", "--Omega", "0.05",
                "--t-end", "10", "--grid-n", "101", "--formats", "csv,json"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_main(argv_tpl + ["--out", str(a)]) == 0
    assert run_main(argv_tpl + ["--out", str(b)]) == 0
    assert (a / "traj.csv").read_bytes() == (b / "traj.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


@pytest.mark.parametrize("profile", ["uniform_rotation", "cone"])
def test_simulate_spin_columns_are_mean_spins_of_spinor_columns(profile, tmp_path):
    # one integration: every row's Sx, Sy, Sz are the mean spin of its written spinor, to the
    # last bit (17 digits round-trip), and spin_norm_drift is read from those rows
    argv = ["simulate", "--profile", profile, "--t-end", "50", "--grid-n", "801",
            "--formats", "csv,json", "--out", str(tmp_path)]
    assert run_main(argv) == 0
    header, *rows = (tmp_path / "traj.csv").read_text().splitlines()
    table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    col = dict(zip(header.split(","), table.T))
    states = np.empty((len(table), 2), dtype=complex)
    states[:, 0].real, states[:, 0].imag = col["re_up"], col["im_up"]
    states[:, 1].real, states[:, 1].imag = col["re_dn"], col["im_dn"]
    spins = bloch_series(Trajectory(times=col["t"], states=states, kind="spinor"))
    assert np.array_equal(np.column_stack([col["Sx"], col["Sy"], col["Sz"]]), spins)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["spin_norm_drift"] == float(np.max(np.abs(np.sum(spins**2, axis=1) - 1.0)))


def test_empty_formats_prints_to_stdout(tmp_path, capsys):
    argv = ["timescale", "--B", "1", "--omega", "0.05", "--formats", "", "--out", str(tmp_path)]
    assert run_main(argv) == 0
    out = capsys.readouterr().out
    assert "timescale.json" in out
    assert not any(p.name.endswith(".json") for p in tmp_path.iterdir())


def test_phases_prints_factor_two_diagnostics(tmp_path, capsys):
    argv = ["phases", "--profile", "uniform_rotation", "--B0", "1.0", "--omega", "0.1",
            "--t-end", "50", "--rel-tol", "1e-10", "--formats", "json", "--out", str(tmp_path)]
    assert run_main(argv) == 0
    out = capsys.readouterr().out
    assert "phi2" in out and "phi_geom_aa" in out and "aa_over_phi2_ratio" in out
    payload = json.loads((tmp_path / "phases.json").read_text())
    for key in ("phi0", "phi1", "phi2", "phi_total_exact", "phi_dyn_expect",
                "phi_geom_aa", "residual_eps4"):
        assert math.isfinite(payload[key])


def test_phases_json_is_the_runners_budget_bit_for_bit(tmp_path):
    # the CLI and the library runner integrate at the one default, IntegratorConfig()
    t_span = (0.0, 125.66370614359172)
    argv = ["phases", "--profile", "sinusoidal", "--t-end", repr(t_span[1]), "--formats", "json"]
    profile = sinusoidal_angle(B0=1.0, theta0=0.3, Omega=0.05)
    assert parse_cli(argv).profile == profile
    assert run_main(argv + ["--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "phases.json").read_text())
    budget = verification.run_phase_budget(profile, t_span)
    want = {**asdict(budget.decomposition), "residual_eps4": budget.r_total,
            "r_aa": budget.r_aa}
    assert {k: payload[k] for k in want} == want
    assert payload["metadata"] == budget.metadata
    cfg = IntegratorConfig()
    assert (budget.metadata["rel_tol"], budget.metadata["abs_tol"]) == (cfg.rel_tol, cfg.abs_tol)


@pytest.mark.parametrize("bad", [2.5, True, "3", None, -1, 10**8])
def test_every_int_param_exits_3_on_a_bad_value(bad, tmp_path, capsys):
    ints = [(command, name) for command, spec in cli._COMMANDS.items()
            for name, param in spec.params.items() if param.type is int]
    assert ints == [("simulate", "grid_n"), ("stokes", "n_nodes")]
    for command, name in ints:
        params = {"t_end": 5.0, name: bad} if command == "simulate" else {name: bad}
        path = _config_file(tmp_path, {"command": command, "params": params})
        assert run_main([command, "--config", path, "--out", str(tmp_path)]) == 3
        assert f"{name} must be an integer" in capsys.readouterr().err


def test_stokes_csv_columns(tmp_path):
    argv = ["stokes", "--theta0", "0.3", "--Omega", "0.05", "--B", "1.0",
            "--n-nodes", "401", "--out", str(tmp_path)]
    assert run_main(argv) == 0
    lines = (tmp_path / "stokes.csv").read_text().splitlines()
    assert lines[0] == "loop_id,line_integral,surface_integral,abs_diff"
    assert len(lines) == 3  # forward + reversed at one field strength


def test_convergence_cli_small(tmp_path):
    argv = ["convergence", "--eps", "0.16,0.08", "--theta0", "0.3", "--Omega", "1.0",
            "--horizon", str(math.pi), "--out", str(tmp_path)]
    assert run_main(argv) == 0
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "epsilon,err_order0,err_order1,err_order2"
    assert len(lines) == 3


def test_convergence_repeated_eps_exits_3_without_traceback(tmp_path):
    proc = _run_module(["convergence", "--eps", "0.16,0.16", "--out", str(tmp_path)], 60)
    assert proc.returncode == 3
    assert "distinct epsilon" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


# ---------------------------------------------------------------------------
# One input path: flags and --config files share defaults and checks
# ---------------------------------------------------------------------------

def _config_file(tmp_path, d):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(d))
    return str(path)


def test_malformed_config_file_exits_3(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    assert run_main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 3
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ([{"params": {"t_end": 5.0}}], "must hold a JSON object"),
    ({"command": "phases", "params": {"t_end": 5.0}}, "config file is for 'phases'"),
    ({"profile": ["uniform_rotation"], "params": {"t_end": 5.0}}, "profile must be an object"),
], ids=["array", "other_command", "profile_array"])
def test_config_of_the_wrong_shape_exits_3(config, message, tmp_path, capsys):
    path = _config_file(tmp_path, config)
    assert run_main(["simulate", "--config", path, "--out", str(tmp_path)]) == 3
    assert message in capsys.readouterr().err


def test_coeffs_flag_matches_its_config_file_twin(tmp_path):
    path = _config_file(tmp_path, {"profile": {"kind": "polynomial_angle",
                                               "params": {"c0": 0, "c1": 0.1}},
                                   "params": {"t_end": 100.0}})
    rc = parse_cli(["simulate", "--profile", "polynomial", "--coeffs", "0,0.1", "--t-end", "100"])
    assert rc == parse_cli(["simulate", "--config", path])
    assert rc.profile.params == {"B0": 1.0, "c0": 0.0, "c1": 0.1}
    # given coefficients replace the default c0, c1 as a whole
    rc = parse_cli(["simulate", "--profile", "polynomial", "--coeffs", "0.5", "--t-end", "1"])
    assert rc.profile.params == {"B0": 1.0, "c0": 0.5}


def test_config_without_t_end_exits_3(tmp_path):
    path = _config_file(tmp_path, {"command": "simulate", "params": {}})
    assert run_main(["simulate", "--config", path]) == 3


def test_config_without_profile_matches_flag_defaults(tmp_path):
    path = _config_file(tmp_path, {"command": "simulate", "params": {"t_end": 5.0}})
    rc = parse_cli(["simulate", "--config", path])
    assert rc.profile.kind == "uniform_rotation"
    assert rc == parse_cli(["simulate", "--t-end", "5"])


def test_partial_stokes_config_gets_defaults(tmp_path):
    path = _config_file(tmp_path, {"command": "stokes", "params": {"theta0": 0.2}})
    rc = parse_cli(["stokes", "--config", path])
    assert rc.params == {"theta0": 0.2, "Omega": 0.05, "B_list": [1.0], "n_nodes": 801}
    assert rc == parse_cli(["stokes", "--theta0", "0.2"])


def test_out_and_formats_flags_override_config(tmp_path):
    path = _config_file(tmp_path, {"command": "simulate", "output_dir": "from_file",
                                   "formats": ["csv"], "params": {"t_end": 5.0}})
    rc = parse_cli(["simulate", "--config", path, "--out", "from_flag", "--formats", "json"])
    assert rc.output_dir == "from_flag"
    assert rc.formats == ("json",)


def test_other_flag_next_to_config_exits_3(tmp_path, capsys):
    path = _config_file(tmp_path, {"command": "simulate", "params": {"t_end": 5.0}})
    assert run_main(["simulate", "--config", path, "--omega", "0.2"]) == 3
    assert "--omega" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--t-end", "5", "--omega", "nan"],
    ["simulate", "--t-end", "inf"],
    ["phases", "--t-end", "5", "--epsilon", "inf"],
    ["simulate", "--t-end", "5", "--profile", "cone", "--omega", "0.2"],
    ["simulate", "--t-end", "5", "--t-start", "5"],
    ["stokes", "--Omega", "0"],
    ["convergence", "--eps", "0.1"],
])
def test_invalid_values_exit_3(argv, tmp_path):
    assert run_main(argv + ["--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("command", ["convergence", "stokes", "timescale"])
def test_integrator_flags_only_where_read(command, tmp_path, capsys):
    for flag in ("--rel-tol", "--abs-tol", "--max-step"):
        with pytest.raises(SystemExit) as exc:
            parse_cli([command, flag, "1e-9"])
        assert exc.value.code == 2
    # nor the integrator key of a config file
    path = _config_file(tmp_path, {"command": command, "integrator": {"rel_tol": 1e-3}})
    assert run_main([command, "--config", path, "--out", str(tmp_path)]) == 3
    assert "'integrator'" in capsys.readouterr().err


_BELOW_FLOOR = "|B|=1e-07 below floor 1e-06"


@pytest.mark.parametrize("B_list, code, message", [
    ("-1,1,1", 3, "-1.0"), ("1,-1,1", 3, "-1.0"), ("1,1,-1", 3, "-1.0"),
    ("0,1,1", 3, "0.0"), ("1,0,1", 3, "0.0"), ("1,1,0", 3, "0.0"),
    # one floor and one wording, whichever check meets the entry
    ("1e-7,1,1", 5, _BELOW_FLOOR), ("1,1e-7,1", 5, _BELOW_FLOOR), ("1,1,1e-7", 5, _BELOW_FLOOR),
])
def test_stokes_bad_field_exits_the_same_wherever_it_stands(B_list, code, message, tmp_path,
                                                             capsys):
    # a non-positive entry is a config error, a positive one below the floor a degenerate field
    argv = ["stokes", f"--B={B_list}", "--n-nodes", "11", "--out", str(tmp_path)]
    assert run_main(argv) == code
    assert message in capsys.readouterr().err


# a valid value of each flag, by flag, else by the type it parses with
_VALID_BY_FLAG = {"--out": "out", "--formats": "csv", "--profile": "constant"}
_VALID_BY_TYPE = {float: "0.001", int: "5", cli._floats: "0.5,1", cli._coeffs: "0,0.1"}
# the profile kind that takes each profile flag the default kind does not
_KIND_TAKING = {"--theta0": "sinusoidal", "--Omega": "sinusoidal", "--theta-c": "cone",
                "--omega-phi": "cone", "--coeffs": "polynomial"}


def _exit_code(argv):
    try:
        return run_main(argv)
    except SystemExit as exc:  # argparse's usage error
        return exc.code


@pytest.mark.parametrize("command, flag, type_", [
    (name, flag, type_) for name, command in cli._COMMANDS.items()
    for flag, _, type_, _ in cli._COMMON_FLAGS + command.all_flags()])
def test_both_spellings_of_a_flag_reach_one_validator(command, flag, type_, tmp_path,
                                                      monkeypatch, capsys):
    # the command body does nothing, so only parsing and validation run
    spec = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command, spec._replace(body=lambda rc: ({}, [])))
    monkeypatch.chdir(tmp_path)
    required = {name: p.flag for name, p in spec.params.items() if p.default is cli._REQUIRED}
    if flag == "--config":
        valid = _config_file(tmp_path, {"command": command,
                                        "params": dict.fromkeys(required, 5.0)})
        base = [command]
    else:
        valid = _VALID_BY_FLAG.get(flag) or _VALID_BY_TYPE[type_]
        base = [command] + [arg for f in required.values() if f != flag for arg in (f, "5")]
        if spec.integrates and flag in _KIND_TAKING:
            base += ["--profile", _KIND_TAKING[flag]]
    for value in (valid, "-1,2", "x"):
        spaced, joined = ((_exit_code(base + argv), capsys.readouterr())
                          for argv in ([flag, value], [f"{flag}={value}"]))
        assert spaced == joined, value
        assert value != valid or spaced[0] == 0, spaced


def test_simulate_aliased_explicit_grid_exits_5(tmp_path, capsys):
    # three nodes over t = 50 alias the phase; no run refines a given grid
    argv = ["simulate", "--profile", "uniform_rotation", "--t-end", "50", "--grid-n", "3"]
    assert run_main(argv + ["--out", str(tmp_path)]) == 5
    assert "a-priori phase step" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--t-end", "1e300"],
    ["simulate", "--t-end", "10", "--grid-n", "100000000"],
    ["stokes", "--n-nodes", "100000000"],
])
def test_oversized_grids_exit_3_without_allocating(argv, tmp_path):
    tracemalloc.start()
    try:
        code = run_main(argv + ["--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 20 * 2**20  # a 10**8-node time grid alone is 800 MB


def _run_module(argv, timeout):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "spinphase", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _run_python(code, cwd, timeout=120):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


# each command with its default settings (and the span simulate and phases require)
_DEFAULT_RUNS = [["simulate", "--t-end", "200"], ["phases", "--t-end", "200"],
                 ["convergence"], ["stokes"], ["timescale"]]


def test_default_runs_import_no_scipy(tmp_path):
    code = f"""
import sys
from spinphase import cli
loaded = lambda: sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded(), loaded()[:5]
for argv in {_DEFAULT_RUNS!r}:
    assert cli.main(argv + ["--out", argv[0]]) == 0, argv
    assert not loaded(), (argv, loaded()[:5])
"""
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_commands_run_without_scipy(tmp_path):
    code = f"""
import sys
sys.modules["scipy"] = None  # every scipy import now fails
from spinphase import ConfigError, IntegratorConfig, cli
for argv in {_DEFAULT_RUNS!r}:
    assert cli.main(argv + ["--out", argv[0]]) == 0, argv
try:
    IntegratorConfig(method="DOP853")
except ConfigError as exc:
    assert exc.exit_code == 3 and "reference" in str(exc), exc
else:
    raise AssertionError("a solve_ivp method without scipy was accepted")
"""
    proc = _run_python(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


# t1 and t2 of these fields and rates overflow or divide by zero in float arithmetic
@pytest.mark.parametrize("argv, code", [
    ("phases --omega 1e-90 --t-end 10", 0),
    ("phases --B0 1e150 --t-end 1e-140", 3),
    ("convergence --eps 1e-300,1e-301", 3),
    ("convergence --theta0 1e300", 3),
    ("convergence --B0 1e120", 3),
    ("timescale --omega 1e200", 0),
    ("timescale --omega 1e-200", 0),
    ("timescale --B 1e200", 0),
])
def test_extreme_breakdown_times_exit_without_traceback(argv, code, tmp_path, capsys):
    assert run_main(argv.split() + ["--out", str(tmp_path)]) == code
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("grid", [[], ["--grid-n", "2001"]])
def test_simulate_validates_its_grid_once(grid, tmp_path, monkeypatch):
    calls = []
    span_nodes = exact_dynamics._span_nodes
    monkeypatch.setattr(exact_dynamics, "_span_nodes",
                        lambda *args: calls.append(args) or span_nodes(*args))
    assert run_main(["simulate", "--t-end", "50", *grid, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_unbounded_span_with_explicit_grid_exits_3(tmp_path):
    # with --grid-n the solver alone would cover the span; the node bound stops it first
    for profile in ("uniform_rotation", "cone"):
        argv = ["simulate", "--profile", profile, "--t-end", "1e300", "--grid-n", "5",
                "--out", str(tmp_path)]
        proc = _run_module(argv, timeout=30)
        assert proc.returncode == 3, proc.stderr


def test_stokes_large_loop_finishes(tmp_path):
    # 10**5 nodes: both sides of the holonomy are O(n) sums over the nodes
    argv = ["stokes", "--n-nodes", "100000", "--out", str(tmp_path)]
    proc = _run_module(argv, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "stokes.csv").read_text().startswith("loop_id,")


@pytest.mark.parametrize("argv", [
    ["--profile", "uniform_rotation", "--t-end", "200"],
    ["--profile", "sinusoidal", "--t-end", "300"],
])
def test_simulate_phase_columns_match_library(argv, tmp_path):
    # the trapezoid columns on the default grid and the quad functionals share their integrands
    argv = ["simulate", *argv, "--formats", "csv", "--out", str(tmp_path)]
    rc = parse_cli(argv)
    assert run_main(argv) == 0
    last = (tmp_path / "traj.csv").read_text().splitlines()[-1].split(",")
    span = (rc.params["t_start"], rc.params["t_end"])
    assert float(last[-2]) == pytest.approx(phi0(rc.profile, span), abs=1e-8)
    assert float(last[-1]) == pytest.approx(phi2(rc.profile, span), abs=1e-8)


# ---------------------------------------------------------------------------
# One command table: each subcommand's flags and files
# ---------------------------------------------------------------------------

_COMMON = ["--config", "--out", "--formats"]
_RUN = ["--rel-tol", "--abs-tol", "--max-step", "--profile", "--B0", "--omega", "--theta0",
        "--Omega", "--theta-init", "--theta-c", "--omega-phi", "--coeffs", "--epsilon",
        "--t-start", "--t-end"]
FLAGS = {
    "simulate": _COMMON + _RUN + ["--grid-n"],
    "phases": _COMMON + _RUN,
    "convergence": _COMMON + ["--eps", "--theta0", "--Omega", "--B0", "--horizon"],
    "stokes": _COMMON + ["--theta0", "--Omega", "--B", "--n-nodes"],
    "timescale": _COMMON + ["--B", "--omega"],
}


def test_each_subcommand_accepts_exactly_its_flags():
    subs = _build_parser()._subparsers._group_actions[0].choices
    assert sorted(subs) == sorted(FLAGS)
    for command, flags in FLAGS.items():
        declared = [s for a in subs[command]._actions for s in a.option_strings
                    if s not in ("-h", "--help")]
        assert sorted(declared) == sorted(flags), command


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_flag_prefixes_are_not_flags(command):
    # a proper prefix of a flag is never taken for it, e.g. phases --eps is not --epsilon
    required = ["--t-end", "10"] if command in ("simulate", "phases") else []
    prefixes = {flag[:k] for flag in FLAGS[command] for k in range(1, len(flag))}
    for prefix in sorted(prefixes - set(FLAGS[command])):
        with pytest.raises(SystemExit) as exc:
            parse_cli([command, *required, prefix, "1"])
        assert exc.value.code == 2, prefix


SMALL_RUNS = {
    "simulate": ["--profile", "uniform_rotation", "--t-end", "10", "--grid-n", "101"],
    "phases": ["--profile", "uniform_rotation", "--t-end", "20"],
    "convergence": ["--eps", "0.16,0.08", "--horizon", "3.14"],
    "stokes": ["--n-nodes", "101"],
    "timescale": [],
}
# files written per format; with --formats "" the JSON files are printed instead
FILES = {
    "simulate": {"csv": ["traj.csv"], "json": ["summary.json"], "gnuplot": ["plot.gp"]},
    "phases": {"csv": [], "json": ["phases.json"], "gnuplot": []},
    "convergence": {"csv": ["convergence.csv"], "json": ["summary.json"],
                    "gnuplot": ["plot.gp"]},
    "stokes": {"csv": ["stokes.csv"], "json": ["summary.json"], "gnuplot": []},
    "timescale": {"csv": [], "json": ["timescale.json"], "gnuplot": []},
}


@pytest.mark.parametrize("formats", ["json", "gnuplot", ""])
@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_formats_write_or_print_exactly_their_files(command, formats, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, *SMALL_RUNS[command], "--formats", formats, "--out", str(out)]
    assert run_main(argv) == 0
    stdout = capsys.readouterr().out.splitlines()
    want = FILES[command][formats] if formats else []
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == sorted(want)
    assert [line for line in stdout if line.startswith("wrote ")] == [
        f"wrote {out / name}" for name in want]
    printed = [name for line in stdout if line.startswith("{") for name in json.loads(line)]
    assert printed == ([] if formats else FILES[command]["json"])


# ---------------------------------------------------------------------------
# Strict JSON output
# ---------------------------------------------------------------------------

def _strict(text, where):
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token} in {where}")

    return json.loads(text, parse_constant=reject)


def test_every_json_output_is_strict(tmp_path, capsys):
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "acceptance_runs.py")
    spec = importlib.util.spec_from_file_location("acceptance_runs", script)
    runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runs)
    acceptance = tmp_path / "acceptance"
    assert set(runs.run_all(str(acceptance)).values()) == {0}
    # an infinite breakdown time and an undefined AA/phi2 ratio
    assert run_main(["timescale", "--omega", "0", "--out", str(tmp_path / "timescale")]) == 0
    assert run_main(["phases", "--profile", "constant", "--t-end", "10",
                     "--out", str(tmp_path / "phases")]) == 0
    assert run_main(["timescale", "--omega", "0", "--formats", ""]) == 0
    printed = [_strict(line, "stdout") for line in capsys.readouterr().out.splitlines()
               if line.startswith("{")]
    assert printed == [{"timescale.json": {"t1": None, "phi2_at_t1": 0.0, "t2": None}}]
    parsed = {path: _strict(path.read_text(encoding="utf-8"), path)
              for path in sorted(tmp_path.rglob("*.json"))}
    assert len(parsed) >= 12
    assert parsed[tmp_path / "timescale" / "timescale.json"]["t1"] is None
    assert parsed[tmp_path / "phases" / "phases.json"]["aa_over_phi2_ratio"] is None
    # an unbounded t_domain reads back as [null, null] and round-trips through --config
    summary = parsed[acceptance / "simulate_uniform_rotation" / "summary.json"]
    assert summary["profile"]["t_domain"] == [None, None]
    profile = profile_from_dict(summary["profile"])
    assert profile == parse_cli(runs.RUNS["simulate_uniform_rotation"]).profile
    assert profile.t_domain == (-math.inf, math.inf)
    path = _config_file(tmp_path, {"profile": summary["profile"], "params": {"t_end": 200.0}})
    assert parse_cli(["simulate", "--config", path]).profile == profile


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------

def _per_cell_csv(header, table):
    """The reference rendering: every cell through '%.17g' %, one format string per table."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    return f"{header}\n" + (row * len(table)) % tuple(table.ravel().tolist())


def _halfway_cells(rng):
    """Doubles x with 1e-4 <= x < 1e16 whose x * 10**(16 - k), k = floor(log10 x), ends in .5.

    x = odd / 2**(17 - k) gives x * 10**(16 - k) = odd * 5**(16 - k) / 2.
    """
    cells = []
    for k in range(-4, 16):
        scale = 2 ** (17 - k)
        lo = -(-scale * 10 ** max(k, 0) // 10 ** max(-k, 0))
        hi = min(scale * 10 ** max(k + 1, 0) // 10 ** max(-k - 1, 0), 2**53)
        odds = rng.integers(lo // 2, hi // 2, 40) * 2 + 1
        cells += [int(odd) / scale for odd in odds]
    return np.array(cells)


def _rendered(header, table, labels=None):
    """The joined bytes of ``_csv`` for the one 2-D column block ``table``."""
    return b"".join(_csv(header, [table], labels=labels))


def test_csv_rows_are_bytes_of_the_per_cell_form():
    rng = np.random.default_rng(2007)
    bits = rng.integers(0, 2**64, 1 << 14, dtype=np.uint64).view(np.float64)
    neighbours = [np.array([float(f"1e{k}") for k in range(-5, 19)])]
    for toward in (0.0, math.inf):
        for _ in range(32):
            neighbours.append(np.nextafter(neighbours[-1], toward))
        neighbours.append(neighbours[0])
    neighbours = np.concatenate(neighbours)
    halfway = _halfway_cells(rng)
    k = np.floor(np.log10(halfway)).astype(int)
    assert all(Fraction(x) * 10 ** (16 - int(kx)) % 1 == Fraction(1, 2)
               for x, kx in zip(halfway[::97], k[::97]))
    specials = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                1e-310, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3]
    cells = np.concatenate([specials, halfway, -halfway, neighbours, -neighbours, bits])
    table = np.resize(cells, (-(-len(cells) // 7), 7))
    assert _rendered("a,b,c,d,e,f,g", table) == _per_cell_csv("a,b,c,d,e,f,g", table).encode()
    assert _rendered("a,b", np.empty((0, 2))) == b"a,b\n"


@pytest.mark.parametrize("part", range(4))
def test_csv_of_log_uniform_magnitudes_is_the_per_cell_form(part):
    # four parts of 2.5e5 cells each: 1e6 magnitudes from 1e-6 to 1e18, both signs
    rng = np.random.default_rng([2007, part])
    cells = rng.choice([-1.0, 1.0], 250_000) * 10.0 ** rng.uniform(-6.0, 18.0, 250_000)
    table = cells.reshape(-1, 10)
    assert _rendered("h", table) == _per_cell_csv("h", table).encode()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(columns=st.integers(1, 6), cells=st.lists(st.floats(), max_size=60))
def test_csv_of_any_float_table_is_the_per_cell_form(columns, cells):
    table = np.array(cells[:len(cells) // columns * columns], dtype=float).reshape(-1, columns)
    assert _rendered("h", table) == _per_cell_csv("h", table).encode()


def test_csv_group_tables_are_their_definition():
    assert [w.tobytes() for w in cli._LEAD_WORDS] == [b"-0.000%d." % d for d in range(10)]
    assert [w.tobytes() for w in cli._GROUP_WORDS] == [
        b"%d.%d.%d.%d." % tuple(int(c) for c in "%04d" % g) for g in range(10**4)]
    # [j, g]: the index in D of the last nonzero digit of group j (D's digits 4j+1..4j+4)
    assert cli._GROUP_LAST.dtype == np.uint8
    assert cli._GROUP_LAST.tolist() == [
        [max((4 * j + 1 + i for i, c in enumerate("%04d" % g) if c != "0"), default=0)
         for g in range(10**4)] for j in range(4)]


def _with_digits(d, k):
    """The double nearest d * 10**(k - 16) if its 17 significant digits are d and its decimal
    exponent is k, else None."""
    x = float(f"{d}e{k - 16}")
    s = "%.16e" % x
    return x if s[0] + s[2:18] == str(d) and int(s[19:]) == k else None


def _group_cells():
    """For each group j of D and 4-digit g, a double whose D has group j = g and zeros after it.

    Its decimal exponent is k <= 0 where such a double exists (every g but three in group 0),
    so each digit of the group is after the point and the group's last nonzero digit decides
    where the cell ends.
    """
    cells = []
    for j in range(4):
        for g in range(10**4):
            if j == 0:  # only the leading digit and the exponent are free
                tries = ((lead * 10**16 + g * 10**12, k)
                         for k in (0, -1, -2, -3, -4, 1, 2, 3) for lead in range(1, 10))
            else:  # group 0 is free
                tries = ((10**16 + f * 10**12 + g * 10**(12 - 4 * j), 0) for f in range(10**4))
            cells.append(next(x for x in itertools.starmap(_with_digits, tries) if x is not None))
    return cells


def test_csv_of_every_group_in_every_position_is_the_per_cell_form():
    # g * 10**p is an exact double for g < 10**4 and p <= 12
    exact = np.arange(10**4)[:, None] * 10.0 ** np.arange(13)
    cells = np.concatenate([exact.ravel(), _group_cells()])
    table = np.concatenate([cells, -cells]).reshape(-1, 10)
    assert _rendered("h", table) == _per_cell_csv("h", table).encode()


def test_csv_labels_lead_their_rows():
    table = [[0.1, -0.0], [math.nan, 1e-5], [2.5, 1e17]]
    assert _rendered("id,a,b", table, labels=["x", "y", "z"]) == (
        b"id,a,b\nx,0.10000000000000001,-0\ny,nan,1.0000000000000001e-05\nz,2.5,1e+17\n")


def test_csv_scratch_memory_does_not_grow_with_rows(tmp_path):
    # rendered while it is written: no full table, text or encoded copy is ever held
    table = np.random.default_rng(3).standard_normal((20000, 14))
    rc = RunConfig.from_dict({"command": "simulate", "output_dir": str(tmp_path),
                              "formats": ["csv"], "params": {"t_end": 1.0}})
    tracemalloc.start()
    try:
        write_outputs({"traj.csv": _csv("h", [table])}, rc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "traj.csv").read_bytes() == _per_cell_csv("h", table).encode()
    assert peak < 2 * 2**20


def test_csv_of_columns_is_the_csv_of_their_table():
    rng = np.random.default_rng(11)
    t, vec, col = rng.standard_normal(5000), rng.standard_normal((5000, 3)), rng.standard_normal(5000)
    table = np.column_stack([t, vec, col])
    assert b"".join(_csv("h", [t, vec, col])) == _rendered("h", table)
    labels = [f"row{i}" for i in range(5000)]
    want = b"h\n" + b"".join(b"%s,%s\n" % (label.encode(), line) for label, line in
                             zip(labels, _rendered("", table).splitlines()[1:]))
    assert b"".join(_csv("h", [t, vec, col], labels=labels)) == want


def test_unselected_csv_is_never_rendered(tmp_path, monkeypatch):
    def fail(block):
        raise AssertionError("CSV rendered")

    monkeypatch.setattr(cli, "_csv_lines", fail)
    argv = ["simulate", "--t-end", "5", "--formats", "json", "--out", str(tmp_path)]
    assert run_main(argv) == 0
    assert sorted(os.listdir(tmp_path)) == ["summary.json"]


def test_repeated_format_writes_its_files_once(tmp_path, capsys):
    argv = ["simulate", "--t-end", "5", "--grid-n", "11"]
    assert run_main(argv + ["--formats", "csv", "--out", str(tmp_path / "once")]) == 0
    capsys.readouterr()
    assert run_main(argv + ["--formats", "csv,csv", "--out", str(tmp_path / "twice")]) == 0
    assert capsys.readouterr().out.count("wrote") == 1
    once = (tmp_path / "once" / "traj.csv").read_bytes()
    assert len(once.splitlines()) == 12
    assert (tmp_path / "twice" / "traj.csv").read_bytes() == once
