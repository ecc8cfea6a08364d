"""Property tests of the input contract: any argv or run-config dict either
builds a RunConfig or fails with a typed error, never another exception."""

import copy
import math

from hypothesis import given, settings, strategies as st

from spinphase.cli import RunConfig, parse_cli
from spinphase.errors import SpinPhaseError

# one valid run config per command; the property test mutates them
BASE = {
    "simulate": {"command": "simulate",
                 "profile": {"kind": "sinusoidal", "params": {"B0": 2.0}, "epsilon": 0.5,
                             "t_domain": [-1.0, 50.0]},
                 "integrator": {"rel_tol": 1e-9, "max_step": 1.0}, "output_dir": "out",
                 "formats": ["csv"], "params": {"t_end": 20.0, "grid_n": 11}},
    "phases": {"command": "phases", "profile": {"kind": "cone", "params": {"theta_c": 1.0}},
               "params": {"t_start": 1.0, "t_end": 5.0}},
    "convergence": {"command": "convergence",
                    "params": {"eps_list": [0.2, 0.1], "horizon": 3.0}},
    "stokes": {"command": "stokes", "params": {"B_list": [1.0, 2.0], "n_nodes": 11}},
    "timescale": {"command": "timescale", "params": {"B": 2.0}},
}
PATHS = [("command",), ("profile",), ("profile", "kind"), ("profile", "params"),
         ("profile", "params", "B0"), ("profile", "params", "omega"),
         ("profile", "params", "c1"), ("profile", "epsilon"), ("profile", "t_domain"),
         ("profile", "b_min"), ("integrator",), ("integrator", "rel_tol"),
         ("integrator", "max_step"), ("integrator", "method"), ("output_dir",), ("formats",),
         ("params",), ("params", "t_start"), ("params", "t_end"), ("params", "grid_n"),
         ("params", "eps_list"), ("params", "B_list"), ("params", "n_nodes"),
         ("params", "Omega"), ("params", "B"), ("unknown",)]
DELETE = object()
FLAGS = ["--out", "--formats", "--rel-tol", "--abs-tol", "--max-step", "--profile", "--B0",
         "--omega", "--theta0", "--Omega", "--theta-init", "--theta-c", "--omega-phi",
         "--coeffs", "--epsilon", "--t-start", "--t-end", "--grid-n", "--eps", "--horizon",
         "--B", "--n-nodes", "--config"]
VALUES = ["0", "1", "-1", "3", "0.05", "1e-9", "1e400", "nan", "inf", "-inf", "x", "",
          "0.1,0.2", "1,x", "sinusoidal", "cone", "polynomial", "constant", "user_tabulated",
          "csv,json", "xml", "missing.json"]

numbers = st.one_of(st.floats(), st.integers(-10**400, 10**400), st.booleans())
scalars = numbers | st.none() | st.text(max_size=3) | st.sampled_from(VALUES)
json_values = scalars | st.lists(scalars, max_size=3) | st.dictionaries(
    st.sampled_from(["kind", "params", "B0", "x"]), scalars, max_size=2
)
mutations = st.lists(
    st.tuples(st.sampled_from(PATHS), numbers | json_values | st.just(DELETE)), max_size=3
)


def _mutate(d, path, value):
    *parents, key = path
    for part in parents:
        d = d.setdefault(part, {})
        if not isinstance(d, dict):
            return
    if value is DELETE:
        d.pop(key, None)
    else:
        d[key] = value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(BASE)), edits=mutations)
def test_from_dict_builds_or_raises_config_error(command, edits):
    d = copy.deepcopy(BASE[command])
    for path, value in edits:
        _mutate(d, path, value)
    try:
        rc = RunConfig.from_dict(d)
    except SpinPhaseError:
        return
    assert all(math.isfinite(v) for v in rc.params.values() if isinstance(v, float))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(sorted(BASE)),
       pairs=st.lists(st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)), max_size=4))
def test_parse_cli_builds_or_exits_typed(command, pairs):
    try:
        rc = parse_cli([command] + [token for pair in pairs for token in pair])
    except SpinPhaseError:
        return
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert rc.command == command
