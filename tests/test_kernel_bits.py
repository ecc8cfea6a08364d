"""The spin-path kernels against their allocating forms, bit for bit.

The library writes the SU(2) step pairs, their prefix products, the mean-spin
components, the fan area, the unwrapped angles and the trapezoid sums with
``out=`` and in-place arithmetic.  ``oracles`` keeps each one as one numpy
expression per quantity; every result here must have the same bits
(``view(np.uint64)``), signed zeros included, and every error the same type
and message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spinphase import (
    GridTooCoarse,
    SpinPhaseError,
    Trajectory,
    aa_geometric_phase_coordinate,
    aa_geometric_phase_solid_angle,
    bloch_series,
    cone_3d,
    constant,
    exponential_midpoint_schrodinger,
    magnus4_schrodinger,
    phi_dyn_expect,
    polynomial_angle,
    sinusoidal_angle,
    uniform_rotation,
)
from spinphase import exact_dynamics, geometric_phases
from spinphase.adiabatic_engine import _compose
from oracles import (
    aa_coordinate_allocating,
    aa_solid_angle_allocating,
    cf4_states_allocating,
    fan_area_appended,
    midpoint_states_allocating,
    prefix_products_allocating,
    spin_components_allocating,
    stieltjes_allocating,
    strides_allocating,
    su2_complex,
    unwrap_allocating,
)

FAST = settings(max_examples=150, deadline=None)
SLOW = settings(max_examples=25, deadline=None)


def _bits(x):
    x = np.ascontiguousarray(x)
    return x.shape, x.dtype.str, x.view(np.uint64).tobytes()


def _same(got, want):
    return _bits(got) == _bits(want)


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except SpinPhaseError as exc:
        return type(exc), str(exc)


# components with signed zeros, units and a wide range of magnitudes
COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                  st.floats(-10.0, 10.0, allow_subnormal=False))
STEP = st.one_of(st.sampled_from([0.0, -0.0, 0.1, -0.1]), st.floats(-20.0, 20.0))


@st.composite
def fields(draw, in_plane=False):
    m = draw(st.integers(1, 24))
    rows = draw(st.lists(st.tuples(COORD, st.sampled_from([0.0, -0.0]) if in_plane else COORD,
                                   COORD).filter(lambda v: v[0]**2 + v[1]**2 + v[2]**2 > 1e-200),
                         min_size=m, max_size=m))
    return [np.array(c) for c in zip(*rows)]


@FAST
@given(fields(), STEP, st.booleans())
def test_su2_matches_the_complex_form(b, h, step_array):
    h = np.full(len(b[0]), h) if step_array else h
    assert _same(exact_dynamics._su2(*b, h), np.stack(su2_complex(*b, h)))


@FAST
@given(fields(in_plane=True), st.floats(-20.0, -1e-3), st.booleans())
def test_su2_matches_the_complex_form_in_plane_at_negative_steps(b, h, step_array):
    # by = +-0 with a negative step: the signed zeros of the pair are the complex form's
    h = np.full(len(b[0]), h) if step_array else h
    assert _same(exact_dynamics._su2(*b, h), np.stack(su2_complex(*b, h)))


PART = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-3.0, 3.0))


@st.composite
def spinors(draw):
    shape = draw(st.sampled_from([(), (1,), (2,), (3,), (17,), (2, 3)]))
    n = int(np.prod(shape, dtype=int))
    parts = draw(st.lists(st.tuples(PART, PART, PART, PART).filter(
        lambda p: p[0]**2 + p[1]**2 + p[2]**2 + p[3]**2 > 1e-100), min_size=n, max_size=n))
    psi = np.array([[complex(p[0], p[1]), complex(p[2], p[3])] for p in parts])
    return psi.reshape(shape + (2,))


def _spinor(re_up, im_up, re_dn, im_dn):
    """A spinor of one node from the float.hex texts of its four parts."""
    parts = [float.fromhex(x) for x in (re_up, im_up, re_dn, im_dn)]
    return np.array([complex(*parts[:2]), complex(*parts[2:])])


# 0-d spinors whose |up| or |dn| numpy's scalar power squares one ulp off x * x
@FAST
@given(spinors())
@example(_spinor("0x1.2e1fbb9801782p+1", "0x1p+0", "0x1.2261abe2d10f8p+0", "-0x0p+0"))
@example(_spinor("-0x1.32dbfefc0bbb1p+1", "0x1.1aa34b5ac43c0p+0", "-0x1p-1",
                 "-0x1.c3d76ce1a965fp+0"))
@example(_spinor("-0x1.fbdeba1c7f004p-1", "-0x1.3c80c3fad5cddp+0", "0x1p+0",
                 "-0x1.658837f7d47f8p-1"))
def test_spin_components_match_the_allocating_form(psi):
    got = exact_dynamics._spin_components(psi)
    assert _same(got, np.stack(spin_components_allocating(psi)))
    assert _same(exact_dynamics._mean_spin(psi), np.stack(spin_components_allocating(psi), -1))


@st.composite
def unit_paths(draw):
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.floats(1e-3, 0.8))
    v = np.cumsum(rng.normal(scale=step, size=(n, 3)), axis=0) + rng.normal(size=3)
    v /= np.linalg.norm(v, axis=1)[:, None]
    if n > 2 and draw(st.booleans()):
        v[-1] = v[0]  # a closed path
    return v


@FAST
@given(unit_paths(), st.integers(1, 3))
def test_fan_area_matches_the_appended_form(path, stride):
    x, y, z = path[::stride].T
    assert _same(geometric_phases._fan_area(x, y, z), fan_area_appended(x, y, z))


@pytest.mark.parametrize("path", [
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # two nodes
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],  # closed octant
    [[0.6, 0.0, 0.8], [0.0, -0.6, 0.8], [-0.6, 0.0, 0.8], [0.0, 0.6, 0.8], [0.6, 0.0, 0.8]],
    [[0.0, 0.0, -1.0], [0.6, 0.0, -0.8]],  # from the far pole
])
def test_fan_area_matches_the_appended_form_on_short_and_closed_paths(path):
    x, y, z = np.array(path).T
    assert _same(geometric_phases._fan_area(x, y, z), fan_area_appended(x, y, z))


ANGLE = st.one_of(st.sampled_from([0.0, math.pi, -math.pi, 0.5 * math.pi]),
                  st.floats(-12.0, 12.0))


@FAST
@given(st.lists(ANGLE, min_size=1, max_size=50), st.booleans())
def test_unwrap_matches_the_allocating_form(steps, cumulative):
    # raw angles jump anywhere; cumulative small steps mostly unwrap cleanly
    angles = np.cumsum(np.array(steps) * 0.2) if cumulative else np.array(steps)
    for error, what in ((GridTooCoarse, "azimuth"), (exact_dynamics.BranchJump, "phase")):
        assert (_outcome(exact_dynamics._unwrap, angles, error, what)
                == _outcome(unwrap_allocating, angles, error, what))


@FAST
@given(st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)), min_size=1,
                max_size=60), st.integers(1, 3))
def test_stieltjes_matches_the_allocating_form(pairs, stride):
    x, f = (np.array(c)[::stride] for c in zip(*pairs))
    assert _same(geometric_phases._stieltjes(x, f), stieltjes_allocating(x, f))


@FAST
@given(st.integers(2, 140), st.floats(-100.0, 100.0), st.floats(-5.0, 5.0).filter(bool),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), st.integers(0, 2**32 - 1))
def test_strides_match_the_allocating_form(n, t0, dt, jitter, seed):
    times = t0 + dt * np.arange(n)
    times = times + jitter * abs(dt) * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    assert geometric_phases._strides(times) == strides_allocating(times)


@FAST
@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_prefix_products_match_the_allocating_scan(n, seed):
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    ab[:, rng.random(n) < 0.1] = 0.0
    want = ab.copy()
    prefix_products_allocating(*want)
    exact_dynamics._prefix_products(*ab, *np.empty((2, n), dtype=complex))
    assert _same(ab, want)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("carry", [False, True])
@pytest.mark.parametrize("in_place", [False, True])
def test_pair_product_matches_compose_in_place_and_not(n, carry, in_place):
    # one element in place is where a product taken over its own factor rounds apart,
    # in about half of all draws, so each case takes several
    rng = np.random.default_rng(n)
    for _ in range(20):
        hi = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        lo = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        lo = tuple(lo[:, 0]) if carry else tuple(lo)  # the carried state: numpy scalars
        want = np.array(_compose(*hi, *lo))
        out = hi if in_place else np.empty((2, n), dtype=complex)
        exact_dynamics._pair_product(hi, lo, out, np.empty((2, n), dtype=complex))
        assert _same(out, want)


B0 = st.floats(0.5, 2.0)
RATE = st.floats(-0.3, 0.3)
PROFILES = st.one_of(
    st.builds(constant, B0, st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.7])),
    st.builds(uniform_rotation, B0, RATE, st.floats(-3.0, 3.0)),
    st.builds(polynomial_angle, B0, st.lists(RATE, min_size=1, max_size=3)),
    st.builds(sinusoidal_angle, B0, st.floats(-1.0, 1.0), RATE, st.floats(-3.0, 3.0)),
    st.builds(cone_3d, B0, st.floats(0.2, 2.9), RATE, st.floats(-3.0, 3.0)),
)
SPAN = st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)).filter(
    lambda s: abs(s[1] - s[0]) > 1e-3)
PSI0 = st.sampled_from([(0.6, 0.8j), (1.0, 0.0), (0.0, 1.0), (0.8, -0.6)])


@SLOW
@given(PROFILES, PSI0, SPAN, st.integers(1, 600))
def test_steppers_match_the_allocating_steppers(profile, psi0, span, n_steps):
    # spans run forward and backward, so in-plane fields meet negative steps
    traj = exponential_midpoint_schrodinger(profile, psi0, span, n_steps)
    assert _same(traj.states, midpoint_states_allocating(profile, psi0, span, n_steps))
    psi = exact_dynamics.as_spinor(psi0)
    traj = magnus4_schrodinger(profile, psi0, span, n_steps)
    assert _same(traj.states, cf4_states_allocating(profile, psi, traj.times, 1))
    grid = traj.times[::max(1, n_steps // 7)]
    assert _same(exact_dynamics._cf4_states(profile, psi, grid, 3),
                 cf4_states_allocating(profile, psi, grid, 3))


@SLOW
@given(PROFILES, PSI0, SPAN, st.integers(2, 400), st.booleans())
def test_exact_geometric_phase_routes_match_the_allocating_routes(profile, psi0, span, n_steps,
                                                                  bloch):
    traj = exponential_midpoint_schrodinger(profile, psi0, span, n_steps)
    if bloch:  # a Bloch path a little off the sphere, as DOP853 leaves it
        traj = Trajectory(traj.times, bloch_series(traj) * 1.001, profile)
    assert (_outcome(aa_geometric_phase_coordinate, traj)
            == _outcome(aa_coordinate_allocating, traj))
    for refine in (True, False):
        assert (_outcome(aa_geometric_phase_solid_angle, traj, refine)
                == _outcome(aa_solid_angle_allocating, traj, refine))


@pytest.mark.parametrize("kind", ["spinor", "bloch"])
def test_one_node_path_gives_the_empty_integral(kind):
    profile = uniform_rotation(1.0, 0.1)
    state = [0.6, 0.8j] if kind == "spinor" else [0.0, 0.6, 0.8]
    traj = Trajectory(np.array([2.0]), np.array([state]), profile)
    values = [phi_dyn_expect(traj), aa_geometric_phase_coordinate(traj),
              aa_geometric_phase_solid_angle(traj), aa_geometric_phase_solid_angle(traj, False)]
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values), values
