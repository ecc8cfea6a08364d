"""Grid calls against stacked scalar calls.

``sample``, ``quasi_stationary``, ``tracked_eigenvector``,
``spinor_solution`` and ``classical_solution`` (and the matrix oracle
``transform_chain``) take a float or a 1-D time grid through the same
expressions, so a grid call must equal the scalar calls at its nodes,
stacked, and must raise whenever one of them raises.
"""

import contextlib
import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinphase import (
    DomainError,
    PerturbativeRegimeViolation,
    SolutionConstants,
    SpinPhaseError,
    classical_solution,
    cone_3d,
    constant,
    is_in_plane,
    polynomial_angle,
    quasi_stationary,
    sample,
    sinusoidal_angle,
    spinor_solution,
    tracked_eigenvector,
    uniform_rotation,
    user_tabulated,
)
from spinphase.adiabatic_engine import params_from_sample
from spinphase.field_profiles import _field_vector
from spinphase.geometric_phases import loop_from_profile
from oracles import transform_chain

SAMPLE_FIELDS = ("B_vec", "B_mag", "theta", "phi", "theta_dot", "theta_ddot",
                 "phi_dot", "phi_ddot", "B_dot")
QS_FIELDS = ("s_total", "s0", "s1", "s2")
CHAIN_FIELDS = ("u0", "u1", "u2", "r0", "r1", "r2", "u_total", "r_total")
CONSTANTS = SolutionConstants(0.6, 0.8j)


def _tabulated(B0, b_amp, theta0, rate, with_phi, epsilon):
    taus = np.linspace(-12.0, 12.0, 49)
    phi = 0.3 * taus if with_phi else None
    return user_tabulated(taus, B0 * (1.0 + b_amp * np.sin(taus)), theta0 * np.sin(rate * taus),
                          phi, epsilon=epsilon)


def _chain(profile, t):
    s = sample(profile, t)
    return transform_chain(s.theta, params_from_sample(s))


B0 = st.floats(0.5, 2.0)
ANGLE = st.floats(-3.0, 3.0)
RATE = st.floats(-0.3, 0.3)
EPS = st.floats(0.5, 1.5)
PROFILES = {
    "constant": st.builds(constant, B0, ANGLE, st.sampled_from([0.0, 0.7]), epsilon=EPS),
    "uniform_rotation": st.builds(uniform_rotation, B0, RATE, ANGLE, epsilon=EPS),
    "polynomial_angle": st.builds(polynomial_angle, B0, st.lists(RATE, min_size=1, max_size=4),
                                  epsilon=EPS),
    "sinusoidal_angle": st.builds(sinusoidal_angle, B0, st.floats(-1.0, 1.0), RATE, ANGLE,
                                  b_amp=st.floats(-0.5, 0.5), b_freq=RATE, epsilon=EPS),
    "cone_3d": st.builds(cone_3d, B0, st.floats(0.2, 2.9), RATE, ANGLE, epsilon=EPS),
    "user_tabulated": st.builds(_tabulated, B0, st.floats(-0.5, 0.5), st.floats(-1.0, 1.0),
                                RATE, st.booleans(), EPS),
    # flat tables (phi=None) are in-plane, so the chain runs on them too
    "user_tabulated_flat": st.builds(_tabulated, B0, st.floats(-0.5, 0.5), st.floats(-1.0, 1.0),
                                     RATE, st.just(False), EPS),
}


def _assert_grid_matches_nodes(fn, ts, fields, atol=0.0):
    """fn(ts) equals the stacked fn(t) to 1e-15 relative plus ``atol``, or both raise."""
    try:
        nodes = [fn(float(t)) for t in ts]
    except PerturbativeRegimeViolation:
        with pytest.raises(PerturbativeRegimeViolation):
            fn(ts)
        return
    grid = fn(ts)
    for name in fields:
        get = operator.attrgetter(name) if name else (lambda x: x)
        assert get(grid).shape == (len(ts),) + np.shape(get(nodes[0]))
        np.testing.assert_allclose(get(grid), np.stack([get(n) for n in nodes]),
                                   rtol=1e-15, atol=atol, err_msg=name)


@pytest.mark.parametrize("kind", sorted(PROFILES))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data(), fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_grid_calls_equal_stacked_scalar_calls(kind, data, fractions):
    profile = data.draw(PROFILES[kind])
    lo, hi = max(profile.t_domain[0], -10.0), min(profile.t_domain[1], 10.0)
    ts = lo + (hi - lo) * np.array(fractions)
    assert sample(profile, float(ts[0])).B_vec.shape == (3,)
    assert np.ndim(sample(profile, float(ts[0])).theta_dot) == 0
    _assert_grid_matches_nodes(lambda t: sample(profile, t), ts, SAMPLE_FIELDS)
    _assert_grid_matches_nodes(lambda t: quasi_stationary(profile, t), ts, QS_FIELDS)
    assert is_in_plane(profile) or kind != "user_tabulated_flat"
    if is_in_plane(profile):
        _assert_grid_matches_nodes(lambda t: tracked_eigenvector(profile, t), ts, ("",))
        _assert_grid_matches_nodes(lambda t: _chain(profile, t), ts, CHAIN_FIELDS)
        # the phase is any function of t; the spinor's components carry a bound relative to
        # its unit norm, because b*up + conj(a)*dn cancels to a small component
        _assert_grid_matches_nodes(lambda t: classical_solution(CONSTANTS, profile, t, -0.5 * t),
                                   ts, ("",))
        _assert_grid_matches_nodes(lambda t: spinor_solution(CONSTANTS, profile, t, -0.5 * t),
                                   ts, ("",), atol=1e-15)
        with contextlib.suppress(PerturbativeRegimeViolation):
            chain = _chain(profile, ts)
            col = chain.u_total[..., 0]
            np.testing.assert_allclose(tracked_eigenvector(profile, ts),
                                       col / np.linalg.norm(col, axis=-1, keepdims=True),
                                       rtol=0.0, atol=1e-15)
            # the closed-form rotations against the chain's r_total on the final-frame spin
            c2, s2 = np.cos(-ts), np.sin(-ts)
            A, B, C = CONSTANTS.A, CONSTANTS.B, CONSTANTS.C
            s3 = np.stack([A * c2 + B * s2, B * c2 - A * s2, np.full_like(c2, C)], axis=-1)
            np.testing.assert_allclose(classical_solution(CONSTANTS, profile, ts, -0.5 * ts),
                                       (chain.r_total @ s3[..., None])[..., 0],
                                       rtol=0.0, atol=1e-15)


def test_grid_with_one_node_outside_domain_raises():
    profile = uniform_rotation(1.0, 0.1, t_domain=(0.0, 10.0))
    ts = np.array([1.0, 2.0, 10.5, 3.0])
    for fn in (sample, quasi_stationary, tracked_eigenvector):
        with pytest.raises(DomainError, match="t=10.5"):
            fn(profile, ts)
    with pytest.raises(DomainError, match="t=-1"):
        sample(profile, np.array([5.0, -1.0]))


@pytest.mark.parametrize("call", [
    lambda p: sample(p, np.array([])),
    lambda p: _field_vector(p, np.array([])),
    lambda p: tracked_eigenvector(p, np.array([])),
    lambda p: quasi_stationary(p, np.array([])),
    lambda p: loop_from_profile(p, (0.0, 10.0), 0),
], ids=["sample", "field_vector", "tracked_eigenvector", "quasi_stationary",
        "loop_from_profile"])
def test_empty_time_grid_raises_domain_error_naming_it(call):
    with pytest.raises(DomainError, match="time grid is empty"):
        call(uniform_rotation(1.0, 0.1))


@pytest.mark.parametrize("call", [
    sample,
    _field_vector,
    quasi_stationary,
    tracked_eigenvector,
    lambda p, t: spinor_solution(CONSTANTS, p, t, -0.5 * t),
    lambda p, t: classical_solution(CONSTANTS, p, t, -0.5 * t),
], ids=["sample", "field_vector", "quasi_stationary", "tracked_eigenvector", "spinor_solution",
        "classical_solution"])
def test_time_grid_of_more_than_one_axis_raises_domain_error(call):
    # the fields of a (2, 3) grid would come out with the grid's axes behind B_vec's
    with pytest.raises(DomainError, match=r"1-D array, got shape \(2, 3\)"):
        call(uniform_rotation(1.0, 0.1), np.array([[0.0, 1.0, 2.0], [10.0, 11.0, 12.0]]))


def test_grid_with_one_node_over_perturbative_guard_raises():
    # theta_dot = 0.2 t, so delta = |s1| = 0.6 at t = 3 only
    profile = polynomial_angle(1.0, [0.0, 0.0, 0.1])
    ts = np.array([0.0, 1.0, 3.0, 2.0])
    quasi_stationary(profile, ts[:2])
    tracked_eigenvector(profile, ts[:2])
    for fn in (quasi_stationary, tracked_eigenvector, _chain):
        with pytest.raises(PerturbativeRegimeViolation):
            fn(profile, ts)
    # theta = 0.1 t**3 is finite at t = 1e100, but theta_dot**2 overflows on the way to the
    # guard, which must still raise (a RuntimeWarning fails the test)
    cubic = polynomial_angle(1.0, [0.0, 0.0, 0.0, 0.1])
    for fn in (quasi_stationary, tracked_eigenvector):
        for t in (1e100, np.array([0.0, 1e100])):
            with pytest.raises(PerturbativeRegimeViolation):
                fn(cubic, t)


# times where the field is finite, where epsilon*t (epsilon <= 1.5 above) or a polynomial
# angle overflows, and non-finite times
TIMES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 1e308, 1e160, -1e100]),
    st.floats(),
)
# rates at which a param times the slow time overflows while the time is finite
HUGE = st.sampled_from([1e300, -1e300])
FAST = {
    "uniform_rotation": st.builds(uniform_rotation, B0, HUGE, ANGLE),
    "polynomial_angle": st.builds(polynomial_angle, B0, st.lists(HUGE, min_size=2, max_size=4)),
    "sinusoidal_angle": st.builds(sinusoidal_angle, B0, st.floats(-1.0, 1.0), HUGE,
                                  b_amp=st.floats(-0.5, 0.5), b_freq=HUGE),
    "cone_3d": st.builds(cone_3d, B0, st.floats(0.2, 2.9), HUGE, ANGLE),
}


def _values(result):
    """Every float in a result of sample, _field_vector, quasi_stationary or tracked_eigenvector."""
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    return np.concatenate([np.ravel(np.asarray(x, dtype=complex)) for x in result])


@pytest.mark.parametrize("kind", sorted(PROFILES))
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data(), times=st.lists(TIMES, min_size=1, max_size=4))
def test_field_layer_returns_finite_values_or_raises_typed(kind, data, times):
    # a RuntimeWarning fails this test too, so a value numpy only warns about is caught here
    profile = data.draw(st.one_of(PROFILES[kind], FAST.get(kind, st.nothing())))
    fns = [sample, _field_vector, quasi_stationary]
    if is_in_plane(profile):
        fns.append(tracked_eigenvector)
    for fn in fns:
        for t in [np.array(times), *times]:
            try:
                result = fn(profile, t)
            except SpinPhaseError:
                continue
            assert np.all(np.isfinite(_values(result))), (fn.__name__, t)
