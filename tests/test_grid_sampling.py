"""Grid calls against stacked scalar calls.

``sample``, ``quasi_stationary``, ``tracked_eigenvector``,
``transform_chain``, ``spinor_solution`` and ``classical_solution`` take a
float or a 1-D time grid through the same expressions, so a grid call must
equal the scalar calls at its nodes, stacked, and must raise whenever one of
them raises.
"""

import contextlib
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinphase import (
    DomainError,
    PerturbativeRegimeViolation,
    SolutionConstants,
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
    transform_chain,
    uniform_rotation,
    user_tabulated,
)
from spinphase.adiabatic_engine import params_from_sample

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
            col = _chain(profile, ts).u_total[..., 0]
            np.testing.assert_allclose(tracked_eigenvector(profile, ts),
                                       col / np.linalg.norm(col, axis=-1, keepdims=True),
                                       rtol=0.0, atol=1e-15)


def test_grid_with_one_node_outside_domain_raises():
    profile = uniform_rotation(1.0, 0.1, t_domain=(0.0, 10.0))
    ts = np.array([1.0, 2.0, 10.5, 3.0])
    for fn in (sample, quasi_stationary, tracked_eigenvector):
        with pytest.raises(DomainError, match="t=10.5"):
            fn(profile, ts)
    with pytest.raises(DomainError, match="t=-1"):
        sample(profile, np.array([5.0, -1.0]))


def test_grid_with_one_node_over_perturbative_guard_raises():
    # theta_dot = 0.2 t, so delta = |s1| = 0.6 at t = 3 only
    profile = polynomial_angle(1.0, [0.0, 0.0, 0.1])
    ts = np.array([0.0, 1.0, 3.0, 2.0])
    quasi_stationary(profile, ts[:2])
    tracked_eigenvector(profile, ts[:2])
    for fn in (quasi_stationary, tracked_eigenvector, _chain):
        with pytest.raises(PerturbativeRegimeViolation):
            fn(profile, ts)
