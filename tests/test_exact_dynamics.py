import cmath
import inspect
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    co_rotating_eigenstate,
    hamiltonian_matrix,
    mean_spin_rows,
    uniform_rotation_exact,
)
from spinphase import (
    BranchJump,
    ConfigError,
    DegenerateField,
    DomainError,
    GridTooCoarse,
    IntegratorConfig,
    NormalizationError,
    OverlapLoss,
    SpinPhaseError,
    Trajectory,
    bloch_series,
    bloch_to_spinor,
    cone_3d,
    constant,
    exponential_midpoint_schrodinger,
    extract_total_phase,
    integrate_bloch,
    integrate_schrodinger,
    polynomial_angle,
    run_phase_budget,
    sample,
    sinusoidal_angle,
    StepSizeUnderflow,
    aa_geometric_phase_coordinate,
    aa_geometric_phase_solid_angle,
    spinor_to_bloch,
    tracked_eigenvector,
    uniform_rotation,
    user_tabulated,
)
from spinphase import exact_dynamics, field_profiles, geometric_phases
from spinphase.exact_dynamics import (
    MAX_GRID_NODES,
    _cf4_states,
    _rhs,
    magnus4_schrodinger,
)
from conftest import METHODS, needs_scipy, uniform_grid_cfg

UNIFORM = uniform_rotation(1.0, 0.1)
R2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# Spin map
# ---------------------------------------------------------------------------

def test_spin_map_examples():
    assert np.allclose(spinor_to_bloch([1.0, 0.0]), [0.0, 0.0, 1.0])
    assert np.allclose(spinor_to_bloch([R2, R2]), [1.0, 0.0, 0.0])
    # pins the conjugation convention of the component formulas
    assert np.allclose(spinor_to_bloch([R2, 1j * R2]), [0.0, 1.0, 0.0])


def test_spin_map_rejects_garbage_norm():
    with pytest.raises(NormalizationError):
        spinor_to_bloch([1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_norm_checks_reject_non_finite_entries(bad):
    # abs(nan - 1) > tol is False, so a check written that way would pass a NaN state
    for slot in range(4):  # re/im of up, re/im of dn
        psi = np.array([R2, R2], dtype=complex)
        psi.view(float)[slot] = bad
        for validate in (exact_dynamics.as_spinor, spinor_to_bloch):
            with pytest.raises(NormalizationError):
                validate(psi)
    for slot in range(3):
        S = np.array([0.0, 0.6, 0.8])
        S[slot] = bad
        with pytest.raises(NormalizationError):
            exact_dynamics.as_bloch(S)


def test_initial_states_off_the_unit_norm_by_1e_6_are_rejected():
    # a defect of 1e-10 is renormalized away; 1e-6 is past the 1e-9 tolerance
    prof, t_span = uniform_rotation(1.0, 0.1), (0.0, 1.0)
    for scale, ok in ((1.0 + 1e-10, True), (1.0 + 1e-6, False), (1.0 - 1e-6, False)):
        for integrate, state in ((integrate_schrodinger, [0.6 * scale, 0.8j * scale]),
                                 (integrate_bloch, [0.0, 0.6 * scale, 0.8 * scale])):
            if ok:
                assert len(integrate(prof, state, t_span).times) > 1
            else:
                with pytest.raises(NormalizationError):
                    integrate(prof, state, t_span)


@pytest.mark.parametrize("method", METHODS)
def test_non_finite_initial_state_raises_before_integrating(method):
    with pytest.raises(NormalizationError):
        integrate_schrodinger(uniform_rotation(1.0, 0.1), [math.nan, 0.0], (0.0, 10.0),
                              IntegratorConfig(method=method))


def test_bloch_to_spinor_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        assert np.allclose(spinor_to_bloch(bloch_to_spinor(v)), v, atol=1e-12)


# ---------------------------------------------------------------------------
# Right-hand sides against their reference forms
# ---------------------------------------------------------------------------

_TAUS = np.linspace(0.0, 40.0, 161)
RHS_PROFILES = {
    "constant": constant(1.3, theta0=0.7, phi0=2.1),
    "uniform_rotation": uniform_rotation(1.1, 0.2, theta_init=0.4),
    "polynomial_angle": polynomial_angle(0.9, [0.3, -0.2, 0.05]),
    "sinusoidal_angle": sinusoidal_angle(1.0, 0.6, 0.5, theta_offset=0.2, b_amp=0.3, b_freq=0.7),
    "cone_3d": cone_3d(1.2, 0.9, 0.3, phi_init=0.5),
    "user_tabulated": user_tabulated(_TAUS, 1.0 + 0.2 * np.sin(0.3 * _TAUS),
                                     0.8 + 0.5 * np.sin(0.2 * _TAUS), 0.4 * _TAUS - 1.0),
}


@pytest.mark.parametrize("name", sorted(RHS_PROFILES))
def test_rhs_matches_reference_forms(name):
    # the written-out components against -i H psi and np.cross(B, S); the
    # times and states are generic, so by != 0 and every sign is exercised
    prof = RHS_PROFILES[name]
    spinor, bloch = _rhs("spinor", prof), _rhs("bloch", prof)
    rng = np.random.default_rng(11)
    for t in (1.0, 7.3, 22.9, 38.4):
        s = sample(prof, t)
        for _ in range(5):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            got, want = spinor(t, psi), -1j * (hamiltonian_matrix(s) @ psi)
            assert got.dtype == np.complex128
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
            S = rng.normal(size=3)
            assert np.array_equal(bloch(t, S), np.cross(s.B_vec, S))


@pytest.mark.parametrize("name", sorted(RHS_PROFILES))
def test_field_vector_is_sample_b_vec_as_python_floats(name):
    prof = RHS_PROFILES[name]
    for t in (1.0, 7.3, 22.9, 38.4, np.float64(13.7)):
        vec = field_profiles._field_vector(prof, t)
        assert [type(v) for v in vec] == [float, float, float]
        assert np.array(vec).tobytes() == sample(prof, t).B_vec.tobytes()  # bitwise


@pytest.mark.parametrize("name", sorted(RHS_PROFILES))
def test_field_vector_on_a_grid_is_sample_b_vec(name):
    prof = RHS_PROFILES[name]
    lo, hi = max(prof.t_domain[0], -300.0), min(prof.t_domain[1], 300.0)
    t = np.linspace(lo, hi, 20003)
    vec = field_profiles._field_vector(prof, t)
    assert np.stack(vec, axis=1).tobytes() == sample(prof, t).B_vec.tobytes()  # bitwise


def test_mean_spin_components_match_the_stacked_form_bitwise():
    # unnormalized spinors, with signed zero parts so the signs of zero spins are pinned too
    rng = np.random.default_rng(17)
    psi = (rng.normal(size=(4000, 2)) + 1j * rng.normal(size=(4000, 2))) * rng.uniform(
        0.5, 2.0, size=(4000, 1))
    psi[::7, 1] = 0.0
    psi[1::7, 1] = -0.0
    psi[2::7, 0] = complex(-0.0, 0.0)
    psi[3::7] = psi[3::7].real
    for states in (psi, psi[0], psi.reshape(2, 2000, 2)):
        got, want = exact_dynamics._mean_spin(states), mean_spin_rows(states)
        assert got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@needs_scipy
@pytest.mark.parametrize("integrate, y0", [(integrate_schrodinger, [0.6, 0.8j]),
                                           (integrate_bloch, [0.0, 0.6, 0.8])])
def test_solver_rhs_makes_no_sample_call(integrate, y0, monkeypatch):
    counts = {"rhs": 0, "sample_in_rhs": 0}
    inside = [False]
    rhs, sample_fn = exact_dynamics._rhs, field_profiles.sample

    def counting_rhs(kind, profile):
        f = rhs(kind, profile)

        def wrapped(t, y):
            counts["rhs"] += 1
            inside[0] = True
            try:
                return f(t, y)
            finally:
                inside[0] = False
        return wrapped

    def counting_sample(profile, t):
        counts["sample_in_rhs"] += inside[0]
        return sample_fn(profile, t)

    monkeypatch.setattr(exact_dynamics, "_rhs", counting_rhs)
    monkeypatch.setattr(exact_dynamics, "sample", counting_sample)
    monkeypatch.setattr(field_profiles, "sample", counting_sample)
    cfg = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11, method="DOP853")
    integrate(RHS_PROFILES["sinusoidal_angle"], y0, (0.0, 5.0), cfg)
    assert counts["rhs"] > 100
    assert counts["sample_in_rhs"] == 0


def test_rhs_raises_domain_error_outside_t_domain():
    prof = uniform_rotation(1.0, 0.1, t_domain=(0.0, 10.0))
    for kind, y in (("spinor", np.array([1.0, 0.0j])), ("bloch", np.array([0.0, 0.0, 1.0]))):
        for t in (-0.5, 10.5):
            with pytest.raises(DomainError) as want:
                sample(prof, t)
            with pytest.raises(DomainError) as got:
                _rhs(kind, prof)(t, y)
            assert str(got.value) == str(want.value)


def test_rhs_raises_degenerate_field_below_b_min():
    # |B| = 1 + 0.5 sin(t) dips to 0.5 at t = 3 pi / 2, below the floor 0.6
    prof = sinusoidal_angle(1.0, 0.3, 0.5, b_amp=0.5, b_freq=1.0, b_min=0.6)
    t = 1.5 * math.pi
    for kind, y in (("spinor", np.array([1.0, 0.0j])), ("bloch", np.array([0.0, 0.0, 1.0]))):
        with pytest.raises(DegenerateField) as want:
            sample(prof, t)
        with pytest.raises(DegenerateField) as got:
            _rhs(kind, prof)(t, y)
        assert str(got.value) == str(want.value)
        _rhs(kind, prof)(0.5 * math.pi, y)  # |B| = 1.5 there


# ---------------------------------------------------------------------------
# Spinor integration
# ---------------------------------------------------------------------------

def test_stationary_eigenstate_accumulates_dynamical_phase(tight_cfg):
    traj = integrate_schrodinger(constant(1.0), [1.0, 0.0], (0.0, 10.0), tight_cfg)
    expect = np.array([cmath.exp(-0.5j * 10.0), 0.0])
    assert np.max(np.abs(traj.states[-1] - expect)) <= 1e-9


def test_equator_state_flips_sign_after_full_turn(tight_cfg):
    psi0 = np.array([R2, R2])
    traj = integrate_schrodinger(constant(1.0), psi0, (0.0, 2 * math.pi), tight_cfg)
    assert np.max(np.abs(traj.states[-1] + psi0)) <= 1e-9


def test_rotating_frame_eigenfrequency(tight_cfg):
    # in the frame co-rotating with the field the problem is static with
    # frequency sqrt(B^2 + omega^2); seeding on the tracked branch the
    # extracted phase is -(1/2) sqrt(1.01) t up to third-order wobble
    traj = integrate_schrodinger(UNIFORM, tracked_eigenvector(UNIFORM, 0.0), (0.0, 50.0),
                                 tight_cfg)
    assert extract_total_phase(traj)[-1] == pytest.approx(-0.5 * math.sqrt(1.01) * 50.0, abs=5e-6)


def test_norm_drift_within_contract(tight_cfg):
    traj = integrate_schrodinger(UNIFORM, tracked_eigenvector(UNIFORM, 0.0), (0.0, 200.0), tight_cfg)
    assert traj.metadata["norm_drift"] <= 10.0 * tight_cfg.rel_tol * 200.0


def test_initial_state_must_be_normalized(tight_cfg):
    with pytest.raises(NormalizationError):
        integrate_schrodinger(UNIFORM, [1.0, 0.5], (0.0, 1.0), tight_cfg)


def test_time_reversal(tight_cfg):
    psi0 = tracked_eigenvector(UNIFORM, 0.0)
    fwd = integrate_schrodinger(UNIFORM, psi0, (0.0, 50.0), tight_cfg)
    psi_end = fwd.states[-1] / np.linalg.norm(fwd.states[-1])
    back = integrate_schrodinger(UNIFORM, psi_end, (50.0, 0.0), tight_cfg)
    assert np.linalg.norm(back.states[-1] - psi0) <= 100.0 * tight_cfg.rel_tol


def test_domain_error_outside_profile(tight_cfg):
    prof = uniform_rotation(1.0, 0.1, t_domain=(0.0, 5.0))
    with pytest.raises(DomainError):
        integrate_schrodinger(prof, [1.0, 0.0], (0.0, 6.0), tight_cfg)


def test_degenerate_field_aborts_integration(tight_cfg):
    from spinphase import DegenerateField, user_tabulated

    taus = np.linspace(0.0, 10.0, 200)
    prof = user_tabulated(taus, B=1.0 - 0.12 * taus, theta=np.zeros_like(taus), b_min=0.5)
    with pytest.raises(DegenerateField):
        integrate_schrodinger(prof, [1.0, 0.0], (0.1, 9.0), tight_cfg)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.builds(constant, st.floats(1e-3, 50.0)),
    st.builds(uniform_rotation, st.floats(1e-3, 50.0), st.floats(-2.0, 2.0)),
    st.builds(sinusoidal_angle, st.floats(1e-3, 50.0), st.floats(-1.0, 1.0),
              st.floats(-1.0, 1.0), b_amp=st.floats(0.0, 0.5), b_freq=st.floats(0.0, 2.0)),
    st.builds(cone_3d, st.floats(1e-3, 50.0), st.floats(0.1, 3.0), st.floats(-2.0, 2.0)),
), st.floats(-50.0, 50.0), st.floats(1e-6, 2e3), st.booleans())
@example(uniform_rotation(1.0, 0.1), 1e6, 123.4, False)
@example(constant(1.0), 32.0, 0.001, False)
def test_default_grid_has_every_romberg_stride(profile, t0, length, backward):
    # the interval count is the span's node need, at least 256, rounded up to a multiple
    # of 8, so the trajectory integrals take the strides 1, 2, 4 and 8; the examples are
    # grids whose node roundoff exceeds 1e-9 of a step and passes as uniform all the same
    t_span = (t0 + length, t0) if backward else (t0, t0 + length)
    grid = exact_dynamics._grid_for(profile, t_span, IntegratorConfig())
    intervals = len(grid) - 1
    need = max(256, math.ceil(exact_dynamics._span_nodes(profile, t_span)))
    assert intervals % 8 == 0 and need <= intervals < need + 8
    assert (grid[0], grid[-1]) == t_span
    assert geometric_phases._strides(grid) == [1, 2, 4, 8]


def test_dense_grid_must_match_span():
    cfg = IntegratorConfig(dense_output_grid=np.linspace(0.0, 1.0, 10))
    with pytest.raises(DomainError):
        integrate_schrodinger(UNIFORM, [1.0, 0.0], (0.0, 2.0), cfg)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dense_grid_with_non_finite_node_raises_domain_error(method, bad):
    cfg = IntegratorConfig(dense_output_grid=[0.0, bad, 10.0], method=method)
    with pytest.raises(DomainError, match="finite"):
        integrate_schrodinger(UNIFORM, [1.0, 0.0], (0.0, 10.0), cfg)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("grid", [[0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 3.0]])
def test_dense_grid_not_strictly_monotonic_raises_before_stepping(method, grid, monkeypatch):
    def no_stepping(*args, **kwargs):
        raise AssertionError("the grid was integrated before it was checked")

    monkeypatch.setattr(exact_dynamics, "_cf4_states", no_stepping)
    monkeypatch.setattr(exact_dynamics, "_run_solver", no_stepping)
    cfg = IntegratorConfig(dense_output_grid=grid, method=method)
    with pytest.raises(DomainError, match="strictly monotonic"):
        integrate_schrodinger(UNIFORM, [1.0, 0.0], (0.0, 3.0), cfg)
    with pytest.raises(DomainError, match="strictly monotonic"):
        integrate_bloch(UNIFORM, [0.0, 0.0, 1.0], (0.0, 3.0), cfg)


@pytest.mark.parametrize("method", METHODS)
def test_empty_span_raises_before_stepping_on_every_entry_point(method, monkeypatch):
    def no_stepping(*args, **kwargs):
        raise AssertionError("an empty span was stepped before it was checked")

    for stepper in ("_cf4_states", "_stepped_states", "_run_solver"):
        monkeypatch.setattr(exact_dynamics, stepper, no_stepping)
    cfg = IntegratorConfig(method=method)
    span = (3.0, 3.0)
    runs = [lambda: integrate_schrodinger(UNIFORM, [1.0, 0.0], span, cfg),
            lambda: integrate_bloch(UNIFORM, [0.0, 0.0, 1.0], span, cfg),
            lambda: run_phase_budget(UNIFORM, span, cfg),
            lambda: magnus4_schrodinger(UNIFORM, [1.0, 0.0], span, 8),
            lambda: exponential_midpoint_schrodinger(UNIFORM, [1.0, 0.0], span, 8)]
    for run in runs:
        with pytest.raises(DomainError, match=r"t_span \(3.0, 3.0\) is empty"):
            run()


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("grid, t_span", [([], (0.0, 1.0)), ([[0.0, 1.0]], (0.0, 1.0)),
                                          ([0.0], (0.0, 0.0))])
def test_dense_grid_of_fewer_than_two_nodes_or_not_1d_raises_domain_error(method, grid, t_span):
    cfg = IntegratorConfig(dense_output_grid=grid, method=method)
    with pytest.raises(DomainError, match="1-D with at least two nodes"):
        integrate_schrodinger(UNIFORM, [1.0, 0.0], t_span, cfg)
    with pytest.raises(DomainError, match="1-D with at least two nodes"):
        integrate_bloch(UNIFORM, [0.0, 0.0, 1.0], t_span, cfg)


def test_integrator_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(rel_tol=0.5)
    with pytest.raises(ConfigError):
        IntegratorConfig(abs_tol=0.0)
    with pytest.raises(ConfigError):
        IntegratorConfig(max_step=-1.0)


@pytest.mark.parametrize("kw", [{"rel_tol": "x"}, {"abs_tol": None}, {"max_step": "x"},
                                {"rel_tol": True}, {"method": "nope"},
                                # magnus4 and DOP853 are the only methods
                                {"method": "RK23"}, {"method": "RK45"}, {"method": "Radau"},
                                {"method": "BDF"}])
def test_integrator_config_bad_types_raise_config_error(kw):
    with pytest.raises(ConfigError):
        IntegratorConfig(**kw)


def test_integrator_config_stores_float_tolerances():
    cfg = IntegratorConfig(max_step=5)
    assert type(cfg.max_step) is float and cfg == IntegratorConfig(max_step=5.0)


# ---------------------------------------------------------------------------
# Bloch integration
# ---------------------------------------------------------------------------

def test_uniform_precession_closed_form(tight_cfg):
    # dS/dt = B x S with B = +z rotates x toward y (counterclockwise)
    traj = integrate_bloch(constant(1.0), [1.0, 0.0, 0.0], (0.0, math.pi / 2), tight_cfg)
    assert np.max(np.abs(traj.states[-1] - [0.0, 1.0, 0.0])) <= 1e-9
    mid = traj.states[len(traj.times) // 2]
    t_mid = traj.times[len(traj.times) // 2]
    assert np.allclose(mid, [math.cos(t_mid), math.sin(t_mid), 0.0], atol=1e-9)


def test_aligned_spin_is_stationary(tight_cfg):
    traj = integrate_bloch(constant(1.0), [0.0, 0.0, 1.0], (0.0, 20.0), tight_cfg)
    assert np.max(np.abs(traj.states - np.array([0.0, 0.0, 1.0]))) <= 1e-10


def test_ehrenfest_consistency():
    # matched initial conditions: the mean spin of the spinor run equals the
    # directly integrated classical spin, in-plane and on a cone where all
    # three field components are non-zero
    t_span = (0.0, 50.0)
    cfg = uniform_grid_cfg(t_span, 2001, rel_tol=1e-10, abs_tol=1e-13)
    tilted = bloch_to_spinor([0.6, -0.48, 0.64])
    for prof, psi0 in ((UNIFORM, tracked_eigenvector(UNIFORM, 0.0)),
                       (cone_3d(1.0, 0.8, 0.1, phi_init=0.3), tilted)):
        straj = integrate_schrodinger(prof, psi0, t_span, cfg)
        btraj = integrate_bloch(prof, spinor_to_bloch(psi0), t_span, cfg)
        assert np.max(np.abs(bloch_series(straj) - btraj.states)) <= 1e-8


@needs_scipy
def test_adaptive_error_drops_with_max_step():
    # capping the step turns the embedded pair into a fixed-step method of
    # order >= 4, so halving the cap must cut the error at least 4x
    prof = constant(1.0)
    psi0 = np.array([R2, R2])
    exact = np.array([R2 * cmath.exp(-0.5j * 10.0), R2 * cmath.exp(0.5j * 10.0)])
    errs = []
    for h in (0.5, 0.25):
        cfg = IntegratorConfig(rel_tol=1e-2, abs_tol=1e-2, max_step=h, method="DOP853")
        traj = integrate_schrodinger(prof, psi0, (0.0, 10.0), cfg)
        errs.append(np.linalg.norm(traj.states[-1] - exact))
    assert errs[0] / errs[1] >= 4.0


# ---------------------------------------------------------------------------
# Exponential midpoint stepper
# ---------------------------------------------------------------------------

def test_exponential_midpoint_is_second_order():
    psi0 = tracked_eigenvector(UNIFORM, 0.0)
    ref = integrate_schrodinger(
        UNIFORM, psi0, (0.0, 50.0), IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    ).states[-1]
    errs = [
        np.linalg.norm(exponential_midpoint_schrodinger(UNIFORM, psi0, (0.0, 50.0), n).states[-1] - ref)
        for n in (2000, 4000)
    ]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


def test_exponential_midpoint_preserves_norm_to_roundoff():
    # drift accumulates only through floating-point roundoff, ~ n_steps ulp
    traj = exponential_midpoint_schrodinger(UNIFORM, [1.0, 0.0], (0.0, 500.0), 20000)
    norms = np.sum(np.abs(traj.states) ** 2, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 20000 * 1e-15
    spins = bloch_series(exponential_midpoint_schrodinger(
        UNIFORM, bloch_to_spinor([0.0, 0.0, 1.0]), (0.0, 500.0), 20000))
    assert np.max(np.abs(np.sum(spins**2, axis=1) - 1.0)) <= 20000 * 1e-15


def test_exponential_midpoint_bloch_matches_adaptive(tight_cfg):
    t_span = (0.0, 30.0)
    ref = integrate_bloch(UNIFORM, [0.0, 0.0, 1.0], t_span, tight_cfg)
    fix = bloch_series(exponential_midpoint_schrodinger(
        UNIFORM, bloch_to_spinor([0.0, 0.0, 1.0]), t_span, 30000))
    assert np.linalg.norm(ref.states[-1] - fix[-1]) <= 1e-6


@pytest.mark.parametrize("n_steps", [0, -3, 2.5, True])
@pytest.mark.parametrize("stepper", [exponential_midpoint_schrodinger, magnus4_schrodinger])
def test_exponential_midpoint_rejects_invalid_step_count(stepper, n_steps):
    with pytest.raises(ConfigError, match="n_steps"):
        stepper(UNIFORM, [1.0, 0.0], (0.0, 10.0), n_steps)


def _stepper_reference(profile, psi0, t_span, n_steps):
    # the sequential loop the prefix product replaced: one 2x2 product per step
    t0, t1 = t_span
    h = (t1 - t0) / n_steps
    s = sample(profile, t0 + (np.arange(n_steps) + 0.5) * h)
    ang = 0.5 * s.B_mag * h
    c, si = np.cos(ang), np.sin(ang)
    nx, ny, nz = (s.B_vec / s.B_mag[:, None]).T
    u = np.empty((n_steps, 2, 2), dtype=complex)
    u[:, 0, 0], u[:, 0, 1] = c - 1j * si * nz, -1j * si * (nx - 1j * ny)
    u[:, 1, 0], u[:, 1, 1] = -1j * si * (nx + 1j * ny), c + 1j * si * nz
    states = np.empty((n_steps + 1, 2), dtype=complex)
    states[0] = psi0
    for k in range(n_steps):
        states[k + 1] = u[k] @ states[k]
    return states


@pytest.mark.parametrize("name", ["cone_3d", "sinusoidal_angle", "polynomial_angle",
                                  "user_tabulated"])
def test_exponential_midpoint_matches_sequential_loop(name):
    prof = RHS_PROFILES[name]
    psi0 = np.array([0.6, 0.8j * cmath.exp(0.7j)])
    for t_span in ((0.0, 30.0), (30.0, 0.0)):
        for n_steps in (1, 2, 3, 5, 8, 1000, 20001):
            traj = exponential_midpoint_schrodinger(prof, psi0, t_span, n_steps)
            want = _stepper_reference(prof, psi0, t_span, n_steps)
            assert traj.states.shape == want.shape
            assert np.max(np.abs(traj.states - want)) <= 1e-12, (t_span, n_steps)
            assert traj.times[0] == t_span[0] and len(traj.times) == n_steps + 1


def test_exponential_midpoint_step_cost():
    # on a 2-vCPU Xeon the sequential loop took 2.2-3.5 us per step, the prefix product 0.2-0.3
    prof = RHS_PROFILES["cone_3d"]
    n_steps = 10**5
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        exponential_midpoint_schrodinger(prof, [1.0, 0.0], (0.0, 100.0), n_steps)
        best = min(best, time.perf_counter() - t0)
    assert best / n_steps <= 1.5e-6


@pytest.mark.parametrize("stepper", [exponential_midpoint_schrodinger, magnus4_schrodinger])
def test_exponential_midpoint_step_count_capped(stepper):
    # n_steps + 1 nodes would pass the grid cap: rejected before anything is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="limit"):
            stepper(UNIFORM, [1.0, 0.0], (0.0, 10.0), MAX_GRID_NODES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# Fourth-order commutator-free Magnus (CF4) stepper and integrator
# ---------------------------------------------------------------------------

def test_magnus4_is_fourth_order():
    psi0 = np.array([0.6, 0.8j])
    errs = []
    steps = (1000, 2000, 4000)
    for n in steps:
        traj = magnus4_schrodinger(UNIFORM, psi0, (0.0, 200.0), n)
        errs.append(np.linalg.norm(traj.states[-1] - uniform_rotation_exact(1.0, 0.1, psi0, 200.0)))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope == pytest.approx(-4.0, abs=0.2)


def test_magnus4_preserves_norm_to_roundoff():
    n = 10**5
    traj = magnus4_schrodinger(RHS_PROFILES["cone_3d"], [0.6, 0.8j], (0.0, 500.0), n)
    assert np.max(np.abs(np.sum(np.abs(traj.states) ** 2, axis=1) - 1.0)) <= n * 1e-15
    spins = bloch_series(magnus4_schrodinger(
        RHS_PROFILES["cone_3d"], bloch_to_spinor([0.0, 0.0, 1.0]), (0.0, 500.0), n))
    assert np.max(np.abs(np.sum(spins**2, axis=1) - 1.0)) <= n * 1e-15


def test_magnus4_matches_rotating_frame_oracle(tight_cfg):
    # the fixed-step stepper, and the integrator on its default grid at every output node
    psi0 = tracked_eigenvector(UNIFORM, 0.0)
    for traj, bound in ((magnus4_schrodinger(UNIFORM, psi0, (0.0, 200.0), 16000), 1e-10),
                        (integrate_schrodinger(UNIFORM, psi0, (0.0, 50.0), tight_cfg), 1e-9)):
        exact = uniform_rotation_exact(1.0, 0.1, psi0, traj.times)
        assert np.max(np.linalg.norm(traj.states - exact, axis=1)) <= bound


@pytest.mark.parametrize("theta_c", [0.6, 1.0])
def test_magnus4_cyclic_cone_phases(theta_c):
    # seeded with the co-rotating eigenstate (spin up along B(0) - omega z), one cone period
    # ends on psi0 times the phase pi - omega_rot T/2, and the AA phase is -pi (1 - cos chi)
    omega = 0.05
    prof = cone_3d(1.0, theta_c=theta_c, omega_phi=omega)
    chi = math.atan2(math.sin(theta_c), math.cos(theta_c) - omega)
    psi0 = np.array([math.cos(0.5 * chi), math.sin(0.5 * chi)], dtype=complex)
    period = 2.0 * math.pi / omega
    traj = magnus4_schrodinger(prof, psi0, (0.0, period), 20000)
    omega_rot = math.sqrt(1.0 - 2.0 * omega * math.cos(theta_c) + omega**2)
    end = np.vdot(psi0, traj.states[-1])
    assert abs(end - cmath.exp(1j * (math.pi - 0.5 * omega_rot * period))) <= 1e-9
    aa_exact = -math.pi * (1.0 - math.cos(chi))
    assert aa_geometric_phase_coordinate(traj) == pytest.approx(aa_exact, abs=1e-8)
    assert aa_geometric_phase_solid_angle(traj) == pytest.approx(aa_exact, abs=1e-8)


@needs_scipy
@pytest.mark.parametrize("name", sorted(RHS_PROFILES))
def test_magnus4_matches_dop853_on_every_kind(name):
    prof, t_span, rel_tol = RHS_PROFILES[name], (1.0, 30.0), 1e-10
    grid = np.linspace(*t_span, 601)
    psi0, S0 = np.array([0.6, 0.8j * cmath.exp(0.7j)]), [0.48, -0.6, 0.64]
    cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-13, dense_output_grid=grid)
    ref_cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-13, dense_output_grid=grid,
                               method="DOP853")
    assert cfg.method == "magnus4"
    bound = 10.0 * rel_tol * (t_span[1] - t_span[0])
    for integrate, y0 in ((integrate_schrodinger, psi0), (integrate_bloch, S0)):
        got, want = integrate(prof, y0, t_span, cfg), integrate(prof, y0, t_span, ref_cfg)
        assert got.metadata["method"] == "magnus4" and want.metadata["method"] == "DOP853"
        assert np.array_equal(got.times, want.times)
        assert np.max(np.abs(got.states - want.states)) <= bound
        assert got.metadata["norm_drift"] <= 1e-12


def test_magnus4_refines_from_max_step_until_richardson_estimate_holds():
    psi0, t_span = tracked_eigenvector(UNIFORM, 0.0), (0.0, 50.0)
    grid = np.linspace(*t_span, 101)  # intervals of 0.5
    subs = []
    for rel_tol in (1e-6, 1e-9, 1e-12):
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-14, dense_output_grid=grid)
        meta = integrate_schrodinger(UNIFORM, psi0, t_span, cfg).metadata
        assert meta["richardson_error"] <= rel_tol + 1e-14
        subs.append(meta["substeps"])
    assert subs == sorted(subs) and subs[0] < subs[-1]
    # max_step 0.5/3 starts k at 3, so every k tried is 3 * 2**j
    cfg = IntegratorConfig(rel_tol=1e-6, dense_output_grid=grid, max_step=0.5 / 3)
    k = integrate_schrodinger(UNIFORM, psi0, t_span, cfg).metadata["substeps"]
    assert k % 3 == 0 and (k // 3) & (k // 3 - 1) == 0


@pytest.mark.parametrize("max_step", [0.01 / 10001, 1e-320])
def test_magnus4_step_count_past_node_limit_raises_before_stepping(max_step):
    grid = np.linspace(0.0, 10.0, 1001)  # 1000 intervals of 0.01
    cfg = IntegratorConfig(dense_output_grid=grid, max_step=max_step)
    tracemalloc.start()
    try:
        with pytest.raises(StepSizeUnderflow, match="limit"):
            integrate_schrodinger(UNIFORM, [1.0, 0.0], (0.0, 10.0), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_steppers_compose_blocks_like_one_block(monkeypatch):
    prof, psi0 = RHS_PROFILES["sinusoidal_angle"], np.array([0.6, 0.8j])
    grid = np.cumsum(np.r_[1.0, np.linspace(0.1, 0.9, 7)])  # uneven intervals
    whole = [exponential_midpoint_schrodinger(prof, psi0, (1.0, 9.0), 23).states,
             *(_cf4_states(prof, psi0, grid, k) for k in (1, 3, 7))]
    monkeypatch.setattr(exact_dynamics, "_BLOCK_STEPS", 5)
    blocked = [exponential_midpoint_schrodinger(prof, psi0, (1.0, 9.0), 23).states,
               *(_cf4_states(prof, psi0, grid, k) for k in (1, 3, 7))]
    for a, b in zip(whole, blocked):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-14


@pytest.mark.parametrize("pair_block", [3, 7])
def test_pair_sub_blocks_give_the_same_states(monkeypatch, pair_block):
    # every step's pair is made from its own step alone, so sub-blocks of any size give
    # the same bits; step counts end before, at and after a default sub-block's edge
    prof, psi0 = RHS_PROFILES["cone_3d"], np.array([0.6, 0.8j])

    def runs():
        states = []
        for n in (1, 4095, 4096, 4097, 3 * 4096 + 5):
            states += [stepper(prof, psi0, (0.0, 40.0), n).states
                       for stepper in (exponential_midpoint_schrodinger, magnus4_schrodinger)]
        # k = 3 steps per interval: kept steps straddle the sub-blocks' edges
        states += [_cf4_states(prof, psi0, np.linspace(0.0, 40.0, m + 1), 3)
                   for m in (1, 1365, 1366, 4097)]
        return states

    default = runs()
    monkeypatch.setattr(exact_dynamics, "_PAIR_BLOCK", pair_block)
    for a, b in zip(default, runs()):
        assert np.array_equal(a, b)


def test_stepper_peak_memory_is_a_few_times_its_states():
    # the kept states, one block's pairs and one sub-block of temporaries
    tracemalloc.start()
    try:
        states = magnus4_schrodinger(RHS_PROFILES["cone_3d"], [1.0, 0.0], (0.0, 60.0),
                                     60000).states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * states.nbytes


@pytest.mark.parametrize("stepper", [exponential_midpoint_schrodinger, magnus4_schrodinger])
def test_stepper_peak_memory_at_a_million_steps(stepper):
    # the states take 32 bytes per step; sampling block by block keeps the rest bounded
    tracemalloc.start()
    try:
        stepper(RHS_PROFILES["cone_3d"], [1.0, 0.0], (0.0, 1000.0), 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 191 * 2**20


# ---------------------------------------------------------------------------
# Phase extraction
# ---------------------------------------------------------------------------

def test_tracked_phase_constant_field(tight_cfg):
    traj = integrate_schrodinger(constant(1.0), [1.0, 0.0], (0.0, 10.0), tight_cfg)
    phases = extract_total_phase(traj, "tracked_eigenvector")
    assert np.max(np.abs(phases - (-0.5 * traj.times))) <= 1e-9


def test_initial_state_phase_mod_2pi_at_full_turn(tight_cfg):
    # the overlap passes through zero halfway (the state becomes orthogonal
    # to the reference), so series unwrapping legitimately refuses ...
    psi0 = np.array([R2, R2])
    t_span = (0.0, 2 * math.pi)
    traj = integrate_schrodinger(constant(1.0), psi0, t_span, uniform_grid_cfg(t_span, 4097))
    with pytest.raises(BranchJump):
        extract_total_phase(traj, "initial_state")
    # ... while the endpoint value is well defined mod 2*pi and equals -pi
    end_overlap = complex(np.vdot(psi0, traj.states[-1]))
    assert abs(end_overlap - (-1.0)) <= 1e-9  # arg = pi == -pi (mod 2pi)


def test_branch_jump_on_coarse_grid():
    t_span = (0.0, 2.0)
    cfg = uniform_grid_cfg(t_span, 4)  # ~1.7 rad of phase per node step
    traj = integrate_schrodinger(constant(5.0), [1.0, 0.0], t_span, cfg)
    with pytest.raises(BranchJump):
        extract_total_phase(traj, "tracked_eigenvector")


def _unwrap_remainder_form(angles, error, what):
    """``_unwrap`` with the remainder (d + pi) % (2 pi) - pi taken on every step d."""
    steps = (np.diff(angles) + np.pi) % (2.0 * np.pi) - np.pi
    worst = float(np.max(np.abs(steps))) if steps.size else 0.0
    if worst > 0.5 * np.pi:
        raise error(f"{what} step {worst:.3g} rad exceeds pi/2; refine the grid")
    return np.concatenate([[0.0], np.cumsum(steps)])


def _outcome(fn, *args):
    try:
        return fn(*args).tobytes()
    except SpinPhaseError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("error, what", [(BranchJump, "phase"), (GridTooCoarse, "azimuth")])
def test_unwrap_matches_the_remainder_form_bitwise(error, what):
    # the remainder is skipped where d + pi already lies in [0, 2 pi); the wrapped
    # steps, the unwrapped series and the guard's error must not change
    pi = math.pi
    edges = [pi, -pi, np.nextafter(pi, 4.0), np.nextafter(-pi, -4.0),
             np.nextafter(pi, 0.0), np.nextafter(-pi, 0.0), 0.5 * pi, -0.5 * pi,
             np.nextafter(0.5 * pi, 4.0), np.nextafter(-0.5 * pi, -4.0)]
    multiples = [2.0 * pi * k + e for k in (-3, -2, -1, 1, 2, 3)
                 for e in (0.0, 1e-12, -1e-12, 0.4, -0.4, 0.5 * pi, -0.5 * pi)]
    rng = np.random.default_rng(5)
    inside = rng.uniform(-0.5 * pi, 0.5 * pi, 300)
    series = [np.cumsum(np.concatenate([[0.3], inside])),
              np.cumsum(np.concatenate([[0.3], inside, multiples])),
              np.array([0.0]), np.array([1.0, 1.0 + 2.0 * pi])]
    series += [np.cumsum(np.concatenate([[0.3], inside[:20], [d], inside[20:40]]))
               for d in edges + multiples]
    series += [np.array([0.0, d]) for d in edges + multiples]
    raised = 0
    for angles in series:
        want = _outcome(_unwrap_remainder_form, angles, error, what)
        assert _outcome(exact_dynamics._unwrap, angles, error, what) == want, angles
        raised += isinstance(want, tuple)
    assert 10 <= raised <= len(series) - 10  # both outcomes well represented


def test_overlap_loss_when_tracking_wrong_branch(tight_cfg):
    # the chain is an SU(2) matrix [[a, -conj(b)], [b, conj(a)]], so the lower
    # branch is the column orthogonal to the tracked (upper) one
    a, b = tracked_eigenvector(UNIFORM, 0.0)
    lower = np.array([-np.conj(b), np.conj(a)])
    traj = integrate_schrodinger(UNIFORM, lower, (0.0, 1.0), tight_cfg)
    with pytest.raises(OverlapLoss):
        extract_total_phase(traj, "tracked_eigenvector")
    # one reference and one branch: the tracked eigenvector of the upper level
    assert list(inspect.signature(tracked_eigenvector).parameters) == ["profile", "t"]


def test_overlap_loss_threshold_is_one_half(tight_cfg):
    # a seed at overlap 0.3 with the tracked branch keeps about that overlap over a short
    # span: below the 0.5 floor it raises, and at 0.7 it unwraps
    a, b = tracked_eigenvector(UNIFORM, 0.0)
    upper, lower = np.array([a, b]), np.array([-np.conj(b), np.conj(a)])
    for overlap, fails in ((0.3, True), (0.7, False)):
        psi0 = overlap * upper + math.sqrt(1.0 - overlap**2) * lower
        traj = integrate_schrodinger(UNIFORM, psi0, (0.0, 1.0), tight_cfg)
        if fails:
            with pytest.raises(OverlapLoss, match="dropped to 0.3"):
                extract_total_phase(traj, "tracked_eigenvector")
        else:
            assert np.isfinite(extract_total_phase(traj, "tracked_eigenvector")).all()


def test_phase_reference_validation(tight_cfg):
    traj = integrate_schrodinger(UNIFORM, [1.0, 0.0], (0.0, 1.0), tight_cfg)
    with pytest.raises(DomainError):
        extract_total_phase(traj, "nonsense")
    btraj = integrate_bloch(UNIFORM, [0.0, 0.0, 1.0], (0.0, 1.0), tight_cfg)
    with pytest.raises(DomainError):
        extract_total_phase(btraj)
    bare = Trajectory(times=traj.times, states=traj.states)
    with pytest.raises(DomainError, match="requires the trajectory's profile"):
        extract_total_phase(bare, "tracked_eigenvector")


# ---------------------------------------------------------------------------
# Trajectory container
# ---------------------------------------------------------------------------

def test_trajectory_rejects_non_monotonic_times():
    with pytest.raises(DomainError):
        Trajectory(times=np.array([0.0, 1.0, 0.5]), states=np.zeros((3, 2)))
    with pytest.raises(DomainError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 2)))


def test_trajectory_rejects_an_unknown_kind():
    # the states' shape is the kind: bloch_series would cast complex spins to real, and
    # every consumer would read a wider array by its first columns
    times = np.array([0.0, 1.0])
    for states in (np.zeros(2), np.zeros((2, 4)), np.zeros((2, 3), complex), np.zeros((2, 1)),
                   np.zeros((2, 2, 1))):
        with pytest.raises(DomainError, match=r"\(n, 2\) spinors or real \(n, 3\) spins"):
            Trajectory(times, states, UNIFORM)
    assert Trajectory(times, np.zeros((2, 3), int)).states.shape == (2, 3)


def test_trajectory_states_and_times_must_be_numbers():
    times, psi = np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]])
    for bad_times, states in ((times, np.array([["a", "b"], ["c", "d"]])),
                              (np.array(["0", "1"]), psi), (times + 0j, psi)):
        with pytest.raises(DomainError, match="must be numbers and its times real numbers"):
            Trajectory(bad_times, states)
    assert Trajectory(np.array([0, 1]), psi).times.dtype.kind == "i"


def test_trajectory_times_must_be_a_1d_grid():
    for times, states in ((1.0, np.zeros((1, 2))), (np.zeros((2, 1)), np.zeros((2, 2)))):
        with pytest.raises(DomainError, match="times must be 1-D"):
            Trajectory(times, states)


def test_trajectory_takes_no_kind():
    times, psi = np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]], complex)
    with pytest.raises(TypeError):
        Trajectory(times, psi, kind="spinor", profile=UNIFORM)
    # a kind given in its old place is never stored as the profile
    for kind in ("spinor", "bloch"):
        with pytest.raises(ConfigError, match="FieldProfile or None"):
            Trajectory(times, psi, kind, UNIFORM)
    with pytest.raises(ConfigError, match="FieldProfile or None"):
        Trajectory(times, psi, "uniform_rotation")
    traj = Trajectory(times, psi, UNIFORM, {"method": "given"})
    assert (traj.profile, traj.metadata) == (UNIFORM, {"method": "given"})
    assert list(inspect.signature(Trajectory).parameters) == ["times", "states", "profile",
                                                              "metadata"]


def test_a_spin_path_record_gives_the_spinor_run_s_phases():
    traj = integrate_schrodinger(UNIFORM, tracked_eigenvector(UNIFORM, 0.0), (0.0, 50.0))
    spins = Trajectory(traj.times, bloch_series(traj), profile=UNIFORM)
    assert geometric_phases.phi_dyn_expect(traj) == pytest.approx(-24.8759283, abs=1e-7)
    assert abs(geometric_phases.phi_dyn_expect(spins)
               - geometric_phases.phi_dyn_expect(traj)) <= 1e-12
    for route in (aa_geometric_phase_coordinate, aa_geometric_phase_solid_angle):
        assert abs(route(spins) - route(traj)) <= 1e-12
    for reference in ("tracked_eigenvector", "initial_state"):
        with pytest.raises(DomainError, match="needs a spinor trajectory"):
            extract_total_phase(spins, reference)


def test_aliased_grid_raises_branch_jump():
    # 0.5*|B|*dt = 12.5 rad per node step: the wrapped steps alias to a tiny phase
    t_span = (0.0, 50.0)
    cfg = uniform_grid_cfg(t_span, 3)
    psi0 = tracked_eigenvector(UNIFORM, 0.0)
    traj = integrate_schrodinger(UNIFORM, psi0, t_span, cfg)
    for reference in ("tracked_eigenvector", "initial_state"):
        with pytest.raises(BranchJump, match="a-priori"):
            extract_total_phase(traj, reference)


def test_phase_budget_on_an_aliased_grid_raises_branch_jump():
    # the library twin of `simulate --grid-n 3 --t-end 50`, which exits 5: the given
    # grid is run as given, never refined
    with pytest.raises(BranchJump, match="a-priori"):
        run_phase_budget(UNIFORM, (0, 50), uniform_grid_cfg((0, 50), 3))
