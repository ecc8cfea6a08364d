import cmath
import inspect
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    IntegratorConfig,
    NormalizationError,
    OverlapLoss,
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
    sample,
    schrodinger_phase,
    sinusoidal_angle,
    StepSizeUnderflow,
    aa_geometric_phase_coordinate,
    aa_geometric_phase_solid_angle,
    spinor_to_bloch,
    tracked_eigenvector,
    trajectory_to_csv,
    uniform_rotation,
    user_tabulated,
)
from spinphase import exact_dynamics, field_profiles
from spinphase.exact_dynamics import (
    MAX_GRID_NODES,
    _cf4_states,
    _csv,
    _rhs,
    magnus4_schrodinger,
)
from conftest import uniform_grid_cfg

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


@pytest.mark.parametrize("method", ["magnus4", "DOP853"])
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
    traj, phases = schrodinger_phase(
        UNIFORM, tracked_eigenvector(UNIFORM, 0.0), (0.0, 50.0), tight_cfg
    )
    assert phases[-1] == pytest.approx(-0.5 * math.sqrt(1.01) * 50.0, abs=5e-6)


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
    prof = user_tabulated(taus, B=1.0 - 0.12 * taus, theta=np.zeros_like(taus),
                          fd_step=1e-3, b_min=0.5)
    with pytest.raises(DegenerateField):
        integrate_schrodinger(prof, [1.0, 0.0], (0.1, 9.0), tight_cfg)


def test_dense_grid_must_match_span():
    cfg = IntegratorConfig(dense_output_grid=np.linspace(0.0, 1.0, 10))
    with pytest.raises(DomainError):
        integrate_schrodinger(UNIFORM, [1.0, 0.0], (0.0, 2.0), cfg)


@pytest.mark.parametrize("method", ["magnus4", "DOP853"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_dense_grid_with_non_finite_node_raises_domain_error(method, bad):
    cfg = IntegratorConfig(dense_output_grid=[0.0, bad, 10.0], method=method)
    with pytest.raises(DomainError, match="finite"):
        integrate_schrodinger(UNIFORM, [1.0, 0.0], (0.0, 10.0), cfg)


@pytest.mark.parametrize("method", ["magnus4", "DOP853"])
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


@pytest.mark.parametrize("n_steps", [0, -3, 2.5])
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


def test_branch_jump_on_coarse_grid_and_auto_refine():
    prof = constant(5.0)
    t_span = (0.0, 2.0)
    cfg = uniform_grid_cfg(t_span, 4)  # ~1.7 rad of phase per node step
    traj = integrate_schrodinger(prof, [1.0, 0.0], t_span, cfg)
    with pytest.raises(BranchJump):
        extract_total_phase(traj, "tracked_eigenvector")
    # the combined runner refines the grid and succeeds
    _, phases = schrodinger_phase(prof, [1.0, 0.0], t_span, cfg)
    assert phases[-1] == pytest.approx(-5.0, abs=1e-8)


def test_schrodinger_phase_validates_its_grid_once_across_refinements(monkeypatch):
    calls = []
    span_nodes = exact_dynamics._span_nodes
    monkeypatch.setattr(exact_dynamics, "_span_nodes",
                        lambda *args: calls.append(args) or span_nodes(*args))
    t_span = (0.0, 2.0)
    traj, _ = schrodinger_phase(constant(5.0), [1.0, 0.0], t_span, uniform_grid_cfg(t_span, 4))
    assert len(traj.times) > 4 and len(calls) == 1
    # one reference and one branch: the tracked eigenvector of the upper level
    assert list(inspect.signature(schrodinger_phase).parameters) == [
        "profile", "psi0", "t_span", "cfg"]
    assert list(inspect.signature(tracked_eigenvector).parameters) == ["profile", "t"]


def test_overlap_loss_when_tracking_wrong_branch(tight_cfg):
    # the chain is an SU(2) matrix [[a, -conj(b)], [b, conj(a)]], so the lower
    # branch is the column orthogonal to the tracked (upper) one
    a, b = tracked_eigenvector(UNIFORM, 0.0)
    lower = np.array([-np.conj(b), np.conj(a)])
    traj = integrate_schrodinger(UNIFORM, lower, (0.0, 1.0), tight_cfg)
    with pytest.raises(OverlapLoss):
        extract_total_phase(traj, "tracked_eigenvector")


def test_phase_reference_validation(tight_cfg):
    traj = integrate_schrodinger(UNIFORM, [1.0, 0.0], (0.0, 1.0), tight_cfg)
    with pytest.raises(DomainError):
        extract_total_phase(traj, "nonsense")
    btraj = integrate_bloch(UNIFORM, [0.0, 0.0, 1.0], (0.0, 1.0), tight_cfg)
    with pytest.raises(DomainError):
        extract_total_phase(btraj)


# ---------------------------------------------------------------------------
# Trajectory container and export
# ---------------------------------------------------------------------------

def test_trajectory_rejects_non_monotonic_times():
    with pytest.raises(DomainError):
        Trajectory(times=np.array([0.0, 1.0, 0.5]), states=np.zeros((3, 2)), kind="spinor")
    with pytest.raises(DomainError):
        Trajectory(times=np.array([0.0, 1.0]), states=np.zeros((3, 2)), kind="spinor")


def test_csv_export_round_trips_17_digits(tight_cfg):
    traj = integrate_schrodinger(UNIFORM, tracked_eigenvector(UNIFORM, 0.0), (0.0, 1.0), tight_cfg)
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,re_up,im_up,re_dn,im_dn"
    t, re_up, im_up, re_dn, im_dn = map(float, lines[-1].split(","))
    assert t == traj.times[-1]
    assert re_up == traj.states[-1][0].real and im_dn == traj.states[-1][1].imag
    # reference: one f-string per row
    assert lines[1:] == [f"{t:.17g},{u.real:.17g},{u.imag:.17g},{d.real:.17g},{d.imag:.17g}"
                         for t, (u, d) in zip(traj.times, traj.states)]

    btraj = integrate_bloch(UNIFORM, [0.0, 0.0, 1.0], (0.0, 1.0), tight_cfg)
    blines = trajectory_to_csv(btraj).strip().split("\n")
    assert blines[0] == "t,Sx,Sy,Sz"
    assert float(blines[-1].split(",")[3]) == btraj.states[-1][2]
    assert blines[1:] == [f"{t:.17g},{x:.17g},{y:.17g},{z:.17g}"
                          for t, (x, y, z) in zip(btraj.times, btraj.states)]


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
    assert _csv("a,b,c,d,e,f,g", table).encode() == _per_cell_csv("a,b,c,d,e,f,g", table).encode()
    assert _csv("a,b", np.empty((0, 2))) == "a,b\n"


@pytest.mark.parametrize("part", range(4))
def test_csv_of_log_uniform_magnitudes_is_the_per_cell_form(part):
    # four parts of 2.5e5 cells each: 1e6 magnitudes from 1e-6 to 1e18, both signs
    rng = np.random.default_rng([2007, part])
    cells = rng.choice([-1.0, 1.0], 250_000) * 10.0 ** rng.uniform(-6.0, 18.0, 250_000)
    table = cells.reshape(-1, 10)
    assert _csv("h", table).encode() == _per_cell_csv("h", table).encode()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(columns=st.integers(1, 6), cells=st.lists(st.floats(), max_size=60))
def test_csv_of_any_float_table_is_the_per_cell_form(columns, cells):
    table = np.array(cells[:len(cells) // columns * columns], dtype=float).reshape(-1, columns)
    assert _csv("h", table) == _per_cell_csv("h", table)


def test_csv_labels_lead_their_rows():
    table = [[0.1, -0.0], [math.nan, 1e-5], [2.5, 1e17]]
    assert _csv("id,a,b", table, labels=["x", "y", "z"]) == (
        "id,a,b\nx,0.10000000000000001,-0\ny,nan,1.0000000000000001e-05\nz,2.5,1e+17\n")


def test_csv_scratch_memory_does_not_grow_with_rows():
    table = np.random.default_rng(3).standard_normal((20000, 14))
    tracemalloc.start()
    try:
        text = _csv("h", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rendered blocks and the joined text, plus a few MiB of scratch for one block
    assert peak < 2 * len(text) + 4 * 2**20


def test_aliased_grid_raises_branch_jump_and_refines_to_oracle():
    # 0.5*|B|*dt = 12.5 rad per node step: the wrapped steps alias to a tiny phase
    t_span = (0.0, 50.0)
    cfg = uniform_grid_cfg(t_span, 3)
    psi0 = tracked_eigenvector(UNIFORM, 0.0)
    traj = integrate_schrodinger(UNIFORM, psi0, t_span, cfg)
    for reference in ("tracked_eigenvector", "initial_state"):
        with pytest.raises(BranchJump, match="a-priori"):
            extract_total_phase(traj, reference)
    _, phases = schrodinger_phase(UNIFORM, psi0, t_span, cfg)
    assert phases[-1] == pytest.approx(-0.5 * math.sqrt(1.01) * 50.0, abs=1e-5)
