import cmath
import math

import numpy as np
import pytest

from spinphase import (
    AdiabaticParams,
    DomainError,
    IntegratorConfig,
    NormalizationError,
    PerturbativeRegimeViolation,
    SolutionConstants,
    classical_solution,
    cone_3d,
    constant,
    integrate_bloch,
    integrate_schrodinger,
    is_in_plane,
    phase_series,
    phi0,
    phi2,
    quasi_stationary,
    sample,
    sinusoidal_angle,
    sinusoidal_family,
    spinor_solution,
    spinor_to_bloch,
    tracked_eigenvector,
    uniform_rotation,
    user_tabulated,
)
from spinphase.adiabatic_engine import params_from_sample
from oracles import (
    hamiltonian_matrix,
    quasi_stationary_cartesian,
    quasi_stationary_spherical,
    transform_chain,
)

UNIFORM = uniform_rotation(1.0, 0.1)


# ---------------------------------------------------------------------------
# Adiabatic parameters
# ---------------------------------------------------------------------------

def test_params_uniform_rotation():
    p = params_from_sample(sample(UNIFORM, 3.0))
    assert p.delta == pytest.approx(0.1, rel=1e-12)
    assert p.gamma == 0.0
    assert p.b_eff == pytest.approx(1.005, rel=1e-12)


def test_params_static_limit():
    p = params_from_sample(sample(constant(2.5), 1.0))
    assert (p.delta, p.gamma, p.b_eff) == (0.0, 0.0, 2.5)


def test_params_sinusoidal_at_origin():
    p = params_from_sample(sample(sinusoidal_angle(1.0, theta0=0.3, Omega=0.05), 0.0))
    assert p.delta == pytest.approx(0.015, abs=1e-15)
    assert p.gamma == 0.0  # theta_ddot = -theta0 Omega^2 sin(Omega t) vanishes at t=0
    assert p.b_eff == pytest.approx(1.0 + 1.125e-4, rel=1e-12)


def test_gamma_tracks_delta_rate_with_varying_magnitude():
    # gamma = (d delta/dt)/B, checked against a centered difference of delta
    prof = sinusoidal_angle(1.0, theta0=0.3, Omega=0.2, b_amp=0.3, b_freq=0.13)
    h = 1e-6

    def params(t):
        return params_from_sample(sample(prof, t))

    for t in (0.7, 4.0, 11.3):
        g = params(t).gamma
        ddel = (params(t + h).delta - params(t - h).delta) / (2 * h)
        assert g == pytest.approx(ddel / sample(prof, t).B_mag, abs=1e-9)


# ---------------------------------------------------------------------------
# Transform chains
# ---------------------------------------------------------------------------

def test_chain_zero_order_factor():
    ch = transform_chain(math.pi / 2, AdiabaticParams(0.0, 0.0, 1.0))
    r2 = math.sqrt(2) / 2
    assert np.allclose(ch.u0, [[r2, -r2], [r2, r2]])
    assert np.allclose(ch.u1, np.eye(2))
    assert np.allclose(ch.u2, np.eye(2))
    assert np.allclose(ch.r0 @ [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])


def test_chain_first_order_factor():
    ch = transform_chain(0.0, AdiabaticParams(0.1, 0.0, 1.005))
    assert np.allclose(ch.u1, [[0.99875, -0.05j], [-0.05j, 0.99875]])
    assert np.allclose(ch.r1 @ [0.0, 0.0, 1.0], [0.0, -0.1, 0.995])


def test_chain_second_order_factor():
    ch = transform_chain(0.0, AdiabaticParams(0.0, 0.02, 1.0))
    assert np.allclose(ch.u2, [[1.0, 0.01], [-0.01, 1.0]])


def test_chain_identity_at_rest():
    ch = transform_chain(0.0, AdiabaticParams(0.0, 0.0, 1.0))
    for m in (ch.r0, ch.r1, ch.r2):
        assert np.allclose(m, np.eye(3))


def test_perturbative_guard():
    with pytest.raises(PerturbativeRegimeViolation):
        transform_chain(0.0, AdiabaticParams(0.6, 0.0, 1.0))
    with pytest.raises(PerturbativeRegimeViolation):
        transform_chain(0.0, AdiabaticParams(0.0, 0.5, 1.0))


@pytest.mark.parametrize("delta,gamma", [(0.1, 0.01), (0.3, 0.09), (0.05, 0.0025)])
def test_truncated_factors_nearly_unitary(delta, gamma):
    bound = 10.0 * (abs(delta) ** 3 + abs(gamma) ** 1.5)
    ch = transform_chain(0.7, AdiabaticParams(delta, gamma, 1.0))
    u = ch.u_total
    r = ch.r_total
    assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= bound
    assert np.linalg.norm(r.T @ r - np.eye(3)) <= bound
    assert np.linalg.norm(ch.u0.conj().T @ ch.u0 - np.eye(2)) <= 1e-15
    assert np.linalg.norm(ch.r0.T @ ch.r0 - np.eye(3)) <= 1e-14


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_chain_diagonalizes_hamiltonian(eps):
    # transforming H through the chain (with finite-difference frame rate)
    # must leave +-b_eff/2 on the diagonal up to third-order residuals
    prof = sinusoidal_angle(1.0, theta0=0.3, Omega=1.0, epsilon=eps)
    h = 1e-6

    def u_total(t):
        s = sample(prof, t)
        return transform_chain(s.theta, params_from_sample(s)).u_total

    for t in np.linspace(0.0, 2 * math.pi / eps, 23):
        t = float(t)
        u = u_total(t)
        udot = (u_total(t + h) - u_total(t - h)) / (2 * h)
        s = sample(prof, t)
        p = params_from_sample(s)
        h3 = u.conj().T @ hamiltonian_matrix(s) @ u - 1j * (u.conj().T @ udot)
        eps_eff = max(abs(p.delta), abs(p.gamma) ** 0.5, 1e-12)
        bound = 10.0 * eps_eff**3 * s.B_mag
        assert abs(h3[0, 1]) <= bound
        assert abs(h3[1, 0]) <= bound
        assert abs(h3[0, 0] - 0.5 * p.b_eff) <= bound
        assert abs(h3[1, 1] + 0.5 * p.b_eff) <= bound


# ---------------------------------------------------------------------------
# Constants map
# ---------------------------------------------------------------------------

def test_constants_map_examples():
    r2 = 1 / math.sqrt(2)
    for (alpha, beta), abc in [((1.0, 0.0), (0.0, 0.0, 1.0)), ((r2, r2), (1.0, 0.0, 0.0)),
                               ((r2, 1j * r2), (0.0, 1.0, 0.0))]:
        c = SolutionConstants(alpha, beta)
        assert (c.A, c.B, c.C) == pytest.approx(abc)


def test_constants_map_matches_spin_map_convention():
    # (A, B, C) of the amplitudes equals the mean spin of the same spinor
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = rng.normal(size=4)
        psi = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
        psi /= np.linalg.norm(psi)
        c = SolutionConstants(psi[0], psi[1])
        abc = np.array([c.A, c.B, c.C])
        assert np.allclose(abc, spinor_to_bloch(psi), atol=1e-12)
        assert np.dot(abc, abc) == pytest.approx(1.0, abs=1e-12)


def test_constants_map_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        SolutionConstants(1.0, 1.0)
    with pytest.raises(NormalizationError):
        SolutionConstants(0.5, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constants_map_rejects_non_finite_amplitudes(bad):
    for amplitude in (bad, complex(0.0, bad)):
        with pytest.raises(NormalizationError):
            SolutionConstants(amplitude, 0.0)
        with pytest.raises(NormalizationError):
            SolutionConstants(0.0, amplitude)


# ---------------------------------------------------------------------------
# Closed-form solutions
# ---------------------------------------------------------------------------

def test_spinor_solution_static_frame():
    c = SolutionConstants(1.0, 0.0)
    psi = spinor_solution(c, constant(1.0), 0.0, 0.0)
    assert np.allclose(psi, [1.0, 0.0])


def test_spinor_solution_first_order_tilt():
    c = SolutionConstants(1.0, 0.0)
    psi = spinor_solution(c, UNIFORM, 0.0, 0.0)  # theta=0, delta=0.1, gamma=0
    assert np.allclose(psi, [0.99875, -0.05j])


def test_spinor_solution_lower_branch_column():
    c = SolutionConstants(0.0, 1.0)
    prof = uniform_rotation(1.0, 1e-12, theta_init=math.pi / 2)
    psi = spinor_solution(c, prof, 0.0, 0.0)
    r2 = math.sqrt(2) / 2
    assert np.allclose(psi, [-r2, r2], atol=1e-10)


def test_classical_solution_aligned_reduces_to_quasi_stationary():
    c = SolutionConstants(1.0, 0.0)  # A=B=0, C=1
    prof = sinusoidal_angle(1.0, theta0=0.3, Omega=1.0, epsilon=0.1)
    for t in (0.0, 3.0, 11.0):
        s_sol = classical_solution(c, prof, t, phase=0.123)  # phase irrelevant for C=1
        qs = quasi_stationary(prof, t)
        assert np.max(np.abs(s_sol - qs.s_total)) <= 5 * 0.1**3


def test_classical_solution_transverse_start():
    c = SolutionConstants(1 / math.sqrt(2), 1 / math.sqrt(2))  # A=1, B=C=0
    psi = classical_solution(c, constant(1.0), 0.0, 0.0)
    assert np.allclose(psi, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("prof,eps_eff", [
    (uniform_rotation(1.0, 0.05), 0.05),
    (sinusoidal_angle(1.0, theta0=0.3, Omega=1.0, epsilon=0.1), 0.05),
])
def test_spinor_and_classical_solutions_correspond(prof, eps_eff):
    rng = np.random.default_rng(11)
    for _ in range(25):
        z = rng.normal(size=4)
        ab = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
        ab /= np.linalg.norm(ab)
        c = SolutionConstants(ab[0], ab[1])
        for t in (0.0, 2.0):
            phase = rng.uniform(-math.pi, math.pi)
            s_q = spinor_to_bloch(spinor_solution(c, prof, t, phase))
            s_c = classical_solution(c, prof, t, phase)
            assert np.max(np.abs(s_q - s_c)) <= 5 * eps_eff**3


CONSTANTS = SolutionConstants(math.cos(0.4), math.sin(0.4) * cmath.exp(0.7j))
EPS_LIST = (0.16, 0.08, 0.04, 0.02)


def _family_grid(eps):
    """theta = 0.3 sin(eps t) and 41 nodes over its period 2 pi/eps."""
    return sinusoidal_family(0.3, 1.0, 1.0)(eps), np.linspace(0.0, 2 * math.pi / eps, 41)


def _slope(errs):
    return np.polyfit(np.log(EPS_LIST), np.log(errs), 1)[0]


def _closed_form_slopes(phase):
    """Log-log slopes over eps of the closed forms' largest deviation from CF4.

    Over the horizon 2 pi/eps of theta = 0.3 sin(eps t), both closed forms,
    with generic constants and ``phase(profile, t)``, are compared at 41 nodes
    with CF4 runs seeded by their value at t = 0.  That value is normalized
    first: its norm is off by O(eps**3) (4e-8 for the spinor, 5e-7 for the
    spin at eps = 0.16), beyond the 1e-9 that ``as_spinor`` and ``as_bloch``
    accept.
    """
    errs = ([], [])
    for eps in EPS_LIST:
        prof, times = _family_grid(eps)
        phases = np.array([phase(prof, t) for t in times])
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, dense_output_grid=times)
        for err, solution, integrate in ((errs[0], spinor_solution, integrate_schrodinger),
                                         (errs[1], classical_solution, integrate_bloch)):
            closed = solution(CONSTANTS, prof, times, phases)
            ref = integrate(prof, closed[0] / np.linalg.norm(closed[0]), (0.0, times[-1]), cfg)
            err.append(np.max(np.linalg.norm(closed - ref.states, axis=1)))
    return [_slope(e) for e in errs]


def test_closed_forms_are_third_order_against_cf4():
    # the closed forms carry the phase phi0 + phi2 of b_eff = B (1 + delta**2/2)
    slopes = _closed_form_slopes(lambda prof, t: phi0(prof, (0.0, t)) + phi2(prof, (0.0, t)))
    assert slopes == pytest.approx([3.0, 3.0], abs=0.2)
    # without the second-order phase both fall to first order
    assert max(_closed_form_slopes(lambda prof, t: phi0(prof, (0.0, t)))) < 1.5


def test_second_order_machineries_agree_to_third_order():
    """The SO(3) and SU(2) chains agree to O(eps**3), as do the chain and the corrections.

    classical_solution is set against the spin of the normalized
    spinor_solution, and the spin of tracked_eigenvector against the
    normalized quasi_stationary s_total; each pair is one grid call per eps.
    """
    chains, tracked = [], []
    for eps in EPS_LIST:
        prof, times = _family_grid(eps)
        phi0s, phi2s = phase_series(sample(prof, times))
        phases = phi0s + phi2s
        psi = spinor_solution(CONSTANTS, prof, times, phases)
        s_q = [spinor_to_bloch(p) for p in psi / np.linalg.norm(psi, axis=1, keepdims=True)]
        chains.append(np.max(np.abs(classical_solution(CONSTANTS, prof, times, phases) - s_q)))
        s_qs = quasi_stationary(prof, times).s_total
        s_t = [spinor_to_bloch(p) for p in tracked_eigenvector(prof, times)]
        tracked.append(np.max(np.abs(s_t - s_qs / np.linalg.norm(s_qs, axis=1, keepdims=True))))
    # slopes 3.46 and 3.00
    assert _slope(chains) > 2.8 and _slope(tracked) > 2.8


def test_chain_ops_reject_out_of_plane_profiles():
    cone = cone_3d(1.0, theta_c=1.0, omega_phi=0.1)
    with pytest.raises(DomainError):
        spinor_solution(SolutionConstants(1.0, 0.0), cone, 0.0, 0.0)
    with pytest.raises(DomainError):
        classical_solution(SolutionConstants(1.0, 0.0), cone, 0.0, 0.0)
    with pytest.raises(DomainError):
        tracked_eigenvector(cone, 0.0)
    taus = np.linspace(0.0, 10.0, 11)
    tilted = user_tabulated(taus, np.ones_like(taus), 0.1 * taus, phi=np.full_like(taus, 1e-3))
    assert not is_in_plane(tilted)
    with pytest.raises(DomainError):
        tracked_eigenvector(tilted, 5.0)


def test_flat_tabulated_twin_tracks_like_its_analytic_profile():
    # phi=None tables sample phi == 0.0 exactly, so the twin is in-plane; the
    # difference is the spline's O(h**2) second-derivative error, 2e-7 at h = 0.1
    analytic = sinusoidal_angle(1.0, theta0=0.3, Omega=0.2)
    taus = np.linspace(-5.0, 45.0, 501)
    twin = user_tabulated(taus, np.ones_like(taus), 0.3 * np.sin(0.2 * taus))
    assert is_in_plane(twin)
    ts = np.linspace(0.0, 40.0, 81)
    assert np.max(np.abs(tracked_eigenvector(twin, ts) - tracked_eigenvector(analytic, ts))) <= 1e-6


# ---------------------------------------------------------------------------
# Quasi-stationary decomposition
# ---------------------------------------------------------------------------

def test_quasi_stationary_constant_field():
    qs = quasi_stationary(constant(1.0), 2.0)
    assert np.allclose(qs.s_total, [0.0, 0.0, 1.0])
    assert np.allclose(qs.s1, 0.0)
    assert np.allclose(qs.s2, 0.0)


def test_quasi_stationary_uniform_rotation_values():
    qs = quasi_stationary(UNIFORM, 0.0)
    assert np.allclose(qs.s1, [0.0, -0.1, 0.0], atol=1e-15)
    assert np.allclose(qs.s2, [0.0, 0.0, -0.005], atol=1e-15)
    assert np.allclose(qs.s_total, [0.0, -0.1, 0.995], atol=1e-15)


@pytest.mark.parametrize(
    "prof",
    [
        UNIFORM,
        sinusoidal_angle(1.0, theta0=0.3, Omega=1.0, epsilon=0.1),
        sinusoidal_angle(1.0, theta0=0.2, Omega=0.8, b_amp=0.2, b_freq=0.5, epsilon=0.1),
    ],
)
def test_quasi_stationary_views_agree_in_plane(prof):
    for t in np.linspace(0.0, 20.0, 9):
        qs = quasi_stationary(prof, float(t))
        cart = quasi_stationary_cartesian(prof, float(t))
        assert np.max(np.abs(qs.s_total - cart.s_total)) <= 1e-12
        assert np.max(np.abs(qs.s1 - cart.s1)) <= 1e-12
        assert np.max(np.abs(qs.s2 - cart.s2)) <= 1e-12


def test_quasi_stationary_spherical_view():
    prof = sinusoidal_angle(1.0, theta0=0.3, Omega=1.0, epsilon=0.1)
    for t in (0.5, 2.0, 4.4):
        s = sample(prof, t)
        radial, th_c, ph_c = quasi_stationary_spherical(prof, t)
        st, ct = math.sin(s.theta), math.cos(s.theta)
        e_r = np.array([st, 0.0, ct])
        e_th = np.array([ct, 0.0, -st])
        e_ph = np.array([0.0, 1.0, 0.0])
        rebuilt = radial * e_r + th_c * e_th + ph_c * e_ph
        qs = quasi_stationary(prof, t)
        assert np.max(np.abs(rebuilt - qs.s_total)) <= 1e-12
        # with constant magnitude the polar coefficient is -theta_ddot/B^2
        assert th_c == pytest.approx(-s.theta_ddot / s.B_mag**2, rel=1e-12)


@pytest.mark.parametrize("eps", [0.05, 0.1])
@pytest.mark.parametrize(
    "make",
    [
        lambda e: sinusoidal_angle(1.0, theta0=0.3, Omega=1.0, epsilon=e),
        lambda e: sinusoidal_angle(1.0, theta0=0.3, Omega=1.0, b_amp=0.2, b_freq=0.7, epsilon=e),
        lambda e: cone_3d(1.0, theta_c=0.7, omega_phi=1.0, epsilon=e),
    ],
)
def test_quasi_stationary_precession_residual(make, eps):
    # d/dt S_qs - B x S_qs must shrink like the third power of the scale;
    # the scale is the window-wide correction size, c calibrated at 10
    prof = make(eps)
    h = 1e-5
    ts = np.linspace(1.0, 1.0 + 2 * math.pi / eps, 13)
    eps_eff = max(
        max(np.linalg.norm(quasi_stationary(prof, float(t)).s1),
            np.linalg.norm(quasi_stationary(prof, float(t)).s2) ** 0.5)
        for t in ts
    )
    for t in ts:
        t = float(t)
        sdot = (quasi_stationary(prof, t + h).s_total - quasi_stationary(prof, t - h).s_total) / (2 * h)
        s = sample(prof, t)
        qs = quasi_stationary(prof, t)
        residual = sdot - np.cross(s.B_vec, qs.s_total)
        assert np.linalg.norm(residual) <= 10.0 * eps_eff**3 * s.B_mag**2


def test_quasi_stationary_norm_defect_third_order():
    for eps in (0.05, 0.1, 0.2):
        prof = sinusoidal_angle(1.0, theta0=0.3, Omega=1.0, epsilon=eps)
        worst = max(
            abs(np.dot(quasi_stationary(prof, float(t)).s_total,
                       quasi_stationary(prof, float(t)).s_total) - 1.0)
            for t in np.linspace(0.0, 2 * math.pi / eps, 11)
        )
        assert worst <= 10.0 * (0.3 * eps) ** 3


def test_quasi_stationary_guards_large_velocity():
    with pytest.raises(PerturbativeRegimeViolation):
        quasi_stationary(uniform_rotation(1.0, 0.9), 0.0)


def test_tracked_eigenvector_close_to_exact_rotating_frame_state():
    chi = math.atan2(0.1, 1.0)
    exact = np.array([math.cos(chi / 2), -1j * math.sin(chi / 2)])
    n = tracked_eigenvector(UNIFORM, 0.0)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
    assert 1.0 - abs(np.vdot(exact, n)) <= 1e-6  # differs at third order only
