import math
import time
import tracemalloc

import numpy as np
import pytest

from spinphase import (
    ArcTooLong,
    DegenerateField,
    DomainError,
    GridTooCoarse,
    IntegratorConfig,
    LoopNotClosed,
    MLoop,
    PoleSingularity,
    Trajectory,
    aa_geometric_phase_coordinate,
    aa_geometric_phase_solid_angle,
    berry_phi1,
    bloch_series,
    bloch_to_spinor,
    cone_3d,
    constant,
    exponential_midpoint_schrodinger,
    generalized_line_integral,
    integrate_bloch,
    integrate_schrodinger,
    loop_from_profile,
    phase_decomposition,
    phase_series,
    phi0,
    phi2,
    phi2_decomposition,
    phi_dyn_expect,
    sample,
    sinusoidal_angle,
    stokes_surface_integral,
    tracked_eigenvector,
    uniform_rotation,
)
from spinphase import geometric_phases
from spinphase.exact_dynamics import magnus4_schrodinger
from spinphase.field_profiles import DEFAULT_B_MIN
from conftest import needs_scipy, uniform_grid_cfg
from oracles import (
    aa_coordinate_rows,
    aa_solid_angle_rows,
    fan_area_rows,
    lhuilier_fan_area,
    phi2_byparts_direct,
)

R2 = 1 / math.sqrt(2)
ELLIPSE_PHI2 = -math.pi * 0.3**2 * 0.05 / 4.0  # sinusoidal loop, one period, B=1


def precession_traj(S0, t_span, n=4097, b=1.0):
    return integrate_bloch(constant(b), S0, t_span, uniform_grid_cfg(t_span, n, 1e-12, 1e-14))


# ---------------------------------------------------------------------------
# Quadrature phases
# ---------------------------------------------------------------------------

def test_phi0_constant_field():
    assert phi0(constant(1.0), (0.0, 200.0)) == pytest.approx(-100.0, abs=1e-8)


def test_phi0_modulated_magnitude_over_period():
    # B = 1 + 0.1 sin(0.01 t); the sine integrates away over a full period
    p = sinusoidal_angle(1.0, theta0=0.0, Omega=1.0, b_amp=0.1, b_freq=0.01)
    T = 2 * math.pi / 0.01
    assert phi0(p, (0.0, T)) == pytest.approx(-0.5 * T, abs=1e-8)


@pytest.mark.parametrize("functional", [
    phi0, phi2, berry_phi1, phi2_byparts_direct,
    lambda p, span: phi2_decomposition(p, span).term_accel,
    lambda p, span: phi2_decomposition(p, span).term_byparts,
    lambda p, span: phi2_decomposition(p, span).boundary,
], ids=["phi0", "phi2", "berry_phi1", "phi2_byparts_direct",
        "term_accel", "term_byparts", "boundary"])
def test_empty_span_is_plus_zero(functional):
    value = functional(uniform_rotation(1.0, 0.1), (3.0, 3.0))
    assert value == 0.0 and math.copysign(1.0, value) == 1.0


QUAD_CASES = {
    "uniform_rotation": (uniform_rotation(1.0, 0.1), (0.0, 200.0)),
    "sinusoidal_period": (sinusoidal_angle(1.0, theta0=0.3, Omega=0.05), (0.0, 40.0 * math.pi)),
    "cone_3d": (cone_3d(1.0, theta_c=1.0, omega_phi=0.05), (0.0, 40.0 * math.pi)),
    # modulated magnitude, integrated backwards: several bisection levels
    "sinusoidal_modulated": (sinusoidal_angle(1.2, 0.3, 0.05, theta_offset=0.4, b_amp=0.3,
                                              b_freq=0.11), (40.0 * math.pi, 0.0)),
}
QUAD_FUNCTIONALS = {
    "phi0": (phi0, -0.5, lambda s: s.B_mag),
    "phi2": (phi2, -0.25, lambda s: s.theta_dot**2 / s.B_mag),
    "berry_phi1": (berry_phi1, 0.5, lambda s: (1.0 - math.cos(s.theta)) * s.phi_dot),
}


@pytest.mark.parametrize("case", sorted(QUAD_CASES))
@pytest.mark.parametrize("name", sorted(QUAD_FUNCTIONALS))
def test_gauss_kronrod_functionals_match_quad(name, case):
    quad = pytest.importorskip("scipy.integrate").quad
    functional, prefactor, integrand = QUAD_FUNCTIONALS[name]
    prof, span = QUAD_CASES[case]
    want = prefactor * quad(lambda t: integrand(sample(prof, t)), *span,
                            **geometric_phases._QUAD_OPTS)[0]
    assert abs(functional(prof, span) - want) <= 1e-13 * abs(want)


def test_gauss_kronrod_rule_constants():
    # the Gauss nodes and weights are numpy's; the Kronrod rule is exact to degree 3 * 7 + 1
    gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(geometric_phases._GK_NODES[1::2], gauss_nodes, rtol=0, atol=1e-15)
    assert np.allclose(geometric_phases._G_WEIGHTS, gauss_weights, rtol=0, atol=1e-15)
    for degree in range(23):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        moment = geometric_phases._GK_WEIGHTS @ geometric_phases._GK_NODES**degree
        assert moment == pytest.approx(exact, abs=1e-15)


_FAST = uniform_rotation(1.0, 1e300)  # theta_dot**2 overflows
_GRID = np.linspace(0.0, 1.0, 5)


@pytest.mark.parametrize("run", [
    lambda: phi2(_FAST, (0.0, 1.0)),
    lambda: phi0(constant(1e308), (0.0, 10.0)),  # the weighted sum of B overflows
    lambda: phase_series(sample(_FAST, _GRID), _GRID),
], ids=["integrand", "sum", "phase_series"])
def test_non_finite_phase_integral_raises_domain_error(run):
    with pytest.raises(DomainError, match="not finite"):
        run()


def test_gauss_kronrod_samples_once_per_level():
    calls = []
    value, err, nodes = geometric_phases._gauss_kronrod(
        lambda t: calls.append(t.size) or np.exp(np.sin(3.0 * t)), 0.0, 10.0)
    assert nodes == sum(calls) and all(n % 15 == 0 for n in calls)
    assert calls[0] == 15 and len(calls) > 1 and 0.0 < err <= 1e-12 * abs(value)


def test_phi2_uniform_rotation():
    assert phi2(uniform_rotation(1.0, 0.1), (0.0, 200.0)) == pytest.approx(-0.5, abs=1e-10)


def test_phi2_constant_field_vanishes():
    assert phi2(constant(1.0), (0.0, 50.0)) == 0.0


def test_phi2_sinusoidal_period_closed_form():
    p = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    T = 2 * math.pi / 0.05
    assert phi2(p, (0.0, T)) == pytest.approx(ELLIPSE_PHI2, abs=1e-12)


def test_berry_phase_vanishes_in_plane():
    p = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    assert berry_phi1(p, (0.0, 100.0)) == 0.0


def test_berry_phase_cone_full_loop():
    p = cone_3d(1.0, theta_c=math.pi / 3, omega_phi=0.05)
    T = 2 * math.pi / 0.05
    assert berry_phi1(p, (0.0, T)) == pytest.approx(math.pi / 2, abs=1e-9)


def test_berry_phase_equatorial_half_loop():
    p = cone_3d(1.0, theta_c=math.pi / 2, omega_phi=0.05)
    T = math.pi / 0.05
    assert berry_phi1(p, (0.0, T)) == pytest.approx(math.pi / 2, abs=1e-9)


def test_berry_phase_invariant_under_azimuth_origin_shift():
    a = cone_3d(1.0, theta_c=math.pi / 3, omega_phi=0.05, phi_init=0.0)
    b = cone_3d(1.0, theta_c=math.pi / 3, omega_phi=0.05, phi_init=1.234)
    T = 2 * math.pi / 0.05
    assert berry_phi1(a, (0.0, T)) == pytest.approx(berry_phi1(b, (0.0, T)), abs=1e-12)


# ---------------------------------------------------------------------------
# Second-order decomposition on the field sphere
# ---------------------------------------------------------------------------

def test_decomposition_accel_term_vanishes_in_plane():
    p = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    T = 2 * math.pi / 0.05
    terms = phi2_decomposition(p, (0.0, T))
    assert terms.term_accel == 0.0


def test_decomposition_closed_loop_boundary_free_and_doubles_phi2():
    p = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    T = 2 * math.pi / 0.05
    terms = phi2_decomposition(p, (0.0, T))
    ph2 = phi2(p, (0.0, T))
    assert terms.boundary == pytest.approx(0.0, abs=1e-12)
    # the by-parts value is twice the phase correction; reported, not asserted
    # as a phase identity anywhere else
    assert terms.term_byparts == pytest.approx(2.0 * ph2, rel=1e-9)


def test_decomposition_static_angle_all_zero():
    terms = phi2_decomposition(constant(1.0, theta0=0.7), (0.0, 10.0))
    assert terms.term_accel == 0.0
    assert terms.term_byparts == 0.0
    assert terms.boundary == 0.0


def test_decomposition_boundary_matches_direct_quadrature():
    p = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05, theta_offset=1.0)
    span = (3.0, 40.0)
    direct = phi2_byparts_direct(p, span)
    terms = phi2_decomposition(p, span)
    assert direct == pytest.approx(terms.term_byparts + terms.boundary, abs=1e-10)


def test_decomposition_pole_guard_near_pi():
    p = constant(1.0, theta0=math.pi)
    with pytest.raises(PoleSingularity):
        phi2_decomposition(p, (0.0, 1.0))


def test_byparts_direct_pole_guard():
    p = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)  # crosses theta = 0
    with pytest.raises(PoleSingularity):
        phi2_byparts_direct(p, (0.0, 10.0))


# ---------------------------------------------------------------------------
# Expectation-value dynamical phase
# ---------------------------------------------------------------------------

def test_dyn_expect_stationary_state(tight_cfg):
    traj = integrate_schrodinger(constant(1.0), [1.0, 0.0], (0.0, 10.0), tight_cfg)
    assert phi_dyn_expect(traj) == pytest.approx(-5.0, abs=1e-9)


def test_dyn_expect_equator_zero():
    t_span = (0.0, 2 * math.pi)
    traj = integrate_schrodinger(
        constant(1.0), [R2, R2], t_span, uniform_grid_cfg(t_span, 2001)
    )
    assert phi_dyn_expect(traj) == pytest.approx(0.0, abs=1e-9)


def test_dyn_expect_on_a_non_uniform_grid_is_the_trapezoid_sum():
    # node decimation needs a uniform grid; on any other the plain trapezoid sum is taken
    prof, t_span = uniform_rotation(1.0, 0.1), (0.0, 50.0)
    u = np.linspace(0.0, 1.0, 2001)
    grid = 50.0 * (u + 0.05 * np.sin(2.0 * math.pi * u))
    grid[-1] = 50.0
    psi0 = tracked_eigenvector(prof, 0.0)
    traj = integrate_schrodinger(prof, psi0, t_span, IntegratorConfig(dense_output_grid=grid))
    h = 0.5 * np.sum(sample(prof, grid).B_vec * bloch_series(traj), axis=1)
    assert phi_dyn_expect(traj) == -float(np.sum(0.5 * (h[1:] + h[:-1]) * np.diff(grid)))
    uniform = integrate_schrodinger(prof, psi0, t_span, uniform_grid_cfg(t_span, 2001))
    assert phi_dyn_expect(traj) == pytest.approx(phi_dyn_expect(uniform), abs=1e-5)


def test_dyn_expect_quasi_stationary_relation():
    # on the tracked branch <H> = (B/2)(1 - delta^2/2) + higher order, so the
    # dynamical phase is phi0 - phi2 up to a third-order-in-eps remainder
    from spinphase import tracked_eigenvector

    prof = uniform_rotation(1.0, 0.1)
    t_span = (0.0, 100.0)
    traj = integrate_schrodinger(
        prof, tracked_eigenvector(prof, 0.0), t_span, uniform_grid_cfg(t_span, 4001)
    )
    dyn = phi_dyn_expect(traj)
    expect = phi0(prof, t_span) - phi2(prof, t_span)
    assert abs(dyn - expect) <= 0.1**3 * 100.0  # O(eps^3) * span


def test_dyn_expect_grid_guard():
    times = np.array([0.0, 4.0, 8.0])
    states = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]], dtype=complex)
    traj = Trajectory(times=times, states=states, kind="spinor", profile=constant(1.0))
    with pytest.raises(GridTooCoarse):
        phi_dyn_expect(traj)


def test_phase_functionals_read_the_field_and_span_of_the_trajectory(tight_cfg):
    prof, t_span = uniform_rotation(1.0, 0.1), (5.0, 25.0)
    traj = integrate_schrodinger(prof, tracked_eigenvector(prof, 5.0), t_span, tight_cfg)
    d = phase_decomposition(traj, -10.0)
    assert (d.phi0, d.phi1, d.phi2) == (phi0(prof, t_span), 0.0, phi2(prof, t_span))
    assert (d.phi_dyn_expect, d.phi_geom_aa) == (phi_dyn_expect(traj), -10.0 - d.phi_dyn_expect)
    bare = Trajectory(times=traj.times, states=traj.states, kind="spinor")
    for functional in (phi_dyn_expect, lambda t: phase_decomposition(t, -10.0)):
        with pytest.raises(DomainError, match="requires the trajectory's profile"):
            functional(bare)


# ---------------------------------------------------------------------------
# Exact geometric phase: the two routes
# ---------------------------------------------------------------------------

def test_equatorial_cycle_both_routes():
    traj = precession_traj([1.0, 0.0, 0.0], (0.0, 2 * math.pi))
    assert aa_geometric_phase_coordinate(traj) == pytest.approx(-math.pi, abs=1e-8)
    assert aa_geometric_phase_solid_angle(traj) == pytest.approx(-math.pi, abs=1e-8)


def test_cone_cycle_both_routes():
    s0 = [math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)]
    traj = precession_traj(s0, (0.0, 2 * math.pi))
    assert aa_geometric_phase_coordinate(traj) == pytest.approx(-math.pi / 2, abs=1e-8)
    assert aa_geometric_phase_solid_angle(traj) == pytest.approx(-math.pi / 2, abs=1e-8)


def test_stationary_path_zero_phase():
    times = np.linspace(0.0, 1.0, 16)
    states = np.tile([R2, 0.0, R2], (16, 1))
    traj = Trajectory(times=times, states=states, kind="bloch")
    assert aa_geometric_phase_coordinate(traj) == 0.0
    assert aa_geometric_phase_solid_angle(traj) == pytest.approx(0.0, abs=1e-15)


def _tilted_circles():
    # precession circles about random tilted axes close after one period and
    # sit anywhere on the sphere, including the southern hemisphere
    rng = np.random.default_rng(21)
    circles = []
    for _ in range(12):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        s0 = rng.normal(size=3)
        s0 /= np.linalg.norm(s0)
        # keep the orbit clear of both poles
        traj_states = _circle_about(axis, s0, 4097)
        sin_polar = np.hypot(traj_states[:, 0], traj_states[:, 1])
        if sin_polar.min() < 5e-2:
            continue
        circles.append(Trajectory(
            times=np.linspace(0.0, 1.0, len(traj_states)), states=traj_states, kind="bloch"
        ))
    return circles


def test_routes_agree_on_generic_closed_paths():
    for traj in _tilted_circles():
        c = aa_geometric_phase_coordinate(traj)
        s = aa_geometric_phase_solid_angle(traj)
        assert abs(c - s) <= 1e-6


def _circle_about(axis, s0, n, turn=2 * math.pi):
    ts = np.linspace(0.0, turn, n)
    out = np.empty((n, 3))
    for i, a in enumerate(ts):
        c, si = math.cos(a), math.sin(a)
        out[i] = s0 * c + np.cross(axis, s0) * si + axis * np.dot(axis, s0) * (1 - c)
    return out


def _cone_period_start():
    cone, omega = cone_3d(1.0, 0.9, 0.05), 0.05
    # the exact rotating-frame eigenstate: spin up along B(0) - omega z
    chi = math.atan2(math.sin(0.9), math.cos(0.9) - omega)
    return cone, np.array([math.cos(0.5 * chi), math.sin(0.5 * chi)], dtype=complex), (
        0.0, 2 * math.pi / omega)


def _reference_paths():
    cone, psi0, period = _cone_period_start()
    tilted = (0.0, 2 * math.pi)
    dop853 = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, method="DOP853",
                              dense_output_grid=np.linspace(*tilted, 1025))
    return {
        "midpoint_cone": exponential_midpoint_schrodinger(cone, psi0, period, 20000),
        "cf4_cone": magnus4_schrodinger(cone, psi0, period, 2500),
        "dop853_bloch": integrate_bloch(constant(1.0, theta0=0.9), [0.0, R2, R2], tilted, dop853),
        **{f"tilted_circle_{k}": traj for k, traj in enumerate(_tilted_circles())},
    }


@needs_scipy
def test_aa_routes_match_their_row_wise_references():
    # the component-wise routes against the (n, 3) row forms they replaced:
    # spinor, DOP853 Bloch (renormalized) and exact unit-row paths
    paths = _reference_paths()
    assert len(paths) == 3 + 12
    for name, traj in paths.items():
        assert abs(aa_geometric_phase_coordinate(traj) - aa_coordinate_rows(traj)) <= 1e-13, name
        assert abs(aa_geometric_phase_solid_angle(traj) - aa_solid_angle_rows(traj)) <= 1e-13, name


def test_fan_area_closes_a_nearly_closed_path():
    # a circle stopped 1e-5 rad short of a full turn: its endpoint gap (5e-6)
    # passes np.allclose(atol=1e-12) through the default rtol, but the fan must
    # still add the closing triangle, which the open fan misses by 2.4e-6
    axis = np.array([1.0, 1.0, 0.2]) / np.linalg.norm([1.0, 1.0, 0.2])
    s0 = np.array([0.5, 0.6, 0.62]) / np.linalg.norm([0.5, 0.6, 0.62])
    S = _circle_about(axis, s0, 4001, turn=2 * math.pi - 1e-5)
    assert np.linalg.norm(S[0] - S[-1]) > 1e-6
    closed = np.vstack([S, S[0]])
    area = geometric_phases._fan_area(*S.T)
    assert area == pytest.approx(0.88353459, abs=1e-8)
    assert abs(area - geometric_phases._fan_area(*closed.T)) <= 1e-14
    assert abs(area - fan_area_rows(S)) <= 1e-14
    p, q = S[:-1], S[1:]
    open_fan = float(np.sum(2.0 * np.arctan2(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0],
                                             1.0 + p[:, 2] + q[:, 2] + np.sum(p * q, axis=1))))
    assert abs(open_fan - area) > 2e-6


def test_coordinate_route_pole_guard():
    s0 = [math.sin(5e-4), 0.0, math.cos(5e-4)]
    traj = precession_traj(s0, (0.0, 2 * math.pi), n=257)
    with pytest.raises(PoleSingularity):
        aa_geometric_phase_coordinate(traj)


def test_coordinate_route_grid_guard():
    traj = precession_traj([1.0, 0.0, 0.0], (0.0, 2 * math.pi), n=4)
    with pytest.raises(GridTooCoarse):
        aa_geometric_phase_coordinate(traj)


def test_solid_angle_arc_guard():
    traj = precession_traj([1.0, 0.0, 0.0], (0.0, 2 * math.pi), n=7)
    with pytest.raises(ArcTooLong):
        aa_geometric_phase_solid_angle(traj)


def _equator(n):
    ang = 2 * math.pi * np.arange(n) / n
    return np.stack([np.cos(ang), np.sin(ang), np.zeros(n)], axis=1)


OCTANT = np.eye(3)  # x, y, z: the triangle bounding one eighth of the sphere


@pytest.mark.parametrize("n", [3, 4, 7, 64, 1001])
def test_fan_area_of_equatorial_polygon_is_a_hemisphere(n):
    assert geometric_phases._fan_area(*_equator(n).T) == pytest.approx(2 * math.pi, abs=1e-12)
    assert geometric_phases._fan_area(*_equator(n)[::-1].T) == pytest.approx(-2 * math.pi, abs=1e-12)


def test_fan_area_of_the_octant_is_exact():
    assert geometric_phases._fan_area(*OCTANT.T) == math.pi / 2
    assert geometric_phases._fan_area(*OCTANT[::-1].T) == -math.pi / 2


def test_fan_area_matches_lhuilier_on_random_short_arcs():
    # clusters of nodes a few tenths of a radian apart, anywhere on the sphere
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(3, 40))
        S = rng.normal(size=3) + rng.normal(scale=0.3, size=(n, 3))
        S /= np.linalg.norm(S, axis=1)[:, None]
        assert abs(geometric_phases._fan_area(*S.T) - lhuilier_fan_area(S)) <= 1e-9, S


def test_aa_identity_constant_tilted_field():
    # cyclic evolution under a static tilted field: total - dynamical phase
    # equals the coordinate-route geometric phase (exact identity)
    b0 = 1.0
    prof = constant(b0, theta0=0.9)
    psi0 = bloch_to_spinor([0.0, R2, R2])
    t_span = (0.0, 2 * math.pi / b0)
    cfg = uniform_grid_cfg(t_span, 8193, 1e-12, 1e-14)
    traj = integrate_schrodinger(prof, psi0, t_span, cfg)
    from spinphase import extract_total_phase

    total = extract_total_phase(traj, "initial_state")[-1]
    dyn = phi_dyn_expect(traj)
    btraj = Trajectory(
        times=traj.times, states=bloch_series(traj), kind="bloch", profile=prof
    )
    geom = aa_geometric_phase_coordinate(btraj)
    assert abs((total - dyn) - geom) <= 1e-6


# ---------------------------------------------------------------------------
# Generalized parameter-space loops
# ---------------------------------------------------------------------------

def ellipse_loop(n=801, reverse=False):
    p = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    return loop_from_profile(p, (0.0, 2 * math.pi / 0.05), n, reverse=reverse)


def test_line_integral_zero_area_loop():
    th = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    td = np.zeros(5)
    assert generalized_line_integral(MLoop(theta=th, theta_dot=td), 1.0) == 0.0


def test_line_integral_ellipse_value_and_reversal():
    loop = ellipse_loop()
    val = generalized_line_integral(loop, 1.0)
    assert val == pytest.approx(ELLIPSE_PHI2, abs=1e-6)
    assert val == pytest.approx(phi2(sinusoidal_angle(1.0, theta0=0.3, Omega=0.05),
                                     (0.0, 2 * math.pi / 0.05)), abs=1e-6)
    rev = generalized_line_integral(ellipse_loop(reverse=True), 1.0)
    assert rev == -val


def test_surface_integral_unit_square():
    sq = MLoop(theta=np.array([0.0, 1.0, 1.0, 0.0, 0.0]),
               theta_dot=np.array([0.0, 0.0, 1.0, 1.0, 0.0]))
    assert stokes_surface_integral(sq, 1.0) == pytest.approx(0.25, abs=1e-15)
    assert generalized_line_integral(sq, 1.0) == pytest.approx(0.25, abs=1e-15)


def test_surface_integral_ellipse_and_orientation():
    val = stokes_surface_integral(ellipse_loop(), 1.0)
    assert val == pytest.approx(ELLIPSE_PHI2, abs=1e-6)
    assert stokes_surface_integral(ellipse_loop(reverse=True), 1.0) == -val


def test_surface_integral_zero_area_loop():
    th = np.array([0.0, 0.5, 1.0, 0.5, 0.0])
    td = np.zeros(5)
    assert stokes_surface_integral(MLoop(theta=th, theta_dot=td), 1.0) == 0.0


def test_stokes_identity_on_smooth_random_loops():
    # star-shaped Fourier loops are simple by construction; the polygon line
    # integral and shoelace area agree identically
    rng = np.random.default_rng(5)
    s = np.linspace(0.0, 2 * math.pi, 601)
    for _ in range(10):
        r = 1.0 + 0.3 * rng.uniform(-1, 1) * np.cos(s) + 0.2 * rng.uniform(-1, 1) * np.sin(2 * s)
        th = 0.4 * r * np.cos(s)
        td = 0.1 * r * np.sin(s)
        th[-1], td[-1] = th[0], td[0]
        loop = MLoop(theta=th, theta_dot=td)
        for b in (0.5, 1.0, 2.0):
            line = generalized_line_integral(loop, b)
            surf = stokes_surface_integral(loop, b)
            assert abs(line - surf) <= 1e-12
            assert abs(line) == pytest.approx(abs(surf), abs=1e-12)


def test_stokes_801_node_ellipse_takes_at_most_10_ms():
    loop = ellipse_loop()
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        stokes_surface_integral(loop, 1.0)
        best = min(best, time.perf_counter() - t0)
    assert best <= 0.010


def test_stokes_large_loop_bounded_in_time_and_memory():
    loop = ellipse_loop(n=100_001)
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        val = stokes_surface_integral(loop, 1.0)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert val == pytest.approx(ELLIPSE_PHI2, abs=1e-6)
    assert elapsed < 1.0
    assert peak < 100 * 2**20


def test_spin_path_routes_allocate_a_fixed_number_of_path_copies():
    # tracemalloc peak of each route on a 20001-node spinor path, in units of one float
    # per node: the unit spin path (3), its fan or unwrap rows (3) and nothing that grows
    # with the path beyond them; bloch_series is the path and its stacked (n, 3) copy
    psi0 = np.array([0.8, 0.6], dtype=complex)
    traj = exponential_midpoint_schrodinger(cone_3d(1.0, theta_c=0.9, omega_phi=0.05), psi0,
                                            (0.0, 40.0 * math.pi), 20000)
    units = {}
    for route in (aa_geometric_phase_solid_angle, aa_geometric_phase_coordinate, bloch_series):
        route(traj)
        tracemalloc.start()
        try:
            route(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        units[route.__name__] = peak / (8 * len(traj.times))
    assert all(u < 6.1 for u in units.values()), units


def _closed(pts):
    pts = np.asarray(pts, dtype=float)
    pts = np.vstack([pts, pts[:1]])
    return MLoop(theta=pts[:, 0], theta_dot=pts[:, 1])


# a figure-eight whose two passes cross exactly at the shared node (0, 0)
FIGURE_EIGHT_AT_NODE = [[0, 0], [1, 1], [1, -1], [0, 0], [-1, 1], [-1, -1]]
# two clockwise lobes that only touch at (0, 0)
KISSING_LOBES = [[0, 0], [1, 1], [1, -1], [0, 0], [-1, -1], [-1, 1]]


def test_lobes_touching_at_a_node_are_tolerated():
    for shift in range(len(KISSING_LOBES)):
        pts = np.roll(KISSING_LOBES, shift, axis=0)
        assert stokes_surface_integral(_closed(pts), 1.0) == -0.5
        assert stokes_surface_integral(_closed(pts[::-1]), 1.0) == 0.5
    # a doubled node, and a pass that reverses at the shared node, still only touch
    doubled = [[0, 0], [0, 0], [1, 1], [1, -1], [0, 0], [-1, -1], [-1, 1]]
    assert stokes_surface_integral(_closed(doubled), 1.0) == -0.5
    spike = [[0, 0], [1, 1], [1, -1], [0, 0], [-1, 0], [0, 0], [-1, -1], [-1, 1]]
    assert stokes_surface_integral(_closed(spike), 1.0) == -0.5


@pytest.mark.parametrize("B_mag", [math.nan, math.inf, 1e-9])
@pytest.mark.parametrize("fn", [
    lambda b: generalized_line_integral(ellipse_loop(n=101), b),
    lambda b: stokes_surface_integral(ellipse_loop(n=101), b),
], ids=["generalized_line_integral", "stokes_surface_integral"])
def test_non_finite_or_tiny_field_is_degenerate(fn, B_mag):
    with pytest.raises(DegenerateField):
        fn(B_mag)


def test_field_floor_is_the_profiles_default():
    loop = ellipse_loop(n=101)
    for fn in (generalized_line_integral, stokes_surface_integral):
        fn(loop, DEFAULT_B_MIN)
        with pytest.raises(DegenerateField, match=f"below floor {DEFAULT_B_MIN}$"):
            fn(loop, np.nextafter(DEFAULT_B_MIN, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_loop_coordinates_rejected(bad):
    with pytest.raises(DomainError):
        MLoop(theta=[0.0, 1.0, bad, 0.0, 0.0], theta_dot=[0.0, 0.0, 1.0, 1.0, 0.0])
    with pytest.raises(DomainError):
        MLoop(theta=[0.0, 1.0, 1.0, 0.0, 0.0], theta_dot=[0.0, 0.0, bad, 1.0, 0.0])


def test_loop_closure_enforced():
    with pytest.raises(LoopNotClosed):
        MLoop(theta=np.array([0.0, 1.0, 1.0, 0.5]), theta_dot=np.zeros(4))
    with pytest.raises(LoopNotClosed):
        MLoop(theta=np.array([0.0, 1.0]), theta_dot=np.array([0.0, 0.0]))
    # time_unit scales the rate coordinate in the closure test
    th = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
    td = np.array([0.0, 0.0, 1.0, 1.0, 5e-7])
    with pytest.raises(LoopNotClosed):
        MLoop(theta=th, theta_dot=td, time_unit=1.0)
    MLoop(theta=th, theta_dot=td, time_unit=1e-3)  # scaled gap now below tol


def test_partial_period_does_not_close():
    p = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    with pytest.raises(LoopNotClosed):
        loop_from_profile(p, (0.0, 0.75 * 2 * math.pi / 0.05), 401)


# a bowtie whose second pass runs through the node (0, 0) of the first, inside an edge
BOWTIE_THROUGH_EDGE = [[-1, -1], [0, 0], [1, 1], [1, -1], [-1, 1]]
# two triangles on one base edge, touching it from above at its interior node (2, 0)
TOUCHING_BASE = [[0, 0], [4, 0], [4, 3], [2, 0], [0, 3]]


def test_node_touching_an_edge_from_one_side_is_tolerated():
    for shift in range(len(TOUCHING_BASE)):
        pts = np.roll(TOUCHING_BASE, shift, axis=0)
        assert stokes_surface_integral(_closed(pts), 1.0) == 1.5
        assert stokes_surface_integral(_closed(pts[::-1]), 1.0) == -1.5


def _rolled(pts):
    return [_closed(np.roll(pts, shift, axis=0)) for shift in range(len(pts))]


def _lemniscate():
    # figure-eight of Gerono; the offset keeps both passes through the origin off the nodes
    t = np.linspace(0.0, 2 * math.pi, 2000) + 0.3
    return [MLoop(theta=np.sin(t), theta_dot=np.sin(t) * np.cos(t))]


def _ellipse_twice():
    loop = ellipse_loop()
    return [MLoop(theta=np.concatenate([loop.theta, loop.theta[1:]]),
                  theta_dot=np.concatenate([loop.theta_dot, loop.theta_dot[1:]]),
                  time_unit=loop.time_unit)]


# each region counts once per counterclockwise turn of the loop around it, so lobes
# wound in opposite senses cancel and a loop traced twice counts its area twice
@pytest.mark.parametrize("sense", [1, -1], ids=["forward", "reversed"])
@pytest.mark.parametrize("loops, area, tol", [
    (lambda: [_closed([[0, 0], [1, 1], [1, 0], [0, 1]])], 0.0, 0.0),
    (lambda: _rolled([[0, 0], [2, 2], [2, -2], [0, 0], [-1, 1], [-1, -1]]), (1 - 4) / 4, 0.0),
    (lambda: _rolled(BOWTIE_THROUGH_EDGE), 0.0, 0.0),
    (lambda: _rolled(FIGURE_EIGHT_AT_NODE), 0.0, 0.0),
    (_lemniscate, 0.0, 1e-15),
    (_ellipse_twice, 2 * ELLIPSE_PHI2, 1e-6),
], ids=["bowtie", "asymmetric_figure_eight", "bowtie_through_edge", "figure_eight_at_node",
        "lemniscate", "ellipse_traced_twice"])
def test_self_crossing_loop_gives_its_winding_weighted_area(loops, area, tol, sense):
    # a reversed traversal winds the other way round every region, so the area flips sign
    for loop in loops():
        lp = MLoop(theta=loop.theta[::sense], theta_dot=loop.theta_dot[::sense],
                   time_unit=loop.time_unit)
        line = generalized_line_integral(lp, 1.0)
        assert abs(line - stokes_surface_integral(lp, 1.0)) <= 1e-15
        assert abs(line - sense * area) <= tol
