import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import co_rotating_eigenstate
from spinphase import (
    ConfigError,
    DomainError,
    IntegratorConfig,
    check_horizon,
    cone_3d,
    constant,
    exponential_midpoint_schrodinger,
    extract_total_phase,
    integrate_bloch,
    integrate_schrodinger,
    loop_from_profile,
    magnus4_schrodinger,
    phase_decomposition,
    phi0,
    phi2,
    run_convergence,
    run_phase_budget,
    run_stokes_check,
    run_timescale_demo,
    sample,
    sinusoidal_angle,
    sinusoidal_family,
    tracked_eigenvector,
    uniform_rotation,
    user_tabulated,
)
from spinphase import verification
from spinphase.verification import _breakdown_time


def test_horizon_guard_rejects_long_spans():
    prof = uniform_rotation(1.0, 0.5)
    with pytest.raises(ConfigError):
        check_horizon(prof, (0.0, 10.0))
    assert check_horizon(constant(1.0), (0.0, 1e9)) == math.inf
    # rate**4 underflows to 0.0 here and overflows below, yet neither raises
    assert check_horizon(uniform_rotation(1.0, 1e-90), (0.0, 10.0)) == math.inf
    with pytest.raises(ConfigError, match="0.1\\*t2 = 0.0"):
        check_horizon(sinusoidal_angle(1.0, theta0=1e300, Omega=1.0), (0.0, 1.0))


def test_horizon_rate_is_the_turning_rate_of_the_field_direction():
    # a cone turns its field at sin(theta_c) * omega_phi with theta_dot = 0
    t2 = 1.0 / (math.sin(math.pi / 3) * 0.05) ** 4
    cone = cone_3d(1.0, math.pi / 3, 0.05)
    assert check_horizon(cone, (0.0, 28000.0)) == pytest.approx(t2, rel=1e-12)
    for span in ((0.0, 29000.0), (0.0, 1e9)):
        with pytest.raises(ConfigError, match="0.1\\*t2 = 28444"):
            check_horizon(cone, span)
    # in plane the rate is |theta_dot| exactly
    prof, t_span = sinusoidal_angle(1.0, 0.6, 0.05), (0.0, 100.0)
    s = sample(prof, np.linspace(*t_span, 257))
    assert check_horizon(prof, t_span) == _breakdown_time(
        float(np.min(s.B_mag)), float(np.max(np.abs(s.theta_dot))), 2)


def _tabulated_3d_family(eps):
    tau = np.linspace(0.0, 2.0 * math.pi, 6401)
    return user_tabulated(tau, 1.0 + 0.2 * np.cos(tau), 1.0 + 0.4 * np.sin(tau), 0.8 * tau,
                          epsilon=eps)


@pytest.mark.parametrize("family", [
    _tabulated_3d_family,
    lambda eps: cone_3d(1.0, theta_c=1.0, omega_phi=0.3, epsilon=eps),
], ids=["theta_and_phi_turn", "cone"])
def test_convergence_orders_of_out_of_plane_families(family):
    # criterion 2's bounds where phi turns: with theta_dot and phi_dot both nonzero the
    # theta_dot * phi_dot cross terms of s2 are checked, and on the cone the phi_dot-only ones
    rep = run_convergence(family, [0.16, 0.08, 0.04, 0.02], 2.0 * math.pi)
    s0, s1, s2 = (s for s, _ in rep.slopes)
    assert s0 == pytest.approx(1.0, abs=0.2)
    assert s1 == pytest.approx(2.0, abs=0.2)
    assert s2 == pytest.approx(3.0, abs=0.3)


def test_convergence_constant_field_errors_are_integrator_noise():
    fam = lambda e: constant(1.0, epsilon=e)  # noqa: E731
    rep = run_convergence(fam, [0.2, 0.1], horizon_eps_t=1.0)
    assert all(e <= 1e-9 for e in rep.errors_order0)
    assert all(e <= 1e-9 for e in rep.errors_order2)


def test_convergence_slopes_sinusoidal_family():
    rep = run_convergence(sinusoidal_family(), [0.16, 0.08, 0.04], 2.0 * math.pi)
    s0, s1, s2 = (s for s, _ in rep.slopes)
    assert s0 == pytest.approx(1.0, abs=0.2)
    assert s1 == pytest.approx(2.0, abs=0.2)
    assert s2 == pytest.approx(3.0, abs=0.3)
    assert rep.epsilons == sorted(rep.epsilons, reverse=True)
    assert all(e > 0 for e in rep.errors_order0 + rep.errors_order1 + rep.errors_order2)


def test_convergence_needs_two_scales():
    with pytest.raises(ConfigError):
        run_convergence(sinusoidal_family(), [0.1], 1.0)


def test_convergence_needs_two_distinct_scales():
    # a repeated scale leaves no spread to fit a slope over
    for eps_list in ([0.1, 0.1, 0.1], [0.16, 0.16]):
        with pytest.raises(ConfigError, match="distinct"):
            run_convergence(sinusoidal_family(), eps_list, 1.0)


def test_convergence_deterministic():
    rep1 = run_convergence(sinusoidal_family(), [0.16, 0.08], math.pi)
    rep2 = run_convergence(sinusoidal_family(), [0.16, 0.08], math.pi)
    assert rep1 == rep2


def test_both_runners_integrate_at_the_one_default(monkeypatch):
    assert (IntegratorConfig().rel_tol, IntegratorConfig().abs_tol) == (1e-11, 1e-13)
    used = []
    for name in ("integrate_bloch", "integrate_schrodinger"):
        run = getattr(verification, name)
        monkeypatch.setattr(verification, name,
                            lambda *args, run=run: used.append(args[-1]) or run(*args))
    run_convergence(sinusoidal_family(), [0.16, 0.08], math.pi)
    budget = run_phase_budget(uniform_rotation(1.0, 0.1), (0.0, 20.0))
    assert [replace(cfg, dense_output_grid=None) for cfg in used] == [IntegratorConfig()] * 3
    assert (budget.metadata["rel_tol"], budget.metadata["abs_tol"]) == (1e-11, 1e-13)


@pytest.mark.parametrize("eps_list", [["a", 0.05], [None, 0.05], [math.nan, 0.05],
                                      [0.1, math.inf]])
def test_convergence_rejects_a_non_finite_epsilon(eps_list):
    with pytest.raises(ConfigError, match="epsilon"):
        run_convergence(sinusoidal_family(), eps_list, 2.0)


@pytest.mark.parametrize("call", [
    lambda: loop_from_profile(uniform_rotation(1.0, 0.1), (0.0, 10.0), 2.5),
    lambda: loop_from_profile(uniform_rotation(1.0, 0.1), (0.0, 10.0), -1),
    lambda: loop_from_profile(uniform_rotation(1.0, 0.1), (0.0, 10.0), True),
    lambda: loop_from_profile(uniform_rotation(1.0, 0.1), (0.0, 10.0), 10**8),
    lambda: run_convergence(sinusoidal_family(), [0.16, 0.08], math.pi, n_nodes=2.5),
    lambda: run_convergence(sinusoidal_family(), [0.16, 0.08], math.pi, n_nodes="11"),
], ids=["loop_float", "loop_negative", "loop_bool", "loop_past_limit", "convergence_float",
        "convergence_str"])
def test_node_counts_are_checked_before_sampling(call):
    with pytest.raises(ConfigError, match="n_nodes must be an integer"):
        call()


@pytest.mark.parametrize("span", [(0.0, "x"), 5.0, (0.0,), (0.0, 1.0, 2.0), (0.0, None),
                                  (True, 10.0), (0, False), "ab", None])
@pytest.mark.parametrize("call", [
    lambda span: run_phase_budget(uniform_rotation(1.0, 0.1), span),
    lambda span: phi0(uniform_rotation(1.0, 0.1), span),
    lambda span: loop_from_profile(uniform_rotation(1.0, 0.1), span, 11),
    lambda span: check_horizon(uniform_rotation(1.0, 0.1), span),
    lambda span: magnus4_schrodinger(uniform_rotation(1.0, 0.1), [1.0, 0.0], span, 8),
], ids=["run_phase_budget", "phi0", "loop_from_profile", "check_horizon",
        "magnus4_schrodinger"])
def test_a_span_that_is_not_a_pair_of_real_numbers_raises_config_error(call, span):
    with pytest.raises(ConfigError, match="t_span"):
        call(span)


@pytest.mark.parametrize("span", [(np.int64(0), np.float64(10.0)), np.array([0.0, 10.0]),
                                  [0, 10]])
def test_numpy_and_python_reals_stay_valid_span_ends(span):
    assert phi0(constant(1.0), span) == pytest.approx(-5.0, abs=1e-12)
    with pytest.raises(DomainError, match="t=inf is not finite"):
        check_horizon(constant(1.0), (span[0], math.inf))


@pytest.mark.parametrize("call", [
    lambda: integrate_schrodinger(constant(1.0), [1.0, 0.0], (0.0, 1.0), "cfg"),
    lambda: integrate_bloch(constant(1.0), [0.0, 0.0, 1.0], (0.0, 1.0), None),
    lambda: run_phase_budget(uniform_rotation(1.0, 0.1), (0.0, 10.0), {"rel_tol": 1e-9}),
    lambda: run_convergence(sinusoidal_family(), [0.16, 0.08], math.pi, None),
], ids=["integrate_schrodinger", "integrate_bloch", "run_phase_budget", "run_convergence"])
def test_a_cfg_that_is_not_an_integrator_config_raises_config_error(call):
    with pytest.raises(ConfigError, match="cfg must be an IntegratorConfig"):
        call()


@pytest.mark.parametrize("call", [
    lambda: run_phase_budget("x", (0.0, 10.0)),
    lambda: phi0("x", (0.0, 1.0)),
    lambda: check_horizon(None, (0.0, 1.0)),
    lambda: run_convergence(lambda eps: "x", [0.1, 0.05], 1.0),
], ids=["run_phase_budget", "phi0", "check_horizon", "run_convergence"])
def test_a_profile_that_is_not_a_field_profile_raises_config_error(call):
    with pytest.raises(ConfigError, match="must be a FieldProfile"):
        call()


@pytest.mark.parametrize("eps_list, horizon, match", [
    ([0.1, 0.05], "x", "horizon_eps_t must be a number"),
    ([0.1, 0.05], math.nan, "horizon_eps_t must be finite"),
    (0.1, 1.0, "eps_list must be a sequence"),
    (None, 1.0, "eps_list must be a sequence"),
])
def test_convergence_rejects_a_horizon_or_eps_list_of_the_wrong_type(eps_list, horizon, match):
    with pytest.raises(ConfigError, match=match):
        run_convergence(sinusoidal_family(), eps_list, horizon)


@pytest.mark.parametrize("B", ["x", None, [1.0]])
def test_stokes_check_rejects_a_field_that_is_not_a_number(B):
    loop = loop_from_profile(sinusoidal_angle(1.0, 0.3, 0.05), (0.0, 2.0 * math.pi / 0.05), 101)
    with pytest.raises(ConfigError, match="B must be a number"):
        run_stokes_check([("ellipse", loop)], [B])


def test_phase_budget_uniform_rotation():
    budget = run_phase_budget(uniform_rotation(1.0, 0.1), (0.0, 200.0))
    d = budget.decomposition
    assert d.phi0 == pytest.approx(-100.0, abs=1e-8)
    assert d.phi1 == 0.0
    assert d.phi2 == pytest.approx(-0.5, abs=1e-10)
    assert d.phi_total_exact == pytest.approx(-0.5 * math.sqrt(1.01) * 200.0, abs=2e-3)
    # identity by construction
    assert d.phi_total_exact - d.phi_dyn_expect == pytest.approx(d.phi_geom_aa, abs=1e-14)
    assert budget.r_total == pytest.approx(d.phi_total_exact - d.phi0 - d.phi2, abs=1e-14)
    # the 2x diagnostic: geometric part close to twice phi2, never asserted tighter
    assert d.phi_geom_aa / d.phi2 == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("B, omega, T", [(1.0, 0.1, 200.0), (1.0, 0.05, 200.0),
                                         (1.2, 0.08, 150.0)])
def test_factor_two_is_two_cos_chi_on_the_exact_cyclic_state(B, omega, T):
    # seeded with the exactly cyclic state (spin along the co-rotating frame's static field,
    # tilted from B by chi, tan chi = omega/B): <H> = B cos(chi)/2 and the total phase is
    # -sqrt(B^2 + omega^2) t/2, so the AA part is -omega^2 T/(2 sqrt(B^2 + omega^2)) and,
    # with phi2 = -omega^2 T/(4B), the ratio is 2 cos(chi)
    prof, big = uniform_rotation(B, omega), math.hypot(B, omega)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    traj = integrate_schrodinger(prof, co_rotating_eigenstate(B, omega), (0.0, T), cfg)
    d = phase_decomposition(traj, float(extract_total_phase(traj)[-1]))
    assert d.phi_geom_aa == pytest.approx(-0.5 * omega**2 * T / big, abs=1e-8)
    assert d.phi_geom_aa / d.phi2 == pytest.approx(2.0 * B / big, abs=1e-8)


def test_factor_two_error_of_the_library_seed_is_its_nutation():
    # tracked_eigenvector is off the exact cyclic state by eps ~ 0.19 delta^3; the state then
    # nutates, and <H> feels the nutation through sin(chi) ~ delta, so phi_geom_aa leaves its
    # closed form by an oscillation of amplitude ~ eps * delta ~ delta^4, sampled over one
    # nutation period at eight end times
    B, seeds, amplitudes = 1.0, [], []
    for omega in (0.025, 0.05, 0.1):
        prof, big = uniform_rotation(B, omega), math.hypot(B, omega)
        overlap = abs(np.vdot(co_rotating_eigenstate(B, omega), tracked_eigenvector(prof, 0.0)))
        seeds.append(math.sqrt(1.0 - overlap**2))
        ends = 50.0 + np.arange(8) * (2.0 * math.pi / big) / 8
        amplitudes.append(max(
            abs(run_phase_budget(prof, (0.0, T)).decomposition.phi_geom_aa
                + 0.5 * omega**2 * T / big) for T in ends))
    assert np.log2(np.divide(seeds[1:], seeds[:-1])) == pytest.approx([3.0, 3.0], abs=0.05)
    assert np.log2(np.divide(amplitudes[1:], amplitudes[:-1])) == pytest.approx([4.0, 4.0],
                                                                               abs=0.2)


def test_phase_budget_constant_field_trivial():
    budget = run_phase_budget(constant(1.0), (0.0, 50.0))
    assert budget.decomposition.phi2 == 0.0
    assert abs(budget.r_total) <= 1e-7


def test_phase_budget_sinusoidal_period():
    prof = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    T = 2 * math.pi / 0.05
    budget = run_phase_budget(prof, (0.0, T))
    assert budget.decomposition.phi2 == pytest.approx(-0.0035342917352885, abs=1e-10)
    assert abs(budget.r_total) <= 1e-5


def test_r_total_scales_as_fourth_power():
    # halving the rate at fixed rate*t leaves eps^4 * t ~ eps^3 * (eps t):
    # the remainder drops close to 8x
    b1 = run_phase_budget(uniform_rotation(1.0, 0.1), (0.0, 200.0))
    b2 = run_phase_budget(uniform_rotation(1.0, 0.05), (0.0, 400.0))
    ratio = abs(b1.r_total) / abs(b2.r_total)
    assert 4.0 <= ratio <= 16.0


def test_stokes_check_rows_and_determinism():
    prof = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    T = 2 * math.pi / 0.05
    loops = [
        ("fwd", loop_from_profile(prof, (0.0, T), 801)),
        ("rev", loop_from_profile(prof, (0.0, T), 801, reverse=True)),
    ]
    rows = run_stokes_check(loops, [1.0, 2.0])
    assert len(rows) == 4
    assert all(r.abs_diff <= 1e-6 for r in rows)
    assert rows[0].line_integral == -rows[2].line_integral  # orientation flip
    assert rows == run_stokes_check(loops, [1.0, 2.0])


def test_timescale_demo_values():
    d = run_timescale_demo(1.0, 0.05)
    assert d.t1 == pytest.approx(400.0, rel=1e-12)
    assert abs(d.phi2_at_t1) == pytest.approx(0.25, rel=1e-14)
    assert d.t2 == pytest.approx(160000.0, rel=1e-12)
    assert run_timescale_demo(1.0, 0.1).t1 == pytest.approx(100.0, rel=1e-12)
    # quadrature agrees: |phi2| reaches 1/4 exactly at t1
    from spinphase import phi2

    assert abs(phi2(uniform_rotation(1.0, 0.05), (0.0, d.t1))) == pytest.approx(0.25, abs=1e-10)


def test_timescale_demo_static_sentinel():
    d = run_timescale_demo(1.0, 0.0)
    assert d.t1 == math.inf and d.t2 == math.inf
    with pytest.raises(ConfigError):
        run_timescale_demo(0.0, 0.1)


@pytest.mark.parametrize("B, omega", [(math.nan, 0.1), (math.inf, 0.1), (1.0, math.nan),
                                      (1.0, math.inf), (1.0, -math.inf)])
def test_timescale_demo_rejects_non_finite_input(B, omega):
    with pytest.raises(ConfigError, match="must be finite"):
        run_timescale_demo(B, omega)


def test_breakdown_times_are_the_float_quotients_where_those_return():
    rng = np.random.default_rng(3)
    for b, rate in 10.0 ** rng.uniform(-60.0, 60.0, (2000, 2)):
        b, rate = float(b), float(rate)
        assert _breakdown_time(b, rate, 1) == b / rate**2
        assert _breakdown_time(b, rate, 2) == b**3 / rate**4
    d = run_timescale_demo(2.0, -0.1)
    assert (d.t1, d.t2) == (2.0 / 0.1**2, 2.0**3 / 0.1**4)


@pytest.mark.parametrize("b, rate, k, want", [
    (1.0, 1e-90, 2, math.inf),  # rate**4 underflows to 0.0
    (1e150, 0.1, 2, math.inf),  # b**3 overflows
    (1.0, 1e100, 2, 0.0),  # rate**4 overflows
    (1.0, 1e200, 1, 0.0),
    (1.0, 1e-200, 1, math.inf),
    (1e150, 1e100, 2, 1e50),  # both powers overflow, the quotient does not
    (1e-100, 1e-90, 2, 1e60),  # both powers underflow
    (1.0, 0.0, 1, math.inf),
    (0.0, 0.0, 2, math.inf),
])
def test_breakdown_times_past_the_double_range(b, rate, k, want):
    assert _breakdown_time(b, rate, k) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("B, omega", [(1.0, 1e200), (1.0, 1e-200), (1e200, 0.05),
                                      (1e-300, -1e200), (2.0, 0.1)])
def test_timescale_demo_never_raises_and_phi2_at_t1_is_minus_a_quarter(B, omega):
    d = run_timescale_demo(B, omega)
    assert d.phi2_at_t1 == -0.25
    assert d.t1 == _breakdown_time(B, omega, 1) and d.t2 == _breakdown_time(B, omega, 2)


def test_budget_rejects_past_horizon():
    with pytest.raises(ConfigError):
        run_phase_budget(uniform_rotation(1.0, 0.5), (0.0, 100.0))


def test_budget_deterministic():
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    a = run_phase_budget(uniform_rotation(1.0, 0.1), (0.0, 50.0), cfg)
    b = run_phase_budget(uniform_rotation(1.0, 0.1), (0.0, 50.0), cfg)
    assert a == b


_ROTATION = uniform_rotation(1.0, 0.05)
SPAN_RUNS = {
    "run_phase_budget": lambda span: run_phase_budget(_ROTATION, span),
    "integrate_schrodinger": lambda span: integrate_schrodinger(_ROTATION, [1.0, 0.0], span),
    "loop_from_profile": lambda span: loop_from_profile(_ROTATION, span),
    "magnus4_schrodinger": lambda span: magnus4_schrodinger(_ROTATION, [1.0, 0.0], span, 10),
    "exponential_midpoint_schrodinger":
        lambda span: exponential_midpoint_schrodinger(_ROTATION, [1.0, 0.0], span, 10),
    "phi2": lambda span: phi2(_ROTATION, span),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(SPAN_RUNS))
def test_non_finite_span_end_raises_domain_error_naming_it(name, bad):
    # checked before a grid is laid over the span: no NaN grid, no RuntimeWarning
    for span in ((0.0, bad), (bad, 0.0)):
        with pytest.raises(DomainError, match=f"t={bad} is not finite"):
            SPAN_RUNS[name](span)
