"""Acceptance suite: every criterion prints one PASS/FAIL line when run.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; each test asserts the same conditions it reports.
"""

import contextlib
import io
import json
import math
import time

import numpy as np

from spinphase import (
    AdiabaticParams,
    IntegratorConfig,
    SolutionConstants,
    Trajectory,
    aa_geometric_phase_coordinate,
    aa_geometric_phase_solid_angle,
    berry_phi1,
    bloch_series,
    cone_3d,
    constant,
    extract_total_phase,
    integrate_bloch,
    integrate_schrodinger,
    loop_from_profile,
    generalized_line_integral,
    phi0,
    phi2,
    phi_dyn_expect,
    run_convergence,
    run_phase_budget,
    run_timescale_demo,
    sinusoidal_angle,
    sinusoidal_family,
    spinor_to_bloch,
    stokes_surface_integral,
    tracked_eigenvector,
    uniform_rotation,
)
from spinphase import cli
from oracles import transform_chain


def report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} — {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def grid_cfg(t_span, n, rel_tol=1e-11, abs_tol=1e-13):
    return IntegratorConfig(
        rel_tol=rel_tol, abs_tol=abs_tol,
        dense_output_grid=np.linspace(t_span[0], t_span[1], n),
    )


def test_criterion_1_rotating_frame_total_phase():
    start = time.perf_counter()
    profile = uniform_rotation(1.0, 0.1)
    t_span = (0.0, 200.0)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    psi0 = tracked_eigenvector(profile, 0.0)
    extracted = float(extract_total_phase(integrate_schrodinger(profile, psi0, t_span, cfg))[-1])
    analytic = -0.5 * math.sqrt(1.01) * 200.0
    series = phi0(profile, t_span) + phi2(profile, t_span)
    elapsed = time.perf_counter() - start
    err_exact = abs(extracted - analytic)
    err_series = abs(extracted - series)
    ok = err_exact <= 1e-5 and err_series <= 2e-3 and elapsed < 5.0
    report(
        1, "rotating-frame oracle", ok,
        f"|extracted-analytic|={err_exact:.3g} (<=1e-5), "
        f"|extracted-(phi0+phi2)|={err_series:.4g} (<=2e-3), {elapsed:.1f}s (<5s)",
    )


def test_criterion_2_convergence_orders():
    start = time.perf_counter()
    rep = run_convergence(sinusoidal_family(), [0.16, 0.08, 0.04, 0.02], 2.0 * math.pi)
    (s0, _), (s1, _), (s2, _) = rep.slopes
    elapsed = time.perf_counter() - start
    ok = abs(s0 - 1.0) <= 0.2 and abs(s1 - 2.0) <= 0.2 and abs(s2 - 3.0) <= 0.3 and elapsed < 60.0
    report(
        2, "convergence orders", ok,
        f"slopes=({s0:.3f}, {s1:.3f}, {s2:.3f}) vs (1±0.2, 2±0.2, 3±0.3), {elapsed:.1f}s (<60s)",
    )


def test_criterion_3_aa_identity():
    # equatorial precession, one full cycle
    b = constant(1.0)
    T = 2.0 * math.pi
    eq = integrate_bloch(b, [1.0, 0.0, 0.0], (0.0, T), grid_cfg((0.0, T), 4097, 1e-12, 1e-14))
    eq_c = aa_geometric_phase_coordinate(eq)
    eq_s = aa_geometric_phase_solid_angle(eq)
    # polar-angle pi/3 precession cone
    s0 = [math.sin(math.pi / 3), 0.0, math.cos(math.pi / 3)]
    cone = integrate_bloch(b, s0, (0.0, T), grid_cfg((0.0, T), 4097, 1e-12, 1e-14))
    cone_c = aa_geometric_phase_coordinate(cone)
    cone_s = aa_geometric_phase_solid_angle(cone)
    # non-trivial in-plane run: one full field revolution seeded with the
    # exact rotating-frame eigenstate, so the spin path closes by construction
    B0, om = 1.0, 0.1
    profile = uniform_rotation(B0, om)
    chi = math.atan2(om, B0)
    psi0 = np.array([math.cos(chi / 2), -1j * math.sin(chi / 2)])
    Tf = 2.0 * math.pi / om
    cfg = grid_cfg((0.0, Tf), 40001, 1e-12, 1e-14)
    traj = integrate_schrodinger(profile, psi0, (0.0, Tf), cfg)
    total = float(extract_total_phase(traj, "initial_state")[-1])
    dyn = phi_dyn_expect(traj)
    btraj = Trajectory(times=traj.times, states=bloch_series(traj), kind="bloch", profile=profile)
    coord = aa_geometric_phase_coordinate(btraj)
    identity_err = abs((total - dyn) - coord)
    ok = (
        abs(eq_c + math.pi) <= 1e-8
        and abs(eq_s + math.pi) <= 1e-8
        and abs(cone_c + math.pi / 2) <= 1e-8
        and abs(cone_s + math.pi / 2) <= 1e-8
        and identity_err <= 1e-6
    )
    report(
        3, "exact geometric phase", ok,
        f"equator=({eq_c:.9f}, {eq_s:.9f}) vs -pi, cone=({cone_c:.9f}, {cone_s:.9f}) "
        f"vs -pi/2, identity error={identity_err:.3g} (<=1e-6)",
    )


def test_criterion_4_berry_phase():
    cone = cone_3d(1.0, theta_c=math.pi / 3, omega_phi=0.05)
    T = 2.0 * math.pi / 0.05
    val = berry_phi1(cone, (0.0, T))
    in_plane = berry_phi1(sinusoidal_angle(1.0, theta0=0.3, Omega=0.05), (0.0, T))
    ok = abs(val - math.pi / 2) <= 1e-9 and in_plane == 0.0
    report(
        4, "first-order geometric phase", ok,
        f"cone loop={val:.12f} vs pi/2 (<=1e-9), in-plane={in_plane} (exact 0)",
    )


def test_criterion_5_stokes_identity():
    profile = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    T = 2.0 * math.pi / 0.05
    exact = -math.pi * 0.3**2 * 0.05 / 4.0
    fwd = loop_from_profile(profile, (0.0, T), 801)
    rev = loop_from_profile(profile, (0.0, T), 801, reverse=True)
    line_f = generalized_line_integral(fwd, 1.0)
    surf_f = stokes_surface_integral(fwd, 1.0)
    line_r = generalized_line_integral(rev, 1.0)
    surf_r = stokes_surface_integral(rev, 1.0)
    # the line and surface sides are one polygon sum; phi2 is a time-domain quadrature,
    # independent of the polygon, whose O(n^-2) error shrinks 25x from 801 to 4001 nodes
    quad = phi2(profile, (0.0, T))
    fine = generalized_line_integral(loop_from_profile(profile, (0.0, T), 4001), 1.0)
    order = abs(line_f - exact) / abs(fine - exact)
    ok = (
        abs(line_f - exact) <= 1e-6
        and abs(surf_f - exact) <= 1e-6
        and abs(line_f - surf_f) <= 1e-6
        and line_r == -line_f
        and surf_r == -surf_f
        and abs(quad - exact) <= 1e-15 * abs(exact)
        and order >= 20
    )
    report(
        5, "holonomy identity", ok,
        f"line={line_f:.10f}, surface={surf_f:.10f} vs {exact:.10f} (<=1e-6), "
        f"reversal flips sign exactly, phi2={quad:.16f} (rel <=1e-15), "
        f"polygon error 801/4001 nodes={order:.2f} (>=20)",
    )


def test_criterion_6_timescale():
    demo = run_timescale_demo(1.0, 0.05)
    closed_ok = abs(abs(demo.phi2_at_t1) - 0.25) <= 1e-14 and abs(demo.t1 - 400.0) <= 1e-9
    budget = run_phase_budget(uniform_rotation(1.0, 0.05), (0.0, 400.0))
    deviation = abs(budget.decomposition.phi_total_exact - budget.decomposition.phi0)
    numeric_ok = abs(deviation - 0.25) <= 3e-3
    ok = closed_ok and numeric_ok
    report(
        6, "first breakdown timescale", ok,
        f"t1={demo.t1:.6g}, |phi2(t1)|={abs(demo.phi2_at_t1):.12f} (=0.25), "
        f"numeric |total-phi0|={deviation:.6f} vs 0.25 (<=3e-3)",
    )


def test_criterion_7_ehrenfest_and_chain_consistency():
    profile = uniform_rotation(1.0, 0.1)
    t_span = (0.0, 50.0)
    cfg = grid_cfg(t_span, 2001, rel_tol=1e-10, abs_tol=1e-13)
    psi0 = tracked_eigenvector(profile, 0.0)
    straj = integrate_schrodinger(profile, psi0, t_span, cfg)
    btraj = integrate_bloch(profile, spinor_to_bloch(psi0), t_span, cfg)
    ehrenfest = float(np.max(np.abs(bloch_series(straj) - btraj.states)))

    eps = 0.05
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        z = rng.normal(size=4)
        psi3 = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
        psi3 /= np.linalg.norm(psi3)
        chain = transform_chain(rng.uniform(0.0, 2 * math.pi),
                                AdiabaticParams(delta=eps, gamma=eps**2, b_eff=1.0))
        lhs = spinor_to_bloch(chain.u_total @ psi3)
        c = SolutionConstants(psi3[0], psi3[1])
        rhs = chain.r_total @ np.array([c.A, c.B, c.C])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    bound = 5.0 * eps**3
    ok = ehrenfest <= 1e-8 and worst <= bound
    report(
        7, "Ehrenfest and chain consistency", ok,
        f"spinor-vs-Bloch sup diff={ehrenfest:.3g} (<=1e-8), "
        f"chain residual={worst:.3g} (<= {bound:.3g})",
    )


def test_criterion_8_factor_of_two_report(tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["phases", "--profile", "uniform_rotation", "--B0", "1.0",
                         "--omega", "0.1", "--t-end", "200", "--formats", "json",
                         "--out", str(tmp_path)])
    d = json.loads((tmp_path / "phases.json").read_text(encoding="utf-8"))
    lines = out.getvalue().splitlines()[:-1]  # the last line names the file written
    for line in lines:
        print(f"    {line}")
    printed = {k.strip(): float(v) for k, v in (line.split(" = ") for line in lines)}
    keys = ("phi0", "phi1", "phi2", "phi_total_exact", "phi_dyn_expect", "phi_geom_aa",
            "residual_eps4", "r_aa", "aa_over_phi2_ratio")
    # diagnostic only: the ratio is recorded, never asserted; asserted facts
    # are those of criterion 1
    ok = (code == 0 and list(printed) == list(keys)
          and all(math.isclose(printed[k], d[k], rel_tol=1e-11, abs_tol=1e-300) for k in keys)
          and all(math.isfinite(d[k]) for k in ("phi2", "phi_geom_aa", "aa_over_phi2_ratio",
                                                 "r_aa")))
    report(
        8, "2x bookkeeping diagnostic", ok,
        f"phi2={d['phi2']:.6f}, aa part={d['phi_geom_aa']:.6f}, "
        f"ratio={d['aa_over_phi2_ratio']:.4f} (reported, not asserted)",
    )
