"""Orchestrated experiments turning the theory's claims into pass/fail numbers.

Each runner is deterministic: no randomness anywhere, so re-running a
configuration reproduces its record, and the CLI's files, byte for byte.
Runners validate their horizon against the breakdown time t2 = B**3 / rate**4
(rate = max |d(B/|B|)/dt| = max hypot(theta_dot, sin(theta) phi_dot)), beyond one
tenth of which the neglected fourth-order frequency corrections are no longer guaranteed small.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .adiabatic_engine import quasi_stationary, tracked_eigenvector
from .errors import ConfigError
from .exact_dynamics import (IntegratorConfig, _check_cfg, _check_count, extract_total_phase,
                             integrate_bloch, integrate_schrodinger)
from .field_profiles import FieldProfile, _finite, check_span, sample, sinusoidal_angle
from .geometric_phases import (
    MLoop,
    PhaseDecomposition,
    generalized_line_integral,
    phase_decomposition,
    stokes_surface_integral,
)


def check_horizon(profile: FieldProfile, t_span: tuple[float, float]) -> float:
    """Reject spans beyond 0.1 * t2; returns the t2 estimate (inf if static)."""
    check_span(t_span)
    s = sample(profile, np.linspace(t_span[0], t_span[1], 257))
    rate = float(np.max(np.hypot(s.theta_dot, np.sin(s.theta) * s.phi_dot)))  # |d(B/|B|)/dt|
    t2 = _breakdown_time(float(np.min(s.B_mag)), rate, 2)
    span = abs(t_span[1] - t_span[0])
    if span > 0.1 * t2:
        raise ConfigError(
            f"span {span} exceeds 0.1*t2 = {0.1 * t2}; fourth-order frequency "
            "corrections would not stay negligible"
        )
    return t2


def _breakdown_time(b: float, rate: float, k: int) -> float:
    """t_k = b**(2k - 1) / rate**(2k): t1 = b / rate**2, t2 = b**3 / rate**4; inf if rate == 0.

    Where Python's float ``**`` and ``/`` return, this is their value.  Where
    they would overflow or divide by zero, the quotient is formed from the
    binary mantissas and exponents of b and rate: the IEEE limit (inf, or
    0.0 after gradual underflow) of a quotient past the double range, and
    the quotient itself where only the powers leave that range.
    """
    if rate == 0.0:
        return math.inf
    try:
        return b ** (2 * k - 1) / rate ** (2 * k)
    except (OverflowError, ZeroDivisionError):
        (mb, eb), (mr, er) = math.frexp(b), math.frexp(rate)
        try:
            return math.ldexp(mb ** (2 * k - 1) / mr ** (2 * k), (2 * k - 1) * eb - 2 * k * er)
        except OverflowError:
            return math.inf


# ---------------------------------------------------------------------------
# Convergence orders of the quasi-stationary corrections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """Max spin deviations per adiabaticity scale and their log-log slopes."""

    epsilons: list[float]
    errors_order0: list[float]
    errors_order1: list[float]
    errors_order2: list[float]
    slopes: list[tuple[float, float]]  # (slope, standard error) per order


def sinusoidal_family(
    theta0: float = 0.3, Omega: float = 1.0, B0: float = 1.0
) -> Callable[[float], FieldProfile]:
    """Profile family for convergence studies: theta = theta0 sin(Omega eps t)."""

    def make(eps: float) -> FieldProfile:
        return sinusoidal_angle(B0=B0, theta0=theta0, Omega=Omega, epsilon=eps)

    return make


def _ols_loglog(eps: Sequence[float], errs: Sequence[float]) -> tuple[float, float]:
    x = np.log(np.asarray(eps))
    y = np.log(np.asarray(errs))
    n = len(x)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    resid = y - (ym + slope * (x - xm))
    dof = max(n - 2, 1)
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return slope, stderr


def run_convergence(
    profile_family: Callable[[float], FieldProfile],
    eps_list: Sequence[float],
    horizon_eps_t: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    n_nodes: int = 1201,
) -> ConvergenceReport:
    """Fit the truncation orders of the quasi-stationary corrections.

    For each scale eps the classical precession is integrated over a fixed
    slow-time horizon (lab span horizon_eps_t/eps), seeded on the
    quasi-stationary branch, and the max deviation from the order-0/1/2
    closed forms is recorded.  Expected log-log slopes: 1, 2, 3.  A ``cfg``, ``eps_list``
    or horizon or epsilon of the wrong type, or not finite, raises ConfigError.
    """
    _check_cfg(cfg)
    if not isinstance(eps_list, (Sequence, np.ndarray)):
        raise ConfigError(f"eps_list must be a sequence of numbers, got {eps_list!r}")
    horizon_eps_t = _finite("horizon_eps_t", horizon_eps_t)
    eps_sorted = sorted((_finite("epsilon", e) for e in eps_list), reverse=True)
    if len(set(eps_sorted)) < 2:
        raise ConfigError("need at least two distinct epsilon values to fit slopes")
    _check_count("n_nodes", n_nodes, 0)
    errs = ([], [], [])
    for eps in eps_sorted:
        profile = profile_family(eps)
        t_span = (0.0, horizon_eps_t / eps)
        check_horizon(profile, t_span)
        grid = np.linspace(t_span[0], t_span[1], n_nodes)
        qs0 = quasi_stationary(profile, 0.0)
        s0 = qs0.s_total / np.linalg.norm(qs0.s_total)
        traj = integrate_bloch(profile, s0, t_span, replace(cfg, dense_output_grid=grid))
        qs = quasi_stationary(profile, traj.times)
        for k, approx in enumerate((qs.s0, qs.s0 + qs.s1, qs.s_total)):
            worst = float(np.max(np.linalg.norm(traj.states - approx, axis=1)))
            # floor at machine scale so static profiles keep the log fit defined
            errs[k].append(max(worst, 1e-16))
    slopes = [_ols_loglog(eps_sorted, errs[k]) for k in range(3)]
    return ConvergenceReport(
        epsilons=eps_sorted,
        errors_order0=errs[0],
        errors_order1=errs[1],
        errors_order2=errs[2],
        slopes=slopes,
    )


# ---------------------------------------------------------------------------
# Phase budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseBudget:
    """Phase decomposition plus residuals; the 2x question stays diagnostic.

    r_total = phi_total_exact - (phi0 + phi2) is the fourth-order remainder;
    r_aa = phi_geom_aa - 2*phi2 records how far the geometric part is from
    twice the second-order correction.  Only r_total has an asserted scale.

    On the uniform-rotation oracle, seeded with the exactly cyclic state
    (tilted from B by chi, tan chi = omega/B), the ratio phi_geom_aa/phi2 is
    exactly 2 cos chi = 2 - delta**2 + O(delta**4), and the tests pin it
    there; for generic profiles it stays reported, not asserted.
    """

    decomposition: PhaseDecomposition
    r_total: float
    r_aa: float
    metadata: dict = field(default_factory=dict)


def run_phase_budget(
    profile: FieldProfile,
    t_span: tuple[float, float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> PhaseBudget:
    """Integrate on the quasi-stationary branch and tabulate every phase.

    A grid too coarse to unwrap the phase raises BranchJump."""
    check_horizon(profile, t_span)
    traj = integrate_schrodinger(profile, tracked_eigenvector(profile, t_span[0]), t_span, cfg)
    dec = phase_decomposition(traj, float(extract_total_phase(traj)[-1]))
    return PhaseBudget(
        decomposition=dec,
        r_total=dec.phi_total_exact - (dec.phi0 + dec.phi2),
        r_aa=dec.phi_geom_aa - 2.0 * dec.phi2,
        metadata={
            "profile_kind": profile.kind,
            "t_span": list(t_span),
            "rel_tol": cfg.rel_tol,
            "abs_tol": cfg.abs_tol,
        },
    )


# ---------------------------------------------------------------------------
# Holonomy identity table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StokesRow:
    loop_id: str
    line_integral: float
    surface_integral: float
    abs_diff: float


def run_stokes_check(
    loops: Sequence[tuple[str, MLoop]], B_list: Sequence[float]
) -> list[StokesRow]:
    """Line vs surface holonomy value for every (loop, field strength) pair."""
    rows = []
    for loop_id, loop in loops:
        for B in B_list:
            line = generalized_line_integral(loop, B)
            surf = stokes_surface_integral(loop, B)
            rows.append(
                StokesRow(
                    loop_id=f"{loop_id}@B={B:g}",
                    line_integral=line,
                    surface_integral=surf,
                    abs_diff=abs(line - surf),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Timescale demonstration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimescaleDemo:
    """First breakdown scale of the second-order phase for uniform rotation.

    t1 = B/omega**2 is where |phi2| reaches 1/4, so phi2_at_t1 is -1/4 (0
    for a static field); t2 = B**3/omega**4 bounds the horizon on which the
    solution itself remains valid.
    """

    t1: float
    phi2_at_t1: float
    t2: float


def run_timescale_demo(B: float, omega: float) -> TimescaleDemo:
    B, omega = _finite("B", B), _finite("omega", omega)
    if B <= 0:
        raise ConfigError(f"B must be positive, got {B}")
    return TimescaleDemo(t1=_breakdown_time(B, omega, 1), phi2_at_t1=-0.25 if omega else 0.0,
                         t2=_breakdown_time(B, omega, 2))
