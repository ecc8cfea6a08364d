"""Exact (non-adiabatic) reference dynamics for spinor and classical spin.

Two independent references are provided:

* adaptive embedded Runge-Kutta integration (scipy ``solve_ivp``, DOP853 by
  default) of the spinor equation i dpsi/dt = H(t) psi and the classical
  precession equation dS/dt = B x S;
* a fixed-step exponential-midpoint stepper that advances by the exact
  group element of the midpoint field (norm-preserving to roundoff), for
  long horizons and order cross-checks.

The mean-spin map uses S = <psi|sigma|psi> with the standard Pauli
matrices, i.e. Sx = 2 Re(conj(up) dn), Sy = 2 Im(conj(up) dn),
Sz = |up|^2 - |dn|^2, which sends (1, i)/sqrt(2) to (0, 1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .adiabatic_engine import tracked_eigenvector
from .errors import (
    BranchJump,
    ConfigError,
    DomainError,
    NormalizationError,
    OverlapLoss,
    StepSizeUnderflow,
)
from .field_profiles import FieldProfile, FieldSample, _number, sample

MAX_GRID_REFINE = 16
# largest time grid any run may build, in nodes (about 160 MB of spinor states)
MAX_GRID_NODES = 10**7
# solve_ivp's methods that integrate complex states
_METHODS = ("RK23", "RK45", "DOP853", "Radau", "BDF")
_NORM_TOL = 1e-9  # largest norm defect as_spinor and as_bloch renormalize away
_DEFECT_PROBES = 16  # nodes residual_defect probes


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and output control for the adaptive integrators.

    The tolerances and ``max_step`` are stored as floats; any invalid
    setting raises :class:`ConfigError`.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    dense_output_grid: Sequence[float] | None = None
    method: str = "DOP853"

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not (0.0 < tol <= 1e-2):
                raise ConfigError(f"{name} must lie in (0, 1e-2], got {tol}")
        if not self.max_step > 0:
            raise ConfigError(f"max_step must be positive, got {self.max_step}")
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {', '.join(_METHODS)}; got {self.method!r}")


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped series of states from integration or closed-form evaluation."""

    times: np.ndarray
    states: np.ndarray
    kind: str  # "spinor" or "bloch"
    profile: FieldProfile | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        dt = np.diff(self.times)
        # strictly monotonic; decreasing only for backward (time-reversal) runs
        if not (np.all(dt > 0) or np.all(dt < 0)):
            raise DomainError("trajectory times must be strictly monotonic")
        if len(self.times) != len(self.states):
            raise DomainError("times and states must have equal length")


# ---------------------------------------------------------------------------
# State helpers
# ---------------------------------------------------------------------------

def as_spinor(psi) -> np.ndarray:
    """Validate and exactly renormalize a two-component state."""
    psi = np.asarray(psi, dtype=complex).reshape(2)
    norm = math.sqrt(float(np.vdot(psi, psi).real))
    if abs(norm - 1.0) > _NORM_TOL:
        raise NormalizationError(f"spinor norm {norm} deviates from 1 beyond {_NORM_TOL}")
    return psi / norm


def as_bloch(S) -> np.ndarray:
    """Validate and exactly renormalize a classical unit spin vector."""
    S = np.asarray(S, dtype=float).reshape(3)
    norm = float(np.linalg.norm(S))
    if abs(norm - 1.0) > _NORM_TOL:
        raise NormalizationError(f"spin norm {norm} deviates from 1 beyond {_NORM_TOL}")
    return S / norm


def spinor_to_bloch(psi) -> np.ndarray:
    """Mean classical spin vector of a (near-)normalized spinor.

    The norm is divided out, so fourth-order normalization defects of
    truncated chain products are projected away; only gross misuse is
    rejected.
    """
    psi = np.asarray(psi, dtype=complex).reshape(2)
    nn = float(np.vdot(psi, psi).real)
    if abs(nn - 1.0) > 1e-3:
        raise NormalizationError(f"spinor norm^2 {nn} too far from 1")
    return _mean_spin(psi)


def bloch_to_spinor(S) -> np.ndarray:
    """A spinor (phase gauge: real non-negative upper component) with given mean spin."""
    S = as_bloch(S)
    th = math.acos(max(-1.0, min(1.0, S[2])))
    ph = math.atan2(S[1], S[0])
    return np.array([math.cos(0.5 * th), math.sin(0.5 * th) * np.exp(1j * ph)])


def bloch_series(traj: Trajectory) -> np.ndarray:
    """Mean-spin series of a spinor trajectory (vectorized, norm-corrected)."""
    if traj.kind != "spinor":
        return np.asarray(traj.states, dtype=float)
    return _mean_spin(traj.states)


def _mean_spin(psi: np.ndarray) -> np.ndarray:
    """<psi|sigma|psi> / <psi|psi> for spinors on the last axis of a (..., 2) array."""
    up, dn = psi[..., 0], psi[..., 1]
    nn = (np.abs(up) ** 2 + np.abs(dn) ** 2).real
    cross = np.conj(up) * dn
    return np.stack(
        [2.0 * cross.real, 2.0 * cross.imag, np.abs(up) ** 2 - np.abs(dn) ** 2], axis=-1
    ) / nn[..., None]


def hamiltonian_matrix(s: FieldSample) -> np.ndarray:
    """Two-level Hamiltonian (1/2) B . sigma for the sampled field.

    The reference form of H: the solvers' right-hand side writes ``-i H psi``
    out component by component and is tested against this matrix.
    """
    bx, by, bz = s.B_vec
    return 0.5 * np.array([[bz, bx - 1j * by], [bx + 1j * by, -bz]], dtype=complex)


# ---------------------------------------------------------------------------
# Adaptive integration
# ---------------------------------------------------------------------------

def _span_nodes(profile: FieldProfile, t_span: tuple[float, float]) -> float:
    """Nodes the span needs at ~16 per radian of the fastest phase rate (the field magnitude).

    A span needing ``MAX_GRID_NODES`` or more raises ConfigError.
    """
    t0, t1 = t_span
    b_max = float(np.max(sample(profile, np.linspace(t0, t1, 65)).B_mag))
    nodes = abs(t1 - t0) * 16.0 * max(b_max, 1e-3)
    if not nodes < MAX_GRID_NODES:
        raise ConfigError(f"span {t_span} needs {nodes:.3g} grid nodes, "
                          f"more than the limit of {MAX_GRID_NODES}")
    return nodes


def default_grid(profile: FieldProfile, t_span: tuple[float, float]) -> np.ndarray:
    """Uniform output grid dense enough for phase unwrapping.

    ``_span_nodes`` nodes with a floor of 257; a span needing
    ``MAX_GRID_NODES`` or more raises ConfigError before anything is allocated.
    """
    nodes = _span_nodes(profile, t_span)
    return np.linspace(t_span[0], t_span[1], max(257, int(math.ceil(nodes)) + 1))


def _run_solver(rhs, y0, t_span, grid, cfg):
    sol = solve_ivp(
        rhs,
        t_span,
        y0,
        method=cfg.method,
        t_eval=grid,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        max_step=cfg.max_step,
        dense_output=False,
    )
    if not sol.success:
        raise StepSizeUnderflow(f"integration failed: {sol.message}")
    return sol


def integrate_schrodinger(
    profile: FieldProfile,
    psi0,
    t_span: tuple[float, float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate i dpsi/dt = H(t) psi over t_span.

    The returned trajectory records the worst norm drift in its metadata;
    the contract is |norm^2 - 1| <= 10 * rel_tol * span.
    """
    return _integrate("spinor", profile, as_spinor(psi0), t_span, cfg)


def integrate_bloch(
    profile: FieldProfile,
    S0,
    t_span: tuple[float, float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the precession equation dS/dt = B(t) x S over t_span."""
    return _integrate("bloch", profile, as_bloch(S0), t_span, cfg)


def _rhs(kind: str, profile: FieldProfile):
    """Right-hand side of i dpsi/dt = H psi ("spinor") or dS/dt = B x S ("bloch").

    Both are written out component by component on Python scalars, because
    ``np.cross`` and a complex 2x2 matmul cost several times this arithmetic.
    The spinor state stays complex, so the solver's error norm and step
    sequence do not change.  The tests check both against their reference
    forms, ``-i H psi`` with :func:`hamiltonian_matrix` and ``np.cross(B, S)``.
    """
    if kind == "spinor":
        def spinor(t, y):
            bx, by, bz = sample(profile, t).B_vec.tolist()
            up, dn = y.tolist()
            return np.array([-0.5j * (bz * up + (bx - 1j * by) * dn),
                             -0.5j * ((bx + 1j * by) * up - bz * dn)])
        return spinor

    def bloch(t, y):
        bx, by, bz = sample(profile, t).B_vec.tolist()
        sx, sy, sz = y.tolist()
        return np.array([by * sz - bz * sy, bz * sx - bx * sz, bx * sy - by * sx])
    return bloch


def _integrate(kind, profile, y0, t_span, cfg):
    grid = _grid_for(profile, t_span, cfg)
    sol = _run_solver(_rhs(kind, profile), y0, t_span, grid, cfg)
    states = sol.y.T
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return Trajectory(
        times=sol.t,
        states=states,
        kind=kind,
        profile=profile,
        metadata=_meta(cfg, norm_drift=drift),
    )


def _grid_for(profile, t_span, cfg):
    """The run's output grid; any span the default grid could not cover raises ConfigError."""
    if cfg.dense_output_grid is not None:
        grid = np.asarray(cfg.dense_output_grid, dtype=float)
        if grid[0] != t_span[0] or grid[-1] != t_span[1]:
            raise DomainError("dense_output_grid must start/end exactly at t_span")
        _span_nodes(profile, t_span)
        return grid
    return default_grid(profile, t_span)


def _meta(cfg, **extra):
    d = {
        "rel_tol": cfg.rel_tol,
        "abs_tol": cfg.abs_tol,
        "max_step": cfg.max_step,
        "method": cfg.method,
    }
    d.update(extra)
    return d


# ---------------------------------------------------------------------------
# Norm-preserving exponential-midpoint stepper
# ---------------------------------------------------------------------------

def exponential_midpoint_schrodinger(
    profile: FieldProfile, psi0, t_span: tuple[float, float], n_steps: int
) -> Trajectory:
    """Fixed-step stepper applying the exact rotation of the midpoint field.

    Each step multiplies by exp(-i H(t_mid) h) evaluated in closed form, so
    the norm is conserved to roundoff regardless of horizon; accuracy is
    second order in the step.  ``n_steps`` must be a positive integer with
    ``n_steps + 1 <= MAX_GRID_NODES``, else ConfigError before anything is
    allocated.

    All midpoints are sampled in one call and the steps are composed by a
    numpy prefix product, later step on the left (state k is
    U_{k-1} ... U_1 U_0 psi0): about 2 * n_steps SU(2) products in log2(n_steps)
    whole-array levels, O(n_steps) time, and a peak of about 200 bytes per
    step, most of it the field sample of all midpoints.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ConfigError(f"n_steps must be a positive integer, got {n_steps!r}")
    if n_steps + 1 > MAX_GRID_NODES:
        raise ConfigError(f"{n_steps} steps need more than the limit of "
                          f"{MAX_GRID_NODES} grid nodes")
    psi0 = as_spinor(psi0)
    t0, t1 = t_span
    h = (t1 - t0) / n_steps
    times = t0 + h * np.arange(n_steps + 1)
    s = sample(profile, t0 + (np.arange(n_steps) + 0.5) * h)
    ang = 0.5 * s.B_mag * h
    c, si = np.cos(ang), np.sin(ang)
    nx, ny, nz = (s.B_vec / s.B_mag[:, None]).T
    # each step is the SU(2) matrix [[a, -conj(b)], [b, conj(a)]]
    a, b = c - 1j * si * nz, -1j * si * (nx + 1j * ny)
    del s, ang, c, si, nx, ny, nz  # the midpoint sample would otherwise set the peak memory
    _prefix_products(a, b)
    states = np.empty((n_steps + 1, 2), dtype=complex)
    states[0] = psi0
    up, dn = psi0
    states[1:, 0] = a * up - np.conj(b) * dn
    states[1:, 1] = b * up + np.conj(a) * dn
    return Trajectory(times=times, states=states, kind="spinor", profile=profile,
                      metadata={"method": "exp_midpoint", "n_steps": n_steps})


def _compose(a_hi, b_hi, a_lo, b_lo):
    """SU(2) pair of the product hi @ lo of two [[a, -conj(b)], [b, conj(a)]] matrices."""
    return a_hi * a_lo - np.conj(b_hi) * b_lo, b_hi * a_lo + np.conj(a_hi) * b_lo


def _prefix_products(a: np.ndarray, b: np.ndarray) -> None:
    """Overwrite SU(2) pairs (a[k], b[k]) with the products of steps k, k-1, ..., 0.

    Odd-even recursion: the products of step pairs (2k+1, 2k) are scanned at
    half length, then each even prefix is its step times the odd prefix before it.
    """
    if len(a) < 2:
        return
    pa, pb = _compose(a[1::2], b[1::2], a[0:-1:2], b[0:-1:2])
    _prefix_products(pa, pb)
    a[1::2], b[1::2] = pa, pb
    k = (len(a) - 1) // 2
    a[2::2], b[2::2] = _compose(a[2::2], b[2::2], pa[:k], pb[:k])


def exponential_midpoint_bloch(
    profile: FieldProfile, S0, t_span: tuple[float, float], n_steps: int
) -> Trajectory:
    """Fixed-step rotation about the midpoint field direction.

    Steps the spinor of S0 with :func:`exponential_midpoint_schrodinger`
    and maps its states to mean spins, so both representations share one
    stepper.
    """
    traj = exponential_midpoint_schrodinger(profile, bloch_to_spinor(S0), t_span, n_steps)
    return replace(traj, states=bloch_series(traj), kind="bloch")


# ---------------------------------------------------------------------------
# Defect estimate (RK4 half-steps)
# ---------------------------------------------------------------------------

def residual_defect(traj: Trajectory, profile: FieldProfile) -> float:
    """Max local defect of the stored trajectory at ``_DEFECT_PROBES`` probe nodes.

    From each probe node, two classical RK4 half-steps of h/2 cover the
    local grid spacing h; the distance of the stored next node from their
    result estimates the local defect of the stored solution at grid
    resolution.
    """
    rhs = _rhs(traj.kind, profile)
    idx = np.unique(np.linspace(0, len(traj.times) - 2, _DEFECT_PROBES).astype(int))
    worst = 0.0
    for i in idx:
        t, h = traj.times[i], traj.times[i + 1] - traj.times[i]
        y = traj.states[i]
        half = _rk4(rhs, t, y, 0.5 * h)
        two = _rk4(rhs, t + 0.5 * h, half, 0.5 * h)
        worst = max(worst, float(np.linalg.norm(traj.states[i + 1] - two)))
    return worst


def _rk4(rhs, t, y, h):
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# ---------------------------------------------------------------------------
# Phase extraction
# ---------------------------------------------------------------------------

def extract_total_phase(traj: Trajectory, reference: str = "tracked_eigenvector") -> np.ndarray:
    """Continuous unwrapped phase arg<ref(t)|psi(t)>, zero at the first node.

    reference="initial_state" projects on the frozen initial state;
    "tracked_eigenvector" projects on the instantaneous quasi-stationary
    spinor direction (requires the trajectory's profile and an overlap
    staying above 0.5).

    Raises
    ------
    OverlapLoss
        Tracked overlap fell to 0.5 or below (state left the branch).
    BranchJump
        Phase moved more than pi/2 between adjacent nodes, the a-priori
        step bound 0.5*|B|*dt reached pi/2 (aliasing, which the wrapped steps
        cannot show), or the overlap passed through zero; the grid is too
        coarse to unwrap safely.
    """
    if traj.kind != "spinor":
        raise DomainError("phase extraction needs a spinor trajectory")
    if reference == "initial_state":
        refs = np.broadcast_to(traj.states[0], traj.states.shape)
    elif reference == "tracked_eigenvector":
        if traj.profile is None:
            raise DomainError("tracked reference requires the trajectory's profile")
        refs = tracked_eigenvector(traj.profile, traj.times)
    else:
        raise DomainError(f"unknown phase reference {reference!r}")
    if traj.profile is not None:
        b_steps = 0.5 * sample(traj.profile, traj.times).B_mag[:-1] * np.abs(np.diff(traj.times))
        if b_steps.size and float(np.max(b_steps)) >= 0.5 * np.pi:
            raise BranchJump(f"a-priori phase step {float(np.max(b_steps)):.3g} rad "
                             "reaches pi/2; refine the grid")

    overlaps = np.sum(np.conj(refs) * traj.states, axis=1)
    mags = np.abs(overlaps)
    if reference == "tracked_eigenvector" and float(np.min(mags)) <= 0.5:
        raise OverlapLoss(
            f"tracked overlap dropped to {float(np.min(mags)):.3g}; adiabaticity broken"
        )
    if float(np.min(mags)) < 1e-12:
        raise BranchJump("overlap passed through zero; phase undefined on this grid")
    raw = np.angle(overlaps)
    steps = np.diff(raw)
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    worst = float(np.max(np.abs(steps))) if steps.size else 0.0
    if worst > 0.5 * np.pi:
        raise BranchJump(f"phase step {worst:.3g} rad exceeds pi/2; refine the grid")
    phases = np.empty_like(raw)
    phases[0] = 0.0
    np.cumsum(steps, out=phases[1:])
    return phases


def schrodinger_phase(
    profile: FieldProfile,
    psi0,
    t_span: tuple[float, float],
    cfg: IntegratorConfig = IntegratorConfig(),
    reference: str = "tracked_eigenvector",
) -> tuple[Trajectory, np.ndarray]:
    """Integrate and extract the total phase, refining the grid on branch jumps.

    The dense-output grid is doubled (up to 16x, and to no more than
    ``MAX_GRID_NODES``) whenever unwrapping raises BranchJump; the final
    trajectory and phase series are returned together.
    """
    grid = _grid_for(profile, t_span, cfg)
    factor = 1
    while True:
        traj = integrate_schrodinger(profile, psi0, t_span, replace(cfg, dense_output_grid=grid))
        try:
            return traj, extract_total_phase(traj, reference)
        except BranchJump:
            if factor >= MAX_GRID_REFINE or 2 * len(grid) > MAX_GRID_NODES:
                raise
            factor *= 2
            grid = np.linspace(t_span[0], t_span[1], 2 * (len(grid) - 1) + 1)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV text with 17-significant-digit floats."""
    if traj.kind == "spinor":
        up, dn = traj.states[:, 0], traj.states[:, 1]
        return _csv("t,re_up,im_up,re_dn,im_dn",
                    np.column_stack([traj.times, up.real, up.imag, dn.real, dn.imag]))
    return _csv("t,Sx,Sy,Sz", np.column_stack([traj.times, traj.states]))


def _csv(header: str, table, labels: Sequence[str] | None = None) -> str:
    """CSV text: the header line, one line per row of the 2-D float ``table``, a final newline.

    Every cell is written with 17 significant digits, which round-trips a
    float exactly; given ``labels``, each line starts with its row's label.
    """
    lines = [",".join(map("{:.17g}".format, row.tolist()))
             for row in np.asarray(table, dtype=float)]
    if labels is not None:
        lines = [f"{label},{line}" for label, line in zip(labels, lines)]
    return "\n".join([header, *lines]) + "\n"
