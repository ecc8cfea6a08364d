"""Exact (non-adiabatic) reference dynamics for spinor and classical spin.

Two independent references are provided:

* the default ``magnus4`` integrator: the fourth-order commutator-free
  Magnus method CF4 (Blanes & Moan 2006; Alvermann & Fehske 2011), two
  exact SU(2) exponentials per step, so the norm holds to roundoff.  Each
  interval of the output grid gets k steps, and k doubles until the
  Richardson estimate |psi_k - psi_2k|/15 meets the tolerances.  The
  classical spin is the mean spin of the spinor run;
* opt-in adaptive eighth-order Runge-Kutta integration (scipy ``solve_ivp``
  with ``method="DOP853"``) of i dpsi/dt = H(t) psi and of the precession
  equation dS/dt = B x S.  scipy is imported when a config naming DOP853
  is built,

plus fixed-step CF4 and exponential-midpoint spinor steppers that keep every
step, for long horizons and order cross-checks (``bloch_series`` maps their
states to mean spins).

The mean-spin map uses S = <psi|sigma|psi> with the standard Pauli
matrices, i.e. Sx = 2 Re(conj(up) dn), Sy = 2 Im(conj(up) dn),
Sz = |up|^2 - |dn|^2, which sends (1, i)/sqrt(2) to (0, 1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .adiabatic_engine import _compose, tracked_eigenvector
from .errors import (
    BranchJump,
    ConfigError,
    DomainError,
    NormalizationError,
    OverlapLoss,
    StepSizeUnderflow,
)
from .field_profiles import FieldProfile, _field_vector, _number, sample

MAX_GRID_REFINE = 16
# largest time grid any run may build, in nodes (about 160 MB of spinor states)
MAX_GRID_NODES = 10**7
# IntegratorConfig's methods: magnus4 (numpy only) and scipy's solve_ivp DOP853
_METHODS = ("magnus4", "DOP853")
_BLOCK_STEPS = 1 << 16  # steps the fixed-step steppers sample and compose at a time
# CF4: Gauss points of a step and the weights of its two exponentials
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_A1, _CF4_A2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_NORM_TOL = 1e-9  # largest norm defect as_spinor and as_bloch renormalize away


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, method and output control for the exact integrators.

    ``method`` is ``"magnus4"`` (numpy only) or ``"DOP853"``, scipy's
    ``solve_ivp`` method, which imports scipy here.  The tolerances and
    ``max_step`` are stored as floats; any invalid setting, or DOP853
    without scipy installed, raises :class:`ConfigError`.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    dense_output_grid: Sequence[float] | None = None
    method: str = "magnus4"

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
        if self.method == "DOP853":
            _solve_ivp()


def _solve_ivp():
    """scipy's ``solve_ivp``; ConfigError when scipy is not installed."""
    try:
        from scipy.integrate import solve_ivp
    except ImportError:
        raise ConfigError("DOP853 needs scipy; install the reference extra, "
                          "pip install 'spinphase[reference]'") from None
    return solve_ivp


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
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise NormalizationError(f"spinor norm {norm} deviates from 1 beyond {_NORM_TOL}")
    return psi / norm


def as_bloch(S) -> np.ndarray:
    """Validate and exactly renormalize a classical unit spin vector."""
    S = np.asarray(S, dtype=float).reshape(3)
    norm = float(np.linalg.norm(S))
    if not abs(norm - 1.0) <= _NORM_TOL:
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
    if not abs(nn - 1.0) <= 1e-3:
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
    return np.stack(_spin_components(psi), axis=-1)


def _spin_components(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The components (Sx, Sy, Sz) of :func:`_mean_spin`, each of shape psi.shape[:-1].

    The norm is divided out, so the spin is a unit vector to roundoff.
    """
    up, dn = psi[..., 0], psi[..., 1]
    uu, dd = np.abs(up) ** 2, np.abs(dn) ** 2
    nn = uu + dd
    cross = np.conj(up) * dn
    # in place where a temporary would be made: the results are the same bits
    sx, sy = 2.0 * cross.real, 2.0 * cross.imag
    sx /= nn
    sy /= nn
    uu -= dd
    uu /= nn
    return sx, sy, uu


# ---------------------------------------------------------------------------
# Integration on an output grid
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


def _run_solver(rhs, y0, grid, cfg):
    sol = _solve_ivp()(
        rhs,
        (grid[0], grid[-1]),
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
    """Integrate i dpsi/dt = H(t) psi over t_span, with ``cfg.method``.

    The returned trajectory records the worst norm drift in its metadata
    (and, for ``magnus4``, the steps per grid interval and the Richardson
    error estimate); the contract is |norm^2 - 1| <= 10 * rel_tol * span.
    """
    return _integrate("spinor", profile, as_spinor(psi0), _grid_for(profile, t_span, cfg), cfg)


def integrate_bloch(
    profile: FieldProfile,
    S0,
    t_span: tuple[float, float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the precession equation dS/dt = B(t) x S over t_span.

    ``magnus4`` integrates the spinor of S0 and returns its mean spins.
    """
    return _integrate("bloch", profile, as_bloch(S0), _grid_for(profile, t_span, cfg), cfg)


def _rhs(kind: str, profile: FieldProfile):
    """Right-hand side of i dpsi/dt = H psi ("spinor") or dS/dt = B x S ("bloch").

    Both are written out component by component on Python scalars, because
    ``np.cross`` and a complex 2x2 matmul cost several times this arithmetic,
    and read the field as three Python floats from ``_field_vector``, which
    makes ``sample``'s checks without building a ``FieldSample``.
    The spinor state stays complex, so the solver's error norm and step
    sequence do not change.  The tests check both against their reference
    forms, ``-i H psi`` with the matrix H = (1/2) B . sigma and ``np.cross(B, S)``.
    """
    if kind == "spinor":
        def spinor(t, y):
            bx, by, bz = _field_vector(profile, t)
            up, dn = y.tolist()
            return np.array([-0.5j * (bz * up + (bx - 1j * by) * dn),
                             -0.5j * ((bx + 1j * by) * up - bz * dn)])
        return spinor

    def bloch(t, y):
        bx, by, bz = _field_vector(profile, t)
        sx, sy, sz = y.tolist()
        return np.array([by * sz - bz * sy, bz * sx - bx * sz, bx * sy - by * sx])
    return bloch


def _integrate(kind, profile, y0, grid, cfg):
    if cfg.method == "magnus4":
        states, meta = _magnus4_on_grid(
            profile, y0 if kind == "spinor" else bloch_to_spinor(y0), grid, cfg)
        if kind == "bloch":
            states = _mean_spin(states)
    else:
        sol = _run_solver(_rhs(kind, profile), y0, grid, cfg)
        grid, states, meta = sol.t, sol.y.T, {}
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return Trajectory(
        times=grid,
        states=states,
        kind=kind,
        profile=profile,
        metadata=_meta(cfg, norm_drift=drift, **meta),
    )


def _magnus4_on_grid(profile, psi0, grid, cfg):
    """CF4 states on the grid and their metadata, with k steps in every grid interval.

    k starts at ceil(largest interval / max_step), at least 1, and doubles until the
    Richardson estimate max |psi_k - psi_2k| / 15 of the 2k-step states is at most
    abs_tol + rel_tol; those states are returned.  A k with k * (intervals) above
    ``MAX_GRID_NODES`` raises StepSizeUnderflow.
    """
    intervals = len(grid) - 1
    # clamped, so a denormal max_step gives a count past the limit, not an infinite one
    k = max(1, math.ceil(min(float(np.max(np.abs(np.diff(grid)))) / cfg.max_step,
                             MAX_GRID_NODES + 1.0)))
    coarse = None
    while True:
        if k * intervals > MAX_GRID_NODES:
            raise StepSizeUnderflow(
                f"magnus4 would take {k} steps in each of {intervals} grid intervals, "
                f"more than the limit of {MAX_GRID_NODES} steps")
        fine = _cf4_states(profile, psi0, grid, k)
        if coarse is not None:
            err = float(np.max(np.linalg.norm(fine - coarse, axis=1))) / 15.0
            if err <= cfg.abs_tol + cfg.rel_tol:
                return fine, {"substeps": k, "richardson_error": err}
        coarse, k = fine, 2 * k


def _grid_for(profile, t_span, cfg):
    """The run's output grid; any span the default grid could not cover raises ConfigError.

    A given grid must be 1-D with at least two nodes, start and end exactly at t_span and
    have finite nodes, else DomainError.
    """
    if cfg.dense_output_grid is not None:
        grid = np.asarray(cfg.dense_output_grid, dtype=float)
        if grid.ndim != 1 or len(grid) < 2:
            raise DomainError(f"dense_output_grid must be 1-D with at least two nodes, "
                              f"got shape {grid.shape}")
        if grid[0] != t_span[0] or grid[-1] != t_span[1]:
            raise DomainError("dense_output_grid must start/end exactly at t_span")
        if not np.all(np.isfinite(grid)):
            raise DomainError("dense_output_grid nodes must be finite")
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
# Norm-preserving fixed-step steppers
# ---------------------------------------------------------------------------

def magnus4_schrodinger(
    profile: FieldProfile, psi0, t_span: tuple[float, float], n_steps: int
) -> Trajectory:
    """Fixed-step fourth-order commutator-free Magnus stepper (CF4).

    Each step samples the field at the two Gauss points of the step and
    applies exp(-i h (a1 H1 + a2 H2)) exp(-i h (a2 H1 + a1 H2)), the right
    factor first, with a1, a2 = (3 -+ 2 sqrt(3)) / 12; both factors are
    exact SU(2) rotations, so the norm is conserved to roundoff, and the
    error is fourth order in the step.  ``n_steps`` must be a positive
    integer with ``n_steps + 1 <= MAX_GRID_NODES``, else ConfigError before
    anything is allocated.  Steps are made and composed as in
    :func:`exponential_midpoint_schrodinger`.
    """
    _check_steps(n_steps)
    times = _step_times(t_span, n_steps)
    return Trajectory(times=times, states=_cf4_states(profile, as_spinor(psi0), times, 1),
                      kind="spinor", profile=profile,
                      metadata={"method": "magnus4", "n_steps": n_steps})


def exponential_midpoint_schrodinger(
    profile: FieldProfile, psi0, t_span: tuple[float, float], n_steps: int
) -> Trajectory:
    """Fixed-step stepper applying the exact rotation of the midpoint field.

    Each step multiplies by exp(-i H(t_mid) h) evaluated in closed form, so
    the norm is conserved to roundoff regardless of horizon; accuracy is
    second order in the step.  ``n_steps`` must be a positive integer with
    ``n_steps + 1 <= MAX_GRID_NODES``, else ConfigError before anything is
    allocated.

    The midpoints are sampled ``_BLOCK_STEPS`` at a time and the steps are
    composed by a numpy prefix product, later step on the left (state k is
    U_{k-1} ... U_1 U_0 psi0): about 2 * n_steps SU(2) products in
    log2(block) whole-array levels, O(n_steps) time, and a peak of the
    states (32 bytes per step) plus one block.
    """
    _check_steps(n_steps)
    psi0 = as_spinor(psi0)
    t0, t1 = t_span
    h = (t1 - t0) / n_steps

    def pairs(lo, hi):
        return _su2(*_field_vector(profile, t0 + (np.arange(lo, hi) + 0.5) * h), h)

    return Trajectory(times=_step_times(t_span, n_steps),
                      states=_stepped_states(pairs, n_steps, psi0), kind="spinor",
                      profile=profile, metadata={"method": "exp_midpoint", "n_steps": n_steps})


def _check_steps(n_steps) -> None:
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise ConfigError(f"n_steps must be a positive integer, got {n_steps!r}")
    if n_steps + 1 > MAX_GRID_NODES:
        raise ConfigError(f"{n_steps} steps need more than the limit of "
                          f"{MAX_GRID_NODES} grid nodes")


def _step_times(t_span, n_steps: int) -> np.ndarray:
    t0, t1 = t_span
    return t0 + (t1 - t0) / n_steps * np.arange(n_steps + 1)


def _cf4_states(profile: FieldProfile, psi0: np.ndarray, grid: np.ndarray, k: int) -> np.ndarray:
    """psi0 and the states at the other grid nodes after k CF4 steps per grid interval."""
    starts, widths = grid[:-1], np.diff(grid) / k

    def pairs(lo, hi):
        interval, j = np.divmod(np.arange(lo, hi), k)
        h = widths[interval]
        t = starts[interval] + j * h
        m = len(t)
        b = _field_vector(profile, np.concatenate([t + _CF4_NODES[0] * h, t + _CF4_NODES[1] * h]))
        first = [_CF4_A2 * c[:m] + _CF4_A1 * c[m:] for c in b]  # acts first
        second = [_CF4_A1 * c[:m] + _CF4_A2 * c[m:] for c in b]
        return _compose(*_su2(*second, h), *_su2(*first, h))

    return _stepped_states(pairs, k * (len(grid) - 1), psi0, k)


def _su2(bx: np.ndarray, by: np.ndarray, bz: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """SU(2) pairs of exp(-i h b . sigma / 2) for the field vectors b of components (bx, by, bz).

    Each pair (a, b) stands for the matrix [[a, -conj(b)], [b, conj(a)]].
    """
    mag = np.sqrt(bx * bx + by * by + bz * bz)
    ang = 0.5 * mag * h
    c, si = np.cos(ang), np.sin(ang)
    return c - 1j * si * (bz / mag), -1j * si * (bx / mag + 1j * (by / mag))


def _stepped_states(pairs, n_steps: int, psi0: np.ndarray, stride: int = 1) -> np.ndarray:
    """psi0 and the states after steps stride, 2 * stride, ..., n_steps of a stepper.

    ``pairs(lo, hi)`` returns the SU(2) pairs of steps lo .. hi - 1.  They are
    made and composed ``_BLOCK_STEPS`` at a time, and the state at the end of a
    block starts the next one, so the peak memory is the kept states plus one block.
    """
    states = np.empty((n_steps // stride + 1, 2), dtype=complex)
    states[0] = psi0
    up, dn = psi0
    for lo in range(0, n_steps, _BLOCK_STEPS):
        a, b = pairs(lo, min(lo + _BLOCK_STEPS, n_steps))
        _prefix_products(a, b)
        first = (-lo - 1) % stride  # the block's first kept step
        ka, kb = a[first::stride], b[first::stride]
        kept = states[(lo + first + 1) // stride:][:len(ka)]
        kept[:, 0] = ka * up - np.conj(kb) * dn
        kept[:, 1] = kb * up + np.conj(ka) * dn
        up, dn = a[-1] * up - np.conj(b[-1]) * dn, b[-1] * up + np.conj(a[-1]) * dn
    return states


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
    return _unwrap(np.angle(overlaps), BranchJump, "phase")


def _unwrap(angles: np.ndarray, error: type[Exception], what: str) -> np.ndarray:
    """Angles unwrapped from 0 at the first node; ``error`` when a wrapped step exceeds pi/2."""
    steps = (np.diff(angles) + np.pi) % (2.0 * np.pi) - np.pi
    worst = float(np.max(np.abs(steps))) if steps.size else 0.0
    if worst > 0.5 * np.pi:
        raise error(f"{what} step {worst:.3g} rad exceeds pi/2; refine the grid")
    return np.concatenate([[0.0], np.cumsum(steps)])


def schrodinger_phase(
    profile: FieldProfile,
    psi0,
    t_span: tuple[float, float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> tuple[Trajectory, np.ndarray]:
    """Integrate and extract the tracked-eigenvector phase, refining the grid on branch jumps.

    The grid is validated once and doubled (up to 16x, and to no more than
    ``MAX_GRID_NODES``) whenever unwrapping raises BranchJump; the final
    trajectory and phase series are returned together.
    """
    psi0 = as_spinor(psi0)
    grid = _grid_for(profile, t_span, cfg)
    factor = 1
    while True:
        traj = _integrate("spinor", profile, psi0, grid, cfg)
        try:
            return traj, extract_total_phase(traj)
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


# _csv renders this many cells at a time, so its scratch arrays stay near a megabyte
_CSV_BLOCK_CELLS = 1 << 12
# 10**q for q = 0..20, each exact as a double, and its Veltkamp halves
_POW10 = np.array([float(10**q) for q in range(21)])
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# A cell's row is ten 4-byte words: "-0.0", "00" and the leading digit of D and ".",
# then for j = 0..7 the digits 2j+1 and 2j+2 of D each followed by "."; the last "."
# is the separator's column
_SIGN_WORD = np.frombuffer(b"-0.0", np.uint32)[0]
_LEAD_WORDS = np.frombuffer(b"".join(b"00%d." % d for d in range(10)), np.uint32)
_PAIR_WORDS = np.frombuffer(b"".join(b"%d.%d." % divmod(v, 10) for v in range(100)), np.uint32)
# [j, v]: the index in D of the last nonzero digit of pair j when that pair is v, 0 for v = 0
_PAIR_LAST = np.array([[0 if v == 0 else 2 * j + 1 + (v % 10 != 0) for v in range(100)]
                       for j in range(8)], np.uint8)


def _row_masks():
    """The 0/255 masks that keep the characters of a cell's 40-byte row, one per layout.

    Row 17 * (21 * neg + k + 4) + last is the mask of a nonzero cell with sign
    bit ``neg``, decimal exponent k in [-4, 16] and last nonzero digit
    ``last``; rows 714 and 715 are those of 0.0 and -0.0.
    """
    masks = np.zeros((2, 21, 17, 40), np.uint8)
    masks[1, ..., 0] = 255  # "-"
    masks[..., 39] = 255  # the separator
    up_to_last = np.tri(17, dtype=bool)  # [last, i]: digit i is at or before digit last
    for k in range(-4, 17):
        layout = masks[:, k + 4]
        if k < 0:
            layout[..., 1:2 - k] = 255  # "0." and -k-1 zeros
        layout[..., 6:39:2][:, up_to_last | (np.arange(17) <= k)] = 255  # digits
        if k >= 0:
            layout[:, k + 1:, 7 + 2 * k] = 255  # the point, when a nonzero digit follows
    zeros = np.zeros((2, 40), np.uint8)
    zeros[:, [1, 39]] = 255  # "0" and the separator
    zeros[1, 0] = 255
    return np.concatenate([masks.reshape(-1, 40), zeros])


_ROW_MASKS = _row_masks()


def _csv(header: str, table, labels: Sequence[str] | None = None) -> str:
    """CSV text: the header line, one line per row of the 2-D float ``table``, a final newline.

    Every cell is the ``'%.17g' % x`` text of its value, which round-trips a
    float exactly; given ``labels``, each line starts with its row's label.

    The cells are rendered by numpy, a block of rows at a time.  For
    1e-4 <= |x| < 1e17 ``%g`` writes x in fixed notation with decimal
    exponent k = floor(log10|x|) and 17 significant digits, the integer
    D = round(|x| * 10**q) with q = 16 - k in [0, 20].  10**q is an exact
    double, so Dekker's product (Veltkamp splitting) gives |x| * 10**q as
    p + e exactly, with p >= 1e16 an integer, and D = p + round(e).  The
    digits of D are laid out around the decimal point, trailing zeros
    stripped.  A cell falls back to ``'%.17g' %`` when it is not finite,
    when %g would write it in exponent notation (|x| < 1e-4, or |x| that
    rounds to 1e17 or more), when the estimate of k from log10 is off by
    one, or when e is exactly half-way between two integers.
    """
    table = np.asarray(table, dtype=float)
    step = max(1, _CSV_BLOCK_CELLS // table.shape[1])
    chunks = [_csv_lines(table[i:i + step]).decode("ascii") for i in range(0, len(table), step)]
    if labels is not None:
        chunks = [f"{label},{line}\n" for label, line in zip(labels, "".join(chunks).splitlines())]
    return "".join([f"{header}\n", *chunks])


def _csv_lines(block):
    """ASCII lines of the 2-D float ``block``: its cells in ``'%.17g'`` form joined by commas."""
    x = block.ravel()
    n = x.size
    neg = np.signbit(x)
    a = np.abs(x)
    zero = a == 0.0
    nonzero = np.isfinite(a) & ~zero
    k = np.floor(np.log10(np.where(nonzero, a, 1.0))).astype(np.intp)
    fixed = nonzero & (k >= -4) & (k <= 16)
    a[~fixed] = 1.0
    k[~fixed] = 0
    q = 16 - k
    # Dekker's product: a * 10**q == p + e exactly
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[q], _POW10_LO[q]
    p = a * _POW10[q]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    # D is the cell's %g digits when k was right (1e16 <= p + e and D < 1e17) and e is no tie
    fast = zero | (fixed & ((p > 1e16) | ((p == 1e16) & (e >= 0.0)))
                   & (digits < 10**17) & (e - np.floor(e) != 0.5))
    digits[~fast] = 10**16  # any 17-digit D: the fallback overwrites these cells

    # the leading digit, then the 16 others as pairs, most significant first
    lead = digits // 10**16
    groups = digits - lead * 10**16
    for scale in (10**8, 10**4, 100):
        high = groups // scale
        groups = np.stack([high, groups - high * scale], axis=-2)
    pairs = groups.reshape(8, n)

    rows = np.empty((n, 40), np.uint8)
    words = rows.view(np.uint32)
    words[:, 0] = _SIGN_WORD
    words[:, 1] = _LEAD_WORDS[lead]
    last = np.zeros(n, np.uint8)
    for j, pair in enumerate(pairs):
        words[:, 2 + j] = _PAIR_WORDS[pair]
        np.maximum(last, _PAIR_LAST[j][pair], out=last)
    rows &= np.take(_ROW_MASKS, np.where(zero, 714 + neg, 17 * (21 * neg + k + 4) + last), axis=0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = ["%.17g" % v for v in x[slow].tolist()]
        rows[slow] = np.array(texts, dtype="S40").view(np.uint8).reshape(-1, 40)
    rows[:, 39] = ord(",")
    rows[block.shape[1] - 1::block.shape[1], 39] = ord("\n")
    # every character a mask dropped is a zero byte
    return rows.tobytes().translate(None, b"\0")
