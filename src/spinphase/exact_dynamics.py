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
from .field_profiles import FieldProfile, _field_vector, _number, check_span, sample

# largest time grid any run may build, in nodes (about 160 MB of spinor states)
MAX_GRID_NODES = 10**7
# IntegratorConfig's methods: magnus4 (numpy only) and scipy's solve_ivp DOP853
_METHODS = ("magnus4", "DOP853")
_BLOCK_STEPS = 1 << 16  # steps the fixed-step steppers compose at a time
_PAIR_BLOCK = 1 << 12  # steps whose SU(2) pairs the fixed-step steppers make at a time
# CF4: Gauss points of a step and the weights of its two exponentials
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_A1, _CF4_A2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0
_NORM_TOL = 1e-9  # largest norm defect as_spinor and as_bloch renormalize away
_GRID_MULTIPLE = 8  # divides a default grid's interval count: the largest Romberg stride


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances, method and output control for the exact integrators.

    ``IntegratorConfig()`` is the one default, used by every integrator, runner
    and CLI command not given another config.  ``method`` is ``"magnus4"``
    (numpy only) or ``"DOP853"``, scipy's ``solve_ivp`` method, which imports
    scipy here.  The tolerances and ``max_step`` are stored as floats; any
    invalid setting, or DOP853 without scipy installed, raises :class:`ConfigError`.
    """

    rel_tol: float = 1e-11
    abs_tol: float = 1e-13
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
    """Time-stamped series of states from integration or closed-form evaluation.

    The states' shape says what they hold: an (n, 2) array holds spinors, a real
    (n, 3) array classical spins (a spin path).  Any other states, states that are
    not numbers, a profile that is neither None nor a FieldProfile, or times that
    are not a strictly monotonic 1-D array of real numbers as long as the states
    raise at construction.
    """

    times: np.ndarray
    states: np.ndarray
    profile: FieldProfile | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times))
        object.__setattr__(self, "states", np.asarray(self.states))
        if self.states.dtype.kind not in "iufc" or self.times.dtype.kind not in "iuf":
            raise DomainError("trajectory states must be numbers and its times real numbers, "
                              f"got states of {self.states.dtype} and times of {self.times.dtype}")
        width = self.states.shape[1] if self.states.ndim == 2 else None
        if width not in (2, 3) or width == 3 and np.iscomplexobj(self.states):
            raise DomainError("trajectory states must be (n, 2) spinors or real (n, 3) spins, "
                              f"got {self.states.dtype} of shape {self.states.shape}")
        if self.times.ndim != 1:
            raise DomainError(f"trajectory times must be 1-D, got shape {self.times.shape}")
        dt = np.diff(self.times)
        # strictly monotonic; decreasing only for backward (time-reversal) runs
        if not (np.all(dt > 0) or np.all(dt < 0)):
            raise DomainError("trajectory times must be strictly monotonic")
        if len(self.times) != len(self.states):
            raise DomainError("times and states must have equal length")
        if not (self.profile is None or isinstance(self.profile, FieldProfile)):
            raise ConfigError("trajectory profile must be a FieldProfile or None, "
                              f"got {self.profile!r}")


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
    """Spin path of a trajectory: the mean spins of its spinors (vectorized,
    norm-corrected), or its spins as floats when it holds spins."""
    if traj.states.shape[1] == 3:
        return np.asarray(traj.states, dtype=float)
    return _mean_spin(traj.states)


def _mean_spin(psi: np.ndarray) -> np.ndarray:
    """<psi|sigma|psi> / <psi|psi> for spinors on the last axis of a (..., 2) array."""
    return np.stack(_spin_components(psi), axis=-1)


def _spin_components(psi: np.ndarray) -> np.ndarray:
    """The components (Sx, Sy, Sz) of :func:`_mean_spin` as the rows of one (3, ...) array.

    The norm is divided out, so the spin is a unit vector to roundoff.  Every
    step writes into the result or into one complex scratch array that holds
    conj(up) dn, with the bits of the allocating form
    (2 conj(up) dn, |up|^2 - |dn|^2) / nn, nn = |up|^2 + |dn|^2.  A 0-d or
    one-node spinor takes conj(up) dn out of place, because numpy rounds a
    complex product of one element taken in place differently (see
    ``adiabatic_engine._compose``).
    """
    up, dn = psi[..., 0], psi[..., 1]
    comps = np.empty((3,) + up.shape)
    sx, sy, sz = (comps[i, ...] for i in range(3))  # views, also for a 0-d spinor
    np.abs(up, out=sz)
    sz *= sz  # |up|^2
    np.abs(dn, out=sy)
    sy *= sy  # |dn|^2
    np.add(sz, sy, out=sx)  # nn
    sz -= sy
    sz /= sx
    cross = np.empty(up.shape, dtype=complex)
    if cross.size > 1:
        np.conjugate(up, out=cross)
        cross *= dn
    else:
        cross[...] = np.conj(up) * dn
    re = cross.real
    np.multiply(cross.imag, 2.0, out=sy)
    sy /= sx
    re *= 2.0
    np.divide(re, sx, out=sx)
    return comps


# ---------------------------------------------------------------------------
# Integration on an output grid
# ---------------------------------------------------------------------------

def _span_nodes(profile: FieldProfile, t_span: tuple[float, float]) -> float:
    """Nodes the span needs at ~16 per radian of the fastest phase rate (the field magnitude).

    A span needing ``MAX_GRID_NODES`` or more raises ConfigError, and an empty span or
    an end that is not finite DomainError.
    """
    _check_grid_span(t_span)
    t0, t1 = t_span
    b_max = float(np.max(sample(profile, np.linspace(t0, t1, 65)).B_mag))
    nodes = abs(t1 - t0) * 16.0 * max(b_max, 1e-3)
    if not nodes < MAX_GRID_NODES:
        raise ConfigError(f"span {t_span} needs {nodes:.3g} grid nodes, "
                          f"more than the limit of {MAX_GRID_NODES}")
    return nodes


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
    return _integrate(profile, as_spinor(psi0), _grid_for(profile, t_span, cfg), cfg)


def integrate_bloch(
    profile: FieldProfile,
    S0,
    t_span: tuple[float, float],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the precession equation dS/dt = B(t) x S over t_span into a spin path.

    The trajectory's states are real (n, 3) spins.  ``magnus4`` integrates the spinor
    of S0 and returns its mean spins; ``DOP853`` integrates B x S itself, so its
    states drift off the sphere within the tolerances.
    """
    return _integrate(profile, as_bloch(S0), _grid_for(profile, t_span, cfg), cfg)


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


def _integrate(profile, y0, grid, cfg):
    spinor = len(y0) == 2
    if cfg.method == "magnus4":
        states, meta = _magnus4_on_grid(profile, y0 if spinor else bloch_to_spinor(y0), grid, cfg)
        if not spinor:
            states = _mean_spin(states)
    else:
        sol = _run_solver(_rhs("spinor" if spinor else "bloch", profile), y0, grid, cfg)
        grid, states, meta = sol.t, sol.y.T, {}
    drift = float(np.max(np.abs(np.sum(np.abs(states) ** 2, axis=1) - 1.0)))
    return Trajectory(
        times=grid,
        states=states,
        profile=profile,
        metadata={"rel_tol": cfg.rel_tol, "abs_tol": cfg.abs_tol, "max_step": cfg.max_step,
                  "method": cfg.method, "norm_drift": drift, **meta},
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

    The default grid is uniform and dense enough for phase unwrapping: ``_span_nodes``
    intervals with a floor of 256, checked before anything is allocated, rounded up to a
    multiple of ``_GRID_MULTIPLE`` so the trajectory integrals take every Romberg stride.
    A given grid must be 1-D with at least two nodes, start and end exactly at t_span,
    have finite nodes and be strictly monotonic, else DomainError.
    """
    _check_cfg(cfg)
    if cfg.dense_output_grid is None:
        intervals = max(256, math.ceil(_span_nodes(profile, t_span)))
        intervals += -intervals % _GRID_MULTIPLE
        return np.linspace(t_span[0], t_span[1], intervals + 1)
    grid = np.asarray(cfg.dense_output_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise DomainError(f"dense_output_grid must be 1-D with at least two nodes, "
                          f"got shape {grid.shape}")
    if grid[0] != t_span[0] or grid[-1] != t_span[1]:
        raise DomainError("dense_output_grid must start/end exactly at t_span")
    if not np.all(np.isfinite(grid)):
        raise DomainError("dense_output_grid nodes must be finite")
    _span_nodes(profile, t_span)
    dt = np.diff(grid)
    if not (np.all(dt > 0) or np.all(dt < 0)):
        raise DomainError("dense_output_grid must be strictly monotonic")
    return grid


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
    _check_count("n_steps", n_steps, 1, MAX_GRID_NODES - 1)
    times = _step_times(t_span, n_steps)
    return Trajectory(times=times, states=_cf4_states(profile, as_spinor(psi0), times, 1),
                      profile=profile, metadata={"method": "magnus4", "n_steps": n_steps})


def exponential_midpoint_schrodinger(
    profile: FieldProfile, psi0, t_span: tuple[float, float], n_steps: int
) -> Trajectory:
    """Fixed-step stepper applying the exact rotation of the midpoint field.

    Each step multiplies by exp(-i H(t_mid) h) evaluated in closed form, so
    the norm is conserved to roundoff regardless of horizon; accuracy is
    second order in the step.  ``n_steps`` must be a positive integer with
    ``n_steps + 1 <= MAX_GRID_NODES``, else ConfigError before anything is
    allocated.

    The steps are composed ``_BLOCK_STEPS`` at a time by a numpy prefix
    product, later step on the left (state k is U_{k-1} ... U_1 U_0 psi0):
    about 2 * n_steps SU(2) products in log2(block) whole-array levels and
    O(n_steps) time.  A block's pairs are made ``_PAIR_BLOCK`` steps at a
    time, so the peak is the states (32 bytes per step) plus one block's
    pairs plus one sub-block of sampling temporaries.
    """
    _check_count("n_steps", n_steps, 1, MAX_GRID_NODES - 1)
    psi0 = as_spinor(psi0)
    t0, t1 = t_span
    h = (t1 - t0) / n_steps

    def pairs(lo, hi):
        return _su2(*_field_vector(profile, t0 + (np.arange(lo, hi) + 0.5) * h), h)

    return Trajectory(times=_step_times(t_span, n_steps),
                      states=_stepped_states(pairs, n_steps, psi0), profile=profile,
                      metadata={"method": "exp_midpoint", "n_steps": n_steps})


def _check_count(name: str, n, least: int, most: int = MAX_GRID_NODES) -> None:
    """ConfigError unless ``n`` is an integer (numpy's too, not a bool) in [least, most]."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or not least <= n <= most:
        raise ConfigError(f"{name} must be an integer from {least} to the limit {most}, got {n!r}")


def _check_cfg(cfg) -> None:
    """ConfigError unless ``cfg`` is an IntegratorConfig."""
    if not isinstance(cfg, IntegratorConfig):
        raise ConfigError(f"cfg must be an IntegratorConfig, got {cfg!r}")


def _check_grid_span(t_span) -> None:
    """DomainError unless both ends of ``t_span`` are finite and differ, so a grid can
    be laid over it; checked before any stepping."""
    check_span(t_span)
    if t_span[0] == t_span[1]:
        raise DomainError(f"t_span ({t_span[0]}, {t_span[1]}) is empty; a trajectory needs "
                          "two different ends")


def _step_times(t_span, n_steps: int) -> np.ndarray:
    _check_grid_span(t_span)
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
        ab = _su2(*second, h)
        _pair_product(ab, _su2(*first, h), ab, np.empty((2, m), dtype=complex))
        return ab

    return _stepped_states(pairs, k * (len(grid) - 1), psi0, k)


def _su2(bx: np.ndarray, by: np.ndarray, bz: np.ndarray, h) -> np.ndarray:
    """SU(2) pairs of exp(-i h b . sigma / 2) for the field vectors b of components (bx, by, bz).

    Returns a (2, m) complex array whose columns (a, b) stand for the matrices
    [[a, -conj(b)], [b, conj(a)]].  With s = sin(|b| h / 2), c = cos(|b| h / 2)
    and the unit vector (px, py, q) = b / |b|, the complex form
    a = c - 1j s q, b = -1j s (px + 1j py) is written out in real arithmetic
    into the parts of the result, with one scratch array:

        a = (c, 0.0 - s q),  b = (s I + 0.0 R, 0.0 I - s R),  I = py + 0.0,  R = px + 0.0 py,

    where 0.0 x is the zero with the sign of x.  Each real part of each complex
    product in the complex form has an exact zero among its two terms, so none
    rounds differently; the zeros are kept for their signs, which give the signed
    zeros of an in-plane field (by = +-0) and of s = +-0 as the complex form does.
    """
    ab = np.empty((2, len(bz)), dtype=complex)
    w = np.empty((3, len(bz)))
    mag, s, t = w
    np.multiply(bx, bx, out=mag)
    np.multiply(by, by, out=t)
    mag += t
    np.multiply(bz, bz, out=t)
    mag += t
    np.sqrt(mag, out=mag)
    np.multiply(mag, 0.5, out=s)
    s *= h
    np.cos(s, out=ab[0].real)
    np.sin(s, out=s)
    np.divide(bz, mag, out=t)
    t *= s
    np.subtract(0.0, t, out=ab[0].imag)
    b_re, b_im = ab[1].real, ab[1].imag
    np.divide(by, mag, out=t)  # py
    np.divide(bx, mag, out=mag)  # px
    np.multiply(t, 0.0, out=b_re)
    mag += b_re  # R
    t += 0.0  # I
    np.multiply(s, t, out=b_im)
    np.multiply(mag, 0.0, out=b_re)
    b_re += b_im
    np.multiply(t, 0.0, out=b_im)
    mag *= s
    b_im -= mag
    return ab


def _stepped_states(pairs, n_steps: int, psi0: np.ndarray, stride: int = 1) -> np.ndarray:
    """psi0 and the states after steps stride, 2 * stride, ..., n_steps of a stepper.

    ``pairs(lo, hi)`` returns the SU(2) pairs of steps lo .. hi - 1 as a (2, hi - lo)
    array, each made from its own step alone.  They are made ``_PAIR_BLOCK`` steps at
    a time into one buffer of ``_BLOCK_STEPS`` pairs and composed a block at a time,
    and the state at the end of a block starts the next one, so the peak memory is
    the kept states plus one block's pairs and scan space plus one sub-block of
    temporaries.
    """
    states = np.empty((n_steps // stride + 1, 2), dtype=complex)
    states[0] = psi0
    up, dn = psi0
    block_steps = min(n_steps, _BLOCK_STEPS)
    # One block's pairs and the scan space of _prefix_products in one array: as two
    # arrays, glibc's malloc trims the freed heap top and the next stage faults it back
    # in (774 against 0 minor faults per cyclic_geometry operation, measured).
    work = np.empty((2, 2 * block_steps), dtype=complex)
    buf, space = work[:, :block_steps], work[:, block_steps:]
    for lo in range(0, n_steps, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, n_steps)
        block = buf[:, :hi - lo]
        for sub in range(lo, hi, _PAIR_BLOCK):
            end = min(sub + _PAIR_BLOCK, hi)
            block[:, sub - lo:end - lo] = pairs(sub, end)
        _prefix_products(*block, *space)
        first = (-lo - 1) % stride  # the block's first kept step
        kept = block[:, first::stride]
        m = kept.shape[1]
        _pair_product(kept, (up, dn), states[(lo + first + 1) // stride:][:m].T, space[:, :m])
        up, dn = _compose(*block[:, -1], up, dn)
    return states


def _pair_product(hi, lo, out, work) -> None:
    """Write the SU(2) pairs of the products hi @ lo into the pair of arrays ``out``.

    ``hi``, ``lo`` and ``out`` are pairs (a, b) of arrays, ``lo`` possibly of
    scalars; ``work`` is a pair of complex arrays as long as ``out``, and ``out``
    is ``hi`` itself or shares no memory with ``hi`` or ``lo``.  The arithmetic is
    that of ``adiabatic_engine._compose``, a_hi a_lo - conj(b_hi) b_lo and
    b_hi a_lo + conj(a_hi) b_lo: each complex product goes to a work array that is
    not one of its factors, which rounds it as ``_compose`` does at every length
    (a product over one element taken in place does not; see ``_compose``), and
    each row of ``hi`` is read in full before its row of ``out`` is written.
    """
    (a_hi, b_hi), (a_lo, b_lo), (out_a, out_b), (w0, w1) = hi, lo, out, work
    np.conjugate(b_hi, out=w0)
    np.multiply(w0, b_lo, out=w1)  # conj(b_hi) b_lo
    np.multiply(a_hi, a_lo, out=w0)
    w0 -= w1
    np.conjugate(a_hi, out=w1)
    out_a[...] = w0
    np.multiply(w1, b_lo, out=w0)  # conj(a_hi) b_lo
    np.multiply(b_hi, a_lo, out=w1)
    np.add(w1, w0, out=out_b)


def _prefix_products(a: np.ndarray, b: np.ndarray, sa: np.ndarray, sb: np.ndarray) -> None:
    """Overwrite the SU(2) pairs (a[k], b[k]) with the products of steps k, k-1, ..., 0.

    Odd-even recursion: the products of step pairs (2k+1, 2k) are scanned at
    half length, then each even prefix is its step times the odd prefix before it.
    ``sa`` and ``sb`` are complex scratch rows at least as long as ``a``: the
    half-length pairs take their first n // 2 elements, and the rest serves this
    level's temporaries and then the deeper levels.
    """
    n = len(a)
    if n < 2:
        return
    m, k = n // 2, (n - 1) // 2
    pa, pb, ra, rb = sa[:m], sb[:m], sa[m:], sb[m:]
    _pair_product((a[1::2], b[1::2]), (a[0:-1:2], b[0:-1:2]), (pa, pb), (ra[:m], rb[:m]))
    _prefix_products(pa, pb, ra, rb)
    a[1::2] = pa
    b[1::2] = pb
    even = (a[2::2], b[2::2])
    _pair_product(even, (pa[:k], pb[:k]), even, (ra[:k], rb[:k]))


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
    if traj.states.shape[1] != 2:
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
    """Angles unwrapped from 0 at the first node; ``error`` when a wrapped step exceeds pi/2.

    Each step d is wrapped as (d + pi) % (2 pi) - pi.  The remainder is taken only
    where d + pi lies outside [0, 2 pi): inside, it is exactly d + pi.  The steps
    and their running sum are made in the result itself.
    """
    out = np.empty(max(len(angles), 1))
    out[0] = 0.0
    steps = out[1:]
    np.subtract(angles[1:], angles[:-1], out=steps)
    steps += np.pi
    worst = 0.0
    if steps.size:
        if not (steps.min() >= 0.0 and steps.max() < 2.0 * np.pi):
            np.remainder(steps, 2.0 * np.pi, out=steps,
                         where=(steps < 0.0) | (steps >= 2.0 * np.pi))
        steps -= np.pi
        worst = max(float(steps.max()), -float(steps.min()))
    if worst > 0.5 * np.pi:
        raise error(f"{what} step {worst:.3g} rad exceeds pi/2; refine the grid")
    np.cumsum(steps, out=steps)
    return out

