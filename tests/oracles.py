"""Cross-check forms of library results, kept as test oracles.

Each function here recomputes a quantity the library computes another
way: the in-plane Cartesian and spherical views of the quasi-stationary
corrections, the direct quadrature of the by-parts second-order term, the
frame chain as (2, 2) and (3, 3) matrices, which the SU(2) pair product and
the closed-form classical solution are pinned against, the central-difference
self-test of the analytic field derivatives, the Hamiltonian matrix that the
solvers' right-hand side writes out, the solid-angle fan by spherical
excesses, the mean-spin map and both Aharonov-Anandan routes on (n, 3) rows
of spin vectors.  The tests compare the library against them.

The last section keeps the spin-path kernels and the fixed-step steppers in
their allocating form, one numpy expression per quantity; the library writes
them with ``out=`` and in-place arithmetic and must match them bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spinphase import (
    ArcTooLong,
    DomainError,
    GridTooCoarse,
    PoleSingularity,
    bloch_to_spinor,
    is_in_plane,
    sample,
)
from spinphase.adiabatic_engine import (
    AdiabaticParams,
    QuasiStationary,
    _compose,
    _guard_perturbative,
    _su2_factors,
    params_from_sample,
)
from spinphase.field_profiles import FieldProfile, FieldSample, _field_vector
from spinphase.exact_dynamics import (
    _BLOCK_STEPS,
    _CF4_A1,
    _CF4_A2,
    _CF4_NODES,
    _PAIR_BLOCK,
    Trajectory,
    as_spinor,
    bloch_series,
)
from spinphase.geometric_phases import (
    MIN_SIN_POLAR,
    _decimations,
    _integral,
    _refined_stieltjes,
    _romberg_limit,
)


def quasi_stationary_cartesian(profile: FieldProfile, t: float) -> QuasiStationary:
    """In-plane Cartesian view of the quasi-stationary corrections.

    Cross-check form: must agree with :func:`quasi_stationary` to 1e-12 for
    in-plane profiles.
    """
    if not is_in_plane(profile):
        raise DomainError("Cartesian quasi-stationary form assumes an in-plane profile")
    s = sample(profile, t)
    p = params_from_sample(s)
    _guard_perturbative(p)
    st, ct = math.sin(s.theta), math.cos(s.theta)
    d, g = p.delta, p.gamma
    s0 = np.array([st, 0.0, ct])
    s1 = np.array([0.0, -d, 0.0])
    s2 = np.array([-g * ct - 0.5 * d * d * st, 0.0, g * st - 0.5 * d * d * ct])
    return QuasiStationary(s_total=s0 + s1 + s2, s0=s0, s1=s1, s2=s2)


def quasi_stationary_spherical(profile: FieldProfile, t: float) -> tuple[float, float, float]:
    """In-plane spherical-basis coefficients (radial, e_theta, e_phi).

    Returns (1 - delta**2/2, -gamma, -delta): the unit radial part carries
    the second-order normalization correction, the polar component is the
    acceleration-type deflection, the azimuthal one the velocity-type
    deflection.
    """
    if not is_in_plane(profile):
        raise DomainError("spherical quasi-stationary form assumes an in-plane profile")
    p = params_from_sample(sample(profile, t))
    _guard_perturbative(p)
    return 1.0 - 0.5 * p.delta * p.delta, -p.gamma, -p.delta


def phi2_byparts_direct(profile: FieldProfile, t_span: tuple[float, float]) -> float:
    """Direct quadrature (1/2) int (1 - cos theta) d(delta/sin theta).

    Cross-check form for the by-parts evaluation; requires sin theta >= 1e-3
    along the path (the connection has a coordinate singularity there).
    """
    def integrand(s):
        st = np.sin(s.theta)
        if np.min(np.abs(st)) < MIN_SIN_POLAR:
            raise PoleSingularity(f"sin(theta) below {MIN_SIN_POLAR} at "
                                  f"t={np.ravel(s.t)[np.argmin(np.abs(st))]}")
        p = params_from_sample(s)
        ddelta = p.gamma * s.B_mag
        rate = (ddelta * st - p.delta * s.theta_dot * np.cos(s.theta)) / (st * st)
        return (1.0 - np.cos(s.theta)) * rate

    return _integral(0.5, integrand, profile, t_span)


@dataclass(frozen=True)
class TransformChain:
    """The three-step frame chain in both representations.

    Each factor is a matrix on the last two axes: (2, 2) or (3, 3) at one
    instant, (n, 2, 2) or (n, 3, 3) on a time grid.  u0/r0 are exactly
    unitary/orthogonal; u1, u2, r1, r2 are truncated at
    second order and unitary/orthogonal only up to third-order residuals.
    """

    u0: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    @property
    def u_total(self) -> np.ndarray:
        return self.u0 @ self.u1 @ self.u2

    @property
    def r_total(self) -> np.ndarray:
        return self.r0 @ self.r1 @ self.r2


def transform_chain(theta, params: AdiabaticParams) -> TransformChain:
    """Build the three frame-change factors in both representations.

    ``theta`` and ``params`` are given at one instant or on a time grid.
    The truncated factors keep terms through second order in the slowness
    parameters; their unitarity/orthogonality defect is fourth order.
    """
    u0, u1, u2 = (_matrices([[a, -np.conj(b)], [b, np.conj(a)]], complex)
                  for a, b in _su2_factors(theta, params))
    d, g = params.delta, params.gamma
    ct, st = np.cos(theta), np.sin(theta)
    r0 = _matrices([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    r1 = _matrices([[1.0, 0.0, 0.0], [0.0, 1.0 - d * d / 2.0, -d], [0.0, d, 1.0 - d * d / 2.0]])
    r2 = _matrices([[1.0, 0.0, -g], [0.0, 1.0, 0.0], [g, 0.0, 1.0]])
    return TransformChain(u0=u0, u1=u1, u2=u2, r0=r0, r1=r1, r2=r2)


def _matrices(rows, dtype=float) -> np.ndarray:
    """Matrices on the last two axes from entries that are floats or arrays on one grid."""
    entries = np.broadcast_arrays(*(entry for row in rows for entry in row))
    return np.stack(entries, axis=-1, dtype=dtype).reshape(entries[0].shape + (len(rows), -1))


def derivative_selftest(
    profile: FieldProfile, t_grid: Sequence[float], h: float
) -> float:
    """Max relative mismatch between analytic derivatives and central differences.

    For each grid time, theta_dot/phi_dot/B_dot are checked against central
    differences of theta/phi/B, and theta_ddot/phi_ddot against central
    differences of theta_dot/phi_dot.  Each residual is scaled by the larger
    of 1 and the magnitude of the quantity over the grid.
    """
    if not h > 0:
        raise DomainError(f"step h must be positive, got {h}")
    t = np.asarray(t_grid, dtype=float)
    s0, sp, sm = sample(profile, t), sample(profile, t + h), sample(profile, t - h)
    worst = 0.0
    for exact, fwd, bwd in (
        (s0.theta_dot, sp.theta, sm.theta),
        (s0.theta_ddot, sp.theta_dot, sm.theta_dot),
        (s0.phi_dot, sp.phi, sm.phi),
        (s0.phi_ddot, sp.phi_dot, sm.phi_dot),
        (s0.B_dot, sp.B_mag, sm.B_mag),
    ):
        err = np.max(np.abs(exact - (fwd - bwd) / (2 * h)))
        worst = max(worst, float(err) / max(1.0, float(np.max(np.abs(exact)))))
    return worst


def hamiltonian_matrix(s: FieldSample) -> np.ndarray:
    """Two-level Hamiltonian (1/2) B . sigma for the sampled field.

    The reference form of H: the solvers' right-hand side writes ``-i H psi``
    out component by component and is tested against this matrix.
    """
    bx, by, bz = s.B_vec
    return 0.5 * np.array([[bz, bx - 1j * by], [bx + 1j * by, -bz]], dtype=complex)


def uniform_rotation_exact(B0: float, omega: float, psi0, t) -> np.ndarray:
    """Exact spinors (n, 2) at times t of i dpsi/dt = H psi under uniform_rotation(B0, omega).

    The field B0 (sin(omega t), 0, cos(omega t)) turns about y, so
    psi(t) = exp(-i omega t sigma_y / 2) exp(-i H_eff t) psi0 with the static
    H_eff = (B0 z - omega y) . sigma / 2 of the co-rotating frame.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    big = math.hypot(B0, omega)
    nz, ny = B0 / big, -omega / big
    c, s = np.cos(0.5 * big * t), np.sin(0.5 * big * t)
    # exp(-i a (ny sigma_y + nz sigma_z)) = cos a - i sin a (ny sigma_y + nz sigma_z)
    u, d = psi0
    up = (c - 1j * s * nz) * u - s * ny * d
    dn = s * ny * u + (c + 1j * s * nz) * d
    cr, sr = np.cos(0.5 * omega * t), np.sin(0.5 * omega * t)
    return np.stack([cr * up - sr * dn, sr * up + cr * dn], axis=1)


def co_rotating_eigenstate(B0: float, omega: float) -> np.ndarray:
    """The exactly cyclic state of uniform_rotation(B0, omega) at t = 0: spin up along the
    co-rotating frame's static field B0 z - omega y, tilted from B by chi, tan chi = omega/B0."""
    big = math.hypot(B0, omega)
    return bloch_to_spinor([0.0, -omega / big, B0 / big])


def lhuilier_fan_area(S: np.ndarray) -> float:
    """Signed spherical area of the closed polygon of unit rows S, fanned from +z.

    Cross-check form for the single-atan2 solid angle of the library's fan: each
    triangle (+z, p, q) contributes its spherical excess by L'Huilier's theorem
    from its three side lengths, signed by the z component of p x q.
    """
    closed = np.vstack([S, S[0]])
    p, q = closed[:-1], closed[1:]
    pxq = np.cross(p, q)
    a = np.arctan2(np.linalg.norm(pxq, axis=1), np.sum(p * q, axis=1))
    b = np.arccos(np.clip(p[:, 2], -1.0, 1.0))
    c = np.arccos(np.clip(q[:, 2], -1.0, 1.0))
    s = 0.5 * (a + b + c)
    prod = np.tan(0.5 * s) * np.tan(0.5 * (s - a)) * np.tan(0.5 * (s - b)) * np.tan(0.5 * (s - c))
    return float(np.sum(np.sign(pxq[:, 2]) * 4.0 * np.arctan(np.sqrt(np.maximum(prod, 0.0)))))


def mean_spin_rows(psi: np.ndarray) -> np.ndarray:
    """<psi|sigma|psi> / <psi|psi> of spinors on the last axis, stacked then divided by the norm.

    Reference form of the library's component-wise mean-spin map, which must
    match it bit for bit.
    """
    up, dn = psi[..., 0], psi[..., 1]
    nn = (np.abs(up) ** 2 + np.abs(dn) ** 2).real
    cross = np.conj(up) * dn
    return np.stack(
        [2.0 * cross.real, 2.0 * cross.imag, np.abs(up) ** 2 - np.abs(dn) ** 2], axis=-1
    ) / nn[..., None]


def _unit_spin_rows(traj: Trajectory) -> np.ndarray:
    S = bloch_series(traj)
    return S / np.linalg.norm(S, axis=1)[:, None]


def aa_coordinate_rows(traj: Trajectory) -> float:
    """The coordinate Aharonov-Anandan route on unit-normalized (n, 3) spin rows."""
    S = _unit_spin_rows(traj)
    raw = np.arctan2(S[:, 1], S[:, 0])
    steps = (np.diff(raw) + np.pi) % (2.0 * np.pi) - np.pi
    azimuth = np.concatenate([[0.0], np.cumsum(steps)])
    return -0.5 * _refined_stieltjes(traj.times, azimuth, 1.0 - S[:, 2])


def fan_area_rows(S: np.ndarray) -> float:
    """Signed area of the polygon of unit rows S closed by the geodesic back to S[0],
    fanned from +z, each triangle by one atan2 (Van Oosterom & Strackee)."""
    closed = np.vstack([S, S[0]])
    p, q = closed[:-1], closed[1:]
    den = 1.0 + p[:, 2] + q[:, 2] + np.sum(p * q, axis=1)
    return float(np.sum(2.0 * np.arctan2(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0], den)))


def aa_solid_angle_rows(traj: Trajectory) -> float:
    """The Romberg-refined solid-angle Aharonov-Anandan route on unit-normalized (n, 3) rows."""
    S = _unit_spin_rows(traj)
    vals = [fan_area_rows(S[::s]) for s in _decimations(len(S))]
    return -0.5 * _romberg_limit(vals, tol=1e-12)


def _sin_cos(x):
    if isinstance(x, float):
        return math.sin(x), math.cos(x)
    return np.sin(x), np.cos(x)


def base_eval_broadcast(profile: FieldProfile, tau):
    """(B, dB, theta, dtheta, ddtheta, phi, dphi, ddphi) in tau units, every term at tau's shape.

    Reference form of the library's evaluation, which returns a nonzero constant
    term as a float: here each one is broadcast as ``p + 0.0*tau``, so trig of a
    constant angle runs on every node.  Must match the library bit for bit.
    """
    p = profile.params
    kind = profile.kind
    zero = 0.0 * tau
    if kind == "constant":
        return p["B0"] + zero, zero, p["theta0"] + zero, zero, zero, p["phi0"] + zero, zero, zero
    if kind == "uniform_rotation":
        return (p["B0"] + zero, zero, p["theta_init"] + p["omega"] * tau, p["omega"] + zero,
                zero, zero, zero, zero)
    if kind == "polynomial_angle":
        th = d1 = d2 = 0.0
        for c in reversed(list(p.values())[1:]):
            d2 = d2 * tau + 2.0 * d1
            d1 = d1 * tau + th
            th = th * tau + c
        return p["B0"] + zero, zero, th, d1, d2, zero, zero, zero
    if kind == "sinusoidal_angle":
        th0, Om = p["theta0"], p["Omega"]
        s, c = _sin_cos(Om * tau)
        bamp, bfreq = p["b_amp"], p["b_freq"]
        if bamp != 0.0:
            sb, cb = _sin_cos(bfreq * tau)
            B, dB = p["B0"] * (1.0 + bamp * sb), p["B0"] * bamp * bfreq * cb
        else:
            B, dB = p["B0"] + zero, zero
        return (B, dB, p["theta_offset"] + th0 * s, th0 * Om * c, -th0 * Om * Om * s,
                zero, zero, zero)
    if kind == "cone_3d":
        return (p["B0"] + zero, zero, p["theta_c"] + zero, zero, zero,
                p["phi_init"] + p["omega_phi"] * tau, p["omega_phi"] + zero, zero)
    # user_tabulated: piece i of spline j is c3 + c2 u + c1 u**2 + c0 u**3 at u = tau - x[i],
    # differentiated term by term in scipy's PPoly order
    x, c = profile._tables.x, profile._tables.c
    i = np.clip(np.searchsorted(x, tau, side="right") - 1, 0, len(x) - 2)
    u = tau - x[i]
    c0, c1, c2, c3 = c[..., i]
    value = c3 + c2 * u + c1 * (u * u) + c0 * (u * u * u)
    slope = c2 + c1 * u * 2.0 + c0 * (u * u) * 3.0
    curvature = c1 * 2.0 + c0 * u * 6.0
    if isinstance(tau, float):
        value, slope, curvature = value.tolist(), slope.tolist(), curvature.tolist()
    (B, th, ph), (dB, dth, dph), (_, ddth, ddph) = value, slope, curvature
    return B, dB, th, dth, ddth, ph, dph, ddph


def cartesian_broadcast(B, th, ph):
    """(Bx, By, Bz) of the field of magnitude B along (th, ph), trig of both angles taken."""
    sin_th, cos_th = _sin_cos(th)
    sin_ph, cos_ph = _sin_cos(ph)
    return B * sin_th * cos_ph, B * sin_th * sin_ph, B * cos_th


def sample_broadcast(profile: FieldProfile, t) -> FieldSample:
    """``sample`` at a float t or on a 1-D grid of times within the domain, from the
    broadcast forms above."""
    eps = profile.epsilon
    B, dB, th, dth, ddth, ph, dph, ddph = base_eval_broadcast(profile, eps * t)
    return FieldSample(t=t, B_vec=np.array(cartesian_broadcast(B, th, ph)).T, B_mag=B,
                       theta=th, phi=ph, theta_dot=eps * dth, theta_ddot=eps * eps * ddth,
                       phi_dot=eps * dph, phi_ddot=eps * eps * ddph, B_dot=eps * dB)


# ---------------------------------------------------------------------------
# Allocating forms of the spin-path kernels and the fixed-step steppers
# ---------------------------------------------------------------------------

def su2_complex(bx, by, bz, h):
    """SU(2) pairs (a, b) of exp(-i h b . sigma / 2) in complex arithmetic."""
    mag = np.sqrt(bx * bx + by * by + bz * bz)
    ang = 0.5 * mag * h
    c, si = np.cos(ang), np.sin(ang)
    return c - 1j * si * (bz / mag), -1j * si * (bx / mag + 1j * (by / mag))


def spin_components_allocating(psi):
    """(Sx, Sy, Sz) = (2 conj(up) dn, |up|^2 - |dn|^2) / (|up|^2 + |dn|^2)."""
    up, dn = psi[..., 0], psi[..., 1]
    uu, dd = np.square(np.abs(up)), np.square(np.abs(dn))
    nn = uu + dd
    cross = np.conj(up) * dn
    sx, sy = 2.0 * cross.real, 2.0 * cross.imag
    sx /= nn
    sy /= nn
    uu -= dd
    uu /= nn
    return sx, sy, uu


def unwrap_allocating(angles, error, what):
    """Unwrapped angles from 0, each step wrapped into [-pi, pi) where it lies outside."""
    steps = np.diff(angles) + np.pi
    np.remainder(steps, 2.0 * np.pi, out=steps, where=(steps < 0.0) | (steps >= 2.0 * np.pi))
    steps -= np.pi
    worst = float(np.max(np.abs(steps))) if steps.size else 0.0
    if worst > 0.5 * np.pi:
        raise error(f"{what} step {worst:.3g} rad exceeds pi/2; refine the grid")
    return np.concatenate([[0.0], np.cumsum(steps)])


def _dots_allocating(x, y, z):
    return x[:-1] * x[1:] + y[:-1] * y[1:] + z[:-1] * z[1:]


def fan_area_appended(x, y, z):
    """Fan area from +z of the path (x, y, z) closed by appending its first node."""
    x, y, z = (np.append(c, c[0]) for c in (x, y, z))
    num = x[:-1] * y[1:]
    num -= y[:-1] * x[1:]
    den = 1.0 + z[:-1]
    den += z[1:]
    den += _dots_allocating(x, y, z)
    return 2.0 * float(np.sum(np.arctan2(num, den, out=num)))


def stieltjes_allocating(x, f):
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(x)))


def is_uniform_allocating(times):
    dt = np.diff(times)
    return bool(np.max(np.abs(dt - dt[0])) <= 1e-9 * abs(dt[0]))


def prefix_products_allocating(a, b):
    """Overwrite the pairs (a[k], b[k]) with the products of steps k, ..., 0 (odd-even scan)."""
    if len(a) < 2:
        return
    pa, pb = _compose(a[1::2], b[1::2], a[0:-1:2], b[0:-1:2])
    prefix_products_allocating(pa, pb)
    a[1::2], b[1::2] = pa, pb
    k = (len(a) - 1) // 2
    a[2::2], b[2::2] = _compose(a[2::2], b[2::2], pa[:k], pb[:k])


def _refined_stieltjes_allocating(times, x, f):
    if not is_uniform_allocating(times):
        return stieltjes_allocating(x, f)
    return _romberg_limit([stieltjes_allocating(x[::s], f[::s]) for s in _decimations(len(times))])


def _spin_path_allocating(traj):
    if traj.kind == "spinor":
        return spin_components_allocating(traj.states)
    x, y, z = np.asarray(traj.states, dtype=float).T
    r = np.sqrt(x * x + y * y + z * z)
    return x / r, y / r, z / r


def aa_coordinate_allocating(traj):
    """``aa_geometric_phase_coordinate`` from the allocating kernels (paths of two or more nodes)."""
    x, y, z = _spin_path_allocating(traj)
    sin_polar = math.sqrt(float(np.min(x * x + y * y)))
    if sin_polar < MIN_SIN_POLAR:
        raise PoleSingularity(f"path reaches sin(theta~)={sin_polar:.3g} < {MIN_SIN_POLAR}")
    azimuth = unwrap_allocating(np.arctan2(y, x), GridTooCoarse, "azimuth")
    return -0.5 * _refined_stieltjes_allocating(traj.times, azimuth, 1.0 - z)


def aa_solid_angle_allocating(traj, refine=True):
    """``aa_geometric_phase_solid_angle`` from the allocating kernels (paths of two or more
    nodes)."""
    x, y, z = _spin_path_allocating(traj)
    arc = float(np.arccos(np.clip(np.min(_dots_allocating(x, y, z)), -1.0, 1.0)))
    if arc >= 0.25 * np.pi:
        raise ArcTooLong(f"consecutive nodes {arc:.3g} rad apart (>= pi/4)")
    if refine:
        vals = [fan_area_appended(x[::s], y[::s], z[::s]) for s in _decimations(len(x))]
        return -0.5 * _romberg_limit(vals, tol=1e-12)
    return -0.5 * fan_area_appended(x, y, z)


def _stepped_states_allocating(pairs, n_steps, psi0, stride=1):
    states = np.empty((n_steps // stride + 1, 2), dtype=complex)
    states[0] = psi0
    up, dn = psi0
    buf = np.empty((2, min(n_steps, _BLOCK_STEPS)), dtype=complex)
    for lo in range(0, n_steps, _BLOCK_STEPS):
        hi = min(lo + _BLOCK_STEPS, n_steps)
        a, b = buf[:, :hi - lo]
        for sub in range(lo, hi, _PAIR_BLOCK):
            end = min(sub + _PAIR_BLOCK, hi)
            a[sub - lo:end - lo], b[sub - lo:end - lo] = pairs(sub, end)
        prefix_products_allocating(a, b)
        first = (-lo - 1) % stride
        ka, kb = a[first::stride], b[first::stride]
        kept = states[(lo + first + 1) // stride:][:len(ka)]
        kept[:, 0] = ka * up - np.conj(kb) * dn
        kept[:, 1] = kb * up + np.conj(ka) * dn
        up, dn = a[-1] * up - np.conj(b[-1]) * dn, b[-1] * up + np.conj(a[-1]) * dn
    return states


def midpoint_states_allocating(profile, psi0, t_span, n_steps):
    """States of ``exponential_midpoint_schrodinger`` from the allocating kernels."""
    t0, t1 = t_span
    h = (t1 - t0) / n_steps

    def pairs(lo, hi):
        return su2_complex(*_field_vector(profile, t0 + (np.arange(lo, hi) + 0.5) * h), h)

    return _stepped_states_allocating(pairs, n_steps, as_spinor(psi0))


def cf4_states_allocating(profile, psi0, grid, k):
    """States of ``exact_dynamics._cf4_states`` (k CF4 steps per grid interval) from the
    allocating kernels."""
    starts, widths = grid[:-1], np.diff(grid) / k

    def pairs(lo, hi):
        interval, j = np.divmod(np.arange(lo, hi), k)
        h = widths[interval]
        t = starts[interval] + j * h
        m = len(t)
        b = _field_vector(profile, np.concatenate([t + _CF4_NODES[0] * h, t + _CF4_NODES[1] * h]))
        first = [_CF4_A2 * c[:m] + _CF4_A1 * c[m:] for c in b]
        second = [_CF4_A1 * c[:m] + _CF4_A2 * c[m:] for c in b]
        return _compose(*su2_complex(*second, h), *su2_complex(*first, h))

    return _stepped_states_allocating(pairs, k * (len(grid) - 1), psi0, k)
