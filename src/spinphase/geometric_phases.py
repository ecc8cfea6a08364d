"""Phase functionals: dynamical, second-order, Berry, and exact geometric.

Four related but distinct objects live here.

* ``phi0``: the plain dynamical phase -(1/2) integral of B dt.
* ``phi2``: the second-order correction -(1/4) integral of theta_dot**2/B dt.
  Its sign is fixed by the effective frequency B*(1 + delta**2/2) together
  with an independent rotating-frame oracle (a uniformly rotating field is
  exactly solvable with eigenfrequency sqrt(B**2 + theta_dot**2)); the test
  suite pins it there.
* ``berry_phi1``: the first-order geometric phase (1/2) integral of
  (1 - cos theta) dphi over the field path; identically zero for in-plane
  evolution.
* the exact geometric phase of a cyclic evolution, evaluated on the
  classical-spin sphere: -(1/2) integral of (1 - cos theta~) dphi~ along
  the spin trajectory, where (theta~, phi~) are the spin's spherical
  coordinates.  A gauge-independent oracle computes the same quantity as
  -(1/2) times the swept solid angle, summing the signed solid angles of
  spherical triangles; the two routes must agree on closed pole-free paths.

The second-order phase is also a holonomy on the (theta, theta_dot)
parameter plane with connection (theta_dot/(4B), 0) and constant curvature
-1/(4B); ``generalized_line_integral`` and ``stokes_surface_integral`` (the
shoelace, which gives a self-crossing loop's winding-weighted area) realize
its two sides.  On one polygon they are the same sum rearranged, so they agree
to roundoff; the independent check is ``phi2`` over the loop's period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adiabatic_engine import params_from_sample
from .errors import (
    ArcTooLong,
    DegenerateField,
    DomainError,
    GridTooCoarse,
    LoopNotClosed,
    PoleSingularity,
)
from .field_profiles import DEFAULT_B_MIN, FieldProfile, FieldSample, _number, check_span, sample
from .exact_dynamics import Trajectory, _check_count, _spin_components, _unwrap, bloch_series

_QUAD_OPTS = {"epsabs": 1e-12, "epsrel": 1e-12, "limit": 500}
MIN_SIN_POLAR = 1e-3
_CLOSURE_TOL = 1e-9  # largest endpoint gap of a closed MLoop, per coordinate
_ROMBERG_LEVELS = 4  # most step sizes (h, 2h, 4h, ...) a Romberg limit extrapolates from


@dataclass(frozen=True)
class PhaseDecomposition:
    """Side-by-side phase bookkeeping for one run.

    phi_total_exact - phi_dyn_expect = phi_geom_aa holds by construction;
    which part of the exact phase the second-order correction belongs to is
    reported, never asserted.
    """

    phi0: float
    phi1: float
    phi2: float
    phi_total_exact: float
    phi_dyn_expect: float
    phi_geom_aa: float


@dataclass(frozen=True)
class Phi2Terms:
    """Decomposition of the second-order geometric term on the field sphere.

    term_accel is the acceleration part -(1/2) int gamma sin(theta) dphi
    (zero in-plane); term_byparts is the by-parts value -(1/2) int delta
    dtheta of the remaining connection piece; boundary is the integrated-out
    endpoint term, reported separately.
    """

    term_accel: float
    term_byparts: float
    boundary: float


# ---------------------------------------------------------------------------
# Profile quadratures
# ---------------------------------------------------------------------------

# Each functional is a prefactor times the integral of one integrand of a FieldSample;
# the prefactor stays outside the quadrature, so its absolute tolerance sees the bare integrand.
_PHI0 = (-0.5, lambda s: s.B_mag)
_PHI2 = (-0.25, lambda s: s.theta_dot**2 / s.B_mag)

# QUADPACK's qk15 rule on [-1, 1]: the 15 Kronrod nodes, their weights, and the
# weights of the 7-point Gauss rule on every second node
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.0)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_GK_NODES = np.array([-x for x in _XK[:7]] + list(_XK[::-1]))
_GK_WEIGHTS = np.array(_WK[:7] + _WK[::-1])
_G_WEIGHTS = np.array(_WG[:3] + _WG[::-1])  # on _GK_NODES[1::2]


def _integral(prefactor, integrand, profile: FieldProfile, t_span: tuple[float, float]) -> float:
    check_span(t_span)
    t0, t1 = t_span
    if t0 == t1:
        return 0.0
    return prefactor * _gauss_kronrod(lambda t: integrand(sample(profile, t)), t0, t1)[0]


def _gauss_kronrod(f, a: float, b: float) -> tuple[float, float, int]:
    """Adaptive G7-K15 quadrature of f over [a, b]: (integral, error estimate, nodes used).

    ``f`` maps a 1-D array of times to the integrand's values there.  All
    active intervals are evaluated together, one ``f`` call per level, with
    QUADPACK's qk15 error estimate; while the summed estimate exceeds
    max(epsabs, epsrel * |integral|) of ``_QUAD_OPTS``, every interval whose
    estimate exceeds its length's share of that tolerance is bisected, and
    the others are kept.  When no interval is over its share, or bisecting
    would pass ``_QUAD_OPTS["limit"]`` intervals, the current sums are
    returned with their estimate, as quad returns its best result.  An integrand
    value or a sum that is not finite raises DomainError.
    """
    epsabs, epsrel, limit = _QUAD_OPTS["epsabs"], _QUAD_OPTS["epsrel"], _QUAD_OPTS["limit"]
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    done = done_err = 0.0
    n_done = nodes = 0
    while True:
        centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = (centre[:, None] + half[:, None] * _GK_NODES).ravel()
        # an overflow or invalid value fails the finite checks below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            fv = np.asarray(f(t), dtype=float).reshape(len(lo), 15)
            if not np.isfinite(fv).all():
                i = np.argmin(np.isfinite(fv).ravel())
                raise DomainError(f"integrand value {fv.flat[i]} at t={t[i]} is not finite")
            nodes += fv.size
            resk = fv @ _GK_WEIGHTS
            err = np.abs((resk - fv[:, 1::2] @ _G_WEIGHTS) * half)
            # QUADPACK's estimate: |K - G| scaled against the integral of |f - mean f|, and
            # floored at 50 eps times the integral of |f|
            resasc = np.abs(fv - 0.5 * resk[:, None]) @ _GK_WEIGHTS * np.abs(half)
            err = np.where(resasc > 0, resasc * np.minimum(1.0, (200.0 * err / resasc)**1.5), err)
            err = np.maximum(err, 50.0 * np.finfo(float).eps * (np.abs(fv) @ _GK_WEIGHTS)
                             * np.abs(half))
            resk = resk * half
            total, total_err = done + float(np.sum(resk)), done_err + float(np.sum(err))
        if not math.isfinite(total):
            raise DomainError(f"integral over [{a}, {b}] is not finite")
        tol = max(epsabs, epsrel * abs(total))
        split = err > tol * np.abs(half) / abs(0.5 * (b - a))
        n_split = np.count_nonzero(split)
        # with no interval over its share, the excess is in intervals accepted earlier
        if total_err <= tol or n_split == 0 or n_done + len(lo) + n_split > limit:
            return total, total_err, nodes
        done += float(np.sum(resk[~split]))
        done_err += float(np.sum(err[~split]))
        n_done += len(lo) - n_split
        lo, hi = np.concatenate([lo[split], centre[split]]), np.concatenate([centre[split], hi[split]])


def phi0(profile: FieldProfile, t_span: tuple[float, float]) -> float:
    """Dynamical phase -(1/2) integral of B over the span."""
    return _integral(*_PHI0, profile, t_span)


def phi2(profile: FieldProfile, t_span: tuple[float, float]) -> float:
    """Second-order phase correction -(1/4) integral of theta_dot**2/B."""
    return _integral(*_PHI2, profile, t_span)


def berry_phi1(profile: FieldProfile, t_span: tuple[float, float]) -> float:
    """First-order geometric phase (1/2) int (1 - cos theta) dphi over the field path."""
    return _integral(0.5, lambda s: (1.0 - np.cos(s.theta)) * s.phi_dot, profile, t_span)


def phase_series(samples: FieldSample, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Running phi0 and phi2 over an already-sampled grid, by the trapezoid rule.

    The integrands are the ones :func:`phi0` and :func:`phi2` integrate
    adaptively; both series are 0.0 on the first node.  A running value that
    is not finite raises DomainError.
    """
    def running(prefactor, integrand):
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
            f = integrand(samples)
            steps = 0.5 * (f[1:] + f[:-1]) * np.diff(times)
            series = np.concatenate([[0.0], prefactor * np.cumsum(steps)])
        if not np.isfinite(series).all():
            i = np.argmin(np.isfinite(series))
            raise DomainError(f"running phase {series[i]} at t={times[i]} is not finite")
        return series

    return running(*_PHI0), running(*_PHI2)


def phi2_decomposition(profile: FieldProfile, t_span: tuple[float, float]) -> Phi2Terms:
    """Second-order terms of the expanded exact geometric phase.

    The by-parts piece is evaluated in its regular form -(1/2) int delta
    dtheta, with the endpoint term (1/2) (1 - cos theta) delta / sin theta
    = (1/2) tan(theta/2) delta reported separately; only theta near pi is
    singular for it.
    """
    def endpoint(t):
        s = sample(profile, t)
        half = 0.5 * s.theta
        if abs(math.cos(half)) < 5e-4:
            raise PoleSingularity(f"boundary term singular: theta={s.theta} near pi")
        return 0.5 * math.tan(half) * params_from_sample(s).delta

    return Phi2Terms(
        term_accel=_integral(
            -0.5, lambda s: params_from_sample(s).gamma * np.sin(s.theta) * s.phi_dot,
            profile, t_span),
        term_byparts=_integral(
            -0.5, lambda s: params_from_sample(s).delta * s.theta_dot, profile, t_span),
        boundary=endpoint(t_span[1]) - endpoint(t_span[0]),
    )


# ---------------------------------------------------------------------------
# Trajectory integrals with decimation-Richardson refinement
# ---------------------------------------------------------------------------

def _romberg_limit(estimates: list[float], tol: float = 1e-9) -> float:
    """Extrapolate trapezoid-type estimates at steps h, 2h, 4h, ... to h -> 0."""
    col = list(estimates)
    j = 0
    while len(col) >= 2:
        j += 1
        fac = 4.0**j
        nxt = [(fac * col[k] - col[k + 1]) / (fac - 1.0) for k in range(len(col) - 1)]
        if abs(nxt[0] - col[0]) < tol:
            return nxt[0]
        col = nxt
    return col[0]


def _decimations(n_nodes: int) -> list[int]:
    strides = [1]
    s = 2
    while len(strides) < _ROMBERG_LEVELS and (n_nodes - 1) % s == 0 and (n_nodes - 1) // s >= 8:
        strides.append(s)
        s *= 2
    return strides


def _is_uniform(times: np.ndarray) -> bool:
    dt = np.diff(times)
    dt0 = dt[0]
    dt -= dt0
    return bool(max(dt.max(), -dt.min()) <= 1e-9 * abs(dt0))


def _stieltjes(x: np.ndarray, f: np.ndarray) -> float:
    """Trapezoid sum of f dx: the sum of 0.5 (f[k+1] + f[k]) (x[k+1] - x[k])."""
    w = np.empty((2, len(x) - 1))
    np.add(f[1:], f[:-1], out=w[0])
    w[0] *= 0.5
    np.subtract(x[1:], x[:-1], out=w[1])
    w[0] *= w[1]
    return float(np.sum(w[0]))


def _refined_stieltjes(times: np.ndarray, x: np.ndarray, f: np.ndarray) -> float:
    if not _is_uniform(times):
        return _stieltjes(x, f)
    vals = [_stieltjes(x[::s], f[::s]) for s in _decimations(len(times))]
    return _romberg_limit(vals)


def phi_dyn_expect(traj: Trajectory) -> float:
    """Expectation-value dynamical phase -(integral of <psi|H|psi> dt) in the trajectory's field.

    Composite trapezoid over the trajectory grid, Richardson-refined via node
    decimation when the grid is uniform.  The per-step phase must stay below
    pi/2 or the grid is rejected.  A path of one node gives the empty integral 0.0;
    a trajectory without its profile raises DomainError.
    """
    if traj.profile is None:
        raise DomainError("phi_dyn_expect requires the trajectory's profile")
    if len(traj.times) < 2:
        return 0.0
    h_expect = 0.5 * np.sum(sample(traj.profile, traj.times).B_vec * bloch_series(traj), axis=1)
    steps = np.abs(h_expect[:-1] * np.diff(traj.times))
    if float(np.max(steps)) >= 0.5 * np.pi:
        raise GridTooCoarse("per-step dynamical phase exceeds pi/2; refine the grid")
    return -_refined_stieltjes(traj.times, traj.times, h_expect)


def aa_geometric_phase_coordinate(traj: Trajectory) -> float:
    """Exact geometric phase -(1/2) int (1 - cos theta~) dphi~ along the spin path.

    theta~/phi~ are the spherical coordinates of the (unit-normalized) spin
    trajectory; the azimuth is unwrapped, so full windings accumulate.  The
    connection is singular at the poles, hence the sin(theta~) floor.  A path
    of one node gives the empty integral 0.0.
    """
    if len(traj.times) < 2:
        return 0.0
    x, y, z = _spin_path(traj)
    azimuth = np.arctan2(y, x)
    x *= x
    y *= y
    x += y  # sin(theta~)^2
    sin_polar = math.sqrt(float(np.min(x)))
    if sin_polar < MIN_SIN_POLAR:
        raise PoleSingularity(f"path reaches sin(theta~)={sin_polar:.3g} < {MIN_SIN_POLAR}")
    azimuth = _unwrap(azimuth, GridTooCoarse, "azimuth")
    np.subtract(1.0, z, out=z)
    return -0.5 * _refined_stieltjes(traj.times, azimuth, z)


def aa_geometric_phase_solid_angle(traj: Trajectory, refine: bool = True) -> float:
    """Gauge-independent oracle: -(1/2) times the swept solid angle.

    The path (geodesically closed) is fanned into spherical triangles from
    the +z axis — the gauge in which the coordinate route measures enclosed
    area — and each triangle contributes its signed solid angle.  Richardson
    refinement over node decimation removes the inscribed-polygon deficit.
    A path of one node gives the empty integral 0.0.
    """
    if len(traj.times) < 2:
        return 0.0
    x, y, z = _spin_path(traj)
    dots, half_angles = _fan(x, y, z)
    arc = float(np.arccos(np.clip(np.min(dots[:-1]), -1.0, 1.0)))
    if arc >= 0.25 * np.pi:
        raise ArcTooLong(f"consecutive nodes {arc:.3g} rad apart (>= pi/4)")
    area = 2.0 * float(np.sum(half_angles))
    del dots, half_angles  # the finest level's rows go before the coarser levels are made
    if refine:
        vals = [area] + [_fan_area(x[::s], y[::s], z[::s]) for s in _decimations(len(x))[1:]]
        area = _romberg_limit(vals, tol=1e-12)
    return -0.5 * area


def _spin_path(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Components (x, y, z) of the trajectory's unit spin path, new arrays the caller
    may overwrite.

    A spinor's mean spin is a unit vector by construction; a Bloch path's
    states drift off the sphere under DOP853, so they are normalized here.
    """
    if traj.kind == "spinor":
        return tuple(_spin_components(traj.states))
    x, y, z = np.asarray(traj.states, dtype=float).T
    r = np.sqrt(x * x + y * y + z * z)
    return x / r, y / r, z / r


def _cyclic_products(c: np.ndarray, d: np.ndarray, out: np.ndarray) -> None:
    """out[k] = c[k] * d[k + 1], with the last node paired with the first."""
    np.multiply(c[:-1], d[1:], out=out[:-1])
    out[-1] = c[-1] * d[0]


def _fan(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows (p . q, half the solid angle of (+z, p, q)) for each node p of the path
    (x, y, z) and the next node q, the last node with the first.

    The triangle (+z, p, q) of unit vectors has the signed solid angle
    2 atan2(z . (p x q), 1 + z . p + z . q + p . q) (Van Oosterom & Strackee
    1983).  The rows are made in one (3, n) array, each product once.
    """
    w = np.empty((3, len(x)))
    dots, num, den = w
    _cyclic_products(x, x, dots)
    _cyclic_products(y, y, num)
    dots += num
    _cyclic_products(z, z, num)
    dots += num
    _cyclic_products(x, y, num)
    _cyclic_products(y, x, den)
    num -= den  # z . (p x q)
    np.add(z, 1.0, out=den)
    den[:-1] += z[1:]
    den[-1] += z[0]
    den += dots
    np.arctan2(num, den, out=num)
    return w[:2]


def _fan_area(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> float:
    """Signed spherical area of the polygon of unit vectors (x, y, z), fanned from +z.

    The polygon is always closed by the geodesic from its last node back to
    its first: that triangle fills the last slot of :func:`_fan`'s rows, and on
    a path that ends where it starts it is degenerate and adds exactly 0.
    """
    return 2.0 * float(np.sum(_fan(x, y, z)[1]))


# ---------------------------------------------------------------------------
# Generalized (theta, theta_dot) parameter space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MLoop:
    """Closed loop in the (theta, theta_dot) parameter plane.

    theta_dot is scaled by ``time_unit`` before the closure test so the two
    coordinates compare on an even footing.
    """

    theta: np.ndarray
    theta_dot: np.ndarray
    time_unit: float = 1.0

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        td = np.asarray(self.theta_dot, dtype=float)
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "theta_dot", td)
        if th.shape != td.shape or th.ndim != 1 or th.size < 4:
            raise LoopNotClosed("loop needs matching 1-D coordinate arrays of >= 4 nodes")
        if not (np.isfinite(th).all() and np.isfinite(td).all()):
            raise DomainError("loop coordinates must be finite")
        gap_th = abs(th[0] - th[-1])
        gap_td = abs(td[0] - td[-1]) * self.time_unit
        if gap_th > _CLOSURE_TOL or gap_td > _CLOSURE_TOL:
            raise LoopNotClosed(
                f"loop endpoints differ by ({gap_th:.3g}, {gap_td:.3g}) "
                f"exceeding closure tolerance {_CLOSURE_TOL}"
            )


def loop_from_profile(
    profile: FieldProfile, t_span: tuple[float, float], n_nodes: int = 801,
    reverse: bool = False,
) -> MLoop:
    """Sample (theta, theta_dot) along a profile into a closed loop."""
    _check_count("n_nodes", n_nodes, 0)
    check_span(t_span)
    s = sample(profile, np.linspace(t_span[0], t_span[1], n_nodes))
    th, td = s.theta, s.theta_dot
    if reverse:
        th, td = th[::-1], td[::-1]
    return MLoop(theta=th, theta_dot=td, time_unit=1.0 / s.B_mag[0])


def _check_field(B_mag: float) -> None:
    B_mag = _number("B", B_mag)
    if B_mag < DEFAULT_B_MIN:
        raise DegenerateField(f"|B|={B_mag} below floor {DEFAULT_B_MIN}")
    if not B_mag < math.inf:
        raise DegenerateField(f"|B|={B_mag} is not finite")


def generalized_line_integral(loop: MLoop, B_mag: float) -> float:
    """Holonomy -(contour integral of (theta_dot/(4B)) dtheta) around the loop."""
    _check_field(B_mag)
    return -0.25 * _stieltjes(loop.theta, loop.theta_dot / B_mag)


def stokes_surface_integral(loop: MLoop, B_mag: float) -> float:
    """Oriented enclosed area over 4B: the surface side of the holonomy identity.

    Counterclockwise loops in the (theta, theta_dot/B) plane count positive
    area.  On any closed polygon, self-crossing or not, the shoelace gives the
    winding-weighted area: each region counts once per counterclockwise turn of
    the loop around it, which is what Stokes' theorem gives for a constant
    curvature.
    """
    _check_field(B_mag)
    pts = np.stack([loop.theta, loop.theta_dot / B_mag], axis=1)
    if np.hypot(*(pts[0] - pts[-1])) <= 1e-12 + _CLOSURE_TOL:
        pts = pts[:-1]
    x_c, y_c = pts[:, 0], pts[:, 1]
    x_n, y_n = np.concatenate((pts[1:], pts[:1])).T
    area = 0.5 * float(np.sum(x_c * y_n - x_n * y_c))
    return area / 4.0


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def phase_decomposition(traj: Trajectory, total_phase: float) -> PhaseDecomposition:
    """Collect all phase functionals of one run into a single record.

    The field is the trajectory's profile and the span runs from its first node to its last.
    """
    dyn = phi_dyn_expect(traj)
    profile, t_span = traj.profile, (float(traj.times[0]), float(traj.times[-1]))
    return PhaseDecomposition(
        phi0=phi0(profile, t_span),
        phi1=berry_phi1(profile, t_span),
        phi2=phi2(profile, t_span),
        phi_total_exact=total_phase,
        phi_dyn_expect=dyn,
        phi_geom_aa=total_phase - dyn,
    )
