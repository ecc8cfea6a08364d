"""Time-dependent magnetic field profiles with exact analytic derivatives.

Fields are given in frequency units (hbar = 1, the gyromagnetic factor is
absorbed into B).  A profile describes B(eps*t) through its spherical data
(B, theta, phi) as functions of the slow time tau = eps*t; the adiabaticity
scale ``epsilon`` multiplies every time derivative once per order, so that
sampling a profile with scale eps at time t reproduces the eps=1 profile at
time eps*t for the angle variables, while theta_dot scales by eps and
theta_ddot by eps**2.

Downstream consumers (adiabatic parameters, quasi-stationary corrections)
need theta_dot, theta_ddot and B_dot exactly, so derivatives are part of
the profile contract rather than re-derived numerically: a tabulated
profile differentiates its interpolating splines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DegenerateField, DomainError

# Each kind's params and their defaults, in stored order; a param without a
# default (None) is required.  polynomial_angle also takes the coefficients
# c0, c1, ... with no gap, stored as floats after B0.
KIND_PARAMS: dict[str, dict[str, float | None]] = {
    "constant": {"B0": None, "theta0": 0.0, "phi0": 0.0},
    "uniform_rotation": {"B0": None, "omega": None, "theta_init": 0.0},
    "polynomial_angle": {"B0": None},
    "sinusoidal_angle": {"B0": None, "theta0": None, "Omega": None,
                         "theta_offset": 0.0, "b_amp": 0.0, "b_freq": 0.0},
    "cone_3d": {"B0": None, "theta_c": None, "omega_phi": None, "phi_init": 0.0},
    "user_tabulated": {},
}
# the kinds whose phi is identically +-0
_ZERO_PHI_KINDS = ("uniform_rotation", "polynomial_angle", "sinusoidal_angle")

DEFAULT_B_MIN = 1e-6


@dataclass(frozen=True)
class FieldSample:
    """Field state at one instant or a time grid: Cartesian vector, spherical data, derivatives.

    Sampled at a float time, every field is a float and ``B_vec`` has shape
    (3,); sampled on a 1-D grid of n times, every field has shape (n,) and
    ``B_vec`` has shape (n, 3).  Angles are kept unwrapped (theta continuous,
    not reduced mod 2*pi) so contour integrals over theta are well defined.
    All rates are in lab-time units (the epsilon chain rule is already
    applied).
    """

    t: float | np.ndarray
    B_vec: np.ndarray
    B_mag: float | np.ndarray
    theta: float | np.ndarray
    phi: float | np.ndarray
    theta_dot: float | np.ndarray
    theta_ddot: float | np.ndarray
    phi_dot: float | np.ndarray
    phi_ddot: float | np.ndarray
    B_dot: float | np.ndarray


@dataclass(frozen=True)
class FieldProfile:
    """Immutable field trajectory; sampling is pure and thread-safe.

    ``params`` holds the kind-specific scalars, checked at construction
    against the kind's row of ``KIND_PARAMS`` and stored in its order with
    the defaults filled in.  ``t_domain`` bounds the admissible sampling
    times (lab time); ``b_min`` is the degeneracy floor below which
    sampling raises :class:`DegenerateField`.  ``epsilon``, ``t_domain``
    and ``b_min`` are stored as floats.  Any invalid setting raises
    :class:`ConfigError`.
    """

    kind: str
    params: Mapping[str, float]
    epsilon: float = 1.0
    t_domain: tuple[float, float] = (-math.inf, math.inf)
    b_min: float = DEFAULT_B_MIN
    _tables: _Spline | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        table = KIND_PARAMS.get(self.kind) if isinstance(self.kind, str) else None
        if table is None:
            raise ConfigError(f"unknown profile kind {self.kind!r}")
        if not isinstance(self.params, Mapping):
            raise ConfigError(f"profile params must be a mapping, got {self.params!r}")
        given = dict(self.params)
        params = {}
        for name, default in table.items():
            value = given.pop(name, default)
            if value is None:
                raise ConfigError(f"{self.kind} requires param {name}")
            _finite(f"{self.kind} param {name}", value)
            params[name] = value
        if self.kind == "polynomial_angle":
            coeffs = [f"c{k}" for k in range(len(given))]
            if not coeffs or set(given) != set(coeffs):
                raise ConfigError("polynomial_angle takes B0 and c0, c1, ... with no gap; "
                                  f"got {sorted(map(str, self.params))}")
            params.update((c, _finite(f"polynomial_angle param {c}", given[c])) for c in coeffs)
        elif given:
            raise ConfigError(f"{self.kind} takes no param {next(iter(given))!r}")
        if "B0" in params and not params["B0"] > 0:
            raise ConfigError(f"B0 must be positive, got {params['B0']}")
        if abs(params.get("b_amp", 0.0)) >= 1.0:
            raise ConfigError("|b_amp| must be < 1 to keep the field non-degenerate, "
                              f"got {params['b_amp']}")
        if self.kind == "user_tabulated" and self._tables is None:
            raise ConfigError("user_tabulated profiles are built from tables by user_tabulated()")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "epsilon", _finite("epsilon", self.epsilon))
        if not (self.epsilon > 0):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "b_min", _number("b_min", self.b_min))
        if not (self.b_min > 0):
            raise ConfigError(f"b_min must be positive, got {self.b_min}")
        try:
            lo, hi = (_number("t_domain", t) for t in self.t_domain)
        except (TypeError, ValueError):
            raise ConfigError(f"t_domain must be [lo, hi], got {self.t_domain!r}") from None
        if not lo < hi:
            raise ConfigError(f"empty t_domain {self.t_domain}")
        object.__setattr__(self, "t_domain", (lo, hi))


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def constant(B0: float, theta0: float = 0.0, phi0: float = 0.0, **kw) -> FieldProfile:
    """Static field of magnitude B0 pointing along (theta0, phi0)."""
    return FieldProfile("constant", {"B0": B0, "theta0": theta0, "phi0": phi0}, **kw)


def uniform_rotation(B0: float, omega: float, theta_init: float = 0.0, **kw) -> FieldProfile:
    """In-plane field of constant magnitude rotating at uniform rate omega."""
    return FieldProfile(
        "uniform_rotation", {"B0": B0, "omega": omega, "theta_init": theta_init}, **kw
    )


def polynomial_angle(B0: float, coeffs: Sequence[float], **kw) -> FieldProfile:
    """In-plane field with theta(tau) = sum_k c_k tau**k, constant magnitude."""
    return FieldProfile(
        "polynomial_angle", {"B0": B0, **{f"c{k}": c for k, c in enumerate(coeffs)}}, **kw
    )


def sinusoidal_angle(
    B0: float,
    theta0: float,
    Omega: float,
    theta_offset: float = 0.0,
    b_amp: float = 0.0,
    b_freq: float = 0.0,
    **kw,
) -> FieldProfile:
    """In-plane field with theta(tau) = theta_offset + theta0*sin(Omega*tau).

    Optionally modulates the magnitude as B(tau) = B0*(1 + b_amp*sin(b_freq*tau)),
    which is the one analytic kind exercising B_dot != 0.
    """
    return FieldProfile(
        "sinusoidal_angle",
        {
            "B0": B0,
            "theta0": theta0,
            "Omega": Omega,
            "theta_offset": theta_offset,
            "b_amp": b_amp,
            "b_freq": b_freq,
        },
        **kw,
    )


def cone_3d(
    B0: float, theta_c: float, omega_phi: float, phi_init: float = 0.0, **kw
) -> FieldProfile:
    """Constant-magnitude field on a cone: theta fixed, phi(tau) = phi_init + omega_phi*tau."""
    return FieldProfile(
        "cone_3d",
        {"B0": B0, "theta_c": theta_c, "omega_phi": omega_phi, "phi_init": phi_init},
        **kw,
    )


def user_tabulated(
    taus: Sequence[float],
    B: Sequence[float],
    theta: Sequence[float],
    phi: Sequence[float] | None = None,
    fd_step: float | None = None,
    epsilon: float = 1.0,
    b_min: float = DEFAULT_B_MIN,
) -> FieldProfile:
    """Profile interpolated from tables of (B, theta, phi) over slow time tau.

    Interpolation is by not-a-knot cubic splines (scipy's ``CubicSpline``), whose
    exact slopes and curvatures are the rates.  The lab-time domain is the
    tables' span over epsilon.  ``fd_step`` is ignored.
    """
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size < 4:
        raise ConfigError("user_tabulated needs at least 4 nodes")
    B = np.asarray(B, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.zeros_like(taus) if phi is None else np.asarray(phi, dtype=float)
    if not (B.shape == theta.shape == phi.shape == taus.shape):
        raise ConfigError("tabulated arrays must share the time grid's shape")
    # one NaN would spread through the spline solve into every coefficient
    for name, table in (("taus", taus), ("B", B), ("theta", theta), ("phi", phi)):
        if not np.all(np.isfinite(table)):
            raise ConfigError(f"tabulated {name} must be finite")
    if np.any(np.diff(taus) <= 0):
        raise ConfigError("tabulated times must be strictly increasing")
    profile = FieldProfile("user_tabulated", {}, epsilon=epsilon, b_min=b_min,
                           _tables=_Spline(taus, np.stack([B, theta, phi], axis=1)))
    return replace(profile, t_domain=(taus[0] / profile.epsilon, taus[-1] / profile.epsilon))


class _Spline:
    """Not-a-knot cubic splines through the columns of ``y`` (n, m) over knots ``x`` (n,), n >= 4.

    Called on an array of times, it returns an array of shape (3, m, *tau.shape):
    the m splines' values, slopes and curvatures; outside the knots the end
    pieces extrapolate.  Coefficients and evaluation follow scipy's
    ``CubicSpline`` operation for operation.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y.T, axis=1) / dx
        s = np.stack([_knot_slopes(x, col) for col in y.T])
        t = (s[:, :-1] + s[:, 1:] - 2 * slope) / dx
        self.x = x
        # piece i of spline j is c3 + c2 u + c1 u**2 + c0 u**3 at u = tau - x[i], with
        # ck = self.c[k, j, i]
        self.c = np.stack([t / dx, (slope - s[:, :-1]) / dx - t, s[:, :-1], y.T[:, :-1]])

    def __call__(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        i = np.clip(np.searchsorted(self.x, tau, side="right") - 1, 0, len(self.x) - 2)
        u = tau - self.x[i]
        c0, c1, c2, c3 = np.take(self.c, i, axis=-1)
        u2 = u * u
        return np.stack([c3 + c2 * u + c1 * u2 + c0 * (u2 * u),
                         c2 + c1 * u * 2.0 + c0 * u2 * 3.0,
                         c1 * 2.0 + c0 * u * 6.0])


def _knot_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First derivatives at the knots of the not-a-knot cubic spline through (x, y).

    One tridiagonal solve, by Gaussian elimination with partial pivoting in
    LAPACK's ``gtsv`` order.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    n = len(x)
    diag, upper, lower, rhs = np.empty(n), np.empty(n - 1), np.empty(n - 1), np.empty(n)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper[1:] = dx[:-1]
    lower[:-1] = dx[1:]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    rhs[-1] = (dx[-1]**2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    dl, dg, du, b = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    du2 = [0.0] * n  # fill-in of row swaps, two places right of the diagonal
    for i in range(n - 1):
        if abs(dg[i]) >= abs(dl[i]):
            fact = dl[i] / dg[i]
            dg[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
        else:  # swap rows i and i + 1
            fact = dg[i] / dl[i]
            dg[i], dg[i + 1], du[i] = dl[i], du[i] - fact * dg[i + 1], dg[i + 1]
            if i < n - 2:
                du2[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] /= dg[n - 1]
    b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / dg[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - du2[i] * b[i + 2]) / dg[i]
    return np.array(b)


def _number(name: str, value) -> float:
    """``value`` as a float; ConfigError unless it is a real number (numpy's too) in float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is out of float range") from None


def _finite(name: str, value) -> float:
    """``value`` as a float; ConfigError unless it is a finite real number."""
    x = _number(name, value)
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return x


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _sin_cos(x):
    """(sin x, cos x): by ``math`` at a float (NaN at inf, as numpy's), numpy's on an array."""
    if isinstance(x, float):
        try:
            return math.sin(x), math.cos(x)
        except ValueError:
            return math.nan, math.nan
    return np.sin(x), np.cos(x)


def _base_eval(profile: FieldProfile, tau):
    """Evaluate (B, dB, theta, dtheta, ddtheta, phi, dphi, ddphi) in tau units.

    At a float tau every value is a Python float.  On a grid the terms that
    depend on tau, and the zero terms, have tau's shape; a nonzero term that
    does not depend on tau is a float, so trig of a constant angle is taken
    once.
    """
    p = profile.params
    kind = profile.kind
    zero = 0.0 * tau  # its sign shows at tau < 0, so zero terms keep tau's shape
    # a param that may be zero reads ``x + 0.0 or x + zero``: x + zero equals the float
    # x + 0.0 unless x is a signed zero, whose sum with zero follows tau's sign
    if kind == "constant":
        th, ph = p["theta0"], p["phi0"]
        return (p["B0"] + 0.0, zero, th + 0.0 or th + zero, zero, zero,
                ph + 0.0 or ph + zero, zero, zero)
    if kind == "uniform_rotation":
        w = p["omega"]
        return (
            p["B0"] + 0.0, zero,
            p["theta_init"] + w * tau, w + 0.0 or w + zero, zero,
            zero, zero, zero,
        )
    if kind == "polynomial_angle":
        coeffs = list(p.values())[1:]  # stored as B0, c0, c1, ...
        th = d1 = d2 = 0.0
        for c in reversed(coeffs):  # Horner for theta and its two derivatives
            d2 = d2 * tau + 2.0 * d1
            d1 = d1 * tau + th
            th = th * tau + c
        return p["B0"] + 0.0, zero, th, d1, d2, zero, zero, zero
    if kind == "sinusoidal_angle":
        th0, Om = p["theta0"], p["Omega"]
        s, c = _sin_cos(Om * tau)
        bamp, bfreq = p["b_amp"], p["b_freq"]
        if bamp != 0.0:
            sb, cb = _sin_cos(bfreq * tau)
            B = p["B0"] * (1.0 + bamp * sb)
            dB = p["B0"] * bamp * bfreq * cb
        else:
            B, dB = p["B0"] + 0.0, zero
        return (
            B, dB,
            p["theta_offset"] + th0 * s, th0 * Om * c, -th0 * Om * Om * s,
            zero, zero, zero,
        )
    if kind == "cone_3d":
        th, w = p["theta_c"], p["omega_phi"]
        return (
            p["B0"] + 0.0, zero,
            th + 0.0 or th + zero, zero, zero,
            p["phi_init"] + w * tau, w + 0.0 or w + zero, zero,
        )
    # user_tabulated, the one kind left: FieldProfile admits no other
    values = profile._tables(tau)
    if isinstance(tau, float):
        values = values.tolist()
    (B, th, ph), (dB, dth, dph), (_, ddth, ddph) = values
    return B, dB, th, dth, ddth, ph, dph, ddph


def _extent(x):
    """(min, max) of a float or of a 1-D array; DomainError for an empty time grid or
    an array of more than one axis."""
    if isinstance(x, float):
        return x, x
    if np.ndim(x) > 1:
        raise DomainError(f"times must be a float or a 1-D array, got shape {np.shape(x)}")
    if np.size(x) == 0:
        raise DomainError("the time grid is empty")
    return np.min(x), np.max(x)


def check_span(t_span) -> None:
    """ConfigError unless ``t_span`` is a pair of real numbers (``_number``); then
    DomainError naming the first end that is not a finite time.

    Run before a grid is laid over the span, so an infinite or NaN end is
    named instead of spreading through the grid's arithmetic.  Whether the
    span lies in a profile's domain is checked where the profile is sampled.
    """
    try:
        t0, t1 = t_span
    except (TypeError, ValueError):
        raise ConfigError(f"t_span must be a pair of real numbers, got {t_span!r}") from None
    for t in (t0, t1):
        if not math.isfinite(_number("each end of t_span", t)):
            raise DomainError(f"t={t} is not finite")


def _check_domain(profile: FieldProfile, t_min, t_max) -> None:
    """ConfigError unless ``profile`` is a FieldProfile; then DomainError unless the
    times from t_min to t_max are finite and lie in the profile's domain."""
    if not isinstance(profile, FieldProfile):
        raise ConfigError(f"a field profile must be a FieldProfile, got {profile!r}")
    lo, hi = profile.t_domain
    if not (lo <= t_min and t_max <= hi and -math.inf < t_min and t_max < math.inf):
        check_span((t_min, t_max))
        bad = t_min if t_min < lo else t_max
        raise DomainError(f"t={bad} outside profile domain [{lo}, {hi}]")


def _check_field(profile: FieldProfile, t, values) -> None:
    """DomainError unless each value, a float or an array on the times t, is finite (an
    infinite t, or epsilon or a param times the slow time that overflows, is not); then
    DegenerateField if the first, the magnitude, falls below the profile's b_min."""
    for x in values:
        if not (isinstance(x, float) and math.isfinite(x) or np.isfinite(x).all()):
            i = np.argmin(np.isfinite(x))
            raise DomainError(f"field value {np.ravel(x)[i]} at t={np.ravel(t)[i]} is not finite")
    B_lo = _extent(values[0])[0]
    if not B_lo >= profile.b_min:
        t_lo = np.ravel(t)[np.argmin(values[0])]
        raise DegenerateField(f"|B|={B_lo} below floor {profile.b_min} at t={t_lo}")


def _cartesian(profile: FieldProfile, B, th, ph):
    """Cartesian components (Bx, By, Bz) of the field of magnitude B along (th, ph).

    The in-plane kinds keep phi at +-0, where sin(phi) = phi and cos(phi) = 1
    exactly, so their phi takes no trig.  On a grid, a constant B or theta
    comes as a float, its trig is taken once, and its component stays a float
    for :func:`_filled`.
    """
    sin_th, cos_th = _sin_cos(th)
    sin_ph, cos_ph = (ph, 1.0) if profile.kind in _ZERO_PHI_KINDS else _sin_cos(ph)
    return B * sin_th * cos_ph, B * sin_th * sin_ph, B * cos_th


def _filled(shape, values) -> list[np.ndarray]:
    """``values`` with each one that is not an array filled to an array of ``shape``."""
    return [v if isinstance(v, np.ndarray) else np.full(shape, v) for v in values]


def sample(profile: FieldProfile, t) -> FieldSample:
    """Evaluate the field and its derivatives at lab time t, a float or a 1-D grid.

    Raises
    ------
    DomainError
        If any time lies outside the profile's declared domain, or any value
        returned is not finite.
    DegenerateField
        If the magnitude falls below the profile's b_min floor anywhere.
    """
    _check_domain(profile, *_extent(t))
    eps = profile.epsilon
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        B, dB, th, dth, ddth, ph, dph, ddph = _base_eval(profile, eps * t)
        # in FieldSample's order: theta_dot, theta_ddot, phi_dot, phi_ddot, B_dot
        rates = eps * dth, eps * eps * ddth, eps * dph, eps * eps * ddph, eps * dB
    _check_field(profile, t, (B, th, ph, *rates))
    B_vec = _cartesian(profile, B, th, ph)
    if isinstance(t, np.ndarray):
        B_vec = _filled(t.shape, B_vec)
        B, th, ph, *rates = _filled(t.shape, (B, th, ph, *rates))
    return FieldSample(t, np.array(B_vec).T, B, th, ph, *rates)


def _field_vector(profile: FieldProfile, t):
    """Components (Bx, By, Bz) of ``sample(profile, t).B_vec``, bit for bit.

    At one time t they are three Python floats, on a 1-D array of times three
    contiguous (n,) arrays.  The solvers' right-hand sides call this once per
    stage and the fixed-step steppers once per block of steps: it makes the
    same checks as :func:`sample` on B and the angles, with the same errors,
    and builds neither a :class:`FieldSample` nor its derivative fields.
    """
    if isinstance(t, np.ndarray):
        _check_domain(profile, *_extent(t))
        with np.errstate(over="ignore", invalid="ignore"):
            B, _, th, _, _, ph, _, _ = _base_eval(profile, profile.epsilon * t)
        _check_field(profile, t, (B, th, ph))
        return _filled(t.shape, _cartesian(profile, B, th, ph))
    t = float(t)  # the solvers' per-stage path: no _extent call
    _check_domain(profile, t, t)
    B, _, th, _, _, ph, _, _ = _base_eval(profile, profile.epsilon * t)
    if not (B >= profile.b_min and math.isfinite(B) and math.isfinite(th) and math.isfinite(ph)):
        _check_field(profile, t, (B, th, ph))  # raises, naming the value that failed
    return _cartesian(profile, B, th, ph)


def is_in_plane(profile: FieldProfile) -> bool:
    """True when the field direction stays in the (x, z) plane (phi == 0).

    A tabulated profile is in-plane when every coefficient of its phi spline
    is zero, as for a table built with ``phi=None``.
    """
    if profile.kind in ("constant",):
        return profile.params["phi0"] == 0.0
    if profile.kind in _ZERO_PHI_KINDS:
        return True
    if profile.kind == "user_tabulated":
        return not np.any(profile._tables.c[:, 2])
    return False


# ---------------------------------------------------------------------------
# Structured-text configuration (JSON)
# ---------------------------------------------------------------------------

def profile_to_dict(profile: FieldProfile) -> dict:
    if profile.kind == "user_tabulated":
        raise ConfigError("user_tabulated profiles are built programmatically, not from config")
    d = {
        "kind": profile.kind,
        "params": dict(profile.params),
        "epsilon": profile.epsilon,
        "t_domain": list(profile.t_domain),
    }
    if profile.b_min != DEFAULT_B_MIN:
        d["b_min"] = profile.b_min
    return d


def profile_from_dict(d: Mapping) -> FieldProfile:
    """Build a profile from {"kind", "params"[, "epsilon", "t_domain", "b_min"]}.

    A ``null`` end of ``t_domain``, as strict JSON writes an unbounded one,
    reads as -inf (first) or +inf (second).
    """
    if not isinstance(d, Mapping) or not {"kind", "params"} <= set(d):
        raise ConfigError(f"profile config needs kind and params, got {d!r}")
    unknown = [k for k in d if k not in ("kind", "params", "epsilon", "t_domain", "b_min")]
    if unknown:
        raise ConfigError(f"unknown profile config key {unknown[0]!r}")
    t_domain = d.get("t_domain")
    if isinstance(t_domain, (list, tuple)) and len(t_domain) == 2:
        d = {**d, "t_domain": [end if t is None else t
                               for t, end in zip(t_domain, (-math.inf, math.inf))]}
    return FieldProfile(**d)

