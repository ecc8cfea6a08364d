"""Second-order adiabatic construction for spin 1/2 in a slowly turning field.

The construction rests on two dimensionless smallness parameters built from
the field's spherical angle theta and magnitude B,

    delta = theta_dot / B              (reduced angular velocity, first order)
    gamma = d(delta)/dt / B            (reduced angular acceleration, second order)
          = (theta_ddot - theta_dot*B_dot/B) / B**2

and the shifted precession frequency

    b_eff = B * (1 + delta**2 / 2).

Three successive frame changes take the in-plane Hamiltonian to a frame
where it is diagonal up to third-order residuals: a rotation by theta about
y, a small rotation by delta about x, and a small rotation by -gamma about
y.  The same chain exists in both representations: SU(2) factors U0, U1, U2
acting on spinors and SO(3) factors R0, R1, R2 acting on spin vectors, and
the two are each other's adjoint images up to the same truncation order.

In the final frame the solution is a plain precession with phase
phi(t) = -(1/2) * integral of b_eff; transporting it back through the chain
yields closed-form spinor and classical solutions, and the quasi-stationary
(non-precessing) branch with its explicit velocity- and acceleration-type
corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NormalizationError, PerturbativeRegimeViolation
from .field_profiles import FieldProfile, FieldSample, is_in_plane, sample

PERTURBATIVE_LIMIT = 0.5


@dataclass(frozen=True)
class AdiabaticParams:
    """Dimensionless slowness parameters and effective precession frequency."""

    delta: float | np.ndarray
    gamma: float | np.ndarray
    b_eff: float | np.ndarray


@dataclass(frozen=True)
class SolutionConstants:
    """Initial-condition constants: spinor amplitudes and their spin-vector image.

    alpha/beta weight the upper/lower branch of the final-frame solution;
    (A, B, C) are the matching precession constants of the classical
    solution, A = 2 Re(alpha* beta), B = 2 Im(alpha* beta),
    C = |alpha|**2 - |beta|**2.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(norm - 1.0) <= 1e-9:
            raise NormalizationError(f"|alpha|^2+|beta|^2 = {norm}, expected 1")

    @property
    def A(self) -> float:
        return 2.0 * (self.alpha.conjugate() * self.beta).real

    @property
    def B(self) -> float:
        return 2.0 * (self.alpha.conjugate() * self.beta).imag

    @property
    def C(self) -> float:
        return abs(self.alpha) ** 2 - abs(self.beta) ** 2


# ---------------------------------------------------------------------------
# Adiabatic parameters
# ---------------------------------------------------------------------------

def params_from_sample(s: FieldSample) -> AdiabaticParams:
    B = s.B_mag
    delta = s.theta_dot / B
    gamma = (s.theta_ddot - s.theta_dot * s.B_dot / B) / (B * B)
    return AdiabaticParams(delta=delta, gamma=gamma, b_eff=B * (1.0 + 0.5 * delta * delta))


def _guard_perturbative(params: AdiabaticParams):
    delta, gamma = np.max(np.abs(params.delta)), np.max(np.abs(params.gamma))
    if not (delta < PERTURBATIVE_LIMIT and gamma < PERTURBATIVE_LIMIT):
        raise PerturbativeRegimeViolation(
            f"|delta|={delta}, |gamma|={gamma} exceed the "
            f"|.| < {PERTURBATIVE_LIMIT} perturbative guard"
        )


# ---------------------------------------------------------------------------
# Transform chains
# ---------------------------------------------------------------------------

def _su2_factors(theta, params: AdiabaticParams):
    """SU(2) pairs (a, b) of U0, U1, U2, each standing for [[a, -conj(b)], [b, conj(a)]]."""
    _guard_perturbative(params)
    d, g = params.delta, params.gamma
    return (np.cos(0.5 * theta), np.sin(0.5 * theta)), (1.0 - d * d / 8.0, -0.5j * d), (1.0, -0.5 * g)


def _compose(a_hi, b_hi, a_lo, b_lo):
    """SU(2) pair of the product hi @ lo of two [[a, -conj(b)], [b, conj(a)]] matrices.

    On an x86-64 CPU with FMA, numpy 2.4 rounds a complex product of arrays (also
    with ``out=`` a separate array) by fused multiply-adds, but a product of numpy
    scalars, or one taken in place over a single element, as
    (xr yr - xi yi) + 1j (xr yi + xi yr) in plain float operations, which is why
    ``exact_dynamics._pair_product`` takes no product in place.
    """
    return a_hi * a_lo - np.conj(b_hi) * b_lo, b_hi * a_lo + np.conj(a_hi) * b_lo


def _in_plane_params(profile: FieldProfile, t) -> tuple[float | np.ndarray, AdiabaticParams]:
    if not is_in_plane(profile):
        raise DomainError(
            "the diagonalization chain is defined for in-plane profiles (phi == 0)"
        )
    s = sample(profile, t)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the perturbative guard
        return s.theta, params_from_sample(s)


def _u_total(profile: FieldProfile, t):
    """SU(2) pair (A, B) of U0 U1 U2 = [[A, -conj(B)], [B, conj(A)]] at t."""
    u0, u1, u2 = _su2_factors(*_in_plane_params(profile, t))
    return _compose(*_compose(*u0, *u1), *u2)


# ---------------------------------------------------------------------------
# Closed-form solutions
# ---------------------------------------------------------------------------

def spinor_solution(constants: SolutionConstants, profile: FieldProfile, t, phase) -> np.ndarray:
    """Second-order spinor solution in the lab frame.

    ``phase`` is the accumulated -(1/2) integral of b_eff (see
    :mod:`spinphase.geometric_phases`); the final-frame state
    (alpha e^{i phase}, beta e^{-i phase}) is transported back through the
    chain.  Normalized up to third-order residuals.  ``t`` is a float or a
    1-D grid of n times, with ``phase`` of the same shape; the result is (2,)
    or (n, 2).
    """
    a, b = _u_total(profile, t)
    up, dn = constants.alpha * np.exp(1j * phase), constants.beta * np.exp(-1j * phase)
    return np.stack(_compose(a, b, up, dn), axis=-1)


def classical_solution(constants: SolutionConstants, profile: FieldProfile, t, phase) -> np.ndarray:
    """Second-order classical spin solution in the lab frame.

    The final-frame spin carries azimuth -2*phase, twice the spinor phase
    magnitude (phase is negative for positive fields, so the precession runs
    counterclockwise about the effective field, as dS/dt = B x S demands);
    the extra second-order azimuth is the classical counterpart of the
    quantum phase correction.  The (A, B) rotation sense is fixed by
    requiring S3 = <psi3|sigma|psi3> under the module's spin-map convention.
    ``t`` is a float or a 1-D grid of n times, with ``phase`` of the same
    shape; the result is (3,) or (n, 3).  The chain's SO(3) factors R2, R1
    and R0 (see the module docstring) are applied to the components in turn,
    in closed form.
    """
    theta, params = _in_plane_params(profile, t)
    _guard_perturbative(params)
    d, g = params.delta, params.gamma
    c2, s2 = np.cos(2.0 * phase), np.sin(2.0 * phase)
    A, B = constants.A, constants.B
    x, y, z = A * c2 + B * s2, B * c2 - A * s2, constants.C
    x, z = x - g * z, g * x + z  # R2: rotation by -gamma about y
    c1 = 1.0 - d * d / 2.0
    y, z = c1 * y - d * z, d * y + c1 * z  # R1: rotation by delta about x, to second order
    ct, st = np.cos(theta), np.sin(theta)
    return np.stack([ct * x + st * z, y, ct * z - st * x], axis=-1)  # R0: by theta about y


def tracked_eigenvector(profile: FieldProfile, t) -> np.ndarray:
    """Second-order quasi-stationary spinor direction of the upper level (phase factor stripped).

    Seeding an exact integration with this vector (instead of the
    instantaneous eigenvector) leaves only third-order residual oscillation
    around the quasi-stationary branch.  Returned unit-normalized, with
    shape (2,) at a float time and (n, 2) on a grid of n times.
    """
    col = np.stack(_u_total(profile, t), axis=-1)
    return col / np.linalg.norm(col, axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# Quasi-stationary decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiStationary:
    """Field-tracking spin with its order-by-order corrections.

    s0 follows the field direction, s1 is the lateral velocity-type
    deflection, s2 combines the acceleration-type deflection with the radial
    term that restores unit norm; s_total = s0 + s1 + s2.  Each is a (3,)
    vector at one instant and an (n, 3) array on a grid of n times.
    """

    s_total: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray


def quasi_stationary(profile: FieldProfile, t) -> QuasiStationary:
    """Quasi-stationary spin via the coordinate-free corrections.

    Valid for general 3-D field evolution:

        s0 = B/|B|
        s1 = (d s0/dt x s0) / B
        s2 = (d s1/dt x s0) / B - (|s1|**2 / 2) s0

    The derivatives are evaluated analytically from the profile's angle
    derivatives (chain rule through the moving spherical basis), never by
    finite differences, so s2 is not polluted by differencing error.
    ``t`` is a float or a 1-D time grid.
    """
    s = sample(profile, t)
    B = s.B_mag
    st, ct = np.sin(s.theta), np.cos(s.theta)
    sp, cp = np.sin(s.phi), np.cos(s.phi)
    # vectors keep their components on the first axis, so per-node scalars broadcast
    e_r = np.array([st * cp, st * sp, ct])
    e_th = np.array([ct * cp, ct * sp, -st])
    e_ph = np.array([-sp, cp, np.zeros_like(cp)])

    td, tdd = s.theta_dot, s.theta_ddot
    pd, pdd = s.phi_dot, s.phi_ddot

    s0 = e_r
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the guard
        ds0 = td * e_th + pd * st * e_ph
        s1 = np.cross(ds0, s0, axis=0) / B
        s1_sq = np.sum(s1 * s1, axis=0)
    if not np.max(s1_sq) < PERTURBATIVE_LIMIT**2:
        raise PerturbativeRegimeViolation(
            f"|s1|={math.sqrt(np.max(s1_sq))} exceeds the perturbative guard {PERTURBATIVE_LIMIT}"
        )
    dds0 = (
        -(td * td + pd * pd * st * st) * e_r
        + (tdd - pd * pd * st * ct) * e_th
        + (pdd * st + 2.0 * td * pd * ct) * e_ph
    )
    ds1 = np.cross(dds0, s0, axis=0) / B - (s.B_dot / B) * s1
    s2 = np.cross(ds1, s0, axis=0) / B - 0.5 * s1_sq * s0
    return QuasiStationary(s_total=(s0 + s1 + s2).T, s0=s0.T, s1=s1.T, s2=s2.T)

