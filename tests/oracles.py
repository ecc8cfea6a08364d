"""Cross-check forms of library results, kept as test oracles.

Each function here recomputes a quantity the library computes another
way: the in-plane Cartesian and spherical views of the quasi-stationary
corrections, and the direct quadrature of the by-parts second-order term.
The tests compare the library against them.
"""

import math

import numpy as np

from spinphase import DomainError, PoleSingularity, is_in_plane, sample
from spinphase.adiabatic_engine import QuasiStationary, _guard_perturbative, params_from_sample
from spinphase.field_profiles import FieldProfile
from spinphase.geometric_phases import MIN_SIN_POLAR, _integral


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
        st = math.sin(s.theta)
        if abs(st) < MIN_SIN_POLAR:
            raise PoleSingularity(f"sin(theta)={st} below {MIN_SIN_POLAR} at t={s.t}")
        p = params_from_sample(s)
        ddelta = p.gamma * s.B_mag
        rate = (ddelta * st - p.delta * s.theta_dot * math.cos(s.theta)) / (st * st)
        return (1.0 - math.cos(s.theta)) * rate

    return _integral(0.5, integrand, profile, t_span)
