import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinphase import (
    ConfigError,
    DegenerateField,
    DomainError,
    FieldProfile,
    cone_3d,
    constant,
    polynomial_angle,
    profile_from_dict,
    profile_to_dict,
    sample,
    sinusoidal_angle,
    uniform_rotation,
    user_tabulated,
)
from spinphase.field_profiles import KIND_PARAMS, _field_vector

from oracles import cartesian_broadcast, derivative_selftest, sample_broadcast


def test_constant_field_is_static():
    s = sample(constant(1.0), 5.0)
    assert np.allclose(s.B_vec, [0.0, 0.0, 1.0])
    assert s.theta == 0.0
    assert s.theta_dot == 0.0 and s.theta_ddot == 0.0 and s.B_dot == 0.0


def test_uniform_rotation_rates():
    s = sample(uniform_rotation(1.0, 0.1), 0.0)
    assert s.theta == 0.0
    assert s.theta_dot == 0.1
    assert s.theta_ddot == 0.0
    assert s.B_dot == 0.0


def test_sinusoidal_rates_at_origin():
    s = sample(sinusoidal_angle(1.0, theta0=0.3, Omega=0.05), 0.0)
    assert s.theta == 0.0
    assert s.theta_dot == pytest.approx(0.015, abs=1e-15)
    assert s.theta_ddot == 0.0


def test_polynomial_angle_matches_horner():
    p = polynomial_angle(2.0, [0.1, -0.2, 0.05, 0.003])
    t = 1.7
    s = sample(p, t)
    assert s.theta == pytest.approx(0.1 - 0.2 * t + 0.05 * t**2 + 0.003 * t**3, rel=1e-14)
    assert s.theta_dot == pytest.approx(-0.2 + 0.1 * t + 0.009 * t**2, rel=1e-14)
    assert s.theta_ddot == pytest.approx(0.1 + 0.018 * t, rel=1e-14)
    assert s.B_mag == 2.0


def test_polynomial_many_coefficients_sorted_numerically():
    coeffs = [0.0] * 11
    coeffs[10] = 1.0  # theta = tau**10
    # the same polynomial from a dict whose keys are out of order (c10 before c2)
    shuffled = {"c10": 1.0, "B0": 1.0, **{f"c{k}": 0.0 for k in (2, 9, 0, 5, 1, 7, 3, 8, 6, 4)}}
    for p in (polynomial_angle(1.0, coeffs), FieldProfile("polynomial_angle", shuffled)):
        s = sample(p, 2.0)
        assert s.theta == pytest.approx(2.0**10, rel=1e-14)
        assert s.theta_dot == pytest.approx(10 * 2.0**9, rel=1e-14)


def test_cone_profile_keeps_polar_angle():
    p = cone_3d(1.0, theta_c=math.pi / 3, omega_phi=0.05)
    s = sample(p, 7.0)
    assert s.theta == math.pi / 3
    assert s.theta_dot == 0.0
    assert s.phi == pytest.approx(0.35)
    assert s.phi_dot == 0.05
    assert s.phi_ddot == 0.0


def test_theta_stays_unwrapped():
    s = sample(uniform_rotation(1.0, 0.1), 100.0)
    assert s.theta == pytest.approx(10.0, rel=1e-15)  # beyond 2*pi, not reduced


@pytest.mark.parametrize(
    "profile",
    [
        constant(2.0, theta0=0.4, phi0=1.1),
        uniform_rotation(1.5, 0.2, theta_init=0.3),
        sinusoidal_angle(1.0, theta0=0.3, Omega=0.05, b_amp=0.2, b_freq=0.01),
        cone_3d(1.0, theta_c=1.0, omega_phi=0.1),
    ],
)
def test_cartesian_reconstruction(profile):
    for t in np.linspace(0.0, 50.0, 11):
        s = sample(profile, float(t))
        rebuilt = s.B_mag * np.array(
            [
                math.sin(s.theta) * math.cos(s.phi),
                math.sin(s.theta) * math.sin(s.phi),
                math.cos(s.theta),
            ]
        )
        assert np.max(np.abs(rebuilt - s.B_vec)) <= 1e-12 * s.B_mag


@pytest.mark.parametrize("eps", [0.5, 0.16, 0.02])
@pytest.mark.parametrize(
    "make",
    [
        lambda e: uniform_rotation(1.0, 0.1, epsilon=e),
        lambda e: sinusoidal_angle(1.0, theta0=0.3, Omega=0.7, b_amp=0.1, b_freq=0.2, epsilon=e),
        lambda e: polynomial_angle(1.0, [0.1, 0.2, -0.03], epsilon=e),
        lambda e: cone_3d(1.0, theta_c=0.8, omega_phi=0.3, epsilon=e),
    ],
)
def test_epsilon_scaling_is_exact(make, eps):
    # angles at (eps, t) match (1, eps*t) bitwise; rates pick up eps powers
    scaled = make(eps)
    base = make(1.0)
    for t in (0.0, 0.73, 5.5, 41.0):
        s_eps = sample(scaled, t)
        s_one = sample(base, eps * t)
        assert s_eps.theta == s_one.theta
        assert s_eps.phi == s_one.phi
        assert s_eps.B_mag == s_one.B_mag
        assert s_eps.theta_dot == eps * s_one.theta_dot
        assert s_eps.theta_ddot == (eps * eps) * s_one.theta_ddot
        assert s_eps.phi_dot == eps * s_one.phi_dot
        assert s_eps.B_dot == eps * s_one.B_dot


def test_selftest_uniform_rotation():
    err = derivative_selftest(uniform_rotation(1.0, 0.1), np.linspace(0, 20, 9), h=1e-4)
    assert err <= 1e-7


def test_selftest_sinusoidal_over_period():
    p = sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    grid = np.linspace(0.0, 2 * math.pi / 0.05, 17)
    assert derivative_selftest(p, grid, h=1e-3) <= 1e-6


def test_selftest_constant_is_zero():
    assert derivative_selftest(constant(1.0), [0.0, 1.0, 2.0], h=1e-3) == 0.0


def test_selftest_rejects_bad_step():
    with pytest.raises(DomainError):
        derivative_selftest(constant(1.0), [0.0], h=0.0)


def test_domain_enforced():
    p = uniform_rotation(1.0, 0.1, t_domain=(0.0, 10.0))
    sample(p, 10.0)
    with pytest.raises(DomainError):
        sample(p, 10.5)
    with pytest.raises(DomainError):
        sample(p, -0.1)


@pytest.mark.parametrize("profile, t", [
    (uniform_rotation(1.0, 0.1), math.inf),
    (constant(1.0), -math.inf),
    (sinusoidal_angle(1.0, 0.3, 0.05, epsilon=1e300), 1e10),  # epsilon * t overflows
    (constant(1.0), np.array([0.0, math.inf])),
    (uniform_rotation(1.0, 1e300), np.array([0.0, 1e10])),  # omega * tau overflows
], ids=["inf", "-inf", "epsilon_t", "grid_inf", "grid_omega_tau"])
def test_non_finite_field_value_raises_domain_error(profile, t):
    # an infinite time fails the time check, an overflowing slow time or field the value check
    for fn in (sample, _field_vector):
        with pytest.raises(DomainError, match="not finite"):
            fn(profile, t)


def test_degenerate_field_floor():
    with pytest.raises(DegenerateField):
        sample(constant(1e-9), 0.0)
    # a custom floor can be stricter
    with pytest.raises(DegenerateField):
        sample(constant(0.5, b_min=0.6), 0.0)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        uniform_rotation(-1.0, 0.1)
    with pytest.raises(ConfigError):
        sinusoidal_angle(1.0, theta0=0.3, Omega=0.05, b_amp=1.5)
    with pytest.raises(ConfigError):
        uniform_rotation(1.0, 0.1, epsilon=0.0)
    with pytest.raises(ConfigError):
        uniform_rotation(1.0, 0.1, t_domain=(3.0, 3.0))


def test_json_round_trip():
    p = sinusoidal_angle(
        1.0, theta0=0.3, Omega=0.05, epsilon=0.5, t_domain=(0.0, 100.0), b_min=1e-5
    )
    assert profile_from_dict(profile_to_dict(p)) == p
    text = json.dumps(profile_to_dict(p))
    assert profile_from_dict(json.loads(text)) == p


def test_json_schema_document():
    doc = """
    {"kind": "uniform_rotation",
     "params": {"B0": 1.0, "omega": 0.1},
     "epsilon": 1.0,
     "t_domain": [0.0, 200.0]}
    """
    p = profile_from_dict(json.loads(doc))
    assert p.kind == "uniform_rotation"
    assert sample(p, 1.0).theta_dot == 0.1


def test_json_rejects_bad_input():
    with pytest.raises(ConfigError):
        profile_from_dict({"kind": "nope", "params": {}})
    with pytest.raises(ConfigError):
        profile_from_dict({"kind": "constant", "params": {"B0": "one"}})
    with pytest.raises(ConfigError):
        profile_from_dict({"kind": "constant", "params": {"B0": 1.0}, "t_domain": [0.0]})
    with pytest.raises(ConfigError):
        profile_from_dict({"params": {}})


@pytest.mark.parametrize("t_domain, want", [
    ([None, 5.0], (-math.inf, 5.0)),
    ([0.0, None], (0.0, math.inf)),
    ([None, None], (-math.inf, math.inf)),
])
def test_null_t_domain_end_reads_as_unbounded(t_domain, want):
    # strict JSON writes an unbounded end as null
    d = {"kind": "constant", "params": {"B0": 1.0}, "t_domain": t_domain}
    assert profile_from_dict(d).t_domain == want
    assert profile_from_dict(json.loads(json.dumps(d))).t_domain == want


@pytest.mark.parametrize("t_domain", [[None], [None, None, None], [5.0, None, 1.0], None])
def test_null_t_domain_of_other_shapes_raises_config_error(t_domain):
    with pytest.raises(ConfigError):
        profile_from_dict({"kind": "constant", "params": {"B0": 1.0}, "t_domain": t_domain})


def test_tabulated_profile_interpolates_and_differentiates():
    taus = np.linspace(0.0, 10.0, 400)
    p = user_tabulated(taus, B=1.0 + 0.1 * np.sin(0.3 * taus), theta=0.2 * np.sin(taus))
    s = sample(p, 4.0)
    assert s.theta == pytest.approx(0.2 * math.sin(4.0), abs=1e-8)
    assert s.theta_dot == pytest.approx(0.2 * math.cos(4.0), abs=1e-6)
    assert s.B_dot == pytest.approx(0.03 * math.cos(1.2), abs=1e-6)
    assert derivative_selftest(p, np.linspace(0.5, 9.5, 7), h=1e-3) <= 1e-6
    # the domain is the tables' span over epsilon, ends included
    assert user_tabulated(taus, np.ones_like(taus), taus, epsilon=2.0).t_domain == (0.0, 5.0)
    sample(p, np.array([0.0, 10.0]))
    with pytest.raises(DomainError):
        sample(p, np.nextafter(10.0, 11.0))


_RNG = np.random.default_rng(5)
SPLINE_KNOTS = {
    "uniform": np.linspace(-2.0, 12.0, 300),
    "random": np.sort(_RNG.uniform(0.0, 10.0, 60)),
    "geometric": np.cumsum(3.0 ** np.arange(12)) / 1e4,  # row swaps in the tridiagonal solve
    "four": np.array([0.0, 0.7, 1.1, 2.0]),
}


@pytest.mark.parametrize("knots", sorted(SPLINE_KNOTS))
def test_tabulated_spline_matches_scipy_cubic_spline(knots):
    CubicSpline = pytest.importorskip("scipy.interpolate").CubicSpline
    taus = SPLINE_KNOTS[knots]
    tables = (1.0 + 0.1 * np.sin(3.0 * taus), 0.2 * np.sin(2.0 * taus) + 0.1 * taus,
              0.3 * np.cos(taus))
    prof = user_tabulated(taus, *tables)
    t = np.concatenate([np.linspace(taus[0], taus[-1], 2001), taus])
    values, slopes, curvatures = prof._tables(t)
    for j, y in enumerate(tables):
        spline = CubicSpline(taus, y)
        for nu, got in enumerate((values[j], slopes[j], curvatures[j])):
            want = spline(t, nu)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # the sampled fields are the splines' values and derivatives
    s = sample(prof, t)
    (b, th, ph), (db, dth, dph), (_, ddth, ddph) = values, slopes, curvatures
    for got, want in ((s.B_mag, b), (s.B_dot, db), (s.theta, th), (s.theta_dot, dth),
                      (s.theta_ddot, ddth), (s.phi, ph), (s.phi_dot, dph), (s.phi_ddot, ddph)):
        assert np.array_equal(got, want)


# coefficients far above the subnormals, whose products underflow
COEFFS = st.floats(-1.0, 1.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-100)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 400), coeffs=st.lists(COEFFS, min_size=4, max_size=4),
       start=st.floats(-50.0, 50.0), span=st.floats(0.1, 100.0))
def test_tabulated_cubic_gives_its_exact_rates(n, coeffs, start, span):
    # a not-a-knot spline through samples of a cubic is that cubic, so its rates are exact
    a0, a1, a2, a3 = coeffs
    taus = np.linspace(start, start + span, n)
    x = (taus - start) / span  # the cubic in the unit variable keeps every coefficient's size

    def theta(x):
        return a0 + x * (a1 + x * (a2 + x * a3))

    prof = user_tabulated(taus, np.ones(n), theta(x))
    x = np.linspace(0.0, 1.0, 1001)
    s = sample(prof, start + span * x)
    dth = (a1 + x * (2.0 * a2 + x * 3.0 * a3)) / span
    ddth = (2.0 * a2 + x * 6.0 * a3) / span**2
    scale = sum(map(abs, coeffs))  # bounds |theta|, the size its roundoff scales with
    assert np.max(np.abs(s.theta_dot - dth)) <= 1e-12 * scale / span
    assert np.max(np.abs(s.theta_ddot - ddth)) <= 1e-9 * scale / span**2


def test_dense_tabulated_twin_curvature_error_falls_with_the_table():
    # 6401 knots of sinusoidal_angle(1, 0.6, 0.05) on (0, 200): the spline's own theta_ddot
    # is off by 3.1e-10, below the 4.4e-8 roundoff floor of a 1e-4 central difference
    analytic = sinusoidal_angle(1.0, 0.6, 0.05)
    taus = np.linspace(0.0, 200.0, 6401)
    twin = user_tabulated(taus, np.ones_like(taus), sample(analytic, taus).theta)
    t = np.linspace(1.0, 199.0, 20001)
    assert np.max(np.abs(sample(twin, t).theta_ddot - sample(analytic, t).theta_ddot)) <= 1e-9


def test_tabulated_validation():
    with pytest.raises(ConfigError):
        user_tabulated([0, 1, 2], [1, 1, 1], [0, 0, 0])  # too few nodes
    with pytest.raises(ConfigError):
        user_tabulated([0, 1, 1, 2], [1] * 4, [0] * 4)  # non-monotonic
    with pytest.raises(ConfigError):
        profile_from_dict({"kind": "user_tabulated", "params": {}})


def test_tabulated_tables_of_another_length_raise_config_error():
    taus = np.linspace(0.0, 10.0, 12)
    with pytest.raises(ConfigError, match="share the time grid's shape"):
        user_tabulated(taus, np.ones(11), np.zeros(12))
    with pytest.raises(ConfigError, match="share the time grid's shape"):
        user_tabulated(taus, np.ones(12), np.zeros(12), phi=np.zeros(13))


def test_tabulated_profile_has_no_config_form():
    taus = np.linspace(0.0, 10.0, 12)
    with pytest.raises(ConfigError, match="built programmatically"):
        profile_to_dict(user_tabulated(taus, np.ones(12), np.zeros(12)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("table", ["taus", "B", "theta", "phi"])
def test_tabulated_rejects_non_finite_tables(table, bad):
    # a NaN anywhere would spread through the spline solve into every value
    tables = {"taus": np.linspace(0.0, 10.0, 12), "B": np.ones(12),
              "theta": np.linspace(0.0, 1.0, 12), "phi": np.zeros(12)}
    tables[table][5] = bad
    with pytest.raises(ConfigError, match="finite"):
        user_tabulated(**tables)


def test_json_rejects_unknown_keys_and_coefficient_gaps():
    with pytest.raises(ConfigError):
        profile_from_dict({"kind": "constant", "params": {"B0": 1.0}, "epsilom": 2.0})
    for params in ({"B0": 1.0, "c0": 0.0, "c2": 0.1}, {"B0": 1.0, "c0": 0.0, "x": 0.1}):
        with pytest.raises(ConfigError):
            profile_from_dict({"kind": "polynomial_angle", "params": params})
    with pytest.raises(ConfigError):
        uniform_rotation(1.0, float("nan"))
    with pytest.raises(ConfigError):
        uniform_rotation(1.0, 0.1, epsilon=float("inf"))


# one valid bare-constructor params dict per kind (user_tabulated also needs tables)
VALID_PARAMS = {
    "constant": {"B0": 1.0},
    "uniform_rotation": {"B0": 1.0, "omega": 0.1},
    "polynomial_angle": {"B0": 1.0, "c0": 0.0, "c1": 0.1},
    "sinusoidal_angle": {"B0": 1.0, "theta0": 0.3, "Omega": 0.05},
    "cone_3d": {"B0": 1.0, "theta_c": 1.0, "omega_phi": 0.05},
    "user_tabulated": {},
}
TABLES = user_tabulated(np.linspace(0.0, 10.0, 40), B=np.ones(40), theta=np.zeros(40))._tables


def _bare(kind, params):
    return FieldProfile(kind, params, _tables=TABLES if kind == "user_tabulated" else None)


def _bad_params(kind):
    """(rule, params) pairs, each breaking one rule of the kind's row of KIND_PARAMS."""
    good = VALID_PARAMS[kind]
    cases = [("unknown", {**good, "bogus": 0.1})]
    cases += [(f"missing {name}", {k: v for k, v in good.items() if k != name})
              for name, default in KIND_PARAMS[kind].items() if default is None]
    if good:  # user_tabulated takes no params
        first = next(iter(good))
        cases += [(f"{first}={value!r}", {**good, first: value})
                  for value in ("1.0", None, True, [1.0], math.nan, math.inf, -math.inf, 10**400)]
    if "B0" in good:
        cases += [(f"B0={b}", {**good, "B0": b}) for b in (0.0, -1.0)]
    if kind == "sinusoidal_angle":
        cases += [(f"b_amp={a}", {**good, "b_amp": a, "b_freq": 0.1}) for a in (1.0, -1.5)]
    if kind == "polynomial_angle":
        cases += [("no coefficients", {"B0": 1.0}),
                  ("gap", {"B0": 1.0, "c0": 0.0, "c2": 0.1}),
                  ("padded index", {"B0": 1.0, "c0": 0.0, "c01": 0.1}),
                  ("bad coefficient", {"B0": 1.0, "c0": "0"})]
    return cases


@pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
def test_bare_constructor_checks_params_at_construction(kind):
    good = _bare(kind, VALID_PARAMS[kind])
    sample(good, 0.5)
    for rule, params in _bad_params(kind):
        with pytest.raises(ConfigError):
            _bare(kind, params)
            pytest.fail(f"{kind} built with {rule}: {params}")
    if kind == "user_tabulated":
        with pytest.raises(ConfigError):
            FieldProfile(kind, VALID_PARAMS[kind])  # no tables


def test_bare_constructor_fills_defaults_in_table_order():
    assert FieldProfile("constant", {"B0": 1.0}) == constant(1.0)
    p = FieldProfile("sinusoidal_angle", {"Omega": 0.05, "theta0": 0.3, "B0": 1.0})
    assert p == sinusoidal_angle(1.0, theta0=0.3, Omega=0.05)
    assert list(p.params) == list(KIND_PARAMS["sinusoidal_angle"])
    with pytest.raises(ConfigError):
        FieldProfile("sinusoidal_angle", {"B0": 1.0})


def test_construction_keeps_value_types():
    # B0 and the other params keep their type; polynomial coefficients become floats
    config = {"kind": "polynomial_angle", "params": {"B0": 1, "c0": 0, "c1": 0.1}}
    for p in (FieldProfile("polynomial_angle", {"B0": 1, "c0": 0, "c1": 0.1}),
              polynomial_angle(1, [0, 0.1]),
              profile_from_dict(config)):
        assert [(k, type(v)) for k, v in p.params.items()] == [
            ("B0", int), ("c0", float), ("c1", float)]
        again = profile_from_dict(profile_to_dict(p))
        assert again == p
        assert [type(v) for v in again.params.values()] == [int, float, float]
    u = profile_from_dict(profile_to_dict(uniform_rotation(2, 0.1)))
    assert type(u.params["B0"]) is int and type(u.params["theta_init"]) is float


@pytest.mark.parametrize("kw", [{"b_min": "x"}, {"b_min": None}, {"t_domain": (0.0,)},
                                {"t_domain": 5.0}, {"t_domain": (0.0, "x")},
                                {"epsilon": "x"}, {"params": ["B0"]}, {"kind": ["constant"]}])
def test_bad_profile_settings_raise_config_error(kw):
    with pytest.raises(ConfigError):
        FieldProfile(**{"kind": "constant", "params": {"B0": 1.0}, **kw})


@pytest.mark.parametrize("b_min", [0.0, -1.0])
def test_field_floor_must_be_positive(b_min):
    with pytest.raises(ConfigError, match="b_min must be positive"):
        FieldProfile("constant", {"B0": 1.0}, b_min=b_min)


def test_profile_settings_stored_as_floats():
    p = FieldProfile("constant", {"B0": 1.0}, epsilon=1, t_domain=[0, 5], b_min=1)
    assert (p.epsilon, p.t_domain, p.b_min) == (1.0, (0.0, 5.0), 1.0)
    assert [type(x) for x in (p.epsilon, *p.t_domain, p.b_min)] == [float] * 4


@pytest.mark.parametrize("kw", [{"epsilon": "x"}, {"epsilon": 0.0}, {"b_min": "x"}])
def test_bad_tabulated_settings_raise_config_error(kw):
    taus = np.linspace(0.0, 5.0, 11)
    with pytest.raises(ConfigError):
        user_tabulated(taus, np.ones_like(taus), 0.1 * taus, **kw)


_TAUS = np.linspace(-301.0, 301.0, 603)
# every kind, with integer B0s and signed-zero params, whose sum with the zero term
# follows the sign of tau
BITWISE_PROFILES = {
    "constant": constant(1.3, 0.4, 0.7),
    "constant_int_signed_zeros": constant(2, -0.0, -0.0, epsilon=1.5),
    "uniform_rotation_int": uniform_rotation(1, 0.1),
    "uniform_rotation_still": uniform_rotation(1.2, -0.0, 0.3, epsilon=0.5),
    "polynomial_angle": polynomial_angle(1, [0.0, 0.1, -0.002]),
    "polynomial_angle_constant": polynomial_angle(2.0, [0.3]),
    "sinusoidal_angle": sinusoidal_angle(1.0, 0.3, 0.05),
    "sinusoidal_angle_modulated": sinusoidal_angle(1.5, 0.3, 0.05, 0.1, 0.2, 0.07, epsilon=0.5),
    "cone_3d": cone_3d(1.0, 0.8, 0.05),
    "cone_3d_int_signed_zeros": cone_3d(3, -0.0, -0.0, 0.2),
    "cone_3d_zero_int_theta": cone_3d(1, 0, 0.1, epsilon=2.0),
    "user_tabulated": user_tabulated(_TAUS, 1.0 + 0.2 * np.sin(0.3 * _TAUS),
                                     0.8 + 0.5 * np.sin(0.2 * _TAUS), 0.4 * _TAUS - 1.0),
}
BITWISE_TIMES = [np.concatenate([np.linspace(-300.0, 300.0, 4001), [-3.5, -0.0, 0.0, 2.5]]),
                 np.array([-0.0]), -300.0, -3.5, -0.0, 0.0, 2.5, 300.0]


@pytest.mark.parametrize("name", sorted(BITWISE_PROFILES))
def test_sample_and_field_vector_match_the_broadcast_forms_bitwise(name):
    # constant terms come back as floats and fill the grid; the values, their signed
    # zeros and their types stay those of the form that broadcasts every term
    prof = BITWISE_PROFILES[name]
    fields = ("B_vec", "B_mag", "theta", "phi", "theta_dot", "theta_ddot", "phi_dot",
              "phi_ddot", "B_dot")
    for t in BITWISE_TIMES:
        got, want = sample(prof, t), sample_broadcast(prof, t)
        for f in fields:
            g, w = getattr(got, f), getattr(want, f)
            assert type(g) is type(w) and np.shape(g) == np.shape(w), (f, t)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), (f, t)
        vec = _field_vector(prof, t)
        if isinstance(t, float):
            assert [type(v) for v in vec] == [float] * 3
            assert np.array(vec).tobytes() == np.array(cartesian_broadcast(
                want.B_mag, want.theta, want.phi)).tobytes()
        else:
            assert all(v.shape == t.shape and v.flags.c_contiguous for v in vec)
            assert np.stack(vec, axis=1).tobytes() == want.B_vec.tobytes()


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(BITWISE_PROFILES))
def test_non_finite_times_raise_domain_error_for_every_kind(name, t):
    # a constant field is finite at every time, so only the time check stops these
    prof = BITWISE_PROFILES[name]
    start = max(prof.t_domain[0], 0.0)
    for fn in (sample, _field_vector):
        for times in (t, np.array([start, t])):
            with pytest.raises(DomainError, match=f"t={t} is not finite"):
                fn(prof, times)
