"""Unit tests for the classical phase-space density and shell averages."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from rabi_esqpt import (
    DosCurve,
    RabiParams,
    dos_curve,
    ground_state_eps,
    law_log_esqpt,
    observables_microcanonical,
)
from rabi_esqpt import semiclassical
from rabi_esqpt.semiclassical import (CRITICAL_GUARD, EPS_CRITICAL, _NEAR, _carlson, _orbit,
                                      _orbit_integrals)

from oracles import (QUAD_ORACLE, SHELL_ORACLE, observables_hellmann_feynman,
                     quadrature_integrals)


def p_squared(g: float, eps: float, x: float) -> float:
    """Radicand of the orbit momentum on the lower branch, eps + s - x^2."""
    return eps + math.sqrt(1.0 + 2.0 * g * g * x * x) - x * x


def turning_points(g: float, eps: float) -> tuple[float, float]:
    """x >= 0 at the orbit ends s = a and s = b, from x^2 = (s^2 - 1)/(2 g^2)."""
    o = _orbit(g, eps)
    return tuple(math.sqrt((s * s - 1.0) / (2.0 * g * g)) for s in (o.a, o.a + o.span))


class TestPotential:
    def test_minima_single_well(self):
        # for g <= 1 the well bottom is the origin: the orbit at the
        # ground-state energy has collapsed onto x = 0
        for g in (0.7, 1.0):
            o = _orbit(g, ground_state_eps(g))
            assert o.a == 1.0 and o.span == 0.0

    def test_minima_double_well(self):
        g = 2.0
        x_star = math.sqrt(0.5 * (g**2 - g**-2))
        # the well bottom sits at the ground-state energy: eps = 2 V(x*) on
        # the lower branch V(x)/Omega = x^2/2 - sqrt(1 + 2 g^2 x^2)/2
        v_star = 0.5 * x_star**2 - 0.5 * math.sqrt(1.0 + 2.0 * g * g * x_star**2)
        assert 2.0 * v_star == pytest.approx(ground_state_eps(g), rel=1e-15)

    def test_rejects_bad_g(self):
        with pytest.raises(ValueError):
            ground_state_eps(-0.5)
        with pytest.raises(ValueError):
            ground_state_eps(math.nan)

    def test_ground_state_eps(self):
        assert ground_state_eps(0.0) == -1.0
        assert ground_state_eps(1.0) == -1.0
        assert ground_state_eps(1.2) == pytest.approx(-0.5 * (1.44 + 1.0 / 1.44), rel=1e-15)
        assert ground_state_eps(1.4) == pytest.approx(-1.23510204081632653, rel=1e-15)
        # continuous across the coupling threshold
        assert ground_state_eps(1.0 + 1e-12) == pytest.approx(-1.0, abs=1e-11)


class TestTurningPoints:
    """Ends s = a, b of the orbit in s = sqrt(1 + 2 g^2 x^2), as the orbit integrals use them."""

    def test_connected_orbit(self):
        o = _orbit(1.2, -0.5)
        # no inner turning point: the orbit passes through s = 1 (x = 0)
        assert o.a == 1.0 and o.a_c > 0.0
        _, x2 = turning_points(1.2, -0.5)
        assert p_squared(1.2, -0.5, x2) == pytest.approx(0.0, abs=1e-14)

    def test_disconnected_orbit(self):
        assert _orbit(1.2, -1.05).a > 1.0
        x1, x2 = turning_points(1.2, -1.05)
        assert 0.0 < x1 < x2
        for x in (x1, x2):
            assert p_squared(1.2, -1.05, x) == pytest.approx(0.0, abs=1e-14)

    def test_subcritical_high_energy_is_connected(self):
        # g < 1, eps > 1: in u = x^2 the radicand has a second positive root
        # on the upper branch; in s the single-well orbit is [1, s+]
        g, eps = 0.8, 2.0
        assert _orbit(g, eps).a == 1.0
        _, x2 = turning_points(g, eps)
        assert p_squared(g, eps, x2) == pytest.approx(0.0, abs=1e-14)
        xs = np.linspace(0.0, x2, 50)[:-1]
        assert min(p_squared(g, eps, x) for x in xs) > 0.0

    def test_quartic_scaling_at_threshold(self):
        # g = 1: x2 ~ (2 delta)^(1/4) near the critical energy
        delta = 1e-4
        _, x2 = turning_points(1.0, -1.0 + delta)
        assert x2 == pytest.approx((2.0 * delta) ** 0.25, rel=5e-3)

    def test_orbit_shrinks_to_point_at_ground_state(self):
        g = 2.0
        x1, x2 = turning_points(g, ground_state_eps(g))
        assert x1 == pytest.approx(x2, rel=1e-7)
        assert x2 == pytest.approx(math.sqrt(0.5 * (g**2 - g**-2)), rel=1e-7)

    def test_below_ground_state_raises(self):
        with pytest.raises(ValueError):
            _orbit(1.2, -1.1)
        with pytest.raises(ValueError):
            dos_curve(1.2, -1.1)
        with pytest.raises(ValueError):
            dos_curve(0.5, -1.0001)
        with pytest.raises(ValueError):
            dos_curve(1.0, math.inf)


class TestDensity:
    def test_quadrature_oracle(self):
        for (g, eps), (nu_ref, n_ref) in QUAD_ORACLE.items():
            curve = dos_curve(g, eps)
            assert curve.nu[0] == pytest.approx(nu_ref, rel=1e-12, abs=0.0)
            assert curve.n_cum[0] == pytest.approx(n_ref, rel=1e-12, abs=0.0)

    def test_decoupled_limit(self):
        # g = 0: harmonic oscillator, nu = 1/omega0 and N = eps + 1 exactly
        for eps in (-0.999, -0.5, 0.0, 1.0, 2.0):
            curve = dos_curve(0.0, eps)
            assert curve.nu[0] == pytest.approx(1.0, rel=1e-11)
            assert curve.n_cum[0] == pytest.approx(eps + 1.0, rel=1e-11)

    def test_omega0_scaling(self):
        c1 = dos_curve(1.2, -0.5, omega0=1.0)
        c2 = dos_curve(1.2, -0.5, omega0=2.0)
        assert c2.nu[0] == pytest.approx(0.5 * c1.nu[0], rel=1e-12)
        assert c2.n_cum[0] == pytest.approx(0.5 * c1.n_cum[0], rel=1e-12)

    def test_count_derivative_is_density(self):
        h = 1e-5
        for g, eps in [(0.5, -0.3), (1.2, -0.5), (1.2, -1.05), (1.4, -1.15), (2.0, 0.0)]:
            nu = dos_curve(g, eps).nu[0]
            n_lo, n_hi = dos_curve(g, [eps - h, eps + h]).n_cum
            assert (n_hi - n_lo) / (2.0 * h) == pytest.approx(nu, rel=1e-7)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(g=st.floats(0.0, 3.0), t=st.floats(0.0, 1.0))
    def test_count_is_monotone_with_slope_nu(self, g, t):
        # over eps_gs + 1e-3 <= eps <= 3, kept 1e-3 away from the divergence
        lo = ground_state_eps(g) + 1e-3
        eps = lo + t * (3.0 - lo)
        assume(g <= 1.0 or abs(eps - EPS_CRITICAL) >= 1e-3)
        h = 1e-5
        curve = dos_curve(g, [eps - h, eps, eps + h])
        n_lo, n_hi = curve.n_cum[0], curve.n_cum[2]
        assert n_hi > n_lo
        # Simpson's mean of nu over [eps - h, eps + h], so that the O((h/delta)^2)
        # curvature of nu near eps = -1 (5e-6 at g = 1, eps = -0.999) stays
        # out of the comparison
        nu = curve.nu
        nu_mean = (nu[0] + 4.0 * nu[1] + nu[2]) / 6.0
        assert (n_hi - n_lo) / (2.0 * h) == pytest.approx(nu_mean, rel=1e-6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dos_curve(1.2, ground_state_eps(1.2))  # not strictly above
        with pytest.raises(ValueError):
            dos_curve(1.2, -1.5)
        with pytest.raises(ValueError):
            dos_curve(1.2, -0.5, omega0=0.0)
        with pytest.raises(ValueError):
            dos_curve(-1.0, -0.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # unchecked, NaN and inf integrate to a silent 0.0
        with pytest.raises(ValueError, match="eps must be finite"):
            dos_curve(1.2, eps)

    def test_critical_guard(self):
        for eps in (-1.0, -1.0 + 0.5e-8, -1.0 - 0.5e-8):
            with pytest.raises(ValueError):
                dos_curve(1.2, eps)
        # no guard below the coupling threshold
        assert dos_curve(0.9, -1.0 + 0.5e-8).nu[0] > 0.0

    def test_divergence_brackets(self):
        # nu grows without bound approaching eps_c from either side (g > 1)
        d = np.array([1e-2, 1e-4, 1e-6])
        above = dos_curve(1.2, -1.0 + d).nu
        below = dos_curve(1.2, -1.0 - d).nu
        assert above[0] < above[1] < above[2]
        assert below[0] < below[1] < below[2]

    def test_dos_curve_container(self):
        grid = np.array([-0.8, -0.4, 0.0, 0.5])
        curve = dos_curve(1.2, grid)
        assert np.all(np.diff(curve.n_cum) > 0)
        assert len(curve.eps) == len(curve.nu) == 4
        with pytest.raises(ValueError):
            DosCurve(eps=np.zeros(3), nu=np.zeros(2))


class TestShellAverages:
    def test_decoupled_limit(self):
        # g = 0: <a^dag a> omega0/Omega = (eps+1)/2 and sigma_z = -1 exactly
        curve = observables_microcanonical(0.0, np.array([-0.9, 0.0, 1.0]))
        np.testing.assert_allclose(curve.nphot_scaled, [0.05, 0.5, 1.0], rtol=1e-11)
        np.testing.assert_allclose(curve.sz, [-1.0, -1.0, -1.0], rtol=1e-11)

    def test_shell_average_oracle(self):
        # includes points within 1e-7 of the single-well bottom, where
        # eps + s would cancel
        for (g, eps), (nphot_ref, sz_ref) in SHELL_ORACLE.items():
            curve = observables_microcanonical(g, eps)
            assert curve.nphot_scaled[0] == pytest.approx(nphot_ref, rel=1e-12, abs=0.0)
            assert curve.sz[0] == pytest.approx(sz_ref, rel=1e-12, abs=0.0)

    def test_matches_hellmann_feynman(self):
        cases = [
            (RabiParams(omega0=1.0, Omega=40.0, g=1.2), -0.5),
            (RabiParams(omega0=1.0, Omega=40.0, g=1.4), -1.15),  # in-well orbit
            (RabiParams(omega0=0.5, Omega=30.0, g=0.8), 0.3),
        ]
        for params, eps in cases:
            curve = observables_microcanonical(params.g, eps)
            nphot_hf, sz_hf = observables_hellmann_feynman(params, eps)
            assert nphot_hf == pytest.approx(curve.nphot_scaled[0], abs=1e-4)
            assert sz_hf == pytest.approx(curve.sz[0], abs=1e-4)

    def test_critical_pinning_from_above(self):
        # approaching eps_c the averages drift monotonically toward the
        # hyperbolic-point values nphot_scaled = 0, sz = -1
        deltas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        curve = observables_microcanonical(1.2, EPS_CRITICAL + deltas[::-1])
        nphot = curve.nphot_scaled[::-1]  # back to decreasing-delta order
        sz = curve.sz[::-1]
        assert np.all(np.diff(nphot) < 0) and nphot[-1] > 0
        assert np.all(np.diff(sz + 1.0) < 0) and sz[-1] > -1.0

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # unchecked, the shell average divides by a zero-length orbit
        with pytest.raises(ValueError, match="eps must be finite"):
            observables_microcanonical(1.2, np.array([-0.5, eps]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            observables_microcanonical(1.2, ground_state_eps(1.2) - 1e-3)
        with pytest.raises(ValueError):
            observables_microcanonical(1.2, EPS_CRITICAL + 0.5e-8)


ENTRY_POINTS = {
    # the bad point second, after a good one
    "dos_curve": lambda g, eps: dos_curve(g, [-0.5, eps]),
    "observables_microcanonical": lambda g, eps: observables_microcanonical(g, [-0.5, eps]),
}


@pytest.mark.parametrize("g, eps, message", [
    (1.2, -1.5, "no allowed orbit: eps=-1.5 is not above the ground-state eps="),
    (1.2, math.nan, "eps must be finite, got nan"),
    (1.2, EPS_CRITICAL + 0.5e-8, "is within 1e-08 of eps = -1.0, where nu diverges"),
    (-1.0, -0.5, "g must be finite and non-negative, got -1.0"),
    (1.2, math.inf, "eps must be finite, got inf"),
    (1.2, -math.inf, "eps must be finite, got -inf"),
    (math.nan, -0.5, "g must be finite and non-negative, got nan"),
    (math.inf, -0.5, "g must be finite and non-negative, got inf"),
], ids=["below-ground-state", "nan-eps", "near-critical", "negative-g", "inf-eps",
        "minus-inf-eps", "nan-g", "inf-g"])
def test_entry_points_share_one_domain_check(g, eps, message):
    messages = {}
    for name, call in ENTRY_POINTS.items():
        with pytest.raises(ValueError) as err:
            call(g, eps)
        messages[name] = str(err.value)
    assert len(set(messages.values())) == 1, messages
    assert message in messages["dos_curve"]


# every entry point that takes a coupling or a frequency, by the argument
NUMBER_TAKERS = {
    "RabiParams-omega0": lambda x: RabiParams(x, 40.0, 1.2),
    "RabiParams-g": lambda x: RabiParams(1.0, 40.0, x),
    "dos_curve": lambda x: dos_curve(x, [0.0]),
    "ground_state_eps": ground_state_eps,
    "law_log_esqpt-omega0": lambda x: law_log_esqpt(x, 1.2),
    "law_log_esqpt-g": lambda x: law_log_esqpt(1.0, x),
}


@pytest.mark.parametrize("take", NUMBER_TAKERS.values(), ids=list(NUMBER_TAKERS))
@pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0), np.float64(2.0)],
                         ids=["int", "int64", "float32", "float64"])
def test_numpy_scalars_are_numbers(take, value):
    assert take(value) == take(2.0)


@pytest.mark.parametrize("take", NUMBER_TAKERS.values(), ids=list(NUMBER_TAKERS))
def test_a_bool_is_not_a_number(take):
    with pytest.raises(ValueError, match="got True$"):
        take(True)


QUADRATURE_G = (0.0, 1e-4, 0.5, 1.0, 1.001, 1.2, 1.4, 2.0, 3.0, 5.0)


def quadrature_grid(g: float) -> np.ndarray:
    """29 eps from 1e-14 above the well bottom to eps = 1 and one each side of
    eps = -1, all at least 1e-5 from it, where quad still meets its tolerance."""
    e_gs = ground_state_eps(g)
    eps = e_gs + np.geomspace(1e-14, 1.0 - e_gs, 29)
    eps = np.concatenate([eps, [-1.0 - 1e-5, -1.0 + 1e-5]])
    return eps[(eps > e_gs) & (np.abs(eps + 1.0) >= 1e-5)]


def assert_closed_forms_match_quadrature(g: float, eps: np.ndarray) -> None:
    """The four orbit integrals against one adaptive quad each, at rel 1e-11.

    No absolute tolerance: N and nphot are as small as 1e-14 at the bottom.
    """
    ints = _orbit_integrals(g, eps)
    for i, e in enumerate(eps):
        for name, got, want in zip(ints._fields, (v[i] for v in ints),
                                   quadrature_integrals(g, e)):
            assert got == pytest.approx(want, rel=1e-11, abs=0.0), (name, g, e)


@pytest.mark.parametrize("g", QUADRATURE_G)
def test_closed_forms_match_quadrature(g):
    assert_closed_forms_match_quadrature(g, quadrature_grid(g))


def test_quadrature_grids_reach_both_orbits_and_both_routes():
    # between them the grids above hold connected and in-well orbits, each
    # with J_2 and J_3 from the midpoint rule (span at most _NEAR of the
    # distance to each outer root) and from R_D (beyond)
    kinds = set()
    for g in QUADRATURE_G:
        o = _orbit(g, quadrature_grid(g))
        near = np.maximum(o.span / (o.span + o.a_c), o.span / (o.a + 1.0 + o.span)) <= _NEAR
        kinds |= set(zip(o.a > 1.0, near))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("g", [0.999, 1.0, 1.000001, 1.0001])
def test_closed_forms_match_quadrature_at_the_coupling_threshold(g):
    # about g = 1 the orbit just above eps = -1 is half as deep as it is wide
    # (A = 1/2) and short against the outer root (B -> 0), where the R_D
    # recurrence loses J_3; quad is still exact there when g <= 1 or for eps
    # at least CRITICAL_GUARD from -1
    lo = CRITICAL_GUARD if g > 1.0 else 1e-14
    assert_closed_forms_match_quadrature(g, -1.0 + np.geomspace(lo, 1e-5, 40))


BOTTOM_G = [0.0, 0.3, 0.7, 0.95, 1.05, 1.5, 3.0]


def harmonic_nu_bottom(g: float) -> float:
    """nu at the well bottom: small oscillations about the minimum have
    frequency omega0 sqrt(1 - g^2) for g < 1 and omega0 sqrt(1 - g^-4) in each
    of the two wells for g > 1, and nu is the inverse level spacing."""
    return 1.0 / math.sqrt(1.0 - g * g) if g < 1.0 else 2.0 / math.sqrt(1.0 - g**-4)


@pytest.mark.parametrize("g", BOTTOM_G)
def test_density_at_the_well_bottom_is_harmonic(g):
    # nu approaches the inverse spacing linearly in the height above the bottom
    assert dos_curve(g, ground_state_eps(g) + 1e-14).nu[0] == pytest.approx(
        harmonic_nu_bottom(g), rel=1e-12)


@pytest.mark.parametrize("g", BOTTOM_G)
def test_count_at_the_well_bottom_is_harmonic(g):
    # N vanishes at the bottom and grows as nu_bottom d, to first order in the
    # height d; d is the height of the eps actually sampled, not the 1e-8 asked
    e_gs = ground_state_eps(g)
    eps = e_gs + 1e-8
    d = eps - e_gs
    assert dos_curve(g, eps).n_cum[0] / (harmonic_nu_bottom(g) * d) == pytest.approx(
        1.0, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("g", [0.5, 1.0, 1.2, 2.0])
def test_curves_match_pointwise_calls_in_any_order(g):
    # one grid through both orbit types and both routes to J_2 and J_3: the
    # array path gives every point what a one-point call gives it, whatever
    # its neighbours
    e_gs = ground_state_eps(g)
    eps = e_gs + np.geomspace(1e-12, 2.0 - e_gs, 41)
    eps = eps[np.abs(eps + 1.0) >= 1e-6]
    curve = dos_curve(g, eps)
    obs = observables_microcanonical(g, eps)
    for i, e in enumerate(eps):
        point = dos_curve(g, e)
        assert curve.nu[i] == point.nu[0]
        assert curve.n_cum[i] == point.n_cum[0]
        one = observables_microcanonical(g, e)
        assert obs.nphot_scaled[i] == one.nphot_scaled[0]
        assert obs.sz[i] == one.sz[0]
    order = np.random.default_rng(7).permutation(len(eps))
    shuffled = dos_curve(g, eps[order])
    np.testing.assert_array_equal(shuffled.nu, curve.nu[order])
    np.testing.assert_array_equal(shuffled.n_cum, curve.n_cum[order])


# Carlson's published values (Numer. Algorithms 10 (1995) 13, section 3) of
# the complete forms: R_F(1, 2, 0), R_D(0, 2, 1) and R_J(0, 1, 2, 3).  Taking
# X of the closing series from the last x instead of the first misses
# R_F(1, 2, 0) by far more than 1e-13.
@pytest.mark.parametrize("x, y, p, index, value", [
    (1.0, 2.0, 3.0, 0, 1.3110287771461),
    (2.0, 1.0, 2.0, 0, 1.3110287771461),
    (2.0, 1.0, 2.0, 2, 1.7972103521034),
    (1.0, 2.0, 3.0, 1, 0.77688623778582),
])
def test_carlson_matches_published_values(x, y, p, index, value):
    got = _carlson(np.array([x]), np.array([y]), np.array([p]))[index][0]
    assert got == pytest.approx(value, rel=1e-13, abs=0.0)


CARLSON_G = (0.3, 0.9, 1.0, 1.0 + 1e-9, 1.2, 1.4, 2.0, 3.0)


def carlson_arguments(g: float, monkeypatch) -> tuple[np.ndarray, ...]:
    """The (x, y, p) dos_curve hands _carlson at g, from 1e-14 above the well
    bottom up to eps = 10, and from CRITICAL_GUARD (or 1e-14 for g <= 1) to
    0.5 on each side of eps = -1."""
    e_gs = ground_state_eps(g)
    near = np.geomspace(CRITICAL_GUARD if g > 1.0 else 1e-14, 0.5, 40)
    eps = np.concatenate([e_gs + np.geomspace(1e-14, 10.0 - e_gs, 80), -1.0 + near,
                          -1.0 - near])
    eps = eps[(eps > e_gs) & (np.abs(eps + 1.0) >= CRITICAL_GUARD)]
    seen = []

    def recorded(*args):
        seen.append(args)
        return _carlson(*args)

    monkeypatch.setattr(semiclassical, "_carlson", recorded)
    dos_curve(g, eps)
    return seen[0]


def assert_carlson_matches_scipy(x, y, p):
    want = (special.elliprf(0.0, x, y), special.elliprj(0.0, x, y, p),
            special.elliprd(0.0, x, y))
    for got, ref in zip(_carlson(x, y, p), want):
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)


def wide_arguments(seed: int, n: int) -> tuple[np.ndarray, ...]:
    """x / y from 1e-11 to 3 and p from max(x, y) to 5e4 max(x, y)."""
    rng = np.random.default_rng(seed)
    y = 10.0 ** rng.uniform(-9.0, 2.0, n)
    x = y * 10.0 ** rng.uniform(-11.0, 0.5, n)
    return x, y, np.maximum(x, y) * 10.0 ** rng.uniform(0.0, 4.7, n)


@pytest.mark.parametrize("g", CARLSON_G)
def test_carlson_matches_scipy_on_the_package_arguments(g, monkeypatch):
    assert_carlson_matches_scipy(*carlson_arguments(g, monkeypatch))


def test_carlson_matches_scipy_at_wide_argument_ratios():
    # with R_J(0, 1.6e-14, 1.2e-3, 61), where twelve duplication steps on p
    # itself err by 8e-6
    x, y, p = wide_arguments(5, 400)
    assert_carlson_matches_scipy(np.append(x, 1.6e-14), np.append(y, 1.2e-3),
                                 np.append(p, 61.0))


def test_carlson_gives_a_point_the_same_bits_in_any_array():
    # a fixed step count: no point's value depends on its neighbours
    x, y, p = wide_arguments(6, 50)
    whole = np.array(_carlson(x, y, p))
    for i in range(len(x)):
        one = np.array(_carlson(x[i:i + 1], y[i:i + 1], p[i:i + 1]))
        np.testing.assert_array_equal(one[:, 0], whole[:, i])
