"""Unit tests for the classical phase-space density and shell averages."""

import math

import numpy as np
import pytest

from rabi_esqpt import (
    DosCurve,
    DosSource,
    QuadratureError,
    RabiParams,
    accumulated_states,
    dos_curve,
    dos_semiclassical,
    ground_state_eps,
    observables_microcanonical,
)
from rabi_esqpt.semiclassical import EPS_CRITICAL, _roots_u

from oracles import QUAD_ORACLE, observables_hellmann_feynman


def p_squared(g: float, eps: float, x: float) -> float:
    """Radicand of the orbit momentum on the lower branch, eps + s - x^2."""
    return eps + math.sqrt(1.0 + 2.0 * g * g * x * x) - x * x


class TestPotential:
    def test_minima_single_well(self):
        # for g <= 1 the well bottom is the origin: the orbit at the
        # ground-state energy has collapsed onto x = 0
        for g in (0.7, 1.0):
            u_lo, u_hi = _roots_u(g, ground_state_eps(g))
            assert u_hi == 0.0 and u_lo <= 0.0

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
    """Roots u = x^2 of p^2, as the orbit integrals use them."""

    def test_connected_orbit(self):
        u_lo, u_hi = _roots_u(1.2, -0.5)
        # no inner turning point: the orbit spans [-x2, x2]
        assert u_lo < 0.0 < u_hi
        assert p_squared(1.2, -0.5, math.sqrt(u_hi)) == pytest.approx(0.0, abs=1e-14)

    def test_disconnected_orbit(self):
        u_lo, u_hi = _roots_u(1.2, -1.05)
        assert 0.0 < u_lo < u_hi
        for u in (u_lo, u_hi):
            assert p_squared(1.2, -1.05, math.sqrt(u)) == pytest.approx(0.0, abs=1e-14)

    def test_subcritical_high_energy_is_connected(self):
        # g < 1, eps > 1: the u-quadratic has two positive roots but only
        # the outer one is a turning point of the single-well orbit; the
        # inner one solves eps - x^2 - s = 0 on the upper branch
        g, eps = 0.8, 2.0
        u_lo, u_hi = _roots_u(g, eps)
        assert 0.0 < u_lo < u_hi
        assert p_squared(g, eps, math.sqrt(u_hi)) == pytest.approx(0.0, abs=1e-14)
        xs = np.linspace(0.0, math.sqrt(u_hi), 50)[:-1]
        assert min(p_squared(g, eps, x) for x in xs) > 0.0

    def test_quartic_scaling_at_threshold(self):
        # g = 1: x2 ~ (2 delta)^(1/4) near the critical energy
        delta = 1e-4
        _, u_hi = _roots_u(1.0, -1.0 + delta)
        assert math.sqrt(u_hi) == pytest.approx((2.0 * delta) ** 0.25, rel=5e-3)

    def test_orbit_shrinks_to_point_at_ground_state(self):
        g = 2.0
        u_lo, u_hi = _roots_u(g, ground_state_eps(g))
        x1, x2 = math.sqrt(u_lo), math.sqrt(u_hi)
        assert x1 == pytest.approx(x2, rel=1e-7)
        assert x2 == pytest.approx(math.sqrt(0.5 * (g**2 - g**-2)), rel=1e-7)

    def test_below_ground_state_raises(self):
        with pytest.raises(ValueError):
            _roots_u(1.2, -1.1)
        with pytest.raises(ValueError):
            dos_semiclassical(1.2, -1.1)
        with pytest.raises(ValueError):
            dos_semiclassical(0.5, -1.0001)
        with pytest.raises(ValueError):
            dos_semiclassical(1.0, math.inf)


class TestDensity:
    def test_quadrature_oracle(self):
        for (g, eps), (nu_ref, n_ref) in QUAD_ORACLE.items():
            assert dos_semiclassical(g, eps, quad_tol=1e-12) == pytest.approx(
                nu_ref, rel=1e-12
            )
            assert accumulated_states(g, eps, quad_tol=1e-12) == pytest.approx(
                n_ref, rel=1e-12
            )

    def test_decoupled_limit(self):
        # g = 0: harmonic oscillator, nu = 1/omega0 and N = eps + 1 exactly
        for eps in (-0.999, -0.5, 0.0, 1.0, 2.0):
            assert dos_semiclassical(0.0, eps) == pytest.approx(1.0, rel=1e-11)
            assert accumulated_states(0.0, eps) == pytest.approx(eps + 1.0, rel=1e-11)

    def test_omega0_scaling(self):
        nu1 = dos_semiclassical(1.2, -0.5, omega0=1.0)
        nu2 = dos_semiclassical(1.2, -0.5, omega0=2.0)
        assert nu2 == pytest.approx(0.5 * nu1, rel=1e-12)
        n1 = accumulated_states(1.2, -0.5, omega0=1.0)
        n2 = accumulated_states(1.2, -0.5, omega0=2.0)
        assert n2 == pytest.approx(0.5 * n1, rel=1e-12)

    def test_count_derivative_is_density(self):
        h = 1e-5
        for g, eps in [(0.5, -0.3), (1.2, -0.5), (1.2, -1.05), (1.4, -1.15), (2.0, 0.0)]:
            nu = dos_semiclassical(g, eps, quad_tol=1e-12)
            dn = (
                accumulated_states(g, eps + h, quad_tol=1e-12)
                - accumulated_states(g, eps - h, quad_tol=1e-12)
            ) / (2.0 * h)
            assert dn == pytest.approx(nu, rel=1e-7)

    def test_count_vanishes_at_ground_state(self):
        assert accumulated_states(1.4, ground_state_eps(1.4)) == 0.0
        # and grows from there
        assert accumulated_states(1.4, ground_state_eps(1.4) + 1e-4) > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dos_semiclassical(1.2, ground_state_eps(1.2))  # not strictly above
        with pytest.raises(ValueError):
            accumulated_states(1.2, -1.5)
        with pytest.raises(ValueError):
            dos_semiclassical(1.2, -0.5, omega0=0.0)
        with pytest.raises(ValueError):
            dos_semiclassical(-1.0, -0.5)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # unchecked, NaN and inf integrate to a silent 0.0
        with pytest.raises(ValueError, match="eps must be finite"):
            dos_semiclassical(1.2, eps)
        with pytest.raises(ValueError, match="eps must be finite"):
            accumulated_states(1.2, eps)

    @pytest.mark.parametrize("quad_tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_quad_tol_must_be_finite_and_positive(self, quad_tol):
        # a NaN tolerance would turn the error-estimate check off
        for call in (dos_semiclassical, accumulated_states, observables_microcanonical):
            with pytest.raises(ValueError, match="quad_tol must be finite and positive"):
                call(1.2, -0.5, quad_tol=quad_tol)
        with pytest.raises(ValueError, match="quad_tol must be finite and positive"):
            dos_curve(1.2, np.array([-0.5, 0.0]), quad_tol=quad_tol)

    def test_critical_guard(self):
        for eps in (-1.0, -1.0 + 0.5e-8, -1.0 - 0.5e-8):
            with pytest.raises(ValueError):
                dos_semiclassical(1.2, eps)
        # no guard below the coupling threshold
        assert dos_semiclassical(0.9, -1.0 + 0.5e-8) > 0.0

    def test_quadrature_failure_reported(self):
        with pytest.raises(QuadratureError) as err:
            dos_semiclassical(1.2, -1.0 + 2e-8, quad_tol=1e-15)
        assert err.value.value > 0.0 and err.value.errest > 0.0

    def test_divergence_brackets(self):
        # nu grows without bound approaching eps_c from either side (g > 1)
        above = [dos_semiclassical(1.2, -1.0 + d) for d in (1e-2, 1e-4, 1e-6)]
        below = [dos_semiclassical(1.2, -1.0 - d) for d in (1e-2, 1e-4, 1e-6)]
        assert above[0] < above[1] < above[2]
        assert below[0] < below[1] < below[2]

    def test_dos_curve_container(self):
        grid = np.array([-0.8, -0.4, 0.0, 0.5])
        curve = dos_curve(1.2, grid, with_counts=True)
        assert curve.source is DosSource.SEMICLASSICAL
        assert curve.n_cum is not None and np.all(np.diff(curve.n_cum) > 0)
        assert len(curve.eps) == len(curve.nu) == 4
        with pytest.raises(ValueError):
            DosCurve(
                source=DosSource.SEMICLASSICAL,
                g=1.2,
                omega0=1.0,
                eps=np.zeros(3),
                nu=np.zeros(2),
            )


class TestShellAverages:
    def test_decoupled_limit(self):
        # g = 0: <a^dag a> omega0/Omega = (eps+1)/2 and sigma_z = -1 exactly
        curve = observables_microcanonical(0.0, np.array([-0.9, 0.0, 1.0]))
        np.testing.assert_allclose(curve.nphot_scaled, [0.05, 0.5, 1.0], rtol=1e-11)
        np.testing.assert_allclose(curve.sz, [-1.0, -1.0, -1.0], rtol=1e-11)

    def test_shell_average_oracle(self):
        # frozen from mpmath (dps = 30) direct x-integrals of
        # <(eps + s)/2> and <-1/s> over the orbit measure dx/p
        curve = observables_microcanonical(1.3, -0.4, quad_tol=1e-12)
        assert curve.nphot_scaled[0] == pytest.approx(0.89120363742862093, rel=1e-11)
        assert curve.sz[0] == pytest.approx(-0.53904366958840891, rel=1e-11)

    def test_matches_hellmann_feynman(self):
        cases = [
            (RabiParams(omega0=1.0, Omega=40.0, g=1.2), -0.5),
            (RabiParams(omega0=1.0, Omega=40.0, g=1.4), -1.15),  # in-well orbit
            (RabiParams(omega0=0.5, Omega=30.0, g=0.8), 0.3),
        ]
        for params, eps in cases:
            curve = observables_microcanonical(params.g, eps, quad_tol=1e-12)
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
