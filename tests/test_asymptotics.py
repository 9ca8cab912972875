"""Unit tests for the critical-law predictions and divergence fits."""

import math

import numpy as np
import pytest

from rabi_esqpt import (
    DosCurve,
    LawKind,
    Side,
    dos_curve,
    fit_divergence,
    geometric_eps_grid,
    law_log_esqpt,
    law_power_qpt,
)
from rabi_esqpt.asymptotics import MIN_FIT_POINTS
from rabi_esqpt.semiclassical import EPS_CRITICAL


def synthetic_curve(eps, nu):
    return DosCurve(eps=np.asarray(eps, dtype=float), nu=np.asarray(nu, dtype=float))


class TestLaws:
    def test_power_law_constants(self):
        law = law_power_qpt()
        assert law.exponent == -0.25
        # Gamma(5/4)/Gamma(3/4) * 2^(5/4) / sqrt(pi)
        assert law.prefactor == pytest.approx(0.9925441784910576, abs=1e-12)

    def test_power_law_omega0_scaling(self):
        assert law_power_qpt(2.0).prefactor == pytest.approx(
            0.5 * law_power_qpt(1.0).prefactor, rel=1e-15
        )
        with pytest.raises(ValueError):
            law_power_qpt(0.0)

    def test_log_law_slope(self):
        g = 1.4
        law = law_log_esqpt(1.0, g)
        assert law.slope == pytest.approx(1.0 / (math.pi * math.sqrt(g * g - 1.0)), rel=1e-15)
        assert law_log_esqpt(2.0, g).slope == pytest.approx(0.5 * law.slope, rel=1e-15)

    def test_log_law_requires_supercritical(self):
        for g in (1.0, 0.8):
            with pytest.raises(ValueError):
                law_log_esqpt(1.0, g)
        with pytest.raises(ValueError):
            law_log_esqpt(-1.0, 1.4)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_laws_reject_non_finite_inputs(self, bad):
        # the same messages as every semiclassical entry point gives
        with pytest.raises(ValueError) as ref_omega0:
            dos_curve(1.2, [-0.5], omega0=bad)
        with pytest.raises(ValueError) as ref_g:
            dos_curve(bad, [-0.5])
        for call, ref in ((lambda: law_power_qpt(bad), ref_omega0),
                          (lambda: law_log_esqpt(bad, 1.2), ref_omega0),
                          (lambda: law_log_esqpt(1.0, bad), ref_g)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == str(ref.value)


class TestGrid:
    def test_sides(self):
        above = geometric_eps_grid(1e-6, 1e-2, 9, side=Side.ABOVE)
        below = geometric_eps_grid(1e-6, 1e-2, 9, side=Side.BELOW)
        assert np.all(np.diff(above) > 0) and np.all(np.diff(below) > 0)
        assert np.all(above > EPS_CRITICAL) and np.all(below < EPS_CRITICAL)
        # geometric in distance from eps_c
        d = above - EPS_CRITICAL
        np.testing.assert_allclose(d[1:] / d[:-1], d[1] / d[0], rtol=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_eps_grid(1e-3, 1e-6, 5)
        with pytest.raises(ValueError):
            geometric_eps_grid(0.0, 1e-3, 5)
        with pytest.raises(ValueError):
            geometric_eps_grid(1e-6, 1e-3, 1)

    @pytest.mark.parametrize("d_max", [math.inf, math.nan])
    def test_ends_must_be_finite(self, d_max):
        # an infinite end used to reach np.geomspace, which warns and
        # returns NaN samples
        with pytest.raises(ValueError, match="d_max < inf"):
            geometric_eps_grid(1e-6, d_max, 5)


class TestFit:
    def test_recovers_synthetic_power_law(self):
        # grid strictly inside the fit window: the round-trip through eps
        # shifts endpoint distances by a ulp
        eps = geometric_eps_grid(2e-6, 5e-4, 20)
        nu = 3.7 * (eps - EPS_CRITICAL) ** -0.25
        rep = fit_divergence(synthetic_curve(eps, nu), LawKind.POWER_QPT)
        assert rep.exponent == pytest.approx(-0.25, abs=1e-12)
        assert rep.prefactor == pytest.approx(3.7, rel=1e-12)
        assert rep.residual_rms < 1e-13
        assert rep.n_points == 20

    def test_recovers_synthetic_log_law(self):
        for side in (Side.ABOVE, Side.BELOW):
            eps = geometric_eps_grid(1e-6, 1e-3, 20, side=side)
            d = np.abs(eps - EPS_CRITICAL)
            nu = 2.2 * (-np.log(d)) + 0.9
            rep = fit_divergence(synthetic_curve(eps, nu), LawKind.LOG_ESQPT, side=side)
            assert rep.slope == pytest.approx(2.2, abs=1e-12)
            assert rep.intercept == pytest.approx(0.9, abs=1e-10)

    def test_power_properties_rejected_for_log_fits(self):
        eps = geometric_eps_grid(1e-6, 1e-3, 8)
        nu = -np.log(eps - EPS_CRITICAL)
        rep = fit_divergence(synthetic_curve(eps, nu), LawKind.LOG_ESQPT)
        with pytest.raises(ValueError):
            rep.exponent
        with pytest.raises(ValueError):
            rep.prefactor

    def test_masks_invalid_samples(self):
        eps = geometric_eps_grid(2e-6, 5e-4, 10)
        nu = 3.0 * (eps - EPS_CRITICAL) ** -0.25
        nu[0], nu[1] = 0.0, np.nan
        rep = fit_divergence(synthetic_curve(eps, nu), LawKind.POWER_QPT)
        assert rep.n_points == 8
        assert rep.exponent == pytest.approx(-0.25, abs=1e-12)

    def test_too_few_points_raises(self):
        eps = geometric_eps_grid(1e-6, 1e-3, MIN_FIT_POINTS - 1)
        nu = np.ones_like(eps)
        with pytest.raises(ValueError):
            fit_divergence(synthetic_curve(eps, nu), LawKind.POWER_QPT)

    def test_window_validation(self):
        eps = geometric_eps_grid(1e-6, 1e-3, 10)
        nu = np.ones_like(eps)
        for window in ((1e-3, 1e-6), (0.0, 1e-3), (-1e-6, 1e-3)):
            with pytest.raises(ValueError):
                fit_divergence(synthetic_curve(eps, nu), LawKind.POWER_QPT, window=window)

    def test_semiclassical_log_slope(self):
        g = 1.4
        eps = geometric_eps_grid(1e-5, 1e-3, 15)
        curve = dos_curve(g, eps)
        rep = fit_divergence(curve, LawKind.LOG_ESQPT, window=(1e-5, 1e-3))
        assert rep.slope == pytest.approx(law_log_esqpt(1.0, g).slope, rel=0.02)

    def test_log_intercept_converges(self):
        # the additive constant extracted from ever-smaller windows settles:
        # successive window-to-window jumps shrink
        g = 1.4
        intercepts = []
        for lo, hi in ((1e-3, 1e-1), (1e-5, 1e-3), (1e-7, 1e-5)):
            eps = geometric_eps_grid(lo, hi, 12)
            rep = fit_divergence(dos_curve(g, eps), LawKind.LOG_ESQPT, window=(lo, hi))
            intercepts.append(rep.intercept)
        jump_coarse = abs(intercepts[1] - intercepts[0])
        jump_fine = abs(intercepts[2] - intercepts[1])
        assert jump_fine < 0.5 * jump_coarse
