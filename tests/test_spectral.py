"""Unit tests for the windowed density of the merged parity sectors and the gap map."""

import numpy as np
import pytest

from rabi_esqpt import (
    Parity,
    ParitySpectrum,
    RabiParams,
    converged_window,
    diagonalize,
    build_parity_chain,
    gap_map,
    windowed_dos,
)
from rabi_esqpt import quantum

P40 = RabiParams(omega0=1.0, Omega=40.0, g=0.0)


def make_spectrum(parity, energies, params=P40, n_converged=None):
    energies = np.asarray(energies, dtype=float)
    return ParitySpectrum(
        params=params,
        parity=parity,
        dim=max(len(energies), 2),
        energies=energies,
        eps=2.0 * energies / params.Omega,
        n_converged=len(energies) if n_converged is None else n_converged,
    )


def g0_sectors(eps_max=0.5):
    minus = converged_window(P40, Parity.MINUS, eps_max=eps_max)[1]
    plus = converged_window(P40, Parity.PLUS, eps_max=eps_max)[1]
    return minus, plus


class TestMergedLevels:
    """How windowed_dos merges the two sectors into one level list."""

    def test_decoupled_interleaving(self):
        wd = windowed_dos(*g0_sectors(), window_n=1)
        # merged eps = -1 + k/20, parities alternating: every spacing is 1/20
        k = np.arange(wd.n_levels - 1)
        np.testing.assert_allclose(wd.eps_bar, -1.0 + (k + 0.5) / 20.0, atol=1e-13)
        np.testing.assert_allclose(wd.nu_bar, 20.0, rtol=1e-11)

    def test_requires_converged_spectra(self):
        plain = diagonalize(build_parity_chain(P40, Parity.MINUS, 32))
        plus = g0_sectors()[1]
        with pytest.raises(ValueError, match="needs converged levels in both sectors"):
            windowed_dos(plain, plus)

    def test_rejects_swapped_or_mismatched(self):
        minus, plus = g0_sectors()
        with pytest.raises(ValueError, match="minus-sector spectrum first"):
            windowed_dos(plus, minus)
        other = RabiParams(omega0=1.0, Omega=40.0, g=0.5)
        minus_other = converged_window(other, Parity.MINUS, eps_max=0.5)[1]
        with pytest.raises(ValueError, match="different Hamiltonians"):
            windowed_dos(minus_other, plus)

    def test_stable_tie_break(self):
        # exact doublets keep both levels: each tie is one zero spacing
        minus = make_spectrum(Parity.MINUS, [0.0, 1.0, 2.0])
        plus = make_spectrum(Parity.PLUS, [0.0, 1.0, 2.0])
        wd = windowed_dos(minus, plus, window_n=2)
        assert wd.n_levels == 6
        np.testing.assert_allclose(wd.eps_bar, np.array([0.5, 0.5, 1.5, 1.5]) / 20.0, rtol=1e-15)
        np.testing.assert_allclose(wd.nu_bar, 40.0, rtol=1e-15)

    def test_cut_at_lower_sector_top(self):
        minus = make_spectrum(Parity.MINUS, [0.0, 2.0, 4.0, 6.0])
        plus = make_spectrum(Parity.PLUS, [1.0, 3.0])
        wd = windowed_dos(minus, plus, window_n=1)
        # nothing beyond the plus-sector top 3.0 can be trusted complete;
        # the cut itself is the merge contract, not a truncation warning
        assert wd.n_levels == 4
        np.testing.assert_allclose(wd.eps_bar, np.array([0.5, 1.5, 2.5]) / 20.0, rtol=1e-15)
        assert not wd.truncated

    def test_unconverged_tail_flag(self):
        minus = make_spectrum(Parity.MINUS, [0.0, 1.0, 2.0], n_converged=2)
        plus = make_spectrum(Parity.PLUS, [0.5, 1.5])
        wd = windowed_dos(minus, plus, window_n=1)
        assert wd.n_levels == 3
        np.testing.assert_allclose(wd.eps_bar, np.array([0.25, 0.75]) / 20.0, rtol=1e-15)
        assert wd.truncated


class TestWindowedDos:
    def test_decoupled_window_density(self):
        minus, plus = g0_sectors()
        wd = windowed_dos(minus, plus, window_n=2)
        # uniform merged spacing 1/20 in eps: nu_bar = 2 / (2/20) = 20
        np.testing.assert_allclose(wd.nu_bar, 20.0, rtol=1e-12)
        curve = wd.to_dos_curve()
        # per unit bare energy: matches the harmonic value 1/omega0
        np.testing.assert_allclose(curve.nu, 1.0, rtol=1e-12)

    def test_window_count_telescopes(self):
        p = RabiParams(omega0=1.0, Omega=100.0, g=1.2)
        minus = converged_window(p, Parity.MINUS, eps_max=-0.3)[1]
        plus = converged_window(p, Parity.PLUS, eps_max=-0.3)[1]
        n = 10
        wd = windowed_dos(minus, plus, window_n=n)
        # the merged list, rebuilt here: both sectors, cut at the lower top
        eps = np.sort(np.concatenate([minus.eps, plus.eps]))
        eps = eps[eps <= min(minus.eps[-1], plus.eps[-1])]
        assert wd.n_levels == len(eps)
        # disjoint windows recover the total level count exactly
        widths = n / wd.nu_bar
        total = np.sum(widths[::n][: (len(eps) - 1) // n])
        k_used = n * ((len(eps) - 1) // n)
        assert total == pytest.approx(eps[k_used] - eps[0], rel=1e-12)

    def test_peak_tracks_critical_energy(self):
        p = RabiParams(omega0=1.0, Omega=100.0, g=1.2)
        minus = converged_window(p, Parity.MINUS, eps_max=-0.3)[1]
        plus = converged_window(p, Parity.PLUS, eps_max=-0.3)[1]
        wd = windowed_dos(minus, plus, window_n=10)
        peak = int(np.argmax(wd.nu_bar))
        width = 10.0 / wd.nu_bar[peak]
        assert abs(wd.eps_bar[peak] + 1.0) < 1.5 * width

    def test_eps_max_filter_and_truncated(self):
        minus, plus = g0_sectors(eps_max=0.5)
        wd = windowed_dos(minus, plus, window_n=2, eps_max=-0.5)
        assert np.all(wd.eps_bar <= -0.5)
        assert not wd.truncated
        wd_far = windowed_dos(minus, plus, window_n=2, eps_max=10.0)
        assert wd_far.truncated

    def test_degenerate_window_raises(self):
        minus = make_spectrum(Parity.MINUS, [0.0, 1.0, 2.0])
        plus = make_spectrum(Parity.PLUS, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            windowed_dos(minus, plus, window_n=1)

    def test_needs_enough_levels(self):
        minus = make_spectrum(Parity.MINUS, [0.0, 1.0])
        plus = make_spectrum(Parity.PLUS, [0.5, 1.5])
        with pytest.raises(ValueError):
            windowed_dos(minus, plus, window_n=4)
        with pytest.raises(ValueError):
            windowed_dos(minus, plus, window_n=0)


class TestGapMap:
    def test_decoupled_splitting(self):
        gm = gap_map(1.0, 40.0, np.array([0.0]), k_max=15)
        assert gm.k_max == 15
        # plus tower sits exactly one ladder step 2 omega0/Omega above
        np.testing.assert_allclose(gm.delta[0], 0.05, atol=1e-12)
        np.testing.assert_allclose(gm.eps_minus[0], -1.0 + 0.1 * np.arange(15), atol=1e-12)
        assert np.all(gm.converged)
        assert gm.n_unconverged == 0

    def test_doublet_collapse_supercritical(self):
        gm = gap_map(1.0, 40.0, np.array([0.5, 2.0]), k_max=6)
        # normal phase: splittings on the ladder scale
        assert np.min(np.abs(gm.delta[0])) > 1e-3
        # broken phase: lowest doublets numerically degenerate
        assert np.max(np.abs(gm.delta[1])) < 1e-10
        assert np.all(gm.eps_mid[1] < -1.0)

    def test_splittings_at_precision_floor_unresolved(self):
        gm = gap_map(1.0, 40.0, np.array([0.5, 2.0]), k_max=6)
        for i, g in enumerate(gm.g):
            params = RabiParams(omega0=1.0, Omega=40.0, g=float(g))
            norm = max(build_parity_chain(params, parity, int(gm.dim[i])).norm_bound()
                       for parity in Parity)
            assert gm.floor[i] == pytest.approx(4.0 * np.finfo(float).eps * norm * 2.0 / 40.0,
                                                rel=1e-15)
        # normal phase resolved; the g = 2 doublets (roundoff below 1e-14) not
        assert not gm.unresolved[0].any()
        assert gm.unresolved[1].all()
        np.testing.assert_array_equal(
            gm.unresolved, gm.converged & (np.abs(gm.delta) <= gm.floor[:, None]))

    def test_unconverged_reported_not_raised(self, monkeypatch):
        # cap = 0.4 R g^2 = 64 sites, too few for 32 levels at g = 2
        monkeypatch.setattr(quantum, "_CAP_PER_R", 0.4)
        gm = gap_map(1.0, 40.0, np.array([2.0]), k_max=32)
        assert gm.dim[0] == 64
        assert gm.delta.shape == (1, 32)
        assert gm.n_unconverged > 0
        assert not np.all(gm.converged)

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            gap_map(1.0, 40.0, np.array([1.0]), k_max=0)
