"""Unit tests for the windowed density of the merged parity sectors and the gap map."""

import numpy as np
import pytest

from rabi_esqpt import (
    DosCurve,
    LawKind,
    Parity,
    ParitySpectrum,
    RabiParams,
    Side,
    converged_spectrum,
    diagonalize,
    build_parity_chain,
    fit_divergence,
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
        error_bound=np.zeros(len(energies)),
        precision=0.0,
    )


def g0_sectors(eps_max=0.5):
    minus = converged_spectrum(P40, Parity.MINUS, eps_max=eps_max)
    plus = converged_spectrum(P40, Parity.PLUS, eps_max=eps_max)
    return minus, plus


class TestMergedLevels:
    """How windowed_dos merges the two sectors into one level list."""

    def test_decoupled_interleaving(self):
        wd = windowed_dos(*g0_sectors(), window_n=1)
        # merged eps = -1 + k/20, parities alternating: every spacing is 1/20
        k = np.arange(wd.n_levels - 1)
        np.testing.assert_allclose(wd.eps, -1.0 + (k + 0.5) / 20.0, atol=1e-13)
        np.testing.assert_allclose(wd.nu_per_eps, 20.0, rtol=1e-11)

    def test_requires_converged_spectra(self):
        plain = make_spectrum(Parity.MINUS, diagonalize(build_parity_chain(P40, Parity.MINUS, 32)),
                              n_converged=0)
        plus = g0_sectors()[1]
        with pytest.raises(ValueError, match="needs converged levels in both sectors"):
            windowed_dos(plain, plus)

    def test_rejects_swapped_or_mismatched(self):
        minus, plus = g0_sectors()
        with pytest.raises(ValueError, match="minus-sector spectrum first"):
            windowed_dos(plus, minus)
        other = RabiParams(omega0=1.0, Omega=40.0, g=0.5)
        minus_other = converged_spectrum(other, Parity.MINUS, eps_max=0.5)
        with pytest.raises(ValueError, match="different Hamiltonians"):
            windowed_dos(minus_other, plus)

    def test_stable_tie_break(self):
        # exact doublets keep both levels: each tie is one zero spacing
        minus = make_spectrum(Parity.MINUS, [0.0, 1.0, 2.0])
        plus = make_spectrum(Parity.PLUS, [0.0, 1.0, 2.0])
        wd = windowed_dos(minus, plus, window_n=2)
        assert wd.n_levels == 6
        np.testing.assert_allclose(wd.eps, np.array([0.5, 0.5, 1.5, 1.5]) / 20.0, rtol=1e-15)
        np.testing.assert_allclose(wd.nu_per_eps, 40.0, rtol=1e-15)

    def test_cut_at_lower_sector_top(self):
        minus = make_spectrum(Parity.MINUS, [0.0, 2.0, 4.0, 6.0])
        plus = make_spectrum(Parity.PLUS, [1.0, 3.0])
        wd = windowed_dos(minus, plus, window_n=1)
        # nothing beyond the plus-sector top 3.0 can be trusted complete;
        # the cut itself is the merge contract, not a truncation warning
        assert wd.n_levels == 4
        np.testing.assert_allclose(wd.eps, np.array([0.5, 1.5, 2.5]) / 20.0, rtol=1e-15)
        assert not wd.truncated

    def test_unconverged_tail_flag(self):
        minus = make_spectrum(Parity.MINUS, [0.0, 1.0, 2.0], n_converged=2)
        plus = make_spectrum(Parity.PLUS, [0.5, 1.5])
        wd = windowed_dos(minus, plus, window_n=1)
        assert wd.n_levels == 3
        np.testing.assert_allclose(wd.eps, np.array([0.25, 0.75]) / 20.0, rtol=1e-15)
        assert wd.truncated


class TestWindowedDos:
    def test_decoupled_window_density(self):
        minus, plus = g0_sectors()
        wd = windowed_dos(minus, plus, window_n=2)
        # uniform merged spacing 1/20 in eps: nu_per_eps = 2 / (2/20) = 20
        np.testing.assert_allclose(wd.nu_per_eps, 20.0, rtol=1e-12)
        # per unit bare energy: matches the harmonic value 1/omega0
        np.testing.assert_allclose(wd.nu, 1.0, rtol=1e-12)

    def test_nu_is_nu_per_eps_rescaled_to_bare_energy(self):
        p = RabiParams(omega0=1.0, Omega=100.0, g=1.2)
        minus = converged_spectrum(p, Parity.MINUS, eps_max=-0.3)
        plus = converged_spectrum(p, Parity.PLUS, eps_max=-0.3)
        for eps_max in (None, -0.6):
            wd = windowed_dos(minus, plus, window_n=10, eps_max=eps_max)
            # the dos_quantum.csv columns: same bits as the product, not close
            assert np.array_equal(wd.nu, wd.nu_per_eps * (2.0 / p.Omega))
            assert not any(a.flags.writeable for a in (wd.eps, wd.nu_per_eps, wd.nu))

    def test_fit_divergence_takes_the_windowed_dos(self):
        # the well at g = 1.4 is 0.235 deep, so both sides hold a window
        p = RabiParams(omega0=1.0, Omega=100.0, g=1.4)
        minus = converged_spectrum(p, Parity.MINUS, eps_max=-0.3)
        plus = converged_spectrum(p, Parity.PLUS, eps_max=-0.3)
        wd = windowed_dos(minus, plus, window_n=10)
        for side in Side:
            direct = fit_divergence(wd, LawKind.LOG_ESQPT, side=side, window=(0.03, 0.2))
            via_curve = fit_divergence(DosCurve(wd.eps, wd.nu), LawKind.LOG_ESQPT,
                                       side=side, window=(0.03, 0.2))
            assert direct.n_points >= 5
            assert direct == via_curve

    def test_window_count_telescopes(self):
        p = RabiParams(omega0=1.0, Omega=100.0, g=1.2)
        minus = converged_spectrum(p, Parity.MINUS, eps_max=-0.3)
        plus = converged_spectrum(p, Parity.PLUS, eps_max=-0.3)
        n = 10
        wd = windowed_dos(minus, plus, window_n=n)
        # the merged list, rebuilt here: both sectors, cut at the lower top
        eps = np.sort(np.concatenate([minus.eps, plus.eps]))
        eps = eps[eps <= min(minus.eps[-1], plus.eps[-1])]
        assert wd.n_levels == len(eps)
        # disjoint windows recover the total level count exactly
        widths = n / wd.nu_per_eps
        total = np.sum(widths[::n][: (len(eps) - 1) // n])
        k_used = n * ((len(eps) - 1) // n)
        assert total == pytest.approx(eps[k_used] - eps[0], rel=1e-12)

    def test_peak_tracks_critical_energy(self):
        p = RabiParams(omega0=1.0, Omega=100.0, g=1.2)
        minus = converged_spectrum(p, Parity.MINUS, eps_max=-0.3)
        plus = converged_spectrum(p, Parity.PLUS, eps_max=-0.3)
        wd = windowed_dos(minus, plus, window_n=10)
        peak = int(np.argmax(wd.nu_per_eps))
        width = 10.0 / wd.nu_per_eps[peak]
        assert abs(wd.eps[peak] + 1.0) < 1.5 * width

    def test_eps_max_filter_and_truncated(self):
        minus, plus = g0_sectors(eps_max=0.5)
        wd = windowed_dos(minus, plus, window_n=2, eps_max=-0.5)
        assert np.all(wd.eps <= -0.5)
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


def sectors(Omega, g_values, k_max):
    """Both parity sectors at each coupling, as the gapmap command solves them."""
    params = [RabiParams(omega0=1.0, Omega=Omega, g=float(g)) for g in g_values]
    return quantum.converged_sectors(params, 1e-8, k_max=k_max, keep_capped=True)


class TestGapMap:
    def test_decoupled_splitting(self):
        gm = gap_map(*sectors(40.0, [0.0], k_max=15))
        assert gm.k_max == 15
        # plus tower sits exactly one ladder step 2 omega0/Omega above
        np.testing.assert_allclose(gm.delta[0], 0.05, atol=1e-12)
        np.testing.assert_allclose(gm.eps_minus[0], -1.0 + 0.1 * np.arange(15), atol=1e-12)
        assert np.all(gm.converged)
        assert gm.n_unconverged == 0

    def test_doublet_collapse_supercritical(self):
        gm = gap_map(*sectors(40.0, [0.5, 2.0], k_max=6))
        # normal phase: splittings on the ladder scale
        assert np.min(np.abs(gm.delta[0])) > 1e-3
        # broken phase: lowest doublets numerically degenerate
        assert np.max(np.abs(gm.delta[1])) < 1e-10
        assert np.all(gm.eps_mid[1] < -1.0)

    def test_splittings_at_precision_floor_unresolved(self):
        gm = gap_map(*sectors(40.0, [0.5, 2.0], k_max=6))
        # normal phase resolved; the g = 2 doublets (roundoff below 1e-14) not
        assert not gm.unresolved[0].any()
        assert gm.unresolved[1].all()

    def test_unresolved_reads_each_sectors_own_precision(self):
        # at 20 levels the two sectors' truncations differ at g = 1.5 and
        # 1.75, so their precisions do; the floor is the larger, in eps
        minus, plus = sectors(40.0, [1.5, 1.75, 2.0], k_max=20)
        assert [m.dim != p.dim for m, p in zip(minus, plus)] == [True, True, False]
        gm = gap_map(minus, plus)
        floor = np.array([max(m.precision, p.precision) for m, p in zip(minus, plus)])
        np.testing.assert_array_equal(
            gm.unresolved, gm.converged & (np.abs(gm.delta) <= floor[:, None] * 2.0 / 40.0))
        assert 0 < np.count_nonzero(gm.unresolved) < gm.unresolved.size

    def test_unconverged_reported_not_raised(self, monkeypatch):
        # cap = 0.4 R g^2 = 64 sites, too few for 32 levels at g = 2
        monkeypatch.setattr(quantum, "_CAP_PER_R", 0.4)
        gm = gap_map(*sectors(40.0, [2.0], k_max=32))
        assert gm.dim[0] == 64
        assert gm.delta.shape == (1, 32)
        assert gm.n_unconverged > 0
        assert not np.all(gm.converged)

    def test_capped_coupling_loses_all_its_doublets(self, monkeypatch):
        # cap = R max(1, g^2): 160 sites at g = 2, too few for the top of 20
        # levels, and 360 at g = 3, enough.  A values-only solve certifies
        # all its levels or none, so g = 2 keeps no doublet (the per-level
        # bound kept 18) while the sweep goes on to g = 3
        monkeypatch.setattr(quantum, "_CAP_PER_R", 1.0)
        gm = gap_map(*sectors(40.0, [2.0, 3.0], k_max=20))
        assert gm.dim[0] == 160
        assert not gm.converged[0].any() and gm.converged[1].all()
        assert gm.n_unconverged == 20

    def test_k_max_validation(self, monkeypatch):
        # the one check, in the certified solve, runs before any chain is built
        calls = []
        monkeypatch.setattr(quantum, "build_parity_chain", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="k_max must be >= 1"):
            gap_map(*sectors(40.0, [1.0], k_max=0))
        assert not calls
