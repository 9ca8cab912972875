"""Unit tests for the parity-chain construction and eigensolver."""

import math
import pickle
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dstebz

from rabi_esqpt import (
    Parity,
    RabiParams,
    TruncationLimitError,
    build_parity_chain,
    converged_levels,
    converged_window,
    diagonalize,
    eigen_observables,
)
from rabi_esqpt import quantum

from oracles import dense_hamiltonian, dense_sector_data, random_params


def slice_vectors(chain, w):
    """Every vector of the chain's levels w, stitched from the solver's
    certified slices on the whole chain (the solver itself holds one slice
    at a time)."""
    return np.hstack([quantum._slice_vectors(chain, w[a:b], a)[0]
                      for a, b in quantum._slices(chain, w)])


def chain_dense(chain):
    m = np.diag(chain.diag)
    m += np.diag(chain.offdiag, k=1) + np.diag(chain.offdiag, k=-1)
    return m


class TestParams:
    def test_derived_quantities(self):
        p = RabiParams(omega0=0.5, Omega=20.0, g=1.2)
        assert p.ratio == 40.0
        assert p.lam == pytest.approx(0.5 * 1.2 * math.sqrt(0.5 * 20.0), rel=1e-15)
        # g round-trips through lam
        assert 2.0 * p.lam / math.sqrt(p.omega0 * p.Omega) == pytest.approx(1.2, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega0=0.0, Omega=40.0, g=1.0),
            dict(omega0=-1.0, Omega=40.0, g=1.0),
            dict(omega0=1.0, Omega=0.0, g=1.0),
            dict(omega0=1.0, Omega=40.0, g=-0.1),
            dict(omega0=1.0, Omega=math.nan, g=1.0),
            dict(omega0=1.0, Omega=math.inf, g=1.0),
            dict(omega0=2.0, Omega=1.0, g=1.0),  # ratio < 1
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RabiParams(**kwargs)

    def test_frozen(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.0)
        with pytest.raises(Exception):
            p.g = 2.0


class TestChain:
    def test_matrix_elements(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.8)
        minus = build_parity_chain(p, Parity.MINUS, 4)
        plus = build_parity_chain(p, Parity.PLUS, 4)
        np.testing.assert_allclose(minus.diag, [-20.0, 21.0, -18.0, 23.0], rtol=0, atol=0)
        np.testing.assert_allclose(plus.diag, [20.0, -19.0, 22.0, -17.0], rtol=0, atol=0)
        lam = p.lam
        np.testing.assert_allclose(
            minus.offdiag, [-lam, -lam * math.sqrt(2), -lam * math.sqrt(3)], rtol=1e-15
        )
        np.testing.assert_allclose(plus.offdiag, minus.offdiag, rtol=0, atol=0)

    def test_spin_signs(self):
        np.testing.assert_array_equal(Parity.MINUS.spin_signs(4), [-1.0, 1.0, -1.0, 1.0])
        np.testing.assert_array_equal(Parity.PLUS.spin_signs(4), [1.0, -1.0, 1.0, -1.0])
        assert Parity.MINUS.label == "minus"
        assert Parity.PLUS.label == "plus"

    def test_rejects_bad_dim(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.0)
        for dim in (0, 1, 2.5):
            with pytest.raises(ValueError):
                build_parity_chain(p, Parity.MINUS, dim)

    def test_matvec_matches_dense(self):
        p = RabiParams(omega0=1.0, Omega=12.0, g=1.3)
        chain = build_parity_chain(p, Parity.PLUS, 9)
        m = chain_dense(chain)
        rng = np.random.default_rng(3)
        block = rng.standard_normal((9, 4))
        np.testing.assert_allclose(chain.matvec(block), m @ block, rtol=1e-13)

    def test_dim_follows_replace(self):
        # dim is the site count, never a field of its own, so a chain cut
        # with replace cannot disagree with its arrays
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.4)
        chain = build_parity_chain(p, Parity.MINUS, 10)
        assert chain.dim == 10
        cut = replace(chain, diag=chain.diag[:4], offdiag=chain.offdiag[:3])
        assert cut.dim == 4
        np.testing.assert_array_equal(cut.matvec(np.eye(4)), chain_dense(chain)[:4, :4])
        with pytest.raises(TypeError):
            replace(chain, dim=4)

    def test_norm_bound_dominates_spectrum(self):
        p = RabiParams(omega0=1.0, Omega=30.0, g=2.0)
        chain = build_parity_chain(p, Parity.MINUS, 40)
        w = np.linalg.eigvalsh(chain_dense(chain))
        assert chain.norm_bound() >= np.max(np.abs(w))


class TestDiagonalize:
    def test_g0_closed_form_both_sectors(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.0)
        for parity, sign in ((Parity.MINUS, -1.0), (Parity.PLUS, 1.0)):
            dim = 64
            chain = build_parity_chain(p, parity, dim)
            w = diagonalize(chain)
            n = np.arange(dim)
            exact = np.sort(p.omega0 * n + sign * ((-1.0) ** n) * 0.5 * p.Omega)
            np.testing.assert_allclose(w, exact, rtol=0, atol=1e-12)
            # sterf on a decoupled chain returns its sorted diagonal exactly
            np.testing.assert_array_equal(w, np.sort(chain.diag))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(20260816)
        for _ in range(8):
            p = random_params(rng)
            dim = 12
            w_dense = np.linalg.eigvalsh(dense_hamiltonian(p, dim))
            w_chain = np.sort(
                np.concatenate(
                    [
                        diagonalize(build_parity_chain(p, parity, dim))
                        for parity in (Parity.MINUS, Parity.PLUS)
                    ]
                )
            )
            scale = np.max(np.abs(w_dense))
            assert np.max(np.abs(w_chain - w_dense)) < 1e-10 * scale

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(g=st.floats(0.0, 2.5), ratio=st.floats(1.0, 60.0),
           omega0=st.floats(0.5, 2.0), dim=st.integers(2, 24))
    @example(g=0.0, ratio=5.0, omega0=1.0, dim=24)  # exact ties: sites n and n - 5
    @example(g=1e-6, ratio=5.0, omega0=1.0, dim=24)  # the same pairs, split by ~1e-18
    @example(g=1e-20, ratio=5.0, omega0=1.0, dim=24)  # the same pairs, coupling below ulp
    @example(g=2.2e-311, ratio=1.0, omega0=1.0, dim=2)  # coupling below ulp, near underflow
    def test_sector_union_is_dense_spectrum(self, g, ratio, omega0, dim):
        p = RabiParams(omega0=omega0, Omega=omega0 * ratio, g=g)
        w_sectors = []
        for parity in (Parity.MINUS, Parity.PLUS):
            chain = build_parity_chain(p, parity, dim)
            w = diagonalize(chain)
            v = slice_vectors(chain, w)
            np.testing.assert_allclose(v.T @ v, np.eye(dim), rtol=0, atol=1e-12)
            res = chain.matvec(v) - w[None, :] * v
            assert np.max(np.linalg.norm(res, axis=0)) <= 1e-9 * chain.norm_bound()
            w_sectors.append(w)
        w_dense = np.linalg.eigvalsh(dense_hamiltonian(p, dim))
        scale = np.max(np.abs(w_dense))
        assert np.max(np.abs(np.sort(np.concatenate(w_sectors)) - w_dense)) < 1e-10 * scale

    def test_interlacing_under_truncation(self):
        # eigenvalues of the dim-d leading submatrix interlace those at d+1
        p = RabiParams(omega0=1.0, Omega=10.0, g=1.7)
        big = diagonalize(build_parity_chain(p, Parity.MINUS, 13))
        small = diagonalize(build_parity_chain(p, Parity.MINUS, 12))
        slack = 1e-12 * np.max(np.abs(big))
        assert np.all(big[:12] <= small + slack)
        assert np.all(small <= big[1:] + slack)

    def test_vectors_orthonormal_and_residuals(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.4)
        chain = build_parity_chain(p, Parity.MINUS, 400)
        w = diagonalize(chain)[:30]
        v = slice_vectors(chain, w)
        assert v.shape == (400, 30)
        np.testing.assert_allclose(v.T @ v, np.eye(30), atol=1e-12)
        res = chain.matvec(v) - w[None, :] * v
        assert np.max(np.linalg.norm(res, axis=0)) < 1e-9 * chain.norm_bound()

    def test_two_site_chain(self):
        # the smallest chain build_parity_chain makes: its vectors match the
        # dense ones up to sign
        p = RabiParams(omega0=1.0, Omega=3.0, g=1.3)
        for parity in Parity:
            chain = build_parity_chain(p, parity, 2)
            w = diagonalize(chain)
            z = slice_vectors(chain, w)
            w_ref, v_ref = np.linalg.eigh(chain_dense(chain))
            np.testing.assert_allclose(w, w_ref, rtol=0, atol=1e-14)
            np.testing.assert_allclose(np.abs(z.T @ v_ref), np.eye(2), rtol=0, atol=1e-14)

    def test_exact_zero_pivot_is_perturbed(self, monkeypatch):
        # at R = 1 the top level of this chain is an eigenvalue of it so
        # exactly that the LU of T - w has a zero last pivot: the solve must
        # still give a finite eigenvector, not divide by zero
        p = RabiParams(omega0=1.0, Omega=1.0, g=float(np.linspace(0.0, 3.0, 31)[23]))
        chain = build_parity_chain(p, Parity.MINUS, 16)
        factor, infos = quantum.dgttrf, []

        def recorded(*args, **kwargs):
            lu = factor(*args, **kwargs)
            infos.append(lu[-1])
            return lu

        monkeypatch.setattr(quantum, "dgttrf", recorded)
        w = diagonalize(chain)
        z, _ = quantum._slice_vectors(chain, w, 0)
        assert infos[-1] == chain.dim and not any(infos[:-1])
        np.testing.assert_allclose(z.T @ z, np.eye(16), rtol=0, atol=1e-12)
        res = chain.matvec(z) - w[None, :] * z
        assert np.max(np.linalg.norm(res, axis=0)) < 1e-9 * chain.norm_bound()

    def test_sliced_vectors_orthonormal_across_slices(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.4)
        chain = build_parity_chain(p, Parity.MINUS, 400)
        w = diagonalize(chain)
        assert len(w) == 400 > 4 * quantum._SLICE
        v = slice_vectors(chain, w)
        np.testing.assert_allclose(v.T @ v, np.eye(400), rtol=0, atol=1e-12)
        res = chain.matvec(v) - w[None, :] * v
        assert np.max(np.linalg.norm(res, axis=0)) < 1e-9 * chain.norm_bound()
        ref = np.linalg.eigvalsh(chain_dense(chain))
        np.testing.assert_allclose(w, ref, rtol=0, atol=1e-11)

    def test_tied_levels_share_a_slice(self, monkeypatch):
        # at odd R the g = 0 towers tie exactly (site n and n - R); at tiny g
        # they stay tied to ~1e-11 inside one block, where only a shared
        # slice, whose solve projects each tie off the other, keeps the pair
        # orthogonal
        monkeypatch.setattr(quantum, "_SLICE", 1)
        p0 = RabiParams(omega0=1.0, Omega=41.0, g=0.0)
        chain = build_parity_chain(p0, Parity.MINUS, 300)
        w = diagonalize(chain)
        assert np.count_nonzero(np.diff(w) == 0.0) > 100
        v = slice_vectors(chain, w)
        # each level is a distinct chain site: a permutation of unit vectors
        sites = np.argmax(np.abs(v), axis=0)
        assert sorted(sites) == list(range(300))
        np.testing.assert_array_equal(np.abs(v), np.eye(300)[:, sites])
        np.testing.assert_array_equal(chain.diag[sites], w)

        p = RabiParams(omega0=1.0, Omega=41.0, g=1e-6)
        chain = build_parity_chain(p, Parity.MINUS, 300)
        w = diagonalize(chain)
        assert np.min(np.diff(w)) < 1e-10
        v = slice_vectors(chain, w)
        np.testing.assert_allclose(v.T @ v, np.eye(300), rtol=0, atol=1e-12)

    def test_vector_solve_memory_is_the_output(self):
        # the README observables window at R = 1000: each slice of vectors
        # is reduced and dropped on arrival, so one dim x _SLICE block and
        # O(dim) work arrays live at a time, never a dim x k block (11.7 MB
        # here), an n x n workspace or a second slice (measured: 1.2
        # blocks)
        p = RabiParams(omega0=1.0, Omega=1000.0, g=1.4)
        tracemalloc.start()
        try:
            dim, spec = converged_window(p, Parity.MINUS, eps_max=0.052,
                                         with_observables=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = len(spec)
        assert k > 500 and spec.observables.n_phot.shape == (k,)
        assert peak < 1.6 * dim * quantum._SLICE * 8
        assert peak < dim * k * 8 / 5

    def test_doublets_below_critical_energy(self):
        # broken phase: parity partners degenerate far below eps = -1
        p = RabiParams(omega0=1.0, Omega=40.0, g=2.0)
        specs = {
            parity: converged_levels(p, parity, k_max=10)
            for parity in (Parity.MINUS, Parity.PLUS)
        }
        gap = np.abs(specs[Parity.MINUS].eps - specs[Parity.PLUS].eps)
        assert np.all(specs[Parity.MINUS].eps < -1.3)  # all well inside the wells
        assert np.max(gap) < 1e-10

    def test_ground_state_near_classical_limit(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=2.0)
        spec = converged_levels(p, Parity.MINUS, k_max=1)
        eps_cls = -0.5 * (2.0**2 + 2.0**-2)
        assert abs(spec.eps[0] - eps_cls) < 2.0 / p.ratio


class TestConvergedWindow:
    def test_g0_level_count_and_values(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.0)
        dim_m, minus = converged_window(p, Parity.MINUS, eps_max=0.0)
        dim_p, plus = converged_window(p, Parity.PLUS, eps_max=0.0)
        # minus sector: eps_n = n/20 - 1 for even n <= 20
        assert minus.n_converged == 11
        np.testing.assert_allclose(minus.eps, np.arange(0, 21, 2) / 20.0 - 1.0, atol=1e-13)
        # plus sector: eps_n = n/20 - 1 for odd n <= 19
        assert plus.n_converged == 10
        np.testing.assert_allclose(plus.eps, np.arange(1, 20, 2) / 20.0 - 1.0, atol=1e-13)
        assert minus.dim == dim_m and plus.dim == dim_p

    def test_empty_window(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.0)
        _, spec = converged_window(p, Parity.MINUS, eps_max=-2.0)
        assert spec.n_converged == 0 and len(spec) == 0

    def test_agrees_with_converged_levels(self):
        p = RabiParams(omega0=1.0, Omega=60.0, g=1.2)
        _, win = converged_window(p, Parity.MINUS, eps_max=-0.5)
        lev = converged_levels(p, Parity.MINUS, k_max=win.n_converged)
        np.testing.assert_allclose(win.energies, lev.energies, atol=1e-7)

    def test_truncation_cap_raises(self, monkeypatch):
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.2)
        # cap = ceil(0.2 R g^2) = ceil(11.52) = 12
        monkeypatch.setattr(quantum, "_CAP_PER_R", 0.2)
        with pytest.raises(TruncationLimitError) as err:
            converged_window(p, Parity.MINUS, eps_max=0.0, with_observables=True)
        # the spectrum of the solve at the cap, which alone says its truncation
        spec = err.value.spectrum
        assert spec.dim == 12 and spec.n_converged < len(spec)
        # the error bound is the residual of the zero-padded vector on a longer chain
        longer = build_parity_chain(p, Parity.MINUS, 17)
        padded = np.zeros((17, len(spec)))
        padded[:12] = slice_vectors(build_parity_chain(p, Parity.MINUS, 12), spec.energies)
        res = np.linalg.norm(longer.matvec(padded) - spec.energies * padded, axis=0)
        np.testing.assert_allclose(res, spec.error_bound, rtol=1e-9)

    @pytest.mark.parametrize("k_max, message", [
        (201, "k_max=201 levels exceed the dim cap 200"),
        (0, "k_max must be >= 1"),
        (-3, "k_max must be >= 1"),
    ])
    def test_bad_level_counts_fail_before_any_chain(self, k_max, message, monkeypatch):
        # k_max sites at the least: past the cap the chain would outgrow it
        p = RabiParams(omega0=1.0, Omega=1.0, g=0.5)  # cap = 200
        calls = []
        monkeypatch.setattr(quantum, "build_parity_chain", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match=message):
            converged_levels(p, Parity.MINUS, k_max=k_max)
        assert not calls

    def test_tol_validation(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.0)
        with pytest.raises(ValueError):
            converged_window(p, Parity.MINUS, eps_max=0.0, tol=0.0)
        with pytest.raises(ValueError):
            converged_levels(p, Parity.MINUS, k_max=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        # every tail < NaN is false: unchecked, a NaN tol regrows to the
        # truncation cap before it fails
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.2)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            converged_window(p, Parity.MINUS, eps_max=0.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            converged_levels(p, Parity.PLUS, k_max=5, tol=tol)

    @pytest.mark.parametrize("eps_max", [math.nan, math.inf])
    def test_eps_max_must_be_finite(self, eps_max):
        # unchecked, the start truncation sized to eps_max fails to convert
        # to an integer with an error that does not name eps_max
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.2)
        with pytest.raises(ValueError, match="eps_max must be finite"):
            converged_window(p, Parity.MINUS, eps_max=eps_max)

    @pytest.mark.parametrize("with_observables", [False, True])
    def test_tol_below_the_start_chain_precision_fails_before_any_solve(
            self, with_observables, monkeypatch):
        # no truncation certifies below the chain's precision, so a tol just
        # under it at the start dim raises at once, and 10x that certifies
        p = RabiParams(omega0=0.5, Omega=20.0, g=1.2)
        dim = quantum._orbit_dim(p, -0.5)
        precision = build_parity_chain(p, Parity.MINUS, dim).precision()
        built, solved = [], []
        build, solve = quantum.build_parity_chain, quantum.diagonalize
        monkeypatch.setattr(quantum, "build_parity_chain",
                            lambda *a: built.append(a[2]) or build(*a))
        monkeypatch.setattr(quantum, "diagonalize", lambda c: solved.append(c.dim) or solve(c))
        message = (f"tol={0.99 * precision / p.omega0:g} is at or below the eigenvalue "
                   f"precision {precision / p.omega0:.3e} omega0 of the dim {dim} chain")
        with pytest.raises(ValueError, match=re.escape(message)):
            converged_window(p, Parity.MINUS, eps_max=-0.5, tol=0.99 * precision / p.omega0,
                             with_observables=with_observables)
        assert built == [dim] and not solved
        tol = 10.0 * precision / p.omega0
        _, spec = converged_window(p, Parity.MINUS, eps_max=-0.5, tol=tol,
                                   with_observables=with_observables)
        assert spec.n_converged == len(spec) > 10
        assert np.all(spec.error_bound < tol * p.omega0)

    def test_values_only_bound_holds_the_chain_precision(self):
        # without vectors the in-chain term is the chain's precision, so no
        # level's bound is below it, however small its tail
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.2)
        spec = converged_levels(p, Parity.PLUS, k_max=5)
        precision = build_parity_chain(p, Parity.PLUS, spec.dim).precision()
        assert np.all(spec.error_bound >= precision)
        np.testing.assert_allclose(spec.error_bound, precision, rtol=1e-6)

    @pytest.mark.parametrize("ratio, g, dims", [(40.0, 1.4, [64, 128]),
                                                 (200.0, 1.2, [78, 156])])
    def test_levels_grow_past_failed_certificate(self, ratio, g, dims, monkeypatch):
        # the ground level in a shallow well: at its orbit plus 12 Airy
        # widths (64 sites at the least) its vector's tail term is still
        # above tol (2e-8 at R = 40 and 1e-2 at R = 200), so the
        # certificate fails and the solve regrows once, to twice the dim
        p = RabiParams(omega0=1.0, Omega=ratio, g=g)
        tol = 1e-8
        solved = []
        solve = quantum.diagonalize
        monkeypatch.setattr(quantum, "diagonalize", lambda c: solved.append(c.dim) or solve(c))
        spec = converged_levels(p, Parity.MINUS, k_max=1, tol=tol)
        assert solved == dims and spec.dim == dims[-1]
        assert spec.n_converged == 1
        ref = diagonalize(build_parity_chain(p, Parity.MINUS, 4 * spec.dim))[:1]
        np.testing.assert_allclose(spec.energies, ref, rtol=0, atol=tol)

    def test_window_reports_error_bounds(self):
        p = RabiParams(omega0=1.0, Omega=60.0, g=1.4)
        tol = 1e-8
        dim, spec = converged_window(p, Parity.PLUS, eps_max=-0.5, tol=tol,
                                     with_observables=True)
        assert spec.n_converged == len(spec) > 0
        assert spec.error_bound.shape == (len(spec),)
        assert np.all(spec.error_bound < tol * p.omega0)
        assert spec.dim == dim and spec.observables.n_phot.shape == (len(spec),)


class TestLevelsProbe:
    """converged_levels sizes its one solve from the probe chain's k-th
    Ritz value, bisected by stebz; sterf gives every reported level."""

    def test_readme_sweep_solves_once_per_sector(self, monkeypatch):
        # the README spectrum and gapmap sweep: 61 couplings x 2 parities
        solved = []
        solve = quantum.diagonalize
        monkeypatch.setattr(quantum, "diagonalize", lambda c: solved.append(c.dim) or solve(c))
        for g in np.linspace(0.0, 3.0, 61):
            p = RabiParams(omega0=1.0, Omega=40.0, g=float(g))
            for parity in Parity:
                assert converged_levels(p, parity, k_max=20).n_converged == 20
        assert len(solved) == 122

    @pytest.mark.parametrize("ratio", [4.0, 40.0, 200.0])
    def test_probe_ritz_value_bounds_the_level_from_above(self, ratio, monkeypatch):
        # Cauchy interlacing: the probe is a leading block of the untruncated
        # chain, so its k-th Ritz value lies at or above the true k-th level
        ritz = []
        stebz = quantum.dstebz

        def recorded(*args):
            out = stebz(*args)
            ritz.append(out[1][0])
            return out

        monkeypatch.setattr(quantum, "dstebz", recorded)
        tol = 1e-8
        for g in np.linspace(0.0, 3.0, 16):
            p = RabiParams(omega0=1.0, Omega=ratio, g=float(g))
            for parity in Parity:
                specs = []
                for k_max in (1, 5, 20, 40):
                    ritz.clear()
                    spec = converged_levels(p, parity, k_max=k_max, tol=tol)
                    case = (ratio, float(g), parity.label, k_max)
                    assert len(ritz) == 1 and ritz[0] >= spec.energies[-1] - tol, case
                    specs.append(spec)
                # one reference per sector, at 4x the longest chain: its
                # lowest 40 levels by bisection, an oracle independent of
                # sterf and 8x cheaper than it at R = 200
                chain = build_parity_chain(p, parity, 4 * max(s.dim for s in specs))
                _, ref, _, _, info = dstebz(chain.diag, chain.offdiag, 2, 0.0, 0.0, 1, 40,
                                            0.0, "E")
                assert info == 0
                for spec in specs:
                    np.testing.assert_allclose(spec.energies, ref[:len(spec)], rtol=0, atol=tol,
                                               err_msg=str((ratio, float(g), parity.label)))


def _exact_last_components(chain, k_max):
    w = diagonalize(chain)[:k_max]
    return w, np.abs(slice_vectors(chain, w)[-1])


class TestTailBound:
    @pytest.mark.parametrize("ratio", [1.0, 4.0, 40.0, 200.0])
    def test_bounds_the_last_component(self, ratio):
        # the pivot bound is a bound on every level, and the top level's
        # bound, the one that sizes a regrow, is within 10x of the exact value
        for g in np.linspace(0.0, 3.0, 31):
            p = RabiParams(omega0=1.0, Omega=ratio, g=float(g))
            for dim in (16, 64, 128, 256):
                for parity in Parity:
                    chain = build_parity_chain(p, parity, dim)
                    w, exact = _exact_last_components(chain, min(20, dim))
                    bound = quantum._tail_bound(chain, w)
                    case = (ratio, float(g), dim, parity.label)
                    assert np.all(bound >= exact - 1e-14), case
                    if exact[-1] > 1e-12:
                        assert bound[-1] <= 10.0 * exact[-1], case

    def test_orbit_cut_keeps_the_unstable_region_out(self):
        # R = 200, g = 2 at dim 128: the pivots stay positive far inward, but
        # past the chain's last few Airy widths the backward recurrence runs
        # where v decays toward site 0 and would bound the tail by ~1e-18
        p = RabiParams(omega0=1.0, Omega=200.0, g=2.0)
        chain = build_parity_chain(p, Parity.MINUS, 128)
        w, exact = _exact_last_components(chain, 1)
        assert exact[0] > 0.03
        bound = quantum._tail_bound(chain, w)
        assert exact[0] <= bound[0] <= 10.0 * exact[0]

    def test_empty_window_and_decoupled_chain(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.2)
        chain = build_parity_chain(p, Parity.MINUS, 64)
        assert quantum._tail_bound(chain, np.empty(0)).shape == (0,)
        # g = 0: every level off the last site has v[dim-1] = 0 exactly
        chain = build_parity_chain(RabiParams(omega0=1.0, Omega=40.0, g=0.0), Parity.PLUS, 64)
        w = diagonalize(chain)[:20]
        np.testing.assert_array_equal(quantum._tail_bound(chain, w), np.zeros(20))


class TestValuesOnlySolve:
    # the README windows at R = 1000: --eps-max 0 plus the CLI's 0.05 + 2/R pad
    EPS_MAX = 0.052

    def test_no_eigenvector_is_computed(self, monkeypatch):
        def no_vectors(*args, **kwargs):
            raise AssertionError("a values-only solve called inverse iteration")

        for name in ("_inverse_iteration", "dgttrf", "dgttrs"):
            monkeypatch.setattr(quantum, name, no_vectors)
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.4)
        _, win = converged_window(p, Parity.MINUS, eps_max=-0.5)
        assert win.vectors is None and win.observables is None
        assert win.n_converged == len(win) > 0
        lev = converged_levels(p, Parity.PLUS, k_max=20)
        assert lev.vectors is None and lev.n_converged == 20

    @pytest.mark.parametrize("g", [1.2, 1.4])
    def test_readme_windows_solve_once_per_sector(self, g, monkeypatch):
        calls = []
        solve = quantum.diagonalize

        def counted(chain, **kwargs):
            calls.append(chain.dim)
            return solve(chain, **kwargs)

        monkeypatch.setattr(quantum, "diagonalize", counted)
        p = RabiParams(omega0=1.0, Omega=1000.0, g=g)
        for parity in Parity:
            calls.clear()
            _, spec = converged_window(p, parity, eps_max=self.EPS_MAX)
            assert len(calls) == 1, (parity, calls)
            assert spec.n_converged == len(spec) > 500

    def test_memory_is_far_below_one_vector_block(self):
        # a vector solve of this window holds a dim x k float64 block (7.5
        # MB); values only, the solve holds O(dim) floats and one block of
        # _SLICE levels' tail pivots (measured: 0.3 MB)
        p = RabiParams(omega0=1.0, Omega=1000.0, g=1.2)
        tracemalloc.start()
        try:
            dim, spec = converged_window(p, Parity.MINUS, eps_max=self.EPS_MAX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spec) > 500
        assert peak < dim * len(spec) * 8 / 10


class TestObservables:
    def test_requires_vectors(self):
        # observables come only from the vector solve: a values-only window
        # has none
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.0)
        _, spec = converged_window(p, Parity.MINUS, eps_max=-0.5)
        assert spec.observables is None
        _, spec = converged_window(p, Parity.MINUS, eps_max=-0.5, with_observables=True)
        assert spec.observables.n_phot.shape == (len(spec),)

    def test_g0_site_diagnostics(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.0)
        for parity in (Parity.MINUS, Parity.PLUS):
            dim = 40
            chain = build_parity_chain(p, parity, dim)
            w = diagonalize(chain)
            n_phot, sz, p_loc = eigen_observables(parity, slice_vectors(chain, w))
            # level k lives on the chain site that sorts to position k
            sites = np.argsort(chain.diag, kind="stable")
            np.testing.assert_allclose(n_phot, sites.astype(float), atol=1e-12)
            np.testing.assert_allclose(sz, parity.spin_signs(dim)[sites], atol=1e-12)
            loc_site = 0 if parity is Parity.MINUS else 1
            np.testing.assert_allclose(p_loc, (sites == loc_site).astype(float), atol=1e-12)

    def test_matches_dense_oracle(self):
        p = RabiParams(omega0=1.0, Omega=20.0, g=1.2)
        k = 15
        dim = 220
        dense = dense_sector_data(p, dim)
        for parity in (Parity.MINUS, Parity.PLUS):
            chain = build_parity_chain(p, parity, dim)
            w = diagonalize(chain)[:k]
            n_phot, sz, p_loc = eigen_observables(parity, slice_vectors(chain, w))
            w_ref, n_ref, sz_ref, p_ref = dense[parity]
            np.testing.assert_allclose(w, w_ref[:k], atol=1e-10)
            np.testing.assert_allclose(n_phot, n_ref[:k], atol=1e-9)
            np.testing.assert_allclose(sz, sz_ref[:k], atol=1e-9)
            np.testing.assert_allclose(p_loc, p_ref[:k], atol=1e-9)


def _corrupt_level_3(monkeypatch, on_chain=lambda dim: True):
    # the second gttrs solve of level 3 in each slice, on chains whose dim
    # passes on_chain, comes back rolled by 7 sites: normalized, yet no
    # eigenvector, so the residual the solve measures must fail it.
    # Returns the dim of each chain corrupted
    iterate, solve = quantum._inverse_iteration, quantum.dgttrs
    state, corrupted = {}, []

    def iterating(chain, w):
        state.update(solves=0, dim=chain.dim)
        return iterate(chain, w)

    def solving(*args, **kwargs):
        x, info = solve(*args, **kwargs)
        state["solves"] += 1
        if state["solves"] == 8 and on_chain(state["dim"]):
            x[:-1] = np.roll(x[:-1], 7)  # the last site borders the chain
            corrupted.append(state["dim"])
        return x, info

    monkeypatch.setattr(quantum, "_inverse_iteration", iterating)
    monkeypatch.setattr(quantum, "dgttrs", solving)
    return corrupted


def _record_slice_chains(monkeypatch):
    # the site count of every chain a slice's vectors are computed on
    dims = []
    solve = quantum._slice_vectors

    def recorded(chain, w, first):
        dims.append(chain.dim)
        return solve(chain, w, first)

    monkeypatch.setattr(quantum, "_slice_vectors", recorded)
    return dims


class TestStreamedObservables:
    # the README windows: --eps-max 0 plus the CLI's 0.05 + 2/R pad
    EPS_MAX = 0.052

    @pytest.mark.parametrize("ratio", [200.0, 1000.0])
    @pytest.mark.parametrize("parity", list(Parity))
    def test_cut_chains_match_the_full_chain(self, ratio, parity, monkeypatch):
        # each slice runs on its own cut chain, yet every level certifies
        # and its observables are those of the window chain's vectors
        p = RabiParams(omega0=1.0, Omega=ratio, g=1.4)
        tol = 1e-8
        dims = _record_slice_chains(monkeypatch)
        dim, spec = converged_window(p, parity, eps_max=self.EPS_MAX, tol=tol,
                                     with_observables=True)
        assert min(dims) < dim  # the low slices ran on cut chains
        assert spec.n_converged == len(spec) > 100
        assert np.all(spec.error_bound < tol * p.omega0)
        chain = build_parity_chain(p, parity, dim)
        n_phot, sz, p_loc = eigen_observables(parity, slice_vectors(chain, spec.energies))
        obs = spec.observables
        np.testing.assert_allclose(obs.n_phot, n_phot, rtol=1e-12, atol=0)
        np.testing.assert_allclose(obs.sz, sz, rtol=0, atol=1e-12)
        np.testing.assert_allclose(obs.p_loc, p_loc, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [75, 85, 95])
    def test_cut_chain_certificate_is_the_padded_residual(self, d):
        # a level's value w comes from the long chain and its vector z from
        # the first d sites: the certificate must be the whole residual of
        # (w, [z; 0]) on the long chain, in-chain part and cut-off tail both
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.4)
        chain = build_parity_chain(p, Parity.MINUS, 200)
        w = diagonalize(chain)[:10]
        cut = build_parity_chain(p, Parity.MINUS, d)
        z, res = quantum._slice_vectors(cut, w, 0)
        padded = np.zeros((chain.dim, len(w)))
        padded[:d] = z
        full = np.linalg.norm(chain.matvec(padded) - w * padded, axis=0)
        np.testing.assert_allclose(res, full, rtol=1e-12, atol=0)

    def test_bad_vector_on_the_cut_chain_is_solved_again_on_the_window(self, monkeypatch):
        # a vector that is no eigenvector fails the certificate like any
        # other: its slice is solved again on the whole window chain, whose
        # observables match the uncorrupted solve
        p = RabiParams(omega0=1.0, Omega=200.0, g=1.4)
        _, ref = converged_window(p, Parity.MINUS, eps_max=self.EPS_MAX, with_observables=True)
        corrupted = _corrupt_level_3(monkeypatch, on_chain=lambda dim: dim < ref.dim)
        # cap ceil(2 R g^2) = 784, above the window: a missed fallback fails fast
        monkeypatch.setattr(quantum, "_CAP_PER_R", 2.0)
        dims = _record_slice_chains(monkeypatch)
        dim, spec = converged_window(p, Parity.MINUS, eps_max=self.EPS_MAX,
                                     with_observables=True)
        assert dim == ref.dim and corrupted
        # every corrupted cut-chain slice was followed by a window-chain solve
        assert dims.count(dim) == len(list(quantum._slices(
            build_parity_chain(p, Parity.MINUS, dim), spec.energies)))
        assert spec.n_converged == len(spec) == len(ref)
        assert np.all(spec.error_bound < 1e-8 * p.omega0)
        for name in ("n_phot", "sz", "p_loc"):
            np.testing.assert_allclose(getattr(spec.observables, name),
                                       getattr(ref.observables, name), rtol=1e-12, atol=1e-12)

    def test_truncation_limit_error_pickles_with_its_spectrum(self, monkeypatch):
        # the CLI's forked window solve sends its exception back pickled
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.2)
        monkeypatch.setattr(quantum, "_CAP_PER_R", 0.2)
        with pytest.raises(TruncationLimitError) as err:
            converged_window(p, Parity.MINUS, eps_max=0.0, with_observables=True)
        copy = pickle.loads(pickle.dumps(err.value))
        assert type(copy) is TruncationLimitError and copy.args == err.value.args
        spec, back = err.value.spectrum, copy.spectrum
        assert (back.params, back.parity, back.dim, back.n_converged) == (
            spec.params, spec.parity, spec.dim, spec.n_converged)
        arrays = [(getattr(spec, name), getattr(back, name))
                  for name in ("energies", "eps", "error_bound")]
        arrays += [(getattr(spec.observables, name), getattr(back.observables, name))
                   for name in ("n_phot", "sz", "p_loc")]
        for a, b in arrays:
            np.testing.assert_array_equal(b, a)
            assert not b.flags.writeable  # read-only, like the original

    def test_bad_vector_on_every_chain_is_never_certified(self, monkeypatch):
        # corrupted on every call, level 3 of the first slice never certifies,
        # so the window regrows to the cap and the solve reports levels 0-2
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.4)
        monkeypatch.setattr(quantum, "_CAP_PER_R", 5.0)  # cap ceil(5 R g^2) = 392
        dims = _corrupt_level_3(monkeypatch)
        with pytest.raises(TruncationLimitError) as err:
            converged_window(p, Parity.MINUS, eps_max=self.EPS_MAX, with_observables=True)
        spec = err.value.spectrum
        assert spec.dim == max(dims) == 392 and len(set(dims)) > 2
        assert spec.n_converged == 3 and spec.error_bound[3] >= 1e-8 * p.omega0

    def test_short_pad_falls_back_to_the_window_chain(self, monkeypatch):
        # at the window's own 12 Airy widths the top levels of some slices
        # leave cut-chain residuals near 1e-6: those slices must be solved
        # again on the whole window chain, still one slice of vectors at a
        # time, and still certify
        p = RabiParams(omega0=1.0, Omega=1000.0, g=1.4)
        tol = 1e-8
        _, ref = converged_window(p, Parity.MINUS, eps_max=self.EPS_MAX, tol=tol,
                                  with_observables=True)
        monkeypatch.setattr(quantum, "_SLICE_PAD", quantum._AIRY_PAD)
        dims = _record_slice_chains(monkeypatch)
        tracemalloc.start()
        try:
            dim, spec = converged_window(p, Parity.MINUS, eps_max=self.EPS_MAX, tol=tol,
                                         with_observables=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dim == ref.dim
        # the cut chain's vectors are dropped before the window chain's arrive
        assert peak < 1.6 * dim * quantum._SLICE * 8
        n_cut = sum(d < dim for d in dims)
        n_slices = len(list(quantum._slices(build_parity_chain(p, Parity.MINUS, dim),
                                            spec.energies)))
        # more chains than slices: some slices were solved twice
        assert n_slices < len(dims) and n_cut > 0
        assert spec.n_converged == len(spec)
        assert np.all(spec.error_bound < tol * p.omega0)
        np.testing.assert_allclose(spec.observables.n_phot, ref.observables.n_phot,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(spec.observables.sz, ref.observables.sz,
                                   rtol=0, atol=1e-12)
