"""Unit tests for the parity-chain construction and eigensolver."""

import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

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
    converged_sectors,
    converged_spectrum,
    diagonalize,
    eigen_observables,
    windowed_dos,
)
from rabi_esqpt import quantum

from oracles import dense_hamiltonian, dense_sector_data, random_params

SRC = str(Path(__file__).resolve().parents[1] / "src")


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

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(ratio=st.floats(1.0, 1e4), g=st.floats(0.0, 3.0), parity=st.sampled_from(Parity),
           dims=st.lists(st.integers(2, 600), min_size=2, max_size=2).map(sorted))
    def test_leading_sites_are_the_shorter_chain(self, ratio, g, parity, dims):
        # each site's entries depend on its index alone, so a solve may take
        # its chain as the leading sites of its probe, bit for bit
        d, dim = dims
        p = RabiParams(omega0=1.0, Omega=ratio, g=g)
        chain = build_parity_chain(p, parity, dim)
        cut = replace(chain, diag=chain.diag[:d], offdiag=chain.offdiag[:d - 1])
        short = build_parity_chain(p, parity, d)
        assert short == cut
        assert short.diag.tobytes() == cut.diag.tobytes()
        assert short.offdiag.tobytes() == cut.offdiag.tobytes()

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
            spec = converged_spectrum(p, Parity.MINUS, eps_max=0.052,
                                      with_observables=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = len(spec)
        assert k > 500 and spec.observables.n_phot.shape == (k,)
        assert peak < 1.6 * spec.dim * quantum._SLICE * 8
        assert peak < spec.dim * k * 8 / 5

    def test_start_vector_is_splitmix64_of_the_site_index(self):
        # the reference: splitmix64 in Python integers, seeded at 0, its
        # top 53 bits mapped to [-1, 1)
        mask, state, ref = 2**64 - 1, 0, []
        for _ in range(1000):
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            ref.append(((z ^ (z >> 31)) >> 11) * 2.0**-52 - 1.0)
        start = quantum._start_vector(1000)
        np.testing.assert_array_equal(start, ref)
        np.testing.assert_array_equal(quantum._start_vector(10), start[:10])
        assert -1.0 <= start.min() and start.max() < 1.0

    def test_vectors_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS runs a level-1 call above 10^4 sites on its thread pool,
        # whose partial sums round differently; the loop makes no BLAS call,
        # so one thread and two give the same bytes.  The levels lie near
        # eps = -0.3, whose vectors spread over about 7000 sites, so every half of
        # a split sum carries weight.  Fresh interpreters, since OpenBLAS
        # reads its thread count when numpy loads
        code = (
            "import hashlib\n"
            "from rabi_esqpt import quantum\n"
            "p = quantum.RabiParams(omega0=1.0, Omega=4000.0, g=1.4)\n"
            "chain = quantum.build_parity_chain(p, quantum.Parity.MINUS, 12000)\n"
            "m, w, _, _, info = quantum.dstebz(chain.diag, chain.offdiag, 2, 0.0, 0.0,\n"
            "                                  2001, 2008, 0.0, 'E')\n"
            "assert m == 8 and not info\n"
            "z, res = quantum._inverse_iteration(chain, w[:m])\n"
            "print(hashlib.sha256(z.tobytes() + res.tobytes()).hexdigest())\n"
        )
        runs = [subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True,
                                 env={**os.environ, "PYTHONPATH": SRC,
                                      "OPENBLAS_NUM_THREADS": threads})
                for threads in ("1", "2")]
        outs = [run.communicate(timeout=60) for run in runs]
        assert [run.returncode for run in runs] == [0, 0], [err for _, err in outs]
        (one, _), (two, _) = outs
        assert one == two

    def test_doublets_below_critical_energy(self):
        # broken phase: parity partners degenerate far below eps = -1
        p = RabiParams(omega0=1.0, Omega=40.0, g=2.0)
        specs = {
            parity: converged_spectrum(p, parity, k_max=10)
            for parity in (Parity.MINUS, Parity.PLUS)
        }
        gap = np.abs(specs[Parity.MINUS].eps - specs[Parity.PLUS].eps)
        assert np.all(specs[Parity.MINUS].eps < -1.3)  # all well inside the wells
        assert np.max(gap) < 1e-10

    def test_ground_state_near_classical_limit(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=2.0)
        spec = converged_spectrum(p, Parity.MINUS, k_max=1)
        eps_cls = -0.5 * (2.0**2 + 2.0**-2)
        assert abs(spec.eps[0] - eps_cls) < 2.0 / p.ratio


class TestConvergedWindow:
    def test_g0_level_count_and_values(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.0)
        minus = converged_spectrum(p, Parity.MINUS, eps_max=0.0)
        plus = converged_spectrum(p, Parity.PLUS, eps_max=0.0)
        # minus sector: eps_n = n/20 - 1 for even n <= 20
        assert minus.n_converged == 11
        np.testing.assert_allclose(minus.eps, np.arange(0, 21, 2) / 20.0 - 1.0, atol=1e-13)
        # plus sector: eps_n = n/20 - 1 for odd n <= 19
        assert plus.n_converged == 10
        np.testing.assert_allclose(plus.eps, np.arange(1, 20, 2) / 20.0 - 1.0, atol=1e-13)

    def test_empty_window(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.0)
        spec = converged_spectrum(p, Parity.MINUS, eps_max=-2.0)
        assert spec.n_converged == 0 and len(spec) == 0

    def test_agrees_with_the_count_solve(self):
        p = RabiParams(omega0=1.0, Omega=60.0, g=1.2)
        win = converged_spectrum(p, Parity.MINUS, eps_max=-0.5)
        lev = converged_spectrum(p, Parity.MINUS, k_max=win.n_converged)
        np.testing.assert_allclose(win.energies, lev.energies, atol=1e-7)

    def test_truncation_cap_raises(self, monkeypatch):
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.2)
        # cap = ceil(0.2 R g^2) = ceil(11.52) = 12
        monkeypatch.setattr(quantum, "_CAP_PER_R", 0.2)
        with pytest.raises(TruncationLimitError) as err:
            converged_spectrum(p, Parity.MINUS, eps_max=0.0, with_observables=True)
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
            converged_spectrum(p, Parity.MINUS, k_max=k_max)
        assert not calls

    def test_tol_validation(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.0)
        with pytest.raises(ValueError):
            converged_spectrum(p, Parity.MINUS, eps_max=0.0, tol=0.0)
        with pytest.raises(ValueError):
            converged_spectrum(p, Parity.MINUS, k_max=0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        # every tail < NaN is false: unchecked, a NaN tol regrows to the
        # truncation cap before it fails
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.2)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            converged_spectrum(p, Parity.MINUS, eps_max=0.0, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            converged_spectrum(p, Parity.PLUS, k_max=5, tol=tol)

    @pytest.mark.parametrize("eps_max", [math.nan, math.inf])
    def test_eps_max_must_be_finite(self, eps_max):
        # unchecked, the start truncation sized to eps_max fails to convert
        # to an integer with an error that does not name eps_max
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.2)
        with pytest.raises(ValueError, match="eps_max must be finite"):
            converged_spectrum(p, Parity.MINUS, eps_max=eps_max)

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
            converged_spectrum(p, Parity.MINUS, eps_max=-0.5, tol=0.99 * precision / p.omega0,
                               with_observables=with_observables)
        assert built == [dim] and not solved
        tol = 10.0 * precision / p.omega0
        spec = converged_spectrum(p, Parity.MINUS, eps_max=-0.5, tol=tol,
                                  with_observables=with_observables)
        assert spec.n_converged == len(spec) > 10
        assert np.all(spec.error_bound < tol * p.omega0)

    def test_values_only_bound_holds_the_chain_precision(self):
        # without vectors the in-chain term is the chain's precision, so no
        # level's bound is below it, however small its tail
        p = RabiParams(omega0=1.0, Omega=40.0, g=0.2)
        spec = converged_spectrum(p, Parity.PLUS, k_max=5)
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
        spec = converged_spectrum(p, Parity.MINUS, k_max=1, tol=tol)
        assert solved == dims and spec.dim == dims[-1]
        assert spec.n_converged == 1
        ref = diagonalize(build_parity_chain(p, Parity.MINUS, 4 * spec.dim))[:1]
        np.testing.assert_allclose(spec.energies, ref, rtol=0, atol=tol)

    def test_window_reports_error_bounds(self):
        p = RabiParams(omega0=1.0, Omega=60.0, g=1.4)
        tol = 1e-8
        spec = converged_spectrum(p, Parity.PLUS, eps_max=-0.5, tol=tol,
                                  with_observables=True)
        assert spec.n_converged == len(spec) > 0
        assert spec.error_bound.shape == (len(spec),)
        assert np.all(spec.error_bound < tol * p.omega0)
        assert spec.observables.n_phot.shape == (len(spec),)


class TestLevelsProbe:
    """A count solve sizes its one solve from the probe chain's k-th
    Ritz value, bisected by stebz; sterf gives every reported level."""

    def test_readme_sweep_solves_once_per_sector(self, monkeypatch):
        # the README spectrum and gapmap sweep: 61 couplings x 2 parities
        solved = []
        solve = quantum.diagonalize
        monkeypatch.setattr(quantum, "diagonalize", lambda c: solved.append(c.dim) or solve(c))
        for g in np.linspace(0.0, 3.0, 61):
            p = RabiParams(omega0=1.0, Omega=40.0, g=float(g))
            for parity in Parity:
                assert converged_spectrum(p, parity, k_max=20).n_converged == 20
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
                    spec = converged_spectrum(p, parity, k_max=k_max, tol=tol)
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
        win = converged_spectrum(p, Parity.MINUS, eps_max=-0.5)
        assert win.observables is None
        assert win.n_converged == len(win) > 0
        lev = converged_spectrum(p, Parity.PLUS, k_max=20)
        assert lev.n_converged == 20

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
            spec = converged_spectrum(p, parity, eps_max=self.EPS_MAX)
            assert len(calls) == 1, (parity, calls)
            assert spec.n_converged == len(spec) > 500

    def test_memory_is_far_below_one_vector_block(self):
        # a vector solve of this window holds a dim x k float64 block (7.5
        # MB); values only, the solve holds O(dim) floats: the chain, its
        # levels and one pass of tail pivots at the top level (measured:
        # 0.07 MB)
        p = RabiParams(omega0=1.0, Omega=1000.0, g=1.2)
        tracemalloc.start()
        try:
            spec = converged_spectrum(p, Parity.MINUS, eps_max=self.EPS_MAX)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spec) > 500
        assert peak < spec.dim * len(spec) * 8 / 10


class TestOnePivotPass:
    """A values-only solve makes one backward-pivot pass, at its top level,
    and that pass bounds every level below it: all of them certify, or none."""

    @pytest.mark.parametrize("solve, n_levels", [
        (lambda: converged_spectrum(RabiParams(1.0, 40.0, 1.4), Parity.MINUS, k_max=20), 20),
        (lambda: converged_spectrum(RabiParams(1.0, 1000.0, 1.2), Parity.MINUS, eps_max=0.052),
         526),
    ], ids=["readme-sweep-chain", "readme-window"])
    def test_one_dpttrf_call_per_solve(self, solve, n_levels, monkeypatch):
        calls, factor = [], quantum.dpttrf
        monkeypatch.setattr(quantum, "dpttrf", lambda *args: calls.append(args) or factor(*args))
        spec = solve()
        assert spec.n_converged == len(spec) == n_levels
        assert len(calls) == 1

    def test_lower_levels_share_a_bound_no_smaller_than_the_top_one(self):
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.4)
        chain = build_parity_chain(p, Parity.PLUS, 64)
        bound = quantum._tail_bound(chain, diagonalize(chain)[:20])
        assert np.all(bound[:-1] == bound[0]) and bound[-1] <= bound[0]

    def test_capped_solve_certifies_no_level(self, monkeypatch):
        # cap = R g^2 = 160 sites: the top levels of 20 at g = 2 miss the
        # certificate there, so the shared bound fails every level (the
        # per-level bound certified the lowest 18)
        monkeypatch.setattr(quantum, "_CAP_PER_R", 1.0)
        p = RabiParams(omega0=1.0, Omega=40.0, g=2.0)
        with pytest.raises(TruncationLimitError, match="20 of 20 levels not certified") as err:
            converged_spectrum(p, Parity.MINUS, k_max=20)
        spec = err.value.spectrum
        assert spec.dim == 160 and spec.n_converged == 0
        assert np.all(spec.error_bound >= 1e-8 * p.omega0)


class TestCountSolveChains:
    """A values-only count solve builds its probe, then its own chain, each
    by build_parity_chain, whether or not the chain fits inside the probe."""

    @pytest.mark.parametrize("g, dim", [(0.5, 85), (3.0, 292)],
                             ids=["fits-in-probe", "outgrows-probe"])
    def test_chains_built_per_solve(self, g, dim, monkeypatch):
        calls = {name: [] for name in ("build_parity_chain", "dstebz", "dsterf", "dpttrf")}
        for name, log in calls.items():
            monkeypatch.setattr(quantum, name, lambda *args, _f=getattr(quantum, name), _log=log:
                                _log.append(args) or _f(*args))
        spec = converged_spectrum(RabiParams(1.0, 40.0, g), Parity.MINUS, k_max=20)
        assert spec.dim == dim and spec.n_converged == len(spec) == 20
        assert [len(log) for log in calls.values()] == [2, 1, 1, 1]
        # the probe's 128 sites first, then the solve's own chain
        assert [args[2] for args in calls["build_parity_chain"]] == [128, dim]


class TestPrecision:
    """ParitySpectrum.precision is the ParityChain.precision of the chain
    the solve certified its levels on."""

    @pytest.mark.parametrize("kwargs", [
        {"eps_max": -0.5},
        {"k_max": 20},
        {"eps_max": -0.5, "with_observables": True},
    ], ids=["window", "count", "observables"])
    def test_precision_is_the_solved_chains(self, kwargs):
        spec = converged_spectrum(RabiParams(1.0, 40.0, 1.4), Parity.PLUS, **kwargs)
        assert spec.precision == build_parity_chain(spec.params, spec.parity,
                                                    spec.dim).precision()

    def test_capped_spectrum_carries_its_precision(self, monkeypatch):
        monkeypatch.setattr(quantum, "_CAP_PER_R", 1.0)  # cap = R g^2 = 160 sites
        with pytest.raises(TruncationLimitError) as err:
            converged_spectrum(RabiParams(1.0, 40.0, 2.0), Parity.MINUS, k_max=20)
        spec = err.value.spectrum
        assert spec.dim == 160
        assert spec.precision == build_parity_chain(spec.params, spec.parity,
                                                    spec.dim).precision()
        assert pickle.loads(pickle.dumps(err.value)).spectrum == spec
        assert replace(spec, precision=2.0 * spec.precision) != spec


class TestLapackFailure:
    def test_sterf_failure_raises(self, monkeypatch):
        monkeypatch.setattr(quantum, "dsterf", lambda d, e: (np.sort(d), 2))
        chain = build_parity_chain(RabiParams(1.0, 40.0, 1.2), Parity.MINUS, 16)
        with pytest.raises(quantum.ConvergenceError, match="sterf: 2 eigenvalues failed"):
            diagonalize(chain)

    def test_stebz_failure_raises(self, monkeypatch):
        bisect = quantum.dstebz
        monkeypatch.setattr(quantum, "dstebz", lambda *args: (*bisect(*args)[:4], 1))
        with pytest.raises(quantum.ConvergenceError, match="stebz: level 5 failed"):
            converged_spectrum(RabiParams(1.0, 40.0, 1.2), Parity.MINUS, k_max=5)


def assert_no_child_left():
    # every child this process forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


P40 = RabiParams(omega0=1.0, Omega=40.0, g=1.2)


@pytest.fixture(scope="module")
def g0_sectors():
    """Both sectors at g = 0 up to eps = 0, windowed_dos' input."""
    return [converged_spectrum(RabiParams(1.0, 40.0, 0.0), parity, eps_max=0.0)
            for parity in Parity]


class TestConvergedSectors:
    """Both parities in one call; the fork rule's cases are in
    tests/test_cli.py::TestForkedSectors, through the commands."""

    @pytest.mark.parametrize("solve", [
        lambda params, **kwargs: converged_spectrum(params[0], Parity.MINUS, **kwargs),
        converged_sectors,
    ], ids=["converged_spectrum", "converged_sectors"])
    @pytest.mark.parametrize("kwargs, message", [
        ({}, "exactly one of eps_max and k_max"),
        ({"eps_max": 0.0, "k_max": 4}, "exactly one of eps_max and k_max"),
        ({"k_max": 4, "with_observables": True}, "with_observables needs eps_max"),
        ({"eps_max": math.nan}, "eps_max must be finite"),
        ({"eps_max": 0.0, "tol": 0.0}, "tol must be finite and positive"),
        ({"k_max": 4, "tol": math.nan}, "tol must be finite and positive"),
        ({"k_max": 2.5}, "k_max must be >= 1 and an integer"),
        # above the first coupling's cap of 200000 sites
        ({"k_max": 250000}, "^k_max=250000 levels exceed the dim cap 200000$"),
    ])
    def test_bad_arguments_raise_before_any_chain(self, monkeypatch, solve, kwargs, message):
        calls = []
        monkeypatch.setattr(quantum, "build_parity_chain", lambda *a: calls.append(a))
        monkeypatch.setattr(os, "fork", lambda: calls.append("fork"), raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        # enough couplings at R = 1000 that a valid call would fork
        params = [RabiParams(1.0, 1000.0, g) for g in (0.5, 1.2)]
        with pytest.raises(ValueError, match=message):
            solve(params, **kwargs)
        assert not calls

    @pytest.mark.parametrize("count", [2.5, np.float64(3.0), True])
    @pytest.mark.parametrize("solve, message", [
        (lambda n, _: converged_spectrum(P40, Parity.MINUS, k_max=n),
         "k_max must be >= 1 and an integer"),
        (lambda n, _: converged_sectors([P40] * 16, k_max=n),
         "k_max must be >= 1 and an integer"),
        (lambda n, sectors: windowed_dos(*sectors, window_n=n),
         "window_n must be >= 1 and an integer"),
        (lambda n, _: build_parity_chain(P40, Parity.MINUS, n), "dim must be an integer >= 2"),
    ], ids=["converged_spectrum", "converged_sectors", "windowed_dos", "build_parity_chain"])
    def test_a_count_is_an_integer(self, monkeypatch, g0_sectors, solve, message, count):
        # a float or a bool count used to fail late, in a slice, or pass as 1;
        # 16 probes of 128 sites would fork
        calls = []
        monkeypatch.setattr(quantum, "build_parity_chain", lambda *a: calls.append(a))
        monkeypatch.setattr(os, "fork", lambda: calls.append("fork"), raising=False)
        with pytest.raises(ValueError, match=message):
            solve(count, g0_sectors)
        assert not calls

    def test_a_numpy_integer_is_a_count(self, g0_sectors):
        assert (converged_spectrum(P40, Parity.MINUS, k_max=np.int64(5))
                == converged_spectrum(P40, Parity.MINUS, k_max=5))
        assert (windowed_dos(*g0_sectors, window_n=np.int64(2))
                == windowed_dos(*g0_sectors, window_n=2))

    def test_order_of_the_lists(self):
        params = [RabiParams(1.0, 40.0, g) for g in (0.5, 1.2)]
        minus, plus = converged_sectors(params, k_max=3)
        assert [(s.params, s.parity) for s in minus] == [(p, Parity.MINUS) for p in params]
        assert plus == [converged_spectrum(p, Parity.PLUS, k_max=3) for p in params]

    @pytest.mark.skipif(not hasattr(os, "fork") or sys.platform == "darwin",
                        reason="converged_sectors forks only where os.fork exists, not on macOS")
    def test_same_spectra_as_in_process(self, monkeypatch):
        # a window of 512 sites or more forks (tests/test_cli.py::TestForkedSectors)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        params = [RabiParams(omega0=1.0, Omega=1000.0, g=1.2)]
        eps_max = -0.95 + 0.05 + 2.0 / 1000.0

        def sectors():
            (minus,), (plus,) = converged_sectors(params, eps_max=eps_max,
                                                  with_observables=True)
            return [minus, plus]
        forked = sectors()
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        for a, b in zip(forked, sectors(), strict=True):
            assert (a.parity, a.dim, a.n_converged) == (b.parity, b.dim, b.n_converged)
            for name in ("energies", "error_bound"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            for name in ("n_phot", "sz", "p_loc"):
                np.testing.assert_array_equal(getattr(a.observables, name),
                                              getattr(b.observables, name))
            assert not a.eps.flags.writeable and not a.observables.p_loc.flags.writeable

    @pytest.mark.skipif(not hasattr(os, "fork") or sys.platform == "darwin",
                        reason="converged_sectors forks only where os.fork exists, not on macOS")
    def test_same_levels_as_in_process(self, monkeypatch):
        # the README sweep's 61 probes of 128 sites fork; a capped sector
        # crosses the pipe as its last solve
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(quantum, "_CAP_PER_R", 2.0)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        params = [RabiParams(1.0, 40.0, float(g)) for g in np.linspace(0.0, 3.0, 61)]
        forked = converged_sectors(params, k_max=20, keep_capped=True)
        assert_no_child_left()
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        assert forked == converged_sectors(params, k_max=20, keep_capped=True)
        assert any(spec.n_converged < 20 for spec in forked[1])


class TestObservables:
    def test_requires_vectors(self):
        # observables come only from the vector solve: a values-only window
        # has none
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.0)
        spec = converged_spectrum(p, Parity.MINUS, eps_max=-0.5)
        assert spec.observables is None
        spec = converged_spectrum(p, Parity.MINUS, eps_max=-0.5, with_observables=True)
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
        spec = converged_spectrum(p, parity, eps_max=self.EPS_MAX, tol=tol,
                                  with_observables=True)
        assert min(dims) < spec.dim  # the low slices ran on cut chains
        assert spec.n_converged == len(spec) > 100
        assert np.all(spec.error_bound < tol * p.omega0)
        chain = build_parity_chain(p, parity, spec.dim)
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
        ref = converged_spectrum(p, Parity.MINUS, eps_max=self.EPS_MAX, with_observables=True)
        corrupted = _corrupt_level_3(monkeypatch, on_chain=lambda dim: dim < ref.dim)
        # cap ceil(2 R g^2) = 784, above the window: a missed fallback fails fast
        monkeypatch.setattr(quantum, "_CAP_PER_R", 2.0)
        dims = _record_slice_chains(monkeypatch)
        spec = converged_spectrum(p, Parity.MINUS, eps_max=self.EPS_MAX,
                                  with_observables=True)
        dim = spec.dim
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
        # a forked converged_sectors solve sends its exception back pickled
        p = RabiParams(omega0=1.0, Omega=40.0, g=1.2)
        monkeypatch.setattr(quantum, "_CAP_PER_R", 0.2)
        with pytest.raises(TruncationLimitError) as err:
            converged_spectrum(p, Parity.MINUS, eps_max=0.0, with_observables=True)
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
            converged_spectrum(p, Parity.MINUS, eps_max=self.EPS_MAX, with_observables=True)
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
        ref = converged_spectrum(p, Parity.MINUS, eps_max=self.EPS_MAX, tol=tol,
                                 with_observables=True)
        monkeypatch.setattr(quantum, "_SLICE_PAD", quantum._AIRY_PAD)
        dims = _record_slice_chains(monkeypatch)
        tracemalloc.start()
        try:
            spec = converged_spectrum(p, Parity.MINUS, eps_max=self.EPS_MAX, tol=tol,
                                      with_observables=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim = spec.dim
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
