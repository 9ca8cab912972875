"""Parity-resolved exact diagonalization of the quantum Rabi model.

The Hamiltonian (hbar = 1) is

    H = omega0 a^dag a + (Omega/2) sigma_z - lam (a^dag + a) sigma_x,

a single bosonic mode coupled to a two-level system.  The parity operator
exp(i pi a^dag a) sigma_z commutes with H and splits the Fock x spin space
into two decoupled chains, one per parity eigenvalue.  In the chain basis

    minus sector:  |0,down>, |1,up>, |2,down>, |3,up>, ...
    plus  sector:  |0,up>,   |1,down>, |2,up>, |3,down>, ...

site n carries Fock number n, so each sector is a real symmetric
tridiagonal matrix:

    diag[n]    = omega0 * n + spin_sign(n) * Omega / 2
    offdiag[n] = -lam * sqrt(n + 1)

with spin_sign(n) = (-1)^(n+1) in the minus sector and (-1)^n in the plus
sector.  All spectra are reported both as bare energies E and as rescaled
energies eps = 2 E / Omega, the natural units of the critical structure:
the coupling is parametrized by g = 2 lam / sqrt(omega0 Omega), with g = 1
the ground-state critical point and eps = -1 the excited-state critical
energy for g > 1.

Diagonalization never densifies the chain.  Every eigenvalue a solve
reports comes from one call of LAPACK sterf (root-free QL/QR, O(dim^2), no
workspace); at g = 0 the chain is diagonal and sterf returns its sorted
diagonal exactly.  Only the observables solve,
converged_window(with_observables=True), computes eigenvectors, and it
keeps none: they come in slices of at most 64 levels, and each slice is
certified, reduced to <a^dag a>, <sigma_z> and p_loc, and dropped on
arrival.  So the vectors held at any time are one slice, never a dim x k
block.  Each vector takes two steps of inverse iteration (Parlett, ch. 4):
one LU of T - w, two solves from a fixed pseudo-random start.  A solve
multiplies the level's own component, against that of a level delta
away, by delta / |w - E|, with |w - E| about ulp ||T||; so two leave the
vector orthogonal to working precision to every level at least
sqrt(ulp) ||T|| away.  Closer levels share a slice, where each solve is
projected off the earlier ones.  A chain whose couplings are all below ulp max|diag| (g = 0,
or nearly) takes unit vectors on its sites, in ascending order, instead,
so that its exact ties stay site vectors.

The truncated chain is certified against the untruncated one in a single
solve.  Padding an eigenvector v of a d-site chain with zeros, its
residual against the infinite chain gains one component beyond the
in-chain one: the tail residual lam sqrt(d) |v[d-1]|, from the only
coupling cut off.  H is self-adjoint, so some exact eigenvalue lies within
the total residual of the Ritz value (Parlett, The Symmetric Eigenvalue
Problem, ch. 10-11).  That total, hypot(in-chain term, tail term), is
each level's one error bound, in every solve.  With vectors the in-chain
term is the measured residual; without them it is sterf's precision
4 ulp ||T|| (ParityChain.precision).  converged_window and
converged_levels solve once at a truncation of the classical orbit's n_cls
sites plus 12 Airy widths n_cls^{1/3}, and re-solve only when a level's
bound is not below tol * omega0.  converged_window takes the orbit at
eps_max.  converged_levels takes it at the k_max-th eigenvalue of a probe,
the chain's leading max(4 k_max, 128) sites, found alone by one stebz
index bisection (about a fifth of a sterf call at 128 sites).  The probe
is a leading block of the untruncated chain, so by Cauchy interlacing
(Parlett, ch. 10) that eigenvalue lies at or above the true k_max-th
level.  No level a solve reports comes from bisection.  No truncation
certifies below the precision, which grows with dim, so a chain whose
precision is at or above tol * omega0 is never solved, the probe
included: the solve raises ValueError instead.

The observables solve takes each level's Ritz value w from that window
chain, but solves each slice's vectors on the chain cut at the orbit of
the slice's top level plus 24 Airy widths, never past the window: on average
0.7 of the window's sites at R = 1000.  The level's certificate is the
whole residual of (w, [z; 0]) against the untruncated chain: the in-chain
residual of z on the cut chain, which also carries the distance from w to
the cut chain's eigenvalue, and the cut chain's tail.  The window's 12
widths are too few for a slice, whose top level sits right at its cut,
while the window's levels stay below the eps_max it is sized to.
Measured at g = 1.4, the largest cut-chain residual is 1e-6 at 12 widths
and 2e-12 at 24 at R = 1000; at R = 10^4 it is 5e-8 at 20 widths and
1e-10 at 24.  A slice that does not certify is solved again on the whole
window chain; only if that fails too does the window regrow.

A values-only solve (the levels and the windows without observables)
computes no vector and bounds |v[dim-1]| from the eigenvalue alone.
With diag a and offdiag b, the backward pivots of T - w,

    dm[dim-1] = a[dim-1] - w,   dm[i] = a[i] - w - b[i]^2 / dm[i+1],

give v[i-1] / v[i] = -dm[i] / b[i-1], so v[j] = v[dim-1] t[j] with every
t[j] known, and sum v[j]^2 <= 1 gives |v[dim-1]| <= 1 / ||t||.  The pivots
are those of LAPACK pttrf on the chain's reversed tail, one call per level;
the sum runs inward from the chain end, in log space, down to
n_top - 3 n_top^{1/3}, where n_top is the top level's orbit, cut at the
chain end.  pttrf stops at the first non-positive pivot, and the level's
sum stops after the term that pivot gives.  Past the orbit every level is
classically forbidden and the recurrence is stable; further in, where v
decays toward site 0, it is not, and the sum would come out orders of
magnitude too small.  The top level's bound is about 2x its exact value.
"""

from __future__ import annotations

import enum
import importlib.machinery
import importlib.util
import math
import operator
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np


def _flapack():
    # The compiled LAPACK wrappers that scipy.linalg.lapack re-exports, so the
    # same routines, loaded by path: by name they cost scipy.linalg's package
    # init, whose array-API imports take a third of a second of every CLI
    # start.  The module is private to scipy; on any failure the public
    # import stands in.
    name = "scipy.linalg._flapack"
    try:
        (root,) = importlib.util.find_spec("scipy").submodule_search_locations
        path = next(path for suffix in importlib.machinery.EXTENSION_SUFFIXES
                    if os.path.isfile(path := os.path.join(root, "linalg", "_flapack" + suffix)))
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        return module
    except Exception:
        from scipy.linalg import lapack

        return lapack


dgttrf, dgttrs, dpttrf, dstebz, dsterf = operator.attrgetter(
    "dgttrf", "dgttrs", "dpttrf", "dstebz", "dsterf")(_flapack())

__all__ = [
    "Parity",
    "RabiParams",
    "ParityChain",
    "ParitySpectrum",
    "EigenObservables",
    "ConvergenceError",
    "TruncationLimitError",
    "build_parity_chain",
    "diagonalize",
    "converged_window",
    "converged_levels",
    "eigen_observables",
]

# Default truncation cap of the certified solves, in units of R max(1, g^2).
_CAP_PER_R = 200.0

# Levels per slice of vectors (the module docstring says why the solve is
# sliced) and per pivot block of the tail bound.
_SLICE = 64

# Start truncation past the classical orbit, in Airy widths n_cls^{1/3}.
_AIRY_PAD = 12.0

# Cut each vector slice's chain past the orbit of its top level, in the
# same widths.  The window's levels lie below the eps_max its truncation is
# sized to; a slice's top level sits right at its own cut, and its
# certificate must hold at R = 10^4 (the module docstring gives the
# measured tails).
_SLICE_PAD = 24.0

# The tail bound sums sites outward of n_top - _TAIL_CUT n_top^{1/3}.
_TAIL_CUT = 3.0


class Parity(enum.Enum):
    """Eigenvalue of exp(i pi a^dag a) sigma_z labelling the two chains."""

    MINUS = -1
    PLUS = +1

    def spin_signs(self, dim: int) -> np.ndarray:
        """sigma_z value carried by chain sites 0..dim-1."""
        n = np.arange(dim)
        if self is Parity.MINUS:
            return -np.where(n % 2 == 0, 1.0, -1.0)
        return np.where(n % 2 == 0, 1.0, -1.0)

    @property
    def label(self) -> str:
        return "minus" if self is Parity.MINUS else "plus"


def _through_init(record):
    # a record's __reduce__: pickle rebuilds it through __init__, whose
    # __post_init__ makes the arrays of an unpickled copy read-only too
    return type(record), tuple(getattr(record, f.name) for f in fields(record))


class ConvergenceError(RuntimeError):
    """LAPACK reported that an eigenvalue did not converge (sterf or stebz)."""


class TruncationLimitError(RuntimeError):
    """The truncation cap was hit before every requested level certified.

    spectrum is the solve at the cap: its dim is the cap, and its
    n_converged and error_bound say which levels did certify.
    """

    def __init__(self, message: str, spectrum: ParitySpectrum):
        super().__init__(message)
        self.spectrum = spectrum

    def __reduce__(self):
        # args holds the message alone, so pickle must be told the spectrum
        return type(self), (*self.args, self.spectrum)


@dataclass(frozen=True)
class RabiParams:
    """Model parameters.  g is the dimensionless coupling 2 lam / sqrt(omega0 Omega)."""

    omega0: float
    Omega: float
    g: float

    def __post_init__(self):
        for name in ("omega0", "Omega", "g"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.omega0 <= 0 or self.Omega <= 0:
            raise ValueError("omega0 and Omega must be positive")
        if self.g < 0:
            raise ValueError("g must be non-negative")
        if self.ratio < 1.0:
            raise ValueError(f"Omega/omega0 = {self.ratio} < 1 is outside the supported regime")

    @property
    def ratio(self) -> float:
        """R = Omega / omega0."""
        return self.Omega / self.omega0

    @property
    def lam(self) -> float:
        """Bare coupling lam = g sqrt(omega0 Omega) / 2."""
        return 0.5 * self.g * math.sqrt(self.omega0 * self.Omega)


@dataclass(frozen=True)
class ParityChain:
    """One parity sector of H as a real symmetric tridiagonal matrix."""

    params: RabiParams
    parity: Parity
    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.diag.flags.writeable = False
        self.offdiag.flags.writeable = False

    @property
    def dim(self) -> int:
        """Chain sites 0..dim-1."""
        return len(self.diag)

    def norm_bound(self) -> float:
        """Upper bound max|diag| + 2 max|offdiag| on ||H_sector||_2."""
        off = float(np.max(np.abs(self.offdiag))) if self.dim > 1 else 0.0
        return float(np.max(np.abs(self.diag))) + 2.0 * off

    def precision(self) -> float:
        """sterf's eigenvalue precision 4 ulp ||H_sector||, in energy units."""
        return 4.0 * np.finfo(float).eps * self.norm_bound()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v for one vector or a dim x m block of column vectors."""
        a, b = (self.diag, self.offdiag) if v.ndim == 1 else (self.diag[:, None],
                                                               self.offdiag[:, None])
        out = a * v
        out[:-1] += b * v[1:]
        out[1:] += b * v[:-1]
        return out


@dataclass(frozen=True)
class EigenObservables:
    """Per-eigenstate diagnostics of one window, reduced from its eigenvectors.

    n_phot = <a^dag a>; sz = <sigma_z>; p_loc is the weight on the lowest
    chain site whose spin is down (site 0 in the minus sector, site 1 in
    the plus sector), the localization marker of the critical eigenstate.
    converged_window fills them one slice of vectors at a time, and keeps
    no vector.  The parity and the levels are those of the ParitySpectrum
    that holds them.
    """

    n_phot: np.ndarray = field(repr=False)
    sz: np.ndarray = field(repr=False)
    p_loc: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.n_phot, self.sz, self.p_loc):
            a.flags.writeable = False

    __reduce__ = _through_init


@dataclass(frozen=True)
class ParitySpectrum:
    """The certified solve of one parity chain at truncation dim.

    converged_window and converged_levels return one; energies are the
    ascending bare levels, eps = 2 E / Omega.  error_bound bounds each
    eigenvalue's distance to the untruncated spectrum: the residual,
    against the untruncated chain, of the level's zero-padded eigenvector.
    With observables that vector is computed, on the chain its slice was
    cut to or on the whole chain; without them the in-chain part is the
    chain's precision and the tail part uses the backward-pivot bound on
    |v[dim-1]|.  n_converged counts the leading levels whose bound is
    below tol * omega0.  observables, set by
    converged_window(with_observables=True), holds <a^dag a>, <sigma_z>
    and p_loc of every level.
    """

    params: RabiParams
    parity: Parity
    dim: int
    energies: np.ndarray = field(repr=False)
    eps: np.ndarray = field(repr=False)
    n_converged: int
    error_bound: np.ndarray = field(repr=False)
    observables: EigenObservables | None = field(repr=False, default=None)

    def __post_init__(self):
        for a in (self.energies, self.eps, self.error_bound):
            a.flags.writeable = False

    __reduce__ = _through_init

    def __len__(self) -> int:
        return len(self.energies)

    @property
    def vectors(self) -> None:
        """Always None: each slice of eigenvectors is reduced to observables
        as it arrives, so no spectrum holds a dim x k block.  The name stays
        because perfbench/tracing.py reads it."""
        return None


def build_parity_chain(params: RabiParams, parity: Parity, dim: int) -> ParityChain:
    """Assemble one parity sector at truncation dim (chain sites 0..dim-1)."""
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    dim = int(dim)
    n = np.arange(dim, dtype=float)
    diag = params.omega0 * n + 0.5 * params.Omega * parity.spin_signs(dim)
    offdiag = -params.lam * np.sqrt(n[:-1] + 1.0)
    return ParityChain(params=params, parity=parity, diag=diag, offdiag=offdiag)


def _error_bound(chain: ParityChain, inner: float | np.ndarray,
                 v_last: np.ndarray) -> np.ndarray:
    # the residual, against the untruncated chain, of each level's vector v
    # padded with zeros: its in-chain part and its tail lam sqrt(dim)
    # |v[dim-1]| are orthogonal components (the module docstring cites the
    # bound)
    return np.hypot(inner, chain.params.lam * math.sqrt(chain.dim) * v_last)


def _diagonal_order(chain: ParityChain) -> np.ndarray | None:
    # a chain whose couplings are all below ulp max|diag| (g = 0, or nearly)
    # is diagonal to working precision: its levels are its sites in stable
    # ascending order of diag, and their unit vectors keep exact ties apart
    ulp = np.finfo(float).eps
    if np.max(np.abs(chain.offdiag)) <= ulp * np.max(np.abs(chain.diag)):
        return np.argsort(chain.diag, kind="stable")
    return None


def diagonalize(chain: ParityChain) -> np.ndarray:
    """Every eigenvalue of a parity chain, ascending, from one sterf call.

    No eigenvector is computed here: converged_window reduces them to
    observables slice by slice.  Raises ConvergenceError if sterf fails.
    """
    w, info = dsterf(chain.diag, chain.offdiag)
    if info:
        raise ConvergenceError(f"sterf: {info} eigenvalues failed to converge")
    return w


def _slices(chain: ParityChain, w: np.ndarray):
    # [a, b) ranges of at most _SLICE of the chain's ascending levels w; a
    # range ends only where the next level is at least sqrt(ulp) ||T||
    # higher: closer levels must share a slice, whose solve projects each
    # off the earlier ones, to stay orthogonal
    gap = math.sqrt(np.finfo(float).eps) * chain.norm_bound()
    cut = np.append(np.diff(w) >= gap, True)
    a = 0
    while a < len(w):
        b = min(a + _SLICE, len(w))
        while not cut[b - 1]:
            b += 1
        yield a, b
        a = b


def _inverse_iteration(chain: ParityChain,
                       w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # one eigenvector per ascending level w of the chain: one LU of T - w
    # (gttrf) and two solves (gttrs) from a fixed pseudo-random start, each
    # normalized and projected off the earlier vectors of its cluster of
    # levels closer than sqrt(ulp) ||T|| (the module docstring says why).
    # Also returns each vector's in-chain residual ||T z - w z||
    n, ulp, norm = chain.dim, np.finfo(float).eps, chain.norm_bound()
    # a decoupled site of unit pivot borders the chain: the LU of the
    # chain's rows is unchanged, its component stays 0, and scipy's gttrf,
    # which rejects n = 2, gets three sites at least
    off = np.append(chain.offdiag, 0.0)
    start = np.append(np.random.default_rng(0).uniform(-1.0, 1.0, n), 0.0)
    z, res = np.empty((n, len(w))), np.empty(len(w))
    tie = 0
    for k, wk in enumerate(w):
        if k and wk - w[k - 1] >= math.sqrt(ulp) * norm:
            tie = k
        dl, d, du, du2, ipiv, info = dgttrf(off, np.append(chain.diag - wk, 1.0), off,
                                            overwrite_d=1)
        if info:  # an exact zero pivot of U, perturbed as LAPACK dlagts does
            d[d == 0.0] = ulp * norm
        x = start.copy()
        for _ in range(2):
            x = dgttrs(dl, d, du, du2, ipiv, x, overwrite_b=1)[0]
            if tie < k:
                x[:n] -= z[:, tie:k] @ (z[:, tie:k].T @ x[:n])
            x /= np.linalg.norm(x)
        z[:, k] = x[:n]
        res[k] = np.linalg.norm(chain.matvec(x[:n]) - wk * x[:n])
    return z, res


def _slice_vectors(chain: ParityChain, w: np.ndarray,
                   first: int) -> tuple[np.ndarray, np.ndarray]:
    # eigenvectors of the chain's ascending levels w, the levels first,
    # first + 1, ... of its solve: by inverse iteration, which keeps a slice's
    # near-degenerate levels orthogonal, or unit vectors on a diagonal
    # chain.  Also returns the error bound of each, from its measured
    # in-chain residual
    order = _diagonal_order(chain)
    if order is None:
        z, inner = _inverse_iteration(chain, w)
    else:
        z = np.zeros((chain.dim, len(w)))
        z[order[first:first + len(w)], np.arange(len(w))] = 1.0
        inner = np.linalg.norm(chain.matvec(z) - w * z, axis=0)
    return z, _error_bound(chain, inner, np.abs(z[-1]))


def _observed_slice(chain: ParityChain, w: np.ndarray, first: int,
                    bound: float) -> tuple[np.ndarray, ...]:
    # certificate, n_phot, sz and p_loc of the window chain's levels w, from
    # vectors on the chain cut _SLICE_PAD Airy widths past the orbit of the
    # top level, or, where those do not certify below bound, on the whole
    # chain.  A chain of d sites has d levels, so the cut keeps first + len(w)
    # sites at least; a diagonal chain is never cut, since its unit vectors
    # cost nothing and the cut chain's level order need not be the window's
    params = chain.params
    d = min(max(_orbit_dim(params, 2.0 * w[-1] / params.Omega, _SLICE_PAD),
                first + len(w)), chain.dim)
    if d < chain.dim and _diagonal_order(chain) is None:
        cut = replace(chain, diag=chain.diag[:d], offdiag=chain.offdiag[:d - 1])
        z, res = _slice_vectors(cut, w, first)
        if np.all(res < bound):
            return (res, *eigen_observables(chain.parity, z))
        z = None  # one slice of vectors at a time, fallback included
    z, res = _slice_vectors(chain, w, first)
    return (res, *eigen_observables(chain.parity, z))


def _orbit_sites(params: RabiParams, eps):
    # outer turning point of the classical orbit at eps, in chain sites:
    # n ~ (R/2) u+, u+ the turning point of x^2; elementwise for an array
    g2 = params.g**2
    disc = np.maximum(g2 * g2 + 2.0 * eps * g2 + 1.0, 0.0)
    return 0.5 * params.ratio * np.maximum(eps + g2 + np.sqrt(disc), 0.0)


def _orbit_dim(params: RabiParams, eps: float, widths: float = _AIRY_PAD) -> int:
    # the orbit at eps plus `widths` Airy widths n^{1/3}, and 64 sites at least
    n_cls = float(_orbit_sites(params, eps))
    return max(math.ceil(n_cls + widths * n_cls ** (1.0 / 3.0)), 64)


def window_dim(params: RabiParams, eps_max: float) -> int:
    """Sites of the first chain converged_window solves for the levels up to
    eps_max, before the cap: the orbit at eps_max plus 12 Airy widths."""
    return _orbit_dim(params, eps_max)


def _tail_bound(chain: ParityChain, w: np.ndarray) -> np.ndarray:
    # bound on |v[dim-1]| for each eigenvalue w of the chain, from the
    # backward pivots of T - w; the module docstring gives the derivation
    n = chain.dim
    # the top level's orbit, cut at the chain end when it reaches past it
    n_top = min(_orbit_sites(chain.params, 2.0 * w / chain.params.Omega).max(initial=0.0), n)
    lo = max(math.ceil(n_top - _TAIL_CUT * n_top ** (1.0 / 3.0)), 0)
    # sites n-1, ..., lo+1 in reverse: the forward pivots of this chain are
    # the backward pivots dm[n-1], ..., dm[lo+1] of T, and dm[i] gives
    # t[i-1] = -t[i] dm[i] / b[i-1], down to t[lo]
    a = chain.diag[lo + 1:][::-1]
    b = chain.offdiag[lo:][::-1].copy()
    # log 0 = -inf is exact at g = 0: every t is infinite, so v[dim-1] = 0
    with np.errstate(divide="ignore"):
        log_b = np.log(np.abs(b))
    bound = np.empty(len(w))
    for start in range(0, len(w), _SLICE):
        block = w[start:start + _SLICE]
        piv = np.ones((len(block), len(a)))
        n_terms = np.empty(len(block), dtype=int)
        for k, wk in enumerate(block):
            # dpttrf stops at the first non-positive pivot, which still
            # gives one term unless it is zero
            dm, _, info = dpttrf(a - wk, b[:-1])
            m = info or len(a)
            if dm[m - 1] == 0.0:
                m -= 1
            piv[k, :m] = dm[:m]
            n_terms[k] = m
        # in place, piv becomes log t^2
        log_t2 = np.log(np.abs(piv, out=piv), out=piv)
        log_t2 -= log_b
        np.cumsum(log_t2, axis=1, out=log_t2)
        log_t2 *= 2.0
        log_t2[np.arange(len(a)) >= n_terms[:, None]] = -np.inf
        # t[dim-1] = 1 is the initial term
        log_norm2 = np.logaddexp.reduce(log_t2, axis=1, initial=0.0)
        bound[start:start + len(block)] = np.exp(-0.5 * log_norm2)
    return bound


def _solvable_chain(params: RabiParams, parity: Parity, dim: int, tol: float) -> ParityChain:
    # the chain at dim, for a solve or the probe: no truncation certifies
    # below its precision, so a tol at or below that raises before either
    chain = build_parity_chain(params, parity, dim)
    precision = chain.precision()
    if precision >= tol * params.omega0:
        raise ValueError(
            f"tol={tol:g} is at or below the eigenvalue precision "
            f"{precision / params.omega0:.3e} omega0 of the dim {dim} chain, "
            "so no truncation certifies it")
    return chain


def _certified_spectrum(
    params: RabiParams,
    parity: Parity,
    tol: float,
    with_observables: bool,
    k_max: int | None = None,
    eps_max: float | None = None,
) -> ParitySpectrum:
    """One certified solve: the lowest k_max levels, or every level below eps_max.

    The one place a ParitySpectrum is built, and the one check of k_max
    (1 <= k_max <= the cap), made before any chain is.  Each level w is
    certified when its error bound is below tol * omega0.  Without
    with_observables no vector is computed: the bound's in-chain term is
    the chain's precision, and _tail_bound stands in for |v[dim-1]|.
    With it, each slice's vectors are certified on arrival, reduced to
    observables and dropped.  The first solve is sized to the orbit at
    eps_max, or at the probe's k_max-th Ritz value (the module docstring
    says why that is safe), and holds k_max sites at least.  Only a failed
    certificate re-solves, at a truncation sized to the top Ritz value, up
    to the cap of _CAP_PER_R R max(1, g^2).  A chain whose precision is at
    or above tol * omega0 raises ValueError before it is solved, the probe
    included.
    """
    # NaN must fail here: no error bound is below it, so the solve would
    # regrow to the cap before raising
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if eps_max is not None and not math.isfinite(eps_max):
        raise ValueError(f"eps_max must be finite, got {eps_max!r}")
    dim_cap = math.ceil(_CAP_PER_R * params.ratio * max(1.0, params.g**2))
    if eps_max is not None:
        e_max = 0.5 * eps_max * params.Omega
        dim = window_dim(params, eps_max)
    else:
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        # the chain holds at least k_max sites, so above the cap it would outgrow it
        if k_max > dim_cap:
            raise ValueError(f"k_max={k_max} levels exceed the dim cap {dim_cap}")
        # the probe: its k_max-th Ritz value, bisected alone (range 2 is by
        # index), lies at or above the true k_max-th level (the module
        # docstring), so the orbit there sizes the solve
        probe = _solvable_chain(params, parity, min(max(4 * k_max, 128), dim_cap), tol)
        _, theta, _, _, info = dstebz(probe.diag, probe.offdiag, 2, 0.0, 0.0, k_max, k_max,
                                      0.0, "E")
        if info:
            raise ConvergenceError(f"stebz: level {k_max} failed to converge")
        dim = max(_orbit_dim(params, 2.0 * theta[0] / params.Omega), k_max)
    dim = min(dim, dim_cap)
    while True:
        chain = _solvable_chain(params, parity, dim, tol)
        w = diagonalize(chain)
        w = w[:k_max] if eps_max is None else w[:np.searchsorted(w, e_max, side="right")]
        observables = None
        if with_observables:
            out = np.empty((4, len(w)))
            for a, b in _slices(chain, w):
                out[:, a:b] = _observed_slice(chain, w[a:b], a, tol * params.omega0)
            error, n_phot, sz, p_loc = out
            observables = EigenObservables(n_phot, sz, p_loc)
        else:
            error = _error_bound(chain, chain.precision(), _tail_bound(chain, w))
        certified = error < tol * params.omega0
        n_conv = len(w) if certified.all() else int(np.argmin(certified))
        spec = ParitySpectrum(params, parity, dim, w, 2.0 * w / params.Omega, n_conv, error,
                              observables)
        if n_conv == len(w):
            return spec
        if dim >= dim_cap:
            raise TruncationLimitError(
                f"{len(w) - n_conv} of {len(w)} levels not certified within "
                f"dim cap {dim_cap} (error bound {np.max(error):.3e} >= "
                f"{tol * params.omega0:.3e})",
                spectrum=spec,
            )
        dim = min(max(2 * dim, _orbit_dim(params, float(spec.eps[-1]))), dim_cap)


def converged_window(
    params: RabiParams,
    parity: Parity,
    eps_max: float,
    tol: float = 1e-8,
    with_observables: bool = False,
) -> tuple[int, ParitySpectrum]:
    """Every level with eps <= eps_max, each certified to within tol * omega0.

    Solves once at a truncation sized to the classical orbit at eps_max and
    certifies every level against the untruncated chain.  Without
    with_observables no eigenvector is computed.  With it, the spectrum's
    observables hold <a^dag a>, <sigma_z> and p_loc of every level: the
    eigenvectors are computed in slices of at most _SLICE levels, each on
    the chain cut at its own orbit, and each slice is certified, reduced
    by eigen_observables and dropped on arrival, so no dim x k block of
    vectors is ever held.  Returns (dim, spectrum) with
    spectrum.n_converged the level count.  Raises TruncationLimitError when
    the cap (200 R max(1, g^2)) is hit first.
    """
    spec = _certified_spectrum(params, parity, tol, with_observables, eps_max=eps_max)
    return spec.dim, spec


def converged_levels(
    params: RabiParams,
    parity: Parity,
    k_max: int,
    tol: float = 1e-8,
) -> ParitySpectrum:
    """The lowest k_max levels, each certified to within tol * omega0.

    Count-based companion of converged_window: solves once at the orbit
    of the k_max-th level of a max(4 k_max, 128)-site probe, plus 12 Airy
    widths, and certifies every level by its error bound, growing the
    truncation only when that certificate fails.
    """
    return _certified_spectrum(params, parity, tol, with_observables=False, k_max=k_max)


def eigen_observables(parity: Parity,
                      vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """<a^dag a>, <sigma_z> and down-spin localization weight per eigenvector.

    vectors is a d x m block, one eigenvector of the parity chain per
    column in the sites 0..d-1; returns (n_phot, sz, p_loc), one value per
    column.  converged_window(with_observables=True) applies this to each
    slice of vectors as it arrives.  No d x m temporary is made.
    """
    d = vectors.shape[0]
    n_phot = np.einsum("i,ij,ij->j", np.arange(d, dtype=float), vectors, vectors)
    sz = np.einsum("i,ij,ij->j", parity.spin_signs(d), vectors, vectors)
    p_loc = vectors[0 if parity is Parity.MINUS else 1] ** 2
    return n_phot, sz, p_loc
