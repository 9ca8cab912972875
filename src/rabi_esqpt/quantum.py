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

Diagonalization never densifies the chain.  For g > 0 every offdiagonal
entry is nonzero, so the chain is one unreduced block: every eigenvalue
comes from LAPACK sterf (root-free QL/QR, O(dim^2), no workspace) and the
eigenvectors of the selected levels from stein (inverse iteration).  At
g = 0, or a coupling below roundoff, the chain is diagonal, and its
eigenpairs are the sorted diagonal and unit vectors.  Every returned
eigenpair, closed-form ones included, is certified by an explicit
residual check.  stein reorthogonalizes each vector against all earlier
ones within 1e-3 ||T||; at large Omega/omega0 that spans the whole level
window (4.5 omega0 at R = 1000 against spacings of 0.35 omega0), so it is
called on slices of at most 64 levels that never separate near-degenerate
ones, which bounds the Gram-Schmidt work by O(64 dim k) instead of
O(dim k^2).

The truncated chain is certified against the untruncated one in a single
solve.  Padding an eigenvector v of the dim-site chain with zeros, its
residual against the infinite chain gains one component beyond the
in-chain one: the tail residual lam sqrt(dim) |v[dim-1]|, from the only
coupling cut off.  H is self-adjoint, so some exact eigenvalue lies within
the total residual of the Ritz value (Parlett, The Symmetric Eigenvalue
Problem, ch. 10-11).  converged_window and converged_levels solve once at
a truncation of the classical orbit's n_cls sites plus 12 Airy widths
n_cls^{1/3}, and re-solve only when a tail residual is not below
tol * omega0.

A solve with vectors reads |v[dim-1]| off stein's vector.  A values-only
solve computes no vector and bounds |v[dim-1]| from the eigenvalue alone.
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
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.lapack import dpttrf, dstein, dsterf

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

# Residual certification threshold, relative to a cheap tridiagonal norm
# bound max|diag| + 2 max|offdiag|.
RESIDUAL_RTOL = 1e-9

# Default truncation cap of the certified solves, in units of R max(1, g^2).
_CAP_PER_R = 200.0

# Levels per stein call (the module docstring says why the solve is sliced)
# and per pivot block of the tail bound.
_SLICE = 64

# Start truncation past the classical orbit, in Airy widths n_cls^{1/3}.
_AIRY_PAD = 12.0

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


class ConvergenceError(RuntimeError):
    """An eigenpair failed its convergence or residual certification."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class TruncationLimitError(RuntimeError):
    """The truncation cap was hit before every requested level certified.

    spectrum is the solve at the cap; its n_converged and tail_residual say
    which levels did certify.
    """

    def __init__(self, message: str, dim: int, spectrum: ParitySpectrum | None = None):
        super().__init__(message)
        self.dim = dim
        self.spectrum = spectrum


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
    dim: int
    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.diag.flags.writeable = False
        self.offdiag.flags.writeable = False

    def norm_bound(self) -> float:
        """Upper bound on ||H_sector||_2 used for residual certification."""
        off = float(np.max(np.abs(self.offdiag))) if self.dim > 1 else 0.0
        return float(np.max(np.abs(self.diag))) + 2.0 * off

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v for a dim x m block of column vectors."""
        out = self.diag[:, None] * v
        out[:-1] += self.offdiag[:, None] * v[1:]
        out[1:] += self.offdiag[:, None] * v[:-1]
        return out


@dataclass(frozen=True)
class ParitySpectrum:
    """Ascending eigenvalues of one parity chain, optionally with vectors.

    energies are bare; eps = 2 E / Omega.  vectors, when present, hold one
    orthonormal column per eigenvalue in chain-site coordinates.
    tail_residual, set by converged_window and converged_levels, bounds
    each eigenvalue's distance to the untruncated spectrum: lam sqrt(dim)
    |v[dim-1]| from the vector when the solve has vectors, and from the
    backward-pivot bound on |v[dim-1]| when it has none.  n_converged
    counts the leading levels whose bound is below tol * omega0 (0 for a
    plain diagonalize call, which certifies in-chain residuals only).
    """

    params: RabiParams
    parity: Parity
    dim: int
    energies: np.ndarray = field(repr=False)
    eps: np.ndarray = field(repr=False)
    vectors: np.ndarray | None = field(repr=False, default=None)
    n_converged: int = 0
    tail_residual: np.ndarray | None = field(repr=False, default=None)

    def __post_init__(self):
        for a in (self.energies, self.eps, self.vectors, self.tail_residual):
            if a is not None:
                a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class EigenObservables:
    """Per-eigenstate diagnostics computed from eigenvectors.

    n_phot = <a^dag a>; sz = <sigma_z>; p_loc is the weight on the lowest
    chain site whose spin is down (site 0 in the minus sector, site 1 in
    the plus sector), the localization marker of the critical eigenstate.
    """

    parity: Parity
    eps: np.ndarray = field(repr=False)
    n_phot: np.ndarray = field(repr=False)
    sz: np.ndarray = field(repr=False)
    p_loc: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.eps, self.n_phot, self.sz, self.p_loc):
            a.flags.writeable = False


def build_parity_chain(params: RabiParams, parity: Parity, dim: int) -> ParityChain:
    """Assemble one parity sector at truncation dim (chain sites 0..dim-1)."""
    if not isinstance(dim, (int, np.integer)) or dim < 2:
        raise ValueError(f"dim must be an integer >= 2, got {dim!r}")
    dim = int(dim)
    n = np.arange(dim, dtype=float)
    diag = params.omega0 * n + 0.5 * params.Omega * parity.spin_signs(dim)
    offdiag = -params.lam * np.sqrt(n[:-1] + 1.0)
    return ParityChain(params=params, parity=parity, dim=dim, diag=diag, offdiag=offdiag)


def _certify_residuals(chain: ParityChain, w: np.ndarray, v: np.ndarray,
                       first: int = 0) -> None:
    # ||H v - w v|| per eigenpair against RESIDUAL_RTOL * ||H|| bound; an
    # error names first + k, the level's index in the full solve
    res = chain.matvec(v) - w[None, :] * v
    norms = np.linalg.norm(res, axis=0)
    bound = RESIDUAL_RTOL * chain.norm_bound()
    bad = np.nonzero(norms > bound)[0]
    if bad.size:
        k = first + int(bad[0])
        raise ConvergenceError(
            f"eigenpair {k} failed residual certification: "
            f"|r| = {norms[bad[0]]:.3e} > {bound:.3e}",
            index=k,
        )


def diagonalize(
    chain: ParityChain,
    k_max: int | None = None,
    want_vectors: bool = False,
    e_max: float | None = None,
) -> ParitySpectrum:
    """Lowest k_max eigenpairs of a parity chain, or all with E <= e_max.

    All of them if neither is given.  A chain whose couplings are all
    below ulp max|diag| (g = 0, or nearly) is diagonal: its levels are the
    diagonal in stable ascending order, each with the unit vector of its
    site.  Otherwise the eigenvalues come from one sterf call and the
    eigenvectors from stein, called on slices of at most _SLICE ascending
    levels (see the module docstring for why).  A slice ends only where the
    next level is at least sqrt(ulp) ||T|| higher, so near-degenerate levels
    always share a call and stay orthogonal.  Each slice is certified on
    arrival and written straight into the one dim x k output.  Raises
    ConvergenceError if a solve fails or a residual exceeds 1e-9 ||H||; its
    index is the level's place in the ascending output.
    """
    if e_max is not None and k_max is not None:
        raise ValueError("pass k_max or e_max, not both")
    if k_max is not None and not 1 <= k_max <= chain.dim:
        raise ValueError(f"k_max must be in [1, dim], got {k_max}")
    # g = 0, or couplings below roundoff: the chain is diagonal to working
    # precision (and stein fails on couplings near underflow)
    ulp = np.finfo(float).eps
    decoupled = np.max(np.abs(chain.offdiag)) <= ulp * np.max(np.abs(chain.diag))
    if decoupled:
        sites = np.argsort(chain.diag, kind="stable")
        w_all = chain.diag[sites]
    else:
        w_all, info = dsterf(chain.diag, chain.offdiag)
        if info:
            raise ConvergenceError(f"sterf: {info} eigenvalues failed to converge")
    if e_max is not None:
        k = int(np.searchsorted(w_all, e_max, side="right"))
    else:
        k = chain.dim if k_max is None else k_max
    w = w_all[:k]
    v = None
    if want_vectors:
        v = np.empty((chain.dim, k))
        gap = math.sqrt(ulp) * chain.norm_bound()
        cut = np.append(np.diff(w) >= gap, True)
        # stein's block description of the unreduced chain
        iblock = np.ones(chain.dim, dtype=np.int32)
        isplit = np.zeros(chain.dim, dtype=np.int32)
        isplit[0] = chain.dim
        a = 0
        while a < k:
            b = min(a + _SLICE, k)
            while not cut[b - 1]:
                b += 1
            if decoupled:
                z = np.zeros((chain.dim, b - a))
                z[sites[a:b], np.arange(b - a)] = 1.0
            else:
                z, info = dstein(chain.diag, chain.offdiag, w[a:b], iblock, isplit)
                if info:
                    raise ConvergenceError(
                        f"inverse iteration failed: {info} of levels {a}..{b - 1} "
                        "did not converge")
            _certify_residuals(chain, w[a:b], z, first=a)
            v[:, a:b] = z
            a = b
    return ParitySpectrum(
        params=chain.params,
        parity=chain.parity,
        dim=chain.dim,
        energies=w,
        eps=2.0 * w / chain.params.Omega,
        vectors=v,
    )


def _orbit_sites(params: RabiParams, eps):
    # outer turning point of the classical orbit at eps, in chain sites:
    # n ~ (R/2) u+, u+ the turning point of x^2; elementwise for an array
    g2 = params.g**2
    disc = np.maximum(g2 * g2 + 2.0 * eps * g2 + 1.0, 0.0)
    return 0.5 * params.ratio * np.maximum(eps + g2 + np.sqrt(disc), 0.0)


def _start_dim(params: RabiParams, eps_max: float) -> int:
    # the orbit plus _AIRY_PAD Airy widths n^{1/3}, where every tail
    # certifies far below tol
    n_cls = float(_orbit_sites(params, eps_max))
    return max(math.ceil(n_cls + _AIRY_PAD * n_cls ** (1.0 / 3.0)), 64)


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


def _certified_spectrum(
    params: RabiParams,
    parity: Parity,
    tol: float,
    want_vectors: bool,
    k_max: int | None = None,
    eps_max: float | None = None,
) -> ParitySpectrum:
    """One certified solve: the lowest k_max levels, or every level below eps_max.

    Each eigenvector v, padded with zeros, leaves the residual
    lam sqrt(dim) |v[dim-1]| against the untruncated chain; a level is
    certified when that is below tol * omega0.  Without want_vectors no
    vector is computed, and _tail_bound stands in for |v[dim-1]|.  Only a
    failed certificate re-solves, at a truncation sized to the top Ritz
    value, up to the cap of _CAP_PER_R R max(1, g^2).
    """
    # NaN must fail here: no tail residual is below it, so the solve would
    # regrow to the cap before raising
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if eps_max is not None and not math.isfinite(eps_max):
        raise ValueError(f"eps_max must be finite, got {eps_max!r}")
    dim_cap = math.ceil(_CAP_PER_R * params.ratio * max(1.0, params.g**2))
    # the chain holds at least k_max sites, so above the cap it would outgrow it
    if k_max is not None and k_max > dim_cap:
        raise ValueError(f"k_max={k_max} levels exceed the dim cap {dim_cap}")
    if eps_max is not None:
        e_max = 0.5 * eps_max * params.Omega
        dim = _start_dim(params, eps_max)
    else:
        e_max = None
        dim = max(4 * k_max, 128)
    dim = min(dim, dim_cap)
    while True:
        chain = build_parity_chain(params, parity, dim)
        spec = diagonalize(chain, k_max=k_max, want_vectors=want_vectors, e_max=e_max)
        last = np.abs(spec.vectors[-1]) if want_vectors else _tail_bound(chain, spec.energies)
        tail = params.lam * math.sqrt(dim) * last
        certified = tail < tol * params.omega0
        n_conv = len(spec) if certified.all() else int(np.argmin(certified))
        spec = replace(spec, n_converged=n_conv, tail_residual=tail)
        if n_conv == len(spec):
            return spec
        if dim >= dim_cap:
            raise TruncationLimitError(
                f"{len(spec) - n_conv} of {len(spec)} levels not certified within "
                f"dim cap {dim_cap} (tail residual {np.max(tail):.3e} >= "
                f"{tol * params.omega0:.3e})",
                dim=dim,
                spectrum=spec,
            )
        dim = min(max(2 * dim, _start_dim(params, float(spec.eps[-1]))), dim_cap)


def converged_window(
    params: RabiParams,
    parity: Parity,
    eps_max: float,
    tol: float = 1e-8,
    want_vectors: bool = False,
) -> tuple[int, ParitySpectrum]:
    """Every level with eps <= eps_max, each certified to within tol * omega0.

    Solves once at a truncation sized to the classical orbit at eps_max and
    certifies every level by its tail residual against the untruncated
    chain; without want_vectors no eigenvector is computed.  Returns
    (dim, spectrum) with spectrum.n_converged the level count.  Raises
    TruncationLimitError when the cap (200 R max(1, g^2)) is hit first.
    """
    spec = _certified_spectrum(params, parity, tol, want_vectors, eps_max=eps_max)
    return spec.dim, spec


def converged_levels(
    params: RabiParams,
    parity: Parity,
    k_max: int,
    tol: float = 1e-8,
) -> ParitySpectrum:
    """The lowest k_max levels, each certified to within tol * omega0.

    Count-based companion of converged_window: solves once at
    max(4 k_max, 128) and certifies every level by its tail residual,
    growing the truncation only when that certificate fails.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return _certified_spectrum(params, parity, tol, want_vectors=False, k_max=k_max)


def eigen_observables(spectrum: ParitySpectrum) -> EigenObservables:
    """<a^dag a>, <sigma_z>, and down-spin localization weight per eigenstate."""
    if spectrum.vectors is None:
        raise ValueError("spectrum carries no eigenvectors; diagonalize with want_vectors=True")
    v2 = spectrum.vectors**2
    n = np.arange(spectrum.dim, dtype=float)
    signs = spectrum.parity.spin_signs(spectrum.dim)
    n_phot = n @ v2
    sz = signs @ v2
    loc_site = 0 if spectrum.parity is Parity.MINUS else 1
    p_loc = v2[loc_site].copy()
    return EigenObservables(
        parity=spectrum.parity,
        eps=spectrum.eps.copy(),
        n_phot=n_phot,
        sz=sz,
        p_loc=p_loc,
    )
