"""Spectral statistics assembled from the two parity sectors.

The quantum side of the density comparison merges the certified levels of
both parity towers into one ascending list, cut at the lower of the two
sector tops.  A running window of N consecutive spacings turns that list
into a density estimate nu_bar = N / (eps_{k+N} - eps_k) attached to the
window midpoint, directly comparable with the semiclassical curve once
rescaled to per-unit-bare-energy normalization.

The gap map tracks the signed splitting delta_k = eps_k^+ - eps_k^- of
parity partner levels across a coupling sweep.  Its collapse to numerical
zero below the critical energy line is the spectral fingerprint of the
parity-broken doublet phase; levels whose truncation certificate fails are
excluded from analysis but kept in the arrays and reported through the
convergence mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    Parity,
    ParitySpectrum,
    RabiParams,
    TruncationLimitError,
    build_parity_chain,
    converged_levels,
)
from .semiclassical import DosCurve

__all__ = [
    "WindowedDos",
    "GapMap",
    "windowed_dos",
    "gap_map",
]


@dataclass(frozen=True)
class WindowedDos:
    """Running-window density estimate from the merged level list.

    nu_bar[k] = window_n / (eps[k+N] - eps[k]) levels per unit eps, located
    at the window midpoint eps_bar[k] = (eps[k+N] + eps[k]) / 2; stride one,
    so consecutive points share all but one level.  truncated means the
    estimate does not cover the requested range: the sources carried an
    unconverged tail, or the windows stop more than one window width short
    of the requested eps_max.
    """

    params: RabiParams
    window_n: int
    eps_bar: np.ndarray = field(repr=False)
    nu_bar: np.ndarray = field(repr=False)
    n_levels: int = 0
    truncated: bool = False

    def __post_init__(self):
        self.eps_bar.flags.writeable = False
        self.nu_bar.flags.writeable = False

    def to_dos_curve(self) -> DosCurve:
        """Rescale to levels per unit bare energy (the semiclassical normalization).

        d(count)/dE = d(count)/d(eps) * 2/Omega, so the windowed estimate and
        dos_semiclassical can be overlaid without further bookkeeping.
        """
        return DosCurve(
            g=self.params.g,
            omega0=self.params.omega0,
            eps=self.eps_bar.copy(),
            nu=self.nu_bar * (2.0 / self.params.Omega),
        )


@dataclass(frozen=True)
class GapMap:
    """Signed parity splitting delta_k = eps_k^+ - eps_k^- over a coupling sweep.

    Arrays are shaped (n_g, k_max).  converged marks levels whose energies in
    both sectors passed the truncation certificate; unconverged entries stay
    in the arrays for inspection but carry no physics claim.  dim holds the
    larger of the two sector truncations per coupling.  A converged splitting
    at or below floor, the eigenvalue precision of the two sector solves, is
    roundoff and counts as unresolved.
    """

    omega0: float
    Omega: float
    tol: float
    g: np.ndarray = field(repr=False)
    eps_minus: np.ndarray = field(repr=False)
    eps_plus: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    eps_mid: np.ndarray = field(repr=False)
    converged: np.ndarray = field(repr=False)
    dim: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.g, self.eps_minus, self.eps_plus, self.delta,
                  self.eps_mid, self.converged, self.dim):
            a.flags.writeable = False

    @property
    def k_max(self) -> int:
        return self.delta.shape[1]

    @property
    def n_unconverged(self) -> int:
        return int(self.converged.size - np.count_nonzero(self.converged))

    @property
    def floor(self) -> np.ndarray:
        """Per coupling, the eps precision floor 4 eps_mach ||H|| (2/Omega) at dim."""
        norms = [
            max(build_parity_chain(RabiParams(self.omega0, self.Omega, float(g)),
                                   parity, int(dim)).norm_bound()
                for parity in Parity)
            for g, dim in zip(self.g, self.dim)
        ]
        return 4.0 * np.finfo(float).eps * np.array(norms) * 2.0 / self.Omega

    @property
    def unresolved(self) -> np.ndarray:
        """Converged splittings at or below the precision floor."""
        return self.converged & (np.abs(self.delta) <= self.floor[:, None])


def windowed_dos(
    minus: ParitySpectrum,
    plus: ParitySpectrum,
    window_n: int = 10,
    eps_max: float | None = None,
) -> WindowedDos:
    """Stride-1 running-window density from the merged parity spectra.

    The converged levels of both sectors are merged in ascending order and
    cut at the lower of the two sector tops: beyond that energy the other
    sector's levels are unknown, so the merged list would have holes (the
    cut is the merge contract, not a truncation).  Each point averages
    window_n consecutive level spacings.  If eps_max is given, windows whose
    midpoint lies above it are discarded and the result is flagged
    truncated when the kept windows end more than one window width short of
    eps_max.
    """
    if window_n < 1:
        raise ValueError("window_n must be >= 1")
    if minus.parity is not Parity.MINUS or plus.parity is not Parity.PLUS:
        raise ValueError("pass the minus-sector spectrum first, then the plus sector")
    if minus.params != plus.params:
        raise ValueError("parity spectra belong to different Hamiltonians")
    n_m, n_p = minus.n_converged, plus.n_converged
    if n_m == 0 or n_p == 0:
        raise ValueError(
            "windowed_dos needs converged levels in both sectors; use "
            "converged_window or converged_levels to produce the spectra"
        )
    energies = np.sort(np.concatenate([minus.energies[:n_m], plus.energies[:n_p]]))
    energies = energies[energies <= min(minus.energies[n_m - 1], plus.energies[n_p - 1])]
    eps = 2.0 * energies / minus.params.Omega
    if len(eps) < window_n + 1:
        raise ValueError(
            f"need at least window_n + 1 = {window_n + 1} converged levels, "
            f"have {len(eps)}"
        )
    width = eps[window_n:] - eps[:-window_n]
    if np.any(width <= 0.0):
        raise ValueError(
            f"degenerate window of {window_n} spacings; enlarge window_n "
            "(parity doublets collapse pairwise in the broken phase)"
        )
    eps_bar = 0.5 * (eps[window_n:] + eps[:-window_n])
    nu_bar = window_n / width
    # sources that carried levels beyond their certified count
    truncated = len(minus) > n_m or len(plus) > n_p
    if eps_max is not None:
        keep = eps_bar <= eps_max
        eps_bar, nu_bar = eps_bar[keep], nu_bar[keep]
        if len(eps_bar) == 0:
            truncated = True
        elif eps_bar[-1] + window_n / nu_bar[-1] < eps_max:
            # at least one more whole window would have fit below eps_max
            truncated = True
    return WindowedDos(
        params=minus.params,
        window_n=window_n,
        eps_bar=eps_bar,
        nu_bar=nu_bar,
        n_levels=len(eps),
        truncated=truncated,
    )


def _levels_or_last(params: RabiParams, parity: Parity, k_max: int,
                    tol: float) -> ParitySpectrum:
    try:
        return converged_levels(params, parity, k_max=k_max, tol=tol)
    except TruncationLimitError as exc:
        return exc.spectrum


def gap_map(
    omega0: float,
    Omega: float,
    g_values: np.ndarray,
    k_max: int,
    tol: float = 1e-8,
) -> GapMap:
    """Parity splittings of the lowest k_max doublets across a coupling sweep.

    For every g both sectors come from converged_levels, so each level is
    certified to within tol * omega0 of the untruncated spectrum.  A sector
    that hits the truncation cap keeps its last solve, and its uncertified
    levels are excluded from any claim via the converged mask rather than
    raising, so one hard point cannot abort a whole sweep.
    """
    g_values = np.atleast_1d(np.asarray(g_values, dtype=float))
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n_g = len(g_values)
    eps_m = np.empty((n_g, k_max))
    eps_p = np.empty((n_g, k_max))
    conv = np.empty((n_g, k_max), dtype=bool)
    dims = np.empty(n_g, dtype=int)
    for i, g in enumerate(g_values):
        params = RabiParams(omega0=omega0, Omega=Omega, g=float(g))
        minus, plus = (_levels_or_last(params, parity, k_max, tol)
                       for parity in (Parity.MINUS, Parity.PLUS))
        eps_m[i] = minus.eps
        eps_p[i] = plus.eps
        conv[i] = np.arange(k_max) < min(minus.n_converged, plus.n_converged)
        dims[i] = max(minus.dim, plus.dim)
    return GapMap(
        omega0=float(omega0),
        Omega=float(Omega),
        tol=float(tol),
        g=g_values.copy(),
        eps_minus=eps_m,
        eps_plus=eps_p,
        delta=eps_p - eps_m,
        eps_mid=0.5 * (eps_p + eps_m),
        converged=conv,
        dim=dims,
    )
