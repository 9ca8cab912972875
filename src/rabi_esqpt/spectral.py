"""Spectral statistics assembled from the two parity sectors.

The quantum side of the density comparison merges the certified levels of
both parity towers into one ascending list, cut at the lower of the two
sector tops.  A running window of N consecutive spacings turns that list
into a density estimate N / (eps_{k+N} - eps_k) levels per unit eps,
attached to the window midpoint, and rescales it by 2/Omega to levels per
unit bare energy, the normalization of the semiclassical curve.

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

from .quantum import Parity, ParitySpectrum, _Record, _is_count

__all__ = [
    "WindowedDos",
    "GapMap",
    "windowed_dos",
    "gap_map",
]


@dataclass(frozen=True, eq=False)
class WindowedDos(_Record):
    """Running-window density estimate from the merged level list.

    nu_per_eps[k] = N / (eps[k+N] - eps[k]) levels per unit eps for windows
    of N = window_n spacings, located at the window midpoint
    eps[k] = (eps[k+N] + eps[k]) / 2; stride one, so consecutive points
    share all but one level.  nu = nu_per_eps * 2/Omega is per unit bare
    energy, dos_curve's normalization, so fit_divergence takes it as it
    takes a DosCurve.  truncated means the estimate does not cover the
    requested range: the sources carried an unconverged tail, or the
    windows stop more than one window width short of the requested eps_max.
    """

    eps: np.ndarray = field(repr=False)
    nu_per_eps: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    n_levels: int = 0
    truncated: bool = False


@dataclass(frozen=True, eq=False)
class GapMap(_Record):
    """Signed parity splitting delta_k = eps_k^+ - eps_k^- over a coupling sweep.

    Arrays are shaped (n_g, k_max); g and dim hold one entry per coupling.
    converged marks levels whose energies in both sectors passed the
    truncation certificate; unconverged entries stay in the arrays for
    inspection but carry no physics claim.  dim holds the larger of the two
    sector truncations.  unresolved marks the converged splittings at or
    below the larger of the two sectors' own precisions
    (ParitySpectrum.precision), in eps: those are roundoff.
    """

    g: np.ndarray = field(repr=False)
    eps_minus: np.ndarray = field(repr=False)
    eps_plus: np.ndarray = field(repr=False)
    delta: np.ndarray = field(repr=False)
    eps_mid: np.ndarray = field(repr=False)
    converged: np.ndarray = field(repr=False)
    dim: np.ndarray = field(repr=False)
    unresolved: np.ndarray = field(repr=False)

    @property
    def k_max(self) -> int:
        return self.delta.shape[1]

    @property
    def n_unconverged(self) -> int:
        return int(self.converged.size - np.count_nonzero(self.converged))


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
    if not (_is_count(window_n) and window_n >= 1):
        raise ValueError(f"window_n must be >= 1 and an integer, got {window_n!r}")
    if minus.parity is not Parity.MINUS or plus.parity is not Parity.PLUS:
        raise ValueError("pass the minus-sector spectrum first, then the plus sector")
    if minus.params != plus.params:
        raise ValueError("parity spectra belong to different Hamiltonians")
    n_m, n_p = minus.n_converged, plus.n_converged
    if n_m == 0 or n_p == 0:
        raise ValueError(
            "windowed_dos needs converged levels in both sectors; use "
            "converged_spectrum or converged_sectors to produce the spectra"
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
    mid = 0.5 * (eps[window_n:] + eps[:-window_n])
    # sources that carried levels beyond their certified count
    truncated = len(minus) > n_m or len(plus) > n_p
    if eps_max is not None:
        keep = mid <= eps_max
        mid, width = mid[keep], width[keep]
        # no window kept, or one more whole window would have fit below eps_max
        truncated = truncated or len(mid) == 0 or bool(mid[-1] + width[-1] < eps_max)
    nu_per_eps = window_n / width
    return WindowedDos(eps=mid, nu_per_eps=nu_per_eps, nu=nu_per_eps * (2.0 / minus.params.Omega),
                       n_levels=len(eps), truncated=truncated)


def gap_map(minus: list[ParitySpectrum], plus: list[ParitySpectrum]) -> GapMap:
    """Parity splittings of the lowest doublets across a coupling sweep.

    minus[i] and plus[i] are the two sectors at the i-th coupling, each of
    the same k_max levels, as the gapmap command solves them with
    converged_sectors(..., k_max=k_max, keep_capped=True): a sector that hit
    the truncation cap comes as its solve at the cap, and its uncertified
    levels are excluded from any claim via the converged mask, so one hard
    point cannot abort a whole sweep.  A values-only solve certifies all
    its levels or none, so a capped coupling loses all its doublets.
    """
    if not minus or len(minus) != len(plus):
        raise ValueError("pass one minus and one plus spectrum per coupling")
    eps_m = np.array([spec.eps for spec in minus])
    eps_p = np.array([spec.eps for spec in plus])
    k_max = eps_m.shape[1]
    conv = np.arange(k_max) < np.minimum([m.n_converged for m in minus],
                                         [p.n_converged for p in plus])[:, None]
    # each sector's own precision, in eps
    floor = (np.maximum([m.precision for m in minus], [p.precision for p in plus])
             * 2.0 / minus[0].params.Omega)
    delta = eps_p - eps_m
    return GapMap(
        g=np.array([m.params.g for m in minus]),
        eps_minus=eps_m,
        eps_plus=eps_p,
        delta=delta,
        eps_mid=0.5 * (eps_p + eps_m),
        converged=conv,
        dim=np.maximum([m.dim for m in minus], [p.dim for p in plus]),
        unresolved=conv & (np.abs(delta) <= floor[:, None]),
    )
