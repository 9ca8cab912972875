"""Critical laws of the level density and fits against sampled curves.

Two singular behaviours occur at the critical energy eps_c = -1:

* at the coupling threshold g = 1 the density diverges as a power law,
  nu(eps) ~ C |eps - eps_c|^(-1/4), with a prefactor fixed by the quartic
  bottom of the effective potential;
* for g > 1 the divergence is logarithmic on both sides,
  nu(eps) ~ -ln|eps - eps_c| / (omega0 * pi * sqrt(g^2 - 1)), the slope being
  set by the unstable point at the potential barrier top.

`law_power_qpt` / `law_log_esqpt` return these predictions in closed form;
`fit_divergence` extracts exponent or slope from any sampled density curve by
linear regression in the appropriate coordinates, so quantum and semiclassical
data are analysed identically.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .semiclassical import EPS_CRITICAL, DosCurve, _check_g, _check_omega0

__all__ = [
    "LawKind",
    "Side",
    "CriticalLaw",
    "FitReport",
    "law_power_qpt",
    "law_log_esqpt",
    "fit_divergence",
    "geometric_eps_grid",
]

#: Fewer samples than this cannot support a meaningful two-parameter fit.
MIN_FIT_POINTS = 5


class LawKind(enum.Enum):
    """Functional form of the divergence at eps_c."""

    POWER_QPT = "power"
    LOG_ESQPT = "log"


class Side(enum.Enum):
    """Which side of eps_c a fit window refers to."""

    ABOVE = "above"
    BELOW = "below"


@dataclass(frozen=True)
class CriticalLaw:
    """Closed-form divergence of nu at eps_c.

    From ``law_power_qpt`` the prediction is ``prefactor * delta**exponent``;
    from ``law_log_esqpt`` it is ``slope * (-ln delta)`` up to an additive
    constant that depends on the regular background and is not pinned here.
    The fields the law does not use are None.
    """

    exponent: float | None = None
    prefactor: float | None = None
    slope: float | None = None


@dataclass(frozen=True)
class FitReport:
    """Result of a linear fit to a sampled density curve near eps_c.

    ``slope`` and ``intercept`` refer to the regression coordinates: for a
    power law the fit is ln(nu) vs ln(delta), so ``slope`` estimates the
    exponent and ``prefactor = exp(intercept)``; for a log law the fit is
    nu vs -ln(delta), so ``slope`` estimates the divergence slope and
    ``intercept`` is the value extrapolated to delta = 1.
    """

    kind: LawKind
    n_points: int
    slope: float
    intercept: float
    residual_rms: float

    @property
    def exponent(self) -> float:
        if self.kind is not LawKind.POWER_QPT:
            raise ValueError("exponent is defined for power-law fits only")
        return self.slope

    @property
    def prefactor(self) -> float:
        if self.kind is not LawKind.POWER_QPT:
            raise ValueError("prefactor is defined for power-law fits only")
        return math.exp(self.intercept)


def law_power_qpt(omega0: float = 1.0) -> CriticalLaw:
    """Power-law divergence at the coupling threshold g = 1.

    The classical energy surface at g = 1 is quartic at its minimum, which
    turns the usual inverse-frequency density into
    ``nu = C * (eps - eps_c)**(-1/4)`` with
    ``C = Gamma(5/4) / Gamma(3/4) * 2**(5/4) / (omega0 * sqrt(pi))``.
    """
    omega0 = _check_omega0(omega0)
    pref = float(_gamma(1.25) / _gamma(0.75) * 2.0**1.25 / (omega0 * math.sqrt(math.pi)))
    return CriticalLaw(exponent=-0.25, prefactor=pref)


def law_log_esqpt(omega0: float, g: float) -> CriticalLaw:
    """Logarithmic divergence at eps_c for supercritical coupling g > 1.

    The barrier top at the origin is a hyperbolic point; orbits slow down
    there and the period grows like the logarithm of the energy distance,
    giving ``nu ~ -ln|eps - eps_c| / (omega0 * pi * sqrt(g**2 - 1))`` with the
    same slope on both sides of eps_c.
    """
    omega0, g = _check_omega0(omega0), _check_g(g)
    if not (g > 1.0):
        raise ValueError("logarithmic law requires g > 1")
    slope = 1.0 / (omega0 * math.pi * math.sqrt(g * g - 1.0))
    return CriticalLaw(slope=slope)


def geometric_eps_grid(
    d_min: float,
    d_max: float,
    n: int,
    side: Side = Side.ABOVE,
) -> np.ndarray:
    """Energies at geometrically spaced distances from eps_c on one side.

    Returned in increasing eps order; geometric spacing keeps the points
    evenly distributed in ln(delta), which is what the fits regress on.
    """
    if not (0.0 < d_min < d_max < math.inf):
        raise ValueError(f"need 0 < d_min < d_max < inf, got {d_min!r}, {d_max!r}")
    if n < 2:
        raise ValueError("need at least two grid points")
    d = np.geomspace(d_min, d_max, n)
    eps = EPS_CRITICAL + d if side is Side.ABOVE else EPS_CRITICAL - d
    return np.sort(eps)


def fit_divergence(
    curve: DosCurve,
    kind: LawKind,
    side: Side = Side.ABOVE,
    window: tuple[float, float] = (1e-6, 1e-3),
) -> FitReport:
    """Fit the singular behaviour of a sampled density curve near eps_c.

    Selects the samples whose distance ``delta = |eps - eps_c|`` on the given
    side falls inside ``window``, then regresses ln(nu) on ln(delta) for a
    power law or nu on -ln(delta) for a log law. The estimate is invariant
    under rescaling eps - eps_c within the window (slope of a straight line),
    so the same routine serves smooth semiclassical grids and noisy windowed
    quantum data alike.
    """
    lo, hi = float(window[0]), float(window[1])
    if not (0.0 < lo < hi):
        raise ValueError("window must satisfy 0 < lo < hi")
    eps = np.asarray(curve.eps, dtype=float)
    nu = np.asarray(curve.nu, dtype=float)
    delta = eps - EPS_CRITICAL if side is Side.ABOVE else EPS_CRITICAL - eps
    mask = (delta >= lo) & (delta <= hi) & (nu > 0.0) & np.isfinite(nu)
    n_points = int(np.count_nonzero(mask))
    if n_points < MIN_FIT_POINTS:
        raise ValueError(
            f"only {n_points} usable samples in window [{lo:g}, {hi:g}] on the "
            f"{side.value} side; need at least {MIN_FIT_POINTS}"
        )
    d = delta[mask]
    v = nu[mask]
    if kind is LawKind.POWER_QPT:
        x, y = np.log(d), np.log(v)
    else:
        x, y = -np.log(d), v
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return FitReport(
        kind=kind,
        n_points=n_points,
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )
