"""Semiclassical phase-space density of states for the quantum Rabi model.

In rescaled coordinates x = sqrt(omega0/Omega) x' the lower adiabatic
branch of the classical Hamiltonian gives orbits

    eps(x, p) = p^2 + x^2 - sqrt(1 + 2 g^2 x^2),      eps = 2 E / Omega,

with effective potential branches V(x)/Omega = x^2/2 +- sqrt(1+2g^2x^2)/2.
For g > 1 the lower branch is a double well: minima at
x* = +-sqrt((g^2 - g^-2)/2) with eps_gs = -(g^2 + g^-2)/2, local maximum
at x = 0 with eps = -1, the critical energy separating disconnected
in-well orbits (eps < -1) from connected ones.  For g <= 1 the well is
single and eps_gs = -1.

The density of states and accumulated count, in units of 1/omega0 (the
grand-total over both mirror wells and both momentum branches; this
matches the merged two-parity quantum level count per unit bare energy),
are

    nu(eps, g) = (2 / (omega0 pi)) Int_{x1}^{x2} dx / p(x),
    N(eps, g)  = (4 / (omega0 pi)) Int_{x1}^{x2} p(x) dx,
    p(x) = sqrt(eps - x^2 + sqrt(1 + 2 g^2 x^2)),

with turning points x1, x2 the non-negative roots of p.  nu diverges at
eps = -1: as a power law |eps + 1|^(-1/4) at g = 1 and logarithmically for
g > 1.  Microcanonical observables are shell averages over the same
orbits; the test suite cross-checks them against Hellmann-Feynman
derivatives of the accumulated count taken in bare variables at fixed
coupling lam.

The integrals have inverse-square-root endpoint singularities.  Each is
removed exactly by the substitution x = x2 - t^2 (and x = x1 + t^2 on a
disconnected inner turning point) together with a factored form of the
radicand,

    p^2 = (u2 - u)(u - u1) / (s + u - eps),   u = x^2,  s = sqrt(1+2g^2u),

whose factors are evaluated from exact turning-point offsets, so adaptive
Gauss-Kronrod quadrature on the substituted segments converges to near
machine precision.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad

__all__ = [
    "DosSource",
    "DosCurve",
    "ObservableCurve",
    "QuadratureError",
    "EPS_CRITICAL",
    "ground_state_eps",
    "dos_semiclassical",
    "accumulated_states",
    "dos_curve",
    "observables_microcanonical",
]

# Rescaled critical energy of the excited-state transition (g > 1).
EPS_CRITICAL = -1.0

# No orbit quantities are evaluated closer to eps = -1 than this when the
# density of states diverges there (g > 1); see dos_semiclassical.
CRITICAL_GUARD = 1e-8

DEFAULT_QUAD_TOL = 1e-9


class QuadratureError(RuntimeError):
    """Adaptive quadrature missed its accuracy target."""

    def __init__(self, message: str, value: float, errest: float):
        super().__init__(message)
        self.value = value
        self.errest = errest


class DosSource(enum.Enum):
    SEMICLASSICAL = "semiclassical"
    QUANTUM_WINDOWED = "quantum_windowed"


@dataclass(frozen=True)
class DosCurve:
    """Density of states nu(eps) in 1/omega0 units on an eps grid.

    n_cum, when present, is the accumulated count N(eps) in the same
    normalization (so dN/deps = nu).  window_n is set for curves derived
    from windowed quantum spectra.
    """

    source: DosSource
    g: float
    omega0: float
    eps: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    n_cum: np.ndarray | None = field(repr=False, default=None)
    window_n: int | None = None

    def __post_init__(self):
        self.eps.flags.writeable = False
        self.nu.flags.writeable = False
        if self.n_cum is not None:
            self.n_cum.flags.writeable = False
        if len(self.eps) != len(self.nu):
            raise ValueError("eps and nu must have equal length")


@dataclass(frozen=True)
class ObservableCurve:
    """Microcanonical shell averages on an eps grid.

    nphot_scaled = (omega0/Omega) <a^dag a>; sz = <sigma_z>.  At the
    critical energy the averages are pinned to the hyperbolic point
    (nphot_scaled -> 0, sz -> -1), approached logarithmically slowly.
    """

    g: float
    omega0: float
    eps: np.ndarray = field(repr=False)
    nphot_scaled: np.ndarray = field(repr=False)
    sz: np.ndarray = field(repr=False)

    def __post_init__(self):
        for a in (self.eps, self.nphot_scaled, self.sz):
            a.flags.writeable = False


def _check_g(g: float) -> float:
    if not (isinstance(g, (int, float, np.floating)) and math.isfinite(g) and g >= 0):
        raise ValueError(f"g must be finite and non-negative, got {g!r}")
    return float(g)


def _check_eps(eps: float) -> None:
    # NaN and inf pass every domain check and would integrate to a silent 0
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")


def _check_quad_tol(quad_tol: float) -> None:
    # a NaN tolerance would switch the quadrature error check off
    if not (math.isfinite(quad_tol) and quad_tol > 0):
        raise ValueError(f"quad_tol must be finite and positive, got {quad_tol!r}")


def ground_state_eps(g: float) -> float:
    """Rescaled ground-state energy: -1 for g <= 1, -(g^2 + g^-2)/2 above."""
    g = _check_g(g)
    if g <= 1.0:
        return -1.0
    return -0.5 * (g * g + 1.0 / (g * g))


def _roots_u(g: float, eps: float) -> tuple[float, float]:
    """Roots u1 <= u2 of u^2 - 2(eps + g^2) u + (eps^2 - 1), u = x^2.

    p(x)^2 = 0 at u = x^2 equal to either root; computed in the standard
    cancellation-free way (conjugate form plus root product).
    """
    g2 = g * g
    disc = g2 * g2 + 2.0 * eps * g2 + 1.0
    if disc < 0.0:
        raise ValueError(f"no allowed orbit at eps={eps}, g={g} (below the ground state)")
    sq = math.sqrt(disc)
    q = eps + g2
    if q >= 0.0:
        u_hi = q + sq
    else:
        u_hi = (1.0 - eps * eps) / (sq - q)
    u_lo = (eps * eps - 1.0) / u_hi if u_hi > 0.0 else q - sq
    return u_lo, u_hi


# ---------------------------------------------------------------------------
# Orbit integrals
#
# Every observable reduces to Int w(x) / p(x) dx or Int w(x) p(x) dx over
# [x1, x2].  The domain splits at u_split = (u2 + max(u1, 0))/2; each half
# near a vanishing endpoint of p^2 uses its turning-point substitution with
# p^2 = t^2 * h, h smooth and strictly positive.  On the upper half
# u >= u_split >= eps always holds (u_split - eps = g^2 + (s(x2)^2-1)/...),
# hence s + u - eps >= 1 and the factored form is cancellation-free.
# ---------------------------------------------------------------------------


def _s_of(g: float, u: float) -> float:
    return math.sqrt(1.0 + 2.0 * g * g * u)


def _radicand_direct(g: float, eps: float, x: float) -> float:
    # exact rewrite of eps - x^2 + s avoiding the eps ~ -1 cancellation near
    # the origin: p^2 = (eps+1) + x^2 (2g^2 - 1 - s)/(s + 1)
    u = x * x
    s = _s_of(g, u)
    return (eps + 1.0) + u * (2.0 * g * g - 1.0 - s) / (s + 1.0)


def _quad_segments(
    segments: list[tuple[Callable[[float], float], float, float, tuple[float, ...]]],
    quad_tol: float,
) -> tuple[float, float]:
    total = 0.0
    err = 0.0
    epsrel = max(quad_tol / 8.0, 1e-13)
    with warnings.catch_warnings():
        # accuracy is judged on the summed error estimate below
        warnings.simplefilter("ignore", IntegrationWarning)
        for f, a, b, knots in segments:
            if not b > a:
                continue
            pts = [p for p in knots if a < p < b] or None
            val, e = quad(f, a, b, epsabs=0.0, epsrel=epsrel, limit=200, points=pts)
            total += val
            err += e
    return total, err


def _orbit_integral(
    g: float,
    eps: float,
    weight: Callable[[float], float],
    kind: str,
    quad_tol: float,
) -> float:
    """Int w/p dx (kind='inv') or Int w p dx (kind='sqrt') over [x1, x2]."""
    u_lo, u_hi = _roots_u(g, eps)
    if u_hi <= 0.0 or u_hi - max(u_lo, 0.0) <= 0.0:
        raise ValueError(f"orbit has zero length at eps={eps}, g={g}")
    disconnected = g > 1.0 and eps < EPS_CRITICAL
    x2 = math.sqrt(u_hi)
    x1 = math.sqrt(u_lo) if disconnected else 0.0
    u_split = 0.5 * (u_hi + max(u_lo, 0.0))
    x_split = math.sqrt(u_split)
    x2_minus_x1 = (u_hi - max(u_lo, 0.0)) / (x2 + x1)

    inv = kind == "inv"

    def upper_t(t: float) -> float:
        x = x2 - t * t
        u = x * x
        s = _s_of(g, u)
        if disconnected:
            num = (x2_minus_x1 - t * t) * (x + x1)  # (x - x1)(x + x1), exact offset
        else:
            # u_lo <= 0, or a spurious root kept >= (u_hi-u_lo)/2 away by the split
            num = u - u_lo
        h = (x2 + x) * num / (s + u - eps)
        w = weight(x)
        if inv:
            return 2.0 * w / math.sqrt(h)
        return 2.0 * t * t * w * math.sqrt(h)

    def lower_t(t: float) -> float:
        x = x1 + t * t
        u = x * x
        s = _s_of(g, u)
        x2_minus_x = x2_minus_x1 - t * t
        h = (x + x1) * x2_minus_x * (x2 + x) / (s + u - eps)
        w = weight(x)
        if inv:
            return 2.0 * w / math.sqrt(h)
        return 2.0 * t * t * w * math.sqrt(h)

    def direct(x: float) -> float:
        r = _radicand_direct(g, eps, x)
        w = weight(x)
        if inv:
            return w / math.sqrt(r)
        return w * math.sqrt(r)

    segments: list[tuple[Callable[[float], float], float, float, tuple[float, ...]]] = []
    if disconnected:
        t1_max = math.sqrt(x_split - x1)
        # resolve the crossover scale t ~ sqrt(x1) near a shrinking inner
        # turning point (log regime)
        t0 = math.sqrt(x1) if x1 > 0 else 0.0
        knots = (t0, 3.0 * t0, 10.0 * t0) if t0 > 0 else ()
        segments.append((lower_t, 0.0, t1_max, knots))
    else:
        knots = ()
        if g > 1.0 and 0.0 < eps - EPS_CRITICAL < 1e-2:
            # near-critical bottleneck at the origin, width w
            w0 = math.sqrt((eps - EPS_CRITICAL) / (g * g - 1.0))
            knots = tuple(w0 * 10.0**k for k in range(4))
        segments.append((direct, x1, x_split, knots))
    t2_max = math.sqrt((u_hi - u_split) / (x2 + x_split))  # sqrt(x2 - x_split), stable
    segments.append((upper_t, 0.0, t2_max, ()))

    value, errest = _quad_segments(segments, quad_tol)
    scale = max(abs(value), 1e-300)
    if errest > 10.0 * quad_tol * scale:
        raise QuadratureError(
            f"quadrature error estimate {errest:.3e} exceeds "
            f"{10.0 * quad_tol:.1e} x |I| = {10.0 * quad_tol * scale:.3e} "
            f"at g={g}, eps={eps}",
            value=value,
            errest=errest,
        )
    return value


def _guard_critical(g: float, eps: float, what: str) -> None:
    if g > 1.0 and abs(eps - EPS_CRITICAL) < CRITICAL_GUARD:
        raise ValueError(
            f"{what} is divergent at eps = {EPS_CRITICAL} for g = {g} > 1; "
            f"stay at least {CRITICAL_GUARD} away in eps"
        )


def dos_semiclassical(
    g: float, eps: float, omega0: float = 1.0, quad_tol: float = DEFAULT_QUAD_TOL
) -> float:
    """nu(eps, g) = (2/(omega0 pi)) Int dx/p over the orbit, in 1/omega0.

    Requires eps strictly above the ground-state energy and, for g > 1,
    at least 1e-8 away from the critical energy eps = -1 where nu
    diverges.
    """
    g = _check_g(g)
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    _check_eps(eps)
    _check_quad_tol(quad_tol)
    if eps <= ground_state_eps(g):
        raise ValueError(
            f"no allowed orbit: eps={eps} not above ground-state eps={ground_state_eps(g)}"
        )
    _guard_critical(g, eps, "the density of states")
    val = _orbit_integral(g, eps, lambda x: 1.0, "inv", quad_tol)
    return 2.0 / (omega0 * math.pi) * val


def accumulated_states(
    g: float, eps: float, omega0: float = 1.0, quad_tol: float = DEFAULT_QUAD_TOL
) -> float:
    """N(eps, g) = (4/(omega0 pi)) Int p dx: phase-space count below eps.

    Normalized so dN/deps = nu and N matches (2/Omega x) the merged
    two-parity quantum level count.  N(eps_gs) = 0.
    """
    g = _check_g(g)
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    _check_eps(eps)
    _check_quad_tol(quad_tol)
    e_gs = ground_state_eps(g)
    if eps < e_gs:
        raise ValueError(f"no allowed orbit: eps={eps} below ground-state eps={e_gs}")
    if eps == e_gs:
        return 0.0
    _guard_critical(g, eps, "the accumulated count")
    val = _orbit_integral(g, eps, lambda x: 1.0, "sqrt", quad_tol)
    return 4.0 / (omega0 * math.pi) * val


def dos_curve(
    g: float,
    eps: np.ndarray,
    omega0: float = 1.0,
    quad_tol: float = DEFAULT_QUAD_TOL,
    with_counts: bool = False,
) -> DosCurve:
    """Sample nu (and optionally N) on an eps grid."""
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    nu = np.array([dos_semiclassical(g, e, omega0, quad_tol) for e in eps])
    n_cum = None
    if with_counts:
        n_cum = np.array([accumulated_states(g, e, omega0, quad_tol) for e in eps])
    return DosCurve(
        source=DosSource.SEMICLASSICAL,
        g=float(g),
        omega0=float(omega0),
        eps=eps,
        nu=nu,
        n_cum=n_cum,
    )


def _observables_point(g: float, eps: float, quad_tol: float) -> tuple[float, float]:
    # shell averages: <A> = Int (A/p) dx / Int (1/p) dx on the orbit;
    # <sigma_z> weight is -1/s, <a^dag a> (scaled) weight is (eps + s)/2
    # since x^2 + p^2 = eps + s on shell
    denom = _orbit_integral(g, eps, lambda x: 1.0, "inv", quad_tol)
    g2 = g * g

    def w_sz(x: float) -> float:
        return -1.0 / _s_of(g, x * x)

    def w_np(x: float) -> float:
        return 0.5 * (eps + _s_of(g, x * x))

    sz = _orbit_integral(g, eps, w_sz, "inv", quad_tol) / denom
    nphot = _orbit_integral(g, eps, w_np, "inv", quad_tol) / denom
    return nphot, sz


def observables_microcanonical(
    g: float,
    eps,
    omega0: float = 1.0,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> ObservableCurve:
    """Shell-averaged nphot_scaled and sz on an eps grid.

    nphot_scaled is <a^dag a> omega0/Omega = <x^2 + p^2>/2; sz is
    <sigma_z> = -<1/sqrt(1+2g^2x^2)>.  Same domain restrictions as
    dos_semiclassical.
    """
    g = _check_g(g)
    _check_quad_tol(quad_tol)
    eps_arr = np.atleast_1d(np.asarray(eps, dtype=float))
    nphot = np.empty_like(eps_arr)
    sz = np.empty_like(eps_arr)
    for i, e in enumerate(eps_arr):
        _check_eps(e)
        if e <= ground_state_eps(g):
            raise ValueError(f"eps={e} not above the ground-state energy")
        _guard_critical(g, e, "the microcanonical average")
        nphot[i], sz[i] = _observables_point(g, float(e), quad_tol)
    return ObservableCurve(g=float(g), omega0=float(omega0), eps=eps_arr, nphot_scaled=nphot, sz=sz)
