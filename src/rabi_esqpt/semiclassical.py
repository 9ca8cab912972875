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

Every orbit integral is complete in s = sqrt(1 + 2 g^2 x^2), where

    dx / p = s ds / sqrt((s^2 - 1)(s+ - s)(s - s-)),
    s+- = g^2 +- sqrt(g^4 + 1 + 2 g^2 eps),

between the adjacent roots [1, s+] (connected orbits) or [s-, s+] (in one
well).  The substitution s = a + (b - a) sin^2(phi) takes out both endpoint
singularities, so one adaptive Gauss-Kronrod quadrature on [0, pi/2]
converges to near machine precision.  The root offsets and the weights
are evaluated without cancellation at eps = -1, at the well bottom and as
g -> 0.

Each public call checks its whole domain once, g, omega0, quad_tol and every
eps together, before any quadrature; dos_semiclassical and
accumulated_states are one-point calls of the same path as the curves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import IntegrationWarning, quad

__all__ = [
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
# density of states diverges there (g > 1); see _domain.
CRITICAL_GUARD = 1e-8

DEFAULT_QUAD_TOL = 1e-9


class QuadratureError(RuntimeError):
    """Adaptive quadrature missed its accuracy target."""

    def __init__(self, message: str, value: float, errest: float):
        super().__init__(message)
        self.value = value
        self.errest = errest


@dataclass(frozen=True)
class DosCurve:
    """Density of states nu(eps) in 1/omega0 units on an eps grid.

    n_cum, when present, is the accumulated count N(eps) in the same
    normalization (so dN/deps = nu).
    """

    eps: np.ndarray = field(repr=False)
    nu: np.ndarray = field(repr=False)
    n_cum: np.ndarray | None = field(repr=False, default=None)

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


def _check_omega0(omega0: float) -> float:
    if not 0.0 < omega0 < math.inf:
        raise ValueError(f"omega0 must be finite and positive, got {omega0!r}")
    return float(omega0)


def ground_state_eps(g: float) -> float:
    """Rescaled ground-state energy: -1 for g <= 1, -(g^2 + g^-2)/2 above."""
    g = _check_g(g)
    if g <= 1.0:
        return -1.0
    return -0.5 * (g * g + 1.0 / (g * g))


# Orbit integrals.  The orbit is [a, b] = [max(1, s-), s+] in s; with
# c = min(1, s-) and s = a + (b - a) sin^2(phi) (see the module docstring),
#     Int w dx/p = 2 Int_0^{pi/2} w s / sqrt((s + 1)(s - c)) dphi.


class _Orbit(NamedTuple):
    a: float  # lower end max(1, s-) of the orbit in s
    span: float  # b - a, upper end b = s+
    a_c: float  # a - c
    a_sm: float  # a - s-
    span_g2: float  # (b - a) / g^2
    a1_g2: float  # (a - 1) / g^2


def _orbit(g: float, eps: float) -> _Orbit:
    """The orbit in s, with every offset formed without cancellation.

    The root offsets s+ - 1 and 1 - s- have product 2 g^2 (eps + 1); the one
    that would cancel is taken from that product instead, so nothing is lost
    at eps = -1, at the well bottom or as g -> 0.
    """
    g2 = g * g
    k = (g - 1.0) * (g + 1.0)
    d = k * k + 2.0 * g2 * (eps + 1.0)  # (s+ - s-)^2 / 4
    r = math.sqrt(max(d, 0.0))
    if k >= 0.0:
        up = k + r  # s+ - 1
        lo = 2.0 * g2 * (eps + 1.0) / up if up > 0.0 else 0.0  # 1 - s-
        up_g2 = up / g2
    else:
        lo = r - k
        up_g2 = 2.0 * (eps + 1.0) / lo
        up = g2 * up_g2
    if d < 0.0 or up < 0.0:
        raise ValueError(f"no allowed orbit at eps={eps}, g={g} (below the ground state)")
    if lo >= 0.0:  # connected: the orbit passes through x = 0
        return _Orbit(1.0, up, lo, lo, up_g2, 0.0)
    # in one well: s- > 1 is the inner turning point
    return _Orbit(1.0 - lo, 2.0 * r, -lo, 0.0, 2.0 * r / g2, -lo / g2)


def _w_one(o: _Orbit, s: float, sn: float, cs: float) -> float:
    return 1.0


def _w_p2(o: _Orbit, s: float, sn: float, cs: float) -> float:
    # p^2 = (b - s)(s - s-) / (2 g^2)
    return 0.5 * o.span_g2 * cs * (o.a_sm + o.span * sn)


def _w_sz(o: _Orbit, s: float, sn: float, cs: float) -> float:
    return -1.0 / s


def _w_nphot(o: _Orbit, s: float, sn: float, cs: float) -> float:
    # (x^2 + p^2)/2 with x^2 = (s + 1)(s - 1) / (2 g^2): a sum of non-negative
    # terms, where eps + s would cancel at the well bottom
    x2 = 0.5 * (s + 1.0) * (o.a1_g2 + o.span_g2 * sn)
    return 0.5 * (x2 + _w_p2(o, s, sn, cs))


def _orbit_integral(
    g: float,
    eps: float,
    weight: Callable[[_Orbit, float, float, float], float],
    quad_tol: float,
) -> float:
    """Int w dx/p over the orbit; w is evaluated from the orbit offsets."""
    o = _orbit(g, eps)
    a, span, a_c = o.a, o.span, o.a_c

    def f(phi: float) -> float:
        sn = math.sin(phi) ** 2
        s = a + span * sn
        return s * weight(o, s, sn, math.cos(phi) ** 2) / math.sqrt((s + 1.0) * (a_c + span * sn))

    with warnings.catch_warnings():
        # accuracy is judged on the error estimate below
        warnings.simplefilter("ignore", IntegrationWarning)
        half, half_err = quad(f, 0.0, 0.5 * math.pi, epsabs=0.0,
                              epsrel=max(quad_tol / 8.0, 1e-13), limit=200)
    value, errest = 2.0 * half, 2.0 * half_err
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


def _domain(g, eps, quad_tol: float, omega0: float = 1.0,
            ground_ok: bool = False) -> tuple[float, np.ndarray]:
    """The one domain check of a call: returns g as a float and eps as a 1-D array.

    Every eps must be finite and above the ground state (at it, with
    ground_ok) and, for g > 1, at least CRITICAL_GUARD from eps = -1.
    """
    e_gs = ground_state_eps(g)
    g = float(g)
    _check_omega0(omega0)
    # a NaN tolerance would switch the quadrature error check off
    if not (math.isfinite(quad_tol) and quad_tol > 0):
        raise ValueError(f"quad_tol must be finite and positive, got {quad_tol!r}")
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    # NaN and inf pass every check below and would integrate to a silent 0
    bad = eps[~np.isfinite(eps)]
    if bad.size:
        raise ValueError(f"eps must be finite, got {bad[0]}")
    bad = eps[eps < e_gs] if ground_ok else eps[eps <= e_gs]
    if bad.size:
        raise ValueError(f"no allowed orbit: eps={bad[0]} is not above the "
                         f"ground-state eps={e_gs}")
    if g > 1.0:
        bad = eps[np.abs(eps - EPS_CRITICAL) < CRITICAL_GUARD]
        if bad.size:
            raise ValueError(f"eps={bad[0]} is within {CRITICAL_GUARD:g} of eps = "
                             f"{EPS_CRITICAL}, where nu diverges for g = {g} > 1")
    return g, eps


def dos_semiclassical(
    g: float, eps: float, omega0: float = 1.0, quad_tol: float = DEFAULT_QUAD_TOL
) -> float:
    """nu(eps, g) = (2/(omega0 pi)) Int dx/p over the orbit, in 1/omega0.

    Requires eps strictly above the ground-state energy and, for g > 1,
    at least 1e-8 away from the critical energy eps = -1 where nu
    diverges.
    """
    return dos_curve(g, eps, omega0, quad_tol).nu.item()


def accumulated_states(
    g: float, eps: float, omega0: float = 1.0, quad_tol: float = DEFAULT_QUAD_TOL
) -> float:
    """N(eps, g) = (4/(omega0 pi)) Int p dx: phase-space count below eps.

    Normalized so dN/deps = nu and N matches (2/Omega x) the merged
    two-parity quantum level count.  N(eps_gs) = 0.  Same domain as
    dos_semiclassical, except that eps may sit at the ground state.
    """
    g, (eps,) = _domain(g, eps, quad_tol, omega0, ground_ok=True)
    if eps == ground_state_eps(g):
        return 0.0
    return 4.0 / (omega0 * math.pi) * _orbit_integral(g, eps, _w_p2, quad_tol)


def dos_curve(
    g: float,
    eps: np.ndarray,
    omega0: float = 1.0,
    quad_tol: float = DEFAULT_QUAD_TOL,
    with_counts: bool = False,
) -> DosCurve:
    """Sample nu (and optionally N) on an eps grid; the domain of dos_semiclassical."""
    g, eps = _domain(g, eps, quad_tol, omega0)
    nu = np.array([2.0 / (omega0 * math.pi) * _orbit_integral(g, e, _w_one, quad_tol)
                   for e in eps.tolist()])
    n_cum = None
    if with_counts:
        n_cum = np.array([4.0 / (omega0 * math.pi) * _orbit_integral(g, e, _w_p2, quad_tol)
                          for e in eps.tolist()])
    return DosCurve(eps=eps, nu=nu, n_cum=n_cum)


def observables_microcanonical(
    g: float,
    eps,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> ObservableCurve:
    """Shell-averaged nphot_scaled and sz on an eps grid.

    nphot_scaled is <a^dag a> omega0/Omega = <x^2 + p^2>/2; sz is
    <sigma_z> = -<1/sqrt(1+2g^2x^2)>.  Same domain restrictions as
    dos_semiclassical.
    """
    g, eps = _domain(g, eps, quad_tol)
    nphot = np.empty_like(eps)
    sz = np.empty_like(eps)
    for i, e in enumerate(eps.tolist()):
        # shell averages: <A> = Int (A/p) dx / Int (1/p) dx on the orbit
        denom = _orbit_integral(g, e, _w_one, quad_tol)
        sz[i] = _orbit_integral(g, e, _w_sz, quad_tol) / denom
        nphot[i] = _orbit_integral(g, e, _w_nphot, quad_tol) / denom
    return ObservableCurve(eps=eps, nphot_scaled=nphot, sz=sz)
