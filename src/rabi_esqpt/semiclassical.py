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

between the adjacent roots [a, b] = [1, s+] (connected orbits) or [s-, s+]
(in one well).  With c = min(1, s-) and s = (a + b u)/(1 + u),

    Int w dx/p = Int_0^inf w s du / sqrt(u (alpha + beta u)(gamma + delta u)),
    alpha = a - c, beta = b - c, gamma = a + 1, delta = b + 1,

and every weight w s needed here is a polynomial of degree at most 3 in
1/(1 + u).  The moments J_n of that measure against 1/(1 + u)^n come from
Carlson's symmetric integrals (DLMF 19.29; Carlson, Math. Comp. 49 (1987)
595): J_0 from R_F, J_1 from R_J and, away from the well bottom, J_2 and
J_3 from R_D and the recurrence between neighbouring moments.  Near the
bottom, and at g = 1 near eps = -1, that recurrence cancels, and J_2, J_3
come from a fixed midpoint rule that converges geometrically there.  Both
cover whole eps arrays at once, with no quadrature tolerance.  The root
offsets and the weights are formed without cancellation at eps = -1, at
the well bottom and as g -> 0.

Each public call checks its whole domain once, g, omega0 and every eps
together, before any orbit is formed; dos_semiclassical and
accumulated_states are one-point calls of the same path as the curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import elliprd, elliprf, elliprj

__all__ = [
    "DosCurve",
    "ObservableCurve",
    "EPS_CRITICAL",
    "ground_state_eps",
    "dos_semiclassical",
    "accumulated_states",
    "dos_curve",
    "observables_microcanonical",
]


def __getattr__(name):
    # No package code calls quad; only perfbench/tracing.py binds the name.
    # It resolves on first access, so a CLI start loads no scipy.integrate.
    # Delete this once the benchmark stops binding the name.
    if name == "quad":
        from scipy.integrate import quad

        globals()["quad"] = quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Rescaled critical energy of the excited-state transition (g > 1).
EPS_CRITICAL = -1.0

# No orbit quantities are evaluated closer to eps = -1 than this when the
# density of states diverges there (g > 1); see _domain.
CRITICAL_GUARD = 1e-8


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


# Orbit integrals, over whole eps arrays.  The orbit is [a, b] in s and
# c = min(1, s-); with s = (a + b u)/(1 + u) (see the module docstring)
#     Int w dx/p = Int_0^inf w s dmu,
#     dmu = du / sqrt(u (alpha + beta u)(gamma + delta u)),
# and the moments are J_n = Int dmu / (1 + u)^n.


class _Orbit(NamedTuple):
    a: np.ndarray  # lower end max(1, s-) of the orbit in s
    span: np.ndarray  # b - a, upper end b = s+
    a_c: np.ndarray  # a - c
    a_sm: np.ndarray  # a - s-
    span_g2: np.ndarray  # (b - a) / g^2
    a1_g2: np.ndarray  # (a - 1) / g^2


def _orbit(g: float, eps) -> _Orbit:
    """The orbits in s at each eps, with every offset formed without cancellation.

    The root offsets s+ - 1 and 1 - s- have product 2 g^2 (eps + 1); the one
    that would cancel is taken from that product instead, so nothing is lost
    at eps = -1, at the well bottom or as g -> 0.
    """
    eps = np.asarray(eps, dtype=float)
    g2 = g * g
    k = (g - 1.0) * (g + 1.0)
    e1 = eps + 1.0
    d = k * k + 2.0 * g2 * e1  # (s+ - s-)^2 / 4
    bad = eps[(d < 0.0) | ((k < 0.0) & (e1 < 0.0))]  # s+- complex, or s+ < 1
    if bad.size:
        raise ValueError(f"no allowed orbit at eps={bad.flat[0]}, g={g} "
                         "(below the ground state)")
    r = np.sqrt(d)
    if k < 0.0:  # g < 1: a single well, every orbit connected
        lo = r - k  # 1 - s-
        up_g2 = 2.0 * e1 / lo
        zero = np.zeros_like(lo)
        return _Orbit(a=zero + 1.0, span=g2 * up_g2, a_c=lo, a_sm=lo,
                      span_g2=up_g2, a1_g2=zero)
    up = k + r  # s+ - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(up > 0.0, 2.0 * g2 * e1 / up, 0.0)
    # connected where lo >= 0: the orbit passes through x = 0; otherwise in
    # one well, where s- > 1 is the inner turning point
    well = lo < 0.0
    span = np.where(well, 2.0 * r, up)
    return _Orbit(a=np.where(well, 1.0 - lo, 1.0), span=span, a_c=np.abs(lo),
                  a_sm=np.where(well, 0.0, lo), span_g2=span / g2,
                  a1_g2=np.where(well, -lo / g2, 0.0))


# Midpoint nodes on [0, pi/2] for J_2 and J_3 near the well bottom, where
#     J_n = (2/sqrt(beta delta)) Int_0^{pi/2} sin^2n(t) dt
#           / sqrt((1 - A sin^2 t)(1 - B sin^2 t)),   A = span/beta, B = span/delta.
# The integrand is periodic and analytic; for A, B <= 1/2 the rule is exact
# to roundoff from 16 nodes on (2e-11 at 8), and for A, B <= 0.9 from 32.
# The rule serves up to 0.9 and not just to 1/2: at g = 1, A is 1/2 and
# B -> 0 as eps -> -1, where the recurrence below loses up to 1e-4 of J_3.
_NODES = 32
_NEAR = 0.9
_SIN2 = np.sin((np.arange(_NODES) + 0.5) * (0.5 * math.pi / _NODES)) ** 2


def _moments(o: _Orbit) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """J_0, J_1, J_2 and J_3 on every orbit."""
    span = o.span
    beta = span + o.a_c
    gamma = o.a + 1.0
    delta = gamma + span
    x, y, p = o.a_c * delta, gamma * beta, beta * delta
    j0 = 2.0 * elliprf(0.0, x, y)
    j1 = (2.0 / 3.0) * p * elliprj(0.0, x, y, p)
    A, B = span / beta, span / delta
    j2, j3 = np.empty_like(j0), np.empty_like(j0)
    near = np.maximum(A, B) <= _NEAR
    if near.any():
        w = (math.pi / _NODES) / np.sqrt(p[near, None] * (1.0 - A[near, None] * _SIN2)
                                         * (1.0 - B[near, None] * _SIN2))
        j2[near] = w @ _SIN2**2
        j3[near] = w @ _SIN2**3
    far = ~near
    if far.any():
        # With Q = u (u + 1 - A)(u + 1 - B), the derivatives of
        # sqrt(Q) (1/(1+u) - 1/(u+1-B)) and of sqrt(Q)/(1+u)^2 integrate to 0 over
        # [0, inf).  Solved for J_2 and J_3 they divide by A B, which vanishes at
        # the well bottom and, with B, at g = 1 near eps = -1: there the midpoint
        # rule above takes over.
        A, B, i0, i1 = A[far], B[far], j0[far], j1[far]
        jd = (2.0 / 3.0) * p[far] * elliprd(0.0, x[far], y[far])  # Int delta dmu/(gamma + delta u)
        s1, s2, ab2 = 1.0 + A + B, A + B + A * B, 2.0 * A * B
        i2 = (s2 * i1 - B * i0 + (y[far] / p[far]) * (B - A) * jd) / ab2
        j2[far] = i2
        j3[far] = (0.5 * i0 - s1 * i1 + 1.5 * s2 * i2) / ab2
    return j0, j1, j2, j3


class _Integrals(NamedTuple):
    """Int w dx/p for the four weights the curves need, on every orbit."""

    one: np.ndarray  # w = 1
    p2: np.ndarray  # w = p^2
    sz: np.ndarray  # w = -1/s, i.e. sigma_z
    nphot: np.ndarray  # w = (x^2 + p^2)/2, i.e. the scaled photon number


def _orbit_integrals(g: float, eps: np.ndarray) -> _Integrals:
    o = _orbit(g, eps)
    j0, j1, j2, j3 = _moments(o)
    span = o.span
    b = o.a + span
    # each weight times s = b - span v, v = 1/(1 + u), is a polynomial in v
    # x^2 + p^2 = eps + s = x_b - span v, with x_b = eps + b = x^2 at s = b
    # formed as in x^2 = (s + 1)(s - 1)/(2 g^2): eps + s would cancel at the
    # well bottom
    x_b = 0.5 * (b + 1.0) * (o.a1_g2 + o.span_g2)
    # p^2 = (b - s)(s - s-)/(2 g^2) = (span_g2/2) v (b_m - span v), b_m = b - s-
    b_m = span + o.a_sm
    return _Integrals(
        one=b * j0 - span * j1,
        p2=0.5 * o.span_g2 * (b * b_m * j1 - span * (b + b_m) * j2 + span * span * j3),
        sz=-j0,
        nphot=0.5 * (b * x_b * j0 - span * (b + x_b) * j1 + span * span * j2),
    )


def _domain(g, eps, omega0: float = 1.0,
            ground_ok: bool = False) -> tuple[float, np.ndarray]:
    """The one domain check of a call: returns g as a float and eps as a 1-D array.

    Every eps must be finite and above the ground state (at it, with
    ground_ok) and, for g > 1, at least CRITICAL_GUARD from eps = -1.
    """
    e_gs = ground_state_eps(g)
    g = float(g)
    _check_omega0(omega0)
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    # NaN and inf pass every check below and would give a silent NaN or 0
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


def dos_semiclassical(g: float, eps: float, omega0: float = 1.0) -> float:
    """nu(eps, g) = (2/(omega0 pi)) Int dx/p over the orbit, in 1/omega0.

    Requires eps strictly above the ground-state energy and, for g > 1,
    at least 1e-8 away from the critical energy eps = -1 where nu
    diverges.
    """
    return dos_curve(g, eps, omega0).nu.item()


def accumulated_states(g: float, eps: float, omega0: float = 1.0) -> float:
    """N(eps, g) = (4/(omega0 pi)) Int p dx: phase-space count below eps.

    Normalized so dN/deps = nu and N matches (2/Omega x) the merged
    two-parity quantum level count.  N(eps_gs) = 0.  Same domain as
    dos_semiclassical, except that eps may sit at the ground state.
    """
    g, eps = _domain(g, eps, omega0, ground_ok=True)
    if eps.item() == ground_state_eps(g):
        return 0.0
    return 4.0 / (omega0 * math.pi) * _orbit_integrals(g, eps).p2.item()


def dos_curve(
    g: float,
    eps: np.ndarray,
    omega0: float = 1.0,
    with_counts: bool = False,
) -> DosCurve:
    """Sample nu (and optionally N) on an eps grid; the domain of dos_semiclassical."""
    g, eps = _domain(g, eps, omega0)
    ints = _orbit_integrals(g, eps)
    n_cum = 4.0 / (omega0 * math.pi) * ints.p2 if with_counts else None
    return DosCurve(eps=eps, nu=2.0 / (omega0 * math.pi) * ints.one, n_cum=n_cum)


def observables_microcanonical(g: float, eps) -> ObservableCurve:
    """Shell-averaged nphot_scaled and sz on an eps grid.

    nphot_scaled is <a^dag a> omega0/Omega = <x^2 + p^2>/2; sz is
    <sigma_z> = -<1/sqrt(1+2g^2x^2)>.  Same domain restrictions as
    dos_semiclassical.
    """
    g, eps = _domain(g, eps)
    ints = _orbit_integrals(g, eps)
    # shell averages: <A> = Int (A/p) dx / Int (1/p) dx on the orbit
    return ObservableCurve(eps=eps, nphot_scaled=ints.nphot / ints.one, sz=ints.sz / ints.one)
