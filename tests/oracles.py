"""Independent reference implementations used by the test suite.

The dense oracle builds the full Fock-spin Hamiltonian with np.kron and
knows nothing about the chain decomposition; agreement between the two is
therefore a real cross-check, not a tautology.  The Hellmann-Feynman
observables differentiate the accumulated level count instead of averaging
over the orbit shell, so they check the package's shell averages by a
second route.  The quadrature oracle table
was generated once with mpmath tanh-sinh integration at 40 significant
digits, and the critical pinning constants at 50 (generator scripts at the
bottom); both are frozen here so the suite does not depend on mpmath at run
time.
"""

from __future__ import annotations

import math

import numpy as np

from rabi_esqpt import Parity, RabiParams, accumulated_states, dos_semiclassical


def dense_hamiltonian(params: RabiParams, n_max: int) -> np.ndarray:
    """Full Hamiltonian on n_max photon states x 2 spin states.

    Basis ordering |n, up>, |n, down| interleaved via kron(photon, spin).
    """
    n = np.arange(n_max, dtype=float)
    a = np.diag(np.sqrt(n[1:]), k=1)  # annihilation on the photon ladder
    num = np.diag(n)
    eye_f = np.eye(n_max)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    eye_s = np.eye(2)
    return (
        params.omega0 * np.kron(num, eye_s)
        + 0.5 * params.Omega * np.kron(eye_f, sz)
        - params.lam * np.kron(a + a.T, sx)
    )


def dense_parity_operator(n_max: int) -> np.ndarray:
    """exp(i pi n) sigma_z in the same kron basis, a diagonal sign matrix."""
    signs_f = np.diag((-1.0) ** np.arange(n_max))
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    return np.kron(signs_f, sz)


def dense_sector_data(params: RabiParams, n_max: int):
    """Eigenvalues and per-state observables of both sectors from the dense H.

    Returns {Parity.MINUS: (energies, n_phot, sz, p_loc), Parity.PLUS: ...},
    each array sorted by energy within the sector.  p_loc is the weight on
    |0,down> for the minus sector and on |1,down> for the plus sector.
    """
    h = dense_hamiltonian(params, n_max)
    pi = dense_parity_operator(n_max)
    w, v = np.linalg.eigh(h)
    pexp = np.einsum("ij,jk,ki->i", v.T, pi, v)
    if not np.all(np.abs(np.abs(pexp) - 1.0) < 1e-8):
        raise AssertionError("dense eigenstates are not parity eigenstates")
    n_op = np.kron(np.diag(np.arange(n_max, dtype=float)), np.eye(2))
    sz_op = np.kron(np.eye(n_max), np.diag([1.0, -1.0]))
    n_exp = np.einsum("ij,jk,ki->i", v.T, n_op, v)
    sz_exp = np.einsum("ij,jk,ki->i", v.T, sz_op, v)
    # |n, up> at index 2n, |n, down> at 2n + 1
    p0_down = v[1] ** 2
    p1_down = v[3] ** 2
    out = {}
    for parity, sign, p_loc in ((Parity.MINUS, -1.0, p0_down),
                                (Parity.PLUS, +1.0, p1_down)):
        sel = np.nonzero(np.abs(pexp - sign) < 1e-8)[0]
        out[parity] = (w[sel], n_exp[sel], sz_exp[sel], p_loc[sel])
    return out


def _count_bare(E: float, omega0: float, Omega: float, lam: float, quad_tol: float) -> float:
    """Accumulated level count below bare energy E, in bare variables.

    (Omega/2) x the scaled N: the true number of levels (merged parities)
    below E for the Hamiltonian with parameters (omega0, Omega, lam).
    """
    g = 2.0 * lam / math.sqrt(omega0 * Omega)
    eps = 2.0 * E / Omega
    return 0.5 * Omega * accumulated_states(g, eps, omega0=omega0, quad_tol=quad_tol)


def observables_hellmann_feynman(
    params: RabiParams,
    eps: float,
    quad_tol: float = 1e-12,
) -> tuple[float, float]:
    """(nphot_scaled, sz) from Hellmann-Feynman derivatives of the count.

    <a^dag a> = -(1/nu) dN/d omega0 and <sigma_z> = -(2/nu) dN/d Omega,
    with N the bare-variable accumulated count at fixed bare energy E and
    fixed coupling lam, differenced centrally with steps 1e-5 omega0 and
    1e-5 Omega; nu is the density per unit bare energy.  Cross-validates
    observables_microcanonical.
    """
    omega0, Omega, lam = params.omega0, params.Omega, params.lam
    E = 0.5 * eps * Omega
    nu_bare = dos_semiclassical(params.g, eps, omega0=omega0, quad_tol=quad_tol)

    dw = 1e-5 * omega0
    n_w = (
        _count_bare(E, omega0 + dw, Omega, lam, quad_tol)
        - _count_bare(E, omega0 - dw, Omega, lam, quad_tol)
    ) / (2.0 * dw)
    n_phot = -n_w / nu_bare

    dO = 1e-5 * Omega
    n_O = (
        _count_bare(E, omega0, Omega + dO, lam, quad_tol)
        - _count_bare(E, omega0, Omega - dO, lam, quad_tol)
    ) / (2.0 * dO)
    sz = -2.0 * n_O / nu_bare

    return (omega0 / Omega) * n_phot, sz


def random_params(rng: np.random.Generator) -> RabiParams:
    """One admissible parameter draw for oracle comparisons."""
    omega0 = rng.uniform(0.5, 2.0)
    ratio = rng.uniform(1.0, 60.0)
    g = rng.uniform(0.0, 2.5)
    return RabiParams(omega0=omega0, Omega=omega0 * ratio, g=g)


# (g, eps) -> (nu, N) at omega0 = 1, from mpmath tanh-sinh at 40 digits.
QUAD_ORACLE = {
    (0.5, -0.3): (1.1298778523006552, 0.79874464164354594),
    (0.8, 0.3): (1.2598503476539979, 1.7736398606834599),
    (1.2, -0.5): (1.671322143664036, 1.239424004577497),
    (1.2, -1.05): (2.885920928115806, 0.048732927602411891),
    (1.2, -0.999999): (7.9005590533017845, 0.21349312573477806),
    (1.4, -1.15): (2.4208637644649764, 0.2015742238744435),
    (1.0, -0.9999): (9.9734439600585751, 0.001327234760324248),
    (2.0, -1.5): (2.1299533882229735, 1.3069568843616116),
    (2.0, 0.0): (1.7100564698203868, 4.3788432531356672),
}

# g -> (D0, M_sz, M_n) at omega0 = 1, from mpmath tanh-sinh at 50 digits.
# Constants of the critical pinning law of the shell averages for g > 1,
# with delta = eps + 1 and k = g^2 - 1:
#   d(delta) = M / (ln(1/delta) / (2 sqrt(k)) + D0) + O(delta ln(1/delta)),
# where d is (sz + 1)/2 (constant M_sz) or nphot_scaled (constant M_n).
# On the critical orbit p_c = x q with s = sqrt(1 + 2 g^2 x^2),
# q^2 = (2 g^2 - 1 - s)/(s + 1) and outer turning point x_c = sqrt(2 k):
#   M_sz = 1/2 Int_0^x_c (1 - 1/s)/p_c dx,  M_n = 1/2 Int_0^x_c (s - 1)/p_c dx,
#   D0 = ln(2 x_c sqrt(k))/sqrt(k) + Int_0^x_c (1/q - 1/sqrt(k)) dx/x,
# the last being the constant term of Int dx/p as delta -> 0.  Keys are
# the binary doubles 1.2 and 1.4, as the package receives them.
PINNING_ORACLE = {
    1.2: (1.9963728889473298, 0.5856855434571509, 0.92102659719222622),
    1.4: (2.5905028428808878, 0.77519337331036124, 1.7239815354912177),
}

# Generator (requires mpmath; run manually to regenerate QUAD_ORACLE):
#
#   import mpmath as mp
#   mp.mp.dps = 40
#   def p2(x, g, eps): return eps + mp.sqrt(1 + 2*g*g*x*x) - x*x
#   def turning(g, eps):
#       g2 = mp.mpf(g)**2
#       disc = mp.sqrt(g2*g2 + 2*eps*g2 + 1)
#       x2 = mp.sqrt(eps + g2 + disc)
#       x1 = mp.sqrt(eps + g2 - disc) if (g > 1 and eps < -1) else mp.mpf(0)
#       return x1, x2
#   def nu_N(g, eps):
#       g, eps = mp.mpf(g), mp.mpf(eps)
#       x1, x2 = turning(g, eps)
#       pts = [x1]
#       if x1 == 0 and g > 1 and eps > -1:
#           w = mp.sqrt((eps + 1) / (g*g - 1))
#           pts += [w*f for f in (1, 10, 100, 1000) if x1 < w*f < x2]
#       elif x1 > 0:
#           pts += [x1 + (x2-x1)*f/10 for f in (mp.mpf(1)/2, 2, 8)]
#       pts.append(x2)
#       nu = (2/mp.pi) * mp.quad(lambda x: 1/mp.sqrt(p2(x, g, eps)), pts)
#       N = (4/mp.pi) * mp.quad(lambda x: mp.sqrt(p2(x, g, eps)), pts)
#       return mp.re(nu), mp.re(N)
#
# Generator for PINNING_ORACLE (same imports):
#
#   mp.mp.dps = 50
#   def pinning(g):
#       g = mp.mpf(g)
#       k = g*g - 1
#       xc = mp.sqrt(2*k)
#       s = lambda x: mp.sqrt(1 + 2*g*g*x*x)
#       q = lambda x: mp.sqrt((2*g*g - 1 - s(x)) / (s(x) + 1))
#       pts = [xc*f/4 for f in range(5)]
#       M_sz = mp.quad(lambda x: (1 - 1/s(x)) / (x*q(x)), pts) / 2
#       M_n = mp.quad(lambda x: (s(x) - 1) / (x*q(x)), pts) / 2
#       D0 = (mp.log(2*xc*mp.sqrt(k)) / mp.sqrt(k)
#             + mp.quad(lambda x: (1/q(x) - 1/mp.sqrt(k)) / x, pts))
#       return tuple(mp.re(v) for v in (D0, M_sz, M_n))
