"""Independent reference implementations used by the test suite.

The dense oracle builds the full Fock-spin Hamiltonian with np.kron and
knows nothing about the chain decomposition; agreement between the two is
therefore a real cross-check, not a tautology.  The Hellmann-Feynman
observables differentiate the accumulated level count instead of averaging
over the orbit shell, so they check the package's shell averages by a
second route.  The eigenvalue oracles read <a^dag a>, <sigma_z> and p_loc
of a certified window off chain eigenvalues alone, so they check the
streamed eigenvector observables at R = 10^3, where no dense matrix fits.  The
quadrature route evaluates each orbit integral by one adaptive quad call,
as the package did before its closed forms, and checks the closed forms
point by point.  The quadrature and shell-average oracle
tables were generated with mpmath tanh-sinh integration in x at 40
significant digits, and the critical pinning constants at 50; all three are
frozen here so the suite does not depend on mpmath at run time.  Running this file regenerates
them (see the entry at the bottom).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg.lapack import dsterf

from rabi_esqpt import Parity, ParitySpectrum, RabiParams, build_parity_chain, dos_curve


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


def _levels(diag: np.ndarray, offdiag: np.ndarray) -> np.ndarray:
    """Every eigenvalue of a symmetric tridiagonal matrix, from LAPACK sterf."""
    w, info = dsterf(diag, offdiag)
    assert info == 0
    return w


def observables_from_eigenvalues(spec: ParitySpectrum) -> tuple[np.ndarray, np.ndarray]:
    """(sz, p_loc) of every level of a certified solve, with no eigenvector.

    Both come from LAPACK sterf eigenvalues of the spec.dim-site chain T.
    <sigma_z>_k is dE_k/dh of T + h diag(spin signs), by a central
    difference at h = 1e-3.  The weight on site s (0 in the minus sector,
    1 in the plus one) is, with E the eigenvalues of T and mu those of T
    with site s removed,

        |v_k[s]|^2 = p_[0,s)(E_k) p_(s,d)(E_k) / p'(E_k)
                   = prod_i (E_k - mu_i) / prod_{j != k} (E_k - E_j),

    summed in logs; a log 0 is a weight that underflows.  A parity chain
    is irreducible, so its levels are simple and keep their index under h.
    """
    chain = build_parity_chain(spec.params, spec.parity, spec.dim)
    a, b, k = chain.diag, chain.offdiag, len(spec)
    h, signs = 1e-3, spec.parity.spin_signs(chain.dim)
    sz = (_levels(a + h * signs, b)[:k] - _levels(a - h * signs, b)[:k]) / (2.0 * h)
    # site s splits T into the sites before it, at most one here, and after
    s = 0 if spec.parity is Parity.MINUS else 1
    mu = np.concatenate([a[:s], _levels(a[s + 1:], b[s + 1:])])
    e = _levels(a, b)
    gaps = np.abs(e[:k, None] - e)
    gaps[np.arange(k), np.arange(k)] = 1.0
    with np.errstate(divide="ignore"):
        log_p = np.log(np.abs(e[:k, None] - mu)).sum(axis=1) - np.log(gaps).sum(axis=1)
    return sz, np.exp(log_p)


def n_phot_from_eigenvalues(spec: ParitySpectrum) -> np.ndarray:
    """<a^dag a> of every level of a certified solve, with no eigenvector.

    <a^dag a>_k is dE_k/dh of T + h diag(0, 1, ..., d-1), T the spec.dim-site
    chain, from sterf eigenvalues alone.  The central difference D(h) errs
    as h^2: on the R = 10^3 windows at g = 1.2 and 1.4, by up to 3 at
    h = 1e-3 and 3e-4 at h = 1e-5.  One Richardson step,
    (4 D(h/2) - D(h)) / 3 at h = 2e-5, cancels that term.
    """
    chain = build_parity_chain(spec.params, spec.parity, spec.dim)
    a, b, k = chain.diag, chain.offdiag, len(spec)
    n = np.arange(chain.dim, dtype=float)

    def slope(h: float) -> np.ndarray:
        return (_levels(a + h * n, b)[:k] - _levels(a - h * n, b)[:k]) / (2.0 * h)

    h = 2e-5
    return (4.0 * slope(0.5 * h) - slope(h)) / 3.0


def _count_bare(E: float, omega0: float, Omega: float, lam: float) -> float:
    """Accumulated level count below bare energy E, in bare variables.

    (Omega/2) x the scaled N: the true number of levels (merged parities)
    below E for the Hamiltonian with parameters (omega0, Omega, lam).
    """
    g = 2.0 * lam / math.sqrt(omega0 * Omega)
    eps = 2.0 * E / Omega
    return 0.5 * Omega * dos_curve(g, eps, omega0=omega0).n_cum[0]


def observables_hellmann_feynman(params: RabiParams, eps: float) -> tuple[float, float]:
    """(nphot_scaled, sz) from Hellmann-Feynman derivatives of the count.

    <a^dag a> = -(1/nu) dN/d omega0 and <sigma_z> = -(2/nu) dN/d Omega,
    with N the bare-variable accumulated count at fixed bare energy E and
    fixed coupling lam, differenced centrally with steps 1e-5 omega0 and
    1e-5 Omega; nu is the density per unit bare energy.  Cross-validates
    observables_microcanonical.
    """
    omega0, Omega, lam = params.omega0, params.Omega, params.lam
    E = 0.5 * eps * Omega
    nu_bare = dos_curve(params.g, eps, omega0=omega0).nu[0]

    dw = 1e-5 * omega0
    n_w = (
        _count_bare(E, omega0 + dw, Omega, lam)
        - _count_bare(E, omega0 - dw, Omega, lam)
    ) / (2.0 * dw)
    n_phot = -n_w / nu_bare

    dO = 1e-5 * Omega
    n_O = (
        _count_bare(E, omega0, Omega + dO, lam)
        - _count_bare(E, omega0, Omega - dO, lam)
    ) / (2.0 * dO)
    sz = -2.0 * n_O / nu_bare

    return (omega0 / Omega) * n_phot, sz


def quadrature_integrals(g: float, eps: float, tol: float = 1e-13) -> tuple[float, ...]:
    """Int w dx/p over the orbit for w = 1, p^2, -1/s and (x^2 + p^2)/2.

    One adaptive quad per weight, in s = sqrt(1 + 2 g^2 x^2) on the orbit
    [a, b] = [max(1, s-), s+] with c = min(1, s-):
        Int w dx/p = 2 Int_0^{pi/2} w s / sqrt((s + 1)(s - c)) dphi,
        s = a + (b - a) sin^2(phi).
    The root offsets are formed as the package forms them, without
    cancellation; accurate to about tol where |eps + 1| >= 1e-5.
    """
    g2 = g * g
    k = (g - 1.0) * (g + 1.0)
    d = k * k + 2.0 * g2 * (eps + 1.0)
    r = math.sqrt(d)
    if k >= 0.0:
        up = k + r  # s+ - 1
        lo = 2.0 * g2 * (eps + 1.0) / up if up > 0.0 else 0.0  # 1 - s-
        up_g2 = up / g2
    else:
        lo = r - k
        up_g2 = 2.0 * (eps + 1.0) / lo
        up = g2 * up_g2
    if lo >= 0.0:  # connected
        a, span, a_c, a_sm, span_g2, a1_g2 = 1.0, up, lo, lo, up_g2, 0.0
    else:  # in one well
        a, span, a_c, a_sm, span_g2, a1_g2 = 1.0 - lo, 2.0 * r, -lo, 0.0, 2.0 * r / g2, -lo / g2

    def p2(s, sn, cs):  # (b - s)(s - s-) / (2 g^2)
        return 0.5 * span_g2 * cs * (a_sm + span * sn)

    def nphot(s, sn, cs):  # x^2 = (s + 1)(s - 1) / (2 g^2)
        return 0.5 * (0.5 * (s + 1.0) * (a1_g2 + span_g2 * sn) + p2(s, sn, cs))

    def integral(w):
        def f(phi):
            sn = math.sin(phi) ** 2
            s = a + span * sn
            return s * w(s, sn, math.cos(phi) ** 2) / math.sqrt((s + 1.0) * (a_c + span * sn))
        return 2.0 * quad(f, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=tol, limit=200)[0]

    return tuple(integral(w) for w in (lambda s, sn, cs: 1.0, p2,
                                       lambda s, sn, cs: -1.0 / s, nphot))


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
    # in-well, within 2e-8 of eps_c: the logarithmic regime
    (1.2, -1.00000002): (9.7778463032397872, 0.21348454014000322),
    (3.0, -1.000000011): (3.9931568101409252, 7.286204315580054),
    (1.001, -1.000000011): (66.69785315777835, 7.5105825162206266e-5),
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

# (g, eps) -> (nphot_scaled, sz) at omega0 = 1, from mpmath tanh-sinh at 40
# digits: shell averages of (eps + s)/2 and -1/s over the orbit measure dx/p.
# (0.5, ...) and (0.9, ...) lie within 1e-7 of the bottom of the single well,
# (1.4, -0.99999999) just 1e-8 above eps_c.
SHELL_ORACLE = {
    (1.3, -0.4): (0.89120363742862098, -0.53904366958840889),
    (0.5, -0.999999999): (5.8333331681991498e-10, -0.99999999983333334),
    (0.9, -0.9999999): (1.5657882129028814e-7, -0.99999978684242552),
    (1.4, -0.99999999): (0.14377575314218325, -0.87070162785625102),
}


if __name__ == "__main__":
    # Recomputes the three frozen tables at their own keys and prints them;
    # to add a point, add its key and rerun.  Only this entry needs mpmath.
    #   PYTHONPATH=src python tests/oracles.py
    import mpmath as mp

    def p2(x, g, eps):
        return eps + mp.sqrt(1 + 2 * g * g * x * x) - x * x

    def orbit_points(g, eps):
        # turning points x1 <= x2, with knots at the near-critical scales
        g2 = g * g
        disc = mp.sqrt(g2 * g2 + 2 * eps * g2 + 1)
        x2 = mp.sqrt(eps + g2 + disc)
        x1 = mp.sqrt(eps + g2 - disc) if (g > 1 and eps < -1) else mp.mpf(0)
        pts = [x1]
        if x1 == 0 and g > 1 and eps > -1:
            w = mp.sqrt((eps + 1) / (g * g - 1))
            pts += [w * f for f in (1, 10, 100, 1000) if x1 < w * f < x2]
        elif x1 > 0:
            pts += [x1 * f for f in (2, 10, 100, 1000) if x1 * f < x1 + (x2 - x1) / 20]
            pts += [x1 + (x2 - x1) * f / 10 for f in (mp.mpf(1) / 2, 2, 8)]
        return pts + [x2]

    def orbit_quad(w, g, eps):
        """Int w dx/p over the orbit."""
        return mp.re(mp.quad(lambda x: w(x) / mp.sqrt(p2(x, g, eps)), orbit_points(g, eps)))

    def nu_n(g, eps):
        nu = 2 / mp.pi * orbit_quad(lambda x: 1, g, eps)
        return nu, 4 / mp.pi * orbit_quad(lambda x: p2(x, g, eps), g, eps)

    def shell(g, eps):
        s = lambda x: mp.sqrt(1 + 2 * g * g * x * x)
        denom = orbit_quad(lambda x: 1, g, eps)
        return (orbit_quad(lambda x: (eps + s(x)) / 2, g, eps) / denom,
                orbit_quad(lambda x: -1 / s(x), g, eps) / denom)

    def pinning(g):
        k = g * g - 1
        xc = mp.sqrt(2 * k)
        s = lambda x: mp.sqrt(1 + 2 * g * g * x * x)
        q = lambda x: mp.sqrt((2 * g * g - 1 - s(x)) / (s(x) + 1))
        pts = [xc * f / 4 for f in range(5)]
        m_sz = mp.quad(lambda x: (1 - 1 / s(x)) / (x * q(x)), pts) / 2
        m_n = mp.quad(lambda x: (s(x) - 1) / (x * q(x)), pts) / 2
        d0 = (mp.log(2 * xc * mp.sqrt(k)) / mp.sqrt(k)
              + mp.quad(lambda x: (1 / q(x) - 1 / mp.sqrt(k)) / x, pts))
        return mp.re(d0), mp.re(m_sz), mp.re(m_n)

    def show(name, table, fn, dps):
        mp.mp.dps = dps
        print(f"{name} = {{")
        for key in table:
            args = key if isinstance(key, tuple) else (key,)
            vals = fn(*(mp.mpf(a) for a in args))
            print(f"    {key!r}: ({', '.join(mp.nstr(v, 17) for v in vals)}),")
        print("}")

    show("QUAD_ORACLE", QUAD_ORACLE, nu_n, 40)
    show("PINNING_ORACLE", PINNING_ORACLE, pinning, 50)
    show("SHELL_ORACLE", SHELL_ORACLE, shell, 40)
