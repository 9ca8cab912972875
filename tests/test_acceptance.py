"""Acceptance suite: the package's top-line numerical claims.

One test per claim, each printing a single ``[criterion N] PASS/FAIL``
line (run pytest with ``-s`` to see the lines for passing tests too)
before asserting at the stated tolerance.  The spin-ratio R = 10^3
spectra and their eigenstate observables are built once per module and
shared; the whole module runs in a few seconds.

Criterion 7a checks how the shell-averaged order parameters pin to their
critical values (sz, nphot_scaled) = (-1, 0) at eps_c = -1.  With
delta = eps + 1 and k = g^2 - 1 the orbit lingers a time ~ln(1/delta) at
the hyperbolic point, so each distance d from the critical value obeys

    d(delta) = M / (ln(1/delta) / (2 sqrt(k)) + D0) + O(delta ln(1/delta)),

with M and D0 frozen from mpmath in ``oracles.PINNING_ORACLE``.  The law
is asserted to 2e-3 relative at delta = 1e-4 and to 1e-4 at 1e-6 and
1e-7.  A fixed threshold such as d < 0.02 is not a usable check: the law
reaches it only at ln(1/delta) = 36 to 164, far inside the
CRITICAL_GUARD = 1e-8 exclusion (ln 18.4) around eps_c.
"""

import math

import numpy as np
import pytest

from rabi_esqpt import (
    LawKind,
    Parity,
    RabiParams,
    Side,
    build_parity_chain,
    converged_levels,
    converged_window,
    diagonalize,
    dos_curve,
    dos_semiclassical,
    fit_divergence,
    gap_map,
    geometric_eps_grid,
    ground_state_eps,
    law_log_esqpt,
    law_power_qpt,
    observables_microcanonical,
    windowed_dos,
)
from rabi_esqpt.semiclassical import EPS_CRITICAL

from oracles import (PINNING_ORACLE, dense_hamiltonian, observables_hellmann_feynman,
                     random_params)

# comparison bands for the windowed-density criteria, intersected with
# (eps_gs + 0.02, 0]: a quantum level at eps lies on the classical shell at
# eps + 1/R, so the lowest levels can sit at or below the classical bottom,
# where no shell exists
BANDS = ((-1.6, -1.1), (-0.9, 0.0))


def band_mask(eps: np.ndarray, g: float) -> np.ndarray:
    m = np.zeros(eps.shape, dtype=bool)
    for lo, hi in BANDS:
        m |= (eps >= lo) & (eps <= hi)
    return m & (eps > ground_state_eps(g) + 0.02)


def report(tag: str, passed: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if passed else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def r1000():
    """Converged spectra with their eigenstate observables at R = 10^3 for g = 1.2, 1.4.

    The streamed solve reduces each slice of eigenvectors on arrival, so
    the module holds no vectors.
    """
    out = {}
    for g in (1.2, 1.4):
        params = RabiParams(omega0=1.0, Omega=1000.0, g=g)
        _, minus = converged_window(params, Parity.MINUS, eps_max=0.08,
                                    with_observables=True)
        _, plus = converged_window(params, Parity.PLUS, eps_max=0.08,
                                   with_observables=True)
        out[g] = (params, minus, plus)
    return out


def test_criterion_1_chain_matches_dense():
    """Chain eigenvalues reproduce the full Fock x spin problem."""
    rng = np.random.default_rng(20260816)
    dim = 12
    worst = 0.0
    for _ in range(50):
        p = random_params(rng)
        w_dense = np.linalg.eigvalsh(dense_hamiltonian(p, dim))
        w_chain = np.sort(np.concatenate([
            diagonalize(build_parity_chain(p, parity, dim)).energies
            for parity in (Parity.MINUS, Parity.PLUS)
        ]))
        worst = max(worst, float(np.max(np.abs(w_chain - w_dense))
                                 / np.max(np.abs(w_dense))))
    ok = worst < 1e-10
    report("criterion 1", ok, f"50 random parameter sets, worst relative "
                              f"eigenvalue deviation {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_2_decoupled_limit():
    """g = 0: ladder spectrum in both sectors; flat density of states."""
    p = RabiParams(omega0=1.0, Omega=40.0, g=0.0)
    worst_q = 0.0
    for parity, s0 in ((Parity.MINUS, -1.0), (Parity.PLUS, 1.0)):
        spec = converged_levels(p, parity, k_max=40)
        n = np.arange(spec.dim)
        exact = np.sort(2.0 * n * p.omega0 / p.Omega + s0 * (-1.0) ** n)[:40]
        worst_q = max(worst_q, float(np.max(np.abs(spec.eps - exact))))
    nu = np.array([dos_semiclassical(0.0, e) for e in np.linspace(-0.999, 2.0, 61)])
    worst_nu = float(np.max(np.abs(nu - 1.0)))
    ok = worst_q < 1e-10 and worst_nu < 1e-8
    report("criterion 2", ok,
           f"ladder eps deviation {worst_q:.2e} (tol 1e-10); "
           f"nu flatness {worst_nu:.2e} (tol 1e-8)")
    assert ok


def test_criterion_3_power_law_at_threshold():
    """g = 1: nu ~ C |eps - eps_c|^(-1/4) with the closed-form prefactor."""
    law = law_power_qpt()
    grid = geometric_eps_grid(1e-6, 1e-3, 40)
    fit = fit_divergence(dos_curve(1.0, grid), LawKind.POWER_QPT,
                         window=(1e-6, 1e-3))
    # prefactor checked pointwise at the small edge of the window, where
    # the subleading sqrt(delta) correction is negligible
    ratio = dos_semiclassical(1.0, EPS_CRITICAL + 1e-6) * 1e-6**0.25 / law.prefactor
    ok_exp = abs(fit.exponent - (-0.25)) <= 0.01
    ok_pref = abs(ratio - 1.0) <= 0.005
    report("criterion 3", ok_exp and ok_pref,
           f"fitted exponent {fit.exponent:.5f} (-0.25 +- 0.01); "
           f"prefactor ratio at delta=1e-6: {ratio:.6f} (1 +- 0.005)")
    assert ok_exp and ok_pref


def test_criterion_4_log_law_both_sides():
    """g > 1: logarithmic divergence with slope 1/(pi sqrt(g^2-1)) on both sides."""
    details = []
    ok = True
    for g in (1.2, 1.4, 2.0):
        law = law_log_esqpt(1.0, g)
        slopes = {}
        for side in (Side.ABOVE, Side.BELOW):
            grid = geometric_eps_grid(1e-6, 1e-3, 25, side=side)
            fit = fit_divergence(dos_curve(g, grid), LawKind.LOG_ESQPT,
                                 side=side, window=(1e-6, 1e-3))
            slopes[side] = fit.slope
            ok &= abs(fit.slope / law.slope - 1.0) <= 0.02
        ok &= abs(slopes[Side.ABOVE] / slopes[Side.BELOW] - 1.0) <= 0.02
        details.append(
            f"g={g}: above {slopes[Side.ABOVE]:.5f}, below {slopes[Side.BELOW]:.5f}, "
            f"law {law.slope:.5f}"
        )
    report("criterion 4", ok, "; ".join(details) + " (each within 2%)")
    assert ok


def test_criterion_5_windowed_density(r1000):
    """R = 10^3 windowed quantum density: 5% off criticality, log-law saturation."""
    ok = True
    details = []
    for g in (1.2, 1.4):
        params, minus, plus = r1000[g]
        wd = windowed_dos(minus, plus, window_n=10)
        qc = wd.to_dos_curve()
        sel = band_mask(qc.eps, g)
        sc = np.array([dos_semiclassical(g, float(e)) for e in qc.eps[sel]])
        rel = np.abs(qc.nu[sel] / sc - 1.0)
        band_ok = bool(np.max(rel) < 0.05)

        # near eps_c the estimate saturates at a finite peak above the
        # off-critical level while tracking the log law down to a few
        # level spacings
        near = np.abs(qc.eps - EPS_CRITICAL) <= 0.05
        peak = float(np.max(qc.nu[near]))
        ref = dos_semiclassical(g, EPS_CRITICAL + 0.05)
        spacing = float(1.0 / np.max(wd.nu_bar))
        law = law_log_esqpt(1.0, g)
        fit = fit_divergence(qc, LawKind.LOG_ESQPT, side=Side.ABOVE,
                             window=(3.0 * spacing, 0.1))
        sat_ok = (math.isfinite(peak) and peak > ref
                  and abs(fit.slope / law.slope - 1.0) < 0.10)
        ok &= band_ok and sat_ok
        details.append(
            f"g={g}: {int(np.count_nonzero(sel))} band points, max rel dev "
            f"{np.max(rel):.4f} (tol 0.05); peak {peak:.2f} > {ref:.2f}, "
            f"slope {fit.slope:.4f} vs {law.slope:.4f}"
        )
    report("criterion 5", ok, "; ".join(details))
    assert ok


def test_criterion_6_gap_map():
    """Degenerate doublets live only at g > 1 below the critical line.

    k_max = 20 keeps the map below eps = +1.  At integer Omega/omega0 the
    two decoupled g = 0 towers (spin branches offset by +-Omega/2) coincide
    exactly above that energy, an accidental commensurate degeneracy that
    has nothing to do with the broken-symmetry doublets and would poison a
    containment check.  With 20 levels the map tops out at eps = 0.9 at
    g = 0 and only sinks as g grows.

    The ground doublet splitting at g = 2 collapses exponentially in R:
    resolvable at R = 8/12/16, then below the eigenvalue precision floor
    4 eps_mach ||H|| (2/Omega) of the gap map's truncation from R = 20 on.
    There the splitting is roundoff, so it is bounded by the floor, not
    ordered in R.
    """
    gm = gap_map(1.0, 40.0, np.linspace(0.0, 3.0, 61), k_max=20)
    tiny = (np.abs(gm.delta) < 1e-3) & gm.converged
    allowed = (gm.g[:, None] > 1.0) & (gm.eps_mid < EPS_CRITICAL + 0.1)
    contained = bool(np.all(allowed[tiny]))

    d0, floor = {}, {}
    for ratio in (8.0, 12.0, 16.0, 20.0, 40.0, 80.0):
        m = gap_map(1.0, ratio, np.array([2.0]), k_max=1)
        assert m.converged.all()
        d0[ratio] = float(abs(m.delta[0, 0]))
        params = RabiParams(omega0=1.0, Omega=ratio, g=2.0)
        norm = build_parity_chain(params, Parity.MINUS, int(m.dim[0])).norm_bound()
        floor[ratio] = 4.0 * np.finfo(float).eps * norm * 2.0 / ratio
    at_floor = all(d0[r] <= floor[r] for r in (20.0, 40.0, 80.0))
    above_floor = d0[16.0] > floor[16.0]
    # in the numerically resolvable range the collapse is exponential:
    # each Omega/omega0 step of 4 shrinks the splitting by >~ e^-6.9
    resolvable = d0[12.0] < 1e-2 * d0[8.0] and d0[16.0] < 1e-2 * d0[12.0]
    ok = contained and at_floor and above_floor and resolvable
    report("criterion 6", ok,
           f"{int(np.count_nonzero(tiny))} near-degenerate levels all at "
           f"g>1, eps<-0.9: {contained}; |delta_0|(g=2) R=20/40/80 = "
           f"{d0[20.0]:.2e}/{d0[40.0]:.2e}/{d0[80.0]:.2e} within floor "
           f"{floor[20.0]:.1e}/{floor[40.0]:.1e}/{floor[80.0]:.1e}: {at_floor}; "
           f"R=16 {d0[16.0]:.2e} above floor {floor[16.0]:.1e}: {above_floor}; "
           f"R=8/12/16 = {d0[8.0]:.2e}/{d0[12.0]:.2e}/{d0[16.0]:.2e} "
           f"exponential: {resolvable}")
    assert ok


def test_criterion_7a_critical_pinning_threshold():
    """Shell averages pin to (sz, nphot_scaled) = (-1, 0) by the log law.

    Checks (sz + 1)/2 and nphot_scaled at delta = eps + 1 in {1e-4, 1e-6,
    1e-7} for g = 1.2, 1.4 against M / (ln(1/delta) / (2 sqrt(k)) + D0),
    k = g^2 - 1, with M and D0 from ``oracles.PINNING_ORACLE``.  The law's
    own remainder is O(delta ln(1/delta)) (measured 5.8e-4, 1.0e-5 and
    1.3e-6 relative), hence the tolerances 2e-3 at 1e-4 and 1e-4 below.
    They fail on a 1% error in either average, a wrong slope 1/(2 sqrt(k))
    or an O(0.1) error in D0.  The report line also gives ln(1/delta*) at
    which the law reaches the level 0.02: 36 to 164, beyond any distance
    the quadrature accepts, so no such fixed threshold is a usable check.
    """
    tols = {1e-4: 2e-3, 1e-6: 1e-4, 1e-7: 1e-4}
    ok = True
    details = []
    for g in (1.2, 1.4):
        d0, m_sz, m_n = PINNING_ORACLE[g]
        two_root_k = 2.0 * math.sqrt(g * g - 1.0)
        devs = []
        for delta, tol in tols.items():
            c = observables_microcanonical(g, EPS_CRITICAL + delta)
            denom = math.log(1.0 / delta) / two_root_k + d0
            dev = max(abs(float((c.sz[0] + 1.0) / 2.0) * denom / m_sz - 1.0),
                      abs(float(c.nphot_scaled[0]) * denom / m_n - 1.0))
            ok &= dev <= tol
            devs.append(f"{dev:.1e}")
        ln_sz, ln_n = (two_root_k * (m / 0.02 - d0) for m in (m_sz, m_n))
        details.append(f"g={g}: worst rel dev {'/'.join(devs)}; 0.02 reached "
                       f"at ln(1/delta) = {ln_sz:.1f} (sz), {ln_n:.1f} (nphot)")
    report("criterion 7a", ok,
           "; ".join(details) + " (delta = 1e-4/1e-6/1e-7, tol 2e-3/1e-4/1e-4)")
    assert ok


def test_criterion_7b_eigenstates_on_shell(r1000):
    """R = 10^3 eigenstate observables match shell averages within 2%."""
    ok = True
    details = []
    for g in (1.2, 1.4):
        params, minus, plus = r1000[g]
        worst_n = worst_s = 0.0
        n_cmp = 0
        for spec in (minus, plus):
            obs = spec.observables
            pick = ((np.abs(obs.eps - EPS_CRITICAL) > 0.05)
                    & (obs.eps > ground_state_eps(g) + 0.02)
                    & (obs.eps <= 0.0))
            for i in np.nonzero(pick)[0]:
                shell = observables_microcanonical(g, float(obs.eps[i]))
                q_n = obs.n_phot[i] * params.omega0 / params.Omega
                worst_n = max(worst_n, abs(q_n / shell.nphot_scaled[0] - 1.0))
                worst_s = max(worst_s, abs((obs.sz[i] + 1.0)
                                           / (shell.sz[0] + 1.0) - 1.0))
                n_cmp += 1
        ok &= worst_n < 0.02 and worst_s < 0.02
        details.append(f"g={g}: {n_cmp} states, worst nphot rel {worst_n:.4f}, "
                       f"worst (sz+1)/2 rel {worst_s:.4f}")
    report("criterion 7b", ok, "; ".join(details) + " (tol 0.02)")
    assert ok


def test_criterion_7c_observable_routes_agree():
    """Shell-average and count-derivative observable routes agree to 1e-4."""
    params = RabiParams(omega0=1.0, Omega=1000.0, g=1.2)
    worst = 0.0
    for eps in (-1.05, -0.5, -0.2):
        shell = observables_microcanonical(1.2, eps, quad_tol=1e-12)
        nphot_hf, sz_hf = observables_hellmann_feynman(params, eps)
        worst = max(worst, abs(nphot_hf - shell.nphot_scaled[0]),
                    abs(sz_hf - shell.sz[0]))
    ok = worst < 1e-4
    report("criterion 7c", ok, f"worst absolute route difference {worst:.2e} (tol 1e-4)")
    assert ok


def test_criterion_8_critical_state_localization(r1000):
    """The down-spin localization weight peaks at the critical energy."""
    ok = True
    details = []
    for g in (1.2, 1.4):
        for spec in r1000[g][1:]:
            obs = spec.observables
            k = int(np.argmax(obs.p_loc))
            lo, hi = max(k - 1, 0), min(k + 1, len(obs.eps) - 1)
            spacing = float(obs.eps[hi] - obs.eps[lo]) / max(hi - lo, 1)
            dist = abs(float(obs.eps[k]) - EPS_CRITICAL) / spacing
            ok &= dist < 10.0
            details.append(f"g={g} {spec.parity.label}: peak at "
                           f"{dist:.2f} spacings from eps_c")
    report("criterion 8", ok, "; ".join(details) + " (tol 10)")
    assert ok


def test_criterion_9_window_insensitivity(r1000):
    """Window size N barely matters off criticality; N = 40 over-smooths the peak."""
    ok = True
    details = []
    for g in (1.2, 1.4):
        params, minus, plus = r1000[g]
        curves = {n: windowed_dos(minus, plus, window_n=n).to_dos_curve()
                  for n in (4, 10, 40)}
        c10 = curves[10]
        sel = band_mask(c10.eps, g)
        nu4 = np.interp(c10.eps[sel], curves[4].eps, curves[4].nu)
        band_rel = float(np.max(np.abs(nu4 / c10.nu[sel] - 1.0)))

        devs = {}
        for n in (10, 40):
            c = curves[n]
            near = (np.abs(c.eps - EPS_CRITICAL) <= 0.05) \
                & (np.abs(c.eps - EPS_CRITICAL) > 1e-5)
            sc = np.array([dos_semiclassical(g, float(e)) for e in c.eps[near]])
            devs[n] = float(np.max(np.abs(c.nu[near] / sc - 1.0)))
        ok &= band_rel < 0.05 and devs[40] > devs[10]
        details.append(f"g={g}: N=4 vs N=10 band dev {band_rel:.4f} (tol 0.05); "
                       f"near-critical dev N=40 {devs[40]:.3f} > N=10 {devs[10]:.3f}")
    report("criterion 9", ok, "; ".join(details))
    assert ok
