"""Command-line front end.

Subcommands map one-to-one onto the library layers: `spectrum` and `gapmap`
expose the parity-resolved diagonalization, `dos` overlays the windowed
quantum density on the semiclassical curve, `observables` and
`probabilities` do the same for per-state expectation values, and
`asymptotics` fits the critical laws.  Every run writes deterministic CSV
(with `# key=value` headers carrying all parameters), a JSON summary where a
comparison is made, and optionally an SVG figure; two identical invocations
produce byte-identical files.

Options may come from a JSON config file (--config); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    LawKind,
    Side,
    fit_divergence,
    geometric_eps_grid,
    law_log_esqpt,
    law_power_qpt,
)
from .quantum import (
    Parity,
    RabiParams,
    converged_levels,
    converged_window,
    eigen_observables,
)
from .semiclassical import (
    EPS_CRITICAL,
    dos_curve,
    dos_semiclassical,
    ground_state_eps,
    observables_microcanonical,
)
from .spectral import gap_map, windowed_dos
from .output import write_csv, write_json
from .svgplot import Series, save as svg_save

__all__ = ["main"]


@dataclass(frozen=True)
class Opt:
    """One CLI option: argparse wiring plus config-file metadata."""

    flag: str
    dest: str
    typ: type | None
    default: object
    help: str
    is_flag: bool = False


COMMON_OPTS = [
    Opt("--omega0", "omega0", float, 1.0, "field frequency omega0 (energy unit)"),
    Opt("--ratio", "ratio", float, 40.0, "frequency ratio R = Omega / omega0"),
    Opt("--quad-tol", "quad_tol", float, 1e-9, "relative tolerance of orbit quadratures"),
    Opt("--conv-tol", "conv_tol", float, 1e-8,
        "certified eigenvalue error bound, in units of omega0"),
    Opt("--out", "out", str, ".", "output directory (created if missing)"),
    Opt("--emit-svg", "emit_svg", None, False, "also write SVG figures", is_flag=True),
    Opt("--config", "config", str, None, "JSON file with option defaults; flags override"),
]

CMD_OPTS: dict[str, list[Opt]] = {
    "spectrum": [
        Opt("--g", "g", float, None, "single coupling g (omit for a sweep)"),
        Opt("--g-min", "g_min", float, 0.0, "sweep start"),
        Opt("--g-max", "g_max", float, 3.0, "sweep end"),
        Opt("--g-steps", "g_steps", int, 61, "sweep points"),
        Opt("--levels", "levels", int, 40, "levels per parity sector"),
    ],
    "gapmap": [
        Opt("--g-min", "g_min", float, 0.0, "sweep start"),
        Opt("--g-max", "g_max", float, 3.0, "sweep end"),
        Opt("--g-steps", "g_steps", int, 61, "sweep points"),
        Opt("--levels", "levels", int, 40, "doublets per coupling"),
    ],
    "dos": [
        Opt("--g", "g", float, None, "coupling g (required)"),
        Opt("--window", "window", int, 10, "spacings per running window"),
        Opt("--eps-min", "eps_min", float, None,
            "lower edge of the rescaled energy range (default: just above the bottom)"),
        Opt("--eps-max", "eps_max", float, 0.0, "upper edge of the rescaled energy range"),
        Opt("--points", "points", int, 201, "semiclassical grid size"),
    ],
    "observables": [
        Opt("--g", "g", float, None, "coupling g (required)"),
        Opt("--eps-min", "eps_min", float, None,
            "lower edge of the rescaled energy range (default: just above the bottom)"),
        Opt("--eps-max", "eps_max", float, 0.0, "upper edge of the rescaled energy range"),
        Opt("--points", "points", int, 121, "semiclassical grid size"),
    ],
    "probabilities": [
        Opt("--g", "g", float, None, "coupling g (required)"),
        Opt("--eps-max", "eps_max", float, 0.0, "include eigenstates up to this eps"),
    ],
    "asymptotics": [
        Opt("--g", "g", float, None, "coupling g >= 1 (required)"),
        Opt("--delta-min", "delta_min", float, 1e-6, "smallest |eps - eps_c| sampled"),
        Opt("--delta-max", "delta_max", float, 1e-3, "largest |eps - eps_c| sampled"),
        Opt("--points", "points", int, 25, "samples per side"),
    ],
}

CMD_HELP = {
    "spectrum": "parity-resolved level energies, single coupling or sweep",
    "gapmap": "signed parity splitting of the lowest doublets over a coupling sweep",
    "dos": "windowed quantum density of states against the semiclassical curve",
    "observables": "photon number and spin expectation values, quantum vs semiclassical",
    "probabilities": "down-spin localization weight of each eigenstate",
    "asymptotics": "fit of the critical density law (power at g = 1, log for g > 1)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabi-esqpt",
        description="excited-state criticality toolkit for the quantum Rabi model",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, opts in CMD_OPTS.items():
        p = sub.add_parser(name, help=CMD_HELP[name])
        for opt in [*COMMON_OPTS, *opts]:
            if opt.is_flag:
                p.add_argument(opt.flag, dest=opt.dest, action="store_true",
                               default=False, help=opt.help)
            else:
                # default=None so that a config file can tell set from unset
                p.add_argument(opt.flag, dest=opt.dest, type=opt.typ,
                               default=None, help=opt.help)
    return parser


class UsageError(ValueError):
    """Bad flags or config; exits with status 2 like argparse does."""


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the JSON config, then from built-in defaults."""
    opts = [*COMMON_OPTS, *CMD_OPTS[args.command]]
    by_dest = {o.dest: o for o in opts}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        for key, val in raw.items():
            dest = key.replace("-", "_")
            if dest in ("command", "config"):
                raise UsageError(f"config key {key!r} is not allowed")
            if dest not in by_dest:
                raise UsageError(f"unknown config key {key!r} for command {args.command!r}")
            opt = by_dest[dest]
            if opt.is_flag:
                if not isinstance(val, bool):
                    raise UsageError(f"config key {key!r} must be true or false")
                if val:
                    setattr(args, dest, True)
            elif getattr(args, dest) is None:
                try:
                    setattr(args, dest, opt.typ(val))
                except (TypeError, ValueError) as exc:
                    raise UsageError(f"config key {key!r}: {exc}") from exc
    for opt in opts:
        if not opt.is_flag and getattr(args, opt.dest) is None:
            setattr(args, opt.dest, opt.default)


def _require_g(args: argparse.Namespace) -> float:
    if args.g is None:
        raise UsageError(f"{args.command} requires --g")
    return float(args.g)


def _params(args: argparse.Namespace, g: float) -> RabiParams:
    return RabiParams(omega0=args.omega0, Omega=args.omega0 * args.ratio, g=g)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _meta(args: argparse.Namespace, **extra: object) -> dict[str, object]:
    meta: dict[str, object] = {
        "tool": "rabi-esqpt",
        "version": __version__,
        "command": args.command,
        "omega0": float(args.omega0),
        "ratio": float(args.ratio),
    }
    meta.update(extra)
    return meta


def _g_grid(args: argparse.Namespace) -> np.ndarray:
    if args.g_steps < 1:
        raise UsageError("--g-steps must be >= 1")
    if args.g_max < args.g_min:
        raise UsageError("--g-max must be >= --g-min")
    return np.linspace(args.g_min, args.g_max, args.g_steps)


def _eps_grid(args: argparse.Namespace, g: float) -> np.ndarray:
    """Uniform grid over the requested eps range, refined around eps_c."""
    eps_gs = ground_state_eps(g)
    eps_min = args.eps_min if args.eps_min is not None else eps_gs + 0.01
    eps_max = args.eps_max
    if not (eps_gs < eps_min < eps_max):
        raise UsageError(
            f"need ground-state eps {eps_gs:.6g} < eps-min < eps-max, "
            f"got eps-min={eps_min:.6g}, eps-max={eps_max:.6g}"
        )
    grid = np.linspace(eps_min, eps_max, args.points)
    if eps_min < EPS_CRITICAL < eps_max:
        d = np.geomspace(3e-4, 3e-2, 10)
        grid = np.concatenate([grid, EPS_CRITICAL + d, EPS_CRITICAL - d])
    grid = grid[(grid > eps_gs) & (grid <= eps_max)]
    # keep clear of the integrable singularity at eps_c itself
    grid[np.abs(grid - EPS_CRITICAL) < 1e-7] = EPS_CRITICAL + 1e-7
    return np.unique(grid)


# ---------------------------------------------------------------- spectrum

def _cmd_spectrum(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    gs = np.array([_require_g(args)]) if args.g is not None else _g_grid(args)
    if args.levels < 1:
        raise UsageError("--levels must be >= 1")
    rows = []
    specs = {}
    for g in gs:
        params = _params(args, float(g))
        for parity in (Parity.MINUS, Parity.PLUS):
            spec = converged_levels(params, parity, k_max=args.levels, tol=args.conv_tol)
            specs[(float(g), parity)] = spec
            for k in range(args.levels):
                rows.append((float(g), parity.label, k, spec.energies[k],
                             spec.eps[k], spec.dim))
    meta = _meta(args, levels=args.levels, conv_tol=args.conv_tol)
    if args.g is not None:
        meta["g"] = float(args.g)
    else:
        meta.update(g_min=args.g_min, g_max=args.g_max, g_steps=args.g_steps)
    write_csv(out / "spectrum.csv", meta,
              ["g", "parity", "k", "energy", "eps", "dim"], rows)
    if args.emit_svg:
        series = []
        if len(gs) == 1:
            for parity, color in ((Parity.MINUS, "#1f77b4"), (Parity.PLUS, "#d62728")):
                spec = specs[(float(gs[0]), parity)]
                series.append(Series(np.arange(args.levels, dtype=float), spec.eps,
                                     label=f"parity {parity.label}", color=color,
                                     kind="points"))
            svg_save(out / "spectrum.svg", series,
                     title=f"parity-resolved spectrum, g={gs[0]:g}, R={args.ratio:g}",
                     xlabel="level index k", ylabel="eps = 2E/Omega")
        else:
            for parity, color in ((Parity.MINUS, "#1f77b4"), (Parity.PLUS, "#d62728")):
                eps_mat = np.array([specs[(float(g), parity)].eps for g in gs])
                for k in range(args.levels):
                    series.append(Series(gs, eps_mat[:, k], color=color,
                                         stroke_width=0.8))
            series.append(Series(np.array([gs[0], gs[-1]]),
                                 np.full(2, EPS_CRITICAL), color="#555555",
                                 dash="5,4", label="eps_c", stroke_width=1.0))
            svg_save(out / "spectrum.svg", series,
                     title=f"parity-resolved spectra vs g, R={args.ratio:g}",
                     xlabel="g", ylabel="eps = 2E/Omega")
    return 0


# ----------------------------------------------------------------- gapmap

def _ramp(t: float) -> str:
    """Blue (tiny gap) to red (large gap) color ramp on [0, 1]."""
    anchors = [(8, 48, 107), (107, 174, 214), (253, 141, 60), (166, 54, 3)]
    t = min(max(t, 0.0), 1.0) * (len(anchors) - 1)
    i = min(int(t), len(anchors) - 2)
    f = t - i
    rgb = tuple(round(a + (b - a) * f) for a, b in zip(anchors[i], anchors[i + 1]))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def _cmd_gapmap(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    gs = _g_grid(args)
    if args.levels < 1:
        raise UsageError("--levels must be >= 1")
    gm = gap_map(args.omega0, args.omega0 * args.ratio, gs,
                 k_max=args.levels, tol=args.conv_tol)
    rows = []
    for i, g in enumerate(gm.g):
        for k in range(gm.k_max):
            rows.append((float(g), k, gm.eps_minus[i, k], gm.eps_plus[i, k],
                         gm.eps_mid[i, k], gm.delta[i, k],
                         bool(gm.converged[i, k]), int(gm.dim[i])))
    meta = _meta(args, g_min=args.g_min, g_max=args.g_max, g_steps=args.g_steps,
                 levels=args.levels, conv_tol=args.conv_tol,
                 n_unconverged=gm.n_unconverged)
    write_csv(out / "gapmap.csv", meta,
              ["g", "k", "eps_minus", "eps_plus", "eps_mid", "delta", "converged", "dim"],
              rows)
    # a splitting at the precision floor is roundoff; once one is, the
    # minimum is not known
    abs_delta = np.abs(gm.delta[gm.converged])
    n_unresolved = int(np.count_nonzero(gm.unresolved))
    write_json(out / "gapmap_summary.json", {
        "command": "gapmap",
        "version": __version__,
        "omega0": args.omega0,
        "ratio": args.ratio,
        "levels": args.levels,
        "n_unconverged": gm.n_unconverged,
        "n_unresolved": n_unresolved,
        "abs_delta_min": float(np.min(abs_delta))
        if abs_delta.size and not n_unresolved else None,
        "abs_delta_max": float(np.max(abs_delta)) if abs_delta.size else None,
    })
    if args.emit_svg:
        mask = gm.converged
        x = np.broadcast_to(gm.g[:, None], gm.delta.shape)[mask]
        y = gm.eps_mid[mask]
        d = np.abs(gm.delta[mask])
        floor = 1e-14
        tval = (np.log10(np.maximum(d, floor)) + 14.0) / 14.0  # [1e-14, 1] -> [0, 1]
        colors = [_ramp(t) for t in tval]
        series = [
            Series(x, y, kind="points", radius=1.6, point_colors=colors,
                   label="|delta|: blue small, red large", color="#6baed6"),
            Series(np.array([gs[0], gs[-1]]), np.full(2, EPS_CRITICAL),
                   color="#555555", dash="5,4", label="eps_c", stroke_width=1.0),
            Series(gs, np.array([ground_state_eps(float(g)) for g in gs]),
                   color="#000000", label="eps_GS(g)", stroke_width=1.2),
        ]
        svg_save(out / "gapmap.svg", series,
                 title=f"parity splitting map, R={args.ratio:g}",
                 xlabel="g", ylabel="eps = 2E/Omega")
    return 0


# -------------------------------------------------------------------- dos

def _quantum_sectors(params: RabiParams, eps_top: float, tol: float,
                     want_vectors: bool = False):
    pad = 0.05 + 2.0 / params.ratio
    _, minus = converged_window(params, Parity.MINUS, eps_top + pad, tol=tol,
                                want_vectors=want_vectors)
    _, plus = converged_window(params, Parity.PLUS, eps_top + pad, tol=tol,
                               want_vectors=want_vectors)
    return minus, plus


def _cmd_dos(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    g = _require_g(args)
    if args.window < 1:
        raise UsageError("--window must be >= 1")
    params = _params(args, g)
    grid = _eps_grid(args, g)
    sc = dos_curve(g, grid, omega0=args.omega0, quad_tol=args.quad_tol, with_counts=True)
    minus, plus = _quantum_sectors(params, args.eps_max, args.conv_tol)
    wd = windowed_dos(minus, plus, window_n=args.window, eps_max=args.eps_max)
    qc = wd.to_dos_curve()

    meta_common = dict(g=g, quad_tol=args.quad_tol, conv_tol=args.conv_tol)
    write_csv(out / "dos_semiclassical.csv",
              _meta(args, **meta_common, points=len(sc.eps)),
              ["eps", "nu", "n_cum"],
              list(zip(sc.eps, sc.nu, sc.n_cum)))
    write_csv(out / "dos_quantum.csv",
              _meta(args, **meta_common, window=args.window, n_levels=wd.n_levels,
                    dim_minus=minus.dim, dim_plus=plus.dim, truncated=wd.truncated),
              ["eps", "nu_per_eps", "nu"],
              list(zip(wd.eps_bar, wd.nu_bar, qc.nu)))

    # deviation of the windowed estimate from the semiclassical curve, away
    # from the critical energy where the comparison is meaningful pointwise
    sc_at_q = np.array([
        dos_semiclassical(g, float(e), omega0=args.omega0, quad_tol=args.quad_tol)
        for e in qc.eps
    ])
    off = np.abs(qc.eps - EPS_CRITICAL) > 0.05
    rel = np.abs(qc.nu[off] / sc_at_q[off] - 1.0) if np.any(off) else np.array([])
    summary: dict[str, object] = {
        "command": "dos",
        "version": __version__,
        "g": g,
        "ratio": args.ratio,
        "omega0": args.omega0,
        "window": args.window,
        "n_levels": wd.n_levels,
        "truncated": wd.truncated,
        "off_critical": {
            "n_points": int(rel.size),
            "median_rel_dev": float(np.median(rel)) if rel.size else None,
            "max_rel_dev": float(np.max(rel)) if rel.size else None,
        },
    }
    if g > 1.0:
        law = law_log_esqpt(args.omega0, g)
        w_lo = min(max(3.0 * args.window / args.ratio, 1e-3), 0.05)
        # below eps_c only down to 0.9 of the well depth, as in asymptotics
        depth = abs(ground_state_eps(g) - EPS_CRITICAL)
        w_hi = {Side.ABOVE: 0.1, Side.BELOW: min(0.1, 0.9 * depth)}
        fits: dict[str, object] = {"slope_law": law.slope}
        for name, curve in (("semiclassical", sc), ("quantum", qc)):
            for side in (Side.ABOVE, Side.BELOW):
                key = f"{name}_{side.value}"
                window = (w_lo, w_hi[side])
                if window[1] <= w_lo:
                    fits[key] = {"skipped": f"out of regime: the well is {depth:.3g} "
                                            f"deep, the window starts at {w_lo:g}"}
                    continue
                try:
                    fit = fit_divergence(curve, LawKind.LOG_ESQPT, side=side,
                                         window=window)
                except ValueError as exc:
                    fits[key] = {"skipped": str(exc)}
                    continue
                fits[key] = {
                    "window": list(window),
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "n_points": fit.n_points,
                    "slope_rel_dev": abs(fit.slope / law.slope - 1.0),
                }
        summary["log_fit"] = fits
    write_json(out / "dos_summary.json", summary)

    if args.emit_svg:
        series = [
            Series(sc.eps, sc.nu, label="semiclassical", color="#1f77b4"),
            Series(qc.eps, qc.nu, label=f"quantum, N={args.window} window",
                   color="#d62728", kind="points", radius=1.8),
            Series(np.full(2, EPS_CRITICAL),
                   np.array([0.0, float(np.nanmax(sc.nu))]),
                   color="#555555", dash="5,4", label="eps_c", stroke_width=1.0),
        ]
        svg_save(out / "dos.svg", series,
                 title=f"density of states, g={g:g}, R={args.ratio:g}",
                 xlabel="eps = 2E/Omega", ylabel="nu(eps) [1/omega0, per unit E]")
    return 0


# ------------------------------------------------------------ observables

def _cmd_observables(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    g = _require_g(args)
    params = _params(args, g)
    grid = _eps_grid(args, g)
    curve = observables_microcanonical(g, grid, omega0=args.omega0,
                                       quad_tol=args.quad_tol)
    write_csv(out / "observables_semiclassical.csv",
              _meta(args, g=g, quad_tol=args.quad_tol, points=len(grid)),
              ["eps", "nphot_scaled", "sz"],
              list(zip(curve.eps, curve.nphot_scaled, curve.sz)))

    minus, plus = _quantum_sectors(params, args.eps_max, args.conv_tol,
                                   want_vectors=True)
    rows = []
    scale = args.omega0 / params.Omega  # <a^dag a> omega0/Omega = <(x^2+p^2)/2> on shell
    per_sector = {}
    for spec in (minus, plus):
        obs = eigen_observables(spec)
        per_sector[spec.parity] = obs
        for k in range(spec.n_converged):
            rows.append((spec.parity.label, k, obs.eps[k], obs.n_phot[k],
                         obs.n_phot[k] * scale, obs.sz[k]))
    write_csv(out / "observables_quantum.csv",
              _meta(args, g=g, conv_tol=args.conv_tol,
                    dim_minus=minus.dim, dim_plus=plus.dim),
              ["parity", "k", "eps", "n_phot", "nphot_scaled", "sz"],
              rows)

    # pointwise deviation on a subsample of eigenstates away from eps_c
    eps_all = np.concatenate([per_sector[p].eps for p in (Parity.MINUS, Parity.PLUS)])
    nph_all = np.concatenate([per_sector[p].n_phot for p in (Parity.MINUS, Parity.PLUS)]) * scale
    sz_all = np.concatenate([per_sector[p].sz for p in (Parity.MINUS, Parity.PLUS)])
    order = np.argsort(eps_all, kind="stable")
    eps_all, nph_all, sz_all = eps_all[order], nph_all[order], sz_all[order]
    # the lowest eigenstates sit below the classical bottom at finite R
    # (zero-point spin dressing), where no semiclassical shell exists
    pick = ((np.abs(eps_all - EPS_CRITICAL) > 0.05)
            & (eps_all > ground_state_eps(g) + 0.01)
            & (eps_all <= args.eps_max))
    idx = np.nonzero(pick)[0][:: max(1, int(np.count_nonzero(pick)) // 120)]
    dev_n, dev_s = [], []
    for i in idx:
        oc = observables_microcanonical(g, np.array([eps_all[i]]),
                                        omega0=args.omega0, quad_tol=args.quad_tol)
        dev_n.append(abs(nph_all[i] - oc.nphot_scaled[0]))
        dev_s.append(abs(sz_all[i] - oc.sz[0]))
    write_json(out / "observables_summary.json", {
        "command": "observables",
        "version": __version__,
        "g": g,
        "ratio": args.ratio,
        "omega0": args.omega0,
        "n_states": int(len(rows)),
        "compared_states": int(len(idx)),
        "nphot_scaled_abs_dev_max": float(np.max(dev_n)) if dev_n else None,
        "sz_abs_dev_max": float(np.max(dev_s)) if dev_s else None,
    })

    if args.emit_svg:
        series = [
            Series(curve.eps, curve.nphot_scaled, label="nphot_scaled (semicl.)",
                   color="#1f77b4"),
            Series(eps_all, nph_all, label="nphot_scaled (quantum)",
                   color="#1f77b4", kind="points", radius=1.6),
            Series(curve.eps, curve.sz, label="sz (semicl.)", color="#d62728"),
            Series(eps_all, sz_all, label="sz (quantum)", color="#d62728",
                   kind="points", radius=1.6),
        ]
        svg_save(out / "observables.svg", series,
                 title=f"microcanonical observables, g={g:g}, R={args.ratio:g}",
                 xlabel="eps = 2E/Omega",
                 ylabel="omega0 <a^dag a>/Omega and <sigma_z>")
    return 0


# ---------------------------------------------------------- probabilities

def _cmd_probabilities(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    g = _require_g(args)
    params = _params(args, g)
    minus, plus = _quantum_sectors(params, args.eps_max, args.conv_tol,
                                   want_vectors=True)
    rows = []
    peaks = {}
    for spec in (minus, plus):
        obs = eigen_observables(spec)
        n = spec.n_converged
        for k in range(n):
            rows.append((spec.parity.label, k, obs.eps[k], obs.p_loc[k]))
        if n:
            kmax = int(np.argmax(obs.p_loc[:n]))
            spacing = (obs.eps[min(kmax + 1, n - 1)] - obs.eps[max(kmax - 1, 0)]) / 2.0
            peaks[spec.parity.label] = {
                "k": kmax,
                "eps": float(obs.eps[kmax]),
                "p_loc": float(obs.p_loc[kmax]),
                "local_spacing": float(spacing),
            }
    write_csv(out / "probabilities.csv",
              _meta(args, g=g, conv_tol=args.conv_tol,
                    dim_minus=minus.dim, dim_plus=plus.dim, eps_max=args.eps_max),
              ["parity", "k", "eps", "p_loc"], rows)
    write_json(out / "probabilities_summary.json", {
        "command": "probabilities",
        "version": __version__,
        "g": g,
        "ratio": args.ratio,
        "omega0": args.omega0,
        "peaks": peaks,
    })
    if args.emit_svg:
        series = []
        for spec, color in ((minus, "#1f77b4"), (plus, "#d62728")):
            obs = eigen_observables(spec)
            n = spec.n_converged
            series.append(Series(obs.eps[:n], obs.p_loc[:n],
                                 label=f"parity {spec.parity.label}",
                                 color=color, kind="points", radius=1.8))
        series.append(Series(np.full(2, EPS_CRITICAL), np.array([0.0, 1.0]),
                             color="#555555", dash="5,4", label="eps_c",
                             stroke_width=1.0))
        svg_save(out / "probabilities.svg", series,
                 title=f"down-spin localization weight, g={g:g}, R={args.ratio:g}",
                 xlabel="eps = 2E/Omega", ylabel="p_loc")
    return 0


# ------------------------------------------------------------ asymptotics

def _cmd_asymptotics(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    g = _require_g(args)
    if g < 1.0:
        raise UsageError("asymptotics requires g >= 1 (no divergence below threshold)")
    if not (0.0 < args.delta_min < args.delta_max):
        raise UsageError("need 0 < --delta-min < --delta-max")
    if args.points < 5:
        raise UsageError("--points must be >= 5")
    at_threshold = math.isclose(g, 1.0, rel_tol=0.0, abs_tol=1e-12)
    window = (args.delta_min, args.delta_max)

    rows = []
    curves: dict[Side, object] = {}
    sides = [Side.ABOVE]
    if not at_threshold:
        # below eps_c only down to the well bottom
        depth = abs(ground_state_eps(g) - EPS_CRITICAL)
        if 0.9 * depth > args.delta_min:
            sides.append(Side.BELOW)
    for side in sides:
        d_max = args.delta_max
        if side is Side.BELOW:
            d_max = min(d_max, 0.9 * abs(ground_state_eps(g) - EPS_CRITICAL))
        grid = geometric_eps_grid(args.delta_min, d_max, args.points, side=side)
        curve = dos_curve(g, grid, omega0=args.omega0, quad_tol=args.quad_tol)
        curves[side] = curve
        for e, v in zip(curve.eps, curve.nu):
            rows.append((side.value, abs(e - EPS_CRITICAL), e, v))
    write_csv(out / "asymptotics_curve.csv",
              _meta(args, g=g, quad_tol=args.quad_tol,
                    delta_min=args.delta_min, delta_max=args.delta_max,
                    points=args.points),
              ["side", "delta", "eps", "nu"], rows)

    summary: dict[str, object] = {
        "command": "asymptotics",
        "version": __version__,
        "g": g,
        "omega0": args.omega0,
        "window": list(window),
    }
    if at_threshold:
        law = law_power_qpt(args.omega0)
        fit = fit_divergence(curves[Side.ABOVE], LawKind.POWER_QPT,
                             side=Side.ABOVE, window=window)
        summary.update({
            "kind": "power_qpt",
            "exponent": fit.exponent,
            "exponent_law": law.exponent,
            "prefactor": fit.prefactor,
            "prefactor_law": law.prefactor,
            "prefactor_rel_dev": abs(fit.prefactor / law.prefactor - 1.0),
            "residual_rms": fit.residual_rms,
        })
    else:
        law = law_log_esqpt(args.omega0, g)
        summary["kind"] = "log_esqpt"
        summary["slope_law"] = law.slope
        slopes = {}
        for side in sides:
            win = window
            if side is Side.BELOW:
                win = (args.delta_min,
                       min(args.delta_max, 0.9 * abs(ground_state_eps(g) - EPS_CRITICAL)))
            fit = fit_divergence(curves[side], LawKind.LOG_ESQPT, side=side, window=win)
            slopes[side.value] = fit.slope
            summary[side.value] = {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "slope_rel_dev": abs(fit.slope / law.slope - 1.0),
                "residual_rms": fit.residual_rms,
            }
        if len(slopes) == 2:
            summary["sides_rel_diff"] = abs(slopes["above"] / slopes["below"] - 1.0)
    write_json(out / "asymptotics.json", summary)

    if args.emit_svg:
        series = []
        for side, color in ((Side.ABOVE, "#1f77b4"), (Side.BELOW, "#d62728")):
            if side not in curves:
                continue
            curve = curves[side]
            x = np.log10(np.abs(curve.eps - EPS_CRITICAL))
            series.append(Series(x, curve.nu, label=f"{side.value} eps_c",
                                 color=color, kind="points", radius=2.0))
        svg_save(out / "asymptotics.svg", series,
                 title=f"critical divergence, g={g:g}",
                 xlabel="log10 |eps - eps_c|", ylabel="nu(eps) [1/omega0]")
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "gapmap": _cmd_gapmap,
    "dos": _cmd_dos,
    "observables": _cmd_observables,
    "probabilities": _cmd_probabilities,
    "asymptotics": _cmd_asymptotics,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the message already
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        _apply_config(args)
        if args.ratio < 1.0:
            raise UsageError("--ratio must be >= 1")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # domain failures: report, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
