"""Command-line front end.

Subcommands map one-to-one onto the library layers: `spectrum` and `gapmap`
expose the parity-resolved diagonalization, `dos` overlays the windowed
quantum density on the semiclassical curve, `observables` and
`probabilities` do the same for per-state expectation values, and
`asymptotics` fits the critical laws.

Each command is declared once, by the `command` decorator on its function:
its name, its help line and the options it reads, each with its bounds.
`build_parser`, the config loader, `main` and the file records read that one
registry, the parser for the options of the invoked command only.  A command
maps the parsed options to a Result: its CSV tables, each held by column, a
JSON summary where a comparison is made, and its figure.  Every CSV header
and every summary starts with one record: the tool, version and command,
then each option the command declares with its resolved value (the FILES
options and those left unset aside, such as the sweep options of a single
coupling), then the command's results.  `main` is the one place that creates
--out and writes files, and it builds, renders and writes the figure only
under --emit-svg.  It writes once the command has run and the figure is
rendered, so a failed run leaves nothing behind.  Two identical invocations
produce byte-identical files.

Options may come from a JSON config file (--config); explicit flags win.
Bad options, whether flags or config values, exit with status 2 before any
computation; a failure of the computation itself exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .asymptotics import (MIN_FIT_POINTS, LawKind, Side, fit_divergence, geometric_eps_grid,
                          law_log_esqpt, law_power_qpt)
from .quantum import Parity, ParitySpectrum, RabiParams, converged_sectors
from .semiclassical import (CRITICAL_GUARD, EPS_CRITICAL, dos_curve, ground_state_eps,
                            observables_microcanonical)
from .spectral import gap_map, windowed_dos
from .output import write_csv, write_json
from .svgplot import Figure, Series, render, save as svg_save

__all__ = ["main"]


@dataclass(frozen=True)
class Opt:
    """One CLI option: argparse wiring, config-file type and bounds.

    The bounds are checked once flags and config are merged: a required
    option must be given one way or the other, a float must be finite, and
    a value below minimum, or at or below above, is a usage error.
    """

    flag: str
    typ: type
    default: object
    help: str
    minimum: float | None = None
    above: float | None = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


OMEGA0 = Opt("--omega0", float, 1.0, "field frequency omega0 (energy unit)", above=0)
RATIO = Opt("--ratio", float, 40.0, "frequency ratio R = Omega / omega0", minimum=1)
CONV_TOL = Opt("--conv-tol", float, 1e-8, "certified eigenvalue error bound, in units of omega0",
               above=0)
# where the files go, never what is in them: no record holds these
FILES = [
    Opt("--out", str, ".", "output directory (created if missing)"),
    Opt("--emit-svg", bool, False, "also write SVG figures"),
    Opt("--config", str, None, "JSON file with option defaults; flags override"),
]

G_REQUIRED = Opt("--g", float, None, "coupling g (required)", minimum=0, required=True)
# unset, the sweep options take SWEEP_DEFAULTS in _g_grid, not in the
# config loader, so that spectrum can tell one given beside --g
G_SWEEP = [
    Opt("--g-min", float, None, "sweep start"),
    Opt("--g-max", float, None, "sweep end"),
    Opt("--g-steps", int, None, "sweep points", minimum=1),
]
SWEEP_DEFAULTS = {"g_min": 0.0, "g_max": 3.0, "g_steps": 61}
EPS_RANGE = [
    Opt("--eps-min", float, None,
        "lower edge of the rescaled energy range (default: just above the bottom)"),
    Opt("--eps-max", float, 0.0, "upper edge of the rescaled energy range"),
]

def build_parser(name: str | None) -> argparse.ArgumentParser:
    """Every command with its help line, and the options of command `name` only."""
    parser = argparse.ArgumentParser(
        prog="rabi-esqpt",
        description="excited-state criticality toolkit for the quantum Rabi model",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for cmd_name, cmd in COMMANDS.items():
        p = sub.add_parser(cmd_name, help=cmd.help)
        for opt in cmd.opts if cmd_name == name else ():
            # default=None so that a config file can tell set from unset
            how = {"action": "store_true"} if opt.typ is bool else {"type": opt.typ}
            p.add_argument(opt.flag, default=None, help=opt.help, **how)
    return parser


class UsageError(ValueError):
    """Bad flags or config; exits with status 2 like argparse does."""


# JSON values a config file may give an option of each type; bools are
# never numbers here, although Python counts them as ints
_CONFIG_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
                 float: ((int, float), "a number"), str: ((str,), "a string")}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the JSON config, then from built-in defaults."""
    opts = COMMANDS[args.command].opts
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
            kinds, kind_name = _CONFIG_TYPES[opt.typ]
            if isinstance(val, bool) != (opt.typ is bool) or not isinstance(val, kinds):
                raise UsageError(f"config key {key!r} must be {kind_name}, "
                                 f"got {json.dumps(val)}")
            if getattr(args, dest) is None:
                try:
                    setattr(args, dest, opt.typ(val))
                except OverflowError as exc:
                    raise UsageError(f"config key {key!r}: {exc}") from exc
    for opt in opts:
        if getattr(args, opt.dest) is None:
            if opt.required:
                raise UsageError(f"{args.command} requires {opt.flag}")
            setattr(args, opt.dest, opt.default)
        value = getattr(args, opt.dest)
        if value is None:  # an unset optional option has no bound
            continue
        if opt.typ is float and not math.isfinite(value):
            raise UsageError(f"{opt.flag} must be finite")
        if opt.minimum is not None and value < opt.minimum:
            raise UsageError(f"{opt.flag} must be >= {opt.minimum:g}")
        if opt.above is not None and not value > opt.above:
            raise UsageError(f"{opt.flag} must be > {opt.above:g}")


class Table(NamedTuple):
    """One CSV file: `# key=value` metadata and its columns by name."""

    meta: dict[str, object]
    columns: dict[str, object]


class Result(NamedTuple):
    """One command's outputs: tables and summary by file name in --out, and
    the function that builds the figure rendered to <command>.svg under --emit-svg."""

    tables: dict[str, Table]
    summary: tuple[str, dict[str, object]] | None
    figure: Callable[[], Figure]


class Command(NamedTuple):
    help: str
    opts: list[Opt]
    run: Callable[[argparse.Namespace], Result]


COMMANDS: dict[str, Command] = {}


def command(name: str, help: str, *opts: Opt):
    """Register the decorated function as the subcommand `name`."""
    def register(run: Callable[[argparse.Namespace], Result]):
        COMMANDS[name] = Command(help, list(opts), run)
        return run
    return register


SECTOR_COLORS = ((Parity.MINUS, "#1f77b4"), (Parity.PLUS, "#d62728"))
EPS_LABEL = "eps = 2E/Omega"


def _params(args: argparse.Namespace, g: float) -> RabiParams:
    return RabiParams(omega0=args.omega0, Omega=args.omega0 * args.ratio, g=g)


def _record(args: argparse.Namespace, **results: object) -> dict[str, object]:
    """A CSV header or JSON summary: what ran, with every option it read, then results."""
    record = {"tool": "rabi-esqpt", "version": __version__, "command": args.command}
    for opt in COMMANDS[args.command].opts:
        value = getattr(args, opt.dest)
        if opt not in FILES and value is not None:
            record[opt.dest] = value
    return {**record, **results}


def _level_columns(sectors: list[ParitySpectrum]) -> dict[str, object]:
    """The parity and k columns of the levels of sectors, listed sector by sector."""
    return {"parity": np.repeat([spec.parity.label for spec in sectors],
                                [len(spec) for spec in sectors]).tolist(),
            "k": np.concatenate([np.arange(len(spec)) for spec in sectors])}


def _g_grid(args: argparse.Namespace) -> np.ndarray:
    for dest, default in SWEEP_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if not 0.0 <= args.g_min <= args.g_max:
        raise UsageError("need 0 <= --g-min <= --g-max")
    return np.linspace(args.g_min, args.g_max, args.g_steps)


def _eps_grid(args: argparse.Namespace, g: float) -> np.ndarray:
    """Uniform grid over the requested eps range, refined around eps_c."""
    eps_gs = ground_state_eps(g)
    eps_min = args.eps_min if args.eps_min is not None else eps_gs + 0.01
    eps_max = args.eps_max
    if not eps_gs < eps_min < eps_max:
        raise UsageError(
            f"need ground-state eps {eps_gs:.6g} < eps-min < eps-max, "
            f"got eps-min={eps_min:.6g}, eps-max={eps_max:.6g}"
        )
    grid = np.linspace(eps_min, eps_max, args.points)
    if eps_min < EPS_CRITICAL < eps_max:
        d = np.geomspace(3e-4, 3e-2, 10)
        grid = np.concatenate([grid, EPS_CRITICAL + d, EPS_CRITICAL - d])
    # keep clear of the integrable singularity at eps_c itself, before the
    # range is cut, so that a sample moved past eps_max is dropped
    grid[np.abs(grid - EPS_CRITICAL) < 1e-7] = EPS_CRITICAL + 1e-7
    grid = grid[(grid > eps_gs) & (grid <= eps_max)]
    if not grid.size:
        raise UsageError(f"every sample up to eps-max={eps_max:.9g} lies within 1e-7 of "
                         f"eps_c = {EPS_CRITICAL:g}, which the grid keeps clear of")
    # np.unique's bytes by one sort, without the numpy.ma import it makes
    grid = np.sort(grid)
    return grid[np.append(True, grid[1:] != grid[:-1])]


def _median(x: np.ndarray) -> float:
    """np.median of a non-empty 1-D array of magnitudes, by one sort:
    np.median imports numpy.ma on first use."""
    s = np.sort(x)
    m = len(s) // 2
    return float(s[-1] if np.isnan(s[-1]) else s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2)


def _well_depth(g: float) -> float:
    return abs(ground_state_eps(g) - EPS_CRITICAL)


def _below_edge(g: float, delta_max: float) -> float:
    """Far end of a fit window below eps_c: at most 0.9 of the well depth."""
    return min(delta_max, 0.9 * _well_depth(g))


def _eps_c_guide(lo: float, hi: float, horizontal: bool) -> Series:
    """Dashed line at eps_c, spanning [lo, hi] along the other axis."""
    span, at = np.array([lo, hi]), np.full(2, EPS_CRITICAL)
    x, y = (span, at) if horizontal else (at, span)
    return Series(x, y, color="#555555", dash="5,4", label="eps_c", stroke_width=1.0)


def _quantum_sectors(params: RabiParams, args: argparse.Namespace,
                     with_observables: bool = False) -> list[ParitySpectrum]:
    """Minus and plus sectors, certified a little past --eps-max."""
    pad = 0.05 + 2.0 / params.ratio
    (minus,), (plus,) = converged_sectors([params], args.conv_tol, eps_max=args.eps_max + pad,
                                          with_observables=with_observables)
    return [minus, plus]


@command("spectrum", "parity-resolved level energies, single coupling or sweep",
         OMEGA0, RATIO, CONV_TOL, *FILES,
         Opt("--g", float, None, "single coupling g (omit for a sweep)", minimum=0),
         *G_SWEEP, Opt("--levels", int, 40, "levels per parity sector", minimum=1))
def _cmd_spectrum(args: argparse.Namespace) -> Result:
    if args.g is not None:
        # a single coupling reads no sweep option, so the record holds none
        given = [opt.flag for opt in G_SWEEP if getattr(args, opt.dest) is not None]
        if given:
            raise UsageError(f"spectrum --g takes no sweep option, got {', '.join(given)}")
        gs = np.array([args.g])
    else:
        gs = _g_grid(args)
    minus, plus = converged_sectors([_params(args, float(g)) for g in gs], args.conv_tol,
                                    k_max=args.levels)
    sectors = [spec for pair in zip(minus, plus) for spec in pair]
    eps = np.concatenate([spec.eps for spec in sectors])
    tables = {"spectrum.csv": Table(_record(args), {
        "g": np.repeat(gs, 2 * args.levels), **_level_columns(sectors),
        "energy": np.concatenate([spec.energies for spec in sectors]), "eps": eps,
        "dim": np.repeat([spec.dim for spec in sectors], args.levels)})}

    def figure() -> Figure:
        levels = eps.reshape(len(gs), len(SECTOR_COLORS), args.levels)  # [g, sector, k]
        if len(gs) == 1:
            series = [Series(np.arange(args.levels, dtype=float), levels[0, i],
                             label=f"parity {parity.label}", color=color, kind="points")
                      for i, (parity, color) in enumerate(SECTOR_COLORS)]
            return Figure(series, f"parity-resolved spectrum, g={gs[0]:g}, R={args.ratio:g}",
                          "level index k", EPS_LABEL)
        series = [Series(gs, levels[:, i, k], color=color, stroke_width=0.8)
                  for i, (_, color) in enumerate(SECTOR_COLORS) for k in range(args.levels)]
        series.append(_eps_c_guide(gs[0], gs[-1], horizontal=True))
        return Figure(series, f"parity-resolved spectra vs g, R={args.ratio:g}", "g", EPS_LABEL)
    return Result(tables, None, figure)


def _ramp(t: np.ndarray) -> list[str]:
    """Blue (tiny gap) to red (large gap) color ramp on [0, 1], one color per entry of t."""
    anchors = np.array([(8, 48, 107), (107, 174, 214), (253, 141, 60), (166, 54, 3)], dtype=float)
    t = np.clip(t, 0.0, 1.0) * (len(anchors) - 1)
    i = np.minimum(t.astype(int), len(anchors) - 2)
    f = (t - i)[:, None]
    # rint rounds half to even, as Python's round does
    rgb = np.rint(anchors[i] + (anchors[i + 1] - anchors[i]) * f).astype(int)
    return list(map("#{:02x}{:02x}{:02x}".format, *rgb.T.tolist()))


@command("gapmap", "signed parity splitting of the lowest doublets over a coupling sweep",
         OMEGA0, RATIO, CONV_TOL, *FILES,
         *G_SWEEP, Opt("--levels", int, 40, "doublets per coupling", minimum=1))
def _cmd_gapmap(args: argparse.Namespace) -> Result:
    gs = _g_grid(args)
    gm = gap_map(*converged_sectors([_params(args, float(g)) for g in gs], args.conv_tol,
                                    k_max=args.levels, keep_capped=True))
    columns = {"g": np.repeat(gm.g, gm.k_max), "k": np.tile(np.arange(gm.k_max), len(gm.g)),
               "eps_minus": gm.eps_minus.ravel(), "eps_plus": gm.eps_plus.ravel(),
               "eps_mid": gm.eps_mid.ravel(), "delta": gm.delta.ravel(),
               "converged": gm.converged.ravel(), "dim": np.repeat(gm.dim, gm.k_max)}
    tables = {"gapmap.csv": Table(_record(args, n_unconverged=gm.n_unconverged), columns)}
    # a splitting at the precision floor is roundoff; once one is, the
    # minimum is not known
    abs_delta = np.abs(gm.delta[gm.converged])
    n_unresolved = int(np.count_nonzero(gm.unresolved))
    summary = ("gapmap_summary.json", _record(
        args, n_unconverged=gm.n_unconverged, n_unresolved=n_unresolved,
        abs_delta_min=float(np.min(abs_delta))
        if abs_delta.size and not n_unresolved else None,
        abs_delta_max=float(np.max(abs_delta)) if abs_delta.size else None))

    def figure() -> Figure:
        tval = (np.log10(np.maximum(abs_delta, 1e-14)) + 14.0) / 14.0  # [1e-14, 1] -> [0, 1]
        series = [
            Series(columns["g"][columns["converged"]], gm.eps_mid[gm.converged], kind="points",
                   radius=1.6, point_colors=_ramp(tval),
                   label="|delta|: blue small, red large", color="#6baed6"),
            _eps_c_guide(gs[0], gs[-1], horizontal=True),
            Series(gs, np.array([ground_state_eps(float(g)) for g in gs]),
                   color="#000000", label="eps_GS(g)", stroke_width=1.2),
        ]
        return Figure(series, f"parity splitting map, R={args.ratio:g}", "g", EPS_LABEL)
    return Result(tables, summary, figure)


@command("dos", "windowed quantum density of states against the semiclassical curve",
         OMEGA0, RATIO, CONV_TOL, *FILES,
         G_REQUIRED, Opt("--window", int, 10, "spacings per running window", minimum=1),
         *EPS_RANGE, Opt("--points", int, 201, "semiclassical grid size", minimum=1))
def _cmd_dos(args: argparse.Namespace) -> Result:
    g = args.g
    params = _params(args, g)
    grid = _eps_grid(args, g)
    sc = dos_curve(g, grid, omega0=args.omega0)
    minus, plus = _quantum_sectors(params, args)
    wd = windowed_dos(minus, plus, window_n=args.window, eps_max=args.eps_max)
    tables = {
        "dos_semiclassical.csv": Table(
            _record(args), {"eps": sc.eps, "nu": sc.nu, "n_cum": sc.n_cum}),
        "dos_quantum.csv": Table(
            _record(args, n_levels=wd.n_levels, dim_minus=minus.dim, dim_plus=plus.dim,
                    truncated=wd.truncated),
            {"eps": wd.eps, "nu_per_eps": wd.nu_per_eps, "nu": wd.nu}),
    }

    # deviation of the windowed estimate from the semiclassical curve, away
    # from the critical energy where the comparison is meaningful pointwise
    off = np.abs(wd.eps - EPS_CRITICAL) > 0.05
    sc_at_q = dos_curve(g, wd.eps[off], omega0=args.omega0).nu
    rel = np.abs(wd.nu[off] / sc_at_q - 1.0)
    off_critical = {"n_points": int(rel.size),
                    "median_rel_dev": _median(rel) if rel.size else None,
                    "max_rel_dev": float(np.max(rel)) if rel.size else None}
    summary = _record(args, n_levels=wd.n_levels, truncated=wd.truncated,
                      off_critical=off_critical)
    if g > 1.0:
        law = law_log_esqpt(args.omega0, g)
        w_lo = min(max(3.0 * args.window / args.ratio, 1e-3), 0.05)
        fits: dict[str, object] = {"slope_law": law.slope}
        for name, curve in (("semiclassical", sc), ("quantum", wd)):
            # below eps_c only down to 0.9 of the well depth, as in asymptotics
            for side, w_hi in ((Side.ABOVE, 0.1), (Side.BELOW, _below_edge(g, 0.1))):
                key, window = f"{name}_{side.value}", (w_lo, w_hi)
                if w_hi <= w_lo:
                    fits[key] = {"skipped": f"out of regime: the well is {_well_depth(g):.3g} "
                                            f"deep, the window starts at {w_lo:g}"}
                    continue
                try:
                    fit = fit_divergence(curve, LawKind.LOG_ESQPT, side=side,
                                         window=window)
                except ValueError as exc:
                    fits[key] = {"skipped": str(exc)}
                    continue
                fits[key] = {"window": list(window), "slope": fit.slope,
                             "intercept": fit.intercept, "n_points": fit.n_points,
                             "slope_rel_dev": abs(fit.slope / law.slope - 1.0)}
        summary["log_fit"] = fits
    summary = ("dos_summary.json", summary)
    return Result(tables, summary, lambda: Figure([
        Series(sc.eps, sc.nu, label="semiclassical", color="#1f77b4"),
        Series(wd.eps, wd.nu, label=f"quantum, N={args.window} window",
               color="#d62728", kind="points", radius=1.8),
        _eps_c_guide(0.0, float(np.nanmax(sc.nu)), horizontal=False),
    ], f"density of states, g={g:g}, R={args.ratio:g}", EPS_LABEL,
        "nu(eps) [1/omega0, per unit E]"))


@command("observables", "photon number and spin expectation values, quantum vs semiclassical",
         OMEGA0, RATIO, CONV_TOL, *FILES, G_REQUIRED, *EPS_RANGE,
         Opt("--points", int, 121, "semiclassical grid size", minimum=1))
def _cmd_observables(args: argparse.Namespace) -> Result:
    g = args.g
    params = _params(args, g)
    grid = _eps_grid(args, g)
    curve = observables_microcanonical(g, grid)
    sectors = minus, plus = _quantum_sectors(params, args, with_observables=True)
    scale = args.omega0 / params.Omega  # <a^dag a> omega0/Omega = <(x^2+p^2)/2> on shell
    eps_all = np.concatenate([spec.eps for spec in sectors])
    n_phot = np.concatenate([spec.observables.n_phot for spec in sectors])
    nph_all = n_phot * scale
    sz_all = np.concatenate([spec.observables.sz for spec in sectors])
    tables = {
        "observables_semiclassical.csv": Table(
            _record(args), {"eps": curve.eps, "nphot_scaled": curve.nphot_scaled, "sz": curve.sz}),
        "observables_quantum.csv": Table(
            _record(args, dim_minus=minus.dim, dim_plus=plus.dim),
            {**_level_columns(sectors), "eps": eps_all, "n_phot": n_phot,
             "nphot_scaled": nph_all, "sz": sz_all}),
    }

    # pointwise deviation on a subsample of eigenstates away from eps_c
    order = np.argsort(eps_all, kind="stable")
    eps_all, nph_all, sz_all = eps_all[order], nph_all[order], sz_all[order]
    # a level at eps lies on the classical shell at eps + 1/R, so the lowest
    # levels can sit below the classical bottom, where no shell exists
    pick = ((np.abs(eps_all - EPS_CRITICAL) > 0.05)
            & (eps_all > ground_state_eps(g) + 0.01)
            & (eps_all <= args.eps_max))
    idx = np.nonzero(pick)[0][:: max(1, int(np.count_nonzero(pick)) // 120)]
    shell = observables_microcanonical(g, eps_all[idx])
    dev_n = np.abs(nph_all[idx] - shell.nphot_scaled)
    dev_s = np.abs(sz_all[idx] - shell.sz)
    summary = ("observables_summary.json", _record(
        args, n_states=len(eps_all), compared_states=int(idx.size),
        nphot_scaled_abs_dev_max=float(np.max(dev_n)) if idx.size else None,
        sz_abs_dev_max=float(np.max(dev_s)) if idx.size else None))

    def figure() -> Figure:
        series = []
        for name, semicl, quantum, color in (
                ("nphot_scaled", curve.nphot_scaled, nph_all, "#1f77b4"),
                ("sz", curve.sz, sz_all, "#d62728")):
            series += [Series(curve.eps, semicl, label=f"{name} (semicl.)", color=color),
                       Series(eps_all, quantum, label=f"{name} (quantum)", color=color,
                              kind="points", radius=1.6)]
        return Figure(series, f"microcanonical observables, g={g:g}, R={args.ratio:g}",
                      EPS_LABEL, "omega0 <a^dag a>/Omega and <sigma_z>")
    return Result(tables, summary, figure)


@command("probabilities", "down-spin localization weight of each eigenstate",
         OMEGA0, RATIO, CONV_TOL, *FILES,
         G_REQUIRED, Opt("--eps-max", float, 0.0, "include eigenstates up to this eps"))
def _cmd_probabilities(args: argparse.Namespace) -> Result:
    g = args.g
    params = _params(args, g)
    sectors = minus, plus = _quantum_sectors(params, args, with_observables=True)
    peaks = {}
    for spec in sectors:
        if len(spec):
            eps, p_loc = spec.eps, spec.observables.p_loc
            k = int(np.argmax(p_loc))
            # mean spacing of the neighbours, one-sided at an edge, none if alone
            lo, hi = max(k - 1, 0), min(k + 1, len(eps) - 1)
            spacing = float((eps[hi] - eps[lo]) / (hi - lo)) if hi > lo else None
            peaks[spec.parity.label] = {"k": k, "eps": float(eps[k]), "p_loc": float(p_loc[k]),
                                        "local_spacing": spacing}
    tables = {"probabilities.csv": Table(_record(args, dim_minus=minus.dim, dim_plus=plus.dim), {
        **_level_columns(sectors), "eps": np.concatenate([spec.eps for spec in sectors]),
        "p_loc": np.concatenate([spec.observables.p_loc for spec in sectors])})}
    summary = ("probabilities_summary.json", _record(args, peaks=peaks))

    def figure() -> Figure:
        series = [Series(spec.eps, spec.observables.p_loc, label=f"parity {spec.parity.label}",
                         color=color, kind="points", radius=1.8)
                  for spec, (_, color) in zip(sectors, SECTOR_COLORS)]
        series.append(_eps_c_guide(0.0, 1.0, horizontal=False))
        return Figure(series, f"down-spin localization weight, g={g:g}, R={args.ratio:g}",
                      EPS_LABEL, "p_loc")
    return Result(tables, summary, figure)


@command("asymptotics", "fit of the critical density law (power at g = 1, log for g > 1)",
         OMEGA0, *FILES,
         Opt("--g", float, None, "coupling g >= 1 (required)", minimum=1, required=True),
         Opt("--delta-min", float, 1e-6, "smallest |eps - eps_c| sampled"),
         Opt("--delta-max", float, 1e-3, "largest |eps - eps_c| sampled"),
         Opt("--points", int, 25, "samples per side", minimum=MIN_FIT_POINTS))
def _cmd_asymptotics(args: argparse.Namespace) -> Result:
    g = args.g
    if not 0.0 < args.delta_min < args.delta_max:
        raise UsageError("need 0 < --delta-min < --delta-max")
    # g = 1 is the threshold only exactly: dos_curve guards eps_c, and
    # law_log_esqpt applies, for every g > 1
    at_threshold = not g > 1.0
    # |eps - eps_c| range per side; below eps_c only where the well reaches
    windows = {Side.ABOVE: (args.delta_min, args.delta_max)}
    edge = _below_edge(g, args.delta_max)
    if not at_threshold and edge > args.delta_min:
        windows[Side.BELOW] = (args.delta_min, edge)
    grids = {side: geometric_eps_grid(*window, args.points, side=side)
             for side, window in windows.items()}
    # dos_curve's domain, on the samples: -1 + 1e-17 rounds onto eps_c, and
    # -1 + 1e-8 itself rounds inside the guard
    if at_threshold and np.any(grids[Side.ABOVE] <= EPS_CRITICAL):
        raise UsageError(f"--delta-min must keep every sample above eps_c at g = 1; "
                         f"{args.delta_min:g} does not")
    if not at_threshold and any(np.any(np.abs(eps - EPS_CRITICAL) < CRITICAL_GUARD)
                                for eps in grids.values()):
        raise UsageError(f"--delta-min must keep every sample at least {CRITICAL_GUARD:g} "
                         f"from eps_c for g > 1, where nu diverges; {args.delta_min:g} does not")
    curves = {side: dos_curve(g, eps, omega0=args.omega0) for side, eps in grids.items()}
    eps = np.concatenate([curve.eps for curve in curves.values()])
    tables = {"asymptotics_curve.csv": Table(_record(args), {
        "side": [side.value for side, curve in curves.items() for _ in curve.eps],
        "delta": np.abs(eps - EPS_CRITICAL), "eps": eps,
        "nu": np.concatenate([curve.nu for curve in curves.values()])})}

    summary = _record(args)
    if at_threshold:
        law = law_power_qpt(args.omega0)
        fit = fit_divergence(curves[Side.ABOVE], LawKind.POWER_QPT,
                             side=Side.ABOVE, window=windows[Side.ABOVE])
        prefactor = math.exp(fit.intercept)
        summary.update(kind="power_qpt", exponent=fit.slope, exponent_law=law.exponent,
                       prefactor=prefactor, prefactor_law=law.prefactor,
                       prefactor_rel_dev=abs(prefactor / law.prefactor - 1.0),
                       residual_rms=fit.residual_rms)
    else:
        law = law_log_esqpt(args.omega0, g)
        summary.update(kind="log_esqpt", slope_law=law.slope)
        for side, window in windows.items():
            fit = fit_divergence(curves[side], LawKind.LOG_ESQPT, side=side, window=window)
            summary[side.value] = {"window": list(window), "slope": fit.slope,
                                   "intercept": fit.intercept,
                                   "slope_rel_dev": abs(fit.slope / law.slope - 1.0),
                                   "residual_rms": fit.residual_rms}
        if len(windows) == 2:
            summary["sides_rel_diff"] = abs(summary["above"]["slope"]
                                            / summary["below"]["slope"] - 1.0)
    summary = ("asymptotics.json", summary)
    return Result(tables, summary, lambda: Figure(
        [Series(np.log10(np.abs(curve.eps - EPS_CRITICAL)), curve.nu,
                label=f"{side.value} eps_c", color=color, kind="points", radius=2.0)
         for (side, curve), color in zip(curves.items(), ("#1f77b4", "#d62728"))],
        f"critical divergence, g={g:g}", "log10 |eps - eps_c|", "nu(eps) [1/omega0]"))


def _join_negative_values(argv: list[str]) -> list[str]:
    r"""Write `--flag -5e-1` as `--flag=-5e-1` for each valued flag of command argv[0].

    argparse reads -5e-1 as an option string, not a value, because its
    negative-number pattern (^-\d+$|^-\d*\.\d+$ in Python 3.11) has no
    exponent; after `=` it is always a value.  No option string here is a
    dash and a digit, so such a token after a flag that takes a value is
    always that value.
    """
    cmd = COMMANDS.get(argv[0]) if argv else None
    valued = {opt.flag for opt in cmd.opts if opt.typ is not bool} if cmd else set()
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in valued and re.match(r"-\.?\d", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:  # argparse has printed the message already
        return int(exc.code or 0)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        _apply_config(args)
        result = COMMANDS[args.command].run(args)
        # nothing is written before the command and its figure are done
        svg = render(result.figure()) if args.emit_svg else None
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, table in result.tables.items():
            write_csv(out / name, table.meta, table.columns)
        if result.summary is not None:
            write_json(out / result.summary[0], result.summary[1])
        if svg is not None:
            svg_save(out / f"{args.command}.svg", svg)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # domain failures: report, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
