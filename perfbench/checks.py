"""Output checks for one CLI invocation, read from the files it wrote.

Three kinds of check, all failures counted per invocation:

* presence: every file the command documents exists;
* gates: summary bounds that hold for any workload seed, set from the
  physics (finite-R deviations scale as 1/R) with a margin of 3x or more over
  the values measured when the benchmark was written;
* reference: for the default seed, a set of summary values and CSV column
  sums must match ``reference.json``.  The relative tolerance of 1e-6 lets a
  solver change at the 1e-12 level (or quadrature at the 1e-9 level) pass
  while any change of physics or of the set of levels fails.

The byte-identical rerun contract is checked by the caller with ``digest``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import Invocation

REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12

# summary keys (dotted paths) and CSV columns whose values the reference pins
_SUMMARY_KEYS = {
    "dos": ["n_levels", "off_critical.n_points", "off_critical.median_rel_dev",
            "off_critical.max_rel_dev"],
    "observables": ["n_states", "compared_states", "nphot_scaled_abs_dev_max",
                    "sz_abs_dev_max"],
    "probabilities": [f"peaks.{p}.{k}" for p in ("minus", "plus")
                      for k in ("k", "eps", "p_loc")],
    "gapmap": ["n_unconverged", "abs_delta_max"],
    "asymptotics": ["exponent", "prefactor", "above.slope", "above.intercept",
                    "below.slope", "below.intercept"],
}
_CSV_SUMS = {
    "dos": {"dos_quantum.csv": ["eps", "nu"], "dos_semiclassical.csv": ["nu", "n_cum"]},
    "observables": {"observables_quantum.csv": ["eps", "nphot_scaled", "sz"],
                    "observables_semiclassical.csv": ["nphot_scaled", "sz"]},
    "probabilities": {"probabilities.csv": ["eps", "p_loc"]},
    "spectrum": {"spectrum.csv": ["eps"]},
    "gapmap": {"gapmap.csv": ["eps_mid"]},
    "asymptotics": {"asymptotics_curve.csv": ["nu"]},
}
_SUMMARY_FILE = {
    "dos": "dos_summary.json",
    "observables": "observables_summary.json",
    "probabilities": "probabilities_summary.json",
    "gapmap": "gapmap_summary.json",
    "asymptotics": "asymptotics.json",
}


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every file an invocation wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def tree_digest(root: Path) -> str:
    """One SHA-256 over the relative paths and bytes of the package sources."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*.py")):
        h.update(p.relative_to(root).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def missing_files(inv: Invocation, out: Path) -> list[str]:
    return [f"missing {name}" for name in inv.files if not (out / name).is_file()]


def _summary(inv: Invocation, out: Path) -> dict:
    return json.loads((out / _SUMMARY_FILE[inv.command]).read_text(encoding="utf-8"))


def _lookup(doc: dict, dotted: str):
    for part in dotted.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


def _columns(path: Path) -> dict[str, list[str]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    cells = [ln.split(",") for ln in lines[1:]]
    return {name: [row[i] for row in cells] for i, name in enumerate(header)}


def gate_failures(inv: Invocation, out: Path) -> list[str]:
    """Summary bounds that must hold for every seed."""
    cmd = inv.command
    bad: list[str] = []

    def need(ok: bool, what: str) -> None:
        if not ok:
            bad.append(f"gate {cmd}: {what}")

    if cmd == "spectrum":
        return bad
    s = _summary(inv, out)
    if cmd == "gapmap":
        need(s["n_unconverged"] == 0, f"n_unconverged = {s['n_unconverged']}")
        return bad
    if cmd == "asymptotics":
        if s["kind"] == "power_qpt":
            need(s["prefactor_rel_dev"] < 0.07, f"prefactor_rel_dev = {s['prefactor_rel_dev']}")
            need(abs(s["exponent"] - s["exponent_law"]) < 0.01, f"exponent = {s['exponent']}")
        else:
            for side in ("above", "below"):
                dev = s[side]["slope_rel_dev"]
                need(dev < 0.01, f"{side} slope_rel_dev = {dev}")
        return bad
    ratio = float(inv.flag("--ratio"))
    if cmd == "dos":
        med = s["off_critical"]["median_rel_dev"]
        need(med is not None and med < 2.0 / ratio, f"off-critical median_rel_dev = {med}")
    elif cmd == "observables":
        for key in ("nphot_scaled_abs_dev_max", "sz_abs_dev_max"):
            need(s[key] is not None and s[key] < 4.0 / ratio, f"{key} = {s[key]}")
    elif cmd == "probabilities":
        # the down-spin localization peak marks the critical energy eps = -1
        for parity in ("minus", "plus"):
            peak = s["peaks"].get(parity)
            need(peak is not None and abs(peak["eps"] + 1.0) < 10.0 / ratio,
                 f"{parity} peak = {peak}")
    return bad


def key_values(inv: Invocation, out: Path) -> dict[str, float]:
    """The numbers the default-seed reference pins for this invocation."""
    vals: dict[str, float] = {}
    if inv.command in _SUMMARY_KEYS:
        s = _summary(inv, out)
        for key in _SUMMARY_KEYS[inv.command]:
            v = _lookup(s, key)
            if v is not None:
                vals[key] = v
    for name, cols in _CSV_SUMS[inv.command].items():
        table = _columns(out / name)
        for col in cols:
            vals[f"{name}:rows"] = len(table[col])
            vals[f"{name}:sum({col})"] = math.fsum(float(x) for x in table[col])
    return vals


def reference_failures(vals: dict[str, float], ref: dict[str, float]) -> list[str]:
    bad = [f"reference: {k} missing" for k in ref if k not in vals]
    bad += [f"reference: unexpected {k}" for k in vals if k not in ref]
    for k in ref.keys() & vals.keys():
        a, b = vals[k], ref[k]
        if abs(a - b) > REFERENCE_RTOL * max(abs(a), abs(b)) + REFERENCE_ATOL:
            bad.append(f"reference: {k} = {a!r}, recorded {b!r}")
    return bad
