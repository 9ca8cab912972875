"""The benchmark's three workloads: fixed lists of CLI invocations.

Each workload is a closed loop with one caller: the next command starts when
the previous one returns.  The seed only jitters inputs inside bands that
keep the physics regime (g > 1 couplings by at most 0.01, the sweep ends by
at most 0.03); g = 1.0 stays exact, and seed 0 gives the README invocations
unchanged.  The program only ever receives the generated argv.

This module imports nothing numeric, so the set-up measurement can generate
argv in a fresh interpreter without paying for anything but the CLI import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Invocation:
    """One CLI call: the argv (without --out) and the files it must write."""

    argv: tuple[str, ...]
    files: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]


def _fmt(x: float) -> str:
    return repr(round(x, 4))


class _Draw:
    """Seeded jitter; seed 0 returns the nominal values untouched."""

    def __init__(self, seed: int):
        self.nominal = seed == DEFAULT_SEED
        self.rng = random.Random(seed)

    def around(self, x: float, half_width: float) -> str:
        if self.nominal:
            return _fmt(x)
        return _fmt(x + self.rng.uniform(-half_width, half_width))


def _dos(ratio: str, g: str, window: str, *extra: str) -> Invocation:
    return Invocation(("dos", "--ratio", ratio, "--g", g, "--window", window, *extra),
                      ("dos_semiclassical.csv", "dos_quantum.csv", "dos_summary.json"))


def _observables(ratio: str, g: str, *extra: str) -> Invocation:
    return Invocation(("observables", "--ratio", ratio, "--g", g, *extra),
                      ("observables_semiclassical.csv", "observables_quantum.csv",
                       "observables_summary.json"))


def _window_r1000(d: _Draw) -> list[Invocation]:
    return [
        _dos("1000", d.around(1.2, 0.01), "10"),
        _observables("1000", d.around(1.4, 0.01)),
        Invocation(("probabilities", "--ratio", "1000", "--g", d.around(1.2, 0.01),
                    "--eps-max", "0"),
                   ("probabilities.csv", "probabilities_summary.json")),
    ]


def _sweep_r40(d: _Draw) -> list[Invocation]:
    g_min = "0" if d.nominal else _fmt(d.rng.uniform(0.0, 0.03))
    g_max = d.around(3.0, 0.03)
    grid = ("--ratio", "40", "--g-min", g_min, "--g-max", g_max, "--g-steps", "61",
            "--levels", "20", "--emit-svg")
    return [
        Invocation(("spectrum", *grid), ("spectrum.csv", "spectrum.svg")),
        Invocation(("gapmap", *grid), ("gapmap.csv", "gapmap_summary.json", "gapmap.svg")),
    ]


def _curves_r40(d: _Draw) -> list[Invocation]:
    asym = ("asymptotics.json", "asymptotics_curve.csv")
    return [
        _observables("40", d.around(1.4, 0.01), "--points", "2001"),
        _dos("40", "1.0", "4", "--points", "2001"),
        Invocation(("asymptotics", "--g", "1.0", "--points", "400"), asym),
        Invocation(("asymptotics", "--g", d.around(1.4, 0.01), "--points", "400"), asym),
    ]


WORKLOADS = {
    "window_r1000": _window_r1000,
    "sweep_r40": _sweep_r40,
    "curves_r40": _curves_r40,
}


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's CLI calls for this seed, in the order they run."""
    return WORKLOADS[workload](_Draw(seed))
