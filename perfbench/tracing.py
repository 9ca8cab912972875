"""Outside-in tracing of the package's layers, for the traced run only.

Nothing under ``src/`` changes: the tracer swaps module attributes for
wrappers and puts the originals back afterwards.  A name is wrapped at every
place it is looked up at call time:

* ``rabi_esqpt.cli``: every package function the CLI imported (the layer
  boundary of each command);
* ``rabi_esqpt.quantum``: its own public functions, which the growth loops
  call through the module globals;
* ``rabi_esqpt.spectral``: the quantum functions ``gap_map`` calls.

Each wrapped call records a span (name, start, end, parent span, pass id).
``build_parity_chain`` and ``scipy.integrate.quad`` (as looked up by
``rabi_esqpt.semiclassical``) only count, so that their microsecond calls
neither swamp the span list nor cut into the self time of the growth loops.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import json
import statistics
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# layers whose peak allocation is measured (they never nest in each other)
ALLOC_LAYERS = ("quantum", "semiclassical")
MB = 1e6

# counters that must repeat exactly between passes and runs of the same code
EXACT_COUNTERS = (
    "quantum.diagonalize_calls",
    "quantum.chain_sites_built",
    "quantum.levels_certified",
    "semiclassical.quad_calls",
    "output.bytes_written",
    "svgplot.bytes_written",
)


class Tracer:
    def __init__(self, cli, spectral, quantum, semiclassical):
        self.spans: list[list] = []  # [name, start, end, parent, pass, extra]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.alloc_peak: dict[str, int] = {}
        self.pass_id = 0
        self.track_alloc = False
        self._stack: list[int] = []
        self._alloc_depth: Counter = Counter()
        self._patches = []
        self._targets = self._collect(cli, spectral, quantum, semiclassical)

    # ---------------------------------------------------------- wrapping

    def _collect(self, cli, spectral, quantum, semiclassical):
        def package_functions(mod, home):
            return [(name, obj) for name, obj in vars(mod).items()
                    if inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == home]

        targets = []
        for name, fn in vars(cli).items():
            if (inspect.isfunction(fn) and fn.__module__.startswith("rabi_esqpt.")
                    and fn.__module__ != cli.__name__):
                targets.append((cli, name, fn, True))
        for mod in (quantum, spectral):
            for name, fn in package_functions(mod, quantum.__name__):
                targets.append((mod, name, fn, False))
        targets.append((semiclassical, "quad", semiclassical.quad, False))
        return targets

    def install(self) -> None:
        for mod, name, fn, boundary in self._targets:
            if name == "quad":
                wrapper = self._counter(fn, "semiclassical.quad_calls", lambda r: 1)
            elif fn.__name__ == "build_parity_chain":
                wrapper = self._counter(fn, "quantum.chain_sites_built", lambda r: r.dim)
            else:
                wrapper = self._span(fn, boundary)
            self._patches.append((mod, name, fn))
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, fn in self._patches:
            setattr(mod, name, fn)
        self._patches.clear()

    def _counter(self, fn, key, amount):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[self.pass_id][key] += amount(result)
            return result
        return counted

    def _span(self, fn, boundary):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        measure_alloc = layer in ALLOC_LAYERS

        def traced(*args, **kwargs):
            with self._open(name, layer if measure_alloc else None) as extra:
                result = fn(*args, **kwargs)
            if boundary:
                self._note_result(fn.__name__, result, extra)
            return result
        return traced

    @contextmanager
    def _open(self, name: str, alloc_layer: str | None = None):
        sid = len(self.spans)
        extra: dict = {}
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.pass_id, extra]
        self.spans.append(rec)
        self._stack.append(sid)
        alloc = self.track_alloc and alloc_layer and not self._alloc_depth[alloc_layer]
        if alloc:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        if alloc_layer:
            self._alloc_depth[alloc_layer] += 1
        rec[1] = perf_counter()
        try:
            yield extra
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            if alloc_layer:
                self._alloc_depth[alloc_layer] -= 1
            if alloc:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.alloc_peak[alloc_layer] = max(self.alloc_peak.get(alloc_layer, 0), peak)

    def _note_result(self, fname: str, result, extra: dict) -> None:
        """Counts read off what a layer returned to the CLI."""
        c = self.counts[self.pass_id]
        if fname in ("converged_window", "converged_levels"):
            spec = result[1] if fname == "converged_window" else result
            c["quantum.levels_certified"] += spec.n_converged
            c["quantum.sites_returned"] += spec.dim
            if spec.vectors is not None:
                extra["vector_bytes"] = spec.vectors.nbytes
        elif fname == "gap_map":
            c["quantum.levels_certified"] += 2 * int(result.converged.sum())
            c["quantum.sites_returned"] += 2 * int(result.dim.sum())
        elif fname in ("dos_curve", "observables_microcanonical"):
            extra["points"] = len(result.eps)
        elif fname == "dos_semiclassical":
            extra["points"] = 1
        elif fname in ("write_csv", "write_json", "save"):
            layer = "svgplot" if fname == "save" else "output"
            c[f"{layer}.bytes_written"] += Path(result).stat().st_size

    def command(self, name: str):
        """Root span around one CLI invocation."""
        return self._open(f"cli.{name}")

    # ---------------------------------------------------------- metrics

    def pass_metrics(self, pass_id: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass whose commands took `wall` s."""
        ids = [i for i, s in enumerate(self.spans) if s[4] == pass_id]
        dur = {i: self.spans[i][2] - self.spans[i][1] for i in ids}
        child = Counter()
        for i in ids:
            parent = self.spans[i][3]
            if parent is not None:
                child[parent] += dur[i]
        total, self_time, calls = Counter(), Counter(), Counter()
        layer_self = Counter()
        vector_bytes = Counter()
        curve_s = point_s = points = point_calls = 0.0
        for i in ids:
            name, _, _, parent, _, extra = self.spans[i]
            own = dur[i] - child[i]
            total[name] += dur[i]
            self_time[name] += own
            calls[name] += 1
            layer_self[name.split(".")[0]] += own
            root = i
            while self.spans[root][3] is not None:
                root = self.spans[root][3]
            vector_bytes[root] += extra.get("vector_bytes", 0)
            if "points" in extra:
                points += extra["points"]
                if extra["points"] == 1:
                    point_s += dur[i]
                    point_calls += 1
                else:
                    curve_s += dur[i]
        c = self.counts[pass_id]
        built = c["quantum.chain_sites_built"]
        root_self = sum(self_time[n] for n in self_time if n.startswith("cli."))
        m = {
            "quantum.converged_window_s": total["quantum.converged_window"],
            "quantum.converged_window_self_s": self_time["quantum.converged_window"],
            "quantum.converged_levels_s": total["quantum.converged_levels"],
            "quantum.converged_levels_self_s": self_time["quantum.converged_levels"],
            "quantum.diagonalize_s": total["quantum.diagonalize"],
            "quantum.diagonalize_calls": calls["quantum.diagonalize"],
            "quantum.chain_sites_built": built,
            "quantum.levels_certified": c["quantum.levels_certified"],
            "quantum.useful_sites_ratio": c["quantum.sites_returned"] / built if built else 0.0,
            "quantum.eigen_observables_s": total["quantum.eigen_observables"],
            "quantum.vector_mb": max(vector_bytes.values(), default=0) / MB,
            "quantum.diagonalize_share": total["quantum.diagonalize"] / wall,
            "spectral.gap_map_s": total["spectral.gap_map"],
            "spectral.gap_map_self_s": self_time["spectral.gap_map"],
            "spectral.windowed_dos_s": total["spectral.windowed_dos"],
            "semiclassical.curve_s": curve_s,
            "semiclassical.pointwise_s": point_s,
            "semiclassical.pointwise_calls": point_calls,
            "semiclassical.eps_points": points,
            "semiclassical.s_per_point": (curve_s + point_s) / points if points else 0.0,
            "semiclassical.quad_calls": c["semiclassical.quad_calls"],
            "asymptotics.fit_divergence_s": total["asymptotics.fit_divergence"],
            "asymptotics.fit_divergence_calls": calls["asymptotics.fit_divergence"],
            "output.write_s": sum(t for n, t in total.items() if n.startswith("output.")),
            "output.bytes_written": c["output.bytes_written"],
            "svgplot.save_s": total["svgplot.save"],
            "svgplot.bytes_written": c["svgplot.bytes_written"],
            "cli.self_s": root_self,
        }
        for layer in ("quantum", "spectral", "semiclassical", "asymptotics",
                      "output", "svgplot", "cli"):
            m[f"{layer}.share"] = layer_self[layer] / wall
        return m

    def counters(self, pass_id: int) -> dict[str, float]:
        m = self.pass_metrics(pass_id, 1.0)
        return {k: m[k] for k in EXACT_COUNTERS}

    def alloc_metrics(self) -> dict[str, float]:
        return {f"{layer}.peak_alloc_mb": self.alloc_peak.get(layer, 0) / MB
                for layer in ALLOC_LAYERS}

    def write(self, path: Path) -> None:
        """All spans, one JSON array per line: name, start, end, parent, pass."""
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec[:5]) + "\n")


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
