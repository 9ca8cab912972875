#!/usr/bin/env python3
"""Benchmark of the rabi-esqpt CLI: three workloads, timed end to end.

    python3 perfbench/run.py --workload window_r1000 --seed 0 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory and from nowhere else.  One process drives ``rabi_esqpt.cli.main``
in-process, one invocation after another (a closed loop with one caller).

``--trace 0`` (timed run):
  1. set-up: fresh interpreters import the CLI and generate the workload's
     argv, several times; ``setup_s`` is their median;
  2. a warm-up pass, whose outputs are checked against the summary gates
     (and the recorded reference for the default seed) and whose peak RSS
     is ``peak_rss_mb``: a fresh process running one pass;
  3. timed passes until ``--seconds`` have gone by; each pass's files must
     be byte-identical to the warm-up's (the rerun contract).
``--trace 1`` (traced run): a warm-up pass under tracemalloc gives the peak
allocations, then untraced and traced passes alternate; the per-layer
metrics are medians over the traced passes, and ``trace.overhead_s`` is the
traced minus the untraced median pass time.

The last line of standard output is one JSON object holding ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` lists for the
mode; the lines before it print every metric by name and unit.  The full
result, with provenance, goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, invocations  # noqa: E402

# Fresh interpreter for set-up_s: import the CLI from src/ and generate argv.
SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import rabi_esqpt.cli
from workloads import invocations
invocations(sys.argv[3], int(sys.argv[4]))
print(rabi_esqpt.cli.__file__, flush=True)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def pin_threads() -> dict[str, str]:
    # single-threaded BLAS/OpenMP: the tridiagonal LAPACK solves are serial
    # anyway, and a second thread only adds noise on a small shared machine
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def check_from_src(module_file: str) -> None:
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"rabi_esqpt imported from {module_file}, not from {SRC}")


def import_cli():
    if not (SRC / "rabi_esqpt" / "cli.py").is_file():
        raise BenchError(f"no rabi_esqpt package under {SRC}")
    sys.path.insert(0, str(SRC))
    from rabi_esqpt import cli, quantum, semiclassical, spectral
    check_from_src(cli.__file__)
    return cli, spectral, quantum, semiclassical


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning an interpreter to CLI imported and argv built."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = proc.stdout.readline()
        times.append(perf_counter() - t0)
        proc.stdout.close()
        if proc.wait() != 0 or not line:
            raise BenchError("set-up interpreter failed to import the CLI")
        check_from_src(line.strip())
    return times


def provenance(seed: int, threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    def build(mod) -> dict:
        cfg = mod.show_config(mode="dicts").get("Build Dependencies", {})
        return {k: f"{v.get('name')} {v.get('version')}" for k, v in cfg.items()
                if k in ("blas", "lapack")}

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown"
    src_hash = checks.tree_digest(SRC / "rabi_esqpt")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_build": build(numpy),
        "scipy_build": build(scipy),
        "threads": threads,
        "git_commit": commit,
        "src_sha256": src_hash,
        "seed": seed,
    }


class Runner:
    """Runs passes over the workload and checks every invocation."""

    def __init__(self, cli, invs, work: Path, reference: list[dict] | None):
        self.cli = cli
        self.invs = invs
        self.work = work
        self.reference = reference
        self.first_digest: list[dict] = []
        self.standing: list[list[str]] = []  # gate/reference failures, per invocation
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.self_test: list[str] = []  # run-level failures, outside any invocation
        self.walls: list[float] = []
        self.per_command: dict[str, list[float]] = {}

    def run_pass(self, tag: str, tracer=None) -> tuple[float, list[float]]:
        """One pass over the workload: its wall time and each invocation's."""
        gc.collect()
        pass_dir = self.work / tag
        rcs, times = [], []
        t_pass = perf_counter()
        for i, inv in enumerate(self.invs):
            argv = [*inv.argv, "--out", str(pass_dir / f"{i}-{inv.command}")]
            t0 = perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with tracer.command(inv.command):
                        rc = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed invocation, not a crashed run
                rc = repr(exc)
            times.append(perf_counter() - t0)
            rcs.append(rc)
        wall = perf_counter() - t_pass
        self._check(pass_dir, rcs)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return wall, times

    def record(self, wall: float, times: list[float]) -> None:
        """Keep one pass's times as a timed sample."""
        self.walls.append(wall)
        sums: dict[str, float] = {}
        for inv, t in zip(self.invs, times):
            sums[inv.command] = sums.get(inv.command, 0.0) + t
        for cmd, t in sums.items():
            self.per_command.setdefault(cmd, []).append(t)

    def _check(self, pass_dir: Path, rcs: list) -> None:
        first = not self.first_digest
        for i, (inv, rc) in enumerate(zip(self.invs, rcs)):
            out = pass_dir / f"{i}-{inv.command}"
            bad = [] if rc == 0 else [f"exit status {rc}"]
            if not bad:
                bad += checks.missing_files(inv, out)
            digest = checks.digest(out) if out.is_dir() else {}
            if first:
                self.first_digest.append(digest)
                self.standing.append(self._content_failures(i, inv, out) if not bad else [])
            elif digest != self.first_digest[i]:
                bad.append("files differ from the first pass (rerun contract)")
            bad += self.standing[i]
            self.attempted += 1
            if bad:
                self.failed += 1
                self.messages += [f"{' '.join(inv.argv)}: {b}" for b in bad]

    def _content_failures(self, i: int, inv, out: Path) -> list[str]:
        try:
            bad = checks.gate_failures(inv, out)
            if self.reference is not None:
                bad += checks.reference_failures(checks.key_values(inv, out),
                                                 self.reference[i])
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        return bad


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it (the minimum
    when there are eleven or fewer samples), and its rank from the bottom."""
    ranked = sorted(values)
    k = max(len(ranked) - 11, 0)
    return ranked[k], k


def timed_run(runner: Runner, seconds: float, setup: list[float]) -> list[tuple]:
    runner.run_pass("warmup")
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    t0 = perf_counter()
    n = 0
    while True:
        runner.record(*runner.run_pass(f"pass{n}"))
        n += 1
        if perf_counter() - t0 >= seconds:
            break
    tail_s, rank = tail(runner.walls)
    rows = [
        ("wall_s", "s", statistics.median(runner.walls), f"median of {n} passes"),
        ("wall_s_tail", "s", tail_s,
         f"pass {rank + 1} of {n} from the fastest; {n - rank - 1} beyond it"),
        ("setup_s", "s", statistics.median(setup),
         f"median of {len(setup)} fresh interpreters"),
        ("peak_rss_mb", "MB", peak_rss, "max RSS after one pass in a fresh process"),
        ("error_rate", "fraction", runner.failed / runner.attempted,
         f"{runner.failed} of {runner.attempted} invocations"),
    ]
    for cmd, times in runner.per_command.items():
        rows.append((f"{cmd}_s", "s", statistics.median(times), f"median of {n} passes"))
    return rows


def traced_run(runner: Runner, seconds: float, mods, units: dict[str, str]):
    from tracing import EXACT_COUNTERS, Tracer, median_metrics

    tracer = Tracer(*mods)
    tracer.install()
    tracer.track_alloc = True
    tracemalloc.start()
    try:
        runner.run_pass("warmup", tracer)
    finally:
        tracemalloc.stop()
        tracer.track_alloc = False
        tracer.uninstall()
    plain, traced, per_pass = [], [], []
    t0 = perf_counter()
    while True:
        plain.append(runner.run_pass(f"plain{len(plain)}")[0])
        tracer.pass_id = len(traced) + 1
        tracer.install()
        try:
            wall = runner.run_pass(f"traced{len(traced)}", tracer)[0]
        finally:
            tracer.uninstall()
        traced.append(wall)
        per_pass.append(tracer.pass_metrics(tracer.pass_id, wall))
        if perf_counter() - t0 >= seconds:
            break
    # the exact counters must repeat in every traced pass, warm-up included
    first = tracer.counters(0)
    for pid in range(1, tracer.pass_id + 1):
        if tracer.counters(pid) != first:
            runner.self_test.append(f"exact counters differ: {first} vs {tracer.counters(pid)}")
    metrics = median_metrics(per_pass)
    metrics.update(tracer.alloc_metrics())
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    note = {k: "exact count" for k in EXACT_COUNTERS}
    rows = [(name, units[name], metrics[name],
             note.get(name, f"median of {len(traced)} traced passes"))
            for name in units]
    return rows, tracer


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    threads = pin_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    try:
        mods = import_cli()
        setup = [] if args.trace else measure_setup(args.workload, args.seed)
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(mods[0], invocations(args.workload, args.seed), work, reference)
    tracer = None
    try:
        if args.trace:
            rows, tracer = traced_run(runner, args.seconds, mods, units)
        else:
            rows = timed_run(runner, args.seconds, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in runner.self_test + runner.messages[:20]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    prov = provenance(args.seed, threads)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, val in prov.items():
        print(f"  {key}: {val}")
    for name, unit, value, note in rows:
        print(f"{name:34s} {value:14.6g} {unit:9s} {note}")

    missing = [n for n in units if n not in {r[0] for r in rows}]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": runner.failed == 0 and not runner.self_test,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value, _ in rows if name in units},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload,
        "argv": [list(inv.argv) for inv in runner.invs],
        "provenance": prov,
        "table": [{"name": n, "unit": u, "value": v, "note": t} for n, u, v, t in rows],
        "failures": runner.self_test + runner.messages,
        "result": result,
    }, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{tag}-spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
