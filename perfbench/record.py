#!/usr/bin/env python3
"""Record the benchmark's fixed data for the checked-out program.

    python3 perfbench/record.py reference   # perfbench/reference.json
    python3 perfbench/record.py baseline    # perfbench/baseline.json

``reference`` runs every workload once at the default seed and keeps the
values ``checks.key_values`` reads; the benchmark compares later runs of the
default seed with them.  Rewrite it only when an output changes on purpose.

``baseline`` runs ``run.py`` on every workload, timed and traced, at the
default seed, and keeps the full results with their provenance: the
before-numbers that later performance changes are measured against.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORK, import_cli, pin_threads
from workloads import DEFAULT_SEED, WORKLOADS, invocations

import checks


def reference() -> None:
    pin_threads()
    cli = import_cli()[0]
    out = {}
    for name in WORKLOADS:
        vals = []
        for i, inv in enumerate(invocations(name, DEFAULT_SEED)):
            d = WORK / "record" / name / str(i)
            if cli.main([*inv.argv, "--out", str(d)]) != 0:
                sys.exit(f"{name}: {' '.join(inv.argv)} failed")
            vals.append(checks.key_values(inv, d))
        out[name] = vals
    shutil.rmtree(WORK / "record")
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def baseline() -> None:
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    runs = {}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                            "--seed", str(DEFAULT_SEED), "--seconds", seconds,
                            "--trace", trace], cwd=ROOT, check=True)
            tag = f"{name}-seed{DEFAULT_SEED}-trace{trace}"
            runs[tag] = json.loads((WORK / "results" / f"{tag}.json").read_text())
    (HERE / "baseline.json").write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    {"reference": reference, "baseline": baseline}[sys.argv[1]]()
