#!/usr/bin/env python3
"""Self-test of the benchmark's traced run.

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) it makes two traced runs of the same
code at the default seed and fails unless

* both runs are correct,
* every exact counter repeats exactly between the two runs, and
* the workload stresses the layer it was chosen for (the shares below).

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import operator
import subprocess
import sys

from run import HERE, ROOT, WORK
from tracing import EXACT_COUNTERS
from workloads import DEFAULT_SEED, WORKLOADS

OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}

# what each workload was chosen to stress, as shares of the traced pass time
EXPECT = {
    "window_r1000": [("quantum.share", ">=", 0.90), ("semiclassical.share", "<=", 0.05)],
    "sweep_r40": [("quantum.diagonalize_share", ">=", 0.85),
                  ("semiclassical.quad_calls", "==", 0),
                  ("semiclassical.eps_points", "==", 0)],
    "curves_r40": [("semiclassical.share", ">=", 0.85)],
}


def traced(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    tag = f"{workload}-seed{DEFAULT_SEED}-trace1"
    return json.loads((WORK / "results" / f"{tag}.json").read_text())["result"]


def check(workload: str) -> list[str]:
    a, b = traced(workload), traced(workload)
    bad = [f"run {i} not correct" for i, r in enumerate((a, b)) if not r["correct"]]
    for key in EXACT_COUNTERS:
        va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
        if va != vb:
            bad.append(f"{key}: {va} then {vb}")
    for key, op, limit in EXPECT[workload]:
        v = a["metrics"][key]["value"]
        if not OPS[op](v, limit):
            bad.append(f"{key} = {v:.4g}, expected {op} {limit}")
    return bad


def main(names: list[str]) -> int:
    failed = False
    for name in names or list(WORKLOADS):
        bad = check(name)
        failed |= bool(bad)
        print(f"{name}: {'ok' if not bad else 'FAILED'}")
        for msg in bad:
            print(f"  {msg}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
