"""The benchmark's output checks, run in the suite.

perfbench/run.py counts an invocation as incorrect when a file it documents
is missing, a summary gate fails, or, for seed 0, a value that
perfbench/reference.json pins has moved.  Here each workload's seed-0
invocations run once, in-process, through the same three checks, so a
change the benchmark would refuse fails the suite first.  perfbench/ is
read, never written.
"""

import json
from pathlib import Path

import pytest

from rabi_esqpt import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import workloads
    return checks, workloads


def test_reference_covers_every_workload(perfbench):
    _, workloads = perfbench
    assert set(REFERENCE) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_seed0_outputs_pass_the_benchmark_checks(workload, tmp_path, perfbench):
    checks, workloads = perfbench
    invs = workloads.invocations(workload, workloads.DEFAULT_SEED)
    assert len(invs) == len(REFERENCE[workload])
    for i, (inv, ref) in enumerate(zip(invs, REFERENCE[workload])):
        out = tmp_path / f"{i}-{inv.command}"
        assert cli.main([*inv.argv, "--out", str(out)]) == 0, inv.argv
        bad = checks.missing_files(inv, out)
        assert not bad, (inv.argv, bad)
        bad = checks.gate_failures(inv, out)
        bad += checks.reference_failures(checks.key_values(inv, out), ref)
        assert not bad, (inv.argv, bad)
