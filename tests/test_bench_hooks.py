"""Guard for the names the benchmark's tracer binds.

perfbench/tracing.py swaps package functions for wrappers by name, and only
the traced benchmark run uses it: a renamed or removed function, or a result
field it reads, would break that run alone.  Here five tiny invocations run
under the tracer, every exact counter but the quadrature count must move
(the orbit integrals are closed forms, so no quad call remains), and
uninstalling must put every module attribute back.
"""

from pathlib import Path

from rabi_esqpt import cli, quantum, semiclassical, spectral

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RUNS = [
    ["spectrum", "--ratio", "10", "--g", "1.2", "--levels", "3"],
    ["gapmap", "--ratio", "10", "--g-min", "0", "--g-max", "2", "--g-steps", "3",
     "--levels", "3", "--emit-svg"],
    ["dos", "--ratio", "40", "--g", "1.2", "--points", "11"],
    ["probabilities", "--ratio", "40", "--g", "1.2"],
    ["asymptotics", "--g", "1.4", "--points", "6"],
]


def test_traced_runs_move_every_exact_counter(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    mods = (cli, spectral, quantum, semiclassical)
    before = [dict(vars(mod)) for mod in mods]
    tracer = tracing.Tracer(*mods)
    tracer.install()
    try:
        for i, argv in enumerate(RUNS):
            with tracer.command(argv[0]):
                assert cli.main([*argv, "--out", str(tmp_path / str(i))]) == 0, argv
    finally:
        tracer.uninstall()
    counters = tracer.counters(0)
    assert set(counters) == set(tracing.EXACT_COUNTERS)
    assert counters.pop("semiclassical.quad_calls") == 0
    assert all(v > 0 for v in counters.values()), counters
    for mod, attrs in zip(mods, before):
        now = vars(mod)
        assert now.keys() == attrs.keys()
        assert all(now[name] is value for name, value in attrs.items()), mod.__name__
