"""The package namespace: the public names, where they are declared, and what
importing and running the CLI loads."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import rabi_esqpt
from rabi_esqpt import asymptotics, quantum, semiclassical, spectral

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rabi_esqpt"

PUBLIC_NAMES = [
    "__version__",
    "Parity", "RabiParams", "ParityChain", "ParitySpectrum", "EigenObservables",
    "ConvergenceError", "TruncationLimitError", "build_parity_chain", "diagonalize",
    "converged_window", "converged_levels", "eigen_observables",
    "DosCurve", "ObservableCurve", "EPS_CRITICAL", "ground_state_eps",
    "dos_curve", "observables_microcanonical",
    "LawKind", "Side", "CriticalLaw", "FitReport", "law_power_qpt", "law_log_esqpt",
    "fit_divergence", "geometric_eps_grid",
    "WindowedDos", "GapMap", "windowed_dos", "gap_map",
]


def test_public_names_unchanged():
    assert rabi_esqpt.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in rabi_esqpt.__all__:
        assert hasattr(rabi_esqpt, name), name


def test_public_names_are_the_module_lists():
    # each name is declared once, in its module's __all__
    assert rabi_esqpt.__all__ == ["__version__", *quantum.__all__, *semiclassical.__all__,
                                  *asymptotics.__all__, *spectral.__all__]


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_quadrature():
    # a fresh interpreter, since tests/oracles.py loads scipy.integrate here;
    # xml.sax would bring urllib.request with it, for one escape in svgplot
    code = (
        "import sys, rabi_esqpt.cli\n"
        "for mod in ('scipy.integrate', 'xml.sax', 'urllib.request'):\n"
        "    assert mod not in sys.modules, mod + ' loaded'\n"
        "from rabi_esqpt import semiclassical\n"
        "import scipy.integrate\n"
        "assert semiclassical.quad is scipy.integrate.quad\n"
    )
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr


# every command once, small; --emit-svg reaches svgplot as well
SMALL_RUNS = [
    ["spectrum", "--ratio", "40", "--g", "1.4", "--levels", "4"],
    ["gapmap", "--ratio", "40", "--g-min", "0", "--g-max", "2", "--g-steps", "3",
     "--levels", "4"],
    ["dos", "--ratio", "40", "--g", "1.2", "--points", "11"],
    ["observables", "--ratio", "40", "--g", "1.4", "--points", "11"],
    ["probabilities", "--ratio", "40", "--g", "1.2"],
    ["asymptotics", "--g", "1.4", "--points", "6"],
    # a window large enough that its plus sector is solved in a forked child
    ["probabilities", "--ratio", "1000", "--g", "1.2", "--eps-max", "-0.95"],
]


def test_cli_commands_run_without_scipy_package_init(tmp_path):
    # a fresh interpreter: the orbit integrals need no scipy.special, and the
    # chain solves take LAPACK from scipy's compiled extension, loaded by
    # path, so neither scipy.linalg's package init nor the public fallback
    # to it ever runs; and the large window forks with os.fork alone, so no
    # process-pool package adds to the start
    code = (
        "import sys\n"
        "from rabi_esqpt import cli, quantum\n"
        f"for i, argv in enumerate({SMALL_RUNS!r}):\n"
        f"    out = {str(tmp_path)!r} + '/' + str(i)\n"
        "    assert cli.main([*argv, '--emit-svg', '--out', out]) == 0, argv\n"
        "for mod in ('scipy.special', 'scipy.linalg', 'scipy.integrate',\n"
        "            'multiprocessing', 'concurrent.futures'):\n"
        "    assert mod not in sys.modules, mod + ' loaded'\n"
        "assert quantum.dsterf is sys.modules['scipy.linalg._flapack'].dsterf\n"
    )
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr


def test_readme_example_runs():
    block = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    run = _run_fresh(block.group(1))
    assert run.returncode == 0, run.stderr


def _reads(tree: ast.Module) -> set[str]:
    """Names the module reads, outside the top-level definition of each name."""
    reads = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != own:
                reads.add(name)
    return reads


def _declared(tree: ast.Module) -> list[str]:
    """The string entries of the module's __all__."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def test_every_public_name_has_a_package_reader():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    reads = set().union(*map(_reads, trees.values()))
    unread = [f"{module}:{name}" for module, tree in sorted(trees.items())
              for name in _declared(tree) if name not in reads]
    assert unread == []


def _is_record(cls: ast.ClassDef) -> bool:
    """A @dataclass or a NamedTuple subclass."""
    marks = [getattr(d, "func", d) for d in cls.decorator_list] + cls.bases
    return any(getattr(m, "id", None) in ("dataclass", "NamedTuple") for m in marks)


def _attribute_reads(tree: ast.Module, skip: str) -> set[str]:
    """Attributes the module loads, outside the top-level definition named skip."""
    return {node.attr for top in tree.body if getattr(top, "name", None) != skip
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


# the per-level certificate, read so far by tests alone; the run report of
# ROADMAP item 10 is to print its maximum
AWAITING_READER = ["quantum.py:ParitySpectrum.error_bound"]


def test_every_record_field_has_a_package_reader():
    # a field that only tests or the benchmark read is a result nobody uses;
    # reads inside the record's own class (its checks, its properties) do not count
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    unread = []
    for module, tree in sorted(trees.items()):
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
                continue
            reads = set().union(*(_attribute_reads(t, cls.name if t is tree else None)
                                  for t in trees.values()))
            unread += [f"{module}:{cls.name}.{stmt.target.id}" for stmt in cls.body
                       if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in reads]
    assert unread == AWAITING_READER
