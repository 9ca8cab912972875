"""The package namespace: the public names, where they are declared, and what
importing the CLI loads."""

import os
import subprocess
import sys
from pathlib import Path

import rabi_esqpt
from rabi_esqpt import asymptotics, quantum, semiclassical, spectral

PUBLIC_NAMES = [
    "__version__",
    "Parity", "RabiParams", "ParityChain", "ParitySpectrum", "EigenObservables",
    "ConvergenceError", "TruncationLimitError", "build_parity_chain", "diagonalize",
    "converged_window", "converged_levels", "eigen_observables",
    "DosCurve", "ObservableCurve", "EPS_CRITICAL", "ground_state_eps",
    "dos_semiclassical", "accumulated_states", "dos_curve", "observables_microcanonical",
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


def test_cli_import_loads_no_quadrature():
    # a fresh interpreter, since tests/oracles.py loads scipy.integrate here
    code = (
        "import sys, rabi_esqpt.cli\n"
        "assert 'scipy.integrate' not in sys.modules, 'scipy.integrate loaded'\n"
        "from rabi_esqpt import semiclassical\n"
        "import scipy.integrate\n"
        "assert semiclassical.quad is scipy.integrate.quad\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
