"""The package namespace: the public names and where they are declared."""

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
