"""Quantum Rabi model: parity-resolved spectra and excited-state criticality.

Exact tridiagonal diagonalization of the two parity chains, semiclassical
density of states with its critical divergences, microcanonical
observables, and windowed spectral statistics, plus a CLI driver.
"""

from .quantum import (
    ConvergenceError,
    EigenObservables,
    Parity,
    ParityChain,
    ParitySpectrum,
    RabiParams,
    TruncationLimitError,
    build_parity_chain,
    converged_levels,
    converged_window,
    diagonalize,
    eigen_observables,
)
from .semiclassical import (
    EPS_CRITICAL,
    DosCurve,
    ObservableCurve,
    QuadratureError,
    accumulated_states,
    dos_curve,
    dos_semiclassical,
    ground_state_eps,
    observables_microcanonical,
)
from .asymptotics import (
    CriticalLaw,
    FitReport,
    LawKind,
    Side,
    fit_divergence,
    geometric_eps_grid,
    law_log_esqpt,
    law_power_qpt,
)
from .spectral import (
    GapMap,
    MergedLevels,
    WindowedDos,
    gap_map,
    merged_levels,
    windowed_dos,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Parity",
    "RabiParams",
    "ParityChain",
    "ParitySpectrum",
    "EigenObservables",
    "ConvergenceError",
    "TruncationLimitError",
    "build_parity_chain",
    "diagonalize",
    "converged_window",
    "converged_levels",
    "eigen_observables",
    "DosCurve",
    "ObservableCurve",
    "QuadratureError",
    "EPS_CRITICAL",
    "ground_state_eps",
    "dos_semiclassical",
    "accumulated_states",
    "dos_curve",
    "observables_microcanonical",
    "LawKind",
    "Side",
    "CriticalLaw",
    "FitReport",
    "law_power_qpt",
    "law_log_esqpt",
    "fit_divergence",
    "geometric_eps_grid",
    "MergedLevels",
    "WindowedDos",
    "GapMap",
    "merged_levels",
    "windowed_dos",
    "gap_map",
]
