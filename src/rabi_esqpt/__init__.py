"""Quantum Rabi model: parity-resolved spectra and excited-state criticality.

Exact tridiagonal diagonalization of the two parity chains, semiclassical
density of states with its critical divergences, microcanonical
observables, and windowed spectral statistics, plus a CLI driver.
"""

from . import quantum, semiclassical, asymptotics, spectral
from .quantum import *  # noqa: F403
from .semiclassical import *  # noqa: F403
from .asymptotics import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *quantum.__all__, *semiclassical.__all__,
           *asymptotics.__all__, *spectral.__all__]
