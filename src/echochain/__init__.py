"""Qubit dephasing under a kicked Ising chain.

Evolves the fidelity amplitude f(t) between two perturbed copies of a kicked
chain, derives non-Markovianity measures from it, measures environment-state
localization (IPR) in symmetry-adapted blocks, and sweeps spin coherent initial
states over the Poincare sphere.
"""

from .chain import ChainParams, Coupling, build_floquet_pair
from .coherent import CoherentSpec, build_coherent_state
from .config import ConfigError, RunConfig, parse_config
from .dynamics import FidelitySeries, asymptotic_fidelity, fidelity_series
from .linalg import RngStream, unitary_eig
from .measures import NmReport, compute_report
from .sweep import run_saturation, run_series, run_spectral, run_sweep
from .symmetry import ipr

__version__ = "0.1.0"
