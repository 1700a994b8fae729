"""Pseudospectral Vlasov-Maxwell / Vlasov-Poisson multifluid solver on the torus.

Layering: ``spectral`` (Fourier fields and the weighted-norm calculus),
``fields`` (Coulomb-gauge electromagnetic state and the oscillatory wave
integrator), ``multifluid`` (phase-ensemble dynamics and the analytic
fixed-point scheme; a ``PhaseEnsemble`` holds its M phases as stacked
arrays, weights mu (M,), densities rho (M, 1, J..) and momenta
xi (M, d, J..)), ``lagrangian`` (paired characteristic flows),
``transport`` (Wasserstein-2 machinery and the coupling functional),
``harness`` (runs, sweeps, diagnostics), ``cli`` (command line).
"""

from . import _heap

# set before any submodule allocates; mallopt's return codes, () without mallopt
_mallopt_codes = _heap.pin_heap_thresholds()

from .errors import NumericalAbort, ValidationError
from .spectral import AnalyticNormParams, SpectralField
from .fields import EMState
from .multifluid import PhaseEnsemble
from .lagrangian import ParticleCloud
from .transport import EmpiricalMeasure
from .config import PhaseSpec, RunConfig

__all__ = [
    "AnalyticNormParams",
    "EMState",
    "EmpiricalMeasure",
    "NumericalAbort",
    "ParticleCloud",
    "PhaseEnsemble",
    "PhaseSpec",
    "RunConfig",
    "SpectralField",
    "ValidationError",
]

__version__ = "0.1.0"
