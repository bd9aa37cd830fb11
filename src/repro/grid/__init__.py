"""Grid layer: CIC particle-mesh operations and the spectral Poisson solver.

This is HACC's architecture-independent long/medium-range force component
(Section II): Cloud-In-Cell deposit, the isotropizing spectral filter, the
sixth-order periodic influence function, and fourth-order Super-Lanczos
spectral differencing, composed into a single forward FFT plus one inverse
FFT per force component.
"""

from repro.grid.cic import (
    ParticleGridCoords,
    cic_deposit,
    cic_interpolate,
    density_contrast,
)
from repro.grid.filters import (
    influence_function,
    spectral_filter,
    super_lanczos_gradient,
)
from repro.grid.poisson import SpectralPoissonSolver

__all__ = [
    "ParticleGridCoords",
    "cic_deposit",
    "cic_interpolate",
    "density_contrast",
    "spectral_filter",
    "influence_function",
    "super_lanczos_gradient",
    "SpectralPoissonSolver",
]
