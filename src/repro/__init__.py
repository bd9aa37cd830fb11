"""repro — a Python reproduction of HACC, the Hybrid/Hardware Accelerated
Cosmology Code of Habib et al., "The Universe at Extreme Scale:
Multi-Petaflop Sky Simulation on the BG/Q" (SC 2012).

Layering (bottom-up):

* :mod:`repro.cosmology` — FLRW backgrounds, linear power spectra,
  Gaussian random fields, Zel'dovich/2LPT initial conditions;
* :mod:`repro.fft` — the slab- and pencil-decomposed distributed 3-D
  FFTs;
* :mod:`repro.parallel` — simulated MPI ranks, 3-D block decomposition,
  particle overloading, torus topology;
* :mod:`repro.grid` — CIC and the spectrally filtered Poisson solver;
* :mod:`repro.shortrange` — grid-force fit, PP kernel, RCB tree, TreePM
  and P3M backends;
* :mod:`repro.core` — particles, SKS sub-cycled stepper, the
  :class:`HACCSimulation` driver;
* :mod:`repro.analysis` — power spectra, FOF halos, sub-halos, mass
  functions, density diagnostics;
* :mod:`repro.machine` — the BG/Q node / torus / kernel / full-code
  performance models that regenerate the paper's scaling tables;
* :mod:`repro.io` — snapshots and measurement persistence.
"""

from repro.config import SimulationConfig
from repro.core.simulation import HACCSimulation
from repro.core.particles import Particles
from repro.cosmology import Cosmology, LinearPower, WMAP7

__version__ = "1.0.0"

__all__ = [
    "SimulationConfig",
    "HACCSimulation",
    "Particles",
    "Cosmology",
    "LinearPower",
    "WMAP7",
    "__version__",
]
