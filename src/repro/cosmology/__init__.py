"""Cosmology substrate: background evolution, linear power spectra,
Gaussian random fields and Zel'dovich/2LPT initial conditions.

This subpackage supplies everything the N-body core needs to set up and
interpret a simulation of the Vlasov-Poisson system in an expanding
universe (Eqs. 1-4 of Habib et al. 2012).  HALOFIT and the P(k)
emulator are imported from :mod:`repro.cosmology.halofit` and
:mod:`repro.cosmology.emulator`, so a simulation run never loads them.
"""

from repro.cosmology.background import Cosmology, WMAP7
from repro.cosmology.power_spectrum import LinearPower, TransferFunction
from repro.cosmology.gaussian_field import GaussianRandomField
from repro.cosmology.initial_conditions import ZeldovichICs, make_initial_conditions

__all__ = [
    "Cosmology",
    "WMAP7",
    "TransferFunction",
    "LinearPower",
    "GaussianRandomField",
    "ZeldovichICs",
    "make_initial_conditions",
]
