"""The HACC core: particle container, SKS time stepper, simulation driver."""

from repro.core.particles import Particles
from repro.core.timestepper import (
    SubcycledStepper,
    drift_coefficient,
    kick_coefficient,
)
from repro.core.simulation import HACCSimulation
from repro.core.diagnostics import EnergyState, LayzerIrvineMonitor

__all__ = [
    "Particles",
    "SubcycledStepper",
    "drift_coefficient",
    "kick_coefficient",
    "HACCSimulation",
    "EnergyState",
    "LayzerIrvineMonitor",
]
