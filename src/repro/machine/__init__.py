"""BG/Q machine and performance models.

The paper's headline results (13.94 PFlops on 1,572,864 cores, Tables
I-III, Figs. 5-8) require 96 racks of Blue Gene/Q.  Per the reproduction's
substitution policy (DESIGN.md), this subpackage provides an analytical /
discrete performance simulator of that machine, built only from hardware
constants and algorithm facts stated in the paper:

* :mod:`repro.machine.bgq` — the BQC node (16 A2 cores x 4 hw threads,
  QPX, 1.6 GHz, 204.8 GFlops, cache/memory parameters) and system sizes;
* :mod:`repro.machine.kernel_model` — cycle-level model of the
  26-instruction short-range force kernel (Fig. 5);
* :mod:`repro.machine.network` — 5-D torus communication times;
* :mod:`repro.machine.fft_model` — distributed-FFT timing (Table I,
  Fig. 6), calibrated against two anchor rows and predicting the rest;
* :mod:`repro.machine.perfmodel` — full-code weak/strong scaling
  (Tables II-III, Figs. 7-8) from the paper's 80/10/5/5 time split and
  the overloading geometry;
* :mod:`repro.machine.paper_data` — the published table rows, kept in one
  place for calibration and for the paper-vs-model comparisons in
  EXPERIMENTS.md.
"""

from repro.machine.bgq import BGQNode, BGQSystem
from repro.machine.kernel_model import ForceKernelModel
from repro.machine.network import TorusNetworkModel
from repro.machine.fft_model import DistributedFFTModel
from repro.machine.architectures import ARCHITECTURES, ArchSpec
from repro.machine.perfmodel import FullCodeModel, ScalingRow
from repro.machine.roofline import InstructionMixModel, RooflinePoint
from repro.machine.calibrate import HostCalibration, calibrate
from repro.machine.mapping import MappingAnalysis

__all__ = [
    "HostCalibration",
    "calibrate",
    "BGQNode",
    "BGQSystem",
    "ForceKernelModel",
    "TorusNetworkModel",
    "DistributedFFTModel",
    "ArchSpec",
    "ARCHITECTURES",
    "FullCodeModel",
    "ScalingRow",
    "InstructionMixModel",
    "RooflinePoint",
    "MappingAnalysis",
]
