"""Analysis chain for simulation outputs.

Implements the measurements behind the paper's science figures: the
matter fluctuation power spectrum (Fig. 10), friends-of-friends halos,
sub-halos and merger histories (Fig. 11), halo mass functions with
Press-Schechter / Sheth-Tormen analytic references (Section V), and
density projections, zoom series and renders for the dynamic-range
visualizations (Figs. 2 and 9).
"""

from repro.analysis.power import PowerSpectrum, matter_power_spectrum
from repro.analysis.halos import FOFCatalog, fof_halos
from repro.analysis.subhalos import find_subhalos
from repro.analysis.mass_function import (
    measured_mass_function,
    press_schechter,
    sheth_tormen,
)
from repro.analysis.density import (
    density_projection,
    density_contrast_statistics,
    zoom_series,
)
from repro.analysis.mergers import build_merger_history, match_halos
from repro.analysis.render import render_density, write_ppm, read_ppm

__all__ = [
    "PowerSpectrum",
    "matter_power_spectrum",
    "FOFCatalog",
    "fof_halos",
    "find_subhalos",
    "measured_mass_function",
    "press_schechter",
    "sheth_tormen",
    "density_projection",
    "density_contrast_statistics",
    "zoom_series",
    "match_halos",
    "build_merger_history",
    "render_density",
    "write_ppm",
    "read_ppm",
]
