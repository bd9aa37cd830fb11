"""Numerical measurement and polynomial fit of the filtered grid force.

The paper (Section II): *"the filtered grid force was obtained numerically
to high accuracy using randomly sampled particle pairs and then fitted to
an expression with the correct large and small distance asymptotics.
Because this functional form is needed only over a small, compact region,
it can be simplified using a fifth-order polynomial expansion."*

This module reproduces that pipeline:

1. deposit a single unit particle at random sub-cell offsets, run the
   filtered Poisson solver once per source, and sample the interpolated
   force at many radii/directions (each solve yields hundreds of samples);
2. normalize so the measured force tends to the exact Newtonian
   ``s^{-3/2}`` at large separation (the continuum normalization is
   ``spacing^3 / (4 pi)`` for a unit-mass deposit, which the measurement
   confirms);
3. fit ``poly_5(s)`` over ``s in (0, r_cut^2]`` by least squares.

As in the paper, the fit is made once, offline: the nominal fit is the
committed table :data:`NOMINAL_FITS`, so a run at the nominal filter
and cutoff measures nothing.  Any other parameters are measured (once
per process).  A test re-measures the nominal entry and prints fresh
literals when a solver change moves it.

Everything is expressed in **grid-cell units** (separation in cells), so
one fit is reusable for any box size at fixed filter parameters; the
handover radius is the paper's 3 grid cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.grid.cic import cic_deposit, cic_interpolate
from repro.grid.filters import NOMINAL_NS, NOMINAL_SIGMA
from repro.grid.poisson import SpectralPoissonSolver

__all__ = [
    "GridForceFit",
    "measure_grid_force",
    "fit_grid_force",
    "default_grid_force_fit",
    "pair_force_normalization",
    "NOMINAL_FITS",
]

#: handover radius between short- and long-range forces, in grid cells
NOMINAL_RCUT_CELLS = 3.0


def pair_force_normalization(box_size: float, n_particles: int) -> float:
    """Strength of a unit-weight pair interaction in density-contrast units.

    The PM solver works with ``delta = rho/<rho> - 1``; a single particle
    of weight ``w`` in a box of volume ``V`` with ``Np`` particles sources
    a pair acceleration ``w V / (4 pi Np r^2)``.  The PP sum must use the
    same normalization for the total force to be exact; the time stepper
    multiplies both by the cosmological prefactor ``(3/2) Omega_m``.
    """
    if n_particles <= 0:
        raise ValueError(f"n_particles must be positive: {n_particles}")
    return box_size**3 / (4.0 * np.pi * n_particles)


def measure_grid_force(
    n_grid: int = 32,
    *,
    sigma: float = NOMINAL_SIGMA,
    ns: int = NOMINAL_NS,
    laplacian_order: int = 6,
    gradient_order: int = 4,
    n_sources: int = 16,
    n_samples_per_source: int = 256,
    r_max_cells: float = 4.5,
    seed: int = 12345,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample the filtered PM pair force.

    Returns
    -------
    (s, f_radial, f_transverse):
        Squared separations in cells^2, radial force coefficient
        (``F . rhat / r`` so that ``F = f(s) r_vec``) normalized to the
        Newtonian ``s^{-3/2}``, and the transverse (anisotropy-noise)
        component in the same units.
    """
    if n_grid < 16:
        raise ValueError(f"n_grid must be >= 16 for a clean measurement: {n_grid}")
    if r_max_cells >= n_grid / 4:
        raise ValueError(
            f"r_max_cells={r_max_cells} too large for grid {n_grid} "
            "(periodic images would contaminate the measurement)"
        )
    box = float(n_grid)  # spacing = 1 -> cell units
    solver = SpectralPoissonSolver(
        n_grid,
        box,
        sigma=sigma,
        ns=ns,
        laplacian_order=laplacian_order,
        gradient_order=gradient_order,
    )
    rng = np.random.default_rng(seed)
    norm = 1.0 / (4.0 * np.pi)  # unit deposit, spacing = 1

    s_all, fr_all, ft_all = [], [], []
    for _ in range(n_sources):
        src = rng.uniform(0.0, box, 3)
        rho = cic_deposit(src[None, :], n_grid, box)
        fgrid = solver.force_grid(rho)

        radii = rng.uniform(0.05, r_max_cells, n_samples_per_source)
        dirs = rng.standard_normal((n_samples_per_source, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = np.mod(src[None, :] + radii[:, None] * dirs, box)
        fvec = cic_interpolate(fgrid, pts, box) / norm
        # attractive force points along -rhat; f(s) multiplies +r_vec with
        # a minus sign in the solvers, so flip here for a positive profile.
        f_rad = -np.einsum("ij,ij->i", fvec, dirs) / radii
        f_perp = (
            np.linalg.norm(
                fvec + (f_rad * radii)[:, None] * dirs, axis=1
            )
            / radii
        )
        s_all.append(radii**2)
        fr_all.append(f_rad)
        ft_all.append(f_perp)

    return (
        np.concatenate(s_all),
        np.concatenate(fr_all),
        np.concatenate(ft_all),
    )


@dataclass(frozen=True)
class GridForceFit:
    """Fifth-order polynomial fit of the grid force, in cell units.

    ``poly(s) = sum_m c_m s^m`` approximates the radial grid-force
    coefficient for ``s <= rcut_cells^2``; beyond the cut the grid force
    equals the Newtonian force by construction and the short-range force
    vanishes.
    """

    coefficients: tuple[float, ...]
    rcut_cells: float
    sigma: float
    ns: int
    rms_residual: float

    def __call__(self, s_cells) -> np.ndarray:
        """Evaluate the polynomial at squared separations (cells^2)."""
        s = np.asarray(s_cells, dtype=np.float64)
        out = np.zeros_like(s)
        for c in reversed(self.coefficients):  # Horner
            out = out * s + c
        return out

    def short_range(self, s_cells) -> np.ndarray:
        """``f_SR(s) = s^{-3/2} - poly(s)`` inside the cutoff, else 0."""
        s = np.asarray(s_cells, dtype=np.float64)
        inside = (s > 0) & (s < self.rcut_cells**2)
        safe = np.where(inside, s, 1.0)
        return np.where(inside, safe**-1.5 - self(safe), 0.0)


def fit_grid_force(
    s: np.ndarray,
    f_radial: np.ndarray,
    *,
    rcut_cells: float = NOMINAL_RCUT_CELLS,
    degree: int = 5,
    sigma: float = NOMINAL_SIGMA,
    ns: int = NOMINAL_NS,
) -> GridForceFit:
    """Least-squares polynomial fit of the measured grid force in ``s``.

    Only samples with ``s <= rcut_cells^2`` enter the fit — the compact
    region over which the polynomial replaces the measured profile in the
    force kernel.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1: {degree}")
    s = np.asarray(s, dtype=np.float64)
    f = np.asarray(f_radial, dtype=np.float64)
    mask = s <= rcut_cells**2
    if rcut_cells**2 > s.max():
        raise ValueError(
            f"rcut_cells={rcut_cells} lies beyond the sampled separations "
            f"(up to {np.sqrt(s.max()):.3g} cells): the polynomial would "
            "be extrapolated"
        )
    if np.count_nonzero(mask) <= degree + 1:
        raise ValueError(
            "not enough samples inside the cutoff to fit the polynomial"
        )
    ss, ff = s[mask], f[mask]
    vander = np.vander(ss, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vander, ff, rcond=None)
    resid = ff - vander @ coeffs
    return GridForceFit(
        coefficients=tuple(float(c) for c in coeffs),
        rcut_cells=float(rcut_cells),
        sigma=float(sigma),
        ns=int(ns),
        rms_residual=float(np.sqrt(np.mean(resid**2))),
    )


#: fits made offline, keyed on ``(sigma, ns, rcut_cells, n_grid)``: the
#: nominal entry is ``measure_grid_force`` + ``fit_grid_force`` at their
#: defaults, written as ``float.hex`` literals (bit for bit what the
#: measurement gives on x86-64 with numpy's pocketfft and LAPACK)
NOMINAL_FITS: dict[tuple, GridForceFit] = {
    (NOMINAL_SIGMA, NOMINAL_NS, NOMINAL_RCUT_CELLS, 32): GridForceFit(
        coefficients=tuple(float.fromhex(h) for h in (
            "0x1.093551f5bc7f8p-2",
            "-0x1.12a6af634d303p-4",
            "0x1.06270e269800ep-7",
            "-0x1.46ca54fab8574p-12",
            "-0x1.79c742711f3c8p-16",
            "0x1.ed25bbcfad410p-20",
        )),
        rcut_cells=float(NOMINAL_RCUT_CELLS),
        sigma=float(NOMINAL_SIGMA),
        ns=int(NOMINAL_NS),
        rms_residual=float.fromhex("0x1.757016e6af5a4p-7"),
    ),
}


@lru_cache(maxsize=8)
def default_grid_force_fit(
    sigma: float = NOMINAL_SIGMA,
    ns: int = NOMINAL_NS,
    rcut_cells: float = NOMINAL_RCUT_CELLS,
    n_grid: int = 32,
) -> GridForceFit:
    """Fitted grid force for the given filter parameters.

    The committed :data:`NOMINAL_FITS` entry when there is one; else
    measured and fitted.  Cached: the measurement costs a handful of
    small PM solves and is reused by every solver instance with the
    same parameters.
    """
    fit = NOMINAL_FITS.get((sigma, ns, rcut_cells, n_grid))
    if fit is not None:
        return fit
    s, fr, _ = measure_grid_force(n_grid, sigma=sigma, ns=ns)
    return fit_grid_force(
        s, fr, rcut_cells=rcut_cells, sigma=sigma, ns=ns
    )
