"""Zel'dovich and 2LPT initial conditions.

Particles start on a regular lattice and are displaced with first-order
(Zel'dovich) or second-order Lagrangian perturbation theory.  The paper's
benchmark runs start at ``z_in = 25`` (science runs at ``z_in ~ 200``); both
are supported — the displacement amplitude simply scales with the growth
factor.

Momenta use the comoving convention ``p = a^2 dx/dt`` of the paper (Eq. 4)
in units where ``H0 = 1``:

.. math::  p = a^2 E(a) f(a) D(a) \\psi_0,

with ``psi_0`` the normalized Lagrangian displacement, so that the
leapfrog equation ``dx/da = p / (a^3 E)`` reproduces linear growth exactly
— a property the integration tests verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cosmology.background import Cosmology
from repro.cosmology.gaussian_field import (
    GaussianRandomField,
    fourier_grid,
    inverse_passes,
)
from repro.cosmology.power_spectrum import LinearPower

__all__ = ["ZeldovichICs", "make_initial_conditions"]


def _displacement_fields(delta_k: np.ndarray, n: int, box_size: float):
    """Zel'dovich displacement ``psi(k) = i k delta(k) / k^2`` -> real space.

    Returns the ``(n^3, 3)`` displacements of the lattice points (C
    order), for a *unit-growth* density field: each inverse transform
    writes its component into one interleaved ``(n, n, n, 3)`` grid.
    """
    kx, ky, kz = fourier_grid(n, box_size)
    k2 = kx * kx + ky * ky + kz * kz
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
    base = delta_k * inv_k2
    spectrum = np.empty_like(base)
    grid = np.empty((n, n, n, 3))
    for c, kcomp in enumerate((kx, ky, kz)):
        np.multiply(1j * kcomp, base, out=spectrum)
        inverse_passes(spectrum, n, grid[..., c])
    return grid.reshape(-1, 3)


def _second_order_potential(delta_k: np.ndarray, n: int, box_size: float):
    """2LPT source field ``sum_{i<j} (phi,ii phi,jj - phi,ij^2)`` in k-space.

    ``phi`` is the first-order displacement potential with ``del^2 phi =
    -delta`` (so psi = -grad phi ... sign conventions cancel in the source,
    which is quadratic).
    """
    kx, ky, kz = fourier_grid(n, box_size)
    k2 = kx * kx + ky * ky + kz * kz
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_k = np.where(k2 > 0, -delta_k / np.where(k2 > 0, k2, 1.0), 0.0)
    kvec = (kx, ky, kz)
    spectrum = np.empty_like(phi_k)

    def dij(i, j, out):
        np.multiply(-kvec[i] * kvec[j], phi_k, out=spectrum)
        return inverse_passes(spectrum, n, out)

    d00, d11, d22 = (dij(i, i, np.empty((n,) * 3)) for i in range(3))
    src = d00 * d11
    src += d00 * d22
    src += d11 * d22
    for i, j in ((0, 1), (0, 2), (1, 2)):
        dd = dij(i, j, d00)  # d00 is spent
        src -= dd * dd
    return np.fft.rfftn(src)


@dataclass(frozen=True)
class ZeldovichICs:
    """Initial particle data.

    Attributes
    ----------
    positions:
        (N, 3) comoving positions in [0, box_size), Mpc/h.
    momenta:
        (N, 3) comoving momenta ``p = a^2 dx/dt`` in code units (H0 = 1).
    a_init:
        Starting scale factor.
    box_size:
        Box side (Mpc/h).
    """

    positions: np.ndarray
    momenta: np.ndarray
    a_init: float
    box_size: float

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]


def make_initial_conditions(
    cosmology: Cosmology,
    *,
    n_per_dim: int,
    box_size: float,
    z_init: float = 25.0,
    seed: int = 0,
    order: int = 1,
    power: LinearPower | None = None,
    kernel_backend: str | None = None,
) -> ZeldovichICs:
    """Generate lattice + LPT initial conditions.

    Parameters
    ----------
    cosmology:
        Background model; supplies the growth factor, growth rate and the
        default linear power spectrum.
    n_per_dim:
        Particles per dimension (total ``n_per_dim^3``); the displacement
        mesh has the same resolution.
    box_size:
        Comoving box side in Mpc/h.
    z_init:
        Starting redshift (paper benchmark: 25; science runs: ~200).
    seed:
        White-noise seed; identical seeds give identical large-scale
        structure at any resolution of the *same* mesh size.
    order:
        1 for Zel'dovich, 2 to add the 2LPT correction.
    power:
        Optional pre-built :class:`LinearPower` (to reuse normalization).
    kernel_backend:
        Kernel backend *name* whose stream pass drifts the lattice and
        wraps it into the box (``None`` = ``auto``); every backend gives
        the same bits.

    Returns
    -------
    ZeldovichICs

    Notes
    -----
    The density field is realized with the z=0 normalization and scaled
    back by ``D(a_init)``, the standard practice that keeps the white
    noise independent of the start redshift.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    if not (math.isfinite(z_init) and z_init > 0):
        raise ValueError(f"z_init must be finite and positive, got {z_init}")
    # lazily imported: repro.shortrange imports repro.cosmology
    from repro.shortrange.backends import resolve_backend

    backend = resolve_backend(kernel_backend)
    n = int(n_per_dim)
    a_init = 1.0 / (1.0 + z_init)
    pk = power if power is not None else LinearPower(cosmology)

    grf = GaussianRandomField(n, box_size, lambda k: pk(k), seed=seed)
    delta_k = grf.realize_k()

    d1 = float(cosmology.growth_factor(a_init))
    f1 = float(cosmology.growth_rate(a_init))
    e_a = float(cosmology.efunc(a_init))

    disp = _displacement_fields(delta_k, n, box_size)

    # lattice coordinates (cell centers are not required; grid points align
    # with the displacement mesh so no interpolation is needed)
    lattice_1d = np.arange(n, dtype=np.float64) * (box_size / n)
    pos = np.empty((n, n, n, 3))
    pos[..., 0] = lattice_1d[:, None, None]
    pos[..., 1] = lattice_1d[:, None]
    pos[..., 2] = lattice_1d
    pos = pos.reshape(-1, 3)

    if order == 1:
        backend.stream(pos, disp, d1, box_size)
    else:
        # 2LPT: D2 ~= -3/7 D1^2 Omega_m(a)^(-1/143), growth rate
        # f2 ~= 2 Omega_m(a)^(6/11).
        om_a = float(cosmology.omega_m_a(a_init))
        d2 = -3.0 / 7.0 * d1 * d1 * om_a ** (-1.0 / 143.0)
        f2 = 2.0 * om_a ** (6.0 / 11.0)
        pos += d1 * disp
        disp2 = _displacement_fields(
            _second_order_potential(delta_k, n, box_size), n, box_size
        )
        backend.stream(pos, disp2, d2, box_size)
    mom = disp  # the displacements become the momenta in place
    mom *= a_init**2 * e_a * f1 * d1
    if order == 2:
        mom += (a_init**2 * e_a * f2 * d2) * disp2
    return ZeldovichICs(
        positions=pos, momenta=mom, a_init=a_init, box_size=box_size
    )
