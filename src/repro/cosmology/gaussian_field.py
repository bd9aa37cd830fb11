"""Gaussian random field realizations on a periodic grid.

Initial perturbations in the paper are "a smooth Gaussian random field"
(Section I); this module draws such realizations with a prescribed power
spectrum.

Conventions
-----------
For a density contrast ``delta(x)`` sampled on an ``n^3`` grid in a box of
volume ``V``, the discrete Fourier transform ``delta_k = sum_x delta(x)
exp(-i k.x)`` has

.. math::  \\langle |\\delta_k|^2 \\rangle = P(k) \\, n^6 / V,

which is the convention the power-spectrum estimator in
:mod:`repro.analysis.power` inverts.  Realizations are generated by
filtering unit white noise in k-space, which guarantees exact Hermitian
symmetry (the inverse transform is real to machine precision) and makes
the noise field — hence the large-scale modes — independent of the power
spectrum used, a property exploited by the P3M vs PPTreePM comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["GaussianRandomField", "fourier_grid"]


def fourier_grid(n: int, box_size: float, *, rfft: bool = True):
    """Component wavenumber arrays for an ``n^3`` grid.

    Parameters
    ----------
    n:
        Grid points per dimension.
    box_size:
        Box side length (Mpc/h); the fundamental mode is ``2 pi / box_size``.
    rfft:
        If True the last axis uses the real-FFT half spectrum
        (``n//2 + 1`` points).

    Returns
    -------
    (kx, ky, kz):
        Arrays broadcastable to the (r)fft grid shape, in h/Mpc.
    """
    if n < 2:
        raise ValueError(f"grid size must be >= 2, got {n}")
    if box_size <= 0:
        raise ValueError(f"box_size must be positive, got {box_size}")
    kfun = 2.0 * np.pi / box_size
    k1 = np.fft.fftfreq(n, d=1.0 / n) * kfun
    kz = (np.fft.rfftfreq(n, d=1.0 / n) * kfun) if rfft else k1
    return (
        k1.reshape(n, 1, 1),
        k1.reshape(1, n, 1),
        kz.reshape(1, 1, -1),
    )


@dataclass
class GaussianRandomField:
    """Draw periodic Gaussian random fields with power spectrum ``power``.

    Parameters
    ----------
    n:
        Grid points per dimension.
    box_size:
        Box side (Mpc/h).
    power:
        Callable ``P(k)`` in (Mpc/h)^3 for k in h/Mpc (vectorized).
    seed:
        Seed for the PCG64 generator; fixing it fixes the realization.

    Examples
    --------
    >>> grf = GaussianRandomField(16, 100.0, lambda k: 0*k + 1.0, seed=1)
    >>> delta = grf.realize()
    >>> delta.shape
    (16, 16, 16)
    >>> bool(abs(delta.mean()) < 1e-12)
    True
    """

    n: int
    box_size: float
    power: Callable[[np.ndarray], np.ndarray]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"grid size must be >= 2, got {self.n}")
        if self.box_size <= 0:
            raise ValueError(f"box_size must be positive, got {self.box_size}")

    # ------------------------------------------------------------------
    def white_noise_k(self) -> np.ndarray:
        """rfft of a unit-variance real white-noise field (reproducible)."""
        rng = np.random.default_rng(self.seed)
        w = rng.standard_normal((self.n, self.n, self.n))
        return np.fft.rfftn(w)

    def amplitude_k(self) -> np.ndarray:
        """Target k-space RMS amplitude ``sqrt(P(k) n^3 / V)`` on the rfft grid.

        The k=0 (mean) mode is always zeroed: simulations evolve the
        density *contrast*.
        """
        kx, ky, kz = fourier_grid(self.n, self.box_size)
        kk = np.sqrt(kx * kx + ky * ky + kz * kz)
        volume = self.box_size**3
        with np.errstate(divide="ignore", invalid="ignore"):
            amp = np.sqrt(
                np.maximum(self.power(kk), 0.0) * self.n**3 / volume
            )
        amp[0, 0, 0] = 0.0
        return amp

    def realize_k(self) -> np.ndarray:
        """Realization in k-space (rfft layout), ready for ifft or Zel'dovich."""
        return self.white_noise_k() * self.amplitude_k()

    def realize(self) -> np.ndarray:
        """Real-space density contrast ``delta(x)`` on the ``n^3`` grid."""
        delta = np.fft.irfftn(self.realize_k(), s=(self.n, self.n, self.n), axes=(0, 1, 2))
        return np.ascontiguousarray(delta)
