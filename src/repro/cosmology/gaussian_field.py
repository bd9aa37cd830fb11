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

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["GaussianRandomField", "fourier_grid", "inverse_passes",
           "octant_table"]


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
    _check_grid(n, box_size)
    kfun = 2.0 * np.pi / box_size
    k1 = np.fft.fftfreq(n, d=1.0 / n) * kfun
    kz = (np.fft.rfftfreq(n, d=1.0 / n) * kfun) if rfft else k1
    return (
        k1.reshape(n, 1, 1),
        k1.reshape(1, n, 1),
        kz.reshape(1, 1, -1),
    )


def _check_grid(n: int, box_size: float) -> None:
    if n < 2:
        raise ValueError(f"grid size must be >= 2, got {n}")
    if not (math.isfinite(box_size) and box_size > 0):
        raise ValueError(f"box_size must be finite and positive, got {box_size}")


def octant_table(n: int, box_size: float, fn, *, isotropic: bool = False,
                 rfft: bool = True) -> np.ndarray:
    """``fn`` on the (r)fft grid, evaluated on the folded octant only.

    ``fn(kx, ky, kz)`` takes broadcastable component arrays and must be
    even in each component (as ``S(k) G(k)`` is); it sees only the
    ``(n//2 + 1)^3`` non-negative wavenumbers.  With ``isotropic`` it is
    ``fn(k2)`` of the squared norm ``(kx^2 + ky^2) + kz^2``, evaluated
    once per distinct value.  The octant is expanded through the fold
    index ``min(i, n - i)`` on axes 0 and 1 (and 2 unless ``rfft``);
    since ``k[-i] == -k[i]`` exactly, the result is byte-identical to
    ``fn`` evaluated on the whole grid.
    """
    k = fourier_grid(n, box_size)[2].ravel()  # the n//2 + 1 folded modes
    kx, ky, kz = k.reshape(-1, 1, 1), k.reshape(1, -1, 1), k.reshape(1, 1, -1)
    if isotropic:
        k2 = (kx * kx + ky * ky + kz * kz).ravel()
        distinct, inverse = np.unique(k2, return_inverse=True)
        table = fn(distinct)[inverse.ravel()].reshape((k.size,) * 3)
    else:
        table = np.broadcast_to(fn(kx, ky, kz), (k.size,) * 3)
    i = np.arange(n)
    fold = np.minimum(i, n - i)
    return table[np.ix_(*(fold,) * (2 if rfft else 3))]


def inverse_passes(field_k: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """``irfftn(field_k)`` over an ``n^3`` grid into ``out``: the same
    1-D passes, the complex ones in place in ``field_k``, which is
    overwritten."""
    np.fft.ifft(field_k, n, axis=0, out=field_k)
    np.fft.ifft(field_k, n, axis=1, out=field_k)
    return np.fft.irfft(field_k, n, axis=2, out=out)


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
        _check_grid(self.n, self.box_size)

    # ------------------------------------------------------------------
    def white_noise_k(self) -> np.ndarray:
        """rfft of a unit-variance real white-noise field (reproducible)."""
        n = self.n
        w = np.random.default_rng(self.seed).standard_normal((n, n, n))
        return np.fft.rfftn(
            w, out=np.empty((n, n, n // 2 + 1), dtype=np.complex128)
        )

    def amplitude_k(self) -> np.ndarray:
        """Target k-space RMS amplitude ``sqrt(P(k) n^3 / V)`` on the rfft grid.

        The k=0 (mean) mode is always zeroed: simulations evolve the
        density *contrast*.
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            amp = octant_table(self.n, self.box_size, lambda k2: np.sqrt(
                np.maximum(self.power(np.sqrt(k2)), 0.0)
                * self.n**3 / self.box_size**3
            ), isotropic=True)
        amp[0, 0, 0] = 0.0
        return amp

    def realize_k(self) -> np.ndarray:
        """Realization in k-space (rfft layout), ready for ifft or Zel'dovich."""
        field_k = self.white_noise_k()
        field_k *= self.amplitude_k()
        return field_k

    def realize(self) -> np.ndarray:
        """Real-space density contrast ``delta(x)`` on the ``n^3`` grid."""
        n = self.n
        return inverse_passes(self.realize_k(), n, np.empty((n, n, n)))
