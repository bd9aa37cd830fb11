"""The spectrally filtered particle-mesh Poisson solver.

Composition (Section II of the paper): CIC deposit -> one forward FFT ->
multiply by ``S(k) G(k)`` (filter x influence function) -> one inverse FFT
per gradient component with the Super-Lanczos kernel -> CIC interpolation
back to the particles.  "The Poisson-solve in HACC is the composition of
all the kernels above in one single Fourier transform; each component of
the potential field gradient then requires an independent FFT."

Two execution paths share the same k-space kernels:

* the **single-process path** (``numpy.fft.rfftn``), used by the
  simulation driver — double precision, as the paper requires for the
  spectral component;
* the **distributed path** over :class:`repro.fft.PencilFFT`, used by the
  scaling benchmarks and by tests that pin both paths together.

The solver returns ``-grad phi`` for ``del^2 phi = delta`` (unit
prefactor); cosmological prefactors like ``(3/2) Omega_m`` are applied by
the time stepper, keeping this layer free of unit conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cosmology.gaussian_field import (
    fourier_grid,
    inverse_passes,
    octant_table,
)
from repro.grid.cic import cic_deposit, cic_interpolate
from repro.instrument import get_registry
from repro.instrument import perfcount
from repro.grid.filters import (
    NOMINAL_NS,
    NOMINAL_SIGMA,
    influence_function,
    spectral_filter,
    super_lanczos_gradient,
)

if TYPE_CHECKING:  # the distributed path's caller builds the pencil FFT
    from repro.fft.pencil import PencilFFT

__all__ = ["SpectralPoissonSolver"]


@dataclass
class SpectralPoissonSolver:
    """Filtered PM solver on an ``n^3`` periodic grid.

    Parameters
    ----------
    n:
        Grid points per dimension.
    box_size:
        Periodic box side (Mpc/h).
    sigma, ns:
        Spectral-filter parameters (grid-cell units / power).
    laplacian_order:
        Influence-function accuracy order (2, 4 or 6).
    gradient_order:
        Super-Lanczos differencing order (2 or 4).
    dtype:
        Grid precision.  ``None`` (default) keeps the historical float64
        spectral path untouched; ``np.float32`` runs the whole PM force
        — deposit, FFTs (complex64), k-space kernels, gathers — in
        single precision with no silent upcasts.
    kernel_backend:
        Kernel backend *name* for the CIC scatter/gather passes
        (``None`` = ``auto``: c, else numpy).

    Examples
    --------
    A single k-mode is solved exactly up to the discrete kernels:

    >>> import numpy as np
    >>> s = SpectralPoissonSolver(32, 1.0, sigma=0.0, ns=0)
    >>> # delta(x) = cos(2 pi x): potential -cos(2 pi x)/(2 pi)^2
    >>> x = np.arange(32) / 32.0
    >>> delta = np.cos(2 * np.pi * x)[:, None, None] * np.ones((1, 32, 32))
    >>> phi = s.potential(delta)
    >>> expected = -np.cos(2 * np.pi * x) / (2 * np.pi) ** 2
    >>> float(abs(phi[:, 0, 0] - expected).max()) < 1e-6
    True
    """

    n: int
    box_size: float
    sigma: float = NOMINAL_SIGMA
    ns: int = NOMINAL_NS
    laplacian_order: int = 6
    gradient_order: int = 4
    dtype: object = None
    kernel_backend: str | None = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"grid size must be >= 2, got {self.n}")
        if self.box_size <= 0:
            raise ValueError(f"box_size must be positive: {self.box_size}")
        self.spacing = self.box_size / self.n
        self._dtype = (
            np.dtype(np.float64)
            if self.dtype is None
            else np.dtype(self.dtype)
        )
        # k-space kernels are *computed* in float64 (they are set-up
        # cost, accuracy is free) and stored in the working precision
        kx, ky, kz = fourier_grid(self.n, self.box_size)
        self._filter_green = self._filter_table().astype(
            self._dtype, copy=False
        )
        # the force is -grad phi: the gradient kernels are stored
        # pre-negated so each step spends one multiply per component
        # instead of a negate + multiply temporary pair.  They are
        # imaginary (i k), so the working precision maps to a complex
        # dtype (complex64 on the float32 path).
        cplx = np.complex64 if self._dtype == np.float32 else np.complex128
        self._neg_grad_kernels = tuple(
            (-super_lanczos_gradient(
                kc, self.spacing, self.gradient_order
            )).astype(cplx, copy=False)
            for kc in (kx, ky, kz)
        )
        # lazily imported: repro.shortrange imports this module
        from repro.shortrange.backends import Workspace

        #: grow-only CIC corners and deposit scratch (the backends are
        #: process-wide singletons, so the solver owns it)
        self._cic_workspace = Workspace()

    def _filter_table(self, *, rfft: bool = True) -> np.ndarray:
        """``S(k) G(k)`` in float64 on the (r)fft grid, evaluated on its
        folded octant (both factors are even in each component)."""
        sp = self.spacing
        return octant_table(self.n, self.box_size, lambda kx, ky, kz: (
            spectral_filter(kx, ky, kz, sp, self.sigma, self.ns)
            * influence_function(kx, ky, kz, sp, self.laplacian_order)
        ), rfft=rfft)

    # ------------------------------------------------------------------
    # grid-level operations
    # ------------------------------------------------------------------
    def potential_k(self, delta_k: np.ndarray, out=None) -> np.ndarray:
        """Apply ``S(k) G(k)`` to an rfft-layout density spectrum (into
        ``out`` when given, which may be ``delta_k`` itself)."""
        if delta_k.shape != self._filter_green.shape:
            raise ValueError(
                f"delta_k shape {delta_k.shape} != rfft grid "
                f"{self._filter_green.shape}"
            )
        reg = get_registry()
        with reg.span("poisson.filter"):
            out = np.multiply(delta_k, self._filter_green, out=out)
        reg.count("poisson.filter_points", delta_k.size)
        self._count_filter_work(reg, delta_k.size)
        return out

    def potential(self, delta: np.ndarray) -> np.ndarray:
        """Filtered potential ``phi`` with ``del^2 phi = delta``."""
        self._check_grid(delta)
        field_k = self._forward(delta)
        return self._inverse(self.potential_k(field_k, out=field_k))

    def force_grid(self, delta: np.ndarray) -> np.ndarray:
        """Force ``-grad phi`` on the grid as one interleaved
        ``(n, n, n, 3)`` array: a point's three components are adjacent.

        One forward transform, three independent inverse transforms —
        exactly the paper's FFT count per long-range force evaluation;
        each inverse transform writes its component in place.  The
        spectra live in two half-spectrum buffers, the filtered density
        and one gradient component at a time.
        """
        self._check_grid(delta)
        phi_k = self._forward(delta)
        self.potential_k(phi_k, out=phi_k)
        grad_k = np.empty_like(phi_k)
        grid = np.empty((self.n,) * 3 + (3,), dtype=self._dtype)
        reg = get_registry()
        for c, kernel in enumerate(self._neg_grad_kernels):
            with reg.span("poisson.filter"):
                np.multiply(kernel, phi_k, out=grad_k)
            self._count_filter_work(reg, phi_k.size)
            self._inverse(grad_k, out=grid[..., c])
        return grid

    def force_grids(self, delta: np.ndarray) -> tuple[np.ndarray, ...]:
        """Force components ``-d phi / d x_i`` on the grid: the three
        component views of :meth:`force_grid`."""
        return tuple(np.moveaxis(self.force_grid(delta), -1, 0))

    # ------------------------------------------------------------------
    # instrumented transforms
    # ------------------------------------------------------------------
    def _complex_itemsize(self) -> int:
        """Bytes per spectral element: complex64 on the f32 path."""
        return 8 if self._dtype == np.float32 else 16

    def _count_filter_work(self, reg, npoints: int) -> None:
        """Charge the spectral multiply into the fft work bucket."""
        reg.count("fft.flops", perfcount.filter_flops(npoints))
        reg.count(
            "fft.bytes",
            perfcount.filter_bytes(npoints, self._complex_itemsize()),
        )

    def _count_fft_work(self, reg, npoints: int) -> None:
        """Charge one N-point transform (5 N log2 N butterflies)."""
        reg.count("fft.flops", perfcount.fft_flops(npoints))
        reg.count(
            "fft.bytes",
            perfcount.fft_bytes(npoints, self._complex_itemsize()),
        )

    def _forward(self, delta: np.ndarray) -> np.ndarray:
        """``rfftn(delta)``, every pass written into one fresh
        half-spectrum."""
        reg = get_registry()
        n = self.n
        cplx = np.complex64 if self._dtype == np.float32 else np.complex128
        with reg.span("fft.forward"):
            out = np.fft.rfftn(
                delta.astype(self._dtype, copy=False), axes=(0, 1, 2),
                out=np.empty((n, n, n // 2 + 1), dtype=cplx),
            )
        reg.count("fft.forward_points", delta.size)
        self._count_fft_work(reg, delta.size)
        return out

    def _inverse(self, field_k: np.ndarray, out=None) -> np.ndarray:
        """``irfftn(field_k)`` into ``out`` (a fresh grid when None): the
        same 1-D passes, the complex ones in place in ``field_k``, which
        is overwritten."""
        reg = get_registry()
        if out is None:
            out = np.empty((self.n,) * 3, dtype=self._dtype)
        with reg.span("fft.inverse"):
            inverse_passes(field_k, self.n, out)
        reg.count("fft.inverse_points", out.size)
        self._count_fft_work(reg, out.size)
        return out

    # ------------------------------------------------------------------
    # particle-level operation (the full PM force)
    # ------------------------------------------------------------------
    def accelerations(
        self,
        positions: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        return_delta: bool = False,
    ):
        """PM accelerations at the particle positions.

        Deposit -> solve -> interpolate.  Returns an (N, 3) array of
        ``-grad phi`` with ``del^2 phi = delta``; multiply by the
        cosmological prefactor to get physical accelerations.

        Neither pass builds a per-particle corner table: the deposit's
        corners pass leaves each particle's base cell and fractions in
        the solver's grow-only workspace, the gather reads them (the
        positions do not move in between, so no cell is found twice),
        and one pass gathers all three force components from the
        interleaved :meth:`force_grid` straight into the returned array.
        """
        dt = self._dtype
        counts, corners = cic_deposit(
            positions, self.n, self.box_size, weights,
            dtype=dt, backend=self.kernel_backend,
            workspace=self._cic_workspace, return_corners=True,
        )
        # the mean reduces ~n^3 values: accumulate it in float64 even on
        # the float32 path (a scalar, so this is not an array upcast)
        mean = counts.mean(dtype=np.float64)
        if mean <= 0:
            raise ValueError("empty particle distribution")
        # delta = counts / mean - 1 in place (the same two roundings):
        # no second n^3 grid is alive through the transforms
        delta = counts
        delta /= delta.dtype.type(mean)
        delta -= delta.dtype.type(1.0)
        acc = cic_interpolate(
            self.force_grid(delta), positions, self.box_size,
            dtype=dt, backend=self.kernel_backend, corners=corners,
        )
        if return_delta:
            return acc, delta
        return acc

    # ------------------------------------------------------------------
    # distributed path (pencil FFT)
    # ------------------------------------------------------------------
    def force_grids_distributed(
        self, delta: np.ndarray, pencil: PencilFFT
    ) -> tuple[np.ndarray, ...]:
        """Same as :meth:`force_grids` but through the pencil FFT.

        Uses full complex transforms (the distributed transform has no
        rfft specialization, matching HACC's complex pencil FFT); the
        result agrees with the single-process path to ~1e-12, which the
        integration tests assert.
        """
        self._check_grid(delta)
        if pencil.n != self.n:
            raise ValueError(
                f"pencil grid {pencil.n} != solver grid {self.n}"
            )
        kx, ky, kz = fourier_grid(self.n, self.box_size, rfft=False)
        fg = self._filter_table(rfft=False)
        full = (self.n,) * 3
        grads = tuple(
            np.broadcast_to(
                super_lanczos_gradient(kc, self.spacing, self.gradient_order),
                full,
            )
            for kc in (kx, ky, kz)
        )

        blocks = pencil.scatter(delta.astype(np.complex128))
        spect = pencil.forward(blocks)
        # x-pencil layout: rank (i,j) holds full kx, ky block i, kz block j
        ny2, nz2 = self.n // pencil.pr, self.n // pencil.pc
        out = []
        for kernel in grads:
            phi_blocks = []
            for rank, blk in enumerate(spect):
                i, j = divmod(rank, pencil.pc)
                sl = (
                    slice(None),
                    slice(i * ny2, (i + 1) * ny2),
                    slice(j * nz2, (j + 1) * nz2),
                )
                phi_blocks.append(blk * (fg[sl] * -kernel[sl]))
            comp = pencil.gather(pencil.inverse(phi_blocks), "z-pencil")
            out.append(comp.real.copy())
        return tuple(out)

    # ------------------------------------------------------------------
    def _check_grid(self, grid: np.ndarray) -> None:
        if grid.shape != (self.n,) * 3:
            raise ValueError(
                f"grid shape {grid.shape} != {(self.n,) * 3}"
            )
