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

from dataclasses import dataclass, field

import numpy as np

from repro.cosmology.gaussian_field import fourier_grid
from repro.fft.pencil import PencilFFT
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
    executor:
        Optional :class:`repro.parallel.executor.RankExecutor`.  With
        more than one worker, the CIC deposit runs privatized over
        worker chunks (:class:`repro.grid.threaded_cic.ThreadedCIC`),
        the three gradient inverse FFTs run concurrently ("each
        component of the potential field gradient then requires an
        independent FFT" — a free 3-way section), and so do the three
        CIC force gathers.  Partitioning depends only on the worker
        *count*, so equal-``workers`` runs agree bitwise across
        backends.
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
    executor: object | None = field(default=None, repr=False, compare=False)
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
        kx, ky, kz = fourier_grid(self.n, self.box_size)
        # k-space kernels are *computed* in float64 (they are set-up
        # cost, accuracy is free) and stored in the working precision
        self._filter_green = (
            spectral_filter(kx, ky, kz, self.spacing, self.sigma, self.ns)
            * influence_function(
                kx, ky, kz, self.spacing, self.laplacian_order
            )
        ).astype(self._dtype, copy=False)
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
        self._threaded_cic = None
        # lazily imported: repro.shortrange imports this module
        from repro.shortrange.backends import Workspace

        #: grow-only CIC scratch of the serial path (the backends are
        #: process-wide singletons, so the solver owns it)
        self._cic_workspace = Workspace()

    def _parallel(self) -> bool:
        ex = self.executor
        return ex is not None and getattr(ex, "parallel", False)

    # ------------------------------------------------------------------
    # grid-level operations
    # ------------------------------------------------------------------
    def potential_k(self, delta_k: np.ndarray) -> np.ndarray:
        """Apply ``S(k) G(k)`` to an rfft-layout density spectrum."""
        if delta_k.shape != self._filter_green.shape:
            raise ValueError(
                f"delta_k shape {delta_k.shape} != rfft grid "
                f"{self._filter_green.shape}"
            )
        reg = get_registry()
        with reg.span("poisson.filter"):
            out = delta_k * self._filter_green
        reg.count("poisson.filter_points", delta_k.size)
        self._count_filter_work(reg, delta_k.size)
        return out

    def potential(self, delta: np.ndarray) -> np.ndarray:
        """Filtered potential ``phi`` with ``del^2 phi = delta``."""
        self._check_grid(delta)
        phi_k = self.potential_k(self._forward(delta))
        return self._inverse(phi_k)

    def force_grids(self, delta: np.ndarray) -> tuple[np.ndarray, ...]:
        """Force components ``-d phi / d x_i`` on the grid.

        One forward transform, three independent inverse transforms —
        exactly the paper's FFT count per long-range force evaluation.
        """
        self._check_grid(delta)
        phi_k = self.potential_k(self._forward(delta))
        if self._parallel():
            # the three components are independent inverse transforms;
            # the thread backend runs them concurrently, the serial one
            # as the ordered loop
            return tuple(
                self.executor.map(
                    self._grad_component,
                    [(k, phi_k) for k in self._neg_grad_kernels],
                    label="fft.gradient",
                )
            )
        return tuple(
            self._grad_component((kernel, phi_k))
            for kernel in self._neg_grad_kernels
        )

    def _grad_component(self, payload) -> np.ndarray:
        """One gradient component: filter multiply + inverse FFT."""
        kernel, phi_k = payload
        reg = get_registry()
        with reg.span("poisson.filter"):
            grad_k = kernel * phi_k
        self._count_filter_work(reg, phi_k.size)
        return self._inverse(grad_k)

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
        reg = get_registry()
        with reg.span("fft.forward"):
            # numpy >= 2 keeps float32 -> complex64; 1.x needs the cast
            out = np.fft.rfftn(delta.astype(self._dtype, copy=False))
            if self._dtype == np.float32 and out.dtype != np.complex64:
                out = out.astype(np.complex64)
        reg.count("fft.forward_points", delta.size)
        self._count_fft_work(reg, delta.size)
        return out

    def _inverse(self, field_k: np.ndarray) -> np.ndarray:
        reg = get_registry()
        with reg.span("fft.inverse"):
            out = np.fft.irfftn(field_k, s=(self.n,) * 3, axes=(0, 1, 2))
            out = out.astype(self._dtype, copy=False)
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

        Neither pass builds a per-particle corner table: the backend
        finds each particle's eight corners from its position, the
        deposit's scratch lives in the solver's grow-only workspace, and
        the serial path gathers all three force components in one pass
        straight into the returned array.
        """
        dt = self._dtype
        if self._parallel():
            counts = self._deposit_parallel(positions, weights)
        else:
            counts = cic_deposit(
                positions, self.n, self.box_size, weights,
                dtype=dt, backend=self.kernel_backend,
                workspace=self._cic_workspace,
            )
        # the mean reduces ~n^3 values: accumulate it in float64 even on
        # the float32 path (a scalar, so this is not an array upcast)
        mean = counts.mean(dtype=np.float64)
        if mean <= 0:
            raise ValueError("empty particle distribution")
        delta = counts / counts.dtype.type(mean) - counts.dtype.type(1.0)
        if not self._parallel():
            acc = cic_interpolate(
                list(self.force_grids(delta)), positions, self.box_size,
                dtype=dt, backend=self.kernel_backend,
            )
        else:
            acc = np.stack(
                self.executor.map(
                    self._gather_component,
                    [(f, positions) for f in self.force_grids(delta)],
                    label="cic.gather",
                ),
                axis=1,
            )
        if return_delta:
            return acc, delta
        return acc

    def _gather_component(self, payload) -> np.ndarray:
        """One axis's CIC force gather: the same backend primitive as
        the serial path's three-grid call, with one grid."""
        force, positions = payload
        return cic_interpolate(
            force, positions, self.box_size,
            dtype=self._dtype, backend=self.kernel_backend,
        )

    def _deposit_parallel(self, positions, weights) -> np.ndarray:
        """Privatized worker-chunked CIC deposit through the executor.

        The partition depends only on the worker count and the reduction
        order is fixed, so the grid is identical across executor
        backends at equal ``workers`` (and equals the serial deposit to
        float64 round-off — the reduction reassociates the sums).
        """
        from repro.grid.threaded_cic import ThreadedCIC

        tc = self._threaded_cic
        if tc is None or tc.n_workers != self.executor.n_workers:
            tc = ThreadedCIC(
                self.executor.n_workers,
                strategy="privatize",
                executor=self.executor,
                dtype=None if self.dtype is None else self._dtype,
                kernel_backend=self.kernel_backend,
            )
            self._threaded_cic = tc
        return tc.deposit(positions, self.n, self.box_size, weights)

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
        fg = spectral_filter(
            kx, ky, kz, self.spacing, self.sigma, self.ns
        ) * influence_function(kx, ky, kz, self.spacing, self.laplacian_order)
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
