"""The vectorized short-range force kernel.

This is the Python analogue of the paper's QPX kernel (Section III):

.. math:: f_{SR}(s) = (s + \\epsilon)^{-3/2} - \\mathrm{poly}_5(s),
          \\qquad s = r \\cdot r,

evaluated for every (target, neighbor) pair of an interaction list at
once.  The BG/Q implementation folds the cutoff condition into the force
evaluation with ``fsel`` ternary operations instead of branching; the
NumPy translation of the same idea is a ``where``-free multiply by a 0/1
mask computed in-register, keeping the inner loop fully vectorized.

Mixed precision: the paper evaluates the short-range force in single
precision.  ``dtype=np.float32`` reproduces that; the default is float64
so accuracy tests are limited by the algorithm, not the arithmetic.

The kernel is a frozen value that counts nothing, so every thread can
share one; the solver that calls it charges the work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.instrument import get_registry
from repro.shortrange.grid_force import GridForceFit

__all__ = ["ShortRangeKernel"]


@dataclass(frozen=True)
class ShortRangeKernel:
    """Evaluates short-range pair forces from a fitted grid force.

    Parameters
    ----------
    fit:
        Polynomial grid-force fit (cell units).
    spacing:
        Grid spacing (Mpc/h); converts the fit to physical units.
    eps_cells:
        Plummer-like short-distance cutoff ``epsilon`` in cells^2 — the
        force resolution knob (the paper's ``epsilon`` in Eq. 7).
    dtype:
        np.float64 (default) or np.float32 for the paper's mixed
        precision.

    Notes
    -----
    In physical units, with ``s_c = s / spacing^2``:

    ``f_phys(s) = f_cells(s_c) / spacing^3`` since the Newtonian branch
    obeys ``s_c^{-3/2} = spacing^3 s^{-3/2}``.
    """

    fit: GridForceFit
    spacing: float
    eps_cells: float = 0.01
    dtype: type = np.float64

    def __post_init__(self) -> None:
        if self.spacing <= 0:
            raise ValueError(f"spacing must be positive: {self.spacing}")
        if self.eps_cells < 0:
            raise ValueError(f"eps_cells must be >= 0: {self.eps_cells}")

    @property
    def rcut(self) -> float:
        """Physical cutoff radius, Mpc/h."""
        return self.fit.rcut_cells * self.spacing

    # ------------------------------------------------------------------
    def f_sr_cells(self, s_cells) -> np.ndarray:
        """Short-range force coefficient at squared cell separations.

        The ``(s + eps)^{-3/2}`` branch uses the kernel's softening; the
        polynomial is subtracted inside the cutoff, and the whole
        expression is masked to zero outside — the ternary-select
        structure of the BG/Q kernel.
        """
        s = np.asarray(s_cells, dtype=self.dtype)
        inside = (s > 0.0) & (s < self.fit.rcut_cells**2)
        s_safe = np.where(inside, s, self.dtype(1.0))
        x = s_safe + self.dtype(self.eps_cells)
        # (s + eps)^{-3/2} as 1 / (x * sqrt(x)): sqrt + divide is several
        # times cheaper than np.power and stays in the input precision
        newton = self.dtype(1.0) / (x * np.sqrt(x))
        poly = np.zeros_like(s_safe)
        for c in reversed(self.fit.coefficients):
            poly = poly * s_safe + self.dtype(c)
        return np.where(inside, newton - poly, self.dtype(0.0))

    def f_sr(self, s_phys) -> np.ndarray:
        """Short-range coefficient at squared physical separations."""
        s_c = np.asarray(s_phys, dtype=self.dtype) / self.dtype(self.spacing**2)
        return self.f_sr_cells(s_c) / self.dtype(self.spacing**3)

    # ------------------------------------------------------------------
    def accumulate(
        self,
        targets: np.ndarray,
        sources: np.ndarray,
        source_masses: np.ndarray,
        *,
        chunk: int = 2048,
    ) -> np.ndarray:
        """Forces on ``targets`` from all ``sources`` (shared list).

        Parameters
        ----------
        targets:
            (Nt, 3) positions.
        sources:
            (Ns, 3) positions — the interaction list, shared by all
            targets exactly as every particle in an RCB leaf shares the
            leaf's neighbor list.
        source_masses:
            (Ns,) weights in units of the mean particle mass.
        chunk:
            Target-block size bounding the (chunk, Ns) temporary — the
            Python analogue of sizing the working set to cache.

        Returns
        -------
        (Nt, 3) acceleration contributions
        ``-sum_j m_j f_SR(s_ij) (x_i - x_j)`` (attractive sign).
        """
        t = np.asarray(targets, dtype=self.dtype)
        src = np.asarray(sources, dtype=self.dtype)
        m = np.asarray(source_masses, dtype=self.dtype)
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError(f"targets must be (N, 3), got {t.shape}")
        if src.shape[0] != m.shape[0]:
            raise ValueError("sources and source_masses disagree in length")
        nt, nsrc = t.shape[0], src.shape[0]
        # accumulate in the kernel dtype: with dtype=np.float32 every
        # intermediate AND the output stay single precision (the paper's
        # mixed-precision contract; a dtype-propagation test pins this)
        out = np.zeros((nt, 3), dtype=self.dtype)
        if nsrc == 0 or nt == 0:
            return out
        reg = get_registry()
        with reg.span("pp.kernel"):
            inv_sp2 = self.dtype(1.0 / self.spacing**2)
            inv_sp3 = self.dtype(1.0 / self.spacing**3)
            for lo in range(0, nt, chunk):
                hi = min(lo + chunk, nt)
                d = t[lo:hi, None, :] - src[None, :, :]  # (c, Ns, 3)
                s_c = np.einsum("ijk,ijk->ij", d, d) * inv_sp2
                f = self.f_sr_cells(s_c) * (inv_sp3 * m[None, :])
                out[lo:hi] = -np.einsum("ij,ijk->ik", f, d)
        return out
