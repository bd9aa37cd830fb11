"""Cloud-In-Cell (CIC) deposit and interpolation on a periodic grid.

CIC assigns each particle's mass to the 8 grid points surrounding it with
trilinear weights (Hockney & Eastwood 1988); interpolation is the adjoint
gather with the same weights — the momentum-conserving pairing HACC uses
for the PM force.  Both run through the kernel-backend seam in two steps:
a corners pass finds each particle's base cell and fractional offsets
(``(N, 3)`` int32 and ``(N, 3)`` floats), then the deposit or the gather
reads them.  The PM solve runs the corners pass once and hands the
deposit's corners to its gather, which reads all three force components
from one interleaved ``(n, n, n, 3)`` grid, so each corner is one cache
line.  The compiled ``c`` backend works from the corners directly: its
deposit sums the eight corners' double partials in four ``(dx, dy)``
passes, a particle's ``dz = 0`` and ``dz = 1`` terms side by side in a
paired slot of its base cell, and folds them into the grid in corner
order.  The ``numpy`` fallback builds :class:`ParticleGridCoords` tables
from the corners and scatters with one ``np.bincount`` per corner (~10x
faster than ``np.add.at``).  The two are bitwise equal: each corner's
partial sums the same particles in the same order, and the partials are
added in the same order.  :class:`ParticleGridCoords` is the definition
of the arithmetic both follow.
"""

from __future__ import annotations

import numpy as np

from repro.instrument import get_registry
from repro.instrument.perfcount import CIC_FLOPS_PER_PARTICLE, cic_bytes

__all__ = [
    "cic_deposit",
    "cic_interpolate",
    "density_contrast",
    "cic_window",
    "ParticleGridCoords",
    "non_finite_positions",
    "periodic_wrap",
]


def periodic_wrap(x: np.ndarray, box_size) -> np.ndarray:
    """``np.mod(x, box_size)``, except that the ``box_size`` it returns
    for a tiny negative ``x`` (``-1e-7`` in float32 at box 64) is folded
    to +0: every periodic fold of positions lands in ``[0, box_size)``."""
    r = np.mod(x, box_size)
    r[r == box_size] = 0
    return r


def _float_dtype(a) -> np.dtype:
    """float32 stays float32; everything else is promoted to float64."""
    dt = np.asarray(a).dtype
    return dt if dt in (np.float32, np.float64) else np.dtype(np.float64)


def _cic_backend(backend):
    """Resolve the kernel backend for a CIC call; ``None`` means
    ``auto`` (c, else numpy), as a simulation run resolves it.

    Imported lazily: ``repro.shortrange`` pulls in ``grid_force`` which
    imports this module, so a top-level import would be circular.
    """
    from repro.shortrange.backends import resolve_backend

    return resolve_backend(backend)


def non_finite_positions(count: int) -> ValueError:
    """The one error every backend raises for NaN/inf coordinates (a
    particle with one has no cell to deposit into or gather from)."""
    return ValueError(
        f"cic: {count} particle position(s) are not finite"
    )


def _check_positions(positions, dt) -> np.ndarray:
    """``positions`` as a C-contiguous ``(N, 3)`` array of ``dt``."""
    pos = np.ascontiguousarray(positions, dtype=dt)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {pos.shape}")
    return pos


def _check_grid(n: int, box_size: float) -> None:
    if box_size <= 0:
        raise ValueError(f"box_size must be positive, got {box_size}")
    if n < 2:
        raise ValueError(f"grid size must be >= 2, got {n}")


def corner_data(positions: np.ndarray, n: int, box_size: float, dtype=None):
    """Base cell indices (int64) and fractional offsets of each particle:
    the numpy reference of every backend's corners pass."""
    dt = _float_dtype(positions) if dtype is None else np.dtype(dtype)
    pos = _check_positions(positions, dt)
    _check_grid(n, box_size)
    bad = pos.shape[0] - int(np.count_nonzero(np.isfinite(pos).all(axis=1)))
    if bad:
        raise non_finite_positions(bad)
    scaled = periodic_wrap(pos, dt.type(box_size)) * dt.type(n / box_size)
    # a coordinate just below box_size can scale up to n
    scaled = np.where(scaled >= n, scaled - dt.type(n), scaled)
    base = np.floor(scaled).astype(np.int64)
    np.clip(base, 0, n - 1, out=base)
    frac = (scaled - base).astype(dt, copy=False)
    return base, frac


class ParticleGridCoords:
    """CIC corner indices and trilinear weights as ``(8, N)`` tables.

    The numpy backend's implementation of both CIC passes, and the
    oracle the compiled backend is held to bitwise: wrap with
    ``np.mod``, scale, fold, floor and clip to a base cell; corners
    enumerated in ``(dx, dy, dz)`` order with weight ``(wx*wy)*wz``.
    Nothing outside :class:`~repro.shortrange.backends.numpy_backend.
    NumpyBackend` builds one on a solver path (the tables are ~115 MB
    at 96^3).

    ``dtype`` fixes the precision of the trilinear weights; by default
    it follows the positions (float32 positions keep float32 weights —
    the mixed-precision PM path has no silent float64 upcast).
    """

    def __init__(
        self,
        positions: np.ndarray,
        n: int,
        box_size: float,
        dtype=None,
    ) -> None:
        self._tables(*corner_data(positions, n, box_size, dtype=dtype), n)

    @classmethod
    def from_corners(cls, base, frac, n: int) -> "ParticleGridCoords":
        """The tables of ``(N, 3)`` base cells and fractions, as a
        backend's corners pass returns them; a base cell outside the
        ``n^3`` grid is an :class:`IndexError`."""
        if base.size and (base.min() < 0 or base.max() >= n):
            raise IndexError(f"cic: base cells outside the {n}^3 grid")
        coords = cls.__new__(cls)
        coords._tables(base.astype(np.int64), frac, n)
        return coords

    def _tables(self, base: np.ndarray, frac: np.ndarray, n: int) -> None:
        self.n = int(n)
        self.n_particles = base.shape[0]
        one = frac.dtype.type(1.0)
        ip1 = (base + 1) % n
        flats = []
        wts = []
        for dx in (0, 1):
            ix = base[:, 0] if dx == 0 else ip1[:, 0]
            wx = (one - frac[:, 0]) if dx == 0 else frac[:, 0]
            for dy in (0, 1):
                iy = base[:, 1] if dy == 0 else ip1[:, 1]
                wy = (one - frac[:, 1]) if dy == 0 else frac[:, 1]
                for dz in (0, 1):
                    iz = base[:, 2] if dz == 0 else ip1[:, 2]
                    wz = (one - frac[:, 2]) if dz == 0 else frac[:, 2]
                    flats.append((ix * n + iy) * n + iz)
                    wts.append(wx * wy * wz)
        #: (8, N) flattened grid indices of the surrounding corners
        self.flat = np.stack(flats, axis=0)
        #: (8, N) trilinear weights (each column sums to 1)
        self.weights = np.stack(wts, axis=0)


def _charge(reg, counter: str, work: int, itemsize: int) -> None:
    """Count ``work`` particle-grid passes under ``counter`` and into the
    CIC roofline phase's flops and bytes."""
    reg.count(counter, work)
    reg.count("cic.flops", CIC_FLOPS_PER_PARTICLE * work)
    reg.count("cic.bytes", cic_bytes(work, itemsize))


def cic_deposit(
    positions: np.ndarray,
    n: int,
    box_size: float,
    weights: np.ndarray | None = None,
    dtype=None,
    backend=None,
    workspace=None,
    *,
    return_corners: bool = False,
):
    """Deposit particle mass onto an ``n^3`` periodic grid.

    Parameters
    ----------
    positions:
        (N, 3) comoving positions (wrapped into the box internally).
    n:
        Grid points per dimension.
    box_size:
        Periodic box side length.
    weights:
        Optional per-particle masses (default 1).
    dtype:
        Grid precision; ``None`` keeps float64 (the historical default,
        even for float32 positions — pass ``np.float32`` explicitly for
        a mixed-precision PM grid).  Positions and weights are cast to
        it before the deposit.
    backend:
        Kernel backend (name or instance) performing the scatter;
        ``None`` resolves ``auto`` (c, else numpy) as a simulation run
        does.
    workspace:
        Optional :class:`~repro.shortrange.backends.Workspace` holding
        the backend's scratch and the corners across calls (the PM
        solver passes its own); ``None`` uses a fresh one.
    return_corners:
        Also return the ``(base, frac)`` corners the deposit read (see
        :meth:`~repro.shortrange.backends.KernelBackend.cic_corners`;
        they live in ``workspace``), for a gather at the same positions.

    Returns
    -------
    (n, n, n) array in ``dtype`` whose sum equals the total deposited
    mass (exact mass conservation — a property test pins this down);
    ``(grid, corners)`` with ``return_corners``.  Non-finite positions
    raise :class:`ValueError`.
    """
    reg = get_registry()
    dt = np.dtype(np.float64) if dtype is None else np.dtype(dtype)
    be = _cic_backend(backend)
    with reg.span("cic.deposit"):
        pos = _check_positions(positions, dt)
        _check_grid(n, box_size)
        corners = be.cic_corners(pos, int(n), float(box_size), workspace)
        npart = pos.shape[0]
        w = None if weights is None else np.asarray(weights, dtype=dt)
        if w is not None and w.shape != (npart,):
            raise ValueError(f"weights shape {w.shape} != ({npart},)")
        grid = be.cic_deposit(*corners, w, int(n), workspace)
        _charge(reg, "cic.deposit_particles", npart, dt.itemsize)
    return (grid, corners) if return_corners else grid


def cic_interpolate(
    grid,
    positions: np.ndarray,
    box_size: float,
    dtype=None,
    backend=None,
    *,
    corners=None,
) -> np.ndarray:
    """Gather grid values at particle positions with CIC weights.

    The adjoint of :func:`cic_deposit` — using the identical weights makes
    the PM force momentum conserving (no self-force), which the force
    tests check by measuring the net force on isolated particles.
    ``grid`` is one ``(n, n, n)`` array (returns ``(N,)``), an
    interleaved ``(n, n, n, k)`` array or a list / tuple of ``k``
    ``(n, n, n)`` arrays (returns ``(N, k)``, gathered in one pass over
    the particles; the PM force's three components).  A list is
    interleaved first: the gather reads a corner's ``k`` values side by
    side.  ``dtype`` fixes the output precision (default float64) and
    ``backend`` selects the implementation (``None``: ``auto``, as for
    :func:`cic_deposit`).  ``corners`` are the ``(base, frac)`` a
    deposit at these same ``positions`` and this ``dtype`` returned
    (corners of another precision are a :class:`ValueError`, not a
    silent cast); without them the gather runs its own corners pass.
    """
    reg = get_registry()
    dt = np.dtype(np.float64) if dtype is None else np.dtype(dtype)
    be = _cic_backend(backend)
    with reg.span("cic.interpolate"):
        if isinstance(grid, (list, tuple)):
            shapes = {np.shape(g) for g in grid}
            if len(shapes) != 1:
                raise ValueError("grids must be one or more equal cubic "
                                 f"arrays, got {sorted(shapes)}")
            grid = np.stack(grid, axis=-1, dtype=dt)
        single = np.ndim(grid) == 3
        g = np.asarray(grid, dtype=dt)
        if single:
            g = g[..., None]
        n = g.shape[0] if g.ndim == 4 else 0
        if n == 0 or g.shape[:3] != (n, n, n) or g.shape[3] < 1:
            raise ValueError("grids must be one or more equal cubic "
                             f"arrays, got {np.shape(grid)}")
        _check_grid(n, box_size)
        if corners is None:
            pos = _check_positions(positions, dt)
            corners = be.cic_corners(pos, n, float(box_size))
        elif corners[0].shape != np.shape(positions):
            raise ValueError("corners are not those of the positions")
        elif corners[1].dtype != dt:
            raise ValueError(f"corners are {corners[1].dtype}, the gather "
                             f"is {dt}: deposit at the gather's dtype")
        out = be.cic_gather(g, *corners)
        # one gather per grid, as the work model counts it
        _charge(reg, "cic.interp_particles", out.size, dt.itemsize)
    return out.reshape(-1) if single else out


def density_contrast(
    positions: np.ndarray,
    n: int,
    box_size: float,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Dimensionless density contrast ``delta = rho / <rho> - 1`` via CIC."""
    counts = cic_deposit(positions, n, box_size, weights)
    mean = counts.mean()
    if mean <= 0:
        raise ValueError("cannot form density contrast: zero mean density")
    return counts / mean - 1.0


def cic_window(kx, ky, kz, spacing: float):
    """Fourier transform of the CIC assignment window.

    ``W(k) = prod_i sinc^2(k_i spacing / 2)`` — the power-spectrum
    estimator divides by ``W^2`` to deconvolve both deposit and
    interpolation.
    """

    def sinc(arg):
        arg = np.asarray(arg, dtype=np.float64)
        small = np.abs(arg) < 1e-12
        safe = np.where(small, 1.0, arg)
        return np.where(small, 1.0, np.sin(safe) / safe)

    half = 0.5 * spacing
    return (sinc(kx * half) * sinc(ky * half) * sinc(kz * half)) ** 2
