"""Pluggable short-range kernel backends.

The HACC 2014 follow-up paper describes the framework's central
architectural bet: *one* long-range spectral solver shared everywhere,
plus *swappable, per-architecture short-range kernels* — QPX intrinsics
on the BG/Q, CUDA on Titan, OpenCL on Roadrunner — all implementing the
same narrow force-kernel contract.  This package is that seam for the
reproduction.  A backend supplies ten primitives:

``pair_accumulate``
    The full interaction-batch evaluation — each group's kept sources
    read from their row ranges, separations, cutoff test, the
    26-instruction-kernel analogue ``(s + eps)^{-3/2} - poly_5(s)``,
    per-target accumulation — the hot loop of the short-range phase.
``cic_corners`` / ``cic_deposit`` / ``cic_gather``
    The particle-mesh passes: positions in, each particle's base cell
    and fractions out; then, from those corners, the scatter onto a grid
    and the gather from an interleaved ``(n, n, n, k)`` grid.  A PM
    solve runs the corners pass once for both.
``stream``
    The time stepper's stream map: ``x + p * drift`` folded back into
    the periodic box, in place.
``rcb_build``
    The RCB tree build: centre-of-mass bisection of the SOA cloud, the
    arrays permuted in place, flat node arrays out.
``walk``
    The tree walk: each query box's hit leaves, in row order.
``cull``
    The list build's last pass: row-range candidate lists in, a keep
    bitmask and per-group counts out — ghost targets out of every box,
    each group's sources culled to the box of its real targets.
``route``
    The overload exchange: each particle's active copy and shell
    replicas (Sec. II) in one table, each rank's receive buffer a row
    range of it.
``solve``
    One whole tree solve: ``rcb_build``, the walk, the cull and the
    pair loop in turn, the forces back in input order.

Two implementations ride the seam:

* ``numpy`` — the vectorized reference (always available); the batched
  engine's tiled, workspace-reusing pair evaluation, ``solve`` as the
  other primitives in turn, CIC through
  :class:`~repro.grid.cic.ParticleGridCoords` corner tables, the
  stream's fold through ``np.mod``, the route's one stable sort.
* ``c`` — ``pair_accumulate``, the three CIC passes, ``stream``,
  ``rcb_build``, ``walk``, ``cull``, ``route`` and ``solve`` as fused,
  GIL-free C loops (``pair_kernel.c`` with the cull, ``cic_kernel.c``,
  ``rcb_kernel.c`` with the walk and the solve, ``route_kernel.c``;
  ``solve`` chains the others in one call; CIC keeps no
  tables, only each particle's base cell and fractions; the tree
  reproduces numpy's pairwise sum; the route counts, then writes each
  copy into its rank's rows), built
  on first use with ``$CC``/``cc``/``gcc`` and cached per
  user; **bitwise identical** to the numpy reference in float64 and
  float32.

Selection goes through :func:`resolve_backend`; ``"auto"`` picks ``c``
and degrades silently to ``numpy`` when there is no compiler, the build
fails or the cached library cannot be loaded.  An explicit name that
cannot run raises :class:`BackendUnavailable` instead.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "KernelBackend",
    "Workspace",
    "BackendUnavailable",
    "available_backends",
    "backend_names",
    "get_backend",
    "resolve_backend",
]

_BACKEND_NAMES = ("numpy", "c")


class BackendUnavailable(RuntimeError):
    """An explicitly requested backend cannot run in this environment."""


class Workspace:
    """Named, grow-only scratch buffers.

    ``get(name, size, dtype)`` returns a length-``size`` view of a cached
    buffer, reallocating only when a request outgrows (or re-types) the
    existing one — so steady-state evaluation performs zero large
    allocations, the Python stand-in for the paper's preallocated
    interaction-list stream buffers.  Backends are process-wide
    singletons shared by threads, so the *caller* owns the workspace:
    one per engine or solver, never shared by concurrent calls.
    """

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        return self.room(name, size, dtype)[:size]

    def room(self, name: str, size: int, dtype) -> np.ndarray:
        """The whole buffer behind :meth:`get`, at least ``size`` long."""
        buf = self._bufs.get(name)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            buf = np.empty(max(int(size), 1), dtype=dtype)
            self._bufs[name] = buf
        return buf

    @property
    def nbytes(self) -> int:
        """Total bytes currently held across all buffers."""
        return sum(b.nbytes for b in self._bufs.values())

    def clear(self) -> None:
        self._bufs.clear()


class KernelBackend(ABC):
    """The stable kernel contract every backend implements.

    All array arguments arrive in the *kernel precision* (float32 or
    float64) chosen by the caller; a backend must neither upcast nor
    downcast — mixed precision is the caller's policy, not the
    backend's.  Scalars (``eps``, ``rc2_cells``, ``inv_sp2``) arrive as
    zero-dimensional scalars of the same dtype.
    """

    #: registry key; also what run manifests record
    name: str = "?"
    #: how the kernel was built (compiler, flags, source hash), recorded
    #: in run manifests next to ``name``; empty for interpreted backends
    build_info: dict = {}
    #: the pair-kernel path a compiled backend runs (``"avx512"``,
    #: ``"avx2"`` or ``"scalar"``), recorded next to ``build_info``; None
    #: otherwise
    simd: str | None = None

    # ------------------------------------------------------------------
    @abstractmethod
    def pair_accumulate(self, target_starts, target_counts, real,
                        source_starts, source_counts, range_offsets, keep,
                        px, py, pz, msc, coeffs, eps, rc2_cells, inv_sp2,
                        acc: np.ndarray, workspace) -> int:
        """Evaluate an interaction batch into ``acc``; returns the number
        of in-cutoff pairs actually evaluated.

        The first seven arguments are the
        :class:`~repro.shortrange.batch.InteractionBatch` lists: group
        ``g`` applies its kept candidates, in order, to each of its real
        targets.  ``px/py/pz`` are the SOA coordinates, ``msc`` the masses already
        scaled by ``1/spacing^3`` -- all in the kernel dtype.  ``acc`` is
        an ``(N, 3)`` kernel-dtype array accumulated in place with the
        attractive sign.  ``workspace`` is the engine's grow-only
        :class:`Workspace`; backends that do not tile through scratch
        buffers may ignore it.
        """

    @abstractmethod
    def cic_corners(
        self,
        positions: np.ndarray,
        n: int,
        box_size: float,
        workspace: Workspace | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each particle's CIC base cell and fractional offsets on a
        periodic ``n^3`` grid of side ``box_size``.

        ``positions`` is a C-contiguous ``(N, 3)`` array in the kernel
        dtype (coordinates outside the box wrap).  Returns ``(base,
        frac)``: ``(N, 3)`` int32 cells in ``[0, n)`` and ``(N, 3)``
        fractions in the kernel dtype, in buffers of ``workspace`` (fresh
        ones when ``None``), so a later call with the same workspace
        overwrites them.  A non-finite coordinate raises
        :class:`ValueError` naming how many particles have one.
        """

    @abstractmethod
    def cic_deposit(
        self,
        base: np.ndarray,
        frac: np.ndarray,
        values: np.ndarray | None,
        n: int,
        workspace: Workspace | None = None,
    ) -> np.ndarray:
        """CIC-deposit ``values`` at the corners ``(base, frac)`` of
        :meth:`cic_corners` onto a periodic ``n^3`` grid.

        ``values`` are the ``(N,)`` masses in the kernel dtype, or
        ``None`` for unit mass.  Returns the ``(n, n, n)`` grid in the
        kernel dtype.  Scratch comes from ``workspace`` (a fresh one when
        ``None``).  A base cell outside the grid raises
        :class:`IndexError`.
        """

    @abstractmethod
    def cic_gather(
        self,
        grid: np.ndarray,
        base: np.ndarray,
        frac: np.ndarray,
    ) -> np.ndarray:
        """Adjoint of :meth:`cic_deposit`: the trilinear interpolation of
        the interleaved ``(n, n, n, k)`` ``grid`` (kernel dtype; a
        corner's ``k`` values adjacent) at the corners ``(base, frac)``,
        in one pass over the particles.  Returns an ``(N, k)`` array in
        the kernel dtype; a base cell outside the grid raises
        :class:`IndexError`."""

    @abstractmethod
    def stream(
        self,
        positions: np.ndarray,
        momenta: np.ndarray,
        drift: float,
        box_size: float,
    ) -> None:
        """The stream map in place: ``positions = positions + momenta *
        drift`` (the product and the sum each rounded in the positions'
        dtype), then ``np.mod(positions, box_size)`` for every coordinate
        not strictly inside ``(0, box_size)``, a result of exactly
        ``box_size`` (from a tiny negative coordinate) folded to +0, so
        every finite coordinate lands in ``[0, box_size)``; a non-finite
        one becomes NaN.  ``positions`` is a writeable C-contiguous ``(N, 3)``
        float32/float64 array, ``momenta`` the same shape and dtype."""

    @abstractmethod
    def rcb_build(self, x, y, z, m, leaf_size: int) -> tuple:
        """Build an :class:`~repro.shortrange.rcb_tree.RCBTree` over the
        cloud ``(x, y, z)`` with masses ``m`` (writeable C-contiguous 1-D
        arrays of one float dtype, finite, ``m > 0``), reordering the
        four in place.  Returns the tree's ``(perm, node_start,
        node_count, node_lo, node_hi, node_left, node_right)``."""

    @abstractmethod
    def walk(self, tree, qlo: np.ndarray, qhi: np.ndarray) -> tuple:
        """The leaf hits of box queries against an
        :class:`~repro.shortrange.rcb_tree.RCBTree`.

        ``qlo`` / ``qhi`` are ``(Q, 3)`` corners, cast to the tree's
        dtype.  Returns int64 ``(hit_offsets, hit_nodes)``: query ``q``
        hits ``hit_nodes[hit_offsets[q]:hit_offsets[q + 1]]``, the leaves
        whose box meets its closed box (no ``node_lo`` coordinate above
        ``qhi``, no ``node_hi`` one below ``qlo``), ascending by
        ``node_start``.
        """

    @abstractmethod
    def cull(self, target_starts, target_counts, real, source_starts,
             source_counts, range_offsets, positions: np.ndarray,
             radius: float) -> tuple:
        """The list build's last pass: which candidates each group
        streams, as ``(keep, n_targets, n_sources)`` of an
        :class:`~repro.shortrange.batch.InteractionBatch` over the row
        ranges given (``real`` has one flag per row of the ``(N, 3)``
        float32/float64 ``positions``).  A candidate is kept when its
        float32 squared distance to the float32 box of its group's real
        targets, summed ``(dx**2 + dy**2) + dz**2``, is ``<=
        float32(radius**2)``; a group without a real target keeps
        nothing.
        """

    @abstractmethod
    def route(self, positions, momenta, masses, ids, origin,
              box_size: float, dims, depth: float) -> tuple:
        """The overload exchange's copies, one receive buffer per rank.

        ``(N, 3)`` ``positions`` (wrapped into the box) and ``momenta``,
        ``(N,)`` ``masses`` of one float dtype; int64 ``ids``; ``origin``
        the source ranks (``None``: home ranks).  A particle's one block
        of the ``dims`` grid, from ``DomainDecomposition.assign``'s
        arithmetic, is its home and decides its shell: a replica for
        each neighbor offset (``ox, oy, oz`` order) within ``depth`` of
        whose faces it lies, shifted by ``+-box`` across the seam.
        Returns ``((positions, momenta, masses, ids, active), cuts)``, the
        table destination-major: the copies ``src`` sends ``dst`` as
        actives (``passive`` 0) or replicas (1) are rows ``cuts[b]:cuts[b
        + 1]``, ``b = (dst * 2 + passive) * n_ranks + src``, replicas
        offset by offset, each run in particle order.  So rank ``dst``'s
        rows are ``cuts[2 * n_ranks * dst]:cuts[2 * n_ranks * (dst +
        1)]``, its actives first.
        """

    def solve(self, positions, masses, n_targets: int, leaf_size: int,
              rcut: float, coeffs, eps, rc2_cells, inv_sp2, mass_scale,
              workspace: Workspace) -> tuple:
        """The short-range accelerations of ``positions[:n_targets]``
        from the whole ``(N, 3)`` cloud with ``(N,)`` ``masses``: an
        :class:`~repro.shortrange.rcb_tree.RCBTree` of ``leaf_size`` (its
        input errors too), :func:`~repro.shortrange.batch.pack_tree` at
        cutoff ``rcut`` and :meth:`pair_accumulate` on the tree's rows, the
        masses times ``mass_scale``; ``coeffs`` and the scalars are in the
        kernel dtype.  Returns ``(acc, (streamed, inside), tree depth,
        kept sources per group, marks)``, ``marks`` the
        :func:`time.perf_counter` seconds at the start and after the
        build, the lists and the pairs.  This composition, one call each,
        is the oracle of a fused form."""
        from repro.shortrange.batch import pack_tree, stream_batch
        from repro.shortrange.rcb_tree import RCBTree

        marks = [time.perf_counter()]
        tree = RCBTree(positions, masses, leaf_size, backend=self)
        marks.append(time.perf_counter())
        batch = pack_tree(tree, rcut, n_targets, self)
        marks.append(time.perf_counter())
        acc_tree, inside = stream_batch(
            self, batch, tree.positions, tree.masses, coeffs,
            (eps, rc2_cells, inv_sp2, mass_scale), workspace)
        marks.append(time.perf_counter())
        acc = np.zeros_like(acc_tree)
        acc[tree.perm] = acc_tree
        return (acc[:n_targets], (batch.n_pairs, inside), tree.depth(),
                batch.n_sources, marks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<KernelBackend {self.name}>"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_INSTANCES: dict[str, KernelBackend] = {}


def backend_names() -> tuple[str, ...]:
    """All registered backend names, available or not."""
    return _BACKEND_NAMES


def _make(name: str) -> KernelBackend:
    """Import and construct a backend (may raise BackendUnavailable)."""
    if name == "numpy":
        from repro.shortrange.backends.numpy_backend import NumpyBackend

        return NumpyBackend()
    if name == "c":
        from repro.shortrange.backends.c_backend import CBackend

        return CBackend()
    raise ValueError(
        f"unknown kernel backend {name!r}; choose from "
        f"{('auto',) + _BACKEND_NAMES}"
    )


def get_backend(name: str) -> KernelBackend:
    """The backend registered as ``name`` (cached singletons).

    Raises :class:`BackendUnavailable` when the environment cannot run
    it, :class:`ValueError` for unknown names.
    """
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _make(name)
        _INSTANCES[name] = inst
    return inst


def available_backends() -> tuple[str, ...]:
    """Names of the backends that can actually run here, in registry
    order (``numpy`` is always first and always present)."""
    out = []
    for name in _BACKEND_NAMES:
        try:
            get_backend(name)
        except BackendUnavailable:
            continue
        out.append(name)
    return tuple(out)


def resolve_backend(choice) -> KernelBackend:
    """Resolve a user/config selection to a live backend instance.

    ``choice`` may be a :class:`KernelBackend` (returned as-is), one of
    the registered names, ``"auto"`` or ``None`` (both meaning "c, else
    numpy").  Explicit names that cannot run raise
    :class:`BackendUnavailable` — a requested compiled kernel silently
    falling back to the interpreter is exactly the failure mode the
    seam exists to make loud.
    """
    if isinstance(choice, KernelBackend):
        return choice
    if choice is None or choice == "auto":
        try:
            return get_backend("c")
        except BackendUnavailable:
            return get_backend("numpy")
    if not isinstance(choice, str):
        raise TypeError(
            f"kernel backend must be a name or KernelBackend, got "
            f"{type(choice).__name__}"
        )
    return get_backend(choice)
