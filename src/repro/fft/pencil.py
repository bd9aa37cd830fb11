"""2-D pencil-decomposed distributed 3-D FFT.

This is the algorithm that gives HACC its weak-scaling guarantee
(Section IV.A of the paper): with ranks arranged in a ``pr x pc`` grid the
scalability limit is ``Nrank < N^2`` instead of the slab decomposition's
``Nrank < N``.  The transform is composed of *interleaved transposition and
sequential 1-D FFT steps* where each transposition involves only a subset
of ranks (one row or one column of the rank grid):

1. 1-D FFTs along z on the initial z-pencils ``(N/pr, N/pc, N)``;
2. z<->y transpose inside each **row** communicator (``pc`` ranks);
3. 1-D FFTs along y on y-pencils ``(N/pr, N, N/pc)``;
4. y<->x transpose inside each **column** communicator (``pr`` ranks);
5. 1-D FFTs along x on x-pencils ``(N, N/pr, N/pc)``.

The inverse runs the same schedule backwards.  All message traffic flows
through :class:`repro.parallel.SimulatedComm` and is recorded under the
tags ``"fft.transpose.zy"`` / ``"fft.transpose.yx"``; the machine model
converts those byte counts into torus time for Table I / Fig. 6.

Non-power-of-two sizes are supported (the paper runs 6400^3, 9216^3,
15360^3 grids) — the only requirement is that ``pr`` and ``pc`` divide N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fft.local import SequentialFFT
from repro.instrument import get_registry, timed
from repro.parallel.comm import SimulatedComm

__all__ = ["PencilFFT", "PencilLayout"]


@dataclass(frozen=True)
class PencilLayout:
    """Describes which global sub-block a rank's local array covers.

    ``axes_blocked`` names the two decomposed axes; the remaining axis is
    fully local ("the pencil direction").
    """

    kind: str  # "z-pencil", "y-pencil" or "x-pencil"
    pr: int
    pc: int
    n: int

    def local_shape(self) -> tuple[int, int, int]:
        n, pr, pc = self.n, self.pr, self.pc
        if self.kind == "z-pencil":
            return (n // pr, n // pc, n)
        if self.kind == "y-pencil":
            return (n // pr, n, n // pc)
        if self.kind == "x-pencil":
            return (n, n // pr, n // pc)
        raise ValueError(f"unknown layout kind {self.kind!r}")


class PencilFFT:
    """Distributed 3-D FFT over a ``pr x pc`` rank grid.

    Parameters
    ----------
    n:
        Grid points per dimension (``pr | n`` and ``pc | n`` required).
    pr, pc:
        Rank grid dimensions; total ranks ``pr * pc``.
    comm:
        Optional shared :class:`SimulatedComm` of size ``pr * pc``.
    fft:
        Sequential 1-D FFT backend (native or numpy).

    Notes
    -----
    Rank ``(i, j)`` is linearized as ``rank = i * pc + j``.  Rank-local
    blocks are passed around as ``list`` s indexed by rank — the in-process
    stand-in for per-process memory.

    Examples
    --------
    >>> import numpy as np
    >>> p = PencilFFT(8, 2, 2)
    >>> x = np.random.default_rng(0).standard_normal((8, 8, 8))
    >>> k = p.gather(p.forward(p.scatter(x)), "x-pencil")
    >>> np.allclose(k, np.fft.fftn(x))
    True
    """

    def __init__(
        self,
        n: int,
        pr: int,
        pc: int,
        comm: SimulatedComm | None = None,
        fft: SequentialFFT | None = None,
    ) -> None:
        if n < 2:
            raise ValueError(f"grid size must be >= 2, got {n}")
        if pr < 1 or pc < 1:
            raise ValueError(f"rank grid must be positive, got {pr}x{pc}")
        if n % pr or n % pc:
            raise ValueError(
                f"pr={pr} and pc={pc} must divide the grid size n={n}"
            )
        if pr * pc > n * n:
            raise ValueError(
                "pencil decomposition requires Nrank <= N^2: "
                f"{pr * pc} ranks for N={n}"
            )
        self.n = int(n)
        self.pr = int(pr)
        self.pc = int(pc)
        self.size = self.pr * self.pc
        self.comm = comm if comm is not None else SimulatedComm(self.size)
        if self.comm.size != self.size:
            raise ValueError(
                f"communicator size {self.comm.size} != pr*pc = {self.size}"
            )
        self.fft = fft if fft is not None else SequentialFFT()
        # row communicator r_i groups ranks {i*pc + j : j}, column
        # communicator c_j groups {i*pc + j : i}.
        self._row_comms = self.comm.split(
            [rank // self.pc for rank in range(self.size)]
        )
        self._col_comms = self.comm.split(
            [rank % self.pc for rank in range(self.size)]
        )
        # per-(transpose, rank) receive-assembly buffers, reused across
        # calls: a step makes 8 transposes (1 forward + 3 inverse, 2
        # transposes each), all with identical shapes
        self._transpose_bufs: dict[tuple[str, int], np.ndarray] = {}

    def _concat_into(
        self, key: str, rank: int, parts: list[np.ndarray], axis: int
    ) -> np.ndarray:
        """``np.concatenate`` into a reused per-(transpose, rank) buffer.

        Transpose outputs are consumed immediately by the next 1-D FFT
        pass (which allocates fresh arrays), so the buffers never escape
        ``forward``/``inverse`` and reuse across calls is safe.
        """
        shape = list(parts[0].shape)
        shape[axis] = sum(p.shape[axis] for p in parts)
        dtype = np.result_type(*[p.dtype for p in parts])
        bkey = (key, rank)
        buf = self._transpose_bufs.get(bkey)
        if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
            buf = np.empty(tuple(shape), dtype=dtype)
            self._transpose_bufs[bkey] = buf
        np.concatenate(parts, axis=axis, out=buf)
        return buf

    @property
    def transpose_buffer_bytes(self) -> int:
        """Bytes currently held by the reused transpose buffers."""
        return sum(b.nbytes for b in self._transpose_bufs.values())

    # ------------------------------------------------------------------
    def rank_of(self, i: int, j: int) -> int:
        """Linear rank id for rank-grid coordinates (i, j)."""
        return i * self.pc + j

    def layout(self, kind: str) -> PencilLayout:
        return PencilLayout(kind, self.pr, self.pc, self.n)

    # ------------------------------------------------------------------
    # scatter / gather (test and driver convenience; a production code
    # would never hold the global array, but the reproduction runs at
    # sizes where doing so for verification is cheap)
    # ------------------------------------------------------------------
    def scatter(self, field: np.ndarray) -> list[np.ndarray]:
        """Split a global (n, n, n) array into z-pencil blocks per rank."""
        n, pr, pc = self.n, self.pr, self.pc
        if field.shape != (n, n, n):
            raise ValueError(
                f"field shape {field.shape} != {(n, n, n)}"
            )
        with get_registry().span("fft.pencil.scatter"):
            nx, ny = n // pr, n // pc
            blocks = []
            for i in range(pr):
                for j in range(pc):
                    blocks.append(
                        np.ascontiguousarray(
                            field[
                                i * nx : (i + 1) * nx, j * ny : (j + 1) * ny, :
                            ]
                        )
                    )
        return blocks

    def gather(self, blocks: list[np.ndarray], kind: str) -> np.ndarray:
        """Reassemble rank-local blocks into the global array."""
        n, pr, pc = self.n, self.pr, self.pc
        dtype = np.result_type(*[b.dtype for b in blocks])
        with get_registry().span("fft.pencil.gather"):
            out = self._gather(blocks, kind, dtype)
        return out

    def _gather(self, blocks, kind: str, dtype) -> np.ndarray:
        n, pr, pc = self.n, self.pr, self.pc
        out = np.empty((n, n, n), dtype=dtype)
        nx, ny, nz = n // pr, n // pc, n // pc
        for i in range(pr):
            for j in range(pc):
                b = blocks[self.rank_of(i, j)]
                if kind == "z-pencil":
                    out[i * nx : (i + 1) * nx, j * ny : (j + 1) * ny, :] = b
                elif kind == "y-pencil":
                    out[i * nx : (i + 1) * nx, :, j * nz : (j + 1) * nz] = b
                elif kind == "x-pencil":
                    ny2 = n // pr
                    out[:, i * ny2 : (i + 1) * ny2, j * nz : (j + 1) * nz] = b
                else:
                    raise ValueError(f"unknown layout kind {kind!r}")
        return out

    # ------------------------------------------------------------------
    # transposes
    # ------------------------------------------------------------------
    @timed("fft.transpose.zy")
    def _transpose_zy(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """z-pencils -> y-pencils: alltoall within each row of the grid."""
        n, pr, pc = self.n, self.pr, self.pc
        ny, nz = n // pc, n // pc
        out: list[np.ndarray | None] = [None] * self.size
        for i in range(pr):
            row_ranks = [self.rank_of(i, j) for j in range(pc)]
            send = [
                [
                    np.ascontiguousarray(
                        blocks[r][:, :, jp * nz : (jp + 1) * nz]
                    )
                    for jp in range(pc)
                ]
                for r in row_ranks
            ]
            recv = self._row_comms[i].alltoallv(send, tag="fft.transpose.zy")
            for j in range(pc):
                # rank (i, j) assembles full y from the pc chunks; chunk
                # from source j' carries y-block C_{j'}.
                out[row_ranks[j]] = self._concat_into(
                    "zy", row_ranks[j], recv[j], axis=1
                )
        return out  # type: ignore[return-value]

    @timed("fft.transpose.yz")
    def _transpose_yz(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Inverse of :meth:`_transpose_zy` (y-pencils -> z-pencils)."""
        n, pr, pc = self.n, self.pr, self.pc
        ny = n // pc
        out: list[np.ndarray | None] = [None] * self.size
        for i in range(pr):
            row_ranks = [self.rank_of(i, j) for j in range(pc)]
            send = [
                [
                    np.ascontiguousarray(
                        blocks[r][:, jp * ny : (jp + 1) * ny, :]
                    )
                    for jp in range(pc)
                ]
                for r in row_ranks
            ]
            recv = self._row_comms[i].alltoallv(send, tag="fft.transpose.zy")
            for j in range(pc):
                out[row_ranks[j]] = self._concat_into(
                    "yz", row_ranks[j], recv[j], axis=2
                )
        return out  # type: ignore[return-value]

    @timed("fft.transpose.yx")
    def _transpose_yx(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """y-pencils -> x-pencils: alltoall within each column of the grid."""
        n, pr, pc = self.n, self.pr, self.pc
        ny2 = n // pr
        out: list[np.ndarray | None] = [None] * self.size
        for j in range(pc):
            col_ranks = [self.rank_of(i, j) for i in range(pr)]
            send = [
                [
                    np.ascontiguousarray(
                        blocks[r][:, ip * ny2 : (ip + 1) * ny2, :]
                    )
                    for ip in range(pr)
                ]
                for r in col_ranks
            ]
            recv = self._col_comms[j].alltoallv(send, tag="fft.transpose.yx")
            for i in range(pr):
                out[col_ranks[i]] = self._concat_into(
                    "yx", col_ranks[i], recv[i], axis=0
                )
        return out  # type: ignore[return-value]

    @timed("fft.transpose.xy")
    def _transpose_xy(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Inverse of :meth:`_transpose_yx` (x-pencils -> y-pencils)."""
        n, pr, pc = self.n, self.pr, self.pc
        nx = n // pr
        out: list[np.ndarray | None] = [None] * self.size
        for j in range(pc):
            col_ranks = [self.rank_of(i, j) for i in range(pr)]
            send = [
                [
                    np.ascontiguousarray(
                        blocks[r][ip * nx : (ip + 1) * nx, :, :]
                    )
                    for ip in range(pr)
                ]
                for r in col_ranks
            ]
            recv = self._col_comms[j].alltoallv(send, tag="fft.transpose.yx")
            for i in range(pr):
                out[col_ranks[i]] = self._concat_into(
                    "xy", col_ranks[i], recv[i], axis=1
                )
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def _fft_pass(
        self, blocks: list[np.ndarray], axis: int, inverse: bool
    ) -> list[np.ndarray]:
        """One 1-D FFT sweep over all rank blocks.

        With a live registry each rank's transform is timed in its own
        ``rank`` lane (``fft.1d`` spans), so the Chrome-trace export shows
        the per-rank compute alongside the transpose communication; with
        the no-op registry this is the plain list comprehension.
        """
        fn = self.fft.ifft if inverse else self.fft.fft
        reg = get_registry()
        if not reg.enabled:
            return [fn(b, axis=axis) for b in blocks]
        out = []
        for rank, b in enumerate(blocks):
            with reg.span("fft.1d", rank=rank):
                out.append(fn(b, axis=axis))
        return out

    def _count_fft_work(self, reg, out_blocks: list[np.ndarray]) -> None:
        """Charge one full N^3-point transform into the fft work bucket."""
        from repro.instrument import perfcount

        itemsize = (
            out_blocks[0].dtype.itemsize if out_blocks else 16
        )
        reg.count("fft.flops", perfcount.fft_flops(self.n**3))
        reg.count("fft.bytes", perfcount.fft_bytes(self.n**3, itemsize))

    def forward(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Forward 3-D FFT: z-pencil real/complex blocks -> x-pencil spectra."""
        self._check_blocks(blocks, "z-pencil")
        reg = get_registry()
        with reg.span("fft.pencil.forward"):
            work = self._fft_pass(blocks, axis=2, inverse=False)
            work = self._transpose_zy(work)
            work = self._fft_pass(work, axis=1, inverse=False)
            work = self._transpose_yx(work)
            out = self._fft_pass(work, axis=0, inverse=False)
        reg.count("fft.forward_points", self.n**3)
        self._count_fft_work(reg, out)
        return out

    def inverse(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Inverse 3-D FFT: x-pencil spectra -> z-pencil complex blocks."""
        self._check_blocks(blocks, "x-pencil")
        reg = get_registry()
        with reg.span("fft.pencil.inverse"):
            work = self._fft_pass(blocks, axis=0, inverse=True)
            work = self._transpose_xy(work)
            work = self._fft_pass(work, axis=1, inverse=True)
            work = self._transpose_yz(work)
            out = self._fft_pass(work, axis=2, inverse=True)
        reg.count("fft.inverse_points", self.n**3)
        self._count_fft_work(reg, out)
        return out

    # ------------------------------------------------------------------
    def transpose_bytes_per_rank(self) -> int:
        """Bytes each rank ships per forward transform (both transposes).

        Every transpose moves the rank's full local volume (minus the
        self-chunk); this analytic count is what the machine-model network
        term uses, and the tests check it against recorded traffic.
        """
        local = self.n**3 // self.size  # complex128 elements
        zy = local * 16 * (self.pc - 1) // self.pc
        yx = local * 16 * (self.pr - 1) // self.pr
        return zy + yx

    def _check_blocks(self, blocks: list[np.ndarray], kind: str) -> None:
        if len(blocks) != self.size:
            raise ValueError(
                f"expected {self.size} rank blocks, got {len(blocks)}"
            )
        expect = self.layout(kind).local_shape()
        for r, b in enumerate(blocks):
            if b.shape != expect:
                raise ValueError(
                    f"rank {r}: block shape {b.shape} != {expect} for {kind}"
                )
