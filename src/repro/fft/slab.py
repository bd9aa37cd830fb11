"""Slab-decomposed distributed 3-D FFT (the first-generation HACC FFT).

Each rank owns a contiguous slab of ``n / Nrank`` x-planes, performs local
2-D FFTs over (y, z), then one global all-to-all transpose redistributes
the data as y-slabs so the final 1-D pass along x is local.  The hard
limit ``Nrank < N`` noted in Section IV.A is enforced here — it is exactly
why the pencil decomposition (:mod:`repro.fft.pencil`) was developed, and
the Fig. 6 benchmark contrasts the two.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.comm import SimulatedComm

__all__ = ["SlabFFT"]


class SlabFFT:
    """1-D (slab) decomposed FFT over ``Nrank`` ranks, ``Nrank | n``.

    Examples
    --------
    >>> import numpy as np
    >>> s = SlabFFT(8, 4)
    >>> x = np.random.default_rng(1).standard_normal((8, 8, 8))
    >>> np.allclose(s.gather(s.forward(s.scatter(x)), "y-slab"),
    ...             np.fft.fftn(x))
    True
    """

    def __init__(
        self,
        n: int,
        nranks: int,
        comm: SimulatedComm | None = None,
    ) -> None:
        if n < 2:
            raise ValueError(f"grid size must be >= 2, got {n}")
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if nranks > n:
            raise ValueError(
                "slab decomposition requires Nrank <= N "
                f"(got {nranks} ranks for N={n}); use PencilFFT instead"
            )
        if n % nranks:
            raise ValueError(f"nranks={nranks} must divide n={n}")
        self.n = int(n)
        self.size = int(nranks)
        self.nx = self.n // self.size
        self.comm = comm if comm is not None else SimulatedComm(self.size)
        if self.comm.size != self.size:
            raise ValueError(
                f"communicator size {self.comm.size} != {self.size}"
            )

    # ------------------------------------------------------------------
    def scatter(self, field: np.ndarray) -> list[np.ndarray]:
        """Split a global (n, n, n) array into x-slabs."""
        n = self.n
        if field.shape != (n, n, n):
            raise ValueError(f"field shape {field.shape} != {(n, n, n)}")
        nx = self.nx
        return [
            np.ascontiguousarray(field[r * nx : (r + 1) * nx])
            for r in range(self.size)
        ]

    def gather(self, blocks: list[np.ndarray], kind: str) -> np.ndarray:
        """Reassemble rank-local slabs into the global array."""
        n, nx = self.n, self.nx
        dtype = np.result_type(*[b.dtype for b in blocks])
        out = np.empty((n, n, n), dtype=dtype)
        for r, b in enumerate(blocks):
            if kind == "x-slab":
                out[r * nx : (r + 1) * nx] = b
            elif kind == "y-slab":
                out[:, r * nx : (r + 1) * nx, :] = b
            else:
                raise ValueError(f"unknown slab kind {kind!r}")
        return out

    # ------------------------------------------------------------------
    def _transpose_xy(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """x-slabs -> y-slabs via one global all-to-all."""
        nx = self.nx
        send = [
            [
                np.ascontiguousarray(b[:, r * nx : (r + 1) * nx, :])
                for r in range(self.size)
            ]
            for b in blocks
        ]
        recv = self.comm.alltoallv(send, tag="fft.transpose.slab")
        return [np.concatenate(row, axis=0) for row in recv]

    def _transpose_yx(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """y-slabs -> x-slabs (inverse transpose)."""
        nx = self.nx
        send = [
            [
                np.ascontiguousarray(b[r * nx : (r + 1) * nx, :, :])
                for r in range(self.size)
            ]
            for b in blocks
        ]
        recv = self.comm.alltoallv(send, tag="fft.transpose.slab")
        return [np.concatenate(row, axis=1) for row in recv]

    # ------------------------------------------------------------------
    def forward(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Forward FFT: x-slabs in, y-slabs of the spectrum out."""
        self._check(blocks)
        work = [np.fft.fft(np.fft.fft(b, axis=2), axis=1) for b in blocks]
        work = self._transpose_xy(work)
        return [np.fft.fft(b, axis=0) for b in work]

    def inverse(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        """Inverse FFT: y-slab spectra in, x-slab complex field out."""
        self._check(blocks)
        work = [np.fft.ifft(b, axis=0) for b in blocks]
        work = self._transpose_yx(work)
        return [np.fft.ifft(np.fft.ifft(b, axis=1), axis=2) for b in work]

    def transpose_bytes_per_rank(self) -> int:
        """Bytes each rank ships in the global transpose (complex128)."""
        local = self.n**3 // self.size
        return local * 16 * (self.size - 1) // self.size

    def _check(self, blocks: list[np.ndarray]) -> None:
        if len(blocks) != self.size:
            raise ValueError(
                f"expected {self.size} rank blocks, got {len(blocks)}"
            )
