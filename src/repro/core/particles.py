"""Structure-of-arrays particle container.

HACC stores particle data as a collection of arrays — three coordinates,
three velocity components, mass, identifier — rather than an array of
structures (Section III), because the tree partition and the force kernel
stream through one component at a time.  NumPy's layout makes the same
choice natural: each field is one contiguous array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cosmology.initial_conditions import ZeldovichICs
from repro.grid.cic import periodic_wrap

__all__ = ["Particles"]


@dataclass
class Particles:
    """Particle phase-space state in comoving coordinates.

    Attributes
    ----------
    positions:
        (N, 3) comoving positions in [0, box_size), Mpc/h.
    momenta:
        (N, 3) comoving momenta ``p = a^2 dx/dt`` (code units, H0=1).
    masses:
        (N,) weights in units of the mean particle mass (1 for equal-mass
        runs; kept general for zoom-in configurations).
    ids:
        (N,) stable global identifiers.
    box_size:
        Periodic box side, Mpc/h.
    version:
        Mutation counter, bumped by :meth:`wrap` and by the stepper's
        stream: code that writes ``positions`` in place must call
        :meth:`wrap` (as it must to stay in the box).
    """

    positions: np.ndarray
    momenta: np.ndarray
    masses: np.ndarray
    ids: np.ndarray
    box_size: float
    version: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.positions.shape[0]
        if self.positions.shape != (n, 3):
            raise ValueError(
                f"positions must be (N, 3), got {self.positions.shape}"
            )
        if self.momenta.shape != (n, 3):
            raise ValueError(
                f"momenta shape {self.momenta.shape} != positions"
            )
        if self.masses.shape != (n,):
            raise ValueError(f"masses must be (N,), got {self.masses.shape}")
        if self.ids.shape != (n,):
            raise ValueError(f"ids must be (N,), got {self.ids.shape}")
        if self.box_size <= 0:
            raise ValueError(f"box_size must be positive: {self.box_size}")

    # ------------------------------------------------------------------
    @classmethod
    def from_ics(cls, ics: ZeldovichICs) -> "Particles":
        """Wrap generated initial conditions (unit masses, fresh ids).

        The particles take ownership of the IC's ``positions`` and
        ``momenta`` arrays: they are shared, not copied, so stepping the
        particles (which updates both in place) changes ``ics`` too.
        Copy the ICs first to keep them.
        """
        n = ics.n_particles
        return cls(
            positions=ics.positions,
            momenta=ics.momenta,
            masses=np.ones(n, dtype=np.float64),
            ids=np.arange(n, dtype=np.int64),
            box_size=ics.box_size,
        )

    @classmethod
    def uniform_random(
        cls, n: int, box_size: float, seed: int = 0
    ) -> "Particles":
        """Cold, uniformly random particles (testing convenience)."""
        rng = np.random.default_rng(seed)
        return cls(
            positions=rng.uniform(0.0, box_size, (n, 3)),
            momenta=np.zeros((n, 3)),
            masses=np.ones(n),
            ids=np.arange(n, dtype=np.int64),
            box_size=box_size,
        )

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def wrap(self) -> None:
        """Fold positions back into the periodic box, in place.

        Bitwise :func:`~repro.grid.cic.periodic_wrap`: a coordinate
        strictly inside ``(0, box_size)`` is its own remainder, so only
        the rest (after a drift, the thin shell that crossed a face,
        plus zeros, NaN and inf) goes through the ~10x slower ufunc.
        """
        x = self.positions
        outside = np.greater(x, 0)
        outside &= x < x.dtype.type(self.box_size)
        np.logical_not(outside, out=outside)
        if outside.any():
            x[outside] = periodic_wrap(x[outside], self.box_size)
        self.version += 1

    def kinetic_energy(self, a: float) -> float:
        """Total peculiar kinetic energy ``sum m v^2 / 2`` with
        ``v = p / a`` (comoving peculiar velocity ``a dx/dt``)."""
        if a <= 0:
            raise ValueError(f"scale factor must be positive: {a}")
        v2 = np.einsum("ij,ij->i", self.momenta, self.momenta) / a**2
        return float(0.5 * np.sum(self.masses * v2))

    def rms_displacement(self, reference: np.ndarray) -> float:
        """RMS periodic distance from reference positions (drift tests)."""
        d = self.positions - reference
        d -= self.box_size * np.round(d / self.box_size)
        return float(np.sqrt(np.mean(np.sum(d * d, axis=1))))

    def copy(self) -> "Particles":
        """Deep copy (snapshots, reversibility tests)."""
        return Particles(
            positions=self.positions.copy(),
            momenta=self.momenta.copy(),
            masses=self.masses.copy(),
            ids=self.ids.copy(),
            box_size=self.box_size,
        )

    def astype(self, dtype) -> "Particles":
        """Copy with the floating-point state cast to ``dtype``.

        The mixed-precision entry point: ``astype(np.float32)`` is how a
        run adopts the paper's single-precision particle state.  Ids stay
        int64; a no-op cast still returns fresh arrays (copy semantics).
        """
        dt = np.dtype(dtype)
        return Particles(
            positions=self.positions.astype(dt),
            momenta=self.momenta.astype(dt),
            masses=self.masses.astype(dt),
            ids=self.ids.copy(),
            box_size=self.box_size,
        )
