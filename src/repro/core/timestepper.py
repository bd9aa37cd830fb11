"""The 2nd-order split-operator symplectic SKS time stepper.

Equation (6) of the paper:

.. math:: M_{full}(t) = M_{lr}(t/2)\\,\\big(M_{sr}(t/n_c)\\big)^{n_c}\\,M_{lr}(t/2)

The long-range map is a *kick* (velocities updated from the PM force,
positions frozen); each short-range sub-cycle is itself a symmetric
stream-kick-stream composition.  The slowly varying long-range force is
frozen across the ``n_c`` sub-cycles, which is what makes the scheme
cheap: ``n`` steps pay ``n + 1`` global Poisson solves (a step's closing
half-kick and the next one's opening share one) and ``n n_c`` local ones.

Drift and kick weights are exact integrals over the expansion history
(momentum convention ``p = a^2 dx/dt``, units ``H0 = 1``):

.. math:: x \\mathrel{+}= p \\int \\frac{da}{a^3 E(a)}, \\qquad
          p \\mathrel{+}= g \\int \\frac{da}{a^2 E(a)},

where ``g = -grad phi`` solves ``del^2 phi = (3/2) Omega_m delta`` — the
explicit ``1/a`` of the comoving Poisson equation is folded into the kick
integral, so the force callbacks are scale-factor independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cosmology.background import Cosmology
from repro.cosmology.quadrature import integrate
from repro.core.particles import Particles
from repro.instrument import get_registry
from repro.shortrange.backends import resolve_backend

__all__ = ["drift_coefficient", "kick_coefficient", "SubcycledStepper"]

#: rows per block of the kicks' ``y += a * coeff`` updates (384 KB of
#: float64 scratch, cache resident)
_BLOCK_ROWS = 16384


def _expansion_integral(cosmology: Cosmology, a0: float, a1: float,
                        power: int) -> float:
    """``int_{a0}^{a1} da / (a^power E(a))`` by the composite rule.

    Panels are equal in ``ln a`` and span at most a factor 2 in ``a``,
    so the nearest singularity of the integrand (at ``a = 0``) stays
    three panel half-widths away and 32 nodes per panel settle the
    weight to rounding for any interval.
    """
    if a0 <= 0 or a1 <= 0:
        raise ValueError("scale factors must be positive")
    if a1 == a0:
        return 0.0
    panels = max(1, math.ceil(abs(math.log2(a1 / a0))))
    return integrate(
        lambda a: 1.0 / (a**power * cosmology.efunc(a)),
        a0, a1, panels=panels, geometric=True,
    )


def drift_coefficient(cosmology: Cosmology, a0: float, a1: float) -> float:
    """Exact stream (drift) weight ``int_{a0}^{a1} da / (a^3 E(a))``."""
    return _expansion_integral(cosmology, a0, a1, 3)


def kick_coefficient(cosmology: Cosmology, a0: float, a1: float) -> float:
    """Exact kick weight ``int_{a0}^{a1} da / (a^2 E(a))``."""
    return _expansion_integral(cosmology, a0, a1, 2)


@dataclass
class SubcycledStepper:
    """Advances particles through full SKS steps.

    Parameters
    ----------
    cosmology:
        Supplies the expansion history for the drift/kick integrals.
    long_range:
        Callback ``positions ->`` a fresh ``(N, 3)`` long-range (PM)
        acceleration, which :meth:`step` keeps for the next step.
    short_range:
        Callback ``positions -> (N, 3)`` short-range acceleration, or
        None for a PM-only run (in which case sub-cycling degenerates to
        pure streaming).
    n_subcycles:
        ``n_c`` in Eq. (6); the paper uses 5-10.
    kernel_backend:
        Kernel backend (name or instance) running the stream map, one
        pass per call; ``None`` resolves ``auto`` (c, else numpy).

    Notes
    -----
    The maps are applied exactly in the order of Eq. (6); the symmetric
    composition makes the integrator second-order and time-reversible up
    to force-freezing errors, which the reversibility test exploits.
    """

    cosmology: Cosmology
    long_range: Callable[[np.ndarray], np.ndarray]
    short_range: Callable[[np.ndarray], np.ndarray] | None
    n_subcycles: int = 5
    kernel_backend: object = None

    #: cumulative operation counters for the performance cross-check
    n_long_range_evals: int = field(default=0, init=False)
    n_short_range_evals: int = field(default=0, init=False)
    n_substeps: int = field(default=0, init=False)
    #: one row block of ``a * coeff``, reused by every kick
    _block: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(particles, positions, version, force)`` of the last closing kick
    _closing: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_subcycles < 1:
            raise ValueError(
                f"n_subcycles must be >= 1, got {self.n_subcycles}"
            )
        self._backend = resolve_backend(self.kernel_backend)

    # ------------------------------------------------------------------
    def _add_scaled(self, y: np.ndarray, a: np.ndarray, coeff: float):
        """``y += a * coeff`` (a kick) in row blocks through one small
        buffer.

        The expression's rounding, but no ``(N, 3)`` temporary (and its
        first-touch page faults) per map and no ``(N, 3)`` buffer held
        across the force evaluations; the caller's ``a`` — which a force
        callback may still own — is left untouched.
        """
        buf = self._block
        if buf is None or buf.dtype != a.dtype or buf.shape[1:] != a.shape[1:]:
            buf = self._block = np.empty((_BLOCK_ROWS,) + a.shape[1:], a.dtype)
        for start in range(0, len(a), _BLOCK_ROWS):
            rows = a[start:start + _BLOCK_ROWS]
            prod = np.multiply(rows, coeff, out=buf[:len(rows)])
            y[start:start + _BLOCK_ROWS] += prod

    def kick_long(self, particles: Particles, a0: float, a1: float,
                  acc: np.ndarray | None = None) -> np.ndarray:
        """Long-range kick map M_lr over [a0, a1]: velocities only; solves
        for the force ``acc`` unless it is given, and returns it."""
        if acc is None:
            acc = self.long_range(particles.positions)
            self.n_long_range_evals += 1
        with get_registry().span("sks.kick"):
            kick = kick_coefficient(self.cosmology, a0, a1)
            self._add_scaled(particles.momenta, acc, kick)
        return acc

    def stream(self, particles: Particles, a0: float, a1: float) -> None:
        """Stream map: positions advance, velocities fixed; the drift and
        the fold back into the box are one backend pass."""
        with get_registry().span("sks.stream"):
            drift = drift_coefficient(self.cosmology, a0, a1)
            self._backend.stream(particles.positions, particles.momenta,
                                 drift, particles.box_size)
            particles.version += 1

    def kick_short(self, particles: Particles, a0: float, a1: float) -> None:
        """Short-range kick map within a sub-cycle."""
        if self.short_range is None:
            return
        acc = self.short_range(particles.positions)
        self.n_short_range_evals += 1
        with get_registry().span("sks.kick"):
            kick = kick_coefficient(self.cosmology, a0, a1)
            self._add_scaled(particles.momenta, acc, kick)

    # ------------------------------------------------------------------
    def step(self, particles: Particles, a0: float, a1: float) -> None:
        """One full map  M_lr(1/2) (M_sr(1/nc))^nc M_lr(1/2)  over [a0, a1].

        ``n`` steps pay ``n + 1`` long-range solves: the closing force opens
        the next step if ``particles``, ``positions`` and ``version`` hold."""
        if not 0 < a0 < a1:
            raise ValueError(f"need 0 < a0 < a1, got a0={a0}, a1={a1}")
        reg = get_registry()
        a_mid = 0.5 * (a0 + a1)
        owner, x, version, acc = self._closing or (None,) * 4
        self._closing = ()
        same = owner is particles and x is particles.positions
        self.kick_long(particles, a0, a_mid,
                       acc if same and version == particles.version else None)
        del owner, x, acc  # not alive through the closing solve
        edges = np.linspace(a0, a1, self.n_subcycles + 1)
        for b0, b1 in zip(edges[:-1], edges[1:]):
            b_mid = 0.5 * (b0 + b1)
            with reg.span("sks.subcycle"):
                self.stream(particles, b0, b_mid)
                self.kick_short(particles, b0, b1)
                self.stream(particles, b_mid, b1)
            self.n_substeps += 1
            reg.count("sks.substeps", 1)
        acc = self.kick_long(particles, a_mid, a1)
        self._closing = particles, particles.positions, particles.version, acc
