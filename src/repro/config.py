"""Run configuration for the HACC reproduction.

One frozen dataclass gathers every knob the paper exposes — box size,
particle loading, filter parameters, handover radius, sub-cycling count,
short-range backend — with validation, so misconfigured runs fail at
construction instead of mid-simulation.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from repro.cosmology.background import WMAP7, Cosmology

__all__ = ["ConfigError", "SimulationConfig"]

_BACKENDS = ("treepm", "p3m", "direct", "pm")
_EXECUTORS = ("serial", "thread")
#: the largest handover radius, in cells, the grid-force fit can serve:
#: ``measure_grid_force`` samples separations only this far, so a larger
#: cutoff would extrapolate the polynomial
_MAX_RCUT_CELLS = 4.5
_KERNEL_BACKENDS = ("auto", "numpy", "c")
_PRECISIONS = ("f32", "f64")


_PROCESS_RETIRED = (
    "the process executor and its rank groups were removed; use "
    "executor 'thread', which gives the bits of serial at any worker count"
)
#: the one ``chunk_pairs`` value configurations ever held
_CHUNK_PAIRS_RETIRED = 1 << 18


class ConfigError(ValueError):
    """A run shape rejected at construction: raised by the field
    validation below and by the driver's overload-depth check.  The CLI
    reports exactly these as one line; other errors keep a traceback."""


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to set up and evolve a simulation.

    Parameters
    ----------
    box_size:
        Comoving box side, Mpc/h.
    n_per_dim:
        Particles per dimension (total ``n_per_dim^3``).
    grid_size:
        PM grid points per dimension (default: equal to ``n_per_dim``,
        the paper's standard loading of ~1 particle per cell).
    z_initial, z_final:
        Start / end redshifts (paper benchmark: 25 -> 0).
    n_steps:
        Number of full (long-range) steps.
    n_subcycles:
        Short-range sub-cycles per long-range step (paper: 5-10).
    backend:
        Short-range solver: ``"treepm"`` (BG/Q path), ``"p3m"``
        (Roadrunner path), ``"direct"`` (O(N^2) reference) or ``"pm"``
        (long-range only).
    sigma, ns:
        Spectral-filter parameters (Eq. 5; nominal 0.8 / 3).
    rcut_cells:
        Short/long handover radius in grid cells (nominal 3, at most
        4.5).
    leaf_size:
        RCB fat-leaf capacity (treepm backend).
    eps_cells:
        Short-range force softening (cells^2).
    lpt_order:
        1 = Zel'dovich, 2 = 2LPT initial conditions.
    step_spacing:
        ``"a"`` for uniform scale-factor steps, ``"loga"`` for uniform
        logarithmic steps.
    workers:
        Worker count for the rank executor (the node-level concurrency
        of the paper's hybrid MPI+OpenMP model; see
        :mod:`repro.parallel.executor`).  It decides only where the
        per-domain short-range solves of a decomposed run execute: every
        ``(executor, workers)`` pair gives the bits of serial at
        ``workers=1``.
    executor:
        Rank-executor backend: ``"serial"`` (default) or ``"thread"``
        (a thread pool; the compiled kernels release the GIL).
    kernel_backend:
        Short-range inner-loop implementation: ``"auto"`` (default;
        the compiled C kernel, else numpy when it cannot be built or
        loaded), ``"numpy"`` (vectorized reference) or ``"c"`` (fused C
        loop, bitwise the numpy result).  Explicitly requesting ``"c"``
        where it cannot be built fails loudly at construction.
    dtype:
        Floating-point precision of the particle state and force
        kernels: ``"f64"`` (default) or ``"f32"`` (the paper's
        mixed-precision mode — single-precision particles and kernels
        end to end; the spectral k-kernels are still *derived* in
        float64 before being cast).
    seed:
        White-noise seed for the initial conditions.
    cosmology:
        Background model (default WMAP7-era parameters).
    """

    box_size: float
    n_per_dim: int
    grid_size: int | None = None
    z_initial: float = 25.0
    z_final: float = 0.0
    n_steps: int = 32
    n_subcycles: int = 5
    backend: str = "treepm"
    sigma: float = 0.8
    ns: int = 3
    rcut_cells: float = 3.0
    leaf_size: int = 128
    eps_cells: float = 0.0
    laplacian_order: int = 6
    gradient_order: int = 4
    lpt_order: int = 1
    step_spacing: str = "a"
    workers: int = 1
    executor: str = "serial"
    kernel_backend: str = "auto"
    dtype: str = "f64"
    seed: int = 0
    cosmology: Cosmology = field(default_factory=lambda: WMAP7)

    def __post_init__(self) -> None:
        # first: a NaN passes every comparison below
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite: {value}")
        if self.box_size <= 0:
            raise ConfigError(f"box_size must be positive: {self.box_size}")
        if self.n_per_dim < 2:
            raise ConfigError(f"n_per_dim must be >= 2: {self.n_per_dim}")
        if self.grid() < 4:
            raise ConfigError(f"grid_size must be >= 4: {self.grid()}")
        if self.z_initial <= self.z_final:
            raise ConfigError(
                f"z_initial ({self.z_initial}) must exceed z_final "
                f"({self.z_final})"
            )
        if self.z_final < 0:
            raise ConfigError(f"z_final must be >= 0: {self.z_final}")
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1: {self.n_steps}")
        if self.n_subcycles < 1:
            raise ConfigError(f"n_subcycles must be >= 1: {self.n_subcycles}")
        if self.backend not in _BACKENDS:
            raise ConfigError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.step_spacing not in ("a", "loga"):
            raise ConfigError(
                f"step_spacing must be 'a' or 'loga': {self.step_spacing!r}"
            )
        if self.rcut_cells <= 0:
            raise ConfigError(
                f"rcut_cells must be positive: {self.rcut_cells}"
            )
        if self.rcut_cells > _MAX_RCUT_CELLS:
            raise ConfigError(
                f"rcut_cells must be <= {_MAX_RCUT_CELLS} (the range the "
                f"grid-force fit samples): {self.rcut_cells}"
            )
        if self.leaf_size < 1:
            raise ConfigError(f"leaf_size must be >= 1: {self.leaf_size}")
        if self.eps_cells < 0:
            raise ConfigError(f"eps_cells must be >= 0: {self.eps_cells}")
        if self.rcut() >= self.box_size / 2:
            raise ConfigError(
                "short-range cutoff exceeds half the box; increase the "
                "grid or the box"
            )
        if self.lpt_order not in (1, 2):
            raise ConfigError(f"lpt_order must be 1 or 2: {self.lpt_order}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1: {self.workers}")
        if self.executor == "process":
            raise ConfigError(_PROCESS_RETIRED)
        if self.executor not in _EXECUTORS:
            raise ConfigError(
                f"executor must be one of {_EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.kernel_backend not in _KERNEL_BACKENDS:
            raise ConfigError(
                f"kernel_backend must be one of {_KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
        if self.dtype not in _PRECISIONS:
            raise ConfigError(
                f"dtype must be one of {_PRECISIONS}, got {self.dtype!r}"
            )

    # ------------------------------------------------------------------
    def grid(self) -> int:
        """Effective PM grid size."""
        return self.grid_size if self.grid_size is not None else self.n_per_dim

    @property
    def n_particles(self) -> int:
        return self.n_per_dim**3

    @property
    def a_initial(self) -> float:
        return 1.0 / (1.0 + self.z_initial)

    @property
    def a_final(self) -> float:
        return 1.0 / (1.0 + self.z_final)

    def spacing(self) -> float:
        """PM grid spacing, Mpc/h."""
        return self.box_size / self.grid()

    def rcut(self) -> float:
        """Physical short/long handover radius, Mpc/h."""
        return self.rcut_cells * self.spacing()

    @property
    def precision(self) -> str:
        """``dtype`` under its ledger column name (``"f64"`` / ``"f32"``)."""
        return self.dtype

    @property
    def precision_dtype(self) -> type:
        """The NumPy scalar type named by ``dtype``."""
        return np.float32 if self.dtype == "f32" else np.float64

    def step_edges(self) -> np.ndarray:
        """Scale-factor values bounding each full step (length n_steps+1)."""
        if self.step_spacing == "a":
            return np.linspace(self.a_initial, self.a_final, self.n_steps + 1)
        return np.exp(
            np.linspace(
                np.log(self.a_initial), np.log(self.a_final), self.n_steps + 1
            )
        )

    def with_(self, **kwargs) -> "SimulationConfig":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # provenance
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON view of the full configuration (cosmology nested)."""
        return asdict(self)

    def config_hash(self) -> str:
        """Short stable hash of the configuration for run manifests.

        Two runs share a hash iff every field (cosmology included) is
        equal, so a telemetry stream identifies the run that produced it.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationConfig":
        """Rebuild a configuration from its :meth:`to_dict` form.

        The inverse of :meth:`to_dict` (the round trip preserves the
        hash); the nested cosmology mapping becomes a
        :class:`~repro.cosmology.background.Cosmology`.  Unknown keys
        raise ``TypeError`` so a stale or foreign payload fails loudly
        instead of silently dropping a knob.  The exceptions are retired
        fields that every earlier checkpoint and ``--config`` file
        carries: ``shortrange_naive: false``, ``worker_groups: 1`` and
        ``chunk_pairs: 262144`` asked for what is now the only path, so
        they are dropped; ``shortrange_naive: true`` still fails, any
        other ``worker_groups`` is a :class:`ConfigError` naming
        ``thread``, and any other ``chunk_pairs`` one naming its
        retirement.  ``overlap`` is dropped whatever its value: the
        overlapped schedule produced the synchronous trajectory bit for
        bit.
        """
        payload = dict(data)
        payload.pop("overlap", None)
        if payload.get("shortrange_naive") is False:
            del payload["shortrange_naive"]
        if payload.pop("worker_groups", 1) != 1:
            raise ConfigError(_PROCESS_RETIRED)
        chunk = payload.pop("chunk_pairs", _CHUNK_PAIRS_RETIRED)
        if chunk != _CHUNK_PAIRS_RETIRED:
            raise ConfigError(
                f"chunk_pairs was removed: every group now sums its whole "
                f"source list in one partial; only the former default "
                f"{_CHUNK_PAIRS_RETIRED} still loads, got {chunk!r}"
            )
        cosmo = payload.get("cosmology")
        if isinstance(cosmo, dict):
            payload["cosmology"] = Cosmology(**cosmo)
        return cls(**payload)
