"""The HACC simulation driver.

Wires together everything below it: Zel'dovich/2LPT initial conditions,
the spectrally filtered PM Poisson solver (long/medium range), a
rank-local short-range backend (RCB TreePM, P3M, direct, or none), and
the sub-cycled SKS symplectic stepper.  The short-range force is always
evaluated over *overloaded domains* (the paper's multi-rank
configuration); an undecomposed run is the one-domain (1, 1, 1) case,
whose replicas are the box's periodic images.

Force normalization
-------------------
The code evolves ``dp/da = g K`` with ``g = -grad phi``,
``del^2 phi = (3/2) Omega_m delta`` (see :mod:`repro.core.timestepper`).
The PM component supplies the filtered ``delta``-sourced force; the
short-range component adds ``(3/2) Omega_m (V / 4 pi N) sum m_j f_SR``,
the same normalization measured and fitted in
:mod:`repro.shortrange.grid_force`, so PM + SR sums to the exact Newtonian
pair force inside the handover radius.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.config import ConfigError, SimulationConfig
from repro.instrument import get_registry
from repro.core.particles import Particles
from repro.core.timestepper import SubcycledStepper
from repro.cosmology.initial_conditions import make_initial_conditions
from repro.grid.poisson import SpectralPoissonSolver
from repro.parallel.executor import RankExecutor
from repro.resilience.faults import FaultPlan, NullFaultPlan
from repro.shortrange.grid_force import (
    default_grid_force_fit,
    pair_force_normalization,
)
from repro.shortrange.backends import resolve_backend
from repro.shortrange.kernel import ShortRangeKernel
from repro.shortrange.solvers import build_solver

if TYPE_CHECKING:  # imported where a run with a short range builds one
    from repro.parallel.overload import OverloadExchange

__all__ = ["HACCSimulation"]

logger = logging.getLogger(__name__)


def _solve_domain(solver, faults, dom):
    """One rank's short-range solve — the task body of every dispatch.

    Every executor runs this same body on the domain (its rows as
    routed, actives first; same float operations), so results are
    bit-identical wherever it runs.  Returns ``(accelerations,
    (streamed, inside), tree_depth)``; the pair counts are the solver's
    ``last_pairs``, already charged to the registry by the solve itself.
    ``faults`` is the run's fault plan (its per-domain straggler hook).
    """
    faults.sleep("shortrange.domain")
    if dom.n_total == 0:
        return np.zeros((0, 3), dtype=np.float64), (0, 0), None
    local = solver.accelerations_cloud(
        dom.positions, dom.masses, dom.n_active
    )
    return local, solver.last_pairs, getattr(solver, "last_tree_depth", None)


def _charge_domain_gauges(tel, dom, pairs, depth) -> None:
    """One domain's per-rank gauges, whichever thread solved it.

    Every domain charges ``particles``, ``ghosts`` and ``interactions``
    (zero for an empty one), so the imbalance factors never depend on
    the executor; ``ghost_fraction`` is passive/active and undefined
    without actives, and ``tree_depth`` exists only where a tree was
    built.
    """
    tel.gauge("particles", dom.rank, dom.n_active)
    tel.gauge("ghosts", dom.rank, dom.n_passive)
    if dom.n_active:
        tel.gauge("ghost_fraction", dom.rank, dom.overload_fraction())
    tel.add_gauge("interactions", dom.rank, pairs)
    if depth is not None:
        tel.gauge("tree_depth", dom.rank, depth)


class HACCSimulation:
    """A full HACC-style N-body simulation.

    Parameters
    ----------
    config:
        Run parameters (:class:`repro.config.SimulationConfig`).
    particles:
        Optional pre-built particle state; by default Zel'dovich/2LPT
        initial conditions are generated from ``config``.
    decomposition_dims:
        Rank domains of the short-range solve (e.g. ``(2, 2, 2)``), the
        paper's parallel structure.  ``None`` is one domain,
        ``(1, 1, 1)``: every short-range evaluation (treepm, p3m,
        direct) re-``distribute``s the particles over the domains and
        solves each one (the driver never calls
        ``OverloadExchange.refresh``), so an undecomposed run differs
        from a decomposed one only in the domain count.
    overload_depth:
        Overload shell depth in Mpc/h, decomposed or not (a PM-only run
        without domains has no shell); defaults to the short-range
        cutoff (the driver redistributes at every evaluation, so nothing
        drifts between refreshes).  With a
        short-range backend a depth below the cutoff is a
        :class:`~repro.config.ConfigError`: sources inside the cutoff
        would be missing; so is a depth of half a domain width or more.
    faults:
        The run's :class:`repro.resilience.faults.FaultPlan` (default:
        the inert :class:`~repro.resilience.faults.NullFaultPlan`).  A
        fault the run can never have — a rank death on a run without
        ``decomposition_dims``, a rank it does not have or a step past
        its last, a slow-down of a section it never visits — is a
        :class:`~repro.config.ConfigError`.
    recover_on_rank_death:
        When an injected rank death hits a decomposed run, reconstruct
        the lost domain from the neighbors' overload replicas (default).
        Disabled, the loss is recorded as a CRIT ``rank_died`` health
        event and the domain's short-range contribution is dropped.

    Examples
    --------
    >>> from repro.config import SimulationConfig
    >>> cfg = SimulationConfig(box_size=64.0, n_per_dim=8, n_steps=2,
    ...                        backend="pm", z_initial=20.0, z_final=10.0)
    >>> sim = HACCSimulation(cfg)
    >>> sim.run()
    >>> bool(abs(sim.a - cfg.a_final) < 1e-12)
    True
    """

    def __init__(
        self,
        config: SimulationConfig,
        particles: Particles | None = None,
        decomposition_dims: tuple[int, int, int] | None = None,
        overload_depth: float | None = None,
        faults: FaultPlan | NullFaultPlan = NullFaultPlan(),
        recover_on_rank_death: bool = True,
    ) -> None:
        self.config = config
        self.cosmology = config.cosmology
        self.prefactor = 1.5 * self.cosmology.omega_m

        # resolve the kernel backend ONCE (auto -> c, else numpy when it
        # cannot be built; an explicit unavailable name fails here) and
        # carry the resolved *name* everywhere — including into the solver
        # each executor thread builds for itself
        self.kernel_backend: str = resolve_backend(config.kernel_backend).name

        self.poisson = SpectralPoissonSolver(
            config.grid(),
            config.box_size,
            sigma=config.sigma,
            ns=config.ns,
            laplacian_order=config.laplacian_order,
            gradient_order=config.gradient_order,
            dtype=None if config.dtype == "f64" else config.precision_dtype,
            kernel_backend=self.kernel_backend,
        )

        if particles is None:
            ics = make_initial_conditions(
                self.cosmology,
                n_per_dim=config.n_per_dim,
                box_size=config.box_size,
                z_init=config.z_initial,
                seed=config.seed,
                order=config.lpt_order,
                kernel_backend=self.kernel_backend,
            )
            particles = Particles.from_ics(ics)
        if particles.box_size != config.box_size:
            raise ValueError(
                f"particle box {particles.box_size} != config box "
                f"{config.box_size}"
            )
        # the config's precision is policy: cast the particle state once
        # at construction (a no-op for the default f64 path, whose ICs
        # are already float64)
        if particles.positions.dtype != config.precision_dtype:
            particles = particles.astype(config.precision_dtype)
        self.particles = particles
        self.pair_norm = pair_force_normalization(
            config.box_size, self.particles.n
        )

        self.kernel: ShortRangeKernel | None = None
        self.short_solver = None
        #: streamed short-range pairs of the whole run
        self._interactions = 0
        if config.backend != "pm":
            fit = default_grid_force_fit(
                config.sigma, config.ns, config.rcut_cells
            )
            self.kernel = ShortRangeKernel(
                fit,
                config.spacing(),
                eps_cells=config.eps_cells,
                dtype=config.precision_dtype,
            )
            self.short_solver = self._build_solver()

        #: rank executor running the per-domain short-range solves
        #: (see :mod:`repro.parallel.executor`); the PM solve is serial
        self.executor = RankExecutor.from_config(config)
        self._thread_solver = threading.local()

        #: the user's rank domains; ``None`` runs on one, (1, 1, 1)
        self.decomposition_dims = decomposition_dims
        self.exchange: OverloadExchange | None = None
        self.recover_on_rank_death = bool(recover_on_rank_death)
        self.recovery_reports: list = []
        self._fault_events: list = []
        # a PM-only run without domains solves no short range: no shell
        if self.short_solver is not None or decomposition_dims is not None:
            from repro.parallel.decomposition import DomainDecomposition
            from repro.parallel.overload import OverloadExchange

            decomp = DomainDecomposition(
                config.box_size, decomposition_dims or (1, 1, 1)
            )
            depth = config.rcut() if overload_depth is None else overload_depth
            if self.short_solver is not None and depth < config.rcut():
                raise ConfigError(
                    f"overload depth {depth:g} Mpc/h is below the "
                    f"short-range cutoff rcut = {config.rcut():g} Mpc/h: "
                    f"sources across domain boundaries would be missing"
                )
            try:
                self.exchange = OverloadExchange(
                    decomp, depth, backend=self.kernel_backend
                )
            except ValueError as exc:  # a shell half a domain deep
                raise ConfigError(str(exc)) from None
        self.faults = faults
        if faults.enabled:
            self._check_faults()

        self.stepper = SubcycledStepper(
            cosmology=self.cosmology,
            long_range=self._long_range,
            short_range=(
                self._short_range if self.short_solver is not None else None
            ),
            n_subcycles=config.n_subcycles,
            kernel_backend=self.kernel_backend,
        )
        self.a = config.a_initial
        self._edges = config.step_edges()
        self._step_index = 0
        #: optional physics health monitor (see :meth:`attach_health`)
        self.health = None
        #: optional per-rank telemetry collector of this run
        #: (:class:`repro.instrument.Telemetry`); ``None`` records nothing
        self.telemetry = None
        self._comm_bytes_prev: np.ndarray | None = None

    # ------------------------------------------------------------------
    # force callbacks
    # ------------------------------------------------------------------
    def _long_range(self, positions: np.ndarray) -> np.ndarray:
        with get_registry().span("longrange"):
            acc = self.poisson.accelerations(
                positions, weights=self.particles.masses
            )
            acc *= self.prefactor  # the solver's fresh array: no temporary
        return acc

    def _short_range(self, positions: np.ndarray) -> np.ndarray:
        """Per-domain rank-local short-range force via overloading.

        Active particles of each domain are the targets; the domain's
        passive replicas supply the boundary sources, so no ghosts and no
        communication are needed during the force evaluation itself —
        exactly the decoupling the paper's overloading buys.  An
        undecomposed run takes this same path over its one domain.

        Every per-domain solve goes through the rank executor, whatever
        its backend and worker count, so a failing domain is always a
        :class:`~repro.parallel.executor.WorkerError` naming its rank.
        Each solve charges its own pair counters where it runs (exact in
        any order); the acceleration scatter, the run's interaction
        total and the telemetry gauges reduce here in rank order, which
        is what makes the result bit-identical for every backend.
        Collectives already happened (``distribute``) and the next one
        waits for ``map`` to join all ranks, so the bulk-synchronous
        structure is preserved.  The domains carry row numbers of
        ``positions`` as their ids, so the scatter needs no id lookup
        and holds for any particle ids.
        """
        self.faults.sleep("shortrange")
        with get_registry().span("shortrange"):
            domains = self.exchange.distribute(
                positions, self.particles.momenta, self.particles.masses
            )
            if self.faults.enabled:
                domains = self._handle_rank_death(domains)
            # the driver's own thread solves with the driver's solver
            self._thread_solver.solver = self.short_solver
            results = self.executor.map(
                lambda dom: _solve_domain(
                    self._local_solver(), self.faults, dom
                ),
                domains,
                ranks=[dom.rank for dom in domains],
                label="shortrange.domain",
            )
            tel = self.telemetry
            acc = np.zeros_like(positions)
            for dom, (local, (pairs, _), depth) in zip(domains, results):
                self._interactions += pairs
                if tel is not None:
                    _charge_domain_gauges(tel, dom, pairs, depth)
                if dom.n_total == 0:
                    continue
                acc[dom.ids[:dom.n_active]] = local
            acc *= self.prefactor * self.pair_norm
        return acc

    def _build_solver(self):
        return build_solver(
            self.config.backend,
            self.kernel,
            leaf_size=self.config.leaf_size,
            kernel_backend=self.kernel_backend,
        )

    def _local_solver(self):
        """The short-range solver of the calling thread.

        The driver's thread has ``self.short_solver``; an executor
        thread builds its own once, around the shared immutable kernel,
        because a solver's engine workspace is grow-only and must not be
        shared between concurrent evaluations.
        """
        solver = getattr(self._thread_solver, "solver", None)
        if solver is None:
            solver = self._thread_solver.solver = self._build_solver()
        return solver

    def close(self) -> None:
        """Release the executor's thread pool (idempotent)."""
        self.executor.close()

    def __enter__(self) -> "HACCSimulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _check_faults(self) -> None:
        """Reject a fault plan this run can never act on."""
        sections: set[str] = set()
        n_ranks = 0
        if self.short_solver is not None:
            sections |= {"shortrange", "shortrange.domain"}
            # a rank death needs domains the user asked for
            if self.decomposition_dims is not None:
                n_ranks = self.exchange.decomposition.n_ranks
        self.faults.check_run(
            self.config.n_steps, n_ranks, frozenset(sections)
        )

    def _handle_rank_death(self, domains):
        """Apply any scheduled rank death to this force evaluation.

        With recovery enabled (the default) the dead domains are rebuilt
        from the survivors' overload replicas
        (:func:`repro.resilience.recovery.recover_ranks`) and a WARN
        ``rank_recovered`` health event is logged per rank; otherwise the
        domains are simply dropped — their particles get no short-range
        kick this evaluation — and the loss is a CRIT ``rank_died``
        event that forces the run verdict to CRIT.
        """
        dead = self.faults.ranks_to_kill()
        if not dead:
            return domains
        step = self._step_index
        if not self.recover_on_rank_death:
            for r in sorted(dead):
                self._emit_fault_event(
                    "CRIT",
                    "rank_died",
                    f"rank {r} died at step {step} and was not recovered",
                )
            logger.critical(
                "faults: rank(s) %s died at step %d (recovery disabled)",
                sorted(dead), step,
            )
            return [d for d in domains if d.rank not in dead]
        from repro.resilience.recovery import recover_ranks

        domains, report = recover_ranks(self.exchange, domains, dead)
        # the domains' ids are rows: report the particles' own ids
        report.lost_ids = np.sort(self.particles.ids[report.lost_ids])
        self.recovery_reports.append(report)
        self.faults.note_recovery("rank_death", len(dead))
        for r in sorted(dead):
            self._emit_fault_event(
                "WARN",
                "rank_recovered",
                f"rank {r} died at step {step}; rebuilt "
                f"{report.recovered_by_rank.get(r, 0)} of its particles "
                f"from overload replicas "
                f"({report.n_lost} lost beyond the overload depth)",
                value=float(report.recovered_by_rank.get(r, 0)),
            )
        logger.warning(
            "faults: recovered rank(s) %s at step %d "
            "(%d particles rebuilt, %d lost, coverage %.3f)",
            sorted(dead), step, report.n_recovered, report.n_lost,
            report.coverage(),
        )
        return domains

    # ------------------------------------------------------------------
    # telemetry / health
    # ------------------------------------------------------------------
    def _emit_fault_event(
        self, severity: str, check: str, message: str, value: float = 0.0
    ):
        """Record a machine-fault event for health + telemetry.

        Routed through the attached health monitor when there is one (so
        it counts toward the run verdict / exit status); always queued
        for the step's telemetry ``alerts`` either way.
        """
        from repro.instrument.health import HealthEvent

        if self.health is not None:
            event = self.health.monitor.emit(
                self._step_index, severity, check, message=message,
                value=value,
            )
        else:
            event = HealthEvent(
                step=self._step_index,
                severity=severity,
                check=check,
                value=float(value),
                threshold=0.0,
                message=message,
            )
        self._fault_events.append(event)
        return event
    def attach_health(self, thresholds=None):
        """Enable physics health monitoring (see
        :class:`repro.instrument.SimulationHealth`).

        Must be called before the first step — the monitor snapshots the
        initial energy state and total momentum.  Returns the monitor.
        """
        from repro.instrument import SimulationHealth

        if self._step_index != 0:
            raise RuntimeError(
                "attach_health must be called before the first step"
            )
        self.health = SimulationHealth(self, thresholds=thresholds)
        return self.health

    def _record_telemetry(self, wall: float, window=None) -> None:
        """Close out one step's telemetry: comm gauges, health, record.

        Runs only when telemetry or health monitoring is enabled, after
        the step completes; ``self._step_index`` already names the
        *count* of finished steps, so the record carries index
        ``_step_index - 1`` (0-based).  ``window`` is the registry's
        :meth:`~repro.instrument.Registry.mark` taken as the step began
        (``None`` with the registry off).
        """
        step_index = self._step_index - 1
        tel = self.telemetry
        if tel is not None and self.decomposition_dims is not None:
            sent = self.exchange.comm.stats.rank_send_bytes()
            prev = self._comm_bytes_prev
            delta = sent if prev is None else sent - prev
            self._comm_bytes_prev = sent
            for rank, nbytes in enumerate(delta):
                tel.gauge("comm_bytes", rank, float(nbytes))
        residuals: dict[str, float] = {}
        alerts: tuple = ()
        if self.health is not None:
            values = self.health.values()
            residuals = dict(values)
            if tel is not None:
                imb = tel.peek_imbalance()
                if imb:
                    values["imbalance"] = max(imb.values())
            events = self.health.monitor.check(step_index, values)
            alerts = tuple(e.to_dict() for e in events)
        if self._fault_events:
            alerts = tuple(
                e.to_dict() for e in self._fault_events
            ) + alerts
            self._fault_events.clear()
        if tel is not None:
            # achieved-throughput summary of the step just closed: its
            # span events and counter deltas, which the perfcount work
            # model converts to GFLOP/s and ns/pair
            perf = None
            if window is not None:
                from repro.instrument.perfcount import step_perf

                perf = step_perf(*get_registry().since(window))
            tel.record_step(
                step_index,
                self.a,
                wall,
                residuals=residuals,
                alerts=alerts,
                perf=perf,
            )

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance one full long-range step (with sub-cycling).

        When instrumentation is enabled the step is bracketed by a
        ``step`` span; with telemetry on too, the step's span events and
        counter deltas become its telemetry ``perf`` block.
        """
        if self._step_index >= self.config.n_steps:
            raise RuntimeError("simulation already at final time")
        a0 = self._edges[self._step_index]
        a1 = self._edges[self._step_index + 1]
        reg = get_registry()
        if self.faults.enabled:
            self.faults.begin_step(self._step_index)
        window = (
            reg.mark() if reg.enabled and self.telemetry is not None
            else None
        )
        t0 = time.perf_counter()
        with reg.span("step"):
            self.stepper.step(self.particles, a0, a1)
        wall = time.perf_counter() - t0
        self.a = a1
        self._step_index += 1
        if self.telemetry is not None or self.health is not None:
            self._record_telemetry(wall, window)
        elif self._fault_events:
            self._fault_events.clear()
        logger.debug(
            "step %d/%d done: a = %.5f (z = %.3f)",
            self._step_index, self.config.n_steps, self.a, self.redshift,
        )

    def run(
        self,
        callback: Callable[["HACCSimulation"], None] | None = None,
        checkpointer=None,
    ) -> None:
        """Run to the final redshift, invoking ``callback`` after each step.

        When a :class:`repro.io.Checkpointer` is given, its schedule is
        consulted after every step (and the final state is always
        written), so an interrupted run can be resumed from the latest
        valid checkpoint.
        """
        logger.debug(
            "run: %d particles, %d steps x %d subcycles, backend=%s",
            self.particles.n, self.config.n_steps,
            self.config.n_subcycles, self.config.backend,
        )
        try:
            while self._step_index < self.config.n_steps:
                self.step()
                if callback is not None:
                    callback(self)
                if checkpointer is not None:
                    final = self._step_index >= self.config.n_steps
                    checkpointer.maybe_checkpoint(self, force=final)
        except BaseException as exc:
            self._flush_telemetry_on_crash(exc)
            raise

    def _flush_telemetry_on_crash(self, exc: BaseException) -> None:
        """Leave an analyzable stream behind when the driver dies.

        A crashed run is exactly the one whose telemetry matters most:
        write the ``end`` record (verdict ``CRASHED``, the exception, the
        step reached) and close the stream, so ``monitor`` and the run
        ledger see a complete — if short — stream instead of a dangling
        file.  A graceful preemption (SIGTERM/SIGINT converted to
        :class:`~repro.resilience.signals.ShutdownRequested`) is not a
        crash: it ends with verdict ``INTERRUPTED`` so monitors and the
        campaign supervisor can tell "resumable" from "broken".  Never
        raises: the original exception must propagate.
        """
        try:
            from repro.resilience.signals import ShutdownRequested

            verdict = (
                "INTERRUPTED"
                if isinstance(exc, ShutdownRequested)
                else "CRASHED"
            )
            if self.telemetry is not None:
                self.telemetry.finish(
                    verdict=verdict,
                    error=f"{type(exc).__name__}: {exc}",
                    crashed_at_step=self._step_index,
                )
        except Exception:  # pragma: no cover - best-effort teardown
            logger.exception("telemetry flush on crash failed")

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    @property
    def redshift(self) -> float:
        return 1.0 / self.a - 1.0

    def interaction_count(self) -> int:
        """Cumulative streamed short-range pairs (perf cross-check).

        Summed by the driver from each solve's ``last_pairs``, with or
        without a live registry; a profiled run's ``pp.interactions``
        counter charges the same solves, so the two agree.
        """
        return self._interactions

    def density_contrast(self, n: int | None = None) -> np.ndarray:
        """Current CIC density contrast on an ``n^3`` grid."""
        from repro.grid.cic import density_contrast

        return density_contrast(
            self.particles.positions,
            n if n is not None else self.config.grid(),
            self.config.box_size,
            self.particles.masses,
        )
