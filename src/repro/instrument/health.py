"""Physics health monitoring: invariant thresholds and run verdicts.

A long N-body campaign can go numerically bad long before it crashes —
energy drifting, momentum accumulating from force asymmetries, a
corrupted FFT silently feeding garbage accelerations.  This module turns
the repo's physics invariants into *monitored* quantities:

* :class:`Threshold` / :class:`HealthThresholds` — WARN/CRIT levels per
  named check, with paper-informed defaults (the flagship runs hold the
  energy error to ~0.1%; we default to far looser levels suited to the
  small step counts of test runs);
* :class:`HealthMonitor` — consumes ``{check: value}`` samples each
  step, emits :class:`HealthEvent` records on threshold crossings, and
  reduces the run to an ``OK`` / ``WARN`` / ``CRIT`` verdict with a
  shell-friendly exit status (``CRIT`` → 2);
* :class:`SimulationHealth` — wires a live :class:`HACCSimulation` to
  the monitor: Layzer-Irvine residual (:mod:`repro.core.diagnostics`),
  total momentum drift, CIC mass conservation, and an FFT round-trip
  probe on the current density grid.

The monitor is deliberately dumb about *where* values come from — tests
drive it with synthetic series, the driver feeds it physics, and the
benchmark harness reads its verdict into ``BENCH_*.json`` records.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping

# NOTE: repro.core.diagnostics is imported lazily inside SimulationHealth.
# The diagnostics module pulls in the grid layer, which itself imports
# repro.instrument for counters — a top-level import here would close
# that cycle and break whichever module is imported first.

__all__ = [
    "Threshold",
    "HealthThresholds",
    "HealthEvent",
    "HealthMonitor",
    "SimulationHealth",
    "SEVERITY_ORDER",
    "worst_severity",
]

logger = logging.getLogger(__name__)

#: verdict severity ranking, mildest first
SEVERITY_ORDER = ("OK", "WARN", "CRIT")


@dataclass(frozen=True)
class Threshold:
    """A WARN/CRIT level pair for one monitored quantity (upper bounds)."""

    warn: float
    crit: float

    def __post_init__(self) -> None:
        if self.warn > self.crit:
            raise ValueError(
                f"warn level {self.warn} exceeds crit level {self.crit}"
            )

    def severity(self, value: float) -> str:
        """Classify ``value`` against the levels (NaN is always CRIT)."""
        if value != value:  # NaN: the quantity itself is broken
            return "CRIT"
        if value >= self.crit:
            return "CRIT"
        if value >= self.warn:
            return "WARN"
        return "OK"


@dataclass(frozen=True)
class HealthThresholds:
    """Default threshold set for the simulation's invariants.

    Calibrated against the repo's own healthy runs: the PM field-energy
    bookkeeping has a known spectral-vs-CIC discretization floor of
    ~10-15% of the integrated energy flux (the integration suite accepts
    0.15), so the energy WARN sits just above it — a WARN honestly flags
    runs stepped too coarsely for energy conservation (the default ``run``
    config transiently reaches ~3) while CRIT means the residual
    genuinely blew up.  Momentum drift, CIC mass defect and the FFT
    round trip are machine-precision quantities in a healthy run, so
    their levels sit many orders above the floor but far below any real
    failure.
    """

    energy_residual: Threshold = Threshold(warn=0.25, crit=5.0)
    momentum_drift: Threshold = Threshold(warn=1e-8, crit=1e-4)
    mass_error: Threshold = Threshold(warn=1e-10, crit=1e-6)
    fft_roundtrip: Threshold = Threshold(warn=1e-12, crit=1e-8)
    imbalance: Threshold = Threshold(warn=1.5, crit=3.0)

    def as_mapping(self) -> dict[str, Threshold]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_(self, **kwargs) -> "HealthThresholds":
        """Copy with selected checks replaced (Threshold or (warn, crit))."""
        coerced = {
            name: th if isinstance(th, Threshold) else Threshold(*th)
            for name, th in kwargs.items()
        }
        return replace(self, **coerced)


@dataclass(frozen=True)
class HealthEvent:
    """One threshold crossing observed at one step."""

    step: int
    severity: str
    check: str
    value: float
    threshold: float
    message: str

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "severity": self.severity,
            "check": self.check,
            "value": self.value,
            "threshold": self.threshold,
            "message": self.message,
        }


class HealthMonitor:
    """Threshold engine: samples in, events and a run verdict out."""

    def __init__(
        self, thresholds: HealthThresholds | Mapping[str, Threshold] | None = None
    ) -> None:
        if thresholds is None:
            thresholds = HealthThresholds()
        if isinstance(thresholds, HealthThresholds):
            thresholds = thresholds.as_mapping()
        self.thresholds: dict[str, Threshold] = dict(thresholds)
        self.events: list[HealthEvent] = []
        self.last_values: dict[str, float] = {}

    def check(
        self, step: int, values: Mapping[str, float]
    ) -> list[HealthEvent]:
        """Classify one step's samples; returns (and stores) new events.

        Values without a configured threshold are recorded in
        ``last_values`` but never alert — producers may feed extra
        context freely.
        """
        new: list[HealthEvent] = []
        for check, value in values.items():
            self.last_values[check] = float(value)
            threshold = self.thresholds.get(check)
            if threshold is None:
                continue
            severity = threshold.severity(float(value))
            if severity == "OK":
                continue
            bound = (
                threshold.crit if severity == "CRIT" else threshold.warn
            )
            event = HealthEvent(
                step=int(step),
                severity=severity,
                check=check,
                value=float(value),
                threshold=bound,
                message=(
                    f"{check} = {float(value):.3e} exceeds "
                    f"{severity} level {bound:.3e} at step {step}"
                ),
            )
            new.append(event)
            log = (
                logger.critical if severity == "CRIT" else logger.warning
            )
            log("health: %s", event.message)
        self.events.extend(new)
        return new

    def emit(
        self,
        step: int,
        severity: str,
        check: str,
        message: str = "",
        value: float = 0.0,
        threshold: float = 0.0,
    ) -> HealthEvent:
        """Record a discrete event that is not a threshold crossing.

        The resilience layer uses this for machine-fault events —
        ``rank_died`` (CRIT, a domain was lost and not reconstructed)
        and ``rank_recovered`` (WARN, rebuilt from overload replicas) —
        so machine faults land in the same event log, verdict, and exit
        status as the physics invariants.
        """
        if severity not in SEVERITY_ORDER:
            raise ValueError(
                f"severity must be one of {SEVERITY_ORDER}: {severity!r}"
            )
        event = HealthEvent(
            step=int(step),
            severity=severity,
            check=check,
            value=float(value),
            threshold=float(threshold),
            message=message or f"{check} at step {step}",
        )
        if severity != "OK":
            self.events.append(event)
            log = (
                logger.critical if severity == "CRIT" else logger.warning
            )
            log("health: %s", event.message)
        return event

    # ------------------------------------------------------------------
    def verdict(self) -> str:
        """Worst severity seen over the whole run."""
        return worst_severity(ev.severity for ev in self.events)

    def exit_status(self) -> int:
        """Shell status: 0 for OK/WARN, 2 for CRIT."""
        return 2 if self.verdict() == "CRIT" else 0

    def summary(self) -> dict:
        """Verdict plus event counts, for bench records and end-of-run."""
        return {
            "verdict": self.verdict(),
            "warnings": sum(1 for e in self.events if e.severity == "WARN"),
            "criticals": sum(1 for e in self.events if e.severity == "CRIT"),
            "last_values": dict(self.last_values),
        }


class SimulationHealth:
    """Attach physics health monitoring to a :class:`HACCSimulation`.

    Construct it right after the simulation (it snapshots the initial
    energy state and momentum); the driver measures :meth:`values`
    after every step and classifies them through :attr:`monitor` when
    it is installed as ``sim.health``
    (:meth:`~repro.core.simulation.HACCSimulation.attach_health`).

    Parameters
    ----------
    sim:
        The simulation to watch.
    thresholds:
        Override the default :class:`HealthThresholds`.
    """

    def __init__(
        self,
        sim,
        thresholds: HealthThresholds | None = None,
    ) -> None:
        from repro.core.diagnostics import (
            LayzerIrvineMonitor,
            total_momentum,
        )

        self.sim = sim
        self.monitor = HealthMonitor(thresholds)
        self.energy = LayzerIrvineMonitor(
            sim.poisson, sim.cosmology.omega_m
        )
        self.energy.record(sim.particles, sim.a)
        self._p0 = total_momentum(sim.particles)

    def values(self) -> dict[str, float]:
        """Measure the current invariants (records an energy state);
        the FFT round-trip probe costs one transform pair on the PM
        grid."""
        from repro.core.diagnostics import (
            cic_mass_error,
            fft_roundtrip_error,
            momentum_drift,
        )

        sim = self.sim
        self.energy.record(sim.particles, sim.a)
        return {
            "energy_residual": abs(self.energy.relative_residual()),
            "momentum_drift": momentum_drift(sim.particles, self._p0),
            "mass_error": cic_mass_error(sim.particles, sim.config.grid()),
            "fft_roundtrip": fft_roundtrip_error(sim.density_contrast()),
        }

    # convenience forwarders ------------------------------------------------
    def verdict(self) -> str:
        return self.monitor.verdict()

    def exit_status(self) -> int:
        return self.monitor.exit_status()

    def summary(self) -> dict:
        return self.monitor.summary()


def worst_severity(severities: Iterable[str]) -> str:
    """Reduce a set of severity strings to the worst one."""
    worst = 0
    for s in severities:
        worst = max(worst, SEVERITY_ORDER.index(s))
    return SEVERITY_ORDER[worst]
