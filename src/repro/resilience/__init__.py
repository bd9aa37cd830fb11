"""Fault tolerance: injection, rank recovery and graceful shutdown.

Three pieces (see the module docstrings for the design):

* :mod:`repro.resilience.faults` — the seeded
  :class:`~repro.resilience.faults.FaultPlan` a run is handed
  (``HACCSimulation(..., faults=plan)``) and the hooks its production
  paths consult (rank death, checkpoint corruption, short-range
  slow-downs);
* :mod:`repro.resilience.recovery` — reconstruction of a dead rank's
  domain from the neighbors' particle-overload replicas;
* :mod:`repro.resilience.signals` — SIGTERM/SIGINT turned into a
  checkpoint-and-exit.

This ``__init__`` resolves its exports lazily (PEP 562), so importing
the package (or one light submodule, such as ``signals`` from the
campaign supervisor) does not pull in the others.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "faults": ("NullFaultPlan", "FaultPlan"),
    "recovery": ("RecoveryReport", "harvest_replicas", "recover_ranks"),
    "signals": (
        "INTERRUPTED_EXIT_CODE", "ShutdownRequested", "graceful_shutdown",
    ),
})
