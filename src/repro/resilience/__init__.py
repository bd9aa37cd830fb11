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

_EXPORTS = {
    "NullFaultPlan": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "RecoveryReport": "repro.resilience.recovery",
    "harvest_replicas": "repro.resilience.recovery",
    "recover_ranks": "repro.resilience.recovery",
    "INTERRUPTED_EXIT_CODE": "repro.resilience.signals",
    "ShutdownRequested": "repro.resilience.signals",
    "graceful_shutdown": "repro.resilience.signals",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
