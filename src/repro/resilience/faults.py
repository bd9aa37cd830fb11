"""Deterministic fault injection: the chaos side of the resilience layer.

A 14-hour run on 96 BG/Q racks *will* see dying nodes, torn checkpoint
writes and straggling nodes; a code that cannot rehearse those failures
cannot claim to survive them.  A :class:`FaultPlan` holds *seeded,
deterministic* fault schedules; it is handed to the run that should
suffer them (``HACCSimulation(..., faults=plan)``), whose hot paths
consult it through cheap hooks:

* **rank death** — :meth:`FaultPlan.ranks_to_kill` reports the ranks
  scheduled to die at the current simulation step (one-shot); the driver
  drops the corresponding overloaded domain and, unless recovery is
  disabled, reconstructs it from neighbor replicas
  (:mod:`repro.resilience.recovery`);
* **checkpoint corruption** — :meth:`FaultPlan.checkpoint_fault` hands
  the checkpoint writer a one-shot truncation/bit-flip instruction for
  the N-th write, exercising the checksum + rotation fallback path;
* **slow-downs** — :meth:`FaultPlan.sleep` stalls a named short-range
  section (``"shortrange"``, ``"shortrange.domain"``), the
  straggler-node failure mode the telemetry imbalance gauges are meant
  to expose.

The in-process communicator cannot fail on its own, so there is no
transient-comm fault: the plan injects only failures a run can have.
The default plan is a :class:`NullFaultPlan` whose ``enabled`` is False:
every hook site is a single attribute test, so production runs pay
nothing.  All randomness comes from one ``random.Random(seed)`` owned by
the plan — the same plan replayed over the same run injects the same
faults, which is what makes chaos tests assertable.
"""

from __future__ import annotations

import random
import time

from repro.config import ConfigError
from repro.instrument.registry import get_registry

__all__ = ["NullFaultPlan", "FaultPlan"]

#: recognized checkpoint corruption modes
CHECKPOINT_FAULT_MODES = ("truncate", "bitflip")


class NullFaultPlan:
    """The always-healthy default: no faults, no state, no overhead."""

    enabled = False

    def begin_step(self, index: int) -> None:  # pragma: no cover - trivial
        pass

    def ranks_to_kill(self) -> frozenset[int]:
        return frozenset()

    def checkpoint_fault(self):
        return None

    def sleep(self, section: str) -> None:  # pragma: no cover - trivial
        pass

    def note_recovery(self, kind: str, n: int = 1) -> None:
        pass

    def summary(self) -> dict:
        return {"enabled": False, "injected": {}, "recovered": {}}


class FaultPlan:
    """A deterministic, seeded schedule of injectable failures.

    Parameters
    ----------
    seed:
        Seed of the plan's private RNG; the only source of randomness
        (the default bit-flip position).

    Schedules are added with the chainable ``with_*`` methods, and the
    plan is handed to the run it should hit::

        plan = (FaultPlan(seed=7)
                .with_rank_death(step=4, rank=1)
                .with_checkpoint_corruption(write_index=1, mode="truncate"))
        sim = HACCSimulation(cfg, decomposition_dims=(2, 1, 1),
                             faults=plan)

    Injection counts are tracked in :attr:`injected` (by kind) and
    recoveries reported back by the resilient layers in
    :attr:`recovered`; :meth:`summary` folds both into the
    ``faults_injected`` / ``faults_recovered`` numbers the bench records
    carry.
    """

    enabled = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._deaths: dict[int, set[int]] = {}
        self._ckpt_faults: dict[int, dict] = {}
        self._slowdowns: dict[str, float] = {}
        self._step = -1
        self._ckpt_writes = 0
        self.injected: dict[str, int] = {}
        self.recovered: dict[str, int] = {}

    # ------------------------------------------------------------------
    # schedule builders (chainable)
    # ------------------------------------------------------------------
    def with_rank_death(self, step: int, rank: int) -> "FaultPlan":
        """Kill ``rank`` at simulation step ``step`` (one-shot)."""
        if step < 0 or rank < 0:
            raise ValueError(
                f"step and rank must be >= 0: step={step}, rank={rank}"
            )
        self._deaths.setdefault(int(step), set()).add(int(rank))
        return self

    def with_checkpoint_corruption(
        self,
        write_index: int = 0,
        mode: str = "truncate",
        offset: int | None = None,
    ) -> "FaultPlan":
        """Corrupt the ``write_index``-th checkpoint written (0-based).

        ``mode`` is ``"truncate"`` (drop the file's tail at ``offset``
        bytes, default half the file) or ``"bitflip"`` (XOR one bit at
        ``offset``, default drawn from the plan RNG).
        """
        if mode not in CHECKPOINT_FAULT_MODES:
            raise ValueError(
                f"mode must be one of {CHECKPOINT_FAULT_MODES}: {mode!r}"
            )
        if write_index < 0:
            raise ValueError(f"write_index must be >= 0: {write_index}")
        self._ckpt_faults[int(write_index)] = {
            "mode": mode,
            "offset": None if offset is None else int(offset),
        }
        return self

    def with_slowdown(self, section: str, seconds: float) -> "FaultPlan":
        """Stall ``section`` (``"shortrange"``, ``"shortrange.domain"``)
        per visit."""
        if seconds < 0:
            raise ValueError(f"slowdown must be >= 0 s: {seconds}")
        self._slowdowns[str(section)] = float(seconds)
        return self

    def check_run(
        self, n_steps: int, n_ranks: int, sections: frozenset[str]
    ) -> None:
        """Raise :class:`~repro.config.ConfigError` for a fault the run
        can never have.

        ``n_ranks`` is the number of domains whose death the run
        handles (0 when it has no decomposed short-range solve) and
        ``sections`` the slow-down sections its hooks read.
        """
        for step, ranks in sorted(self._deaths.items()):
            if n_ranks == 0:
                raise ConfigError(
                    f"rank death at step {step} needs a decomposed "
                    f"short-range run"
                )
            if step >= n_steps:
                raise ConfigError(
                    f"rank death at step {step} is past the run's last "
                    f"step {n_steps - 1}"
                )
            if max(ranks) >= n_ranks:
                raise ConfigError(
                    f"rank death of rank {max(ranks)} at step {step}: "
                    f"the run has {n_ranks} ranks"
                )
        for section in sorted(set(self._slowdowns) - sections):
            known = ", ".join(sorted(sections)) or "none"
            raise ConfigError(
                f"slowdown section {section!r} is never visited by this "
                f"run (sections: {known})"
            )

    # ------------------------------------------------------------------
    # hooks (called from the production paths)
    # ------------------------------------------------------------------
    def begin_step(self, index: int) -> None:
        """Driver hook: the simulation is entering step ``index``."""
        self._step = int(index)

    def ranks_to_kill(self) -> frozenset[int]:
        """Ranks scheduled to die at the current step; one-shot.

        The first caller at a given step receives the rank set and the
        schedule entry is consumed — death is an instantaneous event,
        and after recovery (or the loss being absorbed) the system is
        healthy again.
        """
        dead = self._deaths.pop(self._step, None)
        if not dead:
            return frozenset()
        self._note_injection("rank_death", len(dead))
        return frozenset(dead)

    def checkpoint_fault(self) -> dict | None:
        """One-shot corruption instruction for the current write, if any.

        Every call advances the plan's write counter; the checkpoint
        writer calls this exactly once per file written.
        """
        idx = self._ckpt_writes
        self._ckpt_writes += 1
        spec = self._ckpt_faults.pop(idx, None)
        if spec is None:
            return None
        self._note_injection("checkpoint")
        return dict(spec)

    def sleep(self, section: str) -> None:
        """Stall a named section if a slowdown is scheduled for it."""
        seconds = self._slowdowns.get(section, 0.0)
        if seconds > 0.0:
            self._note_injection("slowdown")
            time.sleep(seconds)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _note_injection(self, kind: str, n: int = 1) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + n
        reg = get_registry()
        if reg.enabled:
            reg.count(f"faults.{kind}", n)

    def note_recovery(self, kind: str, n: int = 1) -> None:
        """Resilient layers report a survived fault (``kind`` as above)."""
        self.recovered[kind] = self.recovered.get(kind, 0) + n
        reg = get_registry()
        if reg.enabled:
            reg.count(f"faults.recovered.{kind}", n)

    def rng_uniform(self, n: int) -> int:
        """A deterministic draw in ``[0, n)`` from the plan's RNG."""
        return self._rng.randrange(max(1, int(n)))

    def faults_injected(self) -> int:
        return sum(self.injected.values())

    def faults_recovered(self) -> int:
        return sum(self.recovered.values())

    def summary(self) -> dict:
        """Plain-dict snapshot for bench records and end-of-run logs."""
        return {
            "enabled": True,
            "seed": self.seed,
            "injected": dict(self.injected),
            "recovered": dict(self.recovered),
            "faults_injected": self.faults_injected(),
            "faults_recovered": self.faults_recovered(),
        }
