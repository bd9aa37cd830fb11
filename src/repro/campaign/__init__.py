"""Campaign orchestration: suites of supervised, resumable runs.

The paper's production context is not one heroic run but a *campaign*:
many configurations (cosmology grids, parameter scans, seed ensembles)
run under a mean time between failures short enough that supervision and
restartability are first-class design constraints (Sec. II).  This
package is that layer:

* :mod:`repro.campaign.specs` — declarative suite specifications
  (TOML/JSON): a base :class:`~repro.config.SimulationConfig`, cartesian
  parameter grids, and explicit run lists, each expanding to a config
  with a stable hash and seed;
* :mod:`repro.campaign.queue` — a crash-safe, append-only journaled work
  queue (fsync'd JSONL state machine ``PENDING → RUNNING → DONE / FAILED
  / QUARANTINED``) whose resume path replays the journal for
  exactly-once accounting;
* :mod:`repro.campaign.supervisor` — per-run subprocess supervision:
  heartbeat-based hang detection fed from the telemetry stream, per-run
  wall-clock timeouts, exponential-backoff retries
  (:class:`~repro.campaign.supervisor.RetryPolicy`),
  poison-config quarantine, SIGTERM-safe shutdown that checkpoints
  in-flight runs, and exactly-once run-ledger recording.

Surfaced as ``python -m repro campaign run|status|resume SPEC.toml``.
"""

from __future__ import annotations

from repro.campaign.queue import (
    CampaignJournal,
    CampaignQueue,
    JournalError,
    RunState,
)
from repro.campaign.specs import (
    CampaignSpec,
    RunSpec,
    SpecError,
    SupervisionPolicy,
    expand_spec,
    load_spec,
)
from repro.campaign.supervisor import (
    CampaignSupervisor,
    Heartbeat,
    campaign_status,
)

__all__ = [
    "CampaignJournal",
    "CampaignQueue",
    "CampaignSpec",
    "CampaignSupervisor",
    "Heartbeat",
    "JournalError",
    "RunSpec",
    "RunState",
    "SpecError",
    "SupervisionPolicy",
    "campaign_status",
    "expand_spec",
    "load_spec",
]
