"""Snapshot, measurement and checkpoint I/O (``.npz`` containers)."""

from repro.io.snapshots import (
    load_power_history,
    load_snapshot,
    save_power_history,
    save_snapshot,
)
from repro.io.checkpoint import (
    CheckpointError,
    Checkpointer,
    CheckpointSchedule,
    crc32c,
    find_latest_valid,
    load_checkpoint,
    load_latest_valid,
    save_checkpoint,
    verify_checkpoint,
)

__all__ = [
    "save_snapshot",
    "load_snapshot",
    "save_power_history",
    "load_power_history",
    "save_checkpoint",
    "load_checkpoint",
    "verify_checkpoint",
    "find_latest_valid",
    "load_latest_valid",
    "crc32c",
    "CheckpointError",
    "CheckpointSchedule",
    "Checkpointer",
]
