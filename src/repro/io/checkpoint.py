"""Checkpoint / restart for simulations, hardened for faulty machines.

The paper's science test run took ~14 hours on 16 racks; production
campaigns run for days and *will* see node loss and I/O hiccups
mid-write.  A checkpoint stores the full dynamical state (particles +
scale factor + step index) plus the complete configuration, and restores
a simulation that continues *bit-for-bit* identically to an
uninterrupted run — the property the integration test asserts.

Hardening (the fault model is a crash or corruption at any byte):

* **atomic writes** — the state is serialized to a temporary file in the
  destination directory and published with ``os.replace``; a reader
  never observes a half-written checkpoint under the final name;
* **checksums** — every array is covered by a CRC32 (``zlib.crc32``
  over its buffer; format 2 files carry CRC32C, still verified) recorded
  in the metadata manifest and verified on load; silent corruption (bit
  rot, a torn RAID stripe) surfaces as a typed :class:`CheckpointError`
  instead of garbage physics.  Members are stored uncompressed (float
  mantissas barely deflate), so the CRCs, not inflate, catch payload
  flips;
* **rotation + fallback** — :class:`Checkpointer` keeps the newest
  ``keep_last`` files of a run directory and
  :func:`find_latest_valid` walks them newest-first, skipping anything
  truncated or corrupt, so one bad file costs one checkpoint interval,
  not the run;
* **scheduling** — :class:`CheckpointSchedule` triggers by step count
  and/or wall-clock interval, driven from ``HACCSimulation.run``;
* **fault injection** — the writer consults the simulation's
  :class:`repro.resilience.faults.FaultPlan` (``sim.faults``) after
  publishing each file, so chaos tests can truncate or bit-flip a
  scheduled write and assert the fallback path.

All load-side failures raise :class:`CheckpointError` carrying the
offending path; foreign ``.npz`` files report the keys they *did*
contain, malformed manifests are rejected, and files written by a
future format version are rejected instead of being misread.
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Callable

import numpy as np

from repro.config import ConfigError, SimulationConfig
from repro.core.particles import Particles
from repro.core.simulation import HACCSimulation
from repro.resilience.faults import FaultPlan, NullFaultPlan

__all__ = [
    "CheckpointError",
    "CheckpointSchedule",
    "Checkpointer",
    "crc32c",
    "find_latest_valid",
    "load_latest_valid",
    "load_checkpoint",
    "save_checkpoint",
    "verify_checkpoint",
]

logger = logging.getLogger(__name__)

_FORMAT_VERSION = 3
#: versions this reader understands (1 = pre-checksum files, 2 = CRC32C
#: manifest over deflated members, 3 = zlib CRC32 over stored members)
_SUPPORTED_VERSIONS = (1, 2, 3)

#: arrays every checkpoint carries
_ARRAY_KEYS = ("positions", "momenta", "masses", "ids", "a")

#: rotation file naming: ``ckpt_<step>.npz``
_CKPT_RE = re.compile(r"^ckpt_(\d+)\.npz$")


class CheckpointError(Exception):
    """A checkpoint could not be read, verified, or understood.

    Attributes
    ----------
    path:
        The offending file.
    """

    def __init__(self, path: str | Path, message: str) -> None:
        self.path = Path(path)
        super().__init__(f"{path}: {message}")


# ----------------------------------------------------------------------
# checksums: zlib's CRC32 (format 3) runs in C over the array buffer;
# CRC32C (Castagnoli, table-driven, reflected poly 0x1EDC6F41) verifies
# format 2 files only
# ----------------------------------------------------------------------
def _crc32c_table() -> list[int]:
    poly = 0x82F63B78  # reflected Castagnoli polynomial
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _crc32c_table()


def crc32c(data: bytes | bytearray | memoryview | np.ndarray) -> int:
    """CRC32C of a byte buffer or the raw bytes of an array."""
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).view(np.uint8).reshape(-1)
        data = data.tobytes()
    table = _CRC32C_TABLE
    crc = 0xFFFFFFFF
    for byte in memoryview(data):
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def _crc32(arr: np.ndarray) -> int:
    """zlib CRC32 of an array's raw bytes, read in place."""
    return zlib.crc32(memoryview(np.ascontiguousarray(arr)).cast("B"))


# ----------------------------------------------------------------------
# path and metadata plumbing
# ----------------------------------------------------------------------
def _normalize_path(path: str | Path) -> Path:
    """Normalize a checkpoint destination to exactly one ``.npz`` suffix.

    ``with_suffix`` semantics on the *final* extension only: a
    case-variant ``.NPZ`` is normalized rather than doubled up, while
    dotted science names (``z0.5``, ``run.v2``) keep their full stem and
    gain ``.npz`` — ``with_suffix`` alone would truncate ``z0.5`` to
    ``z0.npz``.
    """
    p = Path(path)
    if p.suffix.lower() == ".npz":
        return p.with_suffix(".npz")
    return p.with_name(p.name + ".npz")


def _checkpoint_metadata(sim: HACCSimulation, checksums: dict) -> dict:
    cfg = sim.config
    cfg_dict = asdict(cfg)
    cfg_dict["cosmology"] = asdict(cfg.cosmology)
    return {
        "format_version": _FORMAT_VERSION,
        "config": cfg_dict,
        "step_index": sim._step_index,
        "checksums": checksums,
    }


def _apply_checkpoint_fault(path: Path, spec: dict, plan: FaultPlan) -> None:
    """Corrupt a just-written checkpoint per an injected fault spec."""
    size = path.stat().st_size
    mode = spec["mode"]
    offset = spec.get("offset")
    if mode == "truncate":
        keep = size // 2 if offset is None else min(int(offset), size)
        with open(path, "r+b") as fh:
            fh.truncate(keep)
        logger.warning(
            "fault injection: truncated checkpoint %s to %d/%d bytes",
            path, keep, size,
        )
    elif mode == "bitflip":
        at = plan.rng_uniform(size) if offset is None else int(offset) % size
        bit = 1 << plan.rng_uniform(8)
        with open(path, "r+b") as fh:
            fh.seek(at)
            byte = fh.read(1)[0]
            fh.seek(at)
            fh.write(bytes([byte ^ bit]))
        logger.warning(
            "fault injection: flipped bit 0x%02x at byte %d of %s",
            bit, at, path,
        )
    else:  # pragma: no cover - schedule builder validates modes
        raise ValueError(f"unknown checkpoint fault mode {mode!r}")


# ----------------------------------------------------------------------
# save / load
# ----------------------------------------------------------------------
def save_checkpoint(path: str | Path, sim: HACCSimulation) -> Path:
    """Atomically write the simulation's full restartable state.

    The arrays (stored, not deflated) and their CRC32 manifest are
    serialized to a temporary sibling file which is fsynced and renamed
    over the destination; a crash at any point leaves either the previous
    file or none, never a torn one.  Returns the (suffix-normalized) final path.
    """
    p = _normalize_path(path)
    arrays = {
        "positions": sim.particles.positions,
        "momenta": sim.particles.momenta,
        "masses": sim.particles.masses,
        "ids": sim.particles.ids,
        "a": np.float64(sim.a),
    }
    checksums = {
        name: f"{_crc32(arr):08x}" for name, arr in arrays.items()
    }
    meta = _checkpoint_metadata(sim, checksums)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.parent / f".{p.name}.tmp-{os.getpid()}.npz"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, metadata=json.dumps(meta), **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, p)
    finally:
        if tmp.exists():  # publication failed; leave no litter behind
            tmp.unlink()
    plan = sim.faults
    if plan.enabled:
        spec = plan.checkpoint_fault()
        if spec is not None:
            _apply_checkpoint_fault(p, spec, plan)
    return p


def _read_metadata(path: Path, data) -> dict:
    if "metadata" not in data:
        raise CheckpointError(
            path,
            "not a repro checkpoint (no 'metadata' entry; found keys: "
            f"{sorted(data.files)})",
        )
    try:
        meta = json.loads(str(data["metadata"]))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(path, f"unreadable metadata: {exc}") from exc
    version = meta.get("format_version")
    if not isinstance(version, int):
        raise CheckpointError(
            path, f"missing/invalid format_version: {version!r}"
        )
    if version > _FORMAT_VERSION:
        raise CheckpointError(
            path,
            f"format_version {version} is newer than the supported "
            f"{_FORMAT_VERSION}; upgrade the code to read this file",
        )
    if version not in _SUPPORTED_VERSIONS:
        raise CheckpointError(
            path, f"unsupported checkpoint format_version: {version}"
        )
    checksums = meta.get("checksums")
    if checksums is not None and not (
        isinstance(checksums, dict) and set(checksums) <= set(_ARRAY_KEYS)
    ):
        raise CheckpointError(path, f"invalid checksums: {checksums!r}")
    step = meta.get("step_index")
    if type(step) is not int or step < 0:
        raise CheckpointError(path, f"missing/invalid step_index: {step!r}")
    return meta


def _load_verified(path: Path) -> tuple[dict, dict]:
    """Read, structurally validate, and checksum-verify a checkpoint.

    Returns ``(metadata, arrays)``; every failure mode — missing file,
    torn zip, foreign content, checksum mismatch — is normalized to
    :class:`CheckpointError`.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = _read_metadata(path, data)
            missing = [k for k in _ARRAY_KEYS if k not in data]
            if missing:
                raise CheckpointError(
                    path,
                    f"missing arrays {missing}; found keys: "
                    f"{sorted(data.files)}",
                )
            # materialize inside the context so a truncated member
            # surfaces here, not lazily at first use
            arrays = {k: data[k] for k in _ARRAY_KEYS}
    except CheckpointError:
        raise
    except FileNotFoundError as exc:
        raise CheckpointError(path, "no such file") from exc
    except Exception as exc:  # zipfile/zlib/EOF errors: torn or foreign
        raise CheckpointError(
            path, f"unreadable ({type(exc).__name__}: {exc})"
        ) from exc
    checksum = _crc32 if meta["format_version"] >= 3 else crc32c
    for name, expected in (meta.get("checksums") or {}).items():
        actual = f"{checksum(arrays[name]):08x}"
        if actual != expected:
            raise CheckpointError(
                path,
                f"checksum mismatch on {name!r}: "
                f"recorded {expected}, computed {actual}",
            )
    return meta, arrays


def verify_checkpoint(path: str | Path) -> dict:
    """Fully validate a checkpoint; returns its metadata or raises."""
    meta, _ = _load_verified(Path(path))
    return meta


def load_checkpoint(path: str | Path, **sim_kwargs) -> HACCSimulation:
    """Restore a simulation from a verified checkpoint; ``run()``
    resumes where the original left off.

    Extra keyword arguments (``decomposition_dims``, ``faults``, ...)
    are forwarded to the :class:`HACCSimulation` constructor so a
    decomposed run resumes with the same parallel structure and fault
    plan.
    """
    path = Path(path)
    return _restore(path, *_load_verified(path), **sim_kwargs)


def _restore(path: Path, meta: dict, arrays: dict,
             **sim_kwargs) -> HACCSimulation:
    """The simulation a verified checkpoint's payload holds."""
    try:
        config = SimulationConfig.from_dict(meta["config"])
    except ConfigError:
        raise  # an intact file asking for a retired or invalid shape
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            path, f"invalid config payload: {exc}"
        ) from exc
    particles = Particles(
        positions=arrays["positions"],
        momenta=arrays["momenta"],
        masses=arrays["masses"],
        ids=arrays["ids"],
        box_size=config.box_size,
    )
    sim = HACCSimulation(config, particles=particles, **sim_kwargs)
    sim.a = float(arrays["a"])
    sim._step_index = int(meta["step_index"])
    return sim


# ----------------------------------------------------------------------
# rotation directories and auto-resume
# ----------------------------------------------------------------------
def _rotation_files(directory: Path) -> list[tuple[int, Path]]:
    """(step, path) of every rotation file, newest (highest step) first."""
    out = []
    for p in directory.iterdir():
        m = _CKPT_RE.match(p.name)
        if m:
            out.append((int(m.group(1)), p))
    return sorted(out, reverse=True)


def find_latest_valid(
    directory: str | Path, faults: FaultPlan | NullFaultPlan = NullFaultPlan()
) -> Path | None:
    """The newest checkpoint in a rotation directory that verifies.

    Walks ``ckpt_*.npz`` newest-first; anything truncated, corrupt, or
    foreign is skipped with a warning (and counted as a survived
    ``"checkpoint"`` fault of ``faults``).  Returns ``None`` when
    nothing valid remains.
    """
    found = _latest_verified(Path(directory), faults)
    return None if found is None else found[0]


def load_latest_valid(
    directory: str | Path, **sim_kwargs
) -> tuple[Path, HACCSimulation] | None:
    """:func:`find_latest_valid` then :func:`load_checkpoint`, reading
    and verifying the restored file once: ``(path, simulation)``, or
    ``None`` when nothing valid remains.  ``sim_kwargs`` go to the
    :class:`HACCSimulation` constructor; their ``faults`` plan, if any,
    counts the skipped files."""
    found = _latest_verified(Path(directory),
                             sim_kwargs.get("faults", NullFaultPlan()))
    return None if found is None else (found[0],
                                       _restore(*found, **sim_kwargs))


def _latest_verified(directory: Path, faults) -> tuple | None:
    """``(path, metadata, arrays)`` of the newest checkpoint that
    verifies, skipping (and counting) the others."""
    if not directory.is_dir():
        return None
    skipped = False
    for _, path in _rotation_files(directory):
        try:
            meta, arrays = _load_verified(path)
        except CheckpointError as exc:
            skipped = True
            logger.warning("skipping invalid checkpoint: %s", exc)
            continue
        if skipped:
            faults.note_recovery("checkpoint")
        return path, meta, arrays
    return None


class CheckpointSchedule:
    """When to checkpoint: every K steps and/or every T seconds.

    ``every_steps=K`` fires on steps ``K, 2K, ...`` (1-based count of
    completed steps); ``every_seconds=T`` fires whenever at least ``T``
    seconds of wall clock passed since the last write.  Either trigger
    alone suffices; with both, whichever fires first wins.
    """

    def __init__(
        self,
        every_steps: int | None = None,
        every_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if every_steps is None and every_seconds is None:
            raise ValueError(
                "schedule needs every_steps and/or every_seconds"
            )
        if every_steps is not None and every_steps < 1:
            raise ValueError(f"every_steps must be >= 1: {every_steps}")
        if every_seconds is not None and every_seconds <= 0:
            raise ValueError(f"every_seconds must be > 0: {every_seconds}")
        self.every_steps = every_steps
        self.every_seconds = every_seconds
        self.clock = clock
        self._last_time = clock()

    def due(self, steps_completed: int) -> bool:
        """Should a checkpoint be written after this many steps?"""
        if (
            self.every_steps is not None
            and steps_completed % self.every_steps == 0
        ):
            return True
        if self.every_seconds is not None:
            return self.clock() - self._last_time >= self.every_seconds
        return False

    def wrote(self) -> None:
        """Reset the wall-clock trigger (a checkpoint was written)."""
        self._last_time = self.clock()


class Checkpointer:
    """Scheduled, rotated, atomic checkpoints for one run directory.

    Parameters
    ----------
    directory:
        Run directory; files are named ``ckpt_<step>.npz``.
    keep_last:
        Rotation depth — older files beyond the newest ``keep_last`` are
        pruned after each successful write (pruning never removes the
        file just written).
    schedule:
        Optional :class:`CheckpointSchedule`; without one,
        :meth:`maybe_checkpoint` writes after *every* step.
    """

    def __init__(
        self,
        directory: str | Path,
        keep_last: int = 3,
        schedule: CheckpointSchedule | None = None,
    ) -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1: {keep_last}")
        self.directory = Path(directory)
        self.keep_last = int(keep_last)
        self.schedule = schedule
        self.n_written = 0
        self.last_path: Path | None = None

    def maybe_checkpoint(
        self, sim: HACCSimulation, force: bool = False
    ) -> Path | None:
        """Write a checkpoint if the schedule says so; driver hook.

        ``force=True`` (the driver's end-of-run call) writes regardless
        of the schedule — unless this step's file was already written.
        """
        due = force or self.schedule is None or self.schedule.due(
            sim._step_index
        )
        if not due:
            return None
        target = self.directory / f"ckpt_{sim._step_index:06d}.npz"
        if self.last_path is not None and self.last_path == target:
            return None
        return self.checkpoint(sim)

    def checkpoint(self, sim: HACCSimulation) -> Path:
        """Unconditionally write (and rotate) a checkpoint now."""
        path = save_checkpoint(
            self.directory / f"ckpt_{sim._step_index:06d}.npz", sim
        )
        self.n_written += 1
        self.last_path = path
        if self.schedule is not None:
            self.schedule.wrote()
        self._prune()
        logger.debug("checkpoint written: %s", path)
        return path

    def _prune(self) -> None:
        for _, path in _rotation_files(self.directory)[self.keep_last:]:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup is fine
                pass
