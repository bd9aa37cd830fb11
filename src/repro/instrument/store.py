"""The run ledger: an append-only index of completed runs.

PRs 1 and 3 gave a *single* run rich observability — span traces,
telemetry streams, health verdicts — but the paper's
performance story (Sec. IV, Figs. 5-8, Tables I-III) is told across
*many* runs: scaling sweeps, imbalance histograms, per-phase breakdowns
compared between configurations.  The ledger is where those runs
accumulate:

* ``<root>/index.jsonl`` — one JSON line per recorded run, append-only;
  corrupt or half-written lines are skipped on read, so a crash during
  ``record`` never poisons the ledger;
* ``<root>/runs/<run_id>/`` — the run's artifacts, copied in at record
  time: ``entry.json`` (the full entry), ``manifest.json``,
  ``telemetry.jsonl`` (the RunStream) and ``trace.json`` (Chrome trace
  of the registry: its span events and counters, the run's one timing
  record).

Entries are queryable by any :class:`RunEntry` column — config hash,
seed, force and kernel backend, precision, executor backend / worker
count, git revision and health verdict are the axes the paper's scaling
tables vary — and resolve by id, unique id prefix,
or the ``latest`` / ``latest~N`` relative tokens the CLI and the CI
report lane use.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

__all__ = [
    "IDENTITY",
    "RunEntry",
    "RunLedger",
    "git_revision",
    "default_ledger_root",
]

#: environment override for the CLI's default ledger location
LEDGER_ENV = "REPRO_LEDGER_DIR"

#: fallback ledger location (relative to the working directory)
DEFAULT_ROOT = ".repro/ledger"


def default_ledger_root() -> Path:
    """The CLI's ledger root: ``$REPRO_LEDGER_DIR`` or ``.repro/ledger``."""
    return Path(os.environ.get(LEDGER_ENV) or DEFAULT_ROOT)


def git_revision(cwd: str | Path | None = None) -> str | None:
    """Best-effort short git revision of the working tree (or ``None``).

    ``REPRO_GIT_REV`` overrides (hermetic CI); failures of any kind —
    no git, not a repository, timeout — degrade to ``None`` rather than
    raising, because provenance must never break a run.
    """
    env_rev = os.environ.get("REPRO_GIT_REV")
    if env_rev:
        return env_rev
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


#: the columns that identify a run, read from its manifest: what
#: :meth:`RunEntry.meta` leads with and a stream-only report recovers
IDENTITY = ("config_hash", "seed", "backend", "executor", "workers",
            "kernel_backend", "precision", "git_rev")


@dataclass(frozen=True)
class RunEntry:
    """One ledgered run: identity, provenance, outcome, artifact names."""

    run_id: str
    created_unix: float
    config_hash: str | None = None
    seed: int | None = None
    backend: str | None = None
    executor: str | None = None
    workers: int | None = None
    kernel_backend: str | None = None
    precision: str | None = None
    n_steps: int | None = None
    n_particles: int | None = None
    git_rev: str | None = None
    verdict: str | None = None
    wall_s: float | None = None
    steps_completed: int | None = None
    alerts: int | None = None
    #: whole-run achieved GFLOP/s (analytic flops over stepped seconds,
    #: see :func:`repro.instrument.perfcount.achieved_gflops`); ``None``
    #: for un-instrumented runs
    gflops: float | None = None
    artifacts: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, rec: dict) -> "RunEntry":
        """The entry of an index line; keys that are no field are
        ignored, so a line of an older or newer shape still reads."""
        known = {f.name: rec.get(f.name) for f in fields(cls)}
        if not known["run_id"]:
            raise ValueError(f"ledger record without run_id: {rec!r}")
        known["created_unix"] = float(known["created_unix"] or 0.0)
        known["artifacts"] = dict(known["artifacts"] or {})
        known["extra"] = dict(known["extra"] or {})
        return cls(**known)

    def meta(self) -> dict:
        """The identity block run reports lead with."""
        out = {"run_id": self.run_id}
        out.update((key, getattr(self, key)) for key in IDENTITY)
        # campaign-dispatched runs carry their suite identity so a
        # report ties the artifact back to its campaign + attempt
        for key in ("campaign_id", "campaign_name", "campaign_run",
                    "attempt"):
            if key in self.extra:
                out[key] = self.extra[key]
        return out


class RunLedger:
    """Append-only on-disk index of completed runs (see module docs)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.index_path = self.root / "index.jsonl"
        self.runs_dir = self.root / "runs"

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        manifest: dict | None = None,
        stream_path: str | Path | None = None,
        registry=None,
        verdict: str | None = None,
        extra: dict | None = None,
    ) -> RunEntry:
        """Ingest one completed run and return its :class:`RunEntry`.

        Parameters
        ----------
        manifest:
            The run manifest (see
            :func:`repro.instrument.telemetry.run_manifest`); when absent
            it is recovered from the stream's manifest line.
        stream_path:
            Telemetry RunStream JSONL to copy in; its end record supplies
            the verdict / wall time / alert count unless given directly.
        registry:
            A live :class:`repro.instrument.Registry`; its Chrome trace
            (span tree + per-rank/worker lanes + counters) is stored,
            and the entry's ``gflops`` is read back from it.
        verdict:
            Health verdict override (``OK``/``WARN``/``CRIT``/...).
        """
        from repro.instrument.telemetry import read_stream

        stream_data = None
        if stream_path is not None and Path(stream_path).is_file():
            stream_data = read_stream(stream_path)
        if manifest is None and stream_data is not None:
            manifest = stream_data.get("manifest") or {}
        manifest = dict(manifest or {})
        end = (stream_data or {}).get("end") or {}
        steps = (stream_data or {}).get("steps") or []

        run_id = self._next_run_id(manifest.get("config_hash"))
        run_dir = self.runs_dir / run_id
        run_dir.mkdir(parents=True, exist_ok=True)

        artifacts: dict = {}
        gflops = None
        if stream_path is not None and Path(stream_path).is_file():
            shutil.copy2(stream_path, run_dir / "telemetry.jsonl")
            artifacts["telemetry"] = "telemetry.jsonl"
        if registry is not None:
            from repro.instrument.exporters import (
                load_chrome_trace,
                write_chrome_trace,
            )
            from repro.instrument.perfcount import achieved_gflops

            write_chrome_trace(registry, run_dir / "trace.json")
            artifacts["trace"] = "trace.json"
            trace = load_chrome_trace(run_dir / "trace.json")
            gflops = achieved_gflops(trace["spans"], trace["counters"])
        wall = end.get("wall_time")
        if wall is None and steps:
            wall = sum(float(s.get("wall_time", 0.0)) for s in steps)
        columns = {
            key: manifest.get(key)
            for key in IDENTITY + ("n_steps", "n_particles")
        }
        columns["git_rev"] = columns["git_rev"] or git_revision()
        entry = RunEntry(
            run_id=run_id,
            created_unix=time.time(),
            verdict=verdict or end.get("verdict"),
            wall_s=float(wall) if wall is not None else None,
            steps_completed=len(steps) if steps else end.get("steps"),
            alerts=end.get("alerts"),
            gflops=gflops,
            artifacts=artifacts,
            extra=dict(extra or {}),
            **columns,
        )
        with open(run_dir / "entry.json", "w", encoding="utf-8") as fh:
            json.dump(entry.to_dict(), fh, indent=2, sort_keys=True)
        if manifest:
            with open(run_dir / "manifest.json", "w",
                      encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
        self._append_index(entry)
        return entry

    def _next_run_id(self, config_hash: str | None) -> str:
        """``run-NNNN-<hash6>``: sequence from the runs on disk."""
        seq = 0
        if self.runs_dir.is_dir():
            for child in self.runs_dir.iterdir():
                parts = child.name.split("-")
                if len(parts) >= 2 and parts[0] == "run":
                    try:
                        seq = max(seq, int(parts[1]))
                    except ValueError:
                        continue
        suffix = (config_hash or "nohash")[:6]
        return f"run-{seq + 1:04d}-{suffix}"

    def _append_index(self, entry: RunEntry) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.index_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry.to_dict()) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def entries(self) -> list[RunEntry]:
        """All entries in record order; unparseable index lines skipped."""
        out: list[RunEntry] = []
        if not self.index_path.is_file():
            return out
        with open(self.index_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(RunEntry.from_dict(json.loads(line)))
                except (json.JSONDecodeError, ValueError, TypeError):
                    continue
        return out

    def query(self, **filters) -> list[RunEntry]:
        """Entries whose columns equal every given filter, oldest first;
        a filter of ``None`` matches anything."""
        unknown = set(filters) - {f.name for f in fields(RunEntry)}
        if unknown:
            raise TypeError(f"no ledger column(s) {sorted(unknown)}")
        return [
            e for e in self.entries()
            if all(v is None or getattr(e, k) == v
                   for k, v in filters.items())
        ]

    def get(self, token: str) -> RunEntry:
        """Resolve ``token`` to exactly one entry.

        Accepts an exact run id, a unique id prefix (config hashes work
        too, when unique), ``latest``, or ``latest~N`` (the Nth-newest).
        Raises :class:`KeyError` with the candidates when ambiguous or
        missing.
        """
        entries = self.entries()
        if not entries:
            raise KeyError(f"ledger at {self.root} is empty")
        if token == "latest":
            return entries[-1]
        if token.startswith("latest~"):
            try:
                back = int(token.split("~", 1)[1])
            except ValueError:
                raise KeyError(f"bad relative token {token!r}")
            if back < 0 or back >= len(entries):
                raise KeyError(
                    f"{token!r} out of range: ledger holds "
                    f"{len(entries)} run(s)"
                )
            return entries[-1 - back]
        exact = [e for e in entries if e.run_id == token]
        if len(exact) == 1:
            return exact[0]
        prefixed = [
            e for e in entries
            if e.run_id.startswith(token)
            or (e.config_hash or "").startswith(token)
        ]
        if len(prefixed) == 1:
            return prefixed[0]
        if not prefixed:
            raise KeyError(
                f"no ledgered run matches {token!r} "
                f"(have: {[e.run_id for e in entries[-5:]]}...)"
            )
        raise KeyError(
            f"{token!r} is ambiguous: "
            f"{[e.run_id for e in prefixed]}"
        )

    # ------------------------------------------------------------------
    # artifact access
    # ------------------------------------------------------------------
    def run_dir(self, entry: RunEntry) -> Path:
        return self.runs_dir / entry.run_id

    def artifact_path(self, entry: RunEntry, kind: str) -> Path | None:
        """Absolute path of an artifact (``telemetry``/``trace``/...)."""
        rel = entry.artifacts.get(kind)
        if rel is None:
            return None
        path = self.run_dir(entry) / rel
        return path if path.exists() else None

    def load_stream(self, entry: RunEntry) -> dict | None:
        """Parsed telemetry stream of an entry, if stored."""
        from repro.instrument.telemetry import read_stream

        path = self.artifact_path(entry, "telemetry")
        return read_stream(path) if path is not None else None

    def load_trace(self, entry: RunEntry) -> dict | None:
        """The stored Chrome trace re-parsed (``{"spans", "counters"}``),
        if any."""
        from repro.instrument.exporters import load_chrome_trace

        path = self.artifact_path(entry, "trace")
        return load_chrome_trace(path) if path is not None else None

    def analyze(self, token_or_entry) -> "object":
        """Full :class:`repro.instrument.analysis.RunAnalysis` of a run."""
        from repro.instrument.analysis import analyze

        entry = (
            token_or_entry
            if isinstance(token_or_entry, RunEntry)
            else self.get(token_or_entry)
        )
        analysis = analyze(
            spans=(self.load_trace(entry) or {}).get("spans"),
            stream=self.load_stream(entry),
            meta=entry.meta(),
        )
        if analysis.verdict is None:
            analysis.verdict = entry.verdict
        if analysis.wall_s <= 0 and entry.wall_s:
            analysis.wall_s = float(entry.wall_s)
        return analysis

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def gc(self, keep_last: int) -> list[str]:
        """Prune all but the newest ``keep_last`` runs; returns removed ids.

        The one operation that rewrites the index — compaction, not
        history editing: surviving entries keep their lines verbatim.
        """
        if keep_last < 0:
            raise ValueError(f"keep_last must be >= 0: {keep_last}")
        entries = self.entries()
        doomed = entries[: max(0, len(entries) - keep_last)]
        if not doomed:
            return []
        survivors = entries[len(doomed):]
        tmp = self.index_path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for e in survivors:
                fh.write(json.dumps(e.to_dict()) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.index_path)
        removed = []
        for e in doomed:
            shutil.rmtree(self.run_dir(e), ignore_errors=True)
            removed.append(e.run_id)
        return removed
