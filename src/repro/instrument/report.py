"""Reporting surface: measured-vs-model tables and BENCH_*.json records.

The measured side comes from a live :class:`repro.instrument.Registry`
populated by an instrumented run; the model side is the calibrated BG/Q
machine model's time split (Section III of the paper: the 16-ranks /
4-threads operating point spends 80% in the PP kernel, 10% in the tree
walk, 5% in the FFT, 5% elsewhere — the attribution behind Table II).

Section-name → Table II row mapping
-----------------------------------
========================  ======================  ===============
span name(s)              profile row             model bucket
========================  ======================  ===============
``cic.deposit``           CIC deposit             other
``fft.forward``           forward FFT             fft
``poisson.filter``        filter                  fft
``fft.inverse``           inverse FFT             fft
``cic.interpolate``       CIC interpolate         other
``tree.build``            tree build              walk
``tree.walk``             tree walk               walk
``pp.kernel, pp.batch``   PP kernel               kernel
``sks.stream, sks.kick``  stream/kick             other
========================  ======================  ===============

Python-vs-BG/Q caveat: the *fractions* are comparable in structure, not
in value — a NumPy PP kernel is far slower relative to FFTW-class FFTs
than hand-scheduled QPX, so expect the measured kernel share to exceed
80% at paper-like sub-cycling.  The table exists to make exactly that
kind of statement quantitative.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.instrument.perfcount import list_efficiency_line
from repro.instrument.registry import NullRegistry, Registry

__all__ = [
    "ProfileRow",
    "SECTION_ROWS",
    "section_table",
    "bucket_table",
    "render_profile",
    "write_bench_record",
    "bench_provenance_notes",
]


@dataclass(frozen=True)
class ProfileRow:
    """One row of the profile table: sections, counters, model bucket."""

    label: str
    sections: tuple[str, ...]
    bucket: str
    counters: tuple[str, ...] = ()


#: canonical profile rows in paper Table II order
SECTION_ROWS = (
    ProfileRow("CIC deposit", ("cic.deposit",), "other",
               ("cic.deposit_particles",)),
    ProfileRow("forward FFT", ("fft.forward",), "fft",
               ("fft.forward_points",)),
    ProfileRow("filter", ("poisson.filter",), "fft",
               ("poisson.filter_points",)),
    ProfileRow("inverse FFT", ("fft.inverse",), "fft",
               ("fft.inverse_points",)),
    ProfileRow("CIC interpolate", ("cic.interpolate",), "other",
               ("cic.interp_particles",)),
    ProfileRow("tree build", ("tree.build",), "walk",
               ("tree.build_particles",)),
    ProfileRow("tree walk", ("tree.walk",), "walk",
               ("tree.list_length",)),
    ProfileRow("PP kernel", ("pp.kernel", "pp.batch"), "kernel",
               ("pp.interactions", "pp.flops")),
    ProfileRow("stream/kick", ("sks.stream", "sks.kick"), "other",
               ("sks.substeps",)),
)


def _model_split() -> dict[str, float]:
    from repro.machine.paper_data import FULLCODE_TIME_SPLIT

    return dict(FULLCODE_TIME_SPLIT)


def section_table(
    registry: Registry | NullRegistry,
    rows: tuple[ProfileRow, ...] = SECTION_ROWS,
) -> list[dict]:
    """Measured seconds/fractions/counters per profile row.

    ``fraction`` is relative to the total time under ``step`` spans when
    present (otherwise the sum over all rows); ``model_fraction`` is the
    machine model's share for the row's Table II bucket.
    """
    totals = registry.section_totals()
    counters = registry.counters
    split = _model_split()

    def row_seconds(row: ProfileRow) -> float:
        return sum(
            totals.get(s, {}).get("seconds", 0.0) for s in row.sections
        )

    def row_calls(row: ProfileRow) -> int:
        return sum(totals.get(s, {}).get("calls", 0) for s in row.sections)

    step_total = totals.get("step", {}).get("seconds", 0.0)
    if step_total <= 0.0:
        step_total = sum(row_seconds(r) for r in rows)
    out = []
    for row in rows:
        seconds = row_seconds(row)
        counter_name, counter_value = "", 0.0
        for cname in row.counters:
            if cname in counters:
                counter_name, counter_value = cname, counters[cname]
                break
        out.append(
            {
                "label": row.label,
                "sections": row.sections,
                "bucket": row.bucket,
                "seconds": seconds,
                "calls": row_calls(row),
                "fraction": seconds / step_total if step_total > 0 else 0.0,
                "counter": counter_name,
                "counter_value": counter_value,
                "model_fraction": split.get(row.bucket, 0.0),
            }
        )
    return out


def bucket_table(
    registry: Registry | NullRegistry,
    rows: tuple[ProfileRow, ...] = SECTION_ROWS,
) -> list[dict]:
    """Measured vs model time split aggregated to the paper's buckets."""
    table = section_table(registry, rows)
    split = _model_split()
    measured: dict[str, float] = {k: 0.0 for k in split}
    for entry in table:
        measured[entry["bucket"]] = (
            measured.get(entry["bucket"], 0.0) + entry["seconds"]
        )
    total = sum(measured.values())
    return [
        {
            "bucket": bucket,
            "seconds": measured.get(bucket, 0.0),
            "measured_fraction": (
                measured.get(bucket, 0.0) / total if total > 0 else 0.0
            ),
            "model_fraction": frac,
        }
        for bucket, frac in split.items()
    ]


def _fmt_count(value: float) -> str:
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.3e}"


def render_profile(
    registry: Registry | NullRegistry,
    rows: tuple[ProfileRow, ...] = SECTION_ROWS,
) -> str:
    """Human-readable measured-vs-model profile (the ``--profile`` table)."""
    table = section_table(registry, rows)
    buckets = bucket_table(registry, rows)
    totals = registry.section_totals()
    lines = []
    step = totals.get("step")
    if step:
        lines.append(
            f"profiled {step['calls']} step(s), "
            f"{step['seconds']:.3f} s inside step spans"
        )
    header = (
        f"{'section':16s} {'measured s':>10s} {'% of step':>9s} "
        f"{'calls':>6s} {'bucket':>7s} {'model %':>8s}  counters"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for entry in table:
        counter = (
            f"{entry['counter']}={_fmt_count(entry['counter_value'])}"
            if entry["counter"]
            else "-"
        )
        lines.append(
            f"{entry['label']:16s} {entry['seconds']:10.4f} "
            f"{100 * entry['fraction']:8.1f}% {entry['calls']:6d} "
            f"{entry['bucket']:>7s} {100 * entry['model_fraction']:7.1f}%  "
            f"{counter}"
        )
    lines.append("")
    lines.append("paper Table II attribution (Section III time split) "
                 "vs this run:")
    for entry in buckets:
        lines.append(
            f"  {entry['bucket']:7s} measured "
            f"{100 * entry['measured_fraction']:5.1f}%   "
            f"model/paper {100 * entry['model_fraction']:5.1f}%"
        )
    comm_bytes = registry.counter("comm.bytes")
    if comm_bytes:
        lines.append(
            f"  comm    {_fmt_count(comm_bytes)} bytes in "
            f"{_fmt_count(registry.counter('comm.messages'))} messages"
        )
    listed = list_efficiency_line(registry.counters)
    if listed:
        lines.append(f"  {listed}")
    return "\n".join(lines)


def bench_provenance_notes(records: dict) -> list[str]:
    """Loud warnings for bench records measured with a different set of
    kernel backends than this host can run.

    ``BENCH_kernels.json`` (and any record carrying a ``backends``
    list) names the kernel backends that existed where it was measured.
    A record timed without the compiled kernel says nothing about a
    host that has it, and vice versa.  Every consumer (``report``,
    ``check_regression.py``) prints these notes instead of silently
    comparing.
    """
    from repro.shortrange.backends import available_backends

    host = None
    notes = []
    for name, rec in sorted((records or {}).items()):
        payload = rec.get("payload", rec) if isinstance(rec, dict) else {}
        recorded = payload.get("backends") if isinstance(payload, dict) \
            else None
        if not isinstance(recorded, list):
            continue
        if host is None:
            host = sorted(available_backends())
        if sorted(recorded) == host:
            continue
        notes.append(
            f"PROVENANCE MISMATCH [SKIPPED/UNAVAILABLE]: bench record "
            f"{name!r} was measured with kernel backends "
            f"{sorted(recorded)} but this host runs {host} — its backend "
            f"timings are not comparable here."
        )
    return notes


# ----------------------------------------------------------------------
# machine-readable benchmark records
# ----------------------------------------------------------------------
def write_bench_record(
    name: str,
    payload: dict,
    directory: str | Path | None = None,
    registry: Registry | NullRegistry | None = None,
) -> Path:
    """Write a ``BENCH_<name>.json`` record and return its path.

    Parameters
    ----------
    name:
        Record stem; non-filename characters are replaced with ``_``.
    payload:
        Arbitrary JSON-serializable measurement data.
    directory:
        Destination (created if missing); defaults to the
        ``REPRO_BENCH_DIR`` environment variable, then
        ``benchmarks/records``.
    registry:
        If given, its :meth:`~repro.instrument.Registry.summary` — the
        section totals and counters — is embedded under ``"instrument"``.
    """
    if directory is None:
        directory = os.environ.get("REPRO_BENCH_DIR", "benchmarks/records")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in name)
    path = directory / f"BENCH_{safe}.json"
    record = {"name": name, "payload": payload}
    if registry is not None:
        summary = registry.summary()
        record["instrument"] = {
            "sections": summary["sections"],
            "counters": summary["counters"],
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
