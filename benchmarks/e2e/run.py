"""End-to-end + per-layer benchmark of ``python -m repro run``.

    python benchmarks/e2e/run.py [--workload W ...] [--seed S]
        [--seconds T] [--trace {0,1}] [--out DIR]

With ``--trace 0`` a workload's plain and setup-only children are timed
(tracing off) and the end-to-end metrics printed; with ``--trace 1`` one
traced child gives the per-layer metrics and the closed wall-clock
budget.  Without ``--trace`` both happen, without ``--workload`` for all
seven workloads.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` for the last
(workload, trace) pair run.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import mmap
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

from spans import budget_rows, self_times  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    TOLERANCES,
    WORKLOADS,
    config_fields,
    plain_argv,
)

#: a workload is measured in rounds of (plain child, setup-only child)
MIN_ROUNDS = 3
#: plain children timed by a traced invocation (trace-overhead base)
TRACED_PLAIN_REPS = 2
TRACED_TIMEOUT_S = 120.0
#: a child is killed after 3x the parent commit's median plus this much
#: for a cold page cache on the first run in a checkout
TIMEOUT_GRACE_S = 5.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# Speed sampler.  The reference host is a shared VM whose cores switch,
# at intervals from 0.1 s to a minute, between two speeds 1.3x apart (a
# busy SMT sibling on the hypervisor), and whose page faults and system
# calls get dearer and cheaper with the host's load: raw process walls of
# one commit spread by 20-30 %, and the mix drifts, so more repetitions
# do not help.  While a child runs, a thread of the parent pinned to the
# child's core therefore times a fixed ~5 ms unit of work every
# PROBE_PERIOD_S, in CPU time of that thread: half numpy + interpreter
# arithmetic in cache, half first-touch page faults (measured on the
# parent commit, the two together track a child's wall better than
# either, and a memory-streaming part adds nothing).  The child's times
# are then scaled by mean(PROBE_REF_S / reading) to the reference speed,
# after the CPU the sampler took from the core is taken off its wall.
PROBE_REF_S = 0.0046
PROBE_PERIOD_S = 0.05
_PROBE_DATA = np.random.default_rng(0).random(16_384)
_PROBE_MAP_BYTES = 4 << 20


def probe_unit() -> float:
    """CPU seconds this thread needs for the fixed unit of work."""
    a = _PROBE_DATA
    c0 = time.thread_time()
    acc = 0.0
    for _ in range(50):
        acc += float(np.sqrt(a * a + 1.0).sum())
    for i in range(12_500):
        acc += i * 0.5
    with mmap.mmap(-1, _PROBE_MAP_BYTES) as fresh:
        for offset in range(0, _PROBE_MAP_BYTES, 4096):
            fresh[offset] = 1
    return time.thread_time() - c0


class SpeedSampler(threading.Thread):
    """Samples one core's speed until stopped."""

    def __init__(self, cpu: int) -> None:
        super().__init__(daemon=True)
        self.cpu = cpu
        self.readings: list[float] = []
        self.cpu_s = 0.0
        self._stop_event = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while True:
            self.readings.append(probe_unit())
            if self._stop_event.wait(PROBE_PERIOD_S):
                break
        self.cpu_s = time.thread_time()

    def finish(self) -> None:
        self._stop_event.set()
        self.join()


@dataclass
class Sample:
    """One child process, as the kernel accounted it (``os.wait4``)."""

    kind: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    #: reference speed / host speed, averaged over the child's life
    speed: float
    #: CPU the samplers took from each of the child's cores
    sampler_cpu_s: float
    failure: str | None = None

    @property
    def wall_ref_s(self) -> float:
        return (self.wall_s - self.sampler_cpu_s) * self.speed

    @property
    def cpu_ref_s(self) -> float:
        return self.cpu_s * self.speed


class Host:
    """Spawns one pinned child at a time and samples its cores' speed."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.all_cpus = sorted(os.sched_getaffinity(0))
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
        self.samples: list[Sample] = []

    def run(self, kind: str, argv: list, timeout: float,
            workers: int = 1) -> Sample:
        cpus = self.all_cpus[-workers:]
        os.sched_setaffinity(0, cpus)  # inherited by the child
        samplers = [SpeedSampler(cpu) for cpu in cpus]
        for sampler in samplers:
            sampler.start()
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, *map(str, argv)],
            self.env,
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, str(self.work / "children.log"),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
                (os.POSIX_SPAWN_DUP2, 1, 2),
            ],
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # exited as the timer fired
                pass

        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
            os.sched_setaffinity(0, self.all_cpus)
        wall = time.perf_counter() - t0
        for sampler in samplers:
            sampler.finish()
        sample = Sample(
            kind=kind,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            status=status,
            speed=statistics.fmean(
                PROBE_REF_S / r for s in samplers for r in s.readings
            ),
            sampler_cpu_s=statistics.fmean(s.cpu_s for s in samplers),
        )
        if timed_out.is_set():
            sample.failure = f"timed out after {timeout:.0f} s"
        elif status != 0:
            sample.failure = f"wait status {status}"
        self.samples.append(sample)
        return sample


def succeeded(samples: list[Sample]) -> list[Sample]:
    return [s for s in samples if s.failure is None]


def summary(values: list[float], n_total: int) -> dict:
    return {
        "value": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "n_run": n_total,
        "samples": values,
    }


# ----------------------------------------------------------------------
# inputs and checks
# ----------------------------------------------------------------------
def write_config(name: str, seed: int, path: Path) -> dict:
    """Build the config from the commit under test; the program only
    ever sees this file."""
    from repro.config import SimulationConfig

    config = SimulationConfig(**config_fields(name, seed)).to_dict()
    path.write_text(json.dumps(config), encoding="utf-8")
    return config


def final_checkpoint(outdir: Path, n_steps: int) -> Path:
    return outdir / f"ckpt_{n_steps:06d}.npz"


def check_checkpoint(sample: Sample, path: Path, n_steps: int,
                     verify_large: bool) -> None:
    """Plain run with ``--outdir``: the final file exists, verifies and
    holds the last step.  Verifying the 64^3 file is 2 s of per-byte
    Python CRC32C, so the timed (``--trace 0``) repetitions verify only
    files under 4 MB; the traced invocation verifies any size."""
    if sample.failure is not None:
        return
    if not path.is_file():
        sample.failure = f"no final checkpoint {path.name}"
    elif verify_large or path.stat().st_size < 4 << 20:
        from repro.io import verify_checkpoint
        from repro.io.checkpoint import CheckpointError

        try:
            step = verify_checkpoint(path)["step_index"]
        except CheckpointError as exc:
            sample.failure = f"verify_checkpoint: {exc}"
        else:
            if step != n_steps:
                sample.failure = f"checkpoint step {step} != {n_steps}"


class Invocation:
    """State shared by the two modes of one (workload, seed) run."""

    def __init__(self, name: str, seed: int) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.work = WORK / f"{name}-seed{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.host = Host(self.work)
        self.config_path = self.work / "config.json"
        self.config = write_config(name, seed, self.config_path)
        self.outdir = self.work / "plain_out"

    def plain(self, kind: str = "plain", name: str | None = None,
              extra: tuple = ()) -> Sample:
        """One plain ``python -m repro run`` child (fresh outdir)."""
        w = WORKLOADS[name] if name else self.workload
        config_path = self.config_path
        if name:
            config_path = self.work / f"config_{name}.json"
            write_config(name, self.seed, config_path)
        shutil.rmtree(self.outdir, ignore_errors=True)
        return self.host.run(
            kind,
            plain_argv(w.name, str(config_path), str(self.outdir))
            + list(extra),
            timeout=3 * w.plain_s + TIMEOUT_GRACE_S,
            workers=w.fields.get("workers", 1),
        )

    def child(self, kind: str, mode: str, timeout: float,
              extra: tuple = ()) -> Sample:
        return self.host.run(
            kind,
            [HERE / "child.py", "--workload", self.workload.name,
             "--config", self.config_path, mode, *extra],
            timeout=timeout,
            workers=self.workload.fields.get("workers", 1),
        )

    def tally(self) -> tuple[int, int]:
        samples = self.host.samples
        return len(samples), sum(s.failure is not None for s in samples)


# ----------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ----------------------------------------------------------------------
def run_end_to_end(inv: Invocation, seconds: float) -> dict:
    w, cfg = inv.workload, inv.config
    ckpt = final_checkpoint(inv.outdir, cfg["n_steps"])
    plain: list[Sample] = []
    setup: list[Sample] = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        sample = inv.plain()
        if w.checkpoint:
            check_checkpoint(sample, ckpt, cfg["n_steps"], verify_large=False)
        plain.append(sample)
        setup.append(inv.child(
            "setup", "--setup-only", 3 * w.setup_s + TIMEOUT_GRACE_S))
        now = time.perf_counter()
        # stop once another round would no longer end inside the time
        if len(plain) >= MIN_ROUNDS and 2 * now - t_round > start + seconds:
            break

    good_plain, good_setup = succeeded(plain), succeeded(setup)
    if not good_plain or not good_setup:
        return {}
    results = {
        "run_wall_s": summary(
            [s.wall_ref_s for s in good_plain], len(plain)),
        "setup_s": summary(
            [s.wall_ref_s for s in good_setup], len(setup)),
        "run_cpu_s": summary(
            [s.cpu_ref_s for s in good_plain], len(plain)),
        "peak_rss_mb": summary([s.rss_mb for s in good_plain], len(plain)),
    }
    # the value is from the two medians, the range from the rounds
    per = 1e9 / (cfg["n_per_dim"] ** 3 * cfg["n_steps"] * cfg["n_subcycles"])
    rounds = [(p.wall_ref_s - s.wall_ref_s) * per
              for p, s in zip(plain, setup)
              if p.failure is None and s.failure is None]
    results["ns_per_particle_substep"] = {
        **summary(rounds, len(plain)),
        "value": (results["run_wall_s"]["value"]
                  - results["setup_s"]["value"]) * per,
    }
    results["raw"] = {
        "run_wall_s": statistics.median(s.wall_s for s in good_plain),
        "setup_s": statistics.median(s.wall_s for s in good_setup),
        "speed": statistics.median(
            s.speed for s in good_plain + good_setup),
    }
    return results


def print_end_to_end(name: str, results: dict) -> None:
    print(f"\n== {name}: end-to-end (tracing off; times at reference "
          f"host speed, see README) ==")
    print(f"{'metric':<26}{'unit':<6}{'median':>12}{'min':>12}{'max':>12}"
          f"  reps (ok/run)")
    for metric, unit, _ in END_TO_END:
        r = results.get(metric)
        if r is None:
            print(f"{metric:<26}{unit:<6}{'n/a':>12}")
        else:
            print(f"{metric:<26}{unit:<6}{r['value']:>12.4f}{r['min']:>12.4f}"
                  f"{r['max']:>12.4f}  {r['n']}/{r['n_run']}")
    raw = results.get("raw")
    if raw:
        print(f"raw medians: run_wall_s {raw['run_wall_s']:.4f} s, setup_s "
              f"{raw['setup_s']:.4f} s; reference speed / host speed "
              f"{raw['speed']:.3f}")


# ----------------------------------------------------------------------
# --trace 1: the per-layer metrics and the budget
# ----------------------------------------------------------------------
def ratio(num, den):
    return num / den if num is not None and den else None


def run_traced(inv: Invocation, out_dir: Path | None) -> dict:
    w, cfg = inv.workload, inv.config
    n_steps = cfg["n_steps"]
    ckpt = final_checkpoint(inv.outdir, n_steps)

    plain = [inv.plain() for _ in range(TRACED_PLAIN_REPS)]
    if w.checkpoint:
        check_checkpoint(plain[-1], ckpt, n_steps, verify_large=True)
    kept = inv.work / "plain_last.npz"
    if w.checkpoint and ckpt.is_file():
        shutil.copyfile(ckpt, kept)

    result_path = inv.work / "traced.json"
    extra = ["--out", result_path, "--outdir", inv.work / "traced_out"]
    if kept.is_file():
        extra += ["--plain-ckpt", kept]
    traced = inv.child("traced", "--traced", TRACED_TIMEOUT_S, tuple(extra))
    if traced.failure is None and not result_path.is_file():
        traced.failure = "traced child wrote no result"
    if traced.failure is not None:
        return {}
    child = json.loads(result_path.read_text(encoding="utf-8"))
    spans = child["spans"]
    m: dict = dict.fromkeys((name for name, _, _ in PER_LAYER))
    m.update({k: v for k, v in child["metrics"].items() if k in m})

    # -- budget and live-span metrics ---------------------------------
    wall_ns = round(traced.wall_s * 1e9)
    budget_ns, rows = budget_rows(spans, wall_ns)
    selfs = self_times(spans)

    def total(name: str) -> float:
        return sum(e - s for n, s, e, _ in spans if n == name) / 1e9

    steps = [(e - s) / 1e9 for n, s, e, _ in spans
             if n.startswith("core.step[")]
    step_self = sum(t for (n, *_), t in zip(spans, selfs)
                    if n.startswith("core.step[")) / 1e9
    step_total = sum(steps)
    m["cli.import_s"] = total("cli.import")
    m["cosmology.ic_s"] = total("cosmology.ic")
    m["shortrange.gridfit_s"] = total("shortrange.gridfit")
    for label in ("cosmology.ic", "shortrange.gridfit"):
        if label in child["skipped_probes"]:  # then paid inside construct
            m[label + "_s"] = None
    m["core.construct_s"] = total("core.construct")
    m["core.close_s"] = total("core.close")
    m["core.step_s"] = statistics.median(steps)
    m["core.first_step_s"] = steps[0]
    m["core.stepper_self_s"] = step_self / n_steps
    m["core.stepper_self_frac"] = step_self / step_total
    m["core.unattributed_s"] = rows[-1][2] / 1e9
    m["core.unattributed_frac"] = rows[-1][2] / budget_ns
    m["grid.longrange_s"] = total("grid.longrange") / n_steps
    m["grid.longrange_frac"] = total("grid.longrange") / step_total
    m["shortrange.total_s"] = total("shortrange.total") / n_steps
    m["shortrange.frac"] = total("shortrange.total") / step_total
    m["shortrange.ns_per_listed_pair"] = (
        ratio(m["shortrange.total_s"] * 1e9, m["shortrange.pairs_listed"])
        or 0.0
    )
    m["parallel.distribute_s"] = total("parallel.distribute") / n_steps
    m["parallel.solve_s"] = total("parallel.solve") / n_steps
    m["parallel.dispatch_self_s"] = (
        m["shortrange.total_s"] - m["parallel.distribute_s"]
        - m["parallel.solve_s"]
        if w.decomposition else 0.0
    )
    for name in ("parallel.ghost_fraction", "parallel.domain_imbalance",
                 "parallel.comm_bytes_per_step"):
        if not w.decomposition:
            m[name] = 0.0
    writes = child["metrics"].get("io.ckpt_files", 0)
    m["io.ckpt_write_s"] = total("io.ckpt_write") / writes if writes else 0.0
    m["io.ckpt_bytes"] = child["metrics"].get("io.ckpt_bytes", 0)
    m["io.ckpt_write_mb_per_s"] = (
        ratio(m["io.ckpt_bytes"] / 1e6, m["io.ckpt_write_s"]) or 0.0
    )
    if not w.checkpoint:
        m["io.ckpt_verify_s"] = m["io.ckpt_load_s"] = 0.0
    if cfg["backend"] == "pm":  # the short-range layer does nothing
        for name, _, _ in PER_LAYER:
            if name.startswith("shortrange.") and m[name] is None:
                m[name] = 0.0

    # -- ratios against plain children --------------------------------
    good = succeeded(plain)
    base = statistics.median(s.wall_ref_s for s in good) if good else None
    probes_s = total("harness.probes")
    m["harness.trace_overhead_frac"] = (
        traced.wall_ref_s * (1 - probes_s / traced.wall_s) / base - 1
        if base else None
    )
    m["harness.speed_factor"] = 1 / traced.speed
    m["parallel.cpu_over_wall"] = (
        statistics.median(s.cpu_s / (s.wall_s - s.sampler_cpu_s)
                          for s in good) if good else None
    )
    m["parallel.speedup_vs_serial"] = 0.0
    if w.name == "decomp-24-thread2":
        twin = succeeded([inv.plain("plain-serial-twin", "decomp-24-serial")
                          for _ in range(TRACED_PLAIN_REPS)])
        m["parallel.speedup_vs_serial"] = (
            statistics.median(s.wall_ref_s for s in twin) / base
            if twin and base else None
        )
    m["instrument.overhead_frac"] = 0.0
    if w.name == "small-16-ckpt":
        program_trace = inv.work / "program_trace.json"
        on = succeeded([inv.plain("plain-trace-on",
                                  extra=("--trace", str(program_trace)))
                        for _ in range(TRACED_PLAIN_REPS)])
        m["instrument.overhead_frac"] = (
            statistics.median(s.wall_ref_s for s in on) / base - 1
            if on and base else None
        )

    # -- checks that feed run_fail_frac --------------------------------
    tol = TOLERANCES[child["dtype"]]
    problems = [k for k, passed in child["checks"].items() if not passed]
    for name, limit in tol.items():
        value = m[name]
        if name.startswith("shortrange.") and cfg["backend"] == "pm":
            continue
        if value is not None and not value <= limit:
            problems.append(f"{name} {value:.3g} > {limit:g}")
    if cfg["backend"] != "pm" and not m["shortrange.pairs_listed"] > 0:
        problems.append("shortrange.pairs_listed is 0")
    # both checkpoint workloads are serial f64: the traced state must
    # have been compared, bit for bit, with the plain run's checkpoint
    if (w.checkpoint and "state_equals_plain_ckpt" not in child["checks"]
            and "io" not in child["skipped_probes"]):
        problems.append("no plain checkpoint to compare the state with")
    if problems:
        traced.failure = "; ".join(problems)

    attempted, failed = inv.tally()
    m["harness.run_fail_frac"] = failed / attempted
    m["harness.null_metrics"] = 0
    m["harness.null_metrics"] = sum(v is None for v in m.values())

    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"trace_{w.name}.json").write_text(
            json.dumps({"wall_ns": wall_ns, "spans": spans}),
            encoding="utf-8",
        )
    return {
        "metrics": m,
        "budget": {"wall_s": budget_ns / 1e9, "probes_s": probes_s,
                   "rows": [(d, n, ns / 1e9) for d, n, ns in rows]},
        "skipped_probes": child["skipped_probes"],
        "kernel_backend": child["kernel_backend"],
        "stream_array_mb": child["metrics"].get("harness.stream_array_mb"),
    }


def print_traced(name: str, results: dict) -> None:
    budget = results["budget"]
    wall = budget["wall_s"]
    print(f"\n== {name}: traced budget (child wall {wall:.4f} s after "
          f"taking off {budget['probes_s']:.4f} s of probes) ==")
    for depth, row, seconds in budget["rows"]:
        label = "  " * depth + row
        print(f"{label:<34}{seconds:>10.4f} s{100 * seconds / wall:>7.1f} %")
    top = sum(s for d, _, s in budget["rows"] if d == 0)
    print(f"{'sum of top-level rows':<34}{top:>10.4f} s")
    print(f"\n== {name}: per-layer metrics (probes are medians of "
          f"repeated calls on the final state) ==")
    for metric, unit, _ in PER_LAYER:
        value = results["metrics"][metric]
        text = "null" if value is None else f"{value:.6g}"
        print(f"{metric:<36}{text:>14} {unit}")
    if results["stream_array_mb"] is None:
        print("STREAM triad not measured: three arrays of 4x the last-level "
              "cache exceed the probe's memory cap")
    else:
        print(f"STREAM triad arrays: {results['stream_array_mb']:.0f} MB "
              f"each, 4x the last-level cache")
    if results["skipped_probes"]:
        print("skipped_probes:")
        for probe_name, why in results["skipped_probes"].items():
            print(f"  {probe_name}: {why}")


# ----------------------------------------------------------------------
# provenance, driver
# ----------------------------------------------------------------------
def git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def provenance() -> dict:
    import scipy

    from probes import cache_sizes

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_bytes": caches.get(2),
        "l3_bytes": caches.get(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_rev": git_rev(),
        "thread_env": THREAD_ENV,
        "loadavg_1m": os.getloadavg()[0],
        "probe_ref_s": PROBE_REF_S,
    }


def run_one(name: str, seed: int, seconds: float, trace: int,
            out_dir: Path | None) -> dict:
    """One (workload, trace) pair: measure, print, return the record."""
    inv = Invocation(name, seed)
    try:
        if trace:
            results = run_traced(inv, out_dir)
            table, values = PER_LAYER, results.get("metrics", {})
            if results:
                print_traced(name, results)
        else:
            results = run_end_to_end(inv, seconds)
            table = END_TO_END
            values = {k: v["value"] for k, v in results.items() if k != "raw"}
            print_end_to_end(name, results)
        attempted, failed = inv.tally()
        for s in inv.host.samples:
            if s.failure is not None:
                print(f"FAILED {s.kind} child: {s.failure}")
        print(f"run_fail_frac {failed / attempted:.4f} "
              f"({failed} of {attempted} children failed a check)")
    finally:
        shutil.rmtree(inv.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # unless another run is using it
    # the last-line JSON carries numbers only: a metric that is null
    # (skipped probe, no valid denominator) is sent as 0 and counted in
    # harness.null_metrics; the result set keeps the null
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values.get(metric) or 0.0, "unit": unit}
            for metric, unit, _ in table
        },
    }
    return {"results": results, "line": line}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="repeatable; default: all seven")
    ap.add_argument("--seed", type=int, default=1,
                    help="IC white-noise seed (default 1)")
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="time the end-to-end rounds of one workload may "
                         "start in (at least %d rounds run)" % MIN_ROUNDS)
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0: end-to-end only, 1: traced only; default both")
    ap.add_argument("--out", type=Path,
                    help="directory for results.json and trace_<w>.json")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: the program under test is not at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    probe_unit()  # first call pays numpy's lazy set-up

    names = args.workload or list(WORKLOADS)
    traces = (0, 1) if args.trace is None else (args.trace,)
    record = {"seed": args.seed, "seconds": args.seconds,
              "provenance": provenance(), "workloads": {}}
    last = None
    for name in names:
        entry = record["workloads"].setdefault(name, {})
        for trace in traces:
            last = run_one(name, args.seed, args.seconds, trace, args.out)
            entry["traced" if trace else "end_to_end"] = last["results"]
            entry.setdefault("runs", []).append(
                {k: last["line"][k] for k in ("correct", "attempted", "failed")}
            )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "results.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(last["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
