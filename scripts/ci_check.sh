#!/usr/bin/env bash
# CI lanes (usage: scripts/ci_check.sh), one line each:
#  1 fast test suite (pytest -m "not slow") + src/repro docstring examples
#  2 run smoke: 'run --summary' under --workers 2
#  3 one decomposed run at serial@1, serial@2, thread@2 bitwise, equal
#    pp.*/tree.* counters; f32 pair
#  4 chaos lane: fault-injection tests under REPRO_CHAOS_SEED
#  5 executor chaos tests over REPRO_CHAOS_WORKERS thread workers
#  6 fig5, executor and roofline benches, then check_regression.py once
#  7 two ledgered 'run --profile' runs; 'runs list --workers 2' selects
#    the threaded one; 'report --compare' JSON verdict
#  8 forced numpy fallback: backend tests, 16^3 runs bitwise = C twins
#  9 'report --roofline' on lane 7's ledger places shortrange/cic/fft
# 10 SIGKILLed campaign supervisor: 'campaign resume' ends exactly once
# 11 traced treepm-f64-32 end-to-end benchmark passes its own checks
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"

PYTHON="${PYTHON:-python}"
export REPRO_CHAOS_SEED="${REPRO_CHAOS_SEED:-2012}"
export REPRO_CHAOS_WORKERS="${REPRO_CHAOS_WORKERS:-2}"

echo "== 1/11 smoke tests (pytest -m 'not slow') + docstring examples =="
PYTHONPATH=src "$PYTHON" -m pytest tests src/repro -q -m "not slow"

echo "== 2/11 run smoke (run --summary --workers 2) =="
PYTHONPATH=src "$PYTHON" -m repro run --steps 2 --n-per-dim 12 --workers 2 \
    --summary

echo "== 3/11 executor triplet (run, serial@1 vs serial@2 vs thread@2, bitwise, same counts) + f32 pair =="
# 24^3 with the default overload depth (rcut + one cell = 10.7 Mpc/h):
# rcut = 8 <= depth < 16 = half the domain width, the only valid order
CI_OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$CI_OBS_DIR"' EXIT
for lane in serial:1 serial:2 thread:2; do
    PYTHONPATH=src "$PYTHON" -m repro -q run --steps 1 --n-per-dim 24 \
        --workers "${lane#*:}" --decomposition 2,1,1 \
        --executor "${lane%:*}" --outdir "$CI_OBS_DIR/run-${lane/:/@}" \
        --trace "$CI_OBS_DIR/trace-${lane/:/@}.json"
done
PYTHONPATH=src "$PYTHON" - "$CI_OBS_DIR" <<'PYEOF'
import pathlib, sys
from repro.instrument.exporters import load_chrome_trace
from repro.io import load_latest_valid
root = pathlib.Path(sys.argv[1])
lanes = ("serial@1", "serial@2", "thread@2")
# one verified read per final checkpoint; byte-equal arrays (all that a
# checkpoint's CRC32 manifest covers) mean equal manifests
final = {l: load_latest_valid(root / f"run-{l}")[1] for l in lanes}
ref = final["serial@1"]
for lane in lanes[1:]:
    for field in ("positions", "momenta", "masses", "ids"):
        a = getattr(ref.particles, field)
        b = getattr(final[lane].particles, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
            f"executor triplet: {field} differ between serial@1 and {lane}"
    assert final[lane].a == ref.a, \
        f"executor triplet: scale factor differs between serial@1 and {lane}"
# the work is counted where it runs: every executor charges the same
counts = {
    l: {k: v for k, v in load_chrome_trace(root / f"trace-{l}.json")
        ["counters"].items() if k.startswith(("pp.", "tree."))}
    for l in lanes
}
assert counts["serial@1"].get("pp.interactions", 0) > 0, counts["serial@1"]
for lane in lanes[1:]:
    assert counts[lane] == counts["serial@1"], \
        f"executor triplet: pp.*/tree.* counters differ between serial@1 " \
        f"and {lane}: {counts['serial@1']} vs {counts[lane]}"
print("executor triplet: serial@1, serial@2 and thread@2 final states "
      f"bitwise equal (every checkpointed array), {len(counts['serial@1'])} "
      "pp.*/tree.* counters equal")
PYEOF
# the same decomposed run in f32 at serial@1 and thread@2: the overload
# replicas (and so every domain) must stay float32 on both executors
for lane in serial:1 thread:2; do
    PYTHONPATH=src "$PYTHON" -m repro -q run --steps 1 --n-per-dim 24 \
        --workers "${lane#*:}" --decomposition 2,1,1 --precision f32 \
        --executor "${lane%:*}" --outdir "$CI_OBS_DIR/f32-${lane/:/@}"
done
PYTHONPATH=src "$PYTHON" - "$CI_OBS_DIR" <<'PYEOF'
import pathlib, sys
import numpy as np
from repro.io import load_latest_valid
root = pathlib.Path(sys.argv[1])
state = {l: load_latest_valid(root / f"f32-{l}")[1].particles
         for l in ("serial@1", "thread@2")}
for field in ("positions", "momenta"):
    a, b = (getattr(state[l], field) for l in ("serial@1", "thread@2"))
    assert a.dtype == b.dtype == np.float32, \
        f"f32 pair: {field} dtypes {a.dtype} / {b.dtype}, expected float32"
    assert a.tobytes() == b.tobytes(), \
        f"f32 pair: {field} differ between serial@1 and thread@2"
print("f32 pair: serial@1 and thread@2 final states bitwise equal, float32")
PYEOF

echo "== 4/11 chaos lane (pytest -m chaos, seed $REPRO_CHAOS_SEED) =="
PYTHONPATH=src "$PYTHON" -m pytest tests -q -m chaos

echo "== 5/11 chaos lane under $REPRO_CHAOS_WORKERS workers =="
PYTHONPATH=src "$PYTHON" -m pytest tests/test_parallel_executor.py -q -m chaos

echo "== 6/11 benchmarks + regression gate (durations and every bar) =="
(cd benchmarks && PYTHONPATH=../src "$PYTHON" -m pytest \
    bench_fig5_kernel_threading.py bench_executor_scaling.py \
    bench_roofline_measured.py -q)
if [ ! -d benchmarks/records/baseline ] || \
   ! ls benchmarks/records/baseline/BENCH_*.json >/dev/null 2>&1; then
    echo "no baseline found -- bootstrapping from this run"
    "$PYTHON" benchmarks/check_regression.py --update-baseline
fi
"$PYTHON" benchmarks/check_regression.py

echo "== 7/11 run ledger + critical-path report lane =="
PYTHONPATH=src "$PYTHON" -m repro run --profile --steps 2 --n-per-dim 8 \
    --telemetry "$CI_OBS_DIR/a.jsonl" --ledger "$CI_OBS_DIR/ledger" \
    > /dev/null
PYTHONPATH=src "$PYTHON" -m repro run --profile --steps 2 --n-per-dim 8 \
    --workers 2 --executor thread \
    --telemetry "$CI_OBS_DIR/b.jsonl" --ledger "$CI_OBS_DIR/ledger" \
    > /dev/null
PYTHONPATH=src "$PYTHON" -m repro runs list --ledger "$CI_OBS_DIR/ledger"
PYTHONPATH=src "$PYTHON" -m repro runs list --ledger "$CI_OBS_DIR/ledger" \
    --workers 2 --json > "$CI_OBS_DIR/threaded.json"
"$PYTHON" - "$CI_OBS_DIR/threaded.json" <<'PYEOF'
import json, sys
runs = json.load(open(sys.argv[1]))
assert [(r["executor"], r["workers"]) for r in runs] == [("thread", 2)], runs
print(f"filter lane: --workers 2 selects {runs[0]['run_id']} alone")
PYEOF
PYTHONPATH=src "$PYTHON" -m repro report \
    --compare latest~1 latest --ledger "$CI_OBS_DIR/ledger" --json \
    > "$CI_OBS_DIR/report.json"
"$PYTHON" - "$CI_OBS_DIR/report.json" <<'PYEOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep.get("verdict") in ("OK", "IMPROVED", "REGRESSION"), rep.get("verdict")
assert rep.get("phases"), "comparison has no phases"
print(f"report lane: verdict {rep['verdict']}, "
      f"{len(rep['phases'])} phases compared")
PYEOF

echo "== 8/11 forced numpy fallback =="
# the compiler lookup honours $CC: /bin/false and an empty cache leave
# 'auto' nothing to build or load, so it must degrade to numpy
FB_DIR="$CI_OBS_DIR/fallback"
mkdir -p "$FB_DIR/cache"
CC=/bin/false XDG_CACHE_HOME="$FB_DIR/cache" PYTHONPATH=src \
    "$PYTHON" -m pytest tests/test_kernel_backends.py \
    tests/test_shortrange_kernel_tree.py tests/test_shortrange_batch.py \
    tests/test_shortrange_solvers.py tests/test_grid_cic.py \
    tests/test_grid_filters_poisson.py tests/test_core_timestepper.py \
    tests/test_cosmology_fields_ics.py tests/test_parallel_overload.py \
    tests/test_shortrange_solve.py -q
fallback_twin() {  # NAME RUN-FLAGS...: the same run on C and on numpy
    local name=$1
    shift
    PYTHONPATH=src "$PYTHON" -m repro -q run --n-per-dim 16 "$@" \
        --outdir "$FB_DIR/$name-c" --telemetry "$FB_DIR/$name-c.jsonl"
    CC=/bin/false XDG_CACHE_HOME="$FB_DIR/cache" PYTHONPATH=src \
        "$PYTHON" -m repro -q run --n-per-dim 16 "$@" \
        --outdir "$FB_DIR/$name-numpy" --telemetry "$FB_DIR/$name-numpy.jsonl"
}
fallback_twin treepm-f64 --steps 1
fallback_twin treepm-f32 --steps 1 --precision f32
fallback_twin pm-f64 --steps 3 --backend pm
fallback_twin pm-f32 --steps 3 --backend pm --precision f32
# P3M's list build is the same cull primitive on whole-cell ranges
fallback_twin p3m --steps 1 --backend p3m
# per-domain trees on both builds; at 16^3 the default overload depth
# (rcut + one cell = 16) is not below half a domain, so it is rcut = 12
fallback_twin decomp-f64 --steps 1 --decomposition 2,1,1 --overload-depth 12
# the overload route on both builds in f32: one float64 cell per particle
fallback_twin decomp-f32 --steps 1 --precision f32 --decomposition 2,1,1 \
    --overload-depth 12
# replica recovery on both builds: it reads each domain's rows as routed
fallback_twin decomp-death --steps 1 --decomposition 2,1,1 \
    --overload-depth 12 --inject-rank-death 0:1
# ... and in f32: the recovered domains must stay float32
fallback_twin decomp-death-f32 --steps 1 --precision f32 \
    --decomposition 2,1,1 --overload-depth 12 --inject-rank-death 0:1
PYTHONPATH=src "$PYTHON" - "$FB_DIR" <<'PYEOF'
import json, pathlib, sys
from repro.io import load_latest_valid
root = pathlib.Path(sys.argv[1])
for twin in ("treepm-f64", "treepm-f32", "pm-f64", "pm-f32", "p3m",
             "decomp-f64", "decomp-f32", "decomp-death", "decomp-death-f32"):
    state = {}
    for name in ("c", "numpy"):
        run = f"{twin}-{name}"
        manifest = json.loads(open(root / f"{run}.jsonl").readline())
        assert manifest["kernel_backend"] == name, \
            f"{run} recorded kernel backend {manifest['kernel_backend']!r}"
        state[name] = load_latest_valid(root / run)[1].particles
    assert "kernel_build" not in manifest, f"{run} claims a compiled kernel"
    assert "kernel_simd" not in manifest, f"{run} claims a SIMD pair path"
    for field in ("positions", "momenta"):
        a, b = getattr(state["c"], field), getattr(state["numpy"], field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
            f"{twin}: {field} differ between the C and numpy runs"
        if twin.endswith("f32"):
            assert a.dtype == "float32", f"{twin}: {field} are {a.dtype}"
    print(f"fallback lane: {twin} ran on numpy under CC=/bin/false, final "
          f"state bitwise equal to the C run ({state['c'].positions.dtype})")
PYEOF

echo "== 9/11 live measured roofline =="
# the ledgered 'run --profile' from lane 7 carries its trace.json; place
# it on the calibrated host roofline (calibration caches in the ledger)
PYTHONPATH=src "$PYTHON" -m repro report \
    --roofline --ledger "$CI_OBS_DIR/ledger" --json \
    > "$CI_OBS_DIR/roofline.json"
"$PYTHON" - "$CI_OBS_DIR/roofline.json" <<'PYEOF'
import json, sys
sys.path.insert(0, "benchmarks")
from check_regression import ROOFLINE_MAX_FRAC_PEAK, ROOFLINE_REQUIRED_PHASES
tab = json.load(open(sys.argv[1]))
phases = {row["name"]: row for row in tab.get("phases", [])}
for name in ROOFLINE_REQUIRED_PHASES:
    assert name in phases, f"roofline lane: phase {name!r} missing"
    assert phases[name]["flops"] > 0, f"{name}: no flops counted"
    frac = phases[name]["frac_peak"]
    assert 0.0 < frac <= ROOFLINE_MAX_FRAC_PEAK, \
        f"{name}: insane frac_peak {frac}"
cal = tab["calibration"]
print(f"roofline lane: peak {cal['peak_gflops']:.1f} GFLOP/s, "
      f"{len(phases)} phases placed")
PYEOF

echo "== 10/11 campaign supervisor chaos lane =="
# A tiny 4-config campaign (one config injects a rank death that the
# overload-replica recovery absorbs).  Mid-flight, SIGKILL both the
# supervisor and its child -- a simulated node death -- then 'campaign
# resume' must finish the suite with every run DONE, correct attempt
# counts (the killed run retried once, uncharged), and exactly one
# ledger entry per run.
CAMP_DIR="$CI_OBS_DIR/campaign"
cat > "$CI_OBS_DIR/campaign.toml" <<'EOF'
[campaign]
name = "ci-smoke"
max_attempts = 3
timeout_s = 300.0
heartbeat_timeout_s = 120.0
poll_interval_s = 0.05
retry_base_delay = 0.01
retry_max_delay = 0.05
extra_args = ["--inject-slowdown", "shortrange:0.3"]

[base]
box_size = 64.0
n_per_dim = 8
grid_size = 16
n_steps = 4
n_subcycles = 1
backend = "treepm"

[grid]
seed = [1, 2]

[[runs]]
seed = 3

[[runs]]
seed = 4
extra_args = ["--decomposition", "2,1,1", "--overload-depth", "14",
              "--inject-rank-death", "1:0"]
EOF
PYTHONPATH=src "$PYTHON" -m repro campaign run "$CI_OBS_DIR/campaign.toml" \
    --dir "$CAMP_DIR" --ledger "$CI_OBS_DIR/ledger" > /dev/null 2>&1 &
CAMPAIGN_PID=$!
CHILD_PID="$("$PYTHON" - "$CAMP_DIR" <<'PYEOF'
import json, pathlib, sys, time
camp = pathlib.Path(sys.argv[1])
journal = camp / "journal.jsonl"
deadline = time.monotonic() + 120
while time.monotonic() < deadline:
    open_runs = {}
    if journal.is_file():
        for line in open(journal):
            try:
                ev = json.loads(line)
            except json.JSONDecodeError:
                continue
            if ev.get("kind") == "dispatched":
                open_runs[ev["run"]] = ev.get("pid")
            elif ev.get("kind") == "exit":
                open_runs.pop(ev["run"], None)
    for rid, pid in open_runs.items():
        tel = camp / "runs" / rid / "telemetry.jsonl"
        # in flight with at least one flushed step: a genuine
        # mid-trajectory kill
        if pid and tel.is_file() and sum(1 for _ in open(tel)) >= 2:
            print(pid)
            sys.exit(0)
    time.sleep(0.1)
sys.exit("campaign lane: never reached a mid-flight state")
PYEOF
)"
kill -9 "$CAMPAIGN_PID" 2>/dev/null || true
kill -9 "$CHILD_PID" 2>/dev/null || true
wait "$CAMPAIGN_PID" 2>/dev/null || true
while kill -0 "$CHILD_PID" 2>/dev/null; do sleep 0.1; done
PYTHONPATH=src "$PYTHON" -m repro campaign resume "$CI_OBS_DIR/campaign.toml" \
    --dir "$CAMP_DIR" --ledger "$CI_OBS_DIR/ledger"
PYTHONPATH=src "$PYTHON" -m repro campaign status "$CI_OBS_DIR/campaign.toml" \
    --dir "$CAMP_DIR" --json > "$CI_OBS_DIR/campaign_status.json"
"$PYTHON" - "$CI_OBS_DIR/campaign_status.json" "$CI_OBS_DIR/ledger/index.jsonl" <<'PYEOF'
import json, sys
status = json.load(open(sys.argv[1]))
assert status["ok"] and status["complete"], status["counts"]
runs = {r["run"]: r for r in status["runs"]}
assert all(r["state"] == "DONE" for r in runs.values()), runs
attempts = sorted(r["attempts"] for r in runs.values())
assert attempts == [1, 1, 1, 2], f"wrong attempt counts: {attempts}"
assert all(r["failures"] == 0 for r in runs.values()), \
    "a supervisor kill must not charge the retry budget"
entries = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
campaign_runs = [
    e["extra"]["campaign_run"] for e in entries
    if e.get("extra", {}).get("campaign_id") == status["campaign_id"]
]
assert sorted(campaign_runs) == sorted(runs), \
    f"ledger not exactly-once: {sorted(campaign_runs)}"
bad = [e["run_id"] for e in entries
       if e.get("extra", {}).get("campaign_id") == status["campaign_id"]
       and e.get("verdict") not in ("OK", "WARN")]
assert not bad, f"campaign runs with bad verdicts: {bad}"
print(f"campaign lane: 4/4 DONE, attempts {attempts}, "
      f"{len(campaign_runs)} ledger entries (exactly once)")
PYEOF

echo "== 11/11 end-to-end benchmark checks (traced treepm-f64-32) =="
"$PYTHON" benchmarks/e2e/run.py --workload treepm-f64-32 --seed 1 \
    --seconds 12 --trace 1 | tail -n 1 > "$CI_OBS_DIR/e2e.json"
"$PYTHON" - "$CI_OBS_DIR/e2e.json" <<'PYEOF'
import json, sys
line = json.load(open(sys.argv[1]))
assert line["failed"] == 0, \
    f"{line['failed']} of {line['attempted']} benchmark children failed a check"
err = line["metrics"]["shortrange.force_err_p99"]["value"]
print(f"e2e lane: {line['attempted']} children, 0 failed, "
      f"force_err_p99 {err:.2e}")
PYEOF

echo "ci_check: all gates passed"

