"""Layer probes of the traced child.

After the last step the child replays each deeper layer's public
function on the run's own final (clustered, z = 0) particle state and
reports the median of ``REPS`` calls.  Probe time is never part of the
budget.  A probe whose public function is gone records the error under
``skipped`` instead of aborting.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

REPS = 3
#: first touch of a page costs ~20 us on the reference VM (5 s per GB),
#: and a traced run has about 20 s: larger triads are not attempted
STREAM_MAX_BYTES = 1 << 30
#: targets of the direct-sum force check: p99 keeps ten samples beyond it
FORCE_TARGETS = 1024


def timed(fn, reps: int = REPS):
    """``(median seconds, last result)`` of ``reps`` calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def run_probe(metrics: dict, skipped: dict, label: str, fn) -> None:
    """Run one probe; if its public function is gone, record why under
    ``label`` (its metrics are then absent, which the parent reads as
    null)."""
    try:
        metrics.update(fn())
    except (ImportError, AttributeError) as exc:
        skipped[label] = f"{type(exc).__name__}: {exc}"


# ----------------------------------------------------------------------
# host: last-level cache and STREAM triad
# ----------------------------------------------------------------------
def cache_sizes() -> dict:
    """``{level: bytes}`` of cpu0's data/unified caches from sysfs."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(f"{base}/{entry}/type") as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(f"{base}/{entry}/level") as fh:
                level = int(fh.read())
            with open(f"{base}/{entry}/size") as fh:
                text = fh.read().strip()
        except (OSError, ValueError):
            continue
        unit = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        sizes[level] = int(text.rstrip("KMG")) * unit
    return sizes


def mem_total_bytes() -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) * 1024
    return 0


def probe_host() -> dict:
    """STREAM triad ``a = b + s*c`` on arrays of 4x the last-level cache.

    numpy runs the triad as two passes (``a = s*c``; ``a += b``), so 5
    words per element move, not 3; the rate counts 5.  When three such
    arrays exceed ``STREAM_MAX_BYTES`` or a quarter of RAM the bandwidth
    is left ``None`` rather than measured in cache.
    """
    caches = cache_sizes()
    llc = caches[max(caches)] if caches else 0
    out = {
        "harness.llc_mb": llc / 1e6,
        "harness.stream_gbs": None,
        "harness.stream_array_mb": None,
    }
    n = 4 * llc // 8
    if not llc or 3 * n * 8 > min(STREAM_MAX_BYTES, mem_total_bytes() // 4):
        return out
    a = np.zeros(n)
    b = np.ones(n)
    c = np.ones(n)
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    out["harness.stream_gbs"] = 5 * n * 8 / best / 1e9
    out["harness.stream_array_mb"] = n * 8 / 1e6
    return out


# ----------------------------------------------------------------------
# grid + fft
# ----------------------------------------------------------------------
def probe_grid(sim, cfg) -> dict:
    from repro.grid.cic import cic_deposit, cic_interpolate

    pos = sim.particles.positions
    mas = sim.particles.masses
    n, box = sim.poisson.n, cfg.box_size
    dep_s, counts = timed(lambda: cic_deposit(pos, n, box, mas))
    total = float(mas.sum(dtype=np.float64))
    gat_s, _ = timed(lambda: cic_interpolate(counts, pos, box))
    acc_s, _ = timed(lambda: sim.poisson.accelerations(pos, weights=mas))
    return {
        "grid.cic_deposit_s": dep_s,
        "grid.cic_gather_s": gat_s,
        "grid.poisson_accel_s": acc_s,
        "grid.cic_mparticles_per_s": pos.shape[0] / dep_s / 1e6,
        "grid.mass_err": abs(float(counts.sum(dtype=np.float64)) - total)
        / total,
    }


def probe_fft(sim, cfg) -> dict:
    from repro.grid.cic import density_contrast

    n = sim.poisson.n
    delta = density_contrast(
        sim.particles.positions, n, cfg.box_size, sim.particles.masses
    )
    fg_s, _ = timed(lambda: sim.poisson.force_grids(delta))
    # the solver's transform pair against a float64 numpy reference
    # through the same public spectral kernel
    phi = np.asarray(sim.poisson.potential(delta), dtype=np.float64)
    ref = np.fft.irfftn(
        sim.poisson.potential_k(np.fft.rfftn(delta)), s=(n,) * 3
    )
    return {
        "fft.force_grids_s": fg_s,
        # one forward + three inverse transforms of n^3 points
        "fft.mpoints_per_s": 4 * n**3 / fg_s / 1e6,
        "fft.roundtrip_err": float(
            np.abs(phi - ref).max() / np.abs(ref).max()
        ),
    }


# ----------------------------------------------------------------------
# short range (whole-box tree on the final state)
# ----------------------------------------------------------------------
def probe_shortrange(sim, cfg, seed: int) -> dict:
    from scipy.spatial import cKDTree

    from repro.shortrange.batch import pack_tree
    from repro.shortrange.rcb_tree import RCBTree
    from repro.shortrange.solvers import DirectShortRange, periodic_ghosts

    solver = sim.short_solver
    kernel = solver.kernel
    rcut, box = kernel.rcut, cfg.box_size
    dt = np.dtype(kernel.dtype)
    pos = np.asarray(sim.particles.positions, dtype=dt)
    mas = np.asarray(sim.particles.masses, dtype=dt)
    n = pos.shape[0]

    ghosts_s, (cloud, cloud_m) = timed(
        lambda: periodic_ghosts(pos, mas, box, rcut)
    )
    build_s, tree = timed(
        lambda: RCBTree(cloud, cloud_m, leaf_size=solver.leaf_size)
    )
    pack_s, batch = timed(lambda: pack_tree(tree, rcut, n))
    kernel_s, acc_tree = timed(
        lambda: solver.engine.evaluate(batch, tree.positions, tree.masses)
    )
    listed = batch.n_pairs
    nbytes = 4 * dt.itemsize * listed

    # in-cutoff ordered pairs, counted without the tree under test
    # (count_neighbors includes each particle's zero-distance self pair)
    wrapped = np.mod(pos.astype(np.float64), box)
    wrapped[wrapped >= box] = 0.0
    kd = cKDTree(wrapped, boxsize=box)
    inside = int(kd.count_neighbors(kd, rcut)) - n

    # force error against direct summation over each target's cutoff
    # sphere, found in the same ghosted cloud by a KD-tree rather than by
    # the tree under test; the target is prepended massless, and its own
    # copy in the sphere sits at zero distance and exerts no force
    acc = np.zeros((cloud.shape[0], 3), dtype=acc_tree.dtype)
    acc[tree.perm] = acc_tree
    targets = np.sort(
        np.random.default_rng(seed).choice(
            n, size=min(FORCE_TARGETS, n), replace=False
        )
    )
    direct = DirectShortRange(kernel)
    spheres = cKDTree(cloud).query_ball_point(
        cloud[targets], rcut * (1 + 1e-6)
    )
    ref = np.concatenate([
        direct.accelerations_cloud(
            np.concatenate([cloud[t:t + 1], cloud[near]]),
            np.concatenate([np.zeros(1, dtype=dt), cloud_m[near]]),
            1,
        )
        for t, near in zip(targets, spheres)
    ]).astype(np.float64)
    err = np.linalg.norm(acc[targets].astype(np.float64) - ref, axis=1)
    scale = float(np.sqrt(np.mean(np.sum(ref * ref, axis=1))))
    return {
        "shortrange.ghosts_s": ghosts_s,
        "shortrange.tree_build_s": build_s,
        "shortrange.pack_s": pack_s,
        "shortrange.kernel_s": kernel_s,
        "shortrange.tree_depth": tree.depth(),
        "shortrange.leaves": int(tree.leaf_ids().size),
        "shortrange.pairs_inside": inside,
        "shortrange.list_efficiency": inside / listed,
        "shortrange.kernel_bytes_computed": nbytes,
        "shortrange.kernel_gbs_computed": nbytes / kernel_s / 1e9,
        "shortrange.workspace_mb": solver.engine.workspace.nbytes / 1e6,
        "shortrange.force_err_p99": float(np.quantile(err, 0.99)) / scale,
    }


# ----------------------------------------------------------------------
# io (read side, on the file the plain run left)
# ----------------------------------------------------------------------
def probe_io(sim, path: str, reps: int) -> dict:
    from repro.io import load_checkpoint, verify_checkpoint

    def load():
        loaded = load_checkpoint(path)
        loaded.close()
        return loaded

    verify_s, _ = timed(lambda: verify_checkpoint(path), reps)
    load_s, loaded = timed(load, reps)
    same = all(
        np.array_equal(getattr(loaded.particles, k), getattr(sim.particles, k))
        for k in ("positions", "momenta", "masses", "ids")
    )
    return {
        "io.ckpt_verify_s": verify_s,
        "io.ckpt_load_s": load_s,
        "io.state_equals_plain_ckpt": bool(same and loaded.a == sim.a),
    }
