#!/usr/bin/env python
"""Halo assembly history: mergers and accretion.

Section V: clusters "form very late and are hence sensitive probes of the
late-time acceleration", and the simulations let "the statistics of halo
mergers and halo build-up through sub-halo accretion be studied with
excellent statistics".  This example runs a small box with intermediate
snapshots (checkpointing along the way, as a production campaign would),
and builds the ID-based merger history of the final halos.

Run:  python examples/cluster_assembly.py [n_per_dim]
"""

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import HACCSimulation, SimulationConfig
from repro.analysis import build_merger_history, fof_halos
from repro.io import load_checkpoint, save_checkpoint

SNAPSHOT_REDSHIFTS = (1.0, 0.5, 0.0)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    config = SimulationConfig(
        box_size=72.0,
        n_per_dim=n,
        z_initial=25.0,
        z_final=0.0,
        n_steps=16,
        n_subcycles=2,
        backend="treepm",
        step_spacing="loga",
        seed=7,
    )
    print(f"running {config.n_particles} particles, box "
          f"{config.box_size} Mpc/h ...")
    sim = HACCSimulation(config)

    snapshots = []  # (z, positions, ids)
    pending = sorted(SNAPSHOT_REDSHIFTS, reverse=True)
    ckpt_dir = Path(tempfile.mkdtemp(prefix="hacc_ckpt_"))

    def on_step(s: HACCSimulation) -> None:
        while pending and s.redshift <= pending[0]:
            z = pending.pop(0)
            snapshots.append(
                (z, s.particles.positions.copy(), s.particles.ids.copy())
            )
            path = save_checkpoint(ckpt_dir / f"z{z:.1f}", s)
            print(f"  snapshot + checkpoint at z={z:.1f} -> {path.name}")

    t0 = time.perf_counter()
    sim.run(callback=on_step)
    print(f"done in {time.perf_counter() - t0:.1f} s")

    # --- checkpoint integrity: restore the z=0.5 state and compare ----
    restored = load_checkpoint(ckpt_dir / "z0.5.npz")
    restored.run()
    dev = np.abs(
        restored.particles.positions - sim.particles.positions
    ).max()
    print(f"\ncheckpoint restart reproduces the run to {dev:.1e} Mpc/h")

    # --- merger history ------------------------------------------------
    catalogs, id_arrays = [], []
    for z, pos, ids in snapshots:
        cat = fof_halos(pos, config.box_size, b=0.2, min_members=8)
        catalogs.append(cat)
        id_arrays.append(ids)
        print(f"z={z:3.1f}: {cat.n_halos} halos "
              f"(largest: {cat.sizes[0] if cat.n_halos else 0} particles)")

    if all(c.n_halos for c in catalogs):
        hist = build_merger_history(catalogs, id_arrays)
        final = catalogs[-1]
        print("\nassembly of the final halos:")
        for h in range(min(final.n_halos, 5)):
            n_prog = hist.n_mergers.get(h, 0)
            growth = hist.mass_growth.get(h)
            tag = (f"{n_prog} progenitors"
                   + (", merger!" if n_prog >= 2 else ""))
            gtxt = f", x{growth:.2f} mass growth" if growth else ""
            print(f"   halo {h} ({final.sizes[h]} particles): {tag}{gtxt}")


if __name__ == "__main__":
    main()
