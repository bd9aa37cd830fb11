"""The vectorized NumPy reference backend: the oracle the C backend
matches bit for bit in float64 and float32.

The pair evaluation runs in fixed-size (targets x sources) tiles whose
temporaries live in the engine's grow-only
:class:`~repro.shortrange.backends.Workspace`; out-of-cutoff pairs are
compressed away before the kernel math, and per-target accumulation goes
through ``np.bincount``.  CIC materialises
:class:`~repro.grid.cic.ParticleGridCoords` tables from the corners per
call, the stream folds with ``np.mod``, the RCB
build is a Python loop of one ``np.average`` split per node, and the
list cull one Python step per group: readable oracles of the compiled,
table-free loops.
"""

from __future__ import annotations

import numpy as np

from repro.grid.cic import ParticleGridCoords, corner_data
from repro.shortrange.backends import KernelBackend
from repro.shortrange.rcb_tree import ranges_to_indices

__all__ = ["NumpyBackend"]

#: rows per block of the stream's ``x += p * drift`` (its product
#: temporary stays cache sized)
_STREAM_ROWS = 16384


def _f_sr_pairs(s_cells, coeffs, eps, out, scratch):
    """The short-range force coefficient ``(s + eps)^{-3/2} - poly(s)``
    of pre-compressed in-cutoff squared cell separations (every entry
    ``0 < s < rcut_cells^2``), into ``out``; clobbers ``scratch``."""
    dt = s_cells.dtype.type
    np.add(s_cells, eps, out=scratch)  # x = s + eps
    np.sqrt(scratch, out=out)
    out *= scratch  # x^{3/2}
    np.divide(dt(1.0), out, out=out)  # Newtonian branch
    scratch.fill(coeffs[-1])
    for c in coeffs[-2::-1]:
        scratch *= s_cells
        scratch += c
    out -= scratch
    return out


class NumpyBackend(KernelBackend):
    """Always-available interpreter-vectorized reference backend."""

    name = "numpy"

    # ------------------------------------------------------------------
    def pair_accumulate(
        self,
        targets,
        target_offsets,
        neighbor_indices,
        neighbor_offsets,
        px,
        py,
        pz,
        msc,
        coeffs,
        eps,
        rc2_cells,
        inv_sp2,
        chunk_pairs,
        acc,
        workspace,
    ):
        dt = px.dtype
        ws = workspace
        to = target_offsets
        no = neighbor_offsets
        tcounts = np.diff(to)
        ncounts = np.diff(no)
        inside_pairs = 0
        for g in range(to.size - 1):
            nt, ns = int(tcounts[g]), int(ncounts[g])
            if nt == 0 or ns == 0:
                continue
            tidx = targets[to[g] : to[g + 1]]
            nidx = neighbor_indices[no[g] : no[g + 1]]
            tx = ws.get("tx", nt, dt)
            ty = ws.get("ty", nt, dt)
            tz = ws.get("tz", nt, dt)
            np.take(px, tidx, out=tx)
            np.take(py, tidx, out=ty)
            np.take(pz, tidx, out=tz)
            # group accumulator in the kernel dtype: the f32 path stays
            # f32 end to end (bincount's float64 partials are explicitly
            # folded back down — the only remaining interior upcast)
            gacc = ws.get("gacc", nt * 3, dt).reshape(nt, 3)
            gacc.fill(0.0)
            cs = min(ns, chunk_pairs)
            ct = min(nt, max(1, chunk_pairs // cs))
            for s0 in range(0, ns, cs):
                s1 = min(s0 + cs, ns)
                csz = s1 - s0
                src = nidx[s0:s1]
                sx = ws.get("sx", csz, dt)
                sy = ws.get("sy", csz, dt)
                sz = ws.get("sz", csz, dt)
                sm = ws.get("sm", csz, dt)
                np.take(px, src, out=sx)
                np.take(py, src, out=sy)
                np.take(pz, src, out=sz)
                np.take(msc, src, out=sm)
                for t0 in range(0, nt, ct):
                    t1 = min(t0 + ct, nt)
                    inside_pairs += self._tile(
                        ws,
                        tx[t0:t1], ty[t0:t1], tz[t0:t1],
                        sx, sy, sz, sm,
                        coeffs, eps, inv_sp2, rc2_cells,
                        gacc[t0:t1],
                    )
            acc[tidx] += gacc
        return inside_pairs

    def _tile(
        self, ws, tx, ty, tz, sx, sy, sz, sm,
        coeffs, eps, inv_sp2, rc2_cells, gacc,
    ) -> int:
        """One (targets x sources) tile: separations, compress, kernel,
        scatter.  Returns the number of in-cutoff pairs evaluated."""
        dt = tx.dtype
        ctz, csz = tx.shape[0], sx.shape[0]
        npair = ctz * csz
        dx = ws.get("dx", npair, dt).reshape(ctz, csz)
        dy = ws.get("dy", npair, dt).reshape(ctz, csz)
        dz = ws.get("dz", npair, dt).reshape(ctz, csz)
        s2 = ws.get("s2", npair, dt).reshape(ctz, csz)
        tmp = ws.get("tmp", npair, dt).reshape(ctz, csz)
        np.subtract(tx[:, None], sx[None, :], out=dx)
        np.subtract(ty[:, None], sy[None, :], out=dy)
        np.subtract(tz[:, None], sz[None, :], out=dz)
        np.multiply(dx, dx, out=s2)
        np.multiply(dy, dy, out=tmp)
        s2 += tmp
        np.multiply(dz, dz, out=tmp)
        s2 += tmp
        s2 *= inv_sp2  # squared separations in cell units
        inside = ws.get("inside", npair, np.bool_).reshape(ctz, csz)
        mask2 = ws.get("mask2", npair, np.bool_).reshape(ctz, csz)
        np.greater(s2, 0.0, out=inside)
        np.less(s2, rc2_cells, out=mask2)
        inside &= mask2
        # compress: the expensive kernel math only touches in-cutoff pairs
        idx = np.flatnonzero(inside.ravel())
        k = idx.size
        if k == 0:
            return 0
        sc = ws.get("sc", k, dt)
        np.take(s2.ravel(), idx, out=sc)
        f = ws.get("f", k, dt)
        scratch = ws.get("scratch", k, dt)
        _f_sr_pairs(sc, coeffs, eps, f, scratch)
        row = ws.get("row", k, np.int64)
        col = ws.get("col", k, np.int64)
        np.floor_divide(idx, csz, out=row)
        np.multiply(row, csz, out=col)
        np.subtract(idx, col, out=col)
        np.take(sm, col, out=scratch)
        f *= scratch  # coefficient * m_j / spacing^3
        grab = ws.get("grab", k, dt)
        for comp, d in enumerate((dx, dy, dz)):
            np.take(d.ravel(), idx, out=grab)
            grab *= f
            gacc[:, comp] -= np.bincount(
                row, weights=grab, minlength=ctz
            ).astype(dt, copy=False)
        return k

    # ------------------------------------------------------------------
    # RCB build: the reference loop, one Python step per split node
    def rcb_build(self, x, y, z, m, leaf_size):
        perm = np.arange(x.size, dtype=np.int64)
        start, count, lo, hi, left, right = ([] for _ in range(6))

        def new_node(s, c):
            sl = slice(s, s + c)
            start.append(s)
            count.append(c)
            lo.append(np.array([x[sl].min(), y[sl].min(), z[sl].min()]))
            hi.append(np.array([x[sl].max(), y[sl].max(), z[sl].max()]))
            left.append(-1)
            right.append(-1)
            return len(start) - 1

        stack = [new_node(0, x.size)] if x.size else []
        while stack:
            node = stack.pop()
            s, c = start[node], count[node]
            if c <= leaf_size:
                continue
            axis = int(np.argmax(hi[node] - lo[node]))
            coord = (x, y, z)[axis]
            seg = slice(s, s + c)
            # dividing line: center-of-mass coordinate along the longest side
            split = float(np.average(coord[seg], weights=m[seg]))
            mask = coord[seg] <= split
            n_left = int(np.count_nonzero(mask))
            if n_left == 0 or n_left == c:
                # degenerate (all mass on one side): fall back to median
                local_perm = np.argsort(coord[seg], kind="stable")
                n_left = c // 2
            else:
                # stable two-sided partition: lefts keep order, then rights
                idx = np.arange(c)
                local_perm = np.concatenate([idx[mask], idx[~mask]])
            # three-phase SOA partition: one recorded swap list, many arrays
            for arr in (x, y, z, m, perm):
                arr[seg] = arr[seg][local_perm]
            left[node] = new_node(s, n_left)
            right[node] = new_node(s + n_left, c - n_left)
            stack += [left[node], right[node]]
        start, count, left, right = (np.array(a, dtype=np.int64)
                                     for a in (start, count, left, right))
        lo, hi = (np.array(b, dtype=x.dtype).reshape(-1, 3) for b in (lo, hi))
        return perm, start, count, lo, hi, left, right

    # ------------------------------------------------------------------
    # list cull: one Python step per group on two reused buffers
    def tighten(self, targets, target_offsets, source_starts,
                source_counts, range_offsets, real, positions, radius):
        to = target_offsets
        # the candidates expanded: group g's are entries no[g]:no[g + 1]
        neighbor_indices = ranges_to_indices(source_starts, source_counts)
        no = np.concatenate(([0], np.cumsum(source_counts)))[range_offsets]
        # cumsum rather than reduceat: candidate groups may be empty
        before = np.concatenate(([0], np.cumsum(real)))
        tcounts = before[to[1:]] - before[to[:-1]]
        live = np.flatnonzero(tcounts)
        if live.size == 0:
            e, zero = np.empty(0, np.int64), np.zeros(1, np.int64)
            return e, zero, e, zero
        members = targets[real]
        member_offsets = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum(tcounts[live], out=member_offsets[1:])

        # coordinate-major float32 copy: one gather per group, the box
        # bounds broadcast along the contiguous axis, and half the bytes
        # of a float64 cloud — this is a bound with a pad sized for
        # float32 (cull_radius), not a force
        soa = np.ascontiguousarray(np.asarray(positions, dtype=np.float32).T)
        tpos = soa[:, members]
        lo = np.minimum.reduceat(tpos, member_offsets[:-1], axis=1)
        hi = np.maximum.reduceat(tpos, member_offsets[:-1], axis=1)
        lo = np.ascontiguousarray(lo.T)[:, :, None]
        hi = np.ascontiguousarray(hi.T)[:, :, None]
        radius2 = np.float32(radius**2)

        # per group on two reused buffers: one pass over all list entries
        # at once would first-touch tens of MB of fresh temporaries
        widest = int((no[live + 1] - no[live]).max())
        src = np.empty((3, widest), dtype=soa.dtype)
        gap = np.empty((3, widest), dtype=soa.dtype)
        kept = []
        bounds = zip(no[live].tolist(), no[live + 1].tolist())
        for g, (begin, end) in enumerate(bounds):
            cand = neighbor_indices[begin:end]
            p, d = src[:, : end - begin], gap[:, : end - begin]
            np.take(soa, cand, axis=1, out=p)
            # distance to the box: clamp the source into it, subtract
            np.maximum(p, lo[g], out=d)
            np.minimum(d, hi[g], out=d)
            d -= p
            kept.append(cand[np.einsum("ij,ij->j", d, d) <= radius2])
        neighbor_offsets = np.zeros(live.size + 1, dtype=np.int64)
        np.cumsum([k.size for k in kept], out=neighbor_offsets[1:])
        return members, member_offsets, np.concatenate(kept), neighbor_offsets

    # ------------------------------------------------------------------
    # CIC through (8, N) corner tables: one bincount (deposit) or one
    # fancy-index gather per corner, in (dx, dy, dz) order
    def cic_corners(self, positions, n, box_size, workspace=None):
        base, frac = corner_data(positions, n, box_size)
        return base.astype(np.int32), frac

    def cic_deposit(self, base, frac, values, n, workspace=None):
        coords = ParticleGridCoords.from_corners(base, frac, n)
        dt = coords.weights.dtype
        ncells = n * n * n
        grid = np.zeros(ncells, dtype=dt)
        for c in range(8):
            w = coords.weights[c]
            grid += np.bincount(
                coords.flat[c],
                weights=w if values is None else values * w,
                minlength=ncells,
            ).astype(dt, copy=False)
        return grid.reshape(n, n, n)

    def cic_gather(self, grid, base, frac):
        n, k = grid.shape[0], grid.shape[3]
        coords = ParticleGridCoords.from_corners(base, frac, n)
        out = np.zeros((coords.n_particles, k), dtype=coords.weights.dtype)
        flat = grid.reshape(-1, k)
        for g in range(k):
            for c in range(8):
                out[:, g] += flat[coords.flat[c], g] * coords.weights[c]
        return out

    # ------------------------------------------------------------------
    # stream: the stepper's x += p * drift in row blocks, then np.mod on
    # the coordinates not strictly inside the box (the identity there)
    def stream(self, positions, momenta, drift, box_size):
        for start in range(0, len(positions), _STREAM_ROWS):
            rows = slice(start, start + _STREAM_ROWS)
            positions[rows] += momenta[rows] * drift
        outside = np.greater(positions, 0)
        outside &= positions < positions.dtype.type(box_size)
        np.logical_not(outside, out=outside)
        positions[outside] = np.mod(positions[outside], box_size)
