"""The vectorized NumPy reference backend: the oracle the C backend
matches bit for bit in float64 and float32.

The pair evaluation runs in (targets x whole source list) tiles of about
2^18 pairs whose temporaries live in the engine's grow-only
:class:`~repro.shortrange.backends.Workspace`; out-of-cutoff pairs are
compressed away before the kernel math, and per-target accumulation goes
through ``np.bincount``.  CIC materialises
:class:`~repro.grid.cic.ParticleGridCoords` tables from the corners per
call, the stream folds with ``np.mod``, the RCB
build is a Python loop of one ``np.average`` split per node, the walk
a frontier of (query, node) pairs (:func:`batch_box_query`), and the
list cull one Python step per group; the pair loop expands the row
ranges and keep mask to index lists: readable oracles of the compiled,
table-free loops.
"""

from __future__ import annotations

import numpy as np

from repro.grid.cic import ParticleGridCoords, corner_data, periodic_wrap
from repro.shortrange.backends import KernelBackend
from repro.shortrange.rcb_tree import ranges_to_indices

__all__ = ["NumpyBackend", "batch_box_query"]

#: rows per block of the stream's ``x += p * drift`` (its product
#: temporary stays cache sized)
_STREAM_ROWS = 16384
#: pairs per tile of the pair loop: 2^18 keep each float64 temporary at
#: 2 MiB; a group whose list is longer runs one target per tile
_TILE_PAIRS = 1 << 18
#: the route's 26 neighbor offsets, in ``ox, oy, oz`` loop order
_OFFSETS = np.array([o for o in np.ndindex(3, 3, 3) if o != (1, 1, 1)]) - 1


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


def _targets(target_starts, target_counts, real):
    """Group ``g``'s real target rows, ``targets[offsets[g]:offsets[g +
    1]]``, as ``(targets, offsets)``."""
    real = np.asarray(real, dtype=bool)
    rows = ranges_to_indices(target_starts, target_counts)
    # the real count of a row range: a difference of the running count
    before = _offsets(real)
    starts = np.asarray(target_starts, dtype=np.int64)
    return (rows[real[rows]],
            _offsets(before[starts + target_counts] - before[starts]))


def _offsets(counts) -> np.ndarray:
    """CSR offsets of ``counts``: 0, then their running sum."""
    out = np.zeros(np.size(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _pack(kept: np.ndarray) -> np.ndarray:
    """Keep flags as the batch's bitmask: flag ``c`` is bit ``c % 64`` of
    word ``c // 64``."""
    words = np.zeros(-(-kept.size // 64) * 8, dtype=np.uint8)
    bits = np.packbits(kept, bitorder="little")
    words[:bits.size] = bits
    return words.view("<u8").astype(np.uint64, copy=False)


def _unpack(keep: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` flags of a bitmask, inverse of :func:`_pack`."""
    octets = np.ascontiguousarray(keep, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, count=n, bitorder="little").view(bool)


def batch_box_query(tree, qlo, qhi) -> tuple[np.ndarray, np.ndarray]:
    """Leaf hits of many box queries against one tree, in one walk: the
    numpy backend's :meth:`~repro.shortrange.backends.KernelBackend.walk`,
    oracle of the C descent.

    ``qlo`` / ``qhi`` are the (Q, 3) corners of the query boxes (cutoff
    already applied).  Returns ``(hit_query, hit_node)``, every (query,
    intersecting leaf) pair, sorted by query then by the leaf's
    particle-segment start.  The walk advances a frontier of live
    (query, node) pairs, one vectorized bounds test per level.
    """
    box_dt = tree.node_lo.dtype
    qlo = np.atleast_2d(np.asarray(qlo, dtype=box_dt))
    qhi = np.atleast_2d(np.asarray(qhi, dtype=box_dt))
    nq = qlo.shape[0]
    e = np.empty(0, dtype=np.int64)
    if nq == 0 or tree.n_nodes == 0:
        return e, e
    f_query = np.arange(nq, dtype=np.int64)
    f_node = np.zeros(nq, dtype=np.int64)
    hits_q: list[np.ndarray] = []
    hits_n: list[np.ndarray] = []
    while f_query.size:
        alive = ~(
            (tree.node_lo[f_node] > qhi[f_query]).any(axis=1)
            | (tree.node_hi[f_node] < qlo[f_query]).any(axis=1)
        )
        f_query = f_query[alive]
        f_node = f_node[alive]
        at_leaf = tree.node_left[f_node] < 0
        if at_leaf.any():
            hits_q.append(f_query[at_leaf])
            hits_n.append(f_node[at_leaf])
        iq = f_query[~at_leaf]
        inode = f_node[~at_leaf]
        f_query = np.concatenate([iq, iq])
        f_node = np.concatenate(
            [tree.node_left[inode], tree.node_right[inode]]
        )
    if not hits_q:
        return e, e
    hq = np.concatenate(hits_q)
    hn = np.concatenate(hits_n)
    order = np.lexsort((tree.node_start[hn], hq))
    return hq[order], hn[order]


class NumpyBackend(KernelBackend):
    """Always-available interpreter-vectorized reference backend."""

    name = "numpy"

    # ------------------------------------------------------------------
    def pair_accumulate(self, target_starts, target_counts, real,
                        source_starts, source_counts, range_offsets, keep,
                        px, py, pz, msc, coeffs, eps, rc2_cells, inv_sp2,
                        acc, workspace):
        # the lists as index CSR: group g's real targets are targets[
        # to[g]:to[g + 1]], its kept sources neighbor_indices[no[g]:
        # no[g + 1]], each kept candidate's row its range's start plus
        # its place in the range
        targets, to = _targets(target_starts, target_counts, real)
        first = _offsets(source_counts)
        kept = _unpack(keep, int(first[-1]))
        before = _offsets(kept)[first]
        neighbor_indices = np.repeat(
            np.asarray(source_starts, dtype=np.int64) - first[:-1],
            np.diff(before)) + np.flatnonzero(kept)
        no = before[range_offsets]
        dt = px.dtype
        ws = workspace
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
            sx = ws.get("sx", ns, dt)
            sy = ws.get("sy", ns, dt)
            sz = ws.get("sz", ns, dt)
            sm = ws.get("sm", ns, dt)
            np.take(px, nidx, out=sx)
            np.take(py, nidx, out=sy)
            np.take(pz, nidx, out=sz)
            np.take(msc, nidx, out=sm)
            # group accumulator in the kernel dtype: the f32 path stays
            # f32 end to end (bincount's float64 partials are explicitly
            # folded back down — the only remaining interior upcast)
            gacc = ws.get("gacc", nt * 3, dt).reshape(nt, 3)
            gacc.fill(0.0)
            # tiles of whole source lists: a target's sum never spans two
            # tiles, so the tile size cannot change a bit
            ct = max(1, _TILE_PAIRS // ns)
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
    # list build: the frontier walk, and the cull one Python step per
    # group on two reused buffers
    def walk(self, tree, qlo, qhi):
        hq, hn = batch_box_query(tree, qlo, qhi)
        nq = np.atleast_2d(qlo).shape[0]
        return _offsets(np.bincount(hq, minlength=nq)), hn

    def cull(self, target_starts, target_counts, real, source_starts,
             source_counts, range_offsets, positions, radius):
        targets, to = _targets(target_starts, target_counts, real)
        cand = ranges_to_indices(source_starts, source_counts)
        cand_offsets = _offsets(source_counts)[range_offsets]
        n_targets = np.diff(to)
        n_sources = np.zeros(n_targets.size, dtype=np.int64)
        kept = np.zeros(cand.size, dtype=bool)
        live = np.flatnonzero(n_targets)
        if not live.size:
            return _pack(kept), n_targets, n_sources
        # coordinate-major float32 copy: one gather per group, the box
        # bounds broadcast along the contiguous axis, and half the bytes
        # of a float64 cloud -- this is a bound with a pad sized for
        # float32 (cull_radius), not a force; groups without a target
        # are empty segments, so the live ones reduce over their own
        soa = np.ascontiguousarray(np.asarray(positions, dtype=np.float32).T)
        tpos = soa[:, targets]
        lo = np.minimum.reduceat(tpos, to[live], axis=1)
        hi = np.maximum.reduceat(tpos, to[live], axis=1)
        lo = np.ascontiguousarray(lo.T)[:, :, None]
        hi = np.ascontiguousarray(hi.T)[:, :, None]
        radius2 = np.float32(radius**2)

        # per group on two reused buffers: one pass over all candidates
        # at once would first-touch tens of MB of fresh temporaries
        widest = int((cand_offsets[live + 1] - cand_offsets[live]).max())
        src = np.empty((3, widest), dtype=soa.dtype)
        gap = np.empty((3, widest), dtype=soa.dtype)
        bounds = zip(cand_offsets[live].tolist(),
                     cand_offsets[live + 1].tolist())
        for g, (begin, end) in enumerate(bounds):
            p, d = src[:, : end - begin], gap[:, : end - begin]
            np.take(soa, cand[begin:end], axis=1, out=p)
            # distance to the box: clamp the source into it, subtract
            np.maximum(p, lo[g], out=d)
            np.minimum(d, hi[g], out=d)
            d -= p
            ok = np.einsum("ij,ij->j", d, d) <= radius2
            kept[begin:end] = ok
            n_sources[live[g]] = np.count_nonzero(ok)
        return _pack(kept), n_targets, n_sources

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
    # stream: the stepper's x += p * drift in row blocks, then the
    # periodic wrap of the coordinates not strictly inside the box (the
    # identity there)
    def stream(self, positions, momenta, drift, box_size):
        for start in range(0, len(positions), _STREAM_ROWS):
            rows = slice(start, start + _STREAM_ROWS)
            positions[rows] += momenta[rows] * drift
        outside = np.greater(positions, 0)
        outside &= positions < positions.dtype.type(box_size)
        np.logical_not(outside, out=outside)
        positions[outside] = periodic_wrap(positions[outside], box_size)

    # ------------------------------------------------------------------
    # route: one table of every copy, stable-sorted once by (dst, passive,
    # src)
    def route(self, positions, momenta, masses, ids, origin, box_size, dims,
              depth):
        pos, n = positions, len(positions)
        dims = np.asarray(dims, dtype=np.int64)
        widths, nr = box_size / dims, int(dims.prod())
        # one cell per particle, in DomainDecomposition.assign's float64
        # arithmetic: it gives the home rank and the shell tests
        cell = np.floor(np.mod(np.asarray(pos, dtype=np.float64), box_size)
                        / box_size * dims).astype(np.int64)
        np.clip(cell, 0, dims - 1, out=cell)
        rel_lo = pos - cell * widths   # distance to low faces
        # near[o + 1, i, axis]: particle i lies in the shell of offset o
        near = np.stack([rel_lo < depth, np.ones((n, 3), dtype=bool),
                         widths - rel_lo < depth])
        k, sel = np.nonzero(near[_OFFSETS[:, 0] + 1, :, 0]
                            & near[_OFFSETS[:, 1] + 1, :, 1]
                            & near[_OFFSETS[:, 2] + 1, :, 2])
        nbr_cell = cell[sel] + _OFFSETS[k]
        # replicas in the neighbor's frame: +-box across the periodic seam
        wraps = np.zeros(nbr_cell.shape, dtype=pos.dtype)
        wraps[nbr_cell < 0] = box_size
        wraps[nbr_cell >= dims] = -box_size
        c = np.mod(np.concatenate([cell, nbr_cell]), dims)
        dst = (c[:, 0] * dims[1] + c[:, 1]) * dims[2] + c[:, 2]
        idx = np.concatenate([np.arange(n), sel])
        key = dst * (2 * nr) + (dst[:n] if origin is None else origin)[idx]
        key[n:] += nr  # a destination's replicas follow all its actives
        # a key narrowed to 8 or 16 bits takes numpy's radix sort
        order = np.argsort(key.astype(np.min_scalar_type(2 * nr * nr)),
                           kind="stable")
        gid = idx[order]
        return ((np.concatenate([pos, pos[sel] + wraps])[order],
                 momenta[gid], masses[gid], ids[gid], order < n),
                np.searchsorted(key[order], np.arange(2 * nr * nr + 1)))
