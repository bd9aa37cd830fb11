"""Tests for particle overloading (Fig. 4 of the paper)."""

import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.comm import SimulatedComm
from repro.parallel.decomposition import DomainDecomposition
from repro.parallel.overload import OverloadExchange
from repro.shortrange.backends import available_backends, get_backend


def make_exchange(box=100.0, dims=(2, 2, 2), depth=10.0):
    return OverloadExchange(DomainDecomposition(box, dims), depth)


def random_particles(rng, n=800, box=100.0):
    pos = rng.uniform(0, box, (n, 3))
    mom = rng.standard_normal((n, 3))
    return pos, mom


class TestDistribute:
    def test_every_particle_active_exactly_once(self, rng):
        ex = make_exchange()
        pos, mom = random_particles(rng)
        domains = ex.distribute(pos, mom)
        ids = np.concatenate([d.ids[d.active] for d in domains])
        assert len(ids) == 800
        assert len(np.unique(ids)) == 800

    def test_active_particles_inside_their_domain(self, rng):
        ex = make_exchange()
        pos, mom = random_particles(rng)
        for dom in ex.distribute(pos, mom):
            lo, hi = ex.decomposition.bounds(dom.rank)
            act = dom.positions[dom.active]
            assert np.all(act >= lo - 1e-12)
            assert np.all(act < hi + 1e-12)

    def test_passive_particles_in_overload_shell(self, rng):
        ex = make_exchange(depth=8.0)
        pos, mom = random_particles(rng)
        for dom in ex.distribute(pos, mom):
            lo, hi = ex.decomposition.bounds(dom.rank)
            pas = dom.positions[~dom.active]
            if pas.size:
                assert np.all(pas >= lo - 8.0 - 1e-9)
                assert np.all(pas < hi + 8.0 + 1e-9)
                # strictly outside the owned region
                inside = np.all((pas >= lo) & (pas < hi), axis=1)
                assert not np.any(inside)

    def test_replica_count_matches_geometric_expectation(self, rng):
        """Mean overload fraction ~ (volume factor - 1) for uniform
        particles — the paper's ~10% memory overhead argument."""
        box, depth = 100.0, 4.0
        ex = make_exchange(box=box, dims=(2, 2, 2), depth=depth)
        pos, mom = random_particles(rng, n=20000, box=box)
        domains = ex.distribute(pos, mom)
        total = sum(d.n_total for d in domains)
        expected = 20000 * ex.decomposition.overload_volume_factor(depth)
        assert total == pytest.approx(expected, rel=0.05)

    def test_replicas_share_ids_and_momenta(self, rng):
        ex = make_exchange()
        pos, mom = random_particles(rng)
        domains = ex.distribute(pos, mom)
        for dom in domains:
            for i in np.flatnonzero(~dom.active)[:20]:
                gid = dom.ids[i]
                assert np.allclose(dom.momenta[i], mom[gid])

    def test_passive_positions_unwrapped_across_seam(self, rng):
        """Replicas near a periodic face carry shifted coordinates so the
        receiving rank sees a contiguous cloud."""
        box = 100.0
        ex = make_exchange(box=box, depth=10.0)
        # particle just inside the high-x face: should appear as passive
        # with x slightly negative on the ranks owning the low-x blocks
        pos = np.array([[99.5, 25.0, 25.0]])
        mom = np.zeros((1, 3))
        domains = ex.distribute(pos, mom)
        low_rank = ex.decomposition.assign(np.array([[1.0, 25.0, 25.0]]))[0]
        dom = domains[low_rank]
        pas = dom.positions[~dom.active]
        assert pas.shape[0] >= 1
        assert np.any(np.isclose(pas[:, 0], -0.5))

    def test_no_overlap_depth_zero(self, rng):
        ex = make_exchange(depth=0.0)
        pos, mom = random_particles(rng, n=500)
        domains = ex.distribute(pos, mom)
        assert sum(d.n_passive for d in domains) == 0

    def test_masses_default_to_unity(self, rng):
        ex = make_exchange()
        pos, mom = random_particles(rng, n=100)
        domains = ex.distribute(pos, mom)
        assert all(np.all(d.masses == 1.0) for d in domains)

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tiny_negative_coordinate_folds_to_zero(self, backend, dtype):
        """``np.mod(-1e-20, 64)`` is exactly 64: the exchange's fold takes
        it to +0, so the active copy is rank 0's at x = 0, its replica
        rank 3's across the seam at x = 64, and no other rank has one;
        in ``distribute`` and in ``refresh`` alike."""
        ex = OverloadExchange(DomainDecomposition(64.0, (4, 1, 1)), 3.0,
                              backend=backend)
        pos = np.array([[-1e-20, 10.0, 10.0]], dtype=dtype)
        assert np.mod(pos, dtype(64.0))[0, 0] == 64.0
        domains = ex.distribute(pos, np.zeros_like(pos))
        for doms in (domains, ex.refresh(
                [d if d.rank else replace(d, positions=pos)
                 for d in domains])):
            assert [d.n_active for d in doms] == [1, 0, 0, 0]
            assert [d.n_passive for d in doms] == [0, 0, 0, 1]
            assert doms[0].positions[0].tobytes() == np.array(
                [0.0, 10.0, 10.0], dtype=dtype).tobytes()
            assert doms[3].positions[0, 0] == 64.0

    def test_momenta_shape_mismatch_rejected(self, rng):
        ex = make_exchange()
        with pytest.raises(ValueError):
            ex.distribute(np.zeros((5, 3)), np.zeros((4, 3)))


class TestRefresh:
    def test_refresh_preserves_global_state(self, rng):
        ex = make_exchange()
        pos, mom = random_particles(rng)
        domains = ex.distribute(pos, mom)
        refreshed = ex.refresh(domains)
        ids = np.concatenate([d.ids[d.active] for d in refreshed])
        assert len(np.unique(ids)) == 800
        # positions survive the round trip
        all_pos = np.concatenate([d.positions[d.active] for d in refreshed])
        all_ids = np.concatenate([d.ids[d.active] for d in refreshed])
        order = np.argsort(all_ids)
        assert np.allclose(all_pos[order], pos)

    def test_roles_switch_when_particles_cross(self, rng):
        """Fig. 4: particles switch active/passive roles across borders."""
        box = 100.0
        ex = make_exchange(box=box, dims=(2, 1, 1), depth=10.0)
        pos = np.array([[49.0, 50.0, 50.0]])
        mom = np.zeros((1, 3))
        domains = ex.distribute(pos, mom)
        assert domains[0].n_active == 1  # owned by rank 0 (x < 50)
        assert domains[1].n_passive == 1  # replica on rank 1
        # move the particle across the x=50 boundary
        domains[0].positions[domains[0].active] = [51.0, 50.0, 50.0]
        domains[1].positions[~domains[1].active] = [51.0, 50.0, 50.0]
        refreshed = ex.refresh(domains)
        assert refreshed[1].n_active == 1
        assert refreshed[0].n_passive == 1

    def test_refresh_traffic_recorded(self, rng):
        ex = make_exchange()
        pos, mom = random_particles(rng)
        domains = ex.distribute(pos, mom)
        before = ex.comm.stats.tag_bytes("overload.refresh")
        ex.refresh(domains)
        assert ex.comm.stats.tag_bytes("overload.refresh") > before

    def test_overload_fraction_reported(self, rng):
        ex = make_exchange(depth=5.0)
        pos, mom = random_particles(rng, n=4000)
        domains = ex.distribute(pos, mom)
        fracs = [d.overload_fraction() for d in domains]
        factor = ex.decomposition.overload_volume_factor(5.0)
        assert np.mean(fracs) == pytest.approx(factor - 1.0, rel=0.25)


class TestReceiveBuffers:
    """A domain is its rank's rows of the one routed table, actives
    first."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_domains_are_slices_of_one_table(self, rng, backend, dtype):
        decomp = DomainDecomposition(60.0, (3, 2, 1))
        ex = OverloadExchange(decomp, 6.0, backend=backend)
        pos, mom, mas = face_heavy_particles(rng, 500, 60.0, decomp.dims,
                                             dtype)
        first = ex.distribute(pos, mom, mas)
        for dom in first:
            dom.positions[:dom.n_active] += dtype(2.5)
        for domains in (first, ex.refresh(first)):
            for f in ("positions", "momenta", "masses", "ids", "active"):
                table = getattr(domains[0], f).base
                assert table is not None
                row = table.strides[0]
                start = table.__array_interface__["data"][0]
                for dom in domains:  # rank after rank, no gap
                    a = getattr(dom, f)
                    assert a.base is table
                    assert a.__array_interface__["data"][0] == start
                    start += len(a) * row
                assert start == table.__array_interface__["data"][0] + (
                    len(table) * row)
            for dom in domains:
                assert dom.active[:dom.n_active].all()
                assert not dom.active[dom.n_active:].any()
                assert dom.n_active == np.count_nonzero(dom.active)


class TestValidation:
    def test_depth_must_fit_domain(self):
        with pytest.raises(ValueError):
            make_exchange(box=100.0, dims=(4, 4, 4), depth=13.0)

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            make_exchange(depth=-1.0)

    def test_comm_size_checked(self):
        d = DomainDecomposition(100.0, (2, 2, 2))
        with pytest.raises(ValueError):
            OverloadExchange(d, 5.0, comm=SimulatedComm(3))


# ----------------------------------------------------------------------
# routing against the scalar reference
# ----------------------------------------------------------------------
def oracle_route(ex, pos, mom, mas, pid, origin=None):
    """The per-offset, per-destination routing loop the one-pass router
    replaced, kept as the reference: one scalar ``rank_of_coords`` call
    per replica and ``np.unique`` grouping by destination and source.
    Each particle's one cell is ``DomainDecomposition.assign``'s (float64
    arithmetic); it gives the home rank and the shell tests.  Replica
    shifts are built in the positions' dtype.  Returns the route's
    ``(table, cuts)``, laid out as MPI_Alltoallv receive buffers: per
    destination, every source's actives, then every source's replicas
    (the runs ``(dst * 2 + passive) * n_ranks + src``)."""
    decomp = ex.decomposition
    box = decomp.box_size
    dims = np.asarray(decomp.dims)
    widths = np.asarray(decomp.widths)
    d = ex.depth
    nr = decomp.n_ranks

    cell = np.floor(
        np.mod(pos.astype(np.float64), box) / box * dims
    ).astype(np.int64)
    np.clip(cell, 0, dims - 1, out=cell)
    home = decomp.rank_of_cells(cell)
    assert np.array_equal(home, decomp.assign(pos))
    rel_lo = pos - cell * widths
    rel_hi = widths - rel_lo

    src_of = origin if origin is not None else home
    # runs[dst][passive][src]: the fragments src sends dst
    runs = [[[[] for _ in range(nr)] for _ in range(2)] for _ in range(nr)]

    def append(s, r, p, ii, active):
        runs[int(r)][0 if active else 1][int(s)].append(
            (p, mom[ii], mas[ii], pid[ii], np.full(len(ii), active, dtype=bool))
        )

    order = np.argsort(home, kind="stable")
    bounds = np.searchsorted(home[order], np.arange(nr + 1))
    for r in range(nr):
        sel = order[bounds[r] : bounds[r + 1]]
        for s in np.unique(src_of[sel]):
            ss = sel[src_of[sel] == s]
            append(s, r, pos[ss], ss, True)

    for ox in (-1, 0, 1):
        for oy in (-1, 0, 1):
            for oz in (-1, 0, 1):
                if ox == oy == oz == 0:
                    continue
                near = np.ones(len(pos), dtype=bool)
                for axis, o in enumerate((ox, oy, oz)):
                    if o:
                        near &= (rel_lo if o < 0 else rel_hi)[:, axis] < d
                sel = np.flatnonzero(near)
                if sel.size == 0:
                    continue
                nbr_cell = cell[sel] + np.array([ox, oy, oz])
                wraps = np.zeros((sel.size, 3), dtype=pos.dtype)
                wraps[nbr_cell < 0] = box
                wraps[nbr_cell >= dims] = -box
                p_shift = pos[sel] + wraps
                dst = np.array(
                    [decomp.rank_of_coords(c) for c in nbr_cell], dtype=np.int64
                )
                for r in np.unique(dst):
                    ss = dst == r
                    idxs = sel[ss]
                    srcs = src_of[idxs]
                    for s in np.unique(srcs):
                        m2 = srcs == s
                        append(s, r, p_shift[ss][m2], idxs[m2], False)

    frags = [f for by_dst in runs for by_kind in by_dst for run in by_kind
             for f in run]
    empty = (pos[:0], mom[:0], mas[:0], pid[:0], np.zeros(0, dtype=bool))
    table = tuple(
        np.concatenate([empty[k]] + [f[k] for f in frags], axis=0)
        for k in range(5)
    )
    counts = [sum(len(f[3]) for f in run) for by_dst in runs
              for by_kind in by_dst for run in by_kind]
    return table, np.concatenate([[0], np.cumsum(counts)])


def exchange_pair(box, dims, depth, backend="numpy"):
    """(exchange routed on ``backend``, oracle-routed exchange)."""
    decomp = DomainDecomposition(box, dims)
    fast = OverloadExchange(decomp, depth, backend=backend)
    ref = OverloadExchange(decomp, depth)
    ref.backend = SimpleNamespace(
        route=lambda pos, mom, mas, pid, origin, *_: oracle_route(
            ref, pos, mom, mas, pid, origin
        )
    )
    return fast, ref


def assert_domains_equal(a, b):
    """Two domain lists hold the same rows, dtypes and active counts."""
    assert len(a) == len(b)
    for da, db in zip(a, b):
        assert da.rank == db.rank and da.n_active == db.n_active
        for f in ("positions", "momenta", "masses", "ids", "active"):
            xa, xb = getattr(da, f), getattr(db, f)
            assert xa.dtype == xb.dtype
            assert np.array_equal(xa, xb)


def assert_stats_equal(a, b):
    assert a.messages == b.messages
    assert a.bytes == b.bytes
    assert dict(a.by_tag) == dict(b.by_tag)
    assert np.array_equal(a.byte_matrix, b.byte_matrix)


def face_heavy_particles(rng, n, box, dims, dtype):
    """Uniform particles plus particles on and around block faces and the
    periodic seam, where the shell tests and wraps are decided."""
    pos = rng.uniform(0, box, (n, 3))
    faces = np.array(dims) * rng.integers(0, 4, (n, 3)) // 3 * (box / np.array(dims))
    jitter = rng.choice([0.0, 1e-6, -1e-6, 0.25, -0.25], (n, 3))
    on_face = rng.random((n, 3)) < 0.3
    pos = np.where(on_face, np.mod(faces + jitter, box), pos)
    mom = rng.standard_normal((n, 3))
    mas = rng.uniform(0.5, 2.0, n)
    return pos.astype(dtype), mom.astype(dtype), mas.astype(dtype)


def check_against_oracle(dims, depth_frac, dtype, seed, n=150, box=60.0,
                         backend="numpy"):
    rng = np.random.default_rng(seed)
    depth = depth_frac * min(box / g for g in dims)
    fast, ref = exchange_pair(box, dims, depth, backend)
    pos, mom, mas = face_heavy_particles(rng, n, box, dims, dtype)

    got = fast.distribute(pos, mom, mas)
    assert_domains_equal(got, ref.distribute(pos, mom, mas))
    assert_stats_equal(fast.comm.stats, ref.comm.stats)

    # drift the actives up to a shell depth so some change rank, then
    # refresh the same domains through both routers (mixed origins)
    for dom in got:
        kick = rng.uniform(-depth, depth, (dom.n_active, 3)).astype(dtype)
        dom.positions[:dom.n_active] += kick
    assert_domains_equal(fast.refresh(got), ref.refresh(got))
    assert_stats_equal(fast.comm.stats, ref.comm.stats)


class TestRoutingOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*[st.sampled_from([1, 2, 3])] * 3),
        depth_frac=st.floats(min_value=0.0, max_value=0.49),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_payloads_and_stats_match_oracle(self, dims, depth_frac, dtype, seed):
        for backend in available_backends():
            check_against_oracle(dims, depth_frac, dtype, seed,
                                 backend=backend)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "dims", [(1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2), (3, 1, 2), (1, 3, 1)]
    )
    def test_one_and_two_wide_axes(self, dims, dtype):
        """With 1 or 2 blocks along an axis, the -1 and +1 offsets land on
        the same rank (possibly the sender itself)."""
        for backend in available_backends():
            check_against_oracle(dims, 0.45, dtype, seed=sum(dims), n=400,
                                 backend=backend)


class TestFaceCell:
    """One cell per particle: the home rank and the shell agree."""

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_particle_on_a_face_reaches_its_neighbour(self, backend, dtype):
        # 32.142857 rounds below the face at 3 * 75 / 7 in float32, but
        # 32.142857 / 75 rounds up to a quotient whose floor is the next
        # cell: a separate float32 shell cell put id 0 on rank 2 twice
        # and nowhere on rank 3
        ex = OverloadExchange(DomainDecomposition(75.0, (7, 1, 1)), 3.0,
                              backend=backend)
        pos = np.array([[32.142857, 10, 10], [33, 10, 10], [31, 10, 10]],
                       dtype=dtype)
        home = ex.decomposition.assign(pos)
        domains = ex.distribute(pos, np.zeros_like(pos))
        active = np.concatenate([d.ids[d.active] for d in domains])
        assert np.array_equal(np.sort(active), [0, 1, 2])
        for dom in domains:
            passive = dom.ids[~dom.active]
            assert len(np.unique(dom.ids)) == dom.n_total
            assert not np.any(home[passive] == dom.rank)
        assert home[0] == 2 and home[1] == 3
        assert 0 in domains[3].ids[~domains[3].active]


@pytest.mark.skipif("c" not in available_backends(), reason="no C compiler")
class TestRouteBackends:
    """The C ``route`` is the numpy one, array for array."""

    @settings(max_examples=80, deadline=None)
    @given(
        dims=st.tuples(*[st.sampled_from([1, 2, 3])] * 3),
        depth_frac=st.floats(min_value=0.0, max_value=0.49),
        dtype=st.sampled_from([np.float32, np.float64]),
        n=st.sampled_from([0, 1, 60, 200]),
        mixed_origin=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_c_route_is_numpy_route(self, dims, depth_frac, dtype, n,
                                    mixed_origin, seed):
        rng = np.random.default_rng(seed)
        box = 60.0
        depth = depth_frac * min(box / g for g in dims)
        pos, mom, mas = face_heavy_particles(rng, n, box, dims, dtype)
        pos = np.mod(pos, dtype(box))
        pid = rng.permutation(n).astype(np.int64)
        nr = int(np.prod(dims))
        origin = rng.integers(0, nr, n) if mixed_origin else None
        args = (pos, mom, mas, pid, origin, box, dims, depth)
        (ta, ca), (tb, cb) = (get_backend(b).route(*args)
                              for b in ("numpy", "c"))
        assert np.array_equal(ca, cb) and ca.size == 2 * nr * nr + 1
        for xa, xb in zip(ta, tb):
            assert xa.dtype == xb.dtype and xa.shape == xb.shape
            assert xa.tobytes() == xb.tobytes()
        # the runs (dst, passive, src): each rank's actives, then its
        # replicas; one active copy per particle, sent by its origin
        counts = np.diff(ca).reshape(nr, 2, nr)
        assert ca[-1] == len(ta[0])
        passive = np.repeat(np.tile(np.repeat([False, True], nr), nr),
                            np.diff(ca))
        assert np.array_equal(ta[4], ~passive)
        if mixed_origin:
            assert np.array_equal(counts[:, 0].sum(axis=0),
                                  np.bincount(origin, minlength=nr))
        else:
            assert counts[:, 0].sum() == n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_refresh_on_either_backend(self, rng, dtype):
        """A refresh through either backend gives equal domains and
        ``CommStats``."""
        decomp = DomainDecomposition(64.0, (3, 2, 1))
        pos, mom, mas = face_heavy_particles(rng, 600, 64.0, decomp.dims,
                                             dtype)
        out = {}
        for name in ("numpy", "c"):
            ex = OverloadExchange(decomp, 6.0, backend=name)
            domains = ex.distribute(pos, mom, mas)
            for dom in domains:
                dom.positions[dom.active] += dtype(2.5)
            out[name] = (ex.refresh(domains), ex.comm.stats)
        (da, sa), (db, sb) = out["numpy"], out["c"]
        assert_stats_equal(sa, sb)
        for a, b in zip(da, db):
            assert a.rank == b.rank
            for f in ("positions", "momenta", "masses", "ids", "active"):
                xa, xb = getattr(a, f), getattr(b, f)
                assert xa.dtype == xb.dtype
                assert np.array_equal(xa, xb)


class TestPrecision:
    def test_f32_distribute_stays_f32(self, rng):
        """Every domain keeps float32 positions, empty ones included."""
        ex = make_exchange(box=100.0, dims=(2, 2, 2), depth=5.0)
        # all particles deep inside rank 0: the other seven domains are empty
        pos = rng.uniform(15.0, 35.0, (50, 3)).astype(np.float32)
        mom = rng.standard_normal((50, 3)).astype(np.float32)
        domains = ex.distribute(pos, mom)
        assert [d.n_total for d in domains[1:]] == [0] * 7
        for dom in domains:
            assert dom.positions.dtype == np.float32
            assert dom.momenta.dtype == np.float32
            assert dom.masses.dtype == np.float32

    def test_f32_position_traffic_is_half_f64(self, rng):
        pos, mom = random_particles(rng)
        sent_pos_bytes, sent_rows, messages = {}, {}, {}
        for dtype in (np.float32, np.float64):
            ex = make_exchange(box=100.0, dims=(2, 2, 2), depth=10.0)
            domains = ex.distribute(pos.astype(dtype), mom.astype(dtype))
            assert all(d.positions.dtype == dtype for d in domains)
            # no rank replicates into itself on a 2x2x2 split at this
            # depth, so every passive row came from another rank
            sent_pos_bytes[dtype] = sum(
                d.positions[d.n_active:].nbytes for d in domains
            )
            # a row: positions, momenta, mass, int64 id, bool flag
            row = 7 * np.dtype(dtype).itemsize + 9
            assert ex.comm.stats.bytes % row == 0
            sent_rows[dtype] = ex.comm.stats.bytes // row
            messages[dtype] = ex.comm.stats.messages
        assert sent_pos_bytes[np.float64] > 0
        assert 2 * sent_pos_bytes[np.float32] == sent_pos_bytes[np.float64]
        assert sent_rows[np.float32] == sent_rows[np.float64]
        assert 24 * sent_rows[np.float64] == sent_pos_bytes[np.float64]
        assert messages[np.float32] == messages[np.float64]


class TestRefreshCoversDistribute:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 1, 1), (3, 2, 1)])
    def test_same_copies_per_rank(self, rng, dims):
        """``refresh(distribute(x))`` gives every rank the same copies as
        ``distribute(x)``, in the same rows."""
        ex = make_exchange(dims=dims, depth=10.0)
        pos, mom = random_particles(rng)
        first = ex.distribute(pos, mom)
        # each rank sends its actives in the order it holds them, so the
        # receive buffers come back row for row
        assert_domains_equal(first, ex.refresh(first))


def test_decomposed_run_does_not_import_numpy_ma():
    """A decomposed run routes its replicas without ``np.unique``, whose
    first call imports ``numpy.ma`` mid-run."""
    code = (
        "import sys\n"
        "from repro.config import SimulationConfig\n"
        "from repro.core.simulation import HACCSimulation\n"
        "cfg = SimulationConfig(box_size=64.0, n_per_dim=16, z_initial=25.0,\n"
        "                       z_final=10.0, n_steps=1, backend='treepm', seed=5)\n"
        "sim = HACCSimulation(cfg, decomposition_dims=(2, 1, 1),\n"
        "                     overload_depth=cfg.rcut() + 0.5)\n"
        "sim.run()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "False"
