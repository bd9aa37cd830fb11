"""Tests for particle overloading (Fig. 4 of the paper)."""

import functools
import subprocess
import sys

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
    shifts are built in the positions' dtype."""
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
    sends = [[[] for _ in range(nr)] for _ in range(nr)]

    def append(s, r, p, ii, active):
        sends[int(s)][int(r)].append(
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

    def pack(frags):
        if not frags:
            return None
        return tuple(
            np.concatenate([f[k] for f in frags], axis=0) for k in range(5)
        )

    return [[pack(sends[i][j]) for j in range(nr)] for i in range(nr)]


class RecordingComm(SimulatedComm):
    """Communicator that keeps the send buffers of its last all-to-all."""

    def alltoallv(self, sendbufs, tag="alltoallv"):
        self.sent = sendbufs
        return super().alltoallv(sendbufs, tag=tag)


def exchange_pair(box, dims, depth, backend="numpy"):
    """(exchange routed on ``backend``, oracle-routed exchange), each on
    its own comm."""
    decomp = DomainDecomposition(box, dims)
    fast = OverloadExchange(
        decomp, depth, RecordingComm(decomp.n_ranks), backend=backend
    )
    ref = OverloadExchange(decomp, depth, RecordingComm(decomp.n_ranks))
    ref._route = functools.partial(oracle_route, ref)
    return fast, ref


def assert_payloads_equal(a, b):
    assert len(a) == len(b)
    for row_a, row_b in zip(a, b):
        for pa, pb in zip(row_a, row_b):
            assert (pa is None) == (pb is None)
            if pa is not None:
                for xa, xb in zip(pa, pb):
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
    ref.distribute(pos, mom, mas)
    assert_payloads_equal(fast.comm.sent, ref.comm.sent)
    assert_stats_equal(fast.comm.stats, ref.comm.stats)

    # drift the actives up to a shell depth so some change rank, then
    # refresh the same domains through both routers (mixed origins)
    for dom in got:
        kick = rng.uniform(-depth, depth, (dom.n_active, 3)).astype(dtype)
        dom.positions[dom.active] += kick
    fast.refresh(got)
    ref.refresh(got)
    assert_payloads_equal(fast.comm.sent, ref.comm.sent)
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
        assert np.array_equal(ca, cb) and ca.size == nr * nr + 1
        for xa, xb in zip(ta, tb):
            assert xa.dtype == xb.dtype and xa.shape == xb.shape
            assert xa.tobytes() == xb.tobytes()

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
        sent_pos_bytes, messages = {}, {}
        for dtype in (np.float32, np.float64):
            decomp = DomainDecomposition(100.0, (2, 2, 2))
            ex = OverloadExchange(decomp, 10.0, RecordingComm(decomp.n_ranks))
            domains = ex.distribute(pos.astype(dtype), mom.astype(dtype))
            assert all(d.positions.dtype == dtype for d in domains)
            sent_pos_bytes[dtype] = sum(
                p[0].nbytes
                for i, row in enumerate(ex.comm.sent)
                for j, p in enumerate(row)
                if i != j and p is not None
            )
            messages[dtype] = ex.comm.stats.messages
        assert sent_pos_bytes[np.float64] > 0
        assert 2 * sent_pos_bytes[np.float32] == sent_pos_bytes[np.float64]
        assert messages[np.float32] == messages[np.float64]


class TestRefreshCoversDistribute:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 1, 1), (3, 2, 1)])
    def test_same_copies_per_rank(self, rng, dims):
        """``refresh(distribute(x))`` gives every rank the same multiset
        of (id, active, position) copies as ``distribute(x)``."""
        ex = make_exchange(dims=dims, depth=10.0)
        pos, mom = random_particles(rng)
        first = ex.distribute(pos, mom)
        second = ex.refresh(first)

        def copies(dom):
            keys = (
                dom.positions[:, 2],
                dom.positions[:, 1],
                dom.positions[:, 0],
                dom.active,
                dom.ids,
            )
            o = np.lexsort(keys)
            return dom.ids[o], dom.active[o], dom.positions[o]

        for a, b in zip(first, second):
            assert a.rank == b.rank
            for xa, xb in zip(copies(a), copies(b)):
                assert np.array_equal(xa, xb)


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
