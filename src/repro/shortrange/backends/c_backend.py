"""Compiled C kernels, built on first use and loaded with ctypes.

``pair_kernel.c`` (``pair_accumulate`` and the list ``cull``),
``cic_kernel.c`` (``cic_corners``, ``cic_deposit``, ``cic_gather`` and
the stepper's ``stream`` pass, which shares the CIC wrap) and
``rcb_kernel.c`` (``rcb_build``, whose node arrays start at ~8 per
``leaf_size`` particles and double when a build overflows them, and the
tree ``walk``, rerun with room for every hit when they outgrow its
first buffer) are fused loops, one macro body per precision (see each file's header
for its bitwise contract with the NumPy reference).  ``pair_accumulate``
also has target-lane bodies, one macro over AVX-512 (8 targets per
batch in f64 and f32) and AVX2 (4 / 8): the widest the CPU has is chosen
at load time (:func:`_pair_path`).  They order each group's targets
into spatially compact batches, and on AVX-512 cull each batch's
sources against its target box before the lanes run; their per-group
scratch comes from the caller's
:class:`~repro.shortrange.backends.Workspace`, so concurrent calls on
their own workspaces share nothing.
``solve`` (``rcb_kernel.c``) chains the tree build, the walk, the cull
and the pair path in one call on scratch from the caller's workspace.
All are compiled into one library per (sources, flags, ``$CC``,
machine) with ``$CC``, else ``cc``, else ``gcc``,
published atomically into a per-user cache and loaded through
:class:`ctypes.CDLL`, which releases the GIL for the duration of every
call.  Only a build starts a process: the compiler's ``--version`` line
is compiled into the library, and read back from it.  No compiler, a
failed build or an unloadable file raise :class:`BackendUnavailable` at
construction.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.grid.cic import non_finite_positions
from repro.shortrange.backends import BackendUnavailable, Workspace
from repro.shortrange.backends.numpy_backend import NumpyBackend
from repro.shortrange.batch import cull_radius

__all__ = ["CBackend"]

_SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("pair_kernel.c", "cic_kernel.c", "rcb_kernel.c",
                 "route_kernel.c")
)
#: one flag set for both precisions: strict IEEE, no FMA contraction, no
#: host-specific code; SIMD comes from per-function ``target("avx2")`` /
#: ``target("avx512f,avx512dq,avx512vl")`` with run-time dispatch, so one
#: cached library serves hosts with and without AVX2 or AVX-512
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_SUFFIX = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}
_I64 = ctypes.c_int64
_I64P = ctypes.POINTER(ctypes.c_int64)
_I32P = ctypes.POINTER(ctypes.c_int32)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_U64P = ctypes.POINTER(ctypes.c_uint64)
_F32P = ctypes.POINTER(ctypes.c_float)
_F64P = ctypes.POINTER(ctypes.c_double)


def _compiler() -> tuple[list[str], str]:
    """``(argv prefix, first line of --version)`` of the C compiler."""
    import subprocess

    env = os.environ.get("CC")
    for cand in ([env] if env else ["cc", "gcc"]):
        argv = shlex.split(cand)
        try:
            out = subprocess.run(
                argv + ["--version"], capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout
        except (OSError, IndexError, subprocess.SubprocessError):
            continue  # not installed, empty $CC, or not a compiler
        return argv, (out.splitlines() or ["?"])[0].strip()
    raise BackendUnavailable(
        "kernel backend 'c' needs a C compiler: none of $CC, cc, gcc "
        "answered --version"
    )


def _cache_dir() -> Path:
    """Per-user, cwd-independent kernel cache; a private temp dir (removed
    at exit) when that cannot be written."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    path = Path(root) / "repro" / "kernels"
    try:
        path.mkdir(parents=True, exist_ok=True)
        if os.access(path, os.W_OK | os.X_OK):
            return path
    except OSError:
        pass
    tmp = tempfile.mkdtemp(prefix="repro-kernels-")
    atexit.register(shutil.rmtree, tmp, ignore_errors=True)
    return Path(tmp)


def _intact(lib: Path) -> bool:
    """A cache entry is the library followed by the sha256 of the library:
    damage is caught here, before ``dlopen`` maps the file (a truncated
    ELF can kill the loader with SIGBUS instead of raising)."""
    try:
        blob = lib.read_bytes()
    except OSError:
        return False
    return len(blob) > 32 and hashlib.sha256(blob[:-32]).digest() == blob[-32:]


def _build(lib: Path) -> None:
    """Compile into a unique temp file beside ``lib``, seal it, then
    publish it with one atomic rename — racing builders each install a
    whole file."""
    import subprocess

    cc, version = _compiler()
    quoted = version.replace("\\", "\\\\").replace('"', '\\"')
    fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            cc + list(_FLAGS) + [f'-DREPRO_COMPILER="{quoted}"', "-o", tmp,
                                 *map(str, _SOURCES), "-lm"],
            capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 0:
            raise BackendUnavailable(
                f"kernel backend 'c': {' '.join(cc)} failed "
                f"({proc.returncode}): {proc.stderr.strip()[-500:]}"
            )
        with open(tmp, "r+b") as fh:
            digest = hashlib.sha256(fh.read()).digest()
            fh.write(digest)
        os.replace(tmp, lib)
    except (OSError, subprocess.SubprocessError) as exc:
        raise BackendUnavailable(f"kernel backend 'c': build failed: {exc}")
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


#: ``pair_simd()``'s answer -> path, and each path's C entry point
_PAIR_PATHS = ("scalar", "avx2", "avx512")
_PAIR_SYMBOLS = {"scalar": "pair_accumulate", "avx2": "pair_avx2",
                 "avx512": "pair_avx512"}


def _pair_path(dll) -> str:
    """The widest pair path this CPU runs: ``"avx512"`` or ``"avx2"``
    target lanes, else ``"scalar"``; tests patch it to pin a narrower
    one."""
    dll.pair_simd.restype = _I64
    return _PAIR_PATHS[dll.pair_simd()]


def _load(lib: Path) -> tuple[dict, object, str, str]:
    """``({dtype: ({entry point: typed function}, pointer type)},
    pair_scratch, pair path, compiler)``: ``pair_accumulate`` is bound to
    the path's C function (``pair_fn`` is its address, for ``solve``),
    ``pair_scratch(ns, nt)`` sizes its scratch."""
    dll = ctypes.CDLL(str(lib))
    path = _pair_path(dll)
    pair = _PAIR_SYMBOLS[path]
    dll.pair_scratch.restype = _I64
    dll.pair_scratch.argtypes = [_I64] * 2
    fns = {}
    for dt, suffix in _SUFFIX.items():
        real = ctypes.c_double if dt.itemsize == 8 else ctypes.c_float
        rp = ctypes.POINTER(real)
        signatures = {
            "pair_accumulate": [_I64P, _I64P, _U8P] + [_I64P] * 3
            + [_U64P, _I64] + [rp] * 5 + [_I64] + [real] * 3
            + [rp, rp, _I64P],
            "cic_corners": [rp, _I64, _I64, real, real, _I32P, rp],
            "cic_deposit": [_I32P, rp, rp, _I64, _I64, _F64P, rp],
            "cic_gather": [rp, _I64, _I64, _I32P, rp, _I64, rp],
            "stream": [rp, rp, _I64, real, real],
            "rcb_build": [rp] * 4 + [_I64P] + [_I64] * 3 + [_I64P] * 2
            + [rp] * 2 + [_I64P] * 2,
            "walk": [rp, rp, _I64P, _I64P, rp, rp, _I64, _I64P, _I64P, _I64,
                     _I64P],
            "cull": [_I64P, _I64P, _U8P] + [_I64P] * 3 + [_I64]
            + [_F32P] * 3 + [ctypes.c_float, _U64P, _I64P, _I64P],
            "route": [rp] * 3 + [_I64P] * 2 + [_I64, ctypes.c_double, _I64P,
                      ctypes.c_double, _I64P] + [rp] * 3 + [_I64P, _U8P],
            "solve": [rp, rp] + [_I64] * 3 + [real, ctypes.c_float, rp, _I64]
            + [real] * 4 + [ctypes.c_void_p, rp, _I64] + [_I64P, _I64] * 2
            + [rp, _I64P, _F64P],
        }
        table = {}
        for name, argtypes in signatures.items():
            symbol = pair if name == "pair_accumulate" else name
            # one cull serves both dtypes: it reads the rows in float
            fn = getattr(dll, symbol if name == "cull"
                         else f"{symbol}_{suffix}")
            fn.restype = None if name in ("stream", "route", "cull") else _I64
            fn.argtypes = argtypes
            table[name] = fn
        table["pair_fn"] = ctypes.cast(table["pair_accumulate"],
                                       ctypes.c_void_p)
        fns[dt] = (table, rp)
    compiler = ctypes.c_char_p.in_dll(dll, "repro_compiler").value.decode()
    return fns, dll.pair_scratch, path, compiler


def _checked(a, dtype, name: str, n: int | None = None) -> np.ndarray:
    """``a`` as a C-contiguous 1-D ``dtype`` array (copied only when it is
    not one already), so the raw pointer taken from it is valid."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.ndim != 1 or (n is not None and out.size != n):
        raise ValueError(f"{name}: expected a 1-D array"
                         + (f" of length {n}" if n is not None else "")
                         + f", got shape {np.shape(a)}")
    return out


def _group_lists(target_starts, target_counts, real, source_starts,
                 source_counts, range_offsets, n: int):
    """A batch's row ranges as C arrays ``(target_starts, target_counts,
    real, source_starts, source_counts, range_offsets)``, and each
    group's number of candidates: the C loops trust the ranges, so they
    are bounded here, once per call, against ``n`` rows."""
    ts = _checked(target_starts, np.int64, "target_starts")
    tc = _checked(target_counts, np.int64, "target_counts", ts.size)
    start = _checked(source_starts, np.int64, "source_starts")
    count = _checked(source_counts, np.int64, "source_counts", start.size)
    ro = _checked(range_offsets, np.int64, "range_offsets", ts.size + 1)
    if ro[0] != 0 or ro[-1] != start.size or np.any(ro[1:] < ro[:-1]):
        raise ValueError("range offsets do not index their ranges")
    for first, size, what in ((ts, tc, "target"), (start, count, "source")):
        if first.size and (size.min() < 0 or first.min() < 0
                           or (first + size).max() > n):
            raise IndexError(f"{what} range out of range for {n} rows")
    before = np.zeros(start.size + 1, dtype=np.int64)
    np.cumsum(count, out=before[1:])
    flags = _checked(real, np.bool_, "real", n)
    return (ts, tc, flags, start, count, ro), np.diff(before[ro])


def _pointers(lists):
    """ctypes pointers to :func:`_group_lists`' arrays."""
    return (a.ctypes.data_as(_U8P if a.dtype == np.bool_ else _I64P)
            for a in lists)


class CBackend(NumpyBackend):
    """``pair_accumulate``, the three CIC passes, ``stream``,
    ``rcb_build``, ``walk``, ``cull``, ``route`` and ``solve`` in
    compiled C."""

    name = "c"

    def __init__(self) -> None:
        flags = " ".join(_FLAGS)
        sources = hashlib.sha256(b"\0".join(
            p.name.encode() + b"\0" + p.read_bytes() for p in _SOURCES
        )).hexdigest()
        key = hashlib.sha256("\0".join(
            [flags, sources, os.environ.get("CC", ""), platform.machine()]
        ).encode()).hexdigest()
        lib = _cache_dir() / f"{key}.so"
        if not _intact(lib):
            _build(lib)
        try:
            self._fns, self._pair_scratch, self.simd, compiler = _load(lib)
        except (OSError, AttributeError, ValueError) as exc:
            raise BackendUnavailable(
                f"kernel backend 'c': cannot load {lib}: {exc}"
            )
        #: what the run manifest records about the compiled kernel
        self.build_info = {"compiler": compiler, "flags": flags,
                           "source_sha256": sources}

    def pair_accumulate(self, target_starts, target_counts, real,
                        source_starts, source_counts, range_offsets, keep,
                        px, py, pz, msc, coeffs, eps, rc2_cells, inv_sp2,
                        acc, workspace):
        dt = acc.dtype
        if (dt not in self._fns or acc.ndim != 2 or acc.shape[1] != 3
                or not acc.flags.c_contiguous or not acc.flags.writeable):
            raise ValueError(
                "acc must be a writeable C-contiguous (N, 3) float32/"
                f"float64 array, got {acc.dtype} {acc.shape}"
            )
        n = acc.shape[0]
        fns, rp = self._fns[dt]
        if n == 0 or np.size(target_starts) == 0:
            return 0
        lists, ncand = _group_lists(target_starts, target_counts, real,
                                    source_starts, source_counts,
                                    range_offsets, n)
        bits = _checked(keep, np.uint64, "keep")
        if 64 * bits.size < ncand.sum():
            raise ValueError(f"keep: {64 * bits.size} bits for "
                             f"{int(ncand.sum())} candidates")
        soa = [_checked(a, dt, s, n) for a, s in
               ((px, "px"), (py, "py"), (pz, "pz"), (msc, "msc"))]
        co = _checked(coeffs, dt, "coeffs")
        if co.size < 1:
            raise ValueError("coeffs must be non-empty")
        # per-group scratch, sized for the most targets and candidates
        nt, ns = int(lists[1].max()), int(ncand.max())
        ws = Workspace() if workspace is None else workspace
        scratch = ws.get("pair.scratch", self._pair_scratch(ns, nt), dt)
        order = ws.get("pair.order", 2 * nt, np.int64)
        return int(fns["pair_accumulate"](
            *_pointers(lists), bits.ctypes.data_as(_U64P), lists[0].size,
            *(a.ctypes.data_as(rp) for a in soa),
            co.ctypes.data_as(rp), co.size,
            float(eps), float(rc2_cells), float(inv_sp2),
            acc.ctypes.data_as(rp), scratch.ctypes.data_as(rp),
            order.ctypes.data_as(_I64P),
        ))

    def solve(self, positions, masses, n_targets, leaf_size, rcut, coeffs,
              eps, rc2_cells, inv_sp2, mass_scale, workspace):
        args = (positions, masses, n_targets, leaf_size, rcut, coeffs, eps,
                rc2_cells, inv_sp2, mass_scale, workspace)
        pos, dt = np.ascontiguousarray(positions), coeffs.dtype
        n = len(pos) if pos.ndim else 0
        if (pos.dtype != dt or pos.shape != (n, 3) or np.shape(masses) != (n,)
                or leaf_size < 1):
            return super().solve(*args)  # RCBTree's errors, or mixed dtypes
        (fns, rp), co = self._fns[dt], np.ascontiguousarray(coeffs)
        out = np.empty((min(n_targets, n), 3), dt)
        info, marks = np.empty(4, np.int64), np.empty(4)
        head = (pos.ctypes.data_as(rp),
                _checked(masses, dt, "masses", n).ctypes.data_as(rp), n,
                n_targets, leaf_size, float(dt.type(rcut)),
                float(np.float32(cull_radius(rcut, pos) ** 2)),
                co.ctypes.data_as(rp), co.size, float(eps), float(rc2_cells),
                float(inv_sp2), float(mass_scale), fns["pair_fn"])
        need = [0, 0, 0]
        while True:  # again only when the workspace lacks room
            room = [workspace.room(f"solve.{k}", v, t) for k, v, t in
                    zip("til", need, (dt, np.int64, np.int64))]
            inside = fns["solve"](
                *head, *(x for a in room for x in (a.ctypes.data_as(
                    rp if a.dtype == dt else _I64P), a.size)),
                out.ctypes.data_as(rp), info.ctypes.data_as(_I64P),
                marks.ctypes.data_as(_F64P))
            if inside != -1:
                break
            need = [v + v // 8 for v in info[:3].tolist()]  # and to grow
        if inside == -3:  # RCBTree names the position or mass it refuses
            return super().solve(*args)
        if inside < 0:
            raise MemoryError("solve: cannot allocate scratch")
        streamed, depth, groups, at = info.tolist()
        return (out, (streamed, inside), depth,
                room[1][at:at + groups].copy(), marks.tolist())

    def walk(self, tree, qlo, qhi):
        dt = tree.node_lo.dtype
        fns, rp = self._fns[dt]
        qlo, qhi = (np.ascontiguousarray(q, dtype=dt).reshape(-1, 3)
                    for q in (qlo, qhi))
        nq = qlo.shape[0]
        if qhi.shape != qlo.shape:
            raise ValueError(f"qlo {qlo.shape} and qhi {qhi.shape} differ")
        offsets = np.zeros(nq + 1, dtype=np.int64)
        if nq == 0 or tree.n_nodes == 0:
            return offsets, np.empty(0, dtype=np.int64)
        boxes = [np.ascontiguousarray(a) for a in
                 (tree.node_lo, tree.node_hi, tree.node_left,
                  tree.node_right, qlo, qhi)]
        stack = np.empty(tree.n_nodes, dtype=np.int64)
        cap = 64 * nq
        while True:  # a second pass only when the hits outgrow the room
            hits = np.empty(cap, dtype=np.int64)
            total = fns["walk"](
                *(a.ctypes.data_as(rp if a.dtype == dt else _I64P)
                  for a in boxes),
                nq, offsets.ctypes.data_as(_I64P), hits.ctypes.data_as(_I64P),
                cap, stack.ctypes.data_as(_I64P),
            )
            if total <= cap:
                return offsets, hits[:total]
            cap = total

    def cull(self, target_starts, target_counts, real, source_starts,
             source_counts, range_offsets, positions, radius):
        pos, fns, _ = self._particle_rows(positions, "positions")
        lists, ncand = _group_lists(target_starts, target_counts, real,
                                    source_starts, source_counts,
                                    range_offsets, pos.shape[0])
        keep = np.zeros(-(-int(ncand.sum()) // 64), dtype=np.uint64)
        n_targets, n_sources = (np.empty(lists[0].size, dtype=np.int64)
                                for _ in "ts")
        rows = np.ascontiguousarray(pos.T, dtype=np.float32)
        fns["cull"](
            *_pointers(lists), lists[0].size,
            *(r.ctypes.data_as(_F32P) for r in rows),
            float(np.float32(radius**2)), keep.ctypes.data_as(_U64P),
            n_targets.ctypes.data_as(_I64P), n_sources.ctypes.data_as(_I64P),
        )
        return keep, n_targets, n_sources

    def rcb_build(self, x, y, z, m, leaf_size):
        dt, n = x.dtype, x.size
        if dt not in self._fns or leaf_size < 1 or any(
            a.dtype != dt or a.shape != (n,) or not a.flags.c_contiguous
            or not a.flags.writeable for a in (x, y, z, m)
        ):
            raise ValueError(
                "x, y, z, m must be writeable C-contiguous 1-D float32/"
                "float64 arrays of one dtype and length, and leaf_size >= 1"
            )
        fns, rp = self._fns[dt]
        perm = np.empty(n, dtype=np.int64)
        # node room for leaves a quarter full (clouds fill them ~70%); a
        # build that needs more restores x, y, z, m and reruns with double
        cap = 8 * (n // leaf_size) + 8
        while True:
            nodes = [np.empty(cap, np.int64), np.empty(cap, np.int64),
                     np.empty((cap, 3), dt), np.empty((cap, 3), dt),
                     np.empty(cap, np.int64), np.empty(cap, np.int64)]
            nn = fns["rcb_build"](
                *(a.ctypes.data_as(rp) for a in (x, y, z, m)),
                perm.ctypes.data_as(_I64P), n, int(leaf_size), cap,
                *(a.ctypes.data_as(rp if a.dtype == dt else _I64P)
                  for a in nodes),
            )
            if nn >= 0:
                return (perm, *(a[:nn] for a in nodes))
            if nn == -2:
                raise MemoryError("rcb_build: cannot allocate scratch")
            cap *= 2

    def route(self, positions, momenta, masses, ids, origin, box_size, dims,
              depth):
        pos, fns, rp = self._particle_rows(positions, "positions")
        dt, n = pos.dtype, pos.shape[0]
        mom = np.ascontiguousarray(momenta, dtype=dt)
        dims = np.array(dims, dtype=np.int64)
        nr = int(dims.prod())
        org = None if origin is None else _checked(origin, np.int64,
                                                   "origin", n)
        if mom.shape != pos.shape or dims.shape != (3,) or dims.min() < 1 or (
                n and org is not None and not 0 <= org.min() <= org.max() < nr):
            raise ValueError("route: momenta must match positions, dims be "
                             "three positive ints and origin ranks of them")
        rows = (pos, mom, _checked(masses, dt, "masses", n),
                _checked(ids, np.int64, "ids", n), org)
        args = [None if a is None else a.ctypes.data_as(
            _I64P if a.dtype == np.int64 else rp) for a in rows]
        args += [n, float(box_size), dims.ctypes.data_as(_I64P), float(depth)]
        # one slot per ((dst * 2 + passive) * nr + src) * 26 + k: count,
        # then first row
        counts = np.zeros(52 * nr * nr, dtype=np.int64)
        fns["route"](*args, counts.ctypes.data_as(_I64P), *[None] * 5)
        starts = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        m = int(starts[-1])
        table = (np.empty((m, 3), dt), np.empty((m, 3), dt), np.empty(m, dt),
                 np.empty(m, np.int64), np.empty(m, np.bool_))
        fns["route"](*args, starts[:-1].copy().ctypes.data_as(_I64P),
                     *(a.ctypes.data_as(_U8P if a.dtype == np.bool_ else
                                        _I64P if a.dtype == np.int64 else rp)
                       for a in table))
        return table, starts[::26]

    # ------------------------------------------------------------------
    def _particle_rows(self, a, name):
        """``a`` as a C-contiguous ``(N, 3)`` float32/float64 array, its
        dtype's entry points and pointer type."""
        a = np.ascontiguousarray(a)
        if a.dtype not in self._fns or a.ndim != 2 or a.shape[1] != 3:
            raise ValueError(
                f"{name} must be an (N, 3) float32/float64 array, got "
                f"{a.dtype} {a.shape}"
            )
        return a, *self._fns[a.dtype]

    def _corners(self, base, frac):
        """The checked corners arrays, their dtype's entry points and
        pointer type (the C loops bound the base cells themselves)."""
        frac, fns, rp = self._particle_rows(frac, "frac")
        base = np.ascontiguousarray(base, dtype=np.int32)
        if base.shape != frac.shape:
            raise ValueError(f"base shape {base.shape} != frac shape "
                             f"{frac.shape}")
        return base, frac, fns, rp

    def cic_corners(self, positions, n, box_size, workspace=None):
        pos, fns, rp = self._particle_rows(positions, "positions")
        dt, npart = pos.dtype, pos.shape[0]
        if n < 1 or box_size <= 0:
            raise ValueError(f"bad grid: n={n}, box_size={box_size}")
        ws = Workspace() if workspace is None else workspace
        base = ws.get("cic.base", 3 * npart, np.int32).reshape(npart, 3)
        frac = ws.get("cic.frac", 3 * npart, dt).reshape(npart, 3)
        bad = fns["cic_corners"](
            pos.ctypes.data_as(rp), npart, n, float(dt.type(box_size)),
            float(dt.type(n / box_size)), base.ctypes.data_as(_I32P),
            frac.ctypes.data_as(rp),
        )
        if bad:
            raise non_finite_positions(bad)
        return base, frac

    def cic_deposit(self, base, frac, values, n, workspace=None):
        base, frac, fns, rp = self._corners(base, frac)
        dt, npart = frac.dtype, frac.shape[0]
        if n < 1:
            raise ValueError(f"bad grid: n={n}")
        mass = None if values is None else _checked(values, dt, "values",
                                                     npart)
        ws = Workspace() if workspace is None else workspace
        scratch = ws.get("cic.scratch", 2 * n**3, np.float64)
        grid = np.empty((n, n, n), dtype=dt)
        bad = fns["cic_deposit"](
            base.ctypes.data_as(_I32P), frac.ctypes.data_as(rp),
            None if mass is None else mass.ctypes.data_as(rp),
            npart, n, scratch.ctypes.data_as(_F64P), grid.ctypes.data_as(rp),
        )
        if bad:
            raise IndexError(f"cic: {bad} base cell(s) outside the {n}^3 grid")
        return grid

    def cic_gather(self, grid, base, frac):
        base, frac, fns, rp = self._corners(base, frac)
        dt = frac.dtype
        grid = np.ascontiguousarray(grid, dtype=dt)
        n = grid.shape[0] if grid.ndim == 4 else 0
        if n < 1 or grid.shape[1:3] != (n, n):
            raise ValueError(
                f"grid must be an (n, n, n, k) array, got {grid.shape}"
            )
        k = grid.shape[3]
        out = np.empty((frac.shape[0], k), dtype=dt)
        bad = fns["cic_gather"](
            grid.ctypes.data_as(rp), n, k, base.ctypes.data_as(_I32P),
            frac.ctypes.data_as(rp), frac.shape[0], out.ctypes.data_as(rp),
        )
        if bad:
            raise IndexError(f"cic: {bad} base cell(s) outside the {n}^3 grid")
        return out

    def stream(self, positions, momenta, drift, box_size):
        x = positions
        fns, rp = self._fns.get(x.dtype, (None, None))
        if (fns is None or x.ndim != 2 or x.shape[1] != 3
                or not x.flags.c_contiguous or not x.flags.writeable):
            raise ValueError(
                "positions must be a writeable C-contiguous (N, 3) float32/"
                f"float64 array, got {x.dtype} {x.shape}"
            )
        p = np.ascontiguousarray(momenta)
        if p.dtype != x.dtype or p.shape != x.shape:
            raise ValueError(f"momenta {p.dtype} {p.shape} are not "
                             f"positions' {x.dtype} {x.shape}")
        t = x.dtype.type
        fns["stream"](x.ctypes.data_as(rp), p.ctypes.data_as(rp), x.size,
                      float(t(drift)), float(t(box_size)))
