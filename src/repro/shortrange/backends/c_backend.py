"""Compiled C pair kernel, built on first use and loaded with ctypes.

``pair_kernel.c`` is one fused loop per precision (see its header for
the bitwise contract with the NumPy reference).  It is compiled once per
(source, flags, compiler, machine) with ``$CC``, else ``cc``, else
``gcc``, published atomically into a per-user cache and loaded through
:class:`ctypes.CDLL`, which releases the GIL for the duration of every
call.  The other three primitives are inherited from
:class:`NumpyBackend`.  No compiler, a failed build or an unloadable
file raise :class:`BackendUnavailable` at construction.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.shortrange.backends import BackendUnavailable
from repro.shortrange.backends.numpy_backend import NumpyBackend

__all__ = ["CBackend"]

_SOURCE = Path(__file__).with_name("pair_kernel.c")
#: one flag set for both precisions: strict IEEE, no FMA contraction, no
#: host-specific code (``-O3 -march=native`` measured no gain on this
#: scalar-gather loop)
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_SYMBOLS = {np.dtype(np.float64): "pair_accumulate_f64",
            np.dtype(np.float32): "pair_accumulate_f32"}
_I64P = ctypes.POINTER(ctypes.c_int64)


def _compiler() -> tuple[list[str], str]:
    """``(argv prefix, first line of --version)`` of the C compiler."""
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


def _build(cc: list[str], lib: Path) -> None:
    """Compile into a unique temp file beside ``lib``, seal it, then
    publish it with one atomic rename — racing builders each install a
    whole file."""
    fd, tmp = tempfile.mkstemp(dir=lib.parent, suffix=".so.tmp")
    os.close(fd)
    try:
        proc = subprocess.run(
            cc + list(_FLAGS) + ["-o", tmp, str(_SOURCE), "-lm"],
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


def _load(lib: Path) -> dict:
    """The two typed entry points of ``lib``, keyed by dtype."""
    dll = ctypes.CDLL(str(lib))
    fns = {}
    for dt, symbol in _SYMBOLS.items():
        real = ctypes.c_double if dt.itemsize == 8 else ctypes.c_float
        rp = ctypes.POINTER(real)
        fn = getattr(dll, symbol)
        fn.restype = ctypes.c_int64
        fn.argtypes = (
            [_I64P] * 4 + [ctypes.c_int64] + [rp] * 5 + [ctypes.c_int64]
            + [real] * 3 + [ctypes.c_int64, rp]
        )
        fns[dt] = (fn, rp)
    return fns


def _checked(a, dtype, name: str, n: int | None = None) -> np.ndarray:
    """``a`` as a C-contiguous 1-D ``dtype`` array (copied only when it is
    not one already), so the raw pointer taken from it is valid."""
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.ndim != 1 or (n is not None and out.size != n):
        raise ValueError(f"{name}: expected a 1-D array"
                         + (f" of length {n}" if n is not None else "")
                         + f", got shape {np.shape(a)}")
    return out


class CBackend(NumpyBackend):
    """``pair_accumulate`` in compiled C; everything else is numpy."""

    name = "c"

    def __init__(self) -> None:
        cc, version = _compiler()
        #: what the run manifest records about the compiled kernel
        self.build_info = {
            "compiler": version,
            "flags": " ".join(_FLAGS),
            "source_sha256": hashlib.sha256(_SOURCE.read_bytes()).hexdigest(),
        }
        key = hashlib.sha256("\0".join(
            [*self.build_info.values(), platform.machine()]
        ).encode()).hexdigest()
        lib = _cache_dir() / f"{key}.so"
        if not _intact(lib):
            _build(cc, lib)
        try:
            self._fns = _load(lib)
        except (OSError, AttributeError) as exc:
            raise BackendUnavailable(
                f"kernel backend 'c': cannot load {lib}: {exc}"
            )

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
        dt = acc.dtype
        if (dt not in self._fns or acc.ndim != 2 or acc.shape[1] != 3
                or not acc.flags.c_contiguous or not acc.flags.writeable):
            raise ValueError(
                "acc must be a writeable C-contiguous (N, 3) float32/"
                f"float64 array, got {acc.dtype} {acc.shape}"
            )
        n = acc.shape[0]
        fn, rp = self._fns[dt]
        to = _checked(target_offsets, np.int64, "target_offsets")
        no = _checked(neighbor_offsets, np.int64, "neighbor_offsets", to.size)
        tg = _checked(targets, np.int64, "targets")
        ni = _checked(neighbor_indices, np.int64, "neighbor_indices")
        ngroups = to.size - 1
        if ngroups < 1 or n == 0:
            return 0
        # the C loop trusts the lists: bound them here, once per batch
        for off, idx, what in ((to, tg, "target"), (no, ni, "neighbor")):
            if off[0] < 0 or off[-1] > idx.size or np.any(off[1:] < off[:-1]):
                raise ValueError(f"{what} offsets do not index their list")
            used = idx[off[0]:off[-1]]
            if used.size and (used.min() < 0 or used.max() >= n):
                raise IndexError(f"{what} index out of range for {n} rows")
        soa = [_checked(a, dt, s, n) for a, s in
               ((px, "px"), (py, "py"), (pz, "pz"), (msc, "msc"))]
        co = _checked(coeffs, dt, "coeffs")
        if co.size < 1 or chunk_pairs < 1:
            raise ValueError("coeffs must be non-empty and chunk_pairs >= 1")
        return int(fn(
            tg.ctypes.data_as(_I64P), to.ctypes.data_as(_I64P),
            ni.ctypes.data_as(_I64P), no.ctypes.data_as(_I64P), ngroups,
            *(a.ctypes.data_as(rp) for a in soa),
            co.ctypes.data_as(rp), co.size,
            float(eps), float(rc2_cells), float(inv_sp2),
            int(chunk_pairs), acc.ctypes.data_as(rp),
        ))
