"""The loader of the compiled kernels (_kernel.c): the anneal step loop and
greedy polish (search), the Goodman count (certify) and the edge-list text
(graphs).  Each caller keeps a numpy path, its fallback without a C
compiler and its tests' reference."""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np

_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")


@functools.cache
def _load_kernel():
    """The compiled library, built on first use; None without a working C
    compiler.  The library is cached under $XDG_CACHE_HOME (or
    ~/.cache)/quasifolkman, keyed by the source, the numpy version and the
    machine, and written under a temporary name first, so concurrent builds
    are safe.  An unwritable cache gets a build in a per-process temporary
    directory."""
    try:
        source = _KERNEL_SOURCE.read_bytes()
    except OSError:
        return None
    key = hashlib.sha256(source + np.__version__.encode() + platform.machine().encode()).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "quasifolkman"
    target = cache / f"kernel-{key}.so"
    if target.exists():
        return _open_kernel(target)
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp", dir=cache)
        os.close(fd)
    except OSError:
        with tempfile.TemporaryDirectory(prefix="quasifolkman-") as scratch:
            # the loaded mapping outlives the deleted file
            path = Path(scratch) / target.name
            return _open_kernel(path) if _compile(compiler, path) else None
    if not _compile(compiler, Path(tmp)):
        Path(tmp).unlink(missing_ok=True)
        return None
    os.replace(tmp, target)
    return _open_kernel(target)


def _compile(compiler: str, out: Path) -> bool:
    import subprocess  # here, so that commands that never build do not load it

    cmd = [compiler, "-O2", "-shared", "-fPIC", "-I", np.get_include(), str(_KERNEL_SOURCE), "-o", str(out)]
    try:
        return subprocess.run(cmd, capture_output=True, timeout=120).returncode == 0
    except (OSError, subprocess.SubprocessError):
        return False


def _open_kernel(path: Path):
    try:
        lib = ctypes.CDLL(str(path))
    except OSError:
        return None
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.anneal_steps.restype = i64
    lib.anneal_steps.argtypes = [ptr] * 8 + [i64, ptr] + [i64] * 4 + [ptr] * 3
    lib.draw_edges.restype = None
    lib.draw_edges.argtypes = [ptr, ctypes.c_uint64, i64, ptr]
    lib.fill_deltas.restype = None
    lib.fill_deltas.argtypes = [ptr, ptr, i64, i64, i64, ptr]
    lib.polish.restype = None
    lib.polish.argtypes = [ptr] * 3 + [i64] * 3 + [ptr] * 2 + [i64]
    lib.same_pairs.restype = None
    lib.same_pairs.argtypes = [ptr] * 5 + [i64] * 3 + [ptr] * 2
    lib.edge_lines.restype = i64
    lib.edge_lines.argtypes = [ptr, ptr, i64, ptr]
    return lib
