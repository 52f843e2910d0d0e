"""Child-process helpers for the benchmark in run.py.

Each subcommand runs in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH and prints one JSON object on stdout:

    tools.py setup Q             time `import quasifolkman` + build_graph_for_q(Q)
    tools.py coloring Q SEED F   write a seeded random coloring file to F
    tools.py recount Q F         exact Goodman count of the coloring in F
"""

from __future__ import annotations

import json
import sys
import time


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def setup(q: int) -> dict:
    t0 = time.perf_counter()
    import quasifolkman
    from quasifolkman.graphs import build_graph_for_q

    g = build_graph_for_q(q)
    elapsed = time.perf_counter() - t0
    import numpy

    return {
        "setup_s": elapsed,
        "n": g.n,
        "m": g.m,
        "module": quasifolkman.__file__,
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }


def coloring(q: int, seed: int, path: str) -> dict:
    from quasifolkman.certify import EdgeColoring
    from quasifolkman.graphs import build_graph_for_q

    g = build_graph_for_q(q)
    with open(path, "w") as fh:
        fh.write(EdgeColoring.random(g, seed).to_text())
    return {"m": g.m}


def recount(q: int, path: str) -> dict:
    from quasifolkman.certify import EdgeColoring, goodman_count
    from quasifolkman.graphs import build_graph_for_q
    from quasifolkman.triangles import build_family

    g = build_graph_for_q(q)
    with open(path) as fh:
        col = EdgeColoring.from_text(g, fh.read())
    return {"monochromatic": goodman_count(build_family(g), col).monochromatic}


def main(argv: list[str]) -> int:
    cmd, *rest = argv
    if cmd == "setup":
        out = setup(int(rest[0]))
    elif cmd == "coloring":
        out = coloring(int(rest[0]), int(rest[1]), rest[2])
    elif cmd == "recount":
        out = recount(int(rest[0]), rest[1])
    else:
        print(f"unknown subcommand {cmd!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
