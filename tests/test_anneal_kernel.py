"""The compiled anneal loop against the numpy loop, and its fallbacks."""

import json
import shutil

import numpy as np
import pytest

from oracles import fresh_deltas
from quasifolkman import search
from quasifolkman.certify import batch_mono_counts
from quasifolkman.cli import EXIT_PASS, main
from quasifolkman.graphs import build_graph_for_q
from quasifolkman.search import AnnealSchedule, anneal, edge_triangle_index
from quasifolkman.triangles import build_family

HAS_COMPILER = bool(shutil.which("cc") or shutil.which("gcc"))


@pytest.fixture(scope="module")
def setups():
    out = {}
    for q in (3, 4):
        g = build_graph_for_q(q)
        fam = build_family(g)
        out[q] = (g, fam, edge_triangle_index(fam))
    return out


@pytest.fixture(scope="module")
def kernel():
    """The compiled loop; with a compiler on PATH it must build, so that the
    comparisons below never compare the numpy loop with itself."""
    lib = search._load_kernel()
    if HAS_COMPILER:
        assert lib is not None, "a C compiler is on PATH but the anneal kernel did not build"
    else:
        pytest.skip("no C compiler on PATH")
    return lib


@pytest.fixture
def fresh_build():
    """Forget the loaded kernel before and after, so each test builds its own."""
    search._load_kernel.cache_clear()
    yield
    search._load_kernel.cache_clear()


SCHEDULES = {
    "uneven_chunks": (AnnealSchedule(2.0, 0.995, 1000), 8, 0),
    "revalidate": (AnnealSchedule(2.0, 0.995, 1000), 8, 150),
    "zero_steps": (AnnealSchedule(2.0, 0.995, 0), 8, 0),
    "one_restart": (AnnealSchedule(2.0, 0.995, 1000), 1, 0),
    "cold": (AnnealSchedule(0.0, 0.995, 1000), 8, 0),
    "no_cooling": (AnnealSchedule(1.0, 1.0, 1000), 8, 0),
}


def _start(g, fam, seed, restarts):
    rng = np.random.default_rng(seed)
    colors = rng.integers(0, 2, size=(restarts, g.m), dtype=np.uint8).astype(bool)
    obj = batch_mono_counts(fam, colors)
    return rng, colors, obj, obj.copy(), colors.copy()


@pytest.mark.parametrize("name", SCHEDULES)
@pytest.mark.parametrize("seed", [1, 7, 4242])
@pytest.mark.parametrize("q", [3, 4])
def test_compiled_loop_equals_numpy_loop(setups, kernel, monkeypatch, q, seed, name):
    schedule, restarts, revalidate_every = SCHEDULES[name]
    g, fam, part = setups[q]
    monkeypatch.setattr(search, "ANNEAL_CHUNK", 64)  # 1000 steps end in a partial chunk
    recounts = []
    revalidate = search._revalidate
    monkeypatch.setattr(search, "_revalidate", lambda *a: recounts.append(1) or revalidate(*a))

    tables = []
    kernel_deltas = search._kernel_deltas
    monkeypatch.setattr(search, "_kernel_deltas", lambda *a: tables.append(kernel_deltas(*a)) or tables[-1])

    ref = _start(g, fam, seed, restarts)
    want_accepted = search._numpy_loop(ref[0], fam, part, *ref[1:], schedule, revalidate_every)
    # journals that overflow at every flip, at every second one, and hardly
    for capacity in (0, 1, None):
        got = _start(g, fam, seed, restarts)
        got_accepted = search._compiled_loop(kernel, got[0], fam, part, *got[1:], schedule, revalidate_every,
                                             journal_capacity=capacity)
        assert got_accepted == want_accepted
        assert got[0].bit_generator.state == ref[0].bit_generator.state
        for a, b in zip(got[1:], ref[1:]):  # colors, obj, best_obj, best_colors
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # the delta table the kernel kept through every chunk is still exact
        assert all(np.array_equal(row, fresh_deltas(bits, part)) for row, bits in zip(tables.pop(), got[1]))
    if revalidate_every:
        assert len(recounts) == 4 * (schedule.steps // revalidate_every)
    if schedule.steps and name != "cold":
        assert want_accepted > 0


@pytest.mark.parametrize("q,seed", [(3, 5), (4, 2)])
def test_anneal_results_equal_without_the_kernel(setups, kernel, monkeypatch, q, seed):
    g, fam, _ = setups[q]
    polished = []
    descent = search._greedy_descent
    monkeypatch.setattr(search, "_greedy_descent", lambda c, o, p: polished.append(c.copy()) or descent(c, o, p))
    schedule = AnnealSchedule(2.0, 0.999, 3000)
    got = anneal(g, fam, schedule, seed=seed, restarts=6, revalidate_every=1000)
    monkeypatch.setattr(search, "_load_kernel", lambda: None)
    want = anneal(g, fam, schedule, seed=seed, restarts=6, revalidate_every=1000)
    assert np.array_equal(polished[0], polished[1])  # every chain's best coloring
    assert np.array_equal(got.objectives, want.objectives)
    assert np.array_equal(got.best.coloring.bits, want.best.coloring.bits)
    assert got.accepted == want.accepted


def test_compiled_entry_points_refuse_a_table_they_would_copy(setups, kernel):
    # the kernel reads the partner table in place, so an int64 or a
    # Fortran-ordered table is an error, not a silent m x 2q^2 copy
    g, fam, part = setups[3]
    rng, colors, obj, best_obj, best_colors = _start(g, fam, 1, 2)
    for bad in (part.astype(np.int64), np.asfortranarray(part)):
        with pytest.raises(TypeError, match="int32 table"):
            search._compiled_loop(kernel, rng, fam, bad, colors, obj, best_obj, best_colors, AnnealSchedule(), 0)
        with pytest.raises(TypeError, match="int32 table"):
            search._greedy_descent(colors, obj, bad)


@pytest.mark.parametrize("m", [2**31 + 1, 1_500_000_000, 2**32 - 1, 2**32, 7800, 3, 1])
def test_edge_draws_equal_rng_integers(kernel, m):
    # about half of all 32-bit draws are rejected at m = 2^31 + 1, and a
    # quarter at m = 1.5e9, where the threshold is (2^32 - m) mod m = 2^32 - 2m
    want_rng, got_rng = np.random.default_rng(11), np.random.default_rng(11)
    want = want_rng.integers(0, m, size=20_000)
    got = np.empty(20_000, dtype=np.int64)
    with got_rng.bit_generator.lock:
        kernel.draw_edges(got_rng.bit_generator.ctypes.bit_generator, m, got.size, got.ctypes.data)
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_numpy_exp_ignores_position():
    # the accept table relies on np.exp giving one value per input, whatever
    # the array's length or the input's position in it
    x = -np.random.default_rng(0).random(5000) * 40
    alone = np.array([np.exp(v) for v in x])
    for shift in range(9):
        assert np.array_equal(np.exp(x[shift:]), alone[shift:])
    assert np.array_equal(np.exp(x.reshape(-1, 8)).ravel(), alone)


def _fallback_case(case, tmp_path, monkeypatch):
    """Patch the environment for one build case; return whether the kernel
    must still load."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if case == "no_compiler":
        monkeypatch.setenv("PATH", str(bin_dir))
        return False
    if case == "compile_fails":
        fake = bin_dir / "cc"
        fake.write_text("#!/bin/sh\necho 'cc: error' >&2\nexit 1\n")
        fake.chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        return False
    # unwritable cache: XDG_CACHE_HOME is a file, so no directory can be made
    # under it whatever the user's permissions
    (tmp_path / "cache").write_text("")
    return HAS_COMPILER


def _search(tmp_path, out):
    argv = ["search", "--q", "3", "--steps", "300", "--restarts", "3", "--seed", "9", "--out", str(tmp_path / out)]
    assert main(argv) == EXIT_PASS
    payload = json.loads((tmp_path / out / "search_q3.json").read_text())
    del payload["config"]
    return payload, (tmp_path / out / "best_coloring_q3.txt").read_text()


@pytest.mark.parametrize("case", ["no_compiler", "compile_fails", "unwritable_cache"])
def test_build_failures_fall_back_to_the_same_results(setups, fresh_build, tmp_path, monkeypatch, capfd, case):
    g, fam, _ = setups[3]
    schedule = AnnealSchedule(2.0, 0.995, 500)
    want = anneal(g, fam, schedule, seed=3, restarts=4)
    want_cli = _search(tmp_path, "want")
    search._load_kernel.cache_clear()

    loads = _fallback_case(case, tmp_path, monkeypatch)
    assert (search._load_kernel() is not None) == loads
    got = anneal(g, fam, schedule, seed=3, restarts=4)
    assert np.array_equal(got.objectives, want.objectives)
    assert np.array_equal(got.best.coloring.bits, want.best.coloring.bits)
    assert got.accepted == want.accepted
    assert _search(tmp_path, "got") == want_cli
    assert "Traceback" not in capfd.readouterr().err
    cache = tmp_path / "cache"
    assert not cache.is_dir() or not any(cache.rglob("*.tmp*"))


def test_kernel_is_cached_by_source_numpy_and_machine(fresh_build, tmp_path, monkeypatch):
    if not HAS_COMPILER:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert search._load_kernel() is not None
    (built,) = (tmp_path / "quasifolkman").iterdir()
    assert built.name.startswith("kernel-") and built.suffix == ".so"
    # a second process finds it: no compiler needed
    search._load_kernel.cache_clear()
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert search._load_kernel() is not None
    assert list((tmp_path / "quasifolkman").iterdir()) == [built]
