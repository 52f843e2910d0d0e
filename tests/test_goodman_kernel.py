"""The Goodman count (certify.vertex_same_pairs, goodman_count and
batch_mono_counts) on both of its paths: the compiled kernel, which runs
wherever a compiler is on PATH, and, in each *_numpy twin with
_kernel._load_kernel patched to None, the numpy colour matrices
(_same_pairs).  Against the explicit family at q <= 4, against the Goodman
rows it replaced (oracles.same_pairs_by_rows) at q = 5 and 7, batched
against one coloring at a time across column blocks; and the kernel
against the numpy path, coloring by coloring, at q = 2-7."""

import functools
import shutil

import numpy as np
import pytest

from oracles import goodman_count_direct, same_pairs_by_rows, same_pairs_from_triangles
from quasifolkman import _kernel, budget
from quasifolkman.certify import (
    EdgeColoring,
    _kernel_same_pairs,
    _same_pairs,
    batch_mono_counts,
    goodman_count,
    vertex_same_pairs,
)
from quasifolkman.graphs import build_graph_for_q
from quasifolkman.triangles import build_family

HAS_COMPILER = bool(shutil.which("cc") or shutil.which("gcc"))


@functools.cache
def family(q):
    return build_family(build_graph_for_q(q))


def compiled():
    """The compiled library, None without a compiler on PATH; with one it
    must build, so that no test here compares the numpy path with itself."""
    lib = _kernel._load_kernel()
    if HAS_COMPILER:
        assert lib is not None, "a C compiler is on PATH but the kernel did not build"
    return lib


@pytest.fixture
def kernel():
    lib = compiled()
    if lib is None:
        pytest.skip("no C compiler on PATH")
    return lib


@pytest.fixture
def numpy_path(monkeypatch):
    monkeypatch.setattr(_kernel, "_load_kernel", lambda: None)


def clique_layout(g, colors):
    """A (B, m) batch of lexicographic colorings in vertex_same_pairs'
    layout, (q^3+1, C(q^2, 2), B), through clique_edges."""
    return colors.T[g.clique_edges]


def colorings(m, kind, count=3):
    if kind == "red":
        return np.zeros((1, m), dtype=bool)
    if kind == "blue":
        return np.ones((1, m), dtype=bool)
    return np.random.default_rng(m).integers(0, 2, size=(count, m), dtype=np.uint8).astype(bool)


@pytest.mark.parametrize("kind", ["random", "red", "blue"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_same_pairs_match_explicit_triangles(q, kind):
    compiled()
    check_explicit_triangles(q, kind)


@pytest.mark.parametrize("kind", ["random", "red", "blue"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_same_pairs_match_explicit_triangles_numpy(numpy_path, q, kind):
    check_explicit_triangles(q, kind)


def check_explicit_triangles(q, kind):
    fam = family(q)
    colors = colorings(fam.graph.m, kind)
    got = vertex_same_pairs(fam, clique_layout(fam.graph, colors))
    assert got.shape == (len(colors), fam.graph.n) and got.dtype == np.int64
    for bits, row, mono in zip(colors, got, batch_mono_counts(fam, colors)):
        assert np.array_equal(row, same_pairs_from_triangles(fam, bits))
        assert mono == goodman_count_direct(fam, EdgeColoring(fam.graph, bits))


@pytest.mark.parametrize("q", [5, 7])
def test_same_pairs_match_goodman_rows(q):
    compiled()
    check_goodman_rows(q)


@pytest.mark.parametrize("q", [5, 7])
def test_same_pairs_match_goodman_rows_numpy(numpy_path, q):
    check_goodman_rows(q)


def check_goodman_rows(q):
    fam = family(q)
    colors = np.concatenate([colorings(fam.graph.m, "random", 2), colorings(fam.graph.m, "blue")])
    expect = same_pairs_by_rows(fam, colors)
    assert np.array_equal(vertex_same_pairs(fam, clique_layout(fam.graph, colors)), expect)
    for bits, row in zip(colors, expect):
        tally = goodman_count(fam, EdgeColoring(fam.graph, bits))
        assert np.array_equal(tally.same_pairs, row)
        assert 2 * tally.monochromatic == int(row.sum()) - fam.total


@pytest.mark.parametrize("columns", [1, 7, None])
@pytest.mark.parametrize("batch", [1, 3, 65])
def test_batch_equals_single_across_column_blocks(monkeypatch, batch, columns):
    compiled()
    check_batch_equals_single(monkeypatch, batch, columns)


@pytest.mark.parametrize("columns", [1, 7, None])
@pytest.mark.parametrize("batch", [1, 3, 65])
def test_batch_equals_single_across_column_blocks_numpy(numpy_path, monkeypatch, batch, columns):
    check_batch_equals_single(monkeypatch, batch, columns)


def check_batch_equals_single(monkeypatch, batch, columns):
    # q = 4 has 65 points: the numpy path's blocks of 1 or 7 columns, the
    # last one partial, or one block at the default size
    fam = family(4)
    g = fam.graph
    if columns is not None:
        monkeypatch.setattr(budget, "BLOCK_BYTES", columns * g.n * (4 + 4 * batch))
    colors = colorings(g.m, "random", batch)
    got = vertex_same_pairs(fam, clique_layout(g, colors))
    singles = [goodman_count(fam, EdgeColoring(g, bits)) for bits in colors]
    assert np.array_equal(got, np.stack([t.same_pairs for t in singles]))
    assert batch_mono_counts(fam, colors).tolist() == [t.monochromatic for t in singles]
    assert np.array_equal(got, same_pairs_by_rows(fam, colors))


@pytest.mark.parametrize("kind,batch", [("random", 1), ("random", 3), ("random", 40), ("red", 1), ("blue", 1)])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_kernel_equals_numpy_colour_matrices(kernel, q, kind, batch):
    # 40 colorings run the kernel's 16-byte runs and its byte tail; the
    # batch layout reaches the kernel as bool and as uint8
    fam = family(q)
    g = fam.graph
    colors = colorings(g.m, kind, batch)
    layout = clique_layout(g, colors)
    want = _same_pairs(fam, layout.view(np.uint8)[:, g._pair])
    got = _kernel_same_pairs(kernel, g, layout.view(np.uint8))
    assert got.dtype == np.int64 and got.shape == (len(colors), g.n)
    assert np.array_equal(got, want)
    assert np.array_equal(vertex_same_pairs(fam, layout), want)
    assert np.array_equal(vertex_same_pairs(fam, layout.astype(np.uint8)), want)
    mono = batch_mono_counts(fam, colors)
    assert mono.tolist() == ((want.sum(axis=1) - fam.total) // 2).tolist()
    tally = goodman_count(fam, EdgeColoring(g, colors[0]))
    assert np.array_equal(tally.same_pairs, want[0]) and tally.monochromatic == mono[0]
