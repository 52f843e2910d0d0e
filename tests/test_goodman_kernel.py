"""The Goodman count from the point cliques' colour matrices
(certify.vertex_same_pairs) against the explicit family at q <= 4, against
the Goodman rows it replaced (oracles.same_pairs_by_rows) at q = 5 and 7,
and batched against one coloring at a time across column blocks."""

import functools

import numpy as np
import pytest

from oracles import goodman_count_direct, same_pairs_by_rows, same_pairs_from_triangles
from quasifolkman import budget
from quasifolkman.certify import EdgeColoring, batch_mono_counts, goodman_count, vertex_same_pairs
from quasifolkman.graphs import build_graph_for_q
from quasifolkman.triangles import build_family


@functools.cache
def family(q):
    return build_family(build_graph_for_q(q))


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
    fam = family(q)
    colors = colorings(fam.graph.m, kind)
    got = vertex_same_pairs(fam, clique_layout(fam.graph, colors))
    assert got.shape == (len(colors), fam.graph.n) and got.dtype == np.int64
    for bits, row, mono in zip(colors, got, batch_mono_counts(fam, colors)):
        assert np.array_equal(row, same_pairs_from_triangles(fam, bits))
        assert mono == goodman_count_direct(fam, EdgeColoring(fam.graph, bits))


@pytest.mark.parametrize("q", [5, 7])
def test_same_pairs_match_goodman_rows(q):
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
    # q = 4 has 65 points: blocks of 1 or 7 columns, the last one partial,
    # or one block at the default size
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
