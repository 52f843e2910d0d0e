"""The lexicographic edge stream (IntersectionGraph.edge_blocks) and the
clique_edges table rebuilt from it, against one sort of every clique pair's key
(oracles.edge_tables_sorted); coloring files parsed into clique layout
through it; and the memory of parsing and counting a coloring at q = 7."""

import functools
import tracemalloc

import numpy as np
import pytest

from oracles import edge_tables_sorted
from quasifolkman import budget
from quasifolkman.certify import ColoringFormatError, EdgeColoring, goodman_count
from quasifolkman.graphs import build_graph_for_q
from quasifolkman.triangles import build_family


@functools.cache
def graph(q):
    return build_graph_for_q(q)


def stream(g):
    """The stream's blocks, and their four fields joined."""
    blocks = list(g.edge_blocks())
    return blocks, [np.concatenate(field) for field in zip(*blocks)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_stream_and_rebuilt_tables_match_sorted_tables(q):
    g = build_graph_for_q(q)
    eu, ev, clique_edges = edge_tables_sorted(g)
    _, (a, b, X, t) = stream(g)
    assert all(x.dtype == np.int32 for x in (a, b, X, t))
    assert np.array_equal(a, eu) and np.array_equal(b, ev)
    # edge e is pair t[e] of clique X[e]
    assert np.array_equal(clique_edges[X, t], np.arange(g.m))
    assert "clique_edges" not in vars(g)
    got = g.clique_edges
    assert got.dtype == clique_edges.dtype and got.shape == clique_edges.shape
    assert np.array_equal(got, clique_edges)


@pytest.mark.parametrize("vertices", [1, 3, 40])
def test_stream_blocks_hold_whole_vertices_at_any_budget(monkeypatch, vertices):
    # q = 5 (n = 525): budgets of 1, 3 and 40 vertices' keys, at 40 bytes a
    # key, give 525, 175 and 14 blocks, the last one ragged at 40
    g = graph(5)
    monkeypatch.setattr(budget, "BLOCK_BYTES", vertices * 40 * 6 * 25)
    blocks, (a, b, X, t) = stream(g)
    eu, ev, clique_edges = edge_tables_sorted(g)
    assert len(blocks) == -(-g.n // vertices)
    assert np.array_equal(a, eu) and np.array_equal(b, ev)
    assert np.array_equal(clique_edges[X, t], np.arange(g.m))
    for s, (ba, *_) in enumerate(blocks):
        assert ((ba >= s * vertices) & (ba < (s + 1) * vertices)).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_from_text_scatters_into_clique_layout(q):
    g = graph(q)
    col = EdgeColoring.random(g, q)
    back = EdgeColoring.from_text(g, col.to_text())
    _, _, clique_edges = edge_tables_sorted(g)
    assert back.clique_bits.shape == clique_edges.shape
    assert np.array_equal(back.clique_bits, col.bits[clique_edges])
    assert np.array_equal(col.clique_bits, back.clique_bits)
    assert np.array_equal(back.bits, col.bits)


def test_from_text_reports_the_checksum_before_a_bad_body():
    g3, g4 = graph(3), graph(4)
    header, body = EdgeColoring.random(g3, 0).to_text().split("\n", 1)
    wrong = header.replace(header.split("graph=")[1], "0" * 16)
    with pytest.raises(ColoringFormatError, match="checksum"):
        EdgeColoring.from_text(g3, f"{wrong}\nzz!!\n")
    with pytest.raises(ColoringFormatError, match="not hex"):
        EdgeColoring.from_text(g3, f"{header}\nzz!!\n")
    with pytest.raises(ColoringFormatError, match="coloring is for"):
        EdgeColoring.from_text(g4, f"{header}\n{body}")


def test_parse_and_count_at_q7_hold_no_edge_table():
    # the sort the edge tables took holds 16m bytes of int64 keys and order
    # alone, and clique_edges 4m more; parsing and counting stay under 12m
    g = graph(7)
    fam = build_family(g)
    text = EdgeColoring.random(g, 1).to_text()
    tracemalloc.start()
    try:
        tally = goodman_count(fam, EdgeColoring.from_text(g, text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "clique_edges" not in vars(g)
    assert peak < 12 * g.m, peak
    assert tally.monochromatic == 1652668
