"""Differential tests: the point-pair -> secant table against the dense oracles.

The oracles below are the per-vertex and per-edge loops that the
incidence-native paths replaced.  They read only the dense adjacency and the
point cliques, so they share no logic with ``line_of``.
"""

from math import comb

import numpy as np
import pytest

from quasifolkman.graphs import GraphError, build_graph_for_q, point_pair_secants
from quasifolkman.search import edge_triangle_index
from quasifolkman.triangles import build_family


def spanning_cliques_oracle(g, v):
    """For each point clique off v's secant, in clique order, its members
    adjacent to v."""
    q = g.q
    own = set(int(c) for c in g.vertex_cliques[v])
    out = []
    for cid in range(len(g.cliques)):
        if cid in own:
            continue
        members = g.cliques[cid]
        sel = members[g.adj[v][members]]
        assert len(sel) == q + 1
        out.append(sel)
    return np.array(out, dtype=np.int32)


def clique_edge_matrix_oracle(g):
    rows = []
    for v in range(g.n):
        sc = spanning_cliques_oracle(g, v)
        rows.append(g.edge_index(np.minimum(v, sc), np.maximum(v, sc)))
    return np.concatenate(rows).astype(np.int32)


def family_total_oracle(g):
    total3 = sum(len(spanning_cliques_oracle(g, v)) * comb(g.q + 1, 2) for v in range(g.n))
    assert total3 % 3 == 0
    return total3 // 3


def edge_triangle_index_oracle(g):
    """Per edge, the common neighbors outside the edge's point clique."""
    q = g.q
    in_clique = np.zeros((len(g.cliques), g.n), dtype=bool)
    for cid, members in enumerate(g.cliques):
        in_clique[cid, members] = True
    a1 = np.empty((g.m, q * q), dtype=np.int32)
    a2 = np.empty((g.m, q * q), dtype=np.int32)
    for e in range(g.m):
        u, v = int(g.eu[e]), int(g.ev[e])
        thirds = np.flatnonzero(g.adj[u] & g.adj[v] & ~in_clique[g.edge_point[e]])
        assert len(thirds) == q * q
        a1[e] = g.edge_index(np.minimum(u, thirds), np.maximum(u, thirds))
        a2[e] = g.edge_index(np.minimum(v, thirds), np.maximum(v, thirds))
    return a1, a2


@pytest.fixture(scope="module", params=[2, 3, 4, 5])
def graph(request):
    return build_graph_for_q(request.param)


def test_line_of_is_the_secant_through_both_points(graph):
    g = graph
    line = g.line_of
    npts = len(g.cliques)
    assert line.shape == (npts, npts) and line.dtype == np.int32
    assert (np.diagonal(line) == -1).all()
    p, r = np.triu_indices(npts, k=1)
    sec = line[p, r]
    assert np.array_equal(sec, line[r, p])
    pts = g.vertex_cliques[sec]
    assert ((pts == p[:, None]).any(axis=1) & (pts == r[:, None]).any(axis=1)).all()


def test_spanning_cliques_match_oracle(graph):
    g = graph
    block = g.spanning_cliques(0, g.n)
    for v in range(g.n):
        expect = spanning_cliques_oracle(g, v)
        assert np.array_equal(block[v], expect)
        assert np.array_equal(g.spanning_cliques_of(v), expect)


def test_clique_edge_matrix_matches_oracle(graph):
    fam = build_family(graph)
    ce = fam.clique_edge_matrix()
    expect = clique_edge_matrix_oracle(graph)
    assert ce.dtype == expect.dtype
    assert np.array_equal(ce, expect)


def test_family_total_matches_oracle(graph):
    assert build_family(graph).total == family_total_oracle(graph)


def test_edge_triangle_index_matches_oracle(graph):
    a1, a2 = edge_triangle_index(build_family(graph))
    o1, o2 = edge_triangle_index_oracle(graph)
    assert a1.dtype == o1.dtype and a2.dtype == o2.dtype
    assert np.array_equal(a1, o1)
    assert np.array_equal(a2, o2)


@pytest.mark.parametrize("corrupt", ["pair_on_two_secants", "pair_on_no_secant"])
def test_line_of_rejects_broken_design(corrupt):
    g = build_graph_for_q(3)
    points = g.vertex_cliques.copy()
    if corrupt == "pair_on_two_secants":
        points[1] = points[0]
    else:
        points = points[1:]
    with pytest.raises(GraphError, match="exactly one secant"):
        point_pair_secants(points, len(g.cliques))
