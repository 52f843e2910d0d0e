"""Differential tests: the incidence-native graph and the point-pair ->
secant table against the dense oracles.

The oracles below are the constructions and the per-vertex and per-edge
loops that the incidence-native paths replaced.  Apart from the graph
oracle itself, they read only the dense adjacency and the point cliques, so
they share no logic with the incidence sort or with ``line_of``.
"""

from math import comb

import numpy as np
import pytest

from quasifolkman.graphs import (
    GraphError,
    IntersectionGraph,
    build_graph,
    build_graph_for_q,
    neighbor_rows,
    point_pair_secants,
    verify_srg,
)
from quasifolkman.plane import build_unital_for_q
from quasifolkman.search import edge_triangle_index
from quasifolkman.triangles import build_family


def graph_arrays_oracle(q, secant_points):
    """The dense construction: an n x npts incidence matrix, a per-clique
    cover count over an n x n array, and one searchsorted per clique for the
    edge points."""
    n, npts = len(secant_points), q**3 + 1
    inc = np.zeros((n, npts), dtype=bool)
    inc[np.repeat(np.arange(n), q + 1), secant_points.ravel()] = True
    if not np.all(inc.sum(axis=0) == q * q):
        raise GraphError("some unital point is not on exactly q^2 secants")
    cliques = np.nonzero(inc.T)[1].reshape(npts, q * q).astype(np.int32)
    cover = np.zeros((n, n), dtype=np.int8)
    for members in cliques:
        cover[np.ix_(members, members)] += 1
    np.fill_diagonal(cover, 0)
    if cover.max() > 1:
        raise GraphError("two secants share more than one unital point")
    adj = cover.astype(bool)
    eu, ev = np.nonzero(np.triu(adj, 1))
    key = eu.astype(np.int64) * n + ev.astype(np.int64)
    vc = [[] for _ in range(n)]
    for cid, members in enumerate(cliques):
        for v in members:
            vc[int(v)].append(cid)
    owner = np.full(len(key), -1, dtype=np.int64)
    iu, iv = np.triu_indices(q * q, k=1)
    for cid, members in enumerate(cliques):
        idx = np.searchsorted(key, members[iu].astype(np.int64) * n + members[iv])
        assert (owner[idx] == -1).all()
        owner[idx] = cid
    assert (owner != -1).all()
    return {
        "adj": adj,
        "cliques": cliques,
        "vertex_cliques": np.sort(np.array(vc, dtype=np.int32), axis=1),
        "eu": eu.astype(np.int32),
        "ev": ev.astype(np.int32),
        "edge_point": owner.astype(np.int32),
        "_edge_key": key,
        "degree": adj.sum(axis=1).astype(np.int64),
        "m": len(key),
    }


def neighbor_rows_oracle(g):
    """Sorted neighbors from the edge list, by one sort of both edge ends."""
    ends = np.concatenate([g.eu, g.ev])
    other = np.concatenate([g.ev, g.eu])
    order = np.argsort(ends * np.int64(g.n) + other, kind="stable")
    return other[order].reshape(g.n, int(g.degree[0])).astype(np.int32)


def cliques_share_one_vertex_oracle(g):
    masks = [sum(1 << int(v) for v in members) for members in g.cliques]
    return all(
        (masks[i] & masks[j]).bit_count() == 1
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
    )


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
def unital(request):
    return build_unital_for_q(request.param)


@pytest.fixture(scope="module")
def graph(unital):
    return build_graph(unital)


def test_graph_arrays_match_dense_construction(unital, graph):
    expect = graph_arrays_oracle(unital.q, unital.secant_points)
    assert graph.n == len(unital.secant_points)
    assert graph.m == expect.pop("m")
    for name, want in expect.items():
        got = getattr(graph, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_neighbor_rows_match_oracle(graph):
    nbr = neighbor_rows(graph)
    expect = neighbor_rows_oracle(graph)
    assert nbr.dtype == expect.dtype
    assert np.array_equal(nbr, expect)


def test_srg_clique_intersections_match_oracle(graph):
    assert verify_srg(graph).checks["cliques_share_one_vertex"] is cliques_share_one_vertex_oracle(graph)


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


def _swap_points(points):
    """Swap one point between two secants so that one of them meets a third
    secant twice while every point keeps its secant count."""
    rows = [set(map(int, r)) for r in points]
    a = rows[0]
    for c, rc in enumerate(rows):
        common = a & rc
        if c == 0 or len(common) != 1:
            continue
        y = min(rc - common)
        for b, rb in enumerate(rows):
            if b in (0, c) or y not in rb:
                continue
            xs = sorted(a - common - rb)
            if xs:
                out = points.copy()
                out[0] = sorted(a - {xs[0]} | {y})
                out[b] = sorted(rb - {y} | {xs[0]})
                return out
    raise AssertionError("no swap found")


@pytest.mark.parametrize(
    "corrupt,message",
    [
        ("point_on_too_few_secants", "exactly q\\^2 secants"),
        ("secants_share_two_points", "more than one unital point"),
        ("unsorted_row", "strictly increasing"),
    ],
)
def test_graph_rejects_broken_incidence(corrupt, message):
    u = build_unital_for_q(3)
    points = u.secant_points.copy()
    if corrupt == "point_on_too_few_secants":
        points = points[1:]
    elif corrupt == "secants_share_two_points":
        points = _swap_points(points)
        assert np.array_equal(np.bincount(points.ravel()), np.bincount(u.secant_points.ravel()))
    else:
        points[0] = points[0][::-1]
    with pytest.raises(GraphError, match=message):
        IntersectionGraph(u.q, points)
    if corrupt != "unsorted_row":
        with pytest.raises(GraphError, match=message):
            graph_arrays_oracle(u.q, points)
