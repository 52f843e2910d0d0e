"""Differential tests: the incidence-native graph and its point-pair ->
clique-position table, built on first use or read a row or a column at a
time, against the dense oracles.

The oracles below are the constructions and the per-vertex and per-edge
loops that the incidence-native paths replaced.  Apart from the graph
oracle itself, they read only the dense adjacency and the point cliques, so
they share no logic with the incidence sort or with ``pos``.
"""

from math import comb

import numpy as np
import pytest

from oracles import edge_index, edge_point, edge_tables_sorted, point_pair_secants, pos_loop
from quasifolkman.graphs import (
    GraphError,
    IntersectionGraph,
    build_graph,
    build_graph_for_q,
    row_pairs,
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
        "degree": adj.sum(axis=1).astype(np.int64),
        "m": len(key),
    }


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
    row = g.adj[v]
    out = []
    for cid in range(len(g.cliques)):
        if cid in own:
            continue
        members = g.cliques[cid]
        sel = members[row[members]]
        assert len(sel) == q + 1
        out.append(sel)
    return np.array(out, dtype=np.int32)


def clique_edge_matrix_oracle(g):
    rows = []
    for v in range(g.n):
        sc = spanning_cliques_oracle(g, v)
        rows.append(edge_index(g, np.minimum(v, sc), np.maximum(v, sc)))
    return np.concatenate(rows).astype(np.int32)


def family_total_oracle(g):
    total3 = sum(len(spanning_cliques_oracle(g, v)) * comb(g.q + 1, 2) for v in range(g.n))
    assert total3 % 3 == 0
    return total3 // 3


def edge_triangle_index_oracle(g):
    """Per edge (u, v), the edges from u, then from v, to the common
    neighbours outside the edge's point clique."""
    q = g.q
    in_clique = np.zeros((len(g.cliques), g.n), dtype=bool)
    for cid, members in enumerate(g.cliques):
        in_clique[cid, members] = True
    adj = g.adj
    ep = edge_point(g)
    thirds = np.empty((g.m, q * q), dtype=np.int64)
    eu, ev, _ = edge_tables_sorted(g)
    for e in range(g.m):
        u, v = int(eu[e]), int(ev[e])
        w = np.flatnonzero(adj[u] & adj[v] & ~in_clique[ep[e]])
        assert len(w) == q * q
        thirds[e] = w
    ends, thirds = np.stack([eu, ev], axis=1)[:, :, None], thirds[:, None, :]
    part = edge_index(g, np.minimum(ends, thirds), np.maximum(ends, thirds))
    return part.reshape(g.m, 2 * q * q).astype(np.int32)


@pytest.fixture(scope="module", params=[2, 3, 4, 5])
def unital(request):
    return build_unital_for_q(request.param)


@pytest.fixture(scope="module")
def graph(unital):
    return build_graph(unital)


def graph_arrays(g, name):
    """The graph's array of that name, the lexicographic ends eu and ev
    joined from its edge stream, or edge_point through clique_edges."""
    if name in ("eu", "ev"):
        eu, ev, _, _ = (np.concatenate(field) for field in zip(*g.edge_blocks()))
        return eu if name == "eu" else ev
    return edge_point(g) if name == "edge_point" else getattr(g, name)


def test_graph_arrays_match_dense_construction(unital, graph):
    expect = graph_arrays_oracle(unital.q, unital.secant_points)
    assert graph.n == len(unital.secant_points)
    assert graph.m == expect.pop("m")
    assert np.array_equal(graph.adj.sum(axis=1), expect.pop("degree"))
    for name, want in expect.items():
        got = graph_arrays(graph, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_edge_tables_are_built_on_first_use(unital):
    g = build_graph(unital)
    assert "clique_edges" not in vars(g)
    expect = graph_arrays_oracle(unital.q, unital.secant_points)
    for name in ("eu", "ev", "edge_point"):
        got = graph_arrays(g, name)
        assert got.dtype == expect[name].dtype, name
        assert np.array_equal(got, expect[name]), name
    # clique_edges names the edge of each member pair of each point clique
    a, b = row_pairs(g.cliques)
    assert g.clique_edges.shape == (len(g.cliques), comb(g.q**2, 2))
    assert np.array_equal(expect["eu"][g.clique_edges].ravel(), a)
    assert np.array_equal(expect["ev"][g.clique_edges].ravel(), b)
    assert (edge_point(g)[g.clique_edges] == np.arange(len(g.cliques))[:, None]).all()
    assert g.clique_edges is g.clique_edges


def test_srg_clique_intersections_match_oracle(graph):
    assert verify_srg(graph).checks["cliques_share_one_vertex"] is cliques_share_one_vertex_oracle(graph)
    # a secant off point 0 takes the place of a member of its clique
    g = IntersectionGraph(graph.q, graph.vertex_cliques)
    g.cliques[0, 0] = next(v for v in range(g.n) if 0 not in g.vertex_cliques[v])
    assert verify_srg(g).checks["cliques_share_one_vertex"] is cliques_share_one_vertex_oracle(g) is False


def test_line_of_is_the_secant_through_both_points(graph):
    g = graph
    npts = len(g.cliques)
    line = point_pair_secants(g.vertex_cliques, npts)
    assert line.shape == (npts, npts) and line.dtype == np.int32
    assert (np.diagonal(line) == -1).all()
    p, r = np.triu_indices(npts, k=1)
    sec = line[p, r]
    assert np.array_equal(sec, line[r, p])
    pts = g.vertex_cliques[sec]
    assert ((pts == p[:, None]).any(axis=1) & (pts == r[:, None]).any(axis=1)).all()
    # off the diagonal the clique-position gather is the same table
    p, r = np.nonzero(~np.eye(npts, dtype=bool))
    assert np.array_equal(g.cliques[p, g.pos[p, r]], line[p, r])


def test_spanning_cliques_match_oracle(graph):
    g = graph
    block = g.spanning_cliques(np.arange(g.n))
    for v in range(g.n):
        expect = spanning_cliques_oracle(g, v)
        assert np.array_equal(block[v], expect)
        assert np.array_equal(g.spanning_cliques(np.array([v]))[0], expect)


def test_clique_edge_matrix_matches_oracle(graph):
    fam = build_family(graph)
    ce = fam.clique_edge_matrix()
    expect = clique_edge_matrix_oracle(graph)
    assert ce.dtype == expect.dtype
    # the rows are unsorted; the oracle lists each row's members ascending
    assert np.array_equal(np.sort(ce, axis=1), np.sort(expect, axis=1))


def test_family_total_matches_oracle(graph):
    assert build_family(graph).total == family_total_oracle(graph)


def test_edge_triangle_index_matches_oracle(graph):
    got, want = edge_triangle_index(build_family(graph)), edge_triangle_index_oracle(graph)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_edge_points_thirds_are_the_common_neighbours_off_the_meet_point(q):
    unital = build_unital_for_q(q)
    g = build_graph(unital)
    dense = graph_arrays_oracle(q, unital.secant_points)
    X, a, b, P, Q = g.edge_points(np.arange(g.m))
    assert P.shape == (g.m, q, 1) and Q.shape == (g.m, 1, q)
    # the ends are every dense edge once, each met at X
    keys = dense["eu"].astype(np.int64) * g.n + dense["ev"]
    idx = np.searchsorted(keys, a.astype(np.int64) * g.n + b)
    assert np.array_equal(np.sort(idx), np.arange(g.m))
    assert np.array_equal(dense["edge_point"][idx], X)
    vc = dense["vertex_cliques"]
    assert np.array_equal(np.sort(np.column_stack([X, P[:, :, 0]]), axis=1), vc[a])
    assert np.array_equal(np.sort(np.column_stack([X, Q[:, 0, :]]), axis=1), vc[b])
    in_clique = np.zeros((len(dense["cliques"]), g.n), dtype=bool)
    in_clique[np.arange(len(in_clique))[:, None], dense["cliques"]] = True
    common = dense["adj"][a] & dense["adj"][b] & ~in_clique[X]
    assert (common.sum(axis=1) == q * q).all()
    thirds = g.cliques[P, g.pos[P, Q]].reshape(g.m, q * q)
    assert np.array_equal(np.sort(thirds, axis=1), np.nonzero(common)[1].reshape(g.m, q * q))


def test_edge_at_matches_binary_search(graph):
    g = graph
    x = edge_point(g)
    eu, ev, _ = edge_tables_sorted(g)
    pts_u, pts_v = g.vertex_cliques[eu], g.vertex_cliques[ev]
    # another point of each endpoint: its first point, or its second if the
    # first is the meet point
    a = np.where(pts_u[:, 0] == x, pts_u[:, 1], pts_u[:, 0])
    b = np.where(pts_v[:, 0] == x, pts_v[:, 1], pts_v[:, 0])
    expect = edge_index(g, eu, ev)
    assert np.array_equal(g.edge_at(x, a, b), expect)
    assert np.array_equal(g.edge_at(x, b, a), expect)
    iu, iv = np.triu_indices(g.q**2, k=1)
    assert np.array_equal(g.clique_edges, edge_index(g, g.cliques[:, iu], g.cliques[:, iv]))


def test_pos_matches_loop(graph):
    g = graph
    npts = len(g.cliques)
    expect = np.full((npts, npts), -1, dtype=np.int32)
    for p in range(npts):
        for i, s in enumerate(g.cliques[p]):
            for a in g.vertex_cliques[s]:
                if a != p:
                    expect[p, a] = i
    assert g.pos.dtype == expect.dtype
    assert np.array_equal(g.pos, expect)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_pos_rows_and_columns_match_the_loop(q):
    # the constructor builds no table; every row and every column read
    # through the helpers, and the table built on first use, equal the loop
    g = build_graph_for_q(q)
    assert "pos" not in vars(g)
    expect = pos_loop(g)
    points = np.arange(len(g.cliques))
    for got in (g.pos_rows(points), g.pos_cols(points)):
        assert got.dtype == np.int32 and np.array_equal(got, expect)
    # any points, in any order and repeated
    some = np.array([len(g.cliques) - 1, 0, 3, 0])
    assert np.array_equal(g.pos_rows(some), expect[some])
    assert np.array_equal(g.pos_cols(some), expect[:, some])
    assert "pos" not in vars(g)
    assert g.pos.dtype == np.int32 and np.array_equal(g.pos, expect)
    assert g.pos is g.pos


@pytest.mark.parametrize("corrupt", ["pair_on_two_secants", "pair_on_no_secant"])
def test_line_of_rejects_broken_design(corrupt):
    g = build_graph_for_q(3)
    points = g.vertex_cliques.copy()
    if corrupt == "pair_on_two_secants":
        points[1] = points[0]
    else:
        points = points[1:]
    with pytest.raises(GraphError, match="exactly q\\^2 secants"):
        IntersectionGraph(g.q, points)


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
    if corrupt == "secants_share_two_points":
        # the constructor counts each point's secants only; the design check
        # and the table built on first use find the pair on two secants
        g = IntersectionGraph(u.q, points)
        assert not verify_srg(g).checks["cliques_share_one_vertex"]
        with pytest.raises(GraphError, match=message):
            g.pos
    else:
        with pytest.raises(GraphError, match=message):
            IntersectionGraph(u.q, points)
    if corrupt != "unsorted_row":
        with pytest.raises(GraphError, match=message):
            graph_arrays_oracle(u.q, points)
