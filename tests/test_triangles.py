import itertools

import numpy as np
import pytest

from oracles import classify_triangle, degenerate_mask, enumerate_k4, flip_bit, triangle_edge_matrix
from quasifolkman.graphs import build_graph_for_q
from quasifolkman.triangles import (
    build_family,
    enumerate_all_triangles,
    family_size_formula,
    per_vertex_formula,
    verify_nbhd_decomposition,
    verify_no_k4_in_family,
)


@pytest.fixture(scope="module")
def graphs():
    return {q: build_graph_for_q(q) for q in (2, 3, 4)}


@pytest.fixture(scope="module")
def families(graphs):
    return {q: build_family(graphs[q]) for q in (2, 3, 4)}


@pytest.mark.parametrize("q,total", [(2, 72), (3, 3024), (4, 41600)])
def test_family_sizes(families, q, total):
    assert family_size_formula(q) == total
    assert families[q].total == total
    assert len(families[q].triangles) == total


@pytest.mark.parametrize("q,pv", [(2, 18), (3, 144), (4, 600)])
def test_per_vertex_counts(families, graphs, q, pv):
    assert per_vertex_formula(q) == pv
    fam = families[q]
    assert fam.per_vertex == pv
    # oracle: count explicit triangles through a few vertices
    tris = fam.triangles
    for v in range(0, graphs[q].n, max(1, graphs[q].n // 5)):
        cnt = int((tris == v).any(axis=1).sum())
        assert cnt == pv


def test_three_t_equals_sum(families):
    for q, fam in families.items():
        n = fam.graph.n
        assert 3 * fam.total == n * fam.per_vertex


def test_classify_examples(graphs):
    g = graphs[3]
    # three secants through one point: degenerate
    a, b, c = (int(x) for x in g.cliques[0][:3])
    assert classify_triangle(g, a, b, c) == "degenerate"
    # a non-adjacent pair
    nonadj = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.adj[u, v]:
                nonadj = (u, v)
                break
        if nonadj:
            break
    w = int(np.flatnonzero(g.adj[nonadj[0]])[0])
    assert classify_triangle(g, nonadj[0], nonadj[1], w) == "not-a-triangle"
    with pytest.raises(ValueError):
        classify_triangle(g, a, a, b)


def test_classify_permutation_invariant(families):
    fam = families[3]
    g = fam.graph
    rng = np.random.default_rng(1)
    rows = fam.triangles[rng.integers(0, len(fam.triangles), size=50)]
    for a, b, c in rows.tolist():
        results = {classify_triangle(g, *perm) for perm in itertools.permutations((a, b, c))}
        assert results == {"non-degenerate"}


def test_explicit_matches_brute_force(families, graphs):
    # build_family already cross-checks; verify independently at q=2
    g = graphs[2]
    fam = families[2]
    expected = set()
    for a, b, c in (
        t for t in itertools.combinations(range(g.n), 3)
        if g.adj[t[0], t[1]] and g.adj[t[0], t[2]] and g.adj[t[1], t[2]]
    ):
        if classify_triangle(g, a, b, c) == "non-degenerate":
            expected.add((a, b, c))
    got = set(map(tuple, fam.triangles.tolist()))
    assert got == expected


@pytest.mark.parametrize("q", [2, 3])
def test_nbhd_decomposition_all_vertices(graphs, q):
    g = graphs[q]
    for v in range(g.n):
        cert = verify_nbhd_decomposition(g, v)
        assert cert.outcome == "pass", cert.quantities
        assert cert.quantities["point_clique_remnants"] == q + 1
        assert cert.quantities["spanning_cliques"] == q**3 - q


def test_nbhd_decomposition_q4_sample(graphs):
    g = graphs[4]
    for v in (0, 57, 200):
        cert = verify_nbhd_decomposition(g, v)
        assert cert.outcome == "pass"
        assert cert.quantities["neighborhood_edges"] == 5 * 105 + 60 * 10


@pytest.mark.parametrize("tamper", ["drop_edge", "add_non_edge"])
def test_nbhd_decomposition_detects_tampered_adjacency(tamper):
    # a fresh graph, so the module's shared ones stay intact
    g = build_graph_for_q(3)
    v = 5
    nbrs = np.flatnonzero(g.adj[v])
    assert verify_nbhd_decomposition(g, v).outcome == "pass"
    sub = np.triu(g.adj[np.ix_(nbrs, nbrs)], 1)
    if tamper == "add_non_edge":
        sub = np.triu(~g.adj[np.ix_(nbrs, nbrs)], 1)
    i, j = np.argwhere(sub)[7]
    a, b = nbrs[i], nbrs[j]
    flip_bit(g, a, b)
    flip_bit(g, b, a)
    cert = verify_nbhd_decomposition(g, v)
    assert cert.outcome == "fail"
    if tamper == "drop_edge":
        # the dropped edge is still covered by one clique
        assert cert.quantities["outside_witness"] == [int(a), int(b)]
        assert cert.quantities["neighborhood_edges"] == 4 * 28 + 24 * 6 - 1
    else:
        assert cert.quantities["uncovered"] == 1
        assert cert.quantities["uncovered_witness"] == [int(a), int(b)]
        assert "outside_witness" not in cert.quantities


@pytest.mark.parametrize("q", [3, 5])
def test_build_family_rejects_non_neighbor_at_spot_vertex(q):
    # q = 5 has no brute-force classification behind the spot check
    g = build_graph_for_q(q)
    v = int(build_family(g).spot_vertices[-1])
    w = int(g.spanning_cliques(np.array([v]))[0][-1, 0])
    flip_bit(g, v, w)
    flip_bit(g, w, v)
    with pytest.raises(RuntimeError, match="a spanning-clique member is not a neighbor") as exc:
        build_family(g)
    # w's member v lost its bit too; w reports first when it is a spot vertex
    assert str(exc.value).startswith((f"vertex {v}:", f"vertex {w}:"))


def test_spot_vertices_are_fixed():
    g = build_graph_for_q(5)
    spot = build_family(g).spot_vertices
    assert len(spot) == 64 and np.all(np.diff(spot) > 0) and 0 <= spot[0] and spot[-1] < g.n
    assert np.array_equal(build_family(build_graph_for_q(5)).spot_vertices, spot)
    # fewer vertices than the sample: every vertex
    assert np.array_equal(build_family(build_graph_for_q(3)).spot_vertices, np.arange(63))


def test_spanning_cliques_edge_disjoint(graphs):
    g = graphs[3]
    for v in (0, 31):
        seen = set()
        for row in g.spanning_cliques(np.array([v]))[0]:
            for a, b in itertools.combinations(sorted(map(int, row)), 2):
                assert (a, b) not in seen
                seen.add((a, b))


@pytest.mark.parametrize("q", [2, 3])
def test_no_k4_in_family(families, graphs, q):
    cert = verify_no_k4_in_family(families[q], graphs[q])
    assert cert.outcome == "pass"
    assert cert.quantities["violations"] == 0


def test_k4_with_clique_triangle_has_degenerate_member(graphs):
    g = graphs[2]
    quads = enumerate_k4(g)
    combos = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for row in quads[:50]:
        degs = sum(
            bool(degenerate_mask(g, row[list(c)][None, :])[0]) for c in combos
        )
        assert degs >= 1


def test_triangle_edge_matrix(families):
    fam = families[2]
    g = fam.graph
    te = triangle_edge_matrix(fam)
    assert te.shape == (fam.total, 3)
    # edges recovered match the triangle's vertex pairs
    t0 = fam.triangles[0]
    pairs = {(int(g.eu[e]), int(g.ev[e])) for e in te[0]}
    expect = {
        (int(t0[0]), int(t0[1])),
        (int(t0[0]), int(t0[2])),
        (int(t0[1]), int(t0[2])),
    }
    assert pairs == expect


def test_clique_edge_matrix_shape(families):
    fam = families[2]
    q, g = fam.q, fam.graph
    ce = fam.clique_edge_matrix()
    assert ce.shape == (g.n * (q**3 - q), q + 1)
    # all entries valid edge ids incident to the owning vertex
    assert ce.min() >= 0 and ce.max() < g.m
