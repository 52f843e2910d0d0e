import itertools

import numpy as np
import pytest

from oracles import (
    classify_triangle,
    degenerate_mask,
    edge_tables_sorted,
    enumerate_k4,
    neighborhood_edges,
    triangle_edge_matrix,
    verify_nbhd_global,
)
from quasifolkman import budget
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


def test_neighborhood_edges_match_dense_oracle(graphs):
    for g in graphs.values():
        adj = g.adj
        for v in range(g.n):
            nbrs = np.flatnonzero(adj[v])
            a, b = np.nonzero(np.triu(adj[np.ix_(nbrs, nbrs)], 1))
            assert np.array_equal(neighborhood_edges(g, v), nbrs[a].astype(np.int64) * g.n + nbrs[b])


def certificate_fields(cert):
    return cert.claim, cert.params, cert.quantities, cert.outcome


@pytest.mark.parametrize("q,block", [(2, None), (3, None), (4, None), (4, 1)])
def test_nbhd_decomposition_clique_by_clique_matches_one_lookup(monkeypatch, graphs, q, block):
    # a 1-byte budget runs one clique a block
    if block is not None:
        monkeypatch.setattr(budget, "BLOCK_BYTES", block)
    g = graphs[q]
    for v in range(0, g.n, 1 if q < 4 else 7):
        assert certificate_fields(verify_nbhd_decomposition(g, v)) == certificate_fields(verify_nbhd_global(g, v))


@pytest.mark.parametrize("tamper", ["repeated_member", "off_clique_member", "remnant_repeat"])
def test_nbhd_decomposition_tampered_matches_one_lookup(tamper):
    # a spanning member repeated in place of another; a member of a clique
    # off v replaced by a secant outside N(v); a remnant member repeated.
    # Each leaves every pair of secants of N(v) in at most one clique
    g = build_graph_for_q(3)
    v = 5
    P = int(g.off_points(np.array([v]))[0, 0])
    row = g.cliques[P]
    nbhd = g.adj[v]
    inside = np.flatnonzero(nbhd[row])
    if tamper == "repeated_member":
        row[inside[1]] = row[inside[0]]
    elif tamper == "off_clique_member":
        row[np.flatnonzero(~nbhd[row])[0]] = next(x for x in range(g.n) if x != v and not nbhd[x])
    else:
        row = g.cliques[g.vertex_cliques[v, 0]]
        i, j = np.flatnonzero(row != v)[:2]
        row[j] = row[i]
    got, want = verify_nbhd_decomposition(g, v), verify_nbhd_global(g, v)
    assert certificate_fields(got) == certificate_fields(want)
    assert got.outcome == ("pass" if tamper == "off_clique_member" else "fail")


@pytest.mark.parametrize("tamper", ["drop_edge", "add_non_edge"])
def test_nbhd_decomposition_detects_tampered_adjacency(tamper):
    # a fresh graph, so the module's shared ones stay intact.  The graph is
    # its incidence, so the tampering is in the point cliques' member lists:
    # drop_edge swaps a spanning-clique member at P for a secant outside
    # N(v), dropping its q edges to the spanning clique; add_non_edge puts a
    # secant of N(v) that misses P into P's list, in place of a member
    # outside N(v)
    g = build_graph_for_q(3)
    v = 5
    assert verify_nbhd_decomposition(g, v).outcome == "pass"
    P = int(g.off_points(np.array([v]))[0, 0])
    row = g.cliques[P]
    nbhd = g.adj[v]
    if tamper == "drop_edge":
        i = int(np.flatnonzero(nbhd[row])[0])
        x = next(x for x in range(g.n) if x != v and not nbhd[x] and P not in g.vertex_cliques[x])
    else:
        i = int(np.flatnonzero(~nbhd[row])[0])
        x = next(x for x in range(g.n) if nbhd[x] and P not in g.vertex_cliques[x])
    row[i] = x
    cert = verify_nbhd_decomposition(g, v)
    assert cert.outcome == "fail"
    qty = cert.quantities
    if tamper == "drop_edge":
        # x is read as a spanning-clique member, outside N(v)
        assert x in qty["outside_witness"]
        assert qty["neighborhood_edges"] == 4 * 28 + 24 * 6 - 3
        assert qty["uncovered"] == 0
    else:
        # x's pairs with the spanning clique at P are edges no clique covers
        assert qty["uncovered"] >= 1 and x in qty["uncovered_witness"]
        assert "outside_witness" not in qty


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
    eu, ev, _ = edge_tables_sorted(g)
    pairs = {(int(eu[e]), int(ev[e])) for e in te[0]}
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
