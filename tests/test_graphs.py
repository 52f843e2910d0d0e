import math

import numpy as np
import pytest

from quasifolkman.graphs import (
    IntersectionGraph,
    build_graph_for_q,
    edge_list_text,
    enumerate_k4,
    graph6_bytes,
    k4_clique_property,
    neighbor_rows,
    parse_edge_list,
    parse_graph6,
    verify_k4_structure,
    verify_srg,
)


@pytest.fixture(scope="module")
def graphs():
    return {q: build_graph_for_q(q) for q in (2, 3, 4)}


@pytest.mark.parametrize("q,n,d", [(2, 12, 9), (3, 63, 32), (4, 208, 75)])
def test_order_and_degree(graphs, q, n, d):
    g = graphs[q]
    assert g.n == n
    assert np.all(g.degree == d)
    assert 2 * g.m == n * d


@pytest.mark.parametrize("q", [2, 3, 4])
def test_clique_family(graphs, q):
    g = graphs[q]
    assert g.cliques.shape == (q**3 + 1, q**2)
    assert g.vertex_cliques.shape == (g.n, q + 1)
    # each clique really is a clique
    for members in g.cliques:
        sub = g.adj[np.ix_(members, members)]
        assert sub.sum() == len(members) * (len(members) - 1)
    # edges partitioned
    assert (q**3 + 1) * math.comb(q**2, 2) == g.m


@pytest.mark.parametrize("q", [2, 3])
def test_cliques_pairwise_share_one_vertex(graphs, q):
    g = graphs[q]
    k = len(g.cliques)
    sets = [set(map(int, c)) for c in g.cliques]
    for i in range(k):
        for j in range(i + 1, k):
            assert len(sets[i] & sets[j]) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_edge_point_consistency(graphs, q):
    g = graphs[q]
    # the meet point of an edge is a clique containing both endpoints
    for e in range(0, g.m, max(1, g.m // 200)):
        u, v = int(g.eu[e]), int(g.ev[e])
        cid = int(g.edge_point[e])
        members = set(map(int, g.cliques[cid]))
        assert u in members and v in members


@pytest.mark.parametrize("q,lam,mu", [(2, 6, 9), (3, 16, 16), (4, 30, 25)])
def test_srg_parameters(graphs, q, lam, mu):
    rep = verify_srg(graphs[q])
    assert rep.passed, rep.checks
    assert rep.lambda_observed == lam
    assert rep.mu_observed == mu


def test_edge_index_roundtrip(graphs):
    g = graphs[3]
    idx = g.edge_index(g.eu.astype(np.int64), g.ev.astype(np.int64))
    assert np.array_equal(idx, np.arange(g.m))


@pytest.mark.parametrize("q", [2, 3])
def test_k4_structure_exhaustive(graphs, q):
    cert = verify_k4_structure(graphs[q], mode="exhaustive")
    assert cert.outcome == "pass"
    assert cert.quantities["violations"] == 0
    assert cert.quantities["k4_count"] > 0


def test_k4_enumeration_deterministic(graphs):
    g = graphs[3]
    a = enumerate_k4(g)
    b = enumerate_k4(g)
    assert np.array_equal(a, b)
    # every quad is a genuine K4
    for row in a[:: max(1, len(a) // 100)]:
        for i in range(4):
            for j in range(i + 1, 4):
                assert g.adj[row[i], row[j]]


def test_k4_sampled_mode(graphs):
    cert = verify_k4_structure(graphs[3], mode="sampled", seed=7, samples=20000)
    assert cert.outcome == "pass"
    assert cert.quantities["k4_checked"] > 0


def test_k4_clique_property_counterexample_detection(graphs):
    # C5 complement-style sanity: a K4 made of 4 all-distinct meet points
    # cannot exist here, so fabricate the check on a fake graph instead:
    # take a genuine K4 and confirm the property evaluator sees >= 3 shared.
    g = graphs[2]
    quads = enumerate_k4(g)
    assert k4_clique_property(g, quads).all()


def test_spanning_cliques_shape(graphs):
    g = graphs[3]
    sc = g.spanning_cliques_of(0)
    assert sc.shape == (3**3 - 3, 4)
    # each is a clique containing only neighbors of 0
    for row in sc:
        assert g.adj[0, row].all()
        sub = g.adj[np.ix_(row, row)]
        assert sub.sum() == len(row) * (len(row) - 1)


def test_neighbor_rows(graphs):
    g = graphs[3]
    nbr = neighbor_rows(g)
    assert nbr.shape == (g.n, 32) and nbr.dtype == np.int32
    for v in range(0, g.n, 7):
        assert np.array_equal(nbr[v], np.flatnonzero(g.adj[v]))


def test_edge_list_roundtrip(graphs):
    g = graphs[2]
    text = edge_list_text(g)
    n, edges = parse_edge_list(text)
    assert n == g.n
    assert len(edges) == g.m
    assert edges == list(zip(map(int, g.eu), map(int, g.ev)))


def test_graph6_roundtrip(graphs):
    g = graphs[2]
    data = graph6_bytes(g.n, g.adj)
    back = parse_graph6(data)
    assert np.array_equal(back, g.adj)


def test_graph6_matches_networkx(graphs):
    nx = pytest.importorskip("networkx")
    g = graphs[3]
    data = graph6_bytes(g.n, g.adj)
    h = nx.from_graph6_bytes(data)
    assert h.number_of_nodes() == g.n
    assert h.number_of_edges() == g.m
    for u, v in h.edges():
        assert g.adj[u, v]


def test_graph6_large_header():
    rng = np.random.default_rng(0)
    n = 70
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, 1)
    mask = rng.random(len(iu[0])) < 0.3
    adj[iu[0][mask], iu[1][mask]] = True
    adj |= adj.T
    assert np.array_equal(parse_graph6(graph6_bytes(n, adj)), adj)


@pytest.mark.parametrize("data", [b"", b"  \n", b">>graph6<<", b"~?"])
def test_parse_graph6_rejects_empty_or_truncated(data):
    with pytest.raises(ValueError, match="graph6"):
        parse_graph6(data)
