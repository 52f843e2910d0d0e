import math
import shutil

import numpy as np
import pytest

from oracles import (
    edge_index,
    edge_list_text,
    edge_point,
    edge_tables_sorted,
    enumerate_k4,
    incidence_positions_argsort,
    parse_edge_list,
    parse_graph6,
)
from quasifolkman import _kernel, budget
from quasifolkman.certify import graph_checksum
from quasifolkman.graphs import (
    IntersectionGraph,
    build_graph,
    build_graph_for_q,
    edge_list_blocks,
    graph6_bytes,
    k4_clique_property,
    verify_k4_structure,
    verify_srg,
)
from quasifolkman.plane import build_unital_for_q


@pytest.fixture(scope="module")
def graphs():
    return {q: build_graph_for_q(q) for q in (2, 3, 4)}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 16])
def test_counting_sort_matches_the_argsort(q):
    # the constructor's blocked counting sort against one stable argsort of
    # the flat incidence
    g = build_graph_for_q(q)
    at, cliques = incidence_positions_argsort(q, g.vertex_cliques)
    assert g.at.dtype == at.dtype and np.array_equal(g.at, at)
    assert g.cliques.dtype == cliques.dtype and np.array_equal(g.cliques, cliques)


@pytest.mark.parametrize("q", [4, 5])
def test_counting_sort_does_not_depend_on_the_block(monkeypatch, q):
    # 97 secants a block leave a ragged last block of the 208 at q = 4 and
    # of the 525 at q = 5
    g = build_graph_for_q(q)
    monkeypatch.setattr(budget, "BLOCK_BYTES", 97 * 48 * (q + 1))
    h = IntersectionGraph(q, g.vertex_cliques)
    assert np.array_equal(h.at, g.at) and np.array_equal(h.cliques, g.cliques)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_graph_holds_the_unitals_int32_incidence(q):
    u = build_unital_for_q(q)
    g = build_graph(u)
    assert u.secant_points.dtype == g.vertex_cliques.dtype == np.int32
    assert np.shares_memory(g.vertex_cliques, u.secant_points)
    # an int64 copy of the incidence is narrowed into a graph of its own
    wide = IntersectionGraph(q, u.secant_points.astype(np.int64))
    assert not np.shares_memory(wide.vertex_cliques, u.secant_points)
    arrays = {name for name, a in vars(g).items() if isinstance(a, np.ndarray)}
    assert {"vertex_cliques", "cliques", "at"} <= arrays
    for name in arrays:
        a, b = getattr(wide, name), getattr(g, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (wide.n, wide.m) == (g.n, g.m)


@pytest.mark.parametrize("q,n,d", [(2, 12, 9), (3, 63, 32), (4, 208, 75)])
def test_order_and_degree(graphs, q, n, d):
    g = graphs[q]
    assert g.n == n
    assert np.all(g.adj.sum(axis=1) == d)
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
    ep = edge_point(g)
    eu, ev, _ = edge_tables_sorted(g)
    for e in range(0, g.m, max(1, g.m // 200)):
        u, v = int(eu[e]), int(ev[e])
        cid = int(ep[e])
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
    idx = edge_index(g, *edge_tables_sorted(g)[:2])
    assert np.array_equal(idx, np.arange(g.m))


@pytest.mark.parametrize("q", [2, 3])
def test_k4_structure_exhaustive(graphs, q):
    cert = verify_k4_structure(graphs[q], mode="exhaustive")
    assert cert.outcome == "pass"
    assert cert.quantities["violations"] == 0
    assert cert.quantities["k4_checked"] > 0


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
    sc = g.spanning_cliques(np.array([0]))[0]
    assert sc.shape == (3**3 - 3, 4)
    # each is a clique containing only neighbors of 0
    for row in sc:
        assert g.adj[0, row].all()
        sub = g.adj[np.ix_(row, row)]
        assert sub.sum() == len(row) * (len(row) - 1)


def test_edge_list_roundtrip(graphs):
    g = graphs[2]
    text = b"".join(edge_list_blocks(g)).decode()
    n, edges = parse_edge_list(text)
    assert n == g.n
    assert len(edges) == g.m
    eu, ev, _ = edge_tables_sorted(g)
    assert edges == list(zip(map(int, eu), map(int, ev)))


@pytest.mark.parametrize("block", [7, None])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_edge_list_blocks_parse_back_across_blocks(graphs, monkeypatch, q, block):
    # the text follows the edge stream's blocks of whole vertices, 40 bytes
    # a candidate key; a budget of 7 bytes holds one vertex a block, so
    # block a lists a's edges to larger vertices (none for the last vertex)
    g = graphs[q]
    eu, ev, _ = edge_tables_sorted(g)
    if block is not None:
        monkeypatch.setattr(budget, "BLOCK_BYTES", block)
    blocks = list(edge_list_blocks(g))
    step = max(1, budget.BLOCK_BYTES // (40 * (q + 1) * q * q))
    assert len(blocks) == -(-g.n // step)
    if block is not None:
        for a, text in enumerate(blocks):
            lines = text.decode().splitlines()
            assert len(lines) == np.count_nonzero(eu == a)
            assert all(line.split()[0] == str(a) for line in lines)
    _, edges = parse_edge_list(b"".join(blocks).decode())
    assert edges == list(zip(eu.tolist(), ev.tolist()))


@pytest.mark.parametrize("block", [7, 1000, None])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_edge_list_bytes_match_format_oracle(monkeypatch, q, block):
    # vertex ids of one to four digits: n is 12, 63, 208, 525 and 2107.  At
    # 40 bytes a candidate key, a budget of 7 bytes is one vertex a block,
    # 1000 bytes two vertices at q = 2 and one from q = 3 on, and the
    # default 133 vertices at q = 7, the last block ragged.  The compiled
    # writer runs wherever a compiler is on PATH
    loaded_kernel(skip=False)
    check_edge_list_bytes(monkeypatch, q, block)


@pytest.mark.parametrize("block", [7, 1000, None])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_edge_list_bytes_match_format_oracle_numpy(monkeypatch, q, block):
    # the numpy layout, with the loader patched to None
    monkeypatch.setattr(_kernel, "_load_kernel", lambda: None)
    check_edge_list_bytes(monkeypatch, q, block)


def check_edge_list_bytes(monkeypatch, q, block):
    g = build_graph_for_q(q)
    if block is not None:
        monkeypatch.setattr(budget, "BLOCK_BYTES", block)
    assert b"".join(edge_list_blocks(g)) == edge_list_text(g).encode()


def loaded_kernel(skip=True):
    """The compiled library; with a compiler on PATH it must build, and
    without one the test is skipped, or with skip=False runs on."""
    lib = _kernel._load_kernel()
    if shutil.which("cc") or shutil.which("gcc"):
        assert lib is not None, "a C compiler is on PATH but the kernel did not build"
    elif skip:
        pytest.skip("no C compiler on PATH")
    return lib


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_edge_list_kernel_blocks_equal_numpy_layout(monkeypatch, q):
    # block for block, and so the graph checksum that hashes them
    g = build_graph_for_q(q)
    loaded_kernel()
    blocks, checksum = list(edge_list_blocks(g)), graph_checksum(g)
    monkeypatch.setattr(_kernel, "_load_kernel", lambda: None)
    assert list(edge_list_blocks(g)) == blocks
    assert graph_checksum(g) == checksum
    assert b"".join(blocks) == edge_list_text(g).encode()


def test_graph6_roundtrip(graphs):
    g = graphs[2]
    data = graph6_bytes(g.n, *edge_tables_sorted(g)[:2])
    back = parse_graph6(data)
    assert np.array_equal(back, g.adj)


def test_graph6_matches_networkx(graphs):
    nx = pytest.importorskip("networkx")
    g = graphs[3]
    data = graph6_bytes(g.n, *edge_tables_sorted(g)[:2])
    h = nx.from_graph6_bytes(data)
    assert h.number_of_nodes() == g.n
    assert h.number_of_edges() == g.m
    adj = g.adj
    for u, v in h.edges():
        assert adj[u, v]


def test_graph6_large_header():
    rng = np.random.default_rng(0)
    n = 70
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, 1)
    mask = rng.random(len(iu[0])) < 0.3
    adj[iu[0][mask], iu[1][mask]] = True
    adj |= adj.T
    assert np.array_equal(parse_graph6(graph6_bytes(n, *np.nonzero(np.triu(adj, 1)))), adj)


@pytest.mark.parametrize("data", [b"", b"  \n", b">>graph6<<", b"~?"])
def test_parse_graph6_rejects_empty_or_truncated(data):
    with pytest.raises(ValueError, match="graph6"):
        parse_graph6(data)
