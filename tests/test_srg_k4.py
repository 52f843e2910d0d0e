"""Differential tests: strong regularity from the design identity and the
incidence-based K4 clique property against the dense oracles in
oracles.py."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_adjacency,
    enumerate_k4,
    flip_bit,
    k4_clique_property_edges,
    lowest_set_bit_table,
    popcount_rows_table,
    verify_srg_dense,
)
from quasifolkman.graphs import (
    build_graph_for_q,
    k4_clique_property,
    lowest_set_bit,
    packed_rows,
    popcount_rows,
    verify_srg,
)


@pytest.fixture(scope="module", params=[2, 3, 4, 5, 7])
def graph(request):
    return build_graph_for_q(request.param)


def test_srg_matches_dense_scan(graph):
    rep = verify_srg(graph)
    lam, mu, passed = verify_srg_dense(graph)
    assert (rep.lambda_observed, rep.mu_observed, rep.passed) == (lam, mu, passed)
    assert passed and lam == 2 * graph.q**2 - 2 and mu == (graph.q + 1) ** 2


@pytest.mark.parametrize("adjacent", [True, False])
def test_srg_rejects_one_flipped_pair(adjacent):
    g = build_graph_for_q(3)
    u = 0
    v = int(np.flatnonzero(g.adj[u] == adjacent)[-1])
    flip_bit(g, u, v)
    flip_bit(g, v, u)
    rep = verify_srg(g)
    assert not rep.passed
    assert rep.lambda_observed is None and rep.mu_observed is None
    assert not rep.checks["adjacency_is_block_graph"]
    # the common-neighbour spot check sees it on its own
    assert not (rep.checks["lambda"] and rep.checks["mu"])
    assert verify_srg_dense(g)[2] is False


def test_srg_rejects_set_diagonal_bit():
    g = build_graph_for_q(3)
    flip_bit(g, 5, 5)
    rep = verify_srg(g)
    assert not rep.passed
    assert not rep.checks["adjacency_irreflexive"]
    assert rep.checks["adjacency_symmetric"]


@pytest.mark.parametrize("first_row", [True, False])
def test_srg_rejects_one_sided_bit(first_row):
    # the extra bit sits in the first or the last row, its missing mirror
    # at the far end of the rows
    g = build_graph_for_q(7)
    u = 0 if first_row else g.n - 1
    v = int(np.flatnonzero(~g.adj[u])[-1 if first_row else 0])
    assert min(u, v) < 64 and max(u, v) >= g.n - 64
    flip_bit(g, u, v)
    rep = verify_srg(g)
    assert not rep.passed
    assert not rep.checks["adjacency_symmetric"]
    assert rep.checks["adjacency_irreflexive"]


def test_words_match_dense_clique_scatter(graph):
    dense = dense_adjacency(graph)
    assert graph.words.dtype == np.uint64
    assert graph.words.shape == (graph.n, -(-graph.n // 64))
    assert np.array_equal(graph.words, packed_rows(dense).view(np.uint64))
    if graph.q <= 4:
        assert np.array_equal(graph.adj, dense)
        u, v = np.divmod(np.arange(graph.n**2), graph.n)
        assert np.array_equal(graph.adjacent(u, v), dense.ravel())


def test_packed_row_helpers_match_dense_rows():
    g = build_graph_for_q(3)
    packed = packed_rows(g.adj)
    assert packed.shape == (g.n, 8) and packed.dtype == np.uint8
    assert np.array_equal(popcount_rows(packed), g.adj.sum(axis=1))
    x, found = lowest_set_bit(packed.view(np.uint64))
    assert found.all()
    assert np.array_equal(x, g.adj.argmax(axis=1))
    x, found = lowest_set_bit(np.zeros((2, 3), dtype=np.uint64))
    assert not found.any()


def test_symmetry_check_never_passes_an_asymmetric_perturbation():
    # seeded one- and two-bit flips anywhere in the rows, padding included;
    # half of the two-bit flips are a bit and its mirror
    g = build_graph_for_q(3)
    rng = np.random.default_rng(0)
    passed = 0
    for t in range(300):
        flips = [(int(rng.integers(g.n)), int(rng.integers(64 * g.words.shape[1])))]
        if t % 2:
            flips.append(flips[0][::-1] if t % 4 == 1 and flips[0][1] < g.n
                         else (int(rng.integers(g.n)), int(rng.integers(g.n))))
        for u, v in flips:
            flip_bit(g, u, v)
        if verify_srg(g).checks["adjacency_symmetric"]:
            passed += 1
            adj = g.adj
            assert np.array_equal(adj, adj.T), flips
        for u, v in flips:
            flip_bit(g, u, v)
    assert 0 < passed < 300
    assert verify_srg(g).passed


_WORD = st.one_of(
    st.just(0),
    st.just(1 << 63),
    st.integers(0, 63).map(lambda b: 1 << b),
    st.integers(0, 2**64 - 1),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda w: st.lists(st.lists(_WORD, min_size=w, max_size=w), min_size=1, max_size=16)))
def test_word_popcounts_match_byte_tables(rows):
    words = np.array(rows, dtype=np.uint64)
    expect = popcount_rows_table(words.view(np.uint8))
    assert np.array_equal(popcount_rows(words), expect)
    assert np.array_equal(popcount_rows(words.view(np.uint8)), expect)
    x, found = lowest_set_bit(words)
    x_table, found_table = lowest_set_bit_table(words)
    assert x.dtype == x_table.dtype
    assert np.array_equal(found, found_table)
    assert np.array_equal(x[found], x_table[found])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_k4_clique_property_matches_edges_on_every_k4(q):
    g = build_graph_for_q(q)
    quads = enumerate_k4(g)
    got = k4_clique_property(g, quads)
    assert np.array_equal(got, k4_clique_property_edges(g, quads))
    assert got.all()


def test_k4_clique_property_rejects_onan_configuration():
    # four secants pairwise meeting in six distinct points: no three concurrent
    g = SimpleNamespace(vertex_cliques=np.array(
        [[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]], dtype=np.int32))
    quad = np.array([[0, 1, 2, 3]], dtype=np.int32)
    assert not k4_clique_property(g, quad)[0]
    # one point moved so that secants 0, 1 and 2 all pass through point 0
    g.vertex_cliques[2] = [0, 3, 5]
    assert k4_clique_property(g, quad)[0]
