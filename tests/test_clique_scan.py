"""Differential tests: the clique-extension scan, the concurrency predicate,
the star-instance checks and the graph6 encoder against the loop, meet-point,
bitmask and index-array oracles in oracles.py."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import enumerate_k4
from quasifolkman import budget
from quasifolkman.blocks import (
    instance_seed,
    random_block,
    replacement_registry,
    verify_star_instance,
)
from quasifolkman.graphs import (
    build_graph_for_q,
    edge_rows,
    enumerate_all_triangles,
    extend_cliques,
    graph6_bytes,
    k4_clique_property,
)


@pytest.fixture(scope="module")
def graphs_by_q():
    return {q: build_graph_for_q(q) for q in (2, 3, 4)}


def _random_adj(seed, n, density):
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < density, 1)
    return adj | adj.T


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), density=st.floats(0.0, 1.0))
def test_extension_scan_matches_brute_force(seed, n, density):
    adj = _random_adj(seed, n, density)
    edges = np.argwhere(np.triu(adj, 1)).astype(np.int32)
    words = edge_rows(n, edges[:, 0], edges[:, 1])
    tris = extend_cliques(words, edges)
    quads = extend_cliques(words, tris)
    brute = {
        k: np.array(
            [c for c in itertools.combinations(range(n), k) if all(adj[a, b] for a, b in itertools.combinations(c, 2))],
            dtype=np.int32,
        ).reshape(-1, k)
        for k in (3, 4)
    }
    assert tris.dtype == quads.dtype == np.int32
    assert np.array_equal(tris, brute[3])
    assert np.array_equal(quads, brute[4])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_enumerations_match_loop_oracles(graphs_by_q, q):
    g = graphs_by_q[q]
    for got, expect in (
        (enumerate_all_triangles(g), oracles.enumerate_all_triangles_loop(g)),
        (enumerate_k4(g), oracles.enumerate_k4_loop(g)),
    ):
        assert got.dtype == expect.dtype == np.int32
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("q", [2, 3])
def test_enumerations_do_not_depend_on_the_block(graphs_by_q, q, monkeypatch):
    g = graphs_by_q[q]
    tris, quads = enumerate_all_triangles(g), enumerate_k4(g)
    monkeypatch.setattr(budget, "BLOCK_BYTES", 1)  # one row per block
    assert np.array_equal(enumerate_all_triangles(g), tris)
    assert np.array_equal(enumerate_k4(g), quads)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_concurrency_predicate_matches_meet_points(graphs_by_q, q):
    g = graphs_by_q[q]
    tris = enumerate_all_triangles(g)
    deg = k4_clique_property(g, tris)
    assert np.array_equal(deg, oracles.degenerate_mask(g, tris))
    # every point clique contributes C(q^2, 3) concurrent triangles
    assert int(deg.sum()) == (q**3 + 1) * len(list(itertools.combinations(range(q * q), 3)))


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("name", ["edge", "c5"])
def test_star_check_matches_bitmask_oracles(graphs_by_q, q, name):
    g = graphs_by_q[q]
    F = replacement_registry()[name]
    for t in range(100):
        star = random_block(g, F, instance_seed(17, t))
        rep = verify_star_instance(star)
        assert rep["k4_witness"] == oracles.find_k4(oracles.adj_bits(star), g.n)
        assert rep["cliques_triangle_free"] == (oracles.clique_triangle_loop(star) is None)


def _first_concurrent_triangle(g, tris, edges, meet, mask):
    """(point, a, b, c) of the lexicographically first surviving triangle
    inside a point clique, from the loop and meet-point oracles' arrays."""
    alive = mask[edges].all(axis=1) & (meet[:, 0] == meet[:, 1]) & (meet[:, 0] == meet[:, 2])
    hits = np.flatnonzero(alive)
    return (int(meet[hits[0], 0]), *map(int, tris[hits[0]])) if len(hits) else None


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("density", [0.3, 0.6, 0.9])
def test_star_check_finds_planted_k4s_and_clique_triangles(graphs_by_q, q, density):
    g = graphs_by_q[q]
    tris = oracles.enumerate_all_triangles_loop(g)
    edges = np.stack([oracles.edge_index(g, tris[:, x].astype(np.int64), tris[:, y].astype(np.int64))
                      for x, y in ((0, 1), (0, 2), (1, 2))], axis=1)
    meet = oracles.triangle_meet_points(g, tris)
    rng = np.random.default_rng(q * 100 + int(density * 10))
    for _ in range(10):
        mask = rng.random(g.m) < density
        star = oracles.star_from_mask(g, mask)
        rep = verify_star_instance(star)
        k4 = oracles.find_k4(oracles.adj_bits(star), g.n)
        assert rep["k4_witness"] == k4 and rep["k4_free"] == (k4 is None)
        assert rep["cliques_triangle_free"] == (oracles.clique_triangle_loop(star) is None)
        assert rep["clique_triangle"] == _first_concurrent_triangle(g, tris, edges, meet, mask)


@pytest.mark.parametrize("q", [3, 4])
def test_star_check_positive_control_every_edge_kept(graphs_by_q, q, monkeypatch):
    g = graphs_by_q[q]
    star = oracles.star_from_mask(g, np.ones(g.m, dtype=bool))
    first = tuple(int(x) for x in enumerate_k4(g)[0])
    for block_bytes in (budget.BLOCK_BYTES, 1):
        monkeypatch.setattr(budget, "BLOCK_BYTES", block_bytes)
        rep = verify_star_instance(star)
        assert rep["k4_free"] is False
        assert rep["k4_witness"] == first
        assert rep["cliques_triangle_free"] is False
        assert oracles.clique_triangle_loop(star) is not None


@pytest.mark.parametrize("q", [3, 4])
def test_clique_test_sees_each_clique_alone(graphs_by_q, q, monkeypatch):
    # one triangle in one clique, the rest of that clique's edges dead, and
    # at a one-byte budget every clique in its own block: the scan must
    # find it in every clique
    g = graphs_by_q[q]
    k = g.cliques.shape[1]
    iu, iv = np.triu_indices(k, k=1)
    pairs = [int(np.flatnonzero((iu == x) & (iv == y))[0]) for x, y in ((0, 1), (0, 2), (1, 2))]
    rng = np.random.default_rng(q)
    for block_bytes in (budget.BLOCK_BYTES, 1):
        monkeypatch.setattr(budget, "BLOCK_BYTES", block_bytes)
        for point in rng.choice(len(g.cliques), size=8, replace=False):
            star = oracles.star_from_mask(g, np.zeros(g.m, dtype=bool))
            star.alive[point, pairs] = True
            want = (int(point), *g.cliques[point, :3].tolist())
            assert verify_star_instance(star)["clique_triangle"] == oracles.clique_triangle_loop(star) == want
            # two of its edges are a path, not a triangle
            star.alive[point, pairs[2]] = False
            assert verify_star_instance(star)["cliques_triangle_free"] is True
            assert oracles.clique_triangle_loop(star) is None


@pytest.mark.parametrize("q", [2, 3, 4])
def test_graph6_matches_index_array_encoder(graphs_by_q, q):
    g = graphs_by_q[q]
    assert graph6_bytes(g.n, *oracles.edge_tables_sorted(g)[:2]) == oracles.graph6_bytes_indexed(g.n, g.adj)


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 62, 63, 64, 131, 300])
def test_graph6_random_graphs_match_index_array_encoder(n):
    adj = _random_adj(n, n, 0.4)
    data = graph6_bytes(n, *np.nonzero(np.triu(adj, 1)))
    assert data == oracles.graph6_bytes_indexed(n, adj)
    assert np.array_equal(oracles.parse_graph6(data), adj)
