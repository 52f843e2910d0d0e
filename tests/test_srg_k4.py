"""Differential tests: strong regularity from the design identity, the
meet test and the incidence-based K4 clique property against the dense
oracles in oracles.py, and the SRG check against tampered clique rows and
graphs built from a tampered incidence.  With the verified symmetry the
design count runs at point 0 alone; that path reports the full check's
results and fails on a tampered array or a secant map that is not a
bijection."""

import copy
import functools
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    dense_adjacency,
    edge_tables_sorted,
    enumerate_k4,
    k4_clique_property_edges,
    packbits_words,
    verify_srg_dense,
)
from quasifolkman import budget
from quasifolkman.graphs import (
    IntersectionGraph,
    UnitalSymmetry,
    build_graph,
    build_graph_for_q,
    design_row_bytes,
    edge_rows,
    k4_clique_property,
    unital_symmetry,
    verify_srg,
)
from quasifolkman.plane import build_unital_for_q


@pytest.fixture(scope="module", params=[2, 3, 4, 5, 7])
def graph(request):
    return build_graph_for_q(request.param)


def test_srg_matches_dense_scan(graph):
    rep = verify_srg(graph)
    lam, mu, passed = verify_srg_dense(graph)
    assert (rep.lambda_observed, rep.mu_observed, rep.passed) == (lam, mu, passed)
    assert passed and lam == 2 * graph.q**2 - 2 and mu == (graph.q + 1) ** 2


def trade_points(g, P):
    """The incidence with two secants through P trading one of their other
    points: each point keeps its q^2 secants, but the pair of the first
    secant's new point with each of its old ones now lies on two secants."""
    points = g.vertex_cliques.copy()
    s, t = g.cliques[P, :2]
    a = next(x for x in points[s] if x != P and x not in points[t])
    b = next(x for x in points[t] if x != P and x not in points[s])
    points[s][points[s] == a], points[t][points[t] == b] = b, a
    points.sort(axis=1)
    return points


@pytest.mark.parametrize("table", ["vertex_cliques", "cliques"])
def test_srg_rejects_two_swapped_entries_of_one_row(table):
    # vertex_cliques: two secants through P trade one of their other points,
    # and the graph is built from that incidence; cliques: two secants
    # through P trade places in P's member list
    g = build_graph_for_q(3)
    P = 4
    if table == "vertex_cliques":
        g = IntersectionGraph(g.q, trade_points(g, P))
    else:
        row = g.cliques[P]
        row[[0, -1]] = row[[-1, 0]]
    rep = verify_srg(g)
    assert not rep.passed and not rep.checks["cliques_share_one_vertex"]
    assert rep.lambda_observed is None and rep.mu_observed is None
    assert verify_srg(build_graph_for_q(3)).passed


def test_srg_rejects_a_member_off_its_point():
    # a secant through another point replaces one member of P's clique
    g = build_graph_for_q(3)
    P = 0
    g.cliques[P, 0] = next(v for v in range(g.n) if P not in g.vertex_cliques[v])
    rep = verify_srg(g)
    assert not rep.checks["clique_members_on_point"]
    assert rep.lambda_observed is None and rep.mu_observed is None


def test_srg_certificate_counts_the_point_pairs(graph):
    # the design count runs at every point, or at one point per orbit of
    # the verified group (a single orbit: the group is transitive)
    rep = verify_srg(graph)
    npts = graph.q**3 + 1
    assert rep.coverage == {"path": "design identity", "points_checked": npts}
    assert rep.d == graph.q**3 + graph.q**2 - graph.q - 1
    orbit = verify_srg(graph, hermitian(graph.q)[1])
    assert orbit.coverage == {"path": "design identity", "point_orbits": 1, "points_covered": npts}


@functools.cache
def hermitian(q):
    unital = build_unital_for_q(q)
    g = build_graph(unital)
    return g, unital_symmetry(unital, g)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_srg_by_orbits_reports_the_full_checks(q):
    g, sym = hermitian(q)
    rep, full = verify_srg(g, sym), verify_srg(g)
    assert rep.checks == full.checks and rep.passed
    assert (rep.lambda_observed, rep.mu_observed, rep.d) == (full.lambda_observed, full.mu_observed, full.d)


def tampered(q, table, edit):
    """A copy of the intact graph at q with one of its arrays edited."""
    g, sym = hermitian(q)
    h = copy.copy(g)
    setattr(h, table, getattr(g, table).copy())
    edit(getattr(h, table))
    return h, sym


def shift_at(at):
    at[5, 1] = (at[5, 1] + 1) % (at.max() + 1)


def swap_members(cliques):
    cliques[7, [2, 3]] = cliques[7, [3, 2]]


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("table,edit", [("at", shift_at), ("cliques", swap_members)], ids=["at", "cliques"])
def test_srg_by_orbits_rejects_a_tampered_array(q, table, edit):
    g, sym = tampered(q, table, edit)
    rep = verify_srg(g, sym)
    assert not rep.checks["clique_members_on_point"] and not rep.checks["cliques_share_one_vertex"]
    assert rep.lambda_observed is None and rep.mu_observed is None
    # the full check fails too, and the graph it was copied from passes
    assert not verify_srg(g).passed and verify_srg(*hermitian(q)).passed


@pytest.mark.parametrize("q", [3, 4])
def test_srg_by_orbits_counts_at_point_zero(q):
    # point 0 trades places with a point b between two secants s and t
    # through P: every point keeps its q^2 secants and the rebuilt graph's
    # arrays agree, but the points of t now meet 0 twice.  Given the intact
    # graph's group, only the count at point 0 can fail
    g, sym = hermitian(q)
    points = g.vertex_cliques.copy()
    s = g.cliques[0, 0]
    P = points[s, 1]
    t = next(x for x in g.cliques[P] if x != s)
    b = next(x for x in points[t] if x != P and x not in points[s])
    points[s][points[s] == 0], points[t][points[t] == b] = b, 0
    points.sort(axis=1)
    rep = verify_srg(IntersectionGraph(q, points), sym)
    assert rep.checks["clique_members_on_point"] and not rep.checks["cliques_share_one_vertex"]
    assert not rep.passed


@pytest.mark.parametrize("q", [3, 4])
def test_srg_by_orbits_rejects_a_secant_map_that_is_not_a_bijection(q):
    # two secants sent to the image of one: every array of the graph is
    # intact, so only the bijection check can fail
    g, sym = hermitian(q)
    secants = [sec.copy() for sec in sym.secants]
    secants[1][4] = secants[1][3]
    rep = verify_srg(g, UnitalSymmetry(points=sym.points, secants=secants, stabiliser=sym.stabiliser))
    assert rep.checks["clique_members_on_point"] and not rep.checks["cliques_share_one_vertex"]
    assert not rep.passed and rep.lambda_observed is None


@pytest.mark.parametrize("block", [1, 7])
def test_srg_does_not_depend_on_the_block(monkeypatch, block):
    # one point a block, and ragged blocks of 7; the broken pairs lie on
    # the last point's secants
    g = build_graph_for_q(4)
    monkeypatch.setattr(budget, "BLOCK_BYTES", block * design_row_bytes(g))
    assert verify_srg(g).passed
    assert not verify_srg(IntersectionGraph(g.q, trade_points(g, len(g.cliques) - 1))).passed


def test_words_match_dense_clique_scatter(graph):
    # the rows packed from the edge list and the dense scatter both give the
    # dense oracle's adjacency
    dense = dense_adjacency(graph)
    words = edge_rows(graph.n, *edge_tables_sorted(graph)[:2])
    assert words.shape == (graph.n, -(-graph.n // 64)) and words.dtype == np.uint64
    assert np.array_equal(words, packbits_words(dense))
    assert np.array_equal(graph.adj, dense)


def _check_packed_rows_match_dense_rows():
    # random graphs across word boundaries, edges in any order and either
    # orientation; no edges gives zero rows
    rng = np.random.default_rng(0)
    for n in (1, 63, 64, 65, 130):
        dense = np.triu(rng.random((n, n)) < 0.3, 1)
        dense |= dense.T
        u, v = np.nonzero(np.triu(dense, 1))
        flip = rng.random(len(u)) < 0.5
        order = rng.permutation(len(u))
        u, v = np.where(flip, v, u)[order], np.where(flip, u, v)[order]
        assert np.array_equal(edge_rows(n, u, v), packbits_words(dense))
        assert not edge_rows(n, u[:0], v[:0]).any()


def test_packed_row_helpers_match_dense_rows():
    _check_packed_rows_match_dense_rows()


@pytest.mark.parametrize("block", [1, 48 * 100])
def test_packed_row_helpers_match_dense_rows_in_blocks(monkeypatch, block):
    # a 1-byte budget packs one edge a block, 4,800 bytes 100 edges, the
    # last block ragged
    monkeypatch.setattr(budget, "BLOCK_BYTES", block)
    _check_packed_rows_match_dense_rows()


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
