"""Differential tests: the blocked unital incidence, neighbour rows, K4
clique test and K4 sampler against their unblocked forms in oracles.py,
and certify's structural path without the edge tables."""

import numpy as np
import pytest

from oracles import (
    build_unital_whole,
    k4_clique_property_whole,
    neighbor_rows_whole,
    sample_k4_upfront,
)
from quasifolkman import graphs as graphs_module
from quasifolkman import plane as plane_module
from quasifolkman.fields import QuadraticExtension
from quasifolkman.graphs import (
    SAMPLE_BLOCK,
    build_graph_for_q,
    k4_clique_property,
    neighbor_rows,
    sample_k4,
    verify_k4_structure,
    verify_srg,
)
from quasifolkman.plane import ProjectivePlane, build_unital
from quasifolkman.triangles import build_family, verify_nbhd_decomposition

UNITAL_FIELDS = ("unital_points", "secants", "tangents", "secant_points",
                 "point_secant_count", "point_tangent_count")


@pytest.fixture(scope="module", params=[5, 7])
def graph(request):
    return build_graph_for_q(request.param)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("block", [None, 97])
def test_build_unital_matches_whole_incidence(monkeypatch, q, block):
    # 97 entries per block: one line per block at q >= 4, ragged blocks below
    if block is not None:
        monkeypatch.setattr(plane_module, "INCIDENCE_BLOCK", block)
    pl = ProjectivePlane(QuadraticExtension(q))
    got, want = build_unital(pl), build_unital_whole(pl)
    for name in UNITAL_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("block", [None, 7])
def test_neighbor_rows_match_whole_gather(monkeypatch, graph, block):
    if block is not None:
        monkeypatch.setattr(graphs_module, "NEIGHBOR_BLOCK", block)
    got, want = neighbor_rows(graph), neighbor_rows_whole(graph)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 4242])
@pytest.mark.parametrize("samples", [1, SAMPLE_BLOCK - 1, 3 * SAMPLE_BLOCK + 5])
def test_sample_k4_matches_upfront_draws(graph, seed, samples):
    got = sample_k4(graph, seed, samples)
    want = sample_k4_upfront(graph, seed, samples)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("width", [3, 4])
def test_k4_clique_property_over_several_blocks(graph, width):
    # random rows of vertex ids, most without the property; at width 4 the
    # sampler's K4s first, all with it
    quads = sample_k4(graph, 1, 200_000) if width == 4 else np.empty((0, 3), dtype=np.int32)
    rng = np.random.default_rng(width)
    rows = np.concatenate([quads, rng.integers(0, graph.n, size=(2 * SAMPLE_BLOCK + 3, width), dtype=np.int32)])
    got = k4_clique_property(graph, rows)
    assert np.array_equal(got, k4_clique_property_whole(graph, rows))
    assert got[:len(quads)].all() and got.any() and not got.all()
    assert k4_clique_property(graph, rows[:0]).shape == (0,)


def test_certify_structural_path_never_builds_edge_tables():
    g = build_graph_for_q(5)
    assert verify_srg(g).passed
    assert verify_k4_structure(g, mode="sampled", seed=0, samples=50_000).outcome == "pass"
    build_family(g)
    for v in (0, g.n // 2, g.n - 1):
        assert verify_nbhd_decomposition(g, v).outcome == "pass"
    assert g._edges is None
    # the first reader builds them once
    assert g.edge_tables() is g.edge_tables()
    assert len(g.eu) == g.m
