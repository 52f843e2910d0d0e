"""Differential tests: the blocked unital line scan and K4 clique test
against their unblocked forms in oracles.py, and certify's structural path,
simulate, build and check-coloring without the edge tables; no command
builds the dense adjacency."""

import numpy as np
import pytest

from oracles import build_unital_whole, k4_clique_property_whole
from quasifolkman import plane as plane_module
from quasifolkman.certify import EdgeColoring
from quasifolkman.cli import main
from quasifolkman.fields import QuadraticExtension
from quasifolkman.graphs import (
    SAMPLE_BLOCK,
    IntersectionGraph,
    build_graph_for_q,
    edge_rows,
    extend_cliques,
    k4_clique_property,
    verify_k4_structure,
    verify_srg,
)
from quasifolkman.plane import ProjectivePlane, build_unital
from quasifolkman.triangles import build_family, verify_nbhd_decomposition

UNITAL_FIELDS = ("unital_points", "secants", "secant_points")


@pytest.fixture(scope="module", params=[5, 7])
def graph(request):
    return build_graph_for_q(request.param)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("block", [None, 97, 2 * 49**2 + 1])
def test_build_unital_matches_whole_incidence(monkeypatch, q, block):
    # by default the whole line scan is one block up to q = 8; 97 entries
    # scan one b per block from q = 3 on, and 2 * 49^2 + 1 entries leave a
    # ragged last block at q = 5 and 7
    if block is not None:
        monkeypatch.setattr(plane_module, "LINE_BLOCK", block)
    pl = ProjectivePlane(QuadraticExtension(q))
    got, (want, _) = build_unital(pl), build_unital_whole(pl)
    for name in UNITAL_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("width", [3, 4])
def test_k4_clique_property_over_several_blocks(graph, width):
    # random rows of vertex ids, most without the property; at width 4 the
    # K4s above a seeded slice of the edge list first, all with it
    quads = np.empty((0, 3), dtype=np.int32)
    if width == 4:
        start = int(np.random.default_rng(1).integers(0, graph.m - 500))
        edges = np.stack([graph.eu, graph.ev], axis=1)[start:start + 500]
        words = edge_rows(graph.n, graph.eu, graph.ev)
        quads = extend_cliques(words, extend_cliques(words, edges))
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


def test_simulate_never_builds_edge_tables(monkeypatch, tmp_path):
    # both instances run the spot scan as well as the clique test; two
    # instances are too few to judge the survival rate
    def refuse(g):
        raise AssertionError("IntersectionGraph.edge_tables called")

    monkeypatch.setattr(IntersectionGraph, "edge_tables", refuse)
    argv = ["simulate", "--q", "5", "--F", "c5", "--trials", "2", "--out", str(tmp_path)]
    assert main(argv) == 3


@pytest.mark.parametrize("command", ["build", "check-coloring"])
def test_build_and_check_coloring_never_build_edge_tables(monkeypatch, tmp_path, command):
    # the edge list, graph6, checksum and coloring file read the edge stream
    # or the point cliques instead
    argv = [command, "--q", "5", "--out", str(tmp_path / "out")]
    if command == "check-coloring":
        coloring = tmp_path / "coloring.txt"
        coloring.write_text(EdgeColoring.random(build_graph_for_q(5), 1).to_text())
        argv += ["--file", str(coloring)]

    def refuse(g):
        raise AssertionError("IntersectionGraph.edge_tables called")

    monkeypatch.setattr(IntersectionGraph, "edge_tables", refuse)
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [["certify"], ["build"], ["check-coloring"],
                                  ["simulate", "--F", "c5", "--trials", "2"]], ids=lambda argv: argv[0])
def test_commands_at_q5_never_pack_rows(monkeypatch, tmp_path, argv):
    # no command builds the n x n adjacency; simulate packs each instance's
    # rows from its surviving edges
    def refuse(g):
        raise AssertionError("IntersectionGraph.adj read")

    monkeypatch.setattr(IntersectionGraph, "adj", property(refuse))
    if argv[0] == "check-coloring":
        g = build_graph_for_q(5)
        coloring = tmp_path / "coloring.txt"
        coloring.write_text(EdgeColoring.random(g, 1).to_text())
        argv = [*argv, "--file", str(coloring)]
    # two instances are too few to judge the survival rate
    expect = 3 if argv[0] == "simulate" else 0
    assert main([argv[0], "--q", "5", *argv[1:], "--out", str(tmp_path / "out")]) == expect
