"""Differential tests: the blocked unital line scan, K4 clique test and
partner table against their unblocked forms in oracles.py, and certify's
structural path, simulate, build and check-coloring without the m-long
clique_edges table; certify, build and check-coloring without the
(q^3+1)^2 pos table either; no command builds the dense adjacency.  Each
blocked stage's working set stays within two blocks' budget."""

import functools
import tracemalloc

import numpy as np
import pytest

from oracles import build_unital_whole, edge_tables_sorted, edge_triangle_index_whole, k4_clique_property_whole
from quasifolkman import _kernel, budget
from quasifolkman.blocks import checked_adj, instance_blocks, random_block, replacement_registry
from quasifolkman.certify import EdgeColoring, vertex_same_pairs
from quasifolkman.cli import main
from quasifolkman.fields import QuadraticExtension
from quasifolkman.graphs import (
    IntersectionGraph,
    build_graph_for_q,
    edge_rows,
    enumerate_all_triangles,
    extend_cliques,
    k4_clique_property,
    row_pairs,
    verify_k4_structure,
    verify_srg,
)
from quasifolkman.plane import ProjectivePlane, build_unital
from quasifolkman.search import edge_triangle_index
from quasifolkman.triangles import build_family, verify_nbhd_decomposition

UNITAL_FIELDS = ("unital_points", "secants", "secant_points")


@pytest.fixture(scope="module", params=[5, 7])
def graph(request):
    return build_graph_for_q(request.param)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
@pytest.mark.parametrize("block", [None, 97, 2 * 49**2 + 1])
def test_build_unital_matches_whole_incidence(monkeypatch, q, block):
    # a value b of the line scan touches 9 s^2 bytes, so by default the
    # whole scan is one block up to q = 7; 97 bytes scan one b per block,
    # and 2 * 49^2 + 1 bytes, six b at q = 3 and two at q = 4, leave a
    # ragged last block at q = 3
    if block is not None:
        monkeypatch.setattr(budget, "BLOCK_BYTES", block)
    pl = ProjectivePlane(QuadraticExtension(q))
    got, (want, _) = build_unital(pl), build_unital_whole(pl)
    for name in UNITAL_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("width", [3, 4])
def test_k4_clique_property_over_several_blocks(monkeypatch, graph, width):
    # random rows of vertex ids, most without the property; at width 4 the
    # K4s above a seeded slice of the edge list first, all with it.  A
    # 2^15-byte budget takes 170 to 287 rows a block, the last one ragged
    quads = np.empty((0, 3), dtype=np.int32)
    if width == 4:
        start = int(np.random.default_rng(1).integers(0, graph.m - 500))
        eu, ev, _ = edge_tables_sorted(graph)
        words = edge_rows(graph.n, eu, ev)
        quads = extend_cliques(words, extend_cliques(words, np.stack([eu, ev], axis=1)[start:start + 500]))
    rng = np.random.default_rng(width)
    rows = np.concatenate([quads, rng.integers(0, graph.n, size=(2003, width), dtype=np.int32)])
    monkeypatch.setattr(budget, "BLOCK_BYTES", 1 << 15)
    got = k4_clique_property(graph, rows)
    assert np.array_equal(got, k4_clique_property_whole(graph, rows))
    assert got[:len(quads)].all() and got.any() and not got.all()
    assert k4_clique_property(graph, rows[:0]).shape == (0,)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_edge_triangle_index_matches_whole_table(monkeypatch, q):
    # an edge's row touches 48 q^2 bytes, so 11 edges a block leave a
    # ragged last block at every q here
    fam = build_family(build_graph_for_q(q))
    monkeypatch.setattr(budget, "BLOCK_BYTES", 11 * 48 * q * q)
    got = edge_triangle_index(fam)
    assert got.dtype == np.int32 and got.flags.c_contiguous
    assert np.array_equal(got, edge_triangle_index_whole(fam))


def test_certify_structural_path_never_builds_edge_tables():
    g = build_graph_for_q(5)
    assert verify_srg(g).passed
    assert verify_k4_structure(g, mode="sampled", seed=0, samples=50_000).outcome == "pass"
    build_family(g)
    for v in (0, g.n // 2, g.n - 1):
        assert verify_nbhd_decomposition(g, v).outcome == "pass"
    assert "clique_edges" not in vars(g)
    # the first reader builds it once
    assert g.clique_edges is g.clique_edges
    assert g.clique_edges.size == g.m


def refuse_clique_edges(g):
    raise AssertionError("IntersectionGraph.clique_edges read")


def refuse_pos(g):
    raise AssertionError("IntersectionGraph.pos read")


@pytest.mark.parametrize("q", [5, 9])
def test_certify_never_builds_pos_or_edge_tables(monkeypatch, tmp_path, q):
    # the design check, the secant permutations, the K4 certificate and the
    # neighbourhood check read rows and columns of pos, or none of it; the
    # path is the same at every q, and at q >= 25, where m exceeds 2^31,
    # neither table could be built
    monkeypatch.setattr(IntersectionGraph, "pos", property(refuse_pos))
    monkeypatch.setattr(IntersectionGraph, "clique_edges", property(refuse_clique_edges))
    assert main(["certify", "--q", str(q), "--out", str(tmp_path)]) == 0


def test_simulate_never_builds_edge_tables(monkeypatch, tmp_path):
    # both instances run the spot scan as well as the clique test; two
    # instances are too few to judge the survival rate
    monkeypatch.setattr(IntersectionGraph, "clique_edges", property(refuse_clique_edges))
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
    monkeypatch.setattr(IntersectionGraph, "clique_edges", property(refuse_clique_edges))
    # the Goodman count reads no pos in the kernel and its columns without,
    # and the design check none
    monkeypatch.setattr(IntersectionGraph, "pos", property(refuse_pos))
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


graph_for = functools.cache(build_graph_for_q)


def fields(obj, *names):
    return [getattr(obj, name) for name in names]


def stage_call(stage, q):
    """A call of the blocked stage at q on inputs built here; it returns the
    arrays of the stage's result."""
    if stage == "build_unital":
        plane = ProjectivePlane(QuadraticExtension(q))
        return lambda: fields(build_unital(plane), *UNITAL_FIELDS)
    g = graph_for(q)
    if stage == "enumerate_all_triangles":
        return lambda: [enumerate_all_triangles(g)]
    if stage == "k4_clique_property":
        tris = enumerate_all_triangles(g)
        return lambda: [k4_clique_property(g, tris)]
    if stage == "verify_srg":
        return lambda: [] if verify_srg(g).passed else None
    if stage == "verify_nbhd_decomposition":
        return lambda: [] if verify_nbhd_decomposition(g, g.n // 2).outcome == "pass" else None
    if stage == "edge_rows":
        star = random_block(g, replacement_registry()["c5"], 1)
        edges = np.stack(row_pairs(g.cliques), axis=1)[star.alive.ravel()]
        return lambda: [edge_rows(g.n, edges[:, 0], edges[:, 1])]
    if stage == "edge_blocks":
        return lambda: [] if sum(len(a) for a, _, _, _ in g.edge_blocks()) == g.m else None
    if stage == "edge_triangle_index":
        fam = build_family(g)
        return lambda: [edge_triangle_index(fam)]
    if stage == "vertex_same_pairs":
        fam = build_family(g)
        colors = EdgeColoring.random(g, 1).clique_bits[:, :, None]
        return lambda: [vertex_same_pairs(fam, colors)]
    F = replacement_registry()["c5"]
    if stage == "random_block":
        return lambda: fields(random_block(g, F, 1), "labels", "alive")
    assert stage == "instance_blocks"
    return lambda: [a for block in instance_blocks(g, checked_adj(F), [1, 2]) for a in block]


@pytest.mark.parametrize("stage,q", [
    ("build_unital", 9), ("enumerate_all_triangles", 4), ("k4_clique_property", 4), ("verify_srg", 9),
    ("edge_blocks", 7), ("vertex_same_pairs", 7), ("random_block", 7),
    ("instance_blocks", 4), ("instance_blocks", 7), ("edge_rows", 7), ("verify_nbhd_decomposition", 9),
    ("edge_triangle_index", 7),
])
def test_blocked_stage_peaks_within_two_blocks_above_its_result(monkeypatch, stage, q):
    # each block touches about BLOCK_BYTES, so with the inputs and the
    # result held elsewhere a stage's peak stays within two blocks' budget.
    # The Goodman count runs in blocks on its numpy path only
    if stage == "vertex_same_pairs":
        monkeypatch.setattr(_kernel, "_load_kernel", lambda: None)
    call = stage_call(stage, q)
    assert call() is not None  # and first calls allocate lasting caches
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - sum(array.nbytes for array in result) <= 2 * budget.BLOCK_BYTES
