"""Differential tests of the K4 edge kernel (graphs.edge_k4s and
verify_k4_structure).  On the Hermitian graphs its K4s are compared edge by
edge with the enumeration oracle; on Buekenhout-Metz unitals, which hold
O'Nan configurations, its violations are compared with the oracle's."""

import json
from math import comb

import numpy as np
import pytest

from oracles import buekenhout_metz_unital, enumerate_k4, k4_violations, sampled_k4_upfront
from quasifolkman import budget
from quasifolkman import graphs as graphs_module
from quasifolkman.cli import main
from quasifolkman.fields import QuadraticExtension
from quasifolkman.graphs import (
    IntersectionGraph,
    build_graph_for_q,
    edge_k4s,
    k4_clique_property,
    k4_edge_bytes,
    row_pairs,
    verify_k4_structure,
)
from quasifolkman.plane import ProjectivePlane
from quasifolkman.triangles import no_k4_in_family


def bm_graph(q, alpha, beta):
    unital = buekenhout_metz_unital(ProjectivePlane(QuadraticExtension(q)), alpha, beta)
    return IntersectionGraph(q, unital.secant_points)


def kernel_rows(g):
    """The kernel's count at every edge, and the (edge, sorted quad) rows of
    the O'Nan K4s it reports, unique."""
    found, rows, quads = edge_k4s(g, np.arange(g.m))
    out = np.unique(np.column_stack([rows, np.sort(quads, axis=1)]), axis=0)
    assert len(out) == len(rows)
    return found, out


def oracle_rows(g):
    """(edge, quad) for each K4 of the enumeration and each of its six edges
    whose other two vertices lie off the edge's point clique.  Clique-major
    edge e is the e-th pair of row_pairs(cliques); it is found by searching
    the sorted a*n + b keys."""
    a, b = row_pairs(g.cliques)
    keys = a.astype(np.int64) * g.n + b
    order = np.argsort(keys)
    quads = enumerate_k4(g)
    out = []
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        e = order[np.searchsorted(keys, quads[:, i].astype(np.int64) * g.n + quads[:, j], sorter=order)]
        meet = e // (g.m // len(g.cliques))
        others = quads[:, [c for c in range(4) if c not in (i, j)]]
        off = (g.vertex_cliques[others] != meet[:, None, None]).all(axis=(1, 2))
        out.append(np.column_stack([e, quads])[off])
    return np.unique(np.concatenate(out), axis=0)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_kernel_k4s_match_the_enumeration_at_every_edge(q):
    g = build_graph_for_q(q)
    found, got = kernel_rows(g)
    assert found == len(oracle_rows(g)) == g.m * 2 * q * comb(q, 2)
    assert len(got) == 0


def test_buekenhout_metz_q3_violations_match_the_oracle():
    g = bm_graph(3, 4, 0)
    quads = enumerate_k4(g)
    want = quads[~k4_clique_property(g, quads)]
    assert len(want) == 324
    _, got = kernel_rows(g)
    assert np.array_equal(np.unique(got[:, 1:], axis=0), want)
    cert = verify_k4_structure(g, mode="exhaustive")
    assert cert.outcome == "fail"
    assert cert.quantities["edges_checked"] == g.m
    assert {k: cert.quantities[k] for k in ("violations", "witness")} == k4_violations(g, quads)


def test_classical_buekenhout_metz_q3_has_no_violation():
    g = bm_graph(3, 0, 3)
    assert k4_violations(g, enumerate_k4(g)) == {"violations": 0}
    assert len(kernel_rows(g)[1]) == 0
    cert = verify_k4_structure(g, mode="exhaustive")
    assert cert.outcome == "pass" and cert.quantities["violations"] == 0


def test_family_restatement_follows_the_k4_certificate():
    # a K4 of four family triangles is an O'Nan K4: a failing certificate,
    # sampled or not, fails the family claim, and a passing sample leaves it open
    g = bm_graph(3, 4, 0)
    for mode in ("exhaustive", "sampled"):
        cert = verify_k4_structure(g, mode=mode, seed=5, samples=300)
        family = no_k4_in_family(cert)
        assert family.outcome == "fail" and family.quantities == cert.quantities
    sample = verify_k4_structure(build_graph_for_q(3), mode="sampled", samples=300)
    assert sample.outcome == "pass" and no_k4_in_family(sample).outcome == "inconclusive"


@pytest.mark.parametrize("block", [1, 7])
def test_certificate_does_not_depend_on_the_block(monkeypatch, block):
    # blocks of one edge, and of seven with a ragged last block
    g = bm_graph(3, 4, 0)
    want = [verify_k4_structure(g, mode=mode, seed=5, samples=300).quantities for mode in ("exhaustive", "sampled")]
    monkeypatch.setattr(budget, "BLOCK_BYTES", block * k4_edge_bytes(g))
    got = [verify_k4_structure(g, mode=mode, seed=5, samples=300).quantities for mode in ("exhaustive", "sampled")]
    assert got == want
    assert want[1]["violations"] > 0


@pytest.mark.parametrize("q,bm,block,samples", [(3, True, 97, 1000), (5, False, None, 1000), (5, False, None, 1)])
def test_sampled_certificate_matches_upfront_draws(monkeypatch, q, bm, block, samples):
    # the edges are drawn block by block; a short last block must continue
    # the stream of one upfront draw
    g = bm_graph(q, 4, 0) if bm else build_graph_for_q(q)
    if block is not None:
        monkeypatch.setattr(budget, "BLOCK_BYTES", block * k4_edge_bytes(g))
    got = verify_k4_structure(g, mode="sampled", seed=3, samples=samples).quantities
    assert got == sampled_k4_upfront(g, 3, samples)


def test_sampled_huge_count_draws_one_block_at_a_time(monkeypatch):
    class FirstBlock(Exception):
        pass

    def first_block(g, e):
        raise FirstBlock(len(e))

    monkeypatch.setattr(graphs_module, "edge_k4s", first_block)
    g = build_graph_for_q(2)
    with pytest.raises(FirstBlock) as exc:
        verify_k4_structure(g, mode="sampled", seed=0, samples=10**12)
    assert exc.value.args == (budget.BLOCK_BYTES // k4_edge_bytes(g),)


def test_buekenhout_metz_q5_fails_with_a_genuine_witness():
    g = bm_graph(5, 1, 13)
    exhaustive = verify_k4_structure(g, mode="exhaustive")
    sampled = verify_k4_structure(g, mode="sampled", seed=0)
    for cert in (exhaustive, sampled):
        assert cert.outcome == "fail"
        w = np.array(cert.quantities["witness"])
        i, j = np.triu_indices(4, k=1)
        assert np.all(w[:-1] < w[1:]) and g.adj[w[i], w[j]].all()
        assert not k4_clique_property(g, w[None])[0]
    assert 0 < sampled.quantities["violations"] <= exhaustive.quantities["violations"]
    assert sampled.quantities["edges_checked"] == 1 << 14


def test_kernel_reads_only_the_incidence():
    g = build_graph_for_q(5)
    per_edge = 2 * 5 * comb(5, 2)
    exhaustive = verify_k4_structure(g, mode="exhaustive")
    sampled = verify_k4_structure(g, mode="sampled", seed=1, samples=5000)
    assert exhaustive.outcome == sampled.outcome == "pass"
    assert exhaustive.quantities == {"edges_checked": g.m, "k4_checked": g.m * per_edge, "violations": 0}
    assert sampled.quantities == {"edges_checked": 5000, "k4_checked": 5000 * per_edge, "violations": 0}
    assert "clique_edges" not in vars(g)


def test_certify_q5_checks_every_edge(tmp_path):
    assert main(["certify", "--q", "5", "--out", str(tmp_path)]) == 0
    certs = json.loads((tmp_path / "certify_q5.json").read_text())["certificates"]
    k4 = next(c for c in certs if c["claim"] == "every K4 has >= 3 vertices in a point clique")
    assert k4["params"] == {"q": 5, "mode": "exhaustive", "path": "symmetry"}
    assert k4["quantities"]["edges_covered"] == 126 * comb(25, 2)
