"""The verified automorphism path (graphs.unital_symmetry and
verify_k4_by_symmetry): the unitary generators and their point action
against polynomial-arithmetic oracles, the orbit labels against a
union-find, the orbit-weighted K4 counts against the exhaustive sweep, and
the checks that turn the path down on incidences it does not fit."""

import json
from math import comb

import numpy as np
import pytest

from oracles import (
    buekenhout_metz_unital,
    orbit_labels_loop,
    point_action_loop,
    secant_action_pos,
    unitary_defect,
)
from quasifolkman import cli
from quasifolkman import graphs as graphs_module
from quasifolkman.cli import EXIT_FAIL, main
from quasifolkman.fields import QuadraticExtension
from quasifolkman.graphs import (
    build_graph,
    orbit_labels,
    point_action,
    secant_action,
    unital_symmetry,
    unitary_generators,
    verify_k4_by_symmetry,
    verify_k4_structure,
)
from quasifolkman.plane import ProjectivePlane, UnitalIncidence, build_unital_for_q


@pytest.fixture(scope="module", params=[2, 3, 4, 5])
def hermitian(request):
    unital = build_unital_for_q(request.param)
    return unital, build_graph(unital)


def test_generators_are_unitary_and_act_as_the_oracle(hermitian):
    unital, g = hermitian
    fld = unital.plane.field
    gens = unitary_generators(unital.plane)
    # no a, b != 0 has N(a) + N(b) = 1 at q = 2
    assert len(gens) == (3 if g.q == 2 else 6)
    for M in gens:
        assert unitary_defect(fld, M) == []
        perm = point_action(unital, M)
        assert np.array_equal(perm, point_action_loop(unital, M))
        assert secant_action(g, perm) is not None


def test_non_unitary_matrices_are_rejected():
    unital = build_unital_for_q(3)
    fld = unital.plane.field
    mu = next(c for c in range(2, fld.order) if fld.norm_table[c] != 1)
    scaled = np.diag([mu, 1, 1])
    singular = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    for M in (scaled, singular):
        assert unitary_defect(fld, M) != []
        assert point_action(unital, M) is None
        assert point_action_loop(unital, M) is None


def test_schreier_elements_fix_point_zero(hermitian):
    unital, g = hermitian
    sym = unital_symmetry(unital, g)
    assert sym is not None and sym.stabiliser
    for h in sym.stabiliser:
        assert h[0] == 0
        assert np.array_equal(np.sort(h), np.arange(len(g.cliques)))
        assert secant_action(g, h) is not None


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_secant_action_matches_the_table_lookup(q):
    # the generators' secant permutations, and None for a point permutation
    # that moves a secant onto no secant, as through the whole table
    unital = build_unital_for_q(q)
    g = build_graph(unital)
    sym = unital_symmetry(unital, g)
    assert "pos" not in vars(g)
    for perm, sec in zip(sym.points, sym.secants):
        expect = secant_action_pos(g, perm)
        assert sec.dtype == expect.dtype and np.array_equal(sec, expect)
    swap = np.arange(len(g.cliques))
    swap[[1, 2]] = 2, 1
    assert secant_action(g, swap) is None and secant_action_pos(g, swap) is None


@pytest.mark.parametrize("size,count", [(1, 1), (17, 1), (60, 3), (500, 2)])
def test_orbit_labels_match_union_find(size, count):
    rng = np.random.default_rng(size)
    # permutations with many small cycles, so the orbits are not all one
    perms = []
    for _ in range(count):
        p = np.arange(size)
        for block in np.array_split(rng.permutation(size), max(1, size // 5)):
            p[block] = np.roll(block, 1)
        perms.append(p)
    assert np.array_equal(orbit_labels(size, perms), orbit_labels_loop(size, perms))
    assert np.array_equal(orbit_labels(size, []), np.arange(size))


def test_orbit_weighted_counts_equal_the_exhaustive_sweep(hermitian):
    unital, g = hermitian
    cert = verify_k4_by_symmetry(g, unital_symmetry(unital, g))
    sweep = verify_k4_structure(g, mode="exhaustive")
    assert cert.outcome == sweep.outcome == "pass"
    assert cert.params == {"q": g.q, "mode": "exhaustive", "path": "symmetry"}
    q = cert.quantities
    assert q["edges_covered"] == sweep.quantities["edges_checked"] == g.m
    assert q["k4_checked"] == sweep.quantities["k4_checked"] > 0
    assert q["violations"] == 0 and 1 <= q["edge_orbits"] <= comb(g.q**2, 2)


def test_secant_orbits_match_union_find(hermitian):
    unital, g = hermitian
    sym = unital_symmetry(unital, g)
    labels = orbit_labels(g.n, sym.secants)
    assert np.array_equal(labels, orbit_labels_loop(g.n, sym.secants))
    # PGU(3, q) is transitive on the secants; at q = 2 the monomial
    # generators alone split them in two
    assert len(np.unique(labels)) == (2 if g.q == 2 else 1)


@pytest.mark.parametrize("q,alpha,beta", [(3, 4, 0), (5, 1, 13), (3, 0, 3)])
def test_buekenhout_metz_incidences_fail_the_generator_check(q, alpha, beta):
    # alpha = 0 is classical: Hermitian, but for another form than the generators'
    unital = buekenhout_metz_unital(ProjectivePlane(QuadraticExtension(q)), alpha, beta)
    assert unital_symmetry(unital, build_graph(unital)) is None


def test_certify_falls_back_to_the_direct_sweep(tmp_path, monkeypatch):
    unital = buekenhout_metz_unital(ProjectivePlane(QuadraticExtension(3)), 4, 0)
    monkeypatch.setattr(cli, "build_unital_for_q", lambda q: unital)
    assert main(["certify", "--q", "3", "--out", str(tmp_path)]) == EXIT_FAIL
    certs = json.loads((tmp_path / "certify_q3.json").read_text())["certificates"]
    k4 = next(c for c in certs if c["claim"].startswith("every K4"))
    assert k4["params"] == {"q": 3, "mode": "exhaustive", "path": "direct"}
    assert k4["outcome"] == "fail" and k4["quantities"]["violations"] == 324
    nbhd = next(c for c in certs if c["claim"].startswith("neighborhood"))
    assert nbhd["quantities"]["vertices_covered"] == nbhd["quantities"]["vertices_checked"] == 63


def test_relabelled_incidence_fails_the_generator_check():
    # two points' labels swapped on every secant: still a linear space, so
    # the graph builds, but no longer the one the coordinates describe
    unital = build_unital_for_q(3)
    pts = unital.secant_points.copy()
    a, b = pts == 0, pts == 5
    pts[a], pts[b] = 5, 0
    pts.sort(axis=1)
    swapped = UnitalIncidence(q=3, plane=unital.plane, unital_points=unital.unital_points,
                              secants=unital.secants, secant_points=pts)
    g = build_graph(swapped)
    assert unital_symmetry(swapped, g) is None
    assert any(secant_action(g, point_action(unital, M)) is None for M in unitary_generators(unital.plane))


def test_generators_that_are_not_transitive_are_turned_down(monkeypatch):
    # the swap, the 3-cycle and the diagonal keep the count of zero coordinates
    unital = build_unital_for_q(3)
    g = build_graph(unital)
    monkeypatch.setattr(graphs_module, "unitary_generators", lambda plane: unitary_generators(plane)[:3])
    assert unital_symmetry(unital, g) is None


def test_a_representative_with_an_onan_k4_hands_over_to_the_sweep(monkeypatch):
    unital = build_unital_for_q(3)
    g = build_graph(unital)
    sym = unital_symmetry(unital, g)
    real = graphs_module.edge_k4s

    def one_onan(g, e):
        found, _, quads = real(g, e)
        return found + 1, np.zeros(1, dtype=np.intp), np.zeros((1, 4), dtype=np.int32)

    monkeypatch.setattr(graphs_module, "edge_k4s", one_onan)
    assert verify_k4_by_symmetry(g, sym) is None
