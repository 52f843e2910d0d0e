import json
import multiprocessing
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import numpy as np
import pytest

import oracles
from quasifolkman import blocks, budget, cli, triangles
from quasifolkman.blocks import instance_seed
from quasifolkman.certificates import Certificate
from quasifolkman.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, main
from quasifolkman.graphs import build_graph_for_q


def test_build_q4(tmp_path):
    rc = main(["build", "--q", "4", "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    edges = (tmp_path / "edges_q4.txt").read_text().strip().split("\n")
    assert len(edges) == 7800
    unital = (tmp_path / "unital_q4.txt").read_text().split("\n", 1)[0]
    assert unital == "4 65 208"
    assert (tmp_path / "graph_q4.g6").exists()
    payload = json.loads((tmp_path / "build_q4.json").read_text())
    assert payload["certificates"][0]["quantities"]["n"] == 208
    assert payload["config"]["version"]


def test_build_rejects_non_prime_power(tmp_path, capsys):
    rc = main(["build", "--q", "6", "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    assert "prime power" in capsys.readouterr().err


def test_q_outside_the_range_is_rejected_before_factoring(tmp_path, capsys, monkeypatch):
    # 2^61 - 1 is prime: trial division up to its square root would run for hours
    monkeypatch.setattr(cli, "prime_power", lambda q: pytest.fail(f"prime_power({q}) called"))
    rc = main(["certify", "--q", str(2**61 - 1), "--out", str(tmp_path / "out")])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "exceeds the verification range" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_a_refused_allocation_is_a_one_line_error(tmp_path, capsys):
    # 10^12 chains of m = 1008 colour bits: numpy refuses the 917 TiB at once
    rc = main(["search", "--q", "3", "--restarts", str(10**12), "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err.startswith("out of memory: ") and captured.err.count("\n") == 1


def test_build_q3(tmp_path):
    rc = main(["build", "--q", "3", "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    payload = json.loads((tmp_path / "build_q3.json").read_text())
    assert payload["certificates"][0]["quantities"]["n"] == 63


def test_certify_q3_inconclusive(tmp_path):
    rc = main(["certify", "--q", "3", "--out", str(tmp_path)])
    assert rc == EXIT_INCONCLUSIVE
    payload = json.loads((tmp_path / "certify_q3.json").read_text())
    outcomes = {c["claim"]: c["outcome"] for c in payload["certificates"]}
    assert outcomes["every 2-coloring has at least L(q) monochromatic family triangles"] == "inconclusive"
    assert all(o == "pass" for claim, o in outcomes.items() if "L(q)" not in claim)


def test_certify_q2_inconclusive(tmp_path):
    # the convexity bound degenerates to equality at q=2 as well
    rc = main(["certify", "--q", "2", "--out", str(tmp_path)])
    assert rc == EXIT_INCONCLUSIVE
    # the three monomial generators split the 12 secants into two orbits
    payload = json.loads((tmp_path / "certify_q2.json").read_text())
    nbhd = next(c for c in payload["certificates"] if c["claim"].startswith("neighborhood"))
    assert nbhd["quantities"]["secant_orbits"] == len(nbhd["quantities"]["checked_vertices"]) == 2
    assert nbhd["quantities"]["vertices_covered"] == 12


def test_simulate_alon(tmp_path):
    rc = main(["simulate", "--alon-k", "7", "--delta", "auto", "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    payload = json.loads((tmp_path / "simulate_alon_k7.json").read_text())
    assert payload["report"]["smallest_valid_k"] == 7
    assert 66 <= payload["report"]["bound_log2_q"] <= 74


def test_simulate_alon_invalid_k(tmp_path):
    rc = main(["simulate", "--alon-k", "5", "--out", str(tmp_path)])
    assert rc == EXIT_FAIL


def test_simulate_instances_q3(tmp_path):
    rc = main(
        ["simulate", "--q", "3", "--F", "edge", "--trials", "6", "--out", str(tmp_path)]
    )
    assert rc == EXIT_PASS
    payload = json.loads((tmp_path / "simulate_q3_edge.json").read_text())
    assert payload["report"]["all_k4_free"] is True
    assert len(payload["report"]["instances"]) == 6
    assert "margin_note" in payload["report"]  # alpha = 1 for a single edge


def test_simulate_rejects_c5_margin(tmp_path, capsys):
    rc = main(
        ["simulate", "--q", "3", "--F", "c5", "--trials", "12", "--delta", "0.1", "--out", str(tmp_path)]
    )
    assert rc == EXIT_PASS  # instances still run; margin is noted as inapplicable
    out = capsys.readouterr().out
    assert "does not apply" in out


def test_simulate_tiny_sample_inconclusive(tmp_path):
    rc = main(
        ["simulate", "--q", "2", "--F", "edge", "--trials", "3", "--out", str(tmp_path)]
    )
    assert rc == EXIT_INCONCLUSIVE


def test_simulate_single_trial_writes_strict_json(tmp_path):
    # one instance has no standard error: null, not the non-standard NaN
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    assert main(["simulate", "--q", "3", "--F", "c5", "--trials", "1", "--out", str(tmp_path)]) == EXIT_INCONCLUSIVE
    report = json.loads((tmp_path / "simulate_q3_c5.json").read_text(), parse_constant=refuse)
    certs = json.loads((tmp_path / "simulate_q3_c5_certs.json").read_text(), parse_constant=refuse)
    assert report["report"]["survival_stderr"] is None
    survival = next(c for c in certs["certificates"] if c["claim"].startswith("edge survival"))
    assert survival["quantities"]["stderr"] is None and survival["outcome"] == "inconclusive"


def test_simulate_parallel_workers_match_serial(tmp_path, monkeypatch):
    # blocks of 5 trials, the last of 2; at q = 3 the instances past the
    # spot scans reach the workers unscanned
    for q in (2, 3):
        g = build_graph_for_q(q)
        npts, k = g.cliques.shape
        monkeypatch.setattr(budget, "BLOCK_BYTES", 5 * npts * blocks._pass_row_bytes(k, 2))
        F = blocks.load_replacement("edge")
        assert [b.stop - b.start for b in blocks.trial_blocks(g, F.n, 12)] == [5, 5, 2]
        runs = {}
        for threads in ("2", "1"):
            out = tmp_path / f"q{q}_{threads}"
            argv = ["simulate", "--q", str(q), "--F", "edge", "--trials", "12", "--threads", threads, "--out", str(out)]
            assert main(argv) == EXIT_PASS
            runs[threads] = {
                "report": json.loads((out / f"simulate_q{q}_edge.json").read_text())["report"],
                "certs": _strip_timestamps(json.loads((out / f"simulate_q{q}_edge_certs.json").read_text()))["certificates"],
            }
        assert runs["2"] == runs["1"]
        assert runs["1"]["certs"][0]["quantities"]["instances_scanned"] == cli.SPOT_SCANS


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("trials", [1, 39, 40, 41])
def test_simulate_concentration_reads_the_pass_labels(tmp_path, monkeypatch, trials, block):
    # the concentration sample equals the one that redraws its instances;
    # blocks of 7 trials put the 40th label mid-block
    g = build_graph_for_q(2)
    F = blocks.load_replacement("c5")
    if block is not None:
        monkeypatch.setattr(budget, "BLOCK_BYTES", block * 9 * blocks._pass_row_bytes(4, F.n))
    redrawn = blocks.concentration_experiment(g, F, trials=min(trials, 40), samples_per_trial=25, delta=0.5, seed=3)
    real, draws = blocks.instance_labels, []
    monkeypatch.setattr(blocks, "instance_labels", lambda *a: draws.append(a) or real(*a))
    _, report, _ = _simulate(tmp_path, 2, trials, "--seed", "3")
    assert report["concentration"] == json.loads(json.dumps(redrawn))
    # one draw of each instance
    assert len(draws) == trials
K4_CLAIM = "random block instances are K4-free"
CLIQUE_CLAIM = "random block instances have no triangle inside a point clique"


def _simulate(out, q, trials, *extra):
    """Exit code, report and certificates by claim of one c5 simulate run."""
    rc = main(["simulate", "--q", str(q), "--F", "c5", "--trials", str(trials), *extra, "--out", str(out)])
    report = json.loads((out / f"simulate_q{q}_c5.json").read_text())["report"]
    certs = json.loads((out / f"simulate_q{q}_c5_certs.json").read_text())["certificates"]
    return rc, report, {c["claim"]: c for c in certs}


@pytest.mark.parametrize("seed", [1, 4242])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_simulate_lemma_path_matches_a_forced_scan(tmp_path, monkeypatch, q, seed):
    rc, lemma, certs = _simulate(tmp_path / "lemma", q, 400, "--seed", str(seed))
    assert rc == EXIT_PASS
    k4 = certs[K4_CLAIM]["quantities"]
    assert k4["path"] == "clique lemma" and k4["instances_scanned"] == cli.SPOT_SCANS
    assert k4["edges_covered"] == (q**3 + 1) * comb(q * q, 2) and k4["edge_orbits"] >= 1
    assert certs[CLIQUE_CLAIM]["quantities"] == {"violations": 0, "instances_checked": 400}
    monkeypatch.setattr(cli, "SPOT_SCANS", 400)
    rc, scan, certs = _simulate(tmp_path / "scan", q, 400, "--seed", str(seed))
    assert rc == EXIT_PASS
    assert certs[K4_CLAIM]["quantities"]["instances_scanned"] == 400
    assert scan == lemma


def test_simulate_without_the_lemma_scans_every_instance(tmp_path, monkeypatch):
    _, lemma, _ = _simulate(tmp_path / "lemma", 3, 12)
    monkeypatch.setattr(cli, "unital_symmetry", lambda unital, g: None)
    rc, scan, certs = _simulate(tmp_path / "scan", 3, 12)
    assert rc == EXIT_PASS
    assert certs[K4_CLAIM]["quantities"] == {"violations": 0, "path": "scan", "instances_scanned": 12}
    assert scan == lemma


def plant_clique_triangle(monkeypatch, labels_row):
    """Plant a triangle on positions 0, 1 and 2 of every clique whose labels
    are labels_row, where the pass and the spot scan read the surviving
    edges; returns the number of rows planted so far, as a list."""
    real, planted = blocks.clique_adjacency, []

    def clique_adjacency(adj, labels, out=None):
        A = real(adj, labels, out)
        for row in np.flatnonzero((labels == labels_row).all(axis=1)):
            for x, y in ((0, 1), (0, 2), (1, 2)):
                A[row, x, y] = A[row, y, x] = 1
            planted.append(row)
        return A

    monkeypatch.setattr(blocks, "clique_adjacency", clique_adjacency)
    return planted


def test_simulate_fails_on_a_clique_triangle_and_scans_that_instance(tmp_path, monkeypatch):
    # instance 10, past the spot scans, keeps a triangle inside point 2's
    # clique; the K4 certificate alone passed such a run before the clique one
    g = build_graph_for_q(3)
    F = blocks.load_replacement("c5")
    labels = blocks.instance_labels(g, F.n, instance_seed(0, 10))
    planted = plant_clique_triangle(monkeypatch, labels[2])
    rc, report, certs = _simulate(tmp_path, 3, 12)
    assert rc == EXIT_FAIL
    assert certs[CLIQUE_CLAIM]["outcome"] == "fail" and certs[K4_CLAIM]["outcome"] == "pass"
    assert certs[CLIQUE_CLAIM]["quantities"] == {"violations": 1, "instances_checked": 12}
    assert certs[K4_CLAIM]["quantities"]["instances_scanned"] == cli.SPOT_SCANS + 1
    # once in the pass, once in the scan's instance
    assert len(planted) == 2
    record = report["instances"][10]
    assert record["cliques_triangle_free"] is False
    # the K4 verdict comes from the scan, not from the failed clique test
    star = blocks.star_instance(g, F, blocks.checked_adj(F), instance_seed(0, 10), labels)
    assert oracles.clique_triangle_loop(star) == (2, *g.cliques[2, :3].tolist())
    assert oracles.find_k4(oracles.adj_bits(star), star.base.n) is None
    assert record["k4_free"] is True


def test_simulate_caps_worker_processes_at_the_blocks(tmp_path, monkeypatch):
    sizes = []

    class SerialPool:
        """Records its size and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    runs = {}
    for threads in ("64", "1"):
        out = tmp_path / threads
        argv = ["simulate", "--q", "2", "--F", "edge", "--trials", "3", "--threads", threads, "--out", str(out)]
        assert main(argv) == EXIT_INCONCLUSIVE
        runs[threads] = {
            "report": json.loads((out / "simulate_q2_edge.json").read_text())["report"],
            "certs": _strip_timestamps(json.loads((out / "simulate_q2_edge_certs.json").read_text()))["certificates"],
        }
    # the three instances make one block: one process runs it
    assert sizes == []
    # a one-byte budget makes each instance its own block
    monkeypatch.setattr(budget, "BLOCK_BYTES", 1)
    out = tmp_path / "blocks"
    assert main(["simulate", "--q", "2", "--F", "edge", "--trials", "3", "--threads", "64", "--out", str(out)]) == EXIT_INCONCLUSIVE
    assert sizes == [3]
    assert json.loads((out / "simulate_q2_edge.json").read_text())["report"] == runs["1"]["report"]
    assert runs["64"] == runs["1"]


def test_search_q3(tmp_path):
    rc = main(
        ["search", "--q", "3", "--steps", "2000", "--restarts", "2", "--out", str(tmp_path)]
    )
    assert rc == EXIT_PASS
    report = json.loads((tmp_path / "search_q3.json").read_text())
    assert report["best_objective"] >= 0
    assert (tmp_path / "best_coloring_q3.txt").exists()


def test_search_zero_steps_echoes_initial(tmp_path):
    rc = main(["search", "--q", "2", "--steps", "0", "--restarts", "1", "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    report = json.loads((tmp_path / "search_q2.json").read_text())
    assert report["accepted_moves"] == 0


def test_check_coloring_roundtrip(tmp_path):
    rc = main(
        ["search", "--q", "3", "--steps", "500", "--restarts", "1", "--out", str(tmp_path)]
    )
    assert rc == EXIT_PASS
    rc = main(
        [
            "check-coloring",
            "--q",
            "3",
            "--file",
            str(tmp_path / "best_coloring_q3.txt"),
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_PASS


def test_check_coloring_missing_file(tmp_path, capsys):
    rc = main(["check-coloring", "--q", "3", "--file", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert rc == EXIT_FAIL


def test_check_coloring_unparsable_file_creates_no_output_dir(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("coloring q=3 edges=5 graph=abc\n")
    out = tmp_path / "out"
    rc = main(["check-coloring", "--q", "3", "--file", str(bad), "--out", str(out)])
    assert rc == EXIT_FAIL
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def _strip_timestamps(payload):
    for cert in payload.get("certificates", []):
        cert.pop("timestamp", None)
    payload.get("config", {}).pop("out", None)
    return payload


def test_identical_configs_reproduce_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["build", "--q", "2", "--out", str(out)]) == EXIT_PASS
    # raw exports byte-identical; certificates identical modulo timestamp
    assert (a / "edges_q2.txt").read_bytes() == (b / "edges_q2.txt").read_bytes()
    assert (a / "graph_q2.g6").read_bytes() == (b / "graph_q2.g6").read_bytes()
    assert (a / "unital_q2.txt").read_bytes() == (b / "unital_q2.txt").read_bytes()
    pa = _strip_timestamps(json.loads((a / "build_q2.json").read_text()))
    pb = _strip_timestamps(json.loads((b / "build_q2.json").read_text()))
    assert pa == pb


def test_certify_zero_k4_samples_inconclusive(tmp_path, monkeypatch):
    # --samples sizes the direct sweep, which runs only when the symmetry check fails
    monkeypatch.setattr(cli, "unital_symmetry", lambda unital, g: None)
    rc = main(["certify", "--q", "8", "--samples", "0", "--out", str(tmp_path)])
    assert rc == EXIT_INCONCLUSIVE
    payload = json.loads((tmp_path / "certify_q8.json").read_text())
    k4 = next(c for c in payload["certificates"] if c["claim"].startswith("every K4"))
    assert k4["quantities"]["k4_checked"] == 0
    assert k4["outcome"] == "inconclusive"
    assert k4["params"]["path"] == "direct"
    nbhd = next(c for c in payload["certificates"] if c["claim"].startswith("neighborhood"))
    assert nbhd["quantities"]["checked_vertices"] == [0, 1824, 3647]
    assert nbhd["quantities"]["vertices_covered"] == 3
    assert "secant_orbits" not in nbhd["quantities"]
    family = next(c for c in payload["certificates"] if c["claim"].startswith("non-degenerate triangle family"))
    assert family["quantities"]["vertices_covered"] == 3
    assert family["quantities"]["explicit_checked"] is False
    no_k4 = next(c for c in payload["certificates"] if c["claim"].startswith("no four"))
    assert no_k4["outcome"] == "inconclusive"


def test_certify_sampled_k4_leaves_the_family_claim_inconclusive(tmp_path, monkeypatch):
    # a passing sample says nothing about the K4s through the edges it missed
    monkeypatch.setattr(cli, "unital_symmetry", lambda unital, g: None)
    rc = main(["certify", "--q", "8", "--samples", "1000", "--out", str(tmp_path)])
    assert rc == EXIT_INCONCLUSIVE
    certs = {c["claim"]: c for c in json.loads((tmp_path / "certify_q8.json").read_text())["certificates"]}
    assert certs["every K4 has >= 3 vertices in a point clique (sampled)"]["outcome"] == "pass"
    no_k4 = certs["no four non-degenerate triangles induce a K4"]
    assert no_k4["outcome"] == "inconclusive"
    assert no_k4["quantities"]["edges_checked"] == 1000


def test_certify_samples_past_the_edge_count_check_every_edge(tmp_path, monkeypatch):
    # without the symmetry path, a sample of m or more draws would cost more
    # than the exhaustive sweep
    monkeypatch.setattr(cli, "unital_symmetry", lambda unital, g: None)
    m = build_graph_for_q(8).m
    calls = []

    def spy(g, mode, seed, samples):
        calls.append((mode, samples))
        return Certificate(claim="every K4 has >= 3 vertices in a point clique", params={"q": 8, "mode": mode},
                           quantities={}, outcome="pass")

    monkeypatch.setattr(cli, "verify_k4_structure", spy)
    # a passing sample leaves the family's no-K4 claim inconclusive
    for samples, rc in ((m, EXIT_PASS), (10**12, EXIT_PASS), (m - 1, EXIT_INCONCLUSIVE)):
        assert main(["certify", "--q", "8", "--samples", str(samples), "--out", str(tmp_path)]) == rc
    assert calls == [("exhaustive", m), ("exhaustive", 10**12), ("sampled", m - 1)]


def test_certify_symmetry_path_ignores_samples(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "verify_k4_structure", lambda *a, **kw: pytest.fail("direct sweep ran"))
    assert main(["certify", "--q", "8", "--samples", "0", "--out", str(tmp_path)]) == EXIT_PASS


def test_certify_q13(tmp_path):
    rc = main(["certify", "--q", "13", "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    certs = {c["claim"]: c for c in json.loads((tmp_path / "certify_q13.json").read_text())["certificates"]}
    assert all(c["outcome"] == "pass" for c in certs.values())
    k4 = certs["every K4 has >= 3 vertices in a point clique"]
    assert k4["params"] == {"q": 13, "mode": "exhaustive", "path": "symmetry"}
    k4 = k4["quantities"]
    assert k4["violations"] == 0 and k4["k4_checked"] > 0
    assert k4["edges_covered"] == (13**3 + 1) * comb(13**2, 2)
    nbhd = certs["neighborhood decomposes into point-clique remnants plus spanning cliques"]["quantities"]
    assert nbhd["vertices_covered"] == 13**4 - 13**3 + 13**2
    family = certs["non-degenerate triangle family matches the closed count"]["quantities"]
    assert family["vertices_covered"] == 13**4 - 13**3 + 13**2
    assert certs["no four non-degenerate triangles induce a K4"]["quantities"] == k4
    bound = certs["every 2-coloring has at least L(q) monochromatic family triangles"]["quantities"]
    assert bound["fraction_of_family"] == "5/26"


def test_search_zero_restarts_is_one_line_error(tmp_path, capsys):
    rc = main(["search", "--q", "3", "--restarts", "0", "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "--restarts" in err and err.count("\n") == 1


def test_certify_q4_reports_neighborhood_coverage(tmp_path):
    rc = main(["certify", "--q", "4", "--out", str(tmp_path)])
    assert rc == EXIT_PASS
    payload = json.loads((tmp_path / "certify_q4.json").read_text())
    nbhd = next(c for c in payload["certificates"] if c["claim"].startswith("neighborhood"))
    # the unitary group is transitive on the secants: one vertex covers all 208
    assert nbhd["quantities"]["vertices_checked"] == nbhd["quantities"]["secant_orbits"] == 1
    assert nbhd["quantities"]["checked_vertices"] == [0]
    assert nbhd["quantities"]["vertices_covered"] == 208
    # the explicit classification checks every triangle: no spot count
    family = next(c for c in payload["certificates"] if c["claim"].startswith("non-degenerate triangle family"))
    assert "spot_vertices" not in family["quantities"]


def test_certify_q4_restates_the_k4_certificate_for_the_family(tmp_path, monkeypatch):
    # the symmetry path's certificate covers every edge: no second sweep runs
    monkeypatch.setattr(triangles, "verify_k4_structure", lambda *a, **kw: pytest.fail("second sweep ran"))
    assert main(["certify", "--q", "4", "--out", str(tmp_path)]) == EXIT_PASS
    certs = {c["claim"]: c for c in json.loads((tmp_path / "certify_q4.json").read_text())["certificates"]}
    no_k4 = certs["no four non-degenerate triangles induce a K4"]
    assert no_k4["outcome"] == "pass"
    assert no_k4["quantities"] == certs["every K4 has >= 3 vertices in a point clique"]["quantities"]
    assert no_k4["quantities"]["edges_covered"] == 65 * comb(16, 2)


@pytest.mark.parametrize("content", ["", "# only a comment\n\n"])
def test_simulate_empty_replacement_file_is_one_line_error(tmp_path, capsys, content):
    path = tmp_path / "F.txt"
    path.write_text(content)
    rc = main(["simulate", "--q", "2", "--F", str(path), "--trials", "2", "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "no edges" in err and err.count("\n") == 1


@pytest.mark.parametrize("content, message", [
    (b"0 1\n1 x\n", "F.txt:2"), (b"0 1\n0 100\n", "101 vertices"), (b"\xff\xfe 0 1\n", "not UTF-8"),
])
def test_simulate_malformed_replacement_file_is_one_line_error(tmp_path, capsys, content, message):
    path = tmp_path / "F.txt"
    path.write_bytes(content)
    rc = main(["simulate", "--q", "2", "--F", str(path), "--trials", "2", "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--q", "2", "--trials", "2", "--delta", "abc"],
        ["--alon-k", "7", "--delta", "abc"],
        ["--q", "2", "--trials", "2", "--delta", "nan"],
        ["--q", "2", "--trials", "2", "--delta", "-3"],
        ["--alon-k", "7", "--delta", "inf"],
        ["--alon-k", "11", "--delta", "2"],
        ["--alon-k", "11", "--delta", "0"],
    ],
)
def test_simulate_non_numeric_delta_is_one_line_error(tmp_path, capsys, extra):
    rc = main(["simulate", *extra, "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "--delta" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["simulate", "--q", "3", "--trials", "0"], "--trials"),
        (["certify", "--q", "5", "--samples", "-1"], "--samples"),
        (["search", "--q", "3", "--steps", "-5"], "--steps"),
        (["certify", "--q", "5", "--seed", "-1"], "--seed"),
        (["certify", "--q", "4", "--seed", "-1"], "--seed"),
        (["search", "--q", "3", "--seed", "-1"], "--seed"),
        (["simulate", "--q", "3", "--trials", "2", "--seed", "-1"], "--seed"),
        (["search", "--q", "3", "--t0", "nan"], "--t0"),
        (["search", "--q", "3", "--t0", "-1"], "--t0"),
        (["search", "--q", "3", "--cooling", "nan"], "--cooling"),
        (["search", "--q", "3", "--steps", "nan"], "--steps"),
        (["search", "--q", "3", "--steps", "inf"], "--steps"),
        (["search", "--q", "3", "--threads", "0"], "--threads"),
        (["certify", "--q", "3", "--threads", "-2"], "--threads"),
        (["build", "--q", "13"], "--q"),
        (["simulate", "--q", "16", "--trials", "2"], "--q"),
        (["search", "--q", "11"], "--q"),
        (["check-coloring", "--q", "17", "--file", "no-such-coloring.txt"], "--q"),
        (["search", "--q", "3", "--steps", "2.7"], "--steps"),
        (["search", "--q", "3", "--stat-trials", "1"], "--stat-trials"),
        (["search", "--q", "3", "--stat-trials", "-4"], "--stat-trials"),
    ],
)
def test_negative_or_empty_counts_are_one_line_errors(tmp_path, capsys, argv, flag):
    rc = main([*argv, "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert flag in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--q", "3", "--trials", "0"],
        ["simulate", "--q", "6", "--trials", "2"],
        ["simulate", "--q", "13", "--trials", "2"],
        ["simulate", "--q", "3", "--trials", "2", "--F", "no-such-graph"],
        ["simulate", "--alon-k", "6"],
        ["check-coloring", "--q", "3", "--file", "no-such-coloring.txt"],
        ["simulate", "--alon-k", "11", "--delta", "2"],
        ["simulate", "--alon-k", "11", "--delta", "0"],
        ["simulate", "--alon-k", "11", "--delta", "nan"],
        ["simulate", "--q", "3", "--F", "c5", "--delta", "nan"],
        ["simulate", "--q", "3", "--F", "c5", "--delta", "-3"],
        ["certify", "--q", "5", "--seed", "-1"],
        ["certify", "--q", "4", "--seed", "-1"],
        ["search", "--q", "3", "--seed", "-1"],
        ["simulate", "--q", "3", "--trials", "2", "--seed", "-1"],
        ["search", "--q", "3", "--t0", "nan"],
        ["search", "--q", "3", "--t0", "-1"],
        ["search", "--q", "3", "--cooling", "nan"],
        ["search", "--q", "3", "--steps", "nan"],
        ["search", "--q", "3", "--steps", "inf"],
        ["search", "--q", "3", "--threads", "0"],
        ["certify", "--q", "3", "--threads", "-2"],
        ["build", "--q", "16"],
        ["simulate", "--q", "13", "--F", "c5", "--trials", "2"],
        ["search", "--q", "11"],
        ["search", "--q", "13"],
        ["check-coloring", "--q", "17", "--file", "no-such-coloring.txt"],
        ["certify", "--q", "41"],
        ["simulate", "--alon-k", "7", "--delta", "1e-200"],
        ["search", "--q", "3", "--restarts", "1000000000000"],
        ["search", "--q", "3", "--steps", "2.7"],
        ["search", "--q", "3", "--stat-trials", "1"],
        ["search", "--q", "3", "--steps", "2.7", "--stat-trials", "-4"],
        ["simulate", "--alon-k", "1"],
    ],
)
def test_rejected_runs_create_no_output_dir(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out)])
    assert rc == EXIT_FAIL
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["certify"], ["certify", "--q", "x"], ["search", "--q", "4", "--bogus", "1"], ["frobnicate"]],
)
def test_argparse_errors_are_one_line_errors(tmp_path, capsys, argv):
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out)])
    assert rc == EXIT_FAIL
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and not captured.out
    assert not out.exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_naming_a_file_is_a_one_line_error(tmp_path, capsys, out):
    (tmp_path / "file").write_text("")
    rc = main(["certify", "--q", "3", "--out", str(tmp_path / out)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "--out" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_check_coloring_out_naming_a_file_fails_before_the_graph(tmp_path, capsys):
    # the coloring is empty, so parsing it would fail too: --out is checked first
    (tmp_path / "file").write_text("")
    rc = main(["check-coloring", "--q", "3", "--file", str(tmp_path / "file"), "--out", str(tmp_path / "file")])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "--out" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_search_out_under_a_file_fails_before_the_search(tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, "anneal", lambda *a, **k: pytest.fail("anneal called"))
    rc = main(["search", "--q", "4", "--restarts", "32", "--steps", "1e5", "--out", str(tmp_path / "file" / "x")])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "--out" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_certify_never_imports_multiprocessing(tmp_path):
    # only simulate's pool needs it: a fresh interpreter that certifies never loads it
    code = ("import sys\n"
            "from quasifolkman.cli import main\n"
            f"assert main(['certify', '--q', '3', '--out', {str(tmp_path)!r}]) == {EXIT_INCONCLUSIVE}\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing')\n"
            "sys.exit(f'loaded {loaded}' if loaded else 0)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "certify_q3.json").exists()


def test_srg_certificates_name_path_and_coverage(tmp_path):
    assert main(["certify", "--q", "3", "--out", str(tmp_path)]) == EXIT_INCONCLUSIVE
    assert main(["build", "--q", "3", "--out", str(tmp_path)]) == EXIT_PASS
    certify = json.loads((tmp_path / "certify_q3.json").read_text())["certificates"][0]
    build = json.loads((tmp_path / "build_q3.json").read_text())["certificates"][0]
    for cert in (certify, build):
        qty = cert["quantities"]
        assert cert["outcome"] == "pass"
        assert (qty["lambda"], qty["mu"]) == (16, 16)
        assert qty["path"] == "design identity"
        assert qty["point_pairs_checked"] == 28 * 27 // 2
    assert build["quantities"]["check_cliques_share_one_vertex"] is True
    assert build["quantities"]["check_clique_members_on_point"] is True
