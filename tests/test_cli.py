import json

import pytest

from quasifolkman.cli import EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, main


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


def test_simulate_parallel_workers_match_serial(tmp_path):
    rc = main(
        ["simulate", "--q", "2", "--F", "edge", "--trials", "8", "--threads", "2", "--out", str(tmp_path)]
    )
    assert rc == EXIT_PASS
    par = json.loads((tmp_path / "simulate_q2_edge.json").read_text())
    rc = main(
        ["simulate", "--q", "2", "--F", "edge", "--trials", "8", "--threads", "1", "--out", str(tmp_path)]
    )
    assert rc == EXIT_PASS
    ser = json.loads((tmp_path / "simulate_q2_edge.json").read_text())
    assert par["report"]["instances"] == ser["report"]["instances"]


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


def test_certify_zero_k4_samples_inconclusive(tmp_path):
    rc = main(["certify", "--q", "5", "--samples", "0", "--out", str(tmp_path)])
    assert rc == EXIT_INCONCLUSIVE
    payload = json.loads((tmp_path / "certify_q5.json").read_text())
    k4 = next(c for c in payload["certificates"] if c["claim"].startswith("every K4"))
    assert k4["quantities"]["k4_checked"] == 0
    assert k4["outcome"] == "inconclusive"


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
    assert nbhd["quantities"]["vertices_checked"] == 3
    assert nbhd["quantities"]["checked_vertices"] == [0, 104, 207]


@pytest.mark.parametrize("content", ["", "# only a comment\n\n"])
def test_simulate_empty_replacement_file_is_one_line_error(tmp_path, capsys, content):
    path = tmp_path / "F.txt"
    path.write_text(content)
    rc = main(["simulate", "--q", "2", "--F", str(path), "--trials", "2", "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "no edges" in err and err.count("\n") == 1


@pytest.mark.parametrize("content, message", [("0 1\n1 x\n", "F.txt:2"), ("0 1\n0 100\n", "101 vertices")])
def test_simulate_malformed_replacement_file_is_one_line_error(tmp_path, capsys, content, message):
    path = tmp_path / "F.txt"
    path.write_text(content)
    rc = main(["simulate", "--q", "2", "--F", str(path), "--trials", "2", "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("extra", [["--q", "2", "--trials", "2"], ["--alon-k", "7"]])
def test_simulate_non_numeric_delta_is_one_line_error(tmp_path, capsys, extra):
    rc = main(["simulate", *extra, "--delta", "abc", "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "--delta" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["simulate", "--q", "3", "--trials", "0"], "--trials"),
        (["certify", "--q", "5", "--samples", "-1"], "--samples"),
        (["search", "--q", "3", "--steps", "-5"], "--steps"),
    ],
)
def test_negative_or_empty_counts_are_one_line_errors(tmp_path, capsys, argv, flag):
    rc = main([*argv, "--out", str(tmp_path)])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert flag in err and err.count("\n") == 1
    assert not any(tmp_path.iterdir())
