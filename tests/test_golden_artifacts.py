"""Golden artifacts: every command at q = 3, compared by SHA-256 digest.

Each run goes through ``cli.main`` in a fresh directory with relative
paths.  Timestamps (certificate fields and the ``timestamp:`` lines of the
text certificates) and the ``out`` config field are stripped before
hashing, so the digests pin everything else the commands write: exports,
certificates, reports and the coloring file.  build and check-coloring at
q = 3 and 4 write the same files with the compiled kernel turned off.
"""

import hashlib
import json

import pytest

from quasifolkman import _kernel
from quasifolkman.certify import EdgeColoring
from quasifolkman.cli import main
from quasifolkman.graphs import build_graph_for_q

RUNS = [
    ["build", "--q", "3"],
    ["certify", "--q", "3"],
    ["search", "--q", "3", "--steps", "2000"],
    ["check-coloring", "--q", "3", "--file", "out/best_coloring_q3.txt"],
    ["simulate", "--q", "3", "--F", "c5", "--trials", "20"],
]

GOLDEN = {
    "best_coloring_q3.txt": "b6042df87731e9d8dc9eee65f713d85107b7075a403511fed226ef8b562a6574",
    "build_q3.json": "12c8386050e8673343af533fc49a3fabc6dca0638cc11264715cd4c9d5d9b312",
    "build_q3.txt": "1c70d611c4999933472051914304d4ef6d2ca718f09549222b26e5a6f1a6e73c",
    "certify_q3.json": "ca0d6c9bbb2cb6032fafc3fefdcbbec749b79b25909761380868220e2704e0a8",
    "certify_q3.txt": "3ef0694db98a3c4552a4227ca5f05e43ca7012d007f321635659dd5ccfcd0e4e",
    "check_coloring_q3.json": "9d88e53615ee330058b3cf41723065babc4f59d01cb35673fb2e241fbc70e2d0",
    "check_coloring_q3.txt": "185f6776e25492498a8b8b894380749d5366fdf61731b765ff125d3a95e1c334",
    "edges_q3.txt": "5e39c0b25cd308dcbe7c7d66b53dda4b4f948f97218afed41736db0626c90a8e",
    "graph_q3.g6": "15854fe7796915c1514d2cdf213f60c3e83819a1d57f9af5171859c29d9eeb95",
    "search_q3.json": "8dda0600a6334aead14f97be4ebf297c9b1c88cd2952f6e9678d9f9740bad27e",
    "simulate_q3_c5.json": "82f93ff1c6d01bb9019749c0f0d9917ce21100df12656781d220f1fb8cda55fc",
    "simulate_q3_c5_certs.json": "29ab3e0ad429b56ffcf9caf9b4960609677a51d61b89a76406d7a7117697a508",
    "simulate_q3_c5_certs.txt": "117e787d0bd3eee51e4db7d19de0f0e0c5d9eeb9966b6539c684bd4eb3ab6d6b",
    "unital_q3.txt": "fce60569b4579704fe7169d7ed16f879075fd86fa63c458b5d0cfcc52a0e79f2",
}


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k != "timestamp"}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _digest(path):
    data = path.read_bytes()
    if path.suffix == ".json":
        payload = _strip(json.loads(data))
        payload.get("config", {}).pop("out", None)
        data = json.dumps(payload, sort_keys=True).encode()
    elif path.suffix == ".txt":
        data = b"\n".join(line for line in data.split(b"\n") if not line.startswith(b"timestamp: "))
    return hashlib.sha256(data).hexdigest()


def test_artifacts_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in RUNS:
        assert main([*argv, "--out", "out"]) in (0, 3), argv
    digests = {p.name: _digest(p) for p in sorted((tmp_path / "out").iterdir())}
    assert digests == GOLDEN


@pytest.mark.parametrize("q", [3, 4])
def test_build_and_check_coloring_artifacts_equal_without_the_kernel(tmp_path, monkeypatch, q):
    # the edge list, the graph checksum and the Goodman count each run in
    # the compiled kernel wherever it loads; with the loader patched to None
    # their numpy paths write the same files
    monkeypatch.chdir(tmp_path)
    coloring = tmp_path / "coloring.txt"
    coloring.write_text(EdgeColoring.random(build_graph_for_q(q), q).to_text())
    runs = [["build", "--q", str(q)], ["check-coloring", "--q", str(q), "--file", str(coloring)]]
    digests = []
    for out in ("kernel", "numpy"):
        if out == "numpy":
            monkeypatch.setattr(_kernel, "_load_kernel", lambda: None)
        for argv in runs:
            assert main([*argv, "--out", out]) == 0, argv
        digests.append({p.name: _digest(p) for p in sorted((tmp_path / out).iterdir())})
    assert digests[0] == digests[1]
    assert {f"edges_q{q}.txt", f"check_coloring_q{q}.json"} <= digests[0].keys()
