"""The benchmark's calls into the library: perfbench/traced.py mirrors each
command through the modules' functions, and perfbench/tools.py builds its
inputs, so a name they call must not leave the library unnoticed.  Both
files are loaded by path and run at q = 3."""

import importlib.util
import json
from pathlib import Path

import pytest

import quasifolkman

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def coloring_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("coloring") / "input_coloring.txt"
    assert load("tools").coloring(3, 1, str(path))["m"] > 0
    return path


@pytest.mark.parametrize("argv", [
    ["certify"],
    ["search", "--restarts", "2", "--steps", "2000"],
    ["check-coloring"],
    ["simulate", "--F", "c5", "--trials", "2"],
], ids=lambda argv: argv[0])
def test_traced_mirror_runs(tmp_path, coloring_file, argv):
    if argv[0] == "check-coloring":
        argv = [*argv, "--file", str(coloring_file)]
    out = tmp_path / "trace.json"
    cli_argv = [argv[0], "--q", "3", *argv[1:], "--out", str(tmp_path / "artifacts")]
    assert load("traced").main([str(out), *cli_argv]) == 0
    trace = json.loads(out.read_text())
    assert trace["spans"] and trace["result"]


def test_tools_setup_and_recount(coloring_file):
    tools = load("tools")
    assert tools.setup(3)["m"] == 1008
    assert tools.recount(3, str(coloring_file))["monochromatic"] >= 0


def test_every_exported_name_resolves():
    missing = [name for name in quasifolkman.__all__ if not hasattr(quasifolkman, name)]
    assert missing == []
