"""End-to-end and per-layer benchmark of the quasifolkman CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one table each
    python3 perfbench/run.py --self-test         # smoke at q <= 3 + gate self-test

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs the real CLI command in a fresh child process, one at a
time, single-process (``--threads 1``), timed from outside and checked
through its exit code and artifacts.  With ``--trace 1`` a separate child
(traced.py) mirrors the command with a span around each library call and
the per-layer metrics come from those spans.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
#: never used while tuning the benchmark; for checking a claimed gain
HELD_OUT_SEED = 4242
SETUP_REPS = 3
RUN_BUDGET_S = 170.0

# ----------------------------------------------------------------------
# Pinned results.  Literals, never recomputed through the package.
# ----------------------------------------------------------------------

#: q -> lambda, mu, family total, L(q), L(q)/total and the L(q) outcome
PINNED = {
    3: {"lambda": 16, "mu": 16, "total": 3024, "L": Fraction(0), "fraction": Fraction(0),
        "bound_outcome": "inconclusive", "certify_exit": 3},
    4: {"total": 41_600, "L": Fraction(4160)},
    7: {"total": 6_607_552, "L": Fraction(943_936)},
    9: {"lambda": 160, "mu": 100, "total": 63_860_400, "L": Fraction(10_643_400),
        "fraction": Fraction(1, 6), "bound_outcome": "pass", "certify_exit": 0},
}

CLAIM_SRG = "strong regularity"
CLAIM_K4 = "every K4 has >= 3 vertices in a point clique"
CLAIM_FAMILY = "non-degenerate triangle family matches the closed count"
CLAIM_BOUND = "every 2-coloring has at least L(q) monochromatic family triangles"


class Checks:
    """Named output checks; check_fail_ratio = failed / attempted."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok, detail="") -> bool:
        self.items.append((name, bool(ok), str(detail)))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.items)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.items)


def _load_json(chk: Checks, path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        chk(f"artifact {path.name} readable", False, exc)
        return None


def _cert(certs: list[dict], claim: str) -> dict:
    return next((c for c in certs if c["claim"].startswith(claim)), {"quantities": {}, "outcome": None})


def check_certify_certs(chk: Checks, certs: list[dict], pin: dict) -> None:
    bound = _cert(certs, CLAIM_BOUND)
    chk("every certificate but L(q) passes",
        all(c["outcome"] == "pass" for c in certs if c is not bound) and len(certs) >= 5,
        [c["outcome"] for c in certs])
    chk("L(q) certificate outcome", bound["outcome"] == pin["bound_outcome"], bound["outcome"])
    srg = _cert(certs, CLAIM_SRG)["quantities"]
    chk("lambda", srg.get("lambda") == pin["lambda"], srg.get("lambda"))
    chk("mu", srg.get("mu") == pin["mu"], srg.get("mu"))
    fam = _cert(certs, CLAIM_FAMILY)["quantities"]
    chk("family total", fam.get("total") == pin["total"], fam.get("total"))
    bq = bound["quantities"]
    chk("L(q)", Fraction(bq.get("lower_bound", "-1")) == pin["L"], bq.get("lower_bound"))
    chk("L(q) / family", Fraction(bq.get("fraction_of_family", "-1")) == pin["fraction"],
        bq.get("fraction_of_family"))
    k4 = _cert(certs, CLAIM_K4)["quantities"]
    checked = k4.get("k4_checked", k4.get("k4_count", 0))
    chk("K4s checked > 0", checked > 0, checked)
    chk("K4 violations == 0", k4.get("violations") == 0, k4.get("violations"))


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

@dataclass
class Child:
    exit: int
    wall_s: float
    maxrss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> Child:
    """Spawn, wait with os.wait4, and time the child from outside.
    A child still running at the deadline is killed and reported as exit -9."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, log.with_suffix(".out").read_text())


def run_tool(args: list[str], log: Path, deadline: float) -> dict | None:
    c = run_child([sys.executable, str(HERE / "tools.py"), *args], log, deadline)
    if c.exit != 0:
        return None
    return json.loads(c.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    q: int
    flags: tuple[str, ...] = ()

    def argv(self, seed: int, wdir: Path) -> list[str]:
        extra = ["--file", str(wdir / "input_coloring.txt")] if self.command == "check-coloring" else []
        return [self.command, "--q", str(self.q), "--seed", str(seed), "--threads", "1",
                *self.flags, *extra]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-q9", "certify", 9),
        Workload("search-q4", "search", 4,
                 ("--restarts", "32", "--steps", "1e5", "--cooling", "0.99998")),
        Workload("simulate-q4", "simulate", 4, ("--F", "c5", "--trials", "400")),
        Workload("check-coloring-q7", "check-coloring", 7),
    )
}

SMOKE = {
    w.name: w
    for w in (
        Workload("certify-q3", "certify", 3),
        Workload("search-q3", "search", 3, ("--restarts", "4", "--steps", "2000", "--cooling", "0.999")),
        Workload("simulate-q3", "simulate", 3, ("--F", "c5", "--trials", "20")),
        Workload("check-coloring-q3", "check-coloring", 3),
    )
}


def check_rep(chk: Checks, wl: Workload, rdir: Path, exit_code: int, deadline: float,
              pinned: dict = PINNED):
    """Checks on one CLI run; returns the value that must repeat across runs."""
    q, pin = wl.q, pinned[wl.q]
    if wl.command == "certify":
        chk("exit code", exit_code == pin["certify_exit"], exit_code)
        payload = _load_json(chk, rdir / f"certify_q{q}.json")
        if payload:
            check_certify_certs(chk, payload["certificates"], pin)
        return None
    chk("exit code", exit_code == 0, exit_code)
    if wl.command == "search":
        report = _load_json(chk, rdir / f"search_q{q}.json")
        if not report:
            return None
        best = report["best_objective"]
        chk("best objective >= L(q)", best >= pin["L"], best)
        chk("best objective is the best restart", best == min(report["per_restart"]))
        got = run_tool(["recount", str(q), str(rdir / f"best_coloring_q{q}.txt")],
                       rdir / "recount", deadline)
        mono = got and got["monochromatic"]
        chk("written coloring recounts to the best objective", mono == best, mono)
        return best
    if wl.command == "simulate":
        stem = f"simulate_q{q}_{wl.flags[wl.flags.index('--F') + 1]}"
        report = _load_json(chk, rdir / f"{stem}.json")
        certs = _load_json(chk, rdir / f"{stem}_certs.json")
        if not (report and certs):
            return None
        inst = report["report"]["instances"]
        trials = int(wl.flags[wl.flags.index("--trials") + 1])
        chk("one record per instance", len(inst) == trials, len(inst))
        chk("every instance K4-free", all(r["k4_free"] for r in inst))
        chk("every instance clique-triangle-free", all(r["cliques_triangle_free"] for r in inst))
        chk("K4-free and survival certificates pass",
            all(c["outcome"] == "pass" for c in certs["certificates"]),
            [c["outcome"] for c in certs["certificates"]])
        return None
    payload = _load_json(chk, rdir / f"check_coloring_q{q}.json")
    if not payload:
        return None
    cq = payload["certificates"][0]["quantities"]
    chk("coloring certificate passes", payload["certificates"][0]["outcome"] == "pass")
    chk("monochromatic >= L(q)", cq["monochromatic"] >= pin["L"], cq["monochromatic"])
    chk("lower bound is L(q)", Fraction(cq["lower_bound"]) == pin["L"], cq["lower_bound"])
    chk("family size", cq["family_size"] == pin["total"], cq["family_size"])
    return cq["monochromatic"]


def check_mirror(chk: Checks, wl: Workload, result: dict, cli_value) -> None:
    """The traced mirror must reach the same results as the CLI."""
    if wl.command == "certify":
        check_certify_certs(chk, result["certificates"], PINNED[wl.q])
    elif wl.command == "search":
        chk("traced best objective == CLI", result["best_objective"] == cli_value, result["best_objective"])
    elif wl.command == "simulate":
        chk("traced instances K4- and clique-triangle-free",
            all(r["k4_free"] and r["cliques_triangle_free"] for r in result["instances"]))
    else:
        mono = result["certificates"][0]["quantities"]["monochromatic"]
        chk("traced count == CLI", mono == cli_value, mono)


def prepare(wl: Workload, seed: int, wdir: Path, deadline: float, chk: Checks) -> None:
    if wl.command == "check-coloring":
        made = run_tool(["coloring", str(wl.q), str(seed), str(wdir / "input_coloring.txt")],
                        wdir / "make_coloring", deadline)
        chk("input coloring written", made is not None)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

#: name, unit, how the value is obtained (printed beside it)
PER_LAYER = [
    ("fields.tables_s", "s", "self time"),
    ("plane.build_unital_s", "s", "self time"),
    ("plane.secants", "count", "counted"),
    ("graphs.build_graph_s", "s", "self time"),
    ("graphs.edges", "count", "counted"),
    ("graphs.adj_bytes", "bytes", "computed from array size"),
    ("graphs.verify_srg_s", "s", "self time"),
    ("graphs.verify_srg.rss_mb", "MB", "peak RSS at span end"),
    ("graphs.verify_k4_s", "s", "self time"),
    ("graphs.k4_checked", "count", "counted"),
    ("graphs.k4_yield", "ratio", "k4_checked / samples"),
    ("triangles.build_family_s", "s", "self time"),
    ("triangles.family_rows", "count", "computed n*(q^3-q) or index rows"),
    ("triangles.clique_edge_matrix_s", "s", "self time"),
    ("triangles.clique_edge_bytes", "bytes", "computed from array size"),
    ("triangles.verify_nbhd_s", "s", "self time"),
    ("triangles.nbhd_vertices", "count", "counted"),
    ("certify.coloring_parse_s", "s", "self time"),
    ("certify.goodman_count_s", "s", "self time"),
    ("certify.quasi_folkman_s", "s", "self time"),
    ("search.edge_triangle_index_s", "s", "self time"),
    ("search.anneal_loop_s", "s", "self time"),
    ("search.flips_per_s", "1/s", "proposals / anneal_loop_s"),
    ("search.accept_ratio", "ratio", "accepted / proposals"),
    ("search.polish_s", "s", "self time"),
    ("search.random_stats_s", "s", "self time"),
    ("search.best_objective", "count", "counted"),
    ("blocks.random_block_s", "s", "self time"),
    ("blocks.verify_star_s", "s", "self time"),
    ("blocks.concentration_s", "s", "self time"),
    ("blocks.instances", "count", "counted"),
    ("cli.other_s", "s", "median wall_s - top-level spans"),
]
UNITS = dict((n, u) for n, u, _ in PER_LAYER) | dict(END_TO_END)
HOW = {n: h for n, _, h in PER_LAYER}

#: self-time metric -> span name
SELF_TIME = {n: n[:-2] for n, u, h in PER_LAYER if h == "self time"}
SELF_TIME["search.anneal_loop_s"] = "search.anneal"
#: count metric -> span count key (summed over spans)
COUNT_KEYS = {
    "plane.secants": "secants", "graphs.edges": "edges", "graphs.adj_bytes": "adj_bytes",
    "graphs.k4_checked": "k4_checked", "triangles.family_rows": "family_rows",
    "triangles.clique_edge_bytes": "clique_edge_bytes", "triangles.nbhd_vertices": "nbhd_vertices",
    "blocks.instances": "instances",
}


def layer_metrics(spans: list[dict], result: dict, wall_s: float) -> dict[str, float]:
    """Per-layer values from the traced spans; a layer not exercised reads 0."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    self_by_name: dict[str, float] = {}
    counts: dict[str, float] = {}
    for s, kids in zip(spans, child_time):
        self_by_name[s["name"]] = self_by_name.get(s["name"], 0.0) + (s["end"] - s["start"] - kids)
        for k, v in s["counts"].items():
            if v is not None:
                counts[k] = counts.get(k, 0) + v
    out = {name: self_by_name.get(span, 0.0) for name, span in SELF_TIME.items()}
    out |= {name: counts.get(key, 0) for name, key in COUNT_KEYS.items()}
    srg = [s for s in spans if s["name"] == "graphs.verify_srg"]
    out["graphs.verify_srg.rss_mb"] = srg[-1]["maxrss_kb"] / 1024 if srg else 0.0
    out["graphs.k4_yield"] = counts["k4_checked"] / counts["samples"] if counts.get("samples") else 0.0
    loop = out["search.anneal_loop_s"]
    out["search.flips_per_s"] = counts["proposals"] / loop if loop else 0.0
    out["search.accept_ratio"] = counts["accepted"] / counts["proposals"] if counts.get("proposals") else 0.0
    out["search.best_objective"] = result.get("best_objective", 0)
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    out["cli.other_s"] = wall_s - top
    return {name: out[name] for name, _, _ in PER_LAYER}


# ----------------------------------------------------------------------
# Machine block
# ----------------------------------------------------------------------

def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "quasifolkman").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        return None


def machine_block(setup_info: dict | None, load_start) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": setup_info and setup_info["numpy"],
        "blas_threads": setup_info and setup_info["blas_threads"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------

def remember(key: str, value) -> bool:
    """Record value for key across runs in this checkout; False if an earlier
    run recorded a different one."""
    path = WORK / "results.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    seen.setdefault(key, value)
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return seen[key] == value


@dataclass
class RunResult:
    workload: str
    checks: Checks
    metrics: dict[str, float]
    extra: dict = field(default_factory=dict)


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> RunResult:
    load_start = os.getloadavg()
    deadline = time.monotonic() + RUN_BUDGET_S
    wdir = WORK / wl.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    chk = Checks()
    prepare(wl, seed, wdir, deadline, chk)

    setup = []
    for i in range(1 if trace else SETUP_REPS):
        info = run_tool(["setup", str(wl.q)], wdir / f"setup{i}", deadline)
        if not chk(f"setup child {i} ran", info is not None):
            break
        chk(f"setup child {i} imported the checkout", Path(info["module"]).is_relative_to(SRC),
            info["module"])
        setup.append(info)

    argv = wl.argv(seed, wdir)
    reps: list[Child] = []
    values = []
    t0 = time.monotonic()
    while not reps or time.monotonic() - t0 < seconds:
        if reps and time.monotonic() + reps[-1].wall_s > deadline:
            break
        rdir = wdir / f"rep{len(reps)}"
        rdir.mkdir()
        c = run_child([sys.executable, "-m", "quasifolkman.cli", *argv, "--out", str(rdir)],
                      rdir / "cli", deadline)
        reps.append(c)
        values.append(check_rep(chk, wl, rdir, c.exit, deadline))
    if values[0] is not None:
        chk("same result on every run with this seed",
            remember(f"{wl.name}/{seed}", values[0]) and len(set(values)) == 1, values)

    wall_s = statistics.median(c.wall_s for c in reps)
    extra = {"wall_s_runs": [c.wall_s for c in reps], "peak_rss_mb_runs": [c.maxrss_mb for c in reps],
             "setup_s_runs": [s["setup_s"] for s in setup], "result": values[0]}
    if trace:
        out = wdir / "trace.json"
        tc = run_child([sys.executable, str(HERE / "traced.py"), str(out), *argv, "--out",
                        str(wdir / "trace-out")], wdir / "traced", deadline)
        metrics = {}
        if chk("traced run exit code", tc.exit == 0, tc.exit):
            traced = json.loads(out.read_text())
            check_mirror(chk, wl, traced["result"], values[0])
            metrics = layer_metrics(traced["spans"], traced["result"], wall_s)
        extra["traced_wall_s"] = tc.wall_s
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(extra["setup_s_runs"]) if setup else 0.0,
            "peak_rss_mb": statistics.median(extra["peak_rss_mb_runs"]),
        }
    extra["machine"] = machine_block(setup[0] if setup else None, load_start)
    return RunResult(wl.name, chk, metrics, extra)


def print_table(r: RunResult, seed: int) -> None:
    print(f"== {r.workload}  seed={seed}  runs={len(r.extra['wall_s_runs'])}")
    for name, value in r.metrics.items():
        how = HOW.get(name, "median of runs")
        print(f"  {name:32s} {value:>16.6g} {UNITS[name]:6s} {how}")
    if r.workload.startswith("search") and r.extra["result"] is not None:
        print(f"  {'best_objective':32s} {r.extra['result']:>16d} {'count':6s} lower is better")
    ratio = r.checks.failed / max(r.checks.attempted, 1)
    print(f"  {'check_fail_ratio':32s} {ratio:>16.6g} {'ratio':6s} "
          f"{r.checks.failed} of {r.checks.attempted} checks failed")
    for name, ok, detail in r.checks.items:
        if not ok:
            print(f"  FAILED check: {name}: {detail}")
    print(json.dumps({"report": {"workload": r.workload, "seed": seed, **r.extra,
                                 "checks": r.checks.items}}, default=str))


# ----------------------------------------------------------------------
# Gate self-test
# ----------------------------------------------------------------------

def self_test() -> int:
    """Smoke-run all four commands at q = 3 (untraced and traced), then show
    that the gate fails when a pinned value or an artifact is corrupted."""
    outcomes: list[tuple[str, bool]] = []
    for wl in SMOKE.values():
        for trace in (False, True):
            r = run_workload(wl, DEFAULT_SEED, 0, trace)
            outcomes.append((f"smoke {wl.name} trace={int(trace)} passes its checks",
                             r.checks.attempted > 0 and r.checks.failed == 0))
            for name, ok, detail in r.checks.items:
                if not ok:
                    print(f"  {wl.name}: FAILED {name}: {detail}")

    # the smoke artifacts of the traced runs are left in WORK/<name>/rep0
    deadline = time.monotonic() + RUN_BUDGET_S

    def gate_fails(label: str, wl: Workload, rdir: Path, exit_code: int, pinned=PINNED) -> None:
        chk = Checks()
        check_rep(chk, wl, rdir, exit_code, deadline, pinned)
        outcomes.append((f"gate fails on {label}", chk.failed > 0))

    cert_wl = SMOKE["certify-q3"]
    bad_pin = {**PINNED, 3: {**PINNED[3], "lambda": PINNED[3]["lambda"] + 1}}
    gate_fails("a corrupted pinned lambda", cert_wl, WORK / cert_wl.name / "rep0", 3, bad_pin)

    search_wl = SMOKE["search-q3"]
    rdir = WORK / search_wl.name / "rep0"
    report = json.loads((rdir / "search_q3.json").read_text())
    report["best_objective"] += 1
    (rdir / "search_q3.json").write_text(json.dumps(report))
    gate_fails("a tampered search objective", search_wl, rdir, 0)

    sim_wl = SMOKE["simulate-q3"]
    rdir = WORK / sim_wl.name / "rep0"
    path = rdir / "simulate_q3_c5.json"
    payload = json.loads(path.read_text())
    payload["report"]["instances"][0]["k4_free"] = False
    path.write_text(json.dumps(payload))
    gate_fails("a tampered simulate instance", sim_wl, rdir, 0)

    col_wl = SMOKE["check-coloring-q3"]
    wdir = WORK / col_wl.name
    coloring = wdir / "input_coloring.txt"
    head, body = coloring.read_text().split("\n", 1)
    coloring.write_text(head.replace("graph=", "graph=0") + "\n" + body)
    rdir = wdir / "tampered"
    rdir.mkdir(exist_ok=True)
    c = run_child([sys.executable, "-m", "quasifolkman.cli", *col_wl.argv(DEFAULT_SEED, wdir),
                   "--out", str(rdir)], rdir / "cli", deadline)
    gate_fails("a tampered coloring file", col_wl, rdir, c.exit)

    outcomes.append(("BENCHMARK.json lists the metrics run.py reports", _benchmark_json_matches()))
    for label, ok in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    failed = sum(not ok for _, ok in outcomes)
    print(json.dumps({"self_test_passed": failed == 0, "attempted": len(outcomes), "failed": failed}))
    return 0 if failed == 0 else 1


def _benchmark_json_matches() -> bool:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return False
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
        and [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in PER_LAYER]
        and [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    )


# ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=10,
                    help="keep repeating the command until this long has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", dest="self_test")
    args = ap.parse_args(argv)

    if not (SRC / "quasifolkman" / "cli.py").is_file():
        print(f"no package source at {SRC / 'quasifolkman'}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        r = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_table(r, args.seed)
        results.append(r)
    prefix = len(results) > 1
    metrics = {(f"{r.workload}/{k}" if prefix else k): {"value": v, "unit": UNITS[k]}
               for r in results for k, v in r.metrics.items()}
    attempted = sum(r.checks.attempted for r in results)
    failed = sum(r.checks.failed for r in results)
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
