"""Traced mirror of the CLI commands, run in its own child process.

    traced.py OUT.json <cli argv...>

Parses the argv with the CLI's own parser (so defaults cannot drift), then
calls the public functions of each module in the same order as the
matching ``cmd_*`` in ``quasifolkman.cli``, with a span around each call.
Spans are kept in memory and written to OUT.json at the end, together with
the certificates and results the checks in run.py read.  Nothing is
written to the CLI's artifact directory.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """In-memory span recorder: name, start, end, parent, peak RSS, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "counts": {},
            "start": time.perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            rec["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*a, **kw):
            with self.span(name):
                return fn(*a, **kw)

        return traced


def setup_graph(tr: Tracer, q: int):
    """build_graph_for_q(q), one span per layer."""
    from quasifolkman.fields import QuadraticExtension
    from quasifolkman.graphs import build_graph
    from quasifolkman.plane import ProjectivePlane, build_unital

    with tr.span("fields.tables"):
        fld = QuadraticExtension(q)
    with tr.span("plane.build_unital") as c:
        unital = build_unital(ProjectivePlane(fld))
        c["secants"] = unital.num_secants
    with tr.span("graphs.build_graph") as c:
        g = build_graph(unital)
        c["edges"] = g.m
        c["adj_bytes"] = g.adj.nbytes
    return g


def certify(tr: Tracer, args) -> dict:
    from quasifolkman.certificates import Certificate
    from quasifolkman.certify import quasi_folkman_certificate
    from quasifolkman.graphs import verify_k4_structure, verify_srg
    from quasifolkman.triangles import build_family, verify_nbhd_decomposition, verify_no_k4_in_family

    q = args.q
    g = setup_graph(tr, q)
    certs = []
    with tr.span("graphs.verify_srg"):
        rep = verify_srg(g)
    certs.append(Certificate(claim="strong regularity", params={"q": q},
                             quantities={"lambda": rep.lambda_observed, "mu": rep.mu_observed},
                             outcome="pass" if rep.passed else "fail"))
    mode = "exhaustive" if q <= 4 else "sampled"
    with tr.span("graphs.verify_k4") as c:
        k4 = verify_k4_structure(g, mode=mode, seed=args.seed, samples=args.samples)
        c["k4_checked"] = k4.quantities.get("k4_checked", k4.quantities.get("k4_count"))
        c["samples"] = args.samples if mode == "sampled" else None
    certs.append(k4)
    with tr.span("triangles.build_family") as c:
        fam = build_family(g)
        c["family_rows"] = g.n * (q**3 - q)  # computed: the index is not materialised here
    certs.append(Certificate(claim="non-degenerate triangle family matches the closed count",
                             params={"q": q}, quantities={"total": fam.total}, outcome="pass"))
    nbhd_vertices = range(g.n) if q <= 3 else [0, g.n // 2, g.n - 1]
    with tr.span("triangles.verify_nbhd") as c:
        nbhd = [verify_nbhd_decomposition(g, v) for v in nbhd_vertices]
        c["nbhd_vertices"] = len(nbhd)
    certs.append(next((x for x in nbhd if x.outcome != "pass"), nbhd[0]))
    if q <= 4:
        with tr.span("triangles.verify_no_k4"):
            certs.append(verify_no_k4_in_family(fam, g))
    with tr.span("certify.quasi_folkman"):
        certs.append(quasi_folkman_certificate(q))
    return {"certificates": [x.to_dict() for x in certs]}


def search(tr: Tracer, args) -> dict:
    from quasifolkman import search as search_mod
    from quasifolkman.search import AnnealSchedule, anneal, random_coloring_stats
    from quasifolkman.triangles import build_family

    g = setup_graph(tr, args.q)
    with tr.span("triangles.build_family"):
        fam = build_family(g)
    # anneal's first recount materialises the cached index; doing it here
    # moves the same work out of the anneal span into its own
    with tr.span("triangles.clique_edge_matrix") as c:
        ce = fam.clique_edge_matrix()
        c["family_rows"] = ce.shape[0]
        c["clique_edge_bytes"] = ce.nbytes
    schedule = AnnealSchedule(initial_temperature=args.t0, cooling=args.cooling, steps=int(args.steps))
    saved = search_mod.edge_triangle_index, search_mod._greedy_descent
    search_mod.edge_triangle_index = tr.wrap("search.edge_triangle_index", saved[0])
    search_mod._greedy_descent = tr.wrap("search.polish", saved[1])
    try:
        with tr.span("search.anneal") as c:
            result = anneal(g, fam, schedule, seed=args.seed, restarts=args.restarts)
            c["proposals"] = args.restarts * schedule.steps
            c["accepted"] = result.accepted
    finally:
        search_mod.edge_triangle_index, search_mod._greedy_descent = saved
    with tr.span("search.random_stats"):
        random_coloring_stats(fam, trials=max(args.stat_trials, 2), seed=args.seed)
    return {"best_objective": result.best.objective}


def check_coloring(tr: Tracer, args) -> dict:
    from quasifolkman.certify import EdgeColoring, adversarial_color_check
    from quasifolkman.triangles import build_family

    g = setup_graph(tr, args.q)
    with tr.span("triangles.build_family"):
        fam = build_family(g)
    with tr.span("certify.coloring_parse"):
        coloring = EdgeColoring.from_text(g, Path(args.file).read_text())
    # adversarial_color_check materialises the cached index first; doing it
    # here gives it its own span
    with tr.span("triangles.clique_edge_matrix") as c:
        ce = fam.clique_edge_matrix()
        c["family_rows"] = ce.shape[0]
        c["clique_edge_bytes"] = ce.nbytes
    with tr.span("certify.goodman_count"):
        cert = adversarial_color_check(fam, coloring)
    return {"certificates": [cert.to_dict()]}


def simulate(tr: Tracer, args) -> dict:
    from quasifolkman.blocks import (
        concentration_experiment, deletion_margin, instance_seed, load_replacement,
        random_block, verify_star_instance,
    )

    delta_value = 0.5 if args.delta in (None, "auto") else float(args.delta)
    with tr.span("blocks.load_replacement"):
        F = load_replacement(args.F)
    g = setup_graph(tr, args.q)
    inst = []
    for t in range(args.trials):
        with tr.span("blocks.load_replacement"):
            Ft = load_replacement(args.F)
        with tr.span("blocks.random_block"):
            star = random_block(g, Ft, instance_seed(args.seed, t))
        with tr.span("blocks.verify_star") as c:
            rep = verify_star_instance(star)
            c["instances"] = 1
        inst.append({"k4_free": rep["k4_free"], "cliques_triangle_free": rep["cliques_triangle_free"]})
    with tr.span("blocks.concentration"):
        concentration_experiment(g, F, trials=min(args.trials, 40), samples_per_trial=25,
                                 delta=delta_value, seed=args.seed)
    if F.valid_for_margin:
        with tr.span("blocks.deletion_margin"):
            deletion_margin(args.q, F.n, F.m, F.alpha, delta_value)
    return {"instances": inst}


MIRRORS = {"certify": certify, "search": search, "check-coloring": check_coloring,
           "simulate": simulate}


def main(argv: list[str]) -> int:
    out, *cli_argv = argv
    from quasifolkman.cli import build_parser

    args = build_parser().parse_args(cli_argv)
    tr = Tracer()
    result = MIRRORS[args.command](tr, args)
    Path(out).write_text(json.dumps({"spans": tr.spans, "result": result}, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
