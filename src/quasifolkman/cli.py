"""Command-line pipelines with persisted, reproducible artifacts.

Commands
--------
build          construct the graph and write incidence/edge-list/graph6
               exports plus a strong-regularity certificate
certify        run the full structural verification and the
               monochromatic-lower-bound certificate
simulate       random block construction experiments, or (with --alon-k)
               the closed-form margin and size arithmetic
search         annealing minimization of monochromatic family triangles
check-coloring validate a coloring file against the certified bound

Every artifact embeds the run configuration and toolkit version; identical
configurations produce identical outputs up to the timestamp field.  Exit
codes: 0 all certificates pass, 1 any failure, 3 pass-with-inconclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificates import Certificate
from .certify import (
    EdgeColoring,
    adversarial_color_check,
    quasi_folkman_certificate,
)
from .fields import prime_power
from .graphs import (
    SUPPORTED_Q,
    build_graph,
    build_graph_for_q,
    edge_list_blocks,
    graph6_bytes,
    orbit_labels,
    row_pairs,
    unital_symmetry,
    verify_k4_by_symmetry,
    verify_k4_structure,
    verify_srg,
)
from .plane import build_unital_for_q
from .triangles import build_family, no_k4_in_family, verify_nbhd_decomposition

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 3

OUT_ENV = "QUASIFOLKMAN_OUT"


def _out_path(args) -> Path:
    """--out or its default, refused when it is or lies under a file; _out_dir creates it."""
    out = Path(args.out or os.environ.get(OUT_ENV, "artifacts"))
    if not os.path.isdir(next(p for p in (out, *out.parents) if os.path.exists(p))):
        raise UsageError(f"--out {out} is not a usable directory: it is or lies under a file")
    return out


def _out_dir(args) -> Path:
    out = _out_path(args)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {out} is not a usable directory: {exc.strerror}") from None
    return out


def _run_config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["version"] = __version__
    return cfg


def _write_certs(out: Path, stem: str, certs: list[Certificate], config: dict) -> None:
    payload = {
        "config": config,
        "certificates": [c.to_dict() for c in certs],
    }
    (out / f"{stem}.json").write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    (out / f"{stem}.txt").write_text("\n".join(c.to_text() for c in certs))


def _exit_code(certs: list[Certificate]) -> int:
    if any(c.outcome == "fail" for c in certs):
        return EXIT_FAIL
    if any(c.outcome == "inconclusive" for c in certs):
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


class UsageError(ValueError):
    """Bad input on the command line; main prints it as one line and exits 1."""


class _Parser(argparse.ArgumentParser):
    """Reports argparse's own errors as UsageError; subparsers share the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


#: the largest q of each command but certify, which runs at every q in
#: SUPPORTED_Q: it builds neither the (q^3+1)^2 pos table nor an m-long edge
#: table (m passes 2^31 at q = 25), and runs to q = 49 in 289 s at 4.1 GB on a
#: 2-core x86-64 host, where the figures below were also taken; three int32
#: arrays of n(q+1) entries (incidence, at, cliques) hold 3.4 GB.  search's
#: (m, 2q^2) int32 partner table sets its peak, 1.53 GB of 1.57 GB at q = 9;
#: check-coloring streams the edge order (IntersectionGraph.edge_blocks) and
#: holds no m-long edge table, and its compiled Goodman count reads the coloring
#: in clique layout, m bytes, which sets its peak: 93 MB and 3.2 s at q = 13,
#: 232 MB and 18 s at q = 16 (the numpy count's colour matrices add (q^3+1) q^4
#: bytes, 268 MB at q = 16, where the command took 109 s and 700 MB with it);
#: build's edge list would be 1.6 GB of text at q = 16, and graph6's bit array
#: 1.9 GB; simulate's spot scans pack every surviving edge of an instance
Q_LIMIT = {"build": 11, "simulate": 11, "search": 9, "check-coloring": 16}


def _check_q(args) -> None:
    q = args.q
    if q not in SUPPORTED_Q:
        # prime_power divides by trial up to sqrt(q): ask it only below the range's end
        if q < SUPPORTED_Q[-1] and prime_power(q) is None:
            raise UsageError(f"q must be a prime power, got {q}")
        raise UsageError(f"q = {q} exceeds the verification range {SUPPORTED_Q}")
    if q > Q_LIMIT.get(args.command, q):
        raise UsageError(f"{args.command} supports --q up to {Q_LIMIT[args.command]}, got {q}")


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------

def cmd_build(args) -> int:
    _check_q(args)
    out = _out_dir(args)
    unital = build_unital_for_q(args.q)
    g = build_graph(unital)
    (out / f"unital_q{args.q}.txt").write_text(unital.export_text())
    with open(out / f"edges_q{args.q}.txt", "wb") as fh:
        fh.writelines(edge_list_blocks(g))
    # graph6 reads no edge order: ascending clique rows give each pair i < j
    (out / f"graph_q{args.q}.g6").write_bytes(graph6_bytes(g.n, *row_pairs(g.cliques)))
    rep = verify_srg(g)
    cert = Certificate(
        claim="intersection graph is strongly regular with the expected parameters",
        params={"q": args.q},
        quantities={
            "n": rep.n,
            "d": rep.d,
            "lambda": rep.lambda_observed,
            "mu": rep.mu_observed,
            **rep.coverage,
            **{f"check_{k}": v for k, v in rep.checks.items()},
        },
        outcome="pass" if rep.passed else "fail",
    )
    _write_certs(out, f"build_q{args.q}", [cert], _run_config(args))
    print(f"build q={args.q}: n={g.n} m={g.m} srg={'pass' if rep.passed else 'FAIL'}")
    return _exit_code([cert])


# ----------------------------------------------------------------------
# certify
# ----------------------------------------------------------------------

def cmd_certify(args) -> int:
    _check_q(args)
    if args.samples < 0:
        raise UsageError(f"--samples must be at least 0, got {args.samples}")
    q = args.q
    out = _out_dir(args)
    unital = build_unital_for_q(q)
    g = build_graph(unital)
    sym = unital_symmetry(unital, g)
    certs: list[Certificate] = []

    rep = verify_srg(g, sym)
    certs.append(
        Certificate(
            claim="strong regularity",
            params={"q": q},
            quantities={"lambda": rep.lambda_observed, "mu": rep.mu_observed, **rep.coverage},
            outcome="pass" if rep.passed else "fail",
        )
    )

    k4 = verify_k4_by_symmetry(g, sym) if sym is not None else None
    if k4 is None:
        # a sample of at least m draws costs more than checking every edge once
        mode = "exhaustive" if q <= 7 or args.samples >= g.m else "sampled"
        k4 = verify_k4_structure(g, mode=mode, seed=args.seed, samples=args.samples)
    certs.append(k4)

    fam = build_family(g)  # cross-checks counts internally
    # one vertex per orbit of the verified secant permutations covers them all
    if sym is not None:
        # each orbit's least member is the one labelled by itself
        nbhd_vertices = np.flatnonzero(orbit_labels(g.n, sym.secants) == np.arange(g.n)).tolist()
        coverage = {"secant_orbits": len(nbhd_vertices), "vertices_covered": g.n}
    else:
        nbhd_vertices = list(range(g.n)) if q <= 3 else [0, g.n // 2, g.n - 1]
        coverage = {"vertices_covered": len(nbhd_vertices)}
    nbhd = [verify_nbhd_decomposition(g, v) for v in nbhd_vertices]
    worst = next((c for c in nbhd if c.outcome != "pass"), nbhd[0])
    # each decomposition checks v's q^3-q spanning cliques of q+1 neighbours,
    # so the family's per-vertex count holds wherever the decompositions do
    certs.append(
        Certificate(
            claim="non-degenerate triangle family matches the closed count",
            params={"q": q},
            quantities={"total": fam.total, "per_vertex": fam.per_vertex,
                        "explicit_checked": fam.triangles is not None, **coverage},
            outcome=worst.outcome,
        )
    )
    # the quantities are the reported vertex's; say how many were checked
    worst.quantities.update(vertices_checked=len(nbhd), checked_vertices=nbhd_vertices, **coverage)
    certs.append(worst)
    certs.append(no_k4_in_family(k4))

    certs.append(quasi_folkman_certificate(q))

    _write_certs(out, f"certify_q{q}", certs, _run_config(args))
    for c in certs:
        print(f"{c.outcome.upper():12s} {c.claim}")
        if c.outcome == "fail":
            print(f"  {c.quantities}", file=sys.stderr)
    return _exit_code(certs)


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

#: instances that run the clique-extension scan even when the K4 lemma
#: covers them: a spot check of verify_star_instance and of the scan-free path
SPOT_SCANS = 8


def _trials_report(payload):
    """Records of a run of consecutive trials, how many ran the
    clique-extension scan, and the labels of the first keep of them.

    Every K4 of the graph has three vertices in one point clique (the K4
    lemma), so an instance with no triangle inside a point clique is
    K4-free.  The scan runs where the payload asks for it and on any
    instance that fails the clique test, so that its K4 verdict is exact."""
    from .blocks import instance_blocks, star_instance, verify_star_instance

    q, F, adj, seeds, scans, keep = payload
    g = _worker_graph(q)
    records, scanned, kept = [], 0, []
    for labels, edges, clique_free in instance_blocks(g, adj, seeds):
        for lab, num, free in zip(labels, edges.tolist(), clique_free.tolist()):
            t = len(records)
            k4_free = free
            if scans[t] or not free:
                rep = verify_star_instance(star_instance(g, F, adj, seeds[t], lab))
                k4_free, free = rep["k4_free"], rep["cliques_triangle_free"]
                scanned += 1
            # every edge lies in exactly one point clique
            records.append({"seed": seeds[t], "k4_free": k4_free, "cliques_triangle_free": free,
                            "survival_rate": num / g.m, "num_edges": num})
            if t < keep:
                kept.append(lab.copy())
    return records, scanned, kept


_GRAPH_CACHE: dict[int, object] = {}


def _worker_graph(q: int):
    if q not in _GRAPH_CACHE:
        _GRAPH_CACHE[q] = build_graph_for_q(q)
    return _GRAPH_CACHE[q]


def cmd_simulate(args) -> int:
    from .blocks import (  # here, so that the other commands never load blocks
        ConstructionError,
        alon_parameters,
        checked_adj,
        concentration_experiment,
        critical_delta,
        deletion_margin,
        instance_seed,
        load_replacement,
        quantitative_bound,
        smallest_valid_alon_k,
        trial_blocks,
    )

    config = _run_config(args)

    if args.alon_k is not None:
        try:
            p = alon_parameters(args.alon_k)
        except ValueError as exc:
            raise UsageError(exc) from None
        delta = 1.0 if args.delta in (None, "auto") else args.delta_value
        if p.valid:
            try:
                qb = quantitative_bound(p.n, p.m, delta=delta, exact_union=args.exact_union)
            except RuntimeError as exc:
                raise UsageError(f"--delta {delta:g} is too small: {exc}") from None
        out = _out_dir(args)
        report = {
            "alon_k": args.alon_k,
            "smallest_valid_k": smallest_valid_alon_k(),
            "n": p.n,
            "m": p.m,
            "maxcut_ratio": p.ratio,
            "valid": p.valid,
        }
        certs = []
        if p.valid:
            report["critical_delta"] = critical_delta(p.ratio)
            report.update({f"bound_{k}": v for k, v in qb.items()})
            certs.append(
                Certificate(
                    claim="deletion-construction size arithmetic at pseudorandom parameters",
                    params={"k": args.alon_k, "delta": delta},
                    quantities={k: str(v) if isinstance(v, int) and v > 2**63 else v
                                for k, v in qb.items()},
                    outcome="pass",
                )
            )
            print(f"alon k={args.alon_k}: alpha<=~{p.ratio:.4f}, "
                  f"q ~= 2^{qb['log2_q']:.1f}, order bound ~= 2^{qb['log2_f_bound']:.1f}")
        else:
            certs.append(
                Certificate(
                    claim="pseudorandom parameters usable for the deletion construction",
                    params={"k": args.alon_k},
                    quantities={"maxcut_ratio": p.ratio},
                    outcome="fail",
                )
            )
            print(f"alon k={args.alon_k}: maxcut ratio {p.ratio:.3f} >= 2/3, unusable")
        (out / f"simulate_alon_k{args.alon_k}.json").write_text(
            json.dumps({"config": config, "report": report}, indent=2, sort_keys=True, default=str)
        )
        _write_certs(out, f"simulate_alon_k{args.alon_k}_certs", certs, config)
        return _exit_code(certs)

    _check_q(args)
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    try:
        F = load_replacement(args.F)
    except ConstructionError as exc:
        raise UsageError(exc) from None
    out = _out_dir(args)

    unital = build_unital_for_q(args.q)
    g = _GRAPH_CACHE[args.q] = build_graph(unital)  # forked workers reuse it
    sym = unital_symmetry(unital, g)
    lemma = verify_k4_by_symmetry(g, sym) if sym is not None else None
    adj = checked_adj(F)
    seeds = [instance_seed(args.seed, t) for t in range(args.trials)]
    # without the lemma every instance is scanned
    scans = [lemma is None or t < SPOT_SCANS for t in range(args.trials)]
    blocks = list(trial_blocks(g, F.n, args.trials))
    workers = min(args.threads, len(blocks), os.cpu_count() or 1)
    # the pool takes blocks of trials, one process all of them in one pass;
    # the concentration sample reads the first 40 instances' labels
    runs = blocks if workers > 1 else [slice(0, args.trials)]
    payloads = [(args.q, F, adj, seeds[r], scans[r], max(0, min(r.stop, 40) - r.start)) for r in runs]
    if workers > 1:
        import multiprocessing  # here, so that runs without a pool do not load it

        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_trials_report, payloads)
    else:
        results = [_trials_report(p) for p in payloads]
    inst = [r for records, _, _ in results for r in records]
    scanned = sum(s for _, s, _ in results)
    labels = [lab for _, _, kept in results for lab in kept]

    rates = np.array([r["survival_rate"] for r in inst])
    expect = 2 * F.m / F.n**2
    # one instance has no spread: null in the JSON, where NaN is not standard
    stderr = float(rates.std(ddof=1) / np.sqrt(len(rates))) if len(rates) > 1 else None
    conc = concentration_experiment(g, F, trials=len(labels), samples_per_trial=25, delta=args.delta_value,
                                    seed=args.seed, labels=labels)
    report = {
        "q": args.q,
        "F": args.F,
        "alpha": str(F.alpha),
        "trials": args.trials,
        "all_k4_free": all(r["k4_free"] for r in inst),
        "all_cliques_triangle_free": all(r["cliques_triangle_free"] for r in inst),
        "survival_mean": float(rates.mean()),
        "survival_expected": expect,
        "survival_stderr": stderr,
        "concentration": conc,
        "instances": inst,
    }
    instance_params = {"q": args.q, "F": args.F, "trials": args.trials, "seed": args.seed}
    k4 = {"violations": sum(not r["k4_free"] for r in inst),
          "path": "scan" if lemma is None else "clique lemma", "instances_scanned": scanned}
    if lemma is not None:
        k4.update({k: lemma.quantities[k] for k in ("edge_orbits", "edges_covered")})
    certs = [
        Certificate(
            claim="random block instances are K4-free",
            params=instance_params,
            quantities=k4,
            outcome="pass" if report["all_k4_free"] else "fail",
        ),
        Certificate(
            claim="random block instances have no triangle inside a point clique",
            params=instance_params,
            quantities={"violations": sum(not r["cliques_triangle_free"] for r in inst),
                        "instances_checked": len(inst)},
            outcome="pass" if report["all_cliques_triangle_free"] else "fail",
        ),
        Certificate(
            claim="edge survival rate matches 2m/n^2",
            params={"q": args.q, "F": args.F},
            quantities={"mean": float(rates.mean()), "expected": expect, "stderr": stderr},
            # below 5 instances the stderr estimate is too noisy to judge
            outcome="inconclusive" if args.trials < 5
            else ("pass" if abs(rates.mean() - expect) <= 3 * stderr + 1e-12 else "fail"),
        ),
    ]
    if F.valid_for_margin:
        certs.append(deletion_margin(args.q, F.n, F.m, F.alpha, args.delta_value))
    else:
        report["margin_note"] = (
            f"maxcut ratio {F.alpha} >= 2/3: the margin bound does not apply to this F; "
            "formula-path validation requires a replacement graph with ratio < 2/3"
        )
        print(report["margin_note"])
    (out / f"simulate_q{args.q}_{Path(args.F).stem}.json").write_text(
        json.dumps({"config": config, "report": report}, indent=2, sort_keys=True, default=str)
    )
    _write_certs(out, f"simulate_q{args.q}_{Path(args.F).stem}_certs", certs, config)
    for c in certs:
        print(f"{c.outcome.upper():12s} {c.claim}")
    return _exit_code(certs)


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

def cmd_search(args) -> int:
    # here, so that the other commands never load search
    from .search import AnnealSchedule, anneal, random_coloring_stats

    _check_q(args)
    if args.restarts < 1:
        raise UsageError(f"--restarts must be at least 1, got {args.restarts}")
    _out_path(args)  # a bad --out fails before the search, which creates it only at the end
    g = build_graph_for_q(args.q)
    fam = build_family(g)
    schedule = AnnealSchedule(
        initial_temperature=args.t0, cooling=args.cooling, steps=int(args.steps)
    )
    result = anneal(g, fam, schedule, seed=args.seed, restarts=args.restarts)
    stats = random_coloring_stats(fam, trials=args.stat_trials, seed=args.seed)
    # only now: a search that runs out of memory leaves no directory behind
    out = _out_dir(args)
    (out / f"best_coloring_q{args.q}.txt").write_text(result.best.coloring.to_text())
    report = {
        "config": _run_config(args),
        "best_objective": result.best.objective,
        "per_restart": result.objectives.tolist(),
        "accepted_moves": result.accepted,
        "family_size": fam.total,
        "random_mean_fraction": stats.mean_fraction,
        "random_stderr": stats.stderr,
    }
    (out / f"search_q{args.q}.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    print(
        f"search q={args.q}: best {result.best.objective} / {fam.total} "
        f"(random mean fraction {stats.mean_fraction:.4f})"
    )
    return EXIT_PASS


# ----------------------------------------------------------------------
# check-coloring
# ----------------------------------------------------------------------

def cmd_check_coloring(args) -> int:
    _check_q(args)
    try:
        text = Path(args.file).read_text()
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read coloring: {exc}") from None
    _out_path(args)  # a bad --out fails before the graph, a bad coloring leaves no directory
    g = build_graph_for_q(args.q)
    try:
        coloring = EdgeColoring.from_text(g, text)
    except ValueError as exc:
        raise UsageError(f"cannot read coloring: {exc}") from None
    del text  # the clique layout is all the count reads
    out = _out_dir(args)
    fam = build_family(g)
    cert = adversarial_color_check(fam, coloring)
    _write_certs(out, f"check_coloring_q{args.q}", [cert], _run_config(args))
    print(
        f"{cert.outcome.upper()}: {cert.quantities['monochromatic']} monochromatic "
        f">= bound {cert.quantities['lower_bound']}"
    )
    return _exit_code([cert])


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="quasifolkman",
        description="Verification toolkit for Folkman-type properties of unital intersection graphs",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help=f"output directory (or ${OUT_ENV})")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1, help="worker processes for Monte Carlo scans, at most one per block of trials and per CPU")

    p = sub.add_parser("build", help="construct and export the graph")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("certify", help="full structural + coloring-bound certification")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--samples", type=int, default=1 << 14,
                   help="edges drawn by the direct K4 sweep, used only when the unital's symmetry check fails "
                        "and q > 7; at least the edge count checks every edge instead")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="random block construction experiments")
    common(p)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--F", default="edge", help="replacement graph name or edge-list file")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--delta", default=None, help="concentration window; 'auto' reproduces the headline arithmetic")
    p.add_argument("--alon-k", type=int, default=None, dest="alon_k")
    p.add_argument("--exact-union", action="store_true", dest="exact_union",
                   help="use the exact union-bound count instead of n q^7")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("search", help="anneal toward few monochromatic family triangles")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--steps", type=float, default=1e5)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--t0", type=float, default=2.0)
    p.add_argument("--cooling", type=float, default=0.9995)
    p.add_argument("--stat-trials", type=int, default=100, dest="stat_trials")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("check-coloring", help="validate a coloring file against the bound")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_check_coloring)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.seed < 0:
            raise UsageError(f"--seed must be at least 0, got {args.seed}")
        if args.threads < 1:
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
        if args.command == "search":
            if not (math.isfinite(args.steps) and args.steps >= 0 and args.steps.is_integer()):
                raise UsageError(f"--steps must be a finite whole number >= 0, got {args.steps:g}")
            if args.stat_trials < 2:
                raise UsageError(f"--stat-trials must be at least 2, got {args.stat_trials}")
            if not (math.isfinite(args.t0) and args.t0 >= 0):
                raise UsageError(f"--t0 must be a finite number >= 0, got {args.t0}")
            if not (math.isfinite(args.cooling) and args.cooling > 0):
                raise UsageError(f"--cooling must be a finite number > 0, got {args.cooling}")
        if args.command == "simulate":
            raw = args.delta
            try:
                args.delta_value = 0.5 if raw in (None, "auto") else float(raw)
            except ValueError:
                args.delta_value = math.nan
            if not math.isfinite(args.delta_value) or args.delta_value < 0:
                raise UsageError(f"--delta must be a finite number >= 0 or 'auto', got {raw!r}")
            if args.alon_k is not None and raw not in (None, "auto") and not 0 < args.delta_value <= 1:
                raise UsageError(f"--delta with --alon-k must lie in (0, 1], got {raw!r}")
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAIL
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
