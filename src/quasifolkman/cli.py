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
import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .blocks import (
    ConstructionError,
    alon_parameters,
    concentration_experiment,
    critical_delta,
    instance_seed,
    load_replacement,
    quantitative_bound,
    random_block,
    smallest_valid_alon_k,
    deletion_margin,
    verify_star_instance,
)
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
    edge_list_text,
    graph6_bytes,
    verify_k4_structure,
    verify_srg,
)
from .plane import build_unital_for_q
from .search import AnnealSchedule, anneal, random_coloring_stats
from .triangles import build_family, verify_nbhd_decomposition, verify_no_k4_in_family

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 3

OUT_ENV = "QUASIFOLKMAN_OUT"


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get(OUT_ENV, "artifacts"))
    out.mkdir(parents=True, exist_ok=True)
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


def _check_q(q: int, formula_only: bool = False) -> str | None:
    if prime_power(q) is None:
        return f"q must be a prime power, got {q}"
    if not formula_only and q not in SUPPORTED_Q:
        return f"q = {q} exceeds the exhaustive-verification range {SUPPORTED_Q}"
    return None


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------

def cmd_build(args) -> int:
    err = _check_q(args.q)
    if err:
        print(err, file=sys.stderr)
        return EXIT_FAIL
    out = _out_dir(args)
    unital = build_unital_for_q(args.q)
    g = build_graph(unital)
    (out / f"unital_q{args.q}.txt").write_text(unital.export_text())
    (out / f"edges_q{args.q}.txt").write_text(edge_list_text(g))
    (out / f"graph_q{args.q}.g6").write_bytes(graph6_bytes(g.n, g.adj))
    rep = verify_srg(g)
    cert = Certificate(
        claim="intersection graph is strongly regular with the expected parameters",
        params={"q": args.q},
        quantities={
            "n": rep.n,
            "d": rep.d,
            "lambda": rep.lambda_observed,
            "mu": rep.mu_observed,
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
    err = _check_q(args.q)
    if err:
        print(err, file=sys.stderr)
        return EXIT_FAIL
    if args.samples < 0:
        print(f"--samples must be at least 0, got {args.samples}", file=sys.stderr)
        return EXIT_FAIL
    q = args.q
    out = _out_dir(args)
    g = build_graph_for_q(q)
    certs: list[Certificate] = []

    rep = verify_srg(g)
    certs.append(
        Certificate(
            claim="strong regularity",
            params={"q": q},
            quantities={"lambda": rep.lambda_observed, "mu": rep.mu_observed},
            outcome="pass" if rep.passed else "fail",
        )
    )

    mode = "exhaustive" if q <= 4 else "sampled"
    certs.append(verify_k4_structure(g, mode=mode, seed=args.seed, samples=args.samples))

    fam = build_family(g)  # cross-checks counts internally
    certs.append(
        Certificate(
            claim="non-degenerate triangle family matches the closed count",
            params={"q": q},
            quantities={"total": fam.total, "per_vertex": fam.per_vertex,
                        "explicit_checked": fam.triangles is not None},
            outcome="pass",
        )
    )

    nbhd_vertices = list(range(g.n)) if q <= 3 else [0, g.n // 2, g.n - 1]
    nbhd = [verify_nbhd_decomposition(g, v) for v in nbhd_vertices]
    worst = next((c for c in nbhd if c.outcome != "pass"), nbhd[0])
    # the quantities are the reported vertex's; say how many were checked
    worst.quantities.update(vertices_checked=len(nbhd), checked_vertices=nbhd_vertices)
    certs.append(worst)

    if q <= 4:
        certs.append(verify_no_k4_in_family(fam, g))

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

def _instance_report(payload):
    q, fname, seed = payload
    g = _worker_graph(q)
    F = load_replacement(fname)
    star = random_block(g, F, seed)
    rep = verify_star_instance(star)
    return {"seed": seed, "k4_free": rep["k4_free"],
            "cliques_triangle_free": rep["cliques_triangle_free"],
            "survival_rate": rep["survival_rate"], "num_edges": rep["num_edges"]}


_GRAPH_CACHE: dict[int, object] = {}


def _worker_graph(q: int):
    if q not in _GRAPH_CACHE:
        _GRAPH_CACHE[q] = build_graph_for_q(q)
    return _GRAPH_CACHE[q]


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    config = _run_config(args)

    if args.alon_k is not None:
        try:
            p = alon_parameters(args.alon_k)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return EXIT_FAIL
        delta = 1.0 if args.delta in (None, "auto") else args.delta_value
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
            dstar = critical_delta(p.ratio)
            report["critical_delta"] = dstar
            qb = quantitative_bound(p.n, p.m, delta=delta, exact_union=args.exact_union)
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

    err = _check_q(args.q)
    if err:
        print(err, file=sys.stderr)
        return EXIT_FAIL
    if args.trials < 1:
        print(f"--trials must be at least 1, got {args.trials}", file=sys.stderr)
        return EXIT_FAIL
    try:
        F = load_replacement(args.F)
    except ConstructionError as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAIL

    g = _worker_graph(args.q)
    payloads = [(args.q, args.F, instance_seed(args.seed, t)) for t in range(args.trials)]
    if args.threads > 1:
        with multiprocessing.Pool(args.threads) as pool:
            inst = pool.map(_instance_report, payloads)
    else:
        inst = [_instance_report(p) for p in payloads]

    rates = np.array([r["survival_rate"] for r in inst])
    expect = 2 * F.m / F.n**2
    stderr = float(rates.std(ddof=1) / np.sqrt(len(rates))) if len(rates) > 1 else float("nan")
    conc = concentration_experiment(
        g, F, trials=min(args.trials, 40), samples_per_trial=25, delta=args.delta_value, seed=args.seed
    )
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
    certs = [
        Certificate(
            claim="random block instances are K4-free",
            params={"q": args.q, "F": args.F, "trials": args.trials, "seed": args.seed},
            quantities={"violations": sum(not r["k4_free"] for r in inst)},
            outcome="pass" if report["all_k4_free"] else "fail",
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

SEARCH_Q_LIMIT = 5  # partner tables scale as m * q^2


def cmd_search(args) -> int:
    err = _check_q(args.q)
    if err:
        print(err, file=sys.stderr)
        return EXIT_FAIL
    if args.q > SEARCH_Q_LIMIT:
        print(f"search supports q <= {SEARCH_Q_LIMIT} (edge-triangle index memory)", file=sys.stderr)
        return EXIT_FAIL
    if args.restarts < 1:
        print(f"--restarts must be at least 1, got {args.restarts}", file=sys.stderr)
        return EXIT_FAIL
    if args.steps < 0:
        print(f"--steps must be at least 0, got {args.steps:g}", file=sys.stderr)
        return EXIT_FAIL
    out = _out_dir(args)
    g = build_graph_for_q(args.q)
    fam = build_family(g)
    schedule = AnnealSchedule(
        initial_temperature=args.t0, cooling=args.cooling, steps=int(args.steps)
    )
    result = anneal(g, fam, schedule, seed=args.seed, restarts=args.restarts)
    stats = random_coloring_stats(fam, trials=max(args.stat_trials, 2), seed=args.seed)
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
    err = _check_q(args.q)
    if err:
        print(err, file=sys.stderr)
        return EXIT_FAIL
    out = _out_dir(args)
    g = build_graph_for_q(args.q)
    fam = build_family(g)
    try:
        coloring = EdgeColoring.from_text(g, Path(args.file).read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read coloring: {exc}", file=sys.stderr)
        return EXIT_FAIL
    cert = adversarial_color_check(fam, coloring)
    _write_certs(out, f"check_coloring_q{args.q}", [cert], _run_config(args))
    print(
        f"{cert.outcome.upper()}: {cert.quantities['monochromatic']} monochromatic "
        f">= bound {cert.quantities['lower_bound']}"
    )
    return _exit_code([cert])


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quasifolkman",
        description="Verification toolkit for Folkman-type properties of unital intersection graphs",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help=f"output directory (or ${OUT_ENV})")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1, help="worker processes for Monte Carlo scans")

    p = sub.add_parser("build", help="construct and export the graph")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("certify", help="full structural + coloring-bound certification")
    common(p)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--samples", type=int, default=1_000_000, help="K4 samples when q > 4")
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
    args = build_parser().parse_args(argv)
    if getattr(args, "command", None) == "simulate":
        raw = args.delta
        try:
            args.delta_value = 0.5 if raw in (None, "auto") else float(raw)
        except ValueError:
            print(f"--delta must be a number or 'auto', got {raw!r}", file=sys.stderr)
            return EXIT_FAIL
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
