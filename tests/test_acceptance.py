"""Acceptance suite: one test per criterion, exact tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 7's fixed 0.2 threshold at q = 9 is kept as stated
even though the certified fraction there is exactly 1/6 (~0.1667): that
check fails by arithmetic necessity, documented in its assertion message;
the trend checks around it pass.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    adj_bits,
    canonical_edges,
    count_mono_triangles_direct,
    enumerate_k4,
    find_k4,
    flip_delta,
    goodman_count_all_triangles,
    goodman_count_direct,
    min_mono_blowup,
    verify_srg_dense,
)
from quasifolkman.blocks import (
    alon_parameters,
    concentration_experiment,
    instance_seed,
    quantitative_bound,
    random_block,
    replacement_registry,
    smallest_valid_alon_k,
)
from quasifolkman.certify import (
    EdgeColoring,
    batch_mono_counts,
    goodman_count,
    quasi_folkman_certificate,
    mono_lower_bound,
)
from quasifolkman.graphs import (
    build_graph_for_q,
    k4_clique_property,
    verify_k4_structure,
    verify_srg,
)
from quasifolkman.plane import build_unital_for_q
from quasifolkman.search import AnnealSchedule, anneal, edge_triangle_index, random_coloring_stats
from quasifolkman.triangles import build_family, family_size_formula, verify_no_k4_in_family

ALL_Q = (2, 3, 4, 5, 7, 8, 9)


def report(num, ok, detail=""):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def g3():
    return build_graph_for_q(3)


@pytest.fixture(scope="module")
def g4():
    return build_graph_for_q(4)


@pytest.fixture(scope="module")
def fam3(g3):
    return build_family(g3)


@pytest.fixture(scope="module")
def fam4(g4):
    return build_family(g4)


def test_criterion_1_unital_cardinalities():
    t0 = time.time()
    for q in ALL_Q:
        u = build_unital_for_q(q)
        assert u.num_points == q**3 + 1, q
        assert u.num_secants == q**4 - q**3 + q**2, q
    elapsed = time.time() - t0
    report(1, elapsed < 60, f"all q in {ALL_Q}, {elapsed:.1f}s")


def test_criterion_2_srg_exhaustive(g3, g4):
    ok = True
    for g, lam, mu in ((g3, 16, 16), (g4, 30, 25)):
        rep = verify_srg(g)
        ok &= rep.passed and rep.lambda_observed == lam and rep.mu_observed == mu
        # the design-identity proof agrees with the exhaustive dense scan
        ok &= verify_srg_dense(g) == (rep.lambda_observed, rep.mu_observed, rep.passed)
        ok &= verify_k4_structure(g, mode="exhaustive").passed
    report(2, ok, "H3 and H4 strongly regular, all items")


def test_criterion_3_k4_structure(g3, g4, fam3, fam4):
    t0 = time.time()
    ok = True
    for g, fam in ((g3, fam3), (g4, fam4)):
        quads = enumerate_k4(g)
        ok &= bool(k4_clique_property(g, quads).all())
        cert = verify_no_k4_in_family(fam, g)
        ok &= cert.passed and cert.quantities["violations"] == 0
    elapsed = time.time() - t0
    report(3, ok and elapsed < 600, f"exhaustive K4 scans, {elapsed:.1f}s")


def test_criterion_4_triangle_family(fam3, fam4):
    ok = (
        fam3.total == 3024
        and len(fam3.triangles) == 3024
        and fam4.total == 41600
        and len(fam4.triangles) == 41600
        and family_size_formula(3) == 3024
        and family_size_formula(4) == 41600
    )
    report(4, ok, "|T_3| = 3024 and |T_4| = 41600, formula == brute force")


def test_criterion_5_goodman_identity(g3, g4, fam3, fam4):
    ok = True
    for g, fam in ((g3, fam3), (g4, fam4)):
        for seed in range(100):
            col = EdgeColoring.random(g, seed)
            if goodman_count(fam, col).monochromatic != goodman_count_direct(fam, col):
                ok = False
                break
    # all-triangle variant on random graphs
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(5, 101))
        p = float(rng.uniform(0.1, 0.9))
        adj = np.zeros((n, n), dtype=bool)
        iu = np.triu_indices(n, 1)
        mask = rng.random(len(iu[0])) < p
        adj[iu[0][mask], iu[1][mask]] = True
        adj |= adj.T
        m = len(canonical_edges(adj)[0])
        colors = rng.integers(0, 2, size=m).astype(bool)
        if goodman_count_all_triangles(adj, colors) != count_mono_triangles_direct(adj, colors):
            ok = False
            break
    report(5, ok, "100 colorings on H3/H4 + 100 random graphs, exact agreement")


def test_criterion_6_certificate_margins():
    c4 = quasi_folkman_certificate(4)
    c3 = quasi_folkman_certificate(3)
    ok = (
        c4.outcome == "pass"
        and c4.margin == 4160
        and c3.outcome == "inconclusive"
        and c3.margin == 0
    )
    report(6, ok, f"L(4) = {c4.margin} (pass), L(3) = {c3.margin} (inconclusive)")


def _fractions_over_q():
    return {q: Fraction(mono_lower_bound(q), family_size_formula(q)) for q in (4, 5, 7, 8, 9)}


def test_criterion_7_fraction_trend_toward_quarter():
    f = _fractions_over_q()
    vals = [f[q] for q in (4, 5, 7, 8, 9)]
    nondecreasing = all(a <= b for a, b in zip(vals, vals[1:]))
    below_quarter = all(v < Fraction(1, 4) for v in vals)
    # far out along q the fraction closes in on 1/4
    tail = Fraction(mono_lower_bound(1009), family_size_formula(1009))
    approaching = abs(tail - Fraction(1, 4)) < Fraction(1, 1000)
    report(
        "7a",
        nondecreasing and below_quarter and approaching,
        f"fractions {[str(v) for v in vals]} nondecreasing, limit 1/4",
    )


def test_criterion_7_fraction_exceeds_point2_at_q9():
    frac9 = Fraction(mono_lower_bound(9), family_size_formula(9))
    # The certified fraction at q = 9 is exactly 1/6 ~ 0.1667; the first q
    # where it passes 0.2 is 16.  The 0.2-by-q-9 target is therefore
    # unattainable; this check records that honestly instead of relaxing it.
    ok = frac9 > Fraction(1, 5)
    print(f"\nACCEPTANCE 7b: {'PASS' if ok else 'FAIL'} fraction(9) = {frac9} vs target > 0.2")
    assert ok, (
        f"fraction at q=9 is exactly {frac9} = {float(frac9):.4f}, below the 0.2 target; "
        "the fraction first exceeds 0.2 at q = 16 "
        f"(fraction(16) = {Fraction(mono_lower_bound(16), family_size_formula(16))})"
    )


def test_criterion_7_random_coloring_quarter(fam3, fam4):
    s3 = random_coloring_stats(fam3, trials=10_000, seed=77)
    s4 = random_coloring_stats(fam4, trials=1_000, seed=78)
    ok = (
        abs(s3.mean_fraction - 0.25) <= 3 * s3.stderr
        and abs(s4.mean_fraction - 0.25) <= 3 * s4.stderr
    )
    report(
        "7c",
        ok,
        f"random fractions {s3.mean_fraction:.5f} (q=3), {s4.mean_fraction:.5f} (q=4)",
    )


def test_criterion_8_blowup_minimum():
    t0 = time.time()
    reg = replacement_registry()
    ok = True
    for name in ("c5", "path4", "edge"):
        F = reg[name]
        for t in (1, 2):
            formula = min_mono_blowup(F, t, mode="formula")
            exhaustive = min_mono_blowup(F, t, mode="exhaustive")  # corner check inside
            ok &= formula == exhaustive == (F.m - F.maxcut) * t * t
    elapsed = time.time() - t0
    report(8, ok and elapsed < 60, f"blowup minima exact, {elapsed:.1f}s")


def test_criterion_9_random_block_h4(g4, fam4):
    reg = replacement_registry()
    ok_k4 = True
    details = []
    for base_seed, name in ((900, "edge"), (901, "c5")):
        F = reg[name]
        rates = []
        for t in range(100):
            star = random_block(g4, F, instance_seed(base_seed, t))
            rates.append(star.alive.mean())
            if find_k4(adj_bits(star), g4.n) is not None:
                ok_k4 = False
        rates = np.array(rates)
        expect = 2 * F.m / F.n**2
        se = rates.std(ddof=1) / math.sqrt(len(rates))
        ok_rate = abs(rates.mean() - expect) <= 3 * se
        conc = concentration_experiment(g4, F, trials=60, samples_per_trial=40, seed=42)
        ok_conc = abs(conc["mean"] - conc["expectation"]) <= 3 * conc["stderr"]
        details.append(f"{name}: rate {rates.mean():.4f}/{expect:.4f}, conc {conc['mean']:.3f}/{conc['expectation']:.3f}")
        assert ok_rate, f"{name}: survival {rates.mean()} vs {expect} (3se = {3 * se})"
        assert ok_conc, f"{name}: concentration {conc['mean']} vs {conc['expectation']}"
    report(9, ok_k4, "; ".join(details))


def test_criterion_10_quantitative_reproduction():
    t0 = time.time()
    p = alon_parameters(7)
    out = quantitative_bound(p.n, p.m, delta=1.0)
    ok = (
        p.n == 2**21
        and p.m == 2**26 * 63
        and smallest_valid_alon_k() == 7
        and 70 - 4 <= out["log2_q"] <= 70 + 4
        and 280 - 16 <= out["log2_f_bound"] <= 280 + 16
    )
    elapsed = time.time() - t0
    report(
        10,
        ok and elapsed < 1.0,
        f"q ~= 2^{out['log2_q']:.1f}, bound ~= 2^{out['log2_f_bound']:.1f}, {elapsed:.2f}s",
    )


def test_criterion_11_search_soundness(g3, fam3, g4, fam4):
    # 32 restarts x 1e6 steps on H4 never beat the certified bound
    res = anneal(
        g4, fam4, AnnealSchedule(initial_temperature=2.0, cooling=0.999995, steps=1_000_000),
        seed=2024, restarts=32,
    )
    ok_bound = res.best.objective >= 4160 and int(res.objectives.min()) >= 4160
    # the seeded run itself, as measured before the loop was compiled
    ok_pinned = res.best.objective == 4181 and res.accepted == 3_730_921

    # 1e5 randomized incremental-vs-recount checks at q=3: the state after
    # every flip is recounted, in batches of 1,000 consecutive states
    part = edge_triangle_index(fam3)
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=g3.m).astype(bool)
    obj = goodman_count(fam3, EdgeColoring(g3, bits)).monochromatic
    edges = rng.integers(0, g3.m, size=100_000)
    ok_delta = True
    for batch in np.split(edges, 100):
        states = np.empty((len(batch), g3.m), dtype=bool)
        tracked = np.empty(len(batch), dtype=np.int64)
        for i, e in enumerate(batch):
            obj += flip_delta(bits, int(e), part)
            bits[e] ^= True
            states[i], tracked[i] = bits, obj
        if not np.array_equal(batch_mono_counts(fam3, states), tracked):
            ok_delta = False
            break
    report(
        11,
        ok_bound and ok_pinned and ok_delta,
        f"anneal best {res.best.objective} >= 4160 with {res.accepted} accepted moves "
        "(pinned: 4181, 3730921); 1e5 flips track recounts exactly",
    )
