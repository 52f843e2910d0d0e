import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_edges,
    count_mono_triangles_direct,
    flip_delta,
    goodman_count_all_triangles,
    goodman_count_direct,
    maxcut_exhaustive,
    min_mono_edges,
    same_pairs_from_triangles,
    same_sum_from_triangles,
)
from quasifolkman.certify import (
    ColoringFormatError,
    EdgeColoring,
    adversarial_color_check,
    batch_mono_counts,
    clique_min_mono,
    goodman_count,
    maxcut_exact,
    quasi_folkman_certificate,
    mono_lower_bound,
)
from quasifolkman.graphs import build_graph_for_q
from quasifolkman.search import edge_triangle_index
from quasifolkman.triangles import build_family


@pytest.fixture(scope="module")
def setups():
    out = {}
    for q in (2, 3, 4):
        g = build_graph_for_q(q)
        out[q] = (g, build_family(g))
    return out


@pytest.fixture(scope="module")
def partners(setups):
    return {q: edge_triangle_index(fam) for q, (g, fam) in setups.items()}


# -- Goodman counting on the family -------------------------------------

def test_all_red_is_all_monochromatic(setups):
    for q, (g, fam) in setups.items():
        tally = goodman_count(fam, EdgeColoring(g))
        assert tally.monochromatic == fam.total
        assert (tally.same_pairs == comb(q + 1, 2) * (q**3 - q)).all()


def test_goodman_single_triangle_tally():
    # one triangle, one edge blue: same-sum 1, family 1 -> 0 monochromatic
    te = np.array([[0, 1, 2]])
    colors = np.array([False, False, True])
    s = same_sum_from_triangles(te, colors)
    assert s == 1
    assert (s - 1) // 2 == 0


@pytest.mark.parametrize("q,seeds", [(3, 100), (4, 30)])
def test_goodman_formula_vs_direct(setups, q, seeds):
    g, fam = setups[q]
    for seed in range(seeds):
        col = EdgeColoring.random(g, seed)
        assert goodman_count(fam, col).monochromatic == goodman_count_direct(fam, col)


@settings(max_examples=40, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0, 1),
    pick=st.integers(0, 10**6),
)
def test_goodman_count_matches_per_triangle_count_and_flip_delta(setups, partners, q, seed, density, pick):
    g, fam = setups[q]
    bits = np.random.default_rng(seed).random(g.m) < density
    before = goodman_count(fam, EdgeColoring(g, bits)).monochromatic
    assert before == goodman_count_direct(fam, EdgeColoring(g, bits))
    e = pick % g.m
    d = flip_delta(bits, e, partners[q])
    bits[e] ^= True
    after = goodman_count(fam, EdgeColoring(g, bits)).monochromatic
    assert after == goodman_count_direct(fam, EdgeColoring(g, bits))
    assert after - before == d


@pytest.mark.parametrize("q", [3, 4])
def test_same_pairs_match_per_vertex_triangle_count(setups, q):
    g, fam = setups[q]
    for seed in range(5):
        col = EdgeColoring.random(g, seed)
        assert np.array_equal(goodman_count(fam, col).same_pairs, same_pairs_from_triangles(fam, col.bits))


def test_goodman_identities(setups):
    g, fam = setups[3]
    for seed in range(10):
        col = EdgeColoring.random(g, seed)
        tally = goodman_count(fam, col)
        mono = tally.monochromatic
        nonmono = fam.total - mono
        assert int(tally.same_pairs.sum()) == 3 * mono + nonmono
        # color swap leaves the count unchanged
        assert goodman_count(fam, EdgeColoring(g, ~col.bits)).monochromatic == mono


def test_per_vertex_lower_bound(setups):
    g, fam = setups[3]
    bound = (3**3 - 3) * clique_min_mono(3)["integer"]
    for seed in range(5):
        tally = goodman_count(fam, EdgeColoring.random(g, seed))
        assert (tally.same_pairs >= bound).all()


def test_single_clique_brute_force_minimum():
    # same-color pairs of one 2-colored (q+1)-clique, brute force over all colorings
    for q in (2, 3, 4, 5):
        t = q + 1
        best = min(
            sum(1 for i, j in itertools.combinations(range(t), 2) if (mask >> i) & 1 == (mask >> j) & 1)
            for mask in range(1 << t)
        )
        assert best == clique_min_mono(q)["integer"]


def test_batch_matches_scalar(setups):
    g, fam = setups[3]
    cols = np.stack([EdgeColoring.random(g, s).bits for s in range(8)])
    batched = batch_mono_counts(fam, cols)
    singles = [goodman_count(fam, EdgeColoring(g, c)).monochromatic for c in cols]
    assert batched.tolist() == singles


# -- all-triangle variant -------------------------------------------------

def test_k4_all_red():
    adj = ~np.eye(4, dtype=bool)
    colors = np.zeros(6, dtype=bool)
    assert goodman_count_all_triangles(adj, colors) == 4
    assert count_mono_triangles_direct(adj, colors) == 4


def test_k4_all_colorings_match_direct():
    adj = ~np.eye(4, dtype=bool)
    for mask in range(64):
        colors = np.array([(mask >> i) & 1 for i in range(6)], dtype=bool)
        assert goodman_count_all_triangles(adj, colors) == count_mono_triangles_direct(adj, colors)


def test_triangle_free_graph_zero():
    # C5 has no triangles at all
    adj = np.zeros((5, 5), dtype=bool)
    for i in range(5):
        adj[i, (i + 1) % 5] = adj[(i + 1) % 5, i] = True
    for mask in range(32):
        colors = np.array([(mask >> i) & 1 for i in range(5)], dtype=bool)
        assert goodman_count_all_triangles(adj, colors) == 0


def test_random_graphs_match_direct():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        p = rng.uniform(0.1, 0.9)
        adj = np.zeros((n, n), dtype=bool)
        iu = np.triu_indices(n, 1)
        mask = rng.random(len(iu[0])) < p
        adj[iu[0][mask], iu[1][mask]] = True
        adj |= adj.T
        m = len(canonical_edges(adj)[0])
        colors = rng.integers(0, 2, size=m).astype(bool)
        assert goodman_count_all_triangles(adj, colors) == count_mono_triangles_direct(adj, colors)


# -- max-cut ---------------------------------------------------------------

def cycle(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    return adj


def complete(n):
    return ~np.eye(n, dtype=bool)


def test_maxcut_c5():
    cut, side = maxcut_exact(cycle(5))
    assert cut == 4
    assert side.dtype == bool


def test_maxcut_k5_and_min_mono():
    cut, _ = maxcut_exact(complete(5))
    assert cut == 6
    assert min_mono_edges(complete(5)) == 4  # C(3,2) + C(2,2)


def test_maxcut_bipartite_is_m():
    adj = np.zeros((7, 7), dtype=bool)
    for i in range(3):
        for j in range(3, 7):
            adj[i, j] = adj[j, i] = True
    cut, side = maxcut_exact(adj)
    assert cut == 12
    # witness achieves the cut
    u, v = canonical_edges(adj)
    assert int((side[u] != side[v]).sum()) == cut


def test_maxcut_witness_achieves_value():
    rng = np.random.default_rng(3)
    adj = np.zeros((12, 12), dtype=bool)
    iu = np.triu_indices(12, 1)
    mask = rng.random(len(iu[0])) < 0.5
    adj[iu[0][mask], iu[1][mask]] = True
    adj |= adj.T
    cut, side = maxcut_exact(adj)
    u, v = canonical_edges(adj)
    assert int((side[u] != side[v]).sum()) == cut


def test_maxcut_branch_and_bound_agrees():
    rng = np.random.default_rng(9)
    # B&B against exhaustive enumeration on the same graphs
    for n in (10, 14, 17):
        adj = np.zeros((n, n), dtype=bool)
        iu = np.triu_indices(n, 1)
        mask = rng.random(len(iu[0])) < 0.4
        adj[iu[0][mask], iu[1][mask]] = True
        adj |= adj.T
        cut_ex, _ = maxcut_exhaustive(adj)
        cut_bb, side = maxcut_exact(adj)
        assert cut_bb == cut_ex
        u, v = canonical_edges(adj)
        assert int((side[u] != side[v]).sum()) == cut_bb
    # beyond the oracle's reach the witness still achieves the cut
    n = 32
    adj = np.zeros((n, n), dtype=bool)
    iu = np.triu_indices(n, 1)
    mask = rng.random(len(iu[0])) < 0.1
    adj[iu[0][mask], iu[1][mask]] = True
    adj |= adj.T
    cut, side = maxcut_exact(adj)
    u, v = canonical_edges(adj)
    assert int((side[u] != side[v]).sum()) == cut


def test_maxcut_size_limit():
    with pytest.raises(ValueError):
        maxcut_exact(np.zeros((61, 61), dtype=bool) | cycle(61))


def test_min_mono_exhaustive_identity():
    # m - maxcut equals the brute-force minimum of monochromatic edges
    rng = np.random.default_rng(5)
    for trial in range(5):
        n = int(rng.integers(4, 10))
        adj = np.zeros((n, n), dtype=bool)
        iu = np.triu_indices(n, 1)
        mask = rng.random(len(iu[0])) < 0.6
        adj[iu[0][mask], iu[1][mask]] = True
        adj |= adj.T
        u, v = canonical_edges(adj)
        m = len(u)
        brute = min(
            int((np.array([(c >> i) & 1 for i in range(n)])[u] == np.array([(c >> i) & 1 for i in range(n)])[v]).sum())
            for c in range(1 << n)
        )
        assert brute == min_mono_edges(adj)


# -- convexity minimum and certificates -----------------------------------

@pytest.mark.parametrize(
    "q,integer,real,split",
    [
        (3, 2, Fraction(2), (2, 2)),
        (4, 4, Fraction(15, 4), (3, 2)),
        (5, 6, Fraction(6), (3, 3)),
    ],
)
def test_clique_min_mono_values(q, integer, real, split):
    cm = clique_min_mono(q)
    assert cm["integer"] == integer
    assert cm["real"] == real
    assert set(cm["split"]) == set(split)


def test_main_certificate_q4():
    cert = quasi_folkman_certificate(4)
    assert cert.outcome == "pass"
    assert cert.margin == 4160
    assert cert.quantities["fraction_of_family"] == Fraction(1, 10)
    assert cert.quantities["n"] == 208


def test_main_certificate_q3_inconclusive():
    cert = quasi_folkman_certificate(3)
    assert cert.outcome == "inconclusive"
    assert cert.margin == 0
    assert mono_lower_bound(3) == 0
    # per-clique convexity bound holds with equality
    assert cert.quantities["per_clique_lhs_real"] == cert.quantities["per_clique_rhs"]


def test_main_certificate_q5_positive():
    cert = quasi_folkman_certificate(5)
    assert cert.outcome == "pass"
    assert cert.margin == 31500


def test_main_certificate_fraction_limit():
    # fraction approaches 1/4 from below
    f = quasi_folkman_certificate(1009).quantities["fraction_of_family"]
    assert Fraction(0, 1) < f < Fraction(1, 4)
    assert abs(float(f) - 0.25) < 1e-3


def test_adversarial_checks(setups):
    g, fam = setups[4]
    cert = adversarial_color_check(fam, EdgeColoring(g))
    assert cert.outcome == "pass"
    assert cert.quantities["monochromatic"] == 41600
    cert = adversarial_color_check(fam, EdgeColoring.random(g, 1))
    assert cert.outcome == "pass"
    assert cert.quantities["monochromatic"] >= 4160


# -- coloring files ---------------------------------------------------------

def test_coloring_roundtrip(setups):
    g, _ = setups[3]
    col = EdgeColoring.random(g, 11)
    text = col.to_text()
    back = EdgeColoring.from_text(g, text)
    assert np.array_equal(back.bits, col.bits)


@settings(max_examples=30, deadline=None)
@given(q=st.sampled_from([2, 3]), data=st.data())
def test_coloring_text_roundtrip_any_bits(setups, q, data):
    g, _ = setups[q]
    raw = data.draw(st.binary(min_size=-(-g.m // 8), max_size=-(-g.m // 8)))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=g.m).astype(bool)
    back = EdgeColoring.from_text(g, EdgeColoring(g, bits).to_text())
    assert np.array_equal(back.bits, bits)


@pytest.mark.parametrize("q", [2, 3])
def test_coloring_rejects_padding_bit_and_truncated_body(setups, q):
    g, _ = setups[q]
    header, body = EdgeColoring.random(g, 0).to_text().split("\n", 1)
    raw = bytearray(bytes.fromhex(body.replace("\n", "")))
    if g.m % 8:
        raw[-1] |= 0x80  # the last padding bit of the last byte
    else:
        raw.append(1)  # no padding in the last byte: one more byte
    with pytest.raises(ColoringFormatError, match="padding"):
        EdgeColoring.from_text(g, f"{header}\n{raw.hex()}\n")
    with pytest.raises(ColoringFormatError, match="too short"):
        EdgeColoring.from_text(g, f"{header}\n{body.replace(chr(10), '')[:-2]}\n")


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("extra", [1, 500])
def test_coloring_rejects_zero_bytes_past_the_body(setups, q, extra):
    # q = 2 has padding bits in the last byte (m = 78), q = 3 none (m = 1008)
    g, _ = setups[q]
    text = EdgeColoring.random(g, 0).to_text()
    with pytest.raises(ColoringFormatError, match="too long"):
        EdgeColoring.from_text(g, text + "00" * extra + "\n")


def test_coloring_rejects_wrong_graph(setups):
    g3, _ = setups[3]
    g4, _ = setups[4]
    text = EdgeColoring.random(g3, 0).to_text()
    with pytest.raises(ColoringFormatError):
        EdgeColoring.from_text(g4, text)


def test_coloring_rejects_garbage(setups):
    g, _ = setups[3]
    with pytest.raises(ColoringFormatError):
        EdgeColoring.from_text(g, "not a coloring\nzz")
    good = EdgeColoring.random(g, 0).to_text()
    header, body = good.split("\n", 1)
    with pytest.raises(ColoringFormatError):
        EdgeColoring.from_text(g, header + "\nzz!!\n")
