import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    blowup,
    blowup_concentration_log_bound,
    canonical_edges,
    clique_triangle_loop,
    edge_mask,
    edge_tables_sorted,
    find_k4,
    incidence_edge_mask,
    mcdiarmid_bound,
    min_mono_blowup,
    star_from_mask,
    triangle_edge_matrix,
)
from quasifolkman import blocks
from quasifolkman.blocks import (
    AlonParams,
    ConstructionError,
    alon_parameters,
    checked_adj,
    concentration_experiment,
    critical_delta,
    instance_blocks,
    instance_labels,
    instance_seed,
    least_prime_power_at_least,
    load_replacement,
    quantitative_bound,
    random_block,
    replacement_from_edges,
    replacement_registry,
    smallest_valid_alon_k,
    deletion_margin,
    star_instance,
    trial_blocks,
    verify_star_instance,
)
from quasifolkman import budget
from quasifolkman.graphs import build_graph_for_q, row_pairs
from quasifolkman.triangles import build_family


@pytest.fixture(scope="module")
def g3():
    return build_graph_for_q(3)


@pytest.fixture(scope="module")
def fam3(g3):
    return build_family(g3)


# -- replacement graphs ------------------------------------------------------

def test_registry_alphas():
    reg = replacement_registry()
    assert reg["edge"].alpha == 1
    assert reg["path4"].alpha == 1  # bipartite
    assert reg["c5"].alpha == Fraction(4, 5)
    assert reg["petersen"].alpha == Fraction(4, 5)
    assert all(not F.valid_for_margin for F in reg.values())


def test_replacement_rejects_triangle():
    with pytest.raises(ConstructionError):
        replacement_from_edges("k3", 3, [(0, 1), (1, 2), (0, 2)])


def test_load_replacement_file(tmp_path):
    path = tmp_path / "F.txt"
    path.write_text("0 1\n1 2\n2 3\n3 0\n")  # C4
    F = load_replacement(str(path))
    assert F.n == 4 and F.m == 4
    assert F.alpha == 1
    with pytest.raises(ConstructionError):
        load_replacement("no-such-graph")


def test_load_replacement_builds_only_the_named_graph(monkeypatch):
    registry = replacement_registry()
    built = []
    real = blocks.maxcut_exact

    def maxcut_exact(adj):
        built.append(len(adj))
        return real(adj)

    monkeypatch.setattr(blocks, "maxcut_exact", maxcut_exact)
    for name, F in registry.items():
        built.clear()
        assert load_replacement(name) == F
        assert built == [F.n]


def test_load_replacement_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "F.txt"
    path.write_bytes(b"\xff\xfe 0 1\n")
    with pytest.raises(ConstructionError, match="not UTF-8"):
        load_replacement(str(path))


# -- blowups ------------------------------------------------------------------

def test_blowup_counts():
    reg = replacement_registry()
    nt, adj = blowup(reg["c5"], 2)
    assert nt == 10
    assert canonical_edges(adj)[0].shape[0] == 20  # m t^2
    nt1, adj1 = blowup(reg["c5"], 1)
    assert np.array_equal(adj1, reg["c5"].adj)


@pytest.mark.parametrize("name,t,expect", [("c5", 1, 1), ("c5", 2, 4), ("edge", 1, 0), ("edge", 2, 0), ("path4", 1, 0), ("path4", 2, 0)])
def test_min_mono_blowup_exhaustive_matches_formula(name, t, expect):
    F = replacement_registry()[name]
    formula = min_mono_blowup(F, t, mode="formula")
    exhaustive = min_mono_blowup(F, t, mode="exhaustive")
    assert formula == exhaustive == expect


def test_min_mono_blowup_size_limit():
    F = replacement_registry()["petersen"]
    with pytest.raises(ValueError):
        min_mono_blowup(F, 3, mode="exhaustive")


def test_blowup_mono_count_swap_symmetric():
    # monochromatic edge counts are invariant under global color swap
    F = replacement_registry()["c5"]
    nt, adj = blowup(F, 2)
    u, v = canonical_edges(adj)
    rng = np.random.default_rng(1)
    for _ in range(20):
        chi = rng.integers(0, 2, size=nt).astype(bool)
        mono = int((chi[u] == chi[v]).sum())
        swapped = ~chi
        assert int((swapped[u] == swapped[v]).sum()) == mono
        assert mono >= min_mono_blowup(F, 2, mode="formula")


# -- assignments and instances -------------------------------------------------

#: chi-square critical values at p = 1e-6 by degrees of freedom, from
#: scipy.stats.chi2.isf(1e-6, df)
CHI2_CRITICAL = {9: 44.81, 24: 72.23}


def _chi_square(counts):
    expect = counts.sum() / counts.size
    return float(((counts - expect) ** 2).sum() / expect)


@pytest.mark.parametrize("q", [3, 4])
def test_labels_uniform_chi_square(g3, q):
    # each of the 10 Petersen labels is equally likely, and each of the 25
    # label pairs of disjoint member pairs (0, 1), (2, 3), ... of a clique
    g = g3 if q == 3 else build_graph_for_q(q)
    reg = replacement_registry()
    counts = np.zeros(10, dtype=np.int64)
    pairs = np.zeros(25, dtype=np.int64)
    even = g.cliques.shape[1] // 2 * 2
    for t in range(40):
        labels = random_block(g, reg["petersen"], instance_seed(5, t)).labels
        counts += np.bincount(labels.ravel(), minlength=10)
        lu, lv = random_block(g, reg["c5"], instance_seed(6, t)).labels[:, :even].reshape(-1, 2).T
        pairs += np.bincount(lu * 5 + lv, minlength=25)
    assert _chi_square(counts) < CHI2_CRITICAL[9]
    assert _chi_square(pairs) < CHI2_CRITICAL[24]


def test_random_block_reproducible(g3):
    F = replacement_registry()["edge"]
    a = random_block(g3, F, seed=5)
    b = random_block(g3, F, seed=5)
    assert np.array_equal(a.alive, b.alive)
    c = random_block(g3, F, seed=6)
    assert not np.array_equal(a.alive, c.alive)


def _assert_matches_incidence_oracle(g, F, seed):
    star = random_block(g, F, seed)
    assert star.labels.shape == g.cliques.shape and star.labels.dtype == np.int32
    assert star.labels.min() >= 0 and star.labels.max() < F.n
    assert star.alive.shape == g.clique_edges.shape and star.alive.dtype == bool
    assert np.array_equal(edge_mask(star), incidence_edge_mask(g, F, star.labels))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["edge", "c5", "petersen"])
def test_random_block_matches_incidence_oracle(g3, q, name):
    g = g3 if q == 3 else build_graph_for_q(q)
    F = replacement_registry()[name]
    for t in range(20):
        _assert_matches_incidence_oracle(g, F, instance_seed(11, t))


def test_random_block_gathers_label_pairs_by_block(monkeypatch):
    # at q = 7 a 2^18-byte budget takes 14 cliques per block, 25 blocks in
    # all; one gather of every clique would peak 5 MB above the result
    g = build_graph_for_q(7)
    F = replacement_registry()["c5"]
    monkeypatch.setattr(budget, "BLOCK_BYTES", 1 << 18)
    random_block(g, F, 1)  # first calls allocate lasting caches
    tracemalloc.start()
    try:
        star = random_block(g, F, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= star.labels.nbytes + star.alive.nbytes + 2 * budget.BLOCK_BYTES
    assert np.array_equal(star.alive.ravel(), F.adj[row_pairs(star.labels)])


@pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1])
def test_random_block_masks_seeds_to_64_bits(g3, seed):
    # the generator is seeded with the seed mod 2^64
    F = replacement_registry()["c5"]
    a, b = random_block(g3, F, seed), random_block(g3, F, seed % 2**64)
    assert np.array_equal(a.labels, b.labels) and np.array_equal(a.alive, b.alive)
    assert not np.array_equal(a.labels, random_block(g3, F, seed - 1).labels)


def _block_pass(g, F, seeds):
    """Every block of instance_blocks, joined."""
    return tuple(map(np.concatenate, zip(*instance_blocks(g, checked_adj(F), seeds))))


@pytest.mark.parametrize("block", [None, 1 << 12])
@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("name", ["edge", "c5", "petersen"])
def test_instance_blocks_match_the_loop_oracle_and_one_instance(monkeypatch, g3, q, name, block):
    # a 4 KB budget takes one instance a block of trials and, but at q = 2
    # with F = edge or c5, splits it over its cliques, 1 to 7 of them a block
    if block is not None:
        monkeypatch.setattr(budget, "BLOCK_BYTES", block)
    g = g3 if q == 3 else build_graph_for_q(q)
    F = replacement_registry()[name]
    seeds = [instance_seed(7, t) for t in range(5 if q == 4 else 9)]
    labels, edges, free = _block_pass(g, F, seeds)
    for seed, lab, num, ok in zip(seeds, labels, edges, free):
        star = random_block(g, F, seed)
        assert np.array_equal(lab, star.labels)
        mask = incidence_edge_mask(g, F, lab)
        assert num == star.alive.sum() == mask.sum()
        assert num / g.m == star.alive.mean()
        assert ok == (clique_triangle_loop(star_from_mask(g, mask)) is None)


#: the bytes one clique of a q = 3 c5 instance touches in the pass
Q3_ROW = blocks._pass_row_bytes(9, 5)


@pytest.mark.parametrize("where, block, sizes", [
    ("first", None, [7]), ("middle", None, [7]), ("last", None, [7]),
    # 3 instances of 28 cliques a block: the last block holds one instance
    ("ragged", 3 * 28 * Q3_ROW, [3, 3, 1]),
    # 10 cliques a block, so each instance is split over three
    ("split", 10 * Q3_ROW, [1] * 7),
])
def test_instance_blocks_catch_a_planted_clique_triangle(monkeypatch, g3, where, block, sizes):
    if block is not None:
        monkeypatch.setattr(budget, "BLOCK_BYTES", block)
    F = replacement_registry()["c5"]
    seeds = [instance_seed(3, t) for t in range(7)]
    assert [b.stop - b.start for b in trial_blocks(g3, F.n, len(seeds))] == sizes
    target = {"first": 0, "middle": 3, "last": 6, "ragged": 6, "split": 4}[where]
    point = 17  # in the second of the split instance's three blocks
    real, planted = blocks.clique_adjacency, []
    row = instance_labels(g3, F.n, seeds[target])[point]

    def clique_adjacency(adj, labels, out=None):
        A = real(adj, labels, out)
        for r in np.flatnonzero((labels == row).all(axis=1)):
            A[r, 0, 1] = A[r, 1, 0] = A[r, 0, 2] = A[r, 2, 0] = A[r, 1, 2] = A[r, 2, 1] = 1
            planted.append(r)
        return A

    monkeypatch.setattr(blocks, "clique_adjacency", clique_adjacency)
    labels, edges, free = _block_pass(g3, F, seeds)
    assert len(planted) == 1
    assert free.tolist() == [t != target for t in range(len(seeds))]
    star = star_instance(g3, F, checked_adj(F), seeds[target], labels[target])
    assert edges[target] == star.alive.sum()
    want = (point, *g3.cliques[point, :3].tolist())
    assert verify_star_instance(star)["clique_triangle"] == clique_triangle_loop(star) == want


def test_star_instance_checks(g3, fam3):
    F = replacement_registry()["edge"]
    star = random_block(g3, F, seed=1)
    rep = verify_star_instance(star)
    assert rep["k4_free"], rep["k4_witness"]
    assert rep["cliques_triangle_free"]
    # surviving triangles are exactly the family triangles with live edges
    mask = edge_mask(star)
    surviving_family_triangles = int(mask[triangle_edge_matrix(fam3)].all(axis=1).sum())
    a = np.zeros((g3.n, g3.n), dtype=np.int64)
    eu, ev, _ = edge_tables_sorted(g3)
    a[eu[mask], ev[mask]] = 1
    a += a.T
    surviving_triangles_direct = int(np.trace(a @ a @ a) // 6)
    assert surviving_family_triangles == surviving_triangles_direct


def test_star_survival_rate_near_expectation(g3):
    F = replacement_registry()["edge"]
    rates = [random_block(g3, F, instance_seed(0, t)).alive.mean() for t in range(60)]
    rates = np.array(rates)
    expect = 2 * F.m / F.n**2  # 1/2
    stderr = rates.std(ddof=1) / math.sqrt(len(rates))
    assert abs(rates.mean() - expect) <= 3 * stderr + 1e-12


def test_star_c5_survival(g3):
    F = replacement_registry()["c5"]
    rates = np.array(
        [random_block(g3, F, instance_seed(3, t)).alive.mean() for t in range(60)]
    )
    expect = 2 * 5 / 25  # 0.4
    stderr = rates.std(ddof=1) / math.sqrt(len(rates))
    assert abs(rates.mean() - expect) <= 3 * stderr + 1e-12


def test_expected_surviving_triangles(g3, fam3):
    F = replacement_registry()["edge"]
    counts = []
    for t in range(60):
        star = random_block(g3, F, instance_seed(9, t))
        te = triangle_edge_matrix(fam3)
        counts.append(int(edge_mask(star)[te].all(axis=1).sum()))
    counts = np.array(counts, dtype=float)
    expect = (2 * F.m / F.n**2) ** 3 * fam3.total  # (1/2)^3 * 3024
    stderr = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - expect) <= 3 * stderr


def test_find_k4_positive_control():
    rows = [0] * 5
    for u in range(4):
        for v in range(4):
            if u != v:
                rows[u] |= 1 << v
    assert find_k4(rows, 5) == (0, 1, 2, 3)
    rows[0] &= ~(1 << 1)
    rows[1] &= ~(1 << 0)
    assert find_k4(rows, 5) is None


# -- concentration -----------------------------------------------------------

def test_concentration_experiment(g3):
    F = replacement_registry()["edge"]
    rep = concentration_experiment(g3, F, trials=40, samples_per_trial=25, delta=1.0, seed=2)
    assert rep["expectation"] == pytest.approx(2 * 1 * 4 / 8)  # (q+1)/4 = 1.0
    assert abs(rep["mean"] - rep["expectation"]) <= 3 * rep["stderr"]
    assert rep["vacuous"] is False
    rep5 = concentration_experiment(g3, replacement_registry()["c5"], trials=10, samples_per_trial=10, seed=3)
    assert rep5["vacuous"] is True  # 2*5*4/125 < 1


def test_concentration_requires_trials(g3):
    with pytest.raises(ValueError):
        concentration_experiment(g3, replacement_registry()["edge"], trials=0)


# -- bounded differences -----------------------------------------------------

def test_mcdiarmid_vacuous_at_zero_delta():
    bound, log_bound = mcdiarmid_bound(5.0, [1.0] * 4, 0.0)
    assert bound == pytest.approx(2.0)
    assert log_bound == pytest.approx(math.log(2.0))


def test_mcdiarmid_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = int(rng.integers(2, 50))
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n * (n - 1) // 2 + 1))
        delta = float(rng.uniform(0.01, 1.0))
        expectation = 2 * m * (q + 1) / n**3
        _, log_bound = mcdiarmid_bound(expectation, [1.0] * (3 * (q + 1)), delta)
        assert log_bound == pytest.approx(blowup_concentration_log_bound(q, n, m, delta), rel=1e-12)


def test_mcdiarmid_monotone():
    b1, _ = mcdiarmid_bound(5.0, [1.0] * 4, 0.2)
    b2, _ = mcdiarmid_bound(5.0, [1.0] * 4, 0.4)
    b3, _ = mcdiarmid_bound(10.0, [1.0] * 4, 0.2)
    assert b2 < b1 and b3 < b1
    # doubling E scales the exponent by 4
    _, l1 = mcdiarmid_bound(5.0, [1.0] * 4, 0.2)
    _, l2 = mcdiarmid_bound(10.0, [1.0] * 4, 0.2)
    assert (l2 - math.log(2)) == pytest.approx(4 * (l1 - math.log(2)))


# -- margin ------------------------------------------------------------------

def test_critical_delta_alpha_half():
    expect = (math.sqrt(3) - math.sqrt(2)) / (math.sqrt(3) + math.sqrt(2))
    assert critical_delta(0.5) == pytest.approx(expect)
    assert critical_delta(0.5) == pytest.approx(0.101, abs=5e-4)


def test_margin_positive_at_zero_delta():
    cert = deletion_margin(q=4, n=100, m=300, alpha=Fraction(1, 2), delta=0)
    assert cert.outcome == "pass"
    assert cert.margin > 0


def test_margin_boundary_alpha_two_thirds_rejected():
    with pytest.raises(ConstructionError):
        deletion_margin(q=4, n=10, m=20, alpha=Fraction(2, 3), delta=0)


def test_margin_zero_just_below_boundary():
    # margin at delta = 0 is proportional to (1 - alpha) - 1/3
    cert = deletion_margin(q=4, n=10, m=20, alpha=Fraction(2, 3) - Fraction(1, 10**9), delta=0)
    assert cert.outcome == "pass"
    assert 0 < cert.margin < 1


def test_margin_sign_flips_past_critical_delta():
    alpha = Fraction(1, 2)
    dstar = critical_delta(alpha)
    assert deletion_margin(4, 100, 300, alpha, Fraction(9, 100)).outcome == "pass"
    assert deletion_margin(4, 100, 300, alpha, Fraction(11, 100)).outcome == "fail"
    assert 0.09 < dstar < 0.11


# -- pseudorandom parameters and the quantitative bound ------------------------

def test_alon_k7():
    p = alon_parameters(7)
    assert p.n == 2**21
    assert p.m == 2**26 * 63
    assert p.valid
    assert p.ratio == pytest.approx(0.647, abs=2e-3)


def test_alon_invalid_ks():
    for k in (2, 4, 5):
        assert not alon_parameters(k).valid
    # at k = 1 the graphs have no edges, so no max-cut ratio
    with pytest.raises(ValueError):
        alon_parameters(1)
    with pytest.raises(ValueError):
        alon_parameters(3)
    with pytest.raises(ValueError):
        alon_parameters(6)


def test_smallest_valid_k_is_7():
    assert smallest_valid_alon_k() == 7


def test_prime_power_search():
    assert least_prime_power_at_least(100) == 101
    assert least_prime_power_at_least(121) == 121  # 11^2
    assert least_prime_power_at_least(126) == 127
    assert least_prime_power_at_least(2) == 2


def test_quantitative_bound_order_of_magnitude():
    p = alon_parameters(7)
    out = quantitative_bound(p.n, p.m, delta=1.0)
    assert 66 <= out["log2_q"] <= 74  # within 2^4 of 2^70
    assert 264 <= out["log2_f_bound"] <= 296  # within 2^16 of 2^280
    exact = quantitative_bound(p.n, p.m, delta=1.0, exact_union=True)
    assert exact["q"] <= out["q"]


def test_quantitative_bound_monotone_in_m():
    p = alon_parameters(7)
    out1 = quantitative_bound(p.n, p.m, delta=1.0)
    out2 = quantitative_bound(p.n, 2 * p.m, delta=1.0)
    assert out2["q"] < out1["q"]


def test_quantitative_bound_delta_raises_q():
    p = alon_parameters(7)
    big = quantitative_bound(p.n, p.m, delta=0.5)
    assert big["q"] > quantitative_bound(p.n, p.m, delta=1.0)["q"]
    with pytest.raises(ValueError):
        quantitative_bound(p.n, p.m, delta=0.0)
