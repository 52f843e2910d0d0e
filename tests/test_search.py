import functools
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import batch_deltas, flip_delta, fresh_deltas, goodman_count_direct
from quasifolkman import search
from quasifolkman.certify import EdgeColoring, batch_mono_counts, goodman_count
from quasifolkman.cli import EXIT_PASS, main
from quasifolkman.graphs import build_graph_for_q
from quasifolkman.search import (
    AnnealSchedule,
    anneal,
    edge_triangle_index,
    random_coloring_stats,
)
from quasifolkman.triangles import TriangleFamily, build_family


def oracle_greedy_descent(colors, obj, part):
    """Greedy polish that recomputes every delta of every live chain per
    move, by batch_deltas' rule over the table's two halves.  Returns the
    colorings, the objectives and each chain's move count."""
    k = part.shape[1] // 2
    live = np.ones(colors.shape[0], dtype=bool)
    moves = np.zeros(colors.shape[0], dtype=np.int64)
    while live.any():
        c1 = colors[live][:, part[:, :k]]
        c2 = colors[live][:, part[:, k:]]
        agree = c1 == c2
        ce = colors[live][:, :, None]
        deltas = (agree & (c1 != ce)).sum(axis=2).astype(np.int64) - (agree & (c1 == ce)).sum(axis=2)
        pick = deltas.argmin(axis=1)
        gain = deltas[np.arange(deltas.shape[0]), pick]
        for j, e, d in zip(np.flatnonzero(live), pick, gain):
            if d < 0:
                colors[j, e] ^= True
                obj[j] += d
                moves[j] += 1
            else:
                live[j] = False
    return colors, obj, moves


@pytest.fixture(scope="module")
def setup3():
    g = build_graph_for_q(3)
    fam = build_family(g)
    return g, fam, edge_triangle_index(fam)


@pytest.fixture(scope="module")
def setup4():
    g = build_graph_for_q(4)
    fam = build_family(g)
    return g, fam, edge_triangle_index(fam)


def test_partner_table_shape(setup3):
    g, fam, part = setup3
    assert part.shape == (g.m, 18)
    assert part.dtype == np.int32 and part.flags.c_contiguous


@pytest.mark.parametrize("q", [2, 3, 4])
def test_partner_rows_distinct_symmetric_and_exclude_self(q):
    # the +-1 delta update needs: 2q^2 distinct partners, never the edge
    # itself, and f a partner of e exactly when e is a partner of f
    g = build_graph_for_q(q)
    part = edge_triangle_index(build_family(g)).astype(np.int64)
    assert part.shape == (g.m, 2 * q * q)
    assert (np.diff(np.sort(part, axis=1), axis=1) > 0).all()
    assert (part != np.arange(g.m)[:, None]).all()
    e = np.repeat(np.arange(g.m), 2 * q * q)
    f = part.ravel()
    assert np.array_equal(np.sort(e * g.m + f), np.sort(f * g.m + e))


# hot-stopped schedules: the polish still has hundreds of moves to make
HOT_STOP = {3: (AnnealSchedule(2.0, 0.999, 1_000), 3), 4: (AnnealSchedule(2.0, 0.9997, 30_000), 2)}


@functools.lru_cache(maxsize=None)
def _pre_polish_states(q, seed):
    """The (colors, objectives) a hot-stopped anneal hands to its polish."""
    g = build_graph_for_q(q)
    fam = build_family(g)
    schedule, restarts = HOT_STOP[q]
    captured = []

    def capture(colors, obj, part):
        captured.append((colors.copy(), obj.copy()))
        return colors, obj

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_greedy_descent", capture)
        anneal(g, fam, schedule, seed=seed, restarts=restarts)
    return captured[0]


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_polish_matches_recompute_all_oracle(q, seed, setup3, setup4):
    g, fam, part = setup3 if q == 3 else setup4
    hot, hot_obj = _pre_polish_states(q, seed)
    # chains that stop at different rounds: the hot-stopped ones, their local
    # minima (no move at all) and those minima with a few edges flipped
    minima = oracle_greedy_descent(hot.copy(), hot_obj.copy(), part)[0]
    nudged = minima.copy()
    nudged[:, np.random.default_rng(seed).choice(g.m, 4, replace=False)] ^= True
    colors = np.vstack((hot, minima, nudged))
    obj = batch_mono_counts(fam, colors)
    want_colors, want_obj, moves = oracle_greedy_descent(colors.copy(), obj.copy(), part)
    assert (moves[: len(hot)] > 0).all() and (moves[len(hot) : 2 * len(hot)] == 0).all()
    assert len(set(moves.tolist())) > 2
    for polish in _polishes():
        got_colors, got_obj = polish(colors.copy(), obj.copy(), part)
        assert np.array_equal(got_colors, want_colors)
        assert np.array_equal(got_obj, want_obj)
        assert np.array_equal(batch_mono_counts(fam, got_colors), got_obj)


def _polishes():
    """The polish entry point, which runs the C polish wherever a compiler
    is on PATH, and the numpy polish it falls back to.  The library it loads
    also holds the Goodman count and the edge-list writer."""
    if shutil.which("cc") or shutil.which("gcc"):
        lib = search._load_kernel()
        assert lib is not None, "a C compiler is on PATH but the kernel did not build"
        for symbol in ("anneal_steps", "fill_deltas", "polish", "same_pairs", "edge_lines"):
            assert callable(getattr(lib, symbol)), symbol
    return search._greedy_descent, search._numpy_polish


def test_polish_breaks_ties_to_the_lowest_edge_id(setup3):
    # all red: every edge has delta -q^2, so the tie rule alone picks the
    # first move, edge 0, which the descent never flips back
    g, fam, part = setup3
    colors = np.zeros((1, g.m), dtype=bool)
    assert (fresh_deltas(colors[0], part) == -9).all()
    obj = batch_mono_counts(fam, colors)
    want_colors, want_obj, _ = oracle_greedy_descent(colors.copy(), obj.copy(), part)
    for polish in _polishes():
        got_colors, got_obj = polish(colors.copy(), obj.copy(), part)
        assert np.array_equal(got_colors, want_colors) and np.array_equal(got_obj, want_obj)
        assert got_colors[0, 0]


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_step_deltas_match_oracle(q, seed, setup3, setup4):
    g, fam, part = setup3 if q == 3 else setup4
    colors = _pre_polish_states(q, seed)[0].copy()
    rng = np.random.default_rng(seed)
    rows = np.arange(colors.shape[0])
    for _ in range(200):
        edges = rng.integers(0, g.m, size=colors.shape[0])
        got = search._step_deltas(colors.reshape(-1), rows * g.m, edges, part)
        assert np.array_equal(got, batch_deltas(colors, edges, part))
        colors[rows, edges] ^= rng.random(colors.shape[0]) < 0.5


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), flips=st.lists(st.integers(0, 10**6), min_size=1, max_size=30))
def test_maintained_delta_vector_matches_fresh(setup3, seed, flips):
    g, fam, part = setup3
    bits = np.random.default_rng(seed).integers(0, 2, size=g.m).astype(bool)
    delta = fresh_deltas(bits, part)
    count = goodman_count(fam, EdgeColoring(g, bits)).monochromatic
    for e in (f % g.m for f in flips):
        d = flip_delta(bits, e, part)
        assert d == delta[e]
        # the polish's update: delta(e) negates, and each partner moves by
        # +1 if it had e's old color, by -1 if not
        f = part[e]
        delta[f] += np.where(bits[f] == bits[e], 1, -1)
        delta[e] = -delta[e]
        bits[e] ^= True
        after = goodman_count(fam, EdgeColoring(g, bits)).monochromatic
        assert after - count == d
        count = after
        assert np.array_equal(delta, fresh_deltas(bits, part))


def test_all_red_delta_is_minus_triangle_count(setup3):
    g, fam, part = setup3
    bits = np.zeros(g.m, dtype=bool)
    for e in (0, 17, 500):
        # flipping any edge of an all-red coloring kills exactly the
        # non-degenerate triangles through it
        assert flip_delta(bits, e, part) == -9


def test_flip_twice_nets_zero(setup3):
    g, fam, part = setup3
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=g.m).astype(bool)
    for e in rng.integers(0, g.m, size=20):
        d1 = flip_delta(bits, int(e), part)
        bits[e] ^= True
        d2 = flip_delta(bits, int(e), part)
        bits[e] ^= True
        assert d1 + d2 == 0


def test_deltas_match_recounts(setup3):
    g, fam, part = setup3
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, size=g.m).astype(bool)
    base = goodman_count(fam, EdgeColoring(g, bits)).monochromatic
    for e in rng.integers(0, g.m, size=300):
        d = flip_delta(bits, int(e), part)
        bits[e] ^= True
        after = goodman_count(fam, EdgeColoring(g, bits)).monochromatic
        assert after - base == d
        base = after


def test_anneal_zero_steps_returns_initial(setup3):
    g, fam, _ = setup3
    res = anneal(g, fam, AnnealSchedule(steps=0), seed=3, restarts=2)
    # objective equals the exact count of the returned coloring
    assert res.best.objective == goodman_count(fam, res.best.coloring).monochromatic
    assert res.accepted == 0


def test_anneal_reproducible(setup3):
    g, fam, _ = setup3
    r1 = anneal(g, fam, AnnealSchedule(steps=2000), seed=11, restarts=3)
    r2 = anneal(g, fam, AnnealSchedule(steps=2000), seed=11, restarts=3)
    assert r1.best.objective == r2.best.objective
    assert np.array_equal(r1.best.coloring.bits, r2.best.coloring.bits)
    assert np.array_equal(r1.objectives, r2.objectives)


def test_anneal_improves_over_random(setup3):
    g, fam, _ = setup3
    res = anneal(g, fam, AnnealSchedule(steps=4000), seed=1, restarts=4)
    stats = random_coloring_stats(fam, trials=50, seed=1)
    assert res.best.objective < stats.mean_fraction * fam.total
    # internal revalidation path
    res2 = anneal(g, fam, AnnealSchedule(steps=500), seed=2, restarts=2, revalidate_every=100)
    assert res2.best.objective >= 0


def test_anneal_q4_respects_certified_bound():
    g = build_graph_for_q(4)
    fam = build_family(g)
    res = anneal(g, fam, AnnealSchedule(steps=3000), seed=5, restarts=2)
    assert res.best.objective >= 4160


def test_goodman_counts_stream_their_rows(setup3, tmp_path, monkeypatch):
    # anneal, its partner tables, random_coloring_stats and check-coloring
    # read no Goodman rows: neither the whole matrix nor its blocks
    g, fam, _ = setup3

    def no_rows(self):
        raise AssertionError("Goodman rows built")

    monkeypatch.setattr(TriangleFamily, "clique_edge_matrix", no_rows)
    monkeypatch.setattr(TriangleFamily, "clique_edge_blocks", no_rows)
    res = anneal(g, fam, AnnealSchedule(steps=500), seed=4, restarts=3, revalidate_every=100)
    assert res.best.objective == goodman_count_direct(fam, res.best.coloring)
    random_coloring_stats(fam, trials=2, seed=0)
    path = tmp_path / "coloring.txt"
    path.write_text(res.best.coloring.to_text())
    assert main(["check-coloring", "--q", "3", "--file", str(path), "--out", str(tmp_path / "out")]) == EXIT_PASS
    cert = json.loads((tmp_path / "out" / "check_coloring_q3.json").read_text())["certificates"][0]
    assert cert["quantities"]["monochromatic"] == res.best.objective


def test_random_coloring_stats_q3(setup3):
    g, fam, _ = setup3
    stats = random_coloring_stats(fam, trials=400, seed=9)
    assert abs(stats.mean_fraction - 0.25) <= 3 * stats.stderr
    with pytest.raises(ValueError):
        random_coloring_stats(fam, trials=1, seed=0)
