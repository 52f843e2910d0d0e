"""Heuristic minimization of monochromatic family triangles.

Simulated annealing over single-edge flips, with all restarts evolved in
lockstep as one vectorized batch.  An edge e lies in exactly q^2
non-degenerate triangles (its clique supplies the q^2 - 2 degenerate
thirds), whose other edges are its 2q^2 distinct partners.  A flip of e
makes {e, f1, f2} monochromatic when f1, f2 both differ from e and breaks it
when both match: it changes the objective by delta(e) = #{partners unlike e}
minus q^2.  Two edges share at most one family triangle, so the flip negates
delta(e) and moves delta(f) by +1 for each partner f that had e's old
color, by -1 for the rest.  The tracked objective is revalidated against the
Goodman count.  A final greedy descent flips the best-improving edge until a
local minimum, ties to the lowest edge id: results are bit-reproducible from
(seed, schedule).  The step loop and the descent run in C (_kernel.c) when a
compiler is available, on the same random stream.  There each chain keeps
its delta table, so a step reads delta(e) in O(1), the best coloring is
synced from a journal of the flips made since the last best, and the
descent finds its move at the root of a tournament tree over (delta, id).
The numpy loop and descent are their fallback and their reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from ._kernel import _load_kernel  # search's own name: patching it turns off the anneal kernel alone
from .budget import slices
from .certify import EdgeColoring, batch_mono_counts, mono_lower_bound
from .graphs import IntersectionGraph
from .triangles import TriangleFamily


@dataclass(frozen=True)
class AnnealSchedule:
    initial_temperature: float = 2.0
    cooling: float = 0.9995
    steps: int = 10_000


@dataclass
class SearchState:
    coloring: EdgeColoring
    objective: int


@dataclass
class AnnealResult:
    best: SearchState
    objectives: np.ndarray  # per restart
    accepted: int


def edge_triangle_index(fam: TriangleFamily) -> np.ndarray:
    """Partner table, (m, 2q^2) int32 C-ordered: row e lists, for each
    non-degenerate triangle {u, v, w} on edge e = (u, v), edge (u, w) in its
    first half and (v, w) in its second, each half ascending; the thirds w
    meet u at P_i and v at Q_j (IntersectionGraph.edge_points).  Filled a
    block of clique-major edges at a time, 48 q^2 bytes an edge."""
    g, k = fam.graph, fam.q**2
    table = np.empty((g.m, 2 * k), dtype=np.int32)
    for block in slices(g.m, 48 * k):
        X, _, _, P, Q = g.edge_points(np.arange(block.start, block.stop))
        X = X[:, None, None]
        halves = np.concatenate([g.edge_at(P, X, Q), g.edge_at(Q, X, P)], axis=1)
        halves.reshape(len(X), 2, k).sort(axis=2)
        table[g.clique_edges.ravel()[block]] = halves.reshape(len(X), 2 * k)
    return table


def _step_deltas(flat: np.ndarray, starts: np.ndarray, edges: np.ndarray, part: np.ndarray) -> np.ndarray:
    """delta(edges[j]) in chain j, whose coloring starts at flat[starts[j]]."""
    unlike = flat[starts[:, None] + part[edges]] != flat[starts + edges][:, None]
    return unlike.sum(axis=1) - part.shape[1] // 2


def anneal(
    g: IntersectionGraph,
    fam: TriangleFamily,
    schedule: AnnealSchedule,
    seed: int,
    restarts: int = 1,
    revalidate_every: int = 0,
) -> AnnealResult:
    """Metropolis annealing over edge flips, restarts in lockstep.

    The best coloring per restart is tracked exactly; if the certified lower
    bound is positive, any objective below it is a fatal internal error.
    """
    rng = np.random.default_rng(seed)
    part = edge_triangle_index(fam)
    m = g.m
    colors = rng.integers(0, 2, size=(restarts, m), dtype=np.uint8).astype(bool)
    obj = batch_mono_counts(fam, colors)
    best_obj = obj.copy()
    best_colors = colors.copy()
    kernel = _load_kernel()
    loop = _numpy_loop if kernel is None else functools.partial(_compiled_loop, kernel)
    accepted = loop(rng, fam, part, colors, obj, best_obj, best_colors, schedule, revalidate_every)

    if schedule.steps > 0:
        best_colors, best_obj = _greedy_descent(best_colors, best_obj, part)

    recount = batch_mono_counts(fam, best_colors)
    if not np.array_equal(recount, best_obj):
        raise RuntimeError("tracked best objective diverged from full recount")

    bound = mono_lower_bound(g.q)
    if bound > 0 and best_obj.min() < bound:
        raise RuntimeError(
            f"objective {int(best_obj.min())} below the certified bound {bound}: "
            "this would falsify the counting certificate; internal bug"
        )

    i = int(np.argmin(best_obj))
    best = SearchState(
        coloring=EdgeColoring(g, best_colors[i].copy()), objective=int(best_obj[i])
    )
    return AnnealResult(best=best, objectives=best_obj, accepted=accepted)


def _numpy_loop(rng, fam, part, colors, obj, best_obj, best_colors, schedule, revalidate_every) -> int:
    """The anneal steps in numpy: the fallback without a C compiler, and the
    reference of the compiled loop.  Updates the arrays in place and returns
    the number of accepted moves."""
    restarts, m = colors.shape
    flat = colors.reshape(-1)  # a view: flips through it land in colors
    starts = np.arange(restarts) * m
    temp = schedule.initial_temperature
    accepted = 0

    with np.errstate(over="ignore", under="ignore"):
        for step in range(schedule.steps):
            edges = rng.integers(0, m, size=restarts)
            deltas = _step_deltas(flat, starts, edges, part)
            u = rng.random(restarts)
            accept = (deltas <= 0) | (u < np.exp(-deltas / max(temp, 1e-300)))
            if accept.any():
                flat[(starts + edges)[accept]] ^= True
                obj += deltas * accept
                accepted += int(accept.sum())
                improved = obj < best_obj
                if improved.any():
                    best_obj[improved] = obj[improved]
                    best_colors[improved] = colors[improved]
            temp *= schedule.cooling
            if revalidate_every and (step + 1) % revalidate_every == 0:
                _revalidate(fam, colors, obj)
    return accepted


def _revalidate(fam, colors, obj):
    recount = batch_mono_counts(fam, colors)
    if not np.array_equal(recount, obj):
        raise RuntimeError("incremental objective diverged from full recount")


#: steps per call of the compiled loop; each call takes a table of
#: ANNEAL_CHUNK x (q^2 + 1) accept thresholds and draws ANNEAL_CHUNK x
#: restarts edges and doubles up front.  Longer chunks run each chain
#: longer in cache (at q = 7, 4096 steps beat 1024 by about a quarter),
#: but at q = 4 their 1.5 MB of draws would raise search's peak by 2 %.
ANNEAL_CHUNK = 1024


def _compiled_loop(kernel, rng, fam, part, colors, obj, best_obj, best_colors, schedule, revalidate_every,
                   journal_capacity=None) -> int:
    """_numpy_loop's steps, run by the C kernel in chunks that end at every
    revalidation.  The kernel draws from rng's own bit generator in numpy's
    order, and tests u < exp(-d / T) against a table of numpy's exp values
    for d = 0..q^2, one row per step, so seeded results are bit-identical.
    Each chain's delta table and flip journal (journal_capacity entries,
    m // 8 by default) live across the chunks; the journal starts full, so a
    chain's first new best copies its whole coloring."""
    restarts, m = colors.shape
    if not (obj.dtype == best_obj.dtype == np.int64 and part.dtype == np.int32
            and colors.flags.c_contiguous and best_colors.flags.c_contiguous and part.flags.c_contiguous):
        raise TypeError("the compiled loop needs int64 objectives and a C-ordered int32 table and colorings")
    capacity = m // 8 if journal_capacity is None else journal_capacity
    delta = _kernel_deltas(kernel, colors, part)
    journal = np.empty((restarts, capacity), dtype=np.int32)
    journal_len = np.full(restarts, capacity + 1, dtype=np.int64)
    d = np.arange(part.shape[1] // 2 + 1)
    edges, u = np.empty((ANNEAL_CHUNK, restarts), dtype=np.uint32), np.empty((ANNEAL_CHUNK, restarts))
    arrays = [a.ctypes.data for a in (colors, delta, obj, best_obj, best_colors, journal, journal_len)]
    temp = schedule.initial_temperature
    accepted = step = 0
    while step < schedule.steps:
        n = min(ANNEAL_CHUNK, schedule.steps - step)
        if revalidate_every:
            n = min(n, revalidate_every - step % revalidate_every)
        # the numpy loop's own temp *= cooling sequence
        *temps, temp = accumulate(repeat(schedule.cooling, n), mul, initial=temp)
        with np.errstate(over="ignore", under="ignore"):
            thr = np.exp(-d / np.maximum(temps, 1e-300)[:, None])
        with rng.bit_generator.lock:
            accepted += kernel.anneal_steps(
                rng.bit_generator.ctypes.bit_generator, *arrays, capacity, part.ctypes.data,
                restarts, m, part.shape[1], n, thr.ctypes.data, edges.ctypes.data, u.ctypes.data,
            )
        step += n
        if revalidate_every and step % revalidate_every == 0:
            _revalidate(fam, colors, obj)
    return accepted


def _kernel_deltas(kernel, colors, part):
    """The kernel's delta table of each coloring, int16 (|delta| <= q^2)."""
    delta = np.empty(colors.shape, dtype=np.int16)
    kernel.fill_deltas(colors.ctypes.data, part.ctypes.data, *colors.shape, part.shape[1], delta.ctypes.data)
    return delta


def _greedy_descent(colors, obj, part):
    """Flip each chain's most-improving edge, lowest id on ties, until none
    improves; in the C kernel when it loads, else by _numpy_polish.  Updates
    the arrays in place and returns them."""
    kernel = _load_kernel()
    if kernel is None:
        return _numpy_polish(colors, obj, part)
    chains, m = colors.shape
    if not (obj.dtype == np.int64 and part.dtype == np.int32
            and colors.flags.c_contiguous and part.flags.c_contiguous):
        raise TypeError("the compiled polish needs int64 objectives and a C-ordered int32 table and colorings")
    size = 1 << max(m - 1, 1).bit_length()  # tournament tree leaves: a power of two >= m, >= 2
    delta, tree = np.empty(m, dtype=np.int16), np.empty(size, dtype=np.uint64)
    kernel.polish(colors.ctypes.data, obj.ctypes.data, part.ctypes.data, chains, m, part.shape[1],
                  delta.ctypes.data, tree.ctypes.data, size)
    return colors, obj


def _numpy_polish(colors, obj, part):
    """The greedy descent in numpy: the fallback without a C compiler, and
    the reference of the compiled polish.  Every live chain flips in the same
    round; an edge's partners are distinct and never the edge, so no index
    of the update repeats."""
    delta = np.empty(colors.shape, dtype=np.int32)
    for bits, row in zip(colors, delta):
        row[:] = (bits[part] != bits[:, None]).sum(axis=1) - part.shape[1] // 2
    live = np.arange(colors.shape[0])
    while live.size:
        pick = delta[live].argmin(axis=1)
        gain = delta[live, pick]
        move = gain < 0
        live, pick, gain = live[move], pick[move], gain[move]
        f = part[pick]
        delta[live[:, None], f] += np.where(colors[live[:, None], f] == colors[live, pick][:, None], 1, -1)
        delta[live, pick] = -gain
        colors[live, pick] ^= True
        obj[live] += gain
    return colors, obj


@dataclass
class RandomColoringStats:
    mean_fraction: float
    stderr: float


#: colorings per batch of random_coloring_stats; the shapes of the seeded
#: draws are part of the stream, so another value can change the statistics
RANDOM_STATS_BATCH = 64


def random_coloring_stats(fam: TriangleFamily, trials: int, seed: int) -> RandomColoringStats:
    """Monochromatic fraction of uniform random colorings.

    Each triangle is monochromatic with probability 2 (1/2)^3 = 1/4, so the
    expected fraction is exactly 1/4 for any family."""
    if trials < 2:
        raise ValueError("need at least 2 trials for a standard error")
    rng = np.random.default_rng(seed)
    m = fam.graph.m
    fractions = np.empty(trials, dtype=np.float64)
    done = 0
    while done < trials:
        b = min(RANDOM_STATS_BATCH, trials - done)
        colors = rng.integers(0, 2, size=(b, m), dtype=np.uint8).astype(bool)
        counts = batch_mono_counts(fam, colors)
        fractions[done : done + b] = counts / fam.total
        done += b
    return RandomColoringStats(
        mean_fraction=float(fractions.mean()),
        stderr=float(fractions.std(ddof=1) / np.sqrt(trials)),
    )
