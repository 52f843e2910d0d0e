"""Random block construction: blowups, assignments, and the margin math.

Each point clique is replaced by a random blowup of a fixed triangle-free
replacement graph F: every (vertex, clique) incidence independently draws a
uniform label in [n], and an edge survives iff its endpoints' labels in the
edge's clique form an edge of F.  Blowups of a triangle-free graph are
triangle-free, so every K4 dies; each original edge survives with
probability 2m/n^2.

The Ramsey margin survives the deletion when maxcut(F) < (2/3)|E(F)|: a
two-colored blowup keeps at least (1-alpha) m t^2 monochromatic edges
(multilinearity pushes the minimum to corner colorings), and the
concentration of the surviving spanning-clique blocks around 2m(q+1)/n^3
(bounded differences over 3(q+1) unit-effect variables) turns that into a
positive monochromatic-triangle bound for large q.  No known small F beats
alpha = 2/3, so at desk scale the margin arithmetic is validated through
the formula path while the construction itself is validated by Monte Carlo.

The Monte Carlo draws and tests its instances a block of trials at a time
(instance_blocks): each instance's labels come from its own generator, and
the rows of the block, (instance, clique) pairs, go through the surviving
edge gather and the clique-triangle test together, in blocks of the one
budget, so an instance larger than a block is split over its cliques.  The
concentration sample reads the labels the pass drew.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budget import slices
from .certificates import Certificate
from .certify import BNB_MAXCUT_LIMIT, maxcut_exact
from .graphs import (
    IntersectionGraph,
    common_neighbors,
    edge_rows,
    extend_cliques,
    k4_clique_property,
    row_pairs,
    scan_bytes,
    triu_pairs,
)


class ConstructionError(ValueError):
    pass


# ----------------------------------------------------------------------
# Replacement graphs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ReplacementGraph:
    """Triangle-free replacement graph with its exact max-cut ratio."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    maxcut: int
    alpha: Fraction

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adj(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges:
            a[u, v] = a[v, u] = True
        return a

    @property
    def valid_for_margin(self) -> bool:
        return self.alpha < Fraction(2, 3)


def _has_triangle(adj: np.ndarray) -> bool:
    a = adj.astype(np.int64)
    return bool(np.trace(a @ a @ a) > 0)


def replacement_from_edges(name: str, n: int, edges) -> ReplacementGraph:
    """Verify triangle-freeness and compute alpha exactly; never trust input."""
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    if len(set(edges)) != len(edges):
        raise ConstructionError("duplicate edges in replacement graph")
    if any(u == v or u < 0 or v >= n for u, v in edges):
        raise ConstructionError("edge endpoints out of range")
    if n > BNB_MAXCUT_LIMIT:
        raise ConstructionError(
            f"replacement graph {name!r} has {n} vertices; "
            f"its exact max cut supports at most {BNB_MAXCUT_LIMIT}"
        )
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    if _has_triangle(adj):
        raise ConstructionError(f"replacement graph {name!r} contains a triangle")
    if not edges:
        raise ConstructionError("replacement graph needs at least one edge")
    cut, _ = maxcut_exact(adj)
    return ReplacementGraph(
        name=name, n=n, edges=edges, maxcut=cut, alpha=Fraction(cut, len(edges))
    )


def _petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


#: the named replacement graphs, as (vertices, edges); each is built and
#: checked, with its exact max cut, only when asked for
_REGISTRY = {
    "edge": (2, [(0, 1)]),
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "c5": (5, [(i, (i + 1) % 5) for i in range(5)]),
    "petersen": (10, _petersen_edges()),
}


def replacement_registry() -> dict[str, ReplacementGraph]:
    return {name: replacement_from_edges(name, n, edges) for name, (n, edges) in _REGISTRY.items()}


def load_replacement(name_or_path: str) -> ReplacementGraph:
    """Registry name, or a path to an edge-list file (one 'u v' per line)."""
    if name_or_path in _REGISTRY:
        return replacement_from_edges(name_or_path, *_REGISTRY[name_or_path])
    try:
        with open(name_or_path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConstructionError(f"unknown replacement graph {name_or_path!r}") from exc
    except UnicodeDecodeError:
        raise ConstructionError(f"replacement graph file {name_or_path!r} is not UTF-8 text") from None
    edges = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            u, v = (int(t) for t in line.split())
        except ValueError:
            raise ConstructionError(
                f"{name_or_path}:{lineno}: expected two integers 'u v', got {line.strip()!r}"
            ) from None
        edges.append((u, v))
    if not edges:
        raise ConstructionError(f"replacement graph file {name_or_path!r} lists no edges")
    n = 1 + max(max(e) for e in edges)
    return replacement_from_edges(name_or_path, n, edges)


# ----------------------------------------------------------------------
# Random assignments and star instances
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _hash64(*parts: int) -> int:
    data = b"".join(struct.pack("<Q", p & _MASK64) for p in parts)
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def instance_seed(seed: int, trial: int) -> int:
    return _hash64(seed, 0xB10C, trial)


@dataclass
class StarGraph:
    """One instance of the construction: its labels and surviving edges, in clique layout."""

    base: IntersectionGraph
    F: ReplacementGraph
    seed: int
    labels: np.ndarray  # (q^3+1, q^2), aligned with base.cliques
    alive: np.ndarray  # (q^3+1, C(q^2, 2)) bool, each clique's pairs in triu order


def checked_adj(F: ReplacementGraph) -> np.ndarray:
    """F's adjacency matrix, once checked triangle-free."""
    adj = F.adj
    if _has_triangle(adj):
        raise ConstructionError("replacement graph must be triangle-free")
    return adj


def instance_labels(g: IntersectionGraph, n: int, seed: int) -> np.ndarray:
    """One instance's labels in [n], in clique layout: one draw of every
    label from the instance's own generator, seeded with seed mod 2^64."""
    return np.random.default_rng(int(seed) & _MASK64).integers(n, size=g.cliques.shape, dtype=np.int32)


def clique_adjacency(adj: np.ndarray, labels: np.ndarray, out=None) -> np.ndarray:
    """The surviving edges among each label row's k positions, as a
    (rows, k, k) float32 0/1 matrix: an edge survives iff the labels at its
    two positions in its clique form an edge of F.

    With X the one-hot matrix of a row's labels, the matrix is
    adj[labels] @ X^T; each entry sums one product, so it is exact.  out,
    if given, is three float32 buffers of at least len(labels) rows,
    (rows, k, n) twice and (rows, k, k), which it fills and returns the
    last of."""
    n, rows = len(adj), len(labels)
    gathers, A = (None, None), None
    if out is not None:
        gathers, A = [buf[:rows] for buf in out[:2]], out[2][:rows]
    # labels lie in [0, n), so clipping never moves one; unlike the default
    # mode it writes straight into out
    idx = labels.astype(np.intp)
    Y = np.take(adj.astype(np.float32), idx, axis=0, out=gathers[0], mode="clip")
    X = np.take(np.eye(n, dtype=np.float32), idx, axis=0, out=gathers[1], mode="clip")
    return np.matmul(Y, X.transpose(0, 2, 1), out=A)


def star_instance(g: IntersectionGraph, F: ReplacementGraph, adj: np.ndarray, seed: int,
                  labels: np.ndarray) -> StarGraph:
    """The instance with these labels; adj is checked_adj(F)."""
    k = labels.shape[1]
    iu, iv = triu_pairs(k)
    alive = np.empty((len(labels), math.comb(k, 2)), dtype=bool)
    # per clique: its labels as intp and the one-hot gathers (8 k + 8 k n),
    # the float32 matrix (4 k^2), and its pairs, a float32 and a bool each
    for block in slices(len(labels), 8 * k + 8 * k * len(adj) + 4 * k * k + 5 * len(iu)):
        alive[block] = clique_adjacency(adj, labels[block])[:, iu, iv] != 0
    return StarGraph(base=g, F=F, seed=seed, labels=labels, alive=alive)


def random_block(g: IntersectionGraph, F: ReplacementGraph, seed: int) -> StarGraph:
    """Draw one instance; per-edge survival probability is 2m/n^2."""
    return star_instance(g, F, checked_adj(F), seed, instance_labels(g, F.n, seed))


def _first_k4(words: np.ndarray, tris: np.ndarray) -> tuple[int, int, int, int] | None:
    """The first triangle with a common neighbour, extended by the lowest
    one.  Every common neighbour of that triangle lies above its last
    vertex: one below would give an earlier triangle that has one."""
    for block in slices(len(tris), scan_bytes(words)):
        part = tris[block]
        hit = np.flatnonzero(common_neighbors(words, part).any(axis=1))
        if len(hit):
            return tuple(map(int, extend_cliques(words, part[hit[:1]])[0]))
    return None


def verify_star_instance(star: StarGraph) -> dict:
    """Per-instance checks: K4-freeness and no triangle inside any point
    clique.

    The surviving edges stream in blocks through the clique-extension scan,
    so triangles come in lexicographic order and are never all held at once.
    The clique-triangle witness (point, a, b, c) is the first concurrent
    triangle; the K4 witness is the first triangle with a common neighbour,
    which is the lexicographically first K4 (a triangle before it with one
    would give an earlier K4)."""
    g = star.base
    # the surviving member pairs of the cliques, a block of cliques at a
    # time (per member pair: the two int32 members, their stack, its intp
    # mask index and the kept pair, 32 bytes), in lexicographic order
    edges = np.concatenate([np.stack(row_pairs(g.cliques[block]), axis=1)[star.alive[block].ravel()]
                            for block in slices(len(g.cliques), 32 * star.alive.shape[1])])
    edges = edges[np.argsort(edges[:, 0].astype(np.int64) * g.n + edges[:, 1])]
    words = edge_rows(g.n, edges[:, 0], edges[:, 1])
    k4 = clique_triangle = None
    for block in slices(len(edges), scan_bytes(words)):
        tris = extend_cliques(words, edges[block])
        if clique_triangle is None:
            conc = np.flatnonzero(k4_clique_property(g, tris))
            if len(conc):
                a, b, c = map(int, tris[conc[0]])
                # a and b meet at their one common point
                meet = np.intersect1d(g.vertex_cliques[a], g.vertex_cliques[b], assume_unique=True)
                clique_triangle = (int(meet[0]), a, b, c)
        if k4 is None:
            k4 = _first_k4(words, tris)
        if k4 is not None and clique_triangle is not None:
            break
    return {
        "k4_witness": k4,
        "k4_free": k4 is None,
        "clique_triangle": clique_triangle,
        "cliques_triangle_free": clique_triangle is None,
    }


def clique_triangles(A: np.ndarray, out=None) -> np.ndarray:
    """Which of the (rows, k, k) symmetric 0/1 float32 matrices hold a
    triangle; out, if given, is a float32 buffer shaped like A.

    A path i-j-l adds 1 to (A @ A)[i, l] and A[i, l] closes it, so A holds
    a triangle iff (A @ A) * A has a nonzero entry.  The entries are at most
    k, exact in float32."""
    AA = np.matmul(A, A, out=out)
    AA *= A
    return AA.any(axis=(1, 2))


def _pass_row_bytes(k: int, n: int) -> int:
    """The bytes one (instance, clique) row of the pass touches: its labels,
    drawn, stacked and as intp (16 k); its one-hot gathers (8 k n) and A and
    A @ A (8 k^2), float32; its edge count and verdict."""
    return 16 * k + 8 * k * n + 8 * k * k + 14


def trial_blocks(g: IntersectionGraph, n: int, trials: int):
    """Consecutive slices of range(trials), each as many whole instances
    with labels in [n] as one block's budget holds, and at least one."""
    npts, k = g.cliques.shape
    return slices(trials, npts * _pass_row_bytes(k, n))


def instance_blocks(g: IntersectionGraph, adj: np.ndarray, seeds):
    """Draw and test the instances of seeds, one per seed, a block of trials
    (trial_blocks) at a time; adj is checked_adj(F).

    Yields each block's labels, (instances, q^3+1, q^2) int32, surviving
    edge counts, and whether each instance is clique-triangle-free.  The
    rows are (instance, clique) pairs, stacked instance-major.  The
    surviving edges and the clique test take them a block at a time, in
    float32 buffers that every block reuses, so an instance larger than one
    block is split over its cliques."""
    npts, k = g.cliques.shape
    n = len(adj)
    work = None
    for trials in trial_blocks(g, n, len(seeds)):
        labels = np.concatenate([instance_labels(g, n, seed) for seed in seeds[trials]])
        edges = np.empty(len(labels), dtype=np.int64)
        triangle = np.empty(len(labels), dtype=bool)
        for rows in slices(len(labels), _pass_row_bytes(k, n)):
            if work is None:  # the first block of rows is the longest
                size = rows.stop - rows.start
                work = [np.empty((size, k, n), dtype=np.float32) for _ in range(2)] + [
                    np.empty((size, k, k), dtype=np.float32) for _ in range(2)]
            A = clique_adjacency(adj, labels[rows], work)
            edges[rows] = A.sum(axis=(1, 2)) // 2
            triangle[rows] = clique_triangles(A, work[3][:len(A)])
        yield (labels.reshape(-1, npts, k), edges.reshape(-1, npts).sum(axis=1),
               ~triangle.reshape(-1, npts).any(axis=1))


# ----------------------------------------------------------------------
# Concentration experiment
# ----------------------------------------------------------------------

def concentration_experiment(
    g: IntersectionGraph,
    F: ReplacementGraph,
    trials: int,
    samples_per_trial: int = 50,
    delta: float = 0.5,
    seed: int = 0,
    labels=None,
) -> dict:
    """Measure |V_i(C) ∩ N*(v)| over sampled (v, spanning clique, label)
    triples across independent instances and compare with 2m(q+1)/n^3.

    labels are the first trials instances' labels, as instance_blocks
    gives them; without them each is drawn from instance_labels."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    q = g.q
    adj = checked_adj(F)
    if labels is None:
        labels = (instance_labels(g, F.n, instance_seed(seed, t)) for t in range(trials))
    rng = np.random.default_rng(seed)
    expectation = 2 * F.m * (q + 1) / F.n**3
    values = []
    for lab in labels:
        vs = rng.integers(0, g.n, size=samples_per_trial)
        cliq = rng.integers(0, q**3 - q, size=samples_per_trial)
        draw = rng.integers(0, F.n, size=samples_per_trial)
        # spanning clique cliq of v lives at v's cliq-th off point P; its
        # member through P and v's point A sits at pos[P, A] and meets v in
        # A's clique: it at pos[A, P], v at its own position at[v]
        point = g.off_points(vs)[np.arange(samples_per_trial), cliq][:, None]
        pts = g.vertex_cliques[vs]
        alive = adj[lab[pts, g.at[vs]], lab[pts, g.pos[pts, point]]]
        values.append((alive & (lab[point, g.pos[point, pts]] == draw[:, None])).sum(axis=1))
    if len(values) != trials:
        raise ValueError(f"labels of {len(values)} instances for {trials} trials")
    values = np.concatenate(values).astype(np.float64)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else float("nan")
    lo_w = (1 - delta) * expectation
    hi_w = (1 + delta) * expectation
    within = float(((values >= lo_w) & (values <= hi_w)).mean())
    return {
        "q": q,
        "F": F.name,
        "trials": trials,
        "samples": int(len(values)),
        "expectation": expectation,
        "mean": mean,
        "stderr": stderr,
        "delta": delta,
        "within_window_fraction": within,
        "vacuous": expectation < 1.0,
    }


# ----------------------------------------------------------------------
# The deletion margin
# ----------------------------------------------------------------------

def critical_delta(alpha) -> float:
    """Largest delta with (1-d)^2 (1-alpha) > (1+d)^2 / 3, for alpha < 2/3."""
    a = float(alpha)
    if a >= 2.0 / 3.0:
        raise ConstructionError("alpha must be < 2/3")
    r = math.sqrt(3.0 * (1.0 - a))
    return (r - 1.0) / (r + 1.0)


def deletion_margin(q: int, n: int, m: int, alpha, delta) -> Certificate:
    """Exact evaluation of the deletion-construction monochromatic margin:

    (1/2) n_V [ (1-a) m (q^3-q) ((1-d) 2m(q+1)/n^3)^2
                - (1/3) m (q^3-q) ((1+d) 2m(q+1)/n^3)^2 ].
    """
    alpha = Fraction(alpha)
    if alpha >= Fraction(2, 3):
        raise ConstructionError(f"alpha = {alpha} >= 2/3: construction invalid for this method")
    delta = Fraction(delta)
    n_v = q**4 - q**3 + q**2
    blocks = m * (q**3 - q)
    base = Fraction(2 * m * (q + 1), n**3)
    lower = (1 - alpha) * blocks * ((1 - delta) * base) ** 2
    upper = Fraction(1, 3) * blocks * ((1 + delta) * base) ** 2
    margin = Fraction(1, 2) * n_v * (lower - upper)
    dstar = critical_delta(alpha)
    outcome = "pass" if margin > 0 else "inconclusive" if margin == 0 else "fail"
    return Certificate(
        claim="deletion construction keeps a positive monochromatic-triangle margin",
        params={"q": q, "F_vertices": n, "F_edges": m, "alpha": alpha, "delta": delta},
        quantities={
            "margin": margin,
            "margin_float": float(margin),
            "critical_delta": dstar,
            "expected_block_size": float(base),
        },
        margin=margin,
        outcome=outcome,
    )


# ----------------------------------------------------------------------
# Pseudorandom triangle-free parameters and the quantitative bound
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AlonParams:
    k: int
    n: int
    m: int
    maxcut_upper: float
    ratio: float

    @property
    def valid(self) -> bool:
        return self.ratio < 2 / 3


def alon_parameters(k: int) -> AlonParams:
    """Parameters of the optimally pseudorandom triangle-free graphs on
    2^{3k} vertices (defined for k not divisible by 3; at k = 1 they have
    no edges, so no max-cut ratio)."""
    if k < 2 or k % 3 == 0:
        raise ValueError("k must be an integer >= 2 with k % 3 != 0")
    n = 2 ** (3 * k)
    half = 2 ** (k - 1)
    m = 2 ** (4 * k - 2) * (half - 1)
    maxcut_upper = 0.25 * n * (half * (half - 1) + 9 * 2**k + 3 * 2 ** (k / 2) + 0.25)
    return AlonParams(k=k, n=n, m=m, maxcut_upper=maxcut_upper, ratio=maxcut_upper / m)


def smallest_valid_alon_k(limit: int = 30) -> int:
    for k in range(2, limit + 1):
        if k % 3 and alon_parameters(k).valid:
            return k
    raise RuntimeError(f"no valid k up to {limit}")


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN = 3_317_044_064_679_887_385_961_981  # deterministic below this
_MR_EXTRA = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _is_prime_big(n: int) -> bool:
    """Miller-Rabin: deterministic below 3.3e24, near-certain above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _MR_BASES if n < _MR_PROVEN else _MR_BASES + _MR_EXTRA
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(x: int, e: int) -> int:
    """Floor of the e-th root."""
    if x < 0:
        raise ValueError
    if x == 0:
        return 0
    r = int(round(x ** (1.0 / e)))
    while r**e > x:
        r -= 1
    while (r + 1) ** e <= x:
        r += 1
    return r


def _next_prime(n: int) -> int:
    if n <= 2:
        return 2
    c = n if n % 2 else n + 1
    while not _is_prime_big(c):
        c += 2
    return c


def least_prime_power_at_least(x: int) -> int:
    """Smallest prime power >= x."""
    best = _next_prime(x)
    e = 2
    while (1 << e) <= best:
        p = _next_prime(max(2, _iroot(x - 1, e) + 1))
        best = min(best, p**e)
        e += 1
    return best


def quantitative_bound(n: int, m: int, delta: float = 1.0, exact_union: bool = False) -> dict:
    """Smallest prime power q making the failure probability bound
    2 exp(-(8 d^2 m^2 / 3n^6) q + union_log) drop below 1, and the
    resulting q^4 - q^3 + q^2 bound on the order of the deletion graph.

    union_log is 7 ln(nq) for the nq^7 union-bound count; exact_union
    replaces it with ln((q^4-q^3+q^2)(q^3-q) n).  delta enters as d^2;
    reproducing the headline desk arithmetic treats the concentration
    window as order one (delta = 1).
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    coeff = 8.0 * delta * delta / 3.0 * float(Fraction(m * m, n**6))

    def satisfied(qv: int) -> bool:
        if qv < 2:
            return False
        if exact_union:
            union_log = math.log((qv**4 - qv**3 + qv**2) * (qv**3 - qv) * n)
        else:
            union_log = 7.0 * (math.log(n) + math.log(qv))
        return coeff * qv > math.log(2.0) + union_log

    lo, hi = 1, 1
    while not satisfied(hi):
        hi *= 2
        if hi > 1 << 400:
            raise RuntimeError("no satisfying q below 2^400")
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    q = least_prime_power_at_least(hi)
    assert satisfied(q)
    f_bound = q**4 - q**3 + q**2
    return {
        "q": q,
        "log2_q": math.log2(q),
        "f_bound": f_bound,
        "log2_f_bound": math.log2(f_bound),
        "delta": delta,
        "exact_union": exact_union,
    }
