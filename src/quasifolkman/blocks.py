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


def replacement_registry() -> dict[str, ReplacementGraph]:
    return {
        "edge": replacement_from_edges("edge", 2, [(0, 1)]),
        "path4": replacement_from_edges("path4", 4, [(0, 1), (1, 2), (2, 3)]),
        "c5": replacement_from_edges("c5", 5, [(i, (i + 1) % 5) for i in range(5)]),
        "petersen": replacement_from_edges("petersen", 10, _petersen_edges()),
    }


def load_replacement(name_or_path: str) -> ReplacementGraph:
    """Registry name, or a path to an edge-list file (one 'u v' per line)."""
    reg = replacement_registry()
    if name_or_path in reg:
        return reg[name_or_path]
    try:
        with open(name_or_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConstructionError(f"unknown replacement graph {name_or_path!r}") from exc
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

    @property
    def num_edges(self) -> int:
        return int(self.alive.sum())

    def survival_rate(self) -> float:
        return float(self.alive.mean())


def random_block(g: IntersectionGraph, F: ReplacementGraph, seed: int) -> StarGraph:
    """Draw one instance; per-edge survival probability is 2m/n^2."""
    adj = F.adj
    if _has_triangle(adj):
        raise ConstructionError("replacement graph must be triangle-free")
    # one draw of every label, in clique layout
    labels = np.random.default_rng(int(seed) & _MASK64).integers(F.n, size=g.cliques.shape, dtype=np.int32)
    # an edge survives iff the labels at its two positions in its clique
    # form an edge of F
    alive = np.empty((len(labels), math.comb(labels.shape[1], 2)), dtype=bool)
    # per clique pair: two int32 labels and a bool, 12 bytes as measured
    for block in slices(len(labels), 12 * alive.shape[1]):
        alive[block] = adj[row_pairs(labels[block])].reshape(-1, alive.shape[1])
    return StarGraph(base=g, F=F, seed=seed, labels=labels, alive=alive)


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
    # the surviving member pairs of the cliques, in lexicographic order
    edges = np.stack(row_pairs(g.cliques), axis=1)[star.alive.ravel()]
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


def cliques_triangle_free(star: StarGraph) -> bool:
    """Whether no point clique holds a triangle of surviving edges.

    Each clique's surviving edges make a symmetric 0/1 matrix A over its q^2
    positions.  A path i-j-k adds 1 to (A @ A)[i, k] and A[i, k] closes it,
    so the clique holds a triangle iff (A @ A) * A has a nonzero entry.  The
    entries are at most q^2, exact in float32."""
    g = star.base
    npts, k = g.cliques.shape
    iu, iv = triu_pairs(k)
    # per clique: A and A @ A, float32; the product reuses A @ A's buffer
    for block in slices(npts, 8 * k * k):
        alive = star.alive[block]
        A = np.zeros((len(alive), k, k), dtype=np.float32)
        A[:, iu, iv] = A[:, iv, iu] = alive
        if ((A @ A) * A).any():
            return False
    return True


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
) -> dict:
    """Measure |V_i(C) ∩ N*(v)| over sampled (v, spanning clique, label)
    triples across independent instances and compare with 2m(q+1)/n^3."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    q = g.q
    rng = np.random.default_rng(seed)
    expectation = 2 * F.m * (q + 1) / F.n**3
    values = []
    for t in range(trials):
        star = random_block(g, F, instance_seed(seed, t))
        vs = rng.integers(0, g.n, size=samples_per_trial)
        cliq = rng.integers(0, q**3 - q, size=samples_per_trial)
        lab = rng.integers(0, F.n, size=samples_per_trial)
        # spanning clique cliq of v lives at v's cliq-th off point P; its
        # member through P and v's point A sits at pos[P, A] and meets v in
        # A's clique: it at pos[A, P], v at its own position at[v]
        point = g.off_points(vs)[np.arange(samples_per_trial), cliq][:, None]
        pts = g.vertex_cliques[vs]
        alive = F.adj[star.labels[pts, g.at[vs]], star.labels[pts, g.pos[pts, point]]]
        values.append((alive & (star.labels[point, g.pos[point, pts]] == lab[:, None])).sum(axis=1))
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
