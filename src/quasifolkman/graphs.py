"""The secant intersection graph and its structural verification.

Vertices are secants (ids aligned with the unital's secant enumeration);
two vertices are adjacent when their secants meet in a unital point.  The
point cliques -- all secants through one unital point -- form a family of
q^3+1 maximal cliques of order q^2 covering every edge exactly once, and
the graph is strongly regular with lambda = 2q^2-2 and mu = (q+1)^2.

Every K4 has at least three vertices inside one point clique: four secants
pairwise meeting in six distinct unital points would be an O'Nan
configuration, which Hermitian unitals do not contain.  verify_k4_structure
checks this exhaustively (or by sampling) and certifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .certificates import Certificate
from .plane import UnitalIncidence

#: q values small enough for the exhaustive verification commands
SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)


class GraphError(RuntimeError):
    pass


class IntersectionGraph:
    """Dense-adjacency intersection graph of a unital's secants, read off the
    secant -> points incidence.

    Attributes
    ----------
    n : vertex count, q^4 - q^3 + q^2.
    adj : (n, n) bool adjacency matrix.
    cliques : (q^3+1, q^2) int32, sorted member lists of the point cliques
        (row i = secants through dense unital point i).
    vertex_cliques : (n, q+1) int32, the incidence itself: the sorted dense
        unital points (equivalently, point-clique ids) of each secant.
    eu, ev : (m,) int32 canonical edge list, lexicographic with eu < ev.
    edge_point : (m,) int32, dense unital point id where each edge's
        secants meet (equivalently, the unique clique containing the edge).
    """

    def __init__(self, q: int, secant_points: np.ndarray):
        pts = np.asarray(secant_points)
        n, k, npts = len(pts), q * q, q**3 + 1
        if pts.ndim != 2 or pts.shape[1] != q + 1:
            raise GraphError(f"secant point lists must have q+1 = {q + 1} entries")
        if not np.all(pts[:, :-1] < pts[:, 1:]):
            raise GraphError("secant point lists must be strictly increasing")
        if pts.min() < 0 or pts.max() >= npts or not np.all(np.bincount(pts.ravel(), minlength=npts) == k):
            raise GraphError("some unital point is not on exactly q^2 secants")
        self.q = q
        self.n = n
        self.vertex_cliques = pts.astype(np.int32)
        # a stable sort of the flat incidence lists each point's secants in order
        cliques = (np.argsort(pts.ravel(), kind="stable") // (q + 1)).astype(np.int32)
        self.cliques = cliques.reshape(npts, k)

        # the edges are the secant pairs inside the point cliques; one sort of
        # their keys gives the lexicographic edge list, and each key's
        # clique is its meet point
        iu, iv = np.triu_indices(k, k=1)
        key = (self.cliques[:, iu].astype(np.int64) * n + self.cliques[:, iv]).ravel()
        order = np.argsort(key)
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise GraphError("two secants share more than one unital point")
        # lexicographic edge keys are strictly increasing, so index lookups
        # reduce to one searchsorted
        self._edge_key = key
        self.eu = (key // n).astype(np.int32)
        self.ev = (key % n).astype(np.int32)
        self.edge_point = (order // len(iu)).astype(np.int32)
        self.m = len(key)
        del order  # free the sort permutation before the n x n fill

        self.adj = np.zeros((n, n), dtype=bool)
        self.adj[self.cliques[:, :, None], self.cliques[:, None, :]] = True
        np.fill_diagonal(self.adj, False)
        self.degree = self.adj.sum(axis=1).astype(np.int64)
        self._adj_bits: list[int] | None = None
        self._line_of: np.ndarray | None = None

    # -- lookups ------------------------------------------------------------

    def edge_index(self, u, v):
        """Canonical index of edge(s) (u, v) with u < v; vectorized.

        Callers must pass actual edges; a non-edge maps to an arbitrary slot.
        """
        key = np.asarray(u, dtype=np.int64) * self.n + np.asarray(v, dtype=np.int64)
        idx = np.searchsorted(self._edge_key, key)
        return idx if idx.ndim else int(idx)

    @property
    def adj_bits(self) -> list[int]:
        """Adjacency rows as Python int bitmasks (bit v set iff adjacent)."""
        if self._adj_bits is None:
            packed = np.packbits(self.adj, axis=1, bitorder="little")
            self._adj_bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
        return self._adj_bits

    @property
    def line_of(self) -> np.ndarray:
        """(npts, npts) int32: the secant through two distinct unital points
        (-1 on the diagonal).  Built on first use from the secant->points
        incidence; see point_pair_secants."""
        if self._line_of is None:
            self._line_of = point_pair_secants(self.vertex_cliques, len(self.cliques))
        return self._line_of

    def off_points(self, start: int, stop: int) -> np.ndarray:
        """The q^3 - q unital points off each secant in [start, stop),
        ascending; shape (stop - start, q^3 - q)."""
        npts = len(self.cliques)
        off = np.ones((stop - start, npts), dtype=bool)
        off[np.arange(stop - start)[:, None], self.vertex_cliques[start:stop]] = False
        return np.nonzero(off)[1].reshape(stop - start, npts - self.q - 1)

    def spanning_cliques(self, start: int, stop: int) -> np.ndarray:
        """Spanning cliques of the vertices in [start, stop): for vertex v and
        each unital point P off v's secant, the q+1 neighbors of v through P,
        which are the secants line_of[P, Q] for the points Q of v.  Shape
        (stop - start, q^3 - q, q+1); rows by point id, members ascending."""
        pts = self.vertex_cliques[start:stop]
        sc = self.line_of[self.off_points(start, stop)[:, :, None], pts[:, None, :]]
        sc.sort(axis=2)
        return sc

    def spanning_cliques_of(self, v: int) -> np.ndarray:
        """The q^3 - q spanning cliques at v; shape (q^3 - q, q+1)."""
        return self.spanning_cliques(v, v + 1)[0]

    def __repr__(self) -> str:
        return f"IntersectionGraph(q={self.q}, n={self.n}, m={self.m})"


def _point_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every secant's unital point pairs (p, r), secant-major, int64."""
    iu, iv = np.triu_indices(points.shape[1], k=1)
    return points[:, iu].ravel().astype(np.int64), points[:, iv].ravel().astype(np.int64)


def _each_pair_once(p: np.ndarray, r: np.ndarray, npts: int) -> bool:
    """Whether the pairs (p < r) cover every unordered point pair exactly once."""
    if not np.all(p < r):
        return False
    counts = np.bincount(p * npts + r, minlength=npts * npts).reshape(npts, npts)
    return bool(np.all(counts[np.triu_indices(npts, k=1)] == 1))


def point_pair_secants(points: np.ndarray, npts: int) -> np.ndarray:
    """The point-pair -> secant table from each secant's sorted unital points.

    The Hermitian unital is a 2-(q^3+1, q+1, 1) design: every pair of
    unital points lies on exactly one secant.  The table rests on that, so
    it is checked here by counting every unordered point pair; a pair on
    two secants or on none raises GraphError.
    """
    p, r = _point_pairs(points)
    if not np.all(p < r):
        raise GraphError("secant point lists must be strictly increasing")
    if not _each_pair_once(p, r, npts):
        raise GraphError("some pair of unital points is not on exactly one secant")
    line = np.full((npts, npts), -1, dtype=np.int32)
    sec = np.repeat(np.arange(len(points), dtype=np.int32), comb(points.shape[1], 2))
    line[p, r] = sec
    line[r, p] = sec
    return line


def build_graph(unital: UnitalIncidence) -> IntersectionGraph:
    """The intersection graph of the unital's secants, from the incidence data."""
    return IntersectionGraph(unital.q, unital.secant_points)


def build_graph_for_q(q: int) -> IntersectionGraph:
    from .plane import build_unital_for_q

    return build_graph(build_unital_for_q(q))


# ----------------------------------------------------------------------
# Strong regularity
# ----------------------------------------------------------------------

@dataclass
class SrgReport:
    q: int
    n: int
    d: int
    lambda_observed: int | None
    mu_observed: int | None
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def verify_srg(g: IntersectionGraph, block: int = 1024) -> SrgReport:
    """Exhaustive common-neighbor scan over all vertex pairs.

    Uses blocked float32 matrix products (exact for counts below 2^24) so
    the full scan stays fast up to q = 9.
    """
    q = g.q
    n_expected = q**4 - q**3 + q**2
    d_expected = q**3 + q**2 - q - 1
    checks: dict[str, bool] = {}
    checks["vertex_count"] = g.n == n_expected
    checks["regular_degree"] = bool(np.all(g.degree == d_expected))
    checks["adjacency_symmetric"] = bool(np.array_equal(g.adj, g.adj.T))
    checks["adjacency_irreflexive"] = not g.adj.diagonal().any()
    checks["edge_count"] = 2 * g.m == g.n * d_expected

    # clique family statistics
    cl = g.cliques
    checks["clique_count"] = cl.shape[0] == q**3 + 1
    checks["clique_order"] = cl.shape[1] == q * q
    # two point cliques share exactly one vertex iff their two points lie
    # on exactly one secant
    checks["cliques_share_one_vertex"] = _each_pair_once(*_point_pairs(g.vertex_cliques), len(cl))
    checks["vertex_in_q_plus_1_cliques"] = g.vertex_cliques.shape[1] == q + 1
    checks["edges_partitioned_by_cliques"] = (q**3 + 1) * comb(q * q, 2) == g.m

    lam_expected = 2 * q * q - 2
    mu_expected = (q + 1) ** 2
    A = g.adj.astype(np.float32)
    lam_vals: set[int] = set()
    mu_vals: set[int] = set()
    ok = True
    for start in range(0, g.n, block):
        stop = min(start + block, g.n)
        common = (A[start:stop] @ A).astype(np.int64)
        sub_adj = g.adj[start:stop]
        eye = np.zeros_like(sub_adj)
        eye[np.arange(stop - start), np.arange(start, stop)] = True
        lam_block = common[sub_adj]
        mu_block = common[~sub_adj & ~eye]
        lam_vals.update(np.unique(lam_block).tolist())
        mu_vals.update(np.unique(mu_block).tolist())
        if not (np.all(lam_block == lam_expected) and np.all(mu_block == mu_expected)):
            ok = False
    checks["lambda"] = ok and lam_vals == {lam_expected}
    checks["mu"] = ok and mu_vals == {mu_expected}
    return SrgReport(
        q=q,
        n=g.n,
        d=int(g.degree[0]),
        lambda_observed=next(iter(lam_vals)) if len(lam_vals) == 1 else None,
        mu_observed=next(iter(mu_vals)) if len(mu_vals) == 1 else None,
        checks=checks,
    )


# ----------------------------------------------------------------------
# K4 structure
# ----------------------------------------------------------------------

def enumerate_k4(g: IntersectionGraph) -> np.ndarray:
    """All K4's, one row (a, b, c, d) with a < b < c < d, ordered
    lexicographically.  Enumerates edges (a, b) and pairs inside the common
    neighborhood above b."""
    quads = []
    A = g.adj
    for e in range(g.m):
        a = int(g.eu[e])
        b = int(g.ev[e])
        cm = np.flatnonzero(A[a] & A[b])
        cm = cm[cm > b]
        if len(cm) < 2:
            continue
        sub = A[np.ix_(cm, cm)]
        wi, xi = np.nonzero(np.triu(sub, 1))
        if len(wi):
            block = np.empty((len(wi), 4), dtype=np.int32)
            block[:, 0] = a
            block[:, 1] = b
            block[:, 2] = cm[wi]
            block[:, 3] = cm[xi]
            quads.append(block)
    if not quads:
        return np.empty((0, 4), dtype=np.int32)
    return np.concatenate(quads)


def k4_clique_property(g: IntersectionGraph, quads: np.ndarray) -> np.ndarray:
    """For each K4, whether >= 3 of its vertices share a point clique.

    Equivalent to one of its four triangles having all three meet points
    equal (a degenerate triangle)."""
    if len(quads) == 0:
        return np.empty(0, dtype=bool)
    a, b, c, d = (quads[:, i].astype(np.int64) for i in range(4))
    p = {}
    for name, (x, y) in {
        "ab": (a, b), "ac": (a, c), "ad": (a, d),
        "bc": (b, c), "bd": (b, d), "cd": (c, d),
    }.items():
        p[name] = g.edge_point[g.edge_index(x, y)]
    tri = [
        ("ab", "ac", "bc"),
        ("ab", "ad", "bd"),
        ("ac", "ad", "cd"),
        ("bc", "bd", "cd"),
    ]
    ok = np.zeros(len(quads), dtype=bool)
    for e1, e2, e3 in tri:
        ok |= (p[e1] == p[e2]) & (p[e1] == p[e3])
    return ok


def neighbor_rows(g: IntersectionGraph) -> np.ndarray:
    """Each vertex's neighbors, ascending; shape (n, (q+1)(q^2-1)).  They are
    the members of its q+1 point cliques, with the vertex's own copies
    dropped."""
    members = g.cliques[g.vertex_cliques].reshape(g.n, -1)
    own = members == np.arange(g.n)[:, None]
    nbr = members[~own].reshape(g.n, -1)
    nbr.sort(axis=1)
    return nbr


def verify_k4_structure(
    g: IntersectionGraph,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 1_000_000,
) -> Certificate:
    """Certify that every K4 has >= 3 vertices in one point clique.

    Exhaustive mode enumerates every K4 (intended for q <= 4); sampled mode
    draws random triangles and extends them to K4's.  A counterexample makes
    the certificate fail and carries the four vertex ids.
    """
    params = {"q": g.q, "mode": mode}
    if mode == "exhaustive":
        quads = enumerate_k4(g)
        ok = k4_clique_property(g, quads)
        bad = np.flatnonzero(~ok)
        quantities = {"k4_count": int(len(quads)), "violations": int(len(bad))}
        if len(bad):
            quantities["witness"] = [int(x) for x in quads[bad[0]]]
        return Certificate(
            claim="every K4 has >= 3 vertices in a point clique",
            params=params,
            quantities=quantities,
            outcome="pass" if not len(bad) else "fail",
        )
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    params.update({"seed": seed, "samples": samples})
    rng = np.random.default_rng(seed)
    bits = g.adj_bits
    n = g.n
    us = rng.integers(0, n, size=samples)
    nbr = neighbor_rows(g)
    d = nbr.shape[1]
    picks = rng.integers(0, d, size=(samples, 2))
    quads = []
    for t in range(samples):
        u = int(us[t])
        v = int(nbr[u, picks[t, 0]])
        w = int(nbr[u, picks[t, 1]])
        if v == w or not g.adj[v, w]:
            continue
        cm = bits[u] & bits[v] & bits[w]
        if cm == 0:
            continue
        # lowest-id extension keeps the draw deterministic given the seed
        x = (cm & -cm).bit_length() - 1
        quads.append(sorted((u, v, w, x)))
    quads = np.array(quads, dtype=np.int32) if quads else np.empty((0, 4), dtype=np.int32)
    ok = k4_clique_property(g, quads)
    bad = np.flatnonzero(~ok)
    quantities = {"k4_checked": int(len(quads)), "violations": int(len(bad))}
    violations = len(bad)
    if violations:
        quantities["witness"] = [int(y) for y in quads[bad[0]]]
        outcome = "fail"
    else:
        # a sample that reached no K4 checked nothing
        outcome = "pass" if len(quads) else "inconclusive"
    return Certificate(
        claim="every K4 has >= 3 vertices in a point clique (sampled)",
        params=params,
        quantities=quantities,
        outcome=outcome,
    )


# ----------------------------------------------------------------------
# Serialization: edge list and graph6
# ----------------------------------------------------------------------

def edge_list_text(g: IntersectionGraph) -> str:
    lines = [f"{int(u)} {int(v)}" for u, v in zip(g.eu, g.ev)]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) with n = max vertex id + 1."""
    edges = []
    hi = -1
    for line in text.strip().split("\n"):
        if not line.strip():
            continue
        u, v = (int(t) for t in line.split())
        if u > v:
            u, v = v, u
        edges.append((u, v))
        hi = max(hi, v)
    return hi + 1, edges


def _triangle_order(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle (i, j) pairs in graph6 order: j ascending, i < j."""
    cols = np.repeat(np.arange(1, n), np.arange(1, n))
    rows = np.concatenate([np.arange(j) for j in range(1, n)]) if n > 1 else np.empty(0, dtype=np.int64)
    return rows, cols


def graph6_bytes(n: int, adj: np.ndarray) -> bytes:
    """Standard graph6 encoding of an undirected graph."""
    if n <= 62:
        header = bytes([n + 63])
    elif n <= 258047:
        header = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError("graph too large for 3-byte graph6 header")
    rows, cols = _triangle_order(n)
    bits = adj[rows, cols].astype(np.uint8)
    pad = (-len(bits)) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    groups = bits.reshape(-1, 6)
    vals = groups @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return header + vals.astype(np.uint8).tobytes()


def parse_graph6(data: bytes) -> np.ndarray:
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    if not data:
        raise ValueError("empty graph6 data")
    if data[0] == 126:
        if len(data) < 4:
            raise ValueError("truncated graph6 size header")
        if data[1] == 126:
            raise ValueError("8-byte graph6 sizes not supported")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    vals = np.frombuffer(body, dtype=np.uint8).astype(np.int64) - 63
    bits = (vals[:, None] >> np.arange(5, -1, -1)[None, :]) & 1
    bits = bits.reshape(-1)
    rows, cols = _triangle_order(n)
    adj = np.zeros((n, n), dtype=bool)
    on = bits[: len(rows)].astype(bool)
    adj[rows[on], cols[on]] = True
    adj |= adj.T
    return adj
