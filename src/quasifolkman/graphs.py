"""The secant intersection graph and its structural verification.

Vertices are secants (ids aligned with the unital's secant enumeration);
two vertices are adjacent when their secants meet in a unital point.  The
point cliques -- all secants through one unital point -- form a family of
q^3+1 maximal cliques of order q^2 covering every edge exactly once, and
the graph is strongly regular with lambda = 2q^2-2 and mu = (q+1)^2.

Every K4 has at least three vertices inside one point clique: four secants
pairwise meeting in six distinct unital points would be an O'Nan
configuration, which Hermitian unitals do not contain.  verify_k4_structure
checks this edge by edge from the incidence alone (edge_k4s); an O'Nan
configuration shows up at each of its six edges, so running every edge is
exhaustive.

Triangles are enumerated by one scan, extend_cliques: each clique row gains
every common neighbour above its last vertex, read off the AND of
bit-packed adjacency rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .certificates import Certificate
from .plane import UnitalIncidence

#: q values the commands run at; cli.Q_LIMIT caps all but certify lower
SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

#: vertex pairs in verify_srg's spot check of the adjacency: half random
#: edges, half random vertex pairs, drawn from SRG_SPOT_SEED
SRG_SPOT_PAIRS = 100_000
SRG_SPOT_SEED = 0
#: rows per batch of gathered bit-packed adjacency rows
SAMPLE_BLOCK = 1 << 14
#: edges per block of verify_k4_structure's edge kernel
K4_EDGE_BLOCK = 1 << 8
#: bytes of bit-packed adjacency rows that one block of the clique-extension
#: scan gathers; the rows per block follow from n
SCAN_BLOCK_BYTES = 1 << 22
#: lines per block of the edge-list text.  Each block's Python ints and
#: strings are freed but leave heap behind: at 2^16 lines check-coloring's
#: later peak RSS (q = 7) is 1.6 MB above that at 2^10
EDGE_TEXT_BLOCK = 1 << 10


class GraphError(RuntimeError):
    pass


class IntersectionGraph:
    """Intersection graph of a unital's secants, read off the secant -> points
    incidence N.

    Attributes
    ----------
    n : vertex count, q^4 - q^3 + q^2.
    words : (n, ceil(n/64)) uint64, the bit-packed adjacency rows (see
        packed_rows): row v is the OR of the member masks of v's q+1 point
        cliques with v's own bit cleared, the bitset form of N N^T - (q+1) I.
    cliques : (q^3+1, q^2) int32, sorted member lists of the point cliques
        (row i = secants through dense unital point i).
    vertex_cliques : (n, q+1) int32, the incidence itself: the sorted dense
        unital points (equivalently, point-clique ids) of each secant.
    pos : (q^3+1, q^3+1) int32, pos[P, A] is the position in P's clique of
        the secant through unital points P and A (-1 on the diagonal).

    The edge tables below are built on first use (edge_tables); certify
    reads none of them at q >= 5.

    eu, ev : (m,) int32 canonical edge list, lexicographic with eu < ev.
    clique_edges : (q^3+1, C(q^2, 2)) int32, the id of the edge between
        each pair of positions in each point clique, pairs in triu order.

    Every edge lies in exactly one point clique, so it is named by its meet
    point and two clique positions; edge_at turns that name into its id.
    The secant through two distinct unital points P and A is
    cliques[P, pos[P, A]].
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
        # a stable sort of the flat incidence lists each point's secants in
        # order; its inverse is each incidence's position in its clique
        inc = np.argsort(pts.ravel(), kind="stable")
        self.cliques = (inc // (q + 1)).astype(np.int32).reshape(npts, k)
        at = np.empty(len(inc), dtype=np.int32)
        at[inc] = np.arange(len(inc)) % k
        p, r = row_pairs(self.vertex_cliques)
        i, j = row_pairs(at.reshape(n, q + 1))
        self.pos = np.full((npts, npts), -1, dtype=np.int32)
        self.pos[p, r] = i
        self.pos[r, p] = j
        del inc, at, p, r, i, j
        # the n C(q+1, 2) = C(q^3+1, 2) secant point pairs fill every
        # off-diagonal entry only if each is written once
        if np.count_nonzero(self.pos < 0) != npts:
            raise GraphError("two secants share more than one unital point")
        self.m = npts * comb(k, 2)
        iu, iv = np.triu_indices(k, k=1)
        self._pair = np.zeros((k, k), dtype=np.int32)
        self._pair[iu, iv] = self._pair[iv, iu] = np.arange(len(iu))

        # row v: the OR of the member masks of v's point cliques, own bit cleared
        member = np.zeros((npts, n), dtype=bool)
        member[np.arange(npts)[:, None], self.cliques] = True
        masks = packed_rows(member).view(np.uint64)
        del member
        self.words = masks[self.vertex_cliques[:, 0]]
        for j in range(1, q + 1):
            self.words |= masks[self.vertex_cliques[:, j]]
        own = np.arange(n)
        self.words.view(np.uint8)[own, own >> 3] &= ~(1 << (own & 7)).astype(np.uint8)
        self._edges: tuple[np.ndarray, ...] | None = None

    # -- lookups ------------------------------------------------------------

    def adjacent(self, u, v) -> np.ndarray:
        """Whether u ~ v, elementwise: one bit test of the packed rows."""
        v = np.asarray(v)
        return (self.words.view(np.uint8)[u, v >> 3] >> (v & 7).astype(np.uint8) & 1).astype(bool)

    @property
    def adj(self) -> np.ndarray:
        """(n, n) bool adjacency, a fresh copy unpacked from words; for small q."""
        return unpack_rows(self.words, self.n)

    def edge_at(self, P, A, B):
        """Id of the edge at unital point P between the secants through
        (P, A) and (P, B); vectorized, gathers only.  P, A and B must be
        distinct unital points."""
        return self.clique_edges[P, self._pair[self.pos[P, A], self.pos[P, B]]]

    def edge_ends(self, e):
        """The meet point X and the ends a < b of the clique-major edges e:
        edge e is pair e % C(q^2, 2), in triu order, of X = e // C(q^2, 2)."""
        X, t = np.divmod(e, self.m // len(self.cliques))
        iu, iv = np.triu_indices(self.cliques.shape[1], k=1)
        return X, self.cliques[X, iu[t]], self.cliques[X, iv[t]]

    def edge_points(self, e):
        """edge_ends(e), then the q points P_i of a and Q_j of b other than
        X, shapes (len(e), q, 1) and (len(e), 1, q).  The q^2 thirds
        cliques[P, pos[P, Q]] are the common neighbours of a and b off X."""
        X, a, b = self.edge_ends(e)
        P, Q = self.vertex_cliques[a], self.vertex_cliques[b]
        P = P[P != X[:, None]].reshape(len(e), self.q, 1)
        Q = Q[Q != X[:, None]].reshape(len(e), 1, self.q)
        return X, a, b, P, Q

    def edge_tables(self) -> tuple[np.ndarray, ...]:
        """(eu, ev, clique_edges), built on first use.  The edges are the
        secant pairs inside the point cliques, clique-major; one sort of
        their keys gives the lexicographic edge list, and its inverse each
        clique pair's edge id.  The three share one block taken before the
        sort's temporaries."""
        if self._edges is None:
            npts = len(self.cliques)
            eu, ev, clique_edges = np.empty((3, self.m), dtype=np.int32)
            a, b = row_pairs(self.cliques)
            order = np.argsort(a.astype(np.int64) * self.n + b)
            np.take(a, order, out=eu)
            np.take(b, order, out=ev)
            del a, b
            # int32 holds m up to q = 16; the inversion then needs no int64 temporaries
            order = order.astype(np.int32)
            clique_edges[order] = np.arange(self.m, dtype=np.int32)
            self._edges = eu, ev, clique_edges.reshape(npts, self.m // npts)
        return self._edges

    eu = property(lambda self: self.edge_tables()[0])
    ev = property(lambda self: self.edge_tables()[1])
    clique_edges = property(lambda self: self.edge_tables()[2])

    def off_points(self, vs: np.ndarray) -> np.ndarray:
        """The q^3 - q unital points off each secant in vs, ascending; shape
        (len(vs), q^3 - q)."""
        npts = len(self.cliques)
        off = np.ones((len(vs), npts), dtype=bool)
        off[np.arange(len(vs))[:, None], self.vertex_cliques[vs]] = False
        return np.nonzero(off)[1].reshape(len(vs), npts - self.q - 1)

    def spanning_cliques(self, vs: np.ndarray) -> np.ndarray:
        """Spanning cliques of the vertices vs: for vertex v and each unital
        point P off v's secant, the q+1 neighbors of v through P, which are
        the secants cliques[P, pos[P, Q]] through P and the points Q of v.
        Shape (len(vs), q^3 - q, q+1); rows by point id, members ascending."""
        off = self.off_points(vs)[:, :, None]
        sc = self.cliques[off, self.pos[off, self.vertex_cliques[vs][:, None, :]]]
        sc.sort(axis=2)
        return sc


def row_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (a, b) of entries a before b inside each row, row-major;
    ascending rows give a < b."""
    iu, iv = np.triu_indices(rows.shape[1], k=1)
    return rows[:, iu].ravel(), rows[:, iv].ravel()


def _each_pair_once(p: np.ndarray, r: np.ndarray, npts: int) -> bool:
    """Whether the pairs (p < r) cover every unordered point pair exactly once."""
    if not np.all(p < r):
        return False
    counts = np.bincount(p * npts + r, minlength=npts * npts).reshape(npts, npts)
    return bool(np.all(counts[np.triu_indices(npts, k=1)] == 1))


def build_graph(unital: UnitalIncidence) -> IntersectionGraph:
    """The intersection graph of the unital's secants, from the incidence data."""
    return IntersectionGraph(unital.q, unital.secant_points)


def build_graph_for_q(q: int) -> IntersectionGraph:
    from .plane import build_unital_for_q

    return build_graph(build_unital_for_q(q))


# ----------------------------------------------------------------------
# Bit-packed adjacency rows and the clique-extension scan
# ----------------------------------------------------------------------

def packed_rows(adj: np.ndarray) -> np.ndarray:
    """Adjacency rows bit-packed little-endian (bit v % 8 of byte v // 8 is
    adj[., v]) and zero-padded to whole 64-bit words; uint8, so that
    .view(np.uint64) gives the words."""
    n = adj.shape[1]
    packed = np.zeros((adj.shape[0], -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(adj, axis=1, bitorder="little")
    return packed


def unpack_rows(words: np.ndarray, count: int) -> np.ndarray:
    """The first count bits of each row of packed uint64 words, as bool."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=count, bitorder="little").view(bool)


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Set bits per row of a uint8 or uint64 array, int64."""
    return np.bitwise_count(packed).sum(axis=1, dtype=np.int64)


def lowest_set_bit(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index of the lowest set bit, whether any is set) per row of packed
    uint64 words; the index is meaningless in a row with no bit set.  In
    the first nonzero word w, the bits below the lowest set one are those
    of (w & -w) - 1."""
    first = (words != 0).argmax(axis=1)
    word = words[np.arange(len(words)), first]
    return first * 64 + np.bitwise_count((word & (~word + 1)) - 1), word != 0


def common_neighbors(words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The AND of the packed rows (uint64 words) of each row's vertices."""
    cm = words[rows[:, 0]]
    for j in range(1, rows.shape[1]):
        cm &= words[rows[:, j]]
    return cm


def row_blocks(rows: np.ndarray, words: np.ndarray):
    """Consecutive slices of rows, each gathering about SCAN_BLOCK_BYTES of
    packed rows per vertex column."""
    step = max(1, SCAN_BLOCK_BYTES // words[0].nbytes)
    for s in range(0, len(rows), step):
        yield rows[s:s + step]


def extend_cliques(words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Every clique row extended by each common neighbour above its last
    vertex.

    rows are cliques, ascending within a row and lexicographic between rows;
    words are the graph's packed rows as uint64 words.  The output has one
    more column, int32, and is lexicographic too: rows keep their order and
    the extensions of a row ascend.  Only the nonzero words of the common
    neighbourhood are unpacked.
    """
    out = [np.empty((0, rows.shape[1] + 1), dtype=np.int32)]
    for part in row_blocks(rows, words):
        cm = common_neighbors(words, part)
        # words wholly below a row's last vertex hold no extension of it
        cm[np.arange(cm.shape[1]) < part[:, -1:] >> 6] = 0
        r, w = np.nonzero(cm)
        bit = np.flatnonzero(np.unpackbits(cm[r, w].view(np.uint8), bitorder="little").view(bool))
        k = bit >> 6
        r = r[k]
        x = w[k] * 64 + (bit & 63)
        keep = x > part[r, -1]
        out.append(np.column_stack([part[r[keep]], x[keep]]).astype(np.int32))
    return np.concatenate(out)


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
    spot_pairs_adjacent: int
    spot_pairs_nonadjacent: int

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def coverage(self) -> dict:
        """How lambda and mu were established, for certificates."""
        return {
            "path": "design identity",
            "spot_pairs_adjacent": self.spot_pairs_adjacent,
            "spot_pairs_nonadjacent": self.spot_pairs_nonadjacent,
        }


def verify_srg(g: IntersectionGraph) -> SrgReport:
    """Strong regularity from the unital's design identity, plus a seeded
    spot check of the packed adjacency rows.

    Let N be the (n, q^3+1) secant-point incidence (vertex_cliques).  When
    the rows are exactly the block graph of N, A = N N^T - (q+1) I.  Every secant
    has q+1 points and every pair of unital points lies on exactly one
    secant, so N^T N = J + (q^2-1) I and

        A^2 = (q+1)^2 J + (q-3)(q+1) (A + (q+1) I) + (q+1)^2 I,

    which gives lambda = 2q^2-2 and mu = (q+1)^2 for every pair at once
    (block graphs of Steiner 2-designs; Brouwer & Van Maldeghem, Strongly
    Regular Graphs).  Those premises are checked exhaustively below.  The
    spot check counts, in the rows themselves, the common neighbours of
    SRG_SPOT_PAIRS pairs: half random edges, half random vertex pairs.
    lambda_observed and mu_observed are reported only when all of it holds.

    Symmetry is read off the edge bits.  The m edges are the member pairs
    a < b of the point cliques, distinct because no two secants share two
    points (the constructor checks it).  If both bits of each are set and 2m
    bits off the diagonal are set in all, the set bits are exactly those, a
    symmetric set.  The pairs are tested a block of cliques at a time.
    """
    q = g.q
    n_expected = q**4 - q**3 + q**2
    d_expected = q**3 + q**2 - q - 1
    degree = popcount_rows(g.words)
    set_bits = int(degree.sum())
    diagonal = g.adjacent(np.arange(g.n), np.arange(g.n))
    edge_bits = mirror_bits = True
    step = max(1, (SAMPLE_BLOCK << 4) // comb(g.cliques.shape[1], 2))  # about 2^18 pairs
    for s in range(0, len(g.cliques), step):
        a, b = row_pairs(g.cliques[s:s + step])
        edge_bits &= bool(g.adjacent(a, b).all())
        mirror_bits &= bool(g.adjacent(b, a).all())
    checks: dict[str, bool] = {}
    checks["vertex_count"] = g.n == n_expected
    checks["regular_degree"] = bool(np.all(degree == d_expected))
    checks["adjacency_symmetric"] = edge_bits and mirror_bits and set_bits - int(diagonal.sum()) == 2 * g.m
    checks["adjacency_irreflexive"] = not diagonal.any()
    checks["edge_count"] = 2 * g.m == g.n * d_expected
    # with symmetry, every edge of the incidence set in the rows and nothing
    # else set makes them the block graph of N
    checks["adjacency_is_block_graph"] = edge_bits and set_bits == 2 * g.m

    # clique family statistics
    cl = g.cliques
    checks["clique_count"] = cl.shape[0] == q**3 + 1
    checks["clique_order"] = cl.shape[1] == q * q
    # two point cliques share exactly one vertex iff their two points lie
    # on exactly one secant
    checks["cliques_share_one_vertex"] = _each_pair_once(*row_pairs(g.vertex_cliques), len(cl))
    checks["vertex_in_q_plus_1_cliques"] = g.vertex_cliques.shape[1] == q + 1
    checks["edges_partitioned_by_cliques"] = (q**3 + 1) * comb(q * q, 2) == g.m

    lam_expected = 2 * q * q - 2
    mu_expected = (q + 1) ** 2
    rng = np.random.default_rng(SRG_SPOT_SEED)
    half = SRG_SPOT_PAIRS // 2
    _, eu, ev = g.edge_ends(rng.integers(0, g.m, size=half))
    a = rng.integers(0, g.n, size=half)
    b = (a + rng.integers(1, g.n, size=half)) % g.n
    u = np.concatenate([eu, a])
    v = np.concatenate([ev, b])
    common = np.concatenate([
        popcount_rows(common_neighbors(g.words, part)) for part in row_blocks(np.stack([u, v], axis=1), g.words)
    ])
    adjacent = g.adjacent(u, v)
    checks["lambda"] = bool(np.all(common[adjacent] == lam_expected))
    checks["mu"] = bool(np.all(common[~adjacent] == mu_expected))
    passed = all(checks.values())
    return SrgReport(
        q=q,
        n=g.n,
        d=int(degree[0]),
        lambda_observed=lam_expected if passed else None,
        mu_observed=mu_expected if passed else None,
        checks=checks,
        spot_pairs_adjacent=int(adjacent.sum()),
        spot_pairs_nonadjacent=int(len(adjacent) - adjacent.sum()),
    )


# ----------------------------------------------------------------------
# K4 structure
# ----------------------------------------------------------------------

def enumerate_all_triangles(g: IntersectionGraph) -> np.ndarray:
    """All triangles (a < b < c), lexicographic: the edge list extended once."""
    return extend_cliques(g.words, np.stack([g.eu, g.ev], axis=1))


def k4_clique_property(g: IntersectionGraph, rows: np.ndarray) -> np.ndarray:
    """For each row of secants (a triangle, a K4, any width), whether >= 3
    of them pass through one unital point (share a point clique).  Each
    secant lists a point once, so that is a run of length >= 3 in the row's
    sorted incidences.  On a triangle it is the degenerate (concurrent)
    test.  The rows run in blocks of SAMPLE_BLOCK."""
    out = np.empty(len(rows), dtype=bool)
    for s in range(0, len(rows), SAMPLE_BLOCK):
        part = rows[s:s + SAMPLE_BLOCK]
        pts = g.vertex_cliques[part].reshape(len(part), part.shape[1] * g.vertex_cliques.shape[1])
        pts.sort(axis=1)
        out[s:s + SAMPLE_BLOCK] = (pts[:, 2:] == pts[:, :-2]).any(axis=1)
    return out


def edge_k4s(g: IntersectionGraph, e: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The K4s {a, b, c, d} through the edges e whose c and d lie off the
    edge's point clique X: the number found, and the row in e and the
    vertices a, b, c, d of each O'Nan one.

    Two of the thirds c_ij (edge_points) meet where they share a point.
    c_ij meets a only at P_i and b only at Q_j, so the q thirds at each P_i
    and at each Q_j make the q^2(q-1) concurrent K4s of every edge.  Any
    two thirds that share one of their q-1 points off a and b are an O'Nan
    configuration; sorting each edge's (point, third) keys makes them
    neighbours."""
    q, k = g.q, g.cliques.shape[1]
    _, a, b, P, Q = g.edge_points(e)
    thirds = g.cliques[P, g.pos[P, Q]].reshape(len(e), k)
    pts = g.vertex_cliques[thirds].reshape(len(e), q, q, q + 1)
    pts = pts[(pts != P[..., None]) & (pts != Q[..., None])].reshape(len(e), k * (q - 1))
    key = pts * k + np.arange(k, dtype=np.int32).repeat(q - 1)
    key.sort(axis=1)
    point = key // k
    # the keys s apart share a point for every run longer than s
    pairs = [np.empty((0, 3), dtype=np.intp)]
    for s in range(1, key.shape[1]):
        r, i = np.nonzero(point[:, s:] == point[:, :-s])
        if not len(r):
            break
        pairs.append(np.column_stack([r, i + s, i]))
    rows, later, earlier = np.concatenate(pairs).T
    c, d = (thirds[rows, key[rows, col] % k] for col in (later, earlier))
    return len(e) * k * (q - 1) + len(rows), rows, np.stack([a[rows], b[rows], c, d], axis=1)


def verify_k4_structure(
    g: IntersectionGraph,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 1 << 14,
) -> Certificate:
    """Certify that every K4 has >= 3 vertices in one point clique by
    edge_k4s, in blocks of K4_EDGE_BLOCK edges: over every edge, or over
    `samples` seeded uniform draws.  The violations are the distinct O'Nan
    quads, the lexicographically first the witness.  Checking no edge is
    inconclusive."""
    params = {"q": g.q, "mode": mode}
    if mode == "exhaustive":
        edges_checked = g.m
        blocks = (np.arange(s, min(s + K4_EDGE_BLOCK, g.m)) for s in range(0, g.m, K4_EDGE_BLOCK))
    elif mode == "sampled":
        params.update({"seed": seed, "samples": samples})
        edges_checked = samples
        # drawn block by block: the same stream as one draw of all samples
        rng = np.random.default_rng(seed)
        blocks = (rng.integers(0, g.m, size=min(K4_EDGE_BLOCK, samples - s))
                  for s in range(0, samples, K4_EDGE_BLOCK))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    k4_checked, onan = 0, [np.empty((0, 4), dtype=np.int32)]
    for e in blocks:
        found, _, quads = edge_k4s(g, e)
        k4_checked += found
        onan.append(quads)
    onan = np.unique(np.sort(np.concatenate(onan), axis=1), axis=0)
    quantities = {"edges_checked": edges_checked, "k4_checked": k4_checked, "violations": len(onan)}
    if len(onan):
        quantities["witness"] = [int(x) for x in onan[0]]
    return Certificate(
        claim="every K4 has >= 3 vertices in a point clique" + (" (sampled)" if mode == "sampled" else ""),
        params=params,
        quantities=quantities,
        outcome="fail" if len(onan) else "pass" if edges_checked else "inconclusive",
    )


# ----------------------------------------------------------------------
# Serialization: edge list and graph6
# ----------------------------------------------------------------------

def edge_list_blocks(g: IntersectionGraph):
    """The edge-list text, one 'u v' line per canonical edge, as consecutive
    blocks of at most EDGE_TEXT_BLOCK lines."""
    for s in range(0, g.m, EDGE_TEXT_BLOCK):
        block = slice(s, s + EDGE_TEXT_BLOCK)
        uv = np.stack([g.eu[block], g.ev[block]], axis=1).ravel().tolist()
        # one format string over the block's interleaved endpoints
        yield ("%d %d\n" * (len(uv) // 2)) % tuple(uv)


def graph6_bytes(n: int, eu: np.ndarray, ev: np.ndarray) -> bytes:
    """Standard graph6 encoding of the undirected graph with edges eu < ev."""
    if n <= 62:
        header = bytes([n + 63])
    elif n <= 258047:
        header = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError("graph too large for 3-byte graph6 header")
    # graph6 lists the pairs i < j with j ascending, then i ascending: edge
    # (i, j) is bit j(j-1)/2 + i
    bits = np.zeros(-(-n * (n - 1) // 12) * 6, dtype=bool)
    bits[ev.astype(np.int64) * (ev - 1) // 2 + eu] = True
    # six bits per byte, most significant first, plus 63
    vals = np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2
    return header + (vals + 63).tobytes()
