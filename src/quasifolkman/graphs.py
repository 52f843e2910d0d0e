"""The secant intersection graph and its structural verification.

Vertices are secants (ids aligned with the unital's secant enumeration);
two vertices are adjacent when their secants meet in a unital point.  The
point cliques -- all secants through one unital point -- form a family of
q^3+1 maximal cliques of order q^2 covering every edge exactly once, and
the graph is strongly regular with lambda = 2q^2-2 and mu = (q+1)^2.

Every K4 has at least three vertices inside one point clique: four secants
pairwise meeting in six distinct unital points would be an O'Nan
configuration, which Hermitian unitals do not contain (O'Nan 1972).
edge_k4s finds the K4s at an edge from the incidence alone; an O'Nan
configuration shows up at each of its six edges, so running every edge is
exhaustive.  verify_k4_structure is that direct sweep, over every edge or
a seeded sample.  verify_k4_by_symmetry covers every edge from one edge per
orbit instead.  PGU(3, q) preserves the Hermitian form and is 2-transitive
on the unital's points (O'Nan 1972; Taylor 1974), and an automorphism maps
the K4s at an edge onto those at its image.  unital_symmetry takes nothing
about the group on trust: each generator's action on points and secants is
checked against the incidence, transitivity by a search, and each
stabiliser element to fix point 0.  When a check fails the caller falls
back to the direct sweep.

The graph is held as its incidence alone: vertex_cliques lists each
secant's points, cliques each point's secants, and at each secant's position
in the cliques of its points.  The point-pair -> secant table pos derives
from them: built whole on first use for the readers that gather it over
every row, or read a row (pos_rows) or a column (pos_cols) at a time;
certify, build and check-coloring never build it.  No adjacency is
stored: two secants are adjacent when they share a point.
Only the triangle enumerations, which run at small q or on a star instance,
pack adjacency rows, from an edge list (edge_rows): extend_cliques extends
each clique row by every common neighbour above its last vertex, read off
the AND of bit-packed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import comb

import numpy as np

from . import _kernel
from .budget import slices
from .certificates import Certificate
from .plane import ProjectivePlane, UnitalIncidence

#: q values the commands run at; cli.Q_LIMIT caps all but certify lower
SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37)


class GraphError(RuntimeError):
    pass


class IntersectionGraph:
    """Intersection graph of a unital's secants, read off the secant -> points
    incidence N.

    Attributes
    ----------
    n : vertex count, q^4 - q^3 + q^2.
    cliques : (q^3+1, q^2) int32, sorted member lists of the point cliques
        (row i = secants through dense unital point i).
    vertex_cliques : (n, q+1) int32, the incidence itself: the sorted dense
        unital points (equivalently, point-clique ids) of each secant.  An
        int32 incidence is held as given, not copied: build_graph's is the
        unital's secant_points.
    at : (n, q+1) int32, at[s, j] is the position of secant s in the clique
        of its point vertex_cliques[s, j].

    No adjacency is stored: two secants are adjacent when they share a
    point, and adj scatters the point cliques into a fresh n x n copy.

    Nor is the point-pair table stored; it derives from cliques and at.
    pos : (q^3+1, q^3+1) int32, pos[P, A] is the position in P's clique of
        the secant through unital points P and A (-1 on the diagonal).  It
        is built on first use for edge_at, the search's partner tables,
        simulate's concentration sample and the direct K4 sweep, which
        gather it over every row.  pos_rows and pos_cols read a row or a
        column in O(q^3): the K4 certificate reads rows, the spanning
        cliques and the Goodman count columns.  The constructor only counts
        each point's secants: verify_srg's design check, or pos when it is
        built, finds a pair of points on two secants.

    The canonical edges, lexicographic with a < b, are streamed a block of
    vertices at a time (edge_blocks): the edge-list text, the graph
    checksum and the coloring files read that stream and hold no m-long
    table, and so does the triangle enumeration behind the q <= 4 family.
    The one m-long table is scattered from it on first use for search's
    partner tables and batched Goodman counts; build, certify, simulate and
    check-coloring never read it.

    clique_edges : (q^3+1, C(q^2, 2)) int32, the lexicographic id of the
        edge between each pair of positions in each point clique, pairs in
        triu order.

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
        self.vertex_cliques = pts.astype(np.int32, copy=False)
        # a stable sort of the flat incidence lists each point's secants in
        # order; its inverse is each incidence's position in its clique
        inc = np.argsort(self.vertex_cliques.ravel(), kind="stable")
        at = np.empty(len(inc), dtype=np.int32)
        at[inc] = np.tile(np.arange(k, dtype=np.int32), npts)
        self.at = at.reshape(n, q + 1)
        inc //= q + 1
        self.cliques = inc.astype(np.int32).reshape(npts, k)
        del inc
        self.m = npts * comb(k, 2)
        iu, iv = triu_pairs(k)
        self._pair = np.zeros((k, k), dtype=np.int32)
        self._pair[iu, iv] = self._pair[iv, iu] = np.arange(len(iu))

    # -- lookups ------------------------------------------------------------

    @property
    def adj(self) -> np.ndarray:
        """(n, n) bool adjacency, a fresh scatter of every point clique's
        member pairs; for small q."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[self.cliques[:, :, None], self.cliques[:, None, :]] = True
        np.fill_diagonal(adj, False)
        return adj

    @cached_property
    def pos(self) -> np.ndarray:
        """Built on first use, for the readers that gather it over all rows:
        secant s sits at at[s, i] in the clique of its point vc[s, i], so
        that is pos[vc[s, i], vc[s, j]] for each of its points vc[s, j].
        The n C(q+1, 2) = C(q^3+1, 2) secant point pairs fill every
        off-diagonal entry only if each is written once, so none may be
        left at -1."""
        npts, vc = len(self.cliques), self.vertex_cliques
        pos = np.full((npts, npts), -1, dtype=np.int32)
        pos[vc[:, :, None], vc[:, None, :]] = self.at[:, :, None]
        np.fill_diagonal(pos, 0)
        if pos.min() < 0:
            raise GraphError("two secants share more than one unital point")
        np.fill_diagonal(pos, -1)
        return pos

    def pos_rows(self, P: np.ndarray) -> np.ndarray:
        """The rows pos[P, :] of the points P, shape (len(P), q^3+1), from P's
        cliques alone: member i of P's clique sits at i, and so does every
        point of it but P."""
        rows = np.full((len(P), len(self.cliques)), -1, dtype=np.int32)
        rows[np.arange(len(P))[:, None, None], self.vertex_cliques[self.cliques[P]]] = \
            np.arange(self.cliques.shape[1], dtype=np.int32)[:, None]
        rows[np.arange(len(P)), P] = -1
        return rows

    def pos_cols(self, Q: np.ndarray) -> np.ndarray:
        """The columns pos[:, Q] of the points Q, shape (q^3+1, len(Q)), from
        Q's cliques: member s of Q's clique sits at at[s, j] in the clique of
        its j-th point."""
        cols = np.full((len(self.cliques), len(Q)), -1, dtype=np.int32)
        members = self.cliques[Q]
        cols[self.vertex_cliques[members], np.arange(len(Q))[:, None, None]] = self.at[members]
        cols[Q, np.arange(len(Q))] = -1
        return cols

    def edge_at(self, P, A, B):
        """Id of the edge at unital point P between the secants through
        (P, A) and (P, B); vectorized, gathers only.  P, A and B must be
        distinct unital points."""
        return self.clique_edges[P, self._pair[self.pos[P, A], self.pos[P, B]]]

    def edge_ends(self, e):
        """The meet point X and the ends a < b of the clique-major edges e:
        edge e is pair e % C(q^2, 2), in triu order, of X = e // C(q^2, 2)."""
        X, t = np.divmod(e, self.m // len(self.cliques))
        iu, iv = triu_pairs(self.cliques.shape[1])
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

    def edge_blocks(self):
        """The canonical edges in lexicographic order, as consecutive blocks
        (a, b, X, t) of int32 arrays: edge a-b, a < b, is pair t, in triu
        order, of the point clique X.

        Vertex a's edges to larger vertices are the members after a in its
        q+1 point cliques, a's own position being at[a].  A block takes
        whole vertices and sorts their candidate keys: each key packs a's
        offset in the block, b, X and t into bit fields of one int64, in
        that order, so the sorted keys are the block's edges in order and
        their fields the four outputs.  No m-long array is built."""
        (npts, k), n = self.cliques.shape, self.n
        widths = [(comb(k, 2) - 1).bit_length(), (npts - 1).bit_length(), (n - 1).bit_length()]
        tb, xb, bb = widths
        # per vertex: its (q+1) q^2 candidate keys, about 40 bytes each with
        # their gathers, mask and fields
        for part in slices(n, 40 * (self.q + 1) * k):
            X, at = self.vertex_cliques[part], self.at[part]
            key = self.cliques[X].astype(np.int64) << xb
            key |= X[:, :, None]
            key <<= tb
            key |= self._pair[at]
            key |= (np.arange(len(X), dtype=np.int64) << (bb + xb + tb))[:, None, None]
            key = key[np.arange(k) > at[:, :, None]]
            key.sort()
            fields = []
            for width in widths:
                fields.append((key & (1 << width) - 1).astype(np.int32))
                key >>= width
            t, X, b = fields
            yield key.astype(np.int32) + part.start, b, X, t

    @cached_property
    def clique_edges(self) -> np.ndarray:
        """Built on first use: the edge stream's blocks scatter their ids
        to their pairs, with no sort."""
        npts = len(self.cliques)
        clique_edges = np.empty(self.m, dtype=np.int32)
        s = 0
        for _, _, X, t in self.edge_blocks():
            clique_edges[X * (self.m // npts) + t] = np.arange(s, s + len(X), dtype=np.int32)
            s += len(X)
        return clique_edges.reshape(npts, self.m // npts)

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
        the secants cliques[P, pos[P, Q]] through P and the points Q of v,
        read from the columns of v's points (pos_cols).  Shape (len(vs),
        q^3 - q, q+1); rows by point id, members ascending."""
        off = self.off_points(vs)[:, :, None]
        cols = self.pos_cols(self.vertex_cliques[vs].ravel()).reshape(len(self.cliques), len(vs), -1)
        sc = self.cliques[off, np.take_along_axis(cols.transpose(1, 0, 2), off, axis=1)]
        sc.sort(axis=2)
        return sc


@cache
def triu_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(k, 1), built once per k; the arrays are read-only."""
    iu, iv = np.triu_indices(k, k=1)
    iu.flags.writeable = iv.flags.writeable = False
    return iu, iv


def row_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (a, b) of entries a before b inside each row, row-major;
    ascending rows give a < b."""
    iu, iv = triu_pairs(rows.shape[1])
    return rows[:, iu].ravel(), rows[:, iv].ravel()


def build_graph(unital: UnitalIncidence) -> IntersectionGraph:
    """The intersection graph of the unital's secants, from the incidence data."""
    return IntersectionGraph(unital.q, unital.secant_points)


def build_graph_for_q(q: int) -> IntersectionGraph:
    from .plane import build_unital_for_q

    return build_graph(build_unital_for_q(q))


# ----------------------------------------------------------------------
# Bit-packed adjacency rows and the clique-extension scan, for the
# triangle enumerations at small q
# ----------------------------------------------------------------------

def edge_rows(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(n, ceil(n/64)) uint64 adjacency rows of the graph with the distinct
    edges u-v, u != v: bit b % 64 of word b // 64 of row a is set for every
    edge a-b.  np.add.at sets the bits, a block of edges at a time; it acts
    as OR because no bit is added twice."""
    w = -(-n // 64)
    words = np.zeros((n, w), dtype=np.uint64)
    # per edge: its two ends as intp (16 bytes) and, one direction at a
    # time, the word index, the shift and the bit with their temporaries (32)
    for block in slices(len(u), 48):
        a0, b0 = np.asarray(u[block], dtype=np.intp), np.asarray(v[block], dtype=np.intp)
        for a, b in ((a0, b0), (b0, a0)):
            np.add.at(words.ravel(), a * w + (b >> 6), np.left_shift(np.uint64(1), (b & 63).astype(np.uint64)))
    return words


def common_neighbors(words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The AND of the packed rows (uint64 words) of each row's vertices."""
    cm = words[rows[:, 0]]
    for j in range(1, rows.shape[1]):
        cm &= words[rows[:, j]]
    return cm


def scan_bytes(words: np.ndarray) -> int:
    """The bytes a clique row touches in extend_cliques, as measured on the
    whole graph at q = 4: per word, the AND and its operand, the candidate
    bits unpacked at 64 bytes, and the indices of the set ones."""
    return 192 * words.shape[1]


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
    for block in slices(len(rows), scan_bytes(words)):
        part = rows[block]
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
    point_pairs: int

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def coverage(self) -> dict:
        """How lambda and mu were established, for certificates."""
        return {"path": "design identity", "point_pairs_checked": self.point_pairs}


def design_row_bytes(g: IntersectionGraph) -> int:
    """The bytes a point touches in verify_srg's design check: per member
    point, its int32 gather and then either the at gather with four bool
    masks or the intp copy that bincount makes (12 bytes in all); and 8 for
    each of its int64 counts."""
    return 12 * g.cliques.shape[1] * (g.q + 1) + 8 * len(g.cliques)


def _design_block(g: IntersectionGraph, P: np.ndarray) -> tuple[bool, bool]:
    """verify_srg's two incidence checks on the points P: whether every
    member of their cliques passes through its point, and whether each sits
    where at records and the members' points count as the design needs."""
    npts, k = g.cliques.shape
    members = g.cliques[P]
    pts = g.vertex_cliques[members]
    here = pts == P[:, None, None]
    on_point = bool(here.any(axis=2).all())
    # wherever a member passes through P, at names its place in P's clique
    placed = bool(((g.at[members] == np.arange(k)[:, None]) | ~here).all())
    del here
    pts += (np.arange(len(P), dtype=np.int32) * npts)[:, None, None]
    counts = np.bincount(pts.ravel(), minlength=len(P) * npts).reshape(len(P), npts)
    del pts
    counts[np.arange(len(P)), P] -= k - 1
    counts -= 1
    return on_point, placed and not counts.any()


def verify_srg(g: IntersectionGraph) -> SrgReport:
    """Strong regularity from the unital's design identity, its premises
    checked exhaustively on the incidence.

    Let N be the (n, q^3+1) secant-point incidence (vertex_cliques); the
    graph is its block graph, A = N N^T - (q+1) I.  When every secant has
    q+1 points and every pair of unital points lies on exactly one secant,
    N^T N = J + (q^2-1) I and

        A^2 = (q+1)^2 J + (q-3)(q+1) (A + (q+1) I) + (q+1)^2 I,

    which gives lambda = 2q^2-2 and mu = (q+1)^2 for every pair at once
    (block graphs of Steiner 2-designs; Brouwer & Van Maldeghem, Strongly
    Regular Graphs).  lambda_observed and mu_observed are reported only when
    every check holds.

    Every secant lists q+1 distinct points, and every member of clique P
    passes through P (clique_members_on_point).  A bincount of the points
    of P's q^2 members then finds P q^2 times, and every other unital point
    once exactly when P's clique lists each secant through P once and each
    other point lies on one of them.  Over every P that is the 2-design:
    each clique holds every secant through its point, and two point cliques
    share exactly one vertex.  With it, each member must sit where at
    records, so that the rows and columns of pos read from at name the
    cliques' members.  The counts run over blocks of points and are
    compared in place.
    """
    q = g.q
    cl, vc = g.cliques, g.vertex_cliques
    npts = len(cl)
    n_expected = q**4 - q**3 + q**2
    d_expected = q**3 + q**2 - q - 1
    on_point = share_one = True
    for block in slices(npts, design_row_bytes(g)):
        on, one = _design_block(g, np.arange(npts)[block])
        on_point &= on
        share_one &= one
    checks: dict[str, bool] = {}
    checks["vertex_count"] = g.n == n_expected
    checks["edge_count"] = 2 * g.m == g.n * d_expected
    checks["clique_count"] = npts == q**3 + 1
    checks["clique_order"] = cl.shape[1] == q * q
    checks["vertex_in_q_plus_1_cliques"] = vc.shape[1] == q + 1 and bool(np.all(vc[:, :-1] < vc[:, 1:]))
    checks["clique_members_on_point"] = on_point
    checks["cliques_share_one_vertex"] = share_one
    checks["edges_partitioned_by_cliques"] = (q**3 + 1) * comb(q * q, 2) == g.m
    passed = all(checks.values())
    return SrgReport(
        q=q,
        n=g.n,
        d=vc.shape[1] * (cl.shape[1] - 1),
        lambda_observed=2 * q * q - 2 if passed else None,
        mu_observed=(q + 1) ** 2 if passed else None,
        checks=checks,
        point_pairs=comb(npts, 2),
    )


# ----------------------------------------------------------------------
# K4 structure
# ----------------------------------------------------------------------

def enumerate_all_triangles(g: IntersectionGraph) -> np.ndarray:
    """All triangles (a < b < c), lexicographic: the edge list, read from
    the edge stream, extended once."""
    edges = np.concatenate([np.stack([a, b], axis=1) for a, b, _, _ in g.edge_blocks()])
    return extend_cliques(edge_rows(g.n, *edges.T), edges)


def k4_clique_property(g: IntersectionGraph, rows: np.ndarray) -> np.ndarray:
    """For each row of secants (a triangle, a K4, any width), whether >= 3
    of them pass through one unital point (share a point clique).  Each
    secant lists a point once, so that is a run of length >= 3 in the row's
    sorted incidences.  On a triangle it is the degenerate (concurrent)
    test.  The rows run in blocks."""
    out = np.empty(len(rows), dtype=bool)
    width = rows.shape[1] * g.vertex_cliques.shape[1]
    # per row: its intp indices, the int32 point gather and the bool compare
    for block in slices(len(rows), 8 * rows.shape[1] + 5 * width):
        part = rows[block]
        pts = g.vertex_cliques[part].reshape(len(part), width)
        pts.sort(axis=1)
        out[block] = (pts[:, 2:] == pts[:, :-2]).any(axis=1)
    return out


def edge_k4s(g: IntersectionGraph, e: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """The K4s {a, b, c, d} through the edges e whose c and d lie off the
    edge's point clique X: the number found, and the row in e and the
    vertices a, b, c, d of each O'Nan one.  The thirds are read through
    pos once the graph has built it (the direct sweep does), and otherwise
    through the rows of the edges' points P (pos_rows).

    Two of the thirds c_ij (edge_points) meet where they share a point.
    c_ij meets a only at P_i and b only at Q_j, so the q thirds at each P_i
    and at each Q_j make the q^2(q-1) concurrent K4s of every edge.  Any
    two thirds that share one of their q-1 points off a and b are an O'Nan
    configuration; sorting each edge's (point, third) keys makes them
    neighbours."""
    q, k = g.q, g.cliques.shape[1]
    _, a, b, P, Q = g.edge_points(e)
    if "pos" in vars(g):
        place = g.pos[P, Q]
    else:
        points, inv = np.unique(P, return_inverse=True)
        place = g.pos_rows(points)[inv.reshape(P.shape), Q]
    thirds = g.cliques[P, place].reshape(len(e), k)
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


def k4_edge_bytes(g: IntersectionGraph, rows: bool = False) -> int:
    """The bytes an edge touches in edge_k4s: 8 for each of the k(q+1)
    points of its thirds and each of the k(q-1) keys, k = q^2; with rows,
    read through pos_rows, 16 more for each entry of its q rows (the int32
    row, its int32 point gather and that gather's intp copy)."""
    return 16 * g.q**3 + rows * 16 * g.q * len(g.cliques)


def verify_k4_structure(
    g: IntersectionGraph,
    mode: str = "exhaustive",
    seed: int = 0,
    samples: int = 1 << 14,
) -> Certificate:
    """Certify that every K4 has >= 3 vertices in one point clique by
    edge_k4s, a block of edges at a time: over every edge, or over
    `samples` seeded uniform draws.  The violations are the distinct O'Nan
    quads, the lexicographically first the witness.  Checking no edge is
    inconclusive."""
    params = {"q": g.q, "mode": mode, "path": "direct"}
    g.pos  # every block gathers it over all rows: build it once
    if mode == "exhaustive":
        edges_checked = g.m
        blocks = (np.arange(block.start, block.stop) for block in slices(g.m, k4_edge_bytes(g)))
    elif mode == "sampled":
        params.update({"seed": seed, "samples": samples})
        edges_checked = samples
        # drawn block by block: the same stream as one draw of all samples
        rng = np.random.default_rng(seed)
        blocks = (rng.integers(0, g.m, size=block.stop - block.start)
                  for block in slices(samples, k4_edge_bytes(g)))
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
# Symmetry: verified unitary automorphisms of the unital
# ----------------------------------------------------------------------

@dataclass
class UnitalSymmetry:
    """Verified automorphisms of a unital's incidence.

    points, secants : each generator's permutation of the dense unital
        points and of the secants.
    stabiliser : Schreier elements, point permutations that fix point 0.
    """

    points: list[np.ndarray]
    secants: list[np.ndarray]
    stabiliser: list[np.ndarray]


def unitary_generators(plane: ProjectivePlane) -> list[np.ndarray]:
    """3x3 matrices over GF(q^2), as field codes, that preserve the Hermitian
    form X^{q+1} + Y^{q+1} + Z^{q+1}, chosen without randomness: the
    coordinate swap, the 3-cycle, diag(lam, 1, 1) for the least code lam != 1
    of norm 1, and the blocks [[a, b], [-b^q, a^q]] on X, Y for the first
    three code pairs with a, b != 0 and N(a) + N(b) = 1.  At q = 2 no such
    pair exists (a nonzero norm is 1 and 1 + 1 = 0), so there are none."""
    fld = plane.field
    add, nrm, frob, neg = fld.add_table, fld.norm_table, fld.frobenius_table, plane.neg
    lam = 2 + int(np.argmax(nrm[2:] == 1))
    gens = [np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
            np.diag([lam, 1, 1])]
    a, b = np.nonzero(add[nrm[:, None], nrm[None, :]] == 1)
    keep = (a > 0) & (b > 0)
    for x, y in zip(a[keep][:3], b[keep][:3]):
        gens.append(np.array([[x, y, 0], [neg[frob[y]], frob[x], 0], [0, 0, 1]]))
    return gens


def point_action(unital: UnitalIncidence, M: np.ndarray) -> np.ndarray | None:
    """The permutation X -> M X of the unital's dense points, or None when M
    does not map them bijectively onto themselves.  Images are named by
    plane id (ProjectivePlane.ids)."""
    plane = unital.plane
    add, mul = plane.field.add_table, plane.field.mul_table
    x = plane.coord_array()[unital.unital_points]
    ids = plane.ids(np.stack([add[add[mul[M[i, 0], x[:, 0]], mul[M[i, 1], x[:, 1]]], mul[M[i, 2], x[:, 2]]]
                              for i in range(3)], axis=1))
    # the images must be the unital's points, each once.  A singular M fails:
    # its nonzero images lie on one line, which holds at most q+1 of them, and
    # a zero image reads as the one point (0, 0, 1)
    if not np.array_equal(np.sort(ids), unital.unital_points):
        return None
    return np.searchsorted(unital.unital_points, ids).astype(np.int32)


def secant_action(g: IntersectionGraph, perm: np.ndarray) -> np.ndarray | None:
    """The permutation of the secants that the point permutation perm
    induces, or None when some secant's image points are not a secant: the
    secant through its first two image points, found by one searchsorted
    over the secants' (first point, second point) keys, must list all of
    them."""
    vc, npts = g.vertex_cliques, len(g.cliques)
    img = perm[vc]
    img.sort(axis=1)
    key = vc[:, 0].astype(np.int64) * npts + vc[:, 1]
    order = np.argsort(key)
    idx = np.searchsorted(key, img[:, 0].astype(np.int64) * npts + img[:, 1], sorter=order)
    sec = order[np.minimum(idx, len(key) - 1)].astype(np.int32)
    return sec if np.array_equal(vc[sec], img) else None


def orbit_labels(size: int, perms: list[np.ndarray]) -> np.ndarray:
    """Each of range(size)'s least orbit-mate under the group the
    permutations perms generate: labels flow to the smaller end of every
    i -> perm[i], then jump to their own labels, until nothing moves."""
    lab = np.arange(size)
    while True:
        old = lab
        for p in perms:
            lab = np.minimum(lab, lab[p])
            lab[p] = np.minimum(lab[p], lab)
        lab = lab[lab]
        if np.array_equal(lab, old):
            return lab


def unital_symmetry(unital: UnitalIncidence, g: IntersectionGraph) -> UnitalSymmetry | None:
    """The unitary generators' verified actions, or None when any generator
    is not an automorphism of the incidence or they are not transitive on
    the points.

    A breadth-first search from point 0 keeps, per point x, the parent and
    the generator that reached it; the transversal t_x, mapping 0 to x, is
    read back along that tree.  The Schreier elements t_{g(x)}^-1 g t_x, for
    every generator g and the last len(gens) points x the search reached,
    fix point 0, and each is checked to.  Products of verified generators,
    they are automorphisms too."""
    points, secants = [], []
    for M in unitary_generators(unital.plane):
        perm = point_action(unital, M)
        sec = None if perm is None else secant_action(g, perm)
        if sec is None:
            return None
        points.append(perm)
        secants.append(sec)
    npts = len(g.cliques)
    parent, via = np.full(npts, -1), np.full(npts, -1)
    parent[0] = 0
    order = frontier = np.zeros(1, dtype=np.intp)
    while len(frontier):
        found = []
        for k, perm in enumerate(points):
            y = perm[frontier]
            fresh = parent[y] < 0
            y, first = np.unique(y[fresh], return_index=True)
            parent[y], via[y] = frontier[fresh][first], k
            found.append(y)
        frontier = np.concatenate(found)
        order = np.concatenate([order, frontier])
    if len(order) != npts:
        return None

    def transversal(x):
        chain = []
        while x:
            chain.append(via[x])
            x = parent[x]
        t = np.arange(npts)
        for k in reversed(chain):
            t = points[k][t]
        return t

    stabiliser = []
    for x in order[-len(points):]:
        tx = transversal(x)
        for perm in points:
            h = np.argsort(transversal(perm[x]))[perm[tx]]
            if h[0] != 0:
                return None
            stabiliser.append(h)
    return UnitalSymmetry(points=points, secants=secants, stabiliser=stabiliser)


def verify_k4_by_symmetry(g: IntersectionGraph, sym: UnitalSymmetry) -> Certificate | None:
    """verify_k4_structure over every edge, from one edge per orbit.

    The group is transitive on the points, so every edge is the image of an
    edge at point 0, a pair of positions in its clique; the stabiliser moves
    those pairs in orbits (orbit_labels).  edge_k4s runs on the least pair
    of each orbit, and each count weighs orbit size x (q^3+1).  Returns None
    when a representative holds an O'Nan K4, leaving its count and witness
    to the direct sweep."""
    q, (npts, k) = g.q, g.cliques.shape
    # point 0 is the least point of each secant through it, so column 1 is
    # another point of it; an element h fixing 0 moves that secant to the
    # one through 0 and h(other)
    other = g.vertex_cliques[g.cliques[0], 1]
    iu, iv = triu_pairs(k)
    row0 = g.pos_rows(np.array([0]))[0]
    moves = [g._pair[p[iu], p[iv]] for p in (row0[h[other]] for h in sym.stabiliser)]
    # clique-major edge r is pair r of point 0's clique
    reps, size = np.unique(orbit_labels(len(iu), moves), return_counts=True)
    found = 0
    for block in slices(len(reps), k4_edge_bytes(g, rows=True)):
        per_block, rows, _ = edge_k4s(g, reps[block])
        if len(rows):
            return None
        found += per_block
    weight = size * npts
    return Certificate(
        claim="every K4 has >= 3 vertices in a point clique",
        params={"q": q, "mode": "exhaustive", "path": "symmetry"},
        quantities={"generators": len(sym.points), "stabiliser_elements": len(sym.stabiliser),
                    "edge_orbits": len(reps), "edges_covered": int(weight.sum()),
                    # without O'Nan rows each edge counts its q^2(q-1) concurrent K4s
                    "k4_checked": int(weight.sum()) * (found // len(reps)), "violations": 0},
        outcome="pass",
    )


# ----------------------------------------------------------------------
# Serialization: edge list and graph6
# ----------------------------------------------------------------------

def edge_list_blocks(g: IntersectionGraph, blocks=None):
    """The edge-list text, one 'u v' line per canonical edge, as consecutive
    bytes blocks, one per block of the edge stream (blocks, by default
    g.edge_blocks()).  The compiled kernel (_kernel.c) writes each block's
    lines in decimal; without it, _numpy_edge_lines lays them out."""
    width = len(str(g.n - 1))
    blocks = g.edge_blocks() if blocks is None else blocks
    kernel = _kernel._load_kernel()
    if kernel is None:
        yield from _numpy_edge_lines(g.n, width, blocks)
        return
    for u, v, _, _ in blocks:
        u, v = (np.ascontiguousarray(a, dtype=np.int32) for a in (u, v))
        text = np.empty(len(u) * (2 * width + 2), dtype=np.uint8)
        yield text[:kernel.edge_lines(u.ctypes.data, v.ctypes.data, len(u), text.ctypes.data)].tobytes()


def _numpy_edge_lines(n: int, width: int, blocks):
    """edge_list_blocks in numpy: the fallback without a C compiler, and the
    kernel's reference.  A table holds each vertex id's decimal digits at a
    fixed width, right-aligned after zero bytes; each block lays its lines
    out at that width and one mask drops the zero bytes."""
    ids = np.arange(n)[:, None]
    scale = 10 ** np.arange(width - 1, -1, -1)
    digits = (ord("0") + ids // scale % 10).astype(np.uint8)
    digits[(ids < scale) & (scale > 1)] = 0
    for u, v, _, _ in blocks:
        lines = np.empty((len(u), 2 * width + 2), dtype=np.uint8)
        lines[:, :width] = digits[u]
        lines[:, width] = ord(" ")
        lines[:, width + 1:-1] = digits[v]
        lines[:, -1] = ord("\n")
        text = lines.ravel()
        yield text[text != 0].tobytes()


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
