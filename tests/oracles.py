"""Reference implementations: the forms that the fast paths in ``src/``
replaced, and the library functions no command calls that tests still use
as references.

They read the dense adjacency (scattered from the point cliques by
IntersectionGraph.adj or by dense_adjacency), the edge list and Python-int
bitmask rows directly, so they share no logic with the design-identity SRG
proof, the meet test, the clique-extension scan, the K4 edge kernel or the
incidence-based concurrency predicate.  maxcut_exhaustive enumerates every
side assignment, the reference for the branch and bound.  The per-triangle
Goodman count is the reference for the Goodman count at q <= 4, and
same_pairs_by_rows, the count over the Goodman rows that the colour
matrices replaced, at every q.  The edge-list parser and edge_list_text, one
'%d %d' format over the sorted edge list, are the references for the
edge-list export.  edge_tables_sorted sorts every clique pair's a*n + b key
at once, the form the edge tables took before the edge stream: the
reference for IntersectionGraph.edge_blocks and for the clique_edges
rebuilt from it, and the lexicographic edge list (eu, ev) that the tests
read, which the library does not keep.  edge_index finds an edge by
binary search over its u*n + v key, and edge_point scatters each point
clique's id over its edges: the references for IntersectionGraph.edge_at.
point_pair_secants fills the point-pair -> secant table by counting every
pair (_each_pair_once), the reference for the cliques[P, pos[P, A]]
gather.  pos_loop fills pos one clique member at a time, the reference for
IntersectionGraph.pos and its row and column helpers, and
secant_action_pos finds each image secant through the whole table, the
form secant_action took before its searchsorted.
neighborhood_edges sorts every edge of H[N(v)] as one a*n + b key, and
verify_nbhd_global looks every covering pair up among them at once: the
form verify_nbhd_decomposition took before it ran clique by clique, kept
as its reference on intact and tampered graphs.
incidence_edge_mask moves a star's labels into incidence layout and looks
up each edge's two labels at the slot of its meet point, the reference for
the surviving-edge mask of blocks.random_block.  edge_mask and
star_from_mask are the one conversion between a star's clique layout and
the lexicographic edge ids, through clique_edges.
packbits_words packs dense adjacency rows by np.packbits, the reference
for graphs.edge_rows.
build_unital_whole and k4_clique_property_whole are the unblocked forms of
build_unital and k4_clique_property: one lines x points incidence and one
gather of every row.
plane_incidence is the lines x points incidence of the whole plane, its
products taken by field_mul as polynomial products reduced mod the
field's modulus, not through the mul_table that build_unital reads; it
checks the plane axioms and the secants.  secant_incidence classifies the
lines through a point set from it and returns the tangents and per-point
tallies that UnitalIncidence does not keep.  least_irreducible finds the
field modulus by trial division, the reference for the zero-divisor test
with which FiniteField picks it.
enumerate_k4 extends every triangle by the clique-extension scan, and
k4_violations counts the K4s without the clique property: the exhaustive
K4 check that graphs.verify_k4_structure's edge kernel replaced.
sampled_k4_upfront is its sampled mode from one upfront draw of the edges.
buekenhout_metz_unital builds an orthogonal Buekenhout-Metz unital, a
geometry that is not Hermitian for alpha != 0 and holds O'Nan
configurations, so the K4 checks have something genuine to find.
field_add, field_power and unitary_defect decide M^H M = I by polynomial
arithmetic, and point_action_loop moves each unital point by M one at a
time and looks its image up by coordinates: the references for
graphs.unitary_generators and graphs.point_action.  orbit_labels_loop is a
union-find over i ~ perm[i], the reference for graphs.orbit_labels.
Moved here from the library, unchanged, because no command calls them:
canonical_edges and goodman_count_all_triangles, the all-triangle Goodman
count on an arbitrary graph; flip_delta, one edge's flip delta from the
search's partner table; blowup and min_mono_blowup, the t-blowup of a
replacement graph and its least monochromatic edge count (acceptance
check 8); mcdiarmid_bound and blowup_concentration_log_bound, the
bounded-differences tail bound and its closed form for the blocks.
batch_deltas counts each flip delta over pairs of partners, and
fresh_deltas applies it to every edge of one coloring: the references for
the search's step deltas and the compiled kernel's delta table.
edge_triangle_index_whole builds the partner table over every edge at
once, the reference for its blocked fill.
"""

import itertools
import math
from math import comb

import numpy as np

from quasifolkman.blocks import ConstructionError, StarGraph, replacement_registry
from quasifolkman.certificates import Certificate
from quasifolkman.certify import maxcut_exact
from quasifolkman.graphs import (
    GraphError,
    edge_k4s,
    edge_rows,
    enumerate_all_triangles,
    extend_cliques,
    k4_clique_property,
    row_pairs,
)
from quasifolkman.plane import GeometryError, UnitalIncidence


def canonical_edges(adj):
    """The edges (u, v), u < v, of a dense adjacency, lexicographic."""
    eu, ev = np.nonzero(np.triu(adj, 1))
    return eu, ev


def edge_tables_sorted(g):
    """(eu, ev, clique_edges), int32, from one argsort of the clique-major
    pairs' a*n + b keys and its inverse."""
    a, b = row_pairs(g.cliques)
    order = np.argsort(a.astype(np.int64) * g.n + b)
    clique_edges = np.empty(g.m, dtype=np.int32)
    clique_edges[order] = np.arange(g.m, dtype=np.int32)
    return a[order], b[order], clique_edges.reshape(len(g.cliques), -1)


def edge_index(g, u, v):
    """Lexicographic id of edge(s) (u, v) with u < v, by one searchsorted over
    the sorted u*n + v keys of the edge list; vectorized.  A non-edge maps to
    an arbitrary id."""
    eu, ev, _ = edge_tables_sorted(g)
    keys = eu.astype(np.int64) * g.n + ev
    idx = np.searchsorted(keys, np.asarray(u, dtype=np.int64) * g.n + np.asarray(v, dtype=np.int64))
    return idx if idx.ndim else int(idx)


def edge_point(g):
    """(m,) int32: the unital point where each edge's secants meet, i.e. the
    point clique that holds the edge, scattered through clique_edges."""
    ep = np.empty(g.m, dtype=np.int32)
    ep[g.clique_edges] = np.arange(len(g.cliques), dtype=np.int32)[:, None]
    return ep


def _each_pair_once(p, r, npts):
    """Whether the pairs (p < r) cover every unordered point pair exactly once."""
    if not np.all(p < r):
        return False
    counts = np.bincount(p * npts + r, minlength=npts * npts).reshape(npts, npts)
    return bool(np.all(counts[np.triu_indices(npts, k=1)] == 1))


def point_pair_secants(points, npts):
    """The point-pair -> secant table from each secant's sorted unital points.

    The Hermitian unital is a 2-(q^3+1, q+1, 1) design: every pair of
    unital points lies on exactly one secant.  The table rests on that, so
    it is checked here by counting every unordered point pair; a pair on
    two secants or on none raises GraphError.
    """
    p, r = row_pairs(points)
    if not np.all(p < r):
        raise GraphError("secant point lists must be strictly increasing")
    if not _each_pair_once(p, r, npts):
        raise GraphError("some pair of unital points is not on exactly one secant")
    line = np.full((npts, npts), -1, dtype=np.int32)
    sec = np.repeat(np.arange(len(points), dtype=np.int32), comb(points.shape[1], 2))
    line[p, r] = sec
    line[r, p] = sec
    return line


def incidence_edge_mask(g, F, labels):
    """The surviving-edge mask of a star with clique-layout labels, from
    the labels in incidence layout, (n, q+1) aligned with g.vertex_cliques:
    each edge finds its endpoints' labels at the slot of its meet point in
    their incidence rows."""
    inc = np.empty(g.vertex_cliques.shape, dtype=labels.dtype)
    for v in range(g.n):
        for j, P in enumerate(g.vertex_cliques[v]):
            inc[v, j] = labels[P, np.flatnonzero(g.cliques[P] == v)[0]]
    ep = edge_point(g)
    eu, ev, _ = edge_tables_sorted(g)
    slot_u = (g.vertex_cliques[eu] == ep[:, None]).argmax(axis=1)
    slot_v = (g.vertex_cliques[ev] == ep[:, None]).argmax(axis=1)
    return F.adj[inc[eu, slot_u], inc[ev, slot_v]]


def edge_mask(star):
    """A star's surviving edges as an (m,) bool mask over the lexicographic
    edge ids: its clique-layout alive scattered through clique_edges."""
    mask = np.empty(star.base.m, dtype=bool)
    mask[star.base.clique_edges] = star.alive
    return mask


def star_from_mask(g, mask):
    """The star instance (with no labels) whose surviving edges are the
    lexicographic (m,) bool mask: the inverse of edge_mask."""
    return StarGraph(base=g, F=replacement_registry()["edge"], seed=0, labels=None, alive=mask[g.clique_edges])


def dense_adjacency(g):
    """The (n, n) bool adjacency scattered from the point cliques: every
    pair of members of one clique, the diagonal cleared."""
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[g.cliques[:, :, None], g.cliques[:, None, :]] = True
    np.fill_diagonal(adj, False)
    return adj


def packbits_words(adj):
    """Dense adjacency rows bit-packed little-endian by np.packbits and
    zero-padded to whole 64-bit words, as uint64 words."""
    n = adj.shape[1]
    packed = np.zeros((adj.shape[0], -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(adj, axis=1, bitorder="little")
    return packed.view(np.uint64)


def verify_srg_dense(g, block=1024):
    """Exhaustive common-neighbour scan over all vertex pairs by blocked
    float32 matrix products (exact for counts below 2^24).  Returns
    (lambda_observed, mu_observed, passed): a parameter is None unless every
    pair of its kind has the same count; passed also needs the expected
    values."""
    q = g.q
    lam_expected = 2 * q * q - 2
    mu_expected = (q + 1) ** 2
    adj = g.adj
    A = adj.astype(np.float32)
    lam_vals: set[int] = set()
    mu_vals: set[int] = set()
    for start in range(0, g.n, block):
        stop = min(start + block, g.n)
        common = (A[start:stop] @ A).astype(np.int64)
        sub_adj = adj[start:stop]
        eye = np.zeros_like(sub_adj)
        eye[np.arange(stop - start), np.arange(start, stop)] = True
        lam_vals.update(np.unique(common[sub_adj]).tolist())
        mu_vals.update(np.unique(common[~sub_adj & ~eye]).tolist())
    lam = next(iter(lam_vals)) if len(lam_vals) == 1 else None
    mu = next(iter(mu_vals)) if len(mu_vals) == 1 else None
    return lam, mu, lam == lam_expected and mu == mu_expected


def k4_clique_property_edges(g, quads):
    """For each K4, whether one of its four triangles has all three meet
    points equal, from the edge list's meet points."""
    if len(quads) == 0:
        return np.empty(0, dtype=bool)
    a, b, c, d = (quads[:, i].astype(np.int64) for i in range(4))
    ep = edge_point(g)
    p = {}
    for name, (x, y) in {
        "ab": (a, b), "ac": (a, c), "ad": (a, d),
        "bc": (b, c), "bd": (b, d), "cd": (c, d),
    }.items():
        p[name] = ep[edge_index(g, x, y)]
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


def enumerate_all_triangles_loop(g):
    """All triangles (a < b < c), via common neighborhoods above each edge."""
    rows = []
    A = g.adj
    eu, ev, _ = edge_tables_sorted(g)
    for e in range(g.m):
        a, b = int(eu[e]), int(ev[e])
        cm = np.flatnonzero(A[a] & A[b])
        cm = cm[cm > b]
        if len(cm):
            block = np.empty((len(cm), 3), dtype=np.int32)
            block[:, 0] = a
            block[:, 1] = b
            block[:, 2] = cm
            rows.append(block)
    return np.concatenate(rows) if rows else np.empty((0, 3), dtype=np.int32)


def enumerate_k4_loop(g):
    """All K4's (a < b < c < d), lexicographic: edges (a, b) and adjacent
    pairs inside the common neighborhood above b."""
    quads = []
    A = g.adj
    eu, ev, _ = edge_tables_sorted(g)
    for e in range(g.m):
        a = int(eu[e])
        b = int(ev[e])
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


def triangle_meet_points(g, tris):
    """Meet points of the three edges of each triangle row; shape (T, 3)."""
    a = tris[:, 0].astype(np.int64)
    b = tris[:, 1].astype(np.int64)
    c = tris[:, 2].astype(np.int64)
    ep = edge_point(g)
    return np.stack(
        [
            ep[edge_index(g, a, b)],
            ep[edge_index(g, a, c)],
            ep[edge_index(g, b, c)],
        ],
        axis=1,
    )


def degenerate_mask(g, tris):
    """Whether each triangle's three meet points are equal."""
    p = triangle_meet_points(g, tris)
    return (p[:, 0] == p[:, 1]) & (p[:, 0] == p[:, 2])


def adj_bits(star):
    """A star instance's surviving adjacency as Python-int bitmask rows,
    built one edge at a time."""
    g, mask = star.base, edge_mask(star)
    eu, ev, _ = edge_tables_sorted(g)
    rows = [0] * g.n
    for u, v in zip(eu[mask], ev[mask]):
        rows[int(u)] |= 1 << int(v)
        rows[int(v)] |= 1 << int(u)
    return rows


def find_k4(rows, n):
    """First K4 (lexicographic) in a bitmask adjacency, or None."""
    for u in range(n):
        ru = rows[u]
        hi_u = ru >> (u + 1) << (u + 1)
        mu = hi_u
        while mu:
            vb = mu & -mu
            mu ^= vb
            v = vb.bit_length() - 1
            cm = ru & rows[v]
            cm = cm >> (v + 1) << (v + 1)
            mw = cm
            while mw:
                wb = mw & -mw
                mw ^= wb
                w = wb.bit_length() - 1
                mx = cm & rows[w]
                mx = mx >> (w + 1) << (w + 1)
                if mx:
                    x = (mx & -mx).bit_length() - 1
                    return (u, v, w, x)
    return None


def clique_triangle_loop(star):
    """First surviving triangle inside a point clique, point-major, as
    (point, a, b, c), or None."""
    g = star.base
    rows = adj_bits(star)
    for cid, members in enumerate(g.cliques):
        ms = list(map(int, members))
        for ai in range(len(ms)):
            a = ms[ai]
            for bi in range(ai + 1, len(ms)):
                b = ms[bi]
                if not (rows[a] >> b) & 1:
                    continue
                for ci in range(bi + 1, len(ms)):
                    c = ms[ci]
                    if (rows[a] >> c) & 1 and (rows[b] >> c) & 1:
                        return (cid, a, b, c)
    return None


def _triangle_order(n):
    """Upper-triangle (i, j) pairs in graph6 order: j ascending, i < j."""
    cols = np.repeat(np.arange(1, n), np.arange(1, n))
    rows = np.concatenate([np.arange(j) for j in range(1, n)]) if n > 1 else np.empty(0, dtype=np.int64)
    return rows, cols


def graph6_bytes_indexed(n, adj):
    """graph6 encoding through explicit (i, j) index arrays."""
    if n <= 62:
        header = bytes([n + 63])
    else:
        header = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    rows, cols = _triangle_order(n)
    bits = adj[rows, cols].astype(np.uint8)
    pad = (-len(bits)) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    vals = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8) + 63
    return header + vals.astype(np.uint8).tobytes()


def parse_graph6(data):
    """Adjacency matrix of graph6 bytes; the round-trip oracle."""
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


def triangle_edge_matrix(fam):
    """Edge indices of each explicit family triangle; shape (T, 3)."""
    if fam.triangles is None:
        raise RuntimeError("explicit triangles not materialized at this q")
    g = fam.graph
    t = fam.triangles
    a = t[:, 0].astype(np.int64)
    b = t[:, 1].astype(np.int64)
    c = t[:, 2].astype(np.int64)
    return np.stack(
        [edge_index(g, a, b), edge_index(g, a, c), edge_index(g, b, c)], axis=1
    ).astype(np.int32)


def goodman_count_direct(fam, coloring):
    """Independent per-triangle count over the explicit family list."""
    te = triangle_edge_matrix(fam)
    c = coloring.bits[te]
    mono = (c[:, 0] == c[:, 1]) & (c[:, 0] == c[:, 2])
    return int(mono.sum())


def same_pairs_by_rows(fam, colors):
    """same(v) of every vertex under each of a (B, m) batch of colorings,
    shape (B, n), from the Goodman rows of fam.clique_edge_blocks: a row
    with b blue edges holds C(b, 2) + C(q+1-b, 2) same-coloured pairs.  The
    reference for certify.vertex_same_pairs, which reads no rows."""
    q = fam.q
    b = np.arange(q + 2)
    pairs = b * (b - 1) // 2
    same = pairs + pairs[::-1]
    per_vertex = [same[colors[:, ce].sum(axis=2)].reshape(len(colors), -1, q**3 - q).sum(axis=2)
                  for ce in fam.clique_edge_blocks()]
    return np.concatenate(per_vertex, axis=1).astype(np.int64)


def edge_list_text(g):
    """The edge-list text by one '%d %d' format over every edge: the
    reference for graphs.edge_list_blocks."""
    uv = np.stack(edge_tables_sorted(g)[:2], axis=1).ravel().tolist()
    return ("%d %d\n" * g.m) % tuple(uv)


def same_sum_from_triangles(te, colors):
    """sum_v same(v) computed triangle-by-triangle: per triangle, the number
    of vertices whose two incident edges agree (3 if monochromatic, else 1)."""
    c = colors[te]
    s = (c[:, 0] == c[:, 1]).astype(np.int64)
    s += (c[:, 0] == c[:, 2])
    s += (c[:, 1] == c[:, 2])
    return int(s.sum())


def same_pairs_from_triangles(fam, colors):
    """same(v) per vertex over the explicit family list: corner a of a
    triangle (a, b, c) counts it when edges ab and ac agree, b when ab and
    bc do, c when ac and bc do."""
    c = colors[triangle_edge_matrix(fam)]
    out = np.zeros(fam.graph.n, dtype=np.int64)
    for corner, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        np.add.at(out, fam.triangles[:, corner], c[:, i] == c[:, j])
    return out


def count_mono_triangles_direct(adj, colors):
    """Trace of the cubed single-color adjacency matrices."""
    n = adj.shape[0]
    eu, ev = canonical_edges(adj)
    blue = np.zeros((n, n), dtype=np.int64)
    sel = np.asarray(colors, dtype=bool)
    blue[eu[sel], ev[sel]] = 1
    blue |= blue.T
    red = np.zeros((n, n), dtype=np.int64)
    red[eu[~sel], ev[~sel]] = 1
    red |= red.T
    tr = int(np.trace(red @ red @ red)) + int(np.trace(blue @ blue @ blue))
    assert tr % 6 == 0
    return tr // 6


def goodman_count_all_triangles(adj, colors):
    """Monochromatic triangles of an arbitrary graph, by per-vertex counting:
    (1/2) sum_v (same(v) - e(N(v)) / 3), evaluated exactly as
    (3 * sum_v same(v) - sum_v e(N(v))) / 6."""
    n = adj.shape[0]
    eu, ev = canonical_edges(adj)
    key = eu.astype(np.int64) * n + ev.astype(np.int64)
    colors = np.asarray(colors, dtype=bool)
    if colors.shape != key.shape:
        raise ValueError("colors must align with the canonical edge list")

    def eidx(u, v):
        return np.searchsorted(key, u.astype(np.int64) * n + v.astype(np.int64))

    same_total = 0
    nbhd_edges_total = 0
    for v in range(n):
        nbrs = np.flatnonzero(adj[v])
        if len(nbrs) < 2:
            continue
        lo = np.minimum(v, nbrs)
        hi = np.maximum(v, nbrs)
        chi = colors[eidx(lo, hi)]
        sub = np.triu(adj[np.ix_(nbrs, nbrs)], 1)
        wi, xi = np.nonzero(sub)
        nbhd_edges_total += len(wi)
        same_total += int((chi[wi] == chi[xi]).sum())
    num = 3 * same_total - nbhd_edges_total
    if num % 6:
        raise RuntimeError("Goodman all-triangle parity violated (internal bug)")
    return num // 6


def flip_delta(bits, e, part):
    """Exact objective change from flipping edge e, from the partner table
    of search.edge_triangle_index."""
    return int((bits[part[e]] != bits[e]).sum()) - part.shape[1] // 2


def batch_deltas(colors, edges, part):
    """Flip deltas by the triangle rule, over the pairs (part[e, i],
    part[e, q^2 + i]) of the table's two halves: +1 for each pair whose
    edges agree with each other but not with edges[j], -1 for each whose
    edges agree with it.  Each half is sorted on its own, so such a pair is not one
    triangle's two edges; the sum does not depend on the pairing, since for
    any pair [both unlike e] - [both like e] = u1 + u2 - 1, where u is 1 for
    a partner unlike e."""
    k = part.shape[1] // 2
    rows = np.arange(colors.shape[0])[:, None]
    c1 = colors[rows, part[edges, :k]]
    c2 = colors[rows, part[edges, k:]]
    agree = c1 == c2
    ce = colors[np.arange(colors.shape[0]), edges][:, None]
    return (agree & (c1 != ce)).sum(axis=1).astype(np.int64) - (agree & (c1 == ce)).sum(axis=1)


def fresh_deltas(bits, part):
    """batch_deltas of every edge of one coloring."""
    m = bits.shape[0]
    return batch_deltas(np.broadcast_to(bits, (m, m)), np.arange(m), part)


def edge_triangle_index_whole(fam):
    """search.edge_triangle_index over every edge at once: both halves
    broadcast to (m, q, q) and scattered to their lexicographic rows in one
    gather, the form the table took before it was filled a block of edges
    at a time."""
    g = fam.graph
    X, _, _, P, Q = g.edge_points(np.arange(g.m))
    X = X[:, None, None]
    part = np.empty((g.m, 2, g.q**2), dtype=np.int32)
    part[g.clique_edges.ravel()] = np.stack([g.edge_at(P, X, Q), g.edge_at(Q, X, P)], axis=1).reshape(g.m, 2, -1)
    part.sort(axis=2)
    return part.reshape(g.m, -1)


def maxcut_exhaustive(adj):
    """Maximum cut by enumerating all 2^(n-1) side assignments (vertex n-1
    pinned), vectorized; for n <= 30."""
    n = adj.shape[0]
    eu, ev = canonical_edges(adj)
    if len(eu) == 0:
        return 0, np.zeros(n, dtype=bool)
    best_cut = -1
    best_mask = 0
    total = 1 << (n - 1)
    chunk = 1 << 22
    for start in range(0, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        cuts = np.zeros(len(masks), dtype=np.int32)
        for u, v in zip(eu, ev):
            cuts += ((masks >> np.uint64(u)) ^ (masks >> np.uint64(v))).astype(np.int32) & 1
        i = int(np.argmax(cuts))
        if int(cuts[i]) > best_cut:
            best_cut = int(cuts[i])
            best_mask = start + i
    side = np.array([(best_mask >> i) & 1 for i in range(n)], dtype=bool)
    return best_cut, side


def min_mono_edges(adj):
    """m - maxcut: the least monochromatic edge count over vertex 2-colorings."""
    eu, _ = canonical_edges(adj)
    cut, _ = maxcut_exact(adj)
    return len(eu) - cut


def blowup(F, t):
    """t-blowup: nt vertices, mt^2 edges; vertex (i, a) -> i*t + a."""
    if t < 1:
        raise ValueError("t must be >= 1")
    nt = F.n * t
    adj = np.zeros((nt, nt), dtype=bool)
    for i, j in F.edges:
        adj[i * t : (i + 1) * t, j * t : (j + 1) * t] = True
        adj[j * t : (j + 1) * t, i * t : (i + 1) * t] = True
    return nt, adj


EXHAUSTIVE_BLOWUP_LIMIT = 25


def min_mono_blowup(F, t, mode="formula"):
    """Least monochromatic edge count over vertex 2-colorings of the blowup.

    formula: (1 - alpha) m t^2 = (m - maxcut(F)) t^2, exact.
    exhaustive: m t^2 minus the exact max cut of the blowup itself (nt <= 25),
    plus the corner check that a per-class-monochromatic coloring attains
    the minimum.
    """
    if mode == "formula":
        return (F.m - F.maxcut) * t * t
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    nt, adj = blowup(F, t)
    if nt > EXHAUSTIVE_BLOWUP_LIMIT:
        raise ValueError(f"exhaustive mode needs nt <= {EXHAUSTIVE_BLOWUP_LIMIT}, got {nt}")
    eu, ev = canonical_edges(adj)
    cut, _ = maxcut_exact(adj)
    exhaustive_min = len(eu) - cut
    # corner colorings reduce to colorings of F itself
    corner_min = (F.m - F.maxcut) * t * t
    if exhaustive_min != corner_min:
        raise ConstructionError(
            f"blowup minimum {exhaustive_min} differs from corner minimum {corner_min}"
        )
    return exhaustive_min


def mcdiarmid_bound(expectation, c, delta):
    """(bound, log_bound) for P[|f - E| >= delta E] <= 2 exp(-2 d^2 E^2 / sum c_i^2)."""
    if expectation <= 0:
        raise ValueError("expectation must be positive")
    c = np.asarray(c, dtype=np.float64)
    if (c <= 0).any():
        raise ValueError("difference bounds must be positive")
    log_bound = math.log(2.0) - 2.0 * delta * delta * expectation * expectation / float((c * c).sum())
    return math.exp(log_bound), log_bound


def blowup_concentration_log_bound(q, n, m, delta):
    """log of 2 exp(-8 d^2 m^2 (q+1) / (3 n^6)): the bounded-differences
    bound at expectation 2m(q+1)/n^3 with 3(q+1) unit-effect variables."""
    return math.log(2.0) - 8.0 * delta * delta * m * m * (q + 1) / (3.0 * n**6)


def parse_edge_list(text):
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


def classify_triangle(g, a, b, c):
    """'non-degenerate', 'degenerate', or 'not-a-triangle', from the meet
    points of the three edges.

    Invariant under permutations of (a, b, c).  Two distinct meet points
    among the three cannot occur (two secants meet in at most one unital
    point); such a state asserts out as an internal bug.
    """
    if len({a, b, c}) != 3:
        raise ValueError("vertices must be distinct")
    if not (g.adj[a, b] and g.adj[a, c] and g.adj[b, c]):
        return "not-a-triangle"
    ep = edge_point(g)
    pts = {
        int(ep[edge_index(g, min(a, b), max(a, b))]),
        int(ep[edge_index(g, min(a, c), max(a, c))]),
        int(ep[edge_index(g, min(b, c), max(b, c))]),
    }
    assert len(pts) != 2, "triangle with exactly two distinct meet points"
    return "degenerate" if len(pts) == 1 else "non-degenerate"


def field_mul(fld, a, b):
    """Products of field codes, broadcast: the digit polynomials of a and b
    multiplied term by term over GF(p) and reduced mod fld.modulus by long
    division; the product that mul_table tabulates, sharing nothing with it."""
    p, k, f = fld.p, fld.k, fld.modulus
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    da = [a // p**i % p for i in range(k)]
    db = [b // p**i % p for i in range(k)]
    prod = [sum(da[i] * db[d - i] for i in range(k) if 0 <= d - i < k) % p for d in range(2 * k - 1)]
    for d in range(2 * k - 2, k - 1, -1):  # x^d = x^(d-k) (x^k - f)
        for j in range(k):
            prod[d - k + j] = (prod[d - k + j] - prod[d] * f[j]) % p
    return sum(prod[i] * p**i for i in range(k))


def _poly_rem(a, m, p):
    """Coefficients of a mod the monic m over GF(p), little-endian."""
    a = list(a)
    for d in range(len(a) - 1, len(m) - 2, -1):
        for j in range(len(m)):
            a[d - len(m) + 1 + j] = (a[d - len(m) + 1 + j] - a[d] * m[j]) % p
    return a[: len(m) - 1]


def least_irreducible(p, k):
    """The lexicographically least monic irreducible of degree k over GF(p),
    constant coefficient most significant, little-endian: the first
    candidate that no monic polynomial of degree 1..k/2 divides."""

    def monic(d):
        return [lower + (1,) for lower in itertools.product(range(p), repeat=d)]

    divisors = [m for d in range(1, k // 2 + 1) for m in monic(d)]
    return next(f for f in monic(k) if all(any(_poly_rem(f, m, p)) for m in divisors))


def plane_incidence(plane, points=None):
    """(lines, points) bool incidence of PG(2, q^2): whether line [a, b, c]
    holds point (X, Y, Z), aX + bY + cZ = 0, for all points or the ids
    `points`.  The products go through field_mul, so the incidence shares
    no table with build_unital but add_table."""
    coords = plane.coord_array()
    pts = coords if points is None else coords[points]
    add = plane.field.add_table
    t = [field_mul(plane.field, coords[:, i, None], pts[None, :, i]) for i in range(3)]
    return add[add[t[0], t[1]], t[2]] == 0


def build_unital_whole(plane):
    """plane.build_unital over the whole (lines, unital points) incidence at
    once, with secant_incidence's tallies."""
    fld = plane.field
    q = fld.base_order
    coords = plane.coord_array()
    nrm = fld.norm_table
    add = fld.add_table
    herm = add[add[nrm[coords[:, 0]], nrm[coords[:, 1]]], nrm[coords[:, 2]]]
    unital = np.flatnonzero(herm == 0).astype(np.int64)
    if len(unital) != q**3 + 1:
        raise GeometryError(f"unital has {len(unital)} points, expected {q**3 + 1}")
    return secant_incidence(plane, unital)


def secant_incidence(plane, unital):
    """The lines through the plane points `unital` (ascending ids) classified
    as secants and tangents over the whole plane_incidence.  Returns the
    UnitalIncidence and a dict of what it leaves out: the tangent line ids
    and, per unital point, the secants and the tangents through it."""
    q = plane.field.base_order
    inc = plane_incidence(plane, unital)
    counts = inc.sum(axis=1)
    secant_mask = counts == q + 1
    tangent_mask = counts == 1
    bad = ~(secant_mask | tangent_mask)
    if bad.any():
        lid = int(np.flatnonzero(bad)[0])
        raise GeometryError(f"line {lid} meets the unital in {int(counts[lid])} points")
    secants = np.flatnonzero(secant_mask).astype(np.int64)
    sec_inc = inc[secant_mask]
    rows, cols = np.nonzero(sec_inc)
    secant_points = cols.reshape(len(secants), q + 1).astype(np.int32)
    secant_points.sort(axis=1)
    unital_incidence = UnitalIncidence(
        q=q,
        plane=plane,
        unital_points=unital,
        secants=secants,
        secant_points=secant_points,
    )
    return unital_incidence, {
        "tangents": np.flatnonzero(tangent_mask).astype(np.int64),
        "point_secant_count": sec_inc.sum(axis=0),
        "point_tangent_count": inc[tangent_mask].sum(axis=0),
    }


def buekenhout_metz_unital(plane, alpha, beta):
    """The orthogonal Buekenhout-Metz point set {(1, x, alpha x^2 +
    beta x^(q+1) + r) : x in GF(q^2), r in GF(q)} plus (0, 0, 1), with its
    secants (Buekenhout 1976; Metz 1979; Baker & Ebert 1992).  alpha and
    beta are field codes; secant_incidence raises GeometryError when they
    give no unital.  alpha = 0 with beta off GF(q) is classical (Hermitian);
    alpha != 0 holds O'Nan configurations."""
    fld = plane.field
    s = fld.order
    add, mul = fld.add_table, fld.mul_table
    x = np.arange(s)
    y = add[mul[alpha, mul[x, x]], mul[beta, fld.norm_table[x]]]
    r = np.flatnonzero(fld.base_subfield_mask)
    # plane id of (1, x, y) is x s + y; (0, 0, 1) is s^2 + s
    ids = (x[:, None] * s + add[y[:, None], r[None, :]]).ravel()
    return secant_incidence(plane, np.sort(np.append(ids, s * s + s)).astype(np.int64))[0]


def k4_clique_property_whole(g, rows):
    """graphs.k4_clique_property from one gather of every row's incidences."""
    pts = g.vertex_cliques[rows].reshape(len(rows), rows.shape[1] * g.vertex_cliques.shape[1])
    pts.sort(axis=1)
    return (pts[:, 2:] == pts[:, :-2]).any(axis=1)


def enumerate_k4(g):
    """All K4's (a < b < c < d), lexicographic: the triangles extended once."""
    return extend_cliques(edge_rows(g.n, *edge_tables_sorted(g)[:2]), enumerate_all_triangles(g))


def k4_violations(g, quads):
    """The number of K4 rows without the clique property and, if any, the
    first of them as witness."""
    bad = np.flatnonzero(~k4_clique_property(g, quads))
    out = {"violations": int(len(bad))}
    if len(bad):
        out["witness"] = [int(x) for x in quads[bad[0]]]
    return out


def sampled_k4_upfront(g, seed, samples):
    """The quantities of verify_k4_structure's sampled mode from one upfront
    draw of every edge, all through one edge_k4s call."""
    e = np.random.default_rng(seed).integers(0, g.m, size=samples)
    found, _, quads = edge_k4s(g, e)
    onan = np.unique(np.sort(quads, axis=1), axis=0)
    out = {"edges_checked": samples, "k4_checked": found, "violations": len(onan)}
    if len(onan):
        out["witness"] = [int(x) for x in onan[0]]
    return out


def field_add(fld, a, b):
    """Sums of field codes, digit by digit mod p."""
    p, k = fld.p, fld.k
    return sum((a // p**i % p + b // p**i % p) % p * p**i for i in range(k))


def field_power(fld, a, e):
    """a^e by repeated field_mul, e >= 1."""
    out = a
    for _ in range(e - 1):
        out = field_mul(fld, out, a)
    return out


def unitary_defect(fld, M):
    """The entries of M^H M - I that are nonzero, as (i, j) pairs, over
    GF(q^2) with conjugation x -> x^q: empty when M preserves the Hermitian
    form X^{q+1} + Y^{q+1} + Z^{q+1}.  Arithmetic by field_add, field_mul."""
    q = fld.base_order
    bad = []
    for i in range(3):
        for j in range(3):
            acc = 0
            for k in range(3):
                acc = field_add(fld, acc, int(field_mul(fld, field_power(fld, int(M[k, i]), q), int(M[k, j]))))
            if acc != (i == j):
                bad.append((i, j))
    return bad


def point_action_loop(unital, M):
    """graphs.point_action one point at a time: the image M X of each unital
    point by field_mul and field_add, scaled so its first nonzero
    coordinate is 1 (the inverse found by search), looked up by its
    coordinates.  None when some image is not a unital point or two points
    share an image."""
    fld = unital.plane.field
    coords = unital.plane.coord_array()
    where = {tuple(coords[pid]): j for j, pid in enumerate(unital.unital_points.tolist())}
    out = []
    for pid in unital.unital_points.tolist():
        x = coords[pid].tolist()
        y = []
        for i in range(3):
            acc = 0
            for k in range(3):
                acc = field_add(fld, acc, int(field_mul(fld, int(M[i, k]), x[k])))
            y.append(acc)
        lead = next((c for c in y if c), None)
        if lead is None:
            return None
        inv = next(c for c in range(1, fld.order) if field_mul(fld, lead, c) == 1)
        j = where.get(tuple(int(field_mul(fld, inv, c)) for c in y))
        if j is None:
            return None
        out.append(j)
    return np.array(out) if len(set(out)) == len(out) else None


def orbit_labels_loop(size, perms):
    """Each element's least orbit-mate by union-find over i ~ perm[i]; a
    union hangs the larger root under the smaller, so every root is its
    set's least element."""
    root = list(range(size))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for perm in perms:
        for i, j in enumerate(perm.tolist()):
            a, b = find(i), find(j)
            root[max(a, b)] = min(a, b)
    return np.array([find(i) for i in range(size)])


def pos_loop(g):
    """pos[P, A], the position in P's clique of the secant through P and A,
    one clique member at a time; -1 on the diagonal."""
    npts = len(g.cliques)
    pos = np.full((npts, npts), -1, dtype=np.int32)
    for p in range(npts):
        for i, s in enumerate(g.cliques[p]):
            for a in g.vertex_cliques[s]:
                if a != p:
                    pos[p, a] = i
    return pos


def secant_action_pos(g, perm):
    """graphs.secant_action through the whole point-pair table."""
    img = np.sort(perm[g.vertex_cliques], axis=1)
    sec = g.cliques[img[:, 0], g.pos[img[:, 0], img[:, 1]]]
    return sec if np.array_equal(g.vertex_cliques[sec], img) else None


def neighborhood_edges(g, v):
    """The edges of H[N(v)] as ascending a*n + b keys, from the point
    cliques alone: N(v) is the members of v's q+1 point cliques other than
    v, and the edges are the member pairs, both in N(v), of each clique, in
    row order."""
    nbr = np.zeros(g.n, dtype=bool)
    nbr[g.cliques[g.vertex_cliques[v]]] = True
    nbr[v] = False
    hit = nbr[g.cliques]
    members, size = g.cliques[hit], hit.sum(axis=1)  # grouped by clique
    # member i pairs with the `later` members after it in its clique's group
    later = np.repeat(np.cumsum(size), size) - np.arange(len(members)) - 1
    i = np.repeat(np.arange(len(members)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    return np.sort(members[i].astype(np.int64) * g.n + members[j])


def verify_nbhd_global(g, v):
    """verify_nbhd_decomposition by one lookup of every covering pair (the
    remnants' pairs, then the spanning cliques') among neighborhood_edges,
    and a bincount of the hits for each edge's cover count."""
    q, n = g.q, g.n
    edges = neighborhood_edges(g, v)
    big = g.cliques[g.vertex_cliques[v]]
    remnant_sizes = (big != v).sum(axis=1)
    spanning = g.spanning_cliques(np.array([v]))[0]
    (a, b), (c, d) = row_pairs(big), row_pairs(spanning)
    keep = (a != v) & (b != v)
    covering = np.concatenate([a[keep], c]).astype(np.int64) * n + np.concatenate([b[keep], d])
    idx = np.minimum(np.searchsorted(edges, covering), len(edges) - 1)
    inside = edges[idx] == covering
    counts = np.bincount(idx[inside], minlength=len(edges))
    uncovered = np.flatnonzero(counts == 0)
    doubled = np.flatnonzero(counts > 1)
    sizes_ok = (
        len(big) == q + 1
        and bool(np.all(remnant_sizes == q * q - 1))
        and spanning.shape == (q**3 - q, q + 1)
    )
    quantities = {
        "vertex": v,
        "point_clique_remnants": len(big),
        "spanning_cliques": len(spanning),
        "neighborhood_edges": len(edges),
        "uncovered": len(uncovered),
        "doubly_covered": len(doubled),
    }
    if len(uncovered):
        quantities["uncovered_witness"] = list(divmod(int(edges[uncovered[0]]), n))
    if len(doubled):
        quantities["doubled_witness"] = list(divmod(int(edges[doubled[0]]), n))
    if not inside.all():
        quantities["outside_witness"] = list(divmod(int(covering[~inside][0]), n))
    ok = sizes_ok and inside.all() and not len(uncovered) and not len(doubled)
    return Certificate(
        claim="neighborhood decomposes into point-clique remnants plus spanning cliques",
        params={"q": q, "vertex": v},
        quantities=quantities,
        outcome="pass" if ok else "fail",
    )
