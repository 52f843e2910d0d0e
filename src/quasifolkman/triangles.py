"""Non-degenerate triangles and neighborhood clique decompositions.

A triangle of the intersection graph is degenerate when its three secants
are concurrent (all three meet points equal -- the triangle lies inside one
point clique) and non-degenerate when the meet points are three distinct
unital points.  Each vertex lies in exactly (q^3-q) * C(q+1, 2)
non-degenerate triangles, organized by the spanning cliques of its
neighborhood: for each unital point off the vertex's secant, the q+1
neighbors through that point form a (q+1)-clique, and these q^3-q cliques
are pairwise edge-disjoint.

The family is stored implicitly through the per-vertex spanning cliques;
explicit vertex triples are materialized only for small q, where the
brute-force cross-checks run.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .budget import slices
from .certificates import Certificate
from .graphs import IntersectionGraph, enumerate_all_triangles, k4_clique_property, row_pairs
from .graphs import verify_k4_structure

EXPLICIT_Q_LIMIT = 4


def family_size_formula(q: int) -> int:
    """(1/6) (q^4-q^3+q^2)(q^3-q)(q+1)q, the non-degenerate triangle count."""
    num = (q**4 - q**3 + q**2) * (q**3 - q) * (q + 1) * q
    assert num % 6 == 0
    return num // 6


def per_vertex_formula(q: int) -> int:
    return (q**3 - q) * comb(q + 1, 2)


@dataclass
class TriangleFamily:
    """The non-degenerate triangle family with its per-vertex index."""

    q: int
    graph: IntersectionGraph
    total: int
    per_vertex: int
    triangles: np.ndarray | None = None  # (T, 3) vertex ids, small q only

    def clique_edge_blocks(self):
        """Goodman rows, a block of vertices at a time: one row per (vertex,
        spanning clique) pair, entries the canonical indices of the q+1 edges
        from the vertex into the clique, unsorted: the counts read no order.
        Each block has shape (block * (q^3-q), q+1), rows by vertex, then by
        point id.  No command reads the rows: the Goodman count
        (certify.vertex_same_pairs) walks the point cliques in its compiled
        kernel, or reads their colour matrices without it.  They remain for
        perfbench/traced.py and as the tests' reference count."""
        g, q = self.graph, self.q
        # per vertex: its (q^3-q)(q+1) int32 entries and edge_at's gathers
        for block in slices(g.n, 16 * (q**3 - q) * (q + 1)):
            # v meets its member through (P, Q) at its own point Q, where v
            # is the secant through Q and another point Q' of v
            pts = g.vertex_cliques[block, None, :]
            off = g.off_points(np.arange(g.n)[block])[:, :, None]
            yield g.edge_at(pts, np.roll(pts, 1, axis=2), off).reshape(-1, q + 1)

    def clique_edge_matrix(self) -> np.ndarray:
        """All Goodman rows in one array, shape (n*(q^3-q), q+1), built anew
        on each call."""
        return np.concatenate(list(self.clique_edge_blocks()))


def build_family(g: IntersectionGraph) -> TriangleFamily:
    """Construct the family, its total from the closed formula.

    Spanning-clique members are neighbours by the design: the secant
    cliques[P, pos[P, Q]], for P off v and Q on v, passes through Q and is
    not v (verify_srg checks the 2-design on cliques and at, from which pos
    derives, and verify_nbhd_decomposition checks each member against v's
    neighbourhood).
    For q <= EXPLICIT_Q_LIMIT a brute-force classification of all
    triangles, then kept explicitly, confirms the total."""
    q = g.q
    expected_total = family_size_formula(q)
    expected_pv = per_vertex_formula(q)
    if g.n * expected_pv != 3 * expected_total:
        raise RuntimeError("per-vertex spanning-clique counts disagree with the formula")

    triangles = None
    if q <= EXPLICIT_Q_LIMIT:
        all_tris = enumerate_all_triangles(g)
        triangles = all_tris[~k4_clique_property(g, all_tris)]
        if len(triangles) != expected_total:
            raise RuntimeError(
                f"brute-force classification found {len(triangles)} non-degenerate "
                f"triangles, formula gives {expected_total}"
            )
    return TriangleFamily(q=q, graph=g, total=expected_total, per_vertex=expected_pv, triangles=triangles)


def _pair_keys(row: np.ndarray, n: int) -> np.ndarray:
    """The a*n + b keys of the pairs (a, b), a before b, of one row."""
    a, b = row_pairs(row[None])
    return a.astype(np.int64) * n + b


def _pair_tally(members: np.ndarray, cover: np.ndarray, n: int) -> tuple:
    """One clique's edges of N(v), the pairs of its members in N(v), against
    the pairs of its covering row: the number of edges that no pair covers
    (the later copies of a repeated edge among them) and of those covered
    more than once, the least key of each kind, and the first covering
    pair that is not an edge, None where there is none."""
    edges, covering = np.sort(_pair_keys(members, n)), _pair_keys(cover, n)
    idx = np.searchsorted(edges, covering)
    inside = idx < len(edges)
    inside[inside] = edges[idx[inside]] == covering[inside]
    counts = np.bincount(idx[inside], minlength=len(edges))
    uncovered, doubled, outside = edges[counts == 0], edges[counts > 1], covering[~inside]
    return (len(uncovered), len(doubled), *(int(x[0]) if len(x) else None for x in (uncovered, doubled, outside)))


def _spanning_block(rows: np.ndarray, cover: np.ndarray, nbr: np.ndarray, faults: list) -> int:
    """The edges of N(v) in the cliques rows off v, whose spanning cliques
    are cover, in order: their number, with the tally of each clique whose
    members in N(v) are not its spanning clique, or repeat, appended to
    faults."""
    hit = nbr[rows]
    size = hit.sum(axis=1)
    members = rows[hit]
    start = np.cumsum(size) - size
    width = cover.shape[1]
    same = size == width
    same[same] = (members[start[same, None] + np.arange(width)] == cover[same]).all(axis=1)
    same &= (cover[:, 1:] != cover[:, :-1]).all(axis=1)
    for i in np.flatnonzero(~same):
        faults.append(_pair_tally(members[start[i]:start[i] + size[i]], cover[i], len(nbr)))
    return int((size * (size - 1) // 2).sum())


def verify_nbhd_decomposition(g: IntersectionGraph, v: int) -> Certificate:
    """Check that H[N(v)] splits into the q+1 point-clique remnants of order
    q^2-1 plus the q^3-q spanning cliques of order q+1, every edge covered
    exactly once.

    N(v) is the members of v's q+1 point cliques other than v, and every
    edge lies in exactly one point clique (verify_srg's design check), so
    the check runs clique by clique.  In each of v's cliques the edges of
    N(v) are the remnant's pairs.  In any other clique P they are the pairs
    of the members in N(v), and those must be P's spanning clique, whose
    members cliques[P, pos[P, Q]] are read through the columns of v's points
    Q.  A clique whose members differ from its covering row, or repeat,
    has its pairs tallied (_pair_tally): an edge no pair covers counts as
    uncovered, one covered twice as doubly covered, and a covering pair
    that is not an edge of N(v) fails the check as outside_witness.  The
    other cliques run in blocks."""
    q, n = g.q, g.n
    big = g.cliques[g.vertex_cliques[v]]
    remnant_sizes = (big != v).sum(axis=1)
    off = g.off_points(np.array([v]))[0]
    spanning = g.spanning_cliques(np.array([v]))[0]
    nbr = np.zeros(n, dtype=bool)
    nbr[big] = True
    nbr[v] = False
    remnants = [row[row != v] for row in big]
    edges, faults = sum(comb(len(r), 2) for r in remnants), []
    # a remnant's edges are its own pairs: only a repeated member, which
    # N(v) counts once, can leave one uncovered or doubly covered
    if sum(map(len, remnants)) != np.count_nonzero(nbr):
        faults += [_pair_tally(r, r, n) for r in remnants]
    # per clique: its int32 members, their intp copy and a bool mask
    for block in slices(len(off), 13 * g.cliques.shape[1]):
        edges += _spanning_block(g.cliques[off[block]], spanning[block], nbr, faults)
    uncovered, doubled = sum(f[0] for f in faults), sum(f[1] for f in faults)
    sizes_ok = (
        len(big) == q + 1
        and bool(np.all(remnant_sizes == q * q - 1))
        and spanning.shape == (q**3 - q, q + 1)
    )
    quantities = {
        "vertex": v,
        "point_clique_remnants": len(big),
        "spanning_cliques": len(spanning),
        "neighborhood_edges": edges,
        "uncovered": uncovered,
        "doubly_covered": doubled,
    }
    for name, i in (("uncovered_witness", 2), ("doubled_witness", 3)):
        keys = [f[i] for f in faults if f[i] is not None]
        if keys:
            quantities[name] = list(divmod(min(keys), n))
    outside = next((f[4] for f in faults if f[4] is not None), None)
    if outside is not None:
        quantities["outside_witness"] = list(divmod(outside, n))
    ok = sizes_ok and outside is None and not uncovered and not doubled
    return Certificate(
        claim="neighborhood decomposes into point-clique remnants plus spanning cliques",
        params={"q": q, "vertex": v},
        quantities=quantities,
        outcome="pass" if ok else "fail",
    )


def no_k4_in_family(k4: Certificate) -> Certificate:
    """A K4 certificate restated for the family: in every K4 at least one of
    the four triangles is degenerate (three of its secants are concurrent),
    so no four family triangles span a K4.  Only a certificate over every
    edge proves that; a sampled one that passes leaves it inconclusive."""
    sampled = k4.params["mode"] == "sampled"
    return Certificate(
        claim="no four non-degenerate triangles induce a K4",
        params={"q": k4.params["q"]},
        quantities=dict(k4.quantities),
        outcome="inconclusive" if sampled and k4.outcome == "pass" else k4.outcome,
    )


def verify_no_k4_in_family(fam: TriangleFamily, g: IntersectionGraph) -> Certificate:
    """no_k4_in_family of verify_k4_structure's sweep over every edge of g;
    fam is not read."""
    return no_k4_in_family(verify_k4_structure(g, mode="exhaustive"))
