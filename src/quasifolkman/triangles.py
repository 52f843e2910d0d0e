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
        (certify.vertex_same_pairs) reads the point cliques' colour
        matrices.  They remain for perfbench/traced.py and as the tests'
        reference count."""
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
    not v (verify_srg checks the 2-design on cliques and pos, and
    verify_nbhd_decomposition checks each member against v's neighbourhood).
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


def neighborhood_edges(g: IntersectionGraph, v: int) -> np.ndarray:
    """The edges of H[N(v)] as ascending a*n + b keys, a < b, read from the
    point cliques alone.  N(v) is the members of v's q+1 point cliques other
    than v, and every edge lies in exactly one point clique, so the edges
    are the member pairs, both in N(v), of each clique."""
    nbr = np.zeros(g.n, dtype=bool)
    nbr[g.cliques[g.vertex_cliques[v]]] = True
    nbr[v] = False
    hit = nbr[g.cliques]
    members, size = g.cliques[hit], hit.sum(axis=1)  # grouped by clique, ascending within
    # member i pairs with the `later` members after it in its clique's group
    later = np.repeat(np.cumsum(size), size) - np.arange(len(members)) - 1
    i = np.repeat(np.arange(len(members)), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    return np.sort(members[i].astype(np.int64) * g.n + members[j])


def verify_nbhd_decomposition(g: IntersectionGraph, v: int) -> Certificate:
    """Check that H[N(v)] splits into the q+1 point-clique remnants of order
    q^2-1 plus the q^3-q spanning cliques of order q+1, every edge covered
    exactly once.

    The decomposition's pairs, whose spanning cliques are read through pos,
    are looked up among neighborhood_edges with one searchsorted, and a
    bincount of the hits gives each edge's cover count.  A covering pair
    that is not an edge of N(v) fails the check and is reported as
    outside_witness."""
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
