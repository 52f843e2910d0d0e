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

from .certificates import Certificate
from .graphs import IntersectionGraph

EXPLICIT_Q_LIMIT = 4
#: vertices per spanning-clique block.  It bounds the (block, q^3-q, q+1)
#: temporaries: at 256 those of clique_edge_matrix (~16 MB at q = 7) set the
#: peak RSS of check-coloring; at 64 they stay below the Goodman count's own.
VERTEX_BLOCK = 64


def family_size_formula(q: int) -> int:
    """(1/6) (q^4-q^3+q^2)(q^3-q)(q+1)q, the non-degenerate triangle count."""
    num = (q**4 - q**3 + q**2) * (q**3 - q) * (q + 1) * q
    assert num % 6 == 0
    return num // 6


def per_vertex_formula(q: int) -> int:
    return (q**3 - q) * comb(q + 1, 2)


def classify_triangle(g: IntersectionGraph, a: int, b: int, c: int) -> str:
    """'non-degenerate', 'degenerate', or 'not-a-triangle'.

    Invariant under permutations of (a, b, c).  Two distinct meet points
    among the three cannot occur (two secants meet in at most one unital
    point); such a state asserts out as an internal bug.
    """
    if len({a, b, c}) != 3:
        raise ValueError("vertices must be distinct")
    if not (g.adj[a, b] and g.adj[a, c] and g.adj[b, c]):
        return "not-a-triangle"
    pts = {
        int(g.edge_point[g.edge_index(min(a, b), max(a, b))]),
        int(g.edge_point[g.edge_index(min(a, c), max(a, c))]),
        int(g.edge_point[g.edge_index(min(b, c), max(b, c))]),
    }
    assert len(pts) != 2, "triangle with exactly two distinct meet points"
    return "degenerate" if len(pts) == 1 else "non-degenerate"


def enumerate_all_triangles(g: IntersectionGraph) -> np.ndarray:
    """All triangles (a < b < c), via common neighborhoods above each edge."""
    rows = []
    A = g.adj
    for e in range(g.m):
        a, b = int(g.eu[e]), int(g.ev[e])
        cm = np.flatnonzero(A[a] & A[b])
        cm = cm[cm > b]
        if len(cm):
            block = np.empty((len(cm), 3), dtype=np.int32)
            block[:, 0] = a
            block[:, 1] = b
            block[:, 2] = cm
            rows.append(block)
    return np.concatenate(rows) if rows else np.empty((0, 3), dtype=np.int32)


def triangle_meet_points(g: IntersectionGraph, tris: np.ndarray) -> np.ndarray:
    """Meet points of the three edges of each triangle row; shape (T, 3)."""
    a = tris[:, 0].astype(np.int64)
    b = tris[:, 1].astype(np.int64)
    c = tris[:, 2].astype(np.int64)
    return np.stack(
        [
            g.edge_point[g.edge_index(a, b)],
            g.edge_point[g.edge_index(a, c)],
            g.edge_point[g.edge_index(b, c)],
        ],
        axis=1,
    )


def degenerate_mask(g: IntersectionGraph, tris: np.ndarray) -> np.ndarray:
    p = triangle_meet_points(g, tris)
    return (p[:, 0] == p[:, 1]) & (p[:, 0] == p[:, 2])


@dataclass
class TriangleFamily:
    """The non-degenerate triangle family with its per-vertex index."""

    q: int
    graph: IntersectionGraph
    total: int
    per_vertex: int
    triangles: np.ndarray | None = None  # (T, 3) vertex ids, small q only
    _clique_edges: np.ndarray | None = None
    _triangle_edges: np.ndarray | None = None

    def vertex_spanning_cliques(self, v: int) -> np.ndarray:
        return self.graph.spanning_cliques_of(v)

    def clique_edge_matrix(self) -> np.ndarray:
        """Edge indices chi-coloring rows: one row per (vertex, spanning
        clique) pair, entries the canonical indices of the q+1 edges from
        the vertex into the clique.  Shape (n*(q^3-q), q+1)."""
        if self._clique_edges is None:
            g, q = self.graph, self.q
            k = q**3 - q
            rows = np.empty((g.n * k, q + 1), dtype=np.int32)
            for start in range(0, g.n, VERTEX_BLOCK):
                stop = min(start + VERTEX_BLOCK, g.n)
                sc = g.spanning_cliques(start, stop)
                v = np.arange(start, stop)[:, None, None]
                rows[start * k : stop * k] = g.edge_index(
                    np.minimum(v, sc), np.maximum(v, sc)
                ).reshape(-1, q + 1)
            self._clique_edges = rows
        return self._clique_edges

    def triangle_edge_matrix(self) -> np.ndarray:
        """Edge indices of each explicit triangle; shape (T, 3)."""
        if self._triangle_edges is None:
            if self.triangles is None:
                raise RuntimeError("explicit triangles not materialized at this q")
            g = self.graph
            t = self.triangles
            a = t[:, 0].astype(np.int64)
            b = t[:, 1].astype(np.int64)
            c = t[:, 2].astype(np.int64)
            self._triangle_edges = np.stack(
                [g.edge_index(a, b), g.edge_index(a, c), g.edge_index(b, c)], axis=1
            ).astype(np.int32)
        return self._triangle_edges

    def dump_triples_text(self) -> str:
        if self.triangles is None:
            raise RuntimeError("explicit triangles not materialized at this q")
        return "\n".join(" ".join(map(str, row)) for row in self.triangles.tolist()) + "\n"


def build_family(g: IntersectionGraph, explicit: bool | None = None) -> TriangleFamily:
    """Construct the family, cross-checking counts against the closed formula
    and (for small q) against brute-force classification of all triangles."""
    q = g.q
    if explicit is None:
        explicit = q <= EXPLICIT_Q_LIMIT
    expected_total = family_size_formula(q)
    expected_pv = per_vertex_formula(q)

    # per-vertex count from the spanning-clique decomposition
    pair_per_clique = comb(q + 1, 2)
    total3 = 0
    for start in range(0, g.n, VERTEX_BLOCK):
        stop = min(start + VERTEX_BLOCK, g.n)
        sc = g.spanning_cliques(start, stop)
        if sc.shape != (stop - start, q**3 - q, q + 1):
            raise RuntimeError(f"vertices {start}..{stop - 1}: spanning clique index has shape {sc.shape}")
        v = np.arange(start, stop)[:, None, None]
        if not g.adj[v, sc].all():
            raise RuntimeError(f"vertices {start}..{stop - 1}: a spanning-clique member is not a neighbor")
        total3 += sc.shape[0] * sc.shape[1] * pair_per_clique
    if total3 != g.n * expected_pv:
        raise RuntimeError("per-vertex spanning-clique counts disagree with the formula")
    assert total3 % 3 == 0
    total = total3 // 3
    if total != expected_total:
        raise RuntimeError(f"family total {total} != formula {expected_total}")

    triangles = None
    if explicit:
        all_tris = enumerate_all_triangles(g)
        nondeg = ~degenerate_mask(g, all_tris)
        triangles = all_tris[nondeg]
        if len(triangles) != expected_total:
            raise RuntimeError(
                f"brute-force classification found {len(triangles)} non-degenerate "
                f"triangles, formula gives {expected_total}"
            )
    return TriangleFamily(q=q, graph=g, total=total, per_vertex=expected_pv, triangles=triangles)


def verify_nbhd_decomposition(g: IntersectionGraph, v: int) -> Certificate:
    """Check that H[N(v)] splits into the q+1 point-clique remnants of order
    q^2-1 plus the q^3-q spanning cliques of order q+1, every edge covered
    exactly once."""
    q = g.q
    nbrs = np.flatnonzero(g.adj[v])
    sub_edges = {}
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1 :]:
            if g.adj[a, b]:
                sub_edges[(int(a), int(b))] = 0

    big_cliques = []
    for cid in g.vertex_cliques[v]:
        members = [int(w) for w in g.cliques[cid] if w != v]
        big_cliques.append(members)
    spanning = [list(map(int, row)) for row in g.spanning_cliques_of(v)]

    def cover(members):
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                key = (a, b) if a < b else (b, a)
                if key not in sub_edges:
                    return key
                sub_edges[key] += 1
        return None

    problems = []
    for members in big_cliques + spanning:
        bad = cover(members)
        if bad is not None:
            problems.append(("edge outside N(v)", bad))
    uncovered = [e for e, c in sub_edges.items() if c == 0]
    doubled = [e for e, c in sub_edges.items() if c > 1]
    sizes_ok = (
        len(big_cliques) == q + 1
        and all(len(c) == q * q - 1 for c in big_cliques)
        and len(spanning) == q**3 - q
        and all(len(c) == q + 1 for c in spanning)
    )
    quantities = {
        "vertex": v,
        "point_clique_remnants": len(big_cliques),
        "spanning_cliques": len(spanning),
        "neighborhood_edges": len(sub_edges),
        "uncovered": len(uncovered),
        "doubly_covered": len(doubled),
    }
    if uncovered:
        quantities["uncovered_witness"] = list(uncovered[0])
    if doubled:
        quantities["doubled_witness"] = list(doubled[0])
    ok = sizes_ok and not problems and not uncovered and not doubled
    return Certificate(
        claim="neighborhood decomposes into point-clique remnants plus spanning cliques",
        params={"q": q, "vertex": v},
        quantities=quantities,
        outcome="pass" if ok else "fail",
    )


def verify_no_k4_in_family(fam: TriangleFamily, g: IntersectionGraph, quads: np.ndarray | None = None) -> Certificate:
    """For every K4, at least one of its four triangles is degenerate, so no
    four family triangles span a K4."""
    from .graphs import enumerate_k4

    if quads is None:
        quads = enumerate_k4(g)
    if len(quads) == 0:
        return Certificate(
            claim="no four non-degenerate triangles induce a K4",
            params={"q": g.q},
            quantities={"k4_count": 0, "violations": 0},
            outcome="pass",
        )
    combos = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    any_deg = np.zeros(len(quads), dtype=bool)
    for i, j, k in combos:
        tris = quads[:, (i, j, k)]
        any_deg |= degenerate_mask(g, tris)
    bad = np.flatnonzero(~any_deg)
    quantities = {"k4_count": int(len(quads)), "violations": int(len(bad))}
    if len(bad):
        quantities["witness"] = [int(x) for x in quads[bad[0]]]
    return Certificate(
        claim="no four non-degenerate triangles induce a K4",
        params={"q": g.q},
        quantities=quantities,
        outcome="pass" if not len(bad) else "fail",
    )
