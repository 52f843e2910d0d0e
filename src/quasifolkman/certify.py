"""Exact monochromatic-triangle certificates via Goodman-style counting.

For a two-coloring of the edges and a vertex v, color each neighbor w by the
color of edge (v, w).  Counting same-colored pairs inside the spanning
cliques of v's neighborhood gives the number of family triangles at v whose
two v-incident edges agree; summing over v counts every monochromatic family
triangle three times and every non-monochromatic one once, hence

    monochromatic = (sum_v same(v) - |family|) / 2.

Each spanning clique has q+1 vertices, so it contributes at least
min_{a+b=q+1} C(a,2) + C(b,2) same-colored pairs no matter the coloring.
That convexity minimum, taken over all n(q^3-q) spanning cliques, yields an
exact integer lower bound L(q) on the monochromatic count of *every*
coloring; L(q) > 0 certifies the Ramsey property for the family.  The
integer minimum is used for pass/fail (the real-valued relaxation
(q+1)^2/4 - (q+1)/2 is reported alongside; the two coincide for odd q).

All certificate arithmetic is exact (ints and Fractions).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import _kernel
from .budget import slices
from .certificates import Certificate
from .graphs import IntersectionGraph, edge_list_blocks
from .triangles import TriangleFamily, family_size_formula


class ColoringFormatError(ValueError):
    pass


def graph_checksum(g: IntersectionGraph, blocks=None) -> str:
    """The first 16 hex digits of the SHA-256 of the edge-list text, laid out
    from the edge stream's blocks (by default g.edge_blocks())."""
    import hashlib  # here: its OpenSSL library adds 3.5 MB, which the certify command never needs

    h = hashlib.sha256()
    for block in edge_list_blocks(g, blocks):
        h.update(block)
    return h.hexdigest()[:16]


def _scatter(read, out: np.ndarray, blocks):
    """Pass the edge stream's blocks on, writing the lexicographic bits
    read(s, e) of each block's edges s..e-1 to out[X, t] on the way."""
    s = 0
    for block in blocks:
        _, _, X, t = block
        out[X, t] = read(s, s + len(X))
        s += len(X)
        yield block


def _body_bytes(body: str, m: int) -> np.ndarray:
    """The packed bytes of a coloring file's hex body, its lines joined,
    checked to hold m bits and zero padding."""
    try:
        raw = np.frombuffer(bytes.fromhex(body), dtype=np.uint8)
    except ValueError as exc:
        raise ColoringFormatError("body is not hex") from exc
    # bit i is bit i % 8 of byte i // 8; the bits from m on are padding
    pad = raw[m // 8:]
    if len(pad) and (pad[0] >> m % 8 or pad[1:].any()):
        raise ColoringFormatError("nonzero padding bits")
    if len(raw) != -(-m // 8):
        raise ColoringFormatError(f"coloring body too {'short' if 8 * len(raw) < m else 'long'}")
    return raw


def _unpack(raw: np.ndarray, s: int, e: int) -> np.ndarray:
    """Bits s..e-1 of the packed bytes raw, as bools, unpacking only the
    bytes that hold them."""
    bits = np.unpackbits(raw[s // 8:-(-e // 8)], bitorder="little").view(bool)
    return bits[s % 8:s % 8 + e - s]


class EdgeColoring:
    """Total two-coloring of the edges, one bit per canonical edge.

    Bit 0 is red, bit 1 is blue.  The bits are held in lexicographic edge
    order (bits), in the point cliques' layout (clique_bits, shape (q^3+1,
    C(q^2, 2)): pair t, in triu order, of clique X at [X, t]), or both;
    either is read off the other through the edge stream on first use.
    """

    def __init__(self, graph: IntersectionGraph, bits: np.ndarray | None = None,
                 clique_bits: np.ndarray | None = None):
        self.graph = graph
        if bits is None and clique_bits is None:
            bits = np.zeros(graph.m, dtype=bool)
        if bits is not None:
            bits = np.asarray(bits, dtype=bool)
            if bits.shape != (graph.m,):
                raise ColoringFormatError(f"need {graph.m} bits, got shape {bits.shape}")
        self._bits, self._clique_bits = bits, clique_bits

    @property
    def bits(self) -> np.ndarray:
        if self._bits is None:
            self._bits = np.empty(self.graph.m, dtype=bool)
            s = 0
            for _, _, X, t in self.graph.edge_blocks():
                self._bits[s:s + len(X)] = self._clique_bits[X, t]
                s += len(X)
        return self._bits

    @property
    def clique_bits(self) -> np.ndarray:
        if self._clique_bits is None:
            g = self.graph
            out = np.empty(g.m, dtype=bool).reshape(len(g.cliques), -1)
            for _ in _scatter(lambda s, e: self._bits[s:e], out, g.edge_blocks()):
                pass
            self._clique_bits = out
        return self._clique_bits

    @classmethod
    def random(cls, graph: IntersectionGraph, seed: int) -> "EdgeColoring":
        rng = np.random.default_rng(seed)
        return cls(graph, rng.integers(0, 2, size=graph.m, dtype=np.uint8).astype(bool))

    # -- file format ------------------------------------------------------

    def to_text(self) -> str:
        g = self.graph
        packed = np.packbits(self.bits.astype(np.uint8), bitorder="little")
        hexstr = packed.tobytes().hex()
        body = "\n".join(hexstr[i : i + 120] for i in range(0, len(hexstr), 120))
        return f"coloring q={g.q} edges={g.m} graph={graph_checksum(g)}\n{body}\n"

    @classmethod
    def from_text(cls, graph: IntersectionGraph, text: str) -> "EdgeColoring":
        """Parse a coloring file into clique layout.  One pass over the edge
        stream both hashes the edge list for the checksum and scatters the
        body's bits, unpacking each block's bytes only; a bad body is
        reported after a checksum mismatch.  The line list and the joined
        body are dropped before that pass."""
        lines = [l for l in text.strip().split("\n") if l.strip()]
        if not lines or not lines[0].startswith("coloring "):
            raise ColoringFormatError("missing coloring header")
        try:
            fields = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
            q, m, chk = int(fields["q"]), int(fields["edges"]), fields["graph"]
        except (KeyError, ValueError) as exc:
            raise ColoringFormatError(f"malformed header: {lines[0]!r}") from exc
        if q != graph.q or m != graph.m:
            raise ColoringFormatError(f"coloring is for q={q}, m={m}; graph has q={graph.q}, m={graph.m}")
        body = "".join(lines[1:])
        del lines
        try:
            raw, bad_body = _body_bytes(body, m), None
        except ColoringFormatError as exc:
            bad_body = exc
        del body
        blocks = graph.edge_blocks()
        if bad_body is None:
            clique_bits = np.empty(graph.m, dtype=bool).reshape(len(graph.cliques), -1)
            blocks = _scatter(lambda s, e: _unpack(raw, s, e), clique_bits, blocks)
        if chk != graph_checksum(graph, blocks):
            raise ColoringFormatError("graph checksum mismatch")
        if bad_body is not None:
            raise bad_body
        return cls(graph, clique_bits=clique_bits)


@dataclass
class GoodmanTally:
    """Per-vertex same-color pair counts and the derived exact totals."""

    same_pairs: np.ndarray  # (n,) family triangles at v whose two v-edges agree
    family_size: int
    monochromatic: int


def vertex_same_pairs(fam: TriangleFamily, colors: np.ndarray) -> np.ndarray:
    """same(v) of every vertex under each of a batch of B colorings, shape
    (B, n), int64.  colors is bool or uint8 in clique layout with the batch
    innermost, shape (q^3+1, C(q^2, 2), B): [X, t, c] is the colour in
    coloring c of pair t, in triu order, of X's clique.

    v meets the member of its spanning clique at P through its own point Q
    in Q's clique, where v sits at i_Q: the member is the secant through P
    and Q.  So the spanning clique at P holds b(v, P) blue edges from v, the
    colours of v's edges to those secants, hence C(b, 2) + C(q+1-b, 2)
    same-coloured pairs.  The compiled kernel (_kernel.c) walks each of v's
    points Q and each other member s of Q's clique, adding the colour of
    pair (i_Q, s) to a byte counter of every point of s: it reads no pos
    and no colour matrices.  Without it, _same_pairs gathers the colour
    matrices."""
    colors = colors.view(np.uint8)
    kernel = _kernel._load_kernel()
    if kernel is None:
        return _same_pairs(fam, colors[:, fam.graph._pair])
    return _kernel_same_pairs(kernel, fam.graph, colors)


def _kernel_same_pairs(kernel, g: IntersectionGraph, colors: np.ndarray) -> np.ndarray:
    """vertex_same_pairs by the compiled kernel, from the clique layout,
    one byte a colour; the kernel reads every byte of that shape."""
    colors = np.ascontiguousarray(colors)
    if colors.dtype.itemsize != 1 or colors.shape[:2] != (len(g.cliques), g.m // len(g.cliques)):
        raise ValueError(f"need one byte a colour in clique layout, got {colors.dtype} {colors.shape}")
    npts, _, nb = colors.shape
    out = np.empty((nb, g.n), dtype=np.int64)
    acc = np.empty(npts * nb, dtype=np.uint8)
    tables = [np.ascontiguousarray(a, dtype=np.int32) for a in (g._pair, g.cliques, g.vertex_cliques, g.at)]
    kernel.same_pairs(colors.ctypes.data, *(a.ctypes.data for a in tables), g.q, g.n, nb,
                      acc.ctypes.data, out.ctypes.data)
    return out


def _same_pairs(fam: TriangleFamily, C: np.ndarray) -> np.ndarray:
    """vertex_same_pairs in numpy, from the colour matrices, uint8, shape
    (q^3+1, q^2, q^2, B): C[Q, i, j, c] is the colour in coloring c of the
    edge between positions i and j of Q's clique; the diagonal is never read
    unmasked.  The fallback without a C compiler, and the kernel's reference.

    The member of v's spanning clique at P through Q sits at pos[Q, P] in
    Q's clique, so b(v, P) = sum_Q C_Q[i_Q, pos[Q, P]].  Per block of columns
    P of pos (pos_cols: the whole table is never built), one flat index into
    the matrices per point of v is shared by the batch, whose colourings lie
    innermost, so each gather copies B bytes and b is q+1 row adds.  The q+1
    columns P on v hold no spanning clique (there pos is -1 or v's own
    position), and the mask gives them no pairs."""
    g, q = fam.graph, fam.q
    npts, k, _, nb = C.shape
    C = C.reshape(npts * k * k, nb)
    vc = g.vertex_cliques.T
    # v sits at at[v, j] in the clique of its j-th point
    rows = (vc * k + g.at.T) * k
    b = np.arange(q + 2)
    pairs = b * (b - 1) // 2
    # entry q + 2 is the masked columns'
    same = np.append(pairs + pairs[::-1], 0).astype(np.uint16)
    out = np.zeros((g.n, nb), dtype=np.int64)
    # per column P: an int32 index and 4 bytes a coloring per vertex, and
    # pos_cols' column with its int32 gathers and their intp copy
    for block in slices(npts, g.n * (4 + 4 * nb) + 24 * npts):
        cols = g.pos_cols(np.arange(npts)[block])
        blue = np.zeros((g.n, cols.shape[1], nb), dtype=np.uint8)
        for Q, row in zip(vc, rows):
            at = cols[Q]
            at += row[:, None]
            blue += C[at]
        blue[g.cliques[block].T, np.arange(cols.shape[1])] = q + 2
        out += same[blue].sum(axis=1, dtype=np.int64)
    return out.T


def _monochromatic(fam: TriangleFamily, same_sum):
    """(sum_v same(v) - |family|) / 2, checking that it is a whole number >= 0."""
    diff = same_sum - fam.total
    if np.any(diff % 2) or np.any(diff < 0):
        raise RuntimeError("Goodman parity violated (internal bug)")
    return diff // 2


def batch_mono_counts(fam: TriangleFamily, colors: np.ndarray) -> np.ndarray:
    """Monochromatic family triangles of each coloring, shape (B, m) -> (B,):
    one gather through clique_edges takes the lexicographic batch straight
    into vertex_same_pairs' clique layout."""
    same = vertex_same_pairs(fam, colors.T[fam.graph.clique_edges])
    return _monochromatic(fam, same.sum(axis=1))


def goodman_count(fam: TriangleFamily, coloring: EdgeColoring) -> GoodmanTally:
    """Exact monochromatic count of the family under the coloring."""
    same_v = vertex_same_pairs(fam, coloring.clique_bits[:, :, None])[0]
    mono = _monochromatic(fam, int(same_v.sum()))
    return GoodmanTally(same_pairs=same_v, family_size=fam.total, monochromatic=mono)


# ----------------------------------------------------------------------
# Exact max-cut
# ----------------------------------------------------------------------

BNB_MAXCUT_LIMIT = 60


def maxcut_exact(adj: np.ndarray) -> tuple[int, np.ndarray]:
    """Maximum cut and a witness side assignment, by branch and bound with an
    admissible bound; at most BNB_MAXCUT_LIMIT vertices."""
    n = adj.shape[0]
    if not np.triu(adj, 1).any():
        return 0, np.zeros(n, dtype=bool)
    if n > BNB_MAXCUT_LIMIT:
        raise ValueError(f"maxcut_exact supports at most {BNB_MAXCUT_LIMIT} vertices, got {n}")
    order = np.argsort(-adj.sum(axis=1))  # high degree first
    weights = adj.astype(np.int64)
    # edges fully among vertices placed at position >= i
    later = np.triu(adj[np.ix_(order, order)], 1).sum(axis=1)
    suffix_edges = np.append(np.cumsum(later[::-1])[::-1], 0)
    best = {"cut": -1, "side": None}
    side = np.full(n, -1, dtype=np.int8)
    # each vertex's placed neighbours on side 0 and on side 1
    placed = np.zeros((2, n), dtype=np.int64)

    def rec(i: int, cut: int):
        if i == n:
            if cut > best["cut"]:
                best["cut"] = cut
                best["side"] = (side == 1).copy()
            return
        # admissible bound: every unplaced-unplaced edge cut, plus each
        # unplaced vertex taking its better side against placed neighbors
        rest = order[i:]
        if cut + suffix_edges[i] + np.maximum(placed[0, rest], placed[1, rest]).sum() <= best["cut"]:
            return
        v = order[i]
        for s in (0, 1) if i > 0 else (0,):
            side[v] = s
            placed[s] += weights[v]
            rec(i + 1, cut + int(placed[1 - s, v]))
            placed[s] -= weights[v]
            side[v] = -1

    rec(0, 0)
    return best["cut"], best["side"]


# ----------------------------------------------------------------------
# Convexity minimum and the main certificate
# ----------------------------------------------------------------------

def clique_min_mono(q: int) -> dict:
    """Least same-colored pair count of a 2-colored (q+1)-clique.

    Integer minimum over splits a + b = q+1 of C(a,2) + C(b,2), with the
    real-valued relaxation (q+1)^2/4 - (q+1)/2 for comparison.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    t = q + 1
    best, split = None, None
    for a in range(t + 1):
        val = comb(a, 2) + comb(t - a, 2)
        if best is None or val < best:
            best, split = val, (a, t - a)
    real = Fraction(t * t, 4) - Fraction(t, 2)
    return {"integer": best, "real": real, "split": split}


def mono_lower_bound(q: int) -> Fraction:
    """L(q) = (n (q^3-q) cmm(q) - |family|) / 2, exact."""
    n = q**4 - q**3 + q**2
    cmm = clique_min_mono(q)["integer"]
    return Fraction(n * (q**3 - q) * cmm - family_size_formula(q), 2)


def quasi_folkman_certificate(q: int) -> Certificate:
    """Certify that every two-coloring leaves at least L(q) monochromatic
    family triangles; pass iff L(q) > 0, inconclusive at the equality case."""
    n = q**4 - q**3 + q**2
    tq = family_size_formula(q)
    cm = clique_min_mono(q)
    lower = mono_lower_bound(q)
    fraction = Fraction(lower, tq)
    # convexity inequality behind the bound, per (q+1)-clique
    lhs = cm["real"]
    rhs = Fraction((q + 1) * q, 6)
    if lower > 0:
        outcome = "pass"
    elif lower == 0:
        outcome = "inconclusive"
    else:
        outcome = "fail"
    quantities = {
        "n": n,
        "family_size": tq,
        "min_pairs_per_clique_integer": cm["integer"],
        "min_pairs_per_clique_real": cm["real"],
        "lower_bound": lower,
        "fraction_of_family": fraction,
        "fraction_float": float(fraction),
        "per_clique_lhs_real": lhs,
        "per_clique_rhs": rhs,
        "per_clique_strict": lhs > rhs,
    }
    return Certificate(
        claim="every 2-coloring has at least L(q) monochromatic family triangles",
        params={"q": q},
        quantities=quantities,
        margin=lower,
        outcome=outcome,
    )


def adversarial_color_check(fam: TriangleFamily, coloring: EdgeColoring) -> Certificate:
    """Exact monochromatic count of a user-supplied coloring against L(q)."""
    tally = goodman_count(fam, coloring)
    bound = mono_lower_bound(fam.q)
    ok = tally.monochromatic >= bound
    return Certificate(
        claim="supplied coloring meets the certified monochromatic lower bound",
        params={"q": fam.q},
        quantities={
            "monochromatic": tally.monochromatic,
            "lower_bound": bound,
            "family_size": fam.total,
        },
        margin=tally.monochromatic - bound,
        outcome="pass" if ok else "fail",
    )
