"""Reference implementations that the fast paths in ``src/`` replaced.

They read the dense adjacency and the edge list directly, so they share no
logic with the design-identity SRG proof, the bit-packed K4 sampler or the
incidence-based K4 clique property.
"""

import numpy as np

from quasifolkman.graphs import neighbor_rows


def verify_srg_dense(g, block=1024):
    """Exhaustive common-neighbour scan over all vertex pairs by blocked
    float32 matrix products (exact for counts below 2^24).  Returns
    (lambda_observed, mu_observed, passed): a parameter is None unless every
    pair of its kind has the same count; passed also needs the expected
    values."""
    q = g.q
    lam_expected = 2 * q * q - 2
    mu_expected = (q + 1) ** 2
    A = g.adj.astype(np.float32)
    lam_vals: set[int] = set()
    mu_vals: set[int] = set()
    for start in range(0, g.n, block):
        stop = min(start + block, g.n)
        common = (A[start:stop] @ A).astype(np.int64)
        sub_adj = g.adj[start:stop]
        eye = np.zeros_like(sub_adj)
        eye[np.arange(stop - start), np.arange(start, stop)] = True
        lam_vals.update(np.unique(common[sub_adj]).tolist())
        mu_vals.update(np.unique(common[~sub_adj & ~eye]).tolist())
    lam = next(iter(lam_vals)) if len(lam_vals) == 1 else None
    mu = next(iter(mu_vals)) if len(mu_vals) == 1 else None
    return lam, mu, lam == lam_expected and mu == mu_expected


def sampled_k4_quads_loop(g, seed, samples):
    """The sampled K4s of verify_k4_structure, one sample at a time over
    Python-int bitmask rows: the same draws, the lowest-id extension."""
    rng = np.random.default_rng(seed)
    packed = np.packbits(g.adj, axis=1, bitorder="little")
    bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
    us = rng.integers(0, g.n, size=samples)
    nbr = neighbor_rows(g)
    picks = rng.integers(0, nbr.shape[1], size=(samples, 2))
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
        x = (cm & -cm).bit_length() - 1
        quads.append(sorted((u, v, w, x)))
    return np.array(quads, dtype=np.int32) if quads else np.empty((0, 4), dtype=np.int32)


def k4_clique_property_edges(g, quads):
    """For each K4, whether one of its four triangles has all three meet
    points equal, from the edge list's meet points."""
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
