/* The compiled kernels of quasifolkman: the anneal step loop and the
 * greedy polish of search, the Goodman count of certify (same_pairs) and
 * the edge-list text of graphs (edge_lines).  Each has a numpy twin that
 * gives the same results.
 *
 * In the step loop every draw goes through the bitgen_t of a numpy
 * Generator, in the order of rng.integers(0, m, R) followed by
 * rng.random(R), so a seeded run consumes the same stream as the numpy
 * loop.  The accept test reads a table of numpy's exp values instead of
 * calling exp here.
 *
 * The step loop and the polish both keep delta(e) = #{partners unlike e} - q^2 per edge (int16: |delta| <=
 * q^2) and never recompute it: a flip of e negates delta(e) and moves each
 * partner f by +1 if f had e's old color, by -1 if not.  A step therefore
 * reads its delta in O(1) and pays O(q^2) only when it is accepted.
 */
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* numpy's buffered_bounded_lemire_uint32 for the exclusive bound m <= 2^32,
 * as random_bounded_uint64_fill calls it for integers(0, m) */
static inline uint64_t bounded(bitgen_t *bg, uint64_t m)
{
    if (m == 1)
        return 0;
    if (m == 0x100000000ULL)
        return bg->next_uint32(bg->state);
    uint32_t bound = (uint32_t)m;
    uint64_t prod = (uint64_t)bg->next_uint32(bg->state) * bound;
    uint32_t leftover = (uint32_t)prod;
    if (leftover < bound) {
        uint32_t threshold = (uint32_t)(0u - bound) % bound; /* (2^32 - m) mod m */
        while (leftover < threshold) {
            prod = (uint64_t)bg->next_uint32(bg->state) * bound;
            leftover = (uint32_t)prod;
        }
    }
    return prod >> 32;
}

/* rng.integers(0, m, count) through `bounded`; the tests compare the two */
void draw_edges(bitgen_t *bg, uint64_t m, int64_t count, int64_t *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = (int64_t)bounded(bg, m);
}

/* delta of every edge of `chains` colorings of m edges (one byte each).  Row
 * e of `part` holds its `width` partner edges. */
void fill_deltas(const uint8_t *colors, const int32_t *part, int64_t chains, int64_t m,
                 int64_t width, int16_t *delta)
{
    for (int64_t j = 0; j < chains; j++, colors += m, delta += m)
        for (int64_t e = 0; e < m; e++) {
            const int32_t *f = part + e * width;
            int64_t d = -width / 2;
            for (int64_t k = 0; k < width; k++)
                d += colors[f[k]] != colors[e];
            delta[e] = (int16_t)d;
        }
}

/* Flips edge e of one coloring and updates its deltas. */
static inline void flip(uint8_t *bits, int16_t *delta, const int32_t *f, int64_t width, int64_t e)
{
    uint8_t old = bits[e];
    for (int64_t k = 0; k < width; k++)
        delta[f[k]] += bits[f[k]] == old ? 1 : -1;
    delta[e] = -delta[e];
    bits[e] = old ^ 1;
}

/* Runs `steps` steps of every chain.  `delta` holds the deltas of `colors`
 * and stays so.  Row s of `thr` holds exp(-d / T_s) for d = 0 .. width / 2.
 *
 * All draws come first, in the lockstep order of the stream, into `edges`
 * and `u` (steps x chains each).  The chains share nothing else, so each
 * then runs through all the steps on its own, its coloring and deltas hot
 * in cache.
 *
 * Chain j's best_colors row equals its colors row with the edges of its
 * journal (journal + j * capacity, journal_len[j] entries) flipped back.  A
 * new best XORs the journal into the row; a chain with more than `capacity`
 * flips since its last best (journal_len > capacity) copies the whole row
 * instead.  Returns the number of accepted moves. */
int64_t anneal_steps(bitgen_t *bg, uint8_t *colors, int16_t *delta, int64_t *obj,
                     int64_t *best_obj, uint8_t *best_colors, int32_t *journal,
                     int64_t *journal_len, int64_t capacity, const int32_t *part, int64_t chains,
                     int64_t m, int64_t width, int64_t steps, const double *thr, uint32_t *edges,
                     double *u)
{
    int64_t half = width / 2, accepted = 0;
    for (int64_t s = 0; s < steps; s++) {
        for (int64_t j = 0; j < chains; j++)
            edges[s * chains + j] = (uint32_t)bounded(bg, (uint64_t)m);
        for (int64_t j = 0; j < chains; j++)
            u[s * chains + j] = bg->next_double(bg->state);
    }
    for (int64_t j = 0; j < chains; j++) {
        uint8_t *bits = colors + j * m, *best = best_colors + j * m;
        int16_t *dl = delta + j * m;
        int32_t *jr = journal + j * capacity;
        int64_t cur = obj[j], low = best_obj[j], len = journal_len[j];
        for (int64_t s = 0; s < steps; s++) {
            int64_t e = edges[s * chains + j], d = dl[e];
            if (d > 0 && !(u[s * chains + j] < thr[s * (half + 1) + d]))
                continue;
            flip(bits, dl, part + e * width, width, e);
            cur += d;
            accepted++;
            if (len < capacity)
                jr[len] = (int32_t)e;
            if (len <= capacity)
                len++;
            if (cur < low) {
                low = cur;
                if (len > capacity)
                    memcpy(best, bits, (size_t)m);
                else
                    for (int64_t k = 0; k < len; k++)
                        best[jr[k]] ^= 1;
                len = 0;
            }
        }
        obj[j] = cur;
        best_obj[j] = low;
        journal_len[j] = len;
    }
    return accepted;
}

/* Tournament tree over one chain's (delta, edge id) keys.  Node k < size
 * holds the least key below it; its children are nodes 2k and 2k + 1, where
 * child c >= size is the leaf of edge c - size (edges >= m are padding and
 * never win).  Keys order by delta, then by id, so the root is the lowest-id
 * argmin, the edge numpy's argmin picks. */
static inline uint64_t key(const uint64_t *tree, const int16_t *delta, int64_t m, int64_t size,
                           int64_t c)
{
    if (c < size)
        return tree[c];
    c -= size;
    return c < m ? (uint64_t)(delta[c] + 32768) << 32 | (uint64_t)c : UINT64_MAX;
}

static inline uint64_t least(const uint64_t *tree, const int16_t *delta, int64_t m, int64_t size,
                             int64_t k)
{
    uint64_t a = key(tree, delta, m, size, 2 * k), b = key(tree, delta, m, size, 2 * k + 1);
    return b < a ? b : a;
}

/* Re-keys the ancestors of edge e's leaf, up to the first that keeps its key. */
static inline void rekey(uint64_t *tree, const int16_t *delta, int64_t m, int64_t size, int64_t e)
{
    for (int64_t k = (size + e) / 2; k >= 1; k /= 2) {
        uint64_t v = least(tree, delta, m, size, k);
        if (v == tree[k])
            break;
        tree[k] = v;
    }
}

/* Flips each chain's most-improving edge, lowest id on ties, until none
 * improves.  The chains are independent, so they run one after another.
 * `delta` (m entries) and `tree` (size entries, size a power of two >= m,
 * >= 2) are scratch. */
void polish(uint8_t *colors, int64_t *obj, const int32_t *part, int64_t chains, int64_t m,
            int64_t width, int16_t *delta, uint64_t *tree, int64_t size)
{
    for (int64_t j = 0; j < chains; j++) {
        uint8_t *bits = colors + j * m;
        fill_deltas(bits, part, 1, m, width, delta);
        for (int64_t k = size - 1; k >= 1; k--)
            tree[k] = least(tree, delta, m, size, k);
        for (;;) {
            int64_t e = (int64_t)(tree[1] & 0xffffffffu), d = delta[e];
            if (d >= 0)
                break;
            const int32_t *f = part + e * width;
            flip(bits, delta, f, width, e);
            obj[j] += d;
            rekey(tree, delta, m, size, e);
            for (int64_t k = 0; k < width; k++)
                rekey(tree, delta, m, size, f[k]);
        }
    }
}

/* acc[P] += the colour of v's edge to s, for each point P of s; inlined
 * with batch 1 as a constant, the single count's loop has no batch loop. */
static inline void add_colour(uint8_t *restrict acc, const uint8_t *restrict col, const int32_t *pts,
                              int64_t r, int64_t batch)
{
    for (int64_t t = 0; t < r; t++) {
        uint8_t *restrict a = acc + (int64_t)pts[t] * batch;
        int64_t c = 0;
        for (; c + 16 <= batch; c += 16) /* fixed-length runs vectorize at -O2 */
            for (int x = 0; x < 16; x++)
                a[c + x] += col[c + x];
        for (; c < batch; c++)
            a[c] += col[c];
    }
}

/* same(v) of every vertex under each of `batch` colorings, out[c * n + v].
 * colors is the clique layout with the batch innermost: byte
 * (X * C(k, 2) + t) * batch + c is the colour in coloring c of pair t, in
 * triu order, of clique X; pair[i * k + j] names the pair of positions i,
 * j.  Each of v's points Q, where v sits at position i, adds the colour of
 * v's edge to every other member s of Q's clique to acc[P] at each point P
 * of s.  Two secants share at most one point, so a point P off v gets one
 * colour through each Q: acc[P] is the number b of blue edges from v into
 * its spanning clique at P, at most q + 1, which holds C(b, 2) +
 * C(q + 1 - b, 2) same-coloured pairs.  v's own points are masked.  acc
 * (npts * batch bytes) is scratch. */
void same_pairs(const uint8_t *colors, const int32_t *pair, const int32_t *cliques,
                const int32_t *vertex_cliques, const int32_t *at, int64_t q, int64_t n,
                int64_t batch, uint8_t *acc, int64_t *out)
{
    int64_t r = q + 1, k = q * q, npts = q * q * q + 1, width = k * (k - 1) / 2 * batch;
    /* entries above q + 1 are the masked points' */
    int64_t same[256] = {0};
    for (int64_t b = 0; b <= r; b++)
        same[b] = b * (b - 1) / 2 + (r - b) * (r - b - 1) / 2;
    for (int64_t v = 0; v < n; v++) {
        memset(acc, 0, (size_t)(npts * batch));
        for (int64_t j = 0; j < r; j++) {
            int64_t Q = vertex_cliques[v * r + j], i = at[v * r + j];
            const int32_t *members = cliques + Q * k, *row = pair + i * k;
            const uint8_t *base = colors + Q * width;
            for (int64_t p = 0; p < k; p++) {
                if (p == i)
                    continue;
                const uint8_t *col = base + (int64_t)row[p] * batch;
                const int32_t *pts = vertex_cliques + (int64_t)members[p] * r;
                if (batch == 1)
                    add_colour(acc, col, pts, r, 1);
                else
                    add_colour(acc, col, pts, r, batch);
            }
        }
        for (int64_t j = 0; j < r; j++)
            memset(acc + vertex_cliques[v * r + j] * batch, 255, (size_t)batch);
        for (int64_t c = 0; c < batch; c++) {
            int64_t total = 0;
            for (int64_t P = 0; P < npts; P++)
                total += same[acc[P * batch + c]];
            out[c * n + v] = total;
        }
    }
}

/* Writes the line "u[e] v[e]\n" of each of `count` edges, ids in decimal,
 * to out (room for count lines of the widest ids) and returns the bytes
 * written. */
int64_t edge_lines(const int32_t *u, const int32_t *v, int64_t count, char *out)
{
    char *p = out;
    for (int64_t e = 0; e < count; e++) {
        uint32_t ends[2] = {(uint32_t)u[e], (uint32_t)v[e]};
        for (int s = 0; s < 2; s++) {
            char digits[10];
            int len = 0;
            do
                digits[len++] = (char)('0' + ends[s] % 10);
            while (ends[s] /= 10);
            while (len)
                *p++ = digits[--len];
            *p++ = s ? '\n' : ' ';
        }
    }
    return p - out;
}
