/* The anneal step loop of quasifolkman.search, run on numpy's own generator.
 *
 * Every draw goes through the bitgen_t of a numpy Generator, in the order of
 * rng.integers(0, m, R) followed by rng.random(R), so a seeded run consumes
 * the same stream as the numpy loop.  The accept test reads a table of
 * numpy's exp values instead of calling exp here.
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

void draw_edges(bitgen_t *bg, uint64_t m, int64_t count, int64_t *out)
{
    for (int64_t i = 0; i < count; i++)
        out[i] = (int64_t)bounded(bg, m);
}

/* Runs `steps` lockstep steps over `chains` colorings of m edges (one byte
 * each).  Row e of `part` holds its `width` partner edges, and row s of
 * `thr` holds exp(-d / T_s) for d = 0 .. width / 2.  Returns the number of
 * accepted moves. */
int64_t anneal_steps(bitgen_t *bg, uint8_t *colors, int64_t *obj, int64_t *best_obj,
                     uint8_t *best_colors, const int32_t *part, int64_t chains, int64_t m,
                     int64_t width, int64_t steps, const double *thr, int64_t *edges, double *u)
{
    int64_t half = width / 2, accepted = 0;
    for (int64_t s = 0; s < steps; s++, thr += half + 1) {
        draw_edges(bg, (uint64_t)m, chains, edges);
        for (int64_t j = 0; j < chains; j++)
            u[j] = bg->next_double(bg->state);
        for (int64_t j = 0; j < chains; j++) {
            uint8_t *bits = colors + j * m;
            int64_t e = edges[j], d = -half;
            const int32_t *f = part + e * width;
            for (int64_t k = 0; k < width; k++)
                d += bits[f[k]] != bits[e];
            if (d > 0 && !(u[j] < thr[d]))
                continue;
            bits[e] ^= 1;
            obj[j] += d;
            accepted++;
            if (obj[j] < best_obj[j]) {
                best_obj[j] = obj[j];
                memcpy(best_colors + j * m, bits, (size_t)m);
            }
        }
    }
    return accepted;
}
