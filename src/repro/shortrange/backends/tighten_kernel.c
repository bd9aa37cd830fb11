/* The source cull of candidate interaction lists.  Per candidate group
 * (an RCB leaf or a P3M cell): drop the ghost targets (real[t] == 0) and
 * a group left without a real one; keep, in order, the candidates whose
 * float32 squared distance to the float32 box of the real targets is
 * <= r2.  A group's candidates are its ranges of rows, in order: range
 * r is rows start[r] .. start[r] + count[r] - 1, and group g's ranges are
 * roff[g] .. roff[g + 1] - 1 (a tree leaf's hits are whole leaves).
 *
 * Bitwise contract: the four output arrays equal NumpyBackend.tighten,
 * in either position precision.  Coordinates are cast to float on each
 * load (numpy's astype(float32)); the distance is the clamp of the
 * source into the box minus the source, summed (dx*dx + dy*dy) + dz*dz
 * in float, each step rounded (-ffp-contract=off).  Positions are
 * finite.
 *
 * The outputs have room for every real target, ngroups + 1 offsets and
 * every candidate plus one: the branch-free compaction writes one entry
 * past the last kept one.  Returns the number of output groups.
 */
#include <stdint.h>

/* squared float32 distance from (x, y, z) to the box [lo, hi] */
static inline float box_d2(float x, float y, float z, const float *lo,
                           const float *hi)
{
    float cx = x < lo[0] ? lo[0] : x;
    float cy = y < lo[1] ? lo[1] : y;
    float cz = z < lo[2] ? lo[2] : z;
    cx = cx > hi[0] ? hi[0] : cx;
    cy = cy > hi[1] ? hi[1] : cy;
    cz = cz > hi[2] ? hi[2] : cz;
    const float dx = cx - x, dy = cy - y, dz = cz - z;
    float s = dx * dx;
    float t = dy * dy;
    s = s + t;
    t = dz * dz;
    return s + t;
}

#define TIGHTEN(SUF, P)                                                     \
int64_t tighten_##SUF(const int64_t *targets, const int64_t *toff,          \
                      const int64_t *start, const int64_t *count,           \
                      const int64_t *roff, int64_t ngroups,                 \
                      const unsigned char *real,                            \
                      const P *pos, float r2, int64_t *otg,                 \
                      int64_t *otoff, int64_t *onidx, int64_t *onoff)       \
{                                                                           \
    int64_t ng = 0, nt = 0, nk = 0;                                         \
    otoff[0] = 0;                                                           \
    onoff[0] = 0;                                                           \
    for (int64_t g = 0; g < ngroups; g++) {                                 \
        float lo[3], hi[3];                                                 \
        const int64_t first = nt;                                           \
        for (int64_t ti = toff[g]; ti < toff[g + 1]; ti++) {                \
            if (!real[ti])                                                  \
                continue;                                                   \
            const int64_t i = targets[ti];                                  \
            const float c[3] = {(float)pos[3 * i], (float)pos[3 * i + 1],   \
                                (float)pos[3 * i + 2]};                     \
            for (int k = 0; k < 3; k++) {                                   \
                lo[k] = nt == first || c[k] < lo[k] ? c[k] : lo[k];         \
                hi[k] = nt == first || c[k] > hi[k] ? c[k] : hi[k];         \
            }                                                               \
            otg[nt++] = i;                                                  \
        }                                                                   \
        if (nt == first)                                                    \
            continue;                                                       \
        /* branch-free: a list is accepted and rejected in long mixed runs */\
        for (int64_t r = roff[g]; r < roff[g + 1]; r++)                     \
            for (int64_t j = start[r]; j < start[r] + count[r]; j++) {      \
                onidx[nk] = j;                                              \
                nk += box_d2((float)pos[3 * j], (float)pos[3 * j + 1],      \
                             (float)pos[3 * j + 2], lo, hi) <= r2;          \
            }                                                               \
        ng++;                                                               \
        otoff[ng] = nt;                                                     \
        onoff[ng] = nk;                                                     \
    }                                                                       \
    return ng;                                                              \
}

TIGHTEN(f64, double)
TIGHTEN(f32, float)
