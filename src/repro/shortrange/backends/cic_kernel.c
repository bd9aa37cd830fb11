/* Table-free CIC corners, deposit and gather (Sec. II of the source
 * paper: the long-range solver's particle <-> mesh passes), and the
 * stepper's stream pass, which shares the periodic wrap.  One corners
 * pass stores each particle's base cell and fractions; the deposit and
 * the gather both read them, so a PM solve finds its particles' cells
 * once.  No (8, N) index/weight table is ever built.
 *
 * Bitwise contract: the results equal NumpyBackend.cic_corners /
 * cic_deposit / cic_gather / stream (ParticleGridCoords, np.bincount,
 * fancy-index gathers, np.mod) in float64 AND float32.  Every product
 * and sum is a separate statement rounded in T (build with
 * -ffp-contract=off):
 *   wrap   np.mod semantics: fmod, then +box for a negative remainder and
 *          +0 for a zero one or one that rounded up to box (fast path for
 *          0 < x < box); NaN stays NaN;
 *   cell   wrap, then * (n/box), fold a value >= n back by n, floor, clip
 *          to [0, n-1], and the fraction s - floor(s) (exact, so the
 *          double detour of numpy's float - int64 promotion changes
 *          nothing);
 *   weight (wx*wy)*wz per corner, corners in (dx, dy, dz) order, then m*w;
 *   deposit per corner, the corner's terms summed in particle order in
 *          double (bincount's partials), each partial cast to T and added
 *          to the T grid in corner order.  Four (dx, dy) passes make the
 *          eight partials: a pass sums a particle's dz = 0 and dz = 1
 *          terms into the paired slots 2*b and 2*b + 1 of a zeroed
 *          2 n^3 double scratch, b the particle's base cell moved by
 *          (dx, dy) (not by dz).  The fold reads corner 2q from cell k's
 *          slot 0 and corner 2q + 1 from slot 1 of k's neighbour one
 *          back in z, so each corner's partial holds the same particles
 *          in the same order as bincount's, and the folds add them in
 *          the same order;
 *   gather per particle and component of the interleaved grid,
 *          acc = acc + g*w over the eight corners (both corner loops
 *          unrolled, so cell[8] and w[8] live in registers);
 *   stream x = wrap(x + p*drift).
 * A non-finite coordinate has no cell: the corners pass counts such
 * particles and the caller raises instead of using the corners.  The
 * deposit and gather count base cells outside [0, n) and skip them, so
 * corners that did not come from the corners pass cannot index outside
 * the grid.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define CIC_KERNELS(SUF, T, FMOD)                                           \
static inline T wrap_##SUF(T x, T box)                                      \
{                                                                           \
    if (x > 0 && x < box)                                                   \
        return x;                                                           \
    T r = FMOD(x, box);                                                     \
    if (r < 0)                                                              \
        r = r + box;                                                        \
    if (r == 0 || r == box)                                                 \
        r = 0; /* +0, also for -0.0 and a tiny -x that rounds up to box */  \
    return r;                                                               \
}                                                                           \
                                                                            \
/* cell of one coordinate; 0 when it is not finite */                       \
static inline int cell_##SUF(T x, T box, T scale, int64_t n,                \
                             int32_t *base, T *frac)                        \
{                                                                           \
    if (!isfinite(x))                                                       \
        return 0;                                                           \
    T s = wrap_##SUF(x, box) * scale;                                       \
    if (s >= (T)n)                                                          \
        s = s - (T)n;                                                       \
    int64_t i = (int64_t)s; /* s >= +0, so truncation is floor */           \
    i = i < 0 ? 0 : (i > n - 1 ? n - 1 : i);                                \
    *base = (int32_t)i;                                                     \
    *frac = (T)((double)s - (double)i);                                     \
    return 1;                                                               \
}                                                                           \
                                                                            \
/* base cells and fractions of np particles, (np, 3) each; returns the      \
 * number of particles with a non-finite coordinate */                      \
int64_t cic_corners_##SUF(const T *pos, int64_t np, int64_t n, T box,       \
                          T scale, int32_t *base, T *frac)                  \
{                                                                           \
    int64_t bad = 0;                                                        \
    for (int64_t i = 0; i < 3 * np; i += 3) {                               \
        int ok = 1;                                                         \
        for (int a = 0; a < 3; a++) {                                       \
            base[i + a] = 0;                                                \
            frac[i + a] = 0;                                                \
            ok &= cell_##SUF(pos[i + a], box, scale, n, &base[i + a],       \
                             &frac[i + a]);                                 \
        }                                                                   \
        bad += !ok;                                                         \
    }                                                                       \
    return bad;                                                             \
}                                                                           \
                                                                            \
/* grid[n^3] = CIC deposit of mass (unit mass when NULL) at the corners;    \
 * scratch holds 2 n^3 doubles, the paired dz slots of the header.          \
 * Returns the number of particles whose base cell is outside the grid;     \
 * the grid is only written when it is 0. */                                \
int64_t cic_deposit_##SUF(const int32_t *base, const T *frac,               \
                          const T *mass, int64_t np, int64_t n,             \
                          double *scratch, T *grid)                         \
{                                                                           \
    int64_t bad = 0;                                                        \
    memset(scratch, 0, 2 * n * n * n * sizeof(double));                     \
    for (int q = 0; q < 4; q++) {                                           \
        const int dx = q >> 1, dy = q & 1;                                  \
        for (int64_t i = 0; i < np; i++) {                                  \
            int64_t ix = base[3 * i], iy = base[3 * i + 1];                 \
            const int64_t iz = base[3 * i + 2];                             \
            if (q == 0 && ((uint64_t)ix >= (uint64_t)n                      \
                           || (uint64_t)iy >= (uint64_t)n                   \
                           || (uint64_t)iz >= (uint64_t)n)) {               \
                bad++;                                                      \
                continue;                                                   \
            }                                                               \
            const T fx = frac[3 * i], fy = frac[3 * i + 1],                 \
                    fz = frac[3 * i + 2];                                   \
            const T wx = dx ? fx : (T)1 - fx;                               \
            const T wy = dy ? fy : (T)1 - fy;                               \
            const T wxy = wx * wy;                                          \
            T w0 = wxy * ((T)1 - fz), w1 = wxy * fz;                        \
            if (mass) {                                                     \
                w0 = mass[i] * w0;                                          \
                w1 = mass[i] * w1;                                          \
            }                                                               \
            if (dx)                                                         \
                ix = ix + 1 == n ? 0 : ix + 1;                              \
            if (dy)                                                         \
                iy = iy + 1 == n ? 0 : iy + 1;                              \
            double *s = scratch + 2 * ((ix * n + iy) * n + iz);             \
            s[0] += (double)w0;                                             \
            s[1] += (double)w1;                                             \
        }                                                                   \
        if (bad)                                                            \
            return bad;                                                     \
        /* corners 2q (slot 0 of the cell) and 2q + 1 (slot 1 of the cell   \
         * one back in z), in corner order; a sum that starts at +0 is      \
         * never -0, so 0 + x == x: the first pass assigns instead of       \
         * adding into a zeroed grid.  Each slot is read once, then zeroed  \
         * for the next pass. */                                            \
        for (int64_t r = 0; r < n * n; r++) {                               \
            T *g = grid + r * n;                                            \
            double *s = scratch + 2 * r * n;                                \
            for (int64_t z = 0; z < n; z++) {                               \
                double *s1 = s + 2 * (z ? z - 1 : n - 1) + 1;               \
                T v = q ? g[z] + (T)s[2 * z] : (T)s[2 * z];                 \
                g[z] = v + (T)*s1;                                          \
                s[2 * z] = 0.0;                                             \
                *s1 = 0.0;                                                  \
            }                                                               \
        }                                                                   \
    }                                                                       \
    return 0;                                                               \
}                                                                           \
                                                                            \
/* one particle's k gathered values, o[g] = sum over the corners c in       \
 * order of cell[c][g] * w[c], three components at a time in registers */   \
static inline __attribute__((always_inline)) void                           \
gather_row_##SUF(const T *const *cell, const T *w, int64_t k, T *o)         \
{                                                                           \
    for (int64_t g = 0; g < k; g += 3) {                                    \
        const int64_t m = k - g;                                            \
        T a0 = 0, a1 = 0, a2 = 0;                                           \
        _Pragma("GCC unroll 8")                                             \
        for (int c = 0; c < 8; c++) {                                       \
            const T *q = cell[c] + g;                                       \
            T t = q[0] * w[c];                                              \
            a0 = a0 + t;                                                    \
            if (m > 1) {                                                    \
                t = q[1] * w[c];                                            \
                a1 = a1 + t;                                                \
            }                                                               \
            if (m > 2) {                                                    \
                t = q[2] * w[c];                                            \
                a2 = a2 + t;                                                \
            }                                                               \
        }                                                                   \
        o[g] = a0;                                                          \
        if (m > 1)                                                          \
            o[g + 1] = a1;                                                  \
        if (m > 2)                                                          \
            o[g + 2] = a2;                                                  \
    }                                                                       \
}                                                                           \
                                                                            \
/* out[np][k] = CIC gather at the corners from the interleaved grid         \
 * [n^3][k]: a corner's k values are adjacent.  Returns the number of       \
 * particles whose base cell is outside the grid (their rows are left       \
 * unwritten). */                                                           \
int64_t cic_gather_##SUF(const T *grid, int64_t n, int64_t k,               \
                         const int32_t *base, const T *frac, int64_t np,    \
                         T *out)                                            \
{                                                                           \
    int64_t bad = 0;                                                        \
    for (int64_t i = 0; i < np; i++) {                                      \
        const int64_t ix = base[3 * i], iy = base[3 * i + 1],               \
                      iz = base[3 * i + 2];                                 \
        if ((uint64_t)ix >= (uint64_t)n || (uint64_t)iy >= (uint64_t)n      \
            || (uint64_t)iz >= (uint64_t)n) {                               \
            bad++;                                                          \
            continue;                                                       \
        }                                                                   \
        const T fx = frac[3 * i], fy = frac[3 * i + 1],                     \
                fz = frac[3 * i + 2];                                       \
        const int64_t jx = ix + 1 == n ? 0 : ix + 1;                        \
        const int64_t jy = iy + 1 == n ? 0 : iy + 1;                        \
        const int64_t jz = iz + 1 == n ? 0 : iz + 1;                        \
        const T *cell[8];                                                   \
        T w[8];                                                             \
        _Pragma("GCC unroll 8")                                             \
        for (int c = 0; c < 8; c++) {                                       \
            const int dx = c >> 2, dy = (c >> 1) & 1, dz = c & 1;           \
            const T wx = dx ? fx : (T)1 - fx;                               \
            const T wy = dy ? fy : (T)1 - fy;                               \
            const T wz = dz ? fz : (T)1 - fz;                               \
            const T wxy = wx * wy;                                          \
            w[c] = wxy * wz;                                                \
            cell[c] = grid + (((dx ? jx : ix) * n + (dy ? jy : iy)) * n     \
                              + (dz ? jz : iz)) * k;                        \
        }                                                                   \
        /* k is a constant in the PM force's (3) and a single grid's (1)    \
         * calls, so each gets its own unrolled copy of the row */          \
        if (k == 3)                                                         \
            gather_row_##SUF(cell, w, 3, out + 3 * i);                      \
        else if (k == 1)                                                    \
            gather_row_##SUF(cell, w, 1, out + i);                          \
        else                                                                \
            gather_row_##SUF(cell, w, k, out + k * i);                      \
    }                                                                       \
    return bad;                                                             \
}                                                                           \
                                                                            \
/* the stream map on m coordinates: x = wrap(x + p*drift) */                \
void stream_##SUF(T *x, const T *p, int64_t m, T drift, T box)              \
{                                                                           \
    for (int64_t i = 0; i < m; i++) {                                       \
        const T t = p[i] * drift;                                           \
        x[i] = wrap_##SUF(x[i] + t, box);                                   \
    }                                                                       \
}

CIC_KERNELS(f64, double, fmod)
CIC_KERNELS(f32, float, fmodf)
