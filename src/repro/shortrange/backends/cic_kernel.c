/* Table-free CIC deposit and gather (Sec. II of the source paper: the
 * long-range solver's particle <-> mesh passes).  The eight corners of
 * each particle are computed from its position on the fly; no (8, N)
 * index/weight table is ever built.
 *
 * Bitwise contract: the results equal NumpyBackend.cic_deposit /
 * cic_gather (ParticleGridCoords + np.bincount / fancy-index gathers) in
 * float64 AND float32.  Every product and sum is a separate statement
 * rounded in T (build with -ffp-contract=off):
 *   wrap   np.mod semantics: fmod, then +box for a negative remainder and
 *          +0 for a zero one (fast path for 0 < x < box), then * (n/box),
 *          fold a value >= n back by n, floor, clip to [0, n-1], and the
 *          fraction s - floor(s) (exact, so the double detour of numpy's
 *          float - int64 promotion changes nothing);
 *   weight (wx*wy)*wz per corner, corners in (dx, dy, dz) order, then m*w;
 *   deposit per corner pass, the corner's terms summed in particle order
 *          into a zeroed double grid (bincount's partials), which is then
 *          cast to T and added to the T grid;
 *   gather per particle and grid, acc = acc + g*w over the eight corners.
 * A non-finite coordinate has no cell: the corner pass counts such
 * particles and the callers return that count instead of a result.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#define CIC_KERNELS(SUF, T, FLOOR, FMOD)                                    \
/* cell of one coordinate; 0 when it is not finite */                       \
static inline int cell_##SUF(T x, T box, T scale, int64_t n,                \
                             int64_t *base, T *frac)                        \
{                                                                           \
    if (!isfinite(x))                                                       \
        return 0;                                                           \
    T r = x;                                                                \
    if (!(x > 0 && x < box)) {                                              \
        r = FMOD(x, box);                                                   \
        if (r == 0)                                                         \
            r = 0; /* np.mod gives +0, also for -0.0 */                     \
        else if (r < 0)                                                     \
            r = r + box;                                                    \
    }                                                                       \
    T s = r * scale;                                                        \
    if (s >= (T)n)                                                          \
        s = s - (T)n;                                                       \
    int64_t i = (int64_t)FLOOR(s);                                          \
    i = i < 0 ? 0 : (i > n - 1 ? n - 1 : i);                                \
    *base = i;                                                              \
    *frac = (T)((double)s - (double)i);                                     \
    return 1;                                                               \
}                                                                           \
                                                                            \
/* base cells and fractions of np particles; returns the number of          \
 * particles with a non-finite coordinate */                                \
static int64_t cic_corners_##SUF(const T *pos, int64_t np, int64_t n,       \
                                 T box, T scale, int32_t *base, T *frac)    \
{                                                                           \
    int64_t bad = 0;                                                        \
    for (int64_t i = 0; i < np; i++) {                                      \
        int ok = 1;                                                         \
        for (int a = 0; a < 3; a++) {                                       \
            int64_t b = 0;                                                  \
            T f = 0;                                                        \
            ok &= cell_##SUF(pos[3 * i + a], box, scale, n, &b, &f);        \
            base[3 * i + a] = (int32_t)b;                                   \
            frac[3 * i + a] = f;                                            \
        }                                                                   \
        bad += !ok;                                                         \
    }                                                                       \
    return bad;                                                             \
}                                                                           \
                                                                            \
/* grid[n^3] = CIC deposit of mass (unit mass when NULL); scratch holds     \
 * n^3 doubles.  Returns cic_corners' count; the grid is only written       \
 * when it is 0. */                                                         \
int64_t cic_deposit_##SUF(const T *pos, const T *mass, int64_t np,          \
                          int64_t n, T box, T scale, int32_t *base,         \
                          T *frac, double *scratch, T *grid)                \
{                                                                           \
    const int64_t bad = cic_corners_##SUF(pos, np, n, box, scale, base,     \
                                          frac);                            \
    if (bad)                                                                \
        return bad;                                                         \
    const int64_t nc = n * n * n;                                           \
    memset(scratch, 0, nc * sizeof(double));                                \
    for (int c = 0; c < 8; c++) {                                           \
        const int dx = c >> 2, dy = (c >> 1) & 1, dz = c & 1;               \
        for (int64_t i = 0; i < np; i++) {                                  \
            int64_t ix = base[3 * i], iy = base[3 * i + 1],                 \
                    iz = base[3 * i + 2];                                   \
            const T fx = frac[3 * i], fy = frac[3 * i + 1],                 \
                    fz = frac[3 * i + 2];                                   \
            const T wx = dx ? fx : (T)1 - fx;                               \
            const T wy = dy ? fy : (T)1 - fy;                               \
            const T wz = dz ? fz : (T)1 - fz;                               \
            T w = wx * wy;                                                  \
            w = w * wz;                                                     \
            if (mass)                                                       \
                w = mass[i] * w;                                            \
            if (dx)                                                         \
                ix = ix + 1 == n ? 0 : ix + 1;                              \
            if (dy)                                                         \
                iy = iy + 1 == n ? 0 : iy + 1;                              \
            if (dz)                                                         \
                iz = iz + 1 == n ? 0 : iz + 1;                              \
            scratch[(ix * n + iy) * n + iz] += (double)w;                   \
        }                                                                   \
        /* a sum that starts at +0 is never -0, so 0 + x == x: the first    \
         * pass assigns instead of adding into a zeroed grid */             \
        for (int64_t k = 0; k < nc; k++) {                                  \
            grid[k] = c ? grid[k] + (T)scratch[k] : (T)scratch[k];          \
            scratch[k] = 0.0;                                               \
        }                                                                   \
    }                                                                       \
    return 0;                                                               \
}                                                                           \
                                                                            \
/* out[np][ngrids] = CIC gather from each of the ngrids n^3 grids.          \
 * Returns the number of particles with a non-finite coordinate. */         \
int64_t cic_gather_##SUF(const T *pos, int64_t np, int64_t n, T box,        \
                         T scale, const T *const *grids, int64_t ngrids,    \
                         T *out)                                            \
{                                                                           \
    int64_t bad = 0;                                                        \
    for (int64_t i = 0; i < np; i++) {                                      \
        int64_t ix, iy, iz;                                                 \
        T fx, fy, fz;                                                       \
        if (!(cell_##SUF(pos[3 * i], box, scale, n, &ix, &fx)               \
              && cell_##SUF(pos[3 * i + 1], box, scale, n, &iy, &fy)        \
              && cell_##SUF(pos[3 * i + 2], box, scale, n, &iz, &fz))) {    \
            bad++;                                                          \
            continue;                                                       \
        }                                                                   \
        const int64_t jx = ix + 1 == n ? 0 : ix + 1;                        \
        const int64_t jy = iy + 1 == n ? 0 : iy + 1;                        \
        const int64_t jz = iz + 1 == n ? 0 : iz + 1;                        \
        int64_t idx[8];                                                     \
        T w[8];                                                             \
        for (int c = 0; c < 8; c++) {                                       \
            const int dx = c >> 2, dy = (c >> 1) & 1, dz = c & 1;           \
            const T wx = dx ? fx : (T)1 - fx;                               \
            const T wy = dy ? fy : (T)1 - fy;                               \
            const T wz = dz ? fz : (T)1 - fz;                               \
            const T wxy = wx * wy;                                          \
            w[c] = wxy * wz;                                                \
            idx[c] = ((dx ? jx : ix) * n + (dy ? jy : iy)) * n              \
                     + (dz ? jz : iz);                                      \
        }                                                                   \
        for (int64_t g = 0; g < ngrids; g++) {                              \
            const T *grid = grids[g];                                       \
            T acc = 0;                                                      \
            for (int c = 0; c < 8; c++) {                                   \
                const T t = grid[idx[c]] * w[c];                            \
                acc = acc + t;                                              \
            }                                                               \
            out[i * ngrids + g] = acc;                                      \
        }                                                                   \
    }                                                                       \
    return bad;                                                             \
}

CIC_KERNELS(f64, double, floor, fmod)
CIC_KERNELS(f32, float, floorf, fmodf)
