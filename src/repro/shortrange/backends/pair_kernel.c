/* Fused short-range pair kernel (Sec. III / Fig. 5 of the source paper):
 * separation -> cutoff select -> (s+eps)^{-3/2} - poly(s) -> accumulate,
 * one pass, no intermediate arrays.
 *
 * Bitwise contract: the result equals NumpyBackend.pair_accumulate in
 * float64 AND float32.  Every product, sum and Horner step below is a
 * separate statement rounded in T (build with -ffp-contract=off), and
 * the accumulation reproduces numpy's order: per target and per source
 * chunk of min(ns, chunk_pairs), the in-cutoff dx*f terms are summed in
 * list order in a double (np.bincount's partials), cast to T,
 * subtracted into the target's group sum, and the group sum is added to
 * acc once (acc[tidx] += gacc).
 */
#include <math.h>
#include <stdint.h>

#define PAIR_ACCUMULATE(NAME, T, SQRT)                                      \
int64_t NAME(const int64_t *targets, const int64_t *toff,                   \
             const int64_t *nidx, const int64_t *noff, int64_t ngroups,     \
             const T *px, const T *py, const T *pz, const T *msc,           \
             const T *coeffs, int64_t ncoef, T eps, T rc2, T inv_sp2,       \
             int64_t chunk_pairs, T *acc)                                   \
{                                                                           \
    int64_t inside = 0;                                                     \
    for (int64_t g = 0; g < ngroups; g++) {                                 \
        const int64_t t0 = toff[g], t1 = toff[g + 1];                       \
        const int64_t s0 = noff[g], s1 = noff[g + 1];                       \
        if (t1 <= t0 || s1 <= s0)                                           \
            continue;                                                       \
        const int64_t cs = s1 - s0 < chunk_pairs ? s1 - s0 : chunk_pairs;   \
        for (int64_t ti = t0; ti < t1; ti++) {                              \
            const int64_t i = targets[ti];                                  \
            const T xi = px[i], yi = py[i], zi = pz[i];                     \
            T gx = 0, gy = 0, gz = 0;                                       \
            for (int64_t c0 = s0; c0 < s1; c0 += cs) {                      \
                const int64_t c1 = c0 + cs < s1 ? c0 + cs : s1;             \
                double ax = 0.0, ay = 0.0, az = 0.0;                        \
                for (int64_t si = c0; si < c1; si++) {                      \
                    const int64_t j = nidx[si];                             \
                    const T dx = xi - px[j];                                \
                    const T dy = yi - py[j];                                \
                    const T dz = zi - pz[j];                                \
                    T s2 = dx * dx;                                         \
                    T t = dy * dy;                                          \
                    s2 = s2 + t;                                            \
                    t = dz * dz;                                            \
                    s2 = s2 + t;                                            \
                    s2 = s2 * inv_sp2;                                      \
                    if (s2 > 0 && s2 < rc2) {                               \
                        const T x = s2 + eps;                               \
                        T f = SQRT(x);                                      \
                        f = f * x;                                          \
                        f = (T)1 / f;                                       \
                        T p = coeffs[ncoef - 1];                            \
                        for (int64_t c = ncoef - 2; c >= 0; c--) {          \
                            p = p * s2;                                     \
                            p = p + coeffs[c];                              \
                        }                                                   \
                        f = f - p;                                          \
                        f = f * msc[j];                                     \
                        const T wx = dx * f;                                \
                        const T wy = dy * f;                                \
                        const T wz = dz * f;                                \
                        ax += (double)wx;                                   \
                        ay += (double)wy;                                   \
                        az += (double)wz;                                   \
                        inside++;                                           \
                    }                                                       \
                }                                                           \
                gx = gx - (T)ax;                                            \
                gy = gy - (T)ay;                                            \
                gz = gz - (T)az;                                            \
            }                                                               \
            acc[3 * i] = acc[3 * i] + gx;                                   \
            acc[3 * i + 1] = acc[3 * i + 1] + gy;                           \
            acc[3 * i + 2] = acc[3 * i + 2] + gz;                           \
        }                                                                   \
    }                                                                       \
    return inside;                                                          \
}

PAIR_ACCUMULATE(pair_accumulate_f64, double, sqrt)
PAIR_ACCUMULATE(pair_accumulate_f32, float, sqrtf)
