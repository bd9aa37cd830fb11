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
 *
 * pair_lanes_* (x86-64 with AVX2, chosen at run time through
 * pair_avx2()) runs the same statements with one target per SIMD lane,
 * 4 in f64 and 8 in f32, each source broadcast to every lane, so each
 * target still sums its own sources in list order.  The cutoff test is
 * a lane mask: f and dx*f are ANDed with it, so a rejected lane adds +0
 * to its sum, which cannot change it (a multiply by the mask would turn
 * the inf of an eps = 0 self pair into NaN).  A source no lane accepts
 * is skipped, and the lanes past a group's last target are masked off
 * and never written.  No FMA: the lane functions target avx2, not fma.
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

#if defined(__x86_64__)
#include <immintrin.h>

#define AVX2 __attribute__((target("avx2")))

/* per-lane double accumulators: lo only for f64, lo and hi for f32 */
typedef struct { __m256d lo, hi; } dsum;

static inline AVX2 void dsum_add_pd(dsum *a, __m256d w)
{
    a->lo = _mm256_add_pd(a->lo, w);
}

static inline AVX2 __m256d dsum_cast_pd(dsum a) { return a.lo; }

static inline AVX2 void dsum_add_ps(dsum *a, __m256 w)
{
    a->lo = _mm256_add_pd(a->lo, _mm256_cvtps_pd(_mm256_castps256_ps128(w)));
    a->hi = _mm256_add_pd(a->hi, _mm256_cvtps_pd(_mm256_extractf128_ps(w, 1)));
}

static inline AVX2 __m256 dsum_cast_ps(dsum a)
{
    return _mm256_set_m128(_mm256_cvtpd_ps(a.hi), _mm256_cvtpd_ps(a.lo));
}

#define OP(op, S) _mm256_##op##_##S
#define PAIR_LANES(NAME, T, V, W, S)                                        \
AVX2 int64_t NAME(const int64_t *targets, const int64_t *toff,              \
                  const int64_t *nidx, const int64_t *noff,                 \
                  int64_t ngroups, const T *px, const T *py, const T *pz,   \
                  const T *msc, const T *coeffs, int64_t ncoef, T eps,      \
                  T rc2, T inv_sp2, int64_t chunk_pairs, T *acc)            \
{                                                                           \
    static const T lane[8] = {0, 1, 2, 3, 4, 5, 6, 7};                      \
    const V zero = OP(setzero, S)(), one = OP(set1, S)((T)1);               \
    const V veps = OP(set1, S)(eps), vrc2 = OP(set1, S)(rc2);               \
    const V vinv = OP(set1, S)(inv_sp2);                                    \
    int64_t inside = 0;                                                     \
    for (int64_t g = 0; g < ngroups; g++) {                                 \
        const int64_t t0 = toff[g], t1 = toff[g + 1];                       \
        const int64_t s0 = noff[g], s1 = noff[g + 1];                       \
        if (t1 <= t0 || s1 <= s0)                                           \
            continue;                                                       \
        const int64_t cs = s1 - s0 < chunk_pairs ? s1 - s0 : chunk_pairs;   \
        for (int64_t b = t0; b < t1; b += W) {                              \
            const int nl = t1 - b < W ? (int)(t1 - b) : W;                  \
            T tx[W], ty[W], tz[W];                                          \
            for (int l = 0; l < W; l++) {                                   \
                const int64_t i = targets[b + (l < nl ? l : 0)];            \
                tx[l] = px[i];                                              \
                ty[l] = py[i];                                              \
                tz[l] = pz[i];                                              \
            }                                                               \
            const V xi = OP(loadu, S)(tx), yi = OP(loadu, S)(ty);           \
            const V zi = OP(loadu, S)(tz);                                  \
            const V live = OP(cmp, S)(OP(loadu, S)(lane),                   \
                                      OP(set1, S)((T)nl), _CMP_LT_OQ);      \
            V gx = zero, gy = zero, gz = zero;                              \
            for (int64_t c0 = s0; c0 < s1; c0 += cs) {                      \
                const int64_t c1 = c0 + cs < s1 ? c0 + cs : s1;             \
                const __m256d dz0 = _mm256_setzero_pd();                    \
                dsum ax = {dz0, dz0}, ay = {dz0, dz0}, az = {dz0, dz0};     \
                for (int64_t si = c0; si < c1; si++) {                      \
                    const int64_t j = nidx[si];                             \
                    const V dx = OP(sub, S)(xi, OP(set1, S)(px[j]));        \
                    const V dy = OP(sub, S)(yi, OP(set1, S)(py[j]));        \
                    const V dz = OP(sub, S)(zi, OP(set1, S)(pz[j]));        \
                    V s2 = OP(mul, S)(dx, dx);                              \
                    V t = OP(mul, S)(dy, dy);                               \
                    s2 = OP(add, S)(s2, t);                                 \
                    t = OP(mul, S)(dz, dz);                                 \
                    s2 = OP(add, S)(s2, t);                                 \
                    s2 = OP(mul, S)(s2, vinv);                              \
                    const V m = OP(and, S)(live, OP(and, S)(                \
                        OP(cmp, S)(s2, zero, _CMP_GT_OQ),                   \
                        OP(cmp, S)(s2, vrc2, _CMP_LT_OQ)));                 \
                    const int bits = OP(movemask, S)(m);                    \
                    if (!bits)                                              \
                        continue;                                           \
                    inside += __builtin_popcount(bits);                     \
                    const V x = OP(add, S)(s2, veps);                       \
                    V f = OP(sqrt, S)(x);                                   \
                    f = OP(mul, S)(f, x);                                   \
                    f = OP(div, S)(one, f);                                 \
                    V p = OP(set1, S)(coeffs[ncoef - 1]);                   \
                    for (int64_t c = ncoef - 2; c >= 0; c--) {              \
                        p = OP(mul, S)(p, s2);                              \
                        p = OP(add, S)(p, OP(set1, S)(coeffs[c]));          \
                    }                                                       \
                    f = OP(sub, S)(f, p);                                   \
                    f = OP(mul, S)(f, OP(set1, S)(msc[j]));                 \
                    f = OP(and, S)(f, m);                                   \
                    dsum_add_##S(&ax, OP(and, S)(OP(mul, S)(dx, f), m));    \
                    dsum_add_##S(&ay, OP(and, S)(OP(mul, S)(dy, f), m));    \
                    dsum_add_##S(&az, OP(and, S)(OP(mul, S)(dz, f), m));    \
                }                                                           \
                gx = OP(sub, S)(gx, dsum_cast_##S(ax));                     \
                gy = OP(sub, S)(gy, dsum_cast_##S(ay));                     \
                gz = OP(sub, S)(gz, dsum_cast_##S(az));                     \
            }                                                               \
            OP(storeu, S)(tx, gx);                                          \
            OP(storeu, S)(ty, gy);                                          \
            OP(storeu, S)(tz, gz);                                          \
            for (int l = 0; l < nl; l++) {                                  \
                const int64_t i = targets[b + l];                           \
                acc[3 * i] = acc[3 * i] + tx[l];                            \
                acc[3 * i + 1] = acc[3 * i + 1] + ty[l];                    \
                acc[3 * i + 2] = acc[3 * i + 2] + tz[l];                    \
            }                                                               \
        }                                                                   \
    }                                                                       \
    return inside;                                                          \
}

PAIR_LANES(pair_lanes_f64, double, __m256d, 4, pd)
PAIR_LANES(pair_lanes_f32, float, __m256, 8, ps)

int64_t pair_avx2(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
}
#else
int64_t pair_avx2(void) { return 0; }
#endif
