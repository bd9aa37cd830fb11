/* Fused short-range pair kernel (Sec. III / Fig. 5 of the source paper):
 * separation -> cutoff select -> (s+eps)^{-3/2} - poly(s) -> accumulate,
 * one pass, no intermediate arrays.
 *
 * Lists are row ranges, never index lists: a group is a range of rows of
 * which the `real` ones are its targets, and its sources are the rows of
 * its ranges (a tree leaf's hit leaves, a P3M cell's neighbour cells)
 * whose bit in the keep mask of the cull below is set.  Each group packs
 * those rows, in list order, into its scratch: the same sources in the
 * same order as an index list of them, so every sum is unchanged.
 *
 * Bitwise contract: the result equals NumpyBackend.pair_accumulate in
 * float64 AND float32.  Every product, sum and Horner step below is a
 * separate statement rounded in T (build with -ffp-contract=off), and
 * the accumulation reproduces numpy's order: per target, the in-cutoff
 * dx*f terms of the group's whole list are summed in list order in one
 * double (np.bincount's partial), cast to T, subtracted from a +0 group
 * sum, and the group sum is added to acc once (acc[tidx] += gacc).
 *
 * The lane bodies (x86-64, chosen at run time through pair_simd()) run
 * the same statements with one target per SIMD lane, each source
 * broadcast to every lane, so each target still sums its own sources in
 * list order: AVX-512 runs 8 targets per batch in f64 and in f32 (two
 * sources per zmm there: low half source j, high half j + 1, added in
 * that order), AVX2 4 in f64 and 8 in f32.  The cutoff test is a lane
 * mask and every product past it is a masked-zero multiply, so a
 * rejected lane adds +0 to its sum, which cannot change it (a partial
 * starts at +0 and a sum of doubles is -0 only when both terms are; a
 * multiply by the mask would turn the inf of an eps = 0 self pair into
 * NaN).  A source no lane accepts is skipped, and the lanes past a
 * group's last target are masked off and never written.  No FMA: the
 * lane functions target avx2 or avx512f/dq/vl, not fma.
 *
 * Which batch a target rides in cannot change a bit of its result: its
 * sum reads only its own coordinates, the sources and their list order,
 * and the targets of a group are distinct rows of acc.  So the lane
 * bodies first order each group's targets by recursive bisection (a
 * quickselect on the longest side of their box splits them into halves
 * of whole W-target batches) to make every batch spatially compact.
 *
 * Each batch then culls its group's sources against the box of its W
 * targets, in the kernel's own operation order and precision:
 *   e = max(lo - xj, xj - hi, 0) per axis,
 *   ((ex*ex + ey*ey) + ez*ez) * inv_sp2,
 * keeping, in list order, the sources with a value < rc2.  Rounding is
 * monotone: for a target xi in [lo, hi], lo - xj <= xi - xj gives
 * fl(lo - xj) <= fl(xi - xj) (and the mirror case above hi), so every
 * e is <= that lane's |dx|, every square, sum and the product by
 * inv_sp2 > 0 keeps the order, and the box value is <= every lane's s2.
 * A culled source therefore has no lane inside: dropping it drops only
 * +0 terms and no inside count.  A NaN anywhere makes e = 0 (kept).
 * The scalar loop neither sorts nor culls.
 *
 * Scratch is the caller's: no static buffers, so concurrent calls on
 * separate scratch are safe.  For the most candidates ns and rows nt of
 * any group, `scratch` holds pair_scratch(ns, nt) values of T and
 * `order` 2 nt int64.
 */
#include <math.h>
#include <stdint.h>

/* slack after each packed or culled source array: vector loads and
 * full-width stores may run up to one zmm of T past the live entries */
#define PAD 16

/* packed sources and culled sources (4 rows of ns + PAD each), local
 * target coordinates (3 nt) */
int64_t pair_scratch(int64_t ns, int64_t nt)
{
    return 8 * (ns + PAD) + 3 * nt;
}

/* The list cull: group g's real targets are rows ts[g] .. ts[g] + tc[g]
 * - 1 whose real[row] is set; its candidates are the rows of its ranges
 * roff[g] .. roff[g + 1] - 1, in order, range r being rows start[r] ..
 * start[r] + count[r] - 1.  Candidate c of the batch (groups, ranges,
 * rows, in order) is bit c % 64 of keep[c / 64] (zeroed by the caller);
 * it is set when the float32 squared distance from the candidate to the
 * float32 box of its group's real targets, the clamp of the candidate
 * into the box minus the candidate summed (dx*dx + dy*dy) + dz*dz, is
 * <= r2.  ntg / nkept count each group's real targets and set bits.
 * Bitwise NumpyBackend.cull: x, y, z are the rows' coordinates cast to
 * float, and each step is rounded in float.  cull_block gives the bits
 * of n candidates from row j. */
static inline float gap(float v, float lo, float hi)
{
    const float c = v < lo ? lo : v; /* maxss, then minss: no branch */
    return (c > hi ? hi : c) - v;
}
static inline uint64_t cull_block(const float *const *p, int64_t j,
                                  int64_t n, const float *lo,
                                  const float *hi, float r2)
{
    const float *x = p[0] + j, *y = p[1] + j, *z = p[2] + j;
    uint64_t m = 0;
    for (int64_t i = 0; i < n; i++) {
        const float ex = gap(x[i], lo[0], hi[0]);
        const float ey = gap(y[i], lo[1], hi[1]);
        const float ez = gap(z[i], lo[2], hi[2]);
        const float s = ex * ex + ey * ey;
        m |= (uint64_t)(s + ez * ez <= r2) << i;
    }
    return m;
}

void cull(const int64_t *ts, const int64_t *tc, const unsigned char *real,
          const int64_t *start, const int64_t *count, const int64_t *roff,
          int64_t ngroups, const float *x, const float *y, const float *z,
          float r2, uint64_t *keep, int64_t *ntg, int64_t *nkept)
{
    const float *const p[3] = {x, y, z};
    for (int64_t g = 0, b = 0; g < ngroups; g++) {
        float lo[3], hi[3];
        int64_t nt = 0, nk = 0;
        for (int64_t i = ts[g]; i < ts[g] + tc[g]; nt += real[i++])
            for (int k = 0; real[i] && k < 3; k++) {
                lo[k] = nt == 0 || p[k][i] < lo[k] ? p[k][i] : lo[k];
                hi[k] = nt == 0 || p[k][i] > hi[k] ? p[k][i] : hi[k];
            }
        for (int64_t r = roff[g]; r < roff[g + 1]; b += count[r++])
            for (int64_t j = 0; nt && j < count[r]; j += 64) {
                const int64_t n = count[r] - j < 64 ? count[r] - j : 64;
                const int64_t c = b + j, s = c & 63;
                const uint64_t m = cull_block(p, start[r] + j, n, lo, hi, r2);
                keep[c >> 6] |= m << s;
                if (s + n > 64)
                    keep[(c >> 6) + 1] |= m >> (64 - s);
                nk += __builtin_popcountll(m);
            }
        ntg[g] = nt;
        nkept[g] = nk;
    }
}

/* Group g's list, from bit *b of keep on (*b moves past its
 * candidates): its real target rows to rows[] (returns how many) and,
 * when it has one, its kept sources, in list order, to the x, y, z, m
 * rows of src, *ns of them, stride *ld (its candidates + PAD). */
#define PAIR_PACK(S, T)                                                     \
static int64_t pack_##S(const int64_t *ts, const int64_t *tc,               \
                        const unsigned char *real, const int64_t *start,    \
                        const int64_t *count, const int64_t *roff,          \
                        const uint64_t *keep, int64_t g, int64_t *b,        \
                        const T *px, const T *py, const T *pz,              \
                        const T *msc, int64_t *rows, T *src, int64_t *ns,   \
                        int64_t *ld)                                        \
{                                                                           \
    int64_t nt = 0, k = 0, c = *b, n = PAD;                                 \
    for (int64_t i = ts[g]; i < ts[g] + tc[g]; i++)                         \
        if (real[i])                                                        \
            rows[nt++] = i;                                                 \
    /* count, then pack at stride n = count + PAD: the rows stay close */   \
    for (int pass = 0; pass < 2; pass++) {                                  \
        if (pass) {                                                         \
            n += k;                                                         \
            k = 0;                                                          \
            c = *b;                                                         \
        }                                                                   \
        for (int64_t r = roff[g]; r < roff[g + 1]; r++) {                   \
            const int64_t e = c + count[r], d = start[r] - c;               \
            for (; nt && c < e; c += 64 - (c & 63)) {                       \
                uint64_t w = keep[c >> 6] >> (c & 63);                      \
                if (e - c < 64)                                             \
                    w &= ((uint64_t)1 << (e - c)) - 1;                      \
                for (; pass && w; w &= w - 1, k++) {                        \
                    const int64_t j = c + __builtin_ctzll(w) + d;           \
                    src[k] = px[j];                                         \
                    src[n + k] = py[j];                                     \
                    src[2 * n + k] = pz[j];                                 \
                    src[3 * n + k] = msc[j];                                \
                }                                                           \
                k += __builtin_popcountll(w);                               \
            }                                                               \
            c = e;                                                          \
        }                                                                   \
    }                                                                       \
    *b = c;                                                                 \
    *ns = k;                                                                \
    *ld = n;                                                                \
    return nt;                                                              \
}

PAIR_PACK(pd, double)
PAIR_PACK(ps, float)

/* the arguments of every pair entry point */
#define PAIR_ARGS(T)                                                        \
    const int64_t *ts, const int64_t *tc, const unsigned char *real,        \
    const int64_t *start, const int64_t *count, const int64_t *roff,        \
    const uint64_t *keep, int64_t ngroups, const T *px, const T *py,        \
    const T *pz, const T *msc, const T *coeffs, int64_t ncoef, T eps,       \
    T rc2, T inv_sp2, T *acc, T *scratch, int64_t *order

#define PAIR_ACCUMULATE(NAME, T, SQRT, S)                                   \
int64_t NAME(PAIR_ARGS(T))                                                  \
{                                                                           \
    int64_t inside = 0, b = 0;                                              \
    for (int64_t g = 0; g < ngroups; g++) {                                 \
        int64_t ns, ld;                                                     \
        const int64_t nt = pack_##S(ts, tc, real, start, count, roff, keep, \
                                    g, &b, px, py, pz, msc, order, scratch, \
                                    &ns, &ld);                              \
        const T *const sx = scratch, *const sy = sx + ld;                   \
        const T *const sz = sy + ld, *const sm = sz + ld;                   \
        for (int64_t l = 0; ns && l < nt; l++) {                            \
            const int64_t i = order[l];                                     \
            const T xi = px[i], yi = py[i], zi = pz[i];                     \
            double ax = 0.0, ay = 0.0, az = 0.0;                            \
            for (int64_t j = 0; j < ns; j++) {                              \
                const T dx = xi - sx[j];                                    \
                const T dy = yi - sy[j];                                    \
                const T dz = zi - sz[j];                                    \
                T s2 = dx * dx;                                             \
                T t = dy * dy;                                              \
                s2 = s2 + t;                                                \
                t = dz * dz;                                                \
                s2 = s2 + t;                                                \
                s2 = s2 * inv_sp2;                                          \
                if (s2 > 0 && s2 < rc2) {                                   \
                    const T x = s2 + eps;                                   \
                    T f = SQRT(x);                                          \
                    f = f * x;                                              \
                    f = (T)1 / f;                                           \
                    T p = coeffs[ncoef - 1];                                \
                    for (int64_t c = ncoef - 2; c >= 0; c--) {              \
                        p = p * s2;                                         \
                        p = p + coeffs[c];                                  \
                    }                                                       \
                    f = f - p;                                              \
                    f = f * sm[j];                                          \
                    const T wx = dx * f;                                    \
                    const T wy = dy * f;                                    \
                    const T wz = dz * f;                                    \
                    ax += (double)wx;                                       \
                    ay += (double)wy;                                       \
                    az += (double)wz;                                       \
                    inside++;                                               \
                }                                                           \
            }                                                               \
            acc[3 * i] = acc[3 * i] + ((T)0 - (T)ax);                       \
            acc[3 * i + 1] = acc[3 * i + 1] + ((T)0 - (T)ay);               \
            acc[3 * i + 2] = acc[3 * i + 2] + ((T)0 - (T)az);               \
        }                                                                   \
    }                                                                       \
    return inside;                                                          \
}

PAIR_ACCUMULATE(pair_accumulate_f64, double, sqrt, pd)
PAIR_ACCUMULATE(pair_accumulate_f32, float, sqrtf, ps)

#if defined(__x86_64__)
#include <immintrin.h>

/* Target bisection: ord[0..n) (local target numbers) is reordered so
 * that each run of w is a spatially compact batch.  select_* is a
 * quickselect (Hoare partitions): key[a[i]] <= key[a[k]] <= key[a[j]] for
 * every i < k < j, in time linear in n; a NaN stops both scans, so every
 * scan stays inside [lo, hi]. */
#define PAIR_BISECT(S, T)                                                   \
static void select_##S(int64_t *a, int64_t n, int64_t k, const T *key)      \
{                                                                           \
    for (int64_t lo = 0, hi = n - 1; lo < hi;) {                            \
        const T p = key[a[k]];                                              \
        int64_t i = lo, j = hi;                                             \
        while (i <= j) {                                                    \
            while (key[a[i]] < p)                                           \
                i++;                                                        \
            while (p < key[a[j]])                                           \
                j--;                                                        \
            if (i <= j) {                                                   \
                const int64_t t = a[i];                                     \
                a[i++] = a[j];                                              \
                a[j--] = t;                                                 \
            }                                                               \
        }                                                                   \
        lo = j < k ? i : lo;                                                \
        hi = k < i ? j : hi;                                                \
    }                                                                       \
}                                                                           \
                                                                            \
static void bisect_##S(int64_t *ord, int64_t n, const T *x, const T *y,     \
                       const T *z, int64_t w)                               \
{                                                                           \
    const T *axis[3] = {x, y, z};                                           \
    while (n > w) {                                                         \
        T lo[3] = {x[ord[0]], y[ord[0]], z[ord[0]]};                        \
        T hi[3] = {lo[0], lo[1], lo[2]};                                    \
        for (int64_t i = 1; i < n; i++) /* one pass: the three spans */     \
            for (int d = 0; d < 3; d++) {                                   \
                const T v = axis[d][ord[i]];                                \
                lo[d] = v < lo[d] ? v : lo[d];                              \
                hi[d] = v > hi[d] ? v : hi[d];                              \
            }                                                               \
        int best = 0;                                                       \
        for (int d = 1; d < 3; d++)                                         \
            best = hi[d] - lo[d] > hi[best] - lo[best] ? d : best;          \
        /* the first ceil(batches / 2) whole batches, then the rest */      \
        const int64_t h = (n + 2 * w - 1) / (2 * w) * w;                    \
        select_##S(ord, n, h, axis[best]);                                  \
        bisect_##S(ord, h, x, y, z, w);                                     \
        ord += h;                                                           \
        n -= h;                                                             \
    }                                                                       \
}

PAIR_BISECT(pd, double)
PAIR_BISECT(ps, float)

#define AVX2 __attribute__((target("avx2")))
#define AVX512 __attribute__((target("avx512f,avx512dq,avx512vl")))

/* Per-ISA lane helpers, one set per tag K, each an inline function the
 * one PAIR_LANES body calls as K##_op:
 *   V src(p)        the source(s) at p broadcast to their lanes
 *   V tgt(t)        the batch's W target coordinates t[0..W) in lanes
 *   M live(nl)      lanes holding one of the first nl targets
 *   M lt/gt(a, b)   lane compare;  M and(a, b);  bits(m) as an int
 *   V mzmul(m,a,b)  a * b in the lanes of m, +0 elsewhere
 *   dsum, dzero(), dadd(&d, w)   per-target double partials, += w
 *   G gsub(g, d)    g - (T)d per target;  G gzero();  gstore(t, g)
 *   cull(...)       the box cull: compacts a group's sources in order
 * a2d/a2s: AVX2 f64 x4 and f32 x8; z8d: AVX-512 f64 x8; z8s: AVX-512
 * f32, 8 targets x 2 sources per zmm. */

/* ---- AVX2 -------------------------------------------------------- */
typedef struct { __m256d lo, hi; } a2sum;

static inline AVX2 __m256d a2d_src(const double *p)
{
    return _mm256_set1_pd(*p);
}
static inline AVX2 __m256d a2d_tgt(const double *t)
{
    return _mm256_loadu_pd(t);
}
static inline AVX2 __m256d a2d_live(int nl)
{
    return _mm256_cmp_pd(_mm256_set_pd(3, 2, 1, 0), _mm256_set1_pd(nl),
                         _CMP_LT_OQ);
}
static inline AVX2 __m256d a2d_lt(__m256d a, __m256d b)
{
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}
static inline AVX2 __m256d a2d_gt(__m256d a, __m256d b)
{
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
}
static inline AVX2 __m256d a2d_and(__m256d a, __m256d b)
{
    return _mm256_and_pd(a, b);
}
static inline AVX2 int a2d_bits(__m256d m) { return _mm256_movemask_pd(m); }
static inline AVX2 __m256d a2d_mzmul(__m256d m, __m256d a, __m256d b)
{
    return _mm256_and_pd(_mm256_mul_pd(a, b), m);
}
static inline AVX2 a2sum a2d_dzero(void)
{
    return (a2sum){_mm256_setzero_pd(), _mm256_setzero_pd()};
}
static inline AVX2 void a2d_dadd(a2sum *d, __m256d w)
{
    d->lo = _mm256_add_pd(d->lo, w);
}
static inline AVX2 __m256d a2d_gzero(void) { return _mm256_setzero_pd(); }
static inline AVX2 __m256d a2d_gsub(__m256d g, a2sum d)
{
    return _mm256_sub_pd(g, d.lo);
}
static inline AVX2 void a2d_gstore(double *t, __m256d g)
{
    _mm256_storeu_pd(t, g);
}

static inline AVX2 __m256 a2s_src(const float *p)
{
    return _mm256_set1_ps(*p);
}
static inline AVX2 __m256 a2s_tgt(const float *t)
{
    return _mm256_loadu_ps(t);
}
static inline AVX2 __m256 a2s_live(int nl)
{
    return _mm256_cmp_ps(_mm256_set_ps(7, 6, 5, 4, 3, 2, 1, 0),
                         _mm256_set1_ps((float)nl), _CMP_LT_OQ);
}
static inline AVX2 __m256 a2s_lt(__m256 a, __m256 b)
{
    return _mm256_cmp_ps(a, b, _CMP_LT_OQ);
}
static inline AVX2 __m256 a2s_gt(__m256 a, __m256 b)
{
    return _mm256_cmp_ps(a, b, _CMP_GT_OQ);
}
static inline AVX2 __m256 a2s_and(__m256 a, __m256 b)
{
    return _mm256_and_ps(a, b);
}
static inline AVX2 int a2s_bits(__m256 m) { return _mm256_movemask_ps(m); }
static inline AVX2 __m256 a2s_mzmul(__m256 m, __m256 a, __m256 b)
{
    return _mm256_and_ps(_mm256_mul_ps(a, b), m);
}
static inline AVX2 a2sum a2s_dzero(void) { return a2d_dzero(); }
static inline AVX2 void a2s_dadd(a2sum *d, __m256 w)
{
    d->lo = _mm256_add_pd(d->lo, _mm256_cvtps_pd(_mm256_castps256_ps128(w)));
    d->hi = _mm256_add_pd(d->hi, _mm256_cvtps_pd(_mm256_extractf128_ps(w, 1)));
}
static inline AVX2 __m256 a2s_gzero(void) { return _mm256_setzero_ps(); }
static inline AVX2 __m256 a2s_gsub(__m256 g, a2sum d)
{
    return _mm256_sub_ps(g, _mm256_set_m128(_mm256_cvtpd_ps(d.hi),
                                            _mm256_cvtpd_ps(d.lo)));
}
static inline AVX2 void a2s_gstore(float *t, __m256 g)
{
    _mm256_storeu_ps(t, g);
}

/* ---- AVX-512 ----------------------------------------------------- */

static inline AVX512 __m512d z8d_src(const double *p)
{
    return _mm512_set1_pd(*p);
}
static inline AVX512 __m512d z8d_tgt(const double *t)
{
    return _mm512_loadu_pd(t);
}
static inline AVX512 __mmask8 z8d_live(int nl)
{
    return (__mmask8)((1u << nl) - 1);
}
static inline AVX512 __mmask8 z8d_lt(__m512d a, __m512d b)
{
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
}
static inline AVX512 __mmask8 z8d_gt(__m512d a, __m512d b)
{
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
}
static inline AVX512 __mmask8 z8d_and(__mmask8 a, __mmask8 b)
{
    return a & b;
}
static inline AVX512 int z8d_bits(__mmask8 m) { return m; }
static inline AVX512 __m512d z8d_mzmul(__mmask8 m, __m512d a, __m512d b)
{
    return _mm512_maskz_mul_pd(m, a, b);
}
static inline AVX512 __m512d z8d_dzero(void) { return _mm512_setzero_pd(); }
static inline AVX512 void z8d_dadd(__m512d *d, __m512d w)
{
    *d = _mm512_add_pd(*d, w);
}
static inline AVX512 __m512d z8d_gzero(void) { return _mm512_setzero_pd(); }
static inline AVX512 __m512d z8d_gsub(__m512d g, __m512d d)
{
    return _mm512_sub_pd(g, d);
}
static inline AVX512 void z8d_gstore(double *t, __m512d g)
{
    _mm512_storeu_pd(t, g);
}

/* f32: lanes 0-7 pair the 8 targets with source j, lanes 8-15 with
 * source j + 1; the low half's terms are added before the high half's */
static inline AVX512 __m512 z8s_src(const float *p)
{
    return _mm512_insertf32x8(_mm512_set1_ps(p[0]), _mm256_set1_ps(p[1]), 1);
}
static inline AVX512 __m512 z8s_tgt(const float *t)
{
    const __m256 v = _mm256_loadu_ps(t);
    return _mm512_insertf32x8(_mm512_castps256_ps512(v), v, 1);
}
static inline AVX512 __mmask16 z8s_live(int nl)
{
    const unsigned half = (1u << nl) - 1;
    return (__mmask16)(half | half << 8);
}
static inline AVX512 __mmask16 z8s_lt(__m512 a, __m512 b)
{
    return _mm512_cmp_ps_mask(a, b, _CMP_LT_OQ);
}
static inline AVX512 __mmask16 z8s_gt(__m512 a, __m512 b)
{
    return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ);
}
static inline AVX512 __mmask16 z8s_and(__mmask16 a, __mmask16 b)
{
    return a & b;
}
static inline AVX512 int z8s_bits(__mmask16 m) { return m; }
static inline AVX512 __m512 z8s_mzmul(__mmask16 m, __m512 a, __m512 b)
{
    return _mm512_maskz_mul_ps(m, a, b);
}
static inline AVX512 __m512d z8s_dzero(void) { return _mm512_setzero_pd(); }
static inline AVX512 void z8s_dadd(__m512d *d, __m512 w)
{
    const __m256 lo = _mm512_castps512_ps256(w);
    const __m256 hi = _mm512_extractf32x8_ps(w, 1);
    *d = _mm512_add_pd(*d, _mm512_cvtps_pd(lo));
    *d = _mm512_add_pd(*d, _mm512_cvtps_pd(hi));
}
static inline AVX512 __m256 z8s_gzero(void) { return _mm256_setzero_ps(); }
static inline AVX512 __m256 z8s_gsub(__m256 g, __m512d d)
{
    return _mm256_sub_ps(g, _mm512_cvtpd_ps(d));
}
static inline AVX512 void z8s_gstore(float *t, __m256 g)
{
    _mm256_storeu_ps(t, g);
}

/* The box cull of a group's list: sources q[0..n) (x, y, z, m at q,
 * q + ld, ...) whose box value is < rc2 are stored, in order, to c (same
 * stride); *out is the array the lanes then read, and it returns how
 * many.  L lanes at a time: K##_keep gives the kept lanes
 * among the first `tail` as bits, K##_compress stores them; the last
 * vector reads past n into the slack. */
#define PAIR_CULL(K, ATTR, T, V, L, P, S)                                   \
static inline ATTR int64_t K##_cull(const T *q, int64_t ld, int64_t n,      \
                                    const T *lo, const T *hi, T inv,        \
                                    T rc2, T *c, const T **out)             \
{                                                                           \
    const V vlx = P##set1_##S(lo[0]), vly = P##set1_##S(lo[1]);             \
    const V vlz = P##set1_##S(lo[2]), vhx = P##set1_##S(hi[0]);             \
    const V vhy = P##set1_##S(hi[1]), vhz = P##set1_##S(hi[2]);             \
    const V zero = P##setzero_##S(), vinv = P##set1_##S(inv);               \
    const V vrc2 = P##set1_##S(rc2);                                        \
    int64_t k = 0;                                                          \
    for (int64_t i = 0; i < n; i += L) {                                    \
        const V x = P##loadu_##S(q + i), y = P##loadu_##S(q + ld + i);      \
        const V z = P##loadu_##S(q + 2 * ld + i);                           \
        /* max returns its second operand on a NaN (lo and hi are NaN       \
         * together), so a NaN anywhere ends in e = 0: kept */              \
        V ex = P##max_##S(P##sub_##S(vlx, x), P##sub_##S(x, vhx));          \
        V ey = P##max_##S(P##sub_##S(vly, y), P##sub_##S(y, vhy));          \
        V ez = P##max_##S(P##sub_##S(vlz, z), P##sub_##S(z, vhz));          \
        ex = P##max_##S(ex, zero);                                          \
        ey = P##max_##S(ey, zero);                                          \
        ez = P##max_##S(ez, zero);                                          \
        V d = P##mul_##S(ex, ex);                                           \
        V t = P##mul_##S(ey, ey);                                           \
        d = P##add_##S(d, t);                                               \
        t = P##mul_##S(ez, ez);                                             \
        d = P##add_##S(d, t);                                               \
        d = P##mul_##S(d, vinv);                                            \
        const int tail = n - i < L ? (int)(n - i) : L;                      \
        const unsigned keep = K##_keep(d, vrc2, tail);                      \
        K##_compress(q + i, ld, keep, c + k);                               \
        k += __builtin_popcount(keep);                                      \
    }                                                                       \
    *out = c;                                                               \
    return k;                                                               \
}

/* compress in register, store the whole vector: the slack after each
 * culled array takes the lanes past the kept ones */
static inline AVX512 unsigned z8d_keep(__m512d d, __m512d rc2, int tail)
{
    return _mm512_mask_cmp_pd_mask((__mmask8)((1u << tail) - 1), d, rc2,
                                   _CMP_LT_OQ);
}
static inline AVX512 void z8d_compress(const double *q, int64_t ld,
                                       unsigned keep, double *c)
{
    for (int a = 0; a < 4; a++)
        _mm512_storeu_pd(c + a * ld, _mm512_maskz_compress_pd(
            (__mmask8)keep, _mm512_loadu_pd(q + a * ld)));
}
static inline AVX512 unsigned z8s_keep(__m512 d, __m512 rc2, int tail)
{
    return _mm512_mask_cmp_ps_mask((__mmask16)((1u << tail) - 1), d, rc2,
                                   _CMP_LT_OQ);
}
static inline AVX512 void z8s_compress(const float *q, int64_t ld,
                                       unsigned keep, float *c)
{
    for (int a = 0; a < 4; a++)
        _mm512_storeu_ps(c + a * ld, _mm512_maskz_compress_ps(
            (__mmask16)keep, _mm512_loadu_ps(q + a * ld)));
}

/* AVX2 culls nothing: its lanes run over the packed list (a bit-by-bit
 * compaction, lacking compress, cost more than the cull saved) */
#define PAIR_NO_CULL(K, T)                                                  \
static inline int64_t K##_cull(const T *q, int64_t ld, int64_t n,           \
                               const T *lo, const T *hi, T inv, T rc2,      \
                               T *c, const T **out)                         \
{                                                                           \
    (void)ld, (void)lo, (void)hi, (void)inv, (void)rc2, (void)c;            \
    *out = q;                                                               \
    return n;                                                               \
}
PAIR_NO_CULL(a2d, double)
PAIR_NO_CULL(a2s, float)
PAIR_CULL(z8d, AVX512, double, __m512d, 8, _mm512_, pd)
PAIR_CULL(z8s, AVX512, float, __m512, 16, _mm512_, ps)

/* One lane body for every ISA: K the helper tag, V/M the lane and mask
 * vector types, W targets per batch, NS sources per
 * vector (1, or 2 for z8s), P/S the intrinsic prefix and suffix, SORT
 * the bisection's precision tag. */
#define PAIR_LANES(NAME, ATTR, K, T, V, M, W, NS, P, S, SORT)               \
ATTR int64_t NAME(PAIR_ARGS(T))                                             \
{                                                                           \
    const V zero = P##setzero_##S(), one = P##set1_##S((T)1);               \
    const V veps = P##set1_##S(eps), vrc2 = P##set1_##S(rc2);               \
    const V vinv = P##set1_##S(inv_sp2);                                    \
    /* the box argument needs inv_sp2 > 0: otherwise cull nothing */        \
    const T crc2 = inv_sp2 > 0 ? rc2 : (T)INFINITY;                         \
    int64_t inside = 0, bit = 0;                                            \
    for (int64_t g = 0; g < ngroups; g++) {                                 \
        /* packed sources (x, y, z, m rows of ld), local targets, culled */ \
        int64_t ns, ld, *const rows = order;                                \
        T *const src = scratch;                                             \
        const int64_t nt = pack_##SORT(ts, tc, real, start, count, roff,    \
                                       keep, g, &bit, px, py, pz, msc,      \
                                       rows, src, &ns, &ld);                \
        if (!nt || !ns)                                                     \
            continue;                                                       \
        int64_t *const ord = rows + nt;                                     \
        T *const lx = src + 4 * ld, *const ly = lx + nt, *const lz = ly + nt;\
        T *const cul = lz + nt;                                             \
        for (int64_t l = 0; l < nt; l++) {                                  \
            lx[l] = px[rows[l]];                                            \
            ly[l] = py[rows[l]];                                            \
            lz[l] = pz[rows[l]];                                            \
            ord[l] = l;                                                     \
        }                                                                   \
        bisect_##SORT(ord, nt, lx, ly, lz, W);                    \
        for (int64_t b = 0; b < nt; b += W) {                               \
            const int nl = nt - b < W ? (int)(nt - b) : W;                  \
            T tx[W], ty[W], tz[W], lo[3], hi[3];                            \
            for (int l = 0; l < W; l++) {                                   \
                const int64_t o = ord[b + (l < nl ? l : 0)];                \
                tx[l] = lx[o];                                              \
                ty[l] = ly[o];                                              \
                tz[l] = lz[o];                                              \
            }                                                               \
            for (int a = 0; a < 3; a++) {                                   \
                const T *t = a == 0 ? tx : a == 1 ? ty : tz;                \
                lo[a] = hi[a] = t[0];                                       \
                for (int l = 1; l < nl; l++) {                              \
                    lo[a] = t[l] < lo[a] ? t[l] : lo[a];                    \
                    hi[a] = t[l] > hi[a] ? t[l] : hi[a];                    \
                }                                                           \
            }                                                               \
            const V xi = K##_tgt(tx), yi = K##_tgt(ty), zi = K##_tgt(tz);   \
            const M live = K##_live(nl);                                    \
            const T *q;                                                     \
            const int64_t k = K##_cull(src, ld, ns, lo, hi, inv_sp2, crc2,  \
                                       cul, &q);                            \
            if (NS == 2) /* an odd last source pairs with a far one */      \
                cul[k] = (T)INFINITY;                                       \
            K##_dsum ax = K##_dzero(), ay = ax, az = ax;                    \
            for (int64_t si = 0; si < k; si += NS) {                        \
                const V dx = P##sub_##S(xi, K##_src(q + si));               \
                const V dy = P##sub_##S(yi, K##_src(q + ld + si));          \
                const V dz = P##sub_##S(zi, K##_src(q + 2 * ld + si));      \
                V s2 = P##mul_##S(dx, dx);                                  \
                V t = P##mul_##S(dy, dy);                                   \
                s2 = P##add_##S(s2, t);                                     \
                t = P##mul_##S(dz, dz);                                     \
                s2 = P##add_##S(s2, t);                                     \
                s2 = P##mul_##S(s2, vinv);                                  \
                const M m = K##_and(live, K##_and(K##_gt(s2, zero),         \
                                                  K##_lt(s2, vrc2)));       \
                const int bits = K##_bits(m);                               \
                if (!bits)                                                  \
                    continue;                                               \
                inside += __builtin_popcount((unsigned)bits);               \
                const V x = P##add_##S(s2, veps);                           \
                V f = P##sqrt_##S(x);                                       \
                f = P##mul_##S(f, x);                                       \
                f = P##div_##S(one, f);                                     \
                V p = P##set1_##S(coeffs[ncoef - 1]);                       \
                for (int64_t c = ncoef - 2; c >= 0; c--) {                  \
                    p = P##mul_##S(p, s2);                                  \
                    p = P##add_##S(p, P##set1_##S(coeffs[c]));              \
                }                                                           \
                f = P##sub_##S(f, p);                                       \
                f = K##_mzmul(m, f, K##_src(q + 3 * ld + si));              \
                K##_dadd(&ax, K##_mzmul(m, dx, f));                         \
                K##_dadd(&ay, K##_mzmul(m, dy, f));                         \
                K##_dadd(&az, K##_mzmul(m, dz, f));                         \
            }                                                               \
            K##_gstore(tx, K##_gsub(K##_gzero(), ax));                      \
            K##_gstore(ty, K##_gsub(K##_gzero(), ay));                      \
            K##_gstore(tz, K##_gsub(K##_gzero(), az));                      \
            for (int l = 0; l < nl; l++) {                                  \
                const int64_t i = rows[ord[b + l]];                         \
                acc[3 * i] = acc[3 * i] + tx[l];                            \
                acc[3 * i + 1] = acc[3 * i + 1] + ty[l];                    \
                acc[3 * i + 2] = acc[3 * i + 2] + tz[l];                    \
            }                                                               \
        }                                                                   \
    }                                                                       \
    return inside;                                                          \
}

typedef a2sum a2d_dsum, a2s_dsum;
typedef __m512d z8d_dsum, z8s_dsum;

PAIR_LANES(pair_avx2_f64, AVX2, a2d, double, __m256d, __m256d, 4, 1, _mm256_,
           pd, pd)
PAIR_LANES(pair_avx2_f32, AVX2, a2s, float, __m256, __m256, 8, 1, _mm256_, ps,
           ps)
PAIR_LANES(pair_avx512_f64, AVX512, z8d, double, __m512d, __mmask8, 8, 1,
           _mm512_, pd, pd)
PAIR_LANES(pair_avx512_f32, AVX512, z8s, float, __m512, __mmask16, 8, 2,
           _mm512_, ps, ps)

/* the widest pair path this CPU runs: 2 AVX-512, 1 AVX2, 0 scalar */
int64_t pair_simd(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")
        && __builtin_cpu_supports("avx512vl"))
        return 2;
    return __builtin_cpu_supports("avx2") != 0;
}
#else
int64_t pair_simd(void) { return 0; }
#endif
