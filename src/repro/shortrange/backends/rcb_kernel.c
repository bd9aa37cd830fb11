/* RCB tree build (Sec. III of the source paper): recursive bisection at
 * the centre of mass perpendicular to the longest side, with the
 * three-phase structure-of-arrays partition -- phase 1 records the
 * permutation from the split coordinate, phases 2-3 apply it to x, y,
 * z, m and perm.
 *
 * Bitwise contract: the tree equals NumpyBackend.rcb_build (the Python
 * reference loop) in float64 AND float32 -- the same node numbering,
 * boxes, permutation and reordered arrays.  Statement by statement:
 *
 *  - an explicit stack; a split node's left child is numbered and
 *    pushed before its right one, so the right subtree is built first;
 *  - the axis is the first maximum of hi - lo (np.argmax);
 *  - the split plane is np.average(coord, weights=m), which numpy
 *    evaluates as sum(coord * m) / sum(m) in T with its pairwise sum
 *    (pairwise() below): fewer than 8 terms are summed in order from
 *    -0.0; up to 128 terms run eight accumulators over blocks of 8,
 *    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in
 *    order; longer runs split at n2 = n/2 - (n/2)%8 and recurse.  Any
 *    other summation order moves the plane by an ulp and changes trees;
 *  - a particle goes left when coord <= split, and the partition is
 *    stable: left entries keep their order, then the right entries;
 *  - when every particle falls on one side the node splits at c / 2 of
 *    a stable sort by coord (np.argsort(kind="stable")), here a
 *    bottom-up merge sort that takes the left run on ties;
 *  - child boxes are the min / max of their segments in T.
 *
 * Inputs are finite with positive masses (RCBTree checks them); with
 * -ffp-contract=off every product, sum and quotient is rounded in T.
 * Node arrays have room for `cap` nodes: a build that needs more scatters
 * x, y, z, m back to their input order and returns -1, and the caller
 * retries with more room.  -2 means scratch memory could not be had.
 *
 * The walk: query q's hits are the leaves whose box meets the closed box
 * [qlo[q], qhi[q]] (no lo coordinate above qhi, no hi one below qlo, in
 * T), depth first, left child first: the left child holds the lower
 * rows, so hits come in ascending row order, batch_box_query's order.
 * It writes hoff[0..nq] and the first `cap` hits and returns how many
 * there are (the caller retries with room for them all); `stack` holds
 * as many entries as there are nodes.
 *
 * The solve: the first ntgt rows' forces by the calls TreePMShortRange
 * made one at a time, in order, on their inputs (so bitwise theirs): the
 * SOA copy (-3: a position or mass RCBTree refuses), rcb_build, the
 * leaves holding a target in row order (the walk of an unbounded box),
 * the walk of their boxes padded by rcut, cull (on the rows in float),
 * `pair` (the caller's path) on masses times mscale, then out[perm[i]] =
 * acc[i] for perm[i] < ntgt.  All scratch is the caller's tw, iw and lw
 * (tn, in, ln values); short of room it returns -1 and the room needed
 * in info[0..2].  Else it returns the in-cutoff pairs, info[0..3] the
 * streamed pairs, the depth, the groups and where in iw their kept-source
 * counts start, and clock[0..3] the phases' bounds (CLOCK_MONOTONIC s).
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define RCB_BUILD(SUF, T)                                                   \
/* numpy's pairwise sums of a[i] * w[i] and of w[i], in one pass */      \
static void pairwise_##SUF(const T *a, const T *w, int64_t n,             \
                           T *aw, T *ws)                                    \
{                                                                           \
    if (n < 8) {                                                            \
        T s = (T)-0.0, t = (T)-0.0;                                         \
        for (int64_t i = 0; i < n; i++) {                                   \
            s = s + a[i] * w[i];                                            \
            t = t + w[i];                                                   \
        }                                                                   \
        *aw = s;                                                            \
        *ws = t;                                                            \
        return;                                                             \
    }                                                                       \
    if (n <= 128) {                                                         \
        T r[8], q[8];                                                       \
        int64_t i;                                                          \
        for (int j = 0; j < 8; j++) {                                       \
            r[j] = a[j] * w[j];                                             \
            q[j] = w[j];                                                    \
        }                                                                   \
        for (i = 8; i < n - n % 8; i += 8)                                  \
            for (int j = 0; j < 8; j++) {                                   \
                r[j] = r[j] + a[i + j] * w[i + j];                          \
                q[j] = q[j] + w[i + j];                                     \
            }                                                               \
        T s = ((r[0] + r[1]) + (r[2] + r[3]))                               \
              + ((r[4] + r[5]) + (r[6] + r[7]));                            \
        T t = ((q[0] + q[1]) + (q[2] + q[3]))                               \
              + ((q[4] + q[5]) + (q[6] + q[7]));                            \
        for (; i < n; i++) {                                                \
            s = s + a[i] * w[i];                                            \
            t = t + w[i];                                                   \
        }                                                                   \
        *aw = s;                                                            \
        *ws = t;                                                            \
        return;                                                             \
    }                                                                       \
    int64_t n2 = n / 2;                                                     \
    n2 -= n2 % 8;                                                           \
    T s0, t0, s1, t1;                                                       \
    pairwise_##SUF(a, w, n2, &s0, &t0);                                     \
    pairwise_##SUF(a + n2, w + n2, n - n2, &s1, &t1);                       \
    *aw = s0 + s1;                                                          \
    *ws = t0 + t1;                                                          \
}                                                                           \
                                                                            \
/* idx[0..c) = stable argsort of v[0..c); tmp is scratch of length c */     \
static void argsort_##SUF(const T *v, int64_t *idx, int64_t *tmp,           \
                          int64_t c)                                        \
{                                                                           \
    int64_t *src = idx, *dst = tmp;                                         \
    for (int64_t i = 0; i < c; i++)                                         \
        idx[i] = i;                                                         \
    for (int64_t w = 1; w < c; w *= 2) {                                    \
        for (int64_t lo = 0; lo < c; lo += 2 * w) {                         \
            const int64_t mid = lo + w < c ? lo + w : c;                    \
            const int64_t hi = lo + 2 * w < c ? lo + 2 * w : c;             \
            int64_t i = lo, j = mid, k = lo;                                \
            while (i < mid && j < hi)                                       \
                dst[k++] = v[src[j]] < v[src[i]] ? src[j++] : src[i++];     \
            while (i < mid)                                                 \
                dst[k++] = src[i++];                                        \
            while (j < hi)                                                  \
                dst[k++] = src[j++];                                        \
        }                                                                   \
        int64_t *t = src;                                                   \
        src = dst;                                                          \
        dst = t;                                                            \
    }                                                                       \
    if (src != idx)                                                         \
        memcpy(idx, src, (size_t)c * sizeof *idx);                          \
}                                                                           \
                                                                            \
/* min / max are exact in any order: four chains keep the pipes full */     \
static void bbox_##SUF(T *const *xyz, int64_t s, int64_t e, T *lo, T *hi)   \
{                                                                           \
    for (int k = 0; k < 3; k++) {                                           \
        const T *v = xyz[k];                                                \
        T a[4] = {v[s], v[s], v[s], v[s]}, b[4] = {v[s], v[s], v[s], v[s]}; \
        int64_t i = s;                                                      \
        for (; i + 4 <= e; i += 4)                                          \
            for (int j = 0; j < 4; j++) {                                   \
                a[j] = v[i + j] < a[j] ? v[i + j] : a[j];                   \
                b[j] = v[i + j] > b[j] ? v[i + j] : b[j];                   \
            }                                                               \
        for (; i < e; i++) {                                                \
            a[0] = v[i] < a[0] ? v[i] : a[0];                               \
            b[0] = v[i] > b[0] ? v[i] : b[0];                               \
        }                                                                   \
        for (int j = 1; j < 4; j++) {                                       \
            a[0] = a[j] < a[0] ? a[j] : a[0];                               \
            b[0] = b[j] > b[0] ? b[j] : b[0];                               \
        }                                                                   \
        lo[k] = a[0];                                                       \
        hi[k] = b[0];                                                       \
    }                                                                       \
}                                                                           \
                                                                            \
int64_t rcb_build_##SUF(T *x, T *y, T *z, T *m, int64_t *perm, int64_t n,   \
                        int64_t leaf_size, int64_t cap, int64_t *start,     \
                        int64_t *count, T *lo, T *hi, int64_t *left,        \
                        int64_t *right)                                     \
{                                                                           \
    T *const xyz[3] = {x, y, z};                                            \
    T *const soa[4] = {x, y, z, m};                                         \
    for (int64_t i = 0; i < n; i++)                                         \
        perm[i] = i;                                                        \
    if (n == 0)                                                             \
        return 0;                                                           \
    if (cap < 1)                                                            \
        return -1;                                                          \
    int64_t *idx = malloc((size_t)n * sizeof *idx);                         \
    int64_t *itmp = malloc((size_t)n * sizeof *itmp);                       \
    T *ftmp = malloc((size_t)n * sizeof *ftmp);                             \
    int64_t *stack = malloc((size_t)cap * sizeof *stack);                   \
    int64_t nn = 1, sp = 0;                                                 \
    if (!idx || !itmp || !ftmp || !stack) {                                 \
        nn = -2;                                                            \
        goto done;                                                          \
    }                                                                       \
    start[0] = 0;                                                           \
    count[0] = n;                                                           \
    left[0] = right[0] = -1;                                                \
    bbox_##SUF(xyz, 0, n, lo, hi);                                          \
    stack[sp++] = 0;                                                        \
    while (sp) {                                                            \
        const int64_t node = stack[--sp];                                   \
        const int64_t s = start[node], c = count[node];                     \
        if (c <= leaf_size)                                                 \
            continue;                                                       \
        if (nn + 2 > cap) {                                                 \
            /* out of node room: undo the permutation, report overflow */   \
            for (int k = 0; k < 4; k++) {                                   \
                for (int64_t i = 0; i < n; i++)                             \
                    ftmp[perm[i]] = soa[k][i];                              \
                memcpy(soa[k], ftmp, (size_t)n * sizeof *ftmp);             \
            }                                                               \
            for (int64_t i = 0; i < n; i++)                                 \
                perm[i] = i;                                                \
            nn = -1;                                                        \
            goto done;                                                      \
        }                                                                   \
        const T *nlo = lo + 3 * node, *nhi = hi + 3 * node;                 \
        int axis = 0;                                                       \
        T ext = nhi[0] - nlo[0];                                            \
        for (int k = 1; k < 3; k++) {                                       \
            const T e = nhi[k] - nlo[k];                                    \
            if (e > ext) {                                                  \
                ext = e;                                                    \
                axis = k;                                                   \
            }                                                               \
        }                                                                   \
        const T *coord = xyz[axis] + s;                                     \
        /* phase 1: centre-of-mass plane, then the stable partition */      \
        T moment, mass;                                                     \
        pairwise_##SUF(coord, m + s, c, &moment, &mass);                    \
        const T split = moment / mass;                                      \
        /* branch-free: a random cloud would mispredict half the time */    \
        int64_t n_left = 0, r = 0;                                          \
        for (int64_t i = 0; i < c; i++) {                                   \
            const int64_t le = coord[i] <= split;                           \
            idx[n_left] = i;                                                \
            itmp[r] = i;                                                    \
            n_left += le;                                                   \
            r += 1 - le;                                                    \
        }                                                                   \
        if (n_left == 0 || n_left == c) {                                   \
            /* degenerate (all mass on one side): fall back to median */    \
            argsort_##SUF(coord, idx, itmp, c);                             \
            n_left = c / 2;                                                 \
        } else {                                                            \
            memcpy(idx + n_left, itmp, (size_t)r * sizeof *idx);            \
        }                                                                   \
        /* phases 2-3: one recorded permutation, applied to every array */  \
        for (int k = 0; k < 4; k++) {                                       \
            T *v = soa[k] + s;                                              \
            for (int64_t i = 0; i < c; i++)                                 \
                ftmp[i] = v[idx[i]];                                        \
            memcpy(v, ftmp, (size_t)c * sizeof *ftmp);                      \
        }                                                                   \
        for (int64_t i = 0; i < c; i++)                                     \
            itmp[i] = perm[s + idx[i]];                                     \
        memcpy(perm + s, itmp, (size_t)c * sizeof *itmp);                   \
        const int64_t l = nn++, rt = nn++;                                  \
        start[l] = s;                                                       \
        count[l] = n_left;                                                  \
        start[rt] = s + n_left;                                             \
        count[rt] = c - n_left;                                             \
        left[l] = right[l] = left[rt] = right[rt] = -1;                     \
        bbox_##SUF(xyz, s, s + n_left, lo + 3 * l, hi + 3 * l);             \
        bbox_##SUF(xyz, s + n_left, s + c, lo + 3 * rt, hi + 3 * rt);       \
        left[node] = l;                                                     \
        right[node] = rt;                                                   \
        stack[sp++] = l;                                                    \
        stack[sp++] = rt;                                                   \
    }                                                                       \
done:                                                                       \
    free(idx);                                                              \
    free(itmp);                                                             \
    free(ftmp);                                                             \
    free(stack);                                                            \
    return nn;                                                              \
}

#define WALK(SUF, T)                                                        \
int64_t walk_##SUF(const T *lo, const T *hi, const int64_t *left,           \
                   const int64_t *right, const T *qlo, const T *qhi,        \
                   int64_t nq, int64_t *hoff, int64_t *hits, int64_t cap,   \
                   int64_t *stack)                                          \
{                                                                           \
    int64_t nh = 0;                                                         \
    hoff[0] = 0;                                                            \
    for (int64_t q = 0; q < nq; hoff[++q] = nh) {                           \
        const T *a = qlo + 3 * q, *b = qhi + 3 * q;                         \
        int64_t sp = 0;                                                     \
        stack[sp++] = 0;                                                    \
        while (sp) {                                                        \
            const int64_t node = stack[--sp];                               \
            const T *l = lo + 3 * node, *h = hi + 3 * node;                 \
            if (l[0] > b[0] || l[1] > b[1] || l[2] > b[2] || h[0] < a[0]    \
                || h[1] < a[1] || h[2] < a[2])                              \
                continue;                                                   \
            if (left[node] >= 0) {                                          \
                stack[sp++] = right[node];                                  \
                stack[sp++] = left[node];                                   \
            } else if (nh++ < cap) {                                        \
                hits[nh - 1] = node;                                        \
            }                                                               \
        }                                                                   \
    }                                                                       \
    return nh;                                                              \
}

RCB_BUILD(f64, double)
RCB_BUILD(f32, float)
WALK(f64, double)
WALK(f32, float)

/* the compiler that built this library: its --version line */
const char *const repro_compiler = REPRO_COMPILER;

void cull(const int64_t *, const int64_t *, const unsigned char *,
          const int64_t *, const int64_t *, const int64_t *, int64_t,
          const float *, const float *, const float *, float, uint64_t *,
          int64_t *, int64_t *);

static double now(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

#define SOLVE(SUF, T)                                                       \
typedef int64_t (*pair_##SUF)(const int64_t *, const int64_t *,             \
    const unsigned char *, const int64_t *, const int64_t *,                \
    const int64_t *, const uint64_t *, int64_t, const T *, const T *,       \
    const T *, const T *, const T *, int64_t, T, T, T, T *, T *, int64_t *);\
int64_t pair_scratch(int64_t ns, int64_t nt);                               \
int64_t solve_##SUF(const T *pos, const T *mass, int64_t n, int64_t ntgt,   \
                    int64_t leaf, T rcut, float r2, const T *coeffs,        \
                    int64_t ncoef, T eps, T rc2, T inv_sp2, T mscale,       \
                    pair_##SUF pair, T *tw, int64_t tn, int64_t *iw,        \
                    int64_t in, int64_t *lw, int64_t ln, T *out,            \
                    int64_t *info, double *clock)                           \
{                                                                           \
    /* node room: what tw and iw hold past their per-row arrays */          \
    const int64_t fixed = n + 2 * leaf + n / 8 + 1, least = 8 * (n / leaf) + 8;\
    int64_t cap = (tn - 7 * n) / 12, nn = 0, depth = 0, nq = 0, bad = 0;    \
    int64_t nh = 0, ncand = 0, maxc = 0;                                    \
    cap = (in - fixed) / 10 < cap ? (in - fixed) / 10 : cap;                \
    info[2] = ln < 4 * n + 8192 ? 4 * n + 8192 : ln; /* a first guess */     \
    if (cap < least || ln < info[2]) {                                      \
        cap = cap < least ? least : cap;                                    \
        goto room;                                                          \
    }                                                                       \
    T *x = tw, *y = x + n, *z = y + n, *m = z + n, *acc = m + n;            \
    T *lo = acc + 3 * n, *hi = lo + 3 * cap;                                \
    T *qlo = hi + 3 * cap, *qhi = qlo + 3 * cap;                            \
    int64_t *perm = iw, *order = perm + n, *start = order + 2 * leaf;       \
    int64_t *count = start + cap, *left = count + cap, *right = left + cap; \
    int64_t *stack = right + cap, *leaves = stack + cap, *roff = leaves + cap;\
    int64_t *ts = roff + cap, *tc = ts + cap, *nkept = tc + cap;            \
    unsigned char *real = (unsigned char *)(nkept + cap);                   \
    clock[0] = now();                                                       \
    for (int64_t i = 0; i < n; i++) {                                       \
        x[i] = pos[3 * i], y[i] = pos[3 * i + 1], z[i] = pos[3 * i + 2];    \
        m[i] = mass[i];                                                     \
        bad += !(isfinite(x[i]) && isfinite(y[i]) && isfinite(z[i])         \
                 && m[i] > 0 && m[i] < (T)INFINITY);                        \
    }                                                                       \
    if (bad)                                                                \
        return -3;                                                          \
    if (n && (nn = rcb_build_##SUF(x, y, z, m, perm, n, leaf, cap, start,   \
                                   count, lo, hi, left, right)) < 0) {      \
        cap *= 2;                                                           \
        if (nn == -2)                                                       \
            return -2;                                                      \
        goto room;                                                          \
    }                                                                       \
    for (int64_t k = 0; k < nn; k++) { /* children follow their parent */  \
        const int64_t d = k ? stack[k] : 0;                                 \
        depth = d > depth ? d : depth;                                      \
        if (left[k] >= 0)                                                   \
            stack[left[k]] = stack[right[k]] = d + 1;                       \
    }                                                                       \
    clock[1] = now();                                                       \
    for (int a = 0; a < 3; a++) /* a box every leaf meets */                \
        qlo[a] = -(qhi[a] = (T)INFINITY);                                   \
    const int64_t nleaf = nn ? walk_##SUF(lo, hi, left, right, qlo, qhi, 1, \
                                          roff, leaves, cap, stack) : 0;    \
    float *const f = (float *)acc; /* the rows in float, for the cull */   \
    for (int64_t i = 0; i < n; i++) {                                       \
        real[i] = perm[i] < ntgt;                                           \
        f[i] = (float)x[i], f[n + i] = (float)y[i], f[2 * n + i] = (float)z[i];\
        m[i] = m[i] * mscale;                                               \
    }                                                                       \
    for (int64_t k = 0; k < nleaf; k++) {                                   \
        const int64_t l = leaves[k];                                        \
        unsigned char any = 0;                                              \
        for (int64_t i = start[l]; i < start[l] + count[l]; i++)            \
            any |= real[i];                                                 \
        for (int a = 0; any && a < 3; a++) {                                \
            qlo[3 * nq + a] = lo[3 * l + a] - rcut;                         \
            qhi[3 * nq + a] = hi[3 * l + a] + rcut;                         \
        }                                                                   \
        ts[nq] = start[l], tc[nq] = count[l];                               \
        nq += any;                                                          \
    }                                                                       \
    nh = walk_##SUF(lo, hi, left, right, qlo, qhi, nq, roff, lw, ln, stack);\
    for (int64_t k = 0; k < nq && 3 * nh <= ln; k++) {                      \
        int64_t c = 0;                                                      \
        for (int64_t h = roff[k]; h < roff[k + 1]; h++) {                   \
            lw[nh + h] = start[lw[h]];                                      \
            c += lw[2 * nh + h] = count[lw[h]];                             \
        }                                                                   \
        ncand += c;                                                         \
        maxc = c > maxc ? c : maxc;                                         \
    }                                                                       \
    /* lw: hits, their rows, the keep mask, then the pair path's scratch */ \
    const int64_t kw = (3 * nh > ln ? nh * leaf : ncand) / 64 + 1;          \
    info[2] = 3 * nh + kw + (pair_scratch(3 * nh > ln ? n : maxc, leaf)     \
                             * (int64_t)sizeof(T) + 7) / 8;                 \
    if (info[2] > ln)                                                       \
        goto room;                                                          \
    uint64_t *keep = (uint64_t *)(lw + 3 * nh);                             \
    memset(keep, 0, (size_t)kw * sizeof *keep);                             \
    cull(ts, tc, real, lw + nh, lw + 2 * nh, roff, nq, f, f + n, f + 2 * n, \
         r2, keep, leaves, nkept);                                          \
    int64_t streamed = 0; /* leaves now hold each group's target count */  \
    for (int64_t k = 0; k < nq; k++)                                        \
        streamed += leaves[k] * nkept[k];                                   \
    clock[2] = now();                                                       \
    memset(acc, 0, (size_t)(3 * n) * sizeof *acc);                          \
    const int64_t inside = streamed ? pair(ts, tc, real, lw + nh,           \
        lw + 2 * nh, roff, keep, nq, x, y, z, m, coeffs, ncoef, eps, rc2,   \
        inv_sp2, acc, (T *)(keep + kw), order) : 0;                         \
    clock[3] = now();                                                       \
    for (int64_t i = 0; i < n; i++)                                         \
        for (int a = 0; perm[i] < ntgt && a < 3; a++)                       \
            out[3 * perm[i] + a] = acc[3 * i + a];                          \
    info[0] = streamed, info[1] = depth, info[2] = nq, info[3] = nkept - iw;\
    return inside;                                                          \
room:                                                                       \
    info[0] = 7 * n + 12 * cap;                                             \
    info[1] = fixed + 10 * cap;                                             \
    return -1;                                                              \
}

SOLVE(f64, double)
SOLVE(f32, float)
