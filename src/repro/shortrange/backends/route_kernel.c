/* The overload exchange's routing (Sec. II of the source paper): each
 * particle's active copy, bound for its home rank, and a passive replica
 * for every neighbour offset whose shell of depth `depth` holds it,
 * written into one destination-major table (each rank's receive buffer).
 *
 * Bitwise contract: the table and its cuts equal NumpyBackend.route in
 * float64 AND float32.  Statement by statement:
 *
 *  - a particle's cell on each axis is DomainDecomposition.assign's:
 *    np.mod of the float64 coordinate, floor(x / box * g), clipped to
 *    [0, g) (NaN lands in cell 0, as numpy's cast and clip put it); the
 *    same cell gives the home rank and the shell tests, rel_lo =
 *    x - c * (box / g) < depth and (box / g) - rel_lo < depth, in float64;
 *  - an offset crossing the periodic seam shifts the replica by
 *    +-(T)box, any other by +0 (so -0.0 becomes +0.0, as numpy's sum
 *    does); the active copy keeps its coordinates;
 *  - a destination's rows hold every source's actives, source by
 *    source, then every source's replicas, source by source and offset
 *    by offset (the 26 offsets in ox, oy, oz loop order), each run in
 *    particle order: numpy's stable sort by (dst*2 + passive)*nr + src.
 *
 * route_* runs twice.  With opos NULL it counts each copy into slot
 * ((dst * 2 + passive) * n_ranks + src) * 26 + k of cursor (k: 0, or the
 * replica's offset index); the caller makes the counts first rows, and
 * the second run writes every copy at its slot's cursor.  src is
 * origin[i], or the home rank when origin is NULL (checked by the caller).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* one axis of DomainDecomposition.assign: np.mod (box > 0), then the
 * clipped floor (a cast: the quotient is >= 0 or NaN); a coordinate
 * already in [0, box) skips the fmod */
static int64_t route_cell(double x, double box, int64_t g)
{
    if (!(x >= 0 && x < box)) {
        x = fmod(x, box);
        x = x < 0 ? x + box : x == 0 ? 0.0 : x;
    }
    const double f = x / box * (double)g;
    return f >= 0 ? (f < (double)g ? (int64_t)f : g - 1) : 0;
}

#define ROUTE(SUF, T)                                                       \
void route_##SUF(const T *pos, const T *mom, const T *mas,                  \
                 const int64_t *pid, const int64_t *origin, int64_t n,      \
                 double box, const int64_t *dims, double depth,             \
                 int64_t *cursor, T *opos, T *omom, T *omas, int64_t *oid,  \
                 uint8_t *oact)                                             \
{                                                                           \
    const int64_t nr = dims[0] * dims[1] * dims[2];                         \
    const T tbox = (T)box;                                                  \
    const double w[3] = {box / (double)dims[0], box / (double)dims[1],      \
                         box / (double)dims[2]};                            \
    for (int64_t i = 0; i < n; i++) {                                       \
        const T *p = pos + 3 * i;                                           \
        int64_t nb[3][3]; /* the cell at offset -1, 0, +1 on each axis */   \
        T shift[3][3];                                                      \
        int lo[3], hi[3];                                                   \
        for (int a = 0; a < 3; a++) {                                       \
            const int64_t g = dims[a], c = route_cell(p[a], box, g);        \
            const double rel = (double)p[a] - (double)c * w[a];             \
            lo[a] = rel < depth;                                            \
            hi[a] = w[a] - rel < depth;                                     \
            nb[a][0] = c > 0 ? c - 1 : g - 1;                               \
            nb[a][1] = c;                                                   \
            nb[a][2] = c + 1 < g ? c + 1 : 0;                               \
            shift[a][0] = c > 0 ? (T)0 : tbox;                              \
            shift[a][1] = (T)0;                                             \
            shift[a][2] = c + 1 < g ? (T)0 : -tbox;                         \
        }                                                                   \
        const int64_t src = origin ? origin[i]                              \
            : (nb[0][1] * dims[1] + nb[1][1]) * dims[2] + nb[2][1];         \
        /* the visited offsets ascend in ox, oy, oz order; t == 13 is the   \
           active copy */                                                   \
        for (int ox = 1 - lo[0]; ox <= 1 + hi[0]; ox++)                     \
        for (int oy = 1 - lo[1]; oy <= 1 + hi[1]; oy++)                     \
        for (int oz = 1 - lo[2]; oz <= 1 + hi[2]; oz++) {                   \
            const int t = 9 * ox + 3 * oy + oz;                             \
            const int64_t dst = (nb[0][ox] * dims[1] + nb[1][oy]) * dims[2] \
                + nb[2][oz];                                                \
            const int64_t r = cursor[((dst * 2 + (t != 13)) * nr + src) * 26 \
                                     + (t < 13 ? t : t == 13 ? 0 : t - 1)]++;\
            if (!opos)                                                      \
                continue;                                                   \
            T *q = opos + 3 * r;                                            \
            if (t == 13) {                                                  \
                memcpy(q, p, 3 * sizeof *p);                                \
            } else {                                                        \
                q[0] = p[0] + shift[0][ox];                                 \
                q[1] = p[1] + shift[1][oy];                                 \
                q[2] = p[2] + shift[2][oz];                                 \
            }                                                               \
            memcpy(omom + 3 * r, mom + 3 * i, 3 * sizeof *mom);             \
            omas[r] = mas[i];                                               \
            oid[r] = pid[i];                                                \
            oact[r] = t == 13;                                              \
        }                                                                   \
    }                                                                       \
}

ROUTE(f64, double)
ROUTE(f32, float)
