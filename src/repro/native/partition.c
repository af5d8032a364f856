/* Hot loops of the multilevel hypergraph partitioner
 * (repro.hypergraph.refine / kway / coarsen / initial).
 *
 * Each entry point replays the Python loop it replaces move for move,
 * so partitions, cuts and every downstream artifact stay bit-identical:
 *
 * - FM (repro_fm_passes): seeds in ascending vertex order, LIFO gain
 *   buckets, touched vertices deduplicated and reinserted in ascending
 *   order, pin-count snapshots written with assignment semantics (as
 *   `pc[en, a] = pa - 1` does when a net lists one pin twice), the
 *   lexicographic (violation, -running) prefix score, the stall cutoff
 *   and rollback by inverse transitions;
 * - K-way polish (repro_kway_polish): boundary fixed per pass, integer
 *   gains, first maximum over feasible parts, assignment-semantics
 *   pin-count updates;
 * - HCM matching (repro_hcm_match): first maximum of the masked float
 *   scores along a visitation order drawn in Python;
 * - greedy growing (repro_greedy_grow): float gains accumulated in pin
 *   order (np.add.at order), a (-gain, vertex) min-heap with stale
 *   entries detected by `-key == gain[u]`; random fill
 *   (repro_random_fill) along a Python-drawn permutation.
 *
 * Float work is limited to compares, products and sums evaluated in the
 * same order as NumPy; the build passes -ffp-contract=off.
 *
 * Status codes: 0 done; REPRO_ERR_NOMEM when a scratch allocation
 * fails; REPRO_ERR_GAIN when an FM gain leaves the bucket range (the
 * caller then reruns the Python loop, which owns that corner).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define EXPORT __attribute__((visibility("default")))

#define REPRO_ERR_NOMEM (-1)
#define REPRO_ERR_GAIN (-2)

static int cmp_i64(const void *x, const void *y)
{
    int64_t a = *(const int64_t *)x, b = *(const int64_t *)y;
    return (a > b) - (a < b);
}

/* ------------------------------------------------------------------ */
/* FM bisection refinement                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    /* hypergraph */
    const int64_t *xpins, *pins, *ncosts, *vipt, *vnets;
    /* state */
    int8_t *part;
    int64_t *pc, *gain;
    /* gain buckets */
    int64_t gmax, nbuckets;
    int64_t *bhead, *nxt, *prv, *bpos;
    uint8_t *inb, *locked;
    /* per-move scratch */
    int64_t *snap_a, *snap_b; /* pin-count snapshot of the incident nets */
    int64_t *touched, *mark;
    int64_t ntouched, stamp;
} fm_t;

/* Head insert into bucket g + gmax; returns the bucket, or -1 when the
 * gain is outside the bucket range. */
static int64_t fm_insert(fm_t *s, int64_t v, int64_t g)
{
    int64_t b = g + s->gmax;
    if (b < 0 || b >= s->nbuckets)
        return -1;
    int64_t h = s->bhead[b];
    s->nxt[v] = h;
    s->prv[v] = -1;
    if (h >= 0)
        s->prv[h] = v;
    s->bhead[b] = v;
    s->inb[v] = 1;
    s->bpos[v] = b;
    return b;
}

static void fm_unlink(fm_t *s, int64_t v)
{
    int64_t p = s->prv[v], q = s->nxt[v];
    if (p >= 0)
        s->nxt[p] = q;
    else
        s->bhead[s->bpos[v]] = q;
    if (q >= 0)
        s->prv[q] = p;
    s->inb[v] = 0;
}

static inline void fm_touch(fm_t *s, int64_t u)
{
    if (s->mark[u] != s->stamp) {
        s->mark[u] = s->stamp;
        s->touched[s->ntouched++] = u;
    }
}

/* Move v from side a to side b, updating pc, part and every gain by
 * the critical-net transitions.  With `collect`, the other vertices
 * whose gain was written land deduplicated in s->touched. */
static void fm_apply(fm_t *s, int64_t v, int a, int b, int collect)
{
    const int64_t lo = s->vipt[v], hi = s->vipt[v + 1];
    const int64_t g_old = s->gain[v];
    int64_t *pc = s->pc, *gain = s->gain;
    const int8_t *part = s->part;
    s->ntouched = 0;
    s->stamp++;
    for (int64_t i = lo; i < hi; i++) {
        int64_t e = s->vnets[i];
        s->snap_a[i - lo] = pc[2 * e + a];
        s->snap_b[i - lo] = pc[2 * e + b];
    }
    for (int64_t i = lo; i < hi; i++) {
        const int64_t e = s->vnets[i], c = s->ncosts[e];
        const int64_t pa = s->snap_a[i - lo], pb = s->snap_b[i - lo];
        const int64_t p0 = s->xpins[e], p1 = s->xpins[e + 1];
        if (pb == 0 || pa == 1) {
            /* becomes cut (+c) or internal to b (-c): every pin */
            const int64_t d = pb == 0 ? c : -c;
            for (int64_t k = p0; k < p1; k++) {
                int64_t u = s->pins[k];
                gain[u] += d;
                if (collect && u != v)
                    fm_touch(s, u);
            }
        }
        if (pb == 1) { /* the lone b pin loses its bonus */
            for (int64_t k = p0; k < p1; k++) {
                int64_t u = s->pins[k];
                if (u != v && part[u] == b) {
                    gain[u] -= c;
                    if (collect)
                        fm_touch(s, u);
                }
            }
        }
        if (pa == 2) { /* the remaining a pin gains it */
            for (int64_t k = p0; k < p1; k++) {
                int64_t u = s->pins[k];
                if (u != v && part[u] == a) {
                    gain[u] += c;
                    if (collect)
                        fm_touch(s, u);
                }
            }
        }
    }
    for (int64_t i = lo; i < hi; i++)
        pc[2 * s->vnets[i] + a] = s->snap_a[i - lo] - 1;
    for (int64_t i = lo; i < hi; i++)
        pc[2 * s->vnets[i] + b] = s->snap_b[i - lo] + 1;
    s->part[v] = (int8_t)b;
    gain[v] = -g_old;
    if (collect && s->ntouched > 1)
        qsort(s->touched, (size_t)s->ntouched, sizeof(int64_t), cmp_i64);
}

/* Worst relative overrun of pw (2 x ncon) against the limits; the
 * zero-limit convention: any weight on a zero limit is infinite, else
 * the violation is at least 1. */
static double fm_viol(const double *pw, const double *inv, const uint8_t *zero,
                      int64_t m, int has_zero)
{
    double rel = pw[0] * inv[0];
    for (int64_t i = 1; i < m; i++) {
        double r = pw[i] * inv[i];
        if (r > rel)
            rel = r;
    }
    if (has_zero) {
        for (int64_t i = 0; i < m; i++)
            if (zero[i] && pw[i] > 0)
                return 1.0 / 0.0;
        if (1.0 > rel)
            rel = 1.0;
    }
    return rel;
}

/* (v1, r1) < (v2, r2) lexicographically; r is the negated running gain. */
static inline int score_less(double v1, int64_t r1, double v2, int64_t r2)
{
    return v1 < v2 || (v1 == v2 && r1 < r2);
}

/* The FM pass loop of repro.hypergraph.refine.fm_refine.
 *
 * In/out: part[n] (0/1), pc[nnets*2], gain[n], pw[2*ncon] and cut[0].
 * xnets/nets (all nets, for the seed scan) and vipt/vnets (nets of two
 * or more pins) are the vertex -> net adjacencies; w is n x ncon;
 * inv_limits and zero_limit are 2 x ncon. */
EXPORT int64_t repro_fm_passes(
    int64_t n, int64_t nnets, int64_t ncon, int64_t max_passes, int64_t gmax,
    int64_t stall_fraction,
    const int64_t *xpins, const int64_t *pins, const int64_t *ncosts,
    const int64_t *xnets, const int64_t *nets,
    const int64_t *vipt, const int64_t *vnets,
    const double *w, const double *inv_limits, const uint8_t *zero_limit,
    int8_t *part, int64_t *pc, int64_t *gain, double *pw, int64_t *cut)
{
    const int64_t m = 2 * ncon;
    int has_zero = 0;
    for (int64_t i = 0; i < m; i++)
        has_zero |= zero_limit[i] != 0;
    int64_t maxdeg = 1;
    for (int64_t v = 0; v < n; v++)
        if (vipt[v + 1] - vipt[v] > maxdeg)
            maxdeg = vipt[v + 1] - vipt[v];

    fm_t s = {0};
    s.xpins = xpins; s.pins = pins; s.ncosts = ncosts;
    s.vipt = vipt; s.vnets = vnets;
    s.part = part; s.pc = pc; s.gain = gain;
    s.gmax = gmax;
    s.nbuckets = 2 * gmax + 1;
    int64_t status = 0;
    uint8_t *net_cut = malloc((size_t)(nnets ? nnets : 1));
    int64_t *seeds = malloc(sizeof(int64_t) * (size_t)n);
    int64_t *moves = malloc(sizeof(int64_t) * (size_t)n);
    int64_t *sums = malloc(sizeof(int64_t) * (size_t)n);
    double *new_pw = malloc(sizeof(double) * (size_t)m);
    s.bhead = malloc(sizeof(int64_t) * (size_t)s.nbuckets);
    s.nxt = malloc(sizeof(int64_t) * (size_t)n);
    s.prv = malloc(sizeof(int64_t) * (size_t)n);
    s.bpos = malloc(sizeof(int64_t) * (size_t)n);
    s.inb = malloc((size_t)n);
    s.locked = malloc((size_t)n);
    s.snap_a = malloc(sizeof(int64_t) * (size_t)maxdeg);
    s.snap_b = malloc(sizeof(int64_t) * (size_t)maxdeg);
    s.touched = malloc(sizeof(int64_t) * (size_t)n);
    s.mark = calloc((size_t)n, sizeof(int64_t));
    if (!net_cut || !seeds || !moves || !sums || !new_pw || !s.bhead ||
        !s.nxt || !s.prv || !s.bpos || !s.inb || !s.locked || !s.snap_a ||
        !s.snap_b || !s.touched || !s.mark) {
        status = REPRO_ERR_NOMEM;
        goto done;
    }

    for (int64_t pass = 0; pass < max_passes; pass++) {
        /* Seeds: vertices on a cut net, ascending; all when none is cut. */
        int any_cut = 0;
        for (int64_t e = 0; e < nnets; e++) {
            net_cut[e] = pc[2 * e] > 0 && pc[2 * e + 1] > 0;
            any_cut |= net_cut[e];
        }
        int64_t nseeds = 0;
        for (int64_t v = 0; v < n; v++) {
            if (!any_cut) {
                seeds[nseeds++] = v;
                continue;
            }
            for (int64_t i = xnets[v]; i < xnets[v + 1]; i++)
                if (net_cut[nets[i]]) {
                    seeds[nseeds++] = v;
                    break;
                }
        }
        if (nseeds == 0)
            break;

        for (int64_t b = 0; b < s.nbuckets; b++)
            s.bhead[b] = -1;
        memset(s.inb, 0, (size_t)n);
        memset(s.locked, 0, (size_t)n);
        int64_t cur = 0;
        for (int64_t i = 0; i < nseeds; i++) {
            int64_t b = fm_insert(&s, seeds[i], gain[seeds[i]]);
            if (b < 0) {
                status = REPRO_ERR_GAIN;
                goto done;
            }
            if (b > cur)
                cur = b;
        }

        int64_t nmoves = 0, running = 0, best_pos = -1;
        double cur_viol = fm_viol(pw, inv_limits, zero_limit, m, has_zero);
        double best_v = cur_viol > 1.0 ? cur_viol : 1.0;
        int64_t best_r = 0;
        int64_t stall_limit = nseeds / stall_fraction;
        if (stall_limit < 64)
            stall_limit = 64;

        while (cur >= 0) {
            int64_t v = s.bhead[cur];
            if (v < 0) {
                cur--;
                continue;
            }
            fm_unlink(&s, v);
            int a = part[v], b = 1 - a;
            const double *wv = w + v * ncon;
            memcpy(new_pw, pw, sizeof(double) * (size_t)m);
            for (int64_t c = 0; c < ncon; c++) {
                new_pw[a * ncon + c] -= wv[c];
                new_pw[b * ncon + c] += wv[c];
            }
            double new_viol = fm_viol(new_pw, inv_limits, zero_limit, m, has_zero);
            if (new_viol > 1.0 && new_viol >= cur_viol)
                continue; /* inadmissible: stays unlinked and unlocked */
            s.locked[v] = 1;
            int64_t move_gain = gain[v];
            fm_apply(&s, v, a, b, 1);
            for (int64_t i = 0; i < s.ntouched; i++) {
                int64_t u = s.touched[i];
                if (s.locked[u])
                    continue;
                if (s.inb[u])
                    fm_unlink(&s, u);
                int64_t bu = fm_insert(&s, u, gain[u]);
                if (bu < 0) {
                    status = REPRO_ERR_GAIN;
                    goto done;
                }
                if (bu > cur)
                    cur = bu;
            }
            running += move_gain;
            memcpy(pw, new_pw, sizeof(double) * (size_t)m);
            cur_viol = new_viol;
            moves[nmoves] = v;
            sums[nmoves] = running;
            nmoves++;
            double sv = cur_viol > 1.0 ? cur_viol : 1.0;
            if (score_less(sv, -running, best_v, best_r)) {
                best_v = sv;
                best_r = -running;
                best_pos = nmoves - 1;
            } else if (nmoves - 1 - best_pos >= stall_limit) {
                break; /* the tail is heading for rollback anyway */
            }
        }

        if (nmoves == 0)
            break;
        int64_t best_gain = best_pos >= 0 ? sums[best_pos] : 0;
        for (int64_t i = nmoves - 1; i > best_pos; i--) {
            int64_t v = moves[i];
            int b = part[v], a = 1 - b;
            fm_apply(&s, v, b, a, 0);
            const double *wv = w + v * ncon;
            for (int64_t c = 0; c < ncon; c++) {
                pw[b * ncon + c] -= wv[c];
                pw[a * ncon + c] += wv[c];
            }
        }
        if (best_pos == -1)
            break;
        *cut -= best_gain;
        if (best_gain <= 0 && best_v <= 1.0)
            break; /* feasible and no volume improvement: converged */
    }

done:
    free(net_cut); free(seeds); free(moves); free(sums); free(new_pw);
    free(s.bhead); free(s.nxt); free(s.prv); free(s.bpos); free(s.inb);
    free(s.locked); free(s.snap_a); free(s.snap_b); free(s.touched);
    free(s.mark);
    return status;
}

/* ------------------------------------------------------------------ */
/* Direct K-way greedy polish                                         */
/* ------------------------------------------------------------------ */

/* The pass loop of repro.hypergraph.kway.kway_greedy_refine.
 *
 * In/out: part[n], pc[nnets*k], pw[k*ncon].  xnets/nets are all nets
 * of each vertex (boundary scan and pin-count updates), vipt/vnets the
 * nets of two or more pins (gains). */
EXPORT int64_t repro_kway_polish(
    int64_t n, int64_t nnets, int64_t k, int64_t ncon, int64_t max_passes,
    const int64_t *xnets, const int64_t *nets,
    const int64_t *vipt, const int64_t *vnets,
    const int64_t *ncosts, const double *w, const double *limit,
    int64_t *part, int64_t *pc, double *pw)
{
    int64_t maxdeg = 1;
    for (int64_t v = 0; v < n; v++)
        if (xnets[v + 1] - xnets[v] > maxdeg)
            maxdeg = xnets[v + 1] - xnets[v];
    int64_t status = 0;
    uint8_t *net_cut = malloc((size_t)(nnets ? nnets : 1));
    int64_t *boundary = malloc(sizeof(int64_t) * (size_t)(n ? n : 1));
    int64_t *gains = malloc(sizeof(int64_t) * (size_t)k);
    int64_t *new_a = malloc(sizeof(int64_t) * (size_t)maxdeg);
    int64_t *new_b = malloc(sizeof(int64_t) * (size_t)maxdeg);
    if (!net_cut || !boundary || !gains || !new_a || !new_b) {
        status = REPRO_ERR_NOMEM;
        goto done;
    }

    for (int64_t pass = 0; pass < max_passes; pass++) {
        for (int64_t e = 0; e < nnets; e++) {
            int64_t lam = 0;
            for (int64_t q = 0; q < k; q++)
                lam += pc[e * k + q] > 0;
            net_cut[e] = lam >= 2;
        }
        int64_t nb = 0;
        for (int64_t v = 0; v < n; v++)
            for (int64_t i = xnets[v]; i < xnets[v + 1]; i++)
                if (net_cut[nets[i]]) {
                    boundary[nb++] = v;
                    break;
                }
        int64_t moved = 0;
        for (int64_t j = 0; j < nb; j++) {
            const int64_t v = boundary[j], a = part[v];
            if (vipt[v + 1] == vipt[v])
                continue;
            memset(gains, 0, sizeof(int64_t) * (size_t)k);
            for (int64_t i = vipt[v]; i < vipt[v + 1]; i++) {
                const int64_t e = vnets[i], c = ncosts[e];
                const int64_t *row = pc + e * k;
                if (row[a] == 1) { /* lambda drops where b already is */
                    for (int64_t q = 0; q < k; q++)
                        if (row[q] > 0)
                            gains[q] += c;
                } else if (row[a] >= 2) { /* lambda grows where b is not */
                    for (int64_t q = 0; q < k; q++)
                        if (row[q] == 0)
                            gains[q] -= c;
                }
            }
            gains[a] = 0;
            const double *wv = w + v * ncon;
            int64_t best = -1, best_gain = 0;
            for (int64_t q = 0; q < k; q++) {
                if (gains[q] <= best_gain)
                    continue;
                int feasible = 1;
                for (int64_t c = 0; c < ncon; c++)
                    if (!(pw[q * ncon + c] + wv[c] <= limit[c])) {
                        feasible = 0;
                        break;
                    }
                if (feasible) {
                    best = q;
                    best_gain = gains[q];
                }
            }
            if (best < 0)
                continue;
            const int64_t lo = xnets[v], hi = xnets[v + 1];
            for (int64_t i = lo; i < hi; i++) {
                new_a[i - lo] = pc[nets[i] * k + a] - 1;
                new_b[i - lo] = pc[nets[i] * k + best] + 1;
            }
            for (int64_t i = lo; i < hi; i++)
                pc[nets[i] * k + a] = new_a[i - lo];
            for (int64_t i = lo; i < hi; i++)
                pc[nets[i] * k + best] = new_b[i - lo];
            for (int64_t c = 0; c < ncon; c++) {
                pw[a * ncon + c] -= wv[c];
                pw[best * ncon + c] += wv[c];
            }
            part[v] = best;
            moved++;
        }
        if (moved == 0)
            break;
    }

done:
    free(net_cut); free(boundary); free(gains); free(new_a); free(new_b);
    return status;
}

/* ------------------------------------------------------------------ */
/* Heavy-connectivity matching                                        */
/* ------------------------------------------------------------------ */

/* The matching walk of repro.hypergraph.coarsen.coarsen_once: visit
 * vertices in `order`, match each unmatched vertex to the first
 * unmatched neighbour of maximal positive score in its CSR row. */
EXPORT void repro_hcm_match(
    int64_t n, const int64_t *order,
    const int64_t *indptr, const int64_t *indices, const double *data,
    int64_t *mate)
{
    for (int64_t t = 0; t < n; t++) {
        const int64_t v = order[t];
        if (mate[v] != -1)
            continue;
        int64_t best = -1;
        double best_score = 0.0;
        for (int64_t j = indptr[v]; j < indptr[v + 1]; j++) {
            const int64_t u = indices[j];
            if (u != v && mate[u] == -1 && data[j] > best_score) {
                best_score = data[j];
                best = u;
            }
        }
        if (best >= 0) {
            mate[v] = best;
            mate[best] = v;
        }
    }
}

/* ------------------------------------------------------------------ */
/* Initial bisections                                                 */
/* ------------------------------------------------------------------ */

/* The fill of repro.hypergraph.initial.random_bisection: part[v] = 0
 * for each vertex of `order` whose weight still fits under t0. */
EXPORT int64_t repro_random_fill(
    int64_t n, int64_t ncon, const int64_t *order, const int64_t *vw,
    const double *t0, int8_t *part)
{
    int64_t *pw0 = calloc((size_t)(ncon ? ncon : 1), sizeof(int64_t));
    if (!pw0)
        return REPRO_ERR_NOMEM;
    for (int64_t t = 0; t < n; t++) {
        const int64_t v = order[t];
        const int64_t *wv = vw + v * ncon;
        int fits = 1;
        for (int64_t c = 0; c < ncon; c++)
            if (!((double)(pw0[c] + wv[c]) <= t0[c])) {
                fits = 0;
                break;
            }
        if (fits) {
            part[v] = 0;
            for (int64_t c = 0; c < ncon; c++)
                pw0[c] += wv[c];
        }
    }
    free(pw0);
    return 0;
}

typedef struct {
    double key; /* -gain at push time */
    int64_t v;
} heap_item;

static inline int heap_less(heap_item x, heap_item y)
{
    return x.key < y.key || (x.key == y.key && x.v < y.v);
}

typedef struct {
    heap_item *a;
    int64_t size, cap;
} heap_t;

static int heap_push(heap_t *h, double key, int64_t v)
{
    if (h->size == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 64;
        heap_item *a = realloc(h->a, sizeof(heap_item) * (size_t)cap);
        if (!a)
            return REPRO_ERR_NOMEM;
        h->a = a;
        h->cap = cap;
    }
    heap_item it = {key, v};
    int64_t i = h->size++;
    while (i > 0) {
        int64_t p = (i - 1) / 2;
        if (!heap_less(it, h->a[p]))
            break;
        h->a[i] = h->a[p];
        i = p;
    }
    h->a[i] = it;
    return 0;
}

static heap_item heap_pop(heap_t *h)
{
    heap_item top = h->a[0];
    heap_item last = h->a[--h->size];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1;
        if (l >= h->size)
            break;
        int64_t r = l + 1;
        int64_t m = r < h->size && heap_less(h->a[r], h->a[l]) ? r : l;
        if (!heap_less(h->a[m], last))
            break;
        h->a[i] = h->a[m];
        i = m;
    }
    if (h->size > 0)
        h->a[i] = last;
    return top;
}

/* The growing loop of repro.hypergraph.initial.greedy_growing.
 *
 * contrib[e] = cost / (|e| - 1) for nets of two or more pins (`valid`);
 * order is the reseed permutation; part (all ones on entry) gets the
 * grown part 0. */
EXPORT int64_t repro_greedy_grow(
    int64_t n, int64_t ncon, const int64_t *order,
    const int64_t *xpins, const int64_t *pins,
    const int64_t *xnets, const int64_t *nets,
    const uint8_t *valid, const double *contrib,
    const int64_t *vw, const double *t0, int8_t *part)
{
    int64_t status = 0;
    heap_t heap = {0};
    double *gain = calloc((size_t)n, sizeof(double));
    double *pw0 = calloc((size_t)(ncon ? ncon : 1), sizeof(double));
    uint8_t *absorbed = calloc((size_t)n, 1);
    uint8_t *retired = calloc((size_t)n, 1);
    int64_t *mark = malloc(sizeof(int64_t) * (size_t)n);
    int64_t *touched = malloc(sizeof(int64_t) * (size_t)n);
    if (!gain || !pw0 || !absorbed || !retired || !mark || !touched) {
        status = REPRO_ERR_NOMEM;
        goto done;
    }
    for (int64_t v = 0; v < n; v++)
        mark[v] = -1;

    int64_t seed_ptr = 0;
    for (;;) {
        int64_t v = -1;
        while (heap.size > 0) {
            heap_item it = heap_pop(&heap);
            if (!absorbed[it.v] && !retired[it.v] && -it.key == gain[it.v]) {
                v = it.v;
                break;
            }
        }
        if (v < 0) { /* (re)seed: the next untaken vertex in order */
            while (seed_ptr < n && (absorbed[order[seed_ptr]] || retired[order[seed_ptr]]))
                seed_ptr++;
            if (seed_ptr >= n)
                break;
            v = order[seed_ptr];
            gain[v] = 0.0;
        }
        const int64_t *wv = vw + v * ncon;
        int fits = 1;
        for (int64_t c = 0; c < ncon; c++)
            if (!(pw0[c] + (double)wv[c] <= t0[c])) {
                fits = 0;
                break;
            }
        if (!fits) {
            retired[v] = 1;
            continue;
        }
        absorbed[v] = 1;
        part[v] = 0;
        int full = 1;
        for (int64_t c = 0; c < ncon; c++) {
            pw0[c] += (double)wv[c];
            full &= pw0[c] >= t0[c];
        }
        if (full)
            break;
        int64_t ntouched = 0;
        for (int64_t i = xnets[v]; i < xnets[v + 1]; i++) {
            const int64_t e = nets[i];
            if (!valid[e])
                continue;
            for (int64_t k = xpins[e]; k < xpins[e + 1]; k++) {
                const int64_t u = pins[k];
                gain[u] += contrib[e];
                if (mark[u] != v) {
                    mark[u] = v;
                    touched[ntouched++] = u;
                }
            }
        }
        if (ntouched > 1)
            qsort(touched, (size_t)ntouched, sizeof(int64_t), cmp_i64);
        for (int64_t i = 0; i < ntouched; i++) {
            const int64_t u = touched[i];
            if (absorbed[u] || retired[u])
                continue;
            if (heap_push(&heap, -gain[u], u) != 0) {
                status = REPRO_ERR_NOMEM;
                goto done;
            }
        }
    }

done:
    free(heap.a); free(gain); free(pw0); free(absorbed); free(retired);
    free(mark); free(touched);
    return status;
}
