/*
 * Compiled step loop of fps_maxsat: a port of the Python engine
 * (engine.py: SearchState.flip, update_weights, probed_positive_scores,
 * IndexedSet) and of the step function in solver.py (fps_step, with
 * bms_pick and _random_walk_escape).
 *
 * The Python code is the reference.  Every list, dict and set operation
 * is mirrored in the same order, and the random draws go through a copy
 * of CPython's MT19937 (random.random and randrange), so a run gives the
 * same trajectory, bit for bit, as the Python engine with the same seed.
 * A change to an update rule must be made in both places.
 *
 * Three structures exist only in the kernel.  Each keeps the reference's
 * order and results:
 * - fs_open, a bitmap over positions in fs_items, marks the falsified
 *   soft clauses below soft_cap, so the soft bump of update_weights
 *   visits only those instead of skipping the capped ones;
 * - raised, a bitmap over clauses, marks those above their initial
 *   weight, so smoothing visits only those, in clause order, instead of
 *   checking all m;
 * - the clock cadence: fk_run reads the clock only every stride steps,
 *   where the Python loop reads it before every step (see CLOCK_MIN_S).
 *
 * The caller (_kernel.py) fills in the sizes, the parameters, the
 * generator state and the formula's arrays, which it owns.  fk_init
 * allocates and builds everything else: the initial weights, the
 * assignment (n random() < 0.5 draws, as SearchState.__init__ makes
 * them), the true-literal counts, scores and index sets in the order
 * SearchState.__init__ fills them, and the kernel's own occurrence lists
 * and scratch space.  fk_run advances the search for one slice; fk_free
 * releases what fk_init allocated.  Plain C, no Python headers.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* fk_run results */
enum {
    FK_BUDGET = 0,   /* flip budget or time limit reached */
    FK_IMPROVED = 1, /* the best cost improved in the last step */
    FK_SLICE = 2,    /* the slice length elapsed */
    FK_DONE = 3,     /* every clause holds: no step is possible */
    FK_HANDBACK = 4  /* the next weight bump could overflow int64 */
};

/* fk_init results */
enum { FK_OK = 0, FK_NOMEM = -1, FK_BADINPUT = -2, FK_TOOHEAVY = -3 };

/* positions in solver.MODES */
enum { MODE_FPS, MODE_SINGLE, MODE_FPS_RW };

/* Scores and weights stay below this bound (see fk_init). */
#define WEIGHT_BOUND ((int64_t)1 << 62)

#define MT_N 624
#define MT_M 397

struct fk_work;

/* Shared with _kernel.py; field order and types must match its _State.
   The caller sets the sizes, the parameters, mt_index, mt and the formula
   arrays; fk_init builds the rest. */
struct fk_state {
    int64_t n, m;
    int64_t mode, sc_num, sv_num;
    int64_t hard_weight, soft_cap;
    double sp;
    int64_t offset, never_feasible;
    int64_t soft_falsified_weight, flips, best_cost, has_best;
    int64_t fh_len, fs_len, gv_len;
    int64_t mt_index;
    uint32_t *mt;               /* MT_N words, advanced in place */
    const int32_t *lit_start;   /* m + 1 offsets into lits */
    const int32_t *lits;
    const int64_t *soft_weight; /* 0 marks a hard clause; all below 2^62 */
    int64_t *init_weight;
    int64_t *dyn_weight;
    int8_t *assign;             /* n + 1, index 0 unused */
    int8_t *best_assign;        /* n + 1 */
    int32_t *sat_count;
    int32_t *tv;                /* XOR of the variables true in clause c */
    int64_t *score;             /* n + 1 */
    int32_t *fh_items;          /* falsified hard clauses, capacity m */
    int32_t *fs_items;          /* falsified soft clauses, capacity m */
    int32_t *gv_items;          /* positive-score variables, capacity n */
    struct fk_work *work;
};

struct fk_work {
    /* occurrence lists: occ[occ_start[2x + s] .. occ_start[2x + s + 1]) are
       the clauses where x occurs positively (s = 0) or negatively (s = 1),
       in clause order */
    int64_t *occ_start;
    int32_t *occ;
    int32_t *fh_pos, *fs_pos, *gv_pos; /* -1 when absent */
    /* probe: delta table keyed by variable, with first-insertion order */
    int64_t *dval;
    int8_t *dmark;
    int32_t *dkeys;
    /* probe result: positive scores, in the Python dict's key order */
    int32_t *pkeys;
    int64_t *pvals;
    /* fps_step candidates, deduplicated in sampling order */
    int32_t *fv;
    int8_t *seen;
    /* bit i set when fs_items[i] is below soft_cap; clear from fs_len on */
    uint64_t *fs_open;
    /* bit c set exactly when dyn_weight[c] > init_weight[c] */
    uint64_t *raised;
    int64_t wmax;         /* running maximum of dyn_weight */
    int64_t weight_limit; /* hand back before wmax + increment reaches it */
};

/* -- CPython's MT19937 ---------------------------------------------------- */

static uint32_t genrand_uint32(struct fk_state *s)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = s->mt;
    uint32_t y;
    if (s->mt_index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        s->mt_index = 0;
    }
    y = mt[s->mt_index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.random(): a 53-bit float from two draws */
static double rng_random(struct fk_state *s)
{
    uint32_t a = genrand_uint32(s) >> 5, b = genrand_uint32(s) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* random.randrange(k) for 1 <= k < 2**31: getrandbits rejection loop */
static int64_t rng_randrange(struct fk_state *s, int64_t k)
{
    int bits = 0;
    uint32_t r;
    while (((int64_t)1 << bits) <= k)
        bits++;
    do
        r = genrand_uint32(s) >> (32 - bits);
    while ((int64_t)r >= k);
    return (int64_t)r;
}

/* items[int(random() * len(items))] */
static int32_t rng_choose(struct fk_state *s, const int32_t *items, int64_t len)
{
    return items[(int64_t)(rng_random(s) * (double)len)];
}

/* -- IndexedSet ----------------------------------------------------------- */

static void set_add(int32_t *items, int32_t *pos, int64_t *len, int32_t x)
{
    if (pos[x] < 0) {
        pos[x] = (int32_t)*len;
        items[(*len)++] = x;
    }
}

static void set_discard(int32_t *items, int32_t *pos, int64_t *len, int32_t x)
{
    int32_t i = pos[x], last;
    if (i < 0)
        return;
    pos[x] = -1;
    last = items[--(*len)];
    if (last != x) {
        items[i] = last;
        pos[last] = i;
    }
}

/* -- position bitmap ------------------------------------------------------ */

static int bit_get(const uint64_t *bits, int64_t i)
{
    return (int)(bits[i >> 6] >> (i & 63)) & 1;
}

static void bit_put(uint64_t *bits, int64_t i, int v)
{
    uint64_t mask = (uint64_t)1 << (i & 63);
    if (v)
        bits[i >> 6] |= mask;
    else
        bits[i >> 6] &= ~mask;
}

/* index of the lowest set bit of a nonzero word */
static int lowest_bit(uint64_t word)
{
#if defined(__GNUC__)
    return __builtin_ctzll(word);
#else
    int i = 0;
    while (!(word & 1)) {
        word >>= 1;
        i++;
    }
    return i;
#endif
}

/* -- engine --------------------------------------------------------------- */

static int32_t var_of(int32_t lit)
{
    return lit > 0 ? lit : -lit;
}

static void gv_add(struct fk_state *s, int32_t y)
{
    set_add(s->gv_items, s->work->gv_pos, &s->gv_len, y);
}

static void gv_discard(struct fk_state *s, int32_t y)
{
    set_discard(s->gv_items, s->work->gv_pos, &s->gv_len, y);
}

/* falsified soft clauses; fs_open follows every move in fs_items */
static void fs_add(struct fk_state *s, int32_t c)
{
    struct fk_work *w = s->work;
    int64_t i = s->fs_len;
    set_add(s->fs_items, w->fs_pos, &s->fs_len, c);
    if (s->fs_len > i)
        bit_put(w->fs_open, i, s->dyn_weight[c] < s->soft_cap);
}

static void fs_discard(struct fk_state *s, int32_t c)
{
    struct fk_work *w = s->work;
    int32_t i = w->fs_pos[c];
    if (i < 0)
        return;
    set_discard(s->fs_items, w->fs_pos, &s->fs_len, c);
    /* the last item moved from position fs_len into the hole at i */
    bit_put(w->fs_open, i, bit_get(w->fs_open, s->fs_len));
    bit_put(w->fs_open, s->fs_len, 0);
}

/* occurrence list of x: positive (neg = 0) or negative (neg = 1) */
static const int32_t *occ_list(const struct fk_state *s, int32_t x, int neg,
                               int64_t *len)
{
    const int64_t *start = s->work->occ_start + 2 * (int64_t)x + neg;
    *len = start[1] - start[0];
    return s->work->occ + start[0];
}

static void flip(struct fk_state *s, int32_t x)
{
    struct fk_work *w = s->work;
    int8_t new_val = !s->assign[x];
    const int32_t *inc_list, *dec_list;
    int64_t inc_len, dec_len, i, j, sc, ns, wt;
    s->assign[x] = new_val;
    inc_list = occ_list(s, x, !new_val, &inc_len);
    dec_list = occ_list(s, x, new_val, &dec_len);

    for (i = 0; i < inc_len; i++) {
        int32_t c = inc_list[i];
        int32_t k = s->sat_count[c];
        int32_t z = s->tv[c];
        s->sat_count[c] = k + 1;
        s->tv[c] = z ^ x;
        if (k == 0) {
            wt = s->dyn_weight[c];
            for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
                int32_t y = var_of(s->lits[j]);
                sc = s->score[y];
                s->score[y] = sc - wt;
                if (0 < sc && sc <= wt)
                    gv_discard(s, y);
            }
            sc = s->score[x];
            s->score[x] = sc - wt;
            if (0 < sc && sc <= wt)
                gv_discard(s, x);
            if (!s->soft_weight[c]) {
                set_discard(s->fh_items, w->fh_pos, &s->fh_len, c);
            } else {
                fs_discard(s, c);
                s->soft_falsified_weight -= s->soft_weight[c];
            }
        } else if (k == 1) {
            sc = s->score[z];
            ns = sc + s->dyn_weight[c];
            s->score[z] = ns;
            if (ns > 0 && 0 >= sc)
                gv_add(s, z);
        }
    }

    for (i = 0; i < dec_len; i++) {
        int32_t c = dec_list[i];
        int32_t k = s->sat_count[c];
        int32_t t = s->tv[c] ^ x;
        s->sat_count[c] = k - 1;
        s->tv[c] = t;
        if (k == 1) {
            wt = s->dyn_weight[c];
            for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
                int32_t y = var_of(s->lits[j]);
                sc = s->score[y];
                ns = sc + wt;
                s->score[y] = ns;
                if (ns > 0 && 0 >= sc)
                    gv_add(s, y);
            }
            sc = s->score[x];
            ns = sc + wt;
            s->score[x] = ns;
            if (ns > 0 && 0 >= sc)
                gv_add(s, x);
            if (!s->soft_weight[c]) {
                set_add(s->fh_items, w->fh_pos, &s->fh_len, c);
            } else {
                fs_add(s, c);
                s->soft_falsified_weight += s->soft_weight[c];
            }
        } else if (k == 2) {
            /* t is the one true variable left in c */
            wt = s->dyn_weight[c];
            sc = s->score[t];
            s->score[t] = sc - wt;
            if (0 < sc && sc <= wt)
                gv_discard(s, t);
        }
    }

    s->flips++;
    if (s->fh_len || s->never_feasible)
        return;
    {
        int64_t cost = s->soft_falsified_weight + s->offset;
        if (!s->has_best || cost < s->best_cost) {
            s->best_cost = cost;
            s->has_best = 1;
            memcpy(s->best_assign, s->assign, (size_t)s->n + 1);
        }
    }
}

/* dyn_weight[c] += inc, and the scores of c's variables with it */
static void bump(struct fk_state *s, int32_t c, int64_t inc)
{
    struct fk_work *w = s->work;
    int64_t j, sc, ns;
    s->dyn_weight[c] += inc;
    if (s->dyn_weight[c] > w->wmax)
        w->wmax = s->dyn_weight[c];
    bit_put(w->raised, c, 1); /* inc >= 1 */
    for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
        int32_t y = var_of(s->lits[j]);
        sc = s->score[y];
        ns = sc + inc;
        s->score[y] = ns;
        if (ns > 0 && 0 >= sc)
            gv_add(s, y);
    }
}

static void update_weights(struct fk_state *s)
{
    struct fk_work *w = s->work;
    int64_t i, sc, ns;
    if (rng_random(s) < s->sp) {
        /* The set bits of raised, in clause order: the clauses of the
           reference's pass over all m that are above their initial
           weight.  A clause smoothed back down to it leaves raised. */
        for (i = 0; i < s->m; i += 64) {
            uint64_t word = w->raised[i >> 6];
            while (word) {
                int64_t c = i + lowest_bit(word);
                word &= word - 1;
                if (s->sat_count[c] == 0)
                    continue;
                if (--s->dyn_weight[c] == s->init_weight[c])
                    bit_put(w->raised, c, 0);
                if (s->sat_count[c] == 1) {
                    int32_t z = s->tv[c];
                    sc = s->score[z];
                    ns = sc + 1;
                    s->score[z] = ns;
                    if (ns > 0 && sc <= 0)
                        gv_add(s, z);
                }
            }
        }
        return;
    }
    /* Hard clauses (no cap), then soft clauses below soft_cap: the set
       bits of fs_open, in position order, which is the order of the
       reference's filtered pass.  Smoothing lowers only satisfied
       clauses, so it never changes fs_open. */
    for (i = 0; i < s->fh_len; i++)
        bump(s, s->fh_items[i], s->hard_weight);
    for (i = 0; i < s->fs_len; i += 64) {
        uint64_t word = w->fs_open[i >> 6];
        while (word) {
            int64_t p = i + lowest_bit(word);
            int32_t c = s->fs_items[p];
            word &= word - 1;
            bump(s, c, 1);
            if (s->dyn_weight[c] >= s->soft_cap)
                bit_put(w->fs_open, p, 0);
        }
    }
}

static void delta_add(struct fk_work *w, int64_t *nkeys, int32_t y, int64_t d)
{
    if (!w->dmark[y]) {
        w->dmark[y] = 1;
        w->dval[y] = d;
        w->dkeys[(*nkeys)++] = y;
    } else {
        w->dval[y] += d;
    }
}

/* probed_positive_scores(x): fills pkeys/pvals, returns their count */
static int64_t probe(struct fk_state *s, int32_t x)
{
    struct fk_work *w = s->work;
    const int32_t *inc_list, *dec_list;
    int64_t inc_len, dec_len, i, j, nkeys = 0, npos = 0;
    inc_list = occ_list(s, x, s->assign[x], &inc_len);
    dec_list = occ_list(s, x, !s->assign[x], &dec_len);
    for (i = 0; i < inc_len; i++) {
        int32_t c = inc_list[i];
        int32_t k = s->sat_count[c];
        if (k == 0) {
            int64_t wt = s->dyn_weight[c];
            for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
                int32_t y = var_of(s->lits[j]);
                if (y != x)
                    delta_add(w, &nkeys, y, -wt);
            }
        } else if (k == 1) {
            delta_add(w, &nkeys, s->tv[c], s->dyn_weight[c]);
        }
    }
    for (i = 0; i < dec_len; i++) {
        int32_t c = dec_list[i];
        int32_t k = s->sat_count[c];
        if (k == 1) {
            int64_t wt = s->dyn_weight[c];
            for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
                int32_t y = var_of(s->lits[j]);
                if (y != x)
                    delta_add(w, &nkeys, y, wt);
            }
        } else if (k == 2) {
            /* x and one other variable are true in c */
            delta_add(w, &nkeys, s->tv[c] ^ x, -s->dyn_weight[c]);
        }
    }
    for (i = 0; i < nkeys; i++) {
        int32_t y = w->dkeys[i];
        int64_t sc = s->score[y] + w->dval[y];
        if (sc > 0) {
            w->pkeys[npos] = y;
            w->pvals[npos++] = sc;
        }
    }
    for (i = 0; i < s->gv_len; i++) {
        int32_t y = s->gv_items[i];
        if (y != x && !w->dmark[y]) {
            w->pkeys[npos] = y;
            w->pvals[npos++] = s->score[y];
        }
    }
    for (i = 0; i < nkeys; i++)
        w->dmark[w->dkeys[i]] = 0;
    return npos;
}

/* -- solver --------------------------------------------------------------- */

/* the largest of vals[0..k) below bound, and in *ties how often it occurs */
static int64_t level_below(const int64_t *vals, int64_t k, int64_t bound,
                           int64_t *ties)
{
    int64_t i, level = 0, t = 0;
    for (i = 0; i < k; i++) {
        if (vals[i] >= bound)
            continue;
        if (t == 0 || vals[i] > level) {
            level = vals[i];
            t = 1;
        } else if (vals[i] == level) {
            t++;
        }
    }
    *ties = t;
    return level;
}

/* bms_pick over the probe result; returns an index into pkeys/pvals.
   pow is the libm function CPython's float ** int calls, so both engines
   compare random() with the same double. */
static int64_t bms_pick(struct fk_state *s, int64_t k)
{
    const int64_t *vals = s->work->pvals;
    int64_t i, t, pick, level, remaining = k;
    if (k == 1)
        return 0;
    level = level_below(vals, k, INT64_MAX, &t);
    while (t < remaining) {
        if (rng_random(s) >= pow((double)(remaining - t) / (double)remaining,
                                 (double)s->sv_num))
            break;
        remaining -= t;
        level = level_below(vals, k, level, &t);
    }
    pick = t == 1 ? 0 : rng_randrange(s, t);
    for (i = 0;; i++)
        if (vals[i] == level && pick-- == 0)
            return i;
}

static int random_walk_escape(struct fk_state *s)
{
    int32_t c, x = 0;
    int64_t j, ties = 0, pick, best = 0;
    if (s->fh_len)
        c = rng_choose(s, s->fh_items, s->fh_len);
    else if (s->fs_len)
        c = rng_choose(s, s->fs_items, s->fs_len);
    else
        return 0;
    /* the tie list of the Python code: clause members at the maximum
       score, in clause order */
    for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
        int64_t sc = s->score[var_of(s->lits[j])];
        if (ties == 0 || sc > best) {
            best = sc;
            ties = 1;
        } else if (sc == best) {
            ties++;
        }
    }
    pick = ties == 1 ? 0 : rng_randrange(s, ties);
    for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
        x = var_of(s->lits[j]);
        if (s->score[x] == best && pick-- == 0)
            break;
    }
    flip(s, x);
    return 1;
}

static int fps_step(struct fk_state *s)
{
    struct fk_work *w = s->work;
    const int32_t *pool;
    int64_t pool_len, nfv = 0, i, t;
    int32_t v1, best_cand = 0, best_partner = 0;
    int64_t s1, s2 = 0;
    int have_pair = 0;

    if (s->gv_len) {
        flip(s, rng_choose(s, s->gv_items, s->gv_len));
        return 1;
    }
    if (!s->fh_len && !s->fs_len)
        return 0;
    update_weights(s);
    if (s->mode == MODE_SINGLE)
        return random_walk_escape(s);

    pool = s->fh_items;
    pool_len = s->fh_len;
    if (!pool_len) {
        pool = s->fs_items;
        pool_len = s->fs_len;
    }

    for (t = 0; t < s->sc_num; t++) {
        int32_t c = rng_choose(s, pool, pool_len);
        int64_t start = s->lit_start[c];
        int64_t len = s->lit_start[c + 1] - start;
        int32_t y = var_of(s->lits[start + (int64_t)(rng_random(s) * (double)len)]);
        if (!w->seen[y]) {
            w->seen[y] = 1;
            w->fv[nfv++] = y;
        }
    }
    for (i = 0; i < nfv; i++)
        w->seen[w->fv[i]] = 0;

    v1 = w->fv[0];
    s1 = s->score[v1];
    for (i = 1; i < nfv; i++) {
        int32_t y = w->fv[i];
        if (s->score[y] > s1) {
            v1 = y;
            s1 = s->score[y];
        }
    }

    for (i = 0; i < nfv; i++) {
        int32_t cand = w->fv[i], partner;
        int64_t npos = probe(s, cand), b, combined;
        if (!npos)
            continue;
        b = bms_pick(s, npos);
        partner = w->pkeys[b];
        combined = s->score[cand] + w->pvals[b];
        if (combined > 0) {
            flip(s, cand);
            flip(s, partner);
            return 1;
        }
        if (!have_pair || combined > s2) {
            s2 = combined;
            best_cand = cand;
            best_partner = partner;
            have_pair = 1;
        }
    }

    if (s->mode == MODE_FPS_RW)
        return random_walk_escape(s);
    if (!have_pair || s1 > s2) {
        flip(s, v1);
    } else {
        flip(s, best_cand);
        flip(s, best_partner);
    }
    return 1;
}

/* -- entry points --------------------------------------------------------- */

static double now_s(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

void fk_free(struct fk_state *s)
{
    struct fk_work *w = s->work;
    free(s->init_weight);
    free(s->dyn_weight);
    free(s->assign);
    free(s->best_assign);
    free(s->sat_count);
    free(s->tv);
    free(s->score);
    free(s->fh_items);
    free(s->fs_items);
    free(s->gv_items);
    s->init_weight = s->dyn_weight = s->score = NULL;
    s->assign = s->best_assign = NULL;
    s->sat_count = s->tv = s->fh_items = s->fs_items = s->gv_items = NULL;
    if (!w)
        return;
    free(w->occ_start);
    free(w->occ);
    free(w->fh_pos);
    free(w->fs_pos);
    free(w->gv_pos);
    free(w->dval);
    free(w->dmark);
    free(w->dkeys);
    free(w->pkeys);
    free(w->pvals);
    free(w->fv);
    free(w->seen);
    free(w->fs_open);
    free(w->raised);
    free(w);
    s->work = NULL;
}

/* Everything fk_init allocates; the caller frees a partial set with
   fk_free. */
static int allocate(struct fk_state *s)
{
    size_t n1 = (size_t)s->n + 1, m1 = (size_t)s->m + 1;
    struct fk_work *w = calloc(1, sizeof *w);
    s->work = w;
    if (!w)
        return FK_NOMEM;
    s->init_weight = malloc(m1 * sizeof *s->init_weight);
    s->dyn_weight = malloc(m1 * sizeof *s->dyn_weight);
    s->assign = calloc(n1, sizeof *s->assign);
    s->best_assign = calloc(n1, sizeof *s->best_assign);
    s->sat_count = malloc(m1 * sizeof *s->sat_count);
    s->tv = malloc(m1 * sizeof *s->tv);
    s->score = calloc(n1, sizeof *s->score);
    s->fh_items = malloc(m1 * sizeof *s->fh_items);
    s->fs_items = malloc(m1 * sizeof *s->fs_items);
    s->gv_items = malloc(n1 * sizeof *s->gv_items);
    w->occ_start = calloc(2 * n1 + 1, sizeof *w->occ_start);
    w->occ = malloc(((size_t)s->lit_start[s->m] + 1) * sizeof *w->occ);
    w->fh_pos = malloc(m1 * sizeof *w->fh_pos);
    w->fs_pos = malloc(m1 * sizeof *w->fs_pos);
    w->gv_pos = malloc(n1 * sizeof *w->gv_pos);
    w->dval = calloc(n1, sizeof *w->dval);
    w->dmark = calloc(n1, sizeof *w->dmark);
    w->dkeys = malloc(n1 * sizeof *w->dkeys);
    w->pkeys = malloc(n1 * sizeof *w->pkeys);
    w->pvals = malloc(n1 * sizeof *w->pvals);
    w->fv = malloc(n1 * sizeof *w->fv);
    w->seen = calloc(n1, sizeof *w->seen);
    w->fs_open = calloc((size_t)s->m / 64 + 1, sizeof *w->fs_open);
    w->raised = calloc((size_t)s->m / 64 + 1, sizeof *w->raised);
    if (!s->init_weight || !s->dyn_weight || !s->assign || !s->best_assign
        || !s->sat_count || !s->tv || !s->score || !s->fh_items
        || !s->fs_items || !s->gv_items || !w->occ_start || !w->occ
        || !w->fh_pos || !w->fs_pos || !w->gv_pos || !w->dval || !w->dmark
        || !w->dkeys || !w->pkeys || !w->pvals || !w->fv || !w->seen
        || !w->fs_open || !w->raised)
        return FK_NOMEM;
    return FK_OK;
}

/* Occurrence lists in clause order.  Every clause needs a literal, every
   literal a variable in 1..n, and no variable may occur twice in a clause
   (tv needs it); the Python engine is left to report anything else.
   Sets *max_occ to the longest list of a variable (both signs). */
static int build_occurrences(struct fk_state *s, int64_t *max_occ)
{
    struct fk_work *w = s->work;
    int64_t n = s->n, c, j, x, *cursor;
    for (c = 0; c < s->m; c++) {
        if (s->lit_start[c + 1] <= s->lit_start[c])
            return FK_BADINPUT;
        for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
            int32_t lit = s->lits[j];
            if (lit == 0 || lit < -n || lit > n)
                return FK_BADINPUT;
            w->occ_start[2 * (int64_t)var_of(lit) + (lit < 0) + 1]++;
        }
    }
    for (x = 0; x < 2 * n + 2; x++)
        w->occ_start[x + 1] += w->occ_start[x];
    *max_occ = 1;
    for (x = 1; x <= n; x++)
        if (w->occ_start[2 * x + 2] - w->occ_start[2 * x] > *max_occ)
            *max_occ = w->occ_start[2 * x + 2] - w->occ_start[2 * x];
    /* fill using a running cursor per list; a clause already at the end
       of either list of x names x a second time */
    cursor = malloc((size_t)(2 * n + 2) * sizeof *cursor);
    if (!cursor)
        return FK_NOMEM;
    memcpy(cursor, w->occ_start, (size_t)(2 * n + 2) * sizeof *cursor);
    for (c = 0; c < s->m; c++)
        for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
            int32_t lit = s->lits[j];
            int64_t *pair = cursor + 2 * (int64_t)var_of(lit);
            const int64_t *first = w->occ_start + 2 * (int64_t)var_of(lit);
            if ((pair[0] > first[0] && w->occ[pair[0] - 1] == c)
                || (pair[1] > first[1] && w->occ[pair[1] - 1] == c)) {
                free(cursor);
                return FK_BADINPUT;
            }
            w->occ[pair[lit < 0]++] = (int32_t)c;
        }
    free(cursor);
    return FK_OK;
}

int fk_init(struct fk_state *s)
{
    struct fk_work *w;
    int64_t n = s->n, m = s->m, c, j, x, max_occ;
    int rc;
    if ((rc = allocate(s)) != FK_OK
        || (rc = build_occurrences(s, &max_occ)) != FK_OK)
        return rc;
    w = s->work;

    /* Initial weights: hard clauses hard_weight, soft ones their weight.
       |score[y]| <= occurrences(y) * max dyn_weight, so keeping
       max dyn_weight below WEIGHT_BOUND / max_occ keeps every score, and
       the sum of two, inside int64.  The largest bump is hard_weight. */
    w->wmax = 1;
    for (c = 0; c < m; c++) {
        int64_t wt = s->soft_weight[c] ? s->soft_weight[c] : s->hard_weight;
        s->init_weight[c] = s->dyn_weight[c] = wt;
        if (wt > w->wmax)
            w->wmax = wt;
    }
    w->weight_limit = WEIGHT_BOUND / max_occ;
    if (w->wmax >= w->weight_limit || s->hard_weight >= w->weight_limit)
        return FK_TOOHEAVY;

    for (x = 1; x <= n; x++)
        s->assign[x] = rng_random(s) < 0.5;
    for (c = 0; c < m; c++)
        w->fh_pos[c] = w->fs_pos[c] = -1;
    for (x = 0; x <= n; x++)
        w->gv_pos[x] = -1;
    s->fh_len = s->fs_len = s->gv_len = 0;
    s->soft_falsified_weight = 0;
    for (c = 0; c < m; c++) {
        int32_t cnt = 0, t = 0;
        for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++) {
            int32_t lit = s->lits[j];
            if (s->assign[var_of(lit)] == (lit > 0)) {
                cnt++;
                t ^= var_of(lit);
            }
        }
        s->sat_count[c] = cnt;
        s->tv[c] = t;
        if (cnt == 0) {
            for (j = s->lit_start[c]; j < s->lit_start[c + 1]; j++)
                s->score[var_of(s->lits[j])] += s->dyn_weight[c];
            if (!s->soft_weight[c]) {
                set_add(s->fh_items, w->fh_pos, &s->fh_len, (int32_t)c);
            } else {
                set_add(s->fs_items, w->fs_pos, &s->fs_len, (int32_t)c);
                s->soft_falsified_weight += s->soft_weight[c];
            }
        } else if (cnt == 1) {
            s->score[t] -= s->dyn_weight[c];
        }
    }
    for (x = 1; x <= n; x++)
        if (s->score[x] > 0)
            gv_add(s, (int32_t)x);
    /* not through fs_add: a second caller keeps gcc from inlining it into
       flip, which cost the walk 3% of its flips/s */
    for (j = 0; j < s->fs_len; j++)
        bit_put(w->fs_open, j, s->dyn_weight[s->fs_items[j]] < s->soft_cap);

    s->flips = 0;
    s->has_best = !s->never_feasible && !s->fh_len;
    s->best_cost = s->has_best ? s->soft_falsified_weight + s->offset : 0;
    if (s->has_best)
        memcpy(s->best_assign, s->assign, (size_t)n + 1);
    return FK_OK;
}

/* Clock cadence of fk_run: it reads the clock every stride steps.  The
   stride doubles while reads come less than CLOCK_MIN_S apart and halves
   when they come more than CLOCK_MAX_S apart, so a run ends about one
   read interval after its time limit or slice: tens of microseconds, or
   a few steps when single steps take longer than that. */
#define CLOCK_MIN_S 20e-6
#define CLOCK_MAX_S 80e-6
#define STRIDE_MAX 1024

/* Advance the search until one of the FK_* events.  max_flips < 0 means
   no flip budget; remaining_s is the time left of the run's limit.  The
   flip budget is checked before every step, the clock before the first
   and then every stride steps. */
int fk_run(struct fk_state *s, int64_t max_flips, double remaining_s,
           double slice_s)
{
    struct fk_work *w = s->work;
    int64_t inc = s->hard_weight; /* the largest bump */
    int64_t stride = 1, countdown = 1;
    double start = now_s(), last = start;
    for (;;) {
        int64_t has_best = s->has_best, best_cost = s->best_cost;
        if (max_flips >= 0 && s->flips >= max_flips)
            return FK_BUDGET;
        if (--countdown == 0) {
            double now = now_s();
            if (now - start >= remaining_s)
                return FK_BUDGET;
            if (now - start >= slice_s)
                return FK_SLICE;
            if (now - last < CLOCK_MIN_S && stride < STRIDE_MAX)
                stride *= 2;
            else if (now - last > CLOCK_MAX_S && stride > 1)
                stride /= 2;
            last = now;
            countdown = stride;
        }
        if (w->wmax >= w->weight_limit - inc)
            return FK_HANDBACK;
        if (!fps_step(s))
            return FK_DONE;
        if (s->has_best != has_best || s->best_cost != best_cost)
            return FK_IMPROVED;
    }
}
