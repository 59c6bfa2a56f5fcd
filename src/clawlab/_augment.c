/* Compiled kernels for clawlab: canonical augmentation, the per-graph
   predicates, the per-level screens and the graph6 encoder.

   Eight entries, all METH_FASTCALL:

   canon_form(n, adj) -> (rows, perm)
       The same canonical relabelling as the pure kernels.canon_form:
       split-only refinement, sibling skipping and the first leaf of least
       certificate.  A refinement round with at most 8 split fragments
       packs each vertex's counts into one word and compares words; a
       longer one compares its count bytes in order.  Either way the
       fragments come in the pure order.

   augment(m, parents, plans, min_alpha, connected) -> [rows, ...]
       The pure kernels.pure_augment, step for step: one enumeration level
       on the alpha tree or, with connected, the connected tree, the
       accepted canonical rows of the parents' one-vertex extensions, as
       the next level: sorted, as sorted() sorts the row tuples.  Each
       accepted child is kept as n words and the words are sorted once at
       the end; no class comes from two parents.  Per parent:
       analysis (degree classes, each vertex's higher twins, R grown by
       one independent-set search per vertex not yet in it and, on the
       connected tree, the parent's cut vertices), obstruction listing,
       the pairs sorted by the bit length of S, and the mask walk (walk,
       the pure kernels._walk): vertices decided in index order, taken
       before left out, each pair's mask & S == T test at the vertex
       where its S is decided, the twin rule (leaving a vertex
       out bans its higher twins) and the popcount floor of stage 1.  At
       each leaf: stages 1 and 2, labelling, dedup and the acceptance
       test (a connectivity test of child - w on the connected tree, and
       one search for an independent (a - 1)-set missing mask | w per
       step down the canonical positions) with its deletion check.  plans
       is kernels.obstruction_plans of the patterns, built in Python,
       which alone reads a pattern's orbits; one embedding search
       (list_from, the pure kernels._embed: twin images ascending) lists
       the obstructions from them.

   max_clique(n, adj, complement=False) -> mask
       The pure kernels.max_clique: the same greedy-colour order and the
       same first maximum clique, of the graph or, with a truthy
       complement, of its complement, whose rows are built here.

   color_with(n, adj, k) -> tuple or None
       The pure kernels.color_with: the same DSATUR choice, tie-breaks and
       colour order.  Any k >= n acts as k = n, which the search never
       exceeds.

   induced_cycles(n, adj, min_len, max_len) -> [tuple, ...]
       The pure kernels.induced_cycles: the same cycles in the same order
       and orientation.

   odd_hole(n, adj, complement) -> tuple or None
       The pure kernels.odd_hole: the shortest odd induced cycle of length
       >= 5, the lex-least of its length, of the graph or, with a truthy
       complement, of its complement, whose rows are built here.  It runs
       the same grower as induced_cycles with the odd-hole leaf.

   graph6(n, adj) -> str
       The pure kernels.graph6: the same graph6 string, byte for byte, from
       the same bits (the low c bits of row c), built in a fixed buffer of
       at most 4 + 336 bytes.

   flag_level(n, level, test) -> [index, ...]
       The pure kernels.pure_flag_level: the indices, ascending, of the
       graphs of one level (row sequences, each on n vertices) that a
       campaign's check reports.  test 0 flags chi > omega, an odd hole or
       an odd antihole (verify._check_perfect_class), by expand, dsatur at
       k = omega and the odd-hole leaf on the graph and on its complement;
       test 1 flags a bad cycle neighbourhood (verify._check_obs2): a vertex
       x off an induced cycle of length >= 5 whose neighbourhood on it is
       not K2, P3, P4, C5 or 2K2 (Observation 2), by the grower's
       bad-neighbourhood leaf, which applies the rule of
       kernels.neighborhood_shape to each cycle closed and stops at the
       first bad pair.  Each graph's rows are read once, and no Python
       object is made for a cycle or for a graph that passes.

   Graphs are vertex counts and per-vertex neighbour bitmasks, one 64-bit
   word per row.  Every input is checked before it is used: an
   out-of-range input raises ValueError and nothing here writes outside
   its arrays.  augment checks each plan once per call, so that its
   embedding search reads only what it has written, and each parent when
   it reaches it, as flag_level reads each graph; a bad parent or graph
   ends the call with nothing returned.  The GIL is held throughout, no
   entry calls back into Python and no state is kept between calls. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXN 64
#define MAXP 16

typedef uint64_t word;

static inline int popc(word x) { return __builtin_popcountll(x); }
static inline int low_index(word x) { return __builtin_ctzll(x); }
static inline word all_of(int n) { return n >= 64 ? ~(word)0 : ((word)1 << n) - 1; }

/* ---- argument checks ------------------------------------------------- */

/* An int, saturated to LONG_MIN..LONG_MAX, into *out: 0, or -1 with
   ValueError set. */
static int read_int(PyObject *obj, long *out, const char *what)
{
    int overflow = 0;
    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_ValueError, "%s must be an int", what);
        return -1;
    }
    long v = PyLong_AsLongAndOverflow(obj, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *out = overflow > 0 ? LONG_MAX : overflow < 0 ? LONG_MIN : v;
    return 0;
}

/* An int in lo..hi, or -1 with ValueError set. */
static long read_small(PyObject *obj, long lo, long hi, const char *what)
{
    long v;
    if (read_int(obj, &v, what) < 0)
        return -1;
    if (v < lo || v > hi) {
        PyErr_Format(PyExc_ValueError, "%s must be an int in %ld..%ld", what, lo, hi);
        return -1;
    }
    return v;
}

/* Exactly `count` rows, each an int with no bit at position `width` or
   above, into out.  0 or -1 with ValueError set. */
static int read_rows(PyObject *seq, long count, int width, word *out, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, "");
    if (fast == NULL) {
        if (!PyErr_ExceptionMatches(PyExc_TypeError))
            return -1;
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "%s must be a sequence of %ld ints", what, count);
        return -1;
    }
    if (PySequence_Fast_GET_SIZE(fast) != count) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s must hold %ld rows", what, count);
        return -1;
    }
    for (long i = 0; i < count; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, i);
        word row = PyLong_Check(item) ? PyLong_AsUnsignedLongLong(item) : (word)-1;
        if (row == (word)-1 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError)) {
                Py_DECREF(fast);
                return -1;
            }
            PyErr_Clear(); /* negative or wider than 64 bits */
        } else if (PyLong_Check(item) && !(row & ~all_of(width))) {
            out[i] = row;
            continue;
        }
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s row %ld must be an int in 0..2**%d - 1", what, i, width);
        return -1;
    }
    Py_DECREF(fast);
    return 0;
}

/* The (n, adj) that every graph entry starts with, adj into out: n, or -1
   with an exception set. */
static long read_graph(PyObject *const *args, Py_ssize_t nargs, Py_ssize_t want, const char *usage, word *out)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s takes %zd arguments", usage, want);
        return -1;
    }
    long n = read_small(args[0], 0, MAXN, "n");
    if (n < 0 || read_rows(args[1], n, (int)n, out, "adj") < 0)
        return -1;
    return n;
}

/* ---- canonical labelling --------------------------------------------- */

/* The vertex keys of one refinement round: with at most PACKED split
   fragments, each key is one word of 8-bit counts, the first fragment's
   the most significant, so words compare as the count sequences do;
   otherwise the counts are bytes, compared in order. */
#define PACKED 8

typedef struct {
    int nsplit;
    word packed[MAXN];
    uint8_t bytes[MAXN][MAXN];
} Keys;

/* The sign of key a less key b. */
static inline int key_cmp(const Keys *ks, int a, int b)
{
    if (ks->nsplit <= PACKED)
        return (ks->packed[a] > ks->packed[b]) - (ks->packed[a] < ks->packed[b]);
    const uint8_t *x = ks->bytes[a], *y = ks->bytes[b];
    for (int j = 0; j < ks->nsplit; j++)
        if (x[j] != y[j])
            return x[j] < y[j] ? -1 : 1;
    return 0;
}

/* Split the cells (an ordered partition as masks) until no cell splits;
   return the new cell count.  Each vertex of a non-singleton cell is keyed
   by its neighbour counts in the fragments `split` made in the previous
   round, and the cell splits in place, fragments in ascending key order;
   every fragment but the last is a split fragment of the next round. */
static int refine(const word *adj, word *cells, int ncells, const word *first, int nfirst)
{
    word split[MAXN], out[MAXN];
    Keys ks;
    int verts[MAXN], idx[MAXN];
    ks.nsplit = nfirst;
    memcpy(split, first, nfirst * sizeof *split);
    for (;;) {
        int nout = 0, nnext = 0, nsplit = ks.nsplit;
        word next[MAXN];
        for (int c = 0; c < ncells; c++) {
            word cell = cells[c];
            if (!(cell & (cell - 1))) {
                out[nout++] = cell;
                continue;
            }
            int cnt = 0;
            for (word m = cell; m; m &= m - 1) {
                int v = low_index(m);
                if (nsplit <= PACKED) {
                    word key = 0;
                    for (int j = 0; j < nsplit; j++)
                        key = key << 8 | (word)popc(adj[v] & split[j]);
                    ks.packed[cnt] = key;
                } else {
                    for (int j = 0; j < nsplit; j++)
                        ks.bytes[cnt][j] = (uint8_t)popc(adj[v] & split[j]);
                }
                verts[cnt] = v;
                idx[cnt] = cnt;
                cnt++;
            }
            for (int i = 1; i < cnt; i++) {
                int x = idx[i], j = i;
                while (j > 0 && key_cmp(&ks, idx[j - 1], x) > 0) {
                    idx[j] = idx[j - 1];
                    j--;
                }
                idx[j] = x;
            }
            if (key_cmp(&ks, idx[0], idx[cnt - 1]) == 0) {
                out[nout++] = cell;
                continue;
            }
            word frag = (word)1 << verts[idx[0]];
            for (int i = 1; i < cnt; i++) {
                if (key_cmp(&ks, idx[i - 1], idx[i]) != 0) {
                    out[nout++] = frag;
                    next[nnext++] = frag;
                    frag = 0;
                }
                frag |= (word)1 << verts[idx[i]];
            }
            out[nout++] = frag;
        }
        memcpy(cells, out, nout * sizeof *out);
        if (nnext == 0)
            return nout;
        ncells = nout;
        ks.nsplit = nnext;
        memcpy(split, next, nnext * sizeof *split);
    }
}

typedef struct {
    int n;
    const word *adj;
    int have;
    word best[MAXN];   /* rows of the least certificate so far */
    uint8_t perm[MAXN]; /* its canonical position per vertex */
} Canon;

static void emit(Canon *cf, const word *cells)
{
    int n = cf->n;
    uint8_t col[MAXN];
    word rows[MAXN];
    for (int i = 0; i < n; i++)
        col[low_index(cells[i])] = (uint8_t)i;
    for (int v = 0; v < n; v++) {
        word row = 0;
        for (word m = cf->adj[v]; m; m &= m - 1)
            row |= (word)1 << col[low_index(m)];
        rows[col[v]] = row;
    }
    if (cf->have) {
        int i = 0;
        while (i < n && rows[i] == cf->best[i])
            i++;
        if (i == n || rows[i] > cf->best[i])
            return;
    }
    cf->have = 1;
    memcpy(cf->best, rows, n * sizeof *rows);
    memcpy(cf->perm, col, n);
}

/* Individualise each vertex of the first non-singleton cell in turn,
   skipping a vertex whose swap with an earlier sibling is an automorphism. */
static void search(Canon *cf, const word *cells, int ncells)
{
    const word *adj = cf->adj;
    if (ncells == cf->n) {
        emit(cf, cells);
        return;
    }
    int target = 0;
    while (!(cells[target] & (cells[target] - 1)))
        target++;
    word cell = cells[target];
    int reps[MAXN], nreps = 0;
    word child[MAXN];
    for (word m = cell; m; m &= m - 1) {
        int v = low_index(m);
        word low = (word)1 << v;
        int twin = 0;
        for (int i = 0; i < nreps && !twin; i++)
            twin = (adj[reps[i]] & ~low) == (adj[v] & ~((word)1 << reps[i]));
        if (twin)
            continue;
        reps[nreps++] = v;
        memcpy(child, cells, target * sizeof *cells);
        child[target] = low;
        child[target + 1] = cell ^ low;
        memcpy(child + target + 2, cells + target + 1, (ncells - target - 1) * sizeof *cells);
        search(cf, child, refine(adj, child, ncells + 1, &low, 1));
    }
}

/* Canonical rows into rows and canonical positions into perm (either may
   be NULL); n >= 1. */
static void canon(int n, const word *adj, word *rows, uint8_t *perm)
{
    Canon cf;
    word cells[MAXN];
    word everyone = all_of(n);
    cf.n = n;
    cf.adj = adj;
    cf.have = 0;
    cells[0] = everyone;
    search(&cf, cells, refine(adj, cells, 1, &everyone, 1));
    if (rows)
        memcpy(rows, cf.best, n * sizeof *rows);
    if (perm)
        memcpy(perm, cf.perm, n);
}

/* A tuple of count small ints. */
static PyObject *index_tuple(int count, const uint8_t *xs)
{
    PyObject *t = PyTuple_New(count);
    for (int i = 0; t && i < count; i++) {
        PyObject *x = PyLong_FromLong(xs[i]);
        if (x == NULL) {
            Py_CLEAR(t);
            break;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

static PyObject *rows_tuple(int n, const word *rows)
{
    PyObject *t = PyTuple_New(n);
    for (int i = 0; t && i < n; i++) {
        PyObject *x = PyLong_FromUnsignedLongLong(rows[i]);
        if (x == NULL) {
            Py_CLEAR(t);
            break;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

static PyObject *py_canon_form(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    word adj[MAXN], rows[MAXN];
    uint8_t perm[MAXN];
    long n = read_graph(args, nargs, 2, "canon_form(n, adj)", adj);
    if (n < 0)
        return NULL;
    if (n == 0)
        return Py_BuildValue("(()())");
    canon((int)n, adj, rows, perm);
    PyObject *rt = rows_tuple((int)n, rows);
    PyObject *pt = rt ? index_tuple((int)n, perm) : NULL;
    if (pt == NULL) {
        Py_XDECREF(rt);
        return NULL;
    }
    PyObject *out = PyTuple_Pack(2, rt, pt);
    Py_DECREF(rt);
    Py_DECREF(pt);
    return out;
}

/* ---- sets of fixed-width records ------------------------------------- */

typedef struct {
    int width;        /* words per record */
    word *data;       /* count * width words */
    size_t count, cap;
    uint32_t *slots;  /* record index + 1; 0 is empty */
    size_t nslots;    /* a power of two */
} RecordSet;

static size_t rs_hash(const word *rec, int width)
{
    word h = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < width; i++) {
        h ^= rec[i];
        h *= 0xBF58476D1CE4E5B9ull;
        h ^= h >> 31;
    }
    return (size_t)h;
}

/* Free the records; the set is then empty and can be used again. */
static void rs_free(RecordSet *rs)
{
    free(rs->data);
    free(rs->slots);
    *rs = (RecordSet){.width = rs->width};
}

/* Append rec, unhashed (a set that only rs_push fills is a plain list):
   0, or -1 out of memory. */
static int rs_push(RecordSet *rs, const word *rec)
{
    int w = rs->width;
    if (rs->count == rs->cap) {
        size_t cap = rs->cap ? 2 * rs->cap : 64;
        word *data = realloc(rs->data, cap * w * sizeof *data);
        if (data == NULL)
            return -1;
        rs->data = data;
        rs->cap = cap;
    }
    memcpy(rs->data + rs->count++ * w, rec, w * sizeof *rec);
    return 0;
}

/* 1 when rec is new (and now added), 0 when present, -1 out of memory. */
static int rs_add(RecordSet *rs, const word *rec)
{
    int w = rs->width;
    if (2 * (rs->count + 1) > rs->nslots) {
        size_t nslots = rs->nslots ? 2 * rs->nslots : 64;
        uint32_t *slots = calloc(nslots, sizeof *slots);
        if (slots == NULL)
            return -1;
        for (size_t i = 0; i < rs->count; i++) {
            size_t h = rs_hash(rs->data + i * w, w) & (nslots - 1);
            while (slots[h])
                h = (h + 1) & (nslots - 1);
            slots[h] = (uint32_t)(i + 1);
        }
        free(rs->slots);
        rs->slots = slots;
        rs->nslots = nslots;
    }
    size_t h = rs_hash(rec, w) & (rs->nslots - 1);
    while (rs->slots[h]) {
        if (memcmp(rs->data + (rs->slots[h] - 1) * w, rec, w * sizeof *rec) == 0)
            return 0;
        h = (h + 1) & (rs->nslots - 1);
    }
    if (rs_push(rs, rec) < 0)
        return -1;
    rs->slots[h] = (uint32_t)rs->count;
    return 1;
}

/* ---- obstruction plans (kernels.obstruction_plans) -------------------- */

/* Positions assigned in order (kernels._plan): per position its degree
   among the ordered vertices, the earlier positions adjacent (up) and not
   adjacent (down) to it, after: the latest earlier position holding a twin
   of it in the whole pattern (or -1), and near: whether it is adjacent to a
   vertex left out of the order. */
typedef struct {
    int k;
    uint8_t deg[MAXP];
    uint16_t up[MAXP], down[MAXP];
    int8_t after[MAXP];
    uint8_t near[MAXP];
} Plan;

#define PLAN_USAGE "plans must be a tuple of (degs, ups, downs, after, near) tuples"

/* The tuple of positions earlier than t into *mask: 0, or -1 with
   ValueError set. */
static int read_earlier(PyObject *positions, int t, uint16_t *mask, const char *what)
{
    if (!PyTuple_Check(positions)) {
        PyErr_Format(PyExc_ValueError, "%s must be a tuple of ints", what);
        return -1;
    }
    *mask = 0;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(positions); i++) {
        long s = read_small(PyTuple_GET_ITEM(positions, i), 0, t - 1, what);
        if (s < 0)
            return -1;
        *mask |= (uint16_t)(1u << s);
    }
    return 0;
}

/* One plan tuple into pl, checked so that the embedding search reads
   only what it has written: at most MAXP - 1 positions, degrees in
   0..MAXP (the range of the degree masks), and up, down and after
   positions earlier than their own.  0, or -1 with ValueError set. */
static int read_plan(PyObject *obj, Plan *pl)
{
    if (!PyTuple_Check(obj) || PyTuple_GET_SIZE(obj) != 5) {
        PyErr_SetString(PyExc_ValueError, PLAN_USAGE);
        return -1;
    }
    PyObject *field[5];
    for (int f = 0; f < 5; f++) {
        field[f] = PyTuple_GET_ITEM(obj, f);
        if (!PyTuple_Check(field[f]) || PyTuple_GET_SIZE(field[f]) != PyTuple_GET_SIZE(field[0])) {
            PyErr_SetString(PyExc_ValueError, "plan fields must be tuples of equal length");
            return -1;
        }
    }
    if (PyTuple_GET_SIZE(field[0]) > MAXP - 1) {
        PyErr_Format(PyExc_ValueError, "plan positions must be at most %d", MAXP - 1);
        return -1;
    }
    pl->k = (int)PyTuple_GET_SIZE(field[0]);
    for (int t = 0; t < pl->k; t++) {
        long deg = read_small(PyTuple_GET_ITEM(field[0], t), 0, MAXP, "plan degree"), after, near;
        if (deg < 0 || read_earlier(PyTuple_GET_ITEM(field[1], t), t, &pl->up[t], "plan up position") < 0
            || read_earlier(PyTuple_GET_ITEM(field[2], t), t, &pl->down[t], "plan down position") < 0
            || read_int(PyTuple_GET_ITEM(field[3], t), &after, "plan after position") < 0
            || (near = read_small(PyTuple_GET_ITEM(field[4], t), 0, 1, "plan near flag")) < 0)
            return -1;
        if (after < -1 || after >= t) {
            PyErr_Format(PyExc_ValueError, "plan after position must be an int in -1..%d", t - 1);
            return -1;
        }
        pl->deg[t] = (uint8_t)deg;
        pl->after[t] = (int8_t)after;
        pl->near[t] = (uint8_t)near;
    }
    return 0;
}

/* The plans tuple into *out, a PyMem array of *count plans: 0, or -1 with
   an exception set. */
static int read_plans(PyObject *obj, Plan **out, Py_ssize_t *count)
{
    if (!PyTuple_Check(obj)) {
        PyErr_SetString(PyExc_ValueError, PLAN_USAGE);
        return -1;
    }
    *count = PyTuple_GET_SIZE(obj);
    *out = PyMem_Malloc((*count ? *count : 1) * sizeof **out);
    if (*out == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < *count; i++) {
        if (read_plan(PyTuple_GET_ITEM(obj, i), &(*out)[i]) < 0) {
            PyMem_Free(*out);
            return -1;
        }
    }
    return 0;
}

/* atleast[d]: the vertices of degree at least d, d in 0..top. */
static void degree_masks(int n, const word *adj, int top, word *atleast)
{
    for (int d = 0; d <= top; d++)
        atleast[d] = 0;
    for (int v = 0; v < n; v++) {
        int d = popc(adj[v]);
        atleast[d < top ? d : top] |= (word)1 << v;
    }
    for (int d = top - 1; d >= 0; d--)
        atleast[d] |= atleast[d + 1];
}

/* ---- the embedding search (kernels._embed) --------------------------- */

/* The twin-ordered induced embeddings of a plan into a host, in
   lexicographic order of the images by position.  Each adds its (S, T)
   pair to pairs: the bitmask of the images and of the images of near
   positions (img holds the images). */
typedef struct {
    const word *adj;
    const Plan *pl;
    word roots[MAXP], nb[MAXP];
    int img[MAXP];
    RecordSet *pairs;
} Lister;

static int list_from(Lister *ls, int t, word used, word touch)
{
    const Plan *pl = ls->pl;
    word cand = ls->roots[t] & ~used;
    for (unsigned m = pl->up[t]; m; m &= m - 1)
        cand &= ls->nb[low_index(m)];
    for (unsigned m = pl->down[t]; m; m &= m - 1)
        cand &= ~ls->nb[low_index(m)];
    if (pl->after[t] >= 0)
        cand &= ~((((word)2) << ls->img[pl->after[t]]) - 1);
    while (cand) {
        word low = cand & -cand;
        cand ^= low;
        word reach = pl->near[t] ? touch | low : touch;
        int v = low_index(low);
        ls->img[t] = v;
        if (t + 1 == pl->k) {
            word pair[2] = {used | low, reach};
            if (rs_add(ls->pairs, pair) < 0)
                return 1;
            continue;
        }
        ls->nb[t] = ls->adj[v];
        if (list_from(ls, t + 1, used | low, reach))
            return 1;
    }
    return 0;
}

/* ---- obstruction listing (kernels.extension_obstructions) ------------- */

/* Every (S, T) pair of the plans against the graph, skipping a plan of
   more than n positions; a plan of no positions gives (0, 0).  -1 out of
   memory. */
static int list_obstructions(int n, const word *adj, const Plan *plans, Py_ssize_t nplans, RecordSet *pairs)
{
    Lister ls = {.adj = adj, .pairs = pairs};
    word atleast[MAXP + 1], none[2] = {0, 0};
    degree_masks(n, adj, MAXP, atleast);
    for (Py_ssize_t i = 0; i < nplans; i++) {
        const Plan *pl = &plans[i];
        if (pl->k > n)
            continue;
        ls.pl = pl;
        for (int t = 0; t < pl->k; t++)
            ls.roots[t] = atleast[pl->deg[t]];
        if (pl->k ? list_from(&ls, 0, 0, 0) : rs_add(pairs, none) < 0)
            return -1;
    }
    return 0;
}

/* ---- augment ---------------------------------------------------------- */

/* Whether avail holds an independent set of `size` vertices; its vertices
   are or-ed into found (kernels._independent). */
static int independent(const word *adj, word avail, int size, word *found)
{
    if (size <= 0)
        return 1;
    while (popc(avail) >= size) {
        int v = low_index(avail);
        avail &= avail - 1;
        if (independent(adj, avail & ~adj[v], size - 1, found)) {
            *found |= (word)1 << v;
            return 1;
        }
    }
    return 0;
}

/* Whether the vertices of keep induce a connected graph (none or one
   counts), as kernels._spans. */
static int spans(const word *adj, word keep)
{
    word seen = keep & -keep, frontier = seen;
    while (frontier) {
        word reach = 0;
        for (; frontier; frontier &= frontier - 1)
            reach |= adj[low_index(frontier)];
        frontier = reach & keep & ~seen;
        seen |= frontier;
    }
    return seen == keep;
}

/* Whether a rival (child degree k) has a higher profile than the new
   vertex joined to mask: neighbour counts in the child's degree classes up
   to k, read off the parent's classes (kernels._outranked). */
static int outranked(const word *parent, int m, const word *by_deg, const word *below, word mask, int k, word rivals)
{
    word fresh = (word)1 << m, classes[MAXN + 1];
    int mine[MAXN + 1];
    for (int d = 0; d <= k; d++)
        classes[d] = (by_deg[d] & ~mask) | (below[d] & mask);
    classes[k] |= fresh;
    for (int d = 0; d <= k; d++)
        mine[d] = popc(mask & classes[d]);
    for (; rivals; rivals &= rivals - 1) {
        int v = low_index(rivals);
        word row = (mask >> v) & 1 ? parent[v] | fresh : parent[v];
        for (int d = 0; d <= k; d++) {
            int c = popc(row & classes[d]);
            if (c != mine[d]) {
                if (c > mine[d])
                    return 1;
                break;
            }
        }
    }
    return 0;
}

typedef struct {
    int m;
    const word *parent;
    const Plan *plans;
    Py_ssize_t nplans;
    long min_alpha;
    int connected;              /* the connected tree */
    word deletable;             /* R */
    word rival;                 /* R, less the cut vertices when connected */
    word by_deg[MAXN + 1], below[MAXN + 2], atleast[MAXN + 2];
    int lo;                     /* the walk's popcount floor */
    word higher[MAXN];          /* per vertex, its higher false or true twins */
    RecordSet pairs, seen;
    word *blocks;               /* the pairs by the bit length of S, a PyMem array */
    size_t start[MAXN + 2];     /* bit length v's pairs: blocks[2 * start[v]..] */
    RecordSet found;            /* the accepted children's rows, all parents */
} Augment;

/* The parent analysis of kernels.pure_augment: 0, or 1 when the parent
   has no children (disconnected on the connected tree). */
static int analyse(Augment *a)
{
    int m = a->m;
    const word *parent = a->parent;
    word everyone = all_of(m);
    if (a->connected && !spans(parent, everyone))
        return 1;
    memset(a->by_deg, 0, sizeof a->by_deg);
    for (int v = 0; v < m; v++)
        a->by_deg[popc(parent[v])] |= (word)1 << v;
    /* below[d] = by_deg[d - 1]; below[0] keeps py_augment's zero */
    memcpy(a->below + 1, a->by_deg, sizeof a->by_deg);
    degree_masks(m, parent, m + 1, a->atleast);
    /* R = {v : alpha(P - v) >= a}: an independent a-set avoiding v puts
       every vertex outside it in R */
    a->deletable = everyone;
    if (a->min_alpha > 1) {
        a->deletable = 0;
        for (int v = 0; v < m; v++) {
            word set = 0;
            if (!((a->deletable >> v) & 1) && independent(parent, everyone & ~((word)1 << v), (int)a->min_alpha, &set))
                a->deletable |= everyone & ~set;
        }
    }
    a->rival = a->deletable;
    for (int v = 0; a->connected && v < m; v++)
        if (!spans(parent, everyone & ~((word)1 << v)))
            a->rival &= ~((word)1 << v);
    int top = 0;
    for (int d = 0; d < m; d++)
        if (a->by_deg[d] & a->rival)
            top = d;
    a->lo = a->connected && top < 2 ? 2 : top;
    /* twins (kernels._twins): equal rows apart from each other */
    for (int v = 0; v < m; v++) {
        a->higher[v] = 0;
        for (int u = v + 1; u < m; u++)
            if ((parent[v] & ~((word)1 << u)) == (parent[u] & ~((word)1 << v)))
                a->higher[v] |= (word)1 << u;
    }
    return 0;
}

/* The bit length of x: 0 for 0 (where clz is undefined). */
static inline int bit_length(word x) { return x ? 64 - __builtin_clzll(x) : 0; }

/* List the parent's pairs and copy them into blocks by the bit length of
   S (a counting sort): 0, or -1 out of memory. */
static int list_pairs(Augment *a)
{
    if (list_obstructions(a->m, a->parent, a->plans, a->nplans, &a->pairs) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    size_t count = a->pairs.count, *start = a->start, fill[MAXN + 2];
    const word *pairs = a->pairs.data;
    word *blocks = PyMem_Realloc(a->blocks, (count ? 2 * count : 1) * sizeof *blocks);
    if (blocks == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    a->blocks = blocks;
    memset(start, 0, sizeof a->start);
    for (size_t i = 0; i < count; i++)
        start[bit_length(pairs[2 * i]) + 1]++;
    for (int v = 0; v <= a->m; v++)
        start[v + 1] += start[v];
    memcpy(fill, start, sizeof fill);
    for (size_t i = 0; i < count; i++) {
        size_t j = fill[bit_length(pairs[2 * i])]++;
        blocks[2 * j] = pairs[2 * i];
        blocks[2 * j + 1] = pairs[2 * i + 1];
    }
    return 0;
}

/* One leaf of the walk through stages 1 and 2, labelling, dedup and
   acceptance; -1 on error. */
static int try_mask(Augment *a, word mask)
{
    int m = a->m, n = m + 1, k = popc(mask);
    const word *parent = a->parent;
    word ranked = a->connected && k == 1 ? a->rival & ~mask : a->rival;
    if (ranked & ((a->atleast[k + 1] & ~mask) | (a->atleast[k] & mask)))
        return 0;
    word rivals = ranked & ((a->by_deg[k] & ~mask) | (a->below[k] & mask));
    if (rivals && outranked(parent, m, a->by_deg, a->below, mask, k, rivals))
        return 0;
    word adj[MAXN], cert[MAXN];
    uint8_t perm[MAXN];
    for (int v = 0; v < m; v++)
        adj[v] = parent[v] | (((mask >> v) & 1) << m);
    adj[m] = mask;
    canon(n, adj, cert, perm);
    int added = rs_add(&a->seen, cert);
    if (added <= 0) {
        if (added < 0)
            PyErr_NoMemory();
        return added;
    }
    /* walk down to w, the canonically last vertex of D(child) */
    int inv[MAXN] = {0};
    for (int v = 0; v < n; v++)
        inv[perm[v]] = v;
    int pos = m, w = inv[pos];
    while (w != m) {
        if (!a->connected || spans(adj, all_of(n) & ~((word)1 << w))) {
            word set = 0;
            if ((a->deletable >> w) & 1)
                break;
            if (independent(parent, all_of(m) & ~(mask | (word)1 << w), (int)a->min_alpha - 1, &set))
                break;
        }
        w = inv[--pos];
    }
    if (w != m) {
        word rest[MAXN], rows[MAXN];
        for (int v = 0, i = 0; v < n; v++) {
            if (v == w)
                continue;
            word row = adj[v];
            rest[i++] = (row & (((word)1 << w) - 1)) | ((row >> w >> 1) << w);
        }
        canon(m, rest, rows, NULL);
        if (memcmp(rows, parent, m * sizeof *rows) != 0)
            return 0;
    }
    if (rs_push(&a->found, cert) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

/* The mask walk (kernels._walk) from vertex v, the vertices below it
   decided.  The branch ends when its popcount plus the undecided vertices
   is below lo (below 1 while its popcount is under 2 on the connected
   tree), or when mask & S == T for a pair whose S has bit length v, so
   that every vertex of S is decided.  Otherwise v is taken, unless a
   lower twin was left out, and then left out, which bans its higher
   twins.  Each leaf goes to try_mask.  -1 on error. */
static int walk(Augment *a, int v, word mask, word banned, int count)
{
    if (count + a->m - v < (a->connected && count < 2 ? 1 : a->lo))
        return 0;
    const word *pairs = a->blocks;
    for (size_t i = a->start[v]; i < a->start[v + 1]; i++)
        if ((mask & pairs[2 * i]) == pairs[2 * i + 1])
            return 0;
    if (v == a->m)
        return try_mask(a, mask);
    word bit = (word)1 << v;
    if (!(banned & bit) && walk(a, v + 1, mask | bit, banned, count + 1) < 0)
        return -1;
    return walk(a, v + 1, mask, banned | a->higher[v], count);
}

/* The record width record_cmp compares: set just before each sort, with
   the GIL held. */
static int sort_width;

/* Records in the order of their words, the first most significant. */
static int record_cmp(const void *a, const void *b)
{
    const word *x = a, *y = b;
    for (int i = 0; i < sort_width; i++)
        if (x[i] != y[i])
            return x[i] < y[i] ? -1 : 1;
    return 0;
}

/* The records as a list of row tuples, sorted: each record is a row tuple
   of one width, and ints below 2**64 compare as words, so this is the
   order of sorted() on the tuples.  NULL with an exception set. */
static PyObject *sorted_rows(RecordSet *rs)
{
    int w = rs->width;
    if (rs->count > 1) {
        sort_width = w;
        qsort(rs->data, rs->count, w * sizeof *rs->data, record_cmp);
    }
    PyObject *out = PyList_New((Py_ssize_t)rs->count);
    for (size_t i = 0; out && i < rs->count; i++) {
        PyObject *t = rows_tuple(w, rs->data + i * w);
        if (t == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, (Py_ssize_t)i, t);
    }
    return out;
}

static PyObject *py_augment(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "augment(m, parents, plans, min_alpha, connected) takes 5 arguments");
        return NULL;
    }
    long m = read_small(args[0], 0, MAXN - 1, "m");
    if (m < 0)
        return NULL;
    long min_alpha;
    if (read_int(args[3], &min_alpha, "min_alpha") < 0)
        return NULL;
    if (min_alpha < 0) {
        PyErr_SetString(PyExc_ValueError, "min_alpha must be a non-negative int");
        return NULL;
    }
    if (min_alpha > MAXN + 1)
        min_alpha = MAXN + 1; /* no graph here has an independent set that large */
    int connected = PyObject_IsTrue(args[4]);
    if (connected < 0)
        return NULL;
    PyObject *parents = PySequence_Fast(args[1], "");
    if (parents == NULL) {
        if (PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            PyErr_SetString(PyExc_ValueError, "parents must be a sequence of row sequences");
        }
        return NULL;
    }
    Plan *plans;
    Py_ssize_t nplans;
    if (read_plans(args[2], &plans, &nplans) < 0) {
        Py_DECREF(parents);
        return NULL;
    }
    word parent[MAXN];
    Augment a;
    memset(&a, 0, sizeof a);
    a.m = (int)m;
    a.parent = parent;
    a.plans = plans;
    a.nplans = nplans;
    a.min_alpha = min_alpha;
    a.connected = connected;
    a.pairs.width = 2;
    a.seen.width = a.found.width = (int)m + 1;
    int ok = 1;
    for (Py_ssize_t i = 0; ok && i < PySequence_Fast_GET_SIZE(parents); i++) {
        ok = read_rows(PySequence_Fast_GET_ITEM(parents, i), m, (int)m, parent, "parent") == 0;
        if (ok && analyse(&a) == 0)
            ok = list_pairs(&a) == 0 && walk(&a, 0, 0, 0, 0) == 0;
        rs_free(&a.pairs);
        rs_free(&a.seen);
    }
    PyMem_Free(a.blocks);
    PyMem_Free(plans);
    Py_DECREF(parents);
    PyObject *out = ok ? sorted_rows(&a.found) : NULL;
    rs_free(&a.found);
    return out;
}

/* ---- per-graph predicates -------------------------------------------- */

typedef struct {
    const word *adj;
    int size; /* the incumbent's */
    word best;
} Clique;

/* kernels.max_clique's expand: the candidates are greedily coloured in
   ascending vertex order and expanded from the last vertex of the highest
   colour class down, each with the candidates before it; a branch is cut
   when the clique so far plus the candidate's colour cannot beat the
   incumbent, which only a strictly larger clique replaces. */
static void expand(Clique *cq, word clique, int size, word cand)
{
    if (!cand) {
        if (size > cq->size) {
            cq->size = size;
            cq->best = clique;
        }
        return;
    }
    word cls[MAXN];
    int ncls = 0;
    for (word m = cand; m; m &= m - 1) {
        int v = low_index(m), c = 0;
        while (c < ncls && (cq->adj[v] & cls[c]))
            c++;
        if (c == ncls)
            cls[ncls++] = 0;
        cls[c] |= (word)1 << v;
    }
    word before = cand;
    for (int c = ncls - 1; c >= 0; c--) {
        before &= ~cls[c];
        for (word m = cls[c]; m;) {
            int v = 63 - __builtin_clzll(m);
            m &= ~((word)1 << v);
            if (size + c + 1 <= cq->size)
                return;
            expand(cq, clique | (word)1 << v, size + 1, (before | m) & cq->adj[v]);
        }
    }
}

typedef struct {
    const word *adj;
    int k;
    word left;         /* the uncoloured vertices */
    word seen[MAXN];   /* per vertex, the colours on its coloured neighbours */
    uint8_t colour[MAXN];
} Colouring;

/* kernels.color_with's go: colour the uncoloured vertex of most colours
   seen, lowest first, with each allowed colour in ascending order; a fresh
   colour may only be the next unused one. */
static int dsatur(Colouring *cl, int max_used)
{
    if (!cl->left)
        return 1;
    int v = -1, sat = -1;
    for (word m = cl->left; m; m &= m - 1) {
        int u = low_index(m), s = popc(cl->seen[u]);
        if (s > sat) {
            sat = s;
            v = u;
        }
    }
    int limit = max_used + 2 < cl->k ? max_used + 2 : cl->k;
    cl->left &= ~((word)1 << v);
    for (word m = ~cl->seen[v] & all_of(limit); m; m &= m - 1) {
        int c = low_index(m);
        word bit = (word)1 << c, touched = 0;
        cl->colour[v] = (uint8_t)c;
        for (word nb = cl->adj[v] & cl->left; nb; nb &= nb - 1) {
            int u = low_index(nb);
            if (!(cl->seen[u] & bit)) {
                cl->seen[u] |= bit;
                touched |= (word)1 << u;
            }
        }
        if (dsatur(cl, c > max_used ? c : max_used))
            return 1;
        for (; touched; touched &= touched - 1)
            cl->seen[low_index(touched)] &= ~bit;
    }
    cl->left |= (word)1 << v;
    return 0;
}

/* What close_cycle does with each cycle the grower closes. */
enum Leaf { LIST_CYCLES, ODD_HOLE, BAD_NEIGHBOURS };

typedef struct {
    const word *adj;
    long min_len, bound;
    enum Leaf leaf;
    uint8_t path[MAXN];
    PyObject *out;     /* the list LIST_CYCLES appends to */
    int hole;          /* ODD_HOLE: the length of the last odd cycle met, or 0 */
    uint8_t best[MAXN]; /* that cycle */
} Cycles;

/* Whether nb, the neighbours of a vertex on the induced cycle cmask of len
   vertices, is OTHER by kernels.neighborhood_shape: all of the cycle on
   more than five vertices, more than four vertices, or a vertex with no
   neighbour in nb.  Any other nb is NONE (empty), K2, P3, P4, C5 or 2K2. */
static int bad_shape(const word *adj, word cmask, int len, word nb)
{
    if (nb == cmask)
        return len != 5;
    if (popc(nb) > 4)
        return 1;
    for (word m = nb; m; m &= m - 1)
        if (!(adj[low_index(m)] & nb))
            return 1;
    return 0;
}

/* Whether some vertex off the cycle path[0..len - 1] has a bad shape on
   it: the kernels.bad_cycle_neighborhoods rule, which flag_level's screen
   needs only up to the first bad pair. */
static int has_bad_pair(const Cycles *cy, int len)
{
    const word *adj = cy->adj;
    word cmask = 0, around = 0;
    for (int i = 0; i < len; i++) {
        cmask |= (word)1 << cy->path[i];
        around |= adj[cy->path[i]];
    }
    for (word m = around & ~cmask; m; m &= m - 1)
        if (bad_shape(adj, cmask, len, adj[low_index(m)] & cmask))
            return 1;
    return 0;
}

/* The leaf for the path closed by v: append the cycle to out as a tuple
   (LIST_CYCLES), stop at a bad neighbourhood (BAD_NEIGHBOURS), or keep an
   odd cycle and lower the bound to its length less two (ODD_HOLE,
   kernels.odd_hole).  1 when the search stops (a bad pair, or the bound
   is now below min_len), 0 to go on, -1 on error. */
static int close_cycle(Cycles *cy, int depth, int v)
{
    cy->path[depth] = (uint8_t)v;
    if (cy->leaf == LIST_CYCLES) {
        PyObject *cycle = index_tuple(depth + 1, cy->path);
        int rc = cycle ? PyList_Append(cy->out, cycle) : -1;
        Py_XDECREF(cycle);
        return rc;
    }
    if (cy->leaf == BAD_NEIGHBOURS)
        return has_bad_pair(cy, depth + 1);
    if (depth % 2 == 0) {
        cy->hole = depth + 1;
        memcpy(cy->best, cy->path, depth + 1);
        cy->bound = depth - 1; /* the length less two: grow closes only lengths <= bound */
    }
    return cy->bound < cy->min_len;
}

/* kernels._grow_cycles's grow: close the path with its closing vertices
   (adjacent to the start), ascending, then extend it with the rest; 1 when
   the search stops, 0 to go on, -1 on error. */
static int grow(Cycles *cy, int depth, word used, word forbid, word v0adj)
{
    word last = cy->adj[cy->path[depth - 1]], base = last & ~used & ~forbid;
    if (depth + 1 >= cy->min_len) {
        /* orientation: the closing vertex must exceed path[1] */
        for (word m = base & v0adj & ~(((word)2 << cy->path[1]) - 1); m && depth < cy->bound; m &= m - 1) {
            int rc = close_cycle(cy, depth, low_index(m));
            if (rc)
                return rc;
        }
    }
    for (word m = base & ~v0adj; m && depth + 1 < cy->bound; m &= m - 1) {
        int v = low_index(m);
        cy->path[depth] = (uint8_t)v;
        int rc = grow(cy, depth + 1, used | (word)1 << v, forbid | last, v0adj);
        if (rc)
            return rc;
    }
    return 0;
}

/* kernels._grow_cycles's start loop: grow from each start v0 and each
   second vertex above it; 1 when the search stopped, 0, or -1 on error. */
static int cycles_from(Cycles *cy, int n)
{
    int rc = 0;
    for (int v0 = 0; v0 <= n - cy->min_len && !rc; v0++) {
        word below = all_of(v0 + 1);
        cy->path[0] = (uint8_t)v0;
        for (word m = cy->adj[v0] & ~below; m && !rc; m &= m - 1) {
            cy->path[1] = (uint8_t)low_index(m);
            rc = grow(cy, 2, below | (m & -m), 0, cy->adj[v0]);
        }
    }
    return rc;
}

/* Replace the rows by the complement's. */
static void complement_rows(int n, word *adj)
{
    for (int v = 0; v < n; v++)
        adj[v] = all_of(n) & ~adj[v] & ~((word)1 << v);
}

/* With a truthy flag, replace the rows by the complement's: 0, or -1 with
   an exception set. */
static int complement_if(PyObject *flag, long n, word *adj)
{
    int complement = PyObject_IsTrue(flag);
    if (complement < 0)
        return -1;
    if (complement)
        complement_rows((int)n, adj);
    return 0;
}

static PyObject *py_max_clique(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    word adj[MAXN];
    if (nargs != 2 && nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "max_clique(n, adj, complement=False) takes 2 or 3 arguments");
        return NULL;
    }
    long n = read_graph(args, nargs, nargs, "max_clique", adj);
    if (n < 0 || (nargs == 3 && complement_if(args[2], n, adj) < 0))
        return NULL;
    Clique cq = {adj, 0, 0};
    expand(&cq, 0, 0, all_of((int)n));
    return PyLong_FromUnsignedLongLong(cq.best);
}

static PyObject *py_color_with(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    word adj[MAXN];
    long k;
    long n = read_graph(args, nargs, 3, "color_with(n, adj, k)", adj);
    if (n < 0 || read_int(args[2], &k, "k") < 0)
        return NULL;
    if (n == 0)
        return PyTuple_New(0);
    if (k <= 0)
        Py_RETURN_NONE;
    Colouring cl = {adj, k < n ? (int)k : (int)n, all_of((int)n), {0}, {0}};
    if (!dsatur(&cl, -1))
        Py_RETURN_NONE;
    return index_tuple((int)n, cl.colour);
}

static PyObject *py_induced_cycles(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    word adj[MAXN];
    long min_len, max_len;
    long n = read_graph(args, nargs, 4, "induced_cycles(n, adj, min_len, max_len)", adj);
    if (n < 0 || read_int(args[2], &min_len, "min_len") < 0 || read_int(args[3], &max_len, "max_len") < 0)
        return NULL;
    Cycles cy = {.adj = adj, .min_len = min_len < 3 ? 3 : min_len, .bound = max_len, .leaf = LIST_CYCLES,
                 .out = PyList_New(0)};
    if (cy.out && cycles_from(&cy, (int)n) < 0)
        Py_CLEAR(cy.out);
    return cy.out;
}

static PyObject *py_odd_hole(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    word adj[MAXN];
    long n = read_graph(args, nargs, 3, "odd_hole(n, adj, complement)", adj);
    if (n < 0 || complement_if(args[2], n, adj) < 0)
        return NULL;
    Cycles cy = {.adj = adj, .min_len = 5, .bound = n, .leaf = ODD_HOLE};
    cycles_from(&cy, (int)n); /* the odd-hole leaf cannot fail */
    if (!cy.hole)
        Py_RETURN_NONE;
    return index_tuple(cy.hole, cy.best);
}

/* ---- per-level screens ----------------------------------------------- */

/* Whether the graph has an odd hole: the odd-hole leaf on its rows. */
static int has_odd_hole(int n, const word *adj)
{
    Cycles cy = {.adj = adj, .min_len = 5, .bound = n, .leaf = ODD_HOLE};
    cycles_from(&cy, n); /* the odd-hole leaf cannot fail */
    return cy.hole != 0;
}

/* Whether verify._check_perfect_class reports the graph: chi > omega (no
   colouring with omega colours), an odd hole or an odd antihole.  The
   rows are complemented in place for the last test. */
static int imperfect_class(int n, word *adj)
{
    Clique cq = {adj, 0, 0};
    expand(&cq, 0, 0, all_of(n));
    Colouring cl = {adj, popc(cq.best), all_of(n), {0}, {0}};
    if (!dsatur(&cl, -1) || has_odd_hole(n, adj))
        return 1;
    complement_rows(n, adj);
    return has_odd_hole(n, adj);
}

/* Whether verify._check_obs2 reports the graph: the bad-neighbourhood
   leaf, which stops at the first bad pair. */
static int has_bad_neighbourhood(int n, const word *adj)
{
    Cycles cy = {.adj = adj, .min_len = 5, .bound = n, .leaf = BAD_NEIGHBOURS};
    return cycles_from(&cy, n) > 0; /* the leaf cannot fail */
}

static PyObject *py_flag_level(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "flag_level(n, level, test) takes 3 arguments");
        return NULL;
    }
    long n = read_small(args[0], 0, MAXN, "n");
    if (n < 0)
        return NULL;
    long test = read_small(args[2], 0, 1, "test");
    if (test < 0)
        return NULL;
    PyObject *level = PySequence_Fast(args[1], "");
    if (level == NULL) {
        if (PyErr_ExceptionMatches(PyExc_TypeError)) {
            PyErr_Clear();
            PyErr_SetString(PyExc_ValueError, "level must be a sequence of row sequences");
        }
        return NULL;
    }
    PyObject *out = PyList_New(0);
    word adj[MAXN];
    for (Py_ssize_t i = 0; out && i < PySequence_Fast_GET_SIZE(level); i++) {
        if (read_rows(PySequence_Fast_GET_ITEM(level, i), n, (int)n, adj, "graph") < 0) {
            Py_CLEAR(out);
            break;
        }
        if (!(test == 0 ? imperfect_class((int)n, adj) : has_bad_neighbourhood((int)n, adj)))
            continue;
        PyObject *index = PyLong_FromSsize_t(i);
        if (index == NULL || PyList_Append(out, index) < 0)
            Py_CLEAR(out);
        Py_XDECREF(index);
    }
    Py_DECREF(level);
    return out;
}

/* graph6 of (n, adj): the header, then column c of the upper triangle
   (the low c bits of adj[c], row 0 first) for c = 1..n-1, packed
   big-endian into 6-bit groups, zero-padded, each group plus 63.  Reads
   only those bits, as the pure encoder does. */
static PyObject *py_graph6(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    word adj[MAXN];
    char buf[4 + (MAXN * (MAXN - 1) / 2 + 5) / 6];
    long n = read_graph(args, nargs, 2, "graph6(n, adj)", adj);
    if (n < 0)
        return NULL;
    int len = 0, acc = 0, bits = 0;
    if (n <= 62) {
        buf[len++] = (char)(63 + n);
    } else {
        buf[len++] = '~';
        buf[len++] = (char)(63 + ((n >> 12) & 63));
        buf[len++] = (char)(63 + ((n >> 6) & 63));
        buf[len++] = (char)(63 + (n & 63));
    }
    for (int c = 1; c < n; c++) {
        for (int r = 0; r < c; r++) {
            acc = acc << 1 | (int)(adj[c] >> r & 1);
            if (++bits == 6) {
                buf[len++] = (char)(63 + acc);
                acc = bits = 0;
            }
        }
    }
    if (bits)
        buf[len++] = (char)(63 + (acc << (6 - bits)));
    PyObject *out = PyUnicode_New(len, 127);
    if (out != NULL)
        memcpy(PyUnicode_1BYTE_DATA(out), buf, len);
    return out;
}

static PyMethodDef methods[] = {
    {"canon_form", (PyCFunction)(void (*)(void))py_canon_form, METH_FASTCALL,
     "canon_form(n, adj) -> (rows, perm): canonical relabelling, as the pure kernels.canon_form."},
    {"augment", (PyCFunction)(void (*)(void))py_augment, METH_FASTCALL,
     "augment(m, parents, plans, min_alpha, connected) -> list of rows: the canonically accepted\n"
     "one-vertex extensions of the canonical parents on m vertices, sorted, free of the patterns\n"
     "whose kernels.obstruction_plans are plans, on the alpha tree or, with connected, the\n"
     "connected tree, as the pure kernels.pure_augment.  No state is kept between calls."},
    {"max_clique", (PyCFunction)(void (*)(void))py_max_clique, METH_FASTCALL,
     "max_clique(n, adj, complement=False) -> mask: the first maximum clique of the graph or of its\n"
     "complement, as the pure kernels.max_clique."},
    {"color_with", (PyCFunction)(void (*)(void))py_color_with, METH_FASTCALL,
     "color_with(n, adj, k) -> tuple or None: a DSATUR colouring with at most k colours, as the\n"
     "pure kernels.color_with."},
    {"induced_cycles", (PyCFunction)(void (*)(void))py_induced_cycles, METH_FASTCALL,
     "induced_cycles(n, adj, min_len, max_len) -> list of tuples: every induced cycle of\n"
     "min_len..max_len vertices, as the pure kernels.induced_cycles."},
    {"odd_hole", (PyCFunction)(void (*)(void))py_odd_hole, METH_FASTCALL,
     "odd_hole(n, adj, complement) -> tuple or None: the shortest odd hole, lex-least, of the graph\n"
     "or of its complement, as the pure kernels.odd_hole."},
    {"graph6", (PyCFunction)(void (*)(void))py_graph6, METH_FASTCALL,
     "graph6(n, adj) -> str: the graph6 string of the graph, as the pure kernels.graph6."},
    {"flag_level", (PyCFunction)(void (*)(void))py_flag_level, METH_FASTCALL,
     "flag_level(n, level, test) -> list of indices: the graphs of one level, each on n vertices,\n"
     "that a campaign's check reports (test 0: chi > omega, an odd hole or an odd antihole; test 1:\n"
     "a bad cycle neighbourhood), ascending, as the pure kernels.pure_flag_level."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "clawlab._augment", "Compiled canonical augmentation, per-graph predicates, per-level screens and graph6.", -1,
    methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__augment(void) { return PyModule_Create(&module); }
