/* swishtok — optional C accelerator for swishray.tokenizer.
 *
 * A faithful port of swishray/tokenizer.py (which is itself the
 * validated reference-exact implementation — see tests/ and
 * tools/fuzz_tokenizer.py). Original code for this engine; semantics
 * documented in tokenizer.py's docstrings, including the reference's
 * utf8 strip pointer quirk, the 256-byte cap edge behaviors per path,
 * the one-char-at-end no-strip special case, and \x03 position bumps.
 *
 * Classification and lowercasing call glibc directly under the
 * C.utf8 locale (set at module init) — the same source the frozen
 * _uniprops tables were probed from.
 *
 * Interface:
 *   tokenize(data: bytes, start_pos: int, start_offset: int = 0)
 *     -> (values: bytes, lens: bytes, positions: bytes,
 *         end_pos: int, end_offset: int)
 *
 * One call returns the whole buffer's tokens as three flat buffers
 * (libswish3's swish_TokenList arena, tokenizer.c:366-437): ``values``
 * is every token's bytes back to back, ``lens`` one native int32 byte
 * length per token and ``positions`` one native uint32 position per
 * token. No per-token Python object is made. ``end_pos`` is the
 * position counter after the last token or \x03 bump; ``end_offset``
 * is ``start_offset`` plus len+1 per token (the NUL-joined arena the
 * reference addresses tokens in).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <locale.h>
#include <stdint.h>
#include <string.h>
#include <wctype.h>

#define MAXWORD 256

/* ASCII fast-path tables, filled at module init AFTER setlocale:
 * lower_tab[c] = towlower(c); word_tab[c] = is_word_cp(towlower(c)).
 * The main scan previously paid a u8_decode + glibc towlower call
 * per character even for pure-ASCII buffers (the common case after
 * extraction); the table loop removes both. */
static unsigned char ascii_lower_tab[128];
static unsigned char ascii_word_tab[128];

static int
is_word_cp(unsigned int cp)
{
    if (cp == 0x27 || cp == 0x5F)
        return 1;
    if (cp == 0)
        return 0;
    if (iswspace(cp) || iswcntrl(cp) || iswpunct(cp))
        return 0;
    return 1;
}

/* is_ignore_start/end: space|cntrl|punct (includes ' and _) */
static int
is_ignore_edge_cp(unsigned int cp)
{
    if (cp == 0x27 || cp == 0x5F)
        return 1;
    return !is_word_cp(cp);
}

/* decode one UTF-8 char at p (input validated upstream; on malformed
 * bytes fall back to latin-1 single byte, matching Python's
 * errors="replace" only loosely — callers guarantee valid UTF-8) */
static unsigned int
u8_decode(const unsigned char *p, Py_ssize_t rem, int *len)
{
    unsigned char b0 = p[0];
    if (b0 < 0x80) { *len = 1; return b0; }
    if ((b0 & 0xE0) == 0xC0 && rem >= 2) {
        *len = 2; return ((b0 & 0x1F) << 6) | (p[1] & 0x3F);
    }
    if ((b0 & 0xF0) == 0xE0 && rem >= 3) {
        *len = 3;
        return ((b0 & 0x0F) << 12) | ((p[1] & 0x3F) << 6) | (p[2] & 0x3F);
    }
    if ((b0 & 0xF8) == 0xF0 && rem >= 4) {
        *len = 4;
        return ((b0 & 0x07) << 18) | ((p[1] & 0x3F) << 12)
             | ((p[2] & 0x3F) << 6) | (p[3] & 0x3F);
    }
    *len = 1;
    return 0xFFFD;
}

static int
u8_encode(unsigned int cp, unsigned char *out)
{
    if (cp < 0x80) { out[0] = (unsigned char)cp; return 1; }
    if (cp < 0x800) {
        out[0] = 0xC0 | (cp >> 6);
        out[1] = 0x80 | (cp & 0x3F);
        return 2;
    }
    if (cp < 0x10000) {
        out[0] = 0xE0 | (cp >> 12);
        out[1] = 0x80 | ((cp >> 6) & 0x3F);
        out[2] = 0x80 | (cp & 0x3F);
        return 3;
    }
    out[0] = 0xF0 | (cp >> 18);
    out[1] = 0x80 | ((cp >> 12) & 0x3F);
    out[2] = 0x80 | ((cp >> 6) & 0x3F);
    out[3] = 0x80 | (cp & 0x3F);
    return 4;
}

/* the reference's swish_utf8_codepoint emulation for the quirky strip
 * walk (tokenizer.py _cp_at): continuation lead bytes take the 2-byte
 * branch */
static unsigned int
cp_at(const unsigned char *tb, Py_ssize_t n, Py_ssize_t p)
{
    unsigned char b0 = tb[p];
    unsigned int b1, b2, b3;
    if (b0 < 0x80)
        return b0;
    b1 = (p + 1 < n) ? tb[p + 1] : 0;
    if (b0 < 0xE0)
        return (b0 - 192) * 64 + b1 - 128;
    b2 = (p + 2 < n) ? tb[p + 2] : 0;
    if (b0 < 0xF0)
        return (b0 - 224) * 4096 + (b1 - 128) * 64 + b2 - 128;
    b3 = (p + 3 < n) ? tb[p + 3] : 0;
    return (b0 - 240) * 262144 + (b1 - 128) * 4096 + (b2 - 128) * 64
         + b3 - 128;
}

/* tokenizer.py _utf8_start_advance: the stale-index pointer walk */
static Py_ssize_t
utf8_start_advance(const unsigned char *tb, Py_ssize_t n)
{
    Py_ssize_t base = 0, i = 0, j = 0;
    long guard = 0;

#define BYTE_AT(k) ((base + (k) >= 0 && base + (k) < n) ? tb[base + (k)] : 0)

    while (BYTE_AT(j) != 0) {
        Py_ssize_t chr_len;
        if (++guard > 4 * n + 8)
            break;
        chr_len = i - j;
        if (chr_len == 0) {
            j = i;
        }
        else {
            Py_ssize_t p = base + j;
            unsigned int cp;
            if (p >= n)
                break;
            cp = cp_at(tb, n, p);
            if (!is_ignore_edge_cp(cp))
                break;
            base += i;
        }
        /* u8_inc: advance past continuation bytes */
        i += 1;
        while ((BYTE_AT(i) & 0xC0) == 0x80)
            i += 1;
    }
#undef BYTE_AT
    return base;
}

/* grow *p (capacity *cap > 0 elements of size elem) to hold need */
static int
grow(void **p, Py_ssize_t *cap, Py_ssize_t need, size_t elem)
{
    Py_ssize_t c = *cap;
    void *q;
    if (need <= c)
        return 0;
    while (need > c)
        c *= 2;
    q = PyMem_Realloc(*p, c * elem);
    if (!q) {
        PyErr_NoMemory();
        return -1;
    }
    *p = q;
    *cap = c;
    return 0;
}

/* output arena: token bytes, int32 lengths, uint32 positions */
typedef struct {
    unsigned char *values;
    int32_t *lens;
    uint32_t *positions;
    Py_ssize_t vlen, vcap;   /* bytes in / capacity of values */
    Py_ssize_t n, ncap;      /* tokens in / capacity of lens, positions */
    long pos;
    long long offset;        /* next token's byte offset */
} Out;

static int
emit(Out *o, const unsigned char *v, Py_ssize_t len)
{
    if (o->vlen + len > o->vcap
        && grow((void **)&o->values, &o->vcap, o->vlen + len, 1) < 0)
        return -1;
    if (o->n == o->ncap) {
        Py_ssize_t c = o->ncap;
        if (grow((void **)&o->lens, &c, o->n + 1, sizeof(int32_t)) < 0)
            return -1;
        c = o->ncap;
        if (grow((void **)&o->positions, &c, o->n + 1,
                 sizeof(uint32_t)) < 0)
            return -1;
        o->ncap = c;
    }
    memcpy(o->values + o->vlen, v, len);
    o->vlen += len;
    o->lens[o->n] = (int32_t)len;
    o->pos += 1;
    o->positions[o->n] = (uint32_t)o->pos;
    o->n += 1;
    o->offset += (long long)len + 1;
    return 0;
}

/* rstrip of ' and _ CHARS (both are single-byte, so byte rstrip works
 * on valid UTF-8) */
static Py_ssize_t
rstrip_edges(const unsigned char *t, Py_ssize_t len)
{
    while (len > 0 && (t[len - 1] == 0x27 || t[len - 1] == 0x5F))
        len--;
    return len;
}

static Py_ssize_t
lstrip_edges_start(const unsigned char *t, Py_ssize_t len)
{
    Py_ssize_t s = 0;
    while (s < len && (t[s] == 0x27 || t[s] == 0x5F))
        s++;
    return s;
}

/* emit one utf8-mode token (<= MAXWORD bytes) applying the quirky
 * strip (tokenizer.py _emit_utf8); returns 0 ok, -1 error */
static int
emit_utf8_token(Out *o, const unsigned char *run, Py_ssize_t len)
{
    Py_ssize_t tl = rstrip_edges(run, len);
    if (tl == 0)
        return 0; /* fully strippable: skipped */
    if (run[0] != 0x27 && run[0] != 0x5F)
        return emit(o, run, tl);
    {
        Py_ssize_t adv = utf8_start_advance(run, tl);
        Py_ssize_t vlen = tl - adv;
        if (vlen < 0)
            vlen = 0;
        return emit(o, run, vlen); /* truncated from the END (quirk) */
    }
}

/* ascii-mode token emit: clean strip both edges */
static int
emit_ascii_token(Out *o, const unsigned char *run, Py_ssize_t len)
{
    Py_ssize_t tl = rstrip_edges(run, len);
    Py_ssize_t s = lstrip_edges_start(run, tl);
    if (s >= tl)
        return 0;
    return emit(o, run + s, tl - s);
}

/* run: lowered bytes; boundaries: char start offsets (n_chars+1
 * entries, last == byte length). at_end: run abuts buffer end. */
static int
process_run(Out *o, int ascii_mode, const unsigned char *run,
            Py_ssize_t blen, const Py_ssize_t *bounds, Py_ssize_t nchars,
            int at_end)
{
    if (ascii_mode) {
        if (blen <= MAXWORD) {
            if (nchars == 1 && at_end)
                return emit(o, run, blen); /* no strip: 1-char special */
            return emit_ascii_token(o, run, blen);
        }
        /* long ascii run: cut every MAXWORD chars (== bytes) */
        {
            Py_ssize_t i = 0;
            while (i < blen) {
                Py_ssize_t chunk = (blen - i > MAXWORD) ? MAXWORD
                                                        : blen - i;
                if (chunk == 1 && i + 1 == blen && at_end) {
                    if (emit(o, run + i, 1) < 0)
                        return -1;
                }
                else if (emit_ascii_token(o, run + i, chunk) < 0)
                    return -1;
                i += chunk;
            }
        }
        return 0;
    }
    /* utf8 mode */
    if (blen <= MAXWORD) {
        if (nchars == 1 && at_end)
            return emit(o, run, blen);
        return emit_utf8_token(o, run, blen);
    }
    /* long utf8 run: chars that would exceed MAXWORD are dropped; the
     * token ends at exactly MAXWORD bytes or at run end (with the
     * lost-at-buffer-end quirk) — tokenizer.py _long_run_utf8 */
    {
        unsigned char token[MAXWORD];
        Py_ssize_t tlen = 0;
        int have = 0, lost = 0;
        Py_ssize_t ci;
        for (ci = 0; ci < nchars; ci++) {
            Py_ssize_t clen = bounds[ci + 1] - bounds[ci];
            int last = (ci == nchars - 1);
            if (have) {
                if (clen + tlen > MAXWORD) {
                    if (last && at_end)
                        lost = 1; /* loop exits without flushing */
                    continue;
                }
                memcpy(token + tlen, run + bounds[ci], clen);
                tlen += clen;
                if (tlen >= MAXWORD || (last && at_end)) {
                    if (emit_utf8_token(o, token, tlen) < 0)
                        return -1;
                    have = 0;
                    tlen = 0;
                }
            }
            else {
                memcpy(token, run + bounds[ci], clen);
                tlen = clen;
                have = 1;
                if (last && at_end) {
                    /* 1-char special: no strip */
                    if (emit(o, token, tlen) < 0)
                        return -1;
                    have = 0;
                    tlen = 0;
                }
            }
        }
        if (have && !lost) {
            if (emit_utf8_token(o, token, tlen) < 0)
                return -1;
        }
    }
    return 0;
}

static PyObject *
tokenize(PyObject *self, PyObject *args)
{
    const unsigned char *data;
    Py_ssize_t dlen;
    long start_pos;
    long long start_offset = 0;
    int ascii_mode = 1;
    Py_ssize_t i;
    Out o;
    PyObject *result = NULL;
    unsigned char *run = NULL;
    Py_ssize_t *bounds = NULL;
    Py_ssize_t run_cap = 1024, bounds_cap = 512;
    Py_ssize_t run_len = 0, nchars = 0;

    if (!PyArg_ParseTuple(args, "y#l|L", &data, &dlen, &start_pos,
                          &start_offset))
        return NULL;

    memset(&o, 0, sizeof o);
    o.pos = start_pos;
    o.offset = start_offset;

    for (i = 0; i < dlen; i++)
        if (data[i] >= 0x80) { ascii_mode = 0; break; }

    /* sized so the arena rarely grows: lowercased token bytes seldom
     * exceed the input's, and a token plus its separator takes at
     * least 2 input bytes except in cut >256-byte runs */
    o.vcap = dlen + 16;
    o.ncap = dlen / 2 + 16;
    run = PyMem_Malloc(run_cap);
    bounds = PyMem_Malloc(bounds_cap * sizeof(Py_ssize_t));
    o.values = PyMem_Malloc(o.vcap);
    o.lens = PyMem_Malloc(o.ncap * sizeof(int32_t));
    o.positions = PyMem_Malloc(o.ncap * sizeof(uint32_t));
    if (!run || !bounds || !o.values || !o.lens || !o.positions) {
        PyErr_NoMemory();
        goto done;
    }

    if (ascii_mode) {
        /* table-driven scan: no per-char u8_decode/towlower calls */
        i = 0;
        while (i < dlen) {
            unsigned char c = data[i];
            if (ascii_word_tab[c]) {
                Py_ssize_t s = i, len, k;
                do {
                    i++;
                } while (i < dlen && ascii_word_tab[data[i]]);
                len = i - s;
                if (len > run_cap
                    && grow((void **)&run, &run_cap, len, 1) < 0)
                    goto done;
                for (k = 0; k < len; k++)
                    run[k] = ascii_lower_tab[data[s + k]];
                if (process_run(&o, 1, run, len, NULL, len,
                                i == dlen) < 0)
                    goto done;
            }
            else {
                if (c == 0x03)
                    o.pos += 1;
                i++;
            }
        }
        goto build;
    }

    i = 0;
    while (i < dlen) {
        unsigned int lcp;
        int word;
        if (data[i] < 0x80) {
            lcp = ascii_lower_tab[data[i]];
            word = ascii_word_tab[data[i]];
            i += 1;
        }
        else {
            int clen;
            lcp = (unsigned int)towlower(
                (wint_t)u8_decode(data + i, dlen - i, &clen));
            word = is_word_cp(lcp);
            i += clen;
        }
        if (word) {
            if ((run_len + 4 > run_cap
                 && grow((void **)&run, &run_cap, run_len + 4, 1) < 0)
                || (nchars + 2 > bounds_cap
                    && grow((void **)&bounds, &bounds_cap, nchars + 2,
                            sizeof(Py_ssize_t)) < 0))
                goto done;
            bounds[nchars++] = run_len;
            if (lcp < 0x80)
                run[run_len++] = (unsigned char)lcp;
            else
                run_len += u8_encode(lcp, run + run_len);
        }
        else {
            if (run_len) {
                bounds[nchars] = run_len;
                if (process_run(&o, ascii_mode, run, run_len, bounds,
                                nchars, 0) < 0)
                    goto done;
                run_len = 0;
                nchars = 0;
            }
            if (lcp == 0x03)
                o.pos += 1;
        }
    }
    if (run_len) {
        bounds[nchars] = run_len;
        if (process_run(&o, ascii_mode, run, run_len, bounds, nchars,
                        1) < 0)
            goto done;
    }

build:
    result = Py_BuildValue("(y#y#y#lL)", o.values, o.vlen,
                           o.lens, o.n * (Py_ssize_t)sizeof(int32_t),
                           o.positions, o.n * (Py_ssize_t)sizeof(uint32_t),
                           o.pos, o.offset);
done:
    PyMem_Free(run);
    PyMem_Free(bounds);
    PyMem_Free(o.values);
    PyMem_Free(o.lens);
    PyMem_Free(o.positions);
    return result;
}

static PyMethodDef methods[] = {
    {"tokenize", tokenize, METH_VARARGS,
     "tokenize(data, start_pos, start_offset=0) -> (values, lens, "
     "positions, end_pos, end_offset): token bytes back to back, int32 "
     "lengths and uint32 positions as flat native-endian buffers"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "swishtok", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit_swishtok(void)
{
    /* Classification/lowercasing call glibc iswpunct/towlower, so
     * the authoritative locale (BASELINE goldens were probed under
     * C.utf8) MUST be active. On hosts without it (musl, macOS, old
     * glibc) loading anyway would silently misclassify non-ASCII;
     * fail module init instead so the loader keeps the pure-Python
     * path (swishtok stays None). */
    if (setlocale(LC_CTYPE, "C.utf8") == NULL &&
        setlocale(LC_CTYPE, "C.UTF-8") == NULL) {
        PyErr_SetString(PyExc_ImportError,
                        "swishtok requires the C.utf8 locale "
                        "(unavailable on this host)");
        return NULL;
    }
    {
        unsigned int c;
        for (c = 0; c < 128; c++) {
            unsigned int lc = (unsigned int)towlower((wint_t)c);
            ascii_lower_tab[c] = (unsigned char)lc;
            ascii_word_tab[c] = (unsigned char)is_word_cp(lc);
        }
    }
    return PyModule_Create(&moduledef);
}
