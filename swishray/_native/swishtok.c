/* swishtok — optional C accelerator for swishray.tokenizer, and the
 * batch record arena swishray.pipeline.ExtractPages writes into.
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
 *   tokenize(data: bytes, start_pos: int)
 *     -> (values: bytes, lens: bytes, positions: bytes, end_pos: int)
 *
 * One call returns the whole buffer's tokens as three flat buffers
 * (libswish3's swish_TokenList arena, tokenizer.c:366-437): ``values``
 * is every token's bytes back to back, ``lens`` one native int32 byte
 * length per token and ``positions`` one native uint32 position per
 * token. No per-token Python object is made. ``end_pos`` is the
 * position counter after the last token or \x03 bump.
 *
 *   Arena(limit, size=0)
 *
 * One batch's extraction records in Arrow layout, written once. Rows
 * are written one at a time into the open row, which ``commit()`` ends
 * and ``rollback()`` drops. Every token of a row is written here as it
 * is made: the arena is the row's token list, whether the extraction
 * machine's flushes or an ExtractionState fill it, so nothing copies a
 * finished token stream in. Into the open row:
 *   tokenize(data, meta, context) -> n   a flush, scanned as tokenize()
 *                                        scans it (positions from the
 *                                        row's ``pos``)
 *   add(value, meta, context)            one token at ++pos
 *                                        (TokenList.add)
 *   add_buffers(metanames, properties)   a record's {str: bytes} dicts
 * and, from C, through the capsule ``Arena._api`` (struct ArenaAPI),
 * put(arena, which, key, p, n): one metaname (which 0) or property
 * (1) buffer, as the extraction machine in swishsax.c writes them. A
 * metaname named swishtitle is also the row's title. One named
 * swishdefault is the row's text and is kept only there, not among the
 * metanames; ``commit()`` refuses a row without one (ValueError).
 * ``len(arena)`` is the open row's token count.
 *
 * finish() -> (rows, utf8, (title_offsets, title), (text_offsets,
 *              text), metanames, properties, tokens), each buffer a
 * memoryview of bytes the arena wrote; ``utf8`` says, for metanames
 * and for properties, whether every value put was strict UTF-8 (so
 * title and text are too, when the metanames' values are):
 *   title, text        int64 offsets and UTF-8 bytes (large_string)
 *   metanames, properties: (entries, key_offsets, keys, value_offsets,
 *                      values): int32 per-row entry offsets, int32 key
 *                      offsets (string), int64 value offsets
 *                      (large_string)
 *   tokens: (chunks, values, ends, positions, rows, runs)
 *     chunks           [(row0, row1, token0, token1, byte0, byte1, run0,
 *                      run1)]: the rows split so that no chunk's token
 *                      bytes or tokens pass ``limit`` (a row past it
 *                      alone makes finish() raise OverflowError)
 *     ends, rows       int32 token end offsets from the chunk's first
 *                      byte, and row end token indices from the chunk's
 *                      first token; chunk c's start at entry token0 + c
 *                      (rows: row0 + c) with a 0 of its own
 *     positions        uint32 per token
 *     runs: (run_rows, counts, meta_offsets, metas, context_offsets,
 *            contexts): each row's (meta, context, count) runs, the
 *                      open row's adjacent runs of one pair merged.
 *                      run_rows: int32 row end run indices, per chunk
 *                      as rows are (from run0 + c); counts: int32 per
 *                      run; metas and contexts: int32 offsets and UTF-8
 *                      bytes (string), one label per run
 * ``size`` (the batch's input bytes) sizes the text and token buffers
 * up front. The buffers go back to a pool once Arrow no longer reads
 * them (see pool_take).
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

/* growable memory in a bytearray whose size is the capacity; ``len``
 * bytes are used. A finished arena hands a view of the used bytes to
 * Arrow, so they are never copied again. */
typedef struct {
    PyObject *ba;
    char *p;                 /* PyByteArray_AS_STRING(ba), or NULL */
    Py_ssize_t len, cap;
    int kind;                /* its pool slots, or -1: not pooled */
} Mem;

/* A bytearray whose bytes Arrow no longer reads goes back to the next
 * arena's Mem of the same kind: a worker's batches then write into
 * pages they have written before, not into fresh pages the kernel must
 * fault in and zero (on a virtual machine about half the cost of
 * writing a batch's columns). The pool keeps the last one of each
 * kind; it is free when the pool holds its only reference. */
#define POOL_KINDS 32     /* at least an arena's Mems (NMEM) */
static PyObject *pool[POOL_KINDS];

/* the free pooled bytearray of ``kind``, or NULL; the caller owns the
 * returned reference */
static PyObject *
pool_take(int kind)
{
    PyObject *b = pool[kind];
    if (b == NULL || Py_REFCNT(b) != 1)
        return NULL;
    pool[kind] = NULL;
    return b;
}

/* the pool keeps a reference to ``ba`` as the last of its kind */
static void
pool_keep(int kind, PyObject *ba)
{
    Py_INCREF(ba);
    Py_XSETREF(pool[kind], ba);
}

static int
mem_grow(Mem *m, Py_ssize_t need)
{
    Py_ssize_t c = m->cap ? m->cap : 256;
    while (c < need)
        c *= 2;
    if (m->ba == NULL && m->kind >= 0 && (m->ba = pool_take(m->kind))) {
        m->cap = PyByteArray_GET_SIZE(m->ba);
        if (m->cap >= need) {
            m->p = PyByteArray_AS_STRING(m->ba);
            return 0;
        }
    }
    if (m->ba == NULL)
        m->ba = PyByteArray_FromStringAndSize(NULL, c);
    else if (PyByteArray_Resize(m->ba, c) < 0)
        return -1;
    if (m->ba == NULL)
        return -1;
    m->p = PyByteArray_AS_STRING(m->ba);
    m->cap = c;
    return 0;
}

static inline int
mem_reserve(Mem *m, Py_ssize_t n)
{
    return m->len + n <= m->cap ? 0 : mem_grow(m, m->len + n);
}

static int
mem_put(Mem *m, const void *p, Py_ssize_t n)
{
    if (mem_reserve(m, n) < 0)
        return -1;
    if (n)
        memcpy(m->p + m->len, p, n);
    m->len += n;
    return 0;
}

static int
mem_put_i32(Mem *m, int32_t v)
{
    return mem_put(m, &v, sizeof v);
}

static int
mem_put_i64(Mem *m, int64_t v)
{
    return mem_put(m, &v, sizeof v);
}

#define MEM_I32(m) ((int32_t *)(m)->p)
#define MEM_I64(m) ((int64_t *)(m)->p)

/* ``m``'s bytearray back to the pool; ``m`` is left empty */
static void
mem_release(Mem *m)
{
    int kind = m->kind;
    if (m->ba != NULL) {
        if (kind >= 0)
            pool_keep(kind, m->ba);
        Py_DECREF(m->ba);
    }
    memset(m, 0, sizeof *m);
    m->kind = kind;
}

/* a memoryview of the used bytes, leaving ``m`` empty: the bytearray
 * goes to the pool, to be reused once the view and its users are gone */
static PyObject *
mem_take(Mem *m)
{
    PyObject *mv, *used;
    if (m->ba == NULL)
        return PyMemoryView_FromMemory((char *)"", 0, PyBUF_READ);
    mv = PyMemoryView_FromObject(m->ba);
    used = mv == NULL ? NULL : PySequence_GetSlice(mv, 0, m->len);
    Py_XDECREF(mv);
    mem_release(m);
    return used;
}

/* output of one scan: token bytes, then per token an int32 (its length,
 * or in an arena its end offset from ``base``) and a uint32 position */
typedef struct {
    Mem *values, *ends, *positions;
    Py_ssize_t base;         /* arena chunk's first byte; -1: lengths */
    Py_ssize_t n;            /* tokens emitted */
    long pos;
} Out;

/* room for one more token of ``len`` bytes */
static inline int
out_reserve(Out *o, Py_ssize_t len)
{
    return (mem_reserve(o->values, len) < 0 || mem_reserve(o->ends, 4) < 0
            || mem_reserve(o->positions, 4) < 0) ? -1 : 0;
}

/* the token whose ``len`` bytes were just written to the values */
static inline void
out_token(Out *o, Py_ssize_t len)
{
    Mem *vals = o->values;
    vals->len += len;
    /* an arena chunk's offsets stay below its int32 limit; a row
     * that passes it is refused when the arena finishes */
    MEM_I32(o->ends)[o->ends->len / 4] =
        o->base < 0 ? (int32_t)len : (int32_t)(uint32_t)(vals->len - o->base);
    o->ends->len += 4;
    o->pos += 1;
    ((uint32_t *)o->positions->p)[o->positions->len / 4] = (uint32_t)o->pos;
    o->positions->len += 4;
    o->n += 1;
}

static int
emit(Out *o, const unsigned char *v, Py_ssize_t len)
{
    if (out_reserve(o, len) < 0)
        return -1;
    memcpy(o->values->p + o->values->len, v, len);
    out_token(o, len);
    return 0;
}

/* emit ``len`` ASCII bytes at ``src`` lowered, with no copy between */
static int
emit_lower(Out *o, const unsigned char *src, Py_ssize_t len)
{
    unsigned char *dst;
    if (out_reserve(o, len) < 0)
        return -1;
    dst = (unsigned char *)o->values->p + o->values->len;
    for (Py_ssize_t k = 0; k < len; k++)
        dst[k] = ascii_lower_tab[src[k]];
    out_token(o, len);
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

/* Tokenize ``data`` into ``o``: 0, or -1 with an exception set. */
static int
scan(Out *o, const unsigned char *data, Py_ssize_t dlen)
{
    int ascii_mode = 1, rc = -1;
    Py_ssize_t i;
    unsigned char *run = NULL;
    Py_ssize_t *bounds = NULL;
    Py_ssize_t run_cap = 1024, bounds_cap = 512;
    Py_ssize_t run_len = 0, nchars = 0, fast_from = 0;

    for (i = 0; i < dlen; i++)
        if (data[i] >= 0x80) { ascii_mode = 0; break; }

    /* sized so the output rarely grows: lowercased token bytes seldom
     * exceed the input's, and a token plus its separator takes at
     * least 2 input bytes except in cut >256-byte runs */
    if (mem_reserve(o->values, dlen + 16) < 0
        || mem_reserve(o->ends, 4 * (dlen / 2 + 16)) < 0
        || mem_reserve(o->positions, 4 * (dlen / 2 + 16)) < 0)
        return -1;
    run = PyMem_Malloc(run_cap);
    bounds = PyMem_Malloc(bounds_cap * sizeof(Py_ssize_t));
    if (!run || !bounds) {
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
                if (len <= MAXWORD) {
                    /* process_run's short ASCII case, lowering straight
                     * into the output (' and _ lower to themselves) */
                    Py_ssize_t e = len;
                    if (len != 1 || i != dlen) {
                        e = rstrip_edges(data + s, len);
                        k = lstrip_edges_start(data + s, e);
                        s += k;
                        e -= k;
                    }
                    if (e > 0 && emit_lower(o, data + s, e) < 0)
                        goto done;
                    continue;
                }
                if (len > run_cap
                    && grow((void **)&run, &run_cap, len, 1) < 0)
                    goto done;
                for (k = 0; k < len; k++)
                    run[k] = ascii_lower_tab[data[s + k]];
                if (process_run(o, 1, run, len, NULL, len,
                                i == dlen) < 0)
                    goto done;
            }
            else {
                if (c == 0x03)
                    o->pos += 1;
                i++;
            }
        }
        rc = 0;
        goto done;
    }

    i = 0;
    while (i < dlen) {
        unsigned int lcp;
        int word;
        if (run_len == 0 && i >= fast_from && ascii_word_tab[data[i] & 0x7F]
            && data[i] < 0x80) {
            /* a run of ASCII word bytes that an ASCII byte or the end
             * closes, at most MAXWORD long, needs no char bounds */
            Py_ssize_t s = i, k, len;
            do {
                i++;
            } while (i < dlen && data[i] < 0x80 && ascii_word_tab[data[i]]);
            len = i - s;
            if (len <= MAXWORD && (i == dlen || data[i] < 0x80)) {
                if (data[s] != 0x27 && data[s] != 0x5F) {
                    /* process_run's short case without the quirky
                     * strip: lowered straight into the output */
                    Py_ssize_t e = (len == 1 && i == dlen)
                                   ? len : rstrip_edges(data + s, len);
                    if (emit_lower(o, data + s, e) < 0)
                        goto done;
                    continue;
                }
                for (k = 0; k < len; k++)
                    run[k] = ascii_lower_tab[data[s + k]];
                if (process_run(o, 0, run, len, NULL, len, i == dlen) < 0)
                    goto done;
                continue;
            }
            /* the run goes on past a non-ASCII byte, or is cut: char
             * by char from its start */
            fast_from = i;
            i = s;
        }
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
                if (process_run(o, ascii_mode, run, run_len, bounds,
                                nchars, 0) < 0)
                    goto done;
                run_len = 0;
                nchars = 0;
            }
            if (lcp == 0x03)
                o->pos += 1;
        }
    }
    if (run_len) {
        bounds[nchars] = run_len;
        if (process_run(o, ascii_mode, run, run_len, bounds, nchars,
                        1) < 0)
            goto done;
    }
    rc = 0;
done:
    PyMem_Free(run);
    PyMem_Free(bounds);
    return rc;
}

static PyObject *
tokenize(PyObject *self, PyObject *args)
{
    const unsigned char *data;
    Py_ssize_t dlen;
    Mem values = {.kind = -1}, lens = {.kind = -1}, positions = {.kind = -1};
    Out o = {&values, &lens, &positions, -1, 0, 0};
    PyObject *result = NULL;

    if (!PyArg_ParseTuple(args, "y#l", &data, &dlen, &o.pos))
        return NULL;
    if (scan(&o, data, dlen) == 0)
        result = Py_BuildValue("(y#y#y#l)", values.p, values.len,
                               lens.p, lens.len, positions.p,
                               positions.len, o.pos);
    mem_release(&values);
    mem_release(&lens);
    mem_release(&positions);
    return result;
}

/* ------------------------------------------------------------------ */
/* Arena: one batch's extraction records in Arrow layout               */

/* the arena's buffers, each one Arrow buffer of the batch's columns */
enum {
    VALUES,        /* token bytes */
    ENDS,          /* int32 token end offsets; per chunk a leading 0,
                    * then offsets from the chunk's first byte */
    POSITIONS,     /* uint32 token positions */
    ROWS,          /* int32 row end token index, per chunk from 0 */
    CHUNKS,        /* int64 (first row, first token, first byte, first
                    * run) */
    RUN_ROWS,      /* int32 row end run index, per chunk from 0 */
    RUN_COUNTS,    /* int32 tokens per run */
    RUN_META_OFFS, RUN_METAS,   /* int32 offsets, UTF-8 bytes */
    RUN_CTX_OFFS, RUN_CTXS,
    TITLE_OFFS, TITLE, TEXT_OFFS, TEXT,   /* int64 offsets, bytes */
    MAPS,          /* per map (metanames, properties): */
    M_ENTRIES = 0, /*   int32 row end entry index */
    M_KEY_OFFS,    /*   int32 key end offsets */
    M_KEYS,
    M_VAL_OFFS,    /*   int64 value end offsets */
    M_VALS,
    M_N,
    NMEM = MAPS + 2 * M_N
};
_Static_assert(NMEM <= POOL_KINDS, "every Mem kind has a pool slot");

typedef struct {
    PyObject *meta, *context;
    Py_ssize_t count;
} Run;

typedef struct {
    PyObject_HEAD
    Mem m[NMEM];
    Py_ssize_t kept[NMEM];   /* lengths at the last commit */
    Run *runs;               /* the open row's runs, written at commit */
    Py_ssize_t nruns, runcap;
    Py_ssize_t ntok, kept_ntok;
    Py_ssize_t nrows;
    long pos;                /* the open row's position counter */
    long long limit;         /* a chunk's most token bytes or tokens */
    Py_ssize_t overflow;     /* first row past ``limit`` alone, or -1 */
    int utf8[2];             /* every metaname / property value put was
                              * strict UTF-8 */
    int has_text;            /* the open row put its swishdefault */
    int finished;
} Arena;

static PyTypeObject ArenaType;

static int64_t *
chunk_now(Arena *a)
{
    Mem *c = &a->m[CHUNKS];
    return MEM_I64(c) + c->len / 8 - 4;
}

static void
arena_keep(Arena *a)
{
    for (int i = 0; i < NMEM; i++)
        a->kept[i] = a->m[i].len;
    a->kept_ntok = a->ntok;
    a->pos = 0;
    a->has_text = 0;
}

/* drop the open row's runs */
static void
arena_drop_runs(Arena *a)
{
    while (a->nruns > 0) {
        Run *r = &a->runs[--a->nruns];
        Py_DECREF(r->meta);
        Py_DECREF(r->context);
    }
}

static void
arena_dealloc(Arena *a)
{
    for (int i = 0; i < NMEM; i++)
        mem_release(&a->m[i]);
    arena_drop_runs(a);
    PyMem_Free(a->runs);
    Py_TYPE(a)->tp_free((PyObject *)a);
}

static PyObject *
arena_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"limit", "size", NULL};
    long long limit;
    Py_ssize_t size = 0;
    Arena *a;
    int rc;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "L|n", kwlist, &limit,
                                     &size))
        return NULL;
    a = (Arena *)type->tp_alloc(type, 0);
    if (a == NULL)
        return NULL;
    a->limit = limit;
    a->overflow = -1;
    a->utf8[0] = a->utf8[1] = 1;
    for (int i = 0; i < NMEM; i++)
        a->m[i].kind = i;
    /* the leading zeros of every offsets buffer, and the first chunk */
    rc = mem_put_i32(&a->m[ENDS], 0) | mem_put_i32(&a->m[ROWS], 0)
         | mem_put_i64(&a->m[CHUNKS], 0) | mem_put_i64(&a->m[CHUNKS], 0)
         | mem_put_i64(&a->m[CHUNKS], 0) | mem_put_i64(&a->m[CHUNKS], 0)
         | mem_put_i32(&a->m[RUN_ROWS], 0)
         | mem_put_i32(&a->m[RUN_META_OFFS], 0)
         | mem_put_i32(&a->m[RUN_CTX_OFFS], 0)
         | mem_put_i64(&a->m[TITLE_OFFS], 0)
         | mem_put_i64(&a->m[TEXT_OFFS], 0);
    for (int k = 0; k < 2; k++) {
        Mem *mc = &a->m[MAPS + k * M_N];
        rc |= mem_put_i32(&mc[M_ENTRIES], 0) | mem_put_i32(&mc[M_KEY_OFFS], 0)
              | mem_put_i64(&mc[M_VAL_OFFS], 0);
    }
    /* sized to the batch's ``size`` input bytes, the text and token
     * buffers seldom grow: text is at most about as long as its
     * markup, and a token with its separator takes two bytes or more */
    if (size > 0)
        rc |= mem_reserve(&a->m[VALUES], size)
              | mem_reserve(&a->m[ENDS], size / 2)
              | mem_reserve(&a->m[POSITIONS], size / 2)
              | mem_reserve(&a->m[TEXT], size)
              | mem_reserve(&a->m[MAPS + M_VALS], size);
    if (rc) {
        Py_DECREF(a);
        return NULL;
    }
    arena_keep(a);
    return (PyObject *)a;
}

static int
arena_open(Arena *a)
{
    if (a->finished) {
        PyErr_SetString(PyExc_ValueError, "the arena is finished");
        return -1;
    }
    return 0;
}

static int
same_str(PyObject *x, PyObject *y)
{
    return x == y || PyUnicode_Compare(x, y) == 0;
}

/* a run of ``n`` tokens; the open row's adjacent runs of one pair merge */
static int
add_run(Arena *a, PyObject *meta, PyObject *context, Py_ssize_t n)
{
    Run *r;
    if (a->nruns > 0) {
        r = &a->runs[a->nruns - 1];
        if (same_str(r->meta, meta) && same_str(r->context, context)) {
            r->count += n;
            return 0;
        }
    }
    if (a->nruns == a->runcap) {
        Py_ssize_t c = a->runcap ? 2 * a->runcap : 32;
        Run *q = PyMem_Realloc(a->runs, c * sizeof(Run));
        if (q == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        a->runs = q;
        a->runcap = c;
    }
    r = &a->runs[a->nruns++];
    Py_INCREF(meta);
    Py_INCREF(context);
    r->meta = meta;
    r->context = context;
    r->count = n;
    return 0;
}

static void
out_init(Out *o, Arena *a)
{
    o->values = &a->m[VALUES];
    o->ends = &a->m[ENDS];
    o->positions = &a->m[POSITIONS];
    o->base = (Py_ssize_t)chunk_now(a)[2];
    o->n = 0;
    o->pos = a->pos;
}

/* the tokens ``o`` emitted join the open row under (meta, context) */
static int
out_done(Arena *a, Out *o, PyObject *meta, PyObject *context)
{
    a->pos = o->pos;
    a->ntok += o->n;
    return o->n ? add_run(a, meta, context, o->n) : 0;
}

static PyObject *
arena_tokenize(Arena *a, PyObject *args)
{
    Py_buffer data;
    PyObject *meta, *context;
    Out o;
    int rc;
    if (!PyArg_ParseTuple(args, "y*UU", &data, &meta, &context))
        return NULL;
    if (arena_open(a) < 0) {
        PyBuffer_Release(&data);
        return NULL;
    }
    out_init(&o, a);
    rc = scan(&o, data.buf, data.len);
    PyBuffer_Release(&data);
    if (out_done(a, &o, meta, context) < 0 || rc < 0)
        return NULL;
    return PyLong_FromSsize_t(o.n);
}

static PyObject *
arena_add(Arena *a, PyObject *args)
{
    const char *v;
    Py_ssize_t n;
    PyObject *meta, *context;
    Out o;
    if (!PyArg_ParseTuple(args, "y#UU", &v, &n, &meta, &context)
        || arena_open(a) < 0)
        return NULL;
    out_init(&o, a);
    if (emit(&o, (const unsigned char *)v, n) < 0
        || out_done(a, &o, meta, context) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* strict UTF-8, as Python's decoder and Arrow's validation read it
 * (no overlongs, surrogates or code points past U+10FFFF); ASCII is
 * taken eight bytes at a time */
static int
utf8_ok(const unsigned char *s, Py_ssize_t n)
{
    Py_ssize_t i = 0;
    while (i < n) {
        uint64_t x;
        unsigned char c;
        unsigned int cp, min;
        Py_ssize_t k;
        if (i + 8 <= n) {
            memcpy(&x, s + i, 8);
            if ((x & 0x8080808080808080ULL) == 0) {
                i += 8;
                continue;
            }
        }
        c = s[i];
        if (c < 0x80) {
            i++;
            continue;
        }
        if (c >= 0xC2 && c <= 0xDF) { k = 1; cp = c & 0x1F; min = 0x80; }
        else if (c >= 0xE0 && c <= 0xEF) { k = 2; cp = c & 0x0F; min = 0x800; }
        else if (c >= 0xF0 && c <= 0xF4) { k = 3; cp = c & 0x07; min = 0x10000; }
        else return 0;
        if (n - i <= k)
            return 0;
        for (Py_ssize_t j = 1; j <= k; j++) {
            if ((s[i + j] & 0xC0) != 0x80)
                return 0;
            cp = (cp << 6) | (s[i + j] & 0x3F);
        }
        if (cp < min || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF))
            return 0;
        i += k + 1;
    }
    return 1;
}

/* One named buffer of the open row: ``which`` 0 is a metaname, 1 a
 * property. A swishtitle value is also the row's title; a swishdefault
 * value is the row's text and is stored there only, not as a map
 * entry. The extraction machine writes through this (the arena's C
 * API). */
static int
arena_put(PyObject *self, int which, PyObject *key, const char *p,
          Py_ssize_t n)
{
    Arena *a = (Arena *)self;
    Mem *mc = &a->m[MAPS + which * M_N];
    Py_ssize_t kn;
    const char *ks = PyUnicode_AsUTF8AndSize(key, &kn);
    if (ks == NULL || arena_open(a) < 0)
        return -1;
    if (a->utf8[which] && !utf8_ok((const unsigned char *)p, n))
        a->utf8[which] = 0;
    if (which == 0 && kn == 12 && memcmp(ks, "swishdefault", 12) == 0) {
        a->has_text = 1;
        return mem_put(&a->m[TEXT], p, n);
    }
    if (mem_put(&mc[M_KEYS], ks, kn) < 0
        || mem_put_i32(&mc[M_KEY_OFFS], (int32_t)mc[M_KEYS].len) < 0
        || mem_put(&mc[M_VALS], p, n) < 0
        || mem_put_i64(&mc[M_VAL_OFFS], mc[M_VALS].len) < 0)
        return -1;
    if (which == 0 && kn == 10 && memcmp(ks, "swishtitle", 10) == 0)
        return mem_put(&a->m[TITLE], p, n);
    return 0;
}

static PyObject *
arena_add_buffers(Arena *a, PyObject *args)
{
    PyObject *maps[2];
    if (!PyArg_ParseTuple(args, "O!O!", &PyDict_Type, &maps[0],
                          &PyDict_Type, &maps[1]))
        return NULL;
    for (int k = 0; k < 2; k++) {
        Py_ssize_t i = 0;
        PyObject *key, *val;
        while (PyDict_Next(maps[k], &i, &key, &val)) {
            if (!PyUnicode_Check(key) || !PyBytes_Check(val)) {
                PyErr_SetString(PyExc_TypeError,
                                "add_buffers: {str: bytes} dicts");
                return NULL;
            }
            if (arena_put((PyObject *)a, k, key, PyBytes_AS_STRING(val),
                          PyBytes_GET_SIZE(val)) < 0)
                return NULL;
        }
    }
    Py_RETURN_NONE;
}

/* the open row's runs, appended to the batch's run table */
static int
runs_write(Arena *a)
{
    Mem *metas = &a->m[RUN_METAS], *ctxs = &a->m[RUN_CTXS];
    for (Py_ssize_t i = 0; i < a->nruns; i++) {
        Run *r = &a->runs[i];
        Py_ssize_t mn, cn;
        const char *m = PyUnicode_AsUTF8AndSize(r->meta, &mn);
        const char *c = m ? PyUnicode_AsUTF8AndSize(r->context, &cn) : NULL;
        if (c == NULL
            || mem_put_i32(&a->m[RUN_COUNTS], (int32_t)r->count) < 0
            || mem_put(metas, m, mn) < 0
            || mem_put_i32(&a->m[RUN_META_OFFS], (int32_t)metas->len) < 0
            || mem_put(ctxs, c, cn) < 0
            || mem_put_i32(&a->m[RUN_CTX_OFFS], (int32_t)ctxs->len) < 0)
            return -1;
    }
    if (metas->len > INT32_MAX || ctxs->len > INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "the batch's run labels pass "
                        "the int32 offset range");
        return -1;
    }
    return 0;
}

static PyObject *
arena_commit(Arena *a, PyObject *unused)
{
    Py_ssize_t row_tok = a->ntok - a->kept_ntok;
    long long row_bytes = a->m[VALUES].len - a->kept[VALUES];
    int64_t *c;
    if (arena_open(a) < 0)
        return NULL;
    /* the text is the map's swishdefault entry, which every record
     * has: a row without it would read back without that entry */
    if (!a->has_text)
        return PyErr_Format(PyExc_ValueError,
                            "row %zd: no swishdefault buffer", a->nrows);
    c = chunk_now(a);
    if (a->nrows > c[0]
        && (a->kept[VALUES] - c[2] + row_bytes > a->limit
            || a->kept_ntok - c[1] + row_tok > a->limit)) {
        /* the row opens a new chunk: its end offsets shift one slot
         * for the chunk's leading 0 and restart from its first byte */
        Mem *e = &a->m[ENDS];
        uint32_t shift = (uint32_t)(a->kept[VALUES] - c[2]);
        int32_t *q;
        if (mem_reserve(e, 4) < 0)
            return NULL;
        q = MEM_I32(e) + e->len / 4 - row_tok;
        memmove(q + 1, q, 4 * row_tok);
        q[0] = 0;
        for (Py_ssize_t i = 1; i <= row_tok; i++)
            q[i] = (int32_t)((uint32_t)q[i] - shift);
        e->len += 4;
        if (mem_put_i32(&a->m[ROWS], 0) < 0
            || mem_put_i32(&a->m[RUN_ROWS], 0) < 0
            || mem_put_i64(&a->m[CHUNKS], a->nrows) < 0
            || mem_put_i64(&a->m[CHUNKS], a->kept_ntok) < 0
            || mem_put_i64(&a->m[CHUNKS], a->kept[VALUES]) < 0
            || mem_put_i64(&a->m[CHUNKS], a->m[RUN_COUNTS].len / 4) < 0)
            return NULL;
        c = chunk_now(a);
    }
    if (a->overflow < 0 && (row_bytes > a->limit || row_tok > a->limit))
        a->overflow = a->nrows;
    if (runs_write(a) < 0
        || mem_put_i32(&a->m[ROWS], (int32_t)(a->ntok - c[1])) < 0
        || mem_put_i32(&a->m[RUN_ROWS],
                       (int32_t)(a->m[RUN_COUNTS].len / 4 - c[3])) < 0
        || mem_put_i64(&a->m[TITLE_OFFS], a->m[TITLE].len) < 0
        || mem_put_i64(&a->m[TEXT_OFFS], a->m[TEXT].len) < 0)
        return NULL;
    for (int k = 0; k < 2; k++) {
        Mem *mc = &a->m[MAPS + k * M_N];
        if (mem_put_i32(&mc[M_ENTRIES],
                        (int32_t)(mc[M_KEY_OFFS].len / 4 - 1)) < 0)
            return NULL;
    }
    a->nrows++;
    arena_drop_runs(a);
    arena_keep(a);
    Py_RETURN_NONE;
}

static void
arena_reset(Arena *a)
{
    for (int i = 0; i < NMEM; i++)
        a->m[i].len = a->kept[i];
    arena_drop_runs(a);
    a->ntok = a->kept_ntok;
    a->pos = 0;
    a->has_text = 0;
}

static PyObject *
arena_rollback(Arena *a, PyObject *unused)
{
    arena_reset(a);
    Py_RETURN_NONE;
}

static PyObject *
arena_finish(Arena *a, PyObject *unused)
{
    PyObject *chunks;
    Mem *cm = &a->m[CHUNKS];
    Py_ssize_t nch = cm->len / 32;
    if (arena_open(a) < 0)
        return NULL;
    arena_reset(a);
    a->finished = 1;
    if (a->overflow >= 0)
        return PyErr_Format(PyExc_OverflowError,
                            "row %zd: its token stream passes the int32 "
                            "offset range (%lld)", a->overflow, a->limit);
    chunks = PyList_New(nch);
    if (chunks == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < nch; i++) {
        int64_t *c = MEM_I64(cm) + 4 * i;
        int last = i == nch - 1;
        PyObject *t = Py_BuildValue(
            "(nnnnnnnn)", (Py_ssize_t)c[0], last ? a->nrows : (Py_ssize_t)c[4],
            (Py_ssize_t)c[1], last ? a->ntok : (Py_ssize_t)c[5],
            (Py_ssize_t)c[2], last ? a->m[VALUES].len : (Py_ssize_t)c[6],
            (Py_ssize_t)c[3],
            last ? a->m[RUN_COUNTS].len / 4 : (Py_ssize_t)c[7]);
        if (t == NULL) {
            Py_DECREF(chunks);
            return NULL;
        }
        PyList_SET_ITEM(chunks, i, t);
    }
    return Py_BuildValue(
        "(nN(NN)(NN)(NNNNN)(NNNNN)(NNNNN(NNNNNN)))", a->nrows,
        Py_BuildValue("(OO)", a->utf8[0] ? Py_True : Py_False,
                      a->utf8[1] ? Py_True : Py_False),
        mem_take(&a->m[TITLE_OFFS]), mem_take(&a->m[TITLE]),
        mem_take(&a->m[TEXT_OFFS]), mem_take(&a->m[TEXT]),
        mem_take(&a->m[MAPS + M_ENTRIES]),
        mem_take(&a->m[MAPS + M_KEY_OFFS]), mem_take(&a->m[MAPS + M_KEYS]),
        mem_take(&a->m[MAPS + M_VAL_OFFS]), mem_take(&a->m[MAPS + M_VALS]),
        mem_take(&a->m[MAPS + M_N + M_ENTRIES]),
        mem_take(&a->m[MAPS + M_N + M_KEY_OFFS]),
        mem_take(&a->m[MAPS + M_N + M_KEYS]),
        mem_take(&a->m[MAPS + M_N + M_VAL_OFFS]),
        mem_take(&a->m[MAPS + M_N + M_VALS]),
        chunks, mem_take(&a->m[VALUES]), mem_take(&a->m[ENDS]),
        mem_take(&a->m[POSITIONS]), mem_take(&a->m[ROWS]),
        mem_take(&a->m[RUN_ROWS]), mem_take(&a->m[RUN_COUNTS]),
        mem_take(&a->m[RUN_META_OFFS]), mem_take(&a->m[RUN_METAS]),
        mem_take(&a->m[RUN_CTX_OFFS]), mem_take(&a->m[RUN_CTXS]));
}

static Py_ssize_t
arena_len(Arena *a)
{
    return a->ntok - a->kept_ntok;
}

static PyObject *
arena_get_pos(Arena *a, void *closure)
{
    return PyLong_FromLong(a->pos);
}

static PyMethodDef arena_methods[] = {
    {"tokenize", (PyCFunction)arena_tokenize, METH_VARARGS,
     "tokenize(data, meta, context) -> n: tokenize one flush into the "
     "open row"},
    {"add", (PyCFunction)arena_add, METH_VARARGS,
     "add(value, meta, context): one token into the open row "
     "(TokenList.add)"},
    {"add_buffers", (PyCFunction)arena_add_buffers, METH_VARARGS,
     "add_buffers(metanames, properties): a record's {str: bytes} "
     "buffers into the open row"},
    {"commit", (PyCFunction)arena_commit, METH_NOARGS,
     "commit(): end the open row, keeping its writes"},
    {"rollback", (PyCFunction)arena_rollback, METH_NOARGS,
     "rollback(): drop the open row's writes"},
    {"finish", (PyCFunction)arena_finish, METH_NOARGS,
     "finish() -> the committed rows' buffers (layout in the header)"},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef arena_getset[] = {
    {"pos", (getter)arena_get_pos, NULL,
     "the open row's token position counter", NULL},
    {NULL},
};

static PySequenceMethods arena_as_sequence = {
    .sq_length = (lenfunc)arena_len,
};

static PyTypeObject ArenaType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "swishtok.Arena",
    .tp_basicsize = sizeof(Arena),
    .tp_dealloc = (destructor)arena_dealloc,
    .tp_as_sequence = &arena_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Arena(limit): one batch's extraction records in Arrow "
              "layout",
    .tp_methods = arena_methods,
    .tp_getset = arena_getset,
    .tp_new = arena_new,
};

/* the C API other extensions reach through ``Arena._api`` (a capsule
 * named "swishtok.Arena._api"); swishsax.c declares the same struct */
typedef struct {
    int (*put)(PyObject *arena, int which, PyObject *key, const char *p,
               Py_ssize_t n);
} ArenaAPI;

static ArenaAPI arena_api = {arena_put};

static PyMethodDef methods[] = {
    {"tokenize", tokenize, METH_VARARGS,
     "tokenize(data, start_pos) -> (values, lens, positions, end_pos): "
     "token bytes back to back, int32 lengths and uint32 positions as "
     "flat native-endian buffers"},
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
    {
        PyObject *mod, *cap;
        if (PyType_Ready(&ArenaType) < 0)
            return NULL;
        cap = PyCapsule_New(&arena_api, "swishtok.Arena._api", NULL);
        if (cap == NULL
            || PyDict_SetItemString(ArenaType.tp_dict, "_api", cap) < 0) {
            Py_XDECREF(cap);
            return NULL;
        }
        Py_DECREF(cap);
        PyType_Modified(&ArenaType);
        mod = PyModule_Create(&moduledef);
        if (mod == NULL)
            return NULL;
        Py_INCREF(&ArenaType);
        if (PyModule_AddObject(mod, "Arena", (PyObject *)&ArenaType) < 0) {
            Py_DECREF(&ArenaType);
            Py_DECREF(mod);
            return NULL;
        }
        return mod;
    }
}
