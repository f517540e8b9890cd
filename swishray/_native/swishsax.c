/* swishsax — the C libxml2 front-end and extraction state machine.
 *
 * Runs the SAME system libxml2 the ctypes front-end in libxml.py drives
 * (the loader links the identical soname, so tag-soup recovery, entity
 * substitution and event ordering are byte-identical by construction).
 * Two entry-point pairs, each one C call per document:
 *
 *   parse_html/parse_xml(data) -> (rc, events)
 *     The full event stream: the document's SAX events as one Python
 *     list. libxml.py:_replay feeds it to a SaxTarget, and sax.py
 *     feeds it to ExtractionState.replay for an extraction without a
 *     machine.
 *
 *   extract_html/extract_xml(data, machine, arena)
 *       -> (rc, error|None, flushes) | None
 *     The extraction state machine: libxml2 runs with handlers that do
 *     what sax.ExtractionState does (bake_tag, the meta and prop tag
 *     stacks, flush_buffer, add_stack_to_prop_buf, buffer_characters,
 *     the noindex/index/swishcommand comments, the end-of-document
 *     flush), for a config that passes sax.machine_spec's gate.
 *     ``machine`` is what compile(spec) built from that config. Its one
 *     sink is a record arena (swishtok.c's Arena): the machine writes
 *     the finished named buffers, metanames in the order the Python
 *     state would hold them and then the properties, into the arena's
 *     open row through the C API it reads from the capsule
 *     ``Arena._api``. ``flushes`` is every flush the tokenizer must
 *     see, in order, as (data, meta, context); the caller tokenizes
 *     them into the same row. ``error`` is the ParseAbort message of a
 *     document the reference would croak on, next to the buffers as
 *     they stood then. None means the machine declines the document
 *     (an XInclude element, a non-ASCII element name, XML prefix or
 *     <meta> name, <meta> content that is not strict UTF-8, XML
 *     attributes under XMLClassAttributes, a non-ASCII attribute the
 *     undefined-attribute policy would read, an emptied meta stack),
 *     with nothing written to the arena, and the caller re-parses it
 *     through the event stream.
 *
 * Event tuples (the ctypes recorder, libxml.py:_Recorder, builds the
 * same ones; libxml._sax_selftest checks the two batches with ==):
 *   (1, name, atts|None)              SAX1 startElement; atts is the
 *                                     FLAT (name, value, ...) list,
 *                                     values may be None
 *   (2, name)                         SAX1 endElement
 *   (3, data)                         characters — CONSECUTIVE chars
 *                                     events are merged (equivalent:
 *                                     buffer_characters only bumps on
 *                                     the first append after a tag or
 *                                     comment; see sax.py)
 *   (4, data)                         comment
 *   (5, localname, prefix|None, uri|None, atts|None)
 *                                     SAX2 startElementNs; atts is
 *                                     flat (localname, value, ...)
 *                                     TRUNCATED at the first
 *                                     empty-valued attribute
 *                                     (parser.c:898-911 quirk)
 *   (6, localname, prefix|None)       SAX2 endElementNs
 *   (7,)                              startDocument
 *   (8,)                              endDocument
 *
 * The machine's role table caches, per raw element name (and per
 * machine, so across a worker's documents), the name's bake: its HTML
 * bump class (br/img, htmlTagLookup()->isinline, bake_tag
 * parser.c:395-425), its lowercased and aliased configured name, and
 * whether it is defined for the undefined-tag policies.
 *
 * ignorableWhitespace and cdataBlock stay NULL (HTML blank-run drops
 * and CDATA-as-characters, exactly like the reference's handler set,
 * parser.c:1453-1488).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>
#include <libxml/parser.h>
#include <libxml/HTMLparser.h>

/* ------------------------------------------------------------------ */
/* the full event stream                                               */

typedef struct {
    PyObject *events;
    int failed;
    /* pending consecutive-characters merge buffer */
    char *buf;
    size_t len, cap;
} Ctx;

static int
chars_reserve(Ctx *c, size_t need)
{
    if (c->len + need <= c->cap)
        return 0;
    size_t ncap = c->cap ? c->cap * 2 : 4096;
    while (ncap < c->len + need)
        ncap *= 2;
    char *nb = realloc(c->buf, ncap);
    if (nb == NULL) {
        c->failed = 1;
        return -1;
    }
    c->buf = nb;
    c->cap = ncap;
    return 0;
}

static int
append_event(Ctx *c, PyObject *ev)  /* steals ev */
{
    if (ev == NULL || PyList_Append(c->events, ev) < 0) {
        Py_XDECREF(ev);
        c->failed = 1;
        return -1;
    }
    Py_DECREF(ev);
    return 0;
}

/* Before any other event: the pending characters as one event. */
static int
flush_chars(Ctx *c)
{
    if (c->len == 0)
        return 0;
    PyObject *b = PyBytes_FromStringAndSize(c->buf, (Py_ssize_t)c->len);
    c->len = 0;
    if (b == NULL) {
        c->failed = 1;
        return -1;
    }
    return append_event(c, Py_BuildValue("(iN)", 3, b));
}

static void
cb_start_document(void *ud)
{
    Ctx *c = ud;
    if (c->failed) return;
    if (flush_chars(c)) return;
    append_event(c, Py_BuildValue("(i)", 7));
}

static void
cb_end_document(void *ud)
{
    Ctx *c = ud;
    if (c->failed) return;
    if (flush_chars(c)) return;
    append_event(c, Py_BuildValue("(i)", 8));
}

static void
cb_characters(void *ud, const xmlChar *ch, int len)
{
    Ctx *c = ud;
    if (c->failed || len <= 0) return;
    if (chars_reserve(c, (size_t)len)) return;
    memcpy(c->buf + c->len, ch, (size_t)len);
    c->len += (size_t)len;
}

static void
cb_comment(void *ud, const xmlChar *value)
{
    Ctx *c = ud;
    if (c->failed) return;
    if (flush_chars(c)) return;
    append_event(c, Py_BuildValue("(iy)", 4,
                                  value ? (const char *)value : ""));
}

static void
cb_start_element(void *ud, const xmlChar *name, const xmlChar **atts)
{
    Ctx *c = ud;
    if (c->failed) return;
    if (flush_chars(c)) return;
    PyObject *alist = Py_None;
    Py_INCREF(Py_None);
    if (atts != NULL && atts[0] != NULL) {
        Py_DECREF(Py_None);
        alist = PyList_New(0);
        if (alist == NULL) { c->failed = 1; return; }
        for (int i = 0; atts[i] != NULL; i += 2) {
            PyObject *an = PyBytes_FromString((const char *)atts[i]);
            PyObject *av;
            if (atts[i + 1] != NULL)
                av = PyBytes_FromString((const char *)atts[i + 1]);
            else {
                av = Py_None;
                Py_INCREF(Py_None);
            }
            if (an == NULL || av == NULL ||
                PyList_Append(alist, an) < 0 ||
                PyList_Append(alist, av) < 0) {
                Py_XDECREF(an); Py_XDECREF(av); Py_DECREF(alist);
                c->failed = 1;
                return;
            }
            Py_DECREF(an); Py_DECREF(av);
        }
    }
    append_event(c, Py_BuildValue("(iyN)", 1, (const char *)name, alist));
}

static void
cb_end_element(void *ud, const xmlChar *name)
{
    Ctx *c = ud;
    if (c->failed) return;
    if (flush_chars(c)) return;
    append_event(c, Py_BuildValue("(iy)", 2, (const char *)name));
}

static void
cb_start_element_ns(void *ud, const xmlChar *localname,
                    const xmlChar *prefix, const xmlChar *uri,
                    int nb_namespaces, const xmlChar **namespaces,
                    int nb_attributes, int nb_defaulted,
                    const xmlChar **attributes)
{
    Ctx *c = ud;
    (void)nb_namespaces; (void)namespaces; (void)nb_defaulted;
    if (c->failed) return;
    if (flush_chars(c)) return;
    PyObject *alist = Py_None;
    Py_INCREF(Py_None);
    if (nb_attributes > 0) {
        PyObject *l = PyList_New(0);
        if (l == NULL) { Py_DECREF(Py_None); c->failed = 1; return; }
        int appended = 0;
        for (int i = 0; i < nb_attributes * 5; i += 5) {
            const xmlChar *aname = attributes[i];
            const xmlChar *vstart = attributes[i + 3];
            const xmlChar *vend = attributes[i + 4];
            long vlen = (long)(vend - vstart);
            if (vstart == NULL || vend == NULL || vlen <= 0)
                break;  /* reference truncates the atts array here */
            PyObject *an = PyBytes_FromString((const char *)aname);
            PyObject *av = PyBytes_FromStringAndSize((const char *)vstart,
                                                     (Py_ssize_t)vlen);
            if (an == NULL || av == NULL ||
                PyList_Append(l, an) < 0 || PyList_Append(l, av) < 0) {
                Py_XDECREF(an); Py_XDECREF(av); Py_DECREF(l);
                Py_DECREF(Py_None);
                c->failed = 1;
                return;
            }
            Py_DECREF(an); Py_DECREF(av);
            appended = 1;
        }
        if (appended) {
            Py_DECREF(Py_None);
            alist = l;
        } else {
            Py_DECREF(l);
        }
    }
    PyObject *ev;
    if (prefix != NULL && uri != NULL)
        ev = Py_BuildValue("(iyyyN)", 5, (const char *)localname,
                           (const char *)prefix, (const char *)uri, alist);
    else if (uri != NULL)
        ev = Py_BuildValue("(iyOyN)", 5, (const char *)localname,
                           Py_None, (const char *)uri, alist);
    else if (prefix != NULL)
        ev = Py_BuildValue("(iyyON)", 5, (const char *)localname,
                           (const char *)prefix, Py_None, alist);
    else
        ev = Py_BuildValue("(iyOON)", 5, (const char *)localname,
                           Py_None, Py_None, alist);
    append_event(c, ev);
}

static void
cb_end_element_ns(void *ud, const xmlChar *localname,
                  const xmlChar *prefix, const xmlChar *uri)
{
    Ctx *c = ud;
    (void)uri;
    if (c->failed) return;
    if (flush_chars(c)) return;
    PyObject *ev;
    if (prefix != NULL)
        ev = Py_BuildValue("(iyy)", 6, (const char *)localname,
                           (const char *)prefix);
    else
        ev = Py_BuildValue("(iyO)", 6, (const char *)localname, Py_None);
    append_event(c, ev);
}

/* ------------------------------------------------------------------ */
/* the machine: a compiled config                                      */

/* undefined-name policies (sax.machine_spec passes these codes) */
enum { U_OTHER = 0, U_ERROR = 1, U_IGNORE = 2, U_INDEX = 3 };

typedef struct {
    char *s;                /* UTF-8, NUL-terminated */
    size_t n;
    PyObject *str;          /* the same name as a str */
    int meta, prop;         /* a configured metaname / property */
    int aliased;            /* a TagAlias key */
    int meta_store;         /* the metaname's alias_for (else itself) */
    int prop_store;         /* the property's alias_for (else itself) */
    int verbatim;
    int alias;              /* the TagAlias target, or -1 */
} Name;

/* role table slot: one raw element name's bake */
#define SLOT_NAME 40
#define NSLOTS 1024
enum { K_UNSET = 0, K_FALSE, K_TRUE, K_SAME };
typedef struct {
    unsigned char len;      /* 0 = empty slot */
    signed char cls;        /* HTML bump class, K_UNSET until asked */
    signed char defined;    /* lowercased name is a metaname/TagAlias */
    int baked;              /* lowercased + aliased name, -1 = none */
    char name[SLOT_NAME];
} Slot;

typedef struct {
    Name *names;
    int n, cap;
    int *htab;              /* open addressing: name index or -1 */
    int hcap;
    int *metas, n_metas;    /* configured metanames, in config order */
    int *props, n_props;    /* configured properties, in config order */
    int deflt, slash;       /* "swishdefault", "/" (DOM_STR) */
    int undef_metas, undef_attrs;
    int cascade, tokenize, ignore_xmlns, class_atts;
    int used;
    Slot slots[NSLOTS];
} Machine;

static unsigned int
fnv(const char *s, size_t n)
{
    unsigned int h = 2166136261u;
    for (size_t i = 0; i < n; i++)
        h = (h ^ (unsigned char)s[i]) * 16777619u;
    return h;
}

static int
lookup(const Machine *m, const char *s, size_t n)
{
    for (unsigned int i = fnv(s, n) & (m->hcap - 1);;
         i = (i + 1) & (m->hcap - 1)) {
        int k = m->htab[i];
        if (k < 0)
            return -1;
        if (m->names[k].n == n && memcmp(m->names[k].s, s, n) == 0)
            return k;
    }
}

static void
machine_free(Machine *m)
{
    for (int i = 0; i < m->n; i++) {
        free(m->names[i].s);
        Py_XDECREF(m->names[i].str);
    }
    free(m->names);
    free(m->htab);
    free(m->metas);
    free(m->props);
    PyMem_Free(m);
}

static void
capsule_free(PyObject *cap)
{
    machine_free(PyCapsule_GetPointer(cap, "swishsax.machine"));
}

/* The index of name ``o`` (a str), interning it first: -1 on error. */
static int
intern(Machine *m, PyObject *o)
{
    Py_ssize_t n;
    const char *s = PyUnicode_AsUTF8AndSize(o, &n);
    if (s == NULL)
        return -1;
    int k = lookup(m, s, (size_t)n);
    if (k >= 0)
        return k;
    if (m->n == m->cap) {
        /* grow the names and rehash: the table stays under half full */
        int ncap = m->cap * 2;
        Name *nn = realloc(m->names, sizeof(Name) * ncap);
        int *nh = malloc(sizeof(int) * ncap * 2);
        if (nn == NULL || nh == NULL) {
            if (nn != NULL) m->names = nn;
            free(nh);
            PyErr_NoMemory();
            return -1;
        }
        m->names = nn;
        m->cap = ncap;
        free(m->htab);
        m->htab = nh;
        m->hcap = ncap * 2;
        memset(nh, -1, sizeof(int) * m->hcap);
        for (int i = 0; i < m->n; i++) {
            unsigned int j = fnv(nn[i].s, nn[i].n) & (m->hcap - 1);
            while (nh[j] >= 0)
                j = (j + 1) & (m->hcap - 1);
            nh[j] = i;
        }
    }
    Name *e = &m->names[m->n];
    memset(e, 0, sizeof(*e));
    e->s = malloc((size_t)n + 1);
    if (e->s == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(e->s, s, (size_t)n + 1);
    e->n = (size_t)n;
    Py_INCREF(o);
    e->str = o;
    e->meta_store = e->prop_store = m->n;
    e->alias = -1;
    unsigned int j = fnv(s, (size_t)n) & (m->hcap - 1);
    while (m->htab[j] >= 0)
        j = (j + 1) & (m->hcap - 1);
    m->htab[j] = m->n;
    return m->n++;
}

/* compile((metas, props, aliases, undef_metas, undef_attrs, cascade,
 *          tokenize, ignore_xmlns, class_atts)) -> machine
 * metas: [(name, alias_for|None)], props: [(name, alias_for|None,
 * verbatim)], aliases: [(name, target)], all str. */
static PyObject *
compile_machine(PyObject *self, PyObject *args)
{
    PyObject *metas, *props, *aliases;
    Machine *m = PyMem_Calloc(1, sizeof(Machine));
    if (m == NULL)
        return PyErr_NoMemory();
    if (!PyArg_ParseTuple(args, "(O!O!O!iipppp)", &PyList_Type, &metas,
                          &PyList_Type, &props, &PyList_Type, &aliases,
                          &m->undef_metas, &m->undef_attrs, &m->cascade,
                          &m->tokenize, &m->ignore_xmlns, &m->class_atts)) {
        PyMem_Free(m);
        return NULL;
    }
    m->cap = 16;
    m->hcap = 32;
    m->names = malloc(sizeof(Name) * m->cap);
    m->htab = malloc(sizeof(int) * m->hcap);
    m->metas = malloc(sizeof(int) * (PyList_GET_SIZE(metas) + 1));
    m->props = malloc(sizeof(int) * (PyList_GET_SIZE(props) + 1));
    if (!m->names || !m->htab || !m->metas || !m->props) {
        PyErr_NoMemory();
        goto fail;
    }
    memset(m->htab, -1, sizeof(int) * m->hcap);
    PyObject *dflt = PyUnicode_FromString("swishdefault");
    PyObject *slash = PyUnicode_FromString("/");
    m->deflt = dflt ? intern(m, dflt) : -1;
    m->slash = slash ? intern(m, slash) : -1;
    Py_XDECREF(dflt);
    Py_XDECREF(slash);
    if (m->deflt < 0 || m->slash < 0)
        goto fail;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(metas); i++) {
        PyObject *name, *alias_for;
        if (!PyArg_ParseTuple(PyList_GET_ITEM(metas, i), "UO",
                              &name, &alias_for))
            goto fail;
        int k = intern(m, name);
        int a = alias_for == Py_None ? k : intern(m, alias_for);
        if (k < 0 || a < 0)
            goto fail;
        m->names[k].meta = 1;
        m->names[k].meta_store = a;
        m->metas[m->n_metas++] = k;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(props); i++) {
        PyObject *name, *alias_for;
        int verbatim;
        if (!PyArg_ParseTuple(PyList_GET_ITEM(props, i), "UOp",
                              &name, &alias_for, &verbatim))
            goto fail;
        int k = intern(m, name);
        int a = alias_for == Py_None ? k : intern(m, alias_for);
        if (k < 0 || a < 0)
            goto fail;
        m->names[k].prop = 1;
        m->names[k].prop_store = a;
        m->names[k].verbatim = verbatim;
        m->props[m->n_props++] = k;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(aliases); i++) {
        PyObject *name, *target;
        if (!PyArg_ParseTuple(PyList_GET_ITEM(aliases, i), "UU",
                              &name, &target))
            goto fail;
        int k = intern(m, name);
        int t = k < 0 ? -1 : intern(m, target);
        if (t < 0)
            goto fail;
        m->names[k].aliased = 1;
        m->names[k].alias = t;
    }
    PyObject *cap = PyCapsule_New(m, "swishsax.machine", capsule_free);
    if (cap == NULL)
        goto fail;
    return cap;
fail:
    machine_free(m);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* the machine: one document's state (sax.ExtractionState)             */

typedef struct {
    char *p;
    size_t len, cap;
} Buf;

typedef struct {
    size_t raw, rawlen;     /* the raw tag name, in the doc's arena */
    size_t ctx, ctxlen;     /* meta stack context, in the arena */
    int baked;              /* name index */
} Item;

typedef struct {
    Item *v;
    int n, cap;
} Stack;

enum { RUNNING = 0, ABORTED, DECLINED, FAILED };
#define NONE_TAG (-2)       /* bake_tag's None: a synthesized <meta> */

typedef struct {
    Machine *m;
    int html;
    int stop;               /* RUNNING until the machine stops */
    PyObject *error;        /* the ParseAbort message, once ABORTED */
    int bump;
    long ignore;
    Buf meta_buf, prop_buf;
    Buf *mbufs, *pbufs;     /* per name index */
    char *mexists;
    int *morder, n_morder;  /* metaname buffers in creation order */
    Stack metastack, propstack;
    Buf arena;              /* stack names and contexts */
    Buf cur, low, tmp;      /* scratch */
    PyObject *flushes;
} Doc;

/* append n bytes of p (NULL: n bytes the caller fills) */
static int
put(Doc *d, Buf *b, const void *p, size_t n)
{
    if (b->len + n > b->cap) {
        size_t ncap = b->cap ? b->cap * 2 : 256;
        while (ncap < b->len + n)
            ncap *= 2;
        char *nb = realloc(b->p, ncap);
        if (nb == NULL) {
            d->stop = FAILED;
            return -1;
        }
        b->p = nb;
        b->cap = ncap;
    }
    if (n && p != NULL)
        memcpy(b->p + b->len, p, n);
    b->len += n;
    return 0;
}

static void
decline(Doc *d)
{
    if (d->stop == RUNNING)
        d->stop = DECLINED;
}

static void
parse_abort(Doc *d, PyObject *msg)
{
    if (msg == NULL) {
        d->stop = FAILED;
        return;
    }
    d->error = msg;
    d->stop = ABORTED;
}

static int
is_ws(unsigned char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

static int
all_ws(const char *p, size_t n)
{
    for (size_t i = 0; i < n; i++)
        if (!is_ws((unsigned char)p[i]))
            return 0;
    return 1;
}

/* lowercase ASCII ``s`` into ``out`` (replacing it): -1 if non-ASCII */
static int
lower_into(Doc *d, Buf *out, const char *s, size_t n)
{
    out->len = 0;
    if (put(d, out, s, n) || put(d, out, "", 1))
        return -1;
    for (size_t i = 0; i < n; i++) {
        unsigned char c = (unsigned char)s[i];
        if (c >= 0x80) {
            decline(d);
            return -1;
        }
        if (c >= 'A' && c <= 'Z')
            out->p[i] = (char)(c + 32);
    }
    out->p[n] = '\0';
    out->len = n;
    return 0;
}

/* strict UTF-8 (Python's decoder: no overlongs, surrogates or code
 * points past U+10FFFF) */
static int
utf8_ok(const unsigned char *s, size_t n)
{
    size_t i = 0;
    while (i < n) {
        unsigned char c = s[i];
        if (c < 0x80) {
            i++;
            continue;
        }
        size_t k;
        unsigned int cp, min;
        if (c >= 0xC2 && c <= 0xDF) { k = 1; cp = c & 0x1F; min = 0x80; }
        else if (c >= 0xE0 && c <= 0xEF) { k = 2; cp = c & 0x0F; min = 0x800; }
        else if (c >= 0xF0 && c <= 0xF4) { k = 3; cp = c & 0x07; min = 0x10000; }
        else return 0;
        if (n - i <= k)
            return 0;
        for (size_t j = 1; j <= k; j++) {
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

/* buffer_characters (parser.c:1253-1296) */
static void
buffer_characters(Doc *d, const char *p, size_t n)
{
    if (d->ignore)
        return;
    if (d->bump && d->meta_buf.len && put(d, &d->meta_buf, "\x03", 1))
        return;
    if (put(d, &d->meta_buf, p, n))
        return;
    if (d->bump && d->prop_buf.len && put(d, &d->prop_buf, "\x03", 1))
        return;
    if (put(d, &d->prop_buf, p, n))
        return;
    d->bump = 0;
}

/* _nb_add into a metaname buffer, autovivifying it */
static void
meta_add(Doc *d, int name, const char *p, size_t n)
{
    if (all_ws(p, n))
        return;
    if (!d->mexists[name]) {
        d->mexists[name] = 1;
        d->morder[d->n_morder++] = name;
    }
    Buf *b = &d->mbufs[name];
    if (b->len && put(d, b, "\x03", 1))
        return;
    put(d, b, p, n);
}

/* flush_buffer (parser.c:756-808) */
static void
flush_buffer(Doc *d, int metaname, const char *ctx, size_t ctxlen)
{
    Machine *m = d->m;
    Name *mn = &m->names[metaname];
    int stored = mn->meta ? mn->meta_store : metaname;
    const char *p = d->meta_buf.p;
    size_t n = d->meta_buf.len;
    meta_add(d, stored, p, n);
    if (m->cascade)
        for (int i = d->metastack.n - 1; i >= 0 && d->stop == RUNNING; i--)
            if (d->metastack.v[i].baked != stored)
                meta_add(d, d->metastack.v[i].baked, p, n);
    if (d->stop != RUNNING)
        return;
    if (m->tokenize && n) {
        PyObject *f = Py_BuildValue("(y#Os#)", p, (Py_ssize_t)n,
                                    m->names[stored].str, ctx,
                                    (Py_ssize_t)ctxlen);
        if (f == NULL || PyList_Append(d->flushes, f) < 0) {
            Py_XDECREF(f);
            d->stop = FAILED;
            return;
        }
        Py_DECREF(f);
    }
    d->meta_buf.len = 0;
}

/* do_add of add_stack_to_prop_buf; ``clean`` applies the in-place
 * clean-wsp quirk to d->cur */
static void
prop_add(Doc *d, int name, int clean)
{
    Buf *cur = &d->cur;
    if (all_ws(cur->p, cur->len))
        return;
    Name *e = &d->m->names[name];
    if (!e->prop) {
        parse_abort(d, PyUnicode_FromFormat("%s is not a named buffer",
                                            e->s));
        return;
    }
    Buf *b = &d->pbufs[name];
    if (b->len && put(d, b, "\x03", 1))
        return;
    if (!clean) {
        put(d, b, cur->p, cur->len);
        return;
    }
    /* ctrl_to_ws (ASCII strings only), then skip/trim for the add;
     * the next add sees the ctrl'd string trimmed at the tail */
    int ascii = 1;
    for (size_t i = 0; i < cur->len; i++)
        if ((unsigned char)cur->p[i] >= 0x80) {
            ascii = 0;
            break;
        }
    if (ascii)
        for (size_t i = 0; i < cur->len; i++)
            if ((unsigned char)cur->p[i] < 32)
                cur->p[i] = ' ';
    size_t end = cur->len;
    while (end > 0 && is_ws((unsigned char)cur->p[end - 1]))
        end--;
    size_t start = 0;
    while (start < end && is_ws((unsigned char)cur->p[start]))
        start++;
    cur->len = end;
    put(d, b, cur->p + start, end - start);
}

/* add_stack_to_prop_buf (parser.c:2868-2916); baked -1 is None */
static void
add_stack_to_prop_buf(Doc *d, int baked)
{
    Machine *m = d->m;
    int clean = 1;
    d->cur.len = 0;
    if (put(d, &d->cur, d->prop_buf.p, d->prop_buf.len))
        return;
    if (baked >= 0) {
        Name *e = &m->names[baked];
        if (!e->prop) {
            parse_abort(d, PyUnicode_FromFormat(
                "property %s not configured", e->s));
            return;
        }
        if (e->verbatim)
            clean = 0;
        prop_add(d, e->prop_store, clean);
    }
    for (int i = d->propstack.n - 1; i >= 0 && d->stop == RUNNING; i--)
        if (d->propstack.v[i].baked != m->slash)
            prop_add(d, d->propstack.v[i].baked, clean);
}

static int
push(Doc *d, Stack *s, const char *raw, size_t n, int baked, int ctx)
{
    if (s->n == s->cap) {
        int ncap = s->cap ? s->cap * 2 : 16;
        Item *nv = realloc(s->v, sizeof(Item) * ncap);
        if (nv == NULL) {
            d->stop = FAILED;
            return -1;
        }
        s->v = nv;
        s->cap = ncap;
    }
    Item *t = &s->v[s->n];
    t->raw = d->arena.len;
    t->rawlen = n;
    t->baked = baked;
    t->ctx = t->ctxlen = 0;
    if (put(d, &d->arena, raw, n))
        return -1;
    if (ctx) {
        /* the baked names bottom to top, joined with DOM_CHAR */
        Name *e = &d->m->names[baked];
        size_t at = d->arena.len;
        if (s->n > 0) {
            Item *h = &s->v[s->n - 1];
            if (put(d, &d->arena, NULL, h->ctxlen + 1))
                return -1;
            memcpy(d->arena.p + at, d->arena.p + h->ctx, h->ctxlen);
            d->arena.p[at + h->ctxlen] = '/';
        }
        if (put(d, &d->arena, e->s, e->n))
            return -1;
        t->ctx = at;
        t->ctxlen = d->arena.len - at;
    }
    s->n++;
    return 0;
}

/* pop_on_match: pop the head iff its RAW name is ``raw`` */
static Item *
pop_on_match(Doc *d, Stack *s, const char *raw, size_t n)
{
    if (s->n == 0)
        return NULL;
    Item *t = &s->v[s->n - 1];
    if (t->rawlen != n || memcmp(d->arena.p + t->raw, raw, n) != 0)
        return NULL;
    s->n--;
    return t;
}

/* The role of a raw element name: its lowercased, aliased configured
 * name (-1: none) and whether the lowercased name is defined. For HTML
 * also its bump class. -1 (declined) for a non-ASCII name. */
static int
role(Doc *d, const char *raw, size_t n, int *baked, int *defined, int *cls)
{
    Machine *m = d->m;
    Slot *s = NULL, *hit = NULL;
    int cached = n > 0 && n < SLOT_NAME;
    if (cached) {
        /* leaves s at the name's slot, or at the empty slot it would
         * take */
        for (unsigned int i = fnv(raw, n) & (NSLOTS - 1);;
             i = (i + 1) & (NSLOTS - 1)) {
            s = &m->slots[i];
            if (s->len == n && memcmp(s->name, raw, n) == 0) {
                hit = s;
                break;
            }
            if (s->len == 0)
                break;
        }
        if (hit != NULL && (cls == NULL || hit->cls != K_UNSET)) {
            *baked = hit->baked;
            *defined = hit->defined;
            if (cls != NULL)
                *cls = hit->cls;
            return 0;
        }
    }
    if (lower_into(d, &d->low, raw, n))
        return -1;
    int k = lookup(m, d->low.p, n);
    *defined = k >= 0 && (m->names[k].meta || m->names[k].aliased);
    *baked = k >= 0 && m->names[k].alias >= 0 ? m->names[k].alias : k;
    int c = K_UNSET;
    if (cls != NULL) {
        if (strcmp(d->low.p, "br") == 0 || strcmp(d->low.p, "img") == 0) {
            c = K_TRUE;
        } else {
            const htmlElemDesc *e = htmlTagLookup((const xmlChar *)d->low.p);
            c = e == NULL ? K_SAME : (e->isinline ? K_FALSE : K_TRUE);
        }
        *cls = c;
    }
    if (cached && hit == NULL && m->used < NSLOTS / 2) {
        hit = s;
        hit->len = (unsigned char)n;
        memcpy(hit->name, raw, n);
        m->used++;
    }
    if (hit != NULL) {
        hit->baked = *baked;
        hit->defined = (signed char)*defined;
        if (c != K_UNSET)
            hit->cls = (signed char)c;
    }
    return 0;
}

static void open_baked(Doc *d, const char *raw, size_t n, int baked);
static void close_tag(Doc *d, const char *raw, size_t n,
                      const xmlChar *prefix);

static int
ascii_caseeq(const char *a, size_t n, const char *lit)
{
    size_t k = strlen(lit);
    if (n != k)
        return 0;
    for (size_t i = 0; i < n; i++) {
        unsigned char c = (unsigned char)a[i];
        if (c >= 'A' && c <= 'Z')
            c += 32;
        if (c != (unsigned char)lit[i])
            return 0;
    }
    return 1;
}

/* bake_tag for HTML (parser.c:395-491, 724-747). ``atts`` is the
 * flat SAX1 list of a <meta> start, else NULL. Returns the baked name
 * index, -1 for a name that is not configured, or NONE_TAG. */
static int
bake_html(Doc *d, const char *raw, size_t n, const xmlChar **atts)
{
    Machine *m = d->m;
    int baked, defined, cls;
    if (role(d, raw, n, &baked, &defined, &cls))
        return -1;
    if (cls != K_SAME)
        d->bump = cls == K_TRUE;
    if (atts == NULL || !ascii_caseeq(raw, n, "meta"))
        return baked;
    /* flat scan by 1 — matches attribute VALUES too (parser.c:434-449);
     * stops at the first NULL entry */
    const char *name = NULL, *content = NULL;
    for (int i = 0; atts[i] != NULL; i++) {
        if (strcmp((const char *)atts[i], "name") == 0)
            name = (const char *)atts[i + 1];
        else if (strcmp((const char *)atts[i], "content") == 0)
            content = (const char *)atts[i + 1];
    }
    if (name == NULL)
        return baked;
    size_t nn = strlen(name);
    for (size_t i = 0; i < nn; i++)
        if ((unsigned char)name[i] >= 0x80) {
            decline(d);
            return -1;
        }
    long prev_ignore = d->ignore;
    int k = lookup(m, name, nn);
    if (!(k >= 0 && (m->names[k].meta || m->names[k].aliased))) {
        if (m->undef_metas == U_ERROR) {
            parse_abort(d, PyUnicode_FromFormat(
                "HTML <meta> tag with 'name' attribute '%s' is not a "
                "defined MetaName and UndefinedMetaTags == error", name));
            return -1;
        }
        if (m->undef_metas == U_IGNORE)
            d->ignore++;
    }
    if (content == NULL) {
        d->ignore = prev_ignore;
        return baked;
    }
    size_t cn = strlen(content);
    if (!utf8_ok((const unsigned char *)content, cn)) {
        decline(d);
        return -1;
    }
    /* the attribute strings live until the callback returns; the
     * nested open and close copy what they keep */
    int prev_bump = d->bump;
    d->bump = 1;
    int b = bake_html(d, name, nn, NULL);
    if (d->stop != RUNNING)
        return -1;
    open_baked(d, name, nn, b);
    if (d->stop != RUNNING)
        return -1;
    buffer_characters(d, content, cn);
    close_tag(d, name, nn, NULL);
    d->bump = prev_bump;
    return NONE_TAG;
}

/* bake_tag for XML (parser.c:544-747). ``atts`` is the SAX2 array of
 * the start's ``natts`` surviving attributes (0 for a close). */
static int
bake_xml(Doc *d, const char *raw, size_t n, const xmlChar *prefix,
         int natts, const xmlChar **atts)
{
    Machine *m = d->m;
    int baked, defined;
    if (prefix != NULL && !m->ignore_xmlns) {
        /* lowercased prefix ':' lowercased name: not cached */
        d->tmp.len = 0;
        if (put(d, &d->tmp, prefix, strlen((const char *)prefix)) ||
            put(d, &d->tmp, ":", 1) || put(d, &d->tmp, raw, n) ||
            lower_into(d, &d->low, d->tmp.p, d->tmp.len))
            return -1;
        int k = lookup(m, d->low.p, d->low.len);
        defined = k >= 0 && (m->names[k].meta || m->names[k].aliased);
        baked = k >= 0 && m->names[k].alias >= 0 ? m->names[k].alias : k;
    } else if (role(d, raw, n, &baked, &defined, NULL)) {
        return -1;
    }
    d->bump = 1;
    if (natts > 0) {
        if (m->class_atts) {
            decline(d);
            return -1;
        }
        for (int i = 0; i < natts * 5; i += 5) {
            const char *an = (const char *)atts[i];
            const char *vs = (const char *)atts[i + 3];
            size_t vn = (size_t)((const char *)atts[i + 4] - vs);
            if (m->undef_attrs == U_ERROR) {
                /* the message names swishtag.attr, both lowercased */
                size_t an_n = strlen(an);
                if (lower_into(d, &d->tmp, an, an_n))
                    return -1;
                if (prefix == NULL || m->ignore_xmlns) {
                    if (lower_into(d, &d->low, raw, n))
                        return -1;
                }
                parse_abort(d, PyUnicode_FromFormat(
                    "XML tag '%s.%s' is not a defined MetaName and "
                    "UndefinedXMLAttributes == error", d->low.p, d->tmp.p));
                return -1;
            }
            if (m->undef_attrs == U_INDEX) {
                if (lower_into(d, &d->tmp, vs, vn))
                    return -1;
                int prev_bump = d->bump;
                d->bump = 1;
                buffer_characters(d, d->tmp.p, vn);
                d->bump = prev_bump;
                if (d->stop != RUNNING)
                    return -1;
            }
        }
    }
    if (!defined) {
        if (m->undef_metas == U_ERROR) {
            if ((prefix == NULL || m->ignore_xmlns) &&
                lower_into(d, &d->low, raw, n))
                return -1;
            parse_abort(d, PyUnicode_FromFormat(
                "XML tag '%s' is not a defined MetaName and "
                "UndefinedMetaTags == error", d->low.p));
            return -1;
        }
        if (m->undef_metas == U_IGNORE)
            d->ignore++;
        else
            d->ignore = 0;
    }
    return baked;
}

/* open_tag after its bake (parser.c:1095-1200) */
static void
open_baked(Doc *d, const char *raw, size_t n, int baked)
{
    Machine *m = d->m;
    if (baked < 0)
        return;
    Name *e = &m->names[baked];
    if (e->prop) {
        add_stack_to_prop_buf(d, -1);
        if (d->stop != RUNNING)
            return;
        d->prop_buf.len = 0;
        if (push(d, &d->propstack, raw, n, baked, 0))
            return;
    }
    if (e->meta) {
        if (d->metastack.n == 0) {
            decline(d);  /* the Python state fails on a None head */
            return;
        }
        Item *h = &d->metastack.v[d->metastack.n - 1];
        flush_buffer(d, h->baked, d->arena.p + h->ctx, h->ctxlen);
        if (d->stop != RUNNING)
            return;
        push(d, &d->metastack, raw, n, baked, 1);
    }
}

/* close_tag (parser.c:1202-1250) */
static void
close_tag(Doc *d, const char *raw, size_t n, const xmlChar *prefix)
{
    if (d->html)
        bake_html(d, raw, n, NULL);
    else
        bake_xml(d, raw, n, prefix, 0, NULL);
    if (d->stop != RUNNING)
        return;
    Item *t = pop_on_match(d, &d->propstack, raw, n);
    if (t != NULL) {
        add_stack_to_prop_buf(d, t->baked);
        if (d->stop != RUNNING)
            return;
        d->prop_buf.len = 0;
    }
    t = pop_on_match(d, &d->metastack, raw, n);
    if (t != NULL)
        flush_buffer(d, t->baked, d->arena.p + t->ctx, t->ctxlen);
}

/* mycomments (parser.c:1318-1388) */
static void
comment(Doc *d, const char *p)
{
    size_t n = strlen(p);
    while (n > 0 && is_ws((unsigned char)*p)) { p++; n--; }
    while (n > 0 && is_ws((unsigned char)p[n - 1])) n--;
    if (n == 0)
        return;
    int swishcmd = 0;
    if (n >= 12 && ascii_caseeq(p, 12, "swishcommand")) {
        p += 12;
        n -= 12;
        while (n > 0 && is_ws((unsigned char)*p)) { p++; n--; }
        while (n > 0 && is_ws((unsigned char)p[n - 1])) n--;
        swishcmd = 1;
    }
    if (ascii_caseeq(p, n, "noindex")) {
        d->ignore++;
        return;
    }
    if (ascii_caseeq(p, n, "index")) {
        if (d->ignore > 0)
            d->ignore--;
        return;
    }
    if (!swishcmd)
        d->bump = 1;
}

static void
m_characters(void *ud, const xmlChar *ch, int len)
{
    Doc *d = ud;
    if (d->stop == RUNNING && len > 0)
        buffer_characters(d, (const char *)ch, (size_t)len);
}

static void
m_comment(void *ud, const xmlChar *value)
{
    Doc *d = ud;
    if (d->stop == RUNNING)
        comment(d, value ? (const char *)value : "");
}

static void
m_start_document(void *ud)
{
    (void)ud;  /* registered so libxml2 sees the event set's handlers */
}

static void
m_end_document(void *ud)
{
    Doc *d = ud;
    /* parser.c:831-846 — flush whatever's left */
    if (d->stop == RUNNING)
        flush_buffer(d, d->m->deflt, "swishdefault", 12);
}

static void
m_start_element(void *ud, const xmlChar *name, const xmlChar **atts)
{
    Doc *d = ud;
    if (d->stop != RUNNING)
        return;
    size_t n = strlen((const char *)name);
    int baked = bake_html(d, (const char *)name, n,
                          atts != NULL && atts[0] != NULL ? atts : NULL);
    if (d->stop == RUNNING && baked != NONE_TAG)
        open_baked(d, (const char *)name, n, baked);
}

static void
m_end_element(void *ud, const xmlChar *name)
{
    Doc *d = ud;
    if (d->stop == RUNNING)
        close_tag(d, (const char *)name, strlen((const char *)name), NULL);
}

static int
is_xinclude(const xmlChar *uri)
{
    return uri != NULL &&
        (strcmp((const char *)uri, "http://www.w3.org/2001/XInclude") == 0 ||
         strcmp((const char *)uri, "http://www.w3.org/2003/XInclude") == 0);
}

static void
m_start_element_ns(void *ud, const xmlChar *localname,
                   const xmlChar *prefix, const xmlChar *uri,
                   int nb_namespaces, const xmlChar **namespaces,
                   int nb_attributes, int nb_defaulted,
                   const xmlChar **attributes)
{
    Doc *d = ud;
    (void)nb_namespaces; (void)namespaces; (void)nb_defaulted;
    if (d->stop != RUNNING)
        return;
    if (is_xinclude(uri)) {
        decline(d);
        return;
    }
    /* the attributes before the first empty value (parser.c:898-911) */
    int natts = 0;
    while (natts < nb_attributes) {
        const xmlChar *vs = attributes[natts * 5 + 3];
        const xmlChar *ve = attributes[natts * 5 + 4];
        if (vs == NULL || ve == NULL || ve <= vs)
            break;
        natts++;
    }
    size_t n = strlen((const char *)localname);
    int baked = bake_xml(d, (const char *)localname, n, prefix, natts,
                         attributes);
    if (d->stop == RUNNING)
        open_baked(d, (const char *)localname, n, baked);
}

static void
m_end_element_ns(void *ud, const xmlChar *localname,
                 const xmlChar *prefix, const xmlChar *uri)
{
    Doc *d = ud;
    (void)uri;
    if (d->stop == RUNNING)
        close_tag(d, (const char *)localname,
                  strlen((const char *)localname), prefix);
}

static xmlSAXHandler SAX, MSAX;

static void
init_sax(void)
{
    memset(&SAX, 0, sizeof(SAX));
    SAX.startDocument = cb_start_document;
    SAX.endDocument = cb_end_document;
    SAX.startElement = cb_start_element;
    SAX.endElement = cb_end_element;
    SAX.characters = cb_characters;
    SAX.comment = cb_comment;
    SAX.startElementNs = cb_start_element_ns;
    SAX.endElementNs = cb_end_element_ns;
    SAX.initialized = XML_SAX2_MAGIC;
    memset(&MSAX, 0, sizeof(MSAX));
    MSAX.startDocument = m_start_document;
    MSAX.endDocument = m_end_document;
    MSAX.startElement = m_start_element;
    MSAX.endElement = m_end_element;
    MSAX.characters = m_characters;
    MSAX.comment = m_comment;
    MSAX.startElementNs = m_start_element_ns;
    MSAX.endElementNs = m_end_element_ns;
    MSAX.initialized = XML_SAX2_MAGIC;
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */

/* htmlSAXParseDoc needs a NUL-terminated string; its body is
 * htmlCreateMemoryParserCtxt(cur, strlen(cur)) + sax swap +
 * htmlParseDocument — replicated here with the EXPLICIT length so an
 * un-terminated buffer view parses identically (callers guarantee
 * NUL-free input; the A/B selftests in libxml.py and sax.py and the
 * extraction fuzz harness pin the equivalence). An empty buffer is a
 * no-op, as htmlSAXParseDoc("") is (ctxt creation fails): 0, no
 * callback. -1 with MemoryError set if the context cannot be built. */
static int
run_html(Py_buffer *view, xmlSAXHandler *sax, void *ud)
{
    if (view->len == 0)
        return 0;
    htmlParserCtxtPtr ctxt =
        htmlCreateMemoryParserCtxt((const char *)view->buf, (int)view->len);
    if (ctxt == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    if (ctxt->sax != NULL && ctxt->sax != sax)
        xmlFree(ctxt->sax);
    ctxt->sax = sax;         /* static: never freed by libxml */
    ctxt->userData = ud;
    htmlParseDocument(ctxt);
    if (ctxt->myDoc != NULL) {
        xmlFreeDoc(ctxt->myDoc);
        ctxt->myDoc = NULL;
    }
    ctxt->sax = NULL;        /* keep htmlFreeParserCtxt off our SAX */
    htmlFreeParserCtxt(ctxt);
    return 0;
}

/* Every entry point takes y* (any read-only buffer object): the
 * pipeline hands ZERO-COPY memoryview slices of Arrow blocks, which
 * y# would reject. Both libxml2 calls are length-based, so the buffers
 * need no NUL terminator. */

static PyObject *
events(PyObject *args, int html)
{
    Py_buffer view;
    Ctx c = {0};
    if (!PyArg_ParseTuple(args, "y*", &view))
        return NULL;
    if ((c.events = PyList_New(0)) == NULL) {
        PyBuffer_Release(&view);
        return NULL;
    }
    int rc = 0;
    if (html) {
        if (run_html(&view, &SAX, &c) < 0)
            c.failed = 1;
    } else {
        rc = xmlSAXUserParseMemory(&SAX, &c, (const char *)view.buf,
                                   (int)view.len);
    }
    PyBuffer_Release(&view);
    flush_chars(&c);
    free(c.buf);
    if (c.failed) {
        Py_DECREF(c.events);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_MemoryError, "swishsax event capture");
        return NULL;
    }
    return Py_BuildValue("(iN)", rc, c.events);
}

static PyObject *
parse_xml(PyObject *self, PyObject *args)
{
    return events(args, 0);
}

static PyObject *
parse_html(PyObject *self, PyObject *args)
{
    return events(args, 1);
}

static void
doc_free(Doc *d)
{
    int n = d->m->n;
    for (int i = 0; i < n; i++) {
        free(d->mbufs[i].p);
        free(d->pbufs[i].p);
    }
    free(d->mbufs);
    free(d->pbufs);
    free(d->mexists);
    free(d->morder);
    free(d->metastack.v);
    free(d->propstack.v);
    free(d->meta_buf.p);
    free(d->prop_buf.p);
    free(d->arena.p);
    free(d->cur.p);
    free(d->low.p);
    free(d->tmp.p);
    Py_XDECREF(d->flushes);
    Py_XDECREF(d->error);
}

/* swishtok's Arena C API, read from the capsule ``Arena._api`` (the
 * same struct is declared in swishtok.c) */
typedef struct {
    int (*put)(PyObject *arena, int which, PyObject *key, const char *p,
               Py_ssize_t n);
} ArenaAPI;

static const ArenaAPI *
arena_api(PyObject *arena)
{
    static PyTypeObject *type;
    static const ArenaAPI *api;
    if (Py_TYPE(arena) != type) {
        PyObject *cap = PyObject_GetAttrString((PyObject *)Py_TYPE(arena),
                                               "_api");
        const ArenaAPI *a = cap == NULL ? NULL
            : PyCapsule_GetPointer(cap, "swishtok.Arena._api");
        Py_XDECREF(cap);    /* the type's dict keeps the capsule */
        if (a == NULL)
            return NULL;
        type = Py_TYPE(arena);
        api = a;
    }
    return api;
}

/* the finished named buffers into the arena's open row, metanames in
 * the order the Python state would hold them */
static int
buffers_put(const ArenaAPI *api, PyObject *arena, Machine *m, Doc *d)
{
    for (int i = 0; i < d->n_morder; i++) {
        Buf *b = &d->mbufs[d->morder[i]];
        if (api->put(arena, 0, m->names[d->morder[i]].str, b->p,
                     (Py_ssize_t)b->len) < 0)
            return -1;
    }
    for (int i = 0; i < m->n_props; i++) {
        Buf *b = &d->pbufs[m->props[i]];
        if (api->put(arena, 1, m->names[m->props[i]].str, b->p,
                     (Py_ssize_t)b->len) < 0)
            return -1;
    }
    return 0;
}

static PyObject *
extract(PyObject *args, int html)
{
    Py_buffer view;
    PyObject *cap, *arena;
    const ArenaAPI *api = NULL;
    if (!PyArg_ParseTuple(args, "y*OO", &view, &cap, &arena))
        return NULL;
    Machine *m = PyCapsule_GetPointer(cap, "swishsax.machine");
    if (m != NULL)
        api = arena_api(arena);
    if (api == NULL) {
        PyBuffer_Release(&view);
        return NULL;
    }
    Doc d;
    memset(&d, 0, sizeof(d));
    d.m = m;
    d.html = html;
    d.bump = 1;              /* init_parser_data: starts TRUE */
    d.mbufs = calloc((size_t)m->n, sizeof(Buf));
    d.pbufs = calloc((size_t)m->n, sizeof(Buf));
    d.mexists = calloc((size_t)m->n, 1);
    d.morder = malloc(sizeof(int) * (size_t)m->n);
    d.flushes = PyList_New(0);
    if (!d.mbufs || !d.pbufs || !d.mexists || !d.morder || !d.flushes) {
        d.stop = FAILED;
    } else {
        /* NamedBuffers pre-created for every configured metaname; the
         * stacks' base entries (init_parser_data, parser.c:1595-1613) */
        for (int i = 0; i < m->n_metas; i++) {
            d.mexists[m->metas[i]] = 1;
            d.morder[d.n_morder++] = m->metas[i];
        }
        push(&d, &d.metastack, "swishdefault", 12, m->deflt, 1);
        push(&d, &d.propstack, "/", 1, m->slash, 0);
    }
    int rc = 0;
    if (d.stop == RUNNING) {
        if (html) {
            if (run_html(&view, &MSAX, &d) < 0)
                d.stop = FAILED;
        } else {
            rc = xmlSAXUserParseMemory(&MSAX, &d, (const char *)view.buf,
                                       (int)view.len);
        }
    }
    PyBuffer_Release(&view);
    PyObject *out = NULL;
    PyObject *error = d.error ? d.error : Py_None;
    if (d.stop == DECLINED) {
        out = Py_None;
        Py_INCREF(out);
    } else if (d.stop != FAILED && buffers_put(api, arena, m, &d) == 0) {
        out = Py_BuildValue("(iOO)", rc, error, d.flushes);
    }
    doc_free(&d);
    if (out == NULL && !PyErr_Occurred())
        PyErr_SetString(PyExc_MemoryError, "swishsax extraction");
    return out;
}

static PyObject *
extract_xml(PyObject *self, PyObject *args)
{
    return extract(args, 0);
}

static PyObject *
extract_html(PyObject *self, PyObject *args)
{
    return extract(args, 1);
}

static PyMethodDef methods[] = {
    {"parse_xml", parse_xml, METH_VARARGS,
     "parse_xml(data) -> (rc, events)"},
    {"parse_html", parse_html, METH_VARARGS,
     "parse_html(data) -> (rc, events)"},
    {"compile", compile_machine, METH_VARARGS,
     "compile(spec) -> machine"},
    {"extract_xml", extract_xml, METH_VARARGS,
     "extract_xml(data, machine, arena) -> (rc, error, flushes) | None"},
    {"extract_html", extract_html, METH_VARARGS,
     "extract_html(data, machine, arena) -> (rc, error, flushes) | None"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "swishsax", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit_swishsax(void)
{
    xmlInitParser();
    xmlSubstituteEntitiesDefault(1);  /* parser.c:288 */
    init_sax();
    return PyModule_Create(&moduledef);
}
