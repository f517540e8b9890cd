/* swishsax — optional C event-batching SAX front-end.
 *
 * Runs the SAME system libxml2 the ctypes front-end in libxml.py drives
 * (the loader links the identical soname, so tag-soup recovery, entity
 * substitution and event ordering are byte-identical by construction)
 * but records the whole document's SAX events into one Python list in
 * C, replacing ~100k CFUNCTYPE trampoline crossings per document with
 * a single C call. Either front-end's (rc, events) batch is consumed by
 * libxml.py:_replay, the only event path.
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
 *   (9, lead, reset, data, trail, last)
 *                                     a RUN: inert elements and the
 *                                     characters among them, folded
 *                                     (only with a collapse plan)
 *
 * Collapse plan. parse_html/parse_xml take an optional plan, the
 * 3-tuple libxml.SaxPlan (keep, xml, xml_atts) that sax.collapse_plan
 * derives from a Config. An element is INERT when its open and close
 * do nothing in sax.py but set bump_word (and, for XML, reset
 * ignore_content to 0): its name is ASCII and, lowercased, not in the
 * frozenset `keep`; an HTML start is not a <meta> with attributes;
 * for XML, `xml` is true, a start's namespace is not XInclude, and it
 * carries no attribute unless `xml_atts` is true. The
 * bump an inert element sets: XML True; HTML True for br/img, else
 * not htmlTagLookup()->isinline, unchanged for an unknown tag
 * (bake_tag, parser.c:395-425). A run starts at an inert element and
 * absorbs the inert elements and characters that follow, up to the
 * next other event (a kept element, a comment, end of document):
 *   data   the run's character pieces joined, with \x03 between two
 *          pieces when the bump in force between them is True
 *   lead   the bump the run's elements leave in force before the
 *          first piece (None = unchanged)
 *   trail  the bump in force after the last piece (a piece clears it)
 *   last   the bump the run's elements leave in force at its end,
 *          pieces aside (None = unchanged)
 *   reset  whether an element of the run resets ignore_content (XML)
 * ExtractionState.replay applies a run in one step. Without a plan
 * every event is emitted. Classifications are cached per name for the
 * plan last used (one plan per extractor, so across documents).
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

/* element classes under a plan */
enum { K_UNSET = 0, K_KEEP, K_FALSE, K_TRUE, K_SAME };

typedef struct {
    PyObject *events;
    int failed;
    int html;             /* parse_html (SAX1 events) or parse_xml */
    /* the collapse plan (borrowed from the call's args), or NULL */
    PyObject *plan, *keep;
    int xml, xml_atts;
    /* pending consecutive-characters merge buffer; while a run is
     * open, the run's data */
    char *buf;
    size_t len, cap;
    /* the open run: bumps are -1 (unchanged), 0 or 1 */
    int run, in_piece, have_piece, reset;
    int lead, cur, last;
} Ctx;

/* Classification cache for one plan, the one last used. Building an
 * event can run a GC finalizer that releases the GIL, so another
 * thread may parse under another plan meanwhile: a parse claims the
 * cache before each lookup (a lookup itself runs no Python code). */
#define SLOT_NAME 40
#define NSLOTS 1024
typedef struct {
    unsigned char len;          /* 0 = empty slot */
    signed char cls[2];         /* [html, xml] */
    char name[SLOT_NAME];
} Slot;

static struct {
    PyObject *plan;             /* the plan the slots belong to */
    int used;
    Slot slots[NSLOTS];
} cache;

static int
classify_name(Ctx *c, const xmlChar *name, size_t n)
{
    /* lowercased copy; bytes objects are NUL-terminated, so it also
     * serves htmlTagLookup */
    PyObject *low = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)n);
    if (low == NULL) {
        c->failed = 1;
        return K_KEEP;
    }
    char *s = PyBytes_AS_STRING(low);
    for (size_t i = 0; i < n; i++) {
        if (name[i] >= 0x80) {
            Py_DECREF(low);
            return K_KEEP;
        }
        s[i] = (name[i] >= 'A' && name[i] <= 'Z') ? name[i] + 32 : name[i];
    }
    int k, r = PySet_Contains(c->keep, low);
    if (r != 0) {
        if (r < 0)
            c->failed = 1;
        k = K_KEEP;
    } else if (!c->html) {
        k = c->xml ? K_TRUE : K_KEEP;
    } else if (strcmp(s, "br") == 0 || strcmp(s, "img") == 0) {
        k = K_TRUE;
    } else {
        const htmlElemDesc *d = htmlTagLookup((const xmlChar *)s);
        k = d == NULL ? K_SAME : (d->isinline ? K_FALSE : K_TRUE);
    }
    Py_DECREF(low);
    return k;
}

static int
classify(Ctx *c, const xmlChar *name)
{
    size_t n = strlen((const char *)name);
    if (n == 0)
        return K_KEEP;
    if (cache.plan != c->plan) {
        Py_INCREF(c->plan);
        Py_XSETREF(cache.plan, c->plan);
        cache.used = 0;
        memset(cache.slots, 0, sizeof(cache.slots));
    }
    Slot *s = NULL;
    if (n < SLOT_NAME) {
        unsigned int h = 2166136261u;  /* FNV-1a */
        for (size_t i = 0; i < n; i++)
            h = (h ^ name[i]) * 16777619u;
        for (unsigned int i = h & (NSLOTS - 1);; i = (i + 1) & (NSLOTS - 1)) {
            s = &cache.slots[i];
            if (s->len == n && memcmp(s->name, name, n) == 0)
                break;
            if (s->len == 0) {
                if (cache.used >= NSLOTS / 2) {
                    s = NULL;  /* full enough: classify uncached */
                    break;
                }
                s->len = (unsigned char)n;
                memcpy(s->name, name, n);
                cache.used++;
                break;
            }
        }
        if (s != NULL && s->cls[!c->html] != K_UNSET)
            return s->cls[!c->html];
    }
    int k = classify_name(c, name, n);
    if (s != NULL && !c->failed)
        s->cls[!c->html] = (signed char)k;
    return k;
}

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

static PyObject *
tri(int bump)
{
    return bump < 0 ? Py_None : bump ? Py_True : Py_False;
}

/* Before any event that is not part of a run: emit the open run, or
 * the pending characters as one characters event. */
static int
flush_chars(Ctx *c)
{
    if (c->len == 0 && !c->run)
        return 0;
    PyObject *b = PyBytes_FromStringAndSize(c->buf, (Py_ssize_t)c->len);
    c->len = 0;
    if (b == NULL) {
        c->failed = 1;
        return -1;
    }
    if (!c->run)
        return append_event(c, Py_BuildValue("(iN)", 3, b));
    c->run = 0;
    return append_event(c, Py_BuildValue(
        "(iOONOO)", 9, tri(c->lead), c->reset ? Py_True : Py_False, b,
        c->have_piece && c->cur == 1 ? Py_True : Py_False, tri(c->last)));
}

/* An inert element of class k joins the open run, or starts one. */
static void
run_element(Ctx *c, int k)
{
    if (!c->run) {
        if (flush_chars(c))
            return;
        c->run = 1;
        c->have_piece = c->reset = 0;
        c->lead = c->cur = c->last = -1;
    }
    c->in_piece = 0;
    if (k != K_SAME)
        c->cur = c->last = (k == K_TRUE);
    if (!c->html)
        c->reset = 1;
}

/* Under a plan: fold the element into a run if it is inert (1), else
 * leave it to be emitted (0). */
static int
fold(Ctx *c, const xmlChar *name)
{
    int k = classify(c, name);
    if (k == K_KEEP)
        return 0;
    run_element(c, k);
    return 1;
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
    if (chars_reserve(c, (size_t)len + 1)) return;
    if (c->run && !c->in_piece) {
        /* a new piece: the bump in force decides its separator */
        if (c->have_piece) {
            if (c->cur == 1)
                c->buf[c->len++] = '\x03';
        } else {
            c->lead = c->cur;
        }
        c->have_piece = c->in_piece = 1;
        c->cur = -1;
    }
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
    /* an attributed <meta> may synthesize a metaname: always kept */
    if (c->plan != NULL && !(atts != NULL && atts[0] != NULL &&
                             xmlStrcasecmp(name, BAD_CAST "meta") == 0) &&
        fold(c, name))
        return;
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
    if (c->plan != NULL && fold(c, name))
        return;
    if (flush_chars(c)) return;
    append_event(c, Py_BuildValue("(iy)", 2, (const char *)name));
}

static int
is_xinclude(const xmlChar *uri)
{
    return uri != NULL &&
        (strcmp((const char *)uri, "http://www.w3.org/2001/XInclude") == 0 ||
         strcmp((const char *)uri, "http://www.w3.org/2003/XInclude") == 0);
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
    /* the attribute list survives truncation iff its first value is
     * non-empty */
    int atts = nb_attributes > 0 && attributes[3] != NULL &&
               attributes[4] != NULL && attributes[4] > attributes[3];
    if (c->plan != NULL && !is_xinclude(uri) && (!atts || c->xml_atts) &&
        fold(c, localname))
        return;
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
    if (c->plan != NULL && fold(c, localname))
        return;
    if (flush_chars(c)) return;
    PyObject *ev;
    if (prefix != NULL)
        ev = Py_BuildValue("(iyy)", 6, (const char *)localname,
                           (const char *)prefix);
    else
        ev = Py_BuildValue("(iyO)", 6, (const char *)localname, Py_None);
    append_event(c, ev);
}

static xmlSAXHandler SAX;

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
}

static PyObject *
finish(Ctx *c, int rc)
{
    flush_chars(c);
    free(c->buf);
    if (c->failed) {
        Py_XDECREF(c->events);
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_MemoryError, "swishsax event capture");
        return NULL;
    }
    return Py_BuildValue("(iN)", rc, c->events);
}

/* Both entry points take y* (any read-only buffer object): the
 * pipeline hands ZERO-COPY memoryview slices of Arrow blocks, which
 * y# would reject. Both libxml2 calls are length-based, so the
 * buffers need no NUL terminator. The optional plan is None or a
 * libxml.SaxPlan (see the header). */

static int
use_plan(Ctx *c, PyObject *plan)
{
    if (plan == Py_None)
        return 0;
    if (!PyTuple_Check(plan) || PyTuple_GET_SIZE(plan) != 3 ||
        !PyAnySet_Check(PyTuple_GET_ITEM(plan, 0))) {
        PyErr_SetString(PyExc_TypeError,
                        "plan must be (keep frozenset, xml, xml_atts)");
        return -1;
    }
    c->xml = PyObject_IsTrue(PyTuple_GET_ITEM(plan, 1));
    c->xml_atts = PyObject_IsTrue(PyTuple_GET_ITEM(plan, 2));
    if (c->xml < 0 || c->xml_atts < 0)
        return -1;
    c->plan = plan;
    c->keep = PyTuple_GET_ITEM(plan, 0);
    return 0;
}

static int
start(Ctx *c, PyObject *args, Py_buffer *view, int html)
{
    PyObject *plan = Py_None;
    if (!PyArg_ParseTuple(args, "y*|O", view, &plan))
        return -1;
    c->html = html;
    if (use_plan(c, plan) < 0 || (c->events = PyList_New(0)) == NULL) {
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

static PyObject *
parse_xml(PyObject *self, PyObject *args)
{
    Py_buffer view;
    Ctx c = {0};
    if (start(&c, args, &view, 0) < 0)
        return NULL;
    int rc = xmlSAXUserParseMemory(&SAX, &c, (const char *)view.buf,
                                   (int)view.len);
    PyBuffer_Release(&view);
    return finish(&c, rc);
}

static PyObject *
parse_html(PyObject *self, PyObject *args)
{
    Py_buffer view;
    Ctx c = {0};
    if (start(&c, args, &view, 1) < 0)
        return NULL;
    /* htmlSAXParseDoc needs a NUL-terminated string; its body is
     * htmlCreateMemoryParserCtxt(cur, strlen(cur)) + sax swap +
     * htmlParseDocument — replicated here with the EXPLICIT length
     * so an un-terminated buffer view parses identically (callers
     * guarantee NUL-free input; the A/B selftest in libxml.py and
     * the extraction fuzz harness pin the equivalence). */
    if (view.len == 0) {
        /* htmlSAXParseDoc("") is a no-op (ctxt creation fails on an
         * empty buffer): zero events, rc 0 — same as before */
        PyBuffer_Release(&view);
        return finish(&c, 0);
    }
    htmlParserCtxtPtr ctxt =
        htmlCreateMemoryParserCtxt((const char *)view.buf,
                                   (int)view.len);
    if (ctxt == NULL) {
        PyBuffer_Release(&view);
        Py_DECREF(c.events);
        PyErr_NoMemory();
        return NULL;
    }
    if (ctxt->sax != NULL && ctxt->sax != (xmlSAXHandlerPtr)&SAX)
        xmlFree(ctxt->sax);
    ctxt->sax = &SAX;        /* static: never freed by libxml */
    ctxt->userData = &c;
    htmlParseDocument(ctxt);
    if (ctxt->myDoc != NULL) {
        xmlFreeDoc(ctxt->myDoc);
        ctxt->myDoc = NULL;
    }
    ctxt->sax = NULL;        /* keep htmlFreeParserCtxt off our SAX */
    htmlFreeParserCtxt(ctxt);
    PyBuffer_Release(&view);
    return finish(&c, 0);
}

static PyMethodDef methods[] = {
    {"parse_xml", parse_xml, METH_VARARGS,
     "parse_xml(data, plan=None) -> (rc, events)"},
    {"parse_html", parse_html, METH_VARARGS,
     "parse_html(data, plan=None) -> (rc, events)"},
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
