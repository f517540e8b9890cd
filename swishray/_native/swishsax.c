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
 * buffers need no NUL terminator. */

static PyObject *
parse_xml(PyObject *self, PyObject *args)
{
    Py_buffer view;
    if (!PyArg_ParseTuple(args, "y*", &view))
        return NULL;
    Ctx c = {0};
    c.events = PyList_New(0);
    if (c.events == NULL) {
        PyBuffer_Release(&view);
        return NULL;
    }
    int rc = xmlSAXUserParseMemory(&SAX, &c, (const char *)view.buf,
                                   (int)view.len);
    PyBuffer_Release(&view);
    return finish(&c, rc);
}

static PyObject *
parse_html(PyObject *self, PyObject *args)
{
    Py_buffer view;
    if (!PyArg_ParseTuple(args, "y*", &view))
        return NULL;
    Ctx c = {0};
    c.events = PyList_New(0);
    if (c.events == NULL) {
        PyBuffer_Release(&view);
        return NULL;
    }
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
     "parse_xml(data) -> (rc, events)"},
    {"parse_html", parse_html, METH_VARARGS,
     "parse_html(data) -> (rc, events)"},
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
