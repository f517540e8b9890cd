"""ctypes bindings to the system libxml2 — the exact library the
reference drives (parser.c:2450-2597), so HTML tag-soup recovery,
entity substitution, encoding switching and event ordering are
byte-identical by construction.

We register the same SAX slots the reference registers
(parser.c:1453-1488 ``my_parser``): startDocument/endDocument,
startElement/endElement (SAX1, used by the HTML parser),
startElementNs/endElementNs (SAX2, used by the XML parser),
characters, comment; cdataBlock is left NULL so CDATA falls back to
characters, and ignorableWhitespace is left NULL so the HTML parser
drops "blank" runs — both exactly as the reference behaves.

Which path runs when (formats in the header of ``_native/swishsax.c``):

  * An ExtractionState whose ``sax_plan`` carries a machine (a config
    that passes ``sax.collapse_plan``'s gate, with swishsax loaded)
    goes through swishsax's extraction machine: one C call runs
    libxml2 with handlers that do the state machine's work and returns
    the finished buffers and the ordered flushes, which
    ``ExtractionState.apply`` tokenizes in Python. A document the
    machine declines (or whose tokenizer hook raises) is re-parsed
    through the full event stream below.
  * Everything else gets the full event stream: a libxml2 front-end
    records a whole document's SAX events into one ``(rc, events)``
    batch and ``_replay`` feeds it to the target
    (``ExtractionState.replay`` or a SaxTarget's methods). Two
    front-ends build the same batch: the C extension ``swishsax`` (used
    when it loads) and the ctypes ``_Recorder`` here. At import
    ``_sax_selftest`` checks that both return equal batches on a small
    corpus, and a mismatch drops the C front-end (and with it the
    machine); ``sax`` checks the machine against the replay the same
    way.

Entry points mirror parser.c:
  * xml_parse(buffer, target)  — xmlSAXUserParseMemory with SAX2 magic
    and global entity substitution on (parser.c:287-288, 2450-2535)
  * html_parse(buffer, target) — htmlSAXParseDoc with NUL-terminated
    buffer (htmlCreateMemoryParserCtxt(buf, xmlStrlen(buf)),
    parser.c:2553)
  * check_utf8(data)           — xmlCheckUTF8 (set_encoding,
    parser.c:2725)
  * html_tag_is_inline(tag)    — htmlTagLookup()->isinline, the
    bump_word table (bake_tag, parser.c:395-425)

The library handle and the ctypes recorder are process-global (one per
Ray worker process, mirroring xmlInitParser() in swish_parser_init).
"""

from __future__ import annotations

import ctypes
from ctypes import (
    CFUNCTYPE, POINTER, Structure, c_char_p, c_int, c_uint, c_void_p,
    string_at, cast,
)
from typing import NamedTuple

_lib = None


def _load() -> ctypes.CDLL:
    global _lib
    if _lib is None:
        for name in ("libxml2.so.2", "libxml2.so"):
            try:
                _lib = ctypes.CDLL(name)
                break
            except OSError:
                continue
        if _lib is None:
            raise OSError("libxml2 shared library not found")
        _lib.xmlInitParser()
        # parser.c:288 — resolve text entities globally
        _lib.xmlSubstituteEntitiesDefault(1)
    return _lib


# SAX callback signatures (libxml2/parser.h, stable ABI)
_startDocumentF = CFUNCTYPE(None, c_void_p)
_endDocumentF = CFUNCTYPE(None, c_void_p)
_startElementF = CFUNCTYPE(None, c_void_p, c_char_p, POINTER(c_char_p))
_endElementF = CFUNCTYPE(None, c_void_p, c_char_p)
_charactersF = CFUNCTYPE(None, c_void_p, POINTER(ctypes.c_char), c_int)
_commentF = CFUNCTYPE(None, c_void_p, c_char_p)
_startElementNsF = CFUNCTYPE(
    None, c_void_p, c_char_p, c_char_p, c_char_p, c_int,
    POINTER(c_char_p), c_int, c_int, POINTER(c_void_p))
_endElementNsF = CFUNCTYPE(None, c_void_p, c_char_p, c_char_p, c_char_p)

_XML_SAX2_MAGIC = 0xDEEDBEAF


class _xmlSAXHandler(Structure):
    _fields_ = [
        ("internalSubset", c_void_p),
        ("isStandalone", c_void_p),
        ("hasInternalSubset", c_void_p),
        ("hasExternalSubset", c_void_p),
        ("resolveEntity", c_void_p),
        ("getEntity", c_void_p),
        ("entityDecl", c_void_p),
        ("notationDecl", c_void_p),
        ("attributeDecl", c_void_p),
        ("elementDecl", c_void_p),
        ("unparsedEntityDecl", c_void_p),
        ("setDocumentLocator", c_void_p),
        ("startDocument", _startDocumentF),
        ("endDocument", _endDocumentF),
        ("startElement", _startElementF),
        ("endElement", _endElementF),
        ("reference", c_void_p),
        ("characters", _charactersF),
        ("ignorableWhitespace", c_void_p),
        ("processingInstruction", c_void_p),
        ("comment", _commentF),
        ("warning", c_void_p),
        ("error", c_void_p),
        ("fatalError", c_void_p),
        ("getParameterEntity", c_void_p),
        ("cdataBlock", c_void_p),
        ("externalSubset", c_void_p),
        ("initialized", c_uint),
        ("_private", c_void_p),
        ("startElementNs", _startElementNsF),
        ("endElementNs", _endElementNsF),
        ("serror", c_void_p),
    ]


class SaxTarget:
    """Per-event interface for the small ops targets (feeds, sitemaps,
    links, main content). ``_replay`` calls these methods for each
    event of a batch; a target with its own ``replay(events)``
    (ExtractionState) consumes the batch directly instead."""

    def start_document(self) -> None: ...
    def end_document(self) -> None: ...

    def start_element(self, name: bytes,
                      atts: list[bytes | None] | None) -> None:
        """SAX1 (HTML). ``atts`` is the FLAT (name, value, ...) array —
        flat because bake_tag's HTML <meta> scan walks it by 1,
        matching attribute *values* too (parser.c:434-449)."""

    def end_element(self, name: bytes) -> None: ...

    def start_element_ns(self, localname: bytes, prefix: bytes | None,
                         uri: bytes | None,
                         atts: list[bytes] | None) -> None:
        """SAX2 (XML). ``atts`` is flat (name, value, ...) truncated at
        the first empty-valued attribute (parser.c:898-911)."""

    def end_element_ns(self, localname: bytes, prefix: bytes | None) -> None: ...

    def characters(self, data: bytes) -> None: ...
    def comment(self, data: bytes) -> None: ...


class _Recorder:
    """The ctypes front-end: thunks that record one parse's events as the
    same tuples swishsax builds (see _native/swishsax.c), merging
    consecutive characters events the way its C buffer does.

    A thunk must never unwind an exception through C: the first one
    is latched in ``error``, later events are dropped, and the parse
    call raises it once libxml2 has returned. One instance per process;
    parses never nest (XInclude children parse during the replay,
    after the outer parse has returned)."""

    def __init__(self) -> None:
        self.events: list = []
        self.chars: list[bytes] = []
        self.error: BaseException | None = None

        def latched(fn):
            def thunk(ctx, *args):
                if self.error is None:
                    try:
                        fn(*args)
                    except BaseException as e:
                        self.error = e
            return thunk

        def chars(ch, length):
            if length > 0:
                self.chars.append(string_at(ch, length))

        def start_el(name, atts):
            # SAX1: NULL-terminated flat (name, value, ...) array;
            # values may be NULL for valueless attributes
            alist = None
            if atts and atts[0] is not None:
                alist = []
                i = 0
                while atts[i] is not None:
                    alist += (atts[i], atts[i + 1])
                    i += 2
            self.emit((1, name, alist))

        def start_el_ns(localname, prefix, uri, nb_ns, namespaces,
                        nb_attrs, nb_defaulted, attributes):
            # mystartElementNs (parser.c:876-961): 5 pointers per attr
            # (localname, prefix, URI, value_start, value_end); an attr
            # with an EMPTY value truncates the list at that position
            # (parser.c:898-911 sets atts[j]=NULL on len<=0).
            alist = []
            arr = cast(attributes, POINTER(c_void_p))
            for i in range(0, nb_attrs * 5, 5):
                vstart, vend = arr[i + 3], arr[i + 4]
                if not vstart or not vend or vend - vstart <= 0:
                    break
                alist += (cast(arr[i], c_char_p).value,
                          string_at(vstart, vend - vstart))
            self.emit((5, localname, prefix, uri, alist or None))

        thunks = dict(
            startDocument=_startDocumentF(latched(
                lambda: self.emit((7,)))),
            endDocument=_endDocumentF(latched(lambda: self.emit((8,)))),
            startElement=_startElementF(latched(start_el)),
            endElement=_endElementF(latched(
                lambda name: self.emit((2, name)))),
            characters=_charactersF(latched(chars)),
            comment=_commentF(latched(
                lambda data: self.emit((4, data or b"")))),
            startElementNs=_startElementNsF(latched(start_el_ns)),
            endElementNs=_endElementNsF(latched(
                lambda localname, prefix, uri:
                    self.emit((6, localname, prefix)))),
        )
        self._thunks = thunks  # keep the CFUNCTYPE objects alive
        self.sax = _xmlSAXHandler(initialized=_XML_SAX2_MAGIC, **thunks)

    def flush(self) -> None:
        if self.chars:
            self.events.append((3, b"".join(self.chars)))
            self.chars.clear()

    def emit(self, ev: tuple) -> None:
        self.flush()
        self.events.append(ev)

    def parse(self, buffer: bytes, html: bool) -> tuple[int, list]:
        lib = _load()
        self.events, self.chars, self.error = [], [], None
        if html:
            rc = 0
            doc = lib.htmlSAXParseDoc(buffer, None, ctypes.byref(self.sax),
                                      None)
            if doc:
                lib.xmlFreeDoc(doc)
        else:
            rc = lib.xmlSAXUserParseMemory(ctypes.byref(self.sax), None,
                                           buffer, len(buffer))
        self.flush()
        events, error = self.events, self.error
        self.events, self.error = [], None
        if error is not None:
            raise error
        return rc, events


_recorder: _Recorder | None = None


def _parse_ctypes(buffer: bytes, html: bool) -> tuple[int, list]:
    """Same contract as swishsax.parse_html/parse_xml: (rc, events)."""
    global _recorder
    if _recorder is None:
        lib = _load()
        sax = POINTER(_xmlSAXHandler)
        lib.htmlSAXParseDoc.argtypes = [c_char_p, c_char_p, sax, c_void_p]
        lib.htmlSAXParseDoc.restype = c_void_p
        lib.xmlSAXUserParseMemory.argtypes = [sax, c_void_p, c_char_p,
                                              c_int]
        lib.xmlSAXUserParseMemory.restype = c_int
        lib.xmlFreeDoc.argtypes = [c_void_p]
        lib.xmlFreeDoc.restype = None
        _recorder = _Recorder()
    if type(buffer) is not bytes:
        buffer = bytes(buffer)  # ctypes needs a bytes object
    return _recorder.parse(buffer, html)


class SaxPlan(NamedTuple):
    """An extraction plan (sax.collapse_plan builds it from a Config
    that passes its gate)."""
    machine: object  # swishsax's compiled extraction machine, or None


_XINCLUDE_NSS = (b"http://www.w3.org/2003/XInclude",
                 b"http://www.w3.org/2001/XInclude")


def compile_machine(spec: tuple):
    """swishsax's extraction machine for ``spec`` (the tuple
    sax.collapse_plan builds), or None without swishsax."""
    return _sax_native.compile(spec) if _sax_native is not None else None


def _replay(events: list, target) -> None:
    """Feed an event batch to ``target``: its fused ``replay(events)``
    when it has one (ExtractionState), else the SaxTarget methods —
    same calls, same order, same payloads. An exception stops the
    replay where it was raised."""
    replay = getattr(target, "replay", None)
    if replay is not None:
        replay(events)
        return
    chars = target.characters
    start_el = target.start_element
    end_el = target.end_element
    start_ns = target.start_element_ns
    end_ns = target.end_element_ns
    for ev in events:
        t = ev[0]
        if t == 3:
            chars(ev[1])
        elif t == 1:
            start_el(ev[1], ev[2])
        elif t == 2:
            end_el(ev[1])
        elif t == 5:
            start_ns(ev[1], ev[2], ev[3], ev[4])
        elif t == 6:
            end_ns(ev[1], ev[2])
        elif t == 4:
            target.comment(ev[1])
        elif t == 7:
            target.start_document()
        elif t == 8:
            target.end_document()


def _parse(buffer: bytes, target, html: bool) -> int:
    if _sax_native is None:
        rc, events = _parse_ctypes(buffer, html)
    else:
        plan = getattr(target, "sax_plan", None)
        if plan is not None and plan.machine is not None:
            run = (_sax_native.extract_html if html
                   else _sax_native.extract_xml)
            result = run(buffer, plan.machine)
            # None: the machine declined the document
            if result is not None and target.apply(result):
                return result[0]
        rc, events = (_sax_native.parse_html if html
                      else _sax_native.parse_xml)(buffer)
    _replay(events, target)
    return rc


def xml_parse(buffer: bytes, target) -> int:
    """SAX2 parse of an in-memory XML document (parser.c:2450-2535).
    Returns 0 if well-formed, else the libxml2 errNo; SAX events fired
    for whatever prefix parsed (no recovery flag, like the reference)."""
    return _parse(buffer, target, html=False)


def html_parse(buffer: bytes, target) -> int:
    """HTML tag-soup SAX parse (parser.c:2537-2597): NUL-terminated
    buffer, libxml2's own meta-charset detection, default encoding
    ISO-8859-1 per the HTML spec — all inside libxml2."""
    return _parse(buffer, target, html=True)


def check_utf8(data: bytes) -> bool:
    """xmlCheckUTF8 (set_encoding, parser.c:2725)."""
    return bool(_load().xmlCheckUTF8(data))


class _htmlElemDesc(Structure):
    # libxml2/HTMLparser.h htmlElemDesc — stable public struct
    _fields_ = [
        ("name", c_char_p),
        ("startTag", ctypes.c_char),
        ("endTag", ctypes.c_char),
        ("saveEndTag", ctypes.c_char),
        ("empty", ctypes.c_char),
        ("depr", ctypes.c_char),
        ("dtd", ctypes.c_char),
        ("isinline", ctypes.c_char),
        ("desc", c_char_p),
    ]


_inline_cache: dict[bytes, int | None] = {}


def html_tag_lookup_isinline(tag: bytes) -> int | None:
    """htmlTagLookup(tag)->isinline; None when the tag is not a known
    HTML element (bake_tag, parser.c:400-425)."""
    v = _inline_cache.get(tag)
    if v is None and tag not in _inline_cache:
        lib = _load()
        lib.htmlTagLookup.restype = POINTER(_htmlElemDesc)
        p = lib.htmlTagLookup(tag)
        v = ord(p.contents.isinline) if p else None
        _inline_cache[tag] = v
    return v


_SAX_SELFTEST_DOCS = [
    ("html", b"<html><head><title>T &amp; t</title>"
             b"<meta name=\"a\" content=\"b\"></head>"
             b"<body class=x checked>Hello <b>world</b><br>x<span>y</span>"
             b"<!-- note --> tail<custom>c</custom><p>z</body></html>"),
    ("html", b"<p>broken <div unclosed>soup &lt;tag"),
    ("xml", b"<?xml version=\"1.0\"?>\n<doc xmlns:n=\"urn:x\">"
            b"<n:a k=\"v\" empty=\"\" later=\"skipped\">body</n:a>"
            b"<![CDATA[cd &amp; ata]]><!-- c --><title>t</title></doc>"),
    ("xml", b"<doc><open>no close"),
    ("xml", b"<a><b x=\"1\" y=\"2\">t1</b>t2<c/></a>"),
]


def _sax_selftest() -> bool:
    """The ctypes and C front-ends must return equal (rc, events)."""
    for kind, doc in _SAX_SELFTEST_DOCS:
        html = kind == "html"
        native = _sax_native.parse_html if html else _sax_native.parse_xml
        if _parse_ctypes(doc, html) != native(doc):
            return False
    return True


try:  # optional C front-end and machine (see _native/swishsax.c)
    from ._native import swishsax as _sax_native
except Exception:  # pragma: no cover
    _sax_native = None

if _sax_native is not None:
    try:
        if not _sax_selftest():  # pragma: no cover - host-dependent
            _sax_native = None
    except Exception:  # pragma: no cover
        _sax_native = None
