"""Per-document extraction driver: sniff -> decode -> parse -> record.

Mirrors the reference's document lifecycle (SURVEY.md §3.1):
docinfo resolution (docinfo.c:202-258), IO scrub (io.c:43-73), gzip
(io.c:154-219), parser dispatch (docparser, parser.c:1490-1557), the
TXT parser (parser.c:2599-2710) and encoding bookkeeping
(parser.c:2712-2759) — producing one ExtractionRecord per input row.

The engine consumes table rows (url + body bytes) rather than files;
``DocumentExtractor.extract`` extracts one row, and
``pipeline.ExtractPages`` calls it for every row of a batch.
"""

from __future__ import annotations

import gzip as _gzip
import re
from dataclasses import dataclass, field

from . import constants as C
from .config import Config
from .libxml import check_utf8
from .mime import file_ext, get_mime_type, get_parser
from .sax import (ArenaRow, ExtractionState, ParseAbort, concat_buffers,
                  html_parse, machine_for, read_row, xml_parse)
from .text import scrub_nulls
from .tokenizer import TokenList


@dataclass
class DocInfo:
    """swish_DocInfo (libswish3.h:321-334) minus filesystem-only bits."""
    uri: str = ""
    size: int = 0
    mime: str = ""
    encoding: str = C.DEFAULT_ENCODING
    ext: str = ""
    parser: str = ""
    nwords: int = 0
    is_gzipped: bool = False
    mtime: int = 0


@dataclass
class ExtractionRecord:
    docinfo: DocInfo
    metanames: dict[str, bytes] = field(default_factory=dict)
    properties: dict[str, bytes] = field(default_factory=dict)
    # the token stream as a columnar arena; the token_* properties
    # below are list views of it
    tokens: TokenList = field(default_factory=TokenList)
    error: str | None = None

    @property
    def token_values(self) -> list[bytes]:
        return self.tokens.values

    @property
    def token_positions(self) -> list[int]:
        return self.tokens.positions

    @property
    def token_metas(self) -> list[str]:
        return self.tokens.metas

    @property
    def token_contexts(self) -> list[str]:
        return self.tokens.contexts

    @property
    def token_offsets(self) -> list[int]:
        return self.tokens.offsets


def resolve_docinfo(cfg: Config, uri: str, size: int,
                    mime: str | None = None,
                    parser: str | None = None) -> DocInfo:
    """swish_docinfo_from_filesystem semantics applied to a url
    (docinfo.c:202-258): ext from the uri, gz detection strips to the
    inner ext, ext->MIME->parser via config tables. Explicit
    ``mime``/``parser`` columns override (the stdin-header path,
    docinfo.c:123-199)."""
    di = DocInfo(uri=uri, size=size)
    ext = file_ext(uri)
    if ext == "gz":
        di.is_gzipped = True
        inner = uri[:-3]
        ext = file_ext(inner)
    di.ext = ext if ext else "none"
    di.mime = mime if mime else get_mime_type(cfg, di.ext)
    di.parser = parser if parser else get_parser(cfg, di.mime)
    return di


class DocumentExtractor:
    """Stateful per-worker extractor: build once (config + libxml2 init
    + tokenizer tables), call per document (swish_3 equivalent,
    swish.c:47-70). ``pipeline.ExtractPages`` builds one per worker
    process and reuses it for every batch."""

    def __init__(self, config: Config | None = None,
                 swish_encoding: str = C.DEFAULT_ENCODING,
                 tokenizer=None, stemmer=None, xinclude_resolver=None):
        self.config = config if config is not None else Config.default()
        # $SWISH_ENCODING equivalent (parser.c:2610, set_encoding)
        self.swish_encoding = swish_encoding
        # analyzer hooks (libswish3.h:411-412): a custom tokenizer
        # replaces swish_tokenize (signature: fn(token_list, data,
        # meta, context) -> n_added); a stemmer maps each token value
        # (bytes -> bytes) after tokenization, like the Xapian
        # program's Xapian::Stem wiring
        self.tokenizer = tokenizer
        self.stemmer = stemmer
        # XInclude seam (process_xinclude, parser.c:990-1079): the
        # reference resolves hrefs against the filesystem; a table-
        # scale engine reads bodies from columns, so the caller
        # provides ``fn(resolved_uri: str) -> bytes | None`` (None =
        # skip, mirroring SWISH_WARN "Skipping XInclude"). With no
        # resolver, xi:include elements record an error marker row.
        self.xinclude_resolver = xinclude_resolver
        # swishsax's extraction machine for this config, which runs a
        # whole document in one call (None: the event replay)
        self.machine = machine_for(self.config)

    # -- encoding helpers ----------------------------------------------

    def _set_encoding(self, data: bytes) -> str:
        """set_encoding (parser.c:2712-2731)."""
        if check_utf8(data):
            return C.DEFAULT_ENCODING
        return self.swish_encoding

    # EncodingDecl: S 'encoding' Eq ('"' EncName '"' | "'" EncName "'"),
    # Eq ::= S? '=' S?
    _ENCODING_DECL = re.compile(
        rb"""encoding[ \t\r\n]*=[ \t\r\n]*(?:"([^"]*)"|'([^']*)')""")

    @classmethod
    def _xml_declared_encoding(cls, data: bytes) -> str | None:
        """The encoding libxml2 records in ctxt->encoding: the XML
        declaration's encoding value, verbatim (document_encoding,
        parser.c:2733-2759)."""
        head = bytes(data[:256])  # tiny copy; data may be a view
        i = head.find(b"<?xml")
        if i < 0:
            return None
        end = head.find(b"?>", i)
        decl = head[i:end if end > 0 else len(head)]
        m = cls._ENCODING_DECL.search(decl)
        if m is None:
            return None
        return (m.group(1) if m.group(1) is not None
                else m.group(2)).decode("latin-1")

    # -- main entry -----------------------------------------------------

    def extract(self, uri: str, body: bytes | memoryview,
                mime: str | None = None, parser: str | None = None,
                arena=None) -> ExtractionRecord:
        """Parse one document; never raises — failures land in
        record.error (the per-row error side-channel, SURVEY.md §4).

        ``body`` may be a ZERO-COPY buffer view (pipeline's Arrow
        slice path) under the contract that a view is NUL-free — the
        no_nulls scrub (io.c:43-73) triggers only on NUL bytes, so
        the view path skips it exactly when the reference would
        no-op; NUL-carrying rows arrive as bytes (see
        pipeline._binary_views).

        The body is prepared once (``_prelude``), then takes one of two
        routes. An HTML or XML row the machine finishes goes straight
        into the open row of ``arena``, a batch's record arena
        (``swishtok.Arena``, see ``pipeline.ExtractPages``), or without
        one into a one-row arena that ``sax.read_row`` reads back into
        the record (``sax.ArenaRow``). Every other row (TXT, an empty
        or broken gzip body, ``enforce_property_max``, a row the
        machine declined) replays through an ExtractionState whose
        token list is ``arena``, if given, so the machine runs at most
        once per row. With ``arena`` the row is committed, and the
        returned record carries only ``docinfo`` and ``error``. A
        stemmer rewrites a finished token list, which an arena cannot
        take back, so ``arena`` with a stemmer raises ValueError."""
        if arena is not None and self.stemmer is not None:
            raise ValueError("extract: a stemmer cannot write into an arena")
        di = resolve_docinfo(self.config, uri, len(body), mime, parser)
        rec = ExtractionRecord(docinfo=di)
        try:
            body = self._prelude(body, di)
        except ParseAbort as e:
            rec.error = str(e)
        if (rec.error is None and self.machine is not None
                and di.parser[:1].upper() in ("H", "X")
                and not self.config.enforce_property_max):
            row = ArenaRow(arena, self.machine, self.tokenizer)
            if self._parse_row(body, row, di, rec) is not None:
                di.nwords = row.nwords
                if arena is not None:
                    arena.commit()
                else:
                    rec.metanames, rec.properties, rec.tokens = \
                        read_row(row.arena)
                    self._stem(rec)
                return rec
            # the machine declined the row: it replays below
        state = ExtractionState(self.config, uri=uri,
                                tokenizer=self.tokenizer)
        if arena is not None:
            state.token_list = arena
        if self.xinclude_resolver is not None and self.config.follow_xinclude:
            state.xinclude_cb = self._xinclude_cb(state, 0)
        if rec.error is None:
            self._parse_row(body, state, di, rec)
        self._finish(rec, state, arena)
        return rec

    def _parse_row(self, body: bytes | memoryview, state, di: DocInfo,
                   rec: ExtractionRecord) -> int | None:
        """``_dispatch`` for one row, its failure recorded in
        ``rec.error``. None, with nothing of the row in the arena, when
        ``state`` is an ArenaRow (the machine route) whose document the
        machine does not finish (``sax._fill_row``)."""
        try:
            return self._dispatch(body, state, di)
        except ParseAbort as e:
            rec.error = str(e)
        except Exception as e:  # defensive: never kill the batch
            rec.error = f"{type(e).__name__}: {e}"
        return 0

    def _prelude(self, body: bytes | memoryview,
                 di: DocInfo) -> bytes | memoryview:
        """docparser's prelude (parser.c:2450-2535): gunzip, NUL scrub,
        the post-gunzip size reset and the empty check. Returns the
        body every route parses; raises ParseAbort on a body that
        cannot be gunzipped or is empty."""
        if di.is_gzipped:
            try:
                body = _gzip.decompress(body)
            except Exception as e:
                raise ParseAbort(f"gzip: {e}") from e
            di.size = len(body)  # docparser resets size post-gunzip
        # io.c no_nulls: NUL and \x03 -> newline (only when a NUL
        # exists, matching the reference's guard). A memoryview body
        # is NUL-free by the zero-copy contract (extract docstring)
        # so the scrub is the same no-op it would be on the bytes.
        # The scrub keeps the length, and leaves nothing for the
        # reference's NUL cut before the HTML parse to cut.
        if isinstance(body, (bytes, bytearray)):
            body = scrub_nulls(body)
        if not body:
            # docparser: empty doc -> warn, no parse, empty record
            raise ParseAbort("empty-document")
        return body

    def _docparse(self, body: bytes, state: ExtractionState,
                  di: DocInfo) -> None:
        """docparser (parser.c:2450-2535): the prelude, then dispatch to
        the HTML/XML/TXT parser. XInclude children parse through it;
        raises ParseAbort on unparseable input."""
        self._dispatch(self._prelude(body, di), state, di)

    def _dispatch(self, body: bytes | memoryview, state,
                  di: DocInfo) -> int | None:
        """Parse a prepared body into ``state`` (an ExtractionState, or
        on the machine route an ArenaRow) with the parser ``di`` names.
        Returns ``html_parse``/``xml_parse``'s rc (0 for TXT)."""
        p0 = di.parser[:1].upper()
        if p0 == "H":
            # html_parser (parser.c:2537-2597): docinfo encoding is
            # the env default — libxml2 does its own charset
            # switching internally
            di.encoding = self.swish_encoding
            return html_parse(body, state)
        if p0 == "X":
            rc = xml_parse(body, state)
            enc = self._xml_declared_encoding(body)
            di.encoding = enc if enc else self.swish_encoding
            return rc
        if p0 == "T":
            self._txt_parse(body, state, di)
            return 0
        raise ParseAbort(
            f"no parser known for MIME '{di.mime}' parser '{di.parser}'")

    # -- XInclude (process_xinclude / xinclude_handler) ------------------

    _XINCLUDE_MAX_DEPTH = 16

    def _xinclude_cb(self, state: ExtractionState, depth: int):
        def cb(href: str, is_text: bool) -> None:
            self._process_xinclude(state, href, is_text, depth)
        return cb

    def _process_xinclude(self, parent: ExtractionState, href: str,
                          is_text: bool, depth: int) -> None:
        """parser.c:990-1079 (process_xinclude) + :964-988
        (xinclude_handler): flush the parent's pending buffer, parse
        the referenced doc with a fresh state sharing the parent's
        doc-local config view (the reference shares s3->config, so
        child-vivified metanames are visible to the parent), then merge
        tokens (renumbered into the parent stream), nwords, and the
        \\x03-joined buffers. The depth cap is an engine guard the
        reference lacks (a self-including doc recurses it to death)."""
        head = parent.metastack.head
        parent.flush_buffer(head.baked, head.context)
        if depth >= self._XINCLUDE_MAX_DEPTH:
            if parent.parse_error is None:
                parent.parse_error = "xinclude-depth-exceeded"
            return
        if href.startswith("/"):
            xuri = href
        else:
            # xmlBuildURI(href, dirname-with-trailing-sep) equivalent
            from urllib.parse import urljoin
            i = parent.uri.rfind("/")
            base = parent.uri[:i + 1] if i >= 0 else "./"
            xuri = urljoin(base, href)
        try:
            body = self.xinclude_resolver(xuri)
        except Exception:
            body = None
        if body is None:
            return  # SWISH_WARN("Skipping XInclude %s") — skip row-local

        di = resolve_docinfo(parent.config, xuri, len(body))
        if is_text and di.parser != C.PARSER_TXT:
            # parse="text" forces the TXT parser (parser.c:1048-1051)
            di.parser = C.PARSER_TXT
        parent._own_config()
        child = ExtractionState(parent.config, uri=xuri,
                                tokenizer=self.tokenizer)
        # share the parent's (already copied) doc-local config view so
        # vivifications propagate BOTH ways, like the reference's
        # single s3->config — while the top-level CoW still isolates
        # this whole document cluster from the actor's pristine config
        child._cfg_copied = True
        child.xinclude_cb = self._xinclude_cb(child, depth + 1)
        try:
            self._docparse(body, child, di)
        except Exception:
            pass  # reference merges whatever parsed (rc is ignored)

        # xinclude_handler: child tokens append with fresh consecutive
        # parent positions (swish_token_list_add_token ++pos), into the
        # parent's TokenList or the batch arena alike
        sink, tl = parent.token_list, child.token_list
        for value, meta, context in zip(tl.values, tl.metas, tl.contexts):
            sink.add(value, meta, context)
        parent.nwords += child.nwords
        concat_buffers(parent.metanames, child.metanames)
        concat_buffers(parent.properties, child.properties)
        # bubble the engine's own xinclude guard markers to the root
        # record; other child parse errors stay silent like the
        # reference (docparser rc is ignored there)
        if (child.parse_error is not None and parent.parse_error is None
                and child.parse_error.startswith("xinclude-")):
            parent.parse_error = child.parse_error

    def _txt_parse(self, body: bytes, state: ExtractionState,
                   di: DocInfo) -> None:
        """txt_parser (parser.c:2599-2710)."""
        if not isinstance(body, (bytes, bytearray)):
            body = bytes(body)  # TXT transcodes/decodes: needs bytes
        di.encoding = self._set_encoding(body)
        if di.encoding != C.DEFAULT_ENCODING:
            # reference transcodes only when the declared/env encoding
            # is latin1-ish; any other non-UTF-8 reaches the tokenizer
            # raw (and crashes the reference — we record an error and
            # transcode the same way latin1 would)
            body = body.decode("latin-1").encode("utf-8")
        elif not check_utf8(body):
            # reference would croak in swish_locale_to_wchar
            # (string.c:656-677); engine records the error row instead
            raise ParseAbort("invalid UTF-8 in TXT document under "
                             f"SWISH_ENCODING={self.swish_encoding}")
        state.metastack.push(C.DEFAULT_METANAME, C.DEFAULT_METANAME)
        state.buffer_characters(body)
        state.flush_buffer(C.DEFAULT_METANAME, C.DEFAULT_METANAME)
        state.metastack.push(C.TITLE_METANAME, C.TITLE_METANAME)
        state.buffer_characters(di.uri.encode("utf-8"))
        state.flush_buffer(C.TITLE_METANAME, C.TITLE_METANAME)

    def _finish(self, rec: ExtractionRecord, state: ExtractionState,
                arena=None) -> None:
        rec.docinfo.nwords = state.nwords
        rec.metanames = {k: bytes(v) for k, v in state.metanames.items()}
        rec.properties = {k: bytes(v) for k, v in state.properties.items()}
        if self.config.enforce_property_max:
            # engine extension: truncate stored property values to
            # Property.max CHARACTERS (Swish-e 2.x
            # PropertyNamesMaxLength intent). Off by default — the
            # reference binary stores the full value even with
            # max=N configured (header.c parses it, nothing reads it).
            for name, val in rec.properties.items():
                prop = self.config.properties.get(name)
                if prop is not None and prop.max > 0:
                    try:
                        txt = val.decode("utf-8")
                        if len(txt) > prop.max:
                            rec.properties[name] = \
                                txt[:prop.max].encode("utf-8")
                    except UnicodeDecodeError:
                        rec.properties[name] = val[:prop.max]
        if arena is not None:
            # the arena holds the row's tokens already: the buffers
            # join them there, not in the returned record
            arena.add_buffers(rec.metanames, rec.properties)
            arena.commit()
            rec.metanames, rec.properties = {}, {}
        else:
            rec.tokens = state.token_list
            self._stem(rec)
        if rec.error is None and state.parse_error is not None:
            rec.error = state.parse_error

    def _stem(self, rec: ExtractionRecord) -> None:
        """The stemmer, if any, over ``rec``'s finished token list."""
        if self.stemmer is not None and len(rec.tokens):
            try:
                rec.tokens.map_values(self.stemmer)
            except Exception as e:  # extract() never raises per-row
                if rec.error is None:
                    rec.error = f"stemmer: {type(e).__name__}: {e}"
