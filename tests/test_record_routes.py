"""The two routes of a batch row into the record arena.

``DocumentExtractor.extract`` prepares each row's body once (gunzip,
NUL scrub, empty check), then sends it down one of two routes: a row
the extraction machine finishes goes straight into the arena
(``sax.ArenaRow``), and every other row runs through an
``ExtractionState`` whose token list is the arena. These tests pin
what the routes promise: the machine runs at most once per row, gzip'd
and NUL-bearing markup reaches the machine, an arena never meets a
stemmer, and both the XInclude merge and a raising tokenizer hook give
the same tokens into a TokenList and into the arena."""

import gzip

import numpy as np
import pyarrow as pa
import pytest

from swishray import extractor, pipeline, sax
from swishray.config import Config
from swishray.extractor import DocumentExtractor
from swishray.pipeline import ExtractPages

from test_record_arena import (HAND, _XINCLUDE, _assert_equal, _both,
                               _boom_tokenizer, _hand_table, needs_arena)


def _machine_or_skip(ex: DocumentExtractor) -> None:
    if ex.machine is None:
        pytest.skip("swishsax's machine is not loaded")


class _CountingMachine:
    """``sax._machine`` with its two extraction calls recorded."""

    def __init__(self, native):
        self.native = native
        self.bodies: list[bytes] = []

    def __getattr__(self, name):
        return getattr(self.native, name)

    def extract_html(self, body, *args):
        self.bodies.append(bytes(body))
        return self.native.extract_html(body, *args)

    def extract_xml(self, body, *args):
        self.bodies.append(bytes(body))
        return self.native.extract_xml(body, *args)


@needs_arena
def test_a_declined_row_runs_the_machine_once(monkeypatch):
    """A row the machine declines on the machine route replays on the
    record route without going through the machine again."""
    stage = ExtractPages(emit="full", xinclude_docs=_XINCLUDE)
    _machine_or_skip(stage._extractor())
    declined = [(u, b) for u, b in HAND
                if u.rsplit("/", 1)[1] in ("declined.xml", "declined.html")]
    assert len(declined) == 2
    counting = _CountingMachine(sax._machine)
    monkeypatch.setattr(sax, "_machine", counting)
    got = stage(_hand_table(declined))
    assert sorted(counting.bodies) == sorted(b for _, b in declined)
    monkeypatch.setattr(sax, "_machine", counting.native)
    _assert_equal(got, _both(monkeypatch, stage, _hand_table(declined))[1])


@needs_arena
def test_nul_and_gzip_markup_rows_build_no_extraction_state(monkeypatch):
    """The body is prepared before a route is picked, so gzip'd and
    NUL-bearing HTML and XML rows go through the machine."""
    stage = ExtractPages(emit="full")
    _machine_or_skip(stage._extractor())
    built = []

    class Counted(sax.ExtractionState):
        def __init__(self, config, uri="", tokenizer=None):
            built.append(uri)
            super().__init__(config, uri, tokenizer)
    rows = [
        ("https://n.example/nul.html", b"<p>before\x00after</p> tail"),
        ("https://n.example/nul.xml", b"<doc><a>x\x00y</a>z</doc>"),
        ("https://n.example/zip.html.gz",
         gzip.compress(b"<p>zipped <b>page</b></p>")),
        ("https://n.example/zip.xml.gz",
         gzip.compress(b"<doc><a>zipped</a> xml\x00nul</doc>")),
        ("https://n.example/plain.txt", b"text builds a state"),
    ]
    monkeypatch.setattr(extractor, "ExtractionState", Counted)
    got = stage(_hand_table(rows))
    assert built == ["https://n.example/plain.txt"]
    _assert_equal(got, _both(monkeypatch, stage, _hand_table(rows))[1])
    assert got.column("error").to_pylist() == [None] * len(rows)


@needs_arena
def test_a_stemmer_cannot_write_into_an_arena():
    """The stemmer rewrites a finished token list; an arena takes each
    token once, so the pair is refused. Without an arena it stems."""
    ex = DocumentExtractor(stemmer=lambda v: v[:3])
    arena = pipeline._arena.Arena(pipeline._MAX_INT32_OFFSET)
    body = b"<p>running words</p>"
    with pytest.raises(ValueError, match="stemmer"):
        ex.extract("https://s.example/a.html", body, arena=arena)
    assert ex.extract("https://s.example/a.html",
                      body).token_values == [b"run", b"wor"]


class _CappedHooked(ExtractPages):
    """ExtractPages over a config with ``enforce_property_max`` and a
    tokenizer hook that raises on a marker word."""

    def _extractor(self):
        if self._ex is None:
            cfg = Config.default()
            cfg.add("<swish><PropertyNames><blurb max=\"5\"/>"
                    "</PropertyNames><MetaNames><blurb/></MetaNames>"
                    "</swish>")
            cfg.enforce_property_max = True
            self._ex = DocumentExtractor(cfg, tokenizer=_boom_tokenizer)
        return self._ex


@needs_arena
def test_a_raising_hook_under_property_max_matches_the_reference(
        monkeypatch):
    """``enforce_property_max`` keeps a row off the machine route, so
    the record route runs the machine into the arena; a hook that
    raises there rolls the arena's open row back and the row replays,
    as the same row does into a TokenList."""
    rows = HAND + [
        ("https://c.example/boom.xml",
         b"<doc><blurb>long blurb words</blurb><i>x boom y</i></doc>"),
        ("https://c.example/capped.xml",
         b"<doc><blurb>abcdefghij klm</blurb><i>kept words</i></doc>"),
        ("https://c.example/boom.html",
         b"<html><head><title>t</title></head><body>pre boom</body>"
         b"</html>")]
    got, want = _both(monkeypatch, _CappedHooked(emit="full"),
                      _hand_table(rows))
    _assert_equal(got, want)
    errors = got.column("error").to_pylist()
    assert errors[-3] == errors[-1] == "RuntimeError: boom"
    props = dict(got.column("properties").to_pylist()[-2])
    assert props["blurb"] == "abcde"


_CHILD = b"<part><b>three<!-- gap -->four</b>six</part>"
_PARENT = (b"<doc xmlns:xi=\"http://www.w3.org/2001/XInclude\">"
           b"<a>one two</a><xi:include href=\"c.xml\"/><a>five</a></doc>")


def test_xinclude_merge_renumbers_into_a_token_list_and_an_arena():
    """The XInclude merge appends the child's tokens after the
    parent's with fresh consecutive positions (the child's own are 1,
    3, 4), into the record's TokenList and into the batch arena
    alike."""
    cfg = Config.default()
    cfg.add("<swish><MetaNames><a/><b/></MetaNames></swish>")
    ex = DocumentExtractor(
        cfg, xinclude_resolver={"https://x.example/c.xml": _CHILD}.get)
    child = ex.extract("https://x.example/c.xml", _CHILD).tokens
    assert child.positions == [1, 3, 4]

    values = [b"one", b"two", b"three", b"four", b"six", b"five"]
    runs = [("a", "swishdefault/a", 2), ("b", "swishdefault/b", 2),
            ("swishdefault", "swishdefault", 1), ("a", "swishdefault/a", 1)]
    rec = ex.extract("https://x.example/p.xml", _PARENT)
    tl = rec.tokens
    assert rec.error is None and rec.docinfo.nwords == 6
    assert tl.values == values
    assert tl.positions == [1, 2, 3, 4, 5, 6]
    assert tl.runs == runs
    assert tl.offsets == [0, 4, 8, 14, 19, 23]
    if pipeline._arena is None:
        return
    arena = pipeline._arena.Arena(pipeline._MAX_INT32_OFFSET)
    row = ex.extract("https://x.example/p.xml", _PARENT, arena=arena)
    assert row.error is None and row.docinfo.nwords == 6
    cols = {k: pa.chunked_array([v]) if isinstance(v, pa.Array) else v
            for k, v in pipeline._arena_columns(arena, "full").items()}
    # offsets into the arena's token bytes, which hold no separator
    assert cols["token_values"].to_pylist() == [values]
    assert cols["token_positions"].to_pylist() == [[1, 2, 3, 4, 5, 6]]
    assert cols["token_metas"].to_pylist() == [tl.metas]
    assert cols["token_contexts"].to_pylist() == [tl.contexts]
    flat = cols["token_values"].chunk(0).values
    offsets = np.frombuffer(flat.buffers()[1], np.int32, len(flat) + 1,
                            4 * flat.offset)
    assert offsets.tolist() == [0, 3, 6, 11, 15, 18, 22]


@needs_arena
def test_an_aborted_row_gets_one_encoding_on_both_routes(monkeypatch):
    """A row the machine finishes with a ParseAbort (an undefined name
    under ``UndefinedMetaTags error``) gets the docinfo the reference
    route gives it: an XML row's encoding is read from its declaration
    only after a parse that did not abort (both routes share
    ``_dispatch``)."""
    rows = [
        ("https://e.example/a.xml",
         b"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><doc><x>y</x>"
         b"</doc>"),
        ("https://e.example/b.xml", b"<doc><x>y</x></doc>"),
        ("https://e.example/c.html",
         b"<html><body><meta name=zz content=q>x</body></html>")]
    stage = ExtractPages(
        config_xml="<swish><UndefinedMetaTags>error</UndefinedMetaTags>"
                   "</swish>", swish_encoding="ISO-8859-1", emit="full")
    _machine_or_skip(stage._extractor())
    got, want = _both(monkeypatch, stage, _hand_table(rows))
    _assert_equal(got, want)
    assert got.column("encoding").to_pylist() == [
        "UTF-8", "UTF-8", "ISO-8859-1"]
    assert all(got.column("error").to_pylist())
