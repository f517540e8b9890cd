"""The batch record arena against the reference route.

``ExtractPages`` extracts each batch into one record arena
(``pipeline._arena``, swishtok's ``Arena``) whose buffers become the
output columns; with no arena, per-row records are joined into columns
(``_utf8_column``, ``_map_column``, ``token_columns``). Both routes must
give equal tables for every ``emit``, on the benchmark tables and on
hand-made rows of every kind, split into row chunks or not, and with a
tokenizer hook in place of ``tokenize_into``."""

import gzip
import json
import os
import pathlib
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from swishray import extractor, pipeline, sax
from swishray.extractor import DocumentExtractor
from swishray.pipeline import ExtractPages
from swishray.tokenizer import tokenize_into

ROOT = pathlib.Path(__file__).resolve().parent.parent

needs_arena = pytest.mark.skipif(pipeline._arena is None,
                                 reason="swishtok's arena not built")

_PART = (b"<?xml version=\"1.0\"?>\n<part><a>included words</a>"
         b"<b>more</b></part>")
_XINCLUDE = {"https://h.example/part.xml": _PART}

# (url, body): one row of every kind the arena takes
HAND = [
    ("https://h.example/a.html",
     b"<html><head><title>The Title</title><meta name=keywords "
     b"content=\"k1 k2\"></head><body><p>Hello <b>World</b></p></body>"
     b"</html>"),
    ("https://h.example/b.xml",
     b"<?xml version=\"1.0\" encoding=\"ISO-8859-1\"?><doc><title>x</title>"
     b"<item>one two</item></doc>"),
    ("https://h.example/nul.html", b"<p>before\x00after</p> tail"),
    ("https://h.example/empty.html", b""),
    ("https://h.example/null.html", None),
    ("https://h.example/zip.txt.gz",
     gzip.compress("gzipped text, café".encode())),
    ("https://h.example/zip.html.gz", gzip.compress(b"<p>zipped page</p>")),
    ("https://h.example/latin1.txt", b"caf\xe9 cr\xe8me br\xfbl\xe9e"),
    ("https://h.example/bad.txt", b"ok \xff\xfe broken"),
    ("https://h.example/utf8.txt", "naïve ﬁle Ωmega".encode()),
    ("https://h.example/xi.xml",
     b"<?xml version=\"1.0\"?>\n"
     b"<doc xmlns:xi=\"http://www.w3.org/2001/XInclude\">"
     b"<a>before</a><xi:include href=\"part.xml\"/><a>after</a></doc>"),
    # a non-ASCII element or <meta> name: the machine declines it
    ("https://h.example/declined.xml",
     "<doc><él>y</él><b>w</b>z</doc>".encode()),
    ("https://h.example/declined.html",
     "<p>a<meta name=\"kéy\" content=\"v\">b</p>".encode()),
    ("https://h.example/long.html",
     b"<html><body>" + b"<p>word%d and more</p>" * 300 % tuple(range(300))
     + b"</body></html>"),
    ("https://h.example/none.bin", b"no parser for this"),
]


def _hand_table(rows=HAND) -> pa.Table:
    return pa.table({"url": [u for u, _ in rows],
                     "html": pa.array([b for _, b in rows], pa.binary())})


def _both(monkeypatch, stage, table):
    """``stage(table)`` through the arena, then through the reference
    route."""
    got = stage(table)
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_arena", None)
        want = stage(table)
    return got, want


def _assert_equal(got: pa.Table, want: pa.Table) -> None:
    assert got.schema == want.schema
    for name in want.column_names:
        assert got.column(name).equals(want.column(name)), name
    assert got.equals(want)


def test_keep_input_columns_may_not_shadow_an_output_column():
    """A kept input column named like an output column would replace
    the extracted one (an input ``text`` column came back as the
    output's ``text``)."""
    with pytest.raises(ValueError, match="'text'"):
        ExtractPages(emit="text", keep_input_columns=("text", "lang", "url"))
    with pytest.raises(ValueError, match="'metanames'"):
        ExtractPages(emit="buffers", keep_input_columns=("metanames",))
    with pytest.raises(ValueError, match="'token_values'"):
        ExtractPages(emit="full", keep_input_columns=("token_values",))
    # a name only a richer emit produces is free to keep
    ExtractPages(emit="text", keep_input_columns=("metanames",))
    pages = pa.table({"url": ["https://k.example/a.html"],
                      "html": [b"<html><body>hello world</body></html>"],
                      "text": ["INPUT TEXT"], "lang": ["en"]})
    out = ExtractPages(emit="text", keep_input_columns=("lang",))(pages)
    assert out.column("text").to_pylist() == ["hello world"]
    assert out.column("lang").to_pylist() == ["en"]


@needs_arena
@pytest.mark.parametrize("workload,seed", [
    (w, s) for w in ("markup_dense", "text_bulk", "dedup_chain")
    for s in (31, 32)])
def test_arena_matches_reference_on_benchmark_tables(monkeypatch, workload,
                                                     seed):
    sys.path.insert(0, str(ROOT))
    from perfbench.corpus import make_table

    table, _ = make_table(workload, seed)
    enc = "ISO-8859-1" if workload == "text_bulk" else "UTF-8"
    for emit in ("text", "buffers", "full"):
        got, want = _both(monkeypatch,
                          ExtractPages(emit=emit, swish_encoding=enc), table)
        _assert_equal(got, want)


@needs_arena
@pytest.mark.parametrize("emit", ["text", "buffers", "full"])
@pytest.mark.parametrize("enc", ["UTF-8", "ISO-8859-1"])
def test_arena_matches_reference_on_hand_made_rows(monkeypatch, emit, enc):
    stage = ExtractPages(emit=emit, swish_encoding=enc, max_doc_bytes=2000,
                         xinclude_docs=_XINCLUDE)
    got, want = _both(monkeypatch, stage, _hand_table())
    _assert_equal(got, want)
    errors = got.column("error").to_pylist()
    assert errors[HAND.index(("https://h.example/empty.html", b""))] \
        == "empty-document"
    assert any(e and e.startswith("truncated@2000") for e in errors)
    if enc == "UTF-8":
        assert any(e and "invalid UTF-8" in e for e in errors)


@needs_arena
def test_arena_splits_chunks_where_the_reference_does(monkeypatch):
    """With the int32 offset limit lowered, the token columns come out
    as the same row chunks through both routes; a row past the limit
    alone fails both."""
    table = _hand_table()
    stage = ExtractPages(emit="full", xinclude_docs=_XINCLUDE)
    whole = stage(table)
    row_bytes = pc.binary_length(pc.list_flatten(
        whole.column("token_values"))).to_pylist()
    counts = pc.list_value_length(whole.column("token_values")).to_pylist()
    per_row, i = [], 0
    for n in counts:
        per_row.append(max(sum(row_bytes[i:i + n]), n))
        i += n
    monkeypatch.setattr(pipeline, "_MAX_INT32_OFFSET", max(per_row) + 10)
    got, want = _both(monkeypatch, stage, table)
    _assert_equal(got, want)
    for name in pipeline._TOKEN_COLUMNS:
        assert got.column(name).num_chunks > 1
        assert ([len(c) for c in got.column(name).chunks]
                == [len(c) for c in want.column(name).chunks])
    _assert_equal(got, whole)
    monkeypatch.setattr(pipeline, "_MAX_INT32_OFFSET", max(per_row) - 1)
    for arena in (pipeline._arena, None):
        monkeypatch.setattr(pipeline, "_arena", arena)
        with pytest.raises(OverflowError, match="int32 offset range"):
            stage(table)


def _ws_tokenizer(tl, data, meta, context):
    """A hook that adds tokens one by one (``TokenList.add``)."""
    n0 = len(tl)
    for w in data.split():
        tl.add(w, meta, context)
    return len(tl) - n0


def _boom_tokenizer(tl, data, meta, context):
    """``tokenize_into``, except that it raises on a marker word."""
    if b"boom" in data:
        raise RuntimeError("boom")
    return tokenize_into(tl, data, meta, context)


class _Hooked(ExtractPages):
    """ExtractPages over an extractor with a tokenizer hook."""

    def __init__(self, hook, **kw):
        super().__init__(**kw)
        self.hook = hook

    def _extractor(self):
        if self._ex is None:
            self._ex = DocumentExtractor(
                swish_encoding=self.swish_encoding, tokenizer=self.hook,
                xinclude_resolver=_XINCLUDE.get)
        return self._ex


@needs_arena
@pytest.mark.parametrize("hook", [_ws_tokenizer, _boom_tokenizer])
def test_arena_matches_reference_with_a_tokenizer_hook(monkeypatch, hook):
    rows = HAND + [
        ("https://h.example/boom.html",
         b"<html><head><title>first words</title></head><body><p>before"
         b"</p><meta name=keywords content=\"kw boom\"><p>after</p></body>"
         b"</html>"),
        ("https://h.example/boom.xml",
         b"<doc><title>t boom</title><item>more</item></doc>")]
    got, want = _both(monkeypatch, _Hooked(hook, emit="full"),
                      _hand_table(rows))
    _assert_equal(got, want)
    if hook is _boom_tokenizer:
        assert got.column("error").to_pylist()[-2:] == \
            ["RuntimeError: boom"] * 2


@needs_arena
def test_machine_rows_build_no_extraction_state(monkeypatch):
    """A row the machine finishes goes straight into the arena; only
    the rows it does not take build an ExtractionState."""
    stage = ExtractPages(emit="full", xinclude_docs=_XINCLUDE)
    if stage._extractor().machine is None:
        pytest.skip("swishsax's machine is not loaded")
    built = []

    class Counted(sax.ExtractionState):
        def __init__(self, config, uri="", tokenizer=None):
            built.append(uri)
            super().__init__(config, uri, tokenizer)
    monkeypatch.setattr(extractor, "ExtractionState", Counted)
    stage(_hand_table())
    machine_rows = {"https://h.example/a.html", "https://h.example/b.xml",
                    "https://h.example/long.html"}
    assert built and not machine_rows & set(built)
    assert {"https://h.example/declined.xml",
            "https://h.example/declined.html"} <= set(built)


@needs_arena
def test_rolled_back_rows_leave_nothing():
    """A row's writes take effect at commit; a rolled-back row leaves
    no token, run or buffer behind."""
    def columns(rows):
        arena = pipeline._arena.Arena(pipeline._MAX_INT32_OFFSET)
        for keep, meta, text in rows:
            arena.tokenize(text, meta, meta)
            arena.add_buffers({"swishdefault": text}, {"p": b"v"})
            arena.commit() if keep else arena.rollback()
        return pa.table(pipeline._arena_columns(arena, "full"))

    got = columns([(True, "a", b"one two"), (False, "z", b"dropped words"),
                   (True, "b", b"three")])
    want = columns([(True, "a", b"one two"), (True, "b", b"three")])
    _assert_equal(got, want)
    assert got.column("token_runs").to_pylist() == [
        [{"meta": "a", "context": "a", "count": 2}],
        [{"meta": "b", "context": "b", "count": 1}]]
    assert got.column("token_positions").to_pylist() == [[1, 2], [1]]
    assert got.column("text").to_pylist() == ["one two", "three"]
    assert got.column("metanames").to_pylist() == [[], []]


@needs_arena
def test_a_row_without_swishdefault_is_refused():
    """The text is the map's swishdefault entry, kept once: a row that
    put none cannot be committed, and can still be rolled back."""
    arena = pipeline._arena.Arena(pipeline._MAX_INT32_OFFSET)
    arena.tokenize(b"some words", "swishtitle", "swishtitle")
    arena.add_buffers({"swishtitle": b"some words"}, {})
    with pytest.raises(ValueError, match="row 0: no swishdefault"):
        arena.commit()
    arena.rollback()
    arena.add_buffers({"swishdefault": b""}, {})
    arena.commit()
    assert pa.table(pipeline._arena_columns(arena, "full")).to_pylist() == [{
        "title": "", "text": "", "metanames": [], "properties": [],
        "token_values": [], "token_positions": [], "token_runs": []}]


@needs_arena
def test_invalid_utf8_strings_decode_row_by_row():
    """A batch whose buffers fail UTF-8 validation is decoded row by
    row with "replace", as ``_utf8_column`` decodes it."""
    values = [b"caf\xe9", b"fine", b"\xff"]
    arena = pipeline._arena.Arena(pipeline._MAX_INT32_OFFSET)
    for v in values:
        arena.add_buffers({"swishtitle": v, "swishdefault": v}, {"p": v})
        arena.commit()
    cols = pipeline._arena_columns(arena, "buffers")
    want = pipeline._utf8_column(values)
    assert cols["title"].equals(want) and cols["text"].equals(want)
    assert cols["properties"].equals(pipeline._map_column(
        [{"p": v} for v in values]))
    assert cols["text"].to_pylist() == ["caf�", "fine", "�"]


def test_no_native_reproduces_the_record_lock():
    """The reference route alone (no native extension) gives the locked
    records of every benchmark table."""
    code = (
        "import json, sys\n"
        "sys.path[:0] = ['tests', '.']\n"
        "import test_record_lock as t\n"
        "from swishray import pipeline, tokenizer\n"
        "assert pipeline._arena is None and tokenizer._native is None\n"
        "want = json.loads(t.GOLDEN.read_text())\n"
        "print(json.dumps([t._first_difference(want[f'{w}/{s}'], "
        "t.record_digests(w, s)) for w, s in t.TABLES]))\n")
    env = dict(os.environ, SWISHRAY_NO_NATIVE="1")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    diffs = json.loads(out.stdout.splitlines()[-1])
    assert diffs == [None] * len(diffs) and diffs
