"""The two libxml2 front-ends — the swishsax C extension and the ctypes
recorder in libxml.py — feed one event path, so extraction through
either must give identical records. With a plan, swishsax runs its
extraction machine, and the ctypes fallback (no swishsax) replays the
full event stream: those records must match too."""

import dataclasses

from swishray import _native, libxml, tokenizer
from swishray.config import Config
from swishray.extractor import DocumentExtractor

_PART = b"<part>\n included words <b>here</b>\n</part>\n"

CORPUS = [
    ("https://x.example/meta.html",
     b"<html><head><title>Meta &amp; more</title>"
     b"<meta name=\"keywords\" content=\"kw1 kw2\">"
     b"<meta name=\"description\" content=\"about this page\"></head>"
     b"<body class=x checked><p>alpha <b>beta</b></p><br><img src=i>"
     b"<div>gamma <span>delta</span></div></body></html>"),
    ("https://x.example/soup.html",
     b"<html><body><p>unclosed <b>bold <i>ital</p><td>stray</td>"
     b"<customtag>cust</customtag><script>var x=1;</script>"
     b"soup &lt;tag <div unclosed>tail"),
    ("https://x.example/comments.html",
     b"<p>shown <!-- noindex -->hidden words<!-- index --> again"
     b"<!-- swishcommand noindex -->gone<!-- SwishCommand index -->"
     b"<!-- plain note -->back</p>"),
    ("https://x.example/ns.xml",
     b"<?xml version=\"1.0\"?>\n<doc xmlns:n=\"urn:x\">"
     b"<n:a k=\"v\" empty=\"\" later=\"skipped\">body text</n:a>"
     b"<b x=\"1\" y=\"2\">t1</b>t2<c/>"
     b"<![CDATA[cd &amp; ata]]><!-- c --></doc>"),
    ("https://x.example/broken.xml", b"<doc><open>no close"),
    ("https://x.example/inc.xml",
     b"<?xml version=\"1.0\"?>\n"
     b"<doc xmlns:xi=\"http://www.w3.org/2001/XInclude\">\n"
     b" before <xi:include href=\"part.xml\"/> after\n</doc>\n"),
]


def _extract_all(undef_attrs):
    cfg = Config.default()
    # "auto": XML attributes become metanames, and no plan applies
    cfg.undef_attrs = undef_attrs
    ex = DocumentExtractor(
        cfg, xinclude_resolver={"https://x.example/part.xml": _PART}.get)
    assert (ex.sax_plan is None) == (undef_attrs == "auto")
    return [ex.extract(uri, body) for uri, body in CORPUS]


def test_ctypes_fallback_matches_native(monkeypatch):
    _check_fallback(monkeypatch, "auto")


def test_ctypes_fallback_matches_native_with_a_plan(monkeypatch):
    _check_fallback(monkeypatch, "disable")


def _check_fallback(monkeypatch, undef_attrs):
    native = _extract_all(undef_attrs)
    calls = []
    parse_ctypes = libxml._parse_ctypes
    monkeypatch.setattr(libxml, "_sax_native", None)
    monkeypatch.setattr(libxml, "_parse_ctypes", lambda buf, html: (
        calls.append(html) or parse_ctypes(buf, html)))
    fallback = _extract_all(undef_attrs)
    # five top-level markup docs plus the XInclude child
    assert len(calls) == len(CORPUS) + 1
    for (uri, _), n, f in zip(CORPUS, native, fallback):
        assert dataclasses.asdict(f) == dataclasses.asdict(n), uri
    by_uri = {uri: rec for (uri, _), rec in zip(CORPUS, native)}
    assert b"included" in by_uri["https://x.example/inc.xml"].token_values
    comments = by_uri["https://x.example/comments.html"].token_values
    assert b"hidden" not in comments and b"again" in comments
    if undef_attrs == "auto":
        # the empty-valued attribute truncates the SAX2 attribute list
        ns_metas = by_uri["https://x.example/ns.xml"].metanames
        assert "a.k" in ns_metas and "a.later" not in ns_metas


def test_noindex_around_inert_elements_keeps_tokens(monkeypatch):
    """Elements between noindex/index comments keep the tokens of the
    full event stream on both paths: hidden text stays out, and an
    ignored stretch leaves bump_word as its elements set it, so
    'two' joins the inline 'six' after it (and 'eight' the 'ten')."""
    body = (b"<html><body><p>one <b>two</b><!-- noindex --><i>three</i>"
            b" four <span>five</span><br><!-- index --><em>six</em> seven"
            b"<div>eight</div><!--noindex--><b>nine</b><!-- index -->"
            b"ten</p></body></html>")
    want = [b"one", b"twosix", b"seven", b"eightten"]
    for native in (libxml._sax_native, None):
        monkeypatch.setattr(libxml, "_sax_native", native)
        rec = DocumentExtractor().extract("https://x.example/n.html", body)
        assert rec.token_values == want
        assert rec.token_positions == [1, 2, 3, 5]


def test_native_frontends_load_when_built():
    """A failing import self-test silently drops the engine onto the
    slower path; catch that wherever the extensions were built."""
    if _native.swishsax is not None:
        assert libxml._sax_native is not None
    if _native.swishtok is not None:
        assert tokenizer._native is not None
