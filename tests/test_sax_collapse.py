"""Run collapse: under a collapse plan the SAX front-end folds inert
elements into text runs. Extraction through the collapsed stream must
give the same records as through the full event stream, for every
branch of the plan's gates."""

import dataclasses
import importlib.util
import pathlib
import random

import pytest

import swishray.extractor as extractor_mod
from swishray import libxml
from swishray.config import Config
from swishray.extractor import DocumentExtractor

from test_sax_frontends import CORPUS, _PART

_FUZZ = pathlib.Path(__file__).resolve().parent.parent / "tools" / \
    "fuzz_extraction.py"


def _fuzz_module():
    spec = importlib.util.spec_from_file_location("fuzz_extraction", _FUZZ)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# inputs that reach the gates the fuzz generators do not: prefixes,
# XInclude, upper case, non-ASCII names, class attributes, dotted
# paths, and noindex/index comments around inert elements
_HAND = [
    ("https://h.example/ns.xml",
     b"<?xml version=\"1.0\"?>\n<r xmlns:p=\"urn:p\" xmlns:q=\"urn:q\">"
     b"<p:item>one <q:name>two</q:name></p:item><item>three</item>"
     b"<p:title>pt</p:title><doc class=\"em\">four<b>five</b></doc>"
     b"<doc><title>six</title>seven</doc></r>"),
    ("https://h.example/xi.xml",
     b"<?xml version=\"1.0\"?>\n"
     b"<doc xmlns:xi=\"http://www.w3.org/2001/XInclude\">"
     b"<a>before</a><xi:include href=\"part.xml\"/><a>after</a></doc>"),
    ("https://h.example/upper.html",
     b"<HTML><BODY><P>Up <B>Bold</B><SPAN>in</SPAN><BR>br<EM>em</EM>"
     b"<Title>t</Title><DIV>d</DIV></BODY></HTML>"),
    ("https://h.example/unicode.html",
     "<p>x<él>y</él>z<b>w</b></p>".encode()),
    ("https://h.example/unicode.xml",
     "<doc><él>y</él><b>w</b>z</doc>".encode()),
    ("https://h.example/noindex.html",
     b"<p>shown <b>bold</b> <!-- noindex --><i>it</i> hidden <span>s</span>"
     b"<br><!-- index --> <em>back</em> again<div>d</div>"
     b"<!-- swishcommand noindex --><b>x</b>y<!-- SwishCommand index -->"
     b"<b>z</b></p>"),
    ("https://h.example/noindex.xml",
     b"<doc><a>shown</a><!-- noindex --><b>hidden</b> tail<c>more</c>"
     b"<!-- index --><d>back</d></doc>"),
    ("https://h.example/dotted.xml",
     b"<doc><title>dt</title><b>x<title>inner</title></b>"
     b"<doc.title>y</doc.title></doc>"),
    ("https://h.example/swishdefault.html",
     b"<p>a<swishdefault>b</swishdefault>c</p>"),
    ("https://h.example/empty.html", b"<p></p><b></b><br><img>"),
    ("https://h.example/metas.html",
     b"<html><head><META NAME=\"keywords\" CONTENT=\"k1\"><meta>"
     b"<meta charset=utf-8><meta content=\"c\" name=\"description\">"
     b"</meta><meta name><meta x=name y=z></head><body>x"
     b"<meta name=\"author\" content=\"au\">y<b>z</b></body></html>"),
    ("https://h.example/metas.xml",
     b"<doc><meta name=\"keywords\" content=\"k\">m</meta><meta/>t</doc>"),
]


def _corpus():
    fz = _fuzz_module()
    rng = random.Random(20241)
    docs = [(f"https://f.example/{i}.html", fz.gen_html(rng))
            for i in range(160)]
    docs += [(f"https://f.example/{i}.xml", fz.gen_xml(rng))
             for i in range(120)]
    return docs + list(CORPUS) + _HAND


_DOCS = _corpus()

# (id, config XML or None, attribute overrides, plan expected)
CONFIGS = [
    ("default", None, {}, True),
    ("alias_onto_metaname",
     "<swish><TagAlias><swishtitle>b span</swishtitle></TagAlias></swish>",
     {}, True),
    ("metaname_also_property",
     "<swish><MetaNames><em/><item/></MetaNames>"
     "<PropertyNames><em/><item/></PropertyNames></swish>", {}, True),
    ("property_only",
     "<swish><PropertyNames><b/><item/></PropertyNames></swish>", {}, True),
    ("dotted_name",
     "<swish><MetaNames><doc.title/></MetaNames></swish>", {}, False),
    ("undef_metas_ignore", None, {"undef_metas": "ignore"}, True),
    ("undef_metas_error", None, {"undef_metas": "error"}, True),
    ("undef_metas_auto", None, {"undef_metas": "auto"}, False),
    ("undef_attrs_index", None, {"undef_attrs": "index"}, True),
    ("undef_attrs_error", None, {"undef_attrs": "error"}, True),
    ("undef_attrs_auto", None, {"undef_attrs": "auto"}, False),
    ("ignore_xmlns_off",
     "<swish><IgnoreXMLNameSpaces>0</IgnoreXMLNameSpaces>"
     "<MetaNames><p:title/></MetaNames></swish>", {}, True),
    ("xml_class_attributes",
     "<swish><XMLClassAttributes>class</XMLClassAttributes></swish>",
     {}, True),
    ("cascade_meta_context",
     "<swish><CascadeMetaContext>1</CascadeMetaContext>"
     "<MetaNames><b/><doc/></MetaNames></swish>", {}, True),
]


def _config(xml, overrides):
    cfg = Config.default()
    if xml:
        cfg.add(xml)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def _records(cfg):
    ex = DocumentExtractor(
        cfg, xinclude_resolver={"https://x.example/part.xml": _PART,
                                "https://h.example/part.xml": _PART}.get)
    return ex.sax_plan, [dataclasses.asdict(ex.extract(u, b))
                         for u, b in _DOCS]


@pytest.mark.parametrize("name,xml,overrides,has_plan", CONFIGS,
                         ids=[c[0] for c in CONFIGS])
def test_collapsed_stream_gives_full_stream_records(
        monkeypatch, name, xml, overrides, has_plan):
    plan, collapsed = _records(_config(xml, overrides))
    assert (plan is not None) == has_plan
    monkeypatch.setattr(extractor_mod, "collapse_plan", lambda config: None)
    none, full = _records(_config(xml, overrides))
    assert none is None
    for (uri, _), c, f in zip(_DOCS, collapsed, full):
        assert c == f, (name, uri)


def test_run_events_pin_the_encoding():
    """Both front-ends fold inert elements into (9, lead, reset, data,
    trail, last): \\x03 joins two pieces across a block-level (bump)
    element, and kept elements and comments end a run."""
    plan = DocumentExtractor().sax_plan
    html = (b"<html><body><p>alpha <b>beta</b> x<br>y</p><!-- c -->"
            b"<div>z</div></body></html>")
    xml = b"<doc><a>x<b>y</b></a><title>t</title></doc>"
    want_html = [
        (7,), (9, None, False, b"", False, True), (1, b"body", None),
        (9, True, False, b"alpha beta x\x03y", True, True), (4, b" c "),
        (9, True, False, b"z", True, True), (2, b"body"),
        (9, None, False, b"", False, True), (8,)]
    want_xml = [
        (7,), (9, True, True, b"x\x03y", True, True),
        (5, b"title", None, None, None), (3, b"t"), (6, b"title", None),
        (9, None, True, b"", False, True), (8,)]
    for body, is_html, want in ((html, True, want_html),
                                (xml, False, want_xml)):
        rc, events = libxml._parse_ctypes(body, is_html)
        assert libxml._collapse(events, plan, is_html) == want
        if libxml._sax_native is not None:
            parse = (libxml._sax_native.parse_html if is_html
                     else libxml._sax_native.parse_xml)
            assert parse(body, plan) == (rc, want)
            assert parse(body) == (rc, events)


class _Anchors(libxml.SaxTarget):
    def __init__(self):
        self.starts = 0

    def start_element(self, name, atts):
        self.starts += name == b"a"


def test_sax_target_gets_every_element():
    """SaxTargets carry no plan, so they see the full stream even right
    after an extraction under a plan."""
    body = (b"<html><body><p>x <a href=1>one</a> y <a>two</a>"
            b"<div><a href=3><b>three</b></a></div></p></body></html>")
    DocumentExtractor().extract("https://a.example/x.html", body)
    tgt = _Anchors()
    libxml.html_parse(body, tgt)
    assert tgt.starts == 3
