"""The extraction machine against the replay. Under a plan (a config
inside sax.collapse_plan's gate) swishsax's C machine runs the state
machine inside the libxml2 parse; without one, the full event stream
feeds the Python replay. Both must give the same records, in every
column, for every gate of the plan, every config branch the machine
covers and every way it declines a document (XInclude, a non-ASCII
name, a raising tokenizer hook)."""

import dataclasses
import importlib.util
import pathlib
import random
import sys

import pytest

import swishray.extractor as extractor_mod
from swishray import libxml, sax
from swishray.config import Config
from swishray.extractor import DocumentExtractor
from swishray.pipeline import ExtractPages
from swishray.tokenizer import tokenize_into

from test_sax_frontends import CORPUS, _PART

ROOT = pathlib.Path(__file__).resolve().parent.parent
_FUZZ = ROOT / "tools" / "fuzz_extraction.py"


def _fuzz_module():
    spec = importlib.util.spec_from_file_location("fuzz_extraction", _FUZZ)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# inputs that reach the branches the fuzz generators do not: prefixes,
# XInclude, upper case, non-ASCII names, class attributes, dotted
# paths, noindex/index comments around inline and block elements, and
# <meta> synthesis edge cases (attribute values named "name", valueless
# attributes, stack base names, non-ASCII names, raw-case lookups)
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
    ("https://h.example/metaedge.html",
     b"<html><head><meta content=name name=keywords>"
     b"<meta checked name=author content=gone>"
     b"<meta name=SwishTitle content=\"raw case\">"
     b"<meta name=b content=\"inline meta\"><meta name=div content=blk>"
     b"<meta name=swishdefault content=\"base name\">"
     b"<meta name=\"\" content=empty><meta name=x content=\"\">"
     b"</head><body>one<meta name=title content=t2>two</body></html>"),
    ("https://h.example/metaslash.html",
     b"<p>a<meta name=\"/\" content=\"slash\">b</p>"),
    ("https://h.example/metaunicode.html",
     "<p>a<meta name=\"kéy\" content=\"v\">b</p>".encode()),
    ("https://h.example/metalatin1.html",
     b"<p>a<meta name=\"keywords\" content=\"caf\xe9\">b</p>"),
    ("https://h.example/atts.xml",
     b"<doc><item id=\"A1\" type=\"Big Thing\">v<b k=\"x\"/></item>"
     b"<title lang=\"EN\">t</title><p:x xmlns:p=\"urn:p\" a=\"B\">y</p:x>"
     b"</doc>"),
    ("https://h.example/attsunicode.xml",
     "<doc><item type=\"Ünï\">v</item></doc>".encode()),
    ("https://h.example/ctrl.html",
     b"<html><head><title>\x01 ctl\tt\x02 </title></head><body>"
     b"<b>\x05 x \x06</b> <b> </b>y<b>pre<b>\x05\x06 </b></b>"
     b"</body></html>"),
    # nested properties around whitespace split by a bump: the
    # property buffer " \x03 " cleans down to nothing, so it joins the
    # inner property once and the outer one not at all
    ("https://h.example/bumpws.xml",
     b"<doc><b>pre<b> <x/> </b></b><item>i<em> <br/> </em></item></doc>"),
]


def _corpus():
    fz = _fuzz_module()
    rng = random.Random(20241)
    docs = [(f"https://f.example/{i}.html", fz.gen_html(rng))
            for i in range(160)]
    docs += [(f"https://f.example/{i}.xml", fz.gen_xml(rng))
             for i in range(120)]
    selftest = [(f"https://s.example/{i}.{kind}", doc)
                for i, (kind, doc) in enumerate(libxml._SAX_SELFTEST_DOCS)]
    return docs + list(CORPUS) + selftest + _HAND


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
    ("verbatim_property",
     "<swish><PropertyNames><b verbatim=\"1\"/><title verbatim=\"1\"/>"
     "<item/></PropertyNames></swish>", {}, True),
    # aliases of both kinds, and alias_for targets that are not
    # configured: a metaname buffer is created on first flush, a
    # property target aborts the document
    ("aliases",
     "<swish><MetaNames><swishtitle>heading h1</swishtitle>"
     "<b alias_for=\"ghostmeta\"/></MetaNames>"
     "<PropertyNames><item>value em</item><i alias_for=\"ghostprop\"/>"
     "</PropertyNames><TagAlias><item>entry</item></TagAlias></swish>",
     {}, True),
    ("tokenize_off", None, {"tokenize": False}, True),
]

# the documents the machine declines under the default config: the
# XInclude elements and the non-ASCII element or <meta> names (the
# HTML parser reads unicode.html's "<él>" as text)
_DECLINED = {"https://h.example/xi.xml", "https://x.example/inc.xml",
             "https://h.example/unicode.xml",
             "https://h.example/metaunicode.html"}


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
    plan, machine = _records(_config(xml, overrides))
    assert (plan is not None) == has_plan
    monkeypatch.setattr(extractor_mod, "collapse_plan", lambda config: None)
    none, replay = _records(_config(xml, overrides))
    assert none is None
    for (uri, _), m, r in zip(_DOCS, machine, replay):
        assert m == r, (name, uri)


def _replayed(monkeypatch) -> list:
    """The uris of the documents that reach ExtractionState.replay."""
    uris = []
    replay = sax.ExtractionState.replay

    def spy(self, events):
        uris.append(self.uri)
        return replay(self, events)
    monkeypatch.setattr(sax.ExtractionState, "replay", spy)
    return uris


def test_machine_declines_only_what_it_cannot_finish(monkeypatch):
    """With a machine, every document but the ones it declines is
    extracted without the Python replay."""
    ex = DocumentExtractor(
        xinclude_resolver={"https://x.example/part.xml": _PART}.get)
    if ex.sax_plan.machine is None:
        pytest.skip("swishsax is not loaded")
    uris = _replayed(monkeypatch)
    for uri, body in _DOCS:
        ex.extract(uri, body)
    assert set(uris) == _DECLINED


def _boom_hook(tl, data, meta, context):
    if b"boom" in data:
        raise RuntimeError("boom")
    return tokenize_into(tl, data, meta, context)


def test_raising_tokenizer_hook_declines(monkeypatch):
    """A tokenizer hook that raises stops the record where the replay
    stops it: the document is re-parsed through the event stream, so
    the error and the partial buffers and tokens are the replay's."""
    docs = [("https://t.example/a.html",
             b"<html><head><title>first words</title></head><body>"
             b"<p>before</p><meta name=keywords content=\"kw boom\">"
             b"<p>after</p></body></html>"),
            ("https://t.example/b.xml",
             b"<doc><title>t boom</title><item>more</item></doc>"),
            ("https://t.example/c.html", b"<p>no marker here</p>")]
    uris = _replayed(monkeypatch)
    ex = DocumentExtractor(tokenizer=_boom_hook)
    got = [ex.extract(u, b) for u, b in docs]
    if ex.sax_plan.machine is not None:
        assert uris == [docs[0][0], docs[1][0]]
    ex.sax_plan = None
    want = [ex.extract(u, b) for u, b in docs]
    assert [r.error for r in got] == ["RuntimeError: boom"] * 2 + [None]
    for g, w in zip(got, want):
        assert dataclasses.asdict(g) == dataclasses.asdict(w)


@pytest.mark.parametrize("workload,seed", [
    ("markup_dense", 31), ("markup_dense", 32),
    ("text_bulk", 31), ("text_bulk", 32)])
def test_machine_matches_replay_on_benchmark_tables(monkeypatch, workload,
                                                    seed):
    """Both benchmark workloads give equal ``emit="full"`` tables
    through the machine and through the replay."""
    sys.path.insert(0, str(ROOT))
    from perfbench.corpus import make_table

    table, _ = make_table(workload, seed)
    enc = "UTF-8" if workload == "markup_dense" else "ISO-8859-1"
    got = ExtractPages(emit="full", swish_encoding=enc)(table)
    monkeypatch.setattr(extractor_mod, "collapse_plan", lambda config: None)
    want = ExtractPages(emit="full", swish_encoding=enc)(table)
    assert got.equals(want)


def test_fuzz_tool_compares_machine_with_replay():
    """tools/fuzz_extraction.py's machine-vs-replay comparison, at a
    small seeded count (a long run covers the machine further)."""
    assert _fuzz_module().machine_mismatches(150, 12) == []


def test_machine_selftest_passed():
    """A failing import self-test silently drops the machine."""
    if libxml._sax_native is not None:
        assert sax._machine_ok
        assert DocumentExtractor().sax_plan.machine is not None


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
