"""Byte-identity conformance vs frozen reference goldens.

Each golden case replays one reference test document (optionally with a
config) through the engine's per-document extractor and asserts the
complete record matches: nwords, docinfo fields, every metaname /
property buffer byte-for-byte (\\x03 joins included), and the full
token stream (value, position, offset, len, meta, context).

Goldens were produced by the reference itself (tools/gen_goldens.py,
LC_ALL=C.utf8) — this is the north_rule's "byte-identical extracted
text per url" gate run through `python -m pytest -x -q`.
"""

import base64
import json
import pathlib

import pytest

from swishray.config import Config
from swishray.extractor import DocumentExtractor

GOLDENS = pathlib.Path(__file__).parent / "goldens" / "fixtures.jsonl"
FIX = pathlib.Path("/root/reference/src/test_docs")
UNDEFTAGS_CONF = FIX.parent / "test_configs" / "undeftags-error.conf"

CASES = [json.loads(line) for line in GOLDENS.open()]


def _build_config(case: dict) -> Config:
    cfg = Config.default()
    if case["config"]:
        cfg.add(case["config"])
    for k, v in case["flags"].items():
        if not k.startswith("_"):  # harness wiring, not config flags
            setattr(cfg, k, v)
    return cfg


def _fs_resolver(uri: str) -> bytes | None:
    """XInclude resolver replaying the reference's filesystem follow
    (process_xinclude, parser.c:990) for the followed-xinclude goldens."""
    try:
        with open(uri, "rb") as f:
            return f.read()
    except OSError:
        return None


@pytest.mark.parametrize("case", CASES, ids=[c["case"] for c in CASES])
def test_fixture_byte_identity(case):
    doc = FIX / case["doc"]
    if not doc.exists():
        pytest.skip("fixture missing")
    cfg = _build_config(case)
    resolver = _fs_resolver if case["flags"].get("_resolver") == "fs" else None
    ex = DocumentExtractor(cfg, xinclude_resolver=resolver)
    rec = ex.extract(str(doc), doc.read_bytes())

    g = case["golden"]
    if g is None:
        # The reference crashed on this input (e.g. invalid UTF-8
        # reaching the tokenizer). The engine must instead record a
        # per-row error and produce no tokens.
        assert rec.error is not None
        assert rec.docinfo.nwords == 0
        return

    assert rec.docinfo.nwords == g["nwords"], "nwords"
    assert rec.docinfo.mime == g["mime"], "mime"
    assert rec.docinfo.parser == g["parser"], "parser"
    assert rec.docinfo.encoding == g["encoding"], "encoding"

    for name, b64 in g["metanames"].items():
        assert rec.metanames.get(name) == base64.b64decode(b64), \
            f"metaname[{name}]"
    assert set(rec.metanames) == set(g["metanames"]), "metaname key set"

    for name, b64 in g["properties"].items():
        assert rec.properties.get(name) == base64.b64decode(b64), \
            f"property[{name}]"
    assert set(rec.properties) == set(g["properties"]), "property key set"

    ref_tokens = [
        (t[0], t[1], t[2], base64.b64decode(t[3]), t[4], t[5])
        for t in g["tokens"]
    ]
    mine_tokens = list(zip(
        rec.token_positions, rec.token_metas, rec.token_contexts,
        rec.token_values, rec.token_offsets,
        [len(v) for v in rec.token_values]))
    assert mine_tokens == ref_tokens, "token stream"


@pytest.mark.needs_path(UNDEFTAGS_CONF, FIX / "undeftags.xml")
def test_undef_metas_error_policy():
    """t/006: UndefinedMetaTags=error croaks in the reference ("XML tag
    'doc' is not a defined MetaName"); the engine lands the same
    message in the per-row error column instead of dying."""
    cfg = Config.default()
    cfg.add(str(UNDEFTAGS_CONF))
    ex = DocumentExtractor(cfg)
    doc = FIX / "undeftags.xml"
    rec = ex.extract(str(doc), doc.read_bytes())
    assert rec.error is not None
    assert "'doc' is not a defined MetaName" in rec.error
    assert rec.docinfo.nwords == 0 or rec.token_values is not None


def test_undef_attrs_error_policy():
    cfg = Config.default()
    cfg.undef_metas = "auto"
    cfg.undef_attrs = "error"
    ex = DocumentExtractor(cfg)
    rec = ex.extract("x.xml", b'<doc name="v">hi</doc>')
    assert rec.error is not None and "doc.name" in rec.error


def test_cleanwsp_mutation_quirk():
    """Found by tools/fuzz_extraction.py: the reference's cleanwsp pass
    mutates prop_buf in place (namedbuffer.c:221-232), so when a
    property buffer cleans down to whitespace, only the FIRST stack add
    contributes a \\x03 joiner — nested <title>s around empty markup
    yield 'alpha\\x03', not 'alpha\\x03\\x03'. Verified against the
    reference binary."""
    body = (b"<title>\nalpha\n<title>\n"
            b'<doc type="v1">\n</doc>\n</title>')
    ex = DocumentExtractor(Config.default())
    rec = ex.extract("x.xml", body)
    assert rec.properties["swishtitle"] == b"alpha\x03"
    assert rec.metanames["swishtitle"] == b"\nalpha\n\x03\n\x03\n\x03\n" \
        or rec.metanames["swishtitle"].startswith(b"\nalpha\n")


def test_fast_replay_matches_per_event_path():
    """The extraction machine (one native call per document) must
    produce records byte-identical to replaying every event — toggled
    by building the extractor with no plan."""
    from unittest import mock

    import swishray.extractor as extractor_mod
    from swishray.extractor import DocumentExtractor

    docs = [
        (b"<html><head><title>T one</title>"
         b"<meta name=\"keywords\" content=\"k1 k2\"></head>"
         b"<body><p>alpha <b>beta</b></p><br><img src=x>"
         b"<div>gamma <span>delta</span></div>"
         b"<!-- noindex -->hidden<!-- index -->shown"
         b"<ul><li>a</li><li>b</li></ul></body></html>"),
        (b"<html><body><p>unclosed <b>bold <i>ital</p>"
         b"<td>stray</td><customtag>cust</customtag>"
         b"<script>var x=1;</script><style>.a{}</style>tail"),
        (b"<p>" + "naïve café 中文".encode()
         + b" plain</p>" * 50),
    ]
    ex = DocumentExtractor()
    assert ex.sax_plan is not None
    fast = [ex.extract(f"https://x/{i}.html", d)
            for i, d in enumerate(docs)]
    with mock.patch.object(extractor_mod, "collapse_plan",
                           lambda config: None):
        ex = DocumentExtractor()
    assert ex.sax_plan is None
    slow = [ex.extract(f"https://x/{i}.html", d)
            for i, d in enumerate(docs)]
    for f, s in zip(fast, slow):
        assert f.metanames == s.metanames
        assert f.properties == s.properties
        assert f.docinfo.nwords == s.docinfo.nwords
        assert f.token_values == s.token_values
        assert f.token_positions == s.token_positions
        assert f.token_metas == s.token_metas


@pytest.mark.parametrize("decl", [
    b'encoding = "ISO-8859-1"', b"encoding\t=\n'ISO-8859-1'",
    b'encoding="ISO-8859-1"'])
def test_xml_declared_encoding_allows_space_around_eq(decl):
    """XML's Eq production is S? '=' S?: libxml2 honours the declared
    encoding however it is spaced (the latin1 body decodes to 'café'),
    and docinfo reports it, as the reference reports ctxt->encoding."""
    from swishray.extractor import DocumentExtractor

    body = b'<?xml version="1.0" ' + decl + b'?><doc>caf\xe9</doc>'
    rec = DocumentExtractor().extract("x.xml", body)
    assert rec.token_values == ["café".encode()]
    assert rec.docinfo.encoding == "ISO-8859-1"
