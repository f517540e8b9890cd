"""Property-based tests (hypothesis) for engine invariants.

The byte-identity oracle lives in test_conformance / the fuzz harness;
these assert structural invariants that must hold for ANY input —
the never-crash contract, token-list consistency, scrub idempotence.
"""

from hypothesis import given, settings, strategies as st

from swishray.extractor import DocumentExtractor
from swishray.text import clean_wsp, scrub_nulls, str_all_ws
from swishray.tokenizer import TokenList, tokenize_into

_ex = DocumentExtractor()


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=400),
       st.sampled_from(["a.html", "a.xml", "a.txt", "a", "a.txt.gz"]))
def test_extract_never_raises(body, name):
    rec = _ex.extract(f"https://h.x/{name}", body)
    assert rec.docinfo.nwords >= 0
    assert rec.docinfo.nwords == len(rec.token_positions) or \
        not _ex.config.tokenize


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_tokenlist_invariants(s):
    tl = TokenList()
    tokenize_into(tl, s.encode("utf-8"), "m", "c")
    # parallel columns stay aligned
    n = len(tl.values)
    assert len(tl.positions) == len(tl.offsets) == len(tl.metas) == n
    # positions strictly increase; offsets are the NUL-joined arena
    assert all(b > a for a, b in zip(tl.positions, tl.positions[1:]))
    off = 0
    for v, o in zip(tl.values, tl.offsets):
        assert o == off
        off += len(v) + 1
    # values never exceed the reference's byte cap
    assert all(len(v) <= 256 for v in tl.values)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_scrub_nulls_idempotent(b):
    once = scrub_nulls(b)
    assert scrub_nulls(once) == once
    assert b"\x00" not in once


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_clean_wsp_properties(b):
    c = clean_wsp(b)
    # never starts/ends with ASCII whitespace
    assert not c[:1].strip(b" \t\n\v\f\r") == b"" or c == b""
    if c:
        assert c[0] not in b" \t\n\v\f\r"
        assert c[-1] not in b" \t\n\v\f\r"


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=" \t\n\v\f\r", max_size=50))
def test_all_ws_detects_whitespace(s):
    assert str_all_ws(s.encode())


def test_property_max_parity_and_optin():
    """Property.max / sort_length parity: the reference binary parses
    ``max`` (header.c:474-541) but never enforces it at capture — a
    42-char value survives ``max=10`` intact (verified against the
    compiled golden_dump; re-checked live when /tmp/refbuild exists).
    The engine matches byte-for-byte by default; truncation is an
    explicit engine extension behind <EnforcePropertyMax>."""
    import json
    import os
    import subprocess
    import tempfile

    from swishray.config import Config
    from swishray.extractor import DocumentExtractor

    cfg_xml = ("<swish><PropertyNames>"
               "<blurb max=\"10\" sort_length=\"4\" /></PropertyNames>"
               "<MetaNames><blurb /></MetaNames></swish>")
    body = b"<doc><blurb>abcdefghijklmnopqrstuvwxyz more words here</blurb></doc>\n"
    full = b"abcdefghijklmnopqrstuvwxyz more words here"

    cfg = Config.default()
    cfg.add(cfg_xml)
    assert cfg.properties["blurb"].max == 10
    assert cfg.properties["blurb"].sort_length == 4
    rec = DocumentExtractor(cfg).extract("/tmp/propmax_doc.xml", body)
    # default: byte-parity with the reference (NO truncation)
    assert rec.properties["blurb"] == full

    dump = "/tmp/refbuild/golden_dump"
    if os.path.exists(dump):  # live A/B when the oracle is built
        with tempfile.TemporaryDirectory() as d:
            cpath = os.path.join(d, "conf.xml")
            dpath = os.path.join(d, "doc.xml")
            open(cpath, "w").write(cfg_xml)
            open(dpath, "wb").write(body)
            env = dict(os.environ, LC_ALL="C.utf8")
            out = subprocess.run([dump, "-c", cpath, dpath], env=env,
                                 capture_output=True).stdout
            ref = json.loads(out)
            import base64
            assert base64.b64decode(ref["properties"]["blurb"]) == full

    # opt-in extension truncates to max characters
    cfg2 = Config.default()
    cfg2.add(cfg_xml)
    cfg2.enforce_property_max = True
    rec2 = DocumentExtractor(cfg2).extract("/tmp/propmax_doc.xml", body)
    assert rec2.properties["blurb"] == b"abcdefghij"
    # round-trips through swish.xml form
    cfg3 = Config.default()
    cfg3.add(cfg2.to_xml())
    assert cfg3.enforce_property_max is True


def test_project_properties_typed(ray_session):
    """Typed projection parity with the Xapian sink
    (swish_xapian.cpp:437-483): bumper joins become spaces, int
    properties parse with strtol semantics into int64 (numeric sort),
    dates stay verbatim strings, absent/empty -> null."""
    import pyarrow as pa
    import ray.data as rd
    from swishray.config import Config
    from swishray.pipeline import extract_pages, project_properties

    cfg_xml = ('<swish><PropertyNames><docnum type="int"/>'
               '<docdate type="date"/></PropertyNames></swish>')
    docs = [
        (0, b"<doc><docnum> 42 </docnum><docdate>2010-01-02</docdate>"
            b"<body>x</body></doc>"),
        (1, b"<doc><docnum>7</docnum><docnum>9</docnum>"
            b"<body>x</body></doc>"),          # multi-value -> bumper
        (2, b"<doc><docnum>junk</docnum><body>x</body></doc>"),
        (3, b"<doc><body>x</body></doc>"),      # absent -> null
        (4, b"<doc><docnum>5</docnum><body>x</body></doc>"),
        (5, b"<doc><docnum>104</docnum><body>x</body></doc>"),
    ]
    pages = rd.from_arrow(pa.table({
        "url": [f"https://x/{i}.xml" for i, _ in docs],
        "html": pa.array([b for _, b in docs], type=pa.binary()),
    }))
    ext = extract_pages(pages, emit="buffers", config_xml=cfg_xml)
    cfg = Config.default()
    cfg.add(cfg_xml)
    proj = project_properties(ext, cfg, props=["docnum", "docdate"])
    rows = {r["url"]: r for r in proj.take_all()}
    assert rows["https://x/0.xml"]["prop_docnum"] == 42
    assert rows["https://x/0.xml"]["prop_docdate"] == "2010-01-02"
    # multi-value property: strtol stops at the first non-digit of
    # the space-joined "7 9" -> 7 (the reference serializes the same
    # joined buffer through string_to_int)
    assert rows["https://x/1.xml"]["prop_docnum"] == 7
    assert rows["https://x/2.xml"]["prop_docnum"] == 0  # strtol junk
    assert rows["https://x/3.xml"]["prop_docnum"] is None
    # numeric sort: 5 < 104 (lexicographic would invert)
    s = proj.sort("prop_docnum").take_all()
    nums = [r["prop_docnum"] for r in s if r["prop_docnum"] is not None]
    assert nums == sorted(nums) and nums.index(5) < nums.index(104)
