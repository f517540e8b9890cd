"""Full-extraction A/B fuzzer: random markup through the engine's two
state-machine paths, and through the engine and the reference binary,
comparing complete records.

Generates adversarial documents — nested/unclosed/misnested tags,
entities, comments (incl. noindex/index/SwishCommand), CDATA, HTML
<meta> tags, attributes with empty/missing values, unicode text,
bumper bytes, NUL-bearing markup, latin1 and gzip'd text, empty
bodies and XInclude documents — far beyond the curated corpora.
Three comparisons:

  * machine vs replay (always): every document is extracted through
    swishsax's C extraction machine and through the full event stream
    with the Python replay, under each of MACHINE_CONFIGS; the records
    must be equal in every field.
  * arena vs record (when swishtok's record arena is built): the same
    documents, in batches of BATCH, through ``ExtractPages``' record
    arena, under MACHINE_CONFIGS and an XInclude config whose resolver
    serves a few seeded child documents; every output row must equal
    its document's record.
  * engine vs reference (when the reference's golden_dump is built,
    tools/build_reference.sh): the default-config record must equal
    the reference's.

Any mismatch is a real bug.

Usage: python tools/fuzz_extraction.py [n_docs] [seed]
"""

import base64
import dataclasses
import gzip
import json
import os
import pathlib
import random
import subprocess
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

import pyarrow as pa  # noqa: E402

from swishray import constants as C, pipeline  # noqa: E402
from swishray.config import Config  # noqa: E402
from swishray.extractor import DocumentExtractor  # noqa: E402

GOLDEN_DUMP = "/tmp/refbuild/golden_dump"

# configs for the machine-vs-replay comparison (None: the default);
# the second reaches metaname and property aliases, verbatim and
# non-verbatim properties, cascading contexts and the ignore policy
MACHINE_CONFIGS = [
    None,
    "<swish><MetaNames><b/><item/>title</MetaNames>"
    "<PropertyNames><b verbatim=\"1\"/><item>value</item></PropertyNames>"
    "<TagAlias><swishtitle>span name</swishtitle></TagAlias>"
    "<CascadeMetaContext>1</CascadeMetaContext>"
    "<UndefinedMetaTags>ignore</UndefinedMetaTags></swish>",
    # most documents abort on an undefined name: partial records and
    # the docinfo of aborted rows
    "<swish><UndefinedMetaTags>error</UndefinedMetaTags></swish>",
]

WORDS = ["alpha", "beta", "Gamma", "DELTA", "x1", "don't", "__init__",
         "naïve", "café", "中文词", "ΣΟΦΙΑ", "a", "-", "++", "42",
         "mixedCase", "under_score", "trail'", "'lead"]
TAGS = ["p", "div", "span", "b", "i", "em", "h1", "li", "ul", "a",
        "table", "td", "tr", "pre", "blockquote", "strong", "code",
        "section", "article", "footer", "nav", "customtag", "foo",
        "script", "style", "br", "img"]
XML_TAGS = ["doc", "item", "entry", "name", "value", "data", "rec",
            "field", "a1", "meta", "title", "body"]
ENTITIES = ["&amp;", "&lt;", "&gt;", "&quot;", "&#65;", "&#x42;",
            "&nbsp;"]
COMMENTS = ["<!-- noindex -->", "<!-- index -->", "<!-- hello there -->",
            "<!--noindex-->", "<!-- SwishCommand noindex -->",
            "<!-- SwishCommand index -->", "<!-- SwishCommand other -->",
            "<!---->"]


def rand_text(rng, html=True):
    n = rng.randint(1, 8)
    words = [rng.choice(WORDS) for _ in range(n)]
    s = " ".join(words)
    if html and rng.random() < 0.3:
        s += rng.choice(ENTITIES)
    return s


def gen_html(rng) -> bytes:
    parts = ["<html>"]
    if rng.random() < 0.8:
        parts.append("<head>")
        if rng.random() < 0.7:
            parts.append(f"<title>{rand_text(rng)}</title>")
        for _ in range(rng.randint(0, 3)):
            style = rng.random()
            if style < 0.4:
                parts.append(f'<meta name="{rng.choice(["keywords", "author", "description", "Weird"])}" content="{rand_text(rng)}">')
            elif style < 0.6:
                parts.append(f'<meta content="{rand_text(rng)}" name="kw2">')
            elif style < 0.8:
                parts.append('<meta name="nocontent">')
            else:
                parts.append('<meta charset="utf-8">')
        if rng.random() < 0.5:
            parts.append("</head>")
    parts.append("<body>")
    depth = 0
    for _ in range(rng.randint(2, 25)):
        r = rng.random()
        if r < 0.35 and depth < 6:
            t = rng.choice(TAGS)
            attrs = ""
            if rng.random() < 0.4:
                attrs = f' class="{rng.choice(["x", "y z", ""])}"'
            if rng.random() < 0.2:
                attrs += " checked"
            parts.append(f"<{t}{attrs}>")
            if t not in ("br", "img"):
                depth += 1
        elif r < 0.5 and depth > 0:
            parts.append(f"</{rng.choice(TAGS)}>")  # often misnested!
            depth -= 1
        elif r < 0.85:
            parts.append(rand_text(rng))
        else:
            parts.append(rng.choice(COMMENTS))
    if rng.random() < 0.7:
        parts.append("</body></html>")
    return "\n".join(parts).encode()


def gen_xml(rng) -> bytes:
    parts = []
    if rng.random() < 0.6:
        enc = rng.choice(["utf-8", "UTF-8", "iso-8859-1"])
        parts.append(f'<?xml version="1.0" encoding="{enc}"?>')
    parts.append("<doc>")
    stack = []
    for _ in range(rng.randint(2, 20)):
        r = rng.random()
        if r < 0.35 and len(stack) < 5:
            t = rng.choice(XML_TAGS)
            attrs = ""
            if rng.random() < 0.4:
                attrs = f' {rng.choice(["class", "type", "id"])}="{rng.choice(["v1", "v 2", ""])}"'
            parts.append(f"<{t}{attrs}>")
            stack.append(t)
        elif r < 0.55 and stack:
            parts.append(f"</{stack.pop()}>")
        elif r < 0.65 and stack:
            parts.append(f"</{rng.choice(XML_TAGS)}>")  # wrong close
        elif r < 0.9:
            parts.append(rand_text(rng, html=rng.random() < 0.5))
        else:
            parts.append(rng.choice(COMMENTS))
        if r >= 0.97:
            parts.append("<![CDATA[raw <stuff> here]]>")
    while stack:
        parts.append(f"</{stack.pop()}>")
    parts.append("</doc>")
    body = "\n".join(parts)
    if "iso-8859-1" in body:
        return body.encode("latin-1", errors="replace")
    return body.encode()


def compare(ex, path: pathlib.Path) -> str | None:
    r = subprocess.run([GOLDEN_DUMP, str(path)],
                       capture_output=True, env={"LC_ALL": "C.utf8"})
    lines = r.stdout.split(b"\n")
    try:
        g = json.loads(lines[0].decode("utf-8"))
    except Exception:
        return "REF-CRASH"  # reference died; engine must not
    rec = ex.extract(str(path), path.read_bytes())
    gm = {k: base64.b64decode(v) for k, v in g["metanames"].items()}
    gp = {k: base64.b64decode(v) for k, v in g["properties"].items()}
    gt = [(t[0], t[1], t[2], base64.b64decode(t[3])) for t in g["tokens"]]
    mt = list(zip(rec.token_positions, rec.token_metas,
                  rec.token_contexts, rec.token_values))
    if rec.docinfo.nwords != g["nwords"]:
        return f"nwords {rec.docinfo.nwords} != {g['nwords']}"
    if rec.metanames != gm:
        for k in set(gm) | set(rec.metanames):
            if rec.metanames.get(k) != gm.get(k):
                return (f"meta[{k}]: mine={rec.metanames.get(k)!r:.120} "
                        f"ref={gm.get(k)!r:.120}")
    if rec.properties != gp:
        return "properties differ"
    if mt != gt:
        d = next((i for i, (a, b) in enumerate(zip(gt, mt)) if a != b),
                 min(len(gt), len(mt)))
        return (f"tokens diff@{d}: ref={gt[d] if d < len(gt) else None} "
                f"mine={mt[d] if d < len(mt) else None}")
    return None


def gen_text(rng) -> bytes:
    body = rand_text(rng, html=False).encode()
    for _ in range(rng.randint(0, 6)):
        body += b"\n" + rand_text(rng, html=False).encode()
    return body


def with_nuls(rng, body: bytes) -> bytes:
    """``body`` with a few NUL bytes (the no_nulls scrub's input)."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(body))
        body = body[:i] + b"\x00" + body[i:]
    return body


# what an XInclude document's hrefs name: the children XINCLUDE_DOCS
# serves (one includes another, one is TXT) and one it lacks
XINCLUDE_HREFS = ["child0.xml", "child1.xml", "child2.xml", "child3.txt",
                  "nested.xml", "missing.xml"]


def gen_xinclude(rng) -> bytes:
    parts = ['<doc xmlns:xi="http://www.w3.org/2001/XInclude">']
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            t = rng.choice(XML_TAGS)
            parts.append(f"<{t}>{rand_text(rng, html=False)}</{t}>")
        else:
            parse = ' parse="text"' if rng.random() < 0.2 else ""
            parts.append(f'<xi:include href="{rng.choice(XINCLUDE_HREFS)}"'
                         f"{parse}/>")
    parts.append("</doc>")
    return "\n".join(parts).encode()


def xinclude_docs(seed: int) -> dict[str, bytes]:
    """The seeded child documents the XInclude config's resolver
    serves, by resolved uri."""
    rng = random.Random(seed)
    base = "https://fuzz.example/"
    docs = {f"{base}child{k}.xml": gen_xml(rng) for k in range(3)}
    docs[f"{base}child3.txt"] = gen_text(rng)
    docs[f"{base}nested.xml"] = (
        b'<part xmlns:xi="http://www.w3.org/2001/XInclude"><a>nested</a>'
        b'<xi:include href="child0.xml"/></part>')
    return docs


def gen_doc(rng) -> tuple[bytes, str]:
    """One random document and its file suffix."""
    kind = rng.random()
    if kind < 0.4:
        return gen_html(rng), ".html"
    if kind < 0.7:
        return gen_xml(rng), ".xml"
    if kind < 0.78:
        # plain text (uri-as-title path)
        return gen_text(rng), ".txt"
    if kind < 0.81:
        # latin1 text: not UTF-8, so SWISH_ENCODING decides
        return (gen_text(rng).decode().encode("latin-1", "replace")
                + b" caf\xe9"), ".txt"
    if kind < 0.84:
        return gzip.compress(gen_text(rng)), ".txt.gz"
    if kind < 0.88:
        return gzip.compress(gen_html(rng)), ".html.gz"
    if kind < 0.92:
        return with_nuls(rng, gen_html(rng)), ".html"
    if kind < 0.95:
        return with_nuls(rng, gen_xml(rng)), ".xml"
    if kind < 0.98:
        return gen_xinclude(rng), ".xml"
    return b"", rng.choice([".html", ".xml", ".txt"])


def machine_mismatches(n: int, seed: int) -> list[str]:
    """Extract ``n`` seeded documents through the machine and through
    the replay under each of MACHINE_CONFIGS; one line per document
    whose records differ."""
    out = []
    for ci, xml in enumerate(MACHINE_CONFIGS):
        cfg = Config.default()
        if xml:
            cfg.add(xml)
        machine = DocumentExtractor(cfg)
        replay = DocumentExtractor(cfg)
        replay.machine = None  # the full event stream
        rng = random.Random(seed)
        for i in range(n):
            body, suffix = gen_doc(rng)
            uri = f"https://fuzz.example/doc{i:05d}{suffix}"
            a = dataclasses.asdict(machine.extract(uri, body))
            b = dataclasses.asdict(replay.extract(uri, body))
            if a != b:
                diff = sorted(k for k in a if a[k] != b[k])
                out.append(f"config {ci} doc{i} ({suffix}): {diff}")
    return out


BATCH = 64


def _row_of(rec) -> dict:
    """A per-document record as the output row ``ExtractPages(emit=
    "full")`` gives for it."""
    def text(v: bytes) -> str:
        return v.decode("utf-8", "replace")
    di = rec.docinfo
    return {
        "mime": di.mime, "parser": di.parser, "encoding": di.encoding,
        "ext": di.ext, "size": di.size, "nwords": di.nwords,
        "error": rec.error,
        "title": text(rec.metanames.get(C.TITLE_METANAME, b"")),
        "text": text(rec.metanames.get(C.DEFAULT_METANAME, b"")),
        "metanames": [(k, text(v)) for k, v in rec.metanames.items()],
        "properties": [(k, text(v)) for k, v in rec.properties.items()],
        "token_values": rec.token_values,
        "token_positions": rec.token_positions,
        "token_metas": rec.token_metas,
        "token_contexts": rec.token_contexts}


def arena_mismatches(n: int, seed: int) -> list[str]:
    """Extract ``n`` seeded documents, ``BATCH`` at a time, through the
    record arena under each of MACHINE_CONFIGS and under the default
    config with an XInclude resolver over ``xinclude_docs(seed)``, and
    compare each output row with the document's own record; one line
    per differing row. Empty when the arena is not built."""
    if pipeline._arena is None:
        return []
    out = []
    configs = [(xml, None) for xml in MACHINE_CONFIGS]
    configs.append((None, xinclude_docs(seed).get))
    for ci, (xml, resolver) in enumerate(configs):
        cfg = Config.default()
        if xml:
            cfg.add(xml)
        ex = DocumentExtractor(cfg, xinclude_resolver=resolver)
        rng = random.Random(seed)
        docs = []
        for i in range(n):
            body, suffix = gen_doc(rng)
            docs.append((f"https://fuzz.example/doc{i:05d}{suffix}", body))
        for b0 in range(0, n, BATCH):
            part = docs[b0:b0 + BATCH]
            batch = pa.table({"url": [u for u, _ in part],
                              "html": pa.array([b for _, b in part],
                                               pa.binary())})
            got = pa.table(pipeline._extract_columns(
                ex, batch, "full", C.MAX_FILE_LEN,
                pipeline._arena.Arena(pipeline._MAX_INT32_OFFSET))).to_pylist()
            for i, (row, (uri, body)) in enumerate(zip(got, part)):
                want = _row_of(ex.extract(uri, body))
                diff = sorted(k for k in want if row[k] != want[k])
                if diff:
                    out.append(f"config {ci} doc{b0 + i} ({uri}): {diff}")
    return out


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1234
    fails = 0
    for line in machine_mismatches(n, seed):
        fails += 1
        print(f"MACHINE MISMATCH {line}")
    print(f"machine vs replay: {n} docs x {len(MACHINE_CONFIGS)} configs, "
          f"{fails} mismatches")
    if pipeline._arena is None:
        print("no record arena: arena comparison skipped")
    else:
        arena_fails = arena_mismatches(n, seed)
        for line in arena_fails:
            print(f"ARENA MISMATCH {line}")
        fails += len(arena_fails)
        print(f"arena vs record: {n} docs x {len(MACHINE_CONFIGS) + 1} "
              f"configs, {len(arena_fails)} mismatches")
    if not os.path.exists(GOLDEN_DUMP):
        print(f"no {GOLDEN_DUMP}: reference comparison skipped")
        sys.exit(1 if fails else 0)
    rng = random.Random(seed)
    ex = DocumentExtractor()
    crashes = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(n):
            body, suffix = gen_doc(rng)
            p = pathlib.Path(tmp) / f"doc{i:05d}{suffix}"
            p.write_bytes(body)
            res = compare(ex, p)
            if res == "REF-CRASH":
                crashes += 1
            elif res is not None:
                fails += 1
                print(f"MISMATCH doc{i} ({suffix}): {res}")
                (pathlib.Path(tempfile.gettempdir())
                 / f"fuzzfail_{i}{suffix}").write_bytes(body)
                if fails >= 8:
                    break
    print(f"extraction fuzz: {n} docs, {fails} mismatches, "
          f"{crashes} reference-crashes (engine must survive those)")
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
