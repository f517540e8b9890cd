"""Full-extraction A/B fuzzer: random markup through the engine's two
state-machine paths, and through the engine and the reference binary,
comparing complete records.

Generates adversarial documents — nested/unclosed/misnested tags,
entities, comments (incl. noindex/index/SwishCommand), CDATA, HTML
<meta> tags, attributes with empty/missing values, unicode text,
bumper bytes — far beyond the curated corpora. Two comparisons:

  * machine vs replay (always): every document is extracted through
    swishsax's C extraction machine and through the full event stream
    with the Python replay, under each of MACHINE_CONFIGS; the records
    must be equal in every field.
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


def gen_doc(rng) -> tuple[bytes, str]:
    """One random document and its file suffix."""
    kind = rng.random()
    if kind < 0.45:
        return gen_html(rng), ".html"
    if kind < 0.8:
        return gen_xml(rng), ".xml"
    if kind < 0.92:
        # plain text (uri-as-title path)
        body = rand_text(rng, html=False).encode()
        for _ in range(rng.randint(0, 6)):
            body += b"\n" + rand_text(rng, html=False).encode()
        return body, ".txt"
    return gzip.compress(gen_html(rng)), ".html.gz"


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
        replay.sax_plan = None  # the full event stream
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


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1234
    fails = 0
    for line in machine_mismatches(n, seed):
        fails += 1
        print(f"MACHINE MISMATCH {line}")
    print(f"machine vs replay: {n} docs x {len(MACHINE_CONFIGS)} configs, "
          f"{fails} mismatches")
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
