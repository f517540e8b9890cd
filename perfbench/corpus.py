"""Seeded, hermetic input corpora: the two benchmark workloads and the
dedup corpus of the traced run's exchange layer.

Every table is a pure function of ``(workload, seed, scale)``: the same
arguments give byte-identical rows. No file outside this directory is
read. Body text is drawn from the 30-word vocabulary of the sf0.1
``documents`` table (uniform words, 10-100 words per document), plus a
small set of non-ASCII words so the UTF-8, latin1 and gzip paths see
multi-byte input. The markup around it comes from the templates below.

Columns of every table: ``url`` (string), ``html`` (binary body),
``doc_id`` (int64).
"""

from __future__ import annotations

import gzip
import html as _html
import random

import pyarrow as pa

# the sf0.1 documents vocabulary ("dup" marks its planted duplicates)
SF_WORDS = (
    "spark window merge table column vector stream value data small "
    "join filter big group hash customer sort order slow line part "
    "fast row the agg key query a scan batch").split()
# latin1-encodable non-ASCII words, and wider UTF-8 ones
LATIN1_WORDS = ["café", "naïve", "über", "straße", "façade", "résumé",
                "jalapeño", "smörgåsbord", "crème", "déjà"]
UTF8_WORDS = LATIN1_WORDS + ["Ωmega", "日本語", "данные", "ελληνικά",
                             "naïveté", "Zürich", "ﬁle", "ação"]

HOSTS = ["alpha.example", "beta.example", "gamma.example",
         "delta.example", "epsilon.example"]

# input rows per table at scale 1.0
BASE_ROWS = {"markup_dense": 600, "text_bulk": 240, "dedup_chain": 1500}
# stable per-workload salt, so one seed gives unrelated tables
_SALT = {"markup_dense": 1, "text_bulk": 2, "dedup_chain": 3}

MARKUP_TARGET_BYTES = 6000
TEXT_TARGET_BYTES = 32000


def _words(rng: random.Random, n: int, extra=None, p_extra=0.0) -> str:
    ws = rng.choices(SF_WORDS, k=n)
    if extra and p_extra:
        for i in range(n):
            if rng.random() < p_extra:
                ws[i] = rng.choice(extra)
    return " ".join(ws)


def _esc(s: str) -> str:
    return _html.escape(s, quote=True)


# ---- markup_dense -------------------------------------------------------

def _html_block(rng: random.Random, depth: int) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        items = "".join(
            f'<li class="i{j}"><a href="/{_esc(rng.choice(SF_WORDS))}/'
            f'{rng.randrange(10**6)}.html" title="{_words(rng, 2)}">'
            f"{_words(rng, rng.randint(1, 3))}</a></li>"
            for j in range(rng.randint(3, 8)))
        return f'<ul class="nav">{items}</ul>'
    if kind == 1:
        rows = "".join(
            "<tr>" + "".join(f"<td>{_words(rng, rng.randint(1, 2))}</td>"
                             for _ in range(rng.randint(2, 5))) + "</tr>"
            for _ in range(rng.randint(2, 5)))
        return f'<table border="0"><tbody>{rows}</tbody></table>'
    if kind == 2:
        return f"<!-- {_words(rng, rng.randint(2, 6))} -->"
    if kind == 3:
        return (f'<img src="/img/{rng.randrange(10**5)}.png" '
                f'alt="{_words(rng, 2)}"><br>')
    if kind == 4 and depth < 4:
        inner = "".join(_html_block(rng, depth + 1)
                        for _ in range(rng.randint(1, 3)))
        return (f'<div class="c{rng.randrange(50)}" id="d{rng.randrange(10**4)}">'
                f"{inner}</div>")
    spans = []
    for _ in range(rng.randint(3, 8)):
        t = rng.choice(("b", "i", "em", "span", "strong", "code", "a"))
        attr = (f' href="#{rng.choice(SF_WORDS)}"' if t == "a"
                else f' class="{rng.choice(SF_WORDS)}"' if t == "span"
                else "")
        spans.append(f"{_words(rng, rng.randint(1, 4), UTF8_WORDS, 0.05)} "
                     f"<{t}{attr}>{_words(rng, rng.randint(1, 3))}</{t}>")
    tail = " &amp; ".join(_words(rng, 2) for _ in range(2))
    return f"<h3>{_words(rng, 3)}</h3><p>{' '.join(spans)} {tail}</p>"


def _html_dense(rng: random.Random, i: int) -> bytes:
    head = [f"<title>{_words(rng, rng.randint(2, 6))}</title>",
            '<meta http-equiv="Content-Type" '
            'content="text/html; charset=utf-8">']
    for name in ("description", "keywords", "author", "robots"):
        if rng.random() < 0.8:
            head.append(f'<meta name="{name}" '
                        f'content="{_esc(_words(rng, rng.randint(2, 8)))}">')
    parts = ['<!DOCTYPE html>\n<html lang="en"><head>', *head,
             "</head><body>"]
    size = sum(map(len, parts))
    while size < MARKUP_TARGET_BYTES:
        b = _html_block(rng, 0)
        parts.append(b)
        size += len(b)
    parts.append("</body></html>\n")
    return "".join(parts).encode("utf-8")


def _xml_dense(rng: random.Random, i: int) -> bytes:
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n'
             '<rss xmlns:dc="http://purl.org/dc/elements/1.1/" '
             'xmlns:sw="urn:example:swish"><channel>'
             f"<title>{_words(rng, 4)}</title>"]
    size = len(parts[0])
    k = 0
    while size < MARKUP_TARGET_BYTES:
        k += 1
        item = (f'<item id="n{k}" lang="{rng.choice(("en", "de", "fr"))}">'
                f"<dc:title>{_words(rng, rng.randint(2, 5))}</dc:title>"
                f"<dc:creator>{_words(rng, 2)}</dc:creator>"
                f"<sw:meta><sw:keywords>{_words(rng, 3)}</sw:keywords>"
                f"<sw:nested><sw:deep rank=\"{rng.randrange(9)}\">"
                f"{_words(rng, rng.randint(2, 6), UTF8_WORDS, 0.05)}"
                "</sw:deep></sw:nested></sw:meta>"
                f"<description>{_words(rng, rng.randint(8, 20))}"
                "</description></item>")
        parts.append(item)
        size += len(item)
    parts.append("</channel></rss>\n")
    return "".join(parts).encode("utf-8")


def _broken(rng: random.Random, body: bytes) -> bytes:
    """Tag soup: misnested and unclosed tags, stray '<' and '&', and a
    body cut off mid-tag."""
    s = body.decode("utf-8")
    cuts = sorted(rng.sample(range(len(s)), 4))
    s = (s[:cuts[0]] + "<b><i>" + s[cuts[0]:cuts[1]] + "</b></i>"
         + s[cuts[1]:cuts[2]] + " < & <div class=x " + s[cuts[2]:cuts[3]]
         + "<p unclosed=yes>")
    return s.encode("utf-8")


def _markup_row(rng: random.Random, i: int) -> tuple[str, bytes]:
    host = HOSTS[i % len(HOSTS)]
    r = rng.random()
    if r < 0.75:
        url, body = f"https://{host}/m/{i:07d}.html", _html_dense(rng, i)
    elif r < 0.92:
        url, body = f"https://{host}/feed/{i:07d}.xml", _xml_dense(rng, i)
    elif r < 0.97:
        url, body = (f"https://{host}/m/{i:07d}.html",
                     _broken(rng, _html_dense(rng, i)))
    else:
        url, body = (f"https://{host}/feed/{i:07d}.xml",
                     _broken(rng, _xml_dense(rng, i)))
    r = rng.random()
    if r < 0.02:  # NUL-bearing rows take the scrub path
        p = rng.randrange(len(body))
        body = body[:p] + b"\x00" + body[p:]
    elif r < 0.03:  # an empty body is an error row
        body = b""
    return url, body


# ---- text_bulk ---------------------------------------------------------

def _sentences(rng: random.Random, target: int, extra, p_extra) -> str:
    out, size = [], 0
    while size < target:
        s = _words(rng, rng.randint(8, 30), extra, p_extra)
        s = s[:1].upper() + s[1:] + rng.choice((".", ".", ",", ";", "?"))
        out.append(s)
        size += len(s) + 1
    return " ".join(out)


def _text_row(rng: random.Random, i: int) -> tuple[str, bytes]:
    host = HOSTS[i % len(HOSTS)]
    r = rng.random()
    if r < 0.6:
        paras = []
        size = 0
        while size < TEXT_TARGET_BYTES:
            p = _sentences(rng, rng.randint(2500, 6000), UTF8_WORDS, 0.01)
            if rng.random() < 0.3:
                p += f' <a href="/t/{rng.randrange(10**6)}.html">more</a>'
            paras.append(f"<p>{p}</p>\n")
            size += len(paras[-1])
        body = (f"<html><head><title>{_words(rng, 5)}</title></head>"
                f"<body><h1>{_words(rng, 4)}</h1>\n{''.join(paras)}"
                "</body></html>\n").encode("utf-8")
        return f"https://{host}/t/{i:07d}.html", body
    if r < 0.75:
        text = _sentences(rng, TEXT_TARGET_BYTES, UTF8_WORDS, 0.02)
        return f"https://{host}/t/{i:07d}.txt", text.encode("utf-8")
    if r < 0.9:
        text = _sentences(rng, TEXT_TARGET_BYTES, LATIN1_WORDS, 0.03)
        return f"https://{host}/t/{i:07d}.txt", text.encode("latin-1")
    text = _sentences(rng, TEXT_TARGET_BYTES, UTF8_WORDS, 0.02)
    # mtime=0 keeps the gzip header, and so the row, seed-determined
    return (f"https://{host}/t/{i:07d}.txt.gz",
            gzip.compress(text.encode("utf-8"), mtime=0))


# ---- dedup_chain -------------------------------------------------------

def _dedup_rows(rng: random.Random, n_rows: int):
    """Short sf0.1-shaped pages wrapped with the engine's own
    ``synth.page_html_for_doc`` / ``synth.url_for_doc``. Besides the
    distinct documents there are
      * near-duplicates (~8% of rows): a new doc_id whose text is an
        earlier document's plus one word (3-gram Jaccard >= 0.9), which
        minhash_dedup must report;
      * partial copies (~4%): a new doc_id sharing the first ~80% of an
        earlier document's words (Jaccard ~0.7), which LSH mostly
        proposes as candidates and verification must reject;
      * re-crawls (the rest, ~10%): the same url, doc_id and body as an
        earlier row, which dedup_by_url must drop."""
    from swishray.synth import page_html_for_doc, url_for_doc

    n_base = max(4, int(n_rows / 1.22))
    texts = [_words(rng, rng.randint(10, 100)) for _ in range(n_base)]
    rows = [(d, texts[d]) for d in range(n_base)]
    near = []
    long_ids = [d for d in range(n_base) if len(texts[d].split()) >= 40]
    n_near, n_part = int(0.08 * n_rows), int(0.04 * n_rows)
    picked = rng.sample(long_ids, min(len(long_ids), n_near + n_part))
    for j, d in enumerate(picked):
        nid = n_base + j
        words = texts[d].split()
        if j < n_near:
            near.append((d, nid))
            rows.append((nid, texts[d] + " " + rng.choice(SF_WORDS)))
        else:
            keep = round(0.82 * len(words))
            rows.append((nid, " ".join(words[:keep]) + " "
                         + _words(rng, len(words) - keep)))
    recrawl = rng.choices(range(len(rows)), k=max(0, n_rows - len(rows)))
    rows += [rows[k] for k in recrawl]
    rng.shuffle(rows)
    out = [(url_for_doc(d), page_html_for_doc(d, t), d) for d, t in rows]
    return out, near


def make_table(workload: str, seed: int, scale: float = 1.0):
    """The workload's input table, plus planted near-duplicate pairs
    ``[(a, b), ...]`` (empty except for dedup_chain)."""
    rng = random.Random(seed * 1000003 + _SALT[workload])
    n = max(8, int(BASE_ROWS[workload] * scale))
    near: list = []
    if workload == "dedup_chain":
        rows, near = _dedup_rows(rng, n)
    else:
        gen = _markup_row if workload == "markup_dense" else _text_row
        rows = [(*gen(rng, i), i) for i in range(n)]
    table = pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "html": pa.array([r[1] for r in rows], pa.binary()),
        "doc_id": pa.array([r[2] for r in rows], pa.int64()),
    })
    return table, near
