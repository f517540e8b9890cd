"""Seeded mutation fuzz of the untrusted-bytes SAX and tier stages:
``ParseFeeds``, ``ParseSitemaps``, ``ExtractLinks``,
``MainContentExtract`` and ``TieredExtract``.

Each stage's seeds are inputs from its own tests plus the two
nested-entry documents (an entry that opens inside an open field of
another entry). Every mutant is one seed run through one to three of:
truncate, flip bytes, insert bytes, repeat a slice, gzip-wrap. For
every mutant, as a one-row batch, no exception may leave
``stage(batch)`` and the output schema must equal the schema on a
clean seed. In-process, no Ray."""
import gzip
import random

import pyarrow as pa
import pytest

from test_feeds import ATOM, NESTED_RSS, RSS
from test_links import HTML0
from test_maincontent import GOOD_PARA
from test_sitemaps import INDEX, NESTED_URLSET, URLSET
from test_tiered import GOOD, HTML

from swishray.ops.feeds import ParseFeeds
from swishray.ops.links import ExtractLinks
from swishray.ops.maincontent import MainContentExtract
from swishray.ops.pdftext import build_simple_pdf
from swishray.ops.sitemaps import ParseSitemaps
from swishray.ops.tiered import TieredExtract

MUTANTS_PER_STAGE = 3000
SEED = 15

NESTED = [NESTED_RSS, NESTED_URLSET]
PAGE = (b"<html><head><title>T</title><script>var x = 1;</script></head>"
        b"<body><nav><a href='/'>Home</a></nav><div class='sidebar'>"
        b"<p>side</p></div><h2>A headline</h2>" + GOOD_PARA +
        b"<ul><li><a href='/1'>First navigation item here</a></li></ul>"
        b"<footer>All rights reserved.</footer></body></html>")

# name -> (stage, body column, seeds)
STAGES = {
    "feeds": (ParseFeeds(), "body", [RSS, ATOM, b"not xml at all"]),
    "sitemaps": (ParseSitemaps(), "body",
                 [URLSET, INDEX, b'<urlset><url>'
                  b'<loc>https://a.example/?a=1&amp;b=2</loc>'
                  b'</url></urlset>']),
    "links": (ExtractLinks(), "html",
              [HTML0, b"<body><a href=foo.html>t<p><a href='/b'>"
                      b"<div>< not a tag</body>"]),
    "main_content": (MainContentExtract(min_stopword_density=0.0),
                     "html", [PAGE, b"<html><body><nav><div class="
                              b"'inner'><nav>deep</nav>text in nav</div>"
                              b"</nav>" + GOOD_PARA + b"</body></html>"]),
    "tiered": (TieredExtract(min_stopword_density=0.0), "body",
               [HTML, build_simple_pdf([GOOD]), GOOD.encode(),
                b"caf\xe9 au\x00 lait"]),
}

_TOKENS = (b"<", b">", b"</", b"&", b"&amp;", b"&#", b"\x00", b"\xff\xfe",
           b"\x1f\x8b", b"<![CDATA[", b"]]>", b"<!--", b"<?xml ",
           b"<item>", b"<entry>", b"<title>", b"<link href='x'>",
           b"<url>", b"<sitemap>", b"<loc>", b"<a href='/z'>", b"</a>",
           b"<nav>", b"<p>", b"%PDF-", b"stream\n", b"endobj")


def _truncate(rng, b):
    return b[:rng.randrange(len(b) + 1)]


def _flip(rng, b):
    a = bytearray(b)
    for _ in range(rng.randint(1, 8) if a else 0):
        a[rng.randrange(len(a))] = rng.randrange(256)
    return bytes(a)


def _insert(rng, b):
    i = rng.randrange(len(b) + 1)
    ins = (rng.choice(_TOKENS) if rng.random() < 0.7
           else rng.randbytes(rng.randint(1, 16)))
    return b[:i] + ins + b[i:]


def _repeat(rng, b):
    i = rng.randrange(len(b) + 1)
    j = rng.randint(i, min(len(b), i + 64))
    return b[:j] + b[i:j] * rng.randint(2, 32) + b[j:]


def _gzip(rng, b):
    return gzip.compress(b, mtime=0)


MUTATIONS = (_truncate, _flip, _insert, _repeat, _gzip)


def _mutants(seeds, n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        body = rng.choice(seeds)
        for _ in range(rng.randint(1, 3)):
            body = rng.choice(MUTATIONS)(rng, body)
        yield body


def _batch(col, body):
    return pa.table({"url": pa.array(["https://x.example/p"], pa.string()),
                     col: pa.array([body], pa.large_binary())})


@pytest.mark.parametrize("name", sorted(STAGES))
def test_mutated_bodies_never_kill_the_batch(name):
    stage, col, seeds = STAGES[name]
    clean = stage(_batch(col, seeds[0])).schema
    failures = []
    cases = seeds + NESTED + list(_mutants(seeds + NESTED,
                                           MUTANTS_PER_STAGE, SEED))
    for body in cases:
        try:
            schema = stage(_batch(col, body)).schema
        except Exception as e:  # noqa: BLE001 — collected and reported
            failures.append((body[:80], f"{type(e).__name__}: {e}"))
            continue
        if schema != clean:
            failures.append((body[:80], f"schema {schema}"))
    assert not failures, (f"{len(failures)}/{len(cases)} inputs failed, "
                          f"first: {failures[:3]}")
