"""Deterministic synthetic web-page tables (FIXTURES.md §1).

Two generators:

* pages_from_documents — wraps the driver's ``documents`` table
  (doc_id, text, lang, ...) into Common-Crawl-shaped rows
  (url, warc_ts, html, text, lang) fully deterministically. This is
  the input the driver-facing queries() run on: because the body text
  is plain ASCII, extraction quantities have exact DuckDB oracles.

* fixture_pages — embeds the reference's own conformance corpus
  (src/test_docs/* bytes) as page bodies, replicated/permuted to
  scale, for conformance + bench runs. Seeded, no external data.
"""

from __future__ import annotations

import datetime
import html as _html
import pathlib

import pyarrow as pa

_EPOCH = datetime.datetime(2026, 1, 1)

HOSTS = ["alpha.example", "beta.example", "gamma.example",
         "delta.example", "epsilon.example"]


def page_html_for_doc(doc_id: int, text: str) -> bytes:
    """The deterministic HTML wrapper used by queries(); its extracted
    title is 'Doc {doc_id}' and its body tokens are exactly the
    whitespace words of ``text`` (all-ASCII), so DuckDB can recompute
    nwords/title exactly."""
    return (f"<html><head><title>Doc {doc_id}</title></head>"
            f"<body><p>{_html.escape(text)}</p></body></html>").encode()


def url_for_doc(doc_id: int, ext: str = "html") -> str:
    host = HOSTS[doc_id % len(HOSTS)]
    return f"https://{host}/doc/{doc_id:08d}.{ext}"


def pages_from_documents_batch(batch: pa.Table) -> pa.Table:
    """map_batches fn: documents rows -> pages rows (Arrow in/out)."""
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()
    urls, ts, bodies = [], [], []
    for d, t in zip(doc_ids, texts):
        urls.append(url_for_doc(d))
        ts.append(_EPOCH + datetime.timedelta(seconds=int(d)))
        bodies.append(page_html_for_doc(d, t or ""))
    return pa.table({
        "url": pa.array(urls, type=pa.string()),
        "warc_ts": pa.array(ts, type=pa.timestamp("us")),
        "html": pa.array(bodies, type=pa.binary()),
        "text": pa.array([""] * len(urls), type=pa.string()),
        "lang": pa.array(langs, type=pa.string()),
    })


def pages_from_documents(sf_dir: str):
    """Dataset of synthetic pages derived from {sf_dir}/documents.parquet."""
    import ray.data as rd
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    return ds.map_batches(pages_from_documents_batch, batch_format="pyarrow")


# ---- fixture-corpus pages (conformance / bench) -----------------------

_FIXDIR = pathlib.Path("/root/reference/src/test_docs")

# web-corpus-representative subset: valid+broken HTML, XML, TXT,
# latin1, UTF-8-heavy, gzip; excludes filesystem-XInclude docs
FIXTURE_DOCS = [
    "t.html", "meta.html", "properties.html", "noindex.html",
    "html_broken.html", "no_words.html", "inline.html", "utf8.html",
    "latin1.html", "latin1-noencoding.html",
    "words.xml", "inline.xml", "badxml.xml", "contractions.xml",
    "multi_props.xml", "nested_meta.xml", "utf.xml", "testutf.xml",
    "latin1.xml", "xmlns.xml", "UPPERlower.XML",
    "words.txt", "min.txt", "foo.txt", "quickbrown.txt",
    "diacritic.txt", "utf8-tokens-1.txt", "UTF-8-demo.txt",
    "UTF-8-gzipped.txt.gz", "revelation.txt", "greek_and_ojibwe.txt",
]


def _fixture_docs() -> list[tuple[str, bytes]]:
    """(name, bytes) for every FIXTURE_DOCS file present in _FIXDIR."""
    docs = [(name, (_FIXDIR / name).read_bytes()) for name in FIXTURE_DOCS
            if (_FIXDIR / name).exists()]
    if not docs:
        raise FileNotFoundError(
            f"no fixture documents in {_FIXDIR} (the libswish3 "
            f"src/test_docs corpus)")
    return docs


def fixture_pages_table(n_rows: int, skew_big_frac: float = 0.0,
                        seed: int = 42) -> pa.Table:
    """Deterministic pages table built from the fixture corpus.

    ``skew_big_frac`` of rows replicate the two large docs
    (revelation.txt 116 KB, testutf.xml 106 KB) to exercise size-aware
    partitioning (SURVEY.md §4 skew row)."""
    import random
    rng = random.Random(seed)
    docs = _fixture_docs()
    big = [d for d in docs if d[0] in ("revelation.txt", "testutf.xml")]
    urls, ts, bodies, langs = [], [], [], []
    for i in range(n_rows):
        if big and rng.random() < skew_big_frac:
            name, body = big[i % len(big)]
        else:
            name, body = docs[i % len(docs)]
        stem = name.rsplit(".", 1)[0] if not name.endswith(".gz") else name[:-3].rsplit(".", 1)[0]
        suffix = name[len(stem):] if name.startswith(stem) else ".html"
        host = HOSTS[i % len(HOSTS)]
        urls.append(f"https://{host}/{stem}/{i:08d}{suffix}")
        ts.append(_EPOCH + datetime.timedelta(seconds=i))
        bodies.append(body)
        langs.append("en")
    return pa.table({
        "url": pa.array(urls, type=pa.string()),
        "warc_ts": pa.array(ts, type=pa.timestamp("us")),
        "html": pa.array(bodies, type=pa.binary()),
        "text": pa.array([""] * n_rows, type=pa.string()),
        "lang": pa.array(langs, type=pa.string()),
    })


def fixture_pages(n_rows: int, skew_big_frac: float = 0.0, seed: int = 42,
                  override_num_blocks: int | None = None):
    import ray.data as rd
    if n_rows <= 8192:
        tbl = fixture_pages_table(n_rows, skew_big_frac, seed)
        ds = rd.from_arrow(tbl)
        # a single arrow block serializes downstream map stages
        blocks = override_num_blocks or max(2, min(64, n_rows // 16))
        return ds.repartition(blocks)
    # large corpora: generate in parallel, deterministically by row
    # index, with the fixture bytes broadcast once via the object store
    import ray
    docs = _fixture_docs()
    docs_ref = ray.put(docs)
    # fine-grained blocks: ~32 pages per block gives the streaming
    # executor room to balance skewed pages across the pool
    blocks = override_num_blocks or max(64, n_rows // 32)

    def gen(batch: pa.Table) -> pa.Table:
        import random
        d = ray.get(docs_ref)
        big = [x for x in d if x[0] in ("revelation.txt", "testutf.xml")]
        ids = batch.column("id").to_pylist()
        urls, ts, bodies, langs = [], [], [], []
        for i in ids:
            rng = random.Random((seed << 24) ^ i)
            if big and rng.random() < skew_big_frac:
                name, body = big[i % len(big)]
            else:
                name, body = d[i % len(d)]
            stem = (name.rsplit(".", 1)[0] if not name.endswith(".gz")
                    else name[:-3].rsplit(".", 1)[0])
            suffix = name[len(stem):] if name.startswith(stem) else ".html"
            urls.append(f"https://{HOSTS[i % len(HOSTS)]}/{stem}/"
                        f"{i:08d}{suffix}")
            ts.append(_EPOCH + datetime.timedelta(seconds=i))
            bodies.append(body)
            langs.append("en")
        return pa.table({
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            "html": pa.array(bodies, type=pa.binary()),
            "text": pa.array([""] * len(ids), type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
        })

    return rd.range(n_rows, override_num_blocks=blocks) \
        .map_batches(gen, batch_format="pyarrow")
