"""Deterministic synthetic web-page tables (FIXTURES.md §1).

pages_from_documents wraps the driver's ``documents`` table
(doc_id, text, lang, ...) into Common-Crawl-shaped rows
(url, warc_ts, html, text, lang) fully deterministically. This is the
input the driver-facing queries() run on: because the body text is
plain ASCII, extraction quantities have exact DuckDB oracles. The
seeded markup and long-text corpora of the benchmark and the pipeline
tests are ``perfbench/corpus.make_table``.
"""

from __future__ import annotations

import datetime
import html as _html

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

