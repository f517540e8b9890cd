"""Correctness oracles for the benchmark's Ray outputs.

Extraction workloads are compared row by row with a single-process
``DocumentExtractor`` pass over the same input rows. The dedup chain
is compared with a pandas keep-first-by-url pass, and every emitted
near-duplicate pair is re-verified with the exact word 3-gram Jaccard.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

DIGEST_COLUMNS = ("url", "title", "text", "nwords", "error")


def column(table: pa.Table, name: str) -> list:
    """A column as a list; [] for a table with no rows (or columns)."""
    return table.column(name).to_pylist() if table.num_rows else []


def _row_digest(url, title, text, nwords, error) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for v in (url, title, text, str(nwords), error or ""):
        h.update(v.encode("utf-8", "surrogatepass"))
        h.update(b"\x1f")
    return h.digest()


def reference_rows(table: pa.Table, swish_encoding: str) -> dict:
    """url -> (row digest, nwords, is_error) from one in-process
    ``DocumentExtractor`` over every input row, decoded the way
    ``ExtractPages`` decodes title and text."""
    from swishray import constants as C
    from swishray.extractor import DocumentExtractor

    ex = DocumentExtractor(swish_encoding=swish_encoding)
    out = {}
    for url, body in zip(table.column("url").to_pylist(),
                         table.column("html").to_pylist()):
        rec = ex.extract(url, body or b"")
        title = rec.metanames.get(C.TITLE_METANAME, b"")
        text = rec.metanames.get(C.DEFAULT_METANAME, b"")
        nw = rec.docinfo.nwords
        out[url] = (_row_digest(url, title.decode("utf-8", "replace"),
                                text.decode("utf-8", "replace"), nw,
                                rec.error),
                    nw, rec.error is not None)
    return out


def output_rows(out: pa.Table) -> dict:
    """url -> [row digests] of an extraction output table."""
    cols = [out.column(c).to_pylist() for c in DIGEST_COLUMNS]
    rows: dict = {}
    for url, title, text, nw, err in zip(*cols):
        rows.setdefault(url, []).append(
            _row_digest(url, title or "", text or "", nw, err))
    return rows


def summary(ref: dict) -> dict:
    """Row count, summed nwords, error rows and one hash over all rows."""
    h = hashlib.blake2b(digest_size=16)
    for url in sorted(ref):
        h.update(ref[url][0])
    return {"rows": len(ref), "nwords": sum(v[1] for v in ref.values()),
            "error_rows": sum(v[2] for v in ref.values()),
            "digest": h.hexdigest()}


def failed_extraction_rows(out: pa.Table, ref: dict) -> int:
    """Input rows missing from ``out``, present more than once, or
    differing from the reference. Error rows the reference also
    produces are correct output."""
    got = output_rows(out) if out.num_rows else {}
    failed = sum(1 for url in ref
                 if got.get(url, [None]) != [ref[url][0]])
    return failed + sum(len(v) for url, v in got.items() if url not in ref)


def failed_dedup_rows(table: pa.Table, kept: pa.Table, pairs: pa.Table,
                      near: list, ref: dict, threshold: float) -> int:
    """Failures of the extract -> dedup_by_url -> minhash_dedup chain:
    survivors that differ from a pandas keep-first-by-url pass or from
    the extraction reference, emitted pairs under ``threshold`` by the
    exact 3-gram Jaccard, and planted near-duplicate pairs not found."""
    from swishray.ops.dedup import ngram_jaccard

    first = table.select(["url", "doc_id"]).to_pandas() \
        .drop_duplicates(subset=["url"], keep="first")
    want = dict(zip(first["url"], first["doc_id"]))
    failed = failed_extraction_rows(kept, {u: ref[u] for u in want})
    got_ids = dict(zip(column(kept, "url"), column(kept, "doc_id")))
    failed += sum(1 for u, d in want.items()
                  if u in got_ids and got_ids[u] != d)

    text = dict(zip(column(kept, "doc_id"), column(kept, "text")))
    emitted = set()
    for a, b in zip(column(pairs, "a"), column(pairs, "b")):
        emitted.add((min(a, b), max(a, b)))
        if a not in text or b not in text or \
                ngram_jaccard(text[a], text[b]) < threshold:
            failed += 1
    failed += sum(1 for a, b in near
                  if (min(a, b), max(a, b)) not in emitted)
    return failed
