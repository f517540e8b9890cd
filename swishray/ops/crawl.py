"""Crawl-snapshot delta: classify every url across two crawls as
added / removed / changed / unchanged.

Reference analog: the incremental-update contract of the reference's
index sink — its per-url upsert path decides add-vs-replace one
document at a time (/root/reference/src/xapian/swish_xapian.cpp:
485-602, unique-term replace at :563-601); this op answers the same
question batch-wise over two whole snapshots, which is what a
recurring 100-TB crawl actually plans its work from ("re-extract only
changed+added urls").

Scale shape: each side is reduced map-side to a slim ``(key, fp)``
table — ``fp`` is a vectorized 64-bit content hash — so the
full-outer join ships ~16 bytes/row, never page bodies.  Status
derivation is one vectorized code lookup over the joined null
pattern.  Fingerprint collisions only matter per-key (the old and new
body of the SAME url colliding would misread "changed" as
"unchanged"): at 10^12 urls that is ~5e-8 expected misreads for a
64-bit hash, versus ~200 for a 32-bit one — hence polars' xxhash-
family 64-bit kernel rather than the crc32-based join hash.
"""
from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_STATUS = np.array(["unchanged", "changed", "removed", "added"])


def _fingerprints(ds: Any, key: str, content: str) -> Any:
    """Slim (key, fp) projection of one snapshot; fp is a 64-bit
    content hash, never null (null/absent bodies hash as empty)."""

    def fp(batch: pa.Table) -> pa.Table:
        from ..util import import_polars
        pl = import_polars()
        body = pc.coalesce(
            pc.cast(batch.column(content), pa.large_binary()), b"")
        h = pl.from_arrow(
            pa.chunked_array([body]).combine_chunks()).hash(seed=0)
        # int64 view: Ray 2.49 groupby/join pickles uint64 keys into
        # python objects — signed bits compare identically
        return pa.table({
            key: batch.column(key),
            "fp": pa.array(h.to_numpy().view(np.int64))})

    import ray.data as rd

    # An all-empty side has no schema, and the join's empty-side
    # answer would lack the ``fp``/``fp_r`` columns snapshot_delta's
    # status reads. Seed a single NULL-key sentinel row so the side is
    # never empty: null keys never match in the join, and
    # snapshot_delta drops null keys after the join (null urls are
    # garbage rows by contract anyway).
    sch = ds.schema()
    ktype = (sch.base_schema.field(key).type
             if sch is not None else pa.string())
    seed = rd.from_arrow(pa.table({
        key: pa.array([None], ktype),
        "fp": pa.array([None], pa.int64())}))
    return seed.union(ds.map_batches(fp, batch_format="pyarrow"))


def snapshot_delta(old: Any, new: Any, key: str = "url",
                   content: str = "content") -> Any:
    """Per-key crawl delta: ``(key, status)`` with status in
    {added, removed, changed, unchanged}.

    ``added``   — key present only in ``new``;
    ``removed`` — key present only in ``old``;
    ``changed`` / ``unchanged`` — present in both, classified by
    64-bit content fingerprint equality.

    Assumes ``key`` is unique within each snapshot (the reference's
    index holds one live document per url — swish_xapian.cpp:563-601);
    run the upsert/dedup-by-url op first if a snapshot can carry
    duplicates, otherwise the join fans out per duplicate pair.
    Null keys are dropped (a url-less crawl record is garbage by
    contract, and the internal never-empty sentinel rides on that).
    """
    from .joins import hash_join

    o = _fingerprints(old, key, content)
    n = _fingerprints(new, key, content)
    j = hash_join(o, n, key, how="outer")

    def status(batch: pa.Table) -> pa.Table:
        # drop the sentinel seed rows (and any garbage null keys)
        batch = batch.filter(pc.is_valid(batch.column(key)))
        if batch.num_rows == 0:
            return pa.table({key: batch.column(key),
                             "status": pa.array([], pa.string())})
        fpo = batch.column("fp").combine_chunks()
        fpn = batch.column("fp_r").combine_chunks()
        miss_o = pc.is_null(fpo).to_numpy(zero_copy_only=False)
        miss_n = pc.is_null(fpn).to_numpy(zero_copy_only=False)
        same = pc.coalesce(pc.equal(fpo, fpn), False) \
            .to_numpy(zero_copy_only=False)
        codes = np.where(miss_o, 3,
                         np.where(miss_n, 2, np.where(same, 0, 1)))
        return pa.table({key: batch.column(key),
                         "status": pa.array(_STATUS[codes])})

    return j.map_batches(status, batch_format="pyarrow")


def parse_cdxj(lines: Any, line_col: str = "text") -> Any:
    """CDX(J) crawl-index lines -> typed columns.  The public Common
    Crawl / pywb index format: ``<urlkey> <timestamp> <json>`` per
    line, e.g.::

        com,example)/page 20240101120000 {"url": "https://...",
            "status": "200", "mime": "text/html", "digest": "...",
            "length": "1234", "offset": "5678", "filename": "...warc.gz"}

    Output: ``(urlkey, ts, url, status, mime, digest, length, offset,
    filename)`` — ``status``/``length``/``offset`` as int64 (null when
    absent or non-numeric, e.g. status "-" on revisit records), the
    rest strings.  Malformed lines (no JSON payload, bad JSON) yield
    a row with null fields rather than killing the batch — crawl
    indexes at scale always contain some.

    Pure map-side (one json.loads per line — the payload is JSON by
    definition); no shuffle."""
    import json

    def parse(batch: pa.Table) -> pa.Table:
        cols: dict[str, list] = {k: [] for k in (
            "urlkey", "ts", "url", "status", "mime", "digest",
            "length", "offset", "filename")}

        def as_int(v):
            try:
                return int(v)
            except (TypeError, ValueError):
                return None

        for line in batch.column(line_col).to_pylist():
            parts = (line or "").split(" ", 2)
            if len(parts) == 3:
                urlkey, ts, payload = parts
                try:
                    d = json.loads(payload)
                except ValueError:
                    d = {}
            elif len(parts) == 2:
                urlkey, ts = parts
                d = {}
            else:
                urlkey, ts, d = (parts[0] if parts else None), None, {}
            cols["urlkey"].append(urlkey or None)
            cols["ts"].append(ts or None)
            cols["url"].append(d.get("url"))
            cols["status"].append(as_int(d.get("status")))
            cols["mime"].append(d.get("mime"))
            cols["digest"].append(d.get("digest"))
            cols["length"].append(as_int(d.get("length")))
            cols["offset"].append(as_int(d.get("offset")))
            cols["filename"].append(d.get("filename"))
        return pa.table({
            "urlkey": pa.array(cols["urlkey"], pa.string()),
            "ts": pa.array(cols["ts"], pa.string()),
            "url": pa.array(cols["url"], pa.string()),
            "status": pa.array(cols["status"], pa.int64()),
            "mime": pa.array(cols["mime"], pa.string()),
            "digest": pa.array(cols["digest"], pa.string()),
            "length": pa.array(cols["length"], pa.int64()),
            "offset": pa.array(cols["offset"], pa.int64()),
            "filename": pa.array(cols["filename"], pa.string()),
        })

    return lines.map_batches(parse, batch_format="pyarrow")
