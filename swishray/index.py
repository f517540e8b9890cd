"""Inverted-index sink + searcher — the ``swish_xapian`` consumer analog.

The reference's flagship consumer feeds extraction records into a Xapian
``WritableDatabase``: postings (term, wdf) per metaname prefix, stored
properties, and idempotent upsert keyed by a unique uri term
(``/root/reference/src/xapian/swish_xapian.cpp:485-602`` — handler builds
the document, ``replace_document(uniqterm, ...)`` at :563-601 makes
re-indexing a replace, not a duplicate; typed property serialization at
:437-483).

Ray-Data-native re-expression (no Xapian, no native store):

* **Postings are a slim exchange, not a B-tree.** One streaming
  ``map_batches`` pass over the input turns each doc into
  ``(term, meta, key, tf)`` rows plus one docstore row, bucketed by
  term-hash (postings) / key-hash (docstore) and written as
  hive-partitioned parquet via ``Dataset.write_parquet(partition_cols)``.
  Nothing is materialized driver-side; the only "shuffle" is the sink's
  partition fan-out. Per-batch rows are sorted by term so parquet
  row-group stats prune term lookups inside each bucket.
* **Segments are immutable; upsert = shadowing.** Each ``build_index``
  call appends a numbered segment. A doc re-indexed in a newer segment
  shadows all older postings for the same key (the ``replace_document``
  semantic); ``delete_keys`` writes a tombstone segment. Resolution cost
  is proportional to the *candidate* set of a query, never the corpus:
  the searcher probes newer segments' docstores with a key-bucket +
  ``isin`` filtered parquet read.
* **Search is a pruned lookup, not a scan.** A term lookup reads only
  its bucket partition (hive prune) and only row groups whose term
  min/max covers it — the parquet analog of Xapian's B-tree descent.

100-TB sizing rule: ``num_buckets`` defaults from the input's estimated
in-memory size so one bucket targets ≲ ``TARGET_BUCKET_BYTES`` of
postings; buckets are further split into ≤ ``max_rows_per_file`` files,
so no task and no reader ever holds a whole bucket.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

import pyarrow as pa

TARGET_BUCKET_BYTES = 1 << 30  # ~1 GB of postings per bucket partition
_SEGMENTS_FILE = "segments.json"
_DEFAULT_META = "swishdefault"


def _bucket_of(arr: pa.Array, n: int):
    """Vectorized bucket id for a term/key column (shared key-hash)."""
    import numpy as np

    from .ops.joins import _key_hash64
    return (_key_hash64(arr) % np.uint64(n)).astype(np.int32)


def _load_segments(out_dir: str) -> list[dict]:
    p = os.path.join(out_dir, _SEGMENTS_FILE)
    if not os.path.exists(p):
        return []
    with open(p) as f:
        return json.load(f)


def _append_segment(out_dir: str, entry: dict) -> None:
    segs = _load_segments(out_dir)
    segs.append(entry)
    tmp = os.path.join(out_dir, _SEGMENTS_FILE + ".tmp")
    with open(tmp, "w") as f:
        json.dump(segs, f, indent=1)
    os.replace(tmp, os.path.join(out_dir, _SEGMENTS_FILE))


def _auto_buckets(ds: Any) -> int:
    try:
        est = ds.size_bytes() or 0
    except Exception:
        est = 0
    # postings ≈ input text bytes (term strings + key + tf)
    return max(1, min(4096, (est + TARGET_BUCKET_BYTES - 1)
                      // TARGET_BUCKET_BYTES))


def build_index(ds: Any, out_dir: str, *, key: str = "doc_id",
                text_col: str | None = "text",
                token_col: str | None = None,
                meta_col: str | None = None,
                num_buckets: int | None = None,
                max_rows_per_file: int = 1 << 20,
                positions: bool = False,
                prop_cols: list[str] | None = None,
                stemmer: str | None = None) -> dict:
    """Index ``ds`` into a new immutable segment under ``out_dir``.

    Input is either a plain corpus (``text_col`` whitespace-tokenized,
    matching the ``_WORDS_SQL`` oracle contract) or extraction records
    (``token_col`` = the ``emit="full"`` token stream, ``meta_col`` =
    the per-token metaname list, or ``"token_runs"``, ``ExtractPages``'
    run table, which ``pipeline.expand_record`` expands — the
    reference's prefixed-term model, swish_xapian.cpp:505-541).

    ``positions=True`` stores each term's 1-based token positions
    (the reference's ``swish_Token.pos`` model, libswish3.h:360-369;
    swish_xapian.cpp adds them via ``add_posting`` for Xapian phrase
    support) as a packed-int32 binary postings column, enabling
    :meth:`IndexSearcher.search_phrase`.

    ``prop_cols`` stores those input columns per doc in the docstore
    rows (the reference's ``add_value`` property slots,
    swish_xapian.cpp:509-557) as one JSON blob per doc — enabling
    search-time property sort (``MultiValueSorter``,
    swish_xapian.cpp:1036-1047) and facet counting
    (``FacetFinder``) without touching the source table.

    ``stemmer`` names a stemming language (stem.get_stemmer registry;
    "en"/"porter" = the classic Porter algorithm): index terms are
    stemmed before the tf groupby, the language is recorded on the
    segment, and the searcher stems query terms to match — the
    reference's set_stemmer pair (swish_xapian.cpp:625, :999).
    Adding a segment with a DIFFERENT stemmer than the existing ones
    raises, mirroring the reference's config-mismatch croak
    (swish_xapian.cpp:703-710).

    Returns ``{"segment", "num_buckets", "path"}``. Never materializes
    the dataset; one streaming pass, one partitioned parquet sink.
    """
    from .pipeline import expand_record
    from .stem import get_stemmer
    stem_fn = get_stemmer(stemmer)   # validates the language early
    prior = [s for s in _load_segments(out_dir)
             if s.get("kind") == "index"]
    if prior:
        prev = prior[-1].get("stemmer")
        if (prev or None) != (stemmer or None):
            raise ValueError(
                f"index built with stemmer={prev!r} but this segment "
                f"asked for {stemmer!r} (the reference croaks on this "
                "mismatch, swish_xapian.cpp:703-710)")
    if num_buckets is None:
        num_buckets = _auto_buckets(ds)
    os.makedirs(out_dir, exist_ok=True)
    seg_id = len(_load_segments(out_dir)) + 1
    seg_name = f"seg-{seg_id:06d}"
    seg_dir = os.path.join(out_dir, seg_name)

    nb = num_buckets

    def to_rows(batch: pa.Table) -> pa.Table:
        """Vectorized postings fan-out: flatten the token lists, tag
        each token with its doc ordinal (np.repeat), one pandas
        groupby for (doc, meta, term) -> tf — no per-doc Python loop
        in the sink's hot path."""
        import numpy as np
        import pandas as pd
        import pyarrow.compute as pc
        keys = batch.column(key)
        n = batch.num_rows
        if token_col is not None:
            toks = batch.column(token_col)
            if isinstance(toks, pa.ChunkedArray):
                toks = toks.combine_chunks()
            lens = pc.list_value_length(toks).to_numpy(
                zero_copy_only=False).astype(np.int64)
            fb = pc.list_flatten(toks)
            try:
                flat = pc.cast(fb, pa.string()).to_pandas()
            except pa.ArrowInvalid:
                # tokenizer output is valid UTF-8 by construction, but
                # stay lossy-safe for foreign token tables
                flat = fb.to_pandas().map(
                    lambda v: v.decode("utf-8", "replace")
                    if isinstance(v, bytes) else v)
            if meta_col is not None:
                if meta_col == "token_runs":
                    metas = expand_record(
                        batch.select([meta_col])).column("token_metas")
                else:
                    metas = batch.column(meta_col)
                if isinstance(metas, pa.ChunkedArray):
                    metas = metas.combine_chunks()
                mflat = pc.list_flatten(metas)
                mflat = mflat.to_pandas().fillna(_DEFAULT_META)
            else:
                mflat = pd.Series([_DEFAULT_META] * len(flat))
            doc_idx = np.repeat(np.arange(n), lens)
            df = pd.DataFrame({"d": doc_idx, "m": mflat, "t": flat})
            doclens = pd.Series(lens, index=np.arange(n))
        else:
            words = pc.split_pattern_regex(
                pc.coalesce(batch.column(text_col), ""), " +")
            lens = pc.list_value_length(words).to_numpy(
                zero_copy_only=False).astype(np.int64)
            flat = pc.list_flatten(words).to_pandas()
            doc_idx = np.repeat(np.arange(n), lens)
            df = pd.DataFrame({"d": doc_idx, "t": flat})
            df = df[df["t"] != ""]
            df["m"] = _DEFAULT_META
            doclens = df.groupby("d").size().reindex(
                np.arange(n)).fillna(0).astype(np.int64)
        if stem_fn is not None:
            # stem before the tf groupby (the TermGenerator slot);
            # per-word Python by nature — Porter is a character
            # state machine — but it runs inside the distributed
            # sink pass, never on the driver
            df["t"] = df["t"].map(stem_fn)
        if positions:
            # 1-based ordinal within the doc's token stream (rank
            # among kept words on the text path — the _WORDS_SQL
            # list-position contract)
            df["p"] = df.groupby("d").cumcount() + 1
            g = df.groupby(["d", "m", "t"], sort=False)["p"] \
                .agg([("tf", "size"), ("pos", list)]).reset_index()
        else:
            g = df.groupby(["d", "m", "t"], sort=False).size() \
                .reset_index(name="tf")
        kpy = np.asarray(keys.to_pylist(), dtype=object)
        ktype = keys.type
        pk = pa.array(kpy[g["d"].to_numpy()], type=ktype)
        terms = pa.array(g["t"], pa.string())
        pcols = {
            "kind": pa.array(["p"] * len(g)),
            "bucket": pa.array(_bucket_of(terms, nb)
                               if len(g) else [], type=pa.int32()),
            "term": terms,
            "meta": pa.array(g["m"], pa.string()),
            "key": pk,
            "tf": pa.array(g["tf"].astype(np.int64).values),
        }
        if positions:
            # packed int32 blob, not list<int32>: binary payloads
            # survive the compaction join (acero rejects list
            # non-key fields) and decode zero-copy via frombuffer
            pcols["pos"] = pa.array(
                [np.asarray(p, dtype=np.int32).tobytes()
                 for p in g["pos"]], pa.large_binary())
        if prop_cols:
            pcols["props"] = pa.nulls(len(g), pa.large_binary())
        post = pa.table(pcols).sort_by("term")  # row-group stats
        dcols = {
            "kind": pa.array(["d"] * n),
            "bucket": pa.array(_bucket_of(keys.combine_chunks(), nb)
                               if n else [], type=pa.int32()),
            "term": pa.array([""] * n, pa.string()),
            "meta": pa.array([""] * n, pa.string()),
            "key": keys,
            "tf": pa.array(doclens.values),  # doc length for ranking
        }
        if positions:
            dcols["pos"] = pa.nulls(n, pa.large_binary())
        if prop_cols:
            import json
            rows = batch.select(prop_cols).to_pylist()
            dcols["props"] = pa.array(
                [json.dumps(r, default=str).encode() for r in rows],
                pa.large_binary())
        docs = pa.table(dcols)
        return pa.concat_tables([post, docs])

    out = ds.map_batches(to_rows, batch_format="pyarrow")
    out.write_parquet(os.path.join(seg_dir, "data"),
                      partition_cols=["kind", "bucket"],
                      max_rows_per_file=max_rows_per_file)
    if not os.path.isdir(os.path.join(seg_dir, "data")):
        # empty corpus: write_parquet produced nothing — record NO
        # segment (a searcher over zero segments answers empty)
        return {"segment": None, "num_buckets": nb, "path": seg_dir,
                "n_docs": 0}
    n_docs, total_len = _docstore_stats(seg_dir)
    entry = {"segment": seg_name, "num_buckets": nb, "kind": "index",
             "n_docs": n_docs, "total_doclen": total_len,
             "positions": positions, "props": prop_cols or [],
             "stemmer": stemmer, "created": time.time()}
    _append_segment(out_dir, entry)
    return {"segment": seg_name, "num_buckets": nb, "path": seg_dir,
            "n_docs": n_docs}


def _docstore_stats(seg_dir: str) -> tuple[int, int]:
    """(n_docs, total doc length) for one freshly written segment —
    the BM25 corpus statistics. Streams ONLY the docstore's int64 tf
    column file-by-file (per-doc length), O(1) memory; row counts come
    free from parquet footers. Under upserts the searcher sums these
    per segment, so shadowed docs stay counted until a compaction —
    the same drift Xapian's doccount has before commit/compact."""
    import pyarrow.dataset as pads
    try:
        dset = pads.dataset(os.path.join(seg_dir, "data"),
                            partitioning="hive")
    except FileNotFoundError:
        return 0, 0
    n_docs = 0
    total = 0
    for frag in dset.get_fragments(filter=(pads.field("kind") == "d")):
        for batch in frag.to_batches(columns=["tf"]):
            n_docs += batch.num_rows
            s = batch.column(0).to_numpy(zero_copy_only=False).sum()
            total += int(s)
    return n_docs, total


def delete_keys(out_dir: str, keys: list) -> dict:
    """Tombstone segment: the reference's ``delete_document(uniqterm)``
    analog (swish_xapian.cpp uses the -d/--delete path). Keys deleted
    here are invisible to any search until re-added by a newer
    ``build_index`` call."""
    import pyarrow.parquet as pq
    seg_id = len(_load_segments(out_dir)) + 1
    seg_name = f"seg-{seg_id:06d}"
    seg_dir = os.path.join(out_dir, seg_name)
    os.makedirs(seg_dir, exist_ok=True)
    pq.write_table(pa.table({"key": pa.array(keys)}),
                   os.path.join(seg_dir, "tombstones.parquet"))
    entry = {"segment": seg_name, "kind": "tombstone",
             "created": time.time()}
    _append_segment(out_dir, entry)
    return {"segment": seg_name, "path": seg_dir}


def compact_index(out_dir: str, num_buckets: int | None = None,
                  delete_old: bool = False) -> dict:
    """Merge every segment into one, resolving upsert shadowing and
    tombstones — the ``xapian-compact`` analog. Fully distributed:

    1. every segment's rows stream in tagged with their ordinal,
    2. winners = per-key max ordinal from the docstore/tombstone rows
       (a slim (key, seg) exchange + groupby max),
    3. an inner ``hash_join`` keeps only rows whose segment IS the
       winner and whose winner is not a tombstone,
    4. rows are re-bucketed and written as a single fresh segment;
       ``segments.json`` is swapped atomically afterwards.

    Nothing is materialized driver-side; cost is one join over the
    index's own rows. Old segment dirs are kept unless ``delete_old``
    (a reader holding the old segments.json can finish its lookups).
    """
    import pyarrow.compute as pc
    import ray.data as rd

    from .ops.joins import hash_join

    segs = _load_segments(out_dir)
    if not segs:
        # an index over an empty corpus has no segments — compacting
        # it is a no-op (the reference's empty Xapian DB analog)
        return {"segment": None, "n_docs": 0}
    if num_buckets is None:
        num_buckets = max((s["num_buckets"] for s in segs
                           if s.get("kind") == "index"), default=1)

    tagged = []
    owners = []   # (key, seg, dead) rows for winner resolution
    for ord_, seg in enumerate(segs, start=1):
        if seg.get("kind") == "tombstone":
            t = rd.read_parquet(os.path.join(
                out_dir, seg["segment"], "tombstones.parquet"))
            owners.append(t.map_batches(
                lambda b, o=ord_: pa.table({
                    "key": b.column("key"),
                    "seg": pa.array([o] * b.num_rows, pa.int32()),
                    "dead": pa.array([True] * b.num_rows)}),
                batch_format="pyarrow"))
            continue
        ds = rd.read_parquet(os.path.join(out_dir, seg["segment"], "data"))
        has_pos = any(s.get("positions") for s in segs
                      if s.get("kind") == "index")
        pad_pos = has_pos and not seg.get("positions")
        has_props = any(s.get("props") for s in segs
                        if s.get("kind") == "index")
        pad_props = has_props and not seg.get("props")

        def tag_rows(b: pa.Table, o=ord_, pad=pad_pos,
                     padp=pad_props) -> pa.Table:
            # a mixed positional/plain segment set must union under
            # ONE schema — pad the plain side with null pos lists
            # (and likewise for the props docstore blobs)
            if pad and "pos" not in b.column_names:
                b = b.append_column(
                    "pos", pa.nulls(b.num_rows, pa.large_binary()))
            if padp and "props" not in b.column_names:
                b = b.append_column(
                    "props", pa.nulls(b.num_rows, pa.large_binary()))
            b = b.append_column(
                "seg", pa.array([o] * b.num_rows, pa.int32()))
            # one canonical column order so the cross-segment union
            # concatenates under a single schema
            return b.select(sorted(b.column_names))

        ds = ds.map_batches(tag_rows, batch_format="pyarrow")
        tagged.append(ds)
        owners.append(ds.map_batches(
            lambda b: (lambda f: pa.table({
                "key": f.column("key"),
                "seg": f.column("seg"),
                "dead": pa.array([False] * f.num_rows)}))(
                b.filter(pc.equal(b.column("kind"), "d"))),
            batch_format="pyarrow"))

    own = owners[0] if len(owners) == 1 else owners[0].union(*owners[1:])
    from ray.data.aggregate import Max
    win = own.groupby("key").aggregate(Max("seg", alias_name="max_seg"))
    dead_by_seg = {i + 1: (s.get("kind") == "tombstone")
                   for i, s in enumerate(segs)}

    def drop_dead(batch: pa.Table) -> pa.Table:
        alive = [not dead_by_seg[s]
                 for s in batch.column("max_seg").to_pylist()]
        return batch.filter(pa.array(alive))
    win = win.map_batches(drop_dead, batch_format="pyarrow")

    allrows = tagged[0] if len(tagged) == 1 else tagged[0].union(*tagged[1:])
    joined = hash_join(allrows, win, key="key", how="inner")

    nb = num_buckets

    def keep_and_rebucket(batch: pa.Table) -> pa.Table:
        m = pc.equal(batch.column("seg"),
                     pc.cast(batch.column("max_seg_r"), pa.int32()))
        t = batch.filter(m)
        import numpy as np
        if t.num_rows == 0:
            bucket = np.array([], dtype="int32")
        else:
            is_p = pc.equal(t.column("kind"), "p")
            tb = _bucket_of(t.column("term").combine_chunks(), nb)
            kb = _bucket_of(t.column("key").combine_chunks(), nb)
            bucket = np.where(is_p.to_numpy(zero_copy_only=False),
                              tb, kb)
        cols = {
            "kind": t.column("kind"),
            "bucket": pa.array(bucket.astype("int32")),
            "term": t.column("term"),
            "meta": t.column("meta"),
            "key": t.column("key"),
            "tf": t.column("tf"),
        }
        if "pos" in t.column_names:  # positional segments keep pos
            cols["pos"] = t.column("pos")
        if "props" in t.column_names:  # docstore property blobs
            cols["props"] = t.column("props")
        return pa.table(cols)

    out = joined.map_batches(keep_and_rebucket, batch_format="pyarrow")
    seg_id = len(segs) + 1
    seg_name = f"seg-{seg_id:06d}"
    seg_dir = os.path.join(out_dir, seg_name)
    out.write_parquet(os.path.join(seg_dir, "data"),
                      partition_cols=["kind", "bucket"])
    if not os.path.isdir(os.path.join(seg_dir, "data")):
        return {"segment": None, "num_buckets": nb, "path": seg_dir,
                "n_docs": 0}
    n_docs, total_len = _docstore_stats(seg_dir)
    entry = {"segment": seg_name, "num_buckets": nb, "kind": "index",
             "n_docs": n_docs, "total_doclen": total_len,
             "positions": all(s.get("positions", False) for s in segs
                              if s.get("kind") == "index"),
             "props": sorted({c for s in segs
                              if s.get("kind") == "index"
                              for c in s.get("props", [])}),
             "stemmer": next((s.get("stemmer") for s in segs
                              if s.get("kind") == "index"), None),
             "created": time.time(), "compacted_from": len(segs)}
    tmp = os.path.join(out_dir, _SEGMENTS_FILE + ".tmp")
    with open(tmp, "w") as f:
        json.dump([entry], f, indent=1)
    os.replace(tmp, os.path.join(out_dir, _SEGMENTS_FILE))
    if delete_old:
        import shutil
        for s in segs:
            shutil.rmtree(os.path.join(out_dir, s["segment"]),
                          ignore_errors=True)
    return {"segment": seg_name, "num_buckets": nb, "n_docs": n_docs}


class IndexSearcher:
    """Driver-side pruned-lookup searcher over the segment set.

    Each lookup touches one bucket partition per segment and only the
    row groups whose term range covers the probe — candidate-
    proportional work, corpus-size independent, which is why the
    searcher is deliberately NOT a Ray pipeline (the reference's
    swish_query is likewise a point-lookup client, not a batch job).
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        # zero segments = a valid EMPTY index (empty-corpus build):
        # every lookup naturally answers empty, like an empty Xapian DB
        self.segments = _load_segments(out_dir)
        from .stem import get_stemmer
        lang = next((s.get("stemmer") for s in reversed(self.segments)
                     if s.get("kind") == "index"), None)
        # query-side stem fn paired with the index build
        # (qparser.set_stemmer, swish_xapian.cpp:999)
        self._stem = get_stemmer(lang)

    # -- internals ---------------------------------------------------

    def _seg_dataset(self, seg: dict):
        import pyarrow.dataset as pads
        return pads.dataset(
            os.path.join(self.out_dir, seg["segment"], "data"),
            partitioning="hive")

    def _postings(self, term: str, meta: str | None,
                  with_pos: bool = False) -> pa.Table:
        """Raw (pre-shadowing) postings for one term across segments,
        tagged with the segment ordinal.  ``with_pos`` adds the
        ``pos`` position-list column (null for segments built without
        ``positions=True``)."""
        import pyarrow.dataset as pads
        parts = []
        for ord_, seg in enumerate(self.segments, start=1):
            if seg.get("kind") != "index":
                continue
            b = int(_bucket_of(pa.array([term], pa.string()),
                               seg["num_buckets"])[0])
            flt = ((pads.field("kind") == "p")
                   & (pads.field("bucket") == b)
                   & (pads.field("term") == term))
            if meta is not None:
                flt = flt & (pads.field("meta") == meta)
            cols = ["term", "meta", "key", "tf"]
            if with_pos and seg.get("positions"):
                cols.append("pos")
            t = self._seg_dataset(seg).to_table(filter=flt,
                                                columns=cols)
            if with_pos and "pos" not in t.column_names:
                t = t.append_column(
                    "pos", pa.nulls(t.num_rows, pa.large_binary()))
            if t.num_rows:
                parts.append(t.append_column(
                    "seg", pa.array([ord_] * t.num_rows, pa.int32())))
        if not parts:
            cols = {"term": pa.array([], pa.string()),
                    "meta": pa.array([], pa.string()),
                    "key": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64())}
            if with_pos:
                cols["pos"] = pa.array([], pa.large_binary())
            cols["seg"] = pa.array([], pa.int32())
            return pa.table(cols)
        return pa.concat_tables(parts)

    def _latest_seg(self, keys: pa.Array) -> dict:
        """key -> ordinal of the newest segment that re-indexed or
        tombstoned it (0 = none). Probes newest→oldest with key-bucket
        + isin pruned reads; cost ∝ len(keys)."""
        import pyarrow.dataset as pads
        import pyarrow.parquet as pq
        latest: dict = {}
        pending = set(keys.to_pylist())
        for ord_ in range(len(self.segments), 0, -1):
            if not pending:
                break
            seg = self.segments[ord_ - 1]
            if seg.get("kind") == "tombstone":
                p = os.path.join(self.out_dir, seg["segment"],
                                 "tombstones.parquet")
                hit = set(pq.read_table(p).column("key").to_pylist())
            else:
                probe = pa.array(list(pending))
                nb = seg["num_buckets"]
                bs = sorted({int(b) for b in _bucket_of(probe, nb)})
                flt = ((pads.field("kind") == "d")
                       & pads.field("bucket").isin(bs)
                       & pads.field("key").isin(probe))
                t = self._seg_dataset(seg).to_table(
                    filter=flt, columns=["key"])
                hit = set(t.column("key").to_pylist())
            for k in hit & pending:
                latest[k] = ord_
                pending.discard(k)
        return latest

    def _resolved(self, term: str, meta: str | None,
                  with_pos: bool = False) -> pa.Table:
        """Postings after upsert/tombstone shadowing: a row survives
        only if its segment IS the newest segment that touched its key
        and that segment is an index segment."""
        raw = self._postings(term, meta, with_pos=with_pos)
        if raw.num_rows == 0:
            return raw
        latest = self._latest_seg(raw.column("key"))
        tomb = {i + 1 for i, s in enumerate(self.segments)
                if s.get("kind") == "tombstone"}
        keep = [i for i, (k, s) in enumerate(
            zip(raw.column("key").to_pylist(),
                raw.column("seg").to_pylist()))
            if latest.get(k, 0) == s and s not in tomb]
        return raw.take(pa.array(keep, pa.int64()))

    # -- public ------------------------------------------------------

    def doc_stats(self, term: str, meta: str | None = None) -> dict:
        if self._stem is not None:
            term = self._stem(term)
        t = self._resolved(term, meta)
        keys = t.column("key").to_pylist()
        return {"term": term, "doc_count": len(set(keys)),
                "total_tf": sum(t.column("tf").to_pylist())}

    def _doclens(self, keys: list) -> dict:
        """key -> doc length, read from the winning segment's docstore
        (newest-first probe, bucket + isin pruned — same cost shape as
        _latest_seg)."""
        import pyarrow.dataset as pads
        out: dict = {}
        pending = set(keys)
        for ord_ in range(len(self.segments), 0, -1):
            if not pending:
                break
            seg = self.segments[ord_ - 1]
            if seg.get("kind") != "index":
                continue
            probe = pa.array(list(pending))
            nb = seg["num_buckets"]
            bs = sorted({int(b) for b in _bucket_of(probe, nb)})
            flt = ((pads.field("kind") == "d")
                   & pads.field("bucket").isin(bs)
                   & pads.field("key").isin(probe))
            t = self._seg_dataset(seg).to_table(
                filter=flt, columns=["key", "tf"])
            for kk, dl in zip(t.column("key").to_pylist(),
                              t.column("tf").to_pylist()):
                if kk in pending:
                    out[kk] = dl
                    pending.discard(kk)
        return out

    def _doc_props(self, keys: list) -> dict:
        """key -> stored property dict (build_index ``prop_cols``),
        read from the winning segment's docstore — newest-first probe
        so an upsert by a prop-less segment correctly yields {} for
        its keys (property shadowing follows doc shadowing)."""
        import json
        import pyarrow.dataset as pads
        out: dict = {}
        pending = set(keys)
        for ord_ in range(len(self.segments), 0, -1):
            if not pending:
                break
            seg = self.segments[ord_ - 1]
            if seg.get("kind") != "index":
                continue
            probe = pa.array(list(pending))
            nb = seg["num_buckets"]
            bs = sorted({int(b) for b in _bucket_of(probe, nb)})
            flt = ((pads.field("kind") == "d")
                   & pads.field("bucket").isin(bs)
                   & pads.field("key").isin(probe))
            has_props = bool(seg.get("props"))
            cols = ["key"] + (["props"] if has_props else [])
            t = self._seg_dataset(seg).to_table(filter=flt,
                                                columns=cols)
            blobs = (t.column("props").to_pylist() if has_props
                     else [None] * t.num_rows)
            for kk, blob in zip(t.column("key").to_pylist(), blobs):
                if kk in pending:
                    out[kk] = (json.loads(blob)
                               if blob is not None else {})
                    pending.discard(kk)
        return out

    def doc_properties(self, keys: list) -> dict:
        """Public accessor: key -> stored property dict (missing or
        prop-less docs map to {}) — the output-format renderer's
        property source."""
        got = self._doc_props(keys)
        return {kk: got.get(kk, {}) for kk in keys}

    def corpus_stats(self) -> dict:
        n = sum(s.get("n_docs", 0) for s in self.segments
                if s.get("kind") == "index")
        tl = sum(s.get("total_doclen", 0) for s in self.segments
                 if s.get("kind") == "index")
        return {"n_docs": n, "avg_doclen": (tl / n) if n else 0.0}

    def search(self, terms: list[str], mode: str = "or", k: int = 10,
               meta: str | None = None, ranking: str = "tf",
               k1: float = 1.2, b: float = 0.75) -> pa.Table:
        """Ranked retrieval, deterministic tie-break (score desc, key
        asc). ``mode="and"`` requires every term to match (the
        reference's default query combiner, OP_AND in swish_query).

        ``ranking="tf"``: score = Σ tf (integer, SQL-oracle-exact).
        ``ranking="bm25"``: Okapi BM25 — the reference's actual
        Xapian default weighting scheme. idf = ln((N-df+0.5)/(df+0.5)
        + 1) with N/avgdl from the per-segment build stats and per-doc
        lengths fetched from the winning docstore; candidate-
        proportional work throughout."""
        import math
        import pandas as pd
        if self._stem is not None:
            terms = [self._stem(t) for t in terms]
        frames = []
        for term in terms:
            t = self._resolved(term, meta)
            if t.num_rows:
                df = t.select(["key", "tf"]).to_pandas()
                df["term"] = term
                frames.append(df)
        if not frames:
            return pa.table({"key": pa.array([], pa.string()),
                             "score": pa.array([], pa.int64()),
                             "n_terms": pa.array([], pa.int64())})
        allp = pd.concat(frames, ignore_index=True)
        if ranking == "bm25":
            stats = self.corpus_stats()
            n_corpus = max(stats["n_docs"], 1)
            avgdl = stats["avg_doclen"] or 1.0
            df_per_term = allp.groupby("term")["key"].nunique()
            dls = self._doclens(allp["key"].unique().tolist())
            idf = allp["term"].map(lambda t: math.log(
                (n_corpus - df_per_term[t] + 0.5)
                / (df_per_term[t] + 0.5) + 1.0))
            dl = allp["key"].map(lambda kk: dls.get(kk, avgdl))
            tf = allp["tf"].astype(float)
            allp["w"] = idf * (tf * (k1 + 1)
                               / (tf + k1 * (1 - b + b * dl / avgdl)))
        else:
            allp["w"] = allp["tf"]
        g = allp.groupby("key", sort=False).agg(
            score=("w", "sum"), n_terms=("term", "nunique")).reset_index()
        if mode == "and":
            g = g[g["n_terms"] == len(set(terms))]
        g = g.sort_values(["score", "key"],
                          ascending=[False, True]).head(k)
        return pa.Table.from_pandas(g.reset_index(drop=True),
                                    preserve_index=False)

    def search_phrase(self, terms: list[str], k: int = 10,
                      meta: str | None = None) -> pa.Table:
        """Exact phrase retrieval over positional postings (the
        reference's Xapian phrase-query path — positions added per
        token, swish_xapian.cpp ``add_posting``; swish_Token.pos is
        1-based, libswish3.h:360-369).

        Score = number of phrase occurrences in the doc: positions
        p of terms[0] such that terms[i] occurs at p+i for all i —
        one ``np.intersect1d`` cascade per doc over the already
        candidate-pruned postings.  Requires the index to be built
        with ``positions=True`` (docs from position-less segments
        can never match).  Deterministic order (score desc, key asc).
        """
        if not terms:
            raise ValueError("empty phrase")
        occ = self._phrase_matches(terms, meta)
        rows = sorted(occ.items(), key=lambda r: (-r[1], str(r[0])))
        rows = rows[:k]
        if not rows:
            return pa.table({"key": pa.array([], pa.string()),
                             "score": pa.array([], pa.int64())})
        return pa.table({
            "key": pa.array([r[0] for r in rows]),
            "score": pa.array([r[1] for r in rows], pa.int64())})

    def _phrase_matches(self, terms: list[str],
                        meta: str | None = None) -> dict:
        """key -> phrase occurrence count (all matches, unranked) —
        the position-intersection cascade shared by search_phrase and
        search_query."""
        import numpy as np
        if self._stem is not None:
            terms = [self._stem(t) for t in terms]
        per_term = []
        for term in terms:
            t = self._resolved(term, meta, with_pos=True)
            df = t.select(["key", "pos"]).to_pandas()
            df = df[df["pos"].notna()]
            if df.empty:
                return {}
            per_term.append(dict(zip(df["key"], df["pos"])))
        # candidate docs = keys present for every term
        cand = set(per_term[0])
        for d in per_term[1:]:
            cand &= set(d)
        out: dict = {}
        for kk in cand:
            p = np.frombuffer(per_term[0][kk], dtype=np.int32) \
                .astype(np.int64)
            for i in range(1, len(terms)):
                nxt = np.frombuffer(per_term[i][kk], dtype=np.int32) \
                    .astype(np.int64)
                p = np.intersect1d(p, nxt - i, assume_unique=True)
                if not len(p):
                    break
            if len(p):
                out[kk] = len(p)
        return out


    def _expand_prefix(self, prefix: str,
                       meta: str | None = None) -> list[str]:
        """Lexicon terms starting with ``prefix`` (trailing-*
        wildcard support, FLAG_WILDCARD).  Cost note: terms are
        bucket-partitioned by HASH, so a prefix scan cannot prune
        buckets — it range-filters every bucket's postings files via
        parquet row-group stats on ``term``.  Fine for the
        interactive point-lookup client this searcher is; a
        wildcard-heavy workload would want a sorted lexicon sidecar."""
        import pyarrow.compute as pc
        import pyarrow.dataset as pads
        if not prefix:
            raise ValueError("bare '*' wildcard is not allowed")
        hi = prefix[:-1] + chr(ord(prefix[-1]) + 1)
        terms: set = set()
        for seg in self.segments:
            if seg.get("kind") != "index":
                continue
            flt = ((pads.field("kind") == "p")
                   & (pads.field("term") >= prefix)
                   & (pads.field("term") < hi))
            if meta is not None:
                flt = flt & (pads.field("meta") == meta)
            t = self._seg_dataset(seg).to_table(filter=flt,
                                                columns=["term"])
            terms.update(tt for tt in
                         pc.unique(t.column("term")).to_pylist()
                         if tt.startswith(prefix))
        return sorted(terms)

    def _leaf_weights(self, node, ranking: str,
                      k1: float, b: float) -> dict:
        """AST leaf -> {key: weight}.  ranking="tf": integer tf sums
        (phrase leaves: occurrence counts) — SQL-oracle-exact.
        ranking="bm25": Okapi weights with df taken per leaf (a
        wildcard's expansion acts as ONE synonym group, Xapian's
        wildcard semantics)."""
        kind, meta, val = node
        tfs: dict = {}
        if kind == "phrase":
            tfs = dict(self._phrase_matches(val, meta))
        else:
            if kind == "term" and self._stem is not None:
                val = self._stem(val)
            terms = ([val] if kind == "term"
                     else self._expand_prefix(val, meta))
            for term in terms:
                t = self._resolved(term, meta)
                for kk, tf in zip(t.column("key").to_pylist(),
                                  t.column("tf").to_pylist()):
                    tfs[kk] = tfs.get(kk, 0) + tf
        if ranking != "bm25" or not tfs:
            return tfs
        import math
        stats = self.corpus_stats()
        n_corpus = max(stats["n_docs"], 1)
        avgdl = stats["avg_doclen"] or 1.0
        df = len(tfs)
        idf = math.log((n_corpus - df + 0.5) / (df + 0.5) + 1.0)
        dls = self._doclens(list(tfs))
        return {kk: idf * (tf * (k1 + 1)
                           / (tf + k1 * (1 - b + b * dls.get(kk, avgdl)
                                         / avgdl)))
                for kk, tf in tfs.items()}

    def _range_matches(self, prop: str, lo: str, hi: str) -> dict:
        """Xapian OP_VALUE_RANGE analog over stored properties
        (PropertyValueRangeProcessor, swish_xapian.cpp:860-952):
        ``prop:lo..hi`` is INCLUSIVE both ends; numeric comparison
        when both bounds parse as numbers (the INT sortable-serialise
        path), else case-folded string comparison (the reference
        folds STRING bounds; we fold the stored value too so the
        comparison is coherent).  Matches carry weight 0 — a pure
        filter, exactly Xapian's value-range contribution.

        Cost: one docstore scan per segment (``kind="d"`` partitions
        only, newest-first with upsert/tombstone shadowing) — corpus-
        proportional, as is Xapian's value-slot scan."""
        import pyarrow.dataset as pads
        import pyarrow.parquet as pq
        try:
            lon, hin = float(lo), float(hi)
            numeric = True
        except ValueError:
            numeric = False
            lof, hif = lo.casefold(), hi.casefold()
        out: dict = {}
        seen: set = set()
        for ord_ in range(len(self.segments), 0, -1):
            seg = self.segments[ord_ - 1]
            if seg.get("kind") == "tombstone":
                p = os.path.join(self.out_dir, seg["segment"],
                                 "tombstones.parquet")
                seen.update(pq.read_table(p).column("key").to_pylist())
                continue
            has_props = bool(seg.get("props"))
            cols = ["key"] + (["props"] if has_props else [])
            t = self._seg_dataset(seg).to_table(
                filter=(pads.field("kind") == "d"), columns=cols)
            blobs = (t.column("props").to_pylist() if has_props
                     else [None] * t.num_rows)
            for kk, blob in zip(t.column("key").to_pylist(), blobs):
                if kk in seen:
                    continue
                seen.add(kk)
                if blob is None:
                    continue
                v = json.loads(blob).get(prop)
                if v is None:
                    continue
                if numeric:
                    try:
                        vn = float(v)
                    except (TypeError, ValueError):
                        continue
                    if lon <= vn <= hin:
                        out[kk] = 0
                else:
                    vs = str(v).casefold()
                    if lof <= vs <= hif:
                        out[kk] = 0
        return out

    def _query_scores(self, qstr: str, ranking: str,
                      k1: float, b: float) -> dict:
        """key -> score over ALL docs matching the boolean query."""
        from .queryparse import parse_query
        ast = parse_query(qstr)

        def ev(node) -> dict:
            kind = node[0]
            if kind == "range":
                return self._range_matches(node[1], node[2], node[3])
            if kind == "and":
                lt, rt = ev(node[1]), ev(node[2])
                return {kk: lt[kk] + rt[kk]
                        for kk in lt.keys() & rt.keys()}
            if kind == "or":
                lt, rt = ev(node[1]), ev(node[2])
                out = dict(lt)
                for kk, v in rt.items():
                    out[kk] = out.get(kk, 0) + v
                return out
            if kind == "not":
                lt, rt = ev(node[1]), ev(node[2])
                return {kk: v for kk, v in lt.items() if kk not in rt}
            return self._leaf_weights(node, ranking, k1, b)

        return ev(ast)

    def search_query(self, qstr: str, k: int = 10,
                     ranking: str = "tf", k1: float = 1.2,
                     b: float = 0.75,
                     sort: str | None = None,
                     offset: int = 0) -> pa.Table:
        """Boolean query-string retrieval — the reference's search
        surface (swish_xapian.cpp:1022-1027 parses with FLAG_WILDCARD
        | FLAG_BOOLEAN | FLAG_BOOLEAN_ANY_CASE | FLAG_PHRASE and one
        prefix per metaname; grammar re-implemented standalone in
        swishray/queryparse.py).

        Set semantics: AND intersects, OR unions, NOT (= AND_NOT)
        subtracts; scores ADD across the positive sides a doc
        matches (absent side contributes 0), so with ``ranking="tf"``
        a doc's score is the total tf of the query's positive leaf
        terms it contains — expressible in SQL for the oracle.

        ``sort``: a Swish-e sort string ("prop1 desc prop2") over
        properties stored at build time (``prop_cols``) — replaces
        relevance order, exactly the reference's ``-s`` +
        ``MultiValueSorter`` path (swish_xapian.cpp:1036-1047); the
        sorted result carries the sort properties as columns.  Nulls
        (and docs whose winning segment stored no props) sort last;
        final tie-break is key asc either way.

        ``offset``/``k`` page the ordered results — the reference's
        ``-b``/``-m`` window (``get_mset(results_offset,
        results_limit)``, swish_xapian.cpp:1056-1061)."""
        scores = self._query_scores(qstr, ranking, k1, b)
        stype = pa.int64() if ranking != "bm25" else pa.float64()
        if sort is None:
            # tie-break on the RAW key (numeric for int keys) so a
            # top-k boundary cut is deterministic and SQL-matchable
            rows = sorted(scores.items(),
                          key=lambda r: (-r[1], r[0]))[offset:offset + k]
            keys = [r[0] for r in rows]
            return pa.table({
                # key keeps its stored type (int keys stay ints); the
                # empty-result type matches search_phrase's convention
                "key": (pa.array(keys) if keys
                        else pa.array([], pa.string())),
                "score": pa.array([r[1] for r in rows], stype)})

        from .pipeline import parse_sort_string
        spec = parse_sort_string(sort)
        props = self._doc_props(list(scores))

        class _Rev:  # descending wrapper for arbitrary ordered types
            __slots__ = ("v",)

            def __init__(self, v):
                self.v = v

            def __lt__(self, o):
                return o.v < self.v

            def __eq__(self, o):
                return o.v == self.v

        def keyfn(item):
            kk, _ = item
            row = props.get(kk, {})
            parts = []
            for prop, desc in spec:
                v = row.get(prop)
                parts.append((v is None, (_Rev(v) if desc else v)
                              if v is not None else None))
            parts.append(kk)
            return tuple(parts)

        rows = sorted(scores.items(), key=keyfn)[offset:offset + k]
        keys = [r[0] for r in rows]
        cols = {
            "key": (pa.array(keys) if keys
                    else pa.array([], pa.string())),
            "score": pa.array([r[1] for r in rows], stype)}
        for prop, _ in spec:
            cols[prop] = pa.array(
                [props.get(kk, {}).get(prop) for kk in keys])
        return pa.table(cols)

    def facets(self, qstr: str, prop: str) -> pa.Table:
        """Facet counts over ALL docs matching a boolean query — the
        reference's FacetFinder MatchDecider (swish_xapian -f):
        ``(value, count)`` per distinct value of a stored property.
        Multi-value properties follow the reference's \\x03-joined
        convention (SWISH_META_VALUES separator) — each component
        counts once.  Exact over the full match set (the reference
        samples the first SWISH_FACET_FINDER_LIMIT matches).
        Deterministic order: count desc, value asc."""
        from collections import Counter
        scores = self._query_scores(qstr, "tf", 1.2, 0.75)
        props = self._doc_props(list(scores))
        c: Counter = Counter()
        for kk in scores:
            v = props.get(kk, {}).get(prop)
            if v is None:
                continue
            vals = v.split("\x03") if isinstance(v, str) else [v]
            for vv in vals:
                c[str(vv)] += 1
        rows = sorted(c.items(), key=lambda r: (-r[1], r[0]))
        return pa.table({
            "value": pa.array([r[0] for r in rows], pa.string()),
            "count": pa.array([r[1] for r in rows], pa.int64())})


def search_counts(out_dir: str, terms: list[str]) -> pa.Table:
    """Per-term (doc_count, total_tf) — the oracle-comparable surface."""
    s = IndexSearcher(out_dir)
    rows = [s.doc_stats(t) for t in sorted(terms)]
    rows = [r for r in rows if r["doc_count"] > 0]
    return pa.table({
        "term": pa.array([r["term"] for r in rows], pa.string()),
        "doc_count": pa.array([r["doc_count"] for r in rows], pa.int64()),
        "total_tf": pa.array([r["total_tf"] for r in rows], pa.int64()),
    })
