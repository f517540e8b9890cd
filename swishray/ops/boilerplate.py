"""Corpus-wide duplicate-line removal (C4 / CCNet-style boilerplate
strip) — drop every line that occurs in >= ``min_docs`` distinct
documents (site headers, nav bars, cookie banners, footers).

Public recipe shape: C4 removed repeated three-sentence spans, CCNet
dedupes paragraphs by hash across shards; this is the line-granular
variant over the extraction output's ``text`` column.

Ray-Data shape (two passes, one slim exchange):

* **Pass 1 — hot-line census.** Per-batch: split each doc, hash each
  line (vectorized crc32+splitmix64, the shared key-hash kernel), emit
  per-batch partial ``(line_hash, n_docs)`` counts (a line counted once
  per doc). ``groupby(hash).sum`` then filters to hashes with
  ``n_docs >= min_docs``. Only 16-byte hash/count pairs ride this
  exchange — never line text.
* **Pass 2 — strip.** The hot-hash set is the small side
  (``joins.small_side``). When it fits, it rides one ``ray.put`` into
  a map-only pass that splits, filters, and reassembles each doc
  **within its own batch** — zero shuffles, no text movement; it is
  bounded by lines repeated across >= min_docs docs (site
  boilerplate), orders of magnitude smaller than the corpus.
  Otherwise :func:`remove_duplicate_lines_join` runs fully
  distributed: docs explode to ``(key, line_no, line, hash)`` rows,
  co-partitioned with the hot hashes by hash bucket (anti semi-join),
  then re-grouped by key to reassemble. Line text rides exactly two
  exchanges; no driver state, no size cap.

64-bit hashing note: equality is by hash, so a 2^-64 collision can
strip a unique line; the same trade CCNet's shard-hash dedup makes.

``group_col`` scopes the census to a grouping column (RefinedWeb-
style per-site boilerplate: strip a nav bar repeated across one
host's pages without touching a sentence that happens to appear once
on many unrelated hosts).  Implementation is one line: the line hash
is salted with the group's key hash (``mix64(line_hash XOR
group_hash)``), so both passes, both strip paths, and the slim-exchange
property are unchanged — (group, line) identity rides the same 8
bytes a global line identity does.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa


def _split_lines(txt_col, sep: str):
    import pyarrow.compute as pc
    return pc.split_pattern(pc.coalesce(txt_col, ""), sep)


def _line_hashes(lines: list[str]):
    from .joins import _key_hash64
    return _key_hash64(pa.array(lines, pa.string()))


def _batch_lines(batch: pa.Table, col: str, sep: str, group_col):
    """Every line of a batch, flattened: ``(doc index, line, int64
    hash)``. With ``group_col`` the hash is salted with the doc's
    group hash (see module doc): (group, line) identity in the same
    8 bytes."""
    import numpy as np
    import pyarrow.compute as pc
    from .dedup import _mix64
    from .joins import _key_hash64
    lines = _split_lines(batch.column(col), sep)
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    lens = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(lines)
    h = _key_hash64(flat)
    if group_col is not None:
        gh = _key_hash64(batch.column(group_col).combine_chunks())
        h = _mix64(h ^ np.repeat(gh, lens))
    return (np.repeat(np.arange(batch.num_rows), lens), flat,
            h.astype(np.int64))


def hot_line_hashes(ds: Any, col: str = "text", min_docs: int = 2,
                    sep: str = "\n",
                    group_col: str | None = None) -> Any:
    """Dataset of ``(line_hash,)`` for lines in >= min_docs docs
    (distinct docs within the same ``group_col`` group if given)."""
    import numpy as np

    def census(batch: pa.Table) -> pa.Table:
        """Vectorized: flatten all lines, hash once, dedupe (doc,hash)
        pairs, one pandas value_counts — no per-doc Python loop."""
        import pandas as pd
        doc_idx, _, h = _batch_lines(batch, col, sep, group_col)
        df = pd.DataFrame({"d": doc_idx, "h": h}).drop_duplicates()
        vc = df["h"].value_counts()
        return pa.table({
            "line_hash": pa.array(vc.index.to_numpy(dtype=np.int64)),
            "n_docs": pa.array(vc.to_numpy(dtype=np.int64))})

    agg = (ds.map_batches(census, batch_format="pyarrow")
             .groupby("line_hash").sum("n_docs"))

    def keep_hot(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.greater_equal(batch.column("sum(n_docs)"), min_docs)
        return batch.filter(m).select(["line_hash"])
    return agg.map_batches(keep_hot, batch_format="pyarrow")


def remove_duplicate_lines(ds: Any, col: str = "text",
                           key: str = "doc_id", min_docs: int = 2,
                           sep: str = "\n", out_col: str = "text_clean",
                           group_col: str | None = None) -> Any:
    """Strip corpus-wide duplicate lines from every doc (duplicate
    WITHIN ``group_col`` — e.g. per-host — when given).

    Output: ``(key, out_col, n_lines_removed)``; a doc whose every
    line is boilerplate keeps an empty string, not a dropped row.
    """
    import numpy as np
    import ray

    from .joins import small_side

    hot = hot_line_hashes(ds, col=col, min_docs=min_docs, sep=sep,
                          group_col=group_col).materialize()
    small = small_side(hot, pa.schema([("line_hash", pa.int64())]))
    if small is None:
        return remove_duplicate_lines_join(
            ds, hot, col=col, key=key, sep=sep, out_col=out_col,
            group_col=group_col)
    hot_ref = ray.put(np.sort(small.column("line_hash").to_numpy()))

    def strip(batch: pa.Table) -> pa.Table:
        """Vectorized: one flatten + one searchsorted membership
        over the whole batch, per-doc reassembly via a pandas
        groupby join — no per-doc Python loop."""
        import pandas as pd
        hs = ray.get(hot_ref)
        n = batch.num_rows
        doc_idx, flat, h = _batch_lines(batch, col, sep, group_col)
        if len(hs) and len(h):
            idx = np.searchsorted(hs, h)
            idx[idx == len(hs)] = 0
            dup = hs[idx] == h
        else:
            dup = np.zeros(len(h), dtype=bool)
        df = pd.DataFrame({"d": doc_idx,
                           "l": flat.to_pandas()})[~dup]
        joined = df.groupby("d", sort=False)["l"].agg(sep.join)
        txt = joined.reindex(np.arange(n)).fillna("")
        removed = np.bincount(doc_idx[dup], minlength=n)
        return pa.table({
            key: batch.column(key),
            out_col: pa.array(txt.values, pa.large_string()),
            "n_lines_removed": pa.array(
                removed.astype(np.int64)),
        })
    return ds.map_batches(strip, batch_format="pyarrow")


def remove_duplicate_lines_join(ds: Any, hot: Any, col: str = "text",
                                key: str = "doc_id", sep: str = "\n",
                                out_col: str = "text_clean",
                                group_col: str | None = None) -> Any:
    """:func:`remove_duplicate_lines` against a hot-hash set
    (:func:`hot_line_hashes` of the same ``col``/``sep``/
    ``group_col``) too large to broadcast; see the module doc."""
    import numpy as np

    # fully distributed: explode -> co-partition with hot hashes ->
    # anti-filter -> regroup by key.  The doc key rides as
    # large_string through the exchanges (union needs one schema) and
    # is cast back to the input's Arrow type at the end — resolved on
    # the DRIVER (a worker-side closure mutation would not propagate).
    from .joins import field_type, hash_exchange
    ktype = field_type(ds, key)
    from .dedup import _mix64

    def explode(batch: pa.Table) -> pa.Table:
        from .joins import _key_hash64
        ks, nos, lines, nls, gs = [], [], [], [], []
        kpy = [str(k) for k in batch.column(key).to_pylist()]
        ghs = (_key_hash64(batch.column(group_col).combine_chunks())
               if group_col is not None else None)
        for i, ls in enumerate(
                _split_lines(batch.column(col), sep).to_pylist()):
            ls = ls or [""]
            n = len(ls)
            ks.extend([kpy[i]] * (n + 1))
            # line_no -1 = per-doc anchor row: survives any hot filter
            # (its hash is salted off the line-hash space) so a fully
            # boilerplate doc still yields an output row.
            nos.extend([-1, *range(n)])
            lines.extend(["", *ls])
            nls.extend([n] * (n + 1))
            if ghs is not None:
                gs.extend([ghs[i]] * (n + 1))
        hashes = _line_hashes(lines)
        if ghs is not None:
            hashes = _mix64(hashes ^ np.asarray(gs, dtype=np.uint64))
        hashes = hashes.astype(np.int64)
        anchor = np.asarray(nos, dtype=np.int64) == -1
        # anchor key: same deterministic vectorized hash as the lines
        # (NOT Python hash(), whose per-process salt would scatter a
        # doc's anchor across runs), salted off the line-hash space
        akey = _mix64(
            _line_hashes(ks).astype(np.uint64) ^ np.uint64(0x5A17)
        ).astype(np.int64)
        hashes = np.where(anchor, akey, hashes)
        return pa.table({
            key: pa.array(ks, pa.large_string()),
            "line_no": pa.array(nos, pa.int64()),
            "line": pa.array(lines, pa.large_string()),
            "n_lines": pa.array(nls, pa.int64()),
            "line_hash": pa.array(hashes),
            "side": pa.array(["l"] * len(ks)),
        })

    def tag_hot(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            key: pa.nulls(n, pa.large_string()),
            "line_no": pa.nulls(n, pa.int64()),
            "line": pa.nulls(n, pa.large_string()),
            "n_lines": pa.nulls(n, pa.int64()),
            "line_hash": batch.column("line_hash"),
            "side": pa.array(["h"] * n),
        })

    # Both exchanges are hash_exchange with a fixed 256 buckets, never
    # per key: inside a bucket everything is one vectorized pandas
    # pass.
    n_buckets = 256
    both = ds.map_batches(explode, batch_format="pyarrow").union(
        hot.map_batches(tag_hot, batch_format="pyarrow"))

    def drop_hot(g) -> Any:
        dead = set(g.loc[g["side"] == "h", "line_hash"])
        if not dead:
            return g[g["side"] == "l"]
        keep = (g["side"] == "l") & (
            (g["line_no"] == -1) | ~g["line_hash"].isin(dead))
        return g[keep]

    kept = hash_exchange(both, "line_hash", drop_hot, n_buckets)

    def reassemble(g) -> Any:
        import pandas as pd
        g = g.sort_values([key, "line_no"])
        body = g[g["line_no"] >= 0]
        joined = body.groupby(key, sort=False)["line"].agg(sep.join)
        kept_n = body.groupby(key, sort=False).size()
        total = g.groupby(key, sort=False)["n_lines"].first()
        out = pd.DataFrame({key: total.index})
        out[out_col] = joined.reindex(total.index).fillna("").values
        out["n_lines_removed"] = (
            total - kept_n.reindex(total.index).fillna(0)).astype(
            "int64").values
        return out

    out = hash_exchange(kept, key, reassemble, n_buckets)

    def fix_types(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            key: pc.cast(batch.column(key), ktype),
            out_col: pc.cast(batch.column(out_col), pa.large_string()),
            "n_lines_removed": pc.cast(batch.column("n_lines_removed"),
                                       pa.int64()),
        })
    return out.map_batches(fix_types, batch_format="pyarrow")


def hot_span_hashes(ds: Any, n: int = 13, col: str = "text",
                    min_docs: int = 2) -> Any:
    """Dataset ``(gram_hash,)`` of word ``n``-grams appearing in >=
    ``min_docs`` distinct docs.  Hashes ride the exchange (8 bytes),
    never gram text — the same trade self_dup_ngram_stats makes."""
    import numpy as np
    import pandas as pd
    from .filters import _distinct_grams

    def census(batch: pa.Table) -> pa.Table:
        g_doc, g_str = _distinct_grams(batch, col, n)
        h = pd.util.hash_array(g_str).astype(np.uint64).view(np.int64)
        vc = pd.Series(h).value_counts()
        return pa.table({
            "gram_hash": pa.array(vc.index.to_numpy(dtype=np.int64)),
            "n_docs": pa.array(vc.to_numpy(dtype=np.int64))})

    agg = (ds.map_batches(census, batch_format="pyarrow")
             .groupby("gram_hash").sum("n_docs"))

    def keep_hot(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        m = pc.greater_equal(batch.column("sum(n_docs)"), min_docs)
        return batch.filter(m).select(["gram_hash"])
    return agg.map_batches(keep_hot, batch_format="pyarrow")


def remove_duplicate_spans(ds: Any, n: int = 13, col: str = "text",
                           key: str = "doc_id", min_docs: int = 2,
                           out_col: str = "text_clean") -> Any:
    """Exact-substring span removal (Lee et al. 2022, "Deduplicating
    Training Data Makes Language Models Better" — their suffix-array
    dedup removes 50-token repeated spans; this is the n-gram-window
    equivalent): every word covered by an ``n``-gram occurring in >=
    ``min_docs`` distinct docs is cut, and the survivors rejoin with
    single spaces.  Overlapping hot windows merge naturally (coverage
    is positional), so a duplicated 40-word passage disappears as one
    span, not ``40-n+1`` fragments.

    Two passes: the hot census above (slim hash exchange), then a
    broadcast map-only strip — the hot set is bounded by spans
    repeated across docs (raise ``n``/``min_docs`` if a pathological
    corpus inflates it; a join-path strip would follow
    remove_duplicate_lines_join's explode/regroup shape).

    Coverage is computed vectorized: one cumsum over the flat
    hot-start indicator, one windowed difference per word — no
    per-doc Python loop.

    Output: ``(key, out_col, n_words_removed)``.
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    import ray

    hot = hot_span_hashes(ds, n=n, col=col, min_docs=min_docs)
    hot_np = np.sort(np.array(
        [r["gram_hash"] for r in hot.take_all()], dtype=np.int64))
    hot_ref = ray.put(hot_np)

    def strip(batch: pa.Table) -> pa.Table:
        from .filters import _text_col
        hs = ray.get(hot_ref)
        txt = _text_col(batch, col)
        words = pc.split_pattern_regex(txt, " +")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat_all = words.flatten()
        offs = words.offsets.to_numpy(zero_copy_only=False)
        nonempty = pc.not_equal(flat_all, "") \
            .to_numpy(zero_copy_only=False)
        counts = (offs[1:] - offs[:-1]).astype(np.int64)
        doc_all = np.repeat(np.arange(len(counts), dtype=np.int64),
                            counts)
        flat = np.asarray(flat_all.to_pandas(), dtype=object)[nonempty]
        doc_idx = doc_all[nonempty]
        L = len(flat)
        ndocs = batch.num_rows
        covered = np.zeros(L, dtype=bool)
        if L >= n and len(hs):
            # every gram start (NOT distinct — all positions)
            gram = flat[: L - n + 1]
            for j in range(1, n):
                gram = gram + " "
                gram = gram + flat[j: L - n + 1 + j]
            same_doc = doc_idx[: L - n + 1] == doc_idx[n - 1:]
            h = pd.util.hash_array(gram).astype(np.uint64) \
                .view(np.int64)
            pos = np.searchsorted(hs, h)
            pos[pos == len(hs)] = 0
            dup_start = same_doc & (hs[pos] == h)
            # coverage: word w is cut iff some hot start s with
            # s <= w <= s+n-1 in the same doc.  starts are already
            # doc-masked, so the window only needs the doc's left
            # edge clamp.
            D = np.concatenate(
                ([0], np.cumsum(np.concatenate(
                    (dup_start, np.zeros(n - 1, dtype=bool))))))
            w = np.arange(L)
            doc_first = np.searchsorted(doc_idx, doc_idx)  # start of
            lo = np.maximum(w - n + 1, doc_first)          # own doc
            covered = (D[w + 1] - D[lo]) > 0
        kept = ~covered
        df = pd.DataFrame({"d": doc_idx[kept], "w": flat[kept]})
        joined = df.groupby("d", sort=False)["w"].agg(" ".join)
        txt_out = joined.reindex(np.arange(ndocs)).fillna("")
        removed = np.bincount(doc_idx[covered], minlength=ndocs)
        return pa.table({
            key: batch.column(key),
            out_col: pa.array(txt_out.values, pa.large_string()),
            "n_words_removed": pa.array(removed.astype(np.int64)),
        })

    return ds.map_batches(strip, batch_format="pyarrow")
