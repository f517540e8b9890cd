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
* **Pass 2 — strip.** Every doc's line hashes look up the hot-hash
  set through ``joins.lookup``, keyed by the doc key, and one fold
  splits, filters and reassembles each doc **within its own batch**.
  A hot set within the broadcast budget (``joins.small_side``; it is
  bounded by lines repeated across >= min_docs docs, orders of
  magnitude smaller than the corpus) is one sorted-array
  ``searchsorted`` per batch, with zero shuffles and no text
  movement. A larger one is hash-joined: slim ``(key, ordinal,
  hash)`` rows meet the hot set, and the hits join back to the docs
  on the key, so doc text rides one exchange and the driver holds
  nothing.

64-bit hashing note: equality is by hash, so a 2^-64 collision can
strip a unique line; the same trade CCNet's shard-hash dedup makes.

``group_col`` scopes the census to a grouping column (RefinedWeb-
style per-site boilerplate: strip a nav bar repeated across one
host's pages without touching a sentence that happens to appear once
on many unrelated hosts).  Implementation is one line: the line hash
is salted with the group's key hash (``mix64(line_hash XOR
group_hash)``), so both passes, both lookup paths, and the slim-exchange
property are unchanged — (group, line) identity rides the same 8
bytes a global line identity does.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa


def _split_lines(txt_col, sep: str):
    import pyarrow.compute as pc
    return pc.split_pattern(pc.coalesce(txt_col, ""), sep)


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
    import pandas as pd
    import pyarrow.compute as pc

    from .joins import lookup

    def lines(batch: pa.Table):
        doc_idx, _, h = _batch_lines(batch, col, sep, group_col)
        return doc_idx, pa.array(h)

    def strip(batch: pa.Table, doc_idx, found: pa.Table) -> pa.Table:
        """Per-doc reassembly via one pandas groupby join — no
        per-doc Python loop."""
        n = batch.num_rows
        flat = pc.list_flatten(_split_lines(batch.column(col), sep))
        dup = pc.is_valid(found.column("line_hash")).to_numpy(
            zero_copy_only=False)
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

    hot = hot_line_hashes(ds, col=col, min_docs=min_docs, sep=sep,
                          group_col=group_col)
    return lookup(ds, hot, "line_hash", strip, explode=lines,
                  row_key=key)


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

    Two passes: the hot census above (slim hash exchange), then every
    gram start looks up the hot set through :func:`~.joins.lookup`,
    keyed by ``key`` (broadcast within the budget, hash-joined past
    it).

    Coverage is computed vectorized: one cumsum over the flat
    hot-start indicator, one windowed difference per word — no
    per-doc Python loop.

    Output: ``(key, out_col, n_words_removed)``.
    """
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from .filters import _text_col
    from .joins import lookup

    def words(batch: pa.Table):
        """The batch's words, flat, with their doc index and the
        flat index of every same-doc gram start."""
        ws = pc.split_pattern_regex(_text_col(batch, col), " +")
        if isinstance(ws, pa.ChunkedArray):
            ws = ws.combine_chunks()
        flat_all = ws.flatten()
        offs = ws.offsets.to_numpy(zero_copy_only=False)
        nonempty = pc.not_equal(flat_all, "") \
            .to_numpy(zero_copy_only=False)
        doc_all = np.repeat(np.arange(len(offs) - 1, dtype=np.int64),
                            np.diff(offs))
        flat = np.asarray(flat_all.to_pandas(), dtype=object)[nonempty]
        doc_idx = doc_all[nonempty]
        L = len(flat)
        starts = np.flatnonzero(
            doc_idx[: L - n + 1] == doc_idx[n - 1:]) if L >= n \
            else np.zeros(0, dtype=np.int64)
        return flat, doc_idx, starts

    def grams(batch: pa.Table):
        # every same-doc gram start (NOT distinct — all positions)
        flat, doc_idx, starts = words(batch)
        if not len(starts):
            return starts, pa.array([], pa.int64())
        gram = flat[starts]
        for j in range(1, n):
            gram = gram + " "
            gram = gram + flat[starts + j]
        h = pd.util.hash_array(gram).astype(np.uint64).view(np.int64)
        return doc_idx[starts], pa.array(h)

    def strip(batch: pa.Table, _, found: pa.Table) -> pa.Table:
        flat, doc_idx, starts = words(batch)
        L = len(flat)
        dup_start = np.zeros(L, dtype=bool)
        dup_start[starts[pc.is_valid(found.column("gram_hash"))
                         .to_numpy(zero_copy_only=False)]] = True
        # coverage: word w is cut iff some hot start s with
        # s <= w <= s+n-1 in the same doc.  starts are already
        # doc-masked, so the window only needs the doc's left edge
        # clamp.
        D = np.concatenate(([0], np.cumsum(dup_start)))
        w = np.arange(L)
        doc_first = np.searchsorted(doc_idx, doc_idx)  # start of
        lo = np.maximum(w - n + 1, doc_first)          # own doc
        covered = (D[w + 1] - D[lo]) > 0
        kept = ~covered
        ndocs = batch.num_rows
        df = pd.DataFrame({"d": doc_idx[kept], "w": flat[kept]})
        joined = df.groupby("d", sort=False)["w"].agg(" ".join)
        txt_out = joined.reindex(np.arange(ndocs)).fillna("")
        removed = np.bincount(doc_idx[covered], minlength=ndocs)
        return pa.table({
            key: batch.column(key),
            out_col: pa.array(txt_out.values, pa.large_string()),
            "n_words_removed": pa.array(removed.astype(np.int64)),
        })

    hot = hot_span_hashes(ds, n=n, col=col, min_docs=min_docs)
    return lookup(ds, hot, "gram_hash", strip, explode=grams,
                  row_key=key)
