"""Sequence packing: concatenate documents into fixed-token-budget
training examples (the GPT-style pack-and-chunk step — docs joined
with an end-of-document sentinel, the token stream cut into
``max_tokens`` chunks, docs allowed to straddle chunk boundaries).

Determinism at any parallelism: packing is defined per GROUP (an
explicit ``group_col``, e.g. ``doc_id % n_shards``), docs ordered by
key within the group — NOT per Ray block, whose boundaries vary with
parallelism. One group = one packing shard = one task's heap; size
groups to O(100 MB) of text. The keyed exchange is the only one and it
moves each doc's text exactly once — the same cost class as any
shuffle-to-sink repartition.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

EOD = "<|eod|>"


def pack_documents(ds: Any, max_tokens: int, group_col: str,
                   col: str = "text", key: str = "doc_id",
                   eod: str = EOD) -> Any:
    """-> (group_col, chunk_id, n_tokens, text). Whitespace tokens
    (the corpus-oracle contract); every doc contributes its words plus
    one ``eod`` sentinel; all chunks are exactly ``max_tokens`` long
    except the group's final partial chunk. One
    :func:`~.joins.hash_exchange` on ``group_col``; each bucket
    packs all of its groups in (group, key) order."""
    import numpy as np

    from .joins import hash_exchange, run_starts

    def pack(t: pa.Table) -> pa.Table:
        t = t.sort_by([(group_col, "ascending"), (key, "ascending")])
        starts = run_starts(t, [group_col])
        texts = t.column(col).to_pylist()
        first, cid, ntok, chunks = [], [], [], []
        for s, e in zip(starts, np.append(starts[1:], len(texts))):
            toks: list[str] = []
            for text in texts[s:e]:
                toks.extend((text or "").split())
                toks.append(eod)
            for ci, at in enumerate(range(0, len(toks), max_tokens)):
                chunk = toks[at:at + max_tokens]
                first.append(s)  # a row of the chunk's group
                cid.append(ci)
                ntok.append(len(chunk))
                chunks.append(" ".join(chunk))
        return pa.table({
            group_col: t.column(group_col).take(
                pa.array(first, pa.int64())),
            "chunk_id": pa.array(cid, pa.int64()),
            "n_tokens": pa.array(ntok, pa.int64()),
            "text": pa.array(chunks, pa.large_string())})

    return hash_exchange(ds, group_col, pack, batch_format="pyarrow")


def chunk_documents(ds, max_words: int, overlap: int = 0,
                    col: str = "text", key: str = "doc_id"):
    """Sliding-window document chunking — the prep step before
    :func:`pack_sequences` when documents exceed the training context
    (the public tokenizer "stride" convention): emit word windows of
    ``max_words`` at stride ``max_words - overlap``, stopping with
    the first window that reaches the document end.  Output rows:
    ``(key, chunk_id, chunk, n_words)``; empty documents emit no
    rows.  Whitespace is normalized to single spaces inside chunks
    (the corpus word convention the SQL oracles share).

    Pure map-side fan-out; the per-chunk join is a C-level
    ``' '.join`` over the already-split word list — chunk count per
    doc is words/stride, so the loop is short."""
    import numpy as np
    import pyarrow as pa

    if not 0 <= overlap < max_words:
        raise ValueError("need 0 <= overlap < max_words")
    stride = max_words - overlap

    def f(batch: pa.Table) -> pa.Table:
        keys_col = batch.column(key)
        texts = batch.column(col).to_pylist()
        kidx, cid, chunks, nw = [], [], [], []
        for i, t in enumerate(texts):
            words = (t or "").split()
            n = len(words)
            if n == 0:
                continue
            q = 0 if n <= max_words else -(-(n - max_words) // stride)
            for j in range(q + 1):
                w = words[j * stride: j * stride + max_words]
                kidx.append(i)
                cid.append(j)
                chunks.append(" ".join(w))
                nw.append(len(w))
        return pa.table({
            key: keys_col.take(pa.array(np.asarray(kidx, np.int64))),
            "chunk_id": pa.array(cid, pa.int64()),
            "chunk": pa.array(chunks, pa.large_string()),
            "n_words": pa.array(nw, pa.int64()),
        })

    return ds.map_batches(f, batch_format="pyarrow")
