"""Byte-pair-encoding tokenizer training + application on Ray Data.

The scale shape is the one every production tokenizer trainer uses
(Sennrich et al. 2016 — "Neural Machine Translation of Rare Words
with Subword Units", Algorithm 1): BPE merges are learned from the
WORD-FREQUENCY table, not the corpus. The corpus-sized work — word
counting — runs distributed with map-side combining (the same slim
``(word, count)`` exchange as ``top_n_words``); the merge loop then
runs driver-side over the unique-word table, which is orders of
magnitude smaller than the corpus (capped at ``max_words`` for a
hard bound). Encoding fans back out as a broadcast-merges stateful
stage with a per-unique-word memo, so a word is BPE-segmented once per
batch regardless of its frequency.

Reference anchor: libswish3's tokenizer emits word+position streams
(``src/libswish3/tokenizer.c``); this is the subword analog a
training-data pipeline needs for token accounting and packing.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# End-of-word sentinel symbol. NUL cannot reach the trainer/encoder:
# both strip it from the text up front (the engine-wide no_nulls
# contract, swishray/text.py), so the sentinel never collides with a
# literal character and merged-symbol concatenations stay unambiguous.
_EOW = "\x00"


def _word_counts(ds: Any, col: str, lowercase: bool) -> Any:
    """Distributed (word, count) with map-side combining."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(pc.cast(batch.column(col), pa.string()), "")
        txt = pc.replace_substring(txt, "\x00", "")
        if lowercase:
            txt = pc.utf8_lower(txt)
        words = pc.split_pattern_regex(txt, r"\s+")
        flat = pc.list_flatten(words)
        flat = flat.filter(pc.not_equal(flat, ""))
        c = Counter(flat.to_pylist())
        return pa.table({"word": pa.array(list(c.keys()), pa.string()),
                         "n": pa.array(list(c.values()), pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return parts.groupby("word").aggregate(Sum("n", alias_name="n"))


def train_bpe(ds: Any, col: str = "text", num_merges: int = 200,
              min_count: int = 2, max_words: int = 200_000,
              lowercase: bool = True) -> pa.Table:
    """Learn ``num_merges`` BPE merges from the corpus.

    Returns an Arrow table ``(rank:int64, left:string, right:string)``
    — the merge list in application order. Deterministic: ties in
    pair frequency break lexicographically on (left, right).

    ``max_words`` bounds the driver-side table: words are taken by
    descending count (count ties break lexicographically), which at
    100 TB keeps the merge loop input a few MB however large the
    corpus — the standard trainer contract (tokenizers sample their
    corpora far more aggressively than this cap does).
    """
    wc = _word_counts(ds, col, lowercase)
    top = wc.sort(["n", "word"], descending=[True, False]) \
        .limit(max_words).take_all()
    vocab = {r["word"]: r["n"] for r in top if r["n"] >= min_count}

    # word -> tuple of symbols (chars + end-of-word sentinel)
    words = {w: tuple(w) + (_EOW,) for w in vocab}

    # pair counts + reverse index pair -> words containing it
    pair_n: Counter = Counter()
    pair_words: dict = {}
    for w, syms in words.items():
        n = vocab[w]
        for a, b in zip(syms, syms[1:]):
            pair_n[(a, b)] += n
            pair_words.setdefault((a, b), set()).add(w)

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not pair_n:
            break
        best = min(pair_n.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pair_n[best] <= 0:
            break
        merges.append(best)
        new_sym = best[0] + best[1]
        affected = pair_words.pop(best, set())
        for w in affected:
            syms = words[w]
            n = vocab[w]
            # remove old pair contributions of this word
            for a, b in zip(syms, syms[1:]):
                pair_n[(a, b)] -= n
                if pair_n[(a, b)] <= 0:
                    del pair_n[(a, b)]
                s = pair_words.get((a, b))
                if s is not None:
                    s.discard(w)
                    if not s:
                        pair_words.pop((a, b), None)
            # merge every occurrence of the pair
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == best[0]
                        and syms[i + 1] == best[1]):
                    out.append(new_sym)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = tuple(out)
            words[w] = syms
            for a, b in zip(syms, syms[1:]):
                pair_n[(a, b)] += n
                pair_words.setdefault((a, b), set()).add(w)

    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "left": pa.array([m[0] for m in merges], pa.string()),
        "right": pa.array([m[1] for m in merges], pa.string())})


def _encode_word(word: str, ranks: dict) -> list[str]:
    """Greedy lowest-rank-first merge application (the BPE decode
    contract: always merge the best-ranked adjacent pair next)."""
    syms = list(word) + [_EOW]
    while len(syms) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(syms) - 1):
            r = ranks.get((syms[i], syms[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_i = i
        if best_rank is None:
            break
        syms[best_i:best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return syms


class BPEEncoder:
    """Stateful encode stage: merge ranks arrive once per worker via
    the object store (``ray.put`` handle), segmentation is memoised
    per unique word — a batch's cost is per-DISTINCT-word, not
    per-token."""

    def __init__(self, merges_ref: Any, col: str, key: str,
                 lowercase: bool = True):
        import ray
        merges = (ray.get(merges_ref)
                  if not isinstance(merges_ref, pa.Table) else merges_ref)
        self.ranks = {(l, r): i for i, (l, r) in enumerate(
            zip(merges.column("left").to_pylist(),
                merges.column("right").to_pylist()))}
        self.col = col
        self.key = key
        self.lowercase = lowercase
        self.memo: dict[str, int] = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(pc.cast(batch.column(self.col), pa.string()),
                          "")
        txt = pc.replace_substring(txt, "\x00", "")
        if self.lowercase:
            txt = pc.utf8_lower(txt)
        words = pc.split_pattern_regex(txt, r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        offsets = words.offsets.to_numpy(zero_copy_only=False)
        offsets = offsets - offsets[0]  # sliced arrays don't start at 0
        flat = pc.list_flatten(words).to_pylist()
        memo = self.memo
        ranks = self.ranks
        toks = np.zeros(len(flat), dtype=np.int64)
        for i, w in enumerate(flat):
            if not w:
                continue
            t = memo.get(w)
            if t is None:
                t = len(_encode_word(w, ranks))
                memo[w] = t
            toks[i] = t
        per_doc = np.add.reduceat(
            np.concatenate([toks, [0]]), offsets[:-1]) \
            if len(offsets) > 1 else np.zeros(0, dtype=np.int64)
        # reduceat on empty segments returns the element AT the
        # offset; zero those (offset[i] == offset[i+1])
        empty = offsets[:-1] == offsets[1:]
        per_doc[empty] = 0
        return pa.table({
            self.key: batch.column(self.key),
            "n_bpe_tokens": pa.array(per_doc[:batch.num_rows],
                                     pa.int64())})


def bpe_token_counts(ds: Any, merges: pa.Table, col: str = "text",
                     key: str = "doc_id", lowercase: bool = True,
                     batch_size: int = 256) -> Any:
    """Per-document BPE token counts under a learned merge table.

    The merge table is broadcast once through the object store; each
    worker builds its encoder from it on first use and keeps it for
    every later batch (``util.map_batches_stateful``)."""
    import ray
    from swishray.util import map_batches_stateful
    ref = ray.put(merges)
    return map_batches_stateful(
        ds, BPEEncoder,
        fn_constructor_kwargs={"merges_ref": ref, "col": col,
                               "key": key, "lowercase": lowercase},
        batch_format="pyarrow", batch_size=batch_size)
