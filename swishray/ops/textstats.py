"""Text analysis operators for training-data pipelines: language-ID
(n-gram heuristic), quality scoring, token counting (whitespace +
BPE-ish regex), and document fingerprinting (md5 + rolling hash).

All vectorized-per-batch; the language profiles and compiled regexes
are stage state, built once per worker."""

from __future__ import annotations

import hashlib
import re
from typing import Any

import pyarrow as pa

STOPWORDS = frozenset({"the", "a", "and", "of", "to", "in", "is", "el",
                       "la", "de", "und", "der", "die"})

# BPE-ish pre-tokenizer: letter runs, single digits, other marks
# (a simplified GPT-2-style split — public pattern shape)
_BPE_RE = re.compile(r"[a-zA-Z]+|[0-9]|[^a-zA-Z0-9\s]")

# tiny deterministic char-trigram profiles per language; built from
# public orthography cues, used as a heuristic scorer
_LANG_HINTS = {
    "en": ["the", "and", "ing", "ion", "he "],
    "es": ["de ", "la ", "os ", "ión", "el "],
    "de": ["der", "die", "und", "sch", "en "],
    "fr": ["le ", "es ", "de ", "ent", "tion"],
    "zh": [],  # CJK detection is codepoint-range based
}


def token_count_ws(ds: Any, col: str = "text", key: str = "doc_id") -> Any:
    """Whitespace token count — one vectorized RE2 match count per
    batch (``\\S+`` runs), no Python loop. Token boundary contract:
    ASCII whitespace (RE2 ``\\s``); equals str.split() on any corpus
    without exotic Unicode whitespace."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(batch.column(col), "")
        n = pc.cast(pc.count_substring_regex(txt, r"\S+"), pa.int64())
        return pa.table({key: batch.column(key), "n_tokens_ws": n})
    return ds.map_batches(f, batch_format="pyarrow")


class BpeishCounter:
    def __init__(self, col: str = "text", key: str = "doc_id"):
        self.re = _BPE_RE
        self.col = col
        self.key = key

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        # same pattern, counted by RE2 inside Arrow (no per-row findall
        # list materialization)
        txt = pc.coalesce(batch.column(self.col), "")
        n = pc.cast(pc.count_substring_regex(txt, self.re.pattern),
                    pa.int64())
        return pa.table({self.key: batch.column(self.key),
                         "n_tokens_bpeish": n})


def token_count_bpeish(ds: Any, col: str = "text",
                       key: str = "doc_id") -> Any:
    from ..util import map_batches_stateful
    return map_batches_stateful(ds, BpeishCounter,
                                fn_constructor_kwargs=dict(col=col, key=key),
                                batch_format="pyarrow")


def _word_stat_arrays(txt):
    """Vectorized per-doc word statistics over an Arrow string array:
    (n_chars, n_words, sum_word_len, n_stopwords) as numpy int64.

    All four run as Arrow/RE2 kernels or flat numpy over the split
    word buffer — no per-row Python. sum_word_len is derived as
    chars - whitespace chars (each ``\\s`` match is one char);
    stopword hits come from one ``is_in`` over the FLATTENED split
    words reduced back per row with a cumsum-gather (safe for empty
    rows, unlike reduceat)."""
    import numpy as np
    import pyarrow.compute as pc

    n_chars = pc.utf8_length(txt).to_numpy(zero_copy_only=False)
    n_words = pc.count_substring_regex(txt, r"\S+") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    n_ws = pc.count_substring_regex(txt, r"\s") \
        .to_numpy(zero_copy_only=False)
    sum_wl = n_chars - n_ws

    words = pc.utf8_split_whitespace(txt)
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    flat = words.flatten()
    hits = pc.is_in(flat, value_set=pa.array(sorted(STOPWORDS))) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = words.offsets.to_numpy(zero_copy_only=False)
    c = np.concatenate([[0], np.cumsum(hits)])
    n_stop = c[offsets[1:] - offsets[0]] - c[offsets[:-1] - offsets[0]]
    return (n_chars.astype(np.int64), n_words, sum_wl.astype(np.int64),
            n_stop.astype(np.int64))


def quality_scores(ds: Any, col: str = "text", key: str = "doc_id") -> Any:
    """Per-doc quality features: length, word count, mean word length,
    stopword ratio, punctuation ratio. All DuckDB-expressible for the
    correctness oracle; all vectorized (Arrow/RE2 kernels)."""
    import numpy as np
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(batch.column(col), "")
        n_chars, n_words, sum_wl, n_stop = _word_stat_arrays(txt)
        n_alnum = pc.count_substring_regex(txt, r"[\p{L}\p{N}]") \
            .to_numpy(zero_copy_only=False)
        n_ws = n_chars - sum_wl
        n_punct = n_chars - n_alnum - n_ws
        nw = np.maximum(n_words, 1)
        nc = np.maximum(n_chars, 1)
        return pa.table({
            key: batch.column(key),
            "n_chars": pa.array(n_chars, type=pa.int64()),
            "n_words": pa.array(n_words, type=pa.int64()),
            "mean_word_len": pa.array(sum_wl / nw, type=pa.float64()),
            "stopword_ratio": pa.array(n_stop / nw, type=pa.float64()),
            "punct_ratio": pa.array(n_punct / nc, type=pa.float64()),
        })
    return ds.map_batches(f, batch_format="pyarrow")


def quality_counts(ds: Any, col: str = "text", key: str = "doc_id") -> Any:
    """Integer-count form of the quality features (hash-exact for the
    DuckDB oracle): chars, words, total word length, stopword hits.
    Vectorized — see :func:`_word_stat_arrays`."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(batch.column(col), "")
        n_chars, n_words, sum_wl, n_stop = _word_stat_arrays(txt)
        return pa.table({
            key: batch.column(key),
            "n_chars": pa.array(n_chars, type=pa.int64()),
            "n_words": pa.array(n_words, type=pa.int64()),
            "sum_word_len": pa.array(sum_wl, type=pa.int64()),
            "n_stopwords": pa.array(n_stop, type=pa.int64()),
        })
    return ds.map_batches(f, batch_format="pyarrow")


class LangId:
    """Language scorer stage with a pluggable model slot.

    ``model_factory`` (a zero-arg callable, e.g. one that loads a
    fasttext-style model from a path) runs ONCE per worker in
    ``__init__``; its return value must be callable ``(text) -> lang``.
    Without a factory the deterministic n-gram hint scorer is used —
    not a trained model, suitable for pipeline plumbing/bucketing."""

    def __init__(self, col: str = "text", key: str = "doc_id",
                 model_factory=None):
        self.col = col
        self.key = key
        self.profiles = {lang: set(h) for lang, h in _LANG_HINTS.items()}
        self.model = model_factory() if model_factory is not None else None

    def predict(self, text: str) -> str:
        if self.model is not None:
            return self.model(text)
        if not text:
            return "und"
        cjk = sum(1 for c in text[:500] if 0x4E00 <= ord(c) <= 0x9FFF)
        if cjk > len(text[:500]) * 0.2:
            return "zh"
        t = text[:2000].lower()
        best, best_score = "und", 0
        for lang, grams in self.profiles.items():
            if not grams:
                continue
            score = sum(t.count(g) for g in grams)
            if score > best_score:
                best, best_score = lang, score
        return best

    def _predict_batch(self, txt) -> pa.Array:
        """Vectorized heuristic: per-language hint-gram counts via
        Arrow's non-overlapping count_substring (same semantics as
        str.count), CJK density via one RE2 class count, argmax with
        strict-greater tie-breaking in insertion order — bit-identical
        to :meth:`predict`."""
        import numpy as np
        import pyarrow.compute as pc

        n = len(txt)
        t5 = pc.utf8_slice_codeunits(txt, 0, 500)
        t2 = pc.utf8_lower(pc.utf8_slice_codeunits(txt, 0, 2000))
        cjk = pc.count_substring_regex(t5, r"[\x{4e00}-\x{9fff}]") \
            .to_numpy(zero_copy_only=False)
        len5 = pc.utf8_length(t5).to_numpy(zero_copy_only=False)
        langs = [lang for lang, g in _LANG_HINTS.items() if g]
        scores = np.zeros((n, len(langs)), dtype=np.int64)
        for i, lang in enumerate(langs):
            for g in _LANG_HINTS[lang]:
                scores[:, i] += pc.count_substring(t2, g) \
                    .to_numpy(zero_copy_only=False)
        # strict-greater argmax in iteration order == first maximum
        best_i = np.argmax(scores, axis=1)
        best_s = scores[np.arange(n), best_i]
        preds = np.array(langs, dtype=object)[best_i]
        preds[best_s <= 0] = "und"
        preds[cjk > len5 * 0.2] = "zh"
        empty = pc.equal(pc.utf8_length(txt), 0) \
            .to_numpy(zero_copy_only=False)
        preds[empty] = "und"
        return pa.array(preds, type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        txt = pc.coalesce(batch.column(self.col), "")
        if self.model is not None:  # pluggable model: per-row calls
            preds = pa.array([self.model(t or "")
                              for t in txt.to_pylist()],
                             type=pa.string())
        else:
            preds = self._predict_batch(txt)
        return pa.table({self.key: batch.column(self.key),
                         "lang_pred": preds})


def lang_id(ds: Any, col: str = "text", key: str = "doc_id",
            model_factory=None) -> Any:
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, LangId,
        fn_constructor_kwargs=dict(col=col, key=key,
                                   model_factory=model_factory),
        batch_format="pyarrow")


_ROLL_B = 1000003
_ROLL_POWERS = None  # cached B^k mod p table, grown on demand


def _roll_powers(n: int):
    """B^k mod p for k in [0, n) — built once per process with the
    exact Mersenne modmul, so the polynomial rolling hash evaluates as
    one vectorized dot instead of a per-word Python fold."""
    import numpy as np
    from .dedup import _mulmod_p
    global _ROLL_POWERS
    if _ROLL_POWERS is None or len(_ROLL_POWERS) < n:
        size = max(n, 4096)
        p = np.empty(size, dtype=np.uint64)
        p[0] = 1
        b = np.uint64(_ROLL_B)
        for i in range(1, size):
            p[i:i + 1] = _mulmod_p(p[i - 1:i], b.reshape(1))
        _ROLL_POWERS = p
    return _ROLL_POWERS


def rolling_hash64(text: str) -> int:
    """Polynomial rolling hash over words, mod p = 2^61 - 1 —
    vectorized: crc32 word hashes mixed to 61 bits, dotted against the
    cached power table with exact Mersenne modmul (the per-word
    blake2b + Python Horner loop this replaces was the hot cost)."""
    import numpy as np
    from zlib import crc32
    from .dedup import _mix64, _mod_p, _mulmod_p
    words = text.split()
    if not words:
        return 0
    wh = _mod_p(_mix64(np.fromiter((crc32(w.encode()) for w in words),
                                   dtype=np.uint64, count=len(words))))
    powers = _roll_powers(len(words))[:len(words)][::-1]
    terms = _mulmod_p(wh, powers.copy())
    # sum mod p via vectorized pairwise tree reduction (each pairwise
    # sum of two < 2^61 values fits uint64; log2(n) numpy passes)
    while len(terms) > 1:
        if len(terms) & 1:
            terms = np.append(terms, np.uint64(0))
        terms = _mod_p(terms[0::2] + terms[1::2])
    return int(terms[0])


def fingerprints(ds: Any, col: str = "text", key: str = "doc_id") -> Any:
    """Two fingerprints per doc: md5 hex (oracle-checkable in DuckDB)
    and a 64-bit polynomial rolling hash over words (the streaming
    variant a shingling pipeline uses)."""
    def f(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch.column(col).to_pylist()]
        md5s = [hashlib.md5(t.encode()).hexdigest() for t in texts]
        rolls = [rolling_hash64(t) for t in texts]
        return pa.table({
            key: batch.column(key),
            "md5": pa.array(md5s, type=pa.string()),
            "rolling_hash": pa.array(rolls, type=pa.int64()),
        })
    return ds.map_batches(f, batch_format="pyarrow")


def ngram_counts(ds: Any, n: int = 3, col: str = "text",
                 key: str = "doc_id", top: int | None = None) -> Any:
    """Corpus-wide word n-gram counts: per-batch partial Counter
    (map-side combine — the shuffle moves (gram, partial_count), never
    documents), groupby-sum, optional deterministic top cut
    (count desc, gram asc). The n-gram generator is shared with the
    dedup verify path's shingling semantics (whitespace words,
    space-joined)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter
        c: Counter = Counter()
        for t in batch.column(col).to_pylist():
            w = (t or "").split()
            if len(w) < n:
                continue
            for i in range(len(w) - n + 1):
                c[" ".join(w[i:i + n])] += 1
        return pa.table({
            "gram": pa.array(list(c.keys()), type=pa.string()),
            "__n": pa.array(list(c.values()), type=pa.int64()),
        })

    counts = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("gram").aggregate(Sum("__n", alias_name="n"))
    if top is not None:
        counts = counts.sort(["n", "gram"],
                             descending=[True, False]).limit(top)
    return counts


# -- PII scrubbing -----------------------------------------------------

# RE2-compatible (pyarrow and DuckDB both run RE2, so the oracle SQL
# uses the same pattern strings verbatim)
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\b\d{3}[-.]\d{4}\b"


def redact_pii(ds: Any, col: str = "text", key: str = "doc_id",
               email_token: str = "<EMAIL>",
               phone_token: str = "<PHONE>") -> Any:
    """Redact email addresses and phone-shaped numbers — a standard
    pre-training scrub pass. Fully vectorized: two RE2
    ``replace_substring_regex`` kernels plus two
    ``count_substring_regex`` for the audit counts; no Python row
    loop. Output: (key, text_redacted, n_emails, n_phones)."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(batch.column(col), "")
        n_e = pc.cast(pc.count_substring_regex(txt, PII_EMAIL_RE),
                      pa.int64())
        red = pc.replace_substring_regex(txt, PII_EMAIL_RE, email_token)
        n_p = pc.cast(pc.count_substring_regex(red, PII_PHONE_RE),
                      pa.int64())
        red = pc.replace_substring_regex(red, PII_PHONE_RE, phone_token)
        return pa.table({
            key: batch.column(key),
            "text_redacted": pc.cast(red, pa.large_string()),
            "n_emails": n_e,
            "n_phones": n_p,
        })
    return ds.map_batches(f, batch_format="pyarrow")


# -- Gopher-style repetition stats ------------------------------------

def repetition_stats(ds: Any, col: str = "text", key: str = "doc_id",
                     sep: str = "\n") -> Any:
    """Per-doc repetition signals from the Gopher/MassiveText quality
    rules (public recipe): duplicate-line count and the max single-word
    term frequency. Integer-count form so the oracle is hash-exact;
    callers derive the fractions. Flattened split lists + one pandas
    groupby per batch (C-level), no per-row Python loop.

    Output: (key, n_lines, n_dup_lines, n_words, max_word_tf)."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(batch.column(col), "")
        lines = pc.split_pattern(txt, sep)
        words = pc.split_pattern_regex(txt, r"\s+")
        n_rows = batch.num_rows

        def per_doc_dup_and_max(list_arr, drop_empty):
            lens = pc.list_value_length(list_arr).to_numpy(
                zero_copy_only=False)
            flat = pc.list_flatten(list_arr)
            doc_idx = np.repeat(np.arange(n_rows), lens)
            vals = flat.to_pandas()
            df = pd.DataFrame({"d": doc_idx, "v": vals})
            if drop_empty:
                df = df[df["v"] != ""]
            g = df.groupby(["d", "v"], sort=False).size()
            per = g.groupby(level=0)
            total = df.groupby("d").size()
            # rows occupied by values seen >1 time in their doc
            dup = g[g > 1].groupby(level=0).sum()
            mx = per.max()
            out = pd.DataFrame({"total": total}).join(
                pd.DataFrame({"dup": dup})).join(
                pd.DataFrame({"mx": mx}))
            out = out.reindex(range(n_rows)).fillna(0)
            return (out["total"].astype(np.int64).to_numpy(),
                    out["dup"].astype(np.int64).to_numpy(),
                    out["mx"].astype(np.int64).to_numpy())

        n_lines, dup_lines, _ = per_doc_dup_and_max(lines, False)
        n_words, _, max_tf = per_doc_dup_and_max(words, True)
        return pa.table({
            key: batch.column(key),
            "n_lines": pa.array(n_lines),
            "n_dup_lines": pa.array(dup_lines),
            "n_words": pa.array(n_words),
            "max_word_tf": pa.array(max_tf),
        })
    return ds.map_batches(f, batch_format="pyarrow")


# -- URL structure ----------------------------------------------------

# one RE2 pass per component; DuckDB runs the same patterns verbatim
# in the oracle (both engines are RE2 — named groups because
# pc.extract_regex requires them; DuckDB addresses them as group 1)
URL_SCHEME_RE = r"^(?P<m>[A-Za-z][A-Za-z0-9+.-]*)://"
URL_HOST_RE = r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<m>[^/?#:]+)"
URL_PORT_RE = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#:]+:(?P<m>\d+)"
URL_PATH_RE = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*(?P<m>/[^?#]*)"
URL_QUERY_RE = r"\?(?P<m>[^#]*)"
URL_SITE_RE = r"(?P<m>[^.]+\.[^.]+)$"


def _doc_words(batch: pa.Table, col: str, sep: str = " +"):
    """Each doc's non-empty words split on ``sep``, flat: (doc-row
    index array, word large_string array)."""
    import numpy as np
    import pyarrow.compute as pc

    txt = pc.coalesce(pc.cast(batch.column(col), pa.large_string()),
                      "")
    words = pc.split_pattern_regex(txt, sep)
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    offs = words.offsets.to_numpy(zero_copy_only=False)
    rows = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
    flat = words.flatten()
    keep = pc.not_equal(flat, "")
    return rows[keep.to_numpy(zero_copy_only=False)], flat.filter(keep)


def _doc_bigrams(batch: pa.Table, col: str):
    """Vectorized within-doc adjacent word pairs: the whitespace
    words (the _WORDS_SQL universe, empties dropped first, so
    adjacency skips them as the SQL replay does) shifted by one, kept
    where the pair stays inside its document. Returns (bigram
    large_string array, doc-row index array)."""
    import pyarrow.compute as pc

    rows, fw = _doc_words(batch, col)
    same = rows[:-1] == rows[1:]
    left = fw.slice(0, max(len(fw) - 1, 0)).filter(pa.array(same))
    right = fw.slice(1).filter(pa.array(same))
    bi = pc.binary_join_element_wise(
        left, right, pa.scalar(" ", pa.large_string()))
    return bi, rows[:-1][same]


def _rarity(key: str, freq_sum: str, n_keys: str):
    """The fold of word_rarity and bigram_rarity: per doc, the exact
    int64 sum of its keys' vocabulary counts, its key count and how
    many keys the vocabulary lacks."""
    import numpy as np
    import pyarrow.compute as pc

    def fold(batch: pa.Table, rows, found: pa.Table) -> pa.Table:
        n_docs = batch.num_rows
        cnt = pc.cast(found.column("n"), pa.int64())
        miss = pc.is_null(cnt).to_numpy(zero_copy_only=False)
        sums = np.zeros(n_docs, dtype=np.int64)
        np.add.at(sums, rows, pc.fill_null(cnt, 0).to_numpy())
        return pa.table({
            key: batch.column(key),
            freq_sum: pa.array(sums),
            n_keys: pa.array(np.bincount(
                rows, minlength=n_docs).astype(np.int64)),
            "n_oov": pa.array(np.bincount(
                rows[miss], minlength=n_docs).astype(np.int64))})
    return fold


def bigram_rarity(ds: Any, col: str = "text", key: str = "doc_id",
                  min_count: int = 2,
                  max_vocab: int | None = 500_000) -> Any:
    """CCNet-style conditional (bigram) LM quality signal — the
    second-order companion of :func:`word_rarity`: per document, the
    integer sum of corpus-wide bigram counts of its adjacent word
    pairs (``bi_freq_sum``), the bigram count (``n_bigrams``) and how
    many pairs fell below the vocabulary cut (``n_oov``). A document
    of individually common but incoherently ordered words (shuffled
    spam, keyword stuffing) scores low where the unigram signal
    cannot see it.

    Same scale shape as word_rarity: every doc's bigrams look up the
    bigram vocabulary (cut by ``min_count`` and ``max_vocab``)
    through ``joins.lookup``; within the broadcast budget that is one
    vectorized ``pc.index_in`` per batch and corpus text never rides
    a shuffle. The count exchange carries (bigram, partial) rows
    with map-side combining."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .joins import lookup, schema_guard

    def partial(batch: pa.Table) -> pa.Table:
        bi, _ = _doc_bigrams(batch, col)
        vc = pd.Series(bi.to_pandas()).value_counts()
        return pa.table({
            "bigram": pa.array(vc.index, pa.large_string()),
            "__n": pa.array(vc.to_numpy(dtype=np.int64))})

    counts = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("bigram").aggregate(Sum("__n", alias_name="n"))

    def cut(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("n"),
                                         int(min_count)))

    counts = counts.map_batches(cut, batch_format="pyarrow")
    if max_vocab is not None:
        counts = counts.sort(["n", "bigram"],
                             descending=[True, False]).limit(max_vocab)

    vocab = schema_guard(counts, pa.schema([("bigram", pa.large_string()),
                                            ("n", pa.int64())]))
    return lookup(ds, vocab, "bigram",
                  _rarity(key, "bi_freq_sum", "n_bigrams"),
                  explode=lambda b: _doc_bigrams(b, col)[::-1],
                  row_key=key)


def url_parts(ds: Any, col: str = "url", key: str | None = None) -> Any:
    """Split URLs into (scheme, host, port, path, query) — fully
    vectorized RE2 extracts, host lowercased, registrable-domain-ish
    column (last two host labels) for per-site grouping. The per-site
    rollup is the webtext pipeline's partition key of choice (crawl
    politeness, per-domain quotas, site-level quality priors)."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        u = pc.coalesce(batch.column(col), "")

        def ext(pattern, src=None):
            s = pc.extract_regex(u if src is None else src, pattern)
            return pc.struct_field(s, ["m"])
        host = pc.utf8_lower(pc.coalesce(ext(URL_HOST_RE), ""))
        # site = last two dot-labels of the host (example.co.uk-style
        # public-suffix lists are out of scope; documented heuristic)
        site = pc.coalesce(ext(URL_SITE_RE, src=host), host)
        cols = {}
        if key is not None:
            cols[key] = batch.column(key)
        cols.update({
            col: batch.column(col),
            "scheme": pc.coalesce(ext(URL_SCHEME_RE), ""),
            "host": host,
            "port": pc.coalesce(pc.cast(ext(URL_PORT_RE),
                                        pa.string()), ""),
            "path": pc.coalesce(ext(URL_PATH_RE), "/"),
            "query": pc.coalesce(pc.cast(ext(URL_QUERY_RE),
                                         pa.string()), ""),
            "site": site,
        })
        return pa.table(cols)
    return ds.map_batches(f, batch_format="pyarrow")


def site_stats(ds: Any, url_col: str = "url",
               weight_col: str | None = None) -> Any:
    """Per-site rollup: doc count (+ optional weight sum) grouped on
    the registrable-domain heuristic from url_parts. Slim exchange:
    only (site, count, weight) partials shuffle."""
    from ray.data.aggregate import Count, Sum
    parts = url_parts(ds.select_columns(
        [url_col] + ([weight_col] if weight_col else [])), col=url_col,
        key=weight_col)
    aggs = [Count(alias_name="n_docs")]
    if weight_col:
        aggs.append(Sum(weight_col, alias_name=f"sum_{weight_col}"))
    return parts.groupby("site").aggregate(*aggs)


def word_rarity(ds: Any, col: str = "text", key: str = "doc_id",
                min_count: int = 2, max_vocab: int | None = None,
                vocab: pa.Table | None = None) -> Any:
    """CCNet-style corpus-LM quality signal (Wenzek et al. 2020 use a
    KenLM perplexity; with no external model available the same
    shape falls out of the corpus' own unigram statistics): per
    document, the integer sum of corpus-wide frequencies of its words
    (``freq_sum``), the word count (``n_words``) and how many words
    fell below the vocabulary cut (``n_oov``).  Low
    ``freq_sum/n_words`` = rare-word-heavy documents (gibberish,
    boilerplate hashes); high = stopword soup.  Integer outputs keep
    the oracle hash-exact — derive float scores downstream.

    Scale shape: every doc's words look up the vocabulary's counts
    (``min_count``/``max_vocab``, aggregates._vocab_counts) through
    ``joins.lookup``: within the broadcast budget one vectorized
    ``pc.index_in`` per batch and the corpus never rides a shuffle,
    past it a hash join.  Pass a prebuilt ``vocab`` (token,n) to
    score against a reference corpus instead of the input's own."""
    from .aggregates import _vocab_counts
    from .joins import lookup, schema_guard

    if vocab is None:
        vocab = schema_guard(
            _vocab_counts(ds, col, min_count, max_vocab),
            pa.schema([("token", pa.string()), ("n", pa.int64())]))
    return lookup(ds, vocab, "token", _rarity(key, "freq_sum", "n_words"),
                  explode=lambda b: _doc_words(b, col), row_key=key)


def url_canonicalize(ds: Any, col: str = "url",
                     strip_params: tuple = (),
                     out: str | None = None) -> Any:
    """Crawl-frontier URL canonicalization (RFC 3986 §6 syntax-based
    normalization, the crawl subset): lowercase scheme+host, strip
    default ports (http:80 / https:443), drop the fragment, optionally
    remove tracking query params (``strip_params`` — RE2 alternatives,
    e.g. ``("utm_[a-z0-9]+", "fbclid", "gclid")``), and tidy dangling
    ``?``/``&``.  URL-keyed exact dedup and frontier de-duplication
    need this first or byte-variant spellings of one resource count
    as distinct.

    Fully vectorized: one RE2 extract splits scheme://authority from
    the rest (relative URLs pass through untouched), the remaining
    passes are ``replace_substring_regex`` kernels.  Path dot-segments
    are NOT resolved here — ``extract_links`` already resolves them
    during base-href joining (urljoin), the one place relative paths
    enter the pipeline."""
    import pyarrow.compute as pc

    o = out or col

    def f(batch: pa.Table) -> pa.Table:
        c = batch.column(col)
        if pa.types.is_null(c.type):
            c = c.cast(pa.large_string())
        u = pc.cast(c, pa.large_string())
        u = pc.replace_substring_regex(u, r"#[\s\S]*$", "")
        ext = pc.extract_regex(
            u, r"^(?P<sh>[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*)"
               r"(?P<rest>[\s\S]*)$")
        sh = pc.utf8_lower(pc.struct_field(ext, "sh"))
        sh = pc.replace_substring_regex(
            sh, r"^(http://[^/:]*):80$", r"\1")
        sh = pc.replace_substring_regex(
            sh, r"^(https://[^/:]*):443$", r"\1")
        joined = pc.binary_join_element_wise(
            sh, pc.struct_field(ext, "rest"),
            pa.scalar("", pa.large_string()))
        u = pc.coalesce(joined, u)  # relative urls: no authority part
        if strip_params:
            alt = "|".join(strip_params)
            pat = rf"[?&](?:{alt})=[^&#]*"
            had = pc.match_substring_regex(u, pat)
            u2 = pc.replace_substring_regex(u, pat, "")
            # a removed leading "?p=..." leaves the next param with
            # "&" — promote the first "&" back to "?" only on rows
            # that lost a param and have none marked with "?"
            promote = pc.and_(
                pc.and_(had, pc.invert(
                    pc.match_substring(u2, "?"))),
                pc.match_substring(u2, "&"))
            u = pc.if_else(
                promote,
                pc.replace_substring(u2, "&", "?", max_replacements=1),
                u2)
        u = pc.replace_substring_regex(u, r"[?&]+$", "")
        if o in batch.column_names:
            return batch.set_column(batch.column_names.index(o), o, u)
        return batch.append_column(o, u)

    return ds.map_batches(f, batch_format="pyarrow")


def compression_ratio(ds: Any, col: str = "text",
                      key: str = "doc_id", level: int = 6) -> Any:
    """Per-doc zlib compressibility — the classic cheap
    gibberish/boilerplate detector (highly repetitive text compresses
    far below natural language; random gibberish barely compresses):
    ``(key, n_bytes, n_compressed)``.  Integer outputs; derive the
    ratio downstream.  Deterministic for a fixed zlib level, so the
    sf0.01 rows are frozen as a pytest golden (no SQL oracle — DuckDB
    has no zlib surface).

    The per-row cost IS the deflate call (C speed, no vectorized
    equivalent exists); pure map-side, no shuffle."""
    import zlib

    def f(batch: pa.Table) -> pa.Table:
        texts = batch.column(col).to_pylist()
        nb, nc = [], []
        for t in texts:
            raw = (t or "").encode("utf-8", "replace") \
                if not isinstance(t, bytes) else t
            nb.append(len(raw))
            nc.append(len(zlib.compress(raw, level)))
        return pa.table({key: batch.column(key),
                         "n_bytes": pa.array(nb, pa.int64()),
                         "n_compressed": pa.array(nc, pa.int64())})

    return ds.map_batches(f, batch_format="pyarrow")


# Default public weights for quality_model_score: a hand-set linear
# model in the spirit of fastText/CCNet quality classifiers (Joulin
# et al. 2016 use learned weights; none can be trained in-container,
# so these are fixed, documented constants a user would replace).
# Features are exact fixed-point integers (per-mille ratios), so both
# the engine and the SQL oracle compute the identical logit.
QUALITY_MODEL_WEIGHTS = {
    "bias": -300,
    "stopword_permille": 6,      # natural prose has stopwords
    "mean_word_len_decipermille": 0,  # reserved (0 keeps it inert)
    "short_doc_penalty": -2000,  # n_words < 50
    "punct_permille": -4,        # symbol soup
}


def quality_model_score(ds: Any, col: str = "text",
                        key: str = "doc_id",
                        weights: dict | None = None) -> Any:
    """Linear quality-model scoring stage — the model-inference shape
    of a CCNet/fastText-style document quality classifier with the
    weights as broadcast state: ``ray.put`` once, read in each worker's
    ``__init__``, scored vectorized per batch.

    Everything is integer fixed-point (per-mille ratios, floor
    division) so the output is hash-exact against a SQL oracle:
    ``(key, logit_milli, keep)`` with ``keep = logit_milli >= 0``.
    Plug real learned weights via ``weights=``; scale shape is
    identical (map-only, zero shuffles).
    """
    import numpy as np
    import pyarrow.compute as pc
    import ray

    from ..util import map_batches_stateful

    ref = ray.put(dict(QUALITY_MODEL_WEIGHTS, **(weights or {})))

    class Score:
        def __init__(self, ref) -> None:
            self.w = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            txt = pc.coalesce(pc.cast(batch.column(col),
                                      pa.large_string()), "")
            n_chars, n_words, sum_wl, n_stop = _word_stat_arrays(txt)
            n_alnum = pc.count_substring_regex(
                txt, r"[\p{L}\p{N}]").to_numpy(zero_copy_only=False)
            n_punct = n_chars - n_alnum - (n_chars - sum_wl)
            nw = np.maximum(n_words, 1)
            nc = np.maximum(n_chars, 1)
            stop_pm = (1000 * n_stop) // nw
            mwl_dpm = (10000 * sum_wl) // nw
            punct_pm = (1000 * n_punct) // nc
            w = self.w
            logit = (w["bias"]
                     + w["stopword_permille"] * stop_pm
                     + w["mean_word_len_decipermille"] * mwl_dpm
                     + w["punct_permille"] * punct_pm
                     + np.where(n_words < 50,
                                w["short_doc_penalty"], 0))
            return pa.table({
                key: batch.column(key),
                "logit_milli": pa.array(logit.astype(np.int64)),
                "keep": pa.array(logit >= 0),
            })

    return map_batches_stateful(
        ds, Score, fn_constructor_kwargs={"ref": ref},
        batch_format="pyarrow")


def tfidf_topk(ds: Any, col: str = "text", key: str = "doc_id",
               k: int = 5, min_df: int = 2,
               max_vocab: int | None = None) -> Any:
    """Top-k characteristic terms per document by tf·idf — the
    keyword-extraction tier (outputs the exact integers ``tf`` and
    ``df``; the ranking score tf·N/df is IEEE-double-deterministic,
    ties break on the term, so the oracle hash-matches).

    Scale shape: pass 1 builds the document-frequency table over
    DISTINCT (doc, term) pairs — a slim (term, partial_df) exchange
    with map-side combining, cut by ``min_df``/``max_vocab``. Pass 2
    looks every doc's words up in it through ``joins.lookup``
    (broadcast within the budget, so no shuffle: a document's words
    live in its own row); the per-doc top-k is one pandas
    groupby/head per batch."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .joins import lookup, schema_guard

    def df_partial(batch: pa.Table) -> pa.Table:
        rows, flat = _doc_words(batch, col, r"\s+")
        fd = pd.DataFrame({"term": flat.to_pandas(), "row": rows}) \
            .drop_duplicates()
        vc = fd.term.value_counts()
        return pa.table({"term": pa.array(vc.index, pa.large_string()),
                         "pdf": pa.array(vc.to_numpy(), pa.int64())})

    dfs = ds.map_batches(df_partial, batch_format="pyarrow") \
        .groupby("term").aggregate(Sum("pdf", alias_name="df"))
    dfs = dfs.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("df"),
                                            int(min_df))),
        batch_format="pyarrow")
    if max_vocab is not None:
        dfs = dfs.sort(["df", "term"], descending=[True, False]) \
            .limit(max_vocab)
    n_docs = float(ds.count())

    def top(batch: pa.Table, rows, found: pa.Table) -> pa.Table:
        hit = pc.is_valid(found.column("term"))
        g = pd.DataFrame({
            "row": rows[hit.to_numpy(zero_copy_only=False)],
            "term": found.column("term").filter(hit).to_pandas(),
            "df": found.column("df").filter(hit).to_pandas()})
        tc = g.groupby(["row", "term", "df"]).size() \
            .reset_index(name="tf")
        tc["score"] = tc.tf.to_numpy() * n_docs / tc.df.to_numpy()
        tc = tc.sort_values(["row", "score", "term"],
                            ascending=[True, False, True],
                            kind="mergesort")
        tc = tc.groupby("row", sort=False).head(k)
        return pa.table({
            key: batch.column(key).take(pa.array(tc.row.to_numpy(),
                                                 pa.int64())),
            "term": pa.array(tc.term.to_numpy(), pa.large_string()),
            "tf": pa.array(tc.tf.to_numpy(), pa.int64()),
            "df": pa.array(tc.df.to_numpy(), pa.int64())})

    side = schema_guard(dfs, pa.schema([("term", pa.large_string()),
                                        ("df", pa.int64())]))
    return lookup(ds, side, "term", top,
                  explode=lambda b: _doc_words(b, col, r"\s+"),
                  row_key=key)


def snippets(ds: Any, terms: Sequence[str], col: str = "text",
             key: str = "doc_id", before: int = 3,
             after: int = 3) -> Any:
    """Search-result snippet generation (the swish-e StoreDescription
    / result-excerpt surface): for each document, the word window
    around the FIRST occurrence of any query term (case-folded exact
    word match), or the document head when no term occurs.

    Deterministic and SQL-replayable by design: words are the
    whitespace universe, the anchor is the minimum first-occurrence
    position over the terms, the window is
    ``words[anchor-before : anchor+after]`` clamped to the document.
    Map-side only; one flatten + index_in + segment-min per batch."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    tset = pa.array(sorted({t.lower() for t in terms}),
                    pa.large_string())
    width = before + after + 1

    def f(batch: pa.Table) -> pa.Table:
        txt = pc.coalesce(pc.cast(batch.column(col),
                                  pa.large_string()), "")
        words = pc.split_pattern_regex(txt, r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        offs = words.offsets.to_numpy(zero_copy_only=False)
        offs = offs - offs[0]
        flat = words.flatten()
        lower = pc.utf8_lower(flat)
        hit = pc.is_in(lower, value_set=tset) \
            .to_numpy(zero_copy_only=False)
        nonempty = pc.not_equal(flat, "") \
            .to_numpy(zero_copy_only=False)
        hit = hit & nonempty
        n_docs = len(offs) - 1
        rows = np.repeat(np.arange(n_docs), np.diff(offs))
        # position among the NONEMPTY words of the doc (the filtered
        # universe the SQL replay indexes into)
        cum = np.concatenate(([0], np.cumsum(nonempty)))
        pos_ne = cum[np.arange(len(flat))] - cum[offs[:-1]][rows] \
            if len(flat) else np.zeros(0, dtype=np.int64)
        anchor = np.full(n_docs, -1, dtype=np.int64)
        if hit.any():
            first = pd.Series(pos_ne[hit]).groupby(rows[hit]).min()
            anchor[first.index.to_numpy()] = first.to_numpy()
        flat_py = flat.to_pylist()
        snips = []
        for i in range(n_docs):
            ws = [w for w in flat_py[offs[i]:offs[i + 1]] if w]
            if not ws:
                snips.append("")
                continue
            if anchor[i] < 0:
                snips.append(" ".join(ws[:width]))
                continue
            a = int(anchor[i])
            lo = max(0, a - before)
            snips.append(" ".join(ws[lo:a + after + 1]))
        return pa.table({
            key: batch.column(key),
            "snippet": pa.array(snips, pa.string()),
            "matched": pa.array(anchor >= 0)})

    return ds.map_batches(f, batch_format="pyarrow")


def readability_counts(ds: Any, col: str = "text",
                       key: str = "doc_id") -> Any:
    """Integer readability signals per document — the inputs to
    Flesch-style scores, kept as exact counts so results hash-match
    across engines (the ratio itself is one float divide away):

    * ``n_words`` — whitespace tokens (the _WORDS_SQL universe)
    * ``n_sentences`` — split_sentences' terminal rule: words ending
      ``. ! ?`` end a sentence; a trailing terminal-less run counts
      as one final sentence
    * ``n_syllables`` — the classic vowel-group heuristic: runs of
      ``[aeiouy]`` in the lowercased text, plus one per vowelless
      word (every word counts at least one syllable)

    Fully vectorized: three RE2 count/match kernels per batch, no
    Python loop, map-side only."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        from .filters import _text_col
        txt = _text_col(batch, col)
        lt = pc.utf8_lower(txt)
        n_words = pc.cast(pc.count_substring_regex(txt, r"\S+"),
                          pa.int64())
        # terminal words end a sentence; a non-terminal last word
        # adds the final implicit sentence
        n_term = pc.cast(
            pc.count_substring_regex(txt, r"\S*[.!?](\s|$)"),
            pa.int64())
        ends_open = pc.and_(
            pc.greater(n_words, 0),
            pc.invert(pc.match_substring_regex(txt, r"[.!?]\s*$")))
        n_sent = pc.add(n_term,
                        pc.cast(ends_open, pa.int64()))
        groups = pc.cast(pc.count_substring_regex(lt, "[aeiouy]+"),
                         pa.int64())
        # words with no vowel at all still carry one syllable;
        # counted as complement (RE2 has no lookaround): a word with
        # >=1 vowel yields exactly one non-overlapping match here
        # because the greedy tails consume the whole word
        voweled = pc.cast(
            pc.count_substring_regex(lt, r"\S*[aeiouy]\S*"),
            pa.int64())
        vowelless = pc.subtract(n_words, voweled)
        return pa.table({
            key: batch.column(key),
            "n_words": n_words,
            "n_sentences": n_sent,
            "n_syllables": pc.add(groups, vowelless)})

    return ds.map_batches(f, batch_format="pyarrow")


def split_sentences(ds: Any, col: str = "text",
                    key: str = "doc_id") -> Any:
    """Rule-based sentence segmentation -> one row per sentence
    ``(key, sent_idx, sentence)``.

    The rule is deliberately word-level and deterministic so it is
    SQL-replayable (the oracle contract): words are the whitespace
    tokens of ``col`` (the _WORDS_SQL universe); a sentence ends at
    every word whose last character is ``. ! ?``; a trailing run
    with no terminal still emits as the final sentence; sentences
    rejoin with single spaces.  (Abbreviation handling etc. belongs
    to a model-based splitter — this is the exact, cheap tier that
    sentence-level dedup / PII passes need.)

    Vectorized shape: one split + one regex terminal-flag pass over
    the flattened word array, sentence ids by shifted cumsum, one
    pandas groupby join per batch — no per-row Python, no shuffle."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        from .filters import _text_col
        txt = _text_col(batch, col)
        n = len(txt)
        words = pc.split_pattern_regex(txt, r"\s+")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        flat = words.flatten()
        offs = words.offsets.to_numpy(zero_copy_only=False)
        keepw = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        lens = (offs[1:] - offs[:-1]).astype(np.int64)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        term = pc.match_substring_regex(flat, r"[.!?]$") \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        # sentence id = count of terminals BEFORE this word, within
        # the doc: global shifted cumsum minus the doc-start value
        cum = np.concatenate(([0], np.cumsum(term)))[:-1]
        doc_start = np.concatenate(
            ([0], np.cumsum(term)))[offs[:-1] - offs[0]]
        sid = cum - doc_start[doc_idx] if len(cum) else cum
        df = pd.DataFrame({
            "d": doc_idx[keepw], "s": sid[keepw],
            "w": pd.Series(flat.filter(pa.array(keepw)).to_pandas())})
        if df.empty:
            return pa.table({
                key: batch.column(key).take(pa.array([], pa.int64())),
                "sent_idx": pa.array([], pa.int64()),
                "sentence": pa.array([], pa.string())})
        g = df.groupby(["d", "s"], sort=True)["w"].agg(" ".join) \
            .reset_index()
        # re-densify sent_idx per doc (empty-word-only sentences —
        # impossible here since every terminal word is itself a word
        # — would otherwise leave gaps; keep ids as computed)
        return pa.table({
            key: batch.column(key).take(
                pa.array(g["d"].to_numpy(), pa.int64())),
            "sent_idx": pa.array(g["s"].to_numpy(), pa.int64()),
            "sentence": pa.array(g["w"], pa.string())})

    return ds.map_batches(f, batch_format="pyarrow")


def extract_entities(ds: Any, pattern: str, col: str = "text",
                     key: str = "doc_id", kind: str = "entity") -> Any:
    """Flat-map all regex matches out of a text column: one output
    row per match, (key, kind, match ordinal, entity). The
    complement of redact_pii — harvesting structured values
    (emails, URLs, ids) instead of suppressing them.

    Pure map-side; the per-row cost is the compiled C regex scan
    (Python re and RE2/DuckDB agree on this leftmost-first, greedy
    pattern class). Output rows ≈ match density × corpus — still a
    stream, never collected."""
    import re

    prog = re.compile(pattern)

    def f(batch: pa.Table) -> pa.Table:
        keys = batch.column(key).to_pylist()
        txts = batch.column(col).to_pylist()
        out_k, out_m, out_e = [], [], []
        for k, t in zip(keys, txts):
            for i, m in enumerate(prog.finditer(t or "")):
                out_k.append(k)
                out_m.append(i + 1)
                out_e.append(m.group(0))
        return pa.table({
            key: pa.array(out_k, type=batch.column(key).type),
            "kind": pa.array([kind] * len(out_k), type=pa.string()),
            "m": pa.array(out_m, type=pa.int64()),
            "entity": pa.array(out_e, type=pa.string()),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def unnest_list(ds: Any, col: str, key: str,
                idx_out: str = "i", val_out: str = "val") -> Any:
    """Explode a list column to (key, 1-based index, element) rows —
    pure vectorized map-side flatten via the Arrow list OFFSETS (no
    per-row Python): the standard bridge from nested payloads
    (embeddings, token lists) to row-shaped operators."""
    import numpy as np

    def f(batch: pa.Table) -> pa.Table:
        lc = batch.column(col)
        if isinstance(lc, pa.ChunkedArray):
            lc = lc.combine_chunks()
        offs = lc.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        lens = np.diff(offs)
        rows = np.repeat(np.arange(len(lens)), lens)
        idx = np.arange(offs[-1], dtype=np.int64) - offs[rows] + 1
        keys = batch.column(key).take(pa.array(rows))
        return pa.table({key: keys,
                         idx_out: pa.array(idx, type=pa.int64()),
                         val_out: lc.flatten()})

    return ds.map_batches(f, batch_format="pyarrow")


def collocations_pmi(ds: Any, col: str = "text",
                     min_count: int = 5) -> Any:
    """Corpus-level collocation mining: every adjacent word bigram
    occurring >= ``min_count`` times, scored by the PMI RATIO
        p(w1,w2) / (p(w1)·p(w2))
          = (cab/T2) / ((ca/T1)·(cb/T1))
          = ((cab·T1)·T1) / ((T2·ca)·cb)
    i.e. exp(PMI).  The ratio is emitted instead of the log because
    IEEE multiply/divide are correctly-rounded everywhere (the SQL
    oracle reproduces the bits with the same operand order) while
    ln() implementations differ in the last ulp between engines; the
    ratio is monotone in PMI so ranking is unchanged.

    Scale shape: unigram and bigram censuses are map-side-combined
    Counters — the shuffles carry (word, partial) and (w1, w2,
    partial) rows, never documents; corpus totals T1/T2 are two
    scalar folds of those slim tables; the count attach is two
    bucketed hash joins between the (min_count-pruned) bigram table
    and the unigram table.  Adjacency never crosses documents.
    Output: (w1, w2, cab, ca, cb, pmi_ratio)."""
    import numpy as np
    from ray.data.aggregate import Sum

    from .joins import hash_join

    def parts(batch: pa.Table) -> pa.Table:
        from collections import Counter
        uni: dict = Counter()
        bi: dict = Counter()
        for t in batch.column(col).to_pylist():
            w = (t or "").split()
            uni.update(w)
            for i in range(len(w) - 1):
                bi[(w[i], w[i + 1])] += 1
        n_u, n_b = len(uni), len(bi)
        return pa.table({
            "w1": pa.array([*uni.keys(),
                            *(k[0] for k in bi.keys())],
                           type=pa.string()),
            "w2": pa.array([""] * n_u + [k[1] for k in bi.keys()],
                           type=pa.string()),
            "is_bi": pa.array([0] * n_u + [1] * n_b,
                              type=pa.int64()),
            "__n": pa.array([*uni.values(), *bi.values()],
                            type=pa.int64()),
        })

    census = (ds.map_batches(parts, batch_format="pyarrow")
              .groupby(["w1", "w2", "is_bi"])
              .aggregate(Sum("__n", alias_name="n"))
              .materialize())  # consumers: totals, unigrams, bigrams

    # corpus totals: two tiny scalar folds over the census
    tot = census.map_batches(
        lambda t: pa.table({
            "t1": pa.array([int(np.sum(
                t.column("n").to_numpy()[
                    t.column("is_bi").to_numpy() == 0]))],
                type=pa.int64()),
            "t2": pa.array([int(np.sum(
                t.column("n").to_numpy()[
                    t.column("is_bi").to_numpy() == 1]))],
                type=pa.int64())}),
        batch_format="pyarrow").to_pandas()
    if "t1" not in tot.columns or float(tot["t1"].sum()) == 0.0:
        # empty corpus: no unigrams, no collocations
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "w1": pa.array([], pa.large_string()),
            "w2": pa.array([], pa.large_string()),
            "cab": pa.array([], pa.int64()),
            "ca": pa.array([], pa.int64()),
            "cb": pa.array([], pa.int64()),
            "pmi_ratio": pa.array([], pa.float64())}))
    t1f = float(tot["t1"].sum())
    t2f = float(tot["t2"].sum())

    import pyarrow.compute as pc

    def uni_f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("is_bi"), 0))
        return pa.table({"w1": t.column("w1"), "c": t.column("n")})

    def bi_f(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("is_bi"), 1))
        return t.select(["w1", "w2", "n"]).filter(
            pc.greater_equal(t.column("n"), min_count))

    uni = census.map_batches(uni_f, batch_format="pyarrow")
    bi = census.map_batches(bi_f, batch_format="pyarrow")

    j1 = hash_join(bi, uni, key="w1")  # -> c_r = ca
    j1 = j1.map_batches(
        lambda t: pa.table({"w2": t.column("w2"),
                            "w1": t.column("w1"),
                            "n": t.column("n"),
                            "ca": t.column("c_r")}),
        batch_format="pyarrow")
    j2 = hash_join(j1, uni.map_batches(
        lambda t: pa.table({"w2": t.column("w1"),
                            "c": t.column("c")}),
        batch_format="pyarrow"), key="w2")

    def finish(t: pa.Table) -> pa.Table:
        cab = t.column("n").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        ca = t.column("ca").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        cb = t.column("c_r").to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        ratio = ((cab * t1f) * t1f) / ((t2f * ca) * cb)
        return pa.table({
            "w1": t.column("w1"), "w2": t.column("w2"),
            "cab": pc.cast(t.column("n"), pa.int64()),
            "ca": pc.cast(t.column("ca"), pa.int64()),
            "cb": pc.cast(t.column("c_r"), pa.int64()),
            "pmi_ratio": pa.array(ratio, type=pa.float64()),
        })

    return j2.map_batches(finish, batch_format="pyarrow")


def winnow_fingerprints(ds: Any, col: str = "text",
                        key: str = "doc_id", k: int = 8,
                        w: int = 4) -> Any:
    """Winnowing document fingerprints (Schleimer, Wilkerson &
    Aiken 2003, the MOSS algorithm): hash every k-character window
    of the text, slide a w-hash window over the hash sequence, and
    select the RIGHTMOST MINIMAL hash of each window; consecutive
    windows re-selecting the same position collapse, giving a
    position-robust fingerprint set that is guaranteed to share an
    entry with any copied passage of length >= w + k - 1.

    Entirely map-side (document-local): the k-gram hashes come from
    ONE vectorized sliding-window MD5 pass (md5vec.md5_u32_windows —
    zero-copy byte windows, chunk-bounded block matrix), the
    rightmost-min selection from one stride-tricks sliding-min +
    reversed-argmax per doc; no shuffle at all.  MD5 prefixes make
    the whole thing SQL-replayable (substr + md5 + window join).
    Non-ASCII docs fall back to per-window substring hashing so
    positions stay CHARACTER-indexed like SQL substr.  Docs shorter
    than w + k - 1 chars emit nothing (no full window exists).
    Output: one row per distinct (key, pos, fp), pos 1-based."""
    import numpy as np

    from .md5vec import md5_u32, md5_u32_windows

    def winnow(batch: pa.Table) -> pa.Table:
        from numpy.lib.stride_tricks import sliding_window_view
        keys_out, pos_out, fp_out = [], [], []
        keys = batch.column(key).to_pylist()
        for kk, tt in zip(keys, batch.column(col).to_pylist()):
            s = tt or ""
            if len(s) < k:
                continue
            if s.isascii():
                h = md5_u32_windows(s.encode(), k)
            else:
                h = md5_u32([s[i:i + k]
                             for i in range(len(s) - k + 1)])
            if len(h) < w:
                continue
            sw = sliding_window_view(h, w)
            m = sw.min(axis=1)
            # rightmost index of the minimum within each window
            off = w - 1 - np.argmax(sw[:, ::-1] == m[:, None], axis=1)
            pos = np.arange(len(m), dtype=np.int64) + off
            sel = np.unique(pos)
            keys_out.extend([kk] * len(sel))
            pos_out.append(sel + 1)  # 1-based, matches SQL substr
            fp_out.append(h[sel].astype(np.int64))
        return pa.table({
            key: pa.array(keys_out,
                          type=batch.column(key).type),
            "pos": pa.array(
                np.concatenate(pos_out) if pos_out
                else np.empty(0, dtype=np.int64)),
            "fp": pa.array(
                np.concatenate(fp_out) if fp_out
                else np.empty(0, dtype=np.int64)),
        })

    return ds.map_batches(winnow, batch_format="pyarrow")
