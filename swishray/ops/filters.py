"""Corpus cleaning filters from the public webtext-pipeline
literature: the C4 line/page rules (Raffel et al. 2020, §2.2) and the
Gopher document-quality rules (Rae et al. 2021, Appendix A).

All kernels are Arrow/RE2 vectorized over the batch — line-level
statistics run over the FLATTENED split-line array and reduce back
per document with the cumsum-gather pattern (textstats.
_word_stat_arrays); no per-row Python in either stage.  Both are
map-side only (no shuffle) and oracle-paired via queries()
``c4_clean`` / ``gopher_quality``.

These complement, not duplicate, the neighbouring ops: boilerplate.py
removes lines duplicated ACROSS documents (corpus-wide state);
these filters are per-document policy rules.
"""
from __future__ import annotations

from typing import Any, Sequence

import numpy as np
import pyarrow as pa

# C4 defaults (the paper's values)
C4_MIN_WORDS_PER_LINE = 5
C4_MIN_LINES = 3
C4_BAN_SUBSTRINGS = ("lorem ipsum", "{")
C4_LINE_BAN = "javascript"
_TERMINAL = r'[.!?"]$'


def _per_doc_sums(flat_vals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    c = np.concatenate(([0], np.cumsum(flat_vals, dtype=np.int64)))
    return c[offsets[1:] - offsets[0]] - c[offsets[:-1] - offsets[0]]


def _text_col(batch: pa.Table, col: str):
    import pyarrow.compute as pc
    c = batch.column(col)
    if pa.types.is_null(c.type):  # an all-None block is null-typed
        c = c.cast(pa.large_string())
    return pc.coalesce(c, "").combine_chunks()


def c4_clean(ds: Any, col: str = "text", key: str = "doc_id",
             min_words_per_line: int = C4_MIN_WORDS_PER_LINE,
             min_lines: int = C4_MIN_LINES,
             sep: str = "\n") -> Any:
    """C4 §2.2 cleaning: keep only lines that end in terminal
    punctuation, have >= ``min_words_per_line`` words and don't
    mention javascript; then drop whole documents with fewer than
    ``min_lines`` surviving lines or containing a banned substring
    ("lorem ipsum", "{").  Returns ``(key, clean_text, n_lines_kept,
    n_lines_dropped, doc_kept)`` — dropped docs stay as rows with
    ``doc_kept=false`` so the filter is auditable (filter with
    ``.filter`` downstream for the destructive form)."""
    import pandas as pd
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        txt = _text_col(batch, col)
        n = len(txt)
        low = pc.utf8_lower(txt)
        banned = np.zeros(n, dtype=bool)
        for s in C4_BAN_SUBSTRINGS:
            banned |= pc.match_substring(low, s) \
                .to_numpy(zero_copy_only=False)

        lines = pc.split_pattern(txt, sep)
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        flat = lines.flatten()
        offs = lines.offsets.to_numpy(zero_copy_only=False)
        ends_term = pc.match_substring_regex(
            pc.utf8_rtrim_whitespace(flat), _TERMINAL) \
            .to_numpy(zero_copy_only=False)
        enough_words = (pc.count_substring_regex(flat, r"\S+")
                        .to_numpy(zero_copy_only=False)
                        >= min_words_per_line)
        no_js = np.invert(pc.match_substring(
            pc.utf8_lower(flat), C4_LINE_BAN)
            .to_numpy(zero_copy_only=False))
        keep_line = ends_term & enough_words & no_js

        kept_per_doc = _per_doc_sums(keep_line.astype(np.int64), offs)
        total_per_doc = (offs[1:] - offs[:-1]).astype(np.int64)
        doc_kept = (kept_per_doc >= min_lines) & ~banned

        # reassemble kept lines per doc (one vectorized pandas pass,
        # the boilerplate.strip pattern)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64),
                            total_per_doc)
        df = pd.DataFrame({
            "d": doc_idx[keep_line],
            "l": pd.Series(
                flat.filter(pa.array(keep_line)).to_pandas())})
        joined = df.groupby("d", sort=False)["l"].agg(sep.join)
        clean = joined.reindex(np.arange(n)).fillna("")
        clean[~doc_kept] = ""
        return pa.table({
            key: batch.column(key),
            "clean_text": pa.array(clean.values, pa.large_string()),
            "n_lines_kept": pa.array(kept_per_doc),
            "n_lines_dropped": pa.array(total_per_doc - kept_per_doc),
            "doc_kept": pa.array(doc_kept),
        })

    return ds.map_batches(f, batch_format="pyarrow")


# Gopher defaults (Rae et al. 2021 Appendix A)
GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MEAN_WORD_LEN = 3.0
GOPHER_MAX_MEAN_WORD_LEN = 10.0
GOPHER_MAX_SYMBOL_RATIO = 0.1       # '#' or '...' per word
GOPHER_MAX_BULLET_FRAC = 0.9        # lines starting with a bullet
GOPHER_MAX_ELLIPSIS_FRAC = 0.3      # lines ending with '...'
GOPHER_MIN_ALPHA_WORD_FRAC = 0.8    # words containing a letter


def _gopher_flag_arrays(txt, sep: str = "\n") -> dict:
    """The Gopher rule math over one text column -> dict of numpy
    arrays (n_words, mean_word_len, symbol_ratio, bullet_frac,
    ellipsis_frac, alpha_word_frac, keep) — shared by the auditable
    flags table (gopher_quality) and the destructive filter
    (gopher_filter)."""
    import pyarrow.compute as pc
    n_words = pc.count_substring_regex(txt, r"\S+") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    n_chars = pc.utf8_length(txt).to_numpy(zero_copy_only=False)
    n_ws = pc.count_substring_regex(txt, r"\s") \
        .to_numpy(zero_copy_only=False)
    nw = np.maximum(n_words, 1)
    mean_wl = (n_chars - n_ws) / nw

    n_hash = pc.count_substring(txt, "#") \
        .to_numpy(zero_copy_only=False)
    n_ell = pc.count_substring(txt, "...") \
        .to_numpy(zero_copy_only=False)
    symbol_ratio = (n_hash + n_ell) / nw

    n_alpha_words = pc.count_substring_regex(
        txt, r"\S*\pL\S*").to_numpy(zero_copy_only=False)
    alpha_frac = n_alpha_words / nw

    lines = pc.split_pattern(txt, sep)
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    flat = lines.flatten()
    offs = lines.offsets.to_numpy(zero_copy_only=False)
    n_lines = np.maximum(offs[1:] - offs[:-1], 1)
    bullet = pc.match_substring_regex(
        pc.utf8_ltrim_whitespace(flat), r"^([-*•]|\d+\.)\s") \
        .to_numpy(zero_copy_only=False)
    ell_end = pc.match_substring_regex(
        pc.utf8_rtrim_whitespace(flat), r"\.\.\.$") \
        .to_numpy(zero_copy_only=False)
    bullet_frac = _per_doc_sums(bullet.astype(np.int64),
                                offs) / n_lines
    ell_frac = _per_doc_sums(ell_end.astype(np.int64),
                             offs) / n_lines

    ok_words = ((n_words >= GOPHER_MIN_WORDS)
                & (n_words <= GOPHER_MAX_WORDS))
    ok_mwl = ((mean_wl >= GOPHER_MIN_MEAN_WORD_LEN)
              & (mean_wl <= GOPHER_MAX_MEAN_WORD_LEN))
    ok_sym = symbol_ratio <= GOPHER_MAX_SYMBOL_RATIO
    ok_bullet = bullet_frac <= GOPHER_MAX_BULLET_FRAC
    ok_ell = ell_frac <= GOPHER_MAX_ELLIPSIS_FRAC
    ok_alpha = alpha_frac >= GOPHER_MIN_ALPHA_WORD_FRAC
    return {
        "n_words": n_words, "mean_word_len": mean_wl,
        "symbol_ratio": symbol_ratio, "bullet_frac": bullet_frac,
        "ellipsis_frac": ell_frac, "alpha_word_frac": alpha_frac,
        "keep": (ok_words & ok_mwl & ok_sym & ok_bullet & ok_ell
                 & ok_alpha),
    }


def gopher_quality(ds: Any, col: str = "text", key: str = "doc_id",
                   sep: str = "\n") -> Any:
    """Gopher quality rules as per-doc flags + an overall ``keep``:
    word count bounds, mean word length bounds, symbol-to-word ratio,
    bullet-start / ellipsis-end line fractions, alpha-word fraction.
    (The paper's stopword rule is quality_scores' stopword_ratio —
    compose as needed.)"""

    def f(batch: pa.Table) -> pa.Table:
        g = _gopher_flag_arrays(_text_col(batch, col), sep)
        return pa.table({
            key: batch.column(key),
            "n_words": pa.array(g["n_words"]),
            "mean_word_len": pa.array(g["mean_word_len"],
                                      pa.float64()),
            "symbol_ratio": pa.array(g["symbol_ratio"], pa.float64()),
            "bullet_frac": pa.array(g["bullet_frac"], pa.float64()),
            "ellipsis_frac": pa.array(g["ellipsis_frac"],
                                      pa.float64()),
            "alpha_word_frac": pa.array(g["alpha_word_frac"],
                                        pa.float64()),
            "keep": pa.array(g["keep"]),
        })

    return ds.map_batches(f, batch_format="pyarrow")


def gopher_filter(ds: Any, col: str = "text",
                  sep: str = "\n") -> Any:
    """Destructive form of :func:`gopher_quality`: keep only passing
    rows, all input columns intact — the shape a composed cleaning
    pipeline chains.  Pure map-side."""

    def f(batch: pa.Table) -> pa.Table:
        g = _gopher_flag_arrays(_text_col(batch, col), sep)
        return batch.filter(pa.array(g["keep"]))

    return ds.map_batches(f, batch_format="pyarrow")


# -- per-domain caps (RefinedWeb-style) --------------------------------

def cap_per_group(ds: Any, group: str, key: str, n: int,
                  ascending: bool = True) -> Any:
    """Keep at most ``n`` rows per group — the RefinedWeb-style
    per-domain document cap (Penedo et al. 2023 §3.1 cap hot domains
    so one site can't dominate the corpus). Deterministic: winners are
    the ``n`` smallest (``ascending=True``) or largest ``key`` values
    within each group, i.e. SQL's ``ROW_NUMBER() OVER (PARTITION BY
    group ORDER BY key) <= n``.

    Scale shape (the exact_dedup winners pattern, dedup.py:110): only
    a SLIM ``(group, key)`` projection rides the shuffle, with a
    map-side per-batch top-n combine so the exchange carries at most
    ``n x groups x blocks`` rows and a hot domain cannot concentrate
    its full row set in one reduce task; the winner keys then
    inner-join back to the full rows on the (uniform) ``key``."""
    from .aggregates import topk_per_group
    from .joins import hash_join

    slim = ds.map_batches(
        lambda t: t.select([group, key]), batch_format="pyarrow")
    winners = topk_per_group(slim, group=group, order=key, k=n,
                             descending=not ascending)
    keys_only = winners.map_batches(
        lambda t: t.select([key]), batch_format="pyarrow")
    return hash_join(ds, keys_only, key)


# -- URL / domain blocklist filtering ----------------------------------

def _host_of(batch: pa.Table, url_col: str):
    """Lowercased, port-stripped hostname column (RE2 shared with
    textstats.url_parts so the oracle SQL can reuse it verbatim)."""
    import pyarrow.compute as pc
    from .textstats import URL_HOST_RE
    ext = pc.extract_regex(_text_col(batch, url_col), URL_HOST_RE)
    host = pc.utf8_lower(pc.coalesce(
        pc.struct_field(ext, "m"), ""))
    return pc.cast(pc.replace_substring_regex(host, r":[0-9]+$", ""),
                   pa.large_string())


def _blocklist(domains: Sequence[str]) -> pa.Array:
    return pa.array(sorted({d.lower().lstrip(".") for d in domains}
                           - {""}), pa.large_string())


def _suffix_chain(host: pa.Array):
    """Every host's suffix chain, bare TLD included (``a.b.c`` gives
    ``a.b.c``, ``b.c`` and ``c``), as (host row, suffix) arrays: an
    entry equals one of them exactly when the host equals the entry
    or ends with ``"." + entry``. One vectorized strip per label."""
    import pyarrow.compute as pc
    rows, sfx = [np.arange(len(host))], [host]
    while len(sfx[-1]):
        more = pc.match_substring(sfx[-1], ".")
        rows.append(rows[-1][more.to_numpy(zero_copy_only=False)])
        sfx.append(pc.replace_substring_regex(
            sfx[-1].filter(more), r"^[^.]*\.", ""))
    return np.concatenate(rows), pa.concat_arrays(sfx)


def url_blocklist(ds: Any, domains: Sequence[str],
                  url_col: str = "url") -> Any:
    """Flag rows whose URL host falls under any blocked domain: the
    host equals an entry or ends with ``"." + entry``, so
    ``example.org`` blocks ``example.org`` and ``a.b.example.org``,
    and ``com`` blocks every ``.com`` host. The UT1/RefinedWeb-style
    adult/spam-domain filter. Non-destructive: returns the input
    columns plus ``host`` and ``blocked`` (filter downstream).

    Each host's suffix chain looks up the list through
    :func:`~.joins.lookup`, keyed by the URL: a list within the
    broadcast budget is one ``pc.index_in`` per batch, a longer one
    (UT1 is ~4M domains) is hash-joined."""
    import pyarrow.compute as pc

    from .joins import lookup

    def chain(batch: pa.Table):
        return _suffix_chain(_host_of(batch, url_col))

    def fold(batch: pa.Table, rows, found: pa.Table) -> pa.Table:
        blocked = np.zeros(batch.num_rows, dtype=bool)
        blocked[rows[pc.is_valid(found.column("__sfx"))
                     .to_numpy(zero_copy_only=False)]] = True
        return batch.append_column("host", _host_of(batch, url_col)) \
            .append_column("blocked", pa.array(blocked))

    return lookup(ds, pa.table({"__sfx": _blocklist(domains)}), "__sfx",
                  fold, explode=chain, row_key=url_col)


# -- benchmark decontamination -----------------------------------------

def _distinct_grams(batch: pa.Table, col: str, n: int):
    """Vectorized per-doc DISTINCT word n-grams over a batch: split on
    runs of spaces (' +', the corpus word convention shared with the
    SQL oracles' _WORDS_SQL), flatten, build grams by shifted
    elementwise join, mask grams that straddle document boundaries.
    Returns (doc_index_per_gram, gram_strings) with duplicates within
    a document removed."""
    import numpy as np
    import pyarrow.compute as pc

    txt = _text_col(batch, col)
    words = pc.split_pattern_regex(txt, " +")
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    flat_all = words.flatten()
    offs = words.offsets.to_numpy(zero_copy_only=False)
    # drop empty tokens (leading/trailing spaces) while keeping
    # per-doc counts aligned
    nonempty = pc.not_equal(flat_all, "").to_numpy(zero_copy_only=False)
    counts = (offs[1:] - offs[:-1]).astype(np.int64)
    doc_idx_all = np.repeat(np.arange(len(counts), dtype=np.int64),
                            counts)
    flat = np.asarray(flat_all.to_pandas(), dtype=object)[nonempty]
    doc_idx = doc_idx_all[nonempty]
    if len(flat) < n:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=object))
    gram = flat[: len(flat) - n + 1]
    for j in range(1, n):
        gram = gram + " "
        gram = gram + flat[j: len(flat) - n + 1 + j]
    same_doc = doc_idx[: len(flat) - n + 1] == doc_idx[n - 1:]
    g_doc = doc_idx[: len(flat) - n + 1][same_doc]
    g_str = gram[same_doc]
    # distinct within doc — one hash-based vectorized pass
    import pandas as pd
    dup = pd.DataFrame({"d": g_doc, "g": g_str}).duplicated() \
        .to_numpy()
    return g_doc[~dup], g_str[~dup]


def decontaminate(ds: Any, bench: Any, n: int = 3,
                  col: str = "text", key: str = "doc_id",
                  bench_col: str = "text") -> Any:
    """Benchmark decontamination: flag training documents that share
    any word ``n``-gram with a held-out benchmark/eval set (the
    GPT-3/PaLM-style 13-gram overlap scrub, run here over exact
    DISTINCT n-gram membership). Non-destructive output per doc:
    ``(key, n_grams, n_matched, contaminated)`` where ``n_grams`` is
    the doc's distinct-gram count and ``n_matched`` how many of those
    appear anywhere in the benchmark.

    Each doc's distinct grams look up the benchmark's grams through
    :func:`~.joins.lookup`, keyed by ``key``: exact string
    membership, and corpus text never rides a shuffle. A gram the
    benchmark's batches list more than once is found once."""
    import pyarrow.compute as pc

    from .joins import lookup

    def bench_grams(batch: pa.Table) -> pa.Table:
        _, g_str = _distinct_grams(batch, bench_col, n)
        return pa.table({"gram": pa.array(sorted(set(g_str)),
                                          pa.large_string())})

    def grams(batch: pa.Table):
        g_doc, g_str = _distinct_grams(batch, col, n)
        return g_doc, pa.array(g_str, pa.large_string())

    def fold(batch: pa.Table, g_doc, found: pa.Table) -> pa.Table:
        hit = pc.is_valid(found.column("gram")).to_numpy(
            zero_copy_only=False)
        n_matched = np.bincount(g_doc[hit], minlength=len(batch))
        return pa.table({
            key: batch.column(key),
            "n_grams": pa.array(np.bincount(
                g_doc, minlength=len(batch)).astype(np.int64)),
            "n_matched": pa.array(n_matched.astype(np.int64)),
            "contaminated": pa.array(n_matched > 0),
        })

    side = bench.map_batches(bench_grams, batch_format="pyarrow")
    return lookup(ds, side, "gram", fold, explode=grams, row_key=key)


def normalize_text(ds: Any, col: str = "text", form: str = "NFC",
                   strip_control: bool = True, squeeze_ws: bool = True,
                   out: str | None = None) -> Any:
    """Unicode + whitespace canonicalization — the standard first
    cleaning stage of a webtext pipeline (C4/CCNet normalize before
    dedup so byte-different-but-equal texts hash together): Unicode
    normal form (NFC default; NFKC for aggressive compatibility
    folding), C0/C1-control stripping, and ``\\s+`` -> single-space
    squeeze with space trim.

    The control/whitespace passes are vectorized RE2 kernels; the
    Unicode pass is ``unicodedata`` per row (C implementation) behind
    an ``is_normalized`` fast path that skips already-normal text —
    pyarrow's ``utf8_normalize`` is NOT used because (verified on
    16.1) it fails to canonically COMPOSE under NFC/NFKC
    (``e``+U+0301 stays decomposed), which breaks both the Unicode
    contract and dedup-by-hash equivalence.  RE2 ``\\s`` is
    ASCII-only, so exotic Unicode spaces (NBSP etc.) survive the
    squeeze deliberately: NFKC already folds the compatibility ones,
    and byte-level parity with the RE2-based DuckDB oracle holds on
    both engines."""
    import unicodedata

    import pyarrow.compute as pc

    o = out or col

    def f(batch: pa.Table) -> pa.Table:
        c = batch.column(col)
        if pa.types.is_null(c.type):
            c = c.cast(pa.large_string())
        t = pc.cast(c, pa.large_string()).combine_chunks()
        vals = t.to_pylist()
        if not all(v is None or unicodedata.is_normalized(form, v)
                   for v in vals):
            t = pa.array(
                [None if v is None else unicodedata.normalize(form, v)
                 for v in vals], pa.large_string())
        if strip_control:
            t = pc.replace_substring_regex(
                t, r"[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]", "")
        if squeeze_ws:
            t = pc.replace_substring_regex(t, r"\s+", " ")
            t = pc.utf8_trim(t, characters=" ")
        if o in batch.column_names:
            return batch.set_column(
                batch.column_names.index(o), o, t)
        return batch.append_column(o, t)

    return ds.map_batches(f, batch_format="pyarrow")


def fix_mojibake(ds: Any, col: str = "text", key: str = "doc_id",
                 out: str | None = None, max_passes: int = 3) -> Any:
    """Repair UTF-8-decoded-as-legacy-codepage text ("mojibake":
    ``café`` shipped as ``cafÃ©``) — the ftfy-style fixer every web
    corpus needs because upstream servers mislabel charsets.  Public
    algorithm (ftfy's core loop, R. Speer): re-encode the string
    through the legacy codepage (cp1252, falling back to latin-1 for
    the 5 unmapped C1 bytes) and strictly decode UTF-8; accept a pass
    only when the round-trip parses AND strictly shrinks the text
    (real mojibake always shrinks — multi-byte sequences collapse);
    repeat for double-encoded input up to ``max_passes``.

    Scale shape: a vectorized RE2 prefilter (``[ÃÂÐÑ×]|â€``) selects
    suspect rows; the Python repair loop touches ONLY those (web
    corpora: a few % of rows), everything else passes through
    zero-copy.  Map-only, no shuffle, no state.

    Output: input columns with ``out`` (default: in-place) repaired +
    ``mojibake_passes`` (int8 — 0 = untouched).
    """
    import numpy as np
    import pyarrow.compute as pc

    o = out or col
    # bytes 0x81 0x8D 0x8F 0x90 0x9D have no cp1252 mapping; latin-1
    # maps them to the C1 controls the double-encoding actually
    # produced (same table ftfy's sloppy-windows-1252 uses)
    def _reencode(s: str) -> bytes:
        try:
            return s.encode("cp1252")
        except UnicodeEncodeError:
            return s.encode("latin-1")

    def _fix_one(s: str) -> tuple[str, int]:
        n = 0
        for _ in range(max_passes):
            try:
                b = _reencode(s)
                t = b.decode("utf-8")
            except (UnicodeEncodeError, UnicodeDecodeError):
                break
            if len(t) >= len(s):
                break
            s, n = t, n + 1
        return s, n

    def f(batch: pa.Table) -> pa.Table:
        t = pc.cast(pc.coalesce(batch.column(col), ""),
                    pa.large_string()).combine_chunks()
        suspect = pc.match_substring_regex(
            t, "[ÃÂÐÑ×]|â€") \
            .to_numpy(zero_copy_only=False)
        passes = np.zeros(batch.num_rows, dtype=np.int8)
        if suspect.any():
            vals = t.to_pylist()
            for i in np.flatnonzero(suspect):
                vals[i], passes[i] = _fix_one(vals[i])
            t = pa.array(vals, pa.large_string())
        if o in batch.column_names:
            batch = batch.set_column(batch.column_names.index(o), o, t)
        else:
            batch = batch.append_column(o, t)
        return batch.append_column("mojibake_passes",
                                   pa.array(passes))

    return ds.map_batches(f, batch_format="pyarrow")


def self_dup_ngram_stats(ds: Any, n: int = 13, col: str = "text",
                         key: str = "doc_id",
                         hashed: bool = True) -> Any:
    """Corpus-INTERNAL duplicated-substring signal (Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better": long
    n-grams appearing in more than one document mark boilerplate /
    templated / copied passages).  Per doc: ``(key, n_grams,
    n_dup)`` — distinct word ``n``-grams in the doc, and how many of
    those occur in at least one OTHER document.

    Scale shape: only ``(key, gram)`` pairs ride the shuffles, never
    documents.  With ``hashed=True`` (the 100-TB path) grams travel
    as uint64 hashes — 8 bytes instead of ~13 words of text per row;
    a 64-bit collision inflates ``n_dup`` by at most the collision
    count (~n_grams²/2⁶⁴ corpus-wide), which is noise for a signal
    column.  ``hashed=False`` keeps exact strings (the oracle path;
    a pytest asserts both agree on test data).  Three exchanges:
    gram multiplicity groupby, the semi-join back, and the per-doc
    count — all slim."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from .joins import field_type, hash_join, schema_guard

    def gram_col(g_str):
        if hashed:
            # int64 view of the 64-bit hash: Ray 2.49's hash
            # aggregate round-trips uint64 keys through pickled
            # Python objects, int64 stays native
            return pa.array(
                pd.util.hash_array(np.asarray(g_str, dtype=object))
                .astype(np.uint64).view(np.int64))
        return pa.array(list(g_str), pa.large_string())

    def doc_grams(batch: pa.Table) -> pa.Table:
        g_doc, g_str = _distinct_grams(batch, col, n)
        keys = batch.column(key).take(pa.array(g_doc, pa.int64()))
        return pa.table({key: keys, "gram": gram_col(g_str)})

    def totals(batch: pa.Table) -> pa.Table:
        g_doc, _ = _distinct_grams(batch, col, n)
        cnt = np.bincount(g_doc, minlength=len(batch)) \
            .astype(np.int64)
        return pa.table({key: batch.column(key),
                         "n_grams": pa.array(cnt)})

    # materialize: THREE consumers share this lineage (multiplicity
    # groupby, the semi-join's left side, totals) and the dup side of
    # the join nests it again — left lazy, Ray re-executes the gram
    # explode per consumer (measured 121s -> 27s at sf0.1/32cpu).
    # The rows are the op's slim (key, gram-hash) exchange currency;
    # object-store residency (with spill) is their natural home.
    pairs = ds.map_batches(doc_grams, batch_format="pyarrow") \
        .materialize()
    # grams in >= 2 docs (pairs are distinct-per-doc, so the count IS
    # the distinct-doc multiplicity)
    dup = pairs.groupby("gram").aggregate(Count(alias_name="__m"))
    gtype = pa.int64() if hashed else pa.large_string()

    def dup_only(t: pa.Table) -> pa.Table:
        # the aggregate emits schema-less empty blocks; short-circuit
        # them to a TYPED empty table (Ray 2.49 empty-block trap)
        if "gram" not in t.column_names or t.num_rows == 0:
            return pa.table({"gram": pa.array([], gtype)})
        kept = t.filter(pc.greater(t.column("__m"), 1))
        # groupby may narrow large_string -> string; re-align the key
        # type with the pairs side or the join raises ArrowInvalid
        return pa.table({"gram": pc.cast(kept.column("gram"), gtype)})

    ktype2 = field_type(ds, key)
    # schema_guard: an all-unique corpus leaves `dup` and `hits`
    # all-empty, and a schema-less side would drop the join's `_r`
    # columns — both are inner/left right-sides, so the guards' null
    # sentinels never surface downstream
    dup = schema_guard(
        dup.map_batches(dup_only, batch_format="pyarrow"),
        pa.schema([("gram", gtype)]))
    hits = schema_guard(
        hash_join(pairs, dup.map_batches(
            lambda t: t.append_column("__d", pa.array(
                np.ones(t.num_rows, dtype=np.int8))),
            batch_format="pyarrow"), "gram")
        .groupby(key).aggregate(Count(alias_name="n_dup")),
        pa.schema([(key, ktype2), ("n_dup", pa.int64())]))
    tot = ds.map_batches(totals, batch_format="pyarrow")
    out = hash_join(tot, hits, key, how="left")

    def shape(batch: pa.Table) -> pa.Table:
        nd = pc.cast(pc.coalesce(pc.cast(
            batch.column("n_dup_r"), pa.float64()), 0.0), pa.int64())
        return pa.table({key: batch.column(key),
                         "n_grams": pc.cast(batch.column("n_grams"),
                                            pa.int64()),
                         "n_dup": nd})

    return out.map_batches(shape, batch_format="pyarrow")
