"""Ray Data pipelines: the engine's distributed surface.

Flagship graph (SURVEY.md §7.2):

    pages = ray.data.read_parquet(path)     # url, warc_ts, html, text, lang
    extract_pages(pages, batch_size=B)      # ExtractPages, one warm
                                            #   libxml2 + config +
                                            #   tokenizer per worker
      .write_parquet(out)                   # or downstream aggregates

Scale design notes (SURVEY.md §4):
  * the extractor is a CALLABLE CLASS run as Ray tasks through
    util.map_batches_stateful; config/libxml2/chartables are built
    once per worker process and reused by every later batch
    (swish_3 equivalent)
  * batches are Arrow in / Arrow out; the per-document parse is
    necessarily row-oriented (SAX), but all column assembly is
    vectorized and the tokenizer is regex-at-C-speed
  * per-row failures land in the `error` column — a bad page never
    kills the job (reference recovers/warns, parser.c:1393-1447)
  * oversized html blobs are truncated at MAX_FILE_LEN with an error
    flag (io.c:118-123 caps at 100 MB)
  * outputs partition by url-hash bucket so a rerun can skip finished
    partitions (manifest.py)
"""

from __future__ import annotations

from typing import Any, Literal

import numpy as np
import pyarrow as pa

from . import constants as C
from .config import Config
from .extractor import DocumentExtractor


def _binary_views(col) -> list:
    """Per-row ZERO-COPY views of a binary column: memoryview slices
    into the Arrow data buffers (b"" for nulls), instead of
    ``to_pylist()``'s full copy of every blob into Python bytes.
    Memory bandwidth is this box's proven extraction ceiling past 16
    workers (BASELINE.md) — eliminating one full pass over every
    HTML body is the cheapest remaining win.

    Contract: a memoryview row is guaranteed NUL-FREE — rows that
    contain a NUL byte (where the reference's no_nulls scrub must
    run, io.c:43-73) are detected with ONE vectorized kernel and
    materialized to bytes so the scrub path sees them; everything
    downstream (extractor._docparse) can skip the scan for views.
    The scan is one pass over each chunk's data between its first and
    last offsets; its hits map to rows by offset."""
    if isinstance(col, pa.ChunkedArray):
        chunks = col.chunks
    else:
        chunks = [col]
    out: list = []
    for ch in chunks:
        n = len(ch)
        if n == 0:
            continue
        wide = (pa.types.is_large_binary(ch.type)
                or pa.types.is_large_string(ch.type))
        off_dt = np.int64 if wide else np.int32
        bufs = ch.buffers()
        offs = np.frombuffer(bufs[1], off_dt,
                             n + 1, ch.offset * off_dt(0).nbytes)
        # toreadonly: PyArg y# rejects writable views (Arrow buffers
        # are mutable); a read-only view is still zero-copy
        data = (memoryview(bufs[2]).toreadonly()
                if bufs[2] is not None else memoryview(b""))
        hn = np.zeros(n, bool)
        lo, hi = int(offs[0]), int(offs[n])
        if hi > lo:
            hits = np.flatnonzero(
                np.frombuffer(bufs[2], np.uint8, hi - lo, lo) == 0) + lo
            hn[np.searchsorted(offs, hits, "right") - 1] = True
        nulls = (ch.is_null().to_numpy(zero_copy_only=False)
                 if ch.null_count else None)
        for i in range(n):
            if nulls is not None and nulls[i]:
                out.append(b"")
            elif hn[i]:
                out.append(data[offs[i]:offs[i + 1]].tobytes())
            else:
                out.append(data[offs[i]:offs[i + 1]])
    return out


def _utf8_column(values: list[bytes]) -> pa.Array:
    """``values`` as a large_string column, each decoded as
    ``v.decode("utf-8", "replace")`` would: the joined bytes become
    the column's data buffer, and only a batch that fails UTF-8
    validation is decoded row by row."""
    offs = np.zeros(len(values) + 1, np.int64)
    np.cumsum([len(v) for v in values], out=offs[1:])
    arr = pa.Array.from_buffers(
        pa.large_string(), len(values),
        [None, pa.py_buffer(offs), pa.py_buffer(b"".join(values))])
    try:
        arr.validate(full=True)
    except pa.ArrowInvalid:
        arr = pa.array([v.decode("utf-8", "replace") for v in values],
                       pa.large_string())
    return arr


_MAP_TYPE = pa.map_(pa.string(), pa.large_string())


def _map_column(rows: list[dict[str, bytes]]) -> pa.Array:
    """``rows`` as a ``map<string, large_string>`` column, each value
    decoded as ``_utf8_column`` decodes it."""
    offs = np.zeros(len(rows) + 1, np.int32)
    np.cumsum([len(r) for r in rows], out=offs[1:])
    keys = [k for r in rows for k in r]
    values = [v for r in rows for v in r.values()]
    return pa.MapArray.from_arrays(
        pa.array(offs), pa.array(keys, pa.string()), _utf8_column(values),
        type=_MAP_TYPE)


# Largest byte or element count an int32 Arrow offset can address. A
# batch whose token stream is larger is split into several chunks.
_MAX_INT32_OFFSET = 2**31 - 1


def _dictionary_runs(labels: list[str], counts: np.ndarray) -> pa.Array:
    """``labels[i]`` repeated ``counts[i]`` times, dictionary-encoded
    with one dictionary for the batch (int32 indices: a tag-rich XML
    batch can exceed int16, and batches with mixed index widths do not
    concatenate)."""
    ids: dict[str, int] = {}
    idx = np.fromiter((ids.setdefault(s, len(ids)) for s in labels),
                      np.int32, len(labels))
    return pa.DictionaryArray.from_arrays(
        pa.array(np.repeat(idx, counts), pa.int32()),
        pa.array(list(ids), pa.string()))


def _row_chunks(vbounds: np.ndarray, tbounds: np.ndarray) -> list[int]:
    """Row boundaries ``[0, ..., n]`` such that no chunk's token bytes
    or token count passes ``_MAX_INT32_OFFSET``. ``vbounds`` and
    ``tbounds`` are the cumulative bytes and counts at each row
    boundary (``n + 1`` entries from 0)."""
    n = len(tbounds) - 1
    bounds = [0]
    while True:
        r0 = bounds[-1]
        r1 = int(min(
            np.searchsorted(vbounds, vbounds[r0] + _MAX_INT32_OFFSET,
                            "right"),
            np.searchsorted(tbounds, tbounds[r0] + _MAX_INT32_OFFSET,
                            "right"))) - 1
        if r1 <= r0 < n:
            raise OverflowError(
                f"row {r0}: its token stream passes the int32 offset "
                f"range ({_MAX_INT32_OFFSET})")
        bounds.append(r1)
        if r1 >= n:
            return bounds


def token_columns(tokens: list) -> dict[str, Any]:
    """The ``emit="full"`` token columns of a batch, one row per
    ``TokenList``, built from the lists' arena chunks: the batch's
    value bytes, lengths and positions are each joined once and become
    Arrow buffers, with no per-token Python object.

    ``token_values`` is ``list<binary>``, ``token_positions``
    ``list<uint32>``, ``token_metas``/``token_contexts``
    ``list<dictionary<int32, string>>``. Each is one array, or a
    ``ChunkedArray`` split at row boundaries when the batch's token
    bytes or count pass the int32 offset range."""
    toffs = np.zeros(len(tokens) + 1, np.int64)
    np.cumsum([len(tl) for tl in tokens], out=toffs[1:])
    values = pa.py_buffer(b"".join(c for tl in tokens
                                   for c in tl.value_chunks))
    lens = np.frombuffer(b"".join(c for tl in tokens
                                  for c in tl.len_chunks), np.int32)
    positions = pa.py_buffer(b"".join(c for tl in tokens
                                      for c in tl.pos_chunks))
    runs = [r for tl in tokens for r in tl.runs]
    run_counts = np.fromiter((r[2] for r in runs), np.int64, len(runs))
    dicts = {"token_metas": _dictionary_runs([r[0] for r in runs],
                                             run_counts),
             "token_contexts": _dictionary_runs([r[1] for r in runs],
                                                run_counts)}
    voffs = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=voffs[1:])

    cols: dict[str, list] = {}
    bounds = _row_chunks(voffs[toffs], toffs)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        t0, t1 = int(toffs[r0]), int(toffs[r1])
        b0, b1 = int(voffs[t0]), int(voffs[t1])
        row_offs = pa.py_buffer((toffs[r0:r1 + 1] - t0).astype(np.int32))
        children = {
            "token_values": pa.Array.from_buffers(
                pa.binary(), t1 - t0,
                [None,
                 pa.py_buffer((voffs[t0:t1 + 1] - b0).astype(np.int32)),
                 values.slice(b0, b1 - b0)]),
            "token_positions": pa.Array.from_buffers(
                pa.uint32(), t1 - t0,
                [None, positions.slice(4 * t0, 4 * (t1 - t0))]),
            **{name: arr.slice(t0, t1 - t0) for name, arr in dicts.items()}}
        for name, child in children.items():
            cols.setdefault(name, []).append(pa.Array.from_buffers(
                pa.list_(child.type), r1 - r0, [None, row_offs],
                children=[child]))
    return {k: v[0] if len(v) == 1 else pa.chunked_array(v)
            for k, v in cols.items()}


class ExtractPages:
    """Batch extractor, one cached instance per worker process.

    Parameters are picklable; heavy state (libxml2 bindings, compiled
    regexes, glibc tables) initializes lazily in the worker process on
    first __call__ via DocumentExtractor.

    Output columns, one row per input row: ``OUTPUT_BASE_FIELDS``
    always; with ``emit="buffers"`` or ``"full"`` also ``metanames``
    and ``properties`` (``map<string, large_string>``); with
    ``emit="full"`` also the token stream as four parallel lists,
    ``token_values: list<binary>``, ``token_positions: list<uint32>``,
    ``token_metas`` and ``token_contexts:
    list<dictionary<int32, string>>`` (built by ``token_columns``);
    then ``keep_input_columns`` unchanged.
    """

    OUTPUT_BASE_FIELDS = [
        ("url", pa.string()),
        ("mime", pa.string()),
        ("parser", pa.string()),
        ("encoding", pa.string()),
        ("ext", pa.string()),
        ("size", pa.int64()),
        ("nwords", pa.int32()),
        ("error", pa.string()),
        ("title", pa.large_string()),
        ("text", pa.large_string()),
    ]

    def __init__(self, config_xml: str | None = None,
                 swish_encoding: str = C.DEFAULT_ENCODING,
                 emit: Literal["text", "buffers", "full"] = "buffers",
                 max_doc_bytes: int = C.MAX_FILE_LEN,
                 keep_input_columns: tuple[str, ...] = (),
                 xinclude_docs=None):
        self.config_xml = config_xml
        self.swish_encoding = swish_encoding
        self.emit = emit
        self.max_doc_bytes = max_doc_bytes
        self.keep_input_columns = tuple(keep_input_columns)
        # XInclude doc map: {resolved_uri: bytes}, a plain dict or a
        # ray.ObjectRef to one (broadcast with ray.put once — fetched
        # once per worker when the extractor is built, never
        # re-shipped per batch)
        self.xinclude_docs = xinclude_docs
        self._ex: DocumentExtractor | None = None

    def _extractor(self) -> DocumentExtractor:
        if self._ex is None:
            cfg = Config.default()
            if self.config_xml:
                cfg.add(self.config_xml)
            resolver = None
            docs = self.xinclude_docs
            if docs is not None:
                import ray
                if isinstance(docs, ray.ObjectRef):
                    docs = ray.get(docs)
                resolver = docs.get
            self._ex = DocumentExtractor(cfg, self.swish_encoding,
                                         xinclude_resolver=resolver)
        return self._ex

    def __call__(self, batch: pa.Table) -> pa.Table:
        ex = self._extractor()
        urls = batch.column("url").to_pylist()
        htmls = _binary_views(batch.column("html"))
        n = len(urls)
        # optional per-row mime/parser overrides (the stdin-header
        # path: Content-Type / Parser-Type, docinfo.c:123-199)
        names = batch.column_names
        mimes = (batch.column("mime").to_pylist() if "mime" in names
                 else [None] * n)
        parsers = (batch.column("parser").to_pylist() if "parser" in names
                   else [None] * n)

        cols: dict[str, list] = {k: [] for k, _ in self.OUTPUT_BASE_FIELDS}
        emit_buffers = self.emit in ("buffers", "full")
        emit_tokens = self.emit == "full"
        maps = {"metanames": [], "properties": []} if emit_buffers else {}
        tokens = []

        cap = self.max_doc_bytes
        for i in range(n):
            url = urls[i]
            body = htmls[i] or b""
            truncated = False
            if len(body) > cap:
                body = body[:cap]
                truncated = True
            rec = ex.extract(url, body, mime=mimes[i], parser=parsers[i])
            di = rec.docinfo
            cols["url"].append(url)
            cols["mime"].append(di.mime)
            cols["parser"].append(di.parser)
            cols["encoding"].append(di.encoding)
            cols["ext"].append(di.ext)
            cols["size"].append(di.size)
            cols["nwords"].append(di.nwords)
            err = rec.error
            if truncated:
                err = f"truncated@{cap}" + (f";{err}" if err else "")
            cols["error"].append(err)
            cols["title"].append(rec.metanames.get(C.TITLE_METANAME, b""))
            cols["text"].append(rec.metanames.get(C.DEFAULT_METANAME, b""))
            if emit_buffers:
                maps["metanames"].append(rec.metanames)
                maps["properties"].append(rec.properties)
            if emit_tokens:
                tokens.append(rec.tokens)

        arrays: dict[str, pa.Array] = {}
        for name, typ in self.OUTPUT_BASE_FIELDS:
            arrays[name] = (_utf8_column(cols[name])
                            if typ == pa.large_string()
                            else pa.array(cols[name], type=typ))
        for name, rows in maps.items():
            arrays[name] = _map_column(rows)
        if emit_tokens:
            arrays.update(token_columns(tokens))
        for k in self.keep_input_columns:
            if k in batch.column_names:
                arrays[k] = batch.column(k)
        return pa.table(arrays)


def extract_pages(ds: "Any", *, config_xml: str | None = None,
                  swish_encoding: str = C.DEFAULT_ENCODING,
                  emit: Literal["text", "buffers", "full"] = "buffers",
                  batch_size: int = 64,
                  keep_input_columns: tuple[str, ...] = (),
                  xinclude_docs=None) -> "Any":
    """The flagship stage: Dataset of pages -> Dataset of extraction
    records. Tasks with warm per-worker parser state
    (``util.map_batches_stateful``); small batch_size because rows are
    whole web pages (memory-aware batching, SURVEY.md §4).

    ``emit`` picks the output schema (``ExtractPages``): ``"text"``
    gives the docinfo fields, ``title`` and ``text``; ``"buffers"``
    adds the ``metanames``/``properties`` maps; ``"full"`` adds the
    token stream, ``token_values: list<binary>``, ``token_positions:
    list<uint32>``, ``token_metas``/``token_contexts:
    list<dictionary<int32, string>>``."""
    from .util import map_batches_stateful
    fn_kwargs = dict(config_xml=config_xml, swish_encoding=swish_encoding,
                     emit=emit, keep_input_columns=keep_input_columns,
                     xinclude_docs=xinclude_docs)
    return map_batches_stateful(
        ds, ExtractPages,
        fn_constructor_kwargs=fn_kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )


# ---- downstream operators over extraction output ----------------------

def total_word_count(extracted: "Any") -> int:
    """§2.5 twords: global sum of nwords (swish_lint.c:50,152,346)."""
    return extracted.sum("nwords")


def files_parsed_count(extracted: "Any") -> int:
    """§2.5 files-parsed counter."""
    return extracted.count()


def facet_counts(extracted: "Any", prop: str) -> "Any":
    """§2.5 FacetFinder (swish_xapian.cpp:224-276): property value ->
    count over the result set, values split on \\x03."""

    def explode(batch: pa.Table) -> pa.Table:
        vals = []
        col = batch.column(prop).to_pylist()
        for v in col:
            if not v:
                continue
            vals.extend(v.split("\x03"))
        return pa.table({"value": pa.array(vals, type=pa.string())})

    ds = extracted.map_batches(explode, batch_format="pyarrow")
    return ds.groupby("value").count()


def facet_counts_property(extracted: "Any", prop: str) -> "Any":
    """§2.5 FacetFinder over the properties MAP column: each \\x03-split
    value of the named property counts once per document."""
    def explode(batch: pa.Table) -> pa.Table:
        vals = []
        for m in batch.column("properties").to_pylist():
            d = dict(m) if not isinstance(m, dict) else m
            v = d.get(prop)
            if v:
                vals.extend(v.split("\x03"))
        return pa.table({"value": pa.array(vals, type=pa.string())})

    from ray.data.aggregate import Count
    ds = extracted.map_batches(explode, batch_format="pyarrow")
    return ds.groupby("value").aggregate(Count(alias_name="n"))


def project_properties(extracted: "Any", config: "Any",
                       props: "list[str] | None" = None,
                       prefix: str = "prop_") -> "Any":
    """§2.3 typed property projection — the engine analog of the
    Xapian sink's add_properties (swish_xapian.cpp:437-483):

      * multi-value \\x03 bumper joins become single spaces (the
        compiled-in SWISH_SPLIT_PROPERTIES branch, :458-473);
      * ``type="int"`` properties parse through the reference's strtol
        semantics (text.string_to_int, string.c:64-79) into an int64
        column — numeric sort order, the role
        ``Xapian::sortable_serialise`` plays at :476-482. Missing or
        empty values are null (the reference stores the raw empty
        string, which Xapian sorts before every serialized int, so
        nulls-first reproduces its order);
      * ``type="date"`` and ``type="string"`` stay strings — the
        reference sink has NO date branch; dates are stored verbatim.

    Property declarations and types come from ``Config.properties``
    (header.c:474-541). A downstream ``ds.sort(prefix+name)`` then
    sorts INT properties numerically — the r2 gap where the uniform
    ``map<string,string>`` column sorted "10" before "5"."""
    from . import constants as C
    from .text import string_to_int

    names = list(props) if props is not None else \
        sorted(config.properties)
    types = {n: config.properties[n].type for n in names
             if n in config.properties}

    def project(batch: pa.Table) -> pa.Table:
        cols: dict[str, list] = {n: [] for n in names}
        for m in batch.column("properties").to_pylist():
            d = dict(m) if not isinstance(m, dict) else m
            for n in names:
                v = d.get(n)
                if v is not None:
                    v = v.replace("\x03", " ")
                if types.get(n) == C.PROP_TYPE_INT:
                    cols[n].append(string_to_int(v) if v else None)
                else:
                    cols[n].append(v)
        out = {c: batch.column(c) for c in batch.column_names
               if c != "properties"}
        for n in names:
            if types.get(n) == C.PROP_TYPE_INT:
                out[prefix + n] = pa.array(cols[n], type=pa.int64())
            else:
                out[prefix + n] = pa.array(cols[n], type=pa.large_string())
        return pa.table(out)

    return extracted.map_batches(project, batch_format="pyarrow")


def top_n_words(extracted: "Any", n: int = 20) -> "Any":
    """§2.5 countwords.pl: token -> (total count, doc count), sorted
    desc, limit N. Pre-aggregates per batch (vectorized in polars)
    before the shuffle so the groupby moves (token, partial_count)
    rows, not every token."""
    from .util import import_polars
    pl = import_polars()
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column("token_values")
        if batch.num_rows == 0:
            return pa.table({
                "token": pa.array([], type=pa.string()),
                "count_partial": pa.array([], type=pa.int64()),
                "docs_partial": pa.array([], type=pa.int64())})
        flat = pc.list_flatten(col.combine_chunks())
        lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        doc_ids = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        df = pl.DataFrame({
            "token": pl.from_arrow(flat.cast(pa.large_binary())),
            "doc": doc_ids,
        })
        agg = df.group_by("token").agg(
            pl.len().alias("count_partial"),
            pl.col("doc").n_unique().alias("docs_partial"))
        toks = [t.decode("utf-8", "replace") for t in agg["token"]]
        return pa.table({
            "token": pa.array(toks, type=pa.string()),
            "count_partial": pa.array(agg["count_partial"].cast(pl.Int64)
                                      .to_list(), type=pa.int64()),
            "docs_partial": pa.array(agg["docs_partial"].cast(pl.Int64)
                                     .to_list(), type=pa.int64()),
        })

    def combine(batch: pa.Table) -> pa.Table:
        # tree combine: sum partials within a repartitioned block so
        # the global groupby moves at most (distinct x n_blocks) rows
        df = pl.from_arrow(batch)
        agg = df.group_by("token").agg(
            pl.col("count_partial").sum(),
            pl.col("docs_partial").sum())
        return agg.to_arrow().cast(pa.schema([
            ("token", pa.string()),
            ("count_partial", pa.int64()),
            ("docs_partial", pa.int64())]))

    from ray.data.aggregate import Sum
    parts = extracted.map_batches(partial, batch_format="pyarrow")
    combined = parts.repartition(16).map_batches(combine,
                                                 batch_format="pyarrow")
    agg = combined.groupby("token").aggregate(
        Sum("count_partial", alias_name="total_count"),
        Sum("docs_partial", alias_name="doc_count"))
    return agg.sort("total_count", descending=True).limit(n)


def parse_sort_string(sort_string: str) -> list[tuple[str, bool]]:
    """§2.6 swish_stringlist_parse_sort_string (string.c:791-843):
    '--sort "prop1 asc prop2 desc"' normalization — a direction word
    after a property applies to it; missing direction defaults asc.
    Returns [(prop, descending), ...]."""
    words = sort_string.lower().split()
    out: list[tuple[str, bool]] = []
    i = 0
    while i < len(words):
        prop = words[i]
        i += 1
        desc = False
        if i < len(words) and words[i] in ("asc", "desc"):
            desc = words[i] == "desc"
            i += 1
        out.append((prop, desc))
    return out


def sort_by_string(ds: "Any", sort_string: str) -> "Any":
    """Multi-key result sort from a Swish-e sort string
    (swish_xapian.cpp:1036-1047)."""
    keys = parse_sort_string(sort_string)
    return ds.sort([k for k, _ in keys], descending=[d for _, d in keys])


def dedup_by_url(extracted: "Any") -> "Any":
    """§2.4 upsert-by-uri (swish_xapian.cpp:563-601) as a batch op.

    Keep-first is idempotent and associative, so a map-side combiner
    (drop duplicate urls within each batch) runs BEFORE any exchange:
    a hot url duplicated across the corpus contributes at most one row
    per input block, bounding both the bytes moved and the largest
    group to <= #blocks rows.

    The exchange itself is a :func:`~swishray.ops.joins.hash_exchange`
    on url (4x the default bucket count), not a groupby on the url
    itself: full extraction records cross the wire once and are never
    SORTED by their wide columns (the r2 shape sorted whole records by
    url — the sort, not the bytes, was the avoidable cost), and the
    collapse is one vectorized drop_duplicates per bucket instead of a
    Python head(1) per url. Partitioning assumption: one bucket's
    combined candidates (<= #blocks rows per url in it) fit a task
    heap."""
    import pandas as pd
    from .ops.joins import default_join_partitions, hash_exchange

    def keep_first(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(subset=["url"], keep="first")

    pre = extracted.map_batches(keep_first, batch_format="pandas")
    return hash_exchange(pre, "url", keep_first,
                         4 * default_join_partitions())
