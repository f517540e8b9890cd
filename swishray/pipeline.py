"""Ray Data pipelines: the engine's distributed surface.

Flagship graph (SURVEY.md §7.2):

    pages = ray.data.read_parquet(path)     # url, warc_ts, html, text, lang
    extract_pages(pages)                    # ExtractPages, one warm
                                            #   libxml2 + config +
                                            #   tokenizer per worker
      .write_parquet(out)                   # or downstream aggregates

Scale design notes (SURVEY.md §4):
  * the extractor is a CALLABLE CLASS run as Ray tasks through
    util.map_batches_stateful; config/libxml2/chartables are built
    once per worker process and reused by every later batch
    (swish_3 equivalent)
  * tasks are sized at run time (util.task_rows): from the input's
    rows and bytes as Ray knows them before the stage runs, one task
    per CPU, or more when a task would read over util.TASK_BYTES;
    each task is about one ExtractPages call. batch_size is the rows
    per task only when Ray does not know the input's size
  * batches are Arrow in / Arrow out; the per-document parse is
    necessarily row-oriented (SAX), but each row's tokens, text and
    named buffers are written once, in C, into the batch's record
    arena, whose buffers become the Arrow columns (ExtractPages)
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
import pyarrow.compute as pc

from . import _native, constants as C, tokenizer
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
    downstream (extractor._prelude) can skip the scan for views.
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


def _large_utf8(n: int, offsets: pa.Buffer, data: pa.Buffer,
                utf8: bool = False) -> pa.Array:
    """A large_string column of ``n`` rows over int64 ``offsets`` and
    ``data``, each row decoded as ``v.decode("utf-8", "replace")``
    would: the buffers are used as they are, and only a batch that
    fails UTF-8 validation is decoded row by row. ``utf8``: the data
    is known to be strict UTF-8 (the record arena checked it as it
    wrote it), so only the offsets are validated."""
    arr = pa.Array.from_buffers(pa.large_string(), n, [None, offsets, data])
    if utf8:
        arr.validate()
        return arr
    try:
        arr.validate(full=True)
    except pa.ArrowInvalid:
        arr = pa.array([v.decode("utf-8", "replace") for v in
                        arr.view(pa.large_binary()).to_pylist()],
                       pa.large_string())
    return arr


def _utf8_column(values: list[bytes]) -> pa.Array:
    """``values`` as a large_string column (``_large_utf8``): the
    joined bytes become the column's data buffer."""
    offs = np.zeros(len(values) + 1, np.int64)
    np.cumsum([len(v) for v in values], out=offs[1:])
    return _large_utf8(len(values), pa.py_buffer(offs),
                       pa.py_buffer(b"".join(values)))


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


# one row's (meta, context, count) runs: its tokens' metanames and
# contexts, ``count`` tokens each, in token order
_RUN_TYPE = pa.struct([("meta", pa.string()), ("context", pa.string()),
                       ("count", pa.int32())])


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


def _token_lists(parts: list) -> dict[str, Any]:
    """The token columns from their row-boundary chunks: each part is
    ``(rows, {name: (row_offsets, child)})``, each list's int32 offsets
    buffer and child array by name."""
    cols: dict[str, list] = {}
    for rows, children in parts:
        for name, (row_offs, child) in children.items():
            cols.setdefault(name, []).append(pa.Array.from_buffers(
                pa.list_(child.type), rows, [None, row_offs],
                children=[child]))
    return {k: v[0] if len(v) == 1 else pa.chunked_array(v)
            for k, v in cols.items()}


def token_columns(tokens: list) -> dict[str, Any]:
    """The ``emit="full"`` token columns of a batch, one row per
    ``TokenList``, built from the lists' arena chunks: the batch's
    value bytes, lengths and positions are each joined once and become
    Arrow buffers, with no per-token Python object. This is the
    reference route; a batch with a record arena builds the same
    columns in ``_arena_columns``.

    ``token_values`` is ``list<binary>``, ``token_positions``
    ``list<uint32>``, ``token_runs`` ``list<struct<meta: string,
    context: string, count: int32>>`` (each list's ``runs``). Each is
    one array, or a ``ChunkedArray`` split at row boundaries when the
    batch's token bytes or count pass the int32 offset range."""
    toffs = np.zeros(len(tokens) + 1, np.int64)
    np.cumsum([len(tl) for tl in tokens], out=toffs[1:])
    values = pa.py_buffer(b"".join(c for tl in tokens
                                   for c in tl.value_chunks))
    lens = np.frombuffer(b"".join(c for tl in tokens
                                  for c in tl.len_chunks), np.int32)
    positions = pa.py_buffer(b"".join(c for tl in tokens
                                      for c in tl.pos_chunks))
    runs = [r for tl in tokens for r in tl.runs]
    run_arr = pa.StructArray.from_arrays(
        [pa.array([r[k] for r in runs], f.type)
         for k, f in enumerate(_RUN_TYPE)], fields=list(_RUN_TYPE))
    roffs = np.zeros(len(tokens) + 1, np.int64)
    np.cumsum([len(tl.runs) for tl in tokens], out=roffs[1:])
    voffs = np.zeros(len(lens) + 1, np.int64)
    np.cumsum(lens, out=voffs[1:])

    parts = []
    bounds = _row_chunks(voffs[toffs], toffs)
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        t0, t1 = int(toffs[r0]), int(toffs[r1])
        b0, b1 = int(voffs[t0]), int(voffs[t1])
        u0, u1 = int(roffs[r0]), int(roffs[r1])
        rows = pa.py_buffer((toffs[r0:r1 + 1] - t0).astype(np.int32))
        parts.append((r1 - r0, {
            "token_values": (rows, pa.Array.from_buffers(
                pa.binary(), t1 - t0,
                [None,
                 pa.py_buffer((voffs[t0:t1 + 1] - b0).astype(np.int32)),
                 values.slice(b0, b1 - b0)])),
            "token_positions": (rows, pa.Array.from_buffers(
                pa.uint32(), t1 - t0,
                [None, positions.slice(4 * t0, 4 * (t1 - t0))])),
            "token_runs": (pa.py_buffer(
                (roffs[r0:r1 + 1] - u0).astype(np.int32)),
                run_arr.slice(u0, u1 - u0))}))
    return _token_lists(parts)


def _arena_columns(arena, emit: str) -> dict[str, Any]:
    """``title``, ``text`` and, by ``emit``, the map and token columns
    of a batch's record arena: ``arena.finish()``'s buffers (layout in
    the header of _native/swishtok.c) become the arrays' buffers as
    they are. Only the per-chunk slices are made here."""
    n, utf8, title, text, metanames, properties, tokens = arena.finish()
    buf = pa.py_buffer
    cols = {"title": _large_utf8(n, buf(title[0]), buf(title[1]), utf8[0]),
            "text": _large_utf8(n, buf(text[0]), buf(text[1]), utf8[0])}
    if emit in ("buffers", "full"):
        for name, (entries, key_offs, keys, val_offs, vals), ok in (
                ("metanames", metanames, utf8[0]),
                ("properties", properties, utf8[1])):
            m = len(key_offs) // 4 - 1
            cols[name] = pa.MapArray.from_arrays(
                pa.Array.from_buffers(pa.int32(), n + 1, [None, buf(entries)]),
                pa.Array.from_buffers(pa.string(), m,
                                      [None, buf(key_offs), buf(keys)]),
                _large_utf8(m, buf(val_offs), buf(vals), ok), type=_MAP_TYPE)
    if emit != "full":
        return cols
    chunks, values, ends, positions, rows, runs = tokens
    values, ends, positions, rows = map(buf, (values, ends, positions, rows))
    run_rows, counts, meta_offs, metas, ctx_offs, ctxs = map(buf, runs)
    m = len(counts) // 4
    run_arr = pa.StructArray.from_arrays(
        [pa.Array.from_buffers(pa.string(), m, [None, meta_offs, metas]),
         pa.Array.from_buffers(pa.string(), m, [None, ctx_offs, ctxs]),
         pa.Array.from_buffers(pa.int32(), m, [None, counts])],
        fields=list(_RUN_TYPE))
    parts = []
    # chunk c's offsets start with its own leading 0: c slots in
    for c, (r0, r1, t0, t1, b0, b1, u0, u1) in enumerate(chunks):
        row_slots = (4 * (r0 + c), 4 * (r1 - r0 + 1))
        token_rows = rows.slice(*row_slots)
        parts.append((r1 - r0, {
            "token_values": (token_rows, pa.Array.from_buffers(
                pa.binary(), t1 - t0,
                [None, ends.slice(4 * (t0 + c), 4 * (t1 - t0 + 1)),
                 values.slice(b0, b1 - b0)])),
            "token_positions": (token_rows, pa.Array.from_buffers(
                pa.uint32(), t1 - t0,
                [None, positions.slice(4 * t0, 4 * (t1 - t0))])),
            "token_runs": (run_rows.slice(*row_slots),
                           run_arr.slice(u0, u1 - u0))}))
    cols.update(_token_lists(parts))
    return cols


_DOCINFO_FIELDS = [
    ("url", pa.string()),
    ("mime", pa.string()),
    ("parser", pa.string()),
    ("encoding", pa.string()),
    ("ext", pa.string()),
    ("size", pa.int64()),
    ("nwords", pa.int32()),
    ("error", pa.string()),
]
_TOKEN_COLUMNS = ("token_values", "token_positions", "token_runs")


def _extract_columns(ex: DocumentExtractor, batch: pa.Table, emit: str,
                     cap: int, arena) -> dict[str, Any]:
    """The output columns of ``ExtractPages`` for ``batch``, through the
    record ``arena`` (a fresh ``swishtok.Arena``), or with None through
    the reference route: per-row records joined by ``_utf8_column``,
    ``_map_column`` and ``token_columns``. Both routes keep a record's
    ``swishdefault`` buffer only as ``text``, not in ``metanames``."""
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

    cols: dict[str, list] = {k: [] for k, _ in _DOCINFO_FIELDS}
    records = []
    for i in range(n):
        url = urls[i]
        body = htmls[i] or b""
        truncated = False
        if len(body) > cap:
            body = body[:cap]
            truncated = True
        rec = ex.extract(url, body, mime=mimes[i], parser=parsers[i],
                         arena=arena)
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
        if arena is None:
            records.append(rec)

    arrays: dict[str, Any] = {name: pa.array(cols[name], type=typ)
                              for name, typ in _DOCINFO_FIELDS}
    if arena is not None:
        arrays.update(_arena_columns(arena, emit))
        return arrays
    arrays["title"] = _utf8_column(
        [r.metanames.get(C.TITLE_METANAME, b"") for r in records])
    arrays["text"] = _utf8_column(
        [r.metanames[C.DEFAULT_METANAME] for r in records])
    if emit in ("buffers", "full"):
        arrays["metanames"] = _map_column(
            [{k: v for k, v in r.metanames.items()
              if k != C.DEFAULT_METANAME} for r in records])
        arrays["properties"] = _map_column([r.properties for r in records])
    if emit == "full":
        arrays.update(token_columns([r.tokens for r in records]))
    return arrays


class ExtractPages:
    """Batch extractor, one cached instance per worker process.

    Parameters are picklable; heavy state (libxml2 bindings, compiled
    regexes, glibc tables) initializes lazily in the worker process on
    first __call__ via DocumentExtractor.

    Output columns, one row per input row: ``OUTPUT_BASE_FIELDS``
    always; with ``emit="buffers"`` or ``"full"`` also ``metanames``
    and ``properties`` (``map<string, large_string>``; the
    ``swishdefault`` buffer, which every record has, is stored once,
    as ``text``, not in ``metanames``); with ``emit="full"`` also the
    token stream, ``token_values: list<binary>`` and
    ``token_positions: list<uint32>`` per token and ``token_runs:
    list<struct<meta: string, context: string, count: int32>>``, the
    row's runs of tokens that share a metaname and context (built by
    ``token_columns``); then ``keep_input_columns`` unchanged, none of
    which may have an output column's name. ``expand_record`` gives
    the per-token metaname/context lists and the whole map back.

    Each batch is extracted into one record arena (``_arena``,
    swishtok's ``Arena``): every row goes once through
    ``DocumentExtractor.extract``, which writes it into the arena, and
    the arena's buffers become the output columns. Without the
    checked arena, the records are joined into columns instead.
    """

    OUTPUT_BASE_FIELDS = _DOCINFO_FIELDS + [
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
        out = [k for k, _ in self.OUTPUT_BASE_FIELDS]
        if emit in ("buffers", "full"):
            out += ["metanames", "properties"]
        if emit == "full":
            out += _TOKEN_COLUMNS
        for k in self.keep_input_columns:
            if k in out:
                raise ValueError(
                    f"keep_input_columns: {k!r} is an output column of "
                    f"emit={emit!r}")
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
        # sized to the batch's bodies, the arena seldom grows
        arena = (_arena.Arena(_MAX_INT32_OFFSET, batch.column("html").nbytes)
                 if _arena is not None else None)
        arrays = _extract_columns(self._extractor(), batch, self.emit,
                                  self.max_doc_bytes, arena)
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
    (``util.map_batches_stateful``), each about one ``ExtractPages``
    call.

    Rows per task come from ``util.task_rows``: when Ray knows the
    input's rows and bytes before the stage runs (a materialized or
    ``from_arrow`` dataset, ``read_parquet``), ``cpus * ceil(bytes /
    (util.TASK_BYTES * cpus))`` tasks, never more than rows, so every
    CPU gets work and a task's output stays under Ray's block size.
    ``batch_size`` is the rows per task only when the size is unknown
    (after a lazy ``map_batches``). Output rows and values do not
    depend on the task size.

    ``emit`` picks the output schema (``ExtractPages``): ``"text"``
    gives the docinfo fields, ``title`` and ``text``; ``"buffers"``
    adds the ``metanames`` (without ``swishdefault``, which is
    ``text``) and ``properties`` maps; ``"full"`` adds the token
    stream, ``token_values: list<binary>``, ``token_positions:
    list<uint32>`` and the per-row run table ``token_runs:
    list<struct<meta: string, context: string, count: int32>>``.
    ``expand_record`` rebuilds the per-token shape."""
    from .util import map_batches_stateful, task_rows
    fn_kwargs = dict(config_xml=config_xml, swish_encoding=swish_encoding,
                     emit=emit, keep_input_columns=keep_input_columns,
                     xinclude_docs=xinclude_docs)
    return map_batches_stateful(
        ds, ExtractPages,
        fn_constructor_kwargs=fn_kwargs,
        batch_format="pyarrow",
        batch_size=task_rows(ds, batch_size),
        zero_copy_batch=True,
    )


def _expand_runs(runs: pa.ListArray) -> tuple[pa.Array, pa.Array]:
    """One ``token_runs`` chunk as per-token ``list<string>`` metanames
    and contexts: each run's labels repeated ``count`` times."""
    offs = runs.offsets.to_numpy()
    flat = pc.list_flatten(runs)
    counts = flat.field("count").to_numpy()
    ends = np.zeros(len(counts) + 1, np.int64)
    np.cumsum(counts, out=ends[1:])
    row_ends = pa.array(ends[offs - offs[0]].astype(np.int32))
    idx = pa.array(np.repeat(np.arange(len(counts)), counts))
    return tuple(pa.ListArray.from_arrays(row_ends,
                                          flat.field(f).take(idx))
                 for f in ("meta", "context"))


def expand_record(table: pa.Table) -> pa.Table:
    """``ExtractPages`` output in the per-token shape of an
    ``ExtractionRecord``: ``token_runs`` becomes ``token_metas`` and
    ``token_contexts`` (``list<string>``, one label per token), and
    ``metanames`` gets its ``swishdefault`` entry back from ``text``.
    Every other column is kept; a table without those columns comes
    back as it is."""
    cols: dict[str, Any] = {}
    for name in table.column_names:
        col = table.column(name)
        if name == "token_runs":
            parts = [_expand_runs(ch) for ch in col.chunks]
            for i, out in enumerate(("token_metas", "token_contexts")):
                cols[out] = pa.chunked_array([p[i] for p in parts],
                                             pa.list_(pa.string()))
        elif name == "metanames":
            # the record holds swishdefault first: the config's first
            # metaname
            cols[name] = pa.array(
                [[(C.DEFAULT_METANAME, t)] + m for m, t in
                 zip(col.to_pylist(), table.column("text").to_pylist())],
                _MAP_TYPE)
        else:
            cols[name] = col
    return pa.table(cols)


# ---- downstream operators over extraction output ----------------------

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


def _arena_selftest(tok) -> bool:
    """``tok``'s record arena must give the reference route's
    ``emit="full"`` table, every row replayed into a TokenList, on a
    batch of every kind of row (HTML and XML through the machine, one
    it declines, TXT, latin1, gzip, NUL, empty and null), both whole
    and split into row chunks."""
    import gzip

    rows = [
        b"<html><head><title>T t</title><meta name=keywords "
        b"content='k w'></head><body><p>Hello <b>World</b></p></body>"
        b"</html>",
        b"<?xml version='1.0'?><doc><title>x</title><item>one two</item>"
        b"</doc>",
        "café plain".encode(), b"latin1 caf\xe9",
        gzip.compress(b"<p>zipped words</p>"), b"<p>nul\x00row</p>", b"",
        None, "<doc><él>y</él>z</doc>".encode(),
        b"<p>" + b"Alpha beta <b>gamma</b> delta. " * 9 + b"</p>"]
    exts = ["html", "xml", "txt", "txt", "html.gz", "html", "html", "html",
            "xml", "html"]
    batch = pa.table({
        "url": [f"https://s.example/{i}.{e}" for i, e in enumerate(exts)],
        "html": pa.array(rows, pa.binary())})
    ex = DocumentExtractor(swish_encoding="ISO-8859-1")
    ref = DocumentExtractor(swish_encoding="ISO-8859-1")
    ref.machine = None  # every row replays into a TokenList
    want = pa.table(_extract_columns(ref, batch, "full", C.MAX_FILE_LEN,
                                     None))
    # 256: no row's tokens pass it, the batch's do
    for limit in (_MAX_INT32_OFFSET, 256):
        got = pa.table(_extract_columns(ex, batch, "full", C.MAX_FILE_LEN,
                                        tok.Arena(limit)))
        if not got.equals(want):
            return False
    return True


# swishtok's checked build, when its record arena passed
# _arena_selftest; None: batches take the reference route
_arena = _native.checked(tokenizer._native, _arena_selftest)
