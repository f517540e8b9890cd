"""CLI entry points mirroring the reference's programs (src/*.c):

  python -m swishray lint [-c conf] <file|dir|filelist|->...
      swish_lint: parse documents, print per-doc nwords + totals
  python -m swishray tokenize <string>...
      swish_tokenize: token counts + values per argument
  python -m swishray header <conf.xml>
      swish_header: read/merge/validate a config, write it back out
  python -m swishray extract --pages <parquet> --out <dir> [options]
      the Ray pipeline: pages table -> partitioned extraction records
  python -m swishray index --pages <parquet> --out <indexdir>
      swish_xapian -i analog: pages -> token streams -> segmented
      postings index (re-running upserts by url)
  python -m swishray search --index <indexdir> term... [--and] [-k N]
      swish_xapian -s analog: ranked lookup, no Ray session
      (-q: boolean query string — AND/OR/NOT, parens, "phrases",
       wildcard*, meta:term — the Xapian QueryParser surface)

Only `extract` and `index` start a Ray session; the others are pure
single-process (like the reference CLIs).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys



def _ray_init(num_cpus) -> bool:
    """Start or join a Ray session for a CLI command; returns True
    when THIS call started the session (the caller may then shut it
    down — never shut down a session someone else owns, e.g. the
    pytest fixture's or an embedding application's).

    Local runs (the default; RAY_ADDRESS unset or "local") start a
    capped local session. Under `ray job submit` / an existing
    cluster, RAY_ADDRESS points at it — connect as a driver and let
    the CLUSTER own its size (a per-CLI num_cpus cap would be
    meaningless there)."""
    import os

    import ray
    if ray.is_initialized():
        return False
    addr = os.environ.get("RAY_ADDRESS", "local") or "local"
    if addr == "local":
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    else:
        ray.init(address=addr, logging_level="ERROR")
    return True


@contextlib.contextmanager
def _ray_session(num_cpus):
    """The Ray session of a CLI command's body (``_ray_init``). On the
    way out, also when the body raises, a session it started is drained
    (``util.drain_ray_data``) and shut down; one it joined is left
    running."""
    started = _ray_init(num_cpus)
    try:
        yield
    finally:
        if started:
            import ray

            from .util import drain_ray_data
            drain_ray_data()
            ray.shutdown()


def cmd_lint(args) -> int:
    from .config import Config
    from .extractor import DocumentExtractor
    from .sources import is_skippable_line, iter_swish_stream

    cfg = Config.default()
    for c in args.config or []:
        cfg.add(c)
    ex = DocumentExtractor(cfg)
    twords = 0
    files = 0

    def one(uri: str, body: bytes, mime=None, parser=None):
        nonlocal twords, files
        rec = ex.extract(uri, body, mime=mime, parser=parser)
        if args.verbose:
            print(f"nwords: {rec.docinfo.nwords}")
        if rec.error:
            print(f"error: {uri}: {rec.error}", file=sys.stderr)
        twords += rec.docinfo.nwords
        files += 1

    for target in args.targets:
        if target == "-":
            for d in iter_swish_stream(sys.stdin.buffer.read()):
                one(d["url"], d["html"], d["mime"], d["parser"])
        elif os.path.isdir(target):
            for root, dirs, fs in os.walk(target):
                dirs[:] = [d for d in dirs if not d.startswith(".")]
                for f in sorted(fs):
                    if not f.startswith("."):
                        p = os.path.join(root, f)
                        with open(p, "rb") as fh:
                            one(p, fh.read())
        elif args.filelist:
            with open(target) as fh:
                for ln in fh:
                    if not is_skippable_line(ln):
                        p = ln.strip()
                        with open(p, "rb") as f2:
                            one(p, f2.read())
        else:
            with open(target, "rb") as fh:
                one(target, fh.read())
    print(f"{files} files parsed")
    print(f"total words: {twords}")
    return 0


def cmd_tokenize(args) -> int:
    from .tokenizer import TokenList, tokenize_into
    for s in args.strings:
        tl = TokenList()
        tokenize_into(tl, s.encode(), "swishdefault", "swishdefault")
        vals = b" ".join(tl.values).decode("utf-8", "replace")
        print(f"parsed {len(tl)} tokens: {vals}")
    return 0


_ISW_TYPES = ["alnum", "cntrl", "ideogram", "print", "special",
              "alpha", "digit", "lower", "punct", "upper",
              "blank", "graph", "phonogram", "space", "xdigit"]


def _iswctype_reporter():
    """glibc iswctype_l bound for the engine's authoritative locale
    (C.utf8) — the same libc calls swish_isw makes
    (src/swish_isw.c:103-119), so the reports agree byte for byte.
    Returns fn(cp, type_name) -> 0/1, or None when glibc symbols are
    unavailable (non-glibc host)."""
    import ctypes
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.newlocale.restype = ctypes.c_void_p
        libc.newlocale.argtypes = [ctypes.c_int, ctypes.c_char_p,
                                   ctypes.c_void_p]
        libc.wctype_l.restype = ctypes.c_ulong
        libc.wctype_l.argtypes = [ctypes.c_char_p, ctypes.c_void_p]
        libc.iswctype_l.argtypes = [ctypes.c_uint32, ctypes.c_ulong,
                                    ctypes.c_void_p]
        LC_CTYPE_MASK = 1  # glibc locale.h: 1 << LC_CTYPE
        loc = libc.newlocale(LC_CTYPE_MASK, b"C.utf8", None)
        if not loc:
            return None

        def rep(cp: int, typ: str) -> int:
            wt = libc.wctype_l(typ.encode(), loc)
            if not wt:  # class name unknown to this libc
                return 0
            return 1 if libc.iswctype_l(cp, wt, loc) else 0
        return rep
    except Exception:
        return None


def cmd_isw(args) -> int:
    """swish_isw analog (src/swish_isw.c:1-119): per decimal
    codepoint, report the 15 iswctype classes under the engine's
    locale, plus the tokenizer's own word-char verdict (the table
    the extraction path actually uses, _uniprops.WORD_RANGES)."""
    from .tokenizer import _is_word_cp
    rep = _iswctype_reporter()
    print("locale = C.utf8")
    for s in args.codepoints:
        n = int(s)
        ch = chr(n)
        print(f"{ch if ch.isprintable() else '?'}  {n}  0x{n:04x}")
        for t in _ISW_TYPES:
            v = rep(n, t) if rep is not None else "?"
            print(f"{t:>10} => {v}")
        print(f"{'word-char':>10} => {1 if _is_word_cp(n) else 0} "
              "(tokenizer WORD_RANGES)")
    return 0


def cmd_utf8(args) -> int:
    """swish_utf8 analog (src/swish_utf8.c:1-290): char-by-char UTF-8
    sequence report — byte length, raw bytes, codepoint, glibc
    lowercase (the LOWER_MAP parity table), class flags."""
    from .text import glibc_lower
    from .tokenizer import _is_word_cp
    rep = _iswctype_reporter()
    strings = list(args.strings)
    if args.file:
        with open(args.file, "rb") as f:
            strings.append(f.read().decode("utf-8", "replace"))
    for s in strings:
        low = glibc_lower(s)
        print(f"string: {s}")
        print(f"lower:  {low}")
        print("-" * 58)
        for ch in s:
            cp = ord(ch)
            bs = ch.encode("utf-8")
            hexs = " ".join(f"0x{b:02x}" for b in bs)
            flags = ([t for t in _ISW_TYPES if rep(cp, t)]
                     if rep is not None else [])
            word = "word" if _is_word_cp(cp) else "non-word"
            print(f"clen = {len(bs)} {hexs} -> {ch} [0x{cp:x}] [{cp}] "
                  f"lower={glibc_lower(ch)} {word} "
                  f"({' '.join(flags)})")
    return 0


def cmd_dump(args) -> int:
    """SWISH_DEBUG_NAMEDBUFFER-style per-record introspection
    (namedbuffer.c dumps / tools/golden_dump.c shape): one JSON line
    per document with docinfo, base64 buffers and the token stream —
    the engine-side twin of the reference's debug dumps, so records
    can be diffed directly against golden_dump output."""
    import base64
    import json

    from .config import Config
    from .extractor import DocumentExtractor

    cfg = Config.default()
    for c in args.config or []:
        cfg.add(c)
    if args.tokenize is not None:
        cfg.tokenize = bool(args.tokenize)
    if args.cascade:
        cfg.cascade_meta_context = True
    resolver = None
    if args.follow_xinclude:
        def resolver(uri):
            try:
                with open(uri, "rb") as f:
                    return f.read()
            except OSError:
                return None
    ex = DocumentExtractor(cfg, xinclude_resolver=resolver)
    for path in args.files:
        with open(path, "rb") as f:
            body = f.read()
        rec = ex.extract(path, body)
        di = rec.docinfo
        b64 = lambda b: base64.b64encode(bytes(b)).decode()
        out = {
            "uri": path, "nwords": di.nwords, "mime": di.mime,
            "parser": di.parser, "encoding": di.encoding, "ext": di.ext,
            "size": di.size, "error": rec.error,
            "metanames": {k: b64(v) for k, v in rec.metanames.items()},
            "properties": {k: b64(v) for k, v in rec.properties.items()},
            "tokens": [
                [pos, meta, ctx, b64(val), off, len(val)]
                for pos, meta, ctx, val, off in zip(
                    rec.token_positions, rec.token_metas,
                    rec.token_contexts, rec.token_values,
                    rec.token_offsets)
            ],
        }
        print(json.dumps(out))
    return 0


def cmd_header(args) -> int:
    from .config import Config
    cfg = Config.default().add(args.conf)
    print(cfg.to_xml())
    return 0


def cmd_extract(args) -> int:
    with _ray_session(args.num_cpus):
        import ray.data as rd
        from .manifest import write_partitioned
        from .pipeline import extract_pages

        pages = rd.read_parquet(args.pages)
        config_xml = None
        if args.config:
            with open(args.config[0]) as f:
                config_xml = f.read()
        if args.tiered:
            # crawl-mode cascade: content-sniff each body (pdf/html/txt,
            # gzip unwrap) instead of assuming every page is markup
            from .ops.tiered import tiered_extract
            ext = tiered_extract(pages, body_col="html", key="url",
                                 batch_size=args.batch_size)
        else:
            ext = extract_pages(pages, emit=args.emit,
                                config_xml=config_xml,
                                batch_size=args.batch_size)
        summary = write_partitioned(ext, args.out,
                                    num_buckets=args.num_buckets,
                                    resume=not args.no_resume)
        print(summary)
        return 0


def cmd_index(args) -> int:
    """swish_xapian's index mode analog (-i; handler->WritableDatabase
    upsert, swish_xapian.cpp:485-602): pages parquet -> extraction
    (emit="full" token streams) -> segmented postings index. Re-running
    over changed pages upserts (newer segment shadows by url)."""
    with _ray_session(args.num_cpus):
        import ray.data as rd
        from .index import build_index
        from .pipeline import extract_pages

        props = [c for c in (args.props or "").split(",") if c]
        if args.text_table:
            docs = rd.read_parquet(args.pages,
                                   columns=[args.key, args.text_col,
                                            *props])
            info = build_index(docs, args.out, key=args.key,
                               text_col=args.text_col,
                               num_buckets=args.num_buckets,
                               positions=args.positions,
                               prop_cols=props or None,
                               stemmer=args.stemmer)
        else:
            pages = rd.read_parquet(args.pages)
            config_xml = None
            if args.config:
                with open(args.config[0]) as f:
                    config_xml = f.read()
            ext = extract_pages(pages, emit="full", config_xml=config_xml,
                                batch_size=64)
            info = build_index(ext, args.out, key="url", text_col=None,
                               token_col="token_values",
                               meta_col="token_runs",
                               num_buckets=args.num_buckets,
                               positions=args.positions,
                               # extraction-record fields as stored
                               # properties (the reference's add_value
                               # slots: title/size/..., cpp:509-557)
                               prop_cols=props or None,
                               stemmer=args.stemmer)
        print(info)
        return 0


def cmd_compact(args) -> int:
    """xapian-compact analog: merge all segments into one, resolving
    upsert shadowing and tombstones with a distributed join."""
    with _ray_session(args.num_cpus):
        from .index import compact_index
        print(compact_index(args.index, num_buckets=args.num_buckets,
                            delete_old=args.delete_old))
        return 0


def cmd_search(args) -> int:
    """swish_xapian's search mode analog (-s; OP_AND query + ranked
    MSet, swish_xapian.cpp:954-1260): pure point lookup, no Ray
    session (like the reference's query client)."""
    from .index import IndexSearcher
    s = IndexSearcher(args.index)

    def boolq() -> str:
        # -L "prop low high" composes as AND-ed value-range filters
        # (the reference rewrites these through its
        # PropertyValueRangeProcessor on the same query)
        q = " ".join(args.terms)
        for spec in args.range or []:
            prop, lo, hi = spec.split()
            q = f"({q}) AND {prop}:{lo}..{hi}"
        return q

    if args.facet:
        # FacetFinder analog (swish_xapian -f): value counts over
        # the full boolean-query match set
        hits = s.facets(boolq(), args.facet)
        for row in hits.to_pylist():
            print(f"{row['value']} {row['count']}")
        return 0
    if args.format:
        # -x output template analog (build_output_format,
        # swish_xapian.cpp:786-858): <prop> placeholders + C escapes
        from .outputformat import render_output_format
        hits = s.search_query(boolq(), k=args.max,
                              ranking="bm25" if args.bm25 else "tf",
                              sort=args.sort, offset=args.begin)
        rows = hits.to_pylist()
        props = s.doc_properties([r["key"] for r in rows])
        for r in rows:
            r.update(props.get(r["key"], {}))
        sys.stdout.write(render_output_format(rows, args.format))
        return 0
    if args.query or args.sort or args.range:
        # boolean query string — the reference's Xapian QueryParser
        # surface (FLAG_BOOLEAN | FLAG_PHRASE | FLAG_WILDCARD +
        # metaname prefixes, swish_xapian.cpp:1022-1027); --sort
        # replaces relevance order with stored-property order
        # (MultiValueSorter, swish_xapian.cpp:1036-1047)
        hits = s.search_query(boolq(), k=args.max,
                              ranking="bm25" if args.bm25 else "tf",
                              sort=args.sort, offset=args.begin)
        for rank, row in enumerate(hits.to_pylist(), start=1):
            extra = "".join(
                f" {c}={row[c]}" for c in hits.column_names
                if c not in ("key", "score"))
            print(f"{rank} {row['key']} score={row['score']}{extra}")
        return 0
    if args.phrase:
        hits = s.search_phrase(args.terms, k=args.max, meta=args.meta)
        for rank, row in enumerate(hits.to_pylist(), start=1):
            print(f"{rank} {row['key']} occurrences={row['score']}")
        return 0
    hits = s.search(args.terms, mode="and" if args.and_ else "or",
                    k=args.max, meta=args.meta,
                    ranking="bm25" if args.bm25 else "tf")
    for rank, row in enumerate(hits.to_pylist(), start=1):
        print(f"{rank} {row['key']} score={row['score']} "
              f"matched={row['n_terms']}/{len(set(args.terms))}")
    return 0


def cmd_pipeline(args) -> int:
    """One-command training-data pipeline: pages parquet -> extract
    -> (optional) C4 clean -> Gopher filter -> corpus boilerplate
    line removal -> exact dedup -> MinHash near-dedup -> resumable
    partitioned parquet.  Every stage is an individually-oracled op;
    this composes them into one lazy plan per phase (the near-dedup
    pair generation and boilerplate census are the only stages that
    need their own passes)."""
    with _ray_session(args.num_cpus):
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data as rd
        from .manifest import write_partitioned
        from .pipeline import extract_pages

        stages = []
        # extraction joins block texts with the \x03 bumper
        # (SWISH_META_VALUES), not newlines — the line-based stages
        # (C4, Gopher line fractions, boilerplate) must split on it
        sep = "\n" if args.text_table else "\x03"
        if args.text_table:
            recs = rd.read_parquet(args.pages, columns=["url", "text"])
            stages.append("read")
        else:
            pages = rd.read_parquet(args.pages)
            if args.tiered:
                from .ops.tiered import tiered_extract
                ext = tiered_extract(pages, body_col="html", key="url",
                                     batch_size=args.batch_size)
            else:
                ext = extract_pages(pages, emit="text",
                                    batch_size=args.batch_size)
            recs = ext.map_batches(
                lambda t: pa.table({
                    "url": t.column("url"),
                    "text": pc.cast(pc.coalesce(t.column("text"), ""),
                                    pa.large_string())}),
                batch_format="pyarrow")
            stages.append("extract[tiered]" if args.tiered else "extract")

        if args.c4:
            from .ops.filters import c4_clean
            cleaned = c4_clean(recs, col="text", key="url", sep=sep)
            recs = cleaned.map_batches(
                lambda t: pa.table({
                    "url": t.filter(t.column("doc_kept")).column("url"),
                    "text": t.filter(t.column("doc_kept"))
                    .column("clean_text")}),
                batch_format="pyarrow")
            stages.append("c4")
        if args.gopher:
            from .ops.filters import gopher_filter
            recs = gopher_filter(recs, col="text", sep=sep)
            stages.append("gopher")
        if (args.line_dedup or args.exact_dedup
                or args.near_dedup is not None or args.exact_against
                or args.dedup_against):
            # every stage from here on consumes its input MORE THAN ONCE
            # (boilerplate census + strip; dedup winners + join-back;
            # minhash sign + gram sets).  Materialize once so extraction
            # does not re-run per consumer
            recs = recs.materialize()
        if args.line_dedup:
            from .ops.boilerplate import remove_duplicate_lines
            recs = remove_duplicate_lines(
                recs, col="text", key="url", sep=sep,
                min_docs=args.line_min_docs).map_batches(
                lambda t: pa.table({
                    "url": t.column("url"),
                    "text": pc.cast(t.column("text_clean"),
                                    pa.large_string())}),
                batch_format="pyarrow")
            stages.append("line-dedup")
        if args.exact_dedup:
            from .ops.dedup import exact_dedup
            recs = exact_dedup(recs, col="text", key="url") \
                .select_columns(["url", "text"])
            stages.append("exact-dedup")
        if args.exact_against:
            from .ops.increment import dedup_incremental
            recs = dedup_incremental(recs, args.exact_against, col="text")
            stages.append("exact-against-store")
        if args.dedup_against:
            from .ops.increment import dedup_against_store
            recs = dedup_against_store(
                recs, args.dedup_against, col="text",
                threshold=(args.near_dedup
                           if args.near_dedup is not None else 0.5))
            stages.append("near-against-store")
        if args.near_dedup is not None:
            from .ops.components import dedup_keep_canonical
            from .ops.dedup import minhash_dedup
            # the pair stage consumes recs twice (sign + gram sets) —
            # materialize once so upstream stages don't re-run
            recs = recs.materialize()
            pairs = minhash_dedup(recs, threshold=args.near_dedup,
                                  col="text", key="url")
            recs = dedup_keep_canonical(recs, pairs, key="url") \
                .select_columns(["url", "text"])
            stages.append(f"near-dedup@{args.near_dedup}")

        if args.index_out:
            # write_partitioned and build_index both consume recs
            recs = recs.materialize()
        summary = write_partitioned(recs, args.out,
                                    num_buckets=args.num_buckets,
                                    resume=not args.no_resume)
        if args.index_out:
            # crawl -> corpus -> searchable index in one command (the
            # reference's end-to-end story: swish_xapian -i over the
            # cleaned set)
            from .index import build_index
            info = build_index(recs, args.index_out, key="url",
                               text_col="text",
                               stemmer=args.stemmer)
            summary["index"] = info["segment"]
            stages.append("index")
        summary["stages"] = stages
        print(summary)
        return 0


def cmd_delete(args) -> int:
    """Reference -D/--Delete with --filelist (swish_xapian.cpp's
    delete mode): tombstone the named keys — a pure metadata append,
    no Ray session."""
    from .index import delete_keys
    keys: list = list(args.keys)
    if args.filelist:
        from .sources import is_skippable_line
        with open(args.filelist) as fh:
            keys += [ln.strip() for ln in fh
                     if not is_skippable_line(ln)]
    if args.key_type == "int":
        keys = [int(k) for k in keys]
    print(delete_keys(args.index, keys))
    return 0


def cmd_links(args) -> int:
    """Outlink harvest over a pages parquet: one row per href
    (links mode), the site-level graph rollup (graph mode), or
    PageRank over that graph (pagerank mode)."""
    with _ray_session(args.num_cpus):
        import ray.data as rd
        from .manifest import write_partitioned
        from .ops.links import extract_links, link_graph, pagerank
        from .ops.textstats import url_canonicalize

        pages = rd.read_parquet(args.pages)
        if args.mode == "frontier":
            from .ops.frontier import build_frontier
            robots = (rd.read_parquet(args.robots)
                      if args.robots else None)
            out = build_frontier(
                pages, robots=robots,
                blocklist=args.block or (),
                per_site_cap=args.site_cap,
                html_col=args.html_col, url_col=args.url_col,
                canonical=args.canonicalize)
            print(write_partitioned(out, args.out,
                                    num_buckets=args.num_buckets,
                                    key_col="url"))
            return 0
        links = extract_links(pages, html_col=args.html_col,
                              url_col=args.url_col, key=args.url_col,
                              batch_size=args.batch_size)
        if args.canonicalize:
            links = url_canonicalize(links, col="resolved")
        if args.mode == "links":
            out, key = links, args.url_col
        else:
            g = link_graph(links, src_col=args.url_col,
                           dst_col="resolved")
            if args.mode == "graph":
                out, key = g, "src_site"
            else:
                out = pagerank(g, src="src_site", dst="dst_site",
                               weight="n_links", iters=args.iters)
                key = "node"
        summary = write_partitioned(out, args.out,
                                    num_buckets=args.num_buckets,
                                    key_col=key)
        print(summary)
        return 0


def cmd_profile(args) -> int:
    """Column profiler over a parquet input: rows/nulls/min/max per
    column plus a HyperLogLog distinct estimate."""
    with _ray_session(args.num_cpus):
        import ray.data as rd
        from .ops.aggregates import profile

        ds = rd.read_parquet(args.table, columns=args.columns or None)
        t = profile(ds, columns=args.columns or None)
        for row in t.to_pylist():
            print(f"{row['column']}\trows={row['n_rows']}"
                  f"\tnulls={row['n_null']}\tmin={row['min']}"
                  f"\tmax={row['max']}"
                  f"\tdistinct~{row['n_distinct_est']}")
        return 0


def cmd_media(args) -> int:
    """Media-column pipeline driver over the from-scratch codecs:
    ``--file`` inspects one local file (decodable images get full
    decode metadata; everything else goes through the header-only
    inspect tier — MP4/MP3/Ogg/WebM and friends; JSON to stdout);
    ``--table`` runs the Ray stage over a parquet binary column —
    decode metadata, header-only inspect, perceptual hashes, or
    near-dup pairs — and writes partitioned parquet."""
    if args.file:
        import json as _json

        import numpy as np

        from .ops.codecs import decode_image, sniff_image
        from .ops.mediainfo import InspectMedia
        blob = open(args.file, "rb").read()
        if args.mode == "inspect" or sniff_image(blob) is None:
            # header-only triage across every known container
            # (incl. the inspect-only MP4/MP3/Ogg/WebM tier)
            meta = InspectMedia()._inspect(blob)
            meta["size_bytes"] = len(blob)
            print(_json.dumps(meta, sort_keys=True))
            return 0
        arr, meta = decode_image(blob)
        meta["pixel_sum"] = int(arr.astype(np.int64).sum())
        meta["channels"] = 1 if arr.ndim == 2 else arr.shape[2]
        print(_json.dumps(meta, sort_keys=True))
        return 0
    with _ray_session(args.num_cpus):
        import ray.data as rd
        ds = rd.read_parquet(args.table, columns=[args.key, args.col])
        if args.mode == "inspect":
            from .ops.mediainfo import inspect_media
            out = inspect_media(ds, key=args.key, col=args.col)
        elif args.mode == "decode":
            from .ops.multimodal import decode_images
            out = decode_images(ds, key=args.key, col=args.col)
        elif args.mode == "hash":
            from .ops.imagehash import image_hashes
            out = image_hashes(ds, key=args.key, col=args.col)
        else:  # dedup
            from .ops.imagehash import imagehash_near_dups
            out = imagehash_near_dups(
                ds, max_hamming=args.max_hamming, key=args.key,
                col=args.col)
        out.write_parquet(args.out)
        return 0


def cmd_pdf(args) -> int:
    """PDF pipeline driver over the structured tier: ``--file``
    handles one local PDF (text to stdout, or JSON for
    info/links/inspect); ``--table`` runs the mode="auto" extraction
    stage over a parquet binary column and writes partitioned
    parquet."""
    if args.file:
        import json as _json
        blob = open(args.file, "rb").read()
        pw = args.password.encode("utf-8") if args.password else b""
        if args.mode == "text":
            from .ops.pdftext import pdf_extract
            txt, mode, units, skipped, err = pdf_extract(blob, pw)
            sys.stdout.write(txt + ("\n" if txt and
                                    not txt.endswith("\n") else ""))
            if err or skipped:
                print(f"[{mode}: units={units} skipped={skipped} "
                      f"err={err}]", file=sys.stderr)
            return 0
        from .ops.pdfcos import (PdfDocument, PdfError,
                                 document_info, document_links,
                                 pdf_info)
        try:
            if args.mode == "inspect":
                print(_json.dumps(pdf_info(blob), sort_keys=True))
            elif args.mode == "info":
                print(_json.dumps(document_info(
                    PdfDocument(blob, password=pw)),
                                  sort_keys=True,
                                  ensure_ascii=False))
            else:  # links
                doc = PdfDocument(blob, password=pw)
                for page, uri in document_links(doc):
                    print(f"{page}\t{uri}")
        except PdfError as e:
            print(_json.dumps({"error": str(e)}), file=sys.stderr)
            return 1
        return 0
    with _ray_session(args.num_cpus):
        import ray.data as rd
        ds = rd.read_parquet(args.table, columns=[args.key, args.col])
        pw = args.password.encode("utf-8") if args.password else b""
        if args.mode == "text":
            from .ops.pdftext import extract_pdf_text
            out = extract_pdf_text(ds, pdf_col=args.col, key=args.key,
                                   mode="auto", password=pw)
        else:
            # structural modes share one batch shape: per-row probe with
            # the per-row error discipline of the extraction stages
            import pyarrow as _pa

            mode, keyc, colc = args.mode, args.key, args.col

            def probe(batch: "_pa.Table") -> "_pa.Table":
                import json as _j

                from .ops.pdfcos import (PdfDocument, PdfError,
                                         document_info, document_links,
                                         pdf_info)
                vals, errs = [], []
                for body in batch.column(colc).to_pylist():
                    try:
                        if body is None:
                            raise PdfError("null_body")
                        if mode == "inspect":
                            vals.append(_j.dumps(pdf_info(body),
                                                 sort_keys=True))
                        elif mode == "info":
                            vals.append(_j.dumps(
                                document_info(
                                    PdfDocument(body, password=pw)),
                                sort_keys=True, ensure_ascii=False))
                        else:  # links
                            doc = PdfDocument(body, password=pw)
                            vals.append(_j.dumps(
                                [u for _p, u in document_links(doc)]))
                        errs.append(None)
                    except Exception as ex:  # noqa: BLE001
                        vals.append(None)
                        errs.append(str(ex)[:200])
                return _pa.table({
                    keyc: batch.column(keyc),
                    args.mode: _pa.array(vals, _pa.large_string()),
                    "error": _pa.array(errs, _pa.string()),
                })

            out = ds.map_batches(probe, batch_format="pyarrow",
                                 batch_size=32)
        out.write_parquet(args.out)
        return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="swishray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pl = sub.add_parser("lint")
    pl.add_argument("targets", nargs="+")
    pl.add_argument("-c", "--config", action="append")
    pl.add_argument("-v", "--verbose", action="store_true")
    pl.add_argument("-f", "--filelist", action="store_true")
    pl.set_defaults(fn=cmd_lint)

    pt = sub.add_parser("tokenize")
    pt.add_argument("strings", nargs="+")
    pt.set_defaults(fn=cmd_tokenize)

    pw = sub.add_parser("isw")  # swish_isw analog
    pw.add_argument("codepoints", nargs="+")
    pw.set_defaults(fn=cmd_isw)

    pu = sub.add_parser("utf8")  # swish_utf8 analog
    pu.add_argument("strings", nargs="*")
    pu.add_argument("-f", "--file")
    pu.set_defaults(fn=cmd_utf8)

    pd = sub.add_parser("dump")
    pd.add_argument("files", nargs="+")
    pd.add_argument("-c", "--config", action="append")
    pd.add_argument("-t", "--tokenize", type=int, default=None)
    pd.add_argument("-C", "--cascade", action="store_true")
    pd.add_argument("-X", "--follow-xinclude", action="store_true")
    pd.set_defaults(fn=cmd_dump)

    ph = sub.add_parser("header")
    ph.add_argument("conf")
    ph.set_defaults(fn=cmd_header)

    pe = sub.add_parser("extract")
    pe.add_argument("--pages", required=True)
    pe.add_argument("--out", required=True)
    pe.add_argument("--emit", default="buffers",
                    choices=["text", "buffers", "full"])
    pe.add_argument("--config", action="append")
    pe.add_argument("--num-cpus", type=int, default=8)
    pe.add_argument("--batch-size", type=int, default=64,
                    help="rows per extraction task when the input's size "
                         "is unknown before the stage runs; otherwise "
                         "tasks are sized from its rows and bytes and "
                         "the session's CPUs (util.task_rows)")
    pe.add_argument("--num-buckets", type=int, default=64)
    pe.add_argument("--no-resume", action="store_true")
    pe.add_argument("--tiered", action="store_true",
                    help="content-sniff tier cascade (pdf/html/txt)")
    pe.set_defaults(fn=cmd_extract)

    pi = sub.add_parser("index")
    pi.add_argument("--pages", required=True)
    pi.add_argument("--out", required=True)
    pi.add_argument("--config", action="append")
    pi.add_argument("--num-cpus", type=int, default=8)
    pi.add_argument("--num-buckets", type=int, default=None)
    pi.add_argument("--positions", action="store_true",
                    help="store token positions (enables "
                         "search --phrase)")
    pi.add_argument("--text-table", action="store_true",
                    help="input is a plain (key, text) table, "
                         "whitespace-tokenized (skip extraction)")
    pi.add_argument("--key", default="doc_id")
    pi.add_argument("--text-col", default="text")
    pi.add_argument("-t", "--stemmer", default=None, metavar="LANG",
                    help="stem index terms (en/english/porter or "
                         "none; searcher stems queries to match — "
                         "the reference's -t)")
    pi.add_argument("--props", default=None, metavar="COL,COL",
                    help="input columns to store per doc in the "
                         "docstore (search --sort / --facet; the "
                         "reference's add_value property slots)")
    pi.set_defaults(fn=cmd_index)

    pc_ = sub.add_parser("compact")
    pc_.add_argument("--index", required=True)
    pc_.add_argument("--num-cpus", type=int, default=8)
    pc_.add_argument("--num-buckets", type=int, default=None)
    pc_.add_argument("--delete-old", action="store_true")
    pc_.set_defaults(fn=cmd_compact)

    ps = sub.add_parser("search")
    ps.add_argument("--index", required=True)
    ps.add_argument("terms", nargs="+")
    ps.add_argument("--and", dest="and_", action="store_true")
    ps.add_argument("-k", "--max", type=int, default=10)
    ps.add_argument("--meta", default=None)
    ps.add_argument("--bm25", action="store_true",
                    help="Okapi BM25 ranking (the reference's Xapian "
                         "default weighting) instead of raw tf")
    ps.add_argument("--phrase", action="store_true",
                    help="exact phrase over positional postings "
                         "(index must be built with positions)")
    ps.add_argument("-q", "--query", action="store_true",
                    help="treat the terms as ONE boolean query "
                         "string: AND/OR/NOT any case, parens, "
                         "\"phrases\", trailing-* wildcards, "
                         "meta:term prefixes (Xapian-parser parity)")
    ps.add_argument("--sort", default=None, metavar="SORTSTRING",
                    help="swish-e sort string over properties stored "
                         "at build time (index --props), e.g. "
                         "'size desc title' — the reference's -s")
    ps.add_argument("--facet", default=None, metavar="PROP",
                    help="print (value, count) facets of a stored "
                         "property over the query's match set "
                         "(swish_xapian -f analog)")
    ps.add_argument("-b", "--begin", type=int, default=0,
                    help="begin results at NUM (the reference's -b "
                         "results_offset)")
    ps.add_argument("-L", "--range", action="append", default=None,
                    metavar="'PROP LOW HIGH'",
                    help="limit results to a stored-property value "
                         "range, inclusive (reference -L; repeatable)")
    ps.add_argument("-x", "--format", default=None, metavar="TMPL",
                    help="output template: <prop> placeholders "
                         "(swishrank/swishdocpath/stored props) + C "
                         "escapes — the reference's -x "
                         "(build_output_format)")
    ps.set_defaults(fn=cmd_search)

    pp2 = sub.add_parser("pipeline")
    pp2.add_argument("--pages", required=True)
    pp2.add_argument("--out", required=True)
    pp2.add_argument("--num-cpus", type=int, default=8)
    pp2.add_argument("--num-buckets", type=int, default=None)
    pp2.add_argument("--batch-size", type=int, default=64,
                     help="rows per extraction task when the input's size "
                          "is unknown before the stage runs; otherwise "
                          "tasks are sized from its rows and bytes and "
                          "the session's CPUs (util.task_rows)")
    pp2.add_argument("--tiered", action="store_true",
                     help="content-sniff cascade (pdf/html/txt/gzip) "
                          "instead of assuming markup")
    pp2.add_argument("--text-table", action="store_true",
                     help="input already is a (url, text) table — "
                          "skip extraction")
    pp2.add_argument("--c4", action="store_true",
                     help="C4 line/page cleaning (Raffel et al. §2.2)")
    pp2.add_argument("--gopher", action="store_true",
                     help="Gopher document-quality filter "
                          "(Rae et al. App. A)")
    pp2.add_argument("--line-dedup", action="store_true",
                     help="strip corpus-wide duplicate lines "
                          "(boilerplate)")
    pp2.add_argument("--line-min-docs", type=int, default=2)
    pp2.add_argument("--exact-dedup", action="store_true")
    pp2.add_argument("--near-dedup", type=float, default=None,
                     metavar="JACCARD",
                     help="MinHash near-dedup at this word-3-gram "
                          "Jaccard threshold (keep cluster-canonical)")
    pp2.add_argument("--exact-against", default=None, metavar="DIR",
                     help="drop rows whose text is already in this "
                          "persisted fingerprint store (incremental "
                          "nightly-crawl dedup, ops/increment.py)")
    pp2.add_argument("--dedup-against", default=None, metavar="DIR",
                     help="drop rows near-dup of a persisted minhash "
                          "store (threshold from --near-dedup, "
                          "default 0.5)")
    pp2.add_argument("--no-resume", action="store_true")
    pp2.add_argument("--index-out", default=None, metavar="DIR",
                     help="also build the searchable postings index "
                          "over the cleaned corpus (swish_xapian -i "
                          "over the pipeline output)")
    pp2.add_argument("-t", "--stemmer", default=None, metavar="LANG",
                     help="stemmer for --index-out")
    pp2.set_defaults(fn=cmd_pipeline)

    pdl = sub.add_parser("delete")
    pdl.add_argument("--index", required=True)
    pdl.add_argument("keys", nargs="*")
    pdl.add_argument("--filelist", default=None,
                     help="file of keys to tombstone, one per line "
                          "(skippable lines ignored — reference -D "
                          "-f semantics)")
    pdl.add_argument("--key-type", choices=["str", "int"],
                     default="str",
                     help="coerce CLI keys to the index's key type")
    pdl.set_defaults(fn=cmd_delete)

    pk = sub.add_parser("links")
    pk.add_argument("--pages", required=True)
    pk.add_argument("--out", required=True)
    pk.add_argument("--mode", default="links",
                    choices=["links", "graph", "pagerank",
                             "frontier"])
    pk.add_argument("--robots", default=None,
                    help="(host, body) parquet of robots.txt files")
    pk.add_argument("--block", action="append",
                    help="blocked domain suffix (repeatable)")
    pk.add_argument("--site-cap", type=int, default=None)
    pk.add_argument("--html-col", default="html")
    pk.add_argument("--url-col", default="url")
    pk.add_argument("--canonicalize", action="store_true",
                    help="RFC 3986 canonicalization of resolved urls")
    pk.add_argument("--iters", type=int, default=10)
    pk.add_argument("--num-cpus", type=int, default=8)
    pk.add_argument("--batch-size", type=int, default=64,
                    help="rows per extract_links task (a constant; only "
                         "extract and pipeline size their extraction "
                         "tasks from the input)")
    pk.add_argument("--num-buckets", type=int, default=64)
    pk.set_defaults(fn=cmd_links)

    pp = sub.add_parser("profile")
    pp.add_argument("--table", required=True)
    pp.add_argument("--columns", action="append")
    pp.add_argument("--num-cpus", type=int, default=8)
    pp.set_defaults(fn=cmd_profile)

    pm = sub.add_parser("media")
    pm.add_argument("--file", help="inspect one local image")
    pm.add_argument("--table", help="parquet with a binary column")
    pm.add_argument("--out", help="output parquet dir (table mode)")
    pm.add_argument("--mode", default="decode",
                    choices=["decode", "hash", "dedup", "inspect"])
    pm.add_argument("--key", default="media_id")
    pm.add_argument("--col", default="payload")
    pm.add_argument("--max-hamming", type=int, default=2)
    pm.add_argument("--num-cpus", type=int, default=8)
    pm.set_defaults(fn=cmd_media)

    pp = sub.add_parser("pdf")
    pp.add_argument("--file", help="one local PDF")
    pp.add_argument("--table", help="parquet with a binary column")
    pp.add_argument("--out", help="output parquet dir (table mode)")
    pp.add_argument("--mode", default="text",
                    choices=["text", "info", "links", "inspect"])
    pp.add_argument("--key", default="url")
    pp.add_argument("--col", default="pdf")
    pp.add_argument("--password", default="",
                    help="user or owner password (default empty)")
    pp.add_argument("--num-cpus", type=int, default=8)
    pp.set_defaults(fn=cmd_pdf)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
