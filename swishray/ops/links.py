"""DOM-correct hyperlink extraction and link-graph analytics.

A Common-Crawl-style extraction tier needs the page's OUTLINKS as
much as its text: URL frontier construction, site-level quality
signals (link farms, nofollow ratios) and graph centrality all start
from an href harvest.  The reference's parser only follows
``xi:include`` hrefs (libswish3 parser.c:1122-1168); harvesting
``<a href>`` is new capability built on the same libxml2 HTML SAX
machinery (`swishray.libxml.html_parse`, C event-batch fast path
included) — DOM-correct against malformed real-world markup where a
regex harvest would miss implied closes and attribute quoting.

Three layers:

1. :func:`extract_links` — stateful map stage, one output row per link:
   ``(key, seq, tag, href, resolved, rel, anchor_text)``.  ``<base
   href>`` is honoured (first one wins, per HTML5); ``resolved``
   joins relative hrefs against base-or-page-url.
2. :func:`link_graph` — slim ``(src_site, dst_site)`` projection +
   count groupby: only two short string columns ride the shuffle.
3. :func:`pagerank` — distributed power iteration over a slim
   ``(node, rank)`` table: per round one edges⋈ranks join, one
   dst-sum groupby and a driver-side dangling-mass scalar.  O(iters)
   shuffles of (node, float64) — never the edge payload.

Scale notes: extraction is pure map-side; anchor text is capped at
400 characters so a pathological page cannot inflate the output
row. The stage does not bound its input blocks itself.
"""
from __future__ import annotations

import re
from typing import Any
from urllib.parse import urljoin

import numpy as np
import pyarrow as pa

from ..libxml import SaxTarget, html_parse
from ..util import body_bytes, explode_rows

# tag -> attribute carrying the outbound URL (public HTML semantics)
_URL_ATTRS = {
    b"a": b"href", b"link": b"href", b"area": b"href",
    b"img": b"src", b"script": b"src", b"iframe": b"src",
    b"frame": b"src", b"embed": b"src", b"source": b"src",
}

_WS_RE = re.compile(r"\s+")
_ANCHOR_CAP = 400
_FIELDS = (("seq", pa.int64()), ("tag", pa.large_string()),
           ("href", pa.large_string()), ("resolved", pa.large_string()),
           ("rel", pa.large_string()), ("anchor_text", pa.large_string()))


class _LinkTarget(SaxTarget):
    """Collects (tag, url, rel, anchor_text) in document order.

    Anchor text: characters between an ``<a href>`` and its close are
    attached to that link (libxml2 synthesises implied closes, so a
    nested ``<a>`` finalises the previous one first — browser
    behavior).  ``<base href>`` is recorded once (first wins)."""

    def __init__(self) -> None:
        self.links: list[tuple[str, str, str]] = []  # tag, url, rel
        self.anchors: dict[int, list[bytes]] = {}
        self.base: str | None = None
        self._open_a: int | None = None  # index into links
        self._a_len = 0

    @staticmethod
    def _att(atts, name: bytes) -> bytes | None:
        if not atts:
            return None
        for i in range(0, len(atts) - 1, 2):
            if atts[i] is not None and atts[i].lower() == name:
                return atts[i + 1]
        return None

    def _finish_a(self) -> None:
        self._open_a = None
        self._a_len = 0

    def start_element(self, name: bytes, atts=None) -> None:
        tag = name.lower()
        if tag == b"base" and self.base is None:
            href = self._att(atts, b"href")
            if href:
                self.base = href.decode("utf-8", "replace").strip()
            return
        attr = _URL_ATTRS.get(tag)
        if attr is None:
            return
        url = self._att(atts, attr)
        if url is None or not url.strip():
            return
        rel = self._att(atts, b"rel") or b""
        idx = len(self.links)
        self.links.append((tag.decode("ascii", "replace"),
                           url.decode("utf-8", "replace").strip(),
                           rel.decode("utf-8", "replace").lower()))
        if tag == b"a":
            if self._open_a is not None:
                self._finish_a()
            self._open_a = idx
            self.anchors[idx] = []
            self._a_len = 0

    def end_element(self, name: bytes) -> None:
        if name.lower() == b"a" and self._open_a is not None:
            self._finish_a()

    def characters(self, data: bytes) -> None:
        if self._open_a is not None and self._a_len < _ANCHOR_CAP:
            self.anchors[self._open_a].append(data)
            self._a_len += len(data)


class ExtractLinks:
    """Stateful task stage: html -> one row per harvested link."""

    def __init__(self, html_col: str = "html", url_col: str | None = "url",
                 key: str = "url") -> None:
        self.html_col = html_col
        self.url_col = url_col
        self.key = key

    @staticmethod
    def _doc_links(doc) -> list[tuple]:
        body, page_url = doc
        body = body_bytes(body)
        if body is None:
            return []
        tgt = _LinkTarget()
        html_parse(body, tgt)
        base = tgt.base or page_url or ""
        out = []
        for i, (tag, url, rel) in enumerate(tgt.links):
            try:
                resolved = urljoin(base, url) if base else url
            except ValueError:
                resolved = url
            raw = b"".join(tgt.anchors.get(i, []))
            anchor = _WS_RE.sub(
                " ", raw.decode("utf-8", "replace")).strip()[:_ANCHOR_CAP]
            out.append((i, tag, url, resolved, rel, anchor))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        bodies = batch.column(self.html_col).to_pylist()
        urls = (batch.column(self.url_col).to_pylist()
                if self.url_col and self.url_col in batch.column_names
                else [None] * len(bodies))
        keys, cols = explode_rows(batch.column(self.key),
                                  zip(bodies, urls), self._doc_links,
                                  _FIELDS)
        return pa.table({self.key: keys, **cols})


def extract_links(ds: Any, html_col: str = "html",
                  url_col: str | None = "url", key: str = "url",
                  batch_size: int = 64) -> Any:
    """Dataset-level href harvest (see module docstring)."""
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, ExtractLinks,
        fn_constructor_kwargs=dict(html_col=html_col, url_col=url_col,
                                   key=key),
        batch_format="pyarrow", batch_size=batch_size)


def _site_of(batch: pa.Table, col: str):
    """Vectorized url -> registrable-site projection (textstats'
    URL_HOST/SITE kernels — the last two host labels), lowercased;
    unparseable urls map to ''."""
    import pyarrow.compute as pc

    from .filters import _text_col
    from .textstats import URL_HOST_RE, URL_SITE_RE

    ext = pc.extract_regex(_text_col(batch, col), URL_HOST_RE)
    host = pc.utf8_lower(pc.coalesce(pc.struct_field(ext, "m"), ""))
    s = pc.extract_regex(host, URL_SITE_RE)
    return pc.cast(pc.coalesce(pc.struct_field(s, "m"), host),
                   pa.large_string())


def link_graph(links: Any, src_col: str = "url",
               dst_col: str = "resolved") -> Any:
    """Site-level link graph: ``(src_site, dst_site, n_links)``.

    Map-side projection to two short site strings, then ONE count
    groupby; rows without a parseable dst host are dropped."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    def sites(batch: pa.Table) -> pa.Table:
        t = pa.table({"src_site": _site_of(batch, src_col),
                      "dst_site": _site_of(batch, dst_col)})
        return t.filter(pc.not_equal(t.column("dst_site"), ""))

    g = links.map_batches(sites, batch_format="pyarrow")
    out = g.groupby(["src_site", "dst_site"]).aggregate(
        Count(alias_name="n_links"))
    return out.map_batches(
        lambda t: pa.table({
            "src_site": t.column("src_site"),
            "dst_site": t.column("dst_site"),
            "n_links": pc.cast(t.column("n_links"), pa.int64())}),
        batch_format="pyarrow")


def pagerank(edges: Any, src: str = "src", dst: str = "dst",
             iters: int = 10, d: float = 0.85,
             weight: str | None = None,
             num_partitions: int | None = None,
             dense_max_nodes: int | None = None,
             dense_max_edges: int | None = None) -> Any:
    """Distributed PageRank by power iteration -> ``(node, rank)``.

    Per round: contribs = edges ⋈ (rank/outdeg) on src, summed by dst
    (slim (node, float64) exchanges only — edge payloads never move
    after the initial projection); dangling mass (rank parked on
    nodes with no outlinks) is a driver-side SCALAR per round,
    redistributed uniformly, per the original formulation (Page et
    al. 1999).  Self-edges and parallel edges are honoured as given.

    ``weight`` names an optional edge-weight column (e.g. the link
    graph's ``n_links``): a source's rank is split across its
    outlinks proportionally to weight instead of uniformly.

    Two execution regimes (graphdense module doc): when the vertex
    vector fits a single process (``<= dense_max_nodes``, default
    4M ~ 32 MB, and ``<= dense_max_edges`` pinned shard memory) the
    loop runs Pregel-lite — edge shards pinned in actors as numpy
    index arrays, rank broadcast per round, zero shuffles.  Past
    either gate it falls back to the join formulation below, whose
    shuffle cost is O(iters) joins — keep ``iters`` modest (10-20;
    convergence is geometric in ``d``).  Without ``weight``,
    multi-edges count once each; dedupe upstream if the semantic is
    at-most-one-edge.  Pass ``dense_max_nodes=0`` to force the join
    path."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from ..util import _session_cpus
    from .joins import hash_join

    nparts = num_partitions or max(8, 2 * _session_cpus())

    def slim(batch: pa.Table) -> pa.Table:
        # edges with a null endpoint are dropped (an upstream href
        # harvest can emit them; a null node id has no graph meaning)
        ok = pc.and_(pc.is_valid(batch.column(src)),
                     pc.is_valid(batch.column(dst)))
        t = batch.filter(ok)
        cols = {"s": t.column(src).combine_chunks(),
                "t": t.column(dst).combine_chunks()}
        if weight is not None:
            cols["wt"] = pc.cast(t.column(weight), pa.float64()) \
                .combine_chunks()
        return pa.table(cols)

    e = edges.map_batches(slim, batch_format="pyarrow").materialize()

    from .graphdense import (DENSE_MAX_EDGES, DENSE_MAX_NODES,
                             dense_pagerank)
    max_nodes = (DENSE_MAX_NODES if dense_max_nodes is None
                 else dense_max_nodes)
    max_edges = (DENSE_MAX_EDGES if dense_max_edges is None
                 else dense_max_edges)
    if max_nodes and 0 < e.count() <= max_edges:
        from .graphdense import dense_pagerank_small
        # tiniest graphs: one task, no shard actors (graphdense doc)
        tbl = dense_pagerank_small(e, weighted=weight is not None,
                                   iters=iters, d=d)
        if tbl is None:
            tbl = dense_pagerank(e, weighted=weight is not None,
                                 iters=iters, d=d,
                                 dense_max_nodes=max_nodes)
        if tbl is not None:
            import ray.data as rd
            out = rd.from_arrow(tbl)
            if len(tbl) > 1_000_000:
                out = out.repartition(len(tbl) // 1_000_000 + 1)
            return out

    def both_nodes(batch: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays([
            batch.column("s").combine_chunks(),
            batch.column("t").combine_chunks()])})

    nodes = e.map_batches(both_nodes, batch_format="pyarrow") \
        .groupby("node").aggregate(Count(alias_name="__c")) \
        .drop_columns(["__c"]).repartition(nparts).materialize()
    n_nodes = nodes.count()
    if n_nodes == 0:
        return nodes.map_batches(
            lambda t: pa.table({"node": pa.array([], pa.int64()),
                                "rank": pa.array([], pa.float64())}),
            batch_format="pyarrow")

    # "outdeg" generalizes to total outgoing WEIGHT when weighted
    if weight is None:
        od_agg = e.groupby("s").aggregate(Count(alias_name="outdeg"))
    else:
        od_agg = e.groupby("s").aggregate(
            Sum("wt", alias_name="outdeg"))
    outdeg = od_agg.map_batches(lambda t: pa.table({
            "node": t.column("s").combine_chunks(),
            "outdeg": pc.cast(t.column("outdeg"), pa.float64())}),
            batch_format="pyarrow") \
        .repartition(nparts).materialize()

    r0 = 1.0 / n_nodes
    ranks = nodes.map_batches(
        lambda t: t.append_column(
            "rank", pa.array(np.full(t.num_rows, r0))),
        batch_format="pyarrow").repartition(nparts).materialize()

    for _ in range(iters):
        # rank/outdeg per source; nodes missing from outdeg are
        # dangling — their rank is the round's redistributed scalar
        rd = hash_join(ranks, outdeg, "node", how="left",
                       num_buckets=nparts)

        def rank_share(batch: pa.Table) -> pa.Table:
            od = pc.cast(batch.column("outdeg_r"), pa.float64())
            rk = batch.column("rank")
            # a node with no outdeg row OR zero total weight is
            # dangling (weighted graphs can sum to 0 — dividing
            # would make inf; the dense path uses the same rule)
            live = pc.and_(pc.is_valid(od),
                           pc.greater(pc.coalesce(od, 0.0), 0.0))
            # both if_else branches evaluate eagerly — keep the dead
            # branch's denominator nonzero
            denom = pc.if_else(live, pc.coalesce(od, 1.0), 1.0)
            w = pc.if_else(live, pc.divide(rk, denom), 0.0)
            dang = pc.if_else(live, 0.0, rk)
            return pa.table({"node": batch.column("node"),
                             "w": w, "dang": dang})

        w = rd.map_batches(rank_share, batch_format="pyarrow") \
            .repartition(nparts).materialize()
        dangling = (w.aggregate(Sum("dang", alias_name="dg"))
                    or {}).get("dg") or 0.0

        def edge_proj(t: pa.Table) -> pa.Table:
            cols = {"node": t.column("s").combine_chunks(),
                    "t": t.column("t").combine_chunks()}
            if weight is not None:
                cols["wt"] = t.column("wt").combine_chunks()
            return pa.table(cols)

        def in_w(t: pa.Table) -> pa.Table:
            v = t.column("w_r").combine_chunks()
            if weight is not None:
                v = pc.multiply(v, t.column("wt"))
            return pa.table({"node": t.column("t").combine_chunks(),
                             "in_w": v})

        contrib = hash_join(
            e.map_batches(edge_proj, batch_format="pyarrow"),
            w, "node", num_buckets=nparts)
        sums = contrib.map_batches(in_w, batch_format="pyarrow") \
            .groupby("node").aggregate(Sum("in_w", alias_name="in_sum")) \
            .repartition(nparts).materialize()

        base = (1.0 - d) / n_nodes + d * dangling / n_nodes
        nr = hash_join(nodes, sums, "node", how="left",
                       num_buckets=nparts)
        ranks = nr.map_batches(
            lambda t: pa.table({
                "node": t.column("node"),
                "rank": pc.add(base, pc.multiply(
                    d, pc.coalesce(pc.cast(t.column("in_sum_r"),
                                           pa.float64()), 0.0)))}),
            batch_format="pyarrow").repartition(nparts).materialize()

    return ranks


def anchor_stats(links: Any, dst_col: str = "resolved",
                 rel_col: str = "rel", anchor_col: str = "anchor_text",
                 src_col: str | None = None) -> Any:
    """Incoming-link signals per destination URL — the classic
    web-quality features (in-degree, nofollow share, anchor-text
    coverage, distinct referring sites): ``(url, n_in, n_nofollow,
    n_anchor[, n_src_sites])``.

    Scale shape: map-side projection to (url, two int flags[, short
    site string]); with ``src_col`` the distinct-site count is EXACT
    via a two-level groupby — the first level collapses (url,
    src_site) duplicates so the second shuffle carries one slim row
    per distinct referring site, never one per link.  Everything
    rides the url key; no text or html ever moves."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    def proj(batch: pa.Table) -> pa.Table:
        from .filters import _text_col
        rel = pc.coalesce(_text_col(batch, rel_col), "")
        nf = pc.cast(pc.match_substring(rel, "nofollow"), pa.int64())
        an = pc.cast(pc.not_equal(
            pc.coalesce(_text_col(batch, anchor_col), ""), ""),
            pa.int64())
        cols = {"url": pc.cast(batch.column(dst_col),
                               pa.large_string()),
                "nf": nf, "an": an}
        if src_col is not None:
            cols["src_site"] = _site_of(batch, src_col)
        return pa.table(cols)

    p = links.map_batches(proj, batch_format="pyarrow")
    if src_col is None:
        out = p.groupby("url").aggregate(
            Count(alias_name="n_in"),
            Sum("nf", alias_name="n_nofollow"),
            Sum("an", alias_name="n_anchor"))
    else:
        lvl1 = p.groupby(["url", "src_site"]).aggregate(
            Count(alias_name="n_in"),
            Sum("nf", alias_name="n_nofollow"),
            Sum("an", alias_name="n_anchor"))
        out = lvl1.groupby("url").aggregate(
            Sum("n_in", alias_name="n_in"),
            Sum("n_nofollow", alias_name="n_nofollow"),
            Sum("n_anchor", alias_name="n_anchor"),
            Count(alias_name="n_src_sites"))

    def shape(batch: pa.Table) -> pa.Table:
        cols = {"url": batch.column("url")}
        for c in ("n_in", "n_nofollow", "n_anchor", "n_src_sites"):
            if c in batch.column_names:
                cols[c] = pc.cast(batch.column(c), pa.int64())
        return pa.table(cols)
    return out.map_batches(shape, batch_format="pyarrow")
