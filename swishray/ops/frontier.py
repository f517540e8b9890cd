"""Crawl-frontier assembly: compose the link/politeness ops into the
pipeline a crawl operator actually runs.

``build_frontier`` chains the individually-tested stages —
:func:`~swishray.ops.links.extract_links` (DOM-correct href harvest)
→ :func:`~swishray.ops.textstats.url_canonicalize` →
followable-link filter (``<a>`` only, nofollow dropped) →
:func:`~swishray.ops.robots.robots_filter` (RFC 9309, keep-only) →
:func:`~swishray.ops.filters.url_blocklist` →
exact URL dedup with reference counting →
:func:`~swishray.ops.filters.cap_per_group` per-site cap —
into one lazy Dataset plan.  Output: ``(url, site, n_refs)`` —
``n_refs`` (how many harvested links pointed at the url) doubles as
a cheap crawl-priority prior.

Scale shape is inherited from the parts: harvest/canonicalize are
pure map-side; robots and blocklist broadcast their side-state when
``joins.small_side`` measures it small and hash-join it otherwise,
so a robots table or blocklist of any size works here.  The other
shuffles are the (url) count groupby — slim two-column rows — and
cap_per_group's slim (site, url) winners exchange.  Every stage is
oracle- or pytest-verified on its own; this module only wires them.
"""
from __future__ import annotations

from typing import Any, Sequence

import pyarrow as pa


def build_frontier(pages: Any, *, robots: Any = None,
                   blocklist: Sequence[str] = (),
                   per_site_cap: int | None = None,
                   agent: str = "*", html_col: str = "html",
                   url_col: str = "url", canonical: bool = True,
                   strip_params: tuple = (),
                   include_nofollow: bool = False) -> Any:
    """See module docstring.  ``robots``: optional (host, body)
    table/Dataset, of any size (:func:`~.robots.robots_filter`);
    ``blocklist``: blocked domains, each blocking itself and its
    subdomains, of any length (:func:`~.filters.url_blocklist`);
    ``per_site_cap``: max frontier urls per registrable site."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count

    from .filters import cap_per_group, url_blocklist
    from .links import _site_of, extract_links
    from .robots import robots_filter
    from .textstats import url_canonicalize

    links = extract_links(pages, html_col=html_col, url_col=url_col,
                          key=url_col)

    def followable(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("tag"), "a")
        if not include_nofollow:
            keep = pc.and_(keep, pc.invert(pc.match_substring(
                pc.coalesce(batch.column("rel"), ""), "nofollow")))
        t = batch.filter(keep)
        return pa.table({"url": t.column("resolved").combine_chunks()})

    cand = links.map_batches(followable, batch_format="pyarrow")
    if canonical:
        cand = url_canonicalize(cand, col="url",
                                strip_params=strip_params)
    if robots is not None:
        cand = robots_filter(cand, robots, url_col="url", agent=agent,
                             keep_only=True)
    if blocklist:
        flagged = url_blocklist(cand, list(blocklist), url_col="url")
        cand = flagged.map_batches(
            lambda t: t.filter(pc.invert(t.column("blocked")))
            .select(["url"]), batch_format="pyarrow")

    # exact dedup + reference count in one slim groupby
    out = cand.groupby("url").aggregate(Count(alias_name="n_refs"))

    def with_site(batch: pa.Table) -> pa.Table:
        return pa.table({
            "url": batch.column("url"),
            "site": _site_of(batch, "url"),
            "n_refs": pc.cast(batch.column("n_refs"), pa.int64())})

    out = out.map_batches(with_site, batch_format="pyarrow")
    if per_site_cap is not None:
        out = cap_per_group(out, group="site", key="url",
                            n=per_site_cap)
    return out


def schedule_politely(frontier: Any, *, host_col: str = "site",
                      url_col: str = "url",
                      priority_col: str | None = None,
                      delay_col: str | None = None,
                      default_delay: float = 1.0) -> Any:
    """Politeness scheduling over a frontier: assign each url its
    per-host fetch slot honoring crawl-delay (RFC 9309 §2.4 /
    the de-facto ``Crawl-delay`` extension the robots module parses)
    -> ``(url, host, seq, fetch_at)`` where ``seq`` is the url's rank
    within its host (priority desc, then url asc — deterministic) and
    ``fetch_at = seq * delay`` seconds from the host's first fetch.

    A crawl operator shards this output by worker and replays each
    host's queue in ``seq`` order; two workers never share a host, so
    the delay contract holds without coordination.

    Scale shape: one :func:`~.joins.hash_exchange` on the host, then
    one pandas sort + per-host cumcount per bucket — slim ``(url,
    host, priority, delay)`` rows are the only exchange, and no single
    group is ever one host unless that host IS the bucket (salt
    upstream if one host dominates a crawl)."""
    import pandas as pd

    from .joins import hash_exchange

    def slim(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        cols = {
            "url": batch.column(url_col),
            "host": batch.column(host_col),
            "__prio": (pc.cast(batch.column(priority_col),
                               pa.float64())
                       if priority_col is not None
                       else pa.nulls(batch.num_rows, pa.float64())),
            "__delay": (pc.cast(batch.column(delay_col), pa.float64())
                        if delay_col is not None
                        else pa.array([default_delay]
                                      * batch.num_rows)),
        }
        return pa.table(cols)

    def slot(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["host", "__prio", "url"],
                          ascending=[True, False, True],
                          na_position="last", kind="mergesort")
        seq = g.groupby("host", sort=False).cumcount()
        delay = g["__delay"].fillna(default_delay)
        return pd.DataFrame({
            "url": g["url"], "host": g["host"],
            "seq": seq.astype("int64"),
            "fetch_at": (seq * delay).astype("float64")})

    return hash_exchange(
        frontier.map_batches(slim, batch_format="pyarrow"), "host", slot)
