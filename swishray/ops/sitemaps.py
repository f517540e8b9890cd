"""Sitemap parsing: XML sitemaps / sitemap indexes -> URL frontier rows.

Crawl pipelines seed and refresh their frontier from
``sitemap.xml`` files (sitemaps.org protocol: ``<urlset><url>`` with
loc/lastmod/changefreq/priority children, and ``<sitemapindex>``
pointing at child sitemaps).  This op turns a Dataset of fetched
sitemap bodies into one row per entry, reusing the engine's libxml2
SAX machinery (`swishray.libxml.xml_parse` — the same event path the
extraction tier uses, reference parser.c:842-966 semantics) instead
of a regex scrape, so entity refs, CDATA and namespace prefixes are
handled correctly.

Output rows: ``(key, kind, loc, lastmod, changefreq, priority)``
where ``kind`` is ``url`` (a page entry) or ``sitemap`` (a child
sitemap reference from an index — feed those back as the next fetch
round).  Gzip bodies (``sitemap.xml.gz``) are unwrapped inline.

Scale shape: pure map-side (task-cached by default, same rationale as
``extract_links``); output rows are slim strings.  A 50k-URL sitemap
(the protocol max) yields 50k rows from one input row. The stage does
not bound its input blocks itself.
"""
from __future__ import annotations

from typing import Any

import pyarrow as pa

from ..libxml import SaxTarget, xml_parse
from ..util import body_bytes, explode_rows

_ENTRY_TAGS = (b"url", b"sitemap")
_FIELD_TAGS = (b"loc", b"lastmod", b"changefreq", b"priority")
_FIELDS = tuple((name, pa.large_string()) for name in (
    "kind", "loc", "lastmod", "changefreq", "priority"))


class _SitemapTarget(SaxTarget):
    """Collects (kind, loc, lastmod, changefreq, priority) rows."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self._in: bytes | None = None
        self._field: bytes | None = None
        self._buf: dict[bytes, list[bytes]] = {}

    def start_element_ns(self, localname: bytes, prefix, uri,
                         atts=None) -> None:
        tag = localname.lower()
        if tag in _ENTRY_TAGS:
            self._in = tag
            self._field = None
            self._buf = {}
        elif self._in is not None and tag in _FIELD_TAGS:
            self._field = tag
            self._buf.setdefault(tag, [])

    def end_element_ns(self, localname: bytes, prefix) -> None:
        tag = localname.lower()
        if tag in _ENTRY_TAGS and self._in == tag:
            loc = b"".join(self._buf.get(b"loc", ())).strip()
            if loc:
                def field(name: bytes) -> str:
                    return b"".join(self._buf.get(name, ())) \
                        .strip().decode("utf-8", "replace")
                self.rows.append((
                    tag.decode("ascii"),
                    loc.decode("utf-8", "replace"),
                    field(b"lastmod"), field(b"changefreq"),
                    field(b"priority")))
            self._in = None
            self._field = None
        elif self._field == tag:
            self._field = None

    def characters(self, data: bytes) -> None:
        if self._in is not None and self._field is not None:
            self._buf[self._field].append(data)


class ParseSitemaps:
    """Batch stage: sitemap body -> one row per url/sitemap entry."""

    def __init__(self, xml_col: str = "body", key: str = "url") -> None:
        self.xml_col = xml_col
        self.key = key

    @staticmethod
    def _doc_rows(body) -> list[tuple]:
        body = body_bytes(body)
        if body is None:
            return []
        tgt = _SitemapTarget()
        xml_parse(body, tgt)
        return tgt.rows

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys, cols = explode_rows(
            batch.column(self.key), batch.column(self.xml_col).to_pylist(),
            self._doc_rows, _FIELDS)
        return pa.table({self.key: keys, **cols})


def parse_sitemaps(ds: Any, xml_col: str = "body", key: str = "url",
                   batch_size: int = 64) -> Any:
    """Dataset-level sitemap parse (see module docstring)."""
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, ParseSitemaps,
        fn_constructor_kwargs=dict(xml_col=xml_col, key=key),
        batch_format="pyarrow", batch_size=batch_size)
