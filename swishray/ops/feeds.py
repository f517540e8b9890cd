"""RSS 2.0 / Atom feed parsing -> frontier/article rows.

Crawl pipelines discover fresh article URLs from syndication feeds
(the news/blog analog of sitemaps).  This op parses a Dataset of
fetched feed bodies into one row per entry, on the engine's libxml2
SAX event path (`swishray.libxml.xml_parse`, the same machinery the
extraction tier and sitemap parser use — reference parser.c:842-966
semantics), so entities, CDATA article titles and namespace prefixes
are handled correctly rather than regex-scraped.

Formats (both public specs):

* **RSS 2.0** — ``<rss><channel><item>`` with ``title`` / ``link``
  (element text) / ``guid`` / ``pubDate`` / ``description`` children.
* **Atom (RFC 4287)** — ``<feed><entry>`` with ``title`` / ``id`` /
  ``updated`` / ``summary`` children and the link as an ATTRIBUTE:
  ``<link href=... rel=...>`` — ``rel="alternate"`` (or no rel) wins
  over enclosure/self links.

Output rows: ``(key, kind, title, link, entry_id, updated, summary)``
with ``kind`` in ``{"rss", "atom"}``; ``entry_id`` falls back to the
link when guid/id is absent.  Gzip bodies unwrap inline.

Scale shape: pure map-side fan-out (task-cached by default, the
extract_links rationale); output rows are slim strings. The stage does
not bound its input blocks itself: a caller with giant bodies may
apply ``pipeline.rebatch_by_bytes`` first.
"""
from __future__ import annotations

from typing import Any

import pyarrow as pa

from ..libxml import SaxTarget, xml_parse
from ..util import body_bytes, explode_rows

# channel-level tags that share names with entry fields (an RSS
# channel has its own <title>/<link>): fields only collect INSIDE an
# item/entry, so these never leak into rows.
_ENTRY_TAGS = (b"item", b"entry")
_FIELD_TAGS = (b"title", b"link", b"guid", b"pubdate", b"description",
               b"id", b"updated", b"summary")
_FIELDS = tuple((name, pa.large_string()) for name in (
    "kind", "title", "link", "entry_id", "updated", "summary"))


def _att(atts, name: bytes) -> bytes | None:
    if not atts:
        return None
    for i in range(0, len(atts) - 1, 2):
        if atts[i] is not None and atts[i].lower() == name:
            return atts[i + 1]
    return None


class _FeedTarget(SaxTarget):
    """Collects (kind, title, link, entry_id, updated, summary)."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.kind = ""
        self._in_entry = False
        self._field: bytes | None = None
        self._buf: dict[bytes, list[bytes]] = {}
        self._atom_link: bytes | None = None
        self._atom_link_rel: bytes | None = None

    def start_element_ns(self, localname: bytes, prefix, uri,
                         atts=None) -> None:
        tag = localname.lower()
        if not self.kind:
            if tag == b"rss":
                self.kind = "rss"
            elif tag == b"feed":
                self.kind = "atom"
        if tag in _ENTRY_TAGS:
            self._in_entry = True
            self._field = None
            self._buf = {}
            self._atom_link = None
            self._atom_link_rel = None
        elif self._in_entry:
            if tag == b"link" and self.kind == "atom":
                href = _att(atts, b"href")
                rel = (_att(atts, b"rel") or b"alternate").lower()
                # alternate beats self/enclosure; first alternate wins
                if href and (self._atom_link is None
                             or (rel == b"alternate"
                                 and self._atom_link_rel
                                 != b"alternate")):
                    self._atom_link = href
                    self._atom_link_rel = rel
            if tag in _FIELD_TAGS:
                self._field = tag
                self._buf.setdefault(tag, [])

    def end_element_ns(self, localname: bytes, prefix) -> None:
        tag = localname.lower()
        if tag in _ENTRY_TAGS and self._in_entry:
            def field(*names: bytes) -> str:
                for n in names:
                    v = b"".join(self._buf.get(n, ())).strip()
                    if v:
                        return v.decode("utf-8", "replace")
                return ""
            link = (self._atom_link.strip().decode("utf-8", "replace")
                    if self._atom_link else field(b"link"))
            if link or field(b"title"):
                self.rows.append((
                    self.kind or "rss",
                    field(b"title"), link,
                    field(b"guid", b"id") or link,
                    field(b"pubdate", b"updated"),
                    field(b"description", b"summary")))
            self._in_entry = False
            self._field = None
        elif self._field == tag:
            self._field = None

    def characters(self, data: bytes) -> None:
        if self._in_entry and self._field is not None:
            self._buf[self._field].append(data)


class ParseFeeds:
    """Batch stage: feed body -> one row per item/entry."""

    def __init__(self, body_col: str = "body", key: str = "url") -> None:
        self.body_col = body_col
        self.key = key

    @staticmethod
    def _doc_rows(body) -> list[tuple]:
        body = body_bytes(body)
        if body is None:
            return []
        tgt = _FeedTarget()
        xml_parse(body, tgt)
        return tgt.rows

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys, cols = explode_rows(
            batch.column(self.key), batch.column(self.body_col).to_pylist(),
            self._doc_rows, _FIELDS)
        return pa.table({self.key: keys, **cols})


def parse_feeds(ds: Any, body_col: str = "body", key: str = "url",
                batch_size: int = 64) -> Any:
    """Dataset-level feed parse (see module docstring)."""
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, ParseFeeds,
        fn_constructor_kwargs=dict(body_col=body_col, key=key),
        batch_format="pyarrow", batch_size=batch_size)
