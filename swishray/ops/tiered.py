"""Tiered extraction cascade: MIME-sniff routing in ONE map pass.

The reference resolves each document to a parser before parsing it —
ext -> MIME -> parser (mime_types.c:235-274 via docinfo.c), gzip
unwrap first (parser.c gzip detect), TXT bodies transcoded latin1->
utf8 when not valid UTF-8 (parser.c txt path).  At crawl scale the
extension lies, so this stage sniffs CONTENT (magic bytes) with the
ext table as the tie-breaker, then dispatches each document to its
tier kernel inside the same ``map_batches`` call:

* ``pdf``  -> :func:`swishray.ops.pdftext.pdf_extract`
              (structured xref/font/encryption parse with layout,
              syntactic-scan fallback — the mode="auto" cascade)
* ``html`` -> :func:`swishray.ops.maincontent.main_content`
              (DOM-heuristic boilerplate strip; also XML)
* ``txt``  -> encoding-normalized plain text (UTF-8 strict, else
              latin-1 -> UTF-8, NULs stripped — extractor.py txt
              semantics)

gzip members are unwrapped and re-sniffed, so a ``.html.gz`` crawl
payload lands in the html tier.  Output is ONE unified schema —
``(key, tier, tier_text, tier_chars, was_gzip, error)`` — so the
downstream corpus pipeline (filters, dedup, packing) is
tier-agnostic.

Scale notes: pure map stage (no shuffle); routing partitions the
batch by tier and runs each kernel VECTORIZED over its subset, then
scatters results back to input order.  Warm state (the libxml2
dispatcher) is built once per worker.  Giant
mixed batches are fine: memory is bounded by batch_size × mean doc
size, same as the single-tier stages.
"""

from __future__ import annotations

import re
from typing import Any

import numpy as np
import pyarrow as pa

from ..util import gunzip
from .maincontent import main_content
from .pdftext import pdf_extract

_WS_BOM = b" \t\r\n\x0c\x0b"
# doctype / html-ish root in the first bytes => markup tier
_MARKUP_RE = re.compile(
    rb"^(?:\xef\xbb\xbf)?\s*<(?:!doctype|!--|\?xml|[a-zA-Z])",
    re.IGNORECASE)

TIER_PDF = "pdf"
TIER_HTML = "html"
TIER_TXT = "txt"


def sniff_tier(body: bytes) -> str:
    """Magic-byte tier sniff (content, not extension)."""
    if body.startswith(b"%PDF-"):
        return TIER_PDF
    if _MARKUP_RE.match(body):
        return TIER_HTML
    return TIER_TXT


def _normalize_txt(body: bytes) -> str:
    """extractor.py:268-277 txt semantics: strict UTF-8 else assume
    latin-1; NULs stripped (swish_slurp no_nulls)."""
    body = body.replace(b"\x00", b"")
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError:
        return body.decode("latin-1")


class TieredExtract:
    """Stateful task router stage; see module docstring.
    ``min_stopword_density`` feeds the html tier's
    :func:`~swishray.ops.maincontent.main_content`."""

    def __init__(self, body_col: str = "body", key: str = "url",
                 min_stopword_density: float = 0.25) -> None:
        self.body_col = body_col
        self.key = key
        self.min_stop = min_stopword_density

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.key)
        bodies = batch.column(self.body_col).to_pylist()
        n = len(bodies)
        tiers = np.empty(n, dtype=object)
        texts: list[str] = [""] * n
        errors: list[str | None] = [None] * n
        was_gz = np.zeros(n, dtype=bool)

        html_pos: list[int] = []
        html_bodies: list[bytes] = []
        for i, body in enumerate(bodies):
            if body is None:
                tiers[i] = TIER_TXT
                errors[i] = "null_body"
                continue
            if isinstance(body, str):
                body = body.encode("utf-8")
            if body[:2] == b"\x1f\x8b":
                was_gz[i] = True
                body = gunzip(body)
                if body is None:
                    tiers[i] = TIER_TXT
                    errors[i] = "bad_gzip"
                    continue
            t = sniff_tier(body)
            tiers[i] = t
            if t == TIER_PDF:
                txt, _mode, _used, _skip, err = pdf_extract(body)
                texts[i] = txt
                errors[i] = err
            elif t == TIER_HTML:
                html_pos.append(i)
                html_bodies.append(body)
            else:
                texts[i] = _normalize_txt(body)

        if html_pos:
            main, _, _ = main_content(html_bodies, self.min_stop)
            for pos, txt in zip(html_pos, main):
                texts[pos] = txt

        tarr = pa.array(texts, type=pa.large_string())
        return pa.table({
            self.key: keys,
            "tier": pa.array(list(tiers), type=pa.string()),
            "tier_text": tarr,
            "tier_chars": pa.array(
                np.array([len(t) for t in texts], dtype=np.int64)),
            "was_gzip": pa.array(was_gz),
            "error": pa.array(errors, type=pa.string()),
        })


def tiered_extract(ds: Any, body_col: str = "body", key: str = "url",
                   batch_size: int = 64,
                   min_stopword_density: float = 0.25) -> Any:
    """Dataset-level tiered extraction (see module docstring)."""
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, TieredExtract,
        fn_constructor_kwargs=dict(
            body_col=body_col, key=key,
            min_stopword_density=min_stopword_density),
        batch_format="pyarrow", batch_size=batch_size)


def tier_metrics(extracted: Any) -> Any:
    """Per-tier extraction metrics: docs, chars, gzip members, parse
    errors — the north-star's 'extraction metrics' aggregate, as a
    slim map-side pre-agg + tiny groupby (no wide shuffle of text)."""
    import pyarrow.compute as pc

    def pre(batch: pa.Table) -> pa.Table:
        t = batch.column("tier")
        out = batch.group_by(["tier"]).aggregate([
            ("tier_chars", "sum"), ("was_gzip", "sum"),
        ])
        err = pc.is_valid(batch.column("error"))
        etbl = pa.table({"tier": t, "err": err}) \
            .group_by(["tier"]).aggregate([("err", "sum")])
        cnt = pa.table({"tier": t}).group_by(["tier"]) \
            .aggregate([([], "count_all")])
        j = out.join(etbl, "tier").join(cnt, "tier")
        return pa.table({
            "tier": j.column("tier"),
            "docs": pc.cast(j.column("count_all"), pa.int64()),
            "chars": pc.cast(j.column("tier_chars_sum"), pa.int64()),
            "gzip_members": pc.cast(j.column("was_gzip_sum"),
                                    pa.int64()),
            "parse_errors": pc.cast(j.column("err_sum"), pa.int64()),
        })

    pre_ds = extracted.map_batches(pre, batch_format="pyarrow")
    return pre_ds.groupby("tier").sum(
        ["docs", "chars", "gzip_members", "parse_errors"])
