"""DOM-heuristic main-content extraction (boilerplate stripping).

The reference suppresses non-content markup structurally — script /
style bodies never reach the tokenizer (libswish3 parser.c SAX
handlers only buffer character data routed through MetaName rules) —
but has no notion of *rendered-page* boilerplate.  A Common-Crawl
extraction tier needs the stronger form: drop navigation chrome,
footers, sidebars and link farms, keep the article body.  This module
implements the classic density heuristics (jusText, Kohlschuetter's
boilerpipe — public algorithms) over the same libxml2 HTML SAX
machinery the parity extractor uses (`swishray.libxml.html_parse`,
C event-batch fast path included):

1. **Segment** the page into text blocks at block-level element
   boundaries, skipping whole subtrees by *tag rule* (``<script>``,
   ``<style>``, ``<nav>``, ``<header>``, ``<footer>``, ``<aside>``,
   ``<form>``, ...) and by *class/id rule* (elements whose ``class``
   or ``id`` matches nav/menu/footer/sidebar/banner/ad/... tokens).
2. **Score** each block: character count, link density (fraction of
   characters inside ``<a>``), stopword density.
3. **Classify** good/bad, with one neighbour-promotion pass: a short
   low-link block adjacent to a good block is kept (headlines,
   single-sentence paragraphs inside the article).

Segmentation is per-document SAX (C-backed); scoring and
classification run vectorized (numpy over the batch's flattened
blocks).  The class-rule regex and stopword set are module constants;
the libxml2 dispatcher warms itself per worker.

Scale notes: pure map-side (no shuffle); output carries only the main
text (bounded by input size).  The stage does not bound its input
blocks itself: a caller with giant pages may apply
``pipeline.rebatch_by_bytes`` first.
"""
from __future__ import annotations

import re
from typing import Any

import numpy as np
import pyarrow as pa

from ..libxml import SaxTarget, html_parse
from ..util import body_bytes, explode_rows

# Block-level elements: opening or closing one ends the current text
# block (HTML4/5 display:block set; public knowledge).
_BLOCK_TAGS = frozenset((
    "address article aside blockquote body caption center dd details "
    "dir div dl dt fieldset figcaption figure footer form h1 h2 h3 h4 "
    "h5 h6 header hr html li main menu nav ol p pre section summary "
    "table tbody td tfoot th thead title tr ul").split())

# Whole-subtree suppression by tag (north-star "script/style/nav
# suppression"): nothing inside reaches any block.
_SKIP_TAGS = frozenset((
    "script style noscript head nav header footer aside form select "
    "option button iframe svg template textarea datalist").split())

# Whole-subtree suppression by class/id token ("tag-class rules").
_CLASS_RE = re.compile(
    r"(?:^|[\s_-])(?:nav|navigation|navbar|menu|footer|header|side-?bar|"
    r"breadcrumbs?|comments?|share|social|banner|ads?|advert\w*|cookie|"
    r"popup|modal|related|widget)(?:$|[\s_-])")

# A compact public English stopword list (function words only).  The
# stopword-density rule is language-sensitive; set
# ``min_stopword_density=0`` to disable it.
_EN_STOPWORDS = frozenset((
    "a an and are as at be but by for from had has have he her his i "
    "in is it its not of on or she that the their they this to was "
    "were will with you your we our us about after all also been can "
    "do if into more no one only other out over so some than then "
    "there these up what when which who would").split())
_STOP_ARR = pa.array(sorted(_EN_STOPWORDS), type=pa.string())

# block classification: a good block has at least _MIN_CHARS characters
# and at most _MAX_LINK_DENSITY of them inside <a>
_MIN_CHARS = 25
_MAX_LINK_DENSITY = 0.33
_BLOCK_FIELDS = (("text", pa.string()), ("raw_chars", pa.int64()),
                 ("anchor_chars", pa.int64()))


class _BlockTarget(SaxTarget):
    """SAX target that segments a page into (text, raw_chars,
    anchor_chars) blocks, honouring skip-tag and class-rule
    suppression.  libxml2's HTML parser emits balanced start/end
    events (implied closes are synthesised), so suppression is a
    depth-marker, not a name-matched stack."""

    __slots__ = ("depth", "skip_until", "anchor_depth", "chunks",
                 "anchor_chars", "blocks")

    def __init__(self) -> None:
        self.depth = 0
        self.skip_until: int | None = None
        self.anchor_depth = 0
        self.chunks: list[str] = []
        self.anchor_chars = 0
        self.blocks: list[tuple[str, int, int]] = []

    def _flush(self) -> None:
        if self.chunks:
            txt = "".join(self.chunks)
            self.blocks.append((txt, len(txt), self.anchor_chars))
            self.chunks = []
        self.anchor_chars = 0

    def _class_skips(self, atts) -> bool:
        if not atts:
            return False
        for i in range(0, len(atts) - 1, 2):
            name = atts[i]
            if name in (b"class", b"id") and atts[i + 1]:
                if _CLASS_RE.search(
                        atts[i + 1].decode("utf-8", "replace").lower()):
                    return True
        return False

    def start_element(self, name: bytes, atts=None) -> None:
        self.depth += 1
        if self.skip_until is not None:
            return
        tag = name.decode("ascii", "replace").lower()
        if tag in _SKIP_TAGS or self._class_skips(atts):
            self._flush()
            self.skip_until = self.depth
            return
        if tag in _BLOCK_TAGS:
            self._flush()
        elif tag == "a":
            self.anchor_depth += 1

    def end_element(self, name: bytes) -> None:
        if self.skip_until is not None:
            if self.depth == self.skip_until:
                self.skip_until = None
            self.depth -= 1
            return
        self.depth -= 1
        tag = name.decode("ascii", "replace").lower()
        if tag in _BLOCK_TAGS:
            self._flush()
        elif tag == "a" and self.anchor_depth > 0:
            self.anchor_depth -= 1

    def characters(self, data: bytes) -> None:
        if self.skip_until is not None:
            return
        txt = data.decode("utf-8", "replace")
        self.chunks.append(txt)
        if self.anchor_depth > 0:
            self.anchor_chars += len(txt)

    def end_document(self) -> None:
        self._flush()


_WS_RE = re.compile(r"\s+")


def _blocks(body) -> list[tuple[str, int, int]]:
    """One page's non-empty (text, raw_chars, anchor_chars) blocks."""
    body = body_bytes(body)
    if body is None:
        return []
    tgt = _BlockTarget()
    html_parse(body, tgt)
    out = []
    for txt, raw_chars, anchor_chars in tgt.blocks:
        norm = _WS_RE.sub(" ", txt).strip()
        if norm:
            out.append((norm, raw_chars, anchor_chars))
    return out


def main_content(bodies: list, min_stopword_density: float = 0.25):
    """Per page of ``bodies``: ``(main texts, n_blocks,
    n_content_blocks)``, scored and classified over the flattened
    blocks of all pages at once."""
    import pyarrow.compute as pc

    n = len(bodies)
    doc, cols = explode_rows(pa.array(np.arange(n, dtype=np.int64)),
                             bodies, _blocks, _BLOCK_FIELDS)
    doc = doc.to_numpy()
    tarr = cols["text"]
    raw = cols["raw_chars"].to_numpy().astype(np.float64)
    anch = cols["anchor_chars"].to_numpy().astype(np.float64)
    chars = pc.utf8_length(tarr).to_numpy(zero_copy_only=False)
    nwords = pc.count_substring_regex(tarr, r"\S+") \
        .to_numpy(zero_copy_only=False).astype(np.float64)
    # stopword hits: one is_in over the flattened lowercased split
    # words, reduced per block with a cumsum-gather
    # (textstats._word_stat_arrays pattern — no per-row Python)
    words = pc.utf8_split_whitespace(pc.utf8_lower(tarr))
    hits = pc.is_in(words.flatten(), value_set=_STOP_ARR) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    woffs = words.offsets.to_numpy(zero_copy_only=False)
    hc = np.concatenate(([0], np.cumsum(hits)))
    nstop = (hc[woffs[1:] - woffs[0]]
             - hc[woffs[:-1] - woffs[0]]).astype(np.float64)
    link_d = anch / np.maximum(raw, 1.0)
    stop_d = nstop / np.maximum(nwords, 1.0)
    low_link = link_d <= _MAX_LINK_DENSITY
    good = ((chars >= _MIN_CHARS) & low_link
            & (stop_d >= min_stopword_density))
    short = (chars < _MIN_CHARS) & low_link
    # neighbour promotion WITHIN each page: a page's first block has
    # no previous neighbour and its last no next one (which also masks
    # the wrap-around of np.roll)
    first = np.diff(doc, prepend=-1) != 0
    last = np.diff(doc, append=n) != 0
    keep = good | (short & ((np.roll(good, 1) & ~first)
                            | (np.roll(good, -1) & ~last)))

    kept: list[list[str]] = [[] for _ in range(n)]
    for d, t in zip(doc[keep].tolist(),
                    tarr.filter(pa.array(keep)).to_pylist()):
        kept[d].append(t)
    return (["\n".join(ts) for ts in kept],
            np.bincount(doc, minlength=n),
            np.bincount(doc[keep], minlength=n))


class MainContentExtract:
    """Stateful task stage: HTML -> (main_text, n_blocks,
    n_content_blocks, main_chars); see :func:`main_content`."""

    def __init__(self, html_col: str = "html", key: str = "url",
                 min_stopword_density: float = 0.25) -> None:
        self.html_col = html_col
        self.key = key
        self.min_stop = min_stopword_density

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts, n_blocks, n_content = main_content(
            batch.column(self.html_col).to_pylist(), self.min_stop)
        return pa.table({
            self.key: batch.column(self.key),
            "main_text": pa.array(texts, type=pa.large_string()),
            "n_blocks": pa.array(n_blocks),
            "n_content_blocks": pa.array(n_content),
            "main_chars": pa.array(
                np.array([len(t) for t in texts], dtype=np.int64)),
        })


def extract_main_content(ds: Any, html_col: str = "html",
                         key: str = "url", batch_size: int = 64,
                         min_stopword_density: float = 0.25) -> Any:
    """Dataset-level main-content extraction (see module docstring)."""
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, MainContentExtract,
        fn_constructor_kwargs=dict(
            html_col=html_col, key=key,
            min_stopword_density=min_stopword_density),
        batch_format="pyarrow", batch_size=batch_size)
