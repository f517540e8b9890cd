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
blocks).  The stage is stateful: the class-rule regex, stopword
set and libxml2 dispatcher are warm per worker.

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
_CLASS_RULE = (
    r"(?:^|[\s_-])(?:nav|navigation|navbar|menu|footer|header|side-?bar|"
    r"breadcrumbs?|comments?|share|social|banner|ads?|advert\w*|cookie|"
    r"popup|modal|related|widget)(?:$|[\s_-])")

# A compact public English stopword list (function words only).  The
# stopword-density rule is language-sensitive; pass ``stopwords=`` per
# corpus or set ``min_stopword_density=0`` to disable the rule.
_EN_STOPWORDS = frozenset((
    "a an and are as at be but by for from had has have he her his i "
    "in is it its not of on or she that the their they this to was "
    "were will with you your we our us about after all also been can "
    "do if into more no one only other out over so some than then "
    "there these up what when which who would").split())


class _BlockTarget(SaxTarget):
    """SAX target that segments a page into (text, raw_chars,
    anchor_chars) blocks, honouring skip-tag and class-rule
    suppression.  libxml2's HTML parser emits balanced start/end
    events (implied closes are synthesised), so suppression is a
    depth-marker, not a name-matched stack."""

    __slots__ = ("class_re", "depth", "skip_until", "anchor_depth",
                 "chunks", "anchor_chars", "blocks")

    def __init__(self, class_re) -> None:
        self.class_re = class_re
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
                if self.class_re.search(
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

    # namespaced events should not occur from the HTML parser, but a
    # polyglot document degrades gracefully:
    def start_element_ns(self, localname: bytes, prefix, uri,
                         namespaces=None, attributes=None) -> None:
        self.start_element(localname, None)

    def end_element_ns(self, localname: bytes, prefix, uri) -> None:
        self.end_element(localname)

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


class MainContentExtract:
    """Actor-pool stage: HTML -> (main_text, n_blocks,
    n_content_blocks, main_chars).  Warm state: compiled class-rule
    regex + stopword frozenset; the libxml2 dispatcher and C event
    path warm themselves per process on first parse."""

    def __init__(self, html_col: str = "html", key: str = "url",
                 min_chars: int = 25, max_link_density: float = 0.33,
                 min_stopword_density: float = 0.25,
                 stopwords=None, class_rule: str = _CLASS_RULE) -> None:
        self.html_col = html_col
        self.key = key
        self.min_chars = min_chars
        self.max_link_density = max_link_density
        self.min_stop = min_stopword_density
        self.stop = frozenset(stopwords) if stopwords is not None \
            else _EN_STOPWORDS
        self._stop_arr = pa.array(sorted(self.stop), type=pa.string())
        self.class_re = re.compile(class_rule)

    def _segment(self, body: bytes) -> list[tuple[str, int, int]]:
        tgt = _BlockTarget(self.class_re)
        html_parse(body, tgt)
        out = []
        for txt, raw_chars, anchor_chars in tgt.blocks:
            norm = _WS_RE.sub(" ", txt).strip()
            if norm:
                out.append((norm, raw_chars, anchor_chars))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.key)
        bodies = batch.column(self.html_col).to_pylist()
        n = len(bodies)
        per_doc: list[list[tuple[str, int, int]]] = []
        for body in bodies:
            if body is None:
                per_doc.append([])
                continue
            if isinstance(body, str):
                body = body.encode("utf-8")
            per_doc.append(self._segment(body))

        # vectorized scoring over the flattened block list
        texts = [b[0] for blocks in per_doc for b in blocks]
        raw = np.array([b[1] for blocks in per_doc for b in blocks],
                       dtype=np.float64)
        anch = np.array([b[2] for blocks in per_doc for b in blocks],
                        dtype=np.float64)
        lens = np.array([len(blocks) for blocks in per_doc],
                        dtype=np.int64)
        nb = len(texts)
        if nb:
            import pyarrow.compute as pc
            tarr = pa.array(texts, type=pa.string())
            chars = pc.utf8_length(tarr).to_numpy(zero_copy_only=False)
            nwords = pc.count_substring_regex(tarr, r"\S+") \
                .to_numpy(zero_copy_only=False).astype(np.float64)
            # stopword hits: one is_in over the flattened lowercased
            # split words, reduced per block with a cumsum-gather
            # (textstats._word_stat_arrays pattern — no per-row Python)
            words = pc.utf8_split_whitespace(pc.utf8_lower(tarr))
            if isinstance(words, pa.ChunkedArray):
                words = words.combine_chunks()
            hits = pc.is_in(words.flatten(), value_set=self._stop_arr) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            woffs = words.offsets.to_numpy(zero_copy_only=False)
            hc = np.concatenate(([0], np.cumsum(hits)))
            nstop = (hc[woffs[1:] - woffs[0]]
                     - hc[woffs[:-1] - woffs[0]]).astype(np.float64)
            link_d = anch / np.maximum(raw, 1.0)
            stop_d = nstop / np.maximum(nwords, 1.0)
            low_link = link_d <= self.max_link_density
            good = ((chars >= self.min_chars) & low_link
                    & (stop_d >= self.min_stop))
            short = (chars < self.min_chars) & low_link
            # neighbour promotion WITHIN each doc: shift good left /
            # right but never across a doc boundary
            starts = np.zeros(nb, dtype=bool)
            ends = np.zeros(nb, dtype=bool)
            offs = np.concatenate(([0], np.cumsum(lens)))
            starts[offs[:-1][lens > 0]] = True
            ends[offs[1:][lens > 0] - 1] = True
            prev_good = np.concatenate(([False], good[:-1])) & ~starts
            next_good = np.concatenate((good[1:], [False])) & ~ends
            keep = good | (short & (prev_good | next_good))
        else:
            keep = np.zeros(0, dtype=bool)
            good = keep

        main_texts, n_content = [], np.zeros(n, dtype=np.int64)
        pos = 0
        for i, ln in enumerate(lens):
            sel = keep[pos:pos + ln]
            n_content[i] = int(sel.sum())
            main_texts.append(
                "\n".join(t for t, k in zip(texts[pos:pos + ln], sel)
                          if k))
            pos += ln
        mt = pa.array(main_texts, type=pa.large_string())
        return pa.table({
            self.key: keys,
            "main_text": mt,
            "n_blocks": pa.array(lens),
            "n_content_blocks": pa.array(n_content),
            "main_chars": pa.array(
                np.array([len(t) for t in main_texts], dtype=np.int64)),
        })


def extract_main_content(ds: Any, html_col: str = "html",
                         key: str = "url", batch_size: int = 64,
                         **kwargs) -> Any:
    """Dataset-level main-content extraction (see module docstring).

    ``kwargs`` pass through to :class:`MainContentExtract`
    (``min_chars``, ``max_link_density``, ``min_stopword_density``,
    ``stopwords``, ``class_rule``)."""
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, MainContentExtract,
        fn_constructor_kwargs=dict(html_col=html_col, key=key, **kwargs),
        batch_format="pyarrow", batch_size=batch_size)
