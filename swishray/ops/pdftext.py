"""PDF text extraction (the north-star "PDF/layout parse" tier) —
from-scratch over the public PDF 1.x spec (ISO 32000).

The reference pipes non-HTML formats through external filter programs
(Swish-e's ``FileFilter`` convention); this engine gives PDFs a
first-class map-side operator instead.  Two tiers:

* the STRUCTURED reader (:func:`pdf_extract`, ``mode="auto"``):
  real xref tables/streams, object streams, the full filter set,
  font encodings + /Differences + ToUnicode CMaps (so Type0/CID text
  decodes instead of mojibake), RC4/AES encryption with an empty
  user password, and a positioned-text layout pass — see pdfcos.py /
  pdfpage.py / pdfcrypt.py;
* the syntactic SCAN below (``mode="scan"``, the round-4 tier),
  kept as the resilient fallback for files with no parseable
  structure.  Its original scope:

* content streams stored raw or ``/FlateDecode`` (zlib is in the
  stdlib) — other filters (DCT, LZW, crypt) are skipped and counted;
* text shown with ``Tj`` / ``'`` / ``"`` / ``TJ`` inside ``BT..ET``,
  literal ``(..)`` strings (all escape forms, balanced parens) and
  hex ``<..>`` strings;
* line structure from ``Td`` / ``TD`` / ``T*`` / ``'`` / ``"``;
* simple-font text only: bytes decode as Latin-1 (the WinAnsi /
  Standard encoding ASCII range).  CID/Type0 composite fonts would
  need embedded CMap parsing — out of scope; pages using them yield
  mojibake, and ``n_skipped_streams`` / the ``error`` column make the
  degradation visible instead of silent.

Per-row error discipline matches the extraction stages: a broken PDF
produces an empty-text row with ``error`` set, never a failed batch.

``build_simple_pdf`` is the deterministic synthesis counterpart
(tests + the oracle-paired query): a valid one-page PDF with a
Flate-compressed content stream, correct xref offsets, one ``Tj`` per
line.
"""
from __future__ import annotations

import re
import zlib
from typing import Any

import pyarrow as pa

from ..util import row_columns

# dictionary immediately preceding a stream body; non-greedy so
# nested dicts inside (rare, for these purposes) don't over-capture
_STREAM_RE = re.compile(
    rb"<<(?P<dict>(?:[^<>]|<<(?:[^<>]|<<[^>]*>>)*>>)*?)>>\s*stream\r?\n",
    re.DOTALL)
_ENDSTREAM = b"endstream"

# text-showing / positioning operators inside BT..ET
_BT_RE = re.compile(rb"\bBT\b(.*?)\bET\b", re.DOTALL)
_TOK_RE = re.compile(
    rb"\((?P<lit>(?:[^()\\]|\\.|\((?:[^()\\]|\\.)*\))*)\)\s*"
    rb"(?P<lop>Tj|'|\")"
    rb"|\[(?P<arr>(?:[^][\\()]|\((?:[^()\\]|\\.)*\)|\\.)*)\]\s*TJ"
    rb"|<(?P<hex>[0-9A-Fa-f\s]*)>\s*(?P<hop>Tj|'|\")"
    rb"|(?P<nl>T\*|Td|TD)",
    re.DOTALL)
_ARR_STR_RE = re.compile(
    rb"\((?P<lit>(?:[^()\\]|\\.|\((?:[^()\\]|\\.)*\))*)\)"
    rb"|<(?P<hex>[0-9A-Fa-f\s]*)>")

_ESC_RE = re.compile(rb"\\(\d{1,3}|.)", re.DOTALL)
_ESC_MAP = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b",
            b"f": b"\f", b"(": b"(", b")": b")", b"\\": b"\\",
            b"\n": b"", b"\r": b""}


def _unescape(lit: bytes) -> bytes:
    def sub(m: re.Match) -> bytes:
        g = m.group(1)
        if g.isdigit():
            return bytes([int(g, 8) & 0xFF])
        return _ESC_MAP.get(g, g)
    return _ESC_RE.sub(sub, lit)


def _hex_bytes(h: bytes) -> bytes:
    h = re.sub(rb"\s+", b"", h)
    if len(h) % 2:
        h += b"0"  # spec: odd final digit implies trailing 0
    try:
        return bytes.fromhex(h.decode("ascii"))
    except ValueError:
        return b""


def pdf_text_from_bytes(data: bytes) -> tuple[str, int, int, str | None]:
    """-> (text, n_streams_used, n_streams_skipped, error).

    Streams are located syntactically (no xref walk — resilient to
    broken offsets, which real-crawl PDFs are full of); each is
    inflated when Flate-tagged, taken raw when untagged, skipped when
    carrying any other filter."""
    if not data.startswith(b"%PDF-"):
        return "", 0, 0, "not_pdf"
    used = skipped = 0
    lines: list[bytes] = []
    cur: list[bytes] = []

    def endline() -> None:
        if cur:
            lines.append(b"".join(cur))
            cur.clear()

    for m in _STREAM_RE.finditer(data):
        d = m.group("dict")
        start = m.end()
        # Prefer the declared /Length: compressed bytes may THEMSELVES
        # end in CR/LF, so trimming by pattern would corrupt them.
        body = None
        lm = re.search(rb"/Length\s+(\d+)", d)
        if lm:
            n = int(lm.group(1))
            tail = data[start + n:start + n + 20]
            if re.match(rb"\s*endstream", tail):
                body = data[start:start + n]
        if body is None:
            end = data.find(_ENDSTREAM, start)
            if end < 0:
                skipped += 1
                continue
            body = data[start:end]
            # spec: exactly one EOL precedes "endstream" — strip ONE
            if body.endswith(b"\r\n"):
                body = body[:-2]
            elif body.endswith((b"\n", b"\r")):
                body = body[:-1]
        if b"/Filter" in d:
            # the structured tier's filter set (pdfcos), fed the
            # filter names found syntactically — the scan tier is
            # for files whose OBJECT STRUCTURE is broken, which is
            # independent of how their streams are encoded
            from .pdfcos import apply_filters
            names = [n.decode("latin-1") for n in re.findall(
                rb"/(FlateDecode|Fl|LZWDecode|LZW|ASCIIHexDecode|"
                rb"AHx|ASCII85Decode|A85|RunLengthDecode|RL)\b", d)]
            if not names:  # image codec / crypt: not a text stream
                skipped += 1
                continue
            try:
                body = apply_filters(body, names, None)
            except Exception:  # noqa: BLE001 — count-and-skip
                skipped += 1
                continue
        text_ops = list(_BT_RE.finditer(body))
        if not text_ops:
            continue
        used += 1
        for bt in text_ops:
            for tok in _TOK_RE.finditer(bt.group(1)):
                if tok.group("nl") is not None:
                    endline()
                    continue
                op = tok.group("lop") or tok.group("hop")
                if op in (b"'", b'"'):
                    endline()  # ' and " move to the next line first
                if tok.group("lit") is not None:
                    cur.append(_unescape(tok.group("lit")))
                elif tok.group("hex") is not None:
                    cur.append(_hex_bytes(tok.group("hex")))
                else:  # TJ array: strings concatenated, kerning ignored
                    for s in _ARR_STR_RE.finditer(tok.group("arr")):
                        if s.group("lit") is not None:
                            cur.append(_unescape(s.group("lit")))
                        else:
                            cur.append(_hex_bytes(s.group("hex")))
            endline()
    endline()
    txt = "\n".join(ln.decode("latin-1") for ln in lines)
    return txt, used, skipped, None


def pdf_extract(data: bytes, password: bytes = b""
                ) -> tuple[str, str, int, int, str | None]:
    """Tiered extraction: the STRUCTURED reader first (pdfcos /
    pdfpage: real xref + object streams + fonts + ToUnicode +
    encryption), falling back to the syntactic scan above when the
    file has no parseable structure — the crawl-resilient cascade.

    -> (text, mode, n_units, n_skipped, error) where mode is
    "structured" (n_units = pages) or "scan" (n_units = streams).
    """
    from .pdfpage import document_text
    try:
        txt, n_pages, n_skip = document_text(data, password)
        if txt.strip() or n_skip == 0:
            return txt, "structured", n_pages, n_skip, None
    except Exception:  # noqa: BLE001 — any structural failure
        pass
    txt, used, skipped, err = pdf_text_from_bytes(data)
    return txt, "scan", used, skipped, err


class PdfTextExtract:
    """Stateful task stage: binary PDF column -> (text, n_streams,
    n_skipped_streams, error).  ``mode="scan"`` (default) is the
    round-4 syntactic tier with its original schema; ``mode="auto"``
    runs the structured-first cascade (:func:`pdf_extract`) and adds
    a ``mode`` column.  Regexes are module-compiled; per-document
    font caches live inside the structured reader."""

    def __init__(self, pdf_col: str = "pdf", key: str = "url",
                 mode: str = "scan", password: bytes = b"") -> None:
        self.pdf_col = pdf_col
        self.key = key
        self.mode = mode
        self.password = password

    def _row(self, body: bytes | str | None) -> tuple:
        if body is None:
            return "", 0, 0, "none", "null_body"
        if isinstance(body, str):
            body = body.encode("latin-1", "replace")
        if self.mode == "auto":
            txt, mode, used, skipped, err = pdf_extract(body,
                                                        self.password)
        else:
            txt, used, skipped, err = pdf_text_from_bytes(body)
            mode = "scan"
        return txt, used, skipped, mode, err

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = row_columns(batch.column(self.pdf_col).to_pylist(),
                           self._row,
                           [("text", pa.large_string()),
                            ("n_streams", pa.int64()),
                            ("n_skipped_streams", pa.int64()),
                            ("mode", pa.string()), ("error", pa.string())],
                           failure=("", 0, 0, "error"))
        mode = cols.pop("mode")
        if self.mode == "auto":
            cols["mode"] = mode
        return pa.table({self.key: batch.column(self.key), **cols})


def extract_pdf_text(ds: Any, pdf_col: str = "pdf", key: str = "url",
                     batch_size: int = 32,
                     mode: str = "scan",
                     password: bytes = b"") -> Any:
    """Dataset-level PDF text extraction.  Small default batch size:
    PDFs are large binary payloads (brief: size batches to the blob,
    not the row count).  ``mode="auto"`` runs the structured-first
    cascade (real xref/fonts/encryption; scan fallback)."""
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, PdfTextExtract,
        fn_constructor_kwargs=dict(pdf_col=pdf_col, key=key,
                                   mode=mode, password=password),
        batch_format="pyarrow", batch_size=batch_size)


# ---------------------------------------------------------------------
# synthesis (tests + oracle-paired query)

def _pdf_escape(s: str) -> bytes:
    return (s.replace("\\", "\\\\").replace("(", "\\(")
            .replace(")", "\\)").encode("latin-1", "replace"))


def build_simple_pdf(lines: list[str], compress: bool = True) -> bytes:
    """A valid single-page PDF (header, page tree, Helvetica, content
    stream, xref, trailer) showing ``lines`` one ``Tj`` per line."""
    parts = [b"BT /F1 11 Tf 72 720 Td 13 TL"]
    first = True
    for ln in lines:
        if first:
            parts.append(b"(" + _pdf_escape(ln) + b") Tj")
            first = False
        else:
            parts.append(b"(" + _pdf_escape(ln) + b") '")
    parts.append(b"ET")
    content = b"\n".join(parts)
    if compress:
        body = zlib.compress(content)
        sdict = b"<< /Length %d /Filter /FlateDecode >>" % len(body)
    else:
        body = content
        sdict = b"<< /Length %d >>" % len(body)

    objs = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>",
        sdict + b"\nstream\n" + body + b"\nendstream",
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
    ]
    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for i, o in enumerate(objs, 1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % i + o + b"\nendobj\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n" % (len(objs) + 1)
    out += b"0000000000 65535 f \n"
    for off in offsets:
        out += b"%010d 00000 n \n" % off
    out += (b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n"
            b"%%%%EOF\n" % (len(objs) + 1, xref_at))
    return bytes(out)
