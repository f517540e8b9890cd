"""PDF COS object layer — from-scratch over the public PDF spec
(ISO 32000-1 §7, "Syntax").

The round-4 PDF tier (pdftext.py) locates content streams purely
syntactically; that is the right RESILIENT fallback for the broken
PDFs a crawl is full of, but it cannot see object structure: no page
order, no fonts (so CID/Type0 text is mojibake), no object streams
(PDF 1.5+ puts most objects inside /ObjStm, invisible to a scan), no
encryption (a large share of real-web PDFs are encrypted with an
empty user password), and only the Flate filter.  This module is the
structured tier underneath pdftext v2:

* tokenizer + object parser for the COS syntax (ISO 32000-1 §7.2-7.3):
  numbers, booleans, null, names with ``#xx`` escapes, literal and
  hex strings, arrays, dictionaries, indirect references;
* stream filters (§7.4): FlateDecode and LZWDecode with PNG/TIFF
  predictors and EarlyChange, ASCIIHexDecode, ASCII85Decode,
  RunLengthDecode — each bounded against decompression bombs;
* cross-reference tables AND cross-reference streams (§7.5.4/§7.5.8)
  with /Prev chains and hybrid /XRefStm bridges, plus a brute
  "N G obj" rebuild when offsets are broken (real crawls);
* compressed object streams (/Type /ObjStm, §7.5.7);
* the document model: lazy indirect-object resolution with cycle
  guards, page-tree walk with attribute inheritance (§7.7.3.4),
  per-page concatenated content bytes.

Encryption (§7.6, the standard security handler) lives in
pdfcrypt.py; :class:`PdfDocument` calls into it when the trailer
carries /Encrypt.

Reference parity note: libswish3 itself never parses PDF — Swish-e
feeds PDFs through external ``pdftotext`` FilterProgs (reference
src/swish-e conventions); this engine replaces that shell-out with a
first-class from-scratch operator, per the brief's "PDF/layout
parse" requirement.
"""
from __future__ import annotations

import re
import zlib
from typing import Any, Iterator

__all__ = [
    "Name", "Ref", "Stream", "PdfError", "PdfDocument",
    "parse_object", "apply_filters", "pdf_info", "text_string",
    "document_info", "document_links", "document_xmp",
    "document_outline",
]

# a structured stream larger than this is a bomb, not a page
MAX_STREAM_BYTES = 64 << 20


class PdfError(ValueError):
    """Malformed PDF structure (per-row error channel, never a batch
    failure)."""


class Name(str):
    """A PDF name object (``/Foo``).  Subclasses str so dict keys and
    comparisons read naturally; the type tag matters when writing."""
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"/{str.__str__(self)}"


class Ref(tuple):
    """Indirect reference ``num gen R``."""
    __slots__ = ()

    def __new__(cls, num: int, gen: int = 0):
        return tuple.__new__(cls, (num, gen))

    @property
    def num(self) -> int:
        return self[0]

    @property
    def gen(self) -> int:
        return self[1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self[0]} {self[1]} R"


class Stream:
    """A stream object: its dictionary plus the RAW (still filtered /
    encrypted) bytes.  Decoding needs document context (indirect
    /Length chains were resolved at parse time; filters and crypt are
    applied by :meth:`PdfDocument.stream_data`)."""
    __slots__ = ("dict", "raw", "objnum", "gen")

    def __init__(self, d: dict, raw: bytes, objnum: int = 0,
                 gen: int = 0) -> None:
        self.dict = d
        self.raw = raw
        self.objnum = objnum
        self.gen = gen


# ---------------------------------------------------------------------
# tokenizer / object parser (ISO 32000-1 §7.2-7.3)

_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"
_REGULAR_STOP = _WS + _DELIM
_NUM_RE = re.compile(rb"[+-]?(?:\d+\.?\d*|\.\d+)")
_INT_RE = re.compile(rb"[+-]?\d+")


class _Parser:
    """Recursive-descent parser over a bytes buffer.  One instance
    per parse site; cheap to construct."""

    __slots__ = ("data", "pos", "n")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos
        self.n = len(data)

    # -- low-level ----------------------------------------------------
    def skip_ws(self) -> None:
        data, n = self.data, self.n
        pos = self.pos
        while pos < n:
            c = data[pos]
            if c in _WS:
                pos += 1
            elif c == 0x25:  # '%' comment to EOL
                e1 = data.find(b"\n", pos)
                e2 = data.find(b"\r", pos)
                e = min(x for x in (e1, e2, n) if x >= 0)
                pos = e
            else:
                break
        self.pos = pos

    def _keyword(self) -> bytes:
        data, n = self.data, self.n
        start = pos = self.pos
        while pos < n and data[pos] not in _REGULAR_STOP:
            pos += 1
        self.pos = pos
        return data[start:pos]

    def try_keyword(self, kw: bytes) -> bool:
        """Consume ``kw`` if it is the next token; else leave pos."""
        save = self.pos
        self.skip_ws()
        if (self.data.startswith(kw, self.pos)
                and (self.pos + len(kw) >= self.n
                     or self.data[self.pos + len(kw)] in _REGULAR_STOP)):
            self.pos += len(kw)
            return True
        self.pos = save
        return False

    # -- objects ------------------------------------------------------
    def parse(self) -> Any:
        """Parse exactly one object at the current position."""
        self.skip_ws()
        if self.pos >= self.n:
            raise PdfError("unexpected end of data")
        data, pos = self.data, self.pos
        c = data[pos]

        if c == 0x2F:  # '/'
            return self._name()
        if c == 0x28:  # '('
            return self._literal_string()
        if c == 0x3C:  # '<'
            if data.startswith(b"<<", pos):
                return self._dict()
            return self._hex_string()
        if c == 0x5B:  # '['
            return self._array()
        if c in b"+-.0123456789":
            return self._number_or_ref()
        kw = self._keyword()
        if kw == b"true":
            return True
        if kw == b"false":
            return False
        if kw == b"null":
            return None
        raise PdfError(f"unexpected token {kw[:20]!r} at {pos}")

    def _name(self) -> Name:
        data, n = self.data, self.n
        pos = self.pos + 1  # past '/'
        start = pos
        while pos < n and data[pos] not in _REGULAR_STOP:
            pos += 1
        self.pos = pos
        raw = data[start:pos]
        if b"#" in raw:
            out = bytearray()
            i = 0
            while i < len(raw):
                if raw[i] == 0x23 and i + 2 < len(raw):
                    try:
                        out.append(int(raw[i + 1:i + 3], 16))
                        i += 3
                        continue
                    except ValueError:
                        pass
                out.append(raw[i])
                i += 1
            raw = bytes(out)
        return Name(raw.decode("latin-1"))

    def _literal_string(self) -> bytes:
        data, n = self.data, self.n
        pos = self.pos + 1  # past '('
        depth = 1
        out = bytearray()
        while pos < n:
            c = data[pos]
            if c == 0x5C:  # backslash
                pos += 1
                if pos >= n:
                    break
                e = data[pos]
                if e in b"nrtbf":
                    out.append({0x6E: 10, 0x72: 13, 0x74: 9,
                                0x62: 8, 0x66: 12}[e])
                    pos += 1
                elif e in b"01234567":
                    oct_ = bytes([e])
                    pos += 1
                    for _ in range(2):
                        if pos < n and data[pos] in b"01234567":
                            oct_ += bytes([data[pos]])
                            pos += 1
                        else:
                            break
                    out.append(int(oct_, 8) & 0xFF)
                elif e == 0x0A:
                    pos += 1  # line continuation
                elif e == 0x0D:
                    pos += 1
                    if pos < n and data[pos] == 0x0A:
                        pos += 1
                else:
                    out.append(e)
                    pos += 1
            elif c == 0x28:
                depth += 1
                out.append(c)
                pos += 1
            elif c == 0x29:
                depth -= 1
                if depth == 0:
                    pos += 1
                    self.pos = pos
                    return bytes(out)
                out.append(c)
                pos += 1
            else:
                out.append(c)
                pos += 1
        raise PdfError("unterminated literal string")

    def _hex_string(self) -> bytes:
        data = self.data
        end = data.find(b">", self.pos + 1)
        if end < 0:
            raise PdfError("unterminated hex string")
        h = re.sub(rb"[^0-9A-Fa-f]", b"", data[self.pos + 1:end])
        self.pos = end + 1
        if len(h) % 2:
            h += b"0"
        return bytes.fromhex(h.decode("ascii"))

    def _array(self) -> list:
        self.pos += 1  # past '['
        out = []
        while True:
            self.skip_ws()
            if self.pos >= self.n:
                raise PdfError("unterminated array")
            if self.data[self.pos] == 0x5D:  # ']'
                self.pos += 1
                return out
            out.append(self.parse())

    def _dict(self) -> dict:
        self.pos += 2  # past '<<'
        out: dict = {}
        while True:
            self.skip_ws()
            if self.data.startswith(b">>", self.pos):
                self.pos += 2
                return out
            if self.pos >= self.n:
                raise PdfError("unterminated dictionary")
            if self.data[self.pos] != 0x2F:
                raise PdfError(
                    f"dict key is not a name at {self.pos}")
            key = self._name()
            out[str(key)] = self.parse()

    def _number_or_ref(self) -> Any:
        data = self.data
        m = _NUM_RE.match(data, self.pos)
        if not m:
            raise PdfError(f"bad number at {self.pos}")
        tok = m.group()
        self.pos = m.end()
        if b"." in tok:
            return float(tok)
        val = int(tok)
        # lookahead for "gen R"
        save = self.pos
        self.skip_ws()
        m2 = _INT_RE.match(data, self.pos)
        if m2 and val >= 0:
            after = m2.end()
            p = _Parser(data, after)
            p.skip_ws()
            if (p.pos < p.n and data[p.pos] == 0x52  # 'R'
                    and (p.pos + 1 >= p.n
                         or data[p.pos + 1] in _REGULAR_STOP)):
                self.pos = p.pos + 1
                return Ref(val, int(m2.group()))
        self.pos = save
        return val


def parse_object(data: bytes, pos: int = 0) -> tuple[Any, int]:
    """Parse one object at ``pos``; -> (object, end position)."""
    p = _Parser(data, pos)
    obj = p.parse()
    return obj, p.pos


# ---------------------------------------------------------------------
# stream filters (ISO 32000-1 §7.4)

# predictor post-processing and LZW expansion run per-byte in
# Python; a deflate/LZW bomb claiming them could stall a decode
# worker for minutes even under the 64 MB byte cap.  Real predictor
# use is xref streams (KBs) and real LZW content streams are small.
MAX_PREDICTOR_BYTES = 8 << 20
MAX_LZW_BYTES = 16 << 20


def _predictor(data: bytes, parms: dict) -> bytes:
    pred = parms.get("Predictor", 1)
    if not isinstance(pred, int) or pred <= 1:
        return data
    if len(data) > MAX_PREDICTOR_BYTES:
        raise PdfError("predictor stream exceeds the safety cap")
    colors = parms.get("Colors", 1)
    bpc = parms.get("BitsPerComponent", 8)
    columns = parms.get("Columns", 1)
    if not all(isinstance(x, int) and x > 0
               for x in (colors, bpc, columns)):
        raise PdfError("bad predictor parameters")
    bpp = max(1, (colors * bpc + 7) // 8)
    rowlen = (colors * bpc * columns + 7) // 8
    if pred == 2:  # TIFF predictor: horizontal differencing
        if bpc != 8:
            raise PdfError("TIFF predictor with sub-byte samples")
        out = bytearray(data)
        for r in range(0, len(out) - rowlen + 1, rowlen):
            for i in range(r + bpp, r + rowlen):
                out[i] = (out[i] + out[i - bpp]) & 0xFF
        return bytes(out)
    # PNG predictors (10..15): per-row filter byte, same as PNG §9
    stride = rowlen + 1
    nrows = len(data) // stride
    out = bytearray(nrows * rowlen)
    prev = bytearray(rowlen)
    for r in range(nrows):
        ft = data[r * stride]
        row = bytearray(data[r * stride + 1:(r + 1) * stride])
        if ft == 1:  # Sub
            for i in range(bpp, rowlen):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ft == 2:  # Up
            for i in range(rowlen):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ft == 3:  # Average
            for i in range(rowlen):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for i in range(rowlen):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                pa = abs(b - c)
                pb = abs(a - c)
                pc = abs(a + b - 2 * c)
                pr = a if pa <= pb and pa <= pc else (
                    b if pb <= pc else c)
                row[i] = (row[i] + pr) & 0xFF
        elif ft != 0:
            raise PdfError(f"bad PNG predictor filter byte {ft}")
        out[r * rowlen:(r + 1) * rowlen] = row
        prev = row
    return bytes(out)


def _flate(data: bytes, parms: dict) -> bytes:
    # real-crawl PDFs carry junk before the deflate body; retry
    # skipping 1-2 leading bytes (each attempt with ITS OWN
    # decompressobj — the cap check must read the object that
    # actually produced the output)
    last: Exception | None = None
    for skip in (0, 1, 2):
        d = zlib.decompressobj()
        try:
            out = d.decompress(data[skip:], MAX_STREAM_BYTES)
        except zlib.error as e:
            last = e
            continue
        if d.unconsumed_tail:
            raise PdfError(
                "flate output exceeds the stream safety cap")
        return _predictor(out, parms)
    raise PdfError(f"flate: {last}") from None


def _lzw(data: bytes, parms: dict) -> bytes:
    """PDF LZWDecode: MSB-first variable-width codes, 256=Clear,
    257=EOD, table grows 9->12 bits with EarlyChange (default 1) —
    the same coder as TIFF's (ops/tiff.py cites the shared spec
    heritage) plus the EarlyChange=0 switch PDF allows."""
    early = parms.get("EarlyChange", 1)
    early = 1 if early not in (0, 1) else early
    out = bytearray()
    table: list[bytes] = [bytes([i]) for i in range(256)]
    table += [b"", b""]  # 256 clear, 257 eod
    width = 9
    prev: bytes | None = None
    acc = bits = 0
    for byte in data:
        acc = (acc << 8) | byte
        bits += 8
        while bits >= width:
            code = (acc >> (bits - width)) & ((1 << width) - 1)
            bits -= width
            acc &= (1 << bits) - 1  # else acc grows into a bignum
            # and decode goes quadratic (same mask as tiff.py's)
            if code == 256:
                table = table[:258]
                width = 9
                prev = None
                continue
            if code == 257:
                return _predictor(bytes(out), parms)
            if prev is None:
                if code >= len(table):
                    raise PdfError("LZW: bad first code")
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise PdfError("LZW: code beyond table")
            out += entry
            if len(out) > MAX_LZW_BYTES:
                raise PdfError("LZW output exceeds the safety cap")
            prev = entry
            if len(table) + early >= (1 << width) and width < 12:
                width += 1
    return _predictor(bytes(out), parms)


def _ascii_hex(data: bytes, parms: dict) -> bytes:
    end = data.find(b">")
    if end >= 0:
        data = data[:end]
    h = re.sub(rb"[^0-9A-Fa-f]", b"", data)
    if len(h) % 2:
        h += b"0"
    try:
        return bytes.fromhex(h.decode("ascii"))
    except ValueError:
        raise PdfError("bad ASCIIHex data") from None


def _ascii85(data: bytes, parms: dict) -> bytes:
    if data.startswith(b"<~"):
        data = data[2:]
    end = data.find(b"~>")
    if end >= 0:
        data = data[:end]
    data = re.sub(rb"[\x00\t\n\x0c\r ]", b"", data)
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        if data[i] == 0x7A:  # 'z' -> four zero bytes
            out += b"\0\0\0\0"
            i += 1
            continue
        group = data[i:i + 5]
        i += len(group)
        k = len(group)
        if k < 2:
            raise PdfError("ASCII85: dangling byte")
        padded = group + b"u" * (5 - k)
        val = 0
        for ch in padded:
            d = ch - 33
            if not 0 <= d <= 84:
                raise PdfError("ASCII85: byte out of range")
            val = val * 85 + d
        if val > 0xFFFFFFFF:
            raise PdfError("ASCII85: group overflow")
        out += val.to_bytes(4, "big")[:k - 1]
    return bytes(out)


def _runlength(data: bytes, parms: dict) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        ln = data[i]
        i += 1
        if ln == 128:
            break
        if ln < 128:
            chunk = data[i:i + ln + 1]
            if len(chunk) != ln + 1:
                raise PdfError("RunLength: short literal run")
            out += chunk
            i += ln + 1
        else:
            if i >= n:
                raise PdfError("RunLength: short repeat run")
            out += bytes([data[i]]) * (257 - ln)
            i += 1
        if len(out) > MAX_STREAM_BYTES:
            raise PdfError("RunLength output exceeds the safety cap")
    return bytes(out)


_FILTERS = {
    "FlateDecode": _flate, "Fl": _flate,
    "LZWDecode": _lzw, "LZW": _lzw,
    "ASCIIHexDecode": _ascii_hex, "AHx": _ascii_hex,
    "ASCII85Decode": _ascii85, "A85": _ascii85,
    "RunLengthDecode": _runlength, "RL": _runlength,
}

# filters we recognise but do not decode here: image codecs (handled
# by the decode_* tier when relevant) and crypt markers
_OPAQUE_FILTERS = {"DCTDecode", "DCT", "JPXDecode", "CCITTFaxDecode",
                   "CCF", "JBIG2Decode", "Crypt"}


def apply_filters(data: bytes, filters: Any, parms: Any) -> bytes:
    """Run the (possibly chained) /Filter pipeline.  Raises PdfError
    for unknown filters; image codecs raise a PdfError tagged
    'opaque filter' so callers can count-and-skip."""
    if filters is None:
        return data
    if not isinstance(filters, list):
        filters = [filters]
    if not isinstance(parms, list):
        parms = [parms] * len(filters)
    elif len(parms) < len(filters):
        # a short /DecodeParms array must not silently drop the
        # trailing filters (zip would truncate)
        parms = parms + [None] * (len(filters) - len(parms))
    for f, p in zip(filters, parms):
        fname = str(f)
        fn = _FILTERS.get(fname)
        if fn is None:
            if fname in _OPAQUE_FILTERS:
                raise PdfError(f"opaque filter {fname}")
            raise PdfError(f"unknown filter {fname}")
        data = fn(data, p if isinstance(p, dict) else {})
    return data


# ---------------------------------------------------------------------
# document model

_OBJ_HDR_RE = re.compile(rb"(\d{1,10})\s+(\d{1,5})\s+obj\b")
_STARTXREF_RE = re.compile(rb"startxref\s+(\d+)", re.DOTALL)
# one classic-xref row, tolerant of 19/21-byte variants: leading
# whitespace absorbs the previous row's EOL whatever its length
_XREF_ROW_RE = re.compile(rb"[ \r\n]*(\d{10})[ ]+(\d{5})[ ]+([nf])")


class PdfDocument:
    """Parsed PDF file: xref map, lazy object cache, page iteration.

    ``strict=False`` (the default, crawl discipline): broken xref
    offsets fall back to a full-file object scan instead of raising.
    """

    def __init__(self, data: bytes, strict: bool = False,
                 password: bytes = b"", decrypt: bool = True) -> None:
        """``decrypt=False`` skips security-handler setup: object
        STRUCTURE (xref, page tree, dict/array/number values) is
        fully readable without the file key — only strings and
        stream bodies are ciphered — so header-only inspection works
        on files whose password we don't have."""
        if not data.startswith(b"%PDF-"):
            # some real files carry leading junk; honor an embedded
            # header within the first 1 KB (spec: viewers must)
            at = data.find(b"%PDF-", 0, 1024)
            if at < 0:
                raise PdfError("not a PDF")
            data = data[at:]
        self.data = data
        self.strict = strict
        # objnum -> ("at", offset) | ("in", container_objnum, index)
        self.xref: dict[int, tuple] = {}
        self.trailer: dict = {}
        self._cache: dict[int, Any] = {}
        self._objstm_cache: dict[int, list] = {}
        self._resolving: set[int] = set()
        self._decryptor = None
        try:
            self._load_xref()
        except PdfError:
            if strict:
                raise
            self.xref.clear()
        if not self.xref or "Root" not in self.trailer:
            self._rebuild_xref()
        enc = self.trailer.get("Encrypt")
        if enc is not None and decrypt:
            from .pdfcrypt import StandardDecryptor
            ids = self.trailer.get("ID") or [b"", b""]
            id0 = ids[0] if isinstance(ids, list) and ids else b""
            if not isinstance(id0, bytes):
                id0 = b""
            enc_d = self.get(enc) if isinstance(enc, Ref) else enc
            if not isinstance(enc_d, dict):
                raise PdfError("bad /Encrypt")
            self._encrypt_ref = enc if isinstance(enc, Ref) else None
            try:
                self._decryptor = StandardDecryptor(enc_d, id0,
                                                    password)
            except PdfError:
                raise
            except ValueError as e:
                # "password required" / unsupported handler must ride
                # the documented per-row error channel, not a bare
                # ValueError that bypasses catch-PdfError callers
                raise PdfError(str(e)) from None

    # -- xref ---------------------------------------------------------
    def _load_xref(self) -> None:
        tail = self.data[-2048:]
        m = None
        for m in _STARTXREF_RE.finditer(tail):
            pass
        if m is None:
            raise PdfError("no startxref")
        pos = int(m.group(1))
        seen: set[int] = set()
        while pos and pos not in seen and 0 <= pos < len(self.data):
            seen.add(pos)
            pos = self._read_xref_section(pos)

    def _read_xref_section(self, pos: int) -> int:
        """Parse one xref section (table or stream) at ``pos``;
        returns the /Prev offset or 0."""
        p = _Parser(self.data, pos)
        p.skip_ws()
        if self.data.startswith(b"xref", p.pos):
            return self._read_xref_table(p.pos + 4)
        # else: cross-reference stream "N G obj <<...>> stream"
        obj, stream = self._parse_indirect_at(pos)
        if not isinstance(stream, Stream):
            raise PdfError("xref section is neither table nor stream")
        self._merge_xref_stream(stream)
        for k, v in stream.dict.items():
            self.trailer.setdefault(k, v)
        prev = stream.dict.get("Prev", 0)
        return prev if isinstance(prev, int) else 0

    def _read_xref_table(self, pos: int) -> int:
        data = self.data
        p = _Parser(data, pos)
        while True:
            p.skip_ws()
            if data.startswith(b"trailer", p.pos):
                p.pos += 7
                tr = p.parse()
                if not isinstance(tr, dict):
                    raise PdfError("bad trailer")
                for k, v in tr.items():
                    self.trailer.setdefault(k, v)
                # hybrid files: /XRefStm points at a bridge stream
                xs = tr.get("XRefStm")
                if isinstance(xs, int) and 0 <= xs < len(data):
                    try:
                        _, st = self._parse_indirect_at(xs)
                        if isinstance(st, Stream):
                            self._merge_xref_stream(st)
                    except PdfError:
                        pass
                prev = tr.get("Prev", 0)
                return prev if isinstance(prev, int) else 0
            m = re.match(rb"(\d+)\s+(\d+)", data[p.pos:p.pos + 40])
            if not m:
                raise PdfError("bad xref subsection header")
            first, count = int(m.group(1)), int(m.group(2))
            p.pos += m.end()
            # entries are SPEC'D as fixed 20-byte records (10 off,
            # 5 gen, f/n, 2-char EOL) but broken writers emit 19- or
            # 21-byte rows; an anchored tolerant match realigns per
            # row instead of assuming the stride
            for i in range(count):
                em = _XREF_ROW_RE.match(data, p.pos)
                if not em:
                    raise PdfError("bad xref entry")
                if em.group(3) == b"n":
                    self.xref.setdefault(
                        first + i, ("at", int(em.group(1))))
                p.pos = em.end()

    def _merge_xref_stream(self, st: Stream,
                           objstm_wins: set | None = None) -> None:
        """``objstm_wins`` (rebuild path): type-2 entries OVERRIDE
        existing 'at' entries for objnums not already claimed by a
        newer stream this pass — the brute object scan cannot see
        inside /ObjStm, so a plain object it found may be the STALE
        pre-update copy; if the plain copy were newer, the newest
        xref stream would list it as type 1."""
        d = st.dict
        w = d.get("W")
        size = d.get("Size")
        if (not isinstance(w, list) or len(w) < 3
                or not all(isinstance(x, int) and 0 <= x <= 8
                           for x in w)
                or not isinstance(size, int)):
            raise PdfError("bad xref stream /W")
        raw = apply_filters(st.raw, d.get("Filter"),
                            d.get("DecodeParms"))
        index = d.get("Index") or [0, size]
        if (not isinstance(index, list) or len(index) % 2
                or not all(isinstance(x, int) for x in index)):
            raise PdfError("bad xref stream /Index")
        w1, w2, w3 = w[0], w[1], w[2]
        rec = w1 + w2 + w3
        pos = 0
        for k in range(0, len(index), 2):
            first, count = index[k], index[k + 1]
            for i in range(count):
                if pos + rec > len(raw):
                    return  # tolerate short streams
                f1 = (int.from_bytes(raw[pos:pos + w1], "big")
                      if w1 else 1)
                f2 = int.from_bytes(raw[pos + w1:pos + w1 + w2], "big")
                f3 = int.from_bytes(raw[pos + w1 + w2:pos + rec], "big")
                pos += rec
                objnum = first + i
                if f1 == 1:
                    if objstm_wins is not None:
                        # claim it plain: an OLDER stream's type-2
                        # must not override (the scan's offset stays
                        # authoritative for plain objects)
                        objstm_wins.add(objnum)
                    self.xref.setdefault(objnum, ("at", f2))
                elif f1 == 2:
                    if objstm_wins is not None and \
                            objnum not in objstm_wins:
                        objstm_wins.add(objnum)
                        self.xref[objnum] = ("in", f2, f3)
                    else:
                        self.xref.setdefault(objnum, ("in", f2, f3))

    def _rebuild_xref(self) -> None:
        """Broken offsets: scan the whole file for ``N G obj``.  Later
        definitions win (incremental updates append)."""
        for m in _OBJ_HDR_RE.finditer(self.data):
            self.xref[int(m.group(1))] = ("at", m.start())
        # xref-stream files have no literal trailer: their /Type
        # /XRef dicts carry Root/Info/Encrypt/ID (§7.5.8.2), and
        # their type-2 entries locate /ObjStm members the brute
        # object scan cannot see.  Newest (largest offset) first so
        # incremental updates win the setdefault.
        xref_streams = sorted(
            (loc[1] for loc in self.xref.values()
             if loc[0] == "at"
             and b"/XRef" in self.data[loc[1]:loc[1] + 600]),
            reverse=True)
        objstm_wins: set = set()
        for off in xref_streams:
            try:
                _, st = self._parse_indirect_at(off)
            except PdfError:
                continue
            if isinstance(st, Stream) and \
                    st.dict.get("Type") == "XRef":
                for k, v in st.dict.items():
                    self.trailer.setdefault(k, v)
                try:
                    self._merge_xref_stream(st, objstm_wins)
                except PdfError:
                    pass
        if "Root" not in self.trailer:
            # find a catalog among the objects
            for m in re.finditer(rb"trailer", self.data):
                try:
                    tr, _ = parse_object(self.data, m.end())
                except PdfError:
                    continue
                if isinstance(tr, dict) and "Root" in tr:
                    for k, v in tr.items():
                        self.trailer.setdefault(k, v)
            if "Root" not in self.trailer:
                for num in sorted(self.xref):
                    try:
                        obj = self.get(Ref(num, 0))
                    except PdfError:
                        continue
                    if (isinstance(obj, dict)
                            and obj.get("Type") == "Catalog"):
                        self.trailer["Root"] = Ref(num, 0)
                        break
        if "Root" not in self.trailer:
            raise PdfError("no document catalog")

    # -- objects ------------------------------------------------------
    def _parse_indirect_at(self, pos: int) -> tuple[int, Any]:
        """Parse ``N G obj ... endobj`` at ``pos``; -> (objnum, value)
        where a stream value is a :class:`Stream` with raw bytes."""
        data = self.data
        m = _OBJ_HDR_RE.match(data, pos) or _OBJ_HDR_RE.search(
            data, pos, pos + 64)
        if not m:
            raise PdfError(f"no object header at {pos}")
        objnum, gen = int(m.group(1)), int(m.group(2))
        p = _Parser(data, m.end())
        obj = p.parse()
        p.skip_ws()
        if isinstance(obj, dict) and data.startswith(b"stream", p.pos):
            sp = p.pos + 6
            if data.startswith(b"\r\n", sp):
                sp += 2
            elif sp < len(data) and data[sp] in b"\n\r":
                sp += 1
            ln = obj.get("Length")
            if isinstance(ln, Ref):
                ln = self.get(ln)
            body = None
            if isinstance(ln, int) and 0 <= ln <= len(data) - sp:
                tail = data[sp + ln:sp + ln + 24]
                if re.match(rb"\s*endstream", tail):
                    body = data[sp:sp + ln]
            if body is None:  # broken /Length: scan
                end = data.find(b"endstream", sp)
                if end < 0:
                    raise PdfError("unterminated stream")
                body = data[sp:end]
                if body.endswith(b"\r\n"):
                    body = body[:-2]
                elif body.endswith((b"\n", b"\r")):
                    body = body[:-1]
            return objnum, Stream(obj, body, objnum, gen)
        return objnum, obj

    def get(self, ref: Any) -> Any:
        """Resolve an object (indirect refs followed, with a cycle
        guard); non-refs pass through."""
        if not isinstance(ref, Ref):
            return ref
        num = ref.num
        if num in self._cache:
            return self._cache[num]
        if num in self._resolving:
            raise PdfError(f"reference cycle at object {num}")
        loc = self.xref.get(num)
        if loc is None:
            return None  # spec: an absent object is null
        self._resolving.add(num)
        from_objstm = loc[0] != "at"
        try:
            if loc[0] == "at":
                got, obj = self._parse_indirect_at(loc[1])
                if got != num and not self.strict:
                    # wrong offset (common in the wild): rescan
                    self._rebuild_xref()
                    loc2 = self.xref.get(num)
                    if loc2 and loc2[0] == "at" and loc2[1] != loc[1]:
                        got, obj = self._parse_indirect_at(loc2[1])
                if got != num:
                    raise PdfError(
                        f"xref points {num} at object {got}")
            else:
                obj = self._from_objstm(loc[1], loc[2], num)
        finally:
            self._resolving.discard(num)
        if isinstance(obj, Stream) and self._decryptor is not None:
            obj = Stream(obj.dict, self._decrypt_stream_raw(obj),
                         obj.objnum, obj.gen)
        elif self._decryptor is not None and not from_objstm:
            # strings inside /ObjStm were already decrypted with the
            # container stream (§7.5.7) — never twice
            obj = self._decrypt_strings(obj, num, ref.gen)
        self._cache[num] = obj
        return obj

    def _from_objstm(self, container: int, idx: int, want: int) -> Any:
        pairs = self._objstm_cache.get(container)
        if pairs is None:
            st = self.get(Ref(container, 0))
            if not isinstance(st, Stream):
                raise PdfError(f"object stream {container} missing")
            body = self.stream_data(st)
            n = st.dict.get("N")
            first = st.dict.get("First")
            if not (isinstance(n, int) and isinstance(first, int)):
                raise PdfError("bad /ObjStm header")
            hdr = _Parser(body, 0)
            pairs = []
            for _ in range(n):
                hdr.skip_ws()
                a = hdr.parse()
                b = hdr.parse()
                if not (isinstance(a, int) and isinstance(b, int)):
                    raise PdfError("bad /ObjStm pair")
                pairs.append((a, first + b))
            self._objstm_cache[container] = pairs
            self._objstm_body = getattr(self, "_objstm_body", {})
            self._objstm_body[container] = body
        body = self._objstm_body[container]
        for objnum, off in pairs:
            if objnum == want:
                obj, _ = parse_object(body, off)
                return obj
        raise PdfError(f"object {want} not in stream {container}")

    # -- decryption plumbing -------------------------------------------
    def _decrypt_stream_raw(self, st: Stream) -> bytes:
        # xref streams and the /Encrypt dict itself are never
        # encrypted (§7.5.8.2); /ObjStm bodies are, at stream level.
        # /EncryptMetadata false leaves /Metadata streams plain too.
        typ = st.dict.get("Type")
        if typ == "XRef" or (typ == "Metadata"
                             and not self._decryptor.encrypt_metadata):
            return st.raw
        try:
            return self._decryptor.decrypt_stream(
                st.raw, st.objnum, st.gen)
        except Exception as e:  # noqa: BLE001 — crawl discipline
            raise PdfError(f"stream decrypt failed: {e}") from None

    def _decrypt_strings(self, obj: Any, num: int, gen: int) -> Any:
        dec = self._decryptor

        def walk(o: Any) -> Any:
            if isinstance(o, bytes):
                return dec.decrypt_string(o, num, gen)
            if isinstance(o, list):
                return [walk(x) for x in o]
            if isinstance(o, dict):
                return {k: walk(v) for k, v in o.items()}
            return o

        if self._encrypt_ref is not None and num == self._encrypt_ref.num:
            return obj  # the encryption dictionary itself
        try:
            return walk(obj)
        except Exception as e:  # noqa: BLE001
            raise PdfError(f"string decrypt failed: {e}") from None

    # -- streams ------------------------------------------------------
    def stream_data(self, st: Stream) -> bytes:
        """Decoded stream bytes (decryption happened at fetch)."""
        filt = self.get(st.dict.get("Filter"))
        parms = self.get(st.dict.get("DecodeParms")
                         or st.dict.get("DP"))
        if isinstance(parms, list):
            parms = [self.get(x) for x in parms]
        return apply_filters(st.raw, filt, parms)

    # -- pages --------------------------------------------------------
    _INHERITED = ("Resources", "MediaBox", "CropBox", "Rotate")

    def pages(self) -> Iterator[dict]:
        """Yield page dictionaries in document order, with inherited
        attributes (§7.7.3.4) merged in."""
        root = self.get(self.trailer.get("Root"))
        if not isinstance(root, dict):
            raise PdfError("no catalog")
        top = self.get(root.get("Pages"))
        if not isinstance(top, dict):
            # tolerate a catalog whose /Pages is broken: scan for
            # page objects directly (crawl discipline)
            for num in sorted(self.xref):
                try:
                    o = self.get(Ref(num, 0))
                except PdfError:
                    continue
                if isinstance(o, dict) and o.get("Type") == "Page":
                    yield o
            return
        seen: set[int] = set()
        stack: list[tuple[Any, dict]] = [(top, {})]
        out_guard = 0
        while stack:
            node, inh = stack.pop()
            node_d = self.get(node) if isinstance(node, Ref) else node
            if isinstance(node, Ref):
                if node.num in seen:
                    continue
                seen.add(node.num)
            if not isinstance(node_d, dict):
                continue
            merged = dict(inh)
            for k in self._INHERITED:
                if k in node_d:
                    merged[k] = node_d[k]
            if node_d.get("Type") == "Page" or (
                    "Contents" in node_d and "Kids" not in node_d):
                page = dict(node_d)
                for k, v in merged.items():
                    page.setdefault(k, v)
                out_guard += 1
                if out_guard > 100_000:
                    raise PdfError("page tree too large")
                yield page
            else:
                kids = self.get(node_d.get("Kids"))
                if isinstance(kids, list):
                    for kid in reversed(kids):
                        stack.append((kid, merged))

    def page_content(self, page: dict,
                     skipped: list | None = None) -> bytes:
        """The page's content stream bytes, concatenated in order
        with a separating newline (§7.8.2: the division between
        streams may fall mid-token; the spec joins with whitespace).
        Undecodable streams are skipped; pass ``skipped`` (a list) to
        have their count appended for the caller's error channel."""
        contents = self.get(page.get("Contents"))
        parts: list[bytes] = []
        n_skip = 0
        items = contents if isinstance(contents, list) else [contents]
        for item in items:
            try:
                st = self.get(item)
            except PdfError:
                n_skip += 1
                continue
            if isinstance(st, Stream):
                try:
                    parts.append(self.stream_data(st))
                except PdfError:
                    n_skip += 1
                    continue
        if skipped is not None:
            skipped.append(n_skip)
        return b"\n".join(parts)


def pdf_info(data: bytes) -> dict:
    """Header-only structural probe (the media-inspect tier):
    version, page count, object count, and the encryption flavor —
    WITHOUT decrypting, so password-protected files still inspect.
    Raises PdfError only when the bytes have no PDF structure."""
    doc = PdfDocument(data, decrypt=False)
    at = doc.data.find(b"%PDF-")
    version = doc.data[at + 1:at + 8].decode("latin-1", "replace")
    n_pages = 0
    try:
        for _ in doc.pages():
            n_pages += 1
            if n_pages >= 100_000:
                break
    except PdfError:
        pass
    flavor = None
    enc = doc.trailer.get("Encrypt")
    if enc is not None:
        try:
            enc_d = doc.get(enc) if isinstance(enc, Ref) else enc
        except PdfError:
            enc_d = None
        if isinstance(enc_d, dict):
            v = enc_d.get("V", 0)
            if v == 5:
                flavor = "aes-256"
            elif v == 4:
                cf = enc_d.get("CF") or {}
                cfd = cf.get(str(enc_d.get("StmF", "StdCF"))) \
                    if isinstance(cf, dict) else None
                cfm = str(cfd.get("CFM", "")) if isinstance(
                    cfd, dict) else ""
                flavor = "aes-128" if cfm == "AESV2" else "rc4"
            else:
                flavor = "rc4"
        else:
            flavor = "unknown"
    return {"version": version, "n_pages": n_pages,
            "n_objects": len(doc.xref), "encryption": flavor}


def text_string(b: bytes) -> str:
    """Decode a PDF *text string* (§7.9.2.2): UTF-16BE with BOM,
    UTF-8 with BOM (PDF 2.0), else PDFDocEncoding (latin-1 base)."""
    if b.startswith(b"\xfe\xff"):
        return b[2:].decode("utf-16-be", "replace")
    if b.startswith(b"\xff\xfe"):
        # spec-violating but common from sloppy Windows generators;
        # latin-1 fallthrough would yield NUL-riddled mojibake
        return b[2:].decode("utf-16-le", "replace")
    if b.startswith(b"\xef\xbb\xbf"):
        return b[3:].decode("utf-8", "replace")
    return b.decode("latin-1", "replace")


_INFO_KEYS = ("Title", "Author", "Subject", "Keywords",
              "Creator", "Producer", "CreationDate", "ModDate")


def document_info(doc: PdfDocument,
                  xmp_fallback: bool = True) -> dict:
    """The /Info dictionary (document properties — the analog of the
    reference's PropertyName capture for HTML <meta>), decoded to
    text.  Missing keys are absent; a missing /Info is an empty
    dict.  Strings pass through the security handler, so encrypted
    files yield cleartext properties.  With ``xmp_fallback`` (the
    default), keys absent from /Info fill in from the XMP metadata
    packet — modern generators often write Title ONLY there."""
    out: dict = {}
    try:
        info = doc.get(doc.trailer.get("Info"))
    except PdfError:
        info = None
    if not isinstance(info, dict):
        info = {}  # fall through: XMP may still carry properties
    for k in _INFO_KEYS:
        v = info.get(k)
        if isinstance(v, Ref):
            try:
                v = doc.get(v)
            except PdfError:
                continue
        if isinstance(v, bytes):
            out[k] = text_string(v)
        elif isinstance(v, str):
            out[k] = str(v)
    if xmp_fallback and len(out) < len(_INFO_KEYS):
        for k, v in document_xmp(doc).items():
            out.setdefault(k, v)
    return out


def document_links(doc: PdfDocument, max_links: int = 10_000) -> list:
    """URI link annotations in page order (§12.5.6.5 + §12.6.4.7) —
    the PDF contribution to the crawl link graph (ops/links.py does
    the HTML side).  -> [(page_index, uri), ...]."""
    out: list = []
    try:
        pages = list(doc.pages())
    except PdfError:
        return out  # per-row discipline, like info/outline siblings
    for pageno, page in enumerate(pages):
        try:
            annots = doc.get(page.get("Annots"))
        except PdfError:
            continue
        if not isinstance(annots, list):
            continue
        for a in annots:
            try:
                ad = doc.get(a)
            except PdfError:
                continue
            if not isinstance(ad, dict) or \
                    ad.get("Subtype") != "Link":
                continue
            try:
                act = doc.get(ad.get("A"))
            except PdfError:
                continue
            if isinstance(act, dict) and act.get("S") == "URI":
                uri = act.get("URI")
                if isinstance(uri, Ref):
                    try:
                        uri = doc.get(uri)
                    except PdfError:
                        continue
                if isinstance(uri, bytes):
                    # /URI is spec'd 7-bit ASCII but real files ship
                    # UTF-8; same UTF-8-first fallback as HTML hrefs
                    try:
                        u = uri.decode("utf-8")
                    except UnicodeDecodeError:
                        u = uri.decode("latin-1")
                    out.append((pageno, u))
                    if len(out) >= max_links:
                        return out
    return out


def document_xmp(doc: PdfDocument) -> dict:
    """Properties from the XMP metadata packet (/Root /Metadata, an
    XML stream — XMP Part 1 / ISO 16684): modern generators often
    put Title/Author ONLY here, with no /Info at all.  Parsed with
    stdlib ElementTree; both element form (dc:title/rdf:Alt/rdf:li)
    and attribute form on rdf:Description are read.  Returns the
    same key names as :func:`document_info`."""
    try:
        root = doc.get(doc.trailer.get("Root"))
        if not isinstance(root, dict):
            return {}
        md = doc.get(root.get("Metadata"))
        if not isinstance(md, Stream):
            return {}
        data = doc.stream_data(md)
    except PdfError:
        return {}
    import xml.etree.ElementTree as ET
    # the packet wrapper (<?xpacket ...?>) and padding are legal XML
    # noise; find the rdf:RDF element and parse just that
    at = data.find(b"<rdf:RDF")
    end = data.find(b"</rdf:RDF>")
    if at < 0 or end < 0:
        return {}
    try:
        tree = ET.fromstring(data[at:end + 10])
    except ET.ParseError:
        return {}
    ns = {
        "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
        "dc": "http://purl.org/dc/elements/1.1/",
        "xmp": "http://ns.adobe.com/xap/1.0/",
        "pdf": "http://ns.adobe.com/pdf/1.3/",
    }
    fields = {
        "Title": "dc:title", "Author": "dc:creator",
        "Subject": "dc:description", "Keywords": "pdf:Keywords",
        "Producer": "pdf:Producer", "Creator": "xmp:CreatorTool",
        "CreationDate": "xmp:CreateDate", "ModDate": "xmp:ModifyDate",
    }
    out: dict = {}
    for desc in tree.iter(
            "{http://www.w3.org/1999/02/22-rdf-syntax-ns#}"
            "Description"):
        for key, qname in fields.items():
            if key in out:
                continue
            pfx, local = qname.split(":")
            uri = ns[pfx]
            # attribute form
            v = desc.get("{%s}%s" % (uri, local))
            if v:
                out[key] = v
                continue
            el = desc.find("%s:%s" % (pfx, local), ns)
            if el is None:
                continue
            # element form: first rdf:li under Alt/Seq/Bag, else text
            li = el.find(".//rdf:li", ns)
            text = (li.text if li is not None else el.text) or ""
            if text.strip():
                out[key] = text.strip()
    return out


def document_outline(doc: PdfDocument, max_items: int = 10_000
                     ) -> list:
    """The bookmark tree (/Outlines, §12.3.3) flattened in reading
    order: [(depth, title), ...].  Titles are text strings (so they
    decrypt); cycles and malformed items are skipped.  Heading
    structure is a useful document-quality signal at crawl scale."""
    out: list = []
    try:
        root = doc.get(doc.trailer.get("Root"))
        if not isinstance(root, dict):
            return out
        outlines = doc.get(root.get("Outlines"))
    except PdfError:
        return out
    if not isinstance(outlines, dict):
        return out
    seen: set = set()
    stack = [(outlines.get("First"), 0)]
    while stack and len(out) < max_items:
        node, depth = stack.pop()
        if node is None:
            continue
        key = node.num if isinstance(node, Ref) else id(node)
        if key in seen:
            continue
        seen.add(key)
        try:
            nd = doc.get(node)
        except PdfError:
            continue
        if not isinstance(nd, dict):
            continue
        title = nd.get("Title")
        if isinstance(title, Ref):
            try:
                title = doc.get(title)
            except PdfError:
                title = None
        if isinstance(title, bytes):
            out.append((depth, text_string(title)))
        # siblings continue after this node's subtree: push Next
        # first (LIFO), then the first child on top
        stack.append((nd.get("Next"), depth))
        stack.append((nd.get("First"), depth + 1))
    return out
