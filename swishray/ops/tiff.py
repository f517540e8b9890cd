"""From-scratch TIFF codec (TIFF 6.0, public spec).

Decoder: both byte orders, strip and tile layouts, chunky and
separate (PlanarConfiguration 2) planes, first IFD (page 0) of a
multi-page file. Compressions: none (1), CCITT Modified Huffman RLE
(2), Group 3 (3, incl. the T4Options 2-D mode), Group 4 (4) — all
via ops/ccittfax.py, both fill orders — LZW (5, MSB-first
variable-width codes with the early-change rule), new-style JPEG (7,
per-segment abbreviated streams spliced with the JPEGTables tag, via
ops/jpeg.py), Deflate (8 "Adobe" and the legacy 32946, per-strip
zlib streams via the stdlib) and PackBits (32773), with the
horizontal-differencing predictor (8- and 16-bit). Sample depths:
bilevel (1-bit), 8-bit, and 16-bit (converted to 8 by high byte,
the TIFFReadRGBAImage convention). Photometrics: MinIsWhite /
MinIsBlack grayscale, RGB/RGBA, palette, CMYK (Separated, InkSet 1,
libtiff's integer conversion), and YCbCr (via the JPEG path when
compression 7; 4:4:4 only when uncompressed, CCIR 601 round-half-up
— subsampled uncompressed YCbCr and old-style JPEG (6) raise
NotImplementedError). Structurally corrupt files of supported
flavors raise ValueError (same two-class error taxonomy as
ops/codecs.py and ops/jpeg.py, surfaced in the multimodal stages'
error column).

Encoder: chunky writer (none/PackBits/LZW/Deflate + optional
predictor 2, strip or tile layout) plus bilevel CCITT G4 /
MH-RLE for fax fixtures; round trips are exact (all supported
encoder compressions are lossless).

Scale shape: per-row CPU work with zero driver state, identical to
the other codecs — decode parallelizes embarrassingly under
map_batches tasks (ops/multimodal.py).

A/B oracle: tests/test_tiff.py drives the container's libtiff.so.6
via ctypes in BOTH directions (libtiff-written strips decoded by this
module; this module's output read back via TIFFReadRGBAImage).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .. import _native

# tag ids (TIFF 6.0 section 8)
_T_WIDTH = 256
_T_LENGTH = 257
_T_BPS = 258
_T_COMPRESSION = 259
_T_PHOTOMETRIC = 262
_T_STRIP_OFFSETS = 273
_T_SPP = 277
_T_ROWS_PER_STRIP = 278
_T_STRIP_COUNTS = 279
_T_PLANAR = 284
_T_PREDICTOR = 317
_T_COLORMAP = 320
_T_TILE_WIDTH = 322
_T_TILE_LENGTH = 323
_T_TILE_OFFSETS = 324
_T_TILE_COUNTS = 325
_T_INKSET = 332
_T_SAMPLE_FORMAT = 339
_T_JPEG_TABLES = 347
_T_YCBCR_SUB = 530
_T_FILLORDER = 266

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2,
              9: 4, 10: 8, 11: 4, 12: 8}
_TYPE_FMT = {1: "B", 3: "H", 4: "I", 6: "b", 8: "h", 9: "i"}


def _read_ifd(blob: bytes, off: int, e: str) -> tuple[dict, int]:
    """One IFD -> ({tag: (type, count, raw_values_tuple)}, next_off)."""
    if off + 2 > len(blob):
        raise ValueError("truncated TIFF IFD")
    (n,) = struct.unpack_from(e + "H", blob, off)
    entries: dict[int, tuple] = {}
    if off + 2 + 12 * n + 4 > len(blob):
        raise ValueError("truncated TIFF IFD")
    for i in range(n):
        tag, typ, cnt = struct.unpack_from(e + "HHI",
                                           blob, off + 2 + 12 * i)
        vpos = off + 2 + 12 * i + 8
        size = _TYPE_SIZE.get(typ, 0) * cnt
        if size > 4:
            (vpos,) = struct.unpack_from(e + "I", blob, vpos)
            if vpos + size > len(blob):
                raise ValueError("TIFF tag value out of range")
        if typ in _TYPE_FMT:
            vals = struct.unpack_from(e + str(cnt) + _TYPE_FMT[typ],
                                      blob, vpos)
        elif typ == 5:  # RATIONAL
            raw = struct.unpack_from(e + f"{2 * cnt}I", blob, vpos)
            vals = tuple(zip(raw[0::2], raw[1::2]))
        else:
            vals = (blob[vpos:vpos + size],)
        entries[tag] = (typ, cnt, vals)
    (nxt,) = struct.unpack_from(e + "I", blob, off + 2 + 12 * n)
    return entries, nxt


def _tag(entries: dict, tag: int, default=None):
    if tag not in entries:
        return default
    return entries[tag][2]


_native_lzw = None  # the C LZW kernel once checked at module end


def _tiff_lzw(data: bytes, expected: int) -> bytes:
    if _native_lzw is not None:
        return _native_lzw.tiff_decode(data, expected)
    return _tiff_lzw_py(data, expected)


def _tiff_lzw_py(data: bytes, expected: int) -> bytes:
    """TIFF-variant LZW: MSB-first variable-width codes, clear=256,
    EOI=257, EARLY code-width change (at table size 2^w - 1, spec
    section 13 / the libtiff convention)."""
    out = bytearray()
    acc = 0
    nbits = 0
    pos = 0
    width = 9
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    prev: bytes | None = None
    while len(out) < expected:
        while nbits < width:
            if pos >= len(data):
                raise ValueError("truncated TIFF LZW strip")
            acc = (acc << 8) | data[pos]
            pos += 1
            nbits += 8
        code = (acc >> (nbits - width)) & ((1 << width) - 1)
        nbits -= width
        acc &= (1 << nbits) - 1  # keep the accumulator bounded
        if code == 256:  # clear
            table = [bytes([i]) for i in range(256)] + [b"", b""]
            width = 9
            prev = None
            continue
        if code == 257:  # EOI
            break
        if prev is None:
            if code > 255:
                raise ValueError("corrupt TIFF LZW stream")
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError("corrupt TIFF LZW code")
        out += entry
        prev = entry
        # TIFF's "early change": the width bump lands one entry
        # earlier than GIF-style LZW (libtiff convention, probed
        # empirically against libtiff.so.6 — tests/test_tiff.py)
        if len(table) == (1 << width) - 1 and width < 12:
            width += 1
    return bytes(out[:expected])


def _packbits(data: bytes, expected: int) -> bytes:
    """PackBits (TIFF 6.0 section 9): n >= 0 -> n+1 literals,
    -127..-1 -> repeat next byte 1-n times, -128 -> no-op."""
    out = bytearray()
    pos = 0
    while len(out) < expected and pos < len(data):
        n = data[pos]
        pos += 1
        if n < 128:
            if pos + n + 1 > len(data):
                raise ValueError("truncated TIFF PackBits literal run")
            out += data[pos:pos + n + 1]
            pos += n + 1
        elif n > 128:
            if pos >= len(data):
                raise ValueError("truncated TIFF PackBits repeat run")
            out += bytes([data[pos]]) * (257 - n)
            pos += 1
    if len(out) < expected:
        raise ValueError("short TIFF PackBits strip")
    return bytes(out[:expected])


def _splice_jpeg_tables(seg: bytes, tables: bytes | None) -> bytes:
    """Merge a JPEGTables (tag 347) abbreviated table stream into a
    per-segment abbreviated image stream (TIFF TechNote 2): tables
    payload (between its SOI and EOI) is inserted after the segment's
    SOI. Segments that already carry their own tables pass through."""
    if not tables or len(tables) < 4 or seg[:2] != b"\xff\xd8":
        return seg
    body = tables[2:]
    if body[-2:] == b"\xff\xd9":
        body = body[:-2]
    return seg[:2] + body + seg[2:]


def decode_tiff(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode page 0 of a TIFF to (h, w) grayscale or (h, w, 3|4)
    RGB(A)/CMYK uint8. Palette images are expanded through their
    16-bit ColorMap (high byte); MinIsWhite grayscale is inverted to
    the usual 0=black convention; 16-bit samples are reduced to 8 by
    high byte (the TIFFReadRGBAImage convention); CMYK is returned as
    the raw 4 ink samples (meta["photometric"] == 5 tells consumers —
    same stored-samples convention as ops/jpeg.py CMYK)."""
    from .ccittfax import decode_ccitt, reverse_fill_order

    if blob[:4] == b"II*\x00":
        e = "<"
    elif blob[:4] == b"MM\x00*":
        e = ">"
    else:
        raise ValueError("not a TIFF (bad magic)")
    (ifd0,) = struct.unpack_from(e + "I", blob, 4)
    entries, nxt = _read_ifd(blob, ifd0, e)
    n_pages = 1
    seen = {ifd0}
    while nxt and nxt not in seen and n_pages < 10000:
        seen.add(nxt)
        n_pages += 1
        _, nxt = _read_ifd(blob, nxt, e)

    w = _tag(entries, _T_WIDTH, (0,))[0]
    h = _tag(entries, _T_LENGTH, (0,))[0]
    if not w or not h:
        raise ValueError("bad TIFF dimensions")
    from .codecs import check_dims
    check_dims(w, h, "TIFF")
    spp = _tag(entries, _T_SPP, (1,))[0]
    bps = _tag(entries, _T_BPS, (1,) * spp)
    comp = _tag(entries, _T_COMPRESSION, (1,))[0]
    photo = _tag(entries, _T_PHOTOMETRIC, (1,))[0]
    planar = _tag(entries, _T_PLANAR, (1,))[0]
    predictor = _tag(entries, _T_PREDICTOR, (1,))[0]
    fmt = _tag(entries, _T_SAMPLE_FORMAT, (1,) * spp)
    fillorder = _tag(entries, _T_FILLORDER, (1,))[0]
    tiled = _T_TILE_WIDTH in entries or _T_TILE_LENGTH in entries

    if any(f not in (1, 4) for f in fmt):
        raise NotImplementedError("non-unsigned TIFF sample format")
    if comp == 6:
        raise NotImplementedError("old-style JPEG-in-TIFF (compression 6)")
    if comp not in (1, 2, 3, 4, 5, 7, 8, 32773, 32946):
        raise NotImplementedError(f"TIFF compression {comp}")
    if planar not in (1, 2):
        raise ValueError(f"bad TIFF planar configuration {planar}")
    if fillorder == 2 and comp not in (1, 2, 3, 4):
        raise NotImplementedError(
            "FillOrder 2 with a byte-oriented compression")
    bilevel = set(bps) == {1}
    if bilevel and spp != 1:
        raise NotImplementedError("multi-sample bilevel TIFF")
    if comp in (2, 3, 4) and not bilevel:
        raise ValueError("CCITT compression needs bilevel samples")
    depth = max(bps)
    if not bilevel and (len(set(bps)) != 1 or depth not in (8, 16)):
        raise NotImplementedError(
            f"{depth}-bit TIFF samples (only 8/16-bit/bilevel)")
    if photo not in (0, 1, 2, 3, 5, 6):
        raise NotImplementedError(
            f"TIFF photometric {photo} (Lab/ICC unsupported)")
    if photo == 2 and spp not in (3, 4):
        raise ValueError("RGB TIFF needs 3 or 4 samples per pixel")
    if photo in (0, 1, 3) and spp != 1:
        raise ValueError("gray/palette TIFF needs 1 sample per pixel")
    if photo == 3 and (bilevel or depth != 8):
        raise NotImplementedError("non-8-bit palette TIFF")
    if photo == 5:
        if spp != 4:
            raise NotImplementedError(
                f"Separated TIFF with {spp} inks (only CMYK)")
        inkset = _tag(entries, _T_INKSET, (1,))[0]
        if inkset != 1:
            raise NotImplementedError(f"TIFF InkSet {inkset} (only CMYK)")
    if photo == 6:
        if spp != 3:
            raise ValueError("YCbCr TIFF needs 3 samples per pixel")
        if comp != 7:
            sub = _tag(entries, _T_YCBCR_SUB, (2, 2))
            if tuple(sub) != (1, 1):
                raise NotImplementedError(
                    "subsampled uncompressed YCbCr TIFF")
    t4opts = _tag(entries, 292, (0,))[0] if comp == 3 else \
        _tag(entries, 293, (0,))[0]
    jpeg_tables = None
    if comp == 7:
        jt = _tag(entries, _T_JPEG_TABLES)
        if jt is not None:
            jpeg_tables = jt[0] if isinstance(jt[0], bytes) else None

    # --- segment grid (strips or tiles, chunky or separate planes)
    n_planes = spp if planar == 2 else 1
    seg_spp = 1 if planar == 2 else spp
    if tiled:
        tw = _tag(entries, _T_TILE_WIDTH, (0,))[0]
        th = _tag(entries, _T_TILE_LENGTH, (0,))[0]
        # a tile is decoded whole before cropping: a 16x16 image with
        # 20000x20000 tiles would commit ~400 MP from a few KB of file
        check_dims(tw, th, "TIFF tile")
        offsets = _tag(entries, _T_TILE_OFFSETS)
        counts = _tag(entries, _T_TILE_COUNTS)
        across = -(-w // tw)
        down = -(-h // th)
        grid = [(x * tw, y * th, tw, th)
                for y in range(down) for x in range(across)]
    else:
        offsets = _tag(entries, _T_STRIP_OFFSETS)
        counts = _tag(entries, _T_STRIP_COUNTS)
        rps = _tag(entries, _T_ROWS_PER_STRIP, (h,))[0] or h
        grid = [(0, y0, w, min(rps, h - y0)) for y0 in range(0, h, rps)]
    if offsets is None or counts is None or len(offsets) != len(counts):
        raise ValueError("TIFF missing strip/tile layout")
    if len(offsets) < len(grid) * n_planes:
        raise ValueError("TIFF strips/tiles cover too few rows")

    sample_np = np.uint8 if depth == 8 or bilevel else np.dtype(e + "u2")
    out = np.empty((h, w, spp), np.uint8)
    for idx in range(len(grid) * n_planes):
        plane, cell = divmod(idx, len(grid))
        x0, y0, sw, sh = grid[cell]
        off, cnt = offsets[idx], counts[idx]
        if off + cnt > len(blob):
            raise ValueError("TIFF strip out of range")
        raw = blob[off:off + cnt]
        if fillorder == 2:
            raw = reverse_fill_order(raw)
        row_bytes = (sw + 7) // 8 if bilevel else \
            sw * seg_spp * (depth // 8)
        expected = sh * row_bytes
        vh = min(sh, h - y0)
        vw = min(sw, w - x0)
        if vh <= 0 or vw <= 0:
            continue
        if comp in (2, 3, 4):
            # fax 1 = black run = sample bit 1, same convention as
            # the unpacked uncompressed bit path below
            seg = decode_ccitt(raw, sw, sh, comp, t4opts)[:, :, None]
        elif comp == 7:
            arr, _jm = _decode_jpeg_seg(raw, jpeg_tables)
            if arr.ndim == 2:
                arr = arr[:, :, None]
            if arr.shape[0] < vh or arr.shape[1] < vw \
                    or arr.shape[2] != seg_spp:
                raise ValueError("JPEG segment shape mismatch")
            seg = arr
        else:
            if comp == 1:
                if len(raw) < expected:
                    raise ValueError("short TIFF strip")
                strip = raw[:expected]
            elif comp == 5:
                strip = _tiff_lzw(raw, expected)
            elif comp in (8, 32946):
                from .codecs import bounded_inflate
                strip = bounded_inflate(raw, expected,
                                        "TIFF deflate strip")
                if len(strip) < expected:
                    raise ValueError("short TIFF deflate strip")
            else:
                strip = _packbits(raw, expected)
            if bilevel:
                if predictor == 2:
                    raise ValueError("predictor on bilevel TIFF")
                seg = np.unpackbits(
                    np.frombuffer(strip, np.uint8).reshape(sh, row_bytes),
                    axis=1)[:, :sw, None]
            else:
                a = np.frombuffer(strip, sample_np).reshape(
                    sh, sw, seg_spp)
                if predictor == 2:
                    a = a.copy()
                    np.cumsum(a, axis=1, dtype=a.dtype, out=a)
                elif predictor != 1:
                    raise NotImplementedError(
                        f"TIFF predictor {predictor}")
                seg = (a >> 8).astype(np.uint8) if depth == 16 else a
        target = out[y0:y0 + vh, x0:x0 + vw]
        if planar == 2:
            target[:, :, plane] = seg[:vh, :vw, 0]
        else:
            target[:] = seg[:vh, :vw]

    # --- photometric interpretation on the assembled samples
    meta = {"width": w, "height": h, "photometric": photo,
            "compression": comp, "n_pages": n_pages,
            "planar": planar, "tiled": tiled}
    if bilevel:
        # segments hold sample bits 0/1 (fax black runs = 1);
        # MinIsWhite (0): sample 1 -> black, matching fax convention
        bits = out[:, :, 0]
        if photo == 0:
            bits = 1 - bits
        return (bits * np.uint8(255)).astype(np.uint8), meta
    if photo == 0:
        return (255 - out[:, :, 0]).astype(np.uint8), meta
    if photo == 1:
        return out[:, :, 0].copy(), meta
    if photo == 3:
        cmap = _tag(entries, _T_COLORMAP)
        if cmap is None or len(cmap) < 3 * 256:
            raise ValueError("palette TIFF missing ColorMap")
        cm = (np.asarray(cmap[:3 * 256], np.uint16)
              .reshape(3, 256).T >> 8).astype(np.uint8)
        return cm[out[:, :, 0]], meta
    if photo == 5:
        return out, meta  # raw CMYK ink samples (see docstring)
    if photo == 6 and comp != 7:
        y = out[:, :, 0].astype(np.float64)
        cb = out[:, :, 1].astype(np.float64) - 128.0
        cr = out[:, :, 2].astype(np.float64) - 128.0
        rgb = np.stack([y + 1.402 * cr,
                        y - 0.344136 * cb - 0.714136 * cr,
                        y + 1.772 * cb], axis=2)
        return np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8), meta
    # photo 2 RGB(A), or photo 6 already converted by the JPEG path
    return out, meta


def _decode_jpeg_seg(raw: bytes, tables: bytes | None):
    from .jpeg import decode_jpeg
    return decode_jpeg(_splice_jpeg_tables(bytes(raw), tables))


# ---------------------------------------------------------------------------
# encoder (tests + analytic oracles)


def _packbits_encode(row: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(row)
    while i < n:
        j = i
        while j + 1 < n and row[j + 1] == row[j] and j - i < 127:
            j += 1
        if j > i:  # run of j-i+1 identical bytes
            out.append(257 - (j - i + 1))
            out.append(row[i])
            i = j + 1
            continue
        j = i
        while (j + 1 < n and row[j + 1] != row[j]
               and j - i < 126):
            j += 1
        if j + 1 == n:
            j = min(n - 1, i + 126)
        out.append(j - i)
        out += row[i:j + 1]
        i = j + 1
    return bytes(out)


def _tiff_lzw_encode(data: bytes) -> bytes:
    out = bytearray()
    acc = 0
    nbits = 0
    width = 9

    def emit(code: int) -> None:
        nonlocal acc, nbits
        acc = (acc << width) | code
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
        acc &= (1 << nbits) - 1

    table: dict[bytes, int] = {bytes([i]): i for i in range(256)}
    nxt = 258
    emit(256)  # clear
    cur = b""
    for byte in data:
        cand = cur + bytes([byte])
        if cand in table:
            cur = cand
            continue
        emit(table[cur])
        table[cand] = nxt
        nxt += 1
        # early change: the encoder table leads the decoder's by one
        # entry, so its bump lands at 2^w (decoder's at 2^w - 1)
        if nxt == (1 << width) and width < 12:
            width += 1
        if nxt >= 4094:
            emit(256)
            table = {bytes([i]): i for i in range(256)}
            nxt = 258
            width = 9
        cur = bytes([byte])
    if cur:
        emit(table[cur])
    emit(257)  # EOI
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def encode_tiff(arr: np.ndarray, compression: str = "none",
                predictor: bool = False,
                rows_per_strip: int | None = None,
                tile: int | None = None) -> bytes:
    """Encode (h, w) grayscale or (h, w, 3|4) RGB(A) uint8 as a
    little-endian chunky TIFF. ``compression``: "none", "packbits",
    "lzw", "deflate", or — for bilevel {0,255} grayscale input — the
    fax codecs "g4" / "ccittrle" (written MinIsWhite, the fax
    convention). ``predictor`` applies horizontal differencing
    (LZW/Deflate, tag 317=2). ``tile`` writes a tiled layout with
    square tiles of that edge (a multiple of 16 per TIFF 6.0 §15)
    instead of strips."""
    a = np.asarray(arr, np.uint8)
    gray = a.ndim == 2
    if not gray and (a.ndim != 3 or a.shape[2] not in (3, 4)):
        raise ValueError("encode_tiff wants (h,w) or (h,w,3|4) uint8")
    comp = {"none": 1, "packbits": 32773, "lzw": 5,
            "deflate": 8, "ccittrle": 2, "g4": 4,
            "jpeg": 7}.get(compression)
    if comp is None:
        raise ValueError(f"unknown compression {compression!r}")
    if predictor and comp not in (5, 8):
        raise ValueError("predictor is an LZW/Deflate option")
    if comp == 7 and not gray and a.shape[2] != 3:
        raise ValueError("JPEG compression wants grayscale or RGB")
    if tile is not None and (tile <= 0 or tile % 16):
        raise ValueError("tile edge must be a positive multiple of 16")
    fax = comp in (2, 4)
    if fax:
        if not gray:
            raise ValueError("fax compression wants bilevel grayscale")
        vals = np.unique(a)
        if not np.all(np.isin(vals, (0, 255))):
            raise ValueError("fax compression wants {0,255} samples")
        if tile is not None:
            raise ValueError("fax tiles not supported by this writer")
    h, w = a.shape[:2]
    spp = 1 if gray else a.shape[2]
    pix = a.reshape(h, w, spp)

    def _compress(chunk: np.ndarray, cw: int) -> bytes:
        if fax:
            from .ccittfax import encode_g4, encode_mh
            bits = (chunk[:, :, 0] == 0).astype(np.uint8)  # black=1
            return (encode_g4 if comp == 4 else encode_mh)(bits)
        if comp == 7:
            # new-style JPEG: each segment a self-contained stream
            # (tables in-strip — TIFF TechNote 2 permits omitting the
            # JPEGTables tag when streams carry their own)
            from .jpeg import encode_jpeg
            return encode_jpeg(chunk[:, :, 0] if gray else chunk)
        if predictor:
            chunk = np.concatenate(
                [chunk[:, :1], np.diff(chunk.astype(np.int16),
                                       axis=1).astype(np.uint8)],
                axis=1).astype(np.uint8)
        raw = chunk.tobytes()
        if comp == 1:
            return raw
        if comp == 32773:
            rb = cw * spp
            return b"".join(_packbits_encode(raw[i:i + rb])
                            for i in range(0, len(raw), rb))
        if comp == 8:
            return zlib.compress(raw, 6)
        return _tiff_lzw_encode(raw)

    if tile is not None:
        segs = []
        for y0 in range(0, h, tile):
            for x0 in range(0, w, tile):
                chunk = np.zeros((tile, tile, spp), np.uint8)
                part = pix[y0:y0 + tile, x0:x0 + tile]
                chunk[:part.shape[0], :part.shape[1]] = part
                segs.append(_compress(chunk, tile))
        layout = [
            (_T_TILE_WIDTH, 4, 1, [tile]),
            (_T_TILE_LENGTH, 4, 1, [tile]),
            (_T_TILE_OFFSETS, 4, len(segs), None),  # patched below
            (_T_TILE_COUNTS, 4, len(segs), [len(s) for s in segs]),
        ]
    else:
        rps = rows_per_strip or h
        segs = [_compress(pix[y0:y0 + rps], w)
                for y0 in range(0, h, rps)]
        layout = [
            (_T_STRIP_OFFSETS, 4, len(segs), None),  # patched below
            (_T_ROWS_PER_STRIP, 4, 1, [rps]),
            (_T_STRIP_COUNTS, 4, len(segs), [len(s) for s in segs]),
        ]
    strips = segs

    if fax:
        photo = 0  # MinIsWhite, the fax convention
    elif comp == 7 and not gray:
        photo = 6  # the streams are YCbCr (encode_jpeg default)
    else:
        photo = 1 if gray else 2
    tags = [
        (_T_WIDTH, 4, 1, [w]),
        (_T_LENGTH, 4, 1, [h]),
        (_T_BPS, 3, spp, [1 if fax else 8] * spp),
        (_T_COMPRESSION, 3, 1, [comp]),
        (_T_PHOTOMETRIC, 3, 1, [photo]),
        (_T_SPP, 3, 1, [spp]),
        (_T_PLANAR, 3, 1, [1]),
    ] + layout
    if comp == 7 and not gray:
        tags.append((_T_YCBCR_SUB, 3, 2, [1, 1]))  # encode_jpeg 4:4:4
    if spp == 4:
        tags.append((338, 3, 1, [2]))  # ExtraSamples: unassoc alpha
    if predictor:
        tags.append((_T_PREDICTOR, 3, 1, [2]))
    tags.sort()
    n = len(tags)
    ifd_off = 8
    data_off = ifd_off + 2 + 12 * n + 4  # overflow values, then strips
    overflow = bytearray()
    body = bytearray(b"II*\x00" + struct.pack("<I", ifd_off))
    body += struct.pack("<H", n)
    # first pass: compute overflow placement
    strip_base = data_off
    for tag, typ, cnt, vals in tags:
        size = _TYPE_SIZE[typ] * cnt
        if size > 4:
            strip_base += size
    strip_offsets = []
    pos = strip_base
    for s in strips:
        strip_offsets.append(pos)
        pos += len(s)
    over_pos = data_off
    for tag, typ, cnt, vals in tags:
        if vals is None:
            vals = strip_offsets
        fmt = {3: "H", 4: "I"}[typ]
        size = _TYPE_SIZE[typ] * cnt
        body += struct.pack("<HHI", tag, typ, cnt)
        if size > 4:
            body += struct.pack("<I", over_pos)
            overflow += struct.pack(f"<{cnt}{fmt}", *vals)
            over_pos += size
        else:
            packed = struct.pack(f"<{cnt}{fmt}", *vals)
            body += packed + b"\x00" * (4 - len(packed))
    body += struct.pack("<I", 0)  # no next IFD
    body += overflow
    for s in strips:
        body += s
    return bytes(body)


def _native_selftest(native) -> bool:
    rng = np.random.default_rng(7)
    for n in (0, 1, 500, 20000):
        data = bytes(rng.integers(0, 8, n).astype(np.uint8) * 31)
        enc = _tiff_lzw_encode(data)
        if native.tiff_decode(enc, n) != _tiff_lzw_py(enc, n):
            return False
    return True


_native_lzw = _native.checked(_native.swishlzw, _native_selftest)
