"""From-scratch JPEG codec (ITU-T T.81 / ISO 10918-1, public spec).

Decoder: baseline and extended sequential DCT (SOF0/SOF1) plus
PROGRESSIVE DCT (SOF2 — spectral selection + successive approximation,
the dominant JPEG flavor on the web), grayscale, 3-component
YCbCr/JFIF color AND 4-component Adobe CMYK/YCCK (APP14 transform
dispatch, raw-CMYK output per libjpeg's JCS_CMYK convention),
restart markers, per-frame quantization and Huffman tables read from
the stream. Arithmetic coding, hierarchical and lossless modes raise
NotImplementedError; corrupt streams of supported flavors raise
ValueError (the two failure classes stay distinguishable in the
multimodal stages' error column, see ops/codecs.py).

Encoders: baseline (SOF0 — grayscale or RGB with 4:4:4 / 4:2:0
subsampling, caller-supplied quantization tables, the spec's Annex K
"typical" Huffman tables, optional restart intervals) and PROGRESSIVE
(SOF2, encode_jpeg_progressive — spectral selection + successive
approximation over the same quantized coefficients). With a flat (constant) 8x8 block and a DC
quantizer of 8 the round trip is EXACT (DC = 8*(v-128), all AC = 0),
which is what the decode_jpeg oracle query exploits.

Everything entropy-coded runs through a 16-bit lookup-table Huffman
decoder (one table per DHT, built once per image); the IDCT is the
orthonormal 8x8 DCT-II matrix applied to ALL blocks of a component in
one numpy einsum — per-row CPU work with zero driver state, same
scale shape as the other codecs.
"""

from __future__ import annotations

import struct

import numpy as np

from .. import _native

_native_jpeg = None  # the C scan decoder once checked below

# natural (row-major) index of the i-th coefficient in zigzag order
ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10,
    17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63], np.int64)

# orthonormal 8x8 DCT-II basis: forward X = M @ x @ M.T, inverse
# x = M.T @ X @ M (identical to T.81's (1/4)*C_u*C_v*cos... scaling)
_J = np.arange(8)
_DCT_M = np.cos((2 * _J[None, :] + 1) * _J[:, None] * np.pi / 16) / 2.0
_DCT_M[0] *= 1.0 / np.sqrt(2.0)

# T.81 Annex K.3 "typical" Huffman tables (BITS counts per code
# length 1..16, then the symbol values in code order)
_DC_LUM_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUM_VALS = list(range(12))
_DC_CHR_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHR_VALS = list(range(12))
_AC_LUM_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
_AC_LUM_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]
_AC_CHR_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
_AC_CHR_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]


def _build_lut(bits: list[int], vals: list[int]) -> np.ndarray:
    """16-bit peek lookup table: entry = (symbol << 8) | code_length
    for every 16-bit window starting with that canonical code."""
    lut = np.zeros(65536, np.uint32)
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            if code >= (1 << length) or k >= len(vals):
                raise ValueError("corrupt JPEG Huffman table")
            lo = code << (16 - length)
            lut[lo:lo + (1 << (16 - length))] = (vals[k] << 8) | length
            code += 1
            k += 1
        code <<= 1
    return lut


def _build_codes(bits: list[int],
                 vals: list[int]) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length), for the encoder."""
    out: dict[int, tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


class _BitReader:
    """MSB-first bit reader over the de-stuffed entropy segments of
    one scan (segment boundaries = restart markers)."""

    __slots__ = ("segments", "iseg", "data", "pos", "acc", "nbits")

    def __init__(self, segments: list[bytes]):
        self.segments = segments
        self.iseg = 0
        self.data = segments[0] if segments else b""
        self.pos = 0
        self.acc = 0
        self.nbits = 0

    def read(self, n: int) -> int:
        while self.nbits < n:
            if self.pos >= len(self.data):
                raise ValueError("truncated JPEG entropy stream")
            self.acc = (self.acc << 8) | self.data[self.pos]
            self.pos += 1
            self.nbits += 8
        self.nbits -= n
        v = (self.acc >> self.nbits) & ((1 << n) - 1)
        self.acc &= (1 << self.nbits) - 1
        return v

    def decode(self, lut: np.ndarray) -> int:
        while self.nbits < 16 and self.pos < len(self.data):
            self.acc = (self.acc << 8) | self.data[self.pos]
            self.pos += 1
            self.nbits += 8
        if self.nbits >= 16:
            window = (self.acc >> (self.nbits - 16)) & 0xFFFF
        else:  # end of segment: zero-pad the peek only
            window = (self.acc << (16 - self.nbits)) & 0xFFFF
        entry = int(lut[window])
        length = entry & 0xFF
        if length == 0 or length > self.nbits:
            raise ValueError("invalid JPEG Huffman code")
        self.nbits -= length
        self.acc &= (1 << self.nbits) - 1
        return entry >> 8

    def restart(self) -> None:
        self.iseg += 1
        if self.iseg >= len(self.segments):
            raise ValueError("missing JPEG restart segment")
        self.data = self.segments[self.iseg]
        self.pos = 0
        self.acc = 0
        self.nbits = 0


def _extend(v: int, s: int) -> int:
    """T.81 F.2.2.1 EXTEND: map the s received magnitude bits to a
    signed coefficient value."""
    if s == 0:
        return 0
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


class _Comp:
    __slots__ = ("cid", "h", "v", "tq", "td", "ta", "bw", "bh",
                 "nbw", "nbh", "coefs", "pred")

    def __init__(self, cid: int, h: int, v: int, tq: int):
        self.cid = cid
        self.h = h
        self.v = v
        self.tq = tq


def _collect_scan_data_py(blob: bytes,
                          pos: int) -> tuple[list[bytes], int]:
    """Reference implementation of :func:`_collect_scan_data` (kept
    for the A/B test; the vectorized version must match it byte for
    byte on arbitrary streams)."""
    segments: list[bytes] = []
    cur = bytearray()
    n = len(blob)
    while pos < n:
        b = blob[pos]
        if b != 0xFF:
            cur.append(b)
            pos += 1
            continue
        if pos + 1 >= n:
            break
        m = blob[pos + 1]
        if m == 0x00:  # stuffed literal 0xFF
            cur.append(0xFF)
            pos += 2
        elif 0xD0 <= m <= 0xD7:  # restart marker
            segments.append(bytes(cur))
            cur = bytearray()
            pos += 2
        else:  # real marker: scan ends
            break
    segments.append(bytes(cur))
    return segments, pos


def _collect_scan_data(blob: bytes, pos: int) -> tuple[list[bytes], int]:
    """De-stuff one scan's entropy data starting at ``pos``; split at
    restart markers. Returns (segments, position of the next marker's
    0xFF byte). Vectorized: only 0xFF positions are visited in Python
    (~0.4% of bytes on typical streams), everything between is bulk
    slicing — this loop runs once per scan over megabytes and was the
    decoder's hot spot before the entropy kernel went native."""
    n = len(blob)
    arr = np.frombuffer(blob, np.uint8)
    ffs = np.nonzero(arr[pos:] == 0xFF)[0]
    segments: list[bytes] = []
    parts: list[bytes] = []
    start = pos
    for rel in ffs.tolist():
        p = pos + rel
        if p < start:  # consumed as part of a previous FF pair
            continue
        if p + 1 >= n:  # trailing FF at EOF: scan ends here
            parts.append(blob[start:p])
            segments.append(b"".join(parts))
            return segments, p
        m = blob[p + 1]
        if m == 0x00:  # stuffed literal 0xFF: keep FF, skip 00
            parts.append(blob[start:p + 1])
            start = p + 2
        elif 0xD0 <= m <= 0xD7:  # restart marker
            parts.append(blob[start:p])
            segments.append(b"".join(parts))
            parts = []
            start = p + 2
        else:  # real marker: scan ends
            parts.append(blob[start:p])
            segments.append(b"".join(parts))
            return segments, p
    parts.append(blob[start:n])
    segments.append(b"".join(parts))
    return segments, n


def decode_jpeg(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode a baseline/extended-sequential/progressive JPEG to an
    (h, w) grayscale, (h, w, 3) RGB or (h, w, 4) CMYK uint8 array.
    Chroma upsampling is sample replication; YCbCr->RGB per the
    JFIF/CCIR 601 matrix with round-half-up and clamp. 4-component
    files follow libjpeg's JCS_CMYK convention: raw stored samples
    for Adobe transform 0 (most Adobe CMYK files store INVERTED ink
    values — consumers apply r = c*k/255); YCCK (Adobe transform 2)
    is converted back to the same raw-CMYK representation."""
    if blob[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (bad SOI)")
    qtables: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], np.ndarray] = {}  # (class, id) -> LUT
    comps: list[_Comp] = []
    w = h = 0
    progressive = False
    adobe_transform = None
    dri = 0
    hmax = vmax = 1
    mcux = mcuy = 0
    pos = 2
    n = len(blob)
    saw_frame = False
    saw_scan = False
    while pos + 1 < n:
        if blob[pos] != 0xFF:
            raise ValueError(f"JPEG marker sync lost at {pos}")
        marker = blob[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:
            continue  # standalone markers
        if pos + 2 > n:
            raise ValueError("truncated JPEG segment header")
        (seglen,) = struct.unpack_from(">H", blob, pos)
        seg = blob[pos + 2:pos + seglen]
        if len(seg) != seglen - 2:
            raise ValueError("truncated JPEG segment")
        pos += seglen
        if marker == 0xDB:  # DQT
            off = 0
            while off < len(seg):
                pq, tq = seg[off] >> 4, seg[off] & 15
                off += 1
                if pq:
                    vals = np.frombuffer(seg, ">u2", 64, off)
                    off += 128
                else:
                    vals = np.frombuffer(seg, np.uint8, 64, off)
                    off += 64
                qtables[tq] = vals.astype(np.int32)
        elif marker == 0xC4:  # DHT
            off = 0
            while off < len(seg):
                tc, th = seg[off] >> 4, seg[off] & 15
                bits = list(seg[off + 1:off + 17])
                nv = sum(bits)
                vals = list(seg[off + 17:off + 17 + nv])
                if len(vals) != nv:
                    raise ValueError("truncated JPEG DHT")
                huff[(tc, th)] = _build_lut(bits, vals)
                off += 17 + nv
        elif marker in (0xC0, 0xC1, 0xC2):  # SOF0/1/2
            if saw_frame:
                raise ValueError("multiple JPEG frames")
            saw_frame = True
            progressive = marker == 0xC2
            prec, h, w, nc = struct.unpack_from(">BHHB", seg, 0)
            if prec != 8:
                raise NotImplementedError(
                    f"{prec}-bit JPEG (only 8-bit supported)")
            if nc not in (1, 3, 4) or w == 0 or h == 0:
                raise ValueError("bad JPEG frame header")
            from .codecs import check_dims
            check_dims(w, h, "JPEG")
            if len(seg) < 6 + 3 * nc:
                raise ValueError("truncated JPEG frame header")
            for i in range(nc):
                cid, hv, tq = struct.unpack_from(">BBB", seg, 6 + 3 * i)
                comps.append(_Comp(cid, hv >> 4, hv & 15, tq))
            hmax = max(c.h for c in comps)
            vmax = max(c.v for c in comps)
            if any(c.h < 1 or c.v < 1 or hmax % c.h or vmax % c.v
                   for c in comps):
                raise ValueError("unsupported JPEG sampling factors")
            mcux = -(-w // (8 * hmax))
            mcuy = -(-h // (8 * vmax))
            for c in comps:
                c.bw = mcux * c.h  # padded (interleaved) block grid
                c.bh = mcuy * c.v
                c.nbw = (-(-w * c.h // hmax) + 7) // 8
                c.nbh = (-(-h * c.v // vmax) + 7) // 8
                c.coefs = np.zeros((c.bh, c.bw, 64), np.int32)
                c.pred = 0
        elif marker in (0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                        0xCD, 0xCE, 0xCF):
            raise NotImplementedError(
                f"JPEG SOF{marker - 0xC0} (lossless/hierarchical/"
                "arithmetic) not supported")
        elif marker == 0xDD:  # DRI
            (dri,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xEE and seg[:5] == b"Adobe" and len(seg) >= 12:
            adobe_transform = seg[11]  # 0=CMYK/RGB raw, 1=YCC, 2=YCCK
        elif marker == 0xDA:  # SOS
            if not saw_frame:
                raise ValueError("JPEG scan before frame header")
            ns = seg[0]
            scan_comps: list[_Comp] = []
            by_id = {c.cid: c for c in comps}
            for i in range(ns):
                cid, tt = seg[1 + 2 * i], seg[2 + 2 * i]
                if cid not in by_id:
                    raise ValueError("JPEG scan names unknown component")
                c = by_id[cid]
                c.td, c.ta = tt >> 4, tt & 15
                scan_comps.append(c)
            ss, se, a = seg[1 + 2 * ns:4 + 2 * ns]
            ah, al = a >> 4, a & 15
            segments, pos = _collect_scan_data(blob, pos)
            _run_scan(segments, scan_comps, huff, ss, se, ah, al,
                      progressive, mcux, mcuy, dri)
            saw_scan = True
        # else: APPn / COM / DNL etc: skipped
    if not saw_scan:
        raise ValueError("JPEG with no scan data")
    planes = []
    for c in comps:
        q = qtables.get(c.tq)
        if q is None:
            raise ValueError("JPEG references missing quant table")
        flat = c.coefs.reshape(-1, 64).astype(np.float64) * q
        nat = np.zeros_like(flat)
        nat[:, ZIGZAG] = flat
        x = nat.reshape(-1, 8, 8)
        # x = M.T @ X @ M over all blocks at once (broadcasted
        # matmul: ~25x the naive einsum, bit-identical result)
        pix = np.matmul(np.matmul(_DCT_M.T, x), _DCT_M)
        pix = np.clip(np.floor(pix + 128.5), 0, 255).astype(np.uint8)
        plane = pix.reshape(c.bh, c.bw, 8, 8).transpose(0, 2, 1, 3) \
            .reshape(c.bh * 8, c.bw * 8)
        cw = -(-w * c.h // hmax)
        ch = -(-h * c.v // vmax)
        plane = plane[:ch, :cw]
        if c.h != hmax or c.v != vmax:
            plane = plane.repeat(vmax // c.v, 0).repeat(hmax // c.h, 1)
        planes.append(plane[:h, :w])
    meta = {"width": w, "height": h, "n_components": len(comps),
            "progressive": progressive}
    if len(comps) == 4:
        meta["adobe_transform"] = adobe_transform
    if len(planes) == 1:
        return planes[0], meta
    if len(planes) == 4 and adobe_transform != 2:
        # plain CMYK: raw stored samples (libjpeg JCS_CMYK)
        return np.stack(planes, axis=2), meta
    if len(planes) == 3 and (adobe_transform == 0 or (
            adobe_transform is None
            and tuple(c.cid for c in comps) == (82, 71, 66))):
        # RGB JPEG (libjpeg JCS_RGB: component ids 'R','G','B', or an
        # Adobe marker with transform 0): stored samples are already
        # RGB — no YCbCr matrix (libjpeg jdmaster.c color defaults)
        return np.stack(planes, axis=2), meta
    y = planes[0].astype(np.float64)
    cb = planes[1].astype(np.float64) - 128.0
    cr = planes[2].astype(np.float64) - 128.0
    rgb = np.stack([y + 1.402 * cr,
                    y - 0.344136 * cb - 0.714136 * cr,
                    y + 1.772 * cb], axis=2)
    rgb = np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)
    if len(planes) == 4:  # YCCK -> raw CMYK: C=255-R, M=255-G, Y=255-B
        return np.concatenate([255 - rgb, planes[3][..., None]],
                              axis=2), meta
    return rgb, meta


def _run_scan(segments: list[bytes], scan_comps: list[_Comp],
              huff: dict, ss: int, se: int, ah: int, al: int,
              progressive: bool, mcux: int, mcuy: int,
              dri: int) -> None:
    """Dispatch one scan to the C entropy-decode kernel
    (_native/swishjpeg.c, ~60x the pure path) when it loaded and
    passed its import-time A/B selftest; otherwise run the pure
    Python path. Both implement identical T.81 semantics."""
    if _native_jpeg is not None:
        data = b"".join(segments)
        offsets = np.zeros(len(segments) + 1, np.int64)
        np.cumsum([len(s) for s in segments], out=offsets[1:])
        hdr = [len(scan_comps), ss, se, ah, al, int(progressive),
               mcux, mcuy, dri, int(len(scan_comps) > 1)]
        for c in scan_comps:
            hdr += [c.h, c.v, c.nbw, c.nbh, c.coefs.shape[1],
                    c.coefs.shape[0]]
        _native_jpeg.decode_scan(
            data, offsets, np.asarray(hdr, np.int32),
            tuple(c.coefs.reshape(-1) for c in scan_comps),
            tuple(huff.get((0, c.td)) for c in scan_comps),
            tuple(huff.get((1, c.ta)) for c in scan_comps))
        return
    _decode_scan(_BitReader(segments), scan_comps, huff, ss, se,
                 ah, al, progressive, mcux, mcuy, dri)


def _decode_scan(reader: _BitReader, scan_comps: list[_Comp],
                 huff: dict, ss: int, se: int, ah: int, al: int,
                 progressive: bool, mcux: int, mcuy: int,
                 dri: int) -> None:
    """Decode one scan's coefficients into the components' buffers.
    Sequential scans decode whole blocks; progressive scans dispatch
    on (ss, ah) per T.81 G.1.2."""
    for c in scan_comps:
        c.pred = 0
    eobrun = 0
    interleaved = len(scan_comps) > 1
    if interleaved:
        total = mcux * mcuy
    else:
        c0 = scan_comps[0]
        total = c0.nbw * c0.nbh
    mcu = 0
    while mcu < total:
        if dri and mcu and mcu % dri == 0:
            reader.restart()
            for c in scan_comps:
                c.pred = 0
            eobrun = 0
        if interleaved:
            my, mx = divmod(mcu, mcux)
            for c in scan_comps:
                for v in range(c.v):
                    for u in range(c.h):
                        blk = c.coefs[my * c.v + v, mx * c.h + u]
                        eobrun = _decode_block(
                            reader, c, blk, huff, ss, se, ah, al,
                            progressive, eobrun)
        else:
            c = scan_comps[0]
            by, bx = divmod(mcu, c.nbw)
            blk = c.coefs[by, bx]
            eobrun = _decode_block(reader, c, blk, huff, ss, se,
                                   ah, al, progressive, eobrun)
        mcu += 1


def _decode_block(reader: _BitReader, c: _Comp, blk: np.ndarray,
                  huff: dict, ss: int, se: int, ah: int, al: int,
                  progressive: bool, eobrun: int) -> int:
    """Decode one 8x8 block's contribution for this scan; blk is the
    64-coefficient (zigzag-ordered) int32 view. Returns the updated
    EOB run."""
    if not progressive:
        # sequential: DC + all 63 AC in one pass
        dc_lut = huff.get((0, c.td))
        ac_lut = huff.get((1, c.ta))
        if dc_lut is None or ac_lut is None:
            raise ValueError("JPEG scan references missing DHT")
        s = reader.decode(dc_lut)
        if s > 11:
            raise ValueError("corrupt JPEG DC code")
        c.pred += _extend(reader.read(s), s)
        blk[0] = c.pred
        k = 1
        while k < 64:
            rs = reader.decode(ac_lut)
            r, s = rs >> 4, rs & 15
            if s == 0:
                if r == 15:
                    k += 16
                    continue
                break  # EOB
            k += r
            if k > 63:
                raise ValueError("JPEG AC run past block end")
            blk[k] = _extend(reader.read(s), s)
            k += 1
        return eobrun
    if ss == 0:  # DC scan
        if ah == 0:  # first
            dc_lut = huff.get((0, c.td))
            if dc_lut is None:
                raise ValueError("JPEG scan references missing DHT")
            s = reader.decode(dc_lut)
            if s > 11:
                raise ValueError("corrupt JPEG DC code")
            c.pred += _extend(reader.read(s), s)
            blk[0] = c.pred << al
        else:  # refinement: one bit
            if reader.read(1):
                blk[0] = int(blk[0]) | (1 << al)
        return eobrun
    # AC scans (always non-interleaved per spec)
    ac_lut = huff.get((1, c.ta))
    if ac_lut is None:
        raise ValueError("JPEG scan references missing DHT")
    if ah == 0:  # AC first (G.1.2.2)
        if eobrun > 0:
            return eobrun - 1
        k = ss
        while k <= se:
            rs = reader.decode(ac_lut)
            r, s = rs >> 4, rs & 15
            if s == 0:
                if r == 15:
                    k += 16
                    continue
                run = (1 << r) - 1
                if r:
                    run += reader.read(r)
                return run
            k += r
            if k > se:
                raise ValueError("JPEG AC run past band end")
            blk[k] = _extend(reader.read(s), s) << al
            k += 1
        return 0
    # AC refinement (G.1.2.3)
    p1 = 1 << al
    m1 = -(1 << al)
    k = ss
    if eobrun == 0:
        while k <= se:
            rs = reader.decode(ac_lut)
            r, s = rs >> 4, rs & 15
            if s == 0:
                if r != 15:
                    eobrun = 1 << r
                    if r:
                        eobrun += reader.read(r)
                    break
                val = 0  # ZRL: skip 16 zero-history coefficients
            else:
                if s != 1:
                    raise ValueError("corrupt JPEG AC refinement code")
                val = p1 if reader.read(1) else m1
            while k <= se:
                cur = int(blk[k])
                if cur != 0:
                    if reader.read(1) and (cur & p1) == 0:
                        blk[k] = cur + (p1 if cur > 0 else m1)
                else:
                    if r == 0:
                        break
                    r -= 1
                k += 1
            if val != 0 and k <= se:
                blk[k] = val
            k += 1
    if eobrun > 0:
        while k <= se:
            cur = int(blk[k])
            if cur != 0 and reader.read(1) and (cur & p1) == 0:
                blk[k] = cur + (p1 if cur > 0 else m1)
            k += 1
        eobrun -= 1
    return eobrun


# ---------------------------------------------------------------------------
# encoder (baseline, for tests and analytic oracles)


class _BitWriter:
    __slots__ = ("buf", "acc", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int) -> None:
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            b = (self.acc >> self.nbits) & 0xFF
            self.buf.append(b)
            if b == 0xFF:
                self.buf.append(0x00)  # byte stuffing
        self.acc &= (1 << self.nbits) - 1

    def flush(self) -> None:
        if self.nbits:
            self.write((1 << (8 - self.nbits)) - 1, 8 - self.nbits)


def _fdct_quant(plane: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(bh*8, bw*8) uint8 plane -> (bh, bw, 64) zigzag-ordered
    quantized int32 coefficients."""
    h8, w8 = plane.shape
    bh, bw = h8 // 8, w8 // 8
    x = plane.reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3) \
        .astype(np.float64) - 128.0
    coef = np.matmul(np.matmul(_DCT_M, x), _DCT_M.T)
    # quantize in natural order, then reorder to zigzag
    nat = np.round(coef.reshape(bh, bw, 64) /
                   _nat_qtable(q)).astype(np.int32)
    return nat[:, :, ZIGZAG]


def _nat_qtable(q_zigzag: np.ndarray) -> np.ndarray:
    """Quant table given in zigzag order -> natural order."""
    nat = np.empty(64, np.float64)
    nat[ZIGZAG] = q_zigzag
    return nat


def _pad_to(plane: np.ndarray, mult_h: int, mult_w: int) -> np.ndarray:
    h, w = plane.shape
    ph = (-h) % mult_h
    pw = (-w) % mult_w
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    return plane


def _encode_block(bw_: _BitWriter, blk: np.ndarray, pred: int,
                  dc_codes: dict, ac_codes: dict) -> int:
    dc = int(blk[0])
    diff = dc - pred
    s = diff.bit_length() if diff >= 0 else (-diff).bit_length()
    code, ln = dc_codes[s]
    bw_.write(code, ln)
    if s:
        bw_.write(diff if diff >= 0 else diff + (1 << s) - 1, s)
    run = 0
    nz = np.nonzero(blk[1:])[0]
    last = int(nz[-1]) + 1 if len(nz) else 0
    for k in range(1, last + 1):
        v = int(blk[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            code, ln = ac_codes[0xF0]  # ZRL
            bw_.write(code, ln)
            run -= 16
        s = v.bit_length() if v >= 0 else (-v).bit_length()
        code, ln = ac_codes[(run << 4) | s]
        bw_.write(code, ln)
        bw_.write(v if v >= 0 else v + (1 << s) - 1, s)
        run = 0
    if last < 63:
        code, ln = ac_codes[0x00]  # EOB
        bw_.write(code, ln)
    return dc


def encode_jpeg(arr: np.ndarray, qtable: np.ndarray | None = None,
                qtable_chroma: np.ndarray | None = None,
                subsampling: str = "444", dri: int = 0,
                ycck: bool = False) -> bytes:
    """Encode a grayscale (h, w), RGB (h, w, 3) or CMYK (h, w, 4)
    uint8 array as a baseline JPEG (JFIF for 1/3 components; Adobe
    APP14 for 4 — raw CMYK by default, YCCK with ``ycck=True``).
    ``qtable``/``qtable_chroma`` are 64-entry zigzag-ordered
    quantizers (default: all 8 — DC-exact for flat blocks, see
    module docstring). ``subsampling`` is "444" or "420" (RGB only);
    ``dri`` > 0 emits a DRI segment and restart markers."""
    a = np.asarray(arr, np.uint8)
    gray = a.ndim == 2
    cmyk = not gray and a.ndim == 3 and a.shape[2] == 4
    if not gray and (a.ndim != 3 or a.shape[2] not in (3, 4)):
        raise ValueError("encode_jpeg wants (h,w) or (h,w,3|4) uint8")
    if ycck and not cmyk:
        raise ValueError("ycck is a 4-component option")
    if subsampling not in ("444", "420"):
        raise ValueError("subsampling must be '444' or '420'")
    h, w = a.shape[:2]
    q_l = (np.full(64, 8, np.int32) if qtable is None
           else np.asarray(qtable, np.int32))
    q_c = q_l if qtable_chroma is None else np.asarray(qtable_chroma,
                                                       np.int32)
    sub = 2 if (not gray and subsampling == "420") else 1
    if gray:
        planes = [a]
        samp = [(1, 1)]
        qsel = [0]
    elif cmyk:
        if ycck:
            f = 255.0 - a[..., :3].astype(np.float64)  # inverted ink
            y = 0.299 * f[..., 0] + 0.587 * f[..., 1] \
                + 0.114 * f[..., 2]
            cb = 128.0 - 0.168736 * f[..., 0] \
                - 0.331264 * f[..., 1] + 0.5 * f[..., 2]
            cr = 128.0 + 0.5 * f[..., 0] - 0.418688 * f[..., 1] \
                - 0.081312 * f[..., 2]
            planes = [np.clip(np.floor(p + 0.5), 0,
                              255).astype(np.uint8)
                      for p in (y, cb, cr)] + [a[..., 3]]
        else:
            planes = [a[..., 0], a[..., 1], a[..., 2], a[..., 3]]
        samp = [(1, 1)] * 4
        qsel = [0] * 4
    else:
        f = a.astype(np.float64)
        y = 0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]
        cb = 128.0 - 0.168736 * f[..., 0] - 0.331264 * f[..., 1] \
            + 0.5 * f[..., 2]
        cr = 128.0 + 0.5 * f[..., 0] - 0.418688 * f[..., 1] \
            - 0.081312 * f[..., 2]
        y, cb, cr = (np.clip(np.floor(p + 0.5), 0, 255).astype(np.uint8)
                     for p in (y, cb, cr))
        if sub == 2:
            cbp = _pad_to(cb, 2, 2).astype(np.float64)
            crp = _pad_to(cr, 2, 2).astype(np.float64)
            cb = np.floor((cbp[0::2, 0::2] + cbp[0::2, 1::2]
                           + cbp[1::2, 0::2] + cbp[1::2, 1::2]) / 4
                          + 0.5).astype(np.uint8)
            cr = np.floor((crp[0::2, 0::2] + crp[0::2, 1::2]
                           + crp[1::2, 0::2] + crp[1::2, 1::2]) / 4
                          + 0.5).astype(np.uint8)
        planes = [y, cb, cr]
        samp = [(sub, sub), (1, 1), (1, 1)]
        qsel = [0, 1, 1]
    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    coefs = []
    for p, (sh, sv) in zip(planes, samp):
        padded = np.pad(p, ((0, mcuy * sv * 8 - p.shape[0]),
                            (0, mcux * sh * 8 - p.shape[1])),
                        mode="edge")
        coefs.append(_fdct_quant(padded, q_l if (len(coefs) == 0
                                 or cmyk) else q_c))
    out = bytearray(b"\xff\xd8")  # SOI
    if cmyk:
        # JFIF is defined only for 1/3 components; 4-component files
        # carry the Adobe APP14 marker (transform 0=CMYK, 2=YCCK)
        out += b"\xff\xee" + struct.pack(">H", 14) + b"Adobe" \
            + struct.pack(">HHHB", 100, 0, 0, 2 if ycck else 0)
    else:
        out += b"\xff\xe0" + struct.pack(">H", 16) \
            + b"JFIF\x00\x01\x01" \
            + b"\x00" + struct.pack(">HHBB", 1, 1, 0, 0)

    def dqt(tid: int, q: np.ndarray) -> bytes:
        return b"\xff\xdb" + struct.pack(">HB", 67, tid) \
            + q.astype(np.uint8).tobytes()

    out += dqt(0, q_l)
    if not gray and not cmyk:
        out += dqt(1, q_c)
    nc = 1 if gray else (4 if cmyk else 3)
    out += b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * nc, 8, h, w, nc)
    for i, (sh, sv) in enumerate(samp):
        out += struct.pack(">BBB", i + 1, (sh << 4) | sv, qsel[i])

    def dht(tc: int, th: int, bits: list[int], vals: list[int]) -> bytes:
        return b"\xff\xc4" + struct.pack(
            ">HB", 19 + len(vals), (tc << 4) | th) \
            + bytes(bits) + bytes(vals)

    out += dht(0, 0, _DC_LUM_BITS, _DC_LUM_VALS)
    out += dht(1, 0, _AC_LUM_BITS, _AC_LUM_VALS)
    if not gray and not cmyk:
        out += dht(0, 1, _DC_CHR_BITS, _DC_CHR_VALS)
        out += dht(1, 1, _AC_CHR_BITS, _AC_CHR_VALS)
    if dri:
        out += b"\xff\xdd" + struct.pack(">HH", 4, dri)
    out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * nc, nc)
    for i in range(nc):
        tsel = 0 if (i == 0 or cmyk) else 1
        out += struct.pack(">BB", i + 1, (tsel << 4) | tsel)
    out += bytes([0, 63, 0])  # Ss, Se, AhAl
    dc_tabs = [_build_codes(_DC_LUM_BITS, _DC_LUM_VALS),
               _build_codes(_DC_CHR_BITS, _DC_CHR_VALS)]
    ac_tabs = [_build_codes(_AC_LUM_BITS, _AC_LUM_VALS),
               _build_codes(_AC_CHR_BITS, _AC_CHR_VALS)]
    preds = [0] * nc
    bw_ = _BitWriter()
    rst = 0
    for m in range(mcux * mcuy):
        if dri and m and m % dri == 0:
            bw_.flush()
            out += bw_.buf
            bw_ = _BitWriter()
            out += bytes([0xFF, 0xD0 + (rst & 7)])
            rst += 1
            preds = [0] * nc
        my, mx = divmod(m, mcux)
        for i, (sh, sv) in enumerate(samp):
            tsel = 0 if (i == 0 or cmyk) else 1
            for v in range(sv):
                for u in range(sh):
                    blk = coefs[i][my * sv + v, mx * sh + u]
                    preds[i] = _encode_block(bw_, blk, preds[i],
                                             dc_tabs[tsel],
                                             ac_tabs[tsel])
    bw_.flush()
    out += bw_.buf
    out += b"\xff\xd9"  # EOI
    return bytes(out)


# ---------------------------------------------------------------------------
# native kernel gating: the C scan decoder must reproduce the pure
# path bit-exactly on interleaved 4:2:0 + restart-marker and
# grayscale streams, else it is disabled for the process lifetime
# (tests/test_jpeg.py additionally pins both paths on progressive
# streams against libjpeg-turbo)


def _native_selftest(native) -> bool:
    global _native_jpeg
    rng = np.random.default_rng(7)
    cases = [
        (rng.integers(0, 256, (24, 40, 3)).astype(np.uint8),
         dict(subsampling="420", dri=2)),
        (rng.integers(0, 256, (17, 9)).astype(np.uint8), dict()),
    ]
    try:
        for img, kw in cases:
            blob = encode_jpeg(img, **kw)
            _native_jpeg = None
            want, _ = decode_jpeg(blob)
            _native_jpeg = native
            got, _ = decode_jpeg(blob)
            if not np.array_equal(want, got):
                return False
        return True
    finally:
        _native_jpeg = None


_native_jpeg = _native.checked(_native.swishjpeg, _native_selftest)


# ---------------------------------------------------------------------------
# progressive encoder (SOF2): spectral selection + successive
# approximation, re-coding the same quantized coefficients the
# baseline encoder produces — so every encode_jpeg contract (the
# flat-block exact roundtrip included) holds for progressive output
# too. Scan script: DC first (Al=1) -> AC 1..20 / 21..63 first (Al=1)
# -> DC refine -> AC refines (T.81 Annex G).


def _emit_ac_first(bw_: _BitWriter, band, al: int, ac: dict) -> None:
    """One block's AC-first scan segment (G.1.2.2, Ah=0)."""
    run = 0
    for v in (int(x) for x in band):
        a = abs(v) >> al
        if a == 0:
            run += 1
            continue
        while run > 15:
            bw_.write(*ac[0xF0])
            run -= 16
        s = a.bit_length()
        bw_.write(*ac[(run << 4) | s])
        bw_.write(a if v > 0 else (1 << s) - 1 - a, s)
        run = 0
    if run:
        bw_.write(*ac[0x00])  # EOB (eobrun = 1)


def _emit_ac_refine(bw_: _BitWriter, band, al: int, ac: dict) -> None:
    """One block's AC-refinement segment (G.1.2.3, Ah=Al+1)."""
    run = 0
    pend: list[int] = []
    for v in (int(x) for x in band):
        a = abs(v) >> al
        if a == 0:
            run += 1
            continue
        if a > 1:  # already significant: buffered correction bit
            # Drain pending ZRLs FIRST (mirroring libjpeg's
            # encode_mcu_AC_refine): every buffered correction bit must
            # belong to a coefficient with <=15 preceding zero-history
            # positions, or the decoder's ZRL span won't consume it and
            # the stray bit corrupts the next Huffman code.
            while run > 15:
                bw_.write(*ac[0xF0])
                for b in pend:
                    bw_.write(b, 1)
                pend = []
                run -= 16
            pend.append(a & 1)
            continue
        while run > 15:
            bw_.write(*ac[0xF0])
            for b in pend:
                bw_.write(b, 1)
            pend = []
            run -= 16
        bw_.write(*ac[(run << 4) | 1])
        bw_.write(1 if v > 0 else 0, 1)
        for b in pend:
            bw_.write(b, 1)
        pend = []
        run = 0
    if run or pend:
        bw_.write(*ac[0x00])
        for b in pend:
            bw_.write(b, 1)


def encode_jpeg_progressive(arr: np.ndarray,
                            qtable: np.ndarray | None = None) -> bytes:
    """Encode a grayscale (h, w) or RGB (h, w, 3) uint8 array as a
    PROGRESSIVE (SOF2) JFIF JPEG — 4:4:4 only; ``qtable`` as in
    :func:`encode_jpeg` (default all-8: flat blocks roundtrip
    EXACTLY, same contract as baseline)."""
    a = np.asarray(arr, np.uint8)
    gray = a.ndim == 2
    if not gray and (a.ndim != 3 or a.shape[2] != 3):
        raise ValueError(
            "encode_jpeg_progressive wants (h,w) or (h,w,3) uint8")
    h, w = a.shape[:2]
    q = (np.full(64, 8, np.int32) if qtable is None
         else np.asarray(qtable, np.int32))
    if gray:
        planes = [a]
    else:
        f = a.astype(np.float64)
        y = 0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]
        cb = (128.0 - 0.168736 * f[..., 0] - 0.331264 * f[..., 1]
              + 0.5 * f[..., 2])
        cr = (128.0 + 0.5 * f[..., 0] - 0.418688 * f[..., 1]
              - 0.081312 * f[..., 2])
        planes = [np.clip(np.floor(p + 0.5), 0, 255).astype(np.uint8)
                  for p in (y, cb, cr)]
    mcux, mcuy = -(-w // 8), -(-h // 8)
    coefs = [_fdct_quant(np.pad(
        p, ((0, mcuy * 8 - h), (0, mcux * 8 - w)), mode="edge"), q)
        for p in planes]
    nc = len(planes)
    dc_tabs = [_build_codes(_DC_LUM_BITS, _DC_LUM_VALS),
               _build_codes(_DC_CHR_BITS, _DC_CHR_VALS)]
    ac_tabs = [_build_codes(_AC_LUM_BITS, _AC_LUM_VALS),
               _build_codes(_AC_CHR_BITS, _AC_CHR_VALS)]
    tab = (lambda i: 0 if i == 0 else 1)
    out = bytearray(b"\xff\xd8")
    out += b"\xff\xdb" + struct.pack(">HB", 67, 0) \
        + q.astype(np.uint8).tobytes()
    if not gray:
        out += b"\xff\xdb" + struct.pack(">HB", 67, 1) \
            + q.astype(np.uint8).tobytes()
    out += b"\xff\xc2" + struct.pack(">HBHHB", 8 + 3 * nc, 8, h, w, nc)
    for i in range(nc):
        out += struct.pack(">BBB", i + 1, 0x11, tab(i))
    for tc, th, bits, vals in [
            (0, 0, _DC_LUM_BITS, _DC_LUM_VALS),
            (1, 0, _AC_LUM_BITS, _AC_LUM_VALS),
            (0, 1, _DC_CHR_BITS, _DC_CHR_VALS),
            (1, 1, _AC_CHR_BITS, _AC_CHR_VALS)][:2 * nc:]:
        out += b"\xff\xc4" + struct.pack(
            ">HB", 19 + len(vals), (tc << 4) | th) \
            + bytes(bits) + bytes(vals)

    def sos(comp_specs, ss, se, ah, al):
        seg = bytearray(b"\xff\xda")
        seg += struct.pack(">HB", 6 + 2 * len(comp_specs),
                           len(comp_specs))
        for cid, td, ta in comp_specs:
            seg += struct.pack(">BB", cid, (td << 4) | ta)
        seg += bytes([ss, se, (ah << 4) | al])
        return seg

    # scan 1: DC first, interleaved, Al=1 (arithmetic shift)
    out += sos([(i + 1, tab(i), 0) for i in range(nc)], 0, 0, 0, 1)
    bw_ = _BitWriter()
    preds = [0] * nc
    for m in range(mcux * mcuy):
        my, mx = divmod(m, mcux)
        for i in range(nc):
            dc = int(coefs[i][my, mx, 0]) >> 1
            diff = dc - preds[i]
            preds[i] = dc
            s = abs(diff).bit_length()
            bw_.write(*dc_tabs[tab(i)][s])
            if s:
                bw_.write(diff if diff >= 0 else diff + (1 << s) - 1,
                          s)
    bw_.flush()
    out += bw_.buf
    # AC first in two spectral bands, Al=1
    for ss, se in [(1, 20), (21, 63)]:
        for i in range(nc):
            out += sos([(i + 1, 0, tab(i))], ss, se, 0, 1)
            bw_ = _BitWriter()
            for blk in coefs[i].reshape(-1, 64):
                _emit_ac_first(bw_, blk[ss:se + 1], 1, ac_tabs[tab(i)])
            bw_.flush()
            out += bw_.buf
    # DC refinement: one raw bit per block, interleaved
    out += sos([(i + 1, 0, 0) for i in range(nc)], 0, 0, 1, 0)
    bw_ = _BitWriter()
    for m in range(mcux * mcuy):
        my, mx = divmod(m, mcux)
        for i in range(nc):
            bw_.write(int(coefs[i][my, mx, 0]) & 1, 1)
    bw_.flush()
    out += bw_.buf
    # AC refinement over the same two bands, Ah=1 Al=0
    for ss, se in [(1, 20), (21, 63)]:
        for i in range(nc):
            out += sos([(i + 1, 0, tab(i))], ss, se, 1, 0)
            bw_ = _BitWriter()
            for blk in coefs[i].reshape(-1, 64):
                _emit_ac_refine(bw_, blk[ss:se + 1], 0,
                                ac_tabs[tab(i)])
            bw_.flush()
            out += bw_.buf
    out += b"\xff\xd9"
    return bytes(out)
