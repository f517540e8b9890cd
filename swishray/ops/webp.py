"""From-scratch WebP-lossless (VP8L) codec, per the public "WebP
Lossless Bitstream Specification" (RFC-style spec shipped with
libwebp; all constants below are from that spec). Decoder: the full
feature set. Encoder: minimal literal-only streams (encode_webp)
whose conformance libwebp verifies in tests.

Supported: the full VP8L feature set — canonical prefix codes (simple
and code-length-coded, with repeat codes 16/17/18 and the max-symbol
cut-off), color cache, meta prefix-code groups (spatial Huffman
selection), LZ77 copies with the 120-entry two-dimensional distance
mapping, and all four transforms (predictor with its 14 modes, color
transform, subtract-green, color-indexing with sub-byte pixel
packing), in any stream order, inverted in reverse read order.

Lossy WebP (VP8 chunks, including VP8X containers with an ALPH alpha
plane) decodes through the from-scratch RFC 6386 keyframe decoder in
ops/vp8.py — bit-exact vs libwebp at both the YUV-plane and RGBA
levels (tests/test_vp8.py). The ALPH chunk (raw or headerless-VP8L
compressed, all four prediction filters) is handled here, reusing
this module's VP8L entropy machinery. Only animation (ANIM/ANMF)
remains NotImplementedError; corrupt streams of supported shape
raise ValueError (same error taxonomy as ops/codecs.py, ops/jpeg.py
and ops/tiff.py: the two classes stay distinguishable in the
multimodal stages' per-row error column).

The hot paths (entropy pixel loop, inverse predictor, inverse color
transform) run in an optional C kernel (_native/swishwebp.c, ~7-18
MP/s per core) that is A/B-gated at import against the pure-Python
reference path; tests/test_webp.py pins BOTH paths bit-exact against
the container's libwebp.so.7 across a feature matrix. Scale shape
matches the other codecs: zero driver state, embarrassingly parallel
under map_batches tasks.
"""

from __future__ import annotations

import struct

import numpy as np

from .. import _native

# LZ77 distance mapping: plane codes 1..120 -> 2-D offsets. The
# spec's table is exactly the (dx, dy) pairs with dy in 0..7,
# dx in -7..8 (dx > 0 when dy == 0), sorted by squared distance with
# ties broken by larger dy then larger dx (verified byte-identical
# to libwebp's kCodeToPlane in tests/test_webp.py).
_DIST_MAP: list[tuple[int, int]] = [
    (dx, dy)
    for _, _, _, dx, dy in sorted(
        (dx * dx + dy * dy, -dy, -dx, dx, dy)
        for dy in range(8) for dx in range(-7, 9)
        if dy > 0 or dx > 0)
][:120]

# code-length-code symbol order (spec section 6.2.2)
_CLC_ORDER = (17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12,
              13, 14, 15)

_DIST_MAP_ARR = np.asarray(_DIST_MAP, np.int32).reshape(-1)

_native_webp = None  # the C pixel-loop kernel once checked at module end


class _Bits:
    """LSB-first bit reader (VP8L convention)."""

    __slots__ = ("data", "bitpos", "nbits")

    def __init__(self, data: bytes):
        self.data = data
        self.bitpos = 0
        self.nbits = 8 * len(data)

    def read(self, n: int) -> int:
        p = self.bitpos
        if p + n > self.nbits:
            raise ValueError("truncated VP8L stream")
        self.bitpos = p + n
        v = int.from_bytes(
            self.data[p >> 3:(p + n + 7) >> 3], "little")
        return (v >> (p & 7)) & ((1 << n) - 1)


class _Huff:
    """Canonical prefix decoder. Codes are written MSB-of-code first
    into the LSB-first stream (DEFLATE convention), so the lookup
    table is filled at bit-reversed indices."""

    __slots__ = ("lut", "maxlen", "single")

    def __init__(self, lengths):
        nz = [(s, ln) for s, ln in enumerate(lengths) if ln > 0]
        if not nz:
            raise ValueError("empty VP8L prefix code")
        if len(nz) == 1:
            self.single = nz[0][0]  # zero-bit code
            self.lut = None
            self.maxlen = 0
            return
        self.single = None
        maxlen = max(ln for _, ln in nz)
        if maxlen > 15:
            raise ValueError("VP8L code length > 15")
        # Kraft completeness (libwebp rejects over/under-subscribed)
        if sum(1 << (maxlen - ln) for _, ln in nz) != 1 << maxlen:
            raise ValueError("invalid VP8L prefix code")
        self.maxlen = maxlen
        bl_count = [0] * (maxlen + 1)
        for _, ln in nz:
            bl_count[ln] += 1
        next_code = [0] * (maxlen + 2)
        code = 0
        for ln in range(1, maxlen + 1):
            code = (code + bl_count[ln - 1]) << 1
            next_code[ln] = code
        lut = np.zeros(1 << maxlen, np.uint32)
        for sym, ln in nz:
            code = next_code[ln]
            next_code[ln] += 1
            rev = int(f"{code:0{ln}b}"[::-1], 2)
            step = 1 << ln
            lut[rev::step] = (sym << 4) | ln
        self.lut = lut

    def decode(self, br: _Bits) -> int:
        if self.single is not None:
            return self.single
        p = br.bitpos
        n = min(self.maxlen, br.nbits - p)
        if n <= 0:
            raise ValueError("truncated VP8L stream")
        v = int.from_bytes(
            br.data[p >> 3:(p + self.maxlen + 7) >> 3], "little")
        window = (v >> (p & 7)) & ((1 << self.maxlen) - 1)
        entry = int(self.lut[window])
        ln = entry & 15
        if ln == 0 or ln > n:
            raise ValueError("corrupt VP8L prefix code")
        br.bitpos = p + ln
        return entry >> 4


def _read_code(br: _Bits, alphabet: int) -> _Huff:
    """One prefix code (spec 6.2.1/6.2.2)."""
    if br.read(1):  # simple
        nsym = br.read(1) + 1
        lengths = [0] * alphabet
        s0 = br.read(8 if br.read(1) else 1)
        if s0 >= alphabet:
            raise ValueError("VP8L simple-code symbol out of range")
        lengths[s0] = 1
        if nsym == 2:
            s1 = br.read(8)
            if s1 >= alphabet or s1 == s0:
                raise ValueError("VP8L simple-code symbol invalid")
            lengths[s1] = 1
        return _Huff(lengths)
    ncodes = br.read(4) + 4
    clc_len = [0] * 19
    for i in range(ncodes):
        clc_len[_CLC_ORDER[i]] = br.read(3)
    clc = _Huff(clc_len)
    if br.read(1):  # explicit max symbol
        nbits = 2 + 2 * br.read(3)
        max_symbol = 2 + br.read(nbits)
    else:
        max_symbol = alphabet
    lengths = [0] * alphabet
    sym = 0
    prev = 8  # spec default
    while sym < alphabet:
        if max_symbol == 0:
            break
        max_symbol -= 1
        s = clc.decode(br)
        if s < 16:
            lengths[sym] = s
            sym += 1
            if s:
                prev = s
        elif s == 16:
            rep = 3 + br.read(2)
            if sym + rep > alphabet:
                raise ValueError("VP8L repeat overruns alphabet")
            lengths[sym:sym + rep] = [prev] * rep
            sym += rep
        else:
            rep = (3 + br.read(3)) if s == 17 else (11 + br.read(7))
            if sym + rep > alphabet:
                raise ValueError("VP8L repeat overruns alphabet")
            sym += rep  # zeros
    return _Huff(lengths)


def _prefix_value(br: _Bits, sym: int) -> int:
    """LZ77 length / distance prefix coding (spec 6.2.3)."""
    if sym < 4:
        return sym + 1
    extra = (sym - 2) >> 1
    offset = (2 + (sym & 1)) << extra
    return offset + br.read(extra) + 1


def _decode_entropy(br: _Bits, w: int, h: int,
                    allow_meta: bool) -> np.ndarray:
    """One entropy-coded ARGB image (spec 6.2.4) -> uint32 (h, w)."""
    cache_bits = br.read(4) if br.read(1) else 0
    if cache_bits > 11:
        raise ValueError("VP8L color-cache bits out of range")
    meta = None
    prec = 0
    ngroups = 1
    if allow_meta and br.read(1):
        prec = br.read(3) + 2
        mw = -(-w >> prec) or 1
        mh = -(-h >> prec) or 1
        meta_img = _decode_entropy(br, mw, mh, False)
        meta = ((meta_img >> 8) & 0xFFFF).astype(np.int64)
        ngroups = int(meta.max()) + 1
    cache_size = (1 << cache_bits) if cache_bits else 0
    groups = []
    for _ in range(ngroups):
        green = _read_code(br, 256 + 24 + cache_size)
        red = _read_code(br, 256)
        blue = _read_code(br, 256)
        alpha = _read_code(br, 256)
        dist = _read_code(br, 40)
        groups.append((green, red, blue, alpha, dist))
    if _native_webp is not None:
        luts = []
        offs = [0]
        prm = []
        for g in groups:
            for code in g:
                if code.single is not None:
                    prm += [0, code.single]
                    offs.append(offs[-1])
                else:
                    luts.append(code.lut)
                    prm += [code.maxlen, -1]
                    offs.append(offs[-1] + len(code.lut))
        flat = np.concatenate(luts) if luts else np.zeros(0, np.uint32)
        out = np.zeros(w * h, np.uint32)
        br.bitpos = _native_webp.decode_pixels(
            br.data, br.bitpos, w, h, cache_bits, prec,
            np.ascontiguousarray(meta).reshape(-1)
            if meta is not None else None,
            meta.shape[1] if meta is not None else 0,
            flat, np.asarray(offs, np.int64),
            np.asarray(prm, np.int32), _DIST_MAP_ARR, out)
        return out.reshape(h, w)

    cache = np.zeros(cache_size, np.uint32) if cache_bits else None
    shift = 32 - cache_bits if cache_bits else 0

    out = np.zeros(w * h, np.uint32)
    n = w * h
    pos = 0
    g = groups[0]
    while pos < n:
        if meta is not None:
            y, x = divmod(pos, w)
            g = groups[int(meta[y >> prec, x >> prec])]
        s = g[0].decode(br)
        if s < 256:
            # read order is green, red, blue, alpha (spec 6.2.4)
            r = g[1].decode(br)
            b = g[2].decode(br)
            a = g[3].decode(br)
            px = (a << 24) | (r << 16) | (s << 8) | b
            out[pos] = px
            pos += 1
            if cache_bits:
                cache[((0x1E35A7BD * px) & 0xFFFFFFFF) >> shift] = px
        elif s < 280:
            length = _prefix_value(br, s - 256)
            dsym = g[4].decode(br)
            dcode = _prefix_value(br, dsym)
            if dcode > 120:
                dist = dcode - 120
            else:
                dx, dy = _DIST_MAP[dcode - 1]
                dist = dy * w + dx
                if dist < 1:
                    dist = 1
            if dist > pos or pos + length > n:
                raise ValueError("VP8L copy out of range")
            if cache_bits:
                for _ in range(length):
                    px = out[pos - dist]
                    out[pos] = px
                    pos += 1
                    cache[((0x1E35A7BD * int(px)) & 0xFFFFFFFF)
                          >> shift] = px
            elif dist >= length:
                out[pos:pos + length] = out[pos - dist:
                                            pos - dist + length]
                pos += length
            else:
                for _ in range(length):
                    out[pos] = out[pos - dist]
                    pos += 1
        else:
            if not cache_bits or s - 280 >= cache_size:
                raise ValueError("VP8L cache reference without cache")
            out[pos] = cache[s - 280]
            pos += 1
    return out.reshape(h, w)


def _avg2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ((a.astype(np.uint16) + b) >> 1).astype(np.uint8)


def _pack_words(img: np.ndarray) -> np.ndarray:
    """(h, w, 4) ARGB uint8 -> (h*w,) LE uint32 words (B,G,R,A)."""
    h, w = img.shape[:2]
    return np.ascontiguousarray(
        img[:, :, [3, 2, 1, 0]]).view(np.uint32).reshape(-1)


def _unpack_words(words: np.ndarray, img: np.ndarray) -> None:
    h, w = img.shape[:2]
    img[:] = words.view(np.uint8).reshape(h, w, 4)[:, :, [3, 2, 1, 0]]


def _inv_predictor(img: np.ndarray, modes: np.ndarray,
                   bits: int) -> None:
    """In-place inverse predictor transform (spec 4.2.2) over an
    (h, w, 4) uint8 view in ARGB channel order."""
    h, w = img.shape[:2]
    if _native_webp is not None:
        m = np.ascontiguousarray(modes, dtype=np.int32)
        words = _pack_words(img)
        _native_webp.inv_predictor(words, m.reshape(-1), w, h, bits,
                                   m.shape[1])
        _unpack_words(words, img)
        return
    black = np.array([255, 0, 0, 0], np.uint8)
    for y in range(h):
        for x in range(w):
            if x == 0 and y == 0:
                pred = black
            elif y == 0:
                pred = img[0, x - 1]
            elif x == 0:
                pred = img[y - 1, 0]
            else:
                mode = int(modes[y >> bits, x >> bits])
                L = img[y, x - 1]
                T = img[y - 1, x]
                TL = img[y - 1, x - 1]
                # TR wraps to this row's first pixel in the last col
                TR = img[y - 1, x + 1] if x + 1 < w else img[y, 0]
                if mode == 0:
                    pred = black
                elif mode == 1:
                    pred = L
                elif mode == 2:
                    pred = T
                elif mode == 3:
                    pred = TR
                elif mode == 4:
                    pred = TL
                elif mode == 5:
                    pred = _avg2(_avg2(L, TR), T)
                elif mode == 6:
                    pred = _avg2(L, TL)
                elif mode == 7:
                    pred = _avg2(L, T)
                elif mode == 8:
                    pred = _avg2(TL, T)
                elif mode == 9:
                    pred = _avg2(T, TR)
                elif mode == 10:
                    pred = _avg2(_avg2(L, TL), _avg2(T, TR))
                elif mode == 11:
                    dl = np.abs(L.astype(np.int32) - TL).sum()
                    dt = np.abs(T.astype(np.int32) - TL).sum()
                    pred = T if dl <= dt else L
                elif mode == 12:
                    pred = np.clip(
                        L.astype(np.int32) + T - TL, 0,
                        255).astype(np.uint8)
                elif mode == 13:
                    ave = _avg2(L, T).astype(np.int32)
                    d = ave - TL
                    half = np.where(d >= 0, d // 2, -((-d) // 2))
                    pred = np.clip(ave + half, 0, 255).astype(np.uint8)
                else:
                    raise ValueError(f"VP8L predictor mode {mode}")
            img[y, x] += pred  # uint8 wraparound = mod-256 add


def _inv_color(img: np.ndarray, ctes: np.ndarray, bits: int) -> None:
    """In-place inverse color transform (spec 4.2.3); img is
    (h, w, 4) ARGB uint8, ctes is the uint32 block image."""
    h, w = img.shape[:2]
    if _native_webp is not None:
        c = np.ascontiguousarray(ctes, dtype=np.uint32)
        words = _pack_words(img)
        _native_webp.inv_color(words, c.reshape(-1), w, h, bits,
                               c.shape[1])
        _unpack_words(words, img)
        return
    bw = ctes.shape[1]
    as_i8 = lambda v: v - 256 if v >= 128 else v  # noqa: E731
    for y in range(h):
        crow = ctes[y >> bits]
        for x in range(w):
            cte = int(crow[min(x >> bits, bw - 1)])
            g2r = as_i8(cte & 0xFF)
            g2b = as_i8((cte >> 8) & 0xFF)
            r2b = as_i8((cte >> 16) & 0xFF)
            green = as_i8(int(img[y, x, 2]))
            red = (int(img[y, x, 1]) + ((g2r * green) >> 5)) & 0xFF
            blue = (int(img[y, x, 3]) + ((g2b * green) >> 5)
                    + ((r2b * as_i8(red)) >> 5)) & 0xFF
            img[y, x, 1] = red
            img[y, x, 3] = blue


def decode_vp8l(payload: bytes) -> tuple[np.ndarray, dict]:
    """Decode a VP8L chunk payload to RGBA uint8 (h, w, 4)."""
    if not payload or payload[0] != 0x2F:
        raise ValueError("bad VP8L signature")
    br = _Bits(payload[1:])
    w = br.read(14) + 1
    h = br.read(14) + 1
    br.read(1)  # alpha-is-used hint
    if br.read(3) != 0:
        raise ValueError("unknown VP8L version")
    px, n_tr = _decode_vp8l_body(br, w, h)
    return px, {"width": w, "height": h, "n_transforms": n_tr}


def _decode_vp8l_body(br: _Bits, w: int,
                      h: int) -> tuple[np.ndarray, int]:
    """Transform loop + entropy image of a VP8L stream (everything
    after the 5-byte header). Shared by decode_vp8l and the ALPH
    chunk of lossy-with-alpha files, whose payload is a headerless
    VP8L stream with the alpha values in the green channel."""
    transforms = []
    xsize = w
    seen = set()
    while br.read(1):
        ttype = br.read(2)
        if ttype in seen:
            raise ValueError("duplicate VP8L transform")
        seen.add(ttype)
        if ttype in (0, 1):  # predictor / color
            bits = br.read(3) + 2
            bw = -(-xsize >> bits) or 1
            bh = -(-h >> bits) or 1
            sub = _decode_entropy(br, bw, bh, False)
            transforms.append((ttype, bits, sub))
        elif ttype == 2:  # subtract green
            transforms.append((2, 0, None))
        else:  # color indexing
            ncol = br.read(8) + 1
            pal = _decode_entropy(br, ncol, 1, False)[0]
            # palette entries are stored as component deltas
            p8 = pal.view(np.uint8).reshape(ncol, 4)
            np.cumsum(p8, axis=0, dtype=np.uint8, out=p8)
            wb = 3 if ncol <= 2 else 2 if ncol <= 4 else \
                1 if ncol <= 16 else 0
            transforms.append((3, wb, (pal, xsize)))
            if wb:
                xsize = -(-xsize >> wb)

    def to_argb8(words: np.ndarray) -> np.ndarray:
        """uint32 ARGB words -> (.., 4) uint8 in A,R,G,B order."""
        u8 = np.ascontiguousarray(words).view(np.uint8)
        return u8.reshape(words.shape + (4,))[..., [3, 2, 1, 0]].copy()

    px = to_argb8(_decode_entropy(br, xsize, h, True))
    for ttype, bits, data in reversed(transforms):
        if ttype == 3:
            pal, full_w = data
            pal8 = to_argb8(pal)  # (ncol, 4) ARGB
            idx = px[:, :, 2].astype(np.int64)  # green channel
            if bits:
                per = 1 << bits          # packed indices per byte
                ib = 8 >> bits           # bits per index
                cols = np.arange(full_w)
                sub = idx[:, cols >> bits]
                shifts = (cols & (per - 1)) * ib
                idx = (sub >> shifts[None, :]) & ((1 << ib) - 1)
            oob = idx >= len(pal8)
            px = pal8[np.where(oob, 0, idx)]
            px[oob] = 0
            xsize = px.shape[1]
        elif ttype == 2:
            g = px[:, :, 2].copy()
            px[:, :, 1] += g  # uint8 wraparound = mod-256 add
            px[:, :, 3] += g
        elif ttype == 1:
            _inv_color(px, data, bits)
        else:
            _inv_predictor(px, (data >> 8) & 0xFF, bits)
    return px[:, :, [1, 2, 3, 0]], len(transforms)


def _decode_alph(payload: bytes, w: int, h: int) -> np.ndarray:
    """ALPH chunk -> (h, w) uint8 alpha plane (WebP container spec:
    1 header byte — 2 bits each of reserved/preprocessing/filtering/
    compression — then raw bytes or a headerless VP8L stream)."""
    if not payload:
        raise ValueError("empty ALPH chunk")
    b0 = payload[0]
    comp = b0 & 3
    filt = (b0 >> 2) & 3
    if comp == 0:
        if len(payload) - 1 < w * h:
            raise ValueError("short raw ALPH payload")
        a = np.frombuffer(payload, np.uint8, w * h, 1) \
            .reshape(h, w).copy()
    elif comp == 1:
        px, _ = _decode_vp8l_body(_Bits(payload[1:]), w, h)
        a = px[:, :, 1].copy()  # alpha rides the green channel
    else:
        raise ValueError(f"reserved ALPH compression {comp}")
    if filt == 0:
        return a
    if filt == 1:  # horizontal: left pred, row-leading pixel chains
        firsts = np.cumsum(a[:, 0], dtype=np.uint8)
        out = np.cumsum(a, axis=1, dtype=np.uint8)
        out += (firsts - a[:, 0]).reshape(h, 1)
        return out
    if filt == 2:  # vertical: row 0 horizontal, then column sums
        row0 = np.cumsum(a[0], dtype=np.uint8)
        out = np.cumsum(a, axis=0, dtype=np.uint8)
        out += (row0 - a[0]).reshape(1, w)
        return out
    # gradient: clamp(left + top - top_left), row 0 horizontal
    out = np.empty_like(a)
    out[0] = np.cumsum(a[0], dtype=np.uint8)
    for r in range(1, h):
        prev = out[r - 1]
        src = a[r]
        left = int(prev[0])
        top_left = left
        row = out[r]
        for i in range(w):
            top = int(prev[i])
            g = left + top - top_left
            if g < 0:
                g = 0
            elif g > 255:
                g = 255
            left = (int(src[i]) + g) & 0xFF
            top_left = top
            row[i] = left
    return out


def decode_webp(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode a WebP file to RGBA uint8 (h, w, 4): RIFF walk to the
    image chunk — VP8L (lossless, decode_vp8l) or VP8 (lossy
    keyframe, ops/vp8.py), with an optional ALPH alpha plane on the
    lossy path (VP8X containers). Only animation remains
    NotImplementedError."""
    if blob[:4] != b"RIFF" or blob[8:12] != b"WEBP":
        raise ValueError("not a WebP (bad RIFF header)")
    pos = 12
    alph: bytes | None = None
    while pos + 8 <= len(blob):
        tag = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        payload = blob[pos + 8:pos + 8 + size]
        if len(payload) != size:
            raise ValueError("truncated WebP chunk")
        if tag == b"VP8L":
            arr, meta = decode_vp8l(payload)
            meta["format"] = "webp"
            return arr, meta
        if tag == b"ALPH":
            alph = payload
        elif tag == b"VP8 ":
            from .vp8 import decode_vp8, yuv_to_rgba
            y, u, v, meta = decode_vp8(payload)
            arr = yuv_to_rgba(y, u, v)
            if alph is not None:
                arr[:, :, 3] = _decode_alph(alph, meta["width"],
                                            meta["height"])
            meta["format"] = "webp"
            meta["has_alpha"] = alph is not None
            return arr, meta
        elif tag == b"ANIM" or tag == b"ANMF":
            raise NotImplementedError(
                "animated WebP not supported (frame-sample stills "
                "through SampleVideoFrames' containers instead)")
        pos += 8 + size + (size & 1)
    raise ValueError("WebP with no image chunk")


def _decode_webp_still(payload_chunks: list) -> tuple[np.ndarray,
                                                      dict]:
    """Decode one still image from its (tag, payload) chunks
    (a whole-file chunk list or one ANMF frame's sub-chunks)."""
    alph = None
    for tag, payload in payload_chunks:
        if tag == b"ALPH":
            alph = payload
        elif tag == b"VP8L":
            return decode_vp8l(payload)
        elif tag == b"VP8 ":
            from .vp8 import decode_vp8, yuv_to_rgba
            y, u, v, meta = decode_vp8(payload)
            arr = yuv_to_rgba(y, u, v)
            if alph is not None:
                arr[:, :, 3] = _decode_alph(alph, meta["width"],
                                            meta["height"])
            meta["has_alpha"] = alph is not None
            return arr, meta
    raise ValueError("WebP frame with no image chunk")


def _chunks(blob: bytes, start: int, end: int):
    pos = start
    while pos + 8 <= end:
        tag = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        payload = blob[pos + 8:pos + 8 + size]
        if len(payload) != size or pos + 8 + size > end:
            raise ValueError("truncated WebP chunk")
        yield tag, payload
        pos += 8 + size + (size & 1)


def _u24(b: bytes, off: int) -> int:
    return b[off] | (b[off + 1] << 8) | (b[off + 2] << 16)


def decode_webp_frames(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode a WebP file to stacked RGBA frames (n, h, w, 4).

    Stills yield one frame. Animations (VP8X + ANIM/ANMF, WebP
    container spec) composite per the spec's state machine onto an
    initially-transparent canvas: each ANMF places its sub-image
    (VP8/VP8L, optional ALPH) at (2*frame_x, 2*frame_y); flag bit 1
    set = overwrite, clear = alpha-blend (straight-alpha integer
    blend: a_out = a_s + a_d*(255-a_s)//255, c_out = (c_s*a_s +
    c_d*a_d*(255-a_s)//255)//a_out); flag bit 0 set = dispose the
    frame rectangle to transparent afterward. Frame PAYLOAD decode is
    bit-exact vs libwebp (tests); the compositing semantics are
    spec-derived (no demuxer library exists in this container to A/B
    against) and pinned by designed-overlap tests."""
    if blob[:4] != b"RIFF" or blob[8:12] != b"WEBP":
        raise ValueError("not a WebP (bad RIFF header)")
    chunks = list(_chunks(blob, 12, len(blob)))
    tags = [t for t, _ in chunks]
    if b"ANMF" not in tags:
        arr, meta = decode_webp(blob)
        meta["n_frames"] = 1
        return arr[None, ...], meta
    canvas_w = canvas_h = None
    loop_count = 0
    for tag, payload in chunks:
        if tag == b"VP8X" and len(payload) >= 10:
            canvas_w = _u24(payload, 4) + 1
            canvas_h = _u24(payload, 7) + 1
        elif tag == b"ANIM" and len(payload) >= 6:
            loop_count = payload[4] | (payload[5] << 8)
    if canvas_w is None:
        raise ValueError("animated WebP without VP8X canvas")
    from .codecs import check_dims
    check_dims(canvas_w, canvas_h, "animated WebP canvas")
    canvas = np.zeros((canvas_h, canvas_w, 4), np.uint8)
    frames = []
    durations = []
    for tag, payload in chunks:
        if tag != b"ANMF":
            continue
        if len(payload) < 16:
            raise ValueError("short ANMF header")
        fx = _u24(payload, 0) * 2
        fy = _u24(payload, 3) * 2
        fw = _u24(payload, 6) + 1
        fh = _u24(payload, 9) + 1
        durations.append(_u24(payload, 12))
        flags = payload[15]
        sub = list(_chunks(payload, 16, len(payload)))
        img, _ = _decode_webp_still(sub)
        if img.shape[:2] != (fh, fw) or fx + fw > canvas_w \
                or fy + fh > canvas_h:
            raise ValueError("ANMF frame geometry mismatch")
        region = canvas[fy:fy + fh, fx:fx + fw]
        if flags & 0x02:  # no blending: overwrite
            region[:] = img
        else:  # straight-alpha blend, integer math as documented
            sa = img[:, :, 3].astype(np.int64)
            da = region[:, :, 3].astype(np.int64)
            sda = da * (255 - sa) // 255
            oa = sa + sda
            oc = (img[:, :, :3].astype(np.int64) * sa[..., None]
                  + region[:, :, :3].astype(np.int64)
                  * sda[..., None])
            safe = np.maximum(oa, 1)
            region[:, :, :3] = (oc // safe[..., None]).astype(
                np.uint8)
            region[:, :, 3] = oa.astype(np.uint8)
        frames.append(canvas.copy())
        if flags & 0x01:  # dispose to background (transparent)
            canvas[fy:fy + fh, fx:fx + fw] = 0
    if not frames:
        raise ValueError("animated WebP with no ANMF frames")
    return np.stack(frames), {
        "format": "webp", "animated": True, "width": canvas_w,
        "height": canvas_h, "n_frames": len(frames),
        "loop_count": loop_count, "durations_ms": durations}


# ---------------------------------------------------------------------------
# native kernel gating: the C pixel loop must reproduce the pure path
# bit-exactly on a libwebp-encoded feature sample (transforms + cache
# + copies), else it is disabled for the process lifetime. When
# libwebp is not present to generate the sample, the kernel stays
# DISABLED (conservative: the pure path is always correct).


def _native_selftest(native) -> bool:
    global _native_webp
    import ctypes
    lw = ctypes.CDLL("libwebp.so.7")
    lw.WebPEncodeLosslessRGBA.restype = ctypes.c_size_t
    lw.WebPEncodeLosslessRGBA.argtypes = [
        ctypes.c_char_p, ctypes.c_int, ctypes.c_int, ctypes.c_int,
        ctypes.POINTER(ctypes.c_void_p)]
    rng = np.random.default_rng(7)
    smooth = (np.add.outer(np.arange(40), np.arange(50))[..., None]
              * np.array([1, 2, 3]) // 3 % 256)
    cases = [rng.integers(0, 256, (20, 30, 4)), smooth,
             rng.integers(0, 4, (30, 40, 3)) * 80]
    try:
        for img in cases:
            rgba = np.ascontiguousarray(img.astype(np.uint8))
            h, w = rgba.shape[:2]
            if rgba.shape[2] == 3:
                rgba = np.concatenate(
                    [rgba, np.full((h, w, 1), 255, np.uint8)], 2)
            buf = ctypes.c_void_p()
            size = lw.WebPEncodeLosslessRGBA(
                rgba.tobytes(), w, h, w * 4, ctypes.byref(buf))
            blob = ctypes.string_at(buf, size)
            _native_webp = native
            got, _ = decode_webp(blob)
            _native_webp = None
            want, _ = decode_webp(blob)
            if not np.array_equal(want, got):
                return False
        return True
    finally:
        _native_webp = None


_native_webp = _native.checked(_native.swishwebp, _native_selftest)



# ---------------------------------------------------------------------------
# minimal VP8L encoder (tests / oracles / demos): literal-only — no
# transforms, no LZ77, no color cache, one prefix group — with FIXED
# complete canonical codes, so the roundtrip is exact for arbitrary
# content and every decoder code path it feeds (code-length-coded
# prefix codes with repeat-16 runs, simple codes, literal loop) gets
# exercised by a second independent writer besides libwebp.


class _BitWriterLSB:
    """LSB-first bit writer (VP8L convention); prefix codes go in
    MSB-of-code first (DEFLATE convention)."""

    __slots__ = ("buf", "acc", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, n: int) -> None:
        self.acc |= (value & ((1 << n) - 1)) << self.nbits
        self.nbits += n
        while self.nbits >= 8:
            self.buf.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def write_code(self, code: int, n: int) -> None:
        for i in range(n - 1, -1, -1):
            self.write((code >> i) & 1, 1)

    def flush(self) -> bytes:
        if self.nbits:
            self.buf.append(self.acc & 0xFF)
            self.acc = 0
            self.nbits = 0
        return bytes(self.buf)


def _canonical_codes(lengths: list[int]) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length), same canonical rule _Huff decodes."""
    maxlen = max(lengths)
    bl_count = [0] * (maxlen + 1)
    for ln in lengths:
        if ln:
            bl_count[ln] += 1
    next_code = [0] * (maxlen + 2)
    code = 0
    for ln in range(1, maxlen + 1):
        code = (code + bl_count[ln - 1]) << 1
        next_code[ln] = code
    out = {}
    for sym, ln in enumerate(lengths):
        if ln:
            out[sym] = (next_code[ln], ln)
            next_code[ln] += 1
    return out


def _emit_lengths(bw: _BitWriterLSB, lengths: list[int]) -> None:
    """Emit one code-length-coded prefix code whose EVERY symbol has
    a nonzero length (so no zero-run codes are needed): the CLC
    covers the distinct lengths plus repeat-16, all at equal depth."""
    used = sorted(set(lengths))
    clc_syms = used + [16]
    depth = max(1, (len(clc_syms) - 1).bit_length())
    # complete the CLC: pad with more distinct unused symbols at the
    # same depth until 2^depth symbols carry codes
    pad = [s for s in range(16) if s not in used]
    while len(clc_syms) < (1 << depth):
        clc_syms.append(pad.pop())
    clc_syms.sort()
    clc = {s: (i, depth) for i, s in enumerate(clc_syms)}
    bw.write(0, 1)  # not simple
    npos = 1 + max(_CLC_ORDER.index(s) for s in clc_syms)
    bw.write(npos - 4, 4)
    for pos in range(npos):
        bw.write(depth if _CLC_ORDER[pos] in clc_syms else 0, 3)
    bw.write(0, 1)  # no explicit max_symbol

    i = 0
    n = len(lengths)
    while i < n:
        ln = lengths[i]
        j = i + 1
        while j < n and lengths[j] == ln:
            j += 1
        count = j - i
        code, d = clc[ln]
        bw.write_code(code, d)
        count -= 1
        while count:
            if count < 3:
                bw.write_code(code, d)
                count -= 1
            else:
                take = min(6, count)
                if count - take in (1, 2):
                    take = count - 3
                rc, rd = clc[16]
                bw.write_code(rc, rd)
                bw.write(take - 3, 2)
                count -= take
        i = j


def _emit_simple1(bw: _BitWriterLSB, sym: int) -> None:
    """Single-symbol "simple" code (0 bits per decoded symbol)."""
    bw.write(1, 1)  # simple
    bw.write(0, 1)  # 1 symbol
    bw.write(1, 1)  # 8-bit first symbol
    bw.write(sym, 8)


# green: literals 0..255 at 9 bits, 16 pad symbols at 6, 8 at 5
# (Kraft: 256/512 + 16/64 + 8/32 = 1); red/blue/alpha: flat 8-bit
_GREEN_LENGTHS = [9] * 256 + [6] * 16 + [5] * 8
_FLAT_LENGTHS = [8] * 256


def encode_webp(arr: np.ndarray) -> bytes:
    """Encode (h, w) grayscale, (h, w, 3) RGB or (h, w, 4) RGBA uint8
    as a lossless WebP (VP8L, literal-only — see section comment).
    Roundtrips exactly through decode_webp and libwebp."""
    a = np.asarray(arr, np.uint8)
    if a.ndim == 2:
        a = a[:, :, None]
    if a.ndim != 3 or a.shape[2] not in (1, 3, 4):
        raise ValueError("encode_webp wants (h,w)[,1|3|4] uint8")
    h, w = a.shape[:2]
    if not (0 < w <= 16384 and 0 < h <= 16384):
        raise ValueError("encode_webp dimensions out of VP8L range")
    if a.shape[2] == 1:
        a = np.repeat(a, 3, axis=2)
    alpha = a[:, :, 3] if a.shape[2] == 4 else None
    bw = _BitWriterLSB()
    bw.write(0x2F, 8)
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write(1 if alpha is not None else 0, 1)
    bw.write(0, 3)   # version
    bw.write(0, 1)   # no transforms
    bw.write(0, 1)   # no color cache
    bw.write(0, 1)   # no meta prefix codes
    green = _canonical_codes(_GREEN_LENGTHS)
    flat = _canonical_codes(_FLAT_LENGTHS)
    _emit_lengths(bw, _GREEN_LENGTHS)         # green
    _emit_lengths(bw, _FLAT_LENGTHS)          # red
    _emit_lengths(bw, _FLAT_LENGTHS)          # blue
    const_alpha = alpha is None or \
        bool((alpha == alpha.flat[0]).all())
    if const_alpha:
        _emit_simple1(bw, 255 if alpha is None
                      else int(alpha.flat[0]))
    else:
        _emit_lengths(bw, _FLAT_LENGTHS)      # alpha
    _emit_simple1(bw, 0)                      # distance (unused)
    r_ch = a[:, :, 0].ravel()
    g_ch = a[:, :, 1].ravel()
    b_ch = a[:, :, 2].ravel()
    a_ch = alpha.ravel() if (alpha is not None
                             and not const_alpha) else None
    for i in range(w * h):
        c, ln = green[int(g_ch[i])]
        bw.write_code(c, ln)
        c, ln = flat[int(r_ch[i])]
        bw.write_code(c, ln)
        c, ln = flat[int(b_ch[i])]
        bw.write_code(c, ln)
        if a_ch is not None:
            c, ln = flat[int(a_ch[i])]
            bw.write_code(c, ln)
    payload = bw.flush()
    chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunk += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" \
        + chunk
