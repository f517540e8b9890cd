"""From-scratch media codecs: PNG, BMP, PPM/PGM, WAV (RIFF/PCM) and
Y4M (YUV4MPEG2), implemented against the PUBLIC format specifications
only — W3C PNG (ISO/IEC 15948 / RFC 2083), the Windows BMP layout,
Netpbm, the RIFF/WAVE chunk format, and the mjpegtools YUV4MPEG2
header. stdlib ``zlib`` provides inflate/deflate and CRC32; everything
else (chunk walking, scanline un-filtering, Adam7 de-interlacing,
palette/tRNS expansion, sample widening) is implemented here with
numpy.

These are the decode kernels behind ops/multimodal.py's actor-pool
stages (the reference engine, libswish3, is text-only — multimodal
columns are the builder's brief, not reference parity). Error
discipline: a CORRUPT file of a known format raises ``ValueError``
(it lands in the stage's per-row error column); a format we have no
codec for (TIFF/WebP/MP4...) raises ``NotImplementedError`` so the
two failure classes stay distinguishable downstream. JPEG (baseline
+ progressive) lives in ops/jpeg.py and dispatches from
``decode_image`` here; GIF (LZW) is below.

Scale notes: decoding is per-row CPU work with zero driver state —
it parallelizes embarrassingly under map_batches actor pools. The
PNG un-filter is vectorized across each pixel's bytes and across the
row for filters 0/1/2 (None/Sub/Up); Average/Paeth walk pixels
left-to-right (inherent data dependency) with numpy math per pixel
group.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

# Safety cap for attacker-controlled dimensions: decoders allocate
# output buffers from header fields BEFORE touching sample data, so a
# 100-byte blob could otherwise claim a multi-GB canvas and OOM the
# decode actor. 2^28 px (268 MP — ~1 GB as RGBA) exceeds any sane web
# image; beyond it raise ValueError, the error-column class.
MAX_PIXELS = 1 << 28


def check_dims(w: int, h: int, what: str = "image") -> None:
    if w <= 0 or h <= 0 or w * h > MAX_PIXELS:
        raise ValueError(
            f"{what} dimensions {w}x{h} outside the safety cap")


def bounded_inflate(data: bytes, expected: int, what: str) -> bytes:
    """zlib inflate capped at ``expected`` output bytes — a plain
    zlib.decompress() inflates the WHOLE stream first, so a small
    deflate bomb could allocate gigabytes regardless of the declared
    image dimensions."""
    d = zlib.decompressobj()
    try:
        # short streams fall through to the callers' length checks
        return d.decompress(data, expected)
    except zlib.error as e:
        raise ValueError(f"{what} inflate failed: {e}") from None


# ---------------------------------------------------------------------------
# PNG

PNG_SIG = b"\x89PNG\r\n\x1a\n"

# Adam7 pass grid: (x0, y0, dx, dy) per the PNG spec's interlace table
_ADAM7 = ((0, 0, 8, 8), (4, 0, 8, 8), (0, 4, 4, 8), (2, 0, 4, 4),
          (0, 2, 2, 4), (1, 0, 2, 2), (0, 1, 1, 2))

_PNG_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}
_PNG_VALID_DEPTHS = {0: (1, 2, 4, 8, 16), 2: (8, 16), 3: (1, 2, 4, 8),
                     4: (8, 16), 6: (8, 16)}


def _png_chunks(blob: bytes):
    pos = 8
    n = len(blob)
    while pos + 12 <= n:
        (ln,) = struct.unpack_from(">I", blob, pos)
        typ = blob[pos + 4:pos + 8]
        end = pos + 8 + ln
        if end + 4 > n:
            raise ValueError("truncated PNG chunk")
        data = blob[pos + 8:end]
        (crc,) = struct.unpack_from(">I", blob, end)
        if zlib.crc32(typ + data) & 0xFFFFFFFF != crc:
            raise ValueError(f"PNG chunk {typ!r} CRC mismatch")
        yield typ, data
        pos = end + 4
        if typ == b"IEND":
            return
    raise ValueError("PNG missing IEND")


def _unfilter_py(raw: bytes, h: int, stride: int,
                 fbpp: int) -> np.ndarray:
    """Reverse PNG scanline filtering: ``raw`` is ``h`` rows of
    (1 filter byte + ``stride`` data bytes); returns (h, stride)
    reconstructed uint8. ``fbpp`` is the filter unit (bytes per
    pixel, min 1 — the spec's left-neighbour distance)."""
    if len(raw) != h * (1 + stride):
        raise ValueError("PNG pixel data length mismatch "
                         f"(got {len(raw)}, want {h * (1 + stride)})")
    out = np.empty((h, stride), np.uint8)
    prev = np.zeros(stride, np.uint8)
    pad = (-stride) % fbpp
    mv = memoryview(raw)
    pos = 0
    for y in range(h):
        ft = raw[pos]
        row = np.frombuffer(mv, np.uint8, stride, pos + 1)
        pos += 1 + stride
        if ft == 0:            # None
            rec = row.copy()
        elif ft == 2:          # Up (uint8 addition wraps mod 256)
            rec = row + prev
        elif ft == 1:          # Sub: grouped cumsum along the row
            g = np.zeros(stride + pad, np.int64)
            g[:stride] = row
            rec = (g.reshape(-1, fbpp).cumsum(axis=0) % 256) \
                .astype(np.uint8).reshape(-1)[:stride]
        elif ft == 3:          # Average: sequential in x per the spec
            rec = np.empty(stride, np.uint8)
            a = np.zeros(fbpp, np.uint16)
            pr = prev.astype(np.uint16)
            for i in range(0, stride, fbpp):
                j = min(i + fbpp, stride)
                r = row[i:j] + ((a[:j - i] + pr[i:j]) >> 1).astype(
                    np.uint8)
                rec[i:j] = r
                a[:j - i] = r
        elif ft == 4:          # Paeth: sequential in x per the spec
            rec = np.empty(stride, np.uint8)
            a = np.zeros(fbpp, np.int16)
            pr = prev.astype(np.int16)
            c = np.zeros(fbpp, np.int16)
            for i in range(0, stride, fbpp):
                j = min(i + fbpp, stride)
                b = pr[i:j]
                aa, cc = a[:j - i], c[:j - i]
                p = aa + b - cc
                pa, pb, pc_ = np.abs(p - aa), np.abs(p - b), np.abs(p - cc)
                pred = np.where((pa <= pb) & (pa <= pc_), aa,
                                np.where(pb <= pc_, b, cc))
                r = row[i:j] + pred.astype(np.uint8)
                rec[i:j] = r
                a[:j - i] = r
                c[:j - i] = b
        else:
            raise ValueError(f"bad PNG filter type {ft}")
        out[y] = rec
        prev = rec
    return out


try:  # optional C accelerator (A/B-verified below; see _native)
    from .._native import swishpng as _native_png
except Exception:  # pragma: no cover - import-time environment
    _native_png = None


def _native_selftest() -> bool:
    """A/B the C unfilter against the numpy reference on a case that
    exercises all five filter types with multi-byte pixels."""
    rng = np.random.RandomState(7)
    h, stride, fbpp = 5, 12, 3
    raw = bytearray()
    for y in range(5):
        raw.append(y)  # filter types 0..4
        raw += rng.randint(0, 256, stride, dtype=np.uint8).tobytes()
    want = _unfilter_py(bytes(raw), h, stride, fbpp)
    got = np.frombuffer(
        _native_png.unfilter(bytes(raw), h, stride, fbpp),
        np.uint8).reshape(h, stride)
    return bool((want == got).all())


if _native_png is not None:
    try:
        if not _native_selftest():  # pragma: no cover - host-dependent
            _native_png = None
    except Exception:  # pragma: no cover
        _native_png = None


def _unfilter(raw: bytes, h: int, stride: int, fbpp: int) -> np.ndarray:
    if _native_png is not None:
        return np.frombuffer(
            _native_png.unfilter(raw, h, stride, fbpp),
            np.uint8).reshape(h, stride)
    return _unfilter_py(raw, h, stride, fbpp)


def _expand_samples(recon: np.ndarray, w: int, channels: int,
                    bitdepth: int) -> np.ndarray:
    """(h, stride) recon bytes -> (h, w, channels) samples (uint8, or
    uint16 for bitdepth 16; sub-byte depths stay UNSCALED here)."""
    h = recon.shape[0]
    if bitdepth == 8:
        return recon[:, :w * channels].reshape(h, w, channels)
    if bitdepth == 16:
        a = recon[:, :w * channels * 2].astype(np.uint16).reshape(
            h, w * channels, 2)
        return ((a[..., 0] << 8) | a[..., 1]).reshape(h, w, channels)
    # 1/2/4-bit: single channel, big-endian bit packing within bytes
    bits = np.unpackbits(recon, axis=1)[:, :w * bitdepth] \
        .reshape(h, w, bitdepth)
    weights = (1 << np.arange(bitdepth - 1, -1, -1)).astype(np.uint8)
    return (bits * weights).sum(axis=2, dtype=np.uint16) \
        .astype(np.uint8)[..., None]


def decode_png(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode a PNG to an (h, w, channels) array (uint8, or uint16
    for 16-bit files). Supports every legal bitdepth/colortype combo
    plus PLTE, tRNS and Adam7 interlacing; raises ValueError on any
    corruption (bad CRC, truncation, illegal combos)."""
    if blob[:8] != PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    ihdr = None
    plte = None
    trns = None
    idat: list[bytes] = []
    for typ, data in _png_chunks(blob):
        if typ == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif typ == b"PLTE":
            if len(data) % 3:
                raise ValueError("PLTE length not a multiple of 3")
            plte = np.frombuffer(data, np.uint8).reshape(-1, 3)
        elif typ == b"tRNS":
            trns = data
        elif typ == b"IDAT":
            idat.append(data)
    if ihdr is None:
        raise ValueError("PNG missing IHDR")
    w, h, bd, ct, comp, filt, inter = ihdr
    if comp != 0 or filt != 0:
        raise ValueError("unknown PNG compression/filter method")
    if ct not in _PNG_CHANNELS or bd not in _PNG_VALID_DEPTHS[ct]:
        raise ValueError(f"illegal PNG bitdepth/colortype {bd}/{ct}")
    if w == 0 or h == 0:
        raise ValueError("zero-dimension PNG")
    check_dims(w, h, "PNG")
    if not idat:
        raise ValueError("PNG missing IDAT")
    channels = _PNG_CHANNELS[ct]
    bpp_bits = channels * bd
    fbpp = max(1, bpp_bits // 8)
    if inter == 0:
        max_raw = h * ((w * bpp_bits + 7) // 8 + 1)
    else:  # Adam7: per-pass rows, each with a filter byte
        max_raw = 0
        for x0, y0, dx, dy in _ADAM7:
            pw = (w - x0 + dx - 1) // dx
            ph = (h - y0 + dy - 1) // dy
            if pw > 0 and ph > 0:
                max_raw += ph * ((pw * bpp_bits + 7) // 8 + 1)
    # +1: detect over-long streams (kept corrupt, as before) while
    # still never inflating more than the declared image needs
    raw = bounded_inflate(b"".join(idat), max_raw + 1, "PNG IDAT")
    if len(raw) > max_raw:
        raise ValueError("PNG pixel data length mismatch "
                         f"(got >{max_raw}, want {max_raw})")

    dtype = np.uint16 if bd == 16 else np.uint8
    if inter == 0:
        stride = (w * bpp_bits + 7) // 8
        samples = _expand_samples(_unfilter(raw, h, stride, fbpp),
                                  w, channels, bd)
    elif inter == 1:  # Adam7
        samples = np.zeros((h, w, channels), dtype)
        pos = 0
        for x0, y0, dx, dy in _ADAM7:
            pw = (w - x0 + dx - 1) // dx
            ph = (h - y0 + dy - 1) // dy
            if pw <= 0 or ph <= 0:
                continue
            stride = (pw * bpp_bits + 7) // 8
            sz = ph * (1 + stride)
            sub = _expand_samples(
                _unfilter(raw[pos:pos + sz], ph, stride, fbpp),
                pw, channels, bd)
            pos += sz
            samples[y0::dy, x0::dx] = sub
        if pos != len(raw):
            raise ValueError("PNG interlaced data length mismatch")
    else:
        raise ValueError(f"unknown PNG interlace method {inter}")

    meta = {"width": w, "height": h, "bitdepth": bd, "colortype": ct,
            "interlaced": bool(inter)}
    if ct == 3:  # palette -> RGB(A)
        if plte is None:
            raise ValueError("palette PNG missing PLTE")
        idx = samples[..., 0]
        if int(idx.max(initial=0)) >= plte.shape[0]:
            raise ValueError("palette index out of range")
        rgb = plte[idx]
        if trns is not None:
            alpha = np.full(plte.shape[0], 255, np.uint8)
            alpha[:len(trns)] = np.frombuffer(trns, np.uint8)
            return np.dstack([rgb, alpha[idx]]), meta
        return rgb, meta
    if ct == 0:
        if bd < 8:  # scale to full 8-bit range (255/(2^bd - 1) exact)
            samples = samples * np.uint8(255 // ((1 << bd) - 1))
        if trns is not None and len(trns) >= 2:
            key = struct.unpack(">H", trns[:2])[0]
            if bd < 8:
                key = key * (255 // ((1 << bd) - 1))
            maxv = 65535 if bd == 16 else 255
            alpha = np.where(samples[..., 0] == key, 0, maxv) \
                .astype(samples.dtype)
            samples = np.dstack([samples[..., 0], alpha])
        return samples, meta
    if ct == 2 and trns is not None and len(trns) >= 6:
        key = np.array(struct.unpack(">HHH", trns[:6]),
                       samples.dtype if bd == 16 else np.uint16)
        if bd == 8:
            key = key.astype(np.uint8)
        maxv = 65535 if bd == 16 else 255
        hit = (samples == key).all(axis=2)
        alpha = np.where(hit, 0, maxv).astype(samples.dtype)
        return np.dstack([samples, alpha]), meta
    return samples, meta


def _png_chunk(typ: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + typ + data
            + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF))


def encode_png(arr: np.ndarray, level: int = 6) -> bytes:
    """Encode an (h, w[, channels]) uint8/uint16 array as a PNG
    (filter type 0 on every scanline — simple, always valid)."""
    a = np.asarray(arr)
    if a.ndim == 2:
        a = a[..., None]
    if a.ndim != 3 or a.shape[2] not in (1, 2, 3, 4):
        raise ValueError("encode_png wants (h, w[, 1|2|3|4]) samples")
    h, w, c = a.shape
    ct = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    if a.dtype == np.uint16:
        bd = 16
        body = a.astype(">u2").tobytes()
        stride = w * c * 2
    else:
        bd = 8
        body = np.ascontiguousarray(a, np.uint8).tobytes()
        stride = w * c
    rows = bytearray()
    for y in range(h):
        rows.append(0)
        rows += body[y * stride:(y + 1) * stride]
    ihdr = struct.pack(">IIBBBBB", w, h, bd, ct, 0, 0, 0)
    return (PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(bytes(rows), level))
            + _png_chunk(b"IEND", b""))


# ---------------------------------------------------------------------------
# APNG (animated PNG: acTL/fcTL/fdAT chunks per the APNG spec, now
# folded into the W3C PNG 3rd-edition draft). The per-frame pixel
# data is ordinary PNG-compressed scanlines with the main IHDR's
# bitdepth/colortype, so each frame round-trips through decode_png on
# a synthesized single-image stream — frame payload decode therefore
# inherits the PNG decoder's conformance; the compositing state
# machine (blend_op SOURCE/OVER, dispose_op NONE/BACKGROUND/PREVIOUS)
# is spec-derived and pinned by designed-overlap tests (no APNG
# library exists in this container to A/B against).


def _rgba_u8(arr: np.ndarray) -> np.ndarray:
    """decode_png output (h, w[, c]) -> (h, w, 4) RGBA uint8
    (16-bit samples take their high byte)."""
    a = arr
    if a.dtype == np.uint16:
        a = (a >> 8).astype(np.uint8)
    if a.ndim == 2:
        a = a[..., None]
    h, w, c = a.shape
    if c == 1:
        return np.dstack([a, a, a, np.full((h, w), 255, np.uint8)])
    if c == 2:
        g = a[..., :1]
        return np.dstack([g, g, g, a[..., 1:]])
    if c == 3:
        return np.dstack([a, np.full((h, w), 255, np.uint8)])
    return np.ascontiguousarray(a)


def png_is_animated(blob: bytes) -> bool:
    """True when a PNG carries an acTL chunk before IDAT (the APNG
    marker). Walks chunk headers only — no CRC/payload work."""
    if blob[:8] != PNG_SIG:
        return False
    pos = 8
    n = len(blob)
    while pos + 8 <= n:
        (ln,) = struct.unpack_from(">I", blob, pos)
        typ = blob[pos + 4:pos + 8]
        if typ == b"acTL":
            return True
        if typ in (b"IDAT", b"IEND"):
            return False
        pos += 12 + ln
    return False


def decode_apng(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode an animated PNG to stacked RGBA frames (n, h, w, 4).

    Compositing per the APNG spec onto an initially-transparent
    canvas: each frame's sub-image is placed at (x_offset, y_offset);
    blend_op 0 (SOURCE) overwrites the region, 1 (OVER) is the same
    straight-alpha integer blend the animated-WebP path documents
    (a_out = a_s + a_d*(255-a_s)//255, c_out = (c_s*a_s +
    c_d*a_d*(255-a_s)//255)//a_out). dispose_op afterward: 0 NONE,
    1 BACKGROUND (region -> transparent), 2 PREVIOUS (region reverts
    to its pre-frame pixels; on the first frame treated as BACKGROUND
    per the spec). When an fcTL precedes IDAT the default image is
    frame 0 (spec requires it full-canvas at offset 0); otherwise the
    default image is not part of the animation and only fdAT frames
    are returned. Sequence numbers across fcTL/fdAT must be 0..k
    contiguous; acTL num_frames must match — ValueError otherwise."""
    if blob[:8] != PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    ihdr = None
    plte_raw = None
    trns_raw = None
    actl = None
    seq_records: list[tuple[int, str, object]] = []
    idat: list[bytes] = []
    fctl_before_idat = False
    saw_idat = False
    for typ, data in _png_chunks(blob):
        if typ == b"IHDR":
            ihdr = data
        elif typ == b"PLTE":
            plte_raw = data
        elif typ == b"tRNS":
            trns_raw = data
        elif typ == b"acTL":
            if len(data) != 8:
                raise ValueError("bad acTL length")
            actl = struct.unpack(">II", data)
        elif typ == b"fcTL":
            if len(data) != 26:
                raise ValueError("bad fcTL length")
            seq = struct.unpack_from(">I", data)[0]
            seq_records.append((seq, "fctl",
                                struct.unpack(">IIIIHHBB", data[4:])))
            if not saw_idat:
                fctl_before_idat = True
        elif typ == b"fdAT":
            if len(data) < 4:
                raise ValueError("bad fdAT length")
            seq = struct.unpack_from(">I", data)[0]
            seq_records.append((seq, "fdat", data[4:]))
        elif typ == b"IDAT":
            idat.append(data)
            saw_idat = True
    if actl is None:
        raise ValueError("PNG without acTL is not an APNG")
    if ihdr is None or not idat:
        raise ValueError("APNG missing IHDR/IDAT")
    w, h = struct.unpack_from(">II", ihdr)
    check_dims(w, h, "APNG")
    # one shared, contiguous sequence across fcTL and fdAT chunks
    if [s for s, _, _ in seq_records] != list(range(len(seq_records))):
        raise ValueError("APNG sequence numbers not contiguous")

    # group into frames: fcTL then its data chunks (IDAT for the
    # first frame when fcTL precedes IDAT, fdAT otherwise)
    frames_in: list[tuple[tuple, list[bytes]]] = []
    for _, kind, payload in seq_records:
        if kind == "fctl":
            frames_in.append((payload, []))
        else:
            if not frames_in:
                raise ValueError("APNG fdAT before any fcTL")
            frames_in[-1][1].append(payload)
    if fctl_before_idat:
        if frames_in[0][1]:
            raise ValueError("APNG first fcTL followed by fdAT, "
                             "expected the default-image IDAT")
        fw0, fh0, fx0, fy0 = frames_in[0][0][:4]
        if (fw0, fh0, fx0, fy0) != (w, h, 0, 0):
            raise ValueError("APNG IDAT frame must be full-canvas")
        frames_in[0] = (frames_in[0][0], idat)
    num_frames, num_plays = actl
    if num_frames != len(frames_in):
        raise ValueError(
            f"acTL num_frames {num_frames} != {len(frames_in)} fcTL")
    if not frames_in:
        raise ValueError("APNG with no frames")

    ihdr_tail = ihdr[8:]  # bitdepth/colortype/comp/filter/interlace
    canvas = np.zeros((h, w, 4), np.uint8)
    out: list[np.ndarray] = []
    durations: list[int] = []
    for i, (fields, data_chunks) in enumerate(frames_in):
        fw, fh, fx, fy, dnum, dden, dispose, blend = fields
        if fx + fw > w or fy + fh > h or fw == 0 or fh == 0:
            raise ValueError("APNG frame exceeds canvas")
        if dispose > 2 or blend > 1:
            raise ValueError("bad APNG dispose/blend op")
        if not data_chunks:
            raise ValueError("APNG frame with no data chunks")
        sub = (PNG_SIG
               + _png_chunk(b"IHDR",
                            struct.pack(">II", fw, fh) + ihdr_tail))
        if plte_raw is not None:
            sub += _png_chunk(b"PLTE", plte_raw)
        if trns_raw is not None:
            sub += _png_chunk(b"tRNS", trns_raw)
        sub += (_png_chunk(b"IDAT", b"".join(data_chunks))
                + _png_chunk(b"IEND", b""))
        img = _rgba_u8(decode_png(sub)[0])
        durations.append(1000 * dnum // (dden or 100))
        if i == 0 and dispose == 2:
            dispose = 1  # spec: first-frame PREVIOUS acts as BACKGROUND
        prev = (canvas[fy:fy + fh, fx:fx + fw].copy()
                if dispose == 2 else None)
        region = canvas[fy:fy + fh, fx:fx + fw]
        if blend == 0:  # SOURCE: overwrite
            region[:] = img
        else:  # OVER: straight-alpha integer blend as documented
            sa = img[:, :, 3].astype(np.int64)
            da = region[:, :, 3].astype(np.int64)
            sda = da * (255 - sa) // 255
            oa = sa + sda
            oc = (img[:, :, :3].astype(np.int64) * sa[..., None]
                  + region[:, :, :3].astype(np.int64) * sda[..., None])
            safe = np.maximum(oa, 1)
            region[:, :, :3] = (oc // safe[..., None]).astype(np.uint8)
            region[:, :, 3] = oa.astype(np.uint8)
        out.append(canvas.copy())
        if dispose == 1:
            canvas[fy:fy + fh, fx:fx + fw] = 0
        elif dispose == 2:
            canvas[fy:fy + fh, fx:fx + fw] = prev
    return np.stack(out), {
        "format": "png", "animated": True, "width": w, "height": h,
        "n_frames": len(out), "loop_count": num_plays,
        "durations_ms": durations}


def encode_apng(frames: np.ndarray,
                delay: tuple[int, int] = (1, 10),
                level: int = 6) -> bytes:
    """Encode (n, h, w, 3|4) uint8 frames as an APNG (full-canvas
    frames, blend SOURCE, dispose NONE, filter 0 — the encoder
    sibling of decode_apng; frame 0 rides the default-image IDAT)."""
    f = np.ascontiguousarray(frames, np.uint8)
    if f.ndim != 4 or f.shape[3] not in (3, 4):
        raise ValueError("encode_apng wants (n, h, w, 3|4) uint8")
    n, h, w, c = f.shape
    ct = 2 if c == 3 else 6
    dnum, dden = delay
    seq = 0

    def fctl() -> bytes:
        nonlocal seq
        data = struct.pack(">IIIIIHHBB", seq, w, h, 0, 0,
                           dnum, dden, 0, 0)
        seq += 1
        return _png_chunk(b"fcTL", data)

    def scanlines(img: np.ndarray) -> bytes:
        body = img.tobytes()
        stride = w * c
        rows = bytearray()
        for y in range(h):
            rows.append(0)
            rows += body[y * stride:(y + 1) * stride]
        return zlib.compress(bytes(rows), level)

    out = bytearray(PNG_SIG)
    out += _png_chunk(b"IHDR",
                      struct.pack(">IIBBBBB", w, h, 8, ct, 0, 0, 0))
    out += _png_chunk(b"acTL", struct.pack(">II", n, 0))
    out += fctl()
    out += _png_chunk(b"IDAT", scanlines(f[0]))
    for i in range(1, n):
        out += fctl()
        out += _png_chunk(b"fdAT",
                          struct.pack(">I", seq) + scanlines(f[i]))
        seq += 1
    out += _png_chunk(b"IEND", b"")
    return bytes(out)


# ---------------------------------------------------------------------------
# BMP (Windows DIB, BITMAPINFOHEADER and later; BI_RGB only)


def decode_bmp(blob: bytes) -> tuple[np.ndarray, dict]:
    if blob[:2] != b"BM":
        raise ValueError("not a BMP (bad magic)")
    if len(blob) < 54:
        raise ValueError("truncated BMP header")
    (data_off,) = struct.unpack_from("<I", blob, 10)
    (hdr_size,) = struct.unpack_from("<I", blob, 14)
    if hdr_size < 40:
        raise ValueError("unsupported BMP header (OS/2 BITMAPCOREHEADER)")
    w, h_raw = struct.unpack_from("<ii", blob, 18)
    check_dims(abs(w) or 1, abs(h_raw) or 1, "BMP")
    planes, bpp = struct.unpack_from("<HH", blob, 26)
    (comp,) = struct.unpack_from("<I", blob, 30)
    (clr_used,) = struct.unpack_from("<I", blob, 46)
    if comp != 0:
        raise ValueError(f"unsupported BMP compression {comp} "
                         "(only BI_RGB)")
    if bpp not in (1, 4, 8, 24, 32):
        raise ValueError(f"unsupported BMP bit depth {bpp}")
    if w <= 0 or h_raw == 0:
        raise ValueError("bad BMP dimensions")
    top_down = h_raw < 0
    h = abs(h_raw)
    pal = None
    if bpp <= 8:
        n_colors = clr_used or (1 << bpp)
        pal_off = 14 + hdr_size
        pal_bytes = blob[pal_off:pal_off + 4 * n_colors]
        if len(pal_bytes) < 4 * n_colors:
            raise ValueError("truncated BMP palette")
        pal = np.frombuffer(pal_bytes, np.uint8).reshape(-1, 4)[:, [2, 1, 0]]
    rowsize = ((bpp * w + 31) // 32) * 4
    need = rowsize * h
    px = blob[data_off:data_off + need]
    if len(px) < need:
        raise ValueError("truncated BMP pixel data")
    rows = np.frombuffer(px, np.uint8).reshape(h, rowsize)
    if not top_down:
        rows = rows[::-1]
    if bpp == 24:
        arr = rows[:, :w * 3].reshape(h, w, 3)[..., ::-1]
    elif bpp == 32:
        arr = rows[:, :w * 4].reshape(h, w, 4)[..., [2, 1, 0, 3]]
    else:
        if bpp == 8:
            idx = rows[:, :w]
        elif bpp == 4:
            nib = np.repeat(rows, 2, axis=1)
            nib[:, 0::2] >>= 4
            nib[:, 1::2] &= 0x0F
            idx = nib[:, :w]
        else:  # 1-bit
            bits = np.unpackbits(rows, axis=1)
            idx = bits[:, :w]
        if int(idx.max(initial=0)) >= pal.shape[0]:
            raise ValueError("BMP palette index out of range")
        arr = pal[idx]
    return np.ascontiguousarray(arr), \
        {"width": w, "height": h, "bitdepth": bpp, "top_down": top_down}


# ---------------------------------------------------------------------------
# Netpbm PPM/PGM (P2/P3 ascii, P5/P6 binary)


def _pnm_header(blob: bytes, n_ints: int) -> tuple[list[int], int]:
    """Parse ``n_ints`` whitespace-separated header ints after the
    magic, honouring # comments; returns (ints, offset past header)."""
    vals: list[int] = []
    i = 2
    n = len(blob)
    while len(vals) < n_ints:
        while i < n and blob[i:i + 1].isspace():
            i += 1
        if i < n and blob[i:i + 1] == b"#":
            while i < n and blob[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < n and not blob[j:j + 1].isspace():
            j += 1
        if j == i:
            raise ValueError("truncated PNM header")
        vals.append(int(blob[i:j]))
        i = j
    return vals, i + 1  # single whitespace after last header int


def decode_ppm(blob: bytes) -> tuple[np.ndarray, dict]:
    magic = blob[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ValueError("not a PGM/PPM (bad magic)")
    channels = 3 if magic in (b"P3", b"P6") else 1
    (w, h, maxval), off = _pnm_header(blob, 3)
    if w <= 0 or h <= 0 or not (0 < maxval < 65536):
        raise ValueError("bad PNM dimensions/maxval")
    check_dims(w, h, "PNM")
    n = w * h * channels
    if magic in (b"P5", b"P6"):
        if maxval > 255:  # 2-byte big-endian samples per the spec
            raw = np.frombuffer(blob, ">u2", n, off).astype(np.uint16)
        else:
            raw = np.frombuffer(blob, np.uint8, n, off)
    else:
        toks = blob[off:].split()
        if len(toks) < n:
            raise ValueError("truncated ascii PNM data")
        raw = np.array([int(t) for t in toks[:n]],
                       np.uint16 if maxval > 255 else np.uint8)
    if maxval not in (255, 65535):  # scale to full range
        raw = (raw.astype(np.uint32) * 255 // maxval).astype(np.uint8)
    arr = raw.reshape(h, w, channels)
    return arr, {"width": w, "height": h, "maxval": maxval}


# ---------------------------------------------------------------------------
# GIF (87a/89a): LZW decode, palettes, interlace, frame compositing


try:  # optional C LZW kernel (A/B-gated at module end)
    from .._native import swishlzw as _native_lzw
except Exception:  # pragma: no cover - import-time environment
    _native_lzw = None


def _gif_lzw(data: bytes, min_code: int, n_pixels: int) -> np.ndarray:
    if _native_lzw is not None:
        return np.frombuffer(
            _native_lzw.gif_decode(data, min_code, n_pixels),
            np.uint8).copy()
    return _gif_lzw_py(data, min_code, n_pixels)


def _gif_lzw_py(data: bytes, min_code: int,
                n_pixels: int) -> np.ndarray:
    """Decode a GIF LZW stream (variable-width codes, LSB-first bit
    packing, CLEAR/EOI per the GIF89a spec appendix) into palette
    indices."""
    clear = 1 << min_code
    eoi = clear + 1
    out = np.empty(n_pixels, np.uint8)
    n_out = 0
    # bit reader state
    bits = 0
    nbits = 0
    pos = 0
    width = min_code + 1
    table: list[bytes] = [bytes([i]) for i in range(clear)] + [b"", b""]
    prev: bytes | None = None
    while n_out < n_pixels:
        while nbits < width:
            if pos >= len(data):
                raise ValueError("truncated GIF LZW stream")
            bits |= data[pos] << nbits
            nbits += 8
            pos += 1
        code = bits & ((1 << width) - 1)
        bits >>= width
        nbits -= width
        if code == clear:
            table = [bytes([i]) for i in range(clear)] + [b"", b""]
            width = min_code + 1
            prev = None
            continue
        if code == eoi:
            # premature EOI: loop condition guarantees n_out < n_pixels
            # here, so the remaining tail would be uninitialized memory
            raise ValueError("short GIF LZW stream")
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        elif code == len(table):
            entry = prev + prev[:1]
            table.append(entry)
        else:
            raise ValueError("corrupt GIF LZW code")
        take = min(len(entry), n_pixels - n_out)
        out[n_out:n_out + take] = np.frombuffer(entry[:take], np.uint8)
        n_out += len(entry)
        prev = entry
        if len(table) == (1 << width) and width < 12:
            width += 1
    return out[:n_pixels]


def decode_gif(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode a GIF to (n_frames, h, w, 4) RGBA uint8: per-frame
    regions composited onto the logical screen per the disposal
    rules (none/keep = paint over, restore-background = region goes
    transparent after the frame). Transparent-index pixels leave the
    prior canvas visible."""
    if blob[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF (bad magic)")
    if len(blob) < 14:
        raise ValueError("truncated GIF header")
    w, h, packed, _bg, _ar = struct.unpack_from("<HHBBB", blob, 6)
    check_dims(w, h, "GIF")
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 7)
        gct = np.frombuffer(blob, np.uint8, 3 * n, pos).reshape(-1, 3)
        pos += 3 * n
    canvas = np.zeros((h, w, 4), np.uint8)
    frames: list[np.ndarray] = []
    transparent = None
    disposal = 0
    while pos < len(blob):
        b0 = blob[pos]
        pos += 1
        if b0 == 0x3B:  # trailer
            break
        if b0 == 0x21:  # extension: label + sub-blocks
            label = blob[pos]
            pos += 1
            if label == 0xF9 and blob[pos] >= 4:  # graphic control
                flags = blob[pos + 1]
                disposal = (flags >> 2) & 7
                transparent = (blob[pos + 4] if flags & 1 else None)
            while pos < len(blob) and blob[pos] != 0:
                pos += 1 + blob[pos]
            pos += 1  # block terminator
            continue
        if b0 != 0x2C:
            raise ValueError(f"unknown GIF block 0x{b0:02x}")
        if pos + 9 > len(blob):
            raise ValueError("truncated GIF image descriptor")
        left, top, fw, fh, fp = struct.unpack_from("<HHHHB", blob, pos)
        pos += 9
        if left + fw > w or top + fh > h:
            raise ValueError("GIF frame exceeds logical screen")
        pal = gct
        if fp & 0x80:
            n = 2 << (fp & 7)
            pal = np.frombuffer(blob, np.uint8, 3 * n,
                                pos).reshape(-1, 3)
            pos += 3 * n
        if pal is None:
            raise ValueError("GIF frame with no color table")
        if pos >= len(blob):
            raise ValueError("truncated GIF image data")
        min_code = blob[pos]
        if not (1 <= min_code <= 11):
            raise ValueError(f"bad GIF LZW min code size {min_code}")
        pos += 1
        chunks = []
        while pos < len(blob) and blob[pos] != 0:
            ln = blob[pos]
            chunks.append(blob[pos + 1:pos + 1 + ln])
            pos += 1 + ln
        pos += 1  # terminator
        idx = _gif_lzw(b"".join(chunks), min_code, fw * fh)
        if fp & 0x40:  # interlaced rows: 4-pass order
            rows = np.empty(fh, np.int64)
            order = np.concatenate([np.arange(0, fh, 8),
                                    np.arange(4, fh, 8),
                                    np.arange(2, fh, 4),
                                    np.arange(1, fh, 2)])
            rows[order] = np.arange(fh)
            idx = idx.reshape(fh, fw)[rows].reshape(-1)
        if int(idx.max(initial=0)) >= pal.shape[0]:
            raise ValueError("GIF palette index out of range")
        region = np.dstack([pal[idx.reshape(fh, fw)],
                            np.full((fh, fw), 255, np.uint8)])
        if transparent is not None:
            opaque = idx.reshape(fh, fw) != transparent
            prior = canvas[top:top + fh, left:left + fw]
            region = np.where(opaque[..., None], region, prior)
        canvas[top:top + fh, left:left + fw] = region
        frames.append(canvas.copy())
        if disposal == 2:  # restore background -> transparent region
            canvas[top:top + fh, left:left + fw] = 0
        transparent = None
        disposal = 0
    if not frames:
        raise ValueError("GIF with no image frames")
    return np.stack(frames), {"width": w, "height": h,
                              "n_frames": len(frames)}


def encode_gif(frames: np.ndarray, palette: np.ndarray) -> bytes:
    """Minimal GIF89a encoder for tests/demos: indexed frames
    (n, h, w) uint8 + (N, 3) palette, LZW with a clear code before
    every literal (valid, uncompressed — decoders must accept it)."""
    f = np.asarray(frames, np.uint8)
    if f.ndim == 2:
        f = f[None]
    n, h, w = f.shape
    pal = np.asarray(palette, np.uint8)
    depth = max(2, int(np.ceil(np.log2(max(2, pal.shape[0])))))
    pal_full = np.zeros((1 << depth, 3), np.uint8)
    pal_full[:pal.shape[0]] = pal
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0)
    out += pal_full.tobytes()
    min_code = depth
    clear = 1 << min_code
    for i in range(n):
        out += struct.pack("<BHHHHB", 0x2C, 0, 0, w, h, 0)
        out.append(min_code)
        # emit CLEAR before every literal: code width stays
        # min_code+1 and the table never grows
        bits = 0
        nbits = 0
        payload = bytearray()
        width = min_code + 1

        def emit(code: int):
            nonlocal bits, nbits
            bits |= code << nbits
            nbits += width
            while nbits >= 8:
                payload.append(bits & 0xFF)
                bits >>= 8
                nbits -= 8

        for px in f[i].reshape(-1):
            emit(clear)
            emit(int(px))
        emit(clear + 1)  # EOI
        if nbits:
            payload.append(bits & 0xFF)
        for s in range(0, len(payload), 255):
            chunk = payload[s:s + 255]
            out.append(len(chunk))
            out += chunk
        out.append(0)
    out.append(0x3B)
    return bytes(out)


# ---------------------------------------------------------------------------
# WAV (RIFF/WAVE; PCM and IEEE-float)


def decode_wav(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode a RIFF/WAVE file to an (n_frames, channels) array in
    the native sample type (uint8 / int16 / int32 for 24- and 32-bit
    PCM / float32 / float64) plus metadata."""
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError("not a WAV (bad RIFF/WAVE header)")
    fmt = None
    data = None
    pos = 12
    n = len(blob)
    while pos + 8 <= n:
        cid = blob[pos:pos + 4]
        (sz,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8:pos + 8 + sz]
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + sz + (sz & 1)  # RIFF chunks are word-aligned
    if fmt is None or data is None:
        raise ValueError("WAV missing fmt/data chunk")
    if len(fmt) < 16:
        raise ValueError("truncated WAV fmt chunk")
    afmt, ch, rate, _brate, _align, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0)
    if afmt == 0xFFFE and len(fmt) >= 26:  # WAVE_FORMAT_EXTENSIBLE
        (afmt,) = struct.unpack_from("<H", fmt, 24)  # GUID leads with tag
    if ch == 0:
        raise ValueError("WAV with zero channels")
    if afmt == 1:  # PCM
        if bits == 8:
            arr = np.frombuffer(data, np.uint8)
        elif bits == 16:
            arr = np.frombuffer(data, "<i2")
        elif bits == 24:
            b = np.frombuffer(data, np.uint8)
            b = b[:len(b) - len(b) % 3].reshape(-1, 3).astype(np.int32)
            v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
            arr = (v ^ 0x800000) - 0x800000  # sign-extend 24 -> 32
        elif bits == 32:
            arr = np.frombuffer(data, "<i4")
        else:
            raise ValueError(f"unsupported PCM bit width {bits}")
    elif afmt == 3:  # IEEE float
        if bits == 32:
            arr = np.frombuffer(data, "<f4")
        elif bits == 64:
            arr = np.frombuffer(data, "<f8")
        else:
            raise ValueError(f"unsupported float bit width {bits}")
    else:
        raise NotImplementedError(
            f"WAV codec {afmt} unsupported (only PCM / IEEE float)")
    frames = len(arr) // ch
    arr = arr[:frames * ch].reshape(frames, ch)
    return arr, {"sample_rate": rate, "channels": ch,
                 "bits_per_sample": bits, "n_frames": frames}


# ---------------------------------------------------------------------------
# Y4M (YUV4MPEG2) — uncompressed video; Y (luma) planes are decoded,
# chroma planes are skipped per the sampler's luminance-only needs.

_Y4M_CHROMA_FACTOR = {  # chroma plane bytes as a fraction of Y bytes
    "420": 0.25, "420jpeg": 0.25, "420mpeg2": 0.25, "420paldv": 0.25,
    "422": 0.5, "444": 1.0, "mono": 0.0,
}


def decode_y4m(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode a YUV4MPEG2 stream's luma: returns (n_frames, h, w)
    uint8 Y planes + metadata."""
    if not blob.startswith(b"YUV4MPEG2"):
        raise ValueError("not a Y4M stream (bad magic)")
    eol = blob.find(b"\n")
    if eol < 0:
        raise ValueError("truncated Y4M header")
    w = h = 0
    fps_num, fps_den = 0, 1
    chroma = "420jpeg"
    for tok in blob[9:eol].split():
        t = tok.decode("ascii", "replace")
        if t[0] == "W":
            w = int(t[1:])
        elif t[0] == "H":
            h = int(t[1:])
        elif t[0] == "F":
            fps_num, fps_den = (int(x) for x in t[1:].split(":"))
        elif t[0] == "C":
            chroma = t[1:]
    if w <= 0 or h <= 0:
        raise ValueError("Y4M missing W/H")
    if chroma not in _Y4M_CHROMA_FACTOR:
        raise ValueError(f"unsupported Y4M chroma mode {chroma}")
    ysz = w * h
    csz = int(ysz * _Y4M_CHROMA_FACTOR[chroma])
    frames = []
    pos = eol + 1
    n = len(blob)
    while pos < n:
        if blob[pos:pos + 5] != b"FRAME":
            raise ValueError("bad Y4M FRAME marker")
        fe = blob.find(b"\n", pos)
        if fe < 0 or fe + 1 + ysz + 2 * csz > n:
            raise ValueError("truncated Y4M frame")
        y = np.frombuffer(blob, np.uint8, ysz, fe + 1).reshape(h, w)
        frames.append(y)
        pos = fe + 1 + ysz + 2 * csz
    return (np.stack(frames) if frames
            else np.zeros((0, h, w), np.uint8)), \
        {"width": w, "height": h, "n_frames": len(frames),
         "fps_num": fps_num, "fps_den": fps_den, "chroma": chroma}


def encode_y4m(frames: np.ndarray, fps: tuple[int, int] = (30, 1)) -> bytes:
    """Encode (n, h, w) uint8 luma planes as a Cmono Y4M stream
    (tests/demos; a real crawl would carry camera output here)."""
    f = np.asarray(frames, np.uint8)
    if f.ndim != 3:
        raise ValueError("encode_y4m wants (n, h, w) luma planes")
    n, h, w = f.shape
    head = f"YUV4MPEG2 W{w} H{h} F{fps[0]}:{fps[1]} Ip A1:1 Cmono\n"
    out = bytearray(head.encode("ascii"))
    for i in range(n):
        out += b"FRAME\n"
        out += f[i].tobytes()
    return bytes(out)


# ---------------------------------------------------------------------------
# AVI / MJPEG: COMPRESSED video via the from-scratch JPEG codec
# (ops/jpeg.py) inside a from-scratch RIFF-AVI container walker —
# Motion-JPEG is just a JPEG per '00dc' chunk (Microsoft AVI RIFF
# spec, public). Codecs other than MJPG raise NotImplementedError.


# LIST nesting bound for the recursive chunk walks: real AVIs nest
# 3-4 deep, and a crafted file nesting thousands deep would otherwise
# raise RecursionError, which no decoder error catch expects
_RIFF_MAX_DEPTH = 32


def _riff_chunks(blob: bytes, start: int, end: int):
    """Yield (fourcc, payload_start, payload_size) within a RIFF
    region; LIST chunks yield ('LIST:' + list_type, ...) spanning
    their contents."""
    pos = start
    while pos + 8 <= end:
        fcc = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        if pos + 8 + size > end:
            raise ValueError("truncated AVI chunk")
        if fcc == b"LIST":
            yield (b"LIST:" + blob[pos + 8:pos + 12], pos + 12,
                   size - 4)
        else:
            yield (fcc, pos + 8, size)
        pos += 8 + size + (size & 1)


def decode_avi_mjpeg(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode an MJPEG AVI to stacked frames — (n, h, w) grayscale or
    (n, h, w, 3) RGB uint8 (all frames must share geometry, which the
    AVI header guarantees). Non-MJPG video codecs raise
    NotImplementedError."""
    from .jpeg import decode_jpeg
    if blob[:4] != b"RIFF" or blob[8:12] != b"AVI ":
        raise ValueError("not an AVI (bad RIFF header)")
    handler = None       # fccHandler from the video strh
    strf_comp = None     # biCompression from the video stream's strf
    cur_stream = None    # stream type of the most recent strh
    frames: list[np.ndarray] = []
    fps_num = fps_den = 0

    def walk(start: int, end: int, depth: int = 0) -> None:
        nonlocal handler, strf_comp, cur_stream, fps_num, fps_den
        if depth > _RIFF_MAX_DEPTH:
            raise ValueError("AVI LIST nesting too deep")
        for fcc, off, size in _riff_chunks(blob, start, end):
            if fcc.startswith(b"LIST:"):
                walk(off, off + size, depth + 1)
            elif fcc == b"strh" and size >= 32:
                cur_stream = blob[off:off + 4]
                if cur_stream == b"vids":
                    handler = blob[off + 4:off + 8]
                    scale, rate = struct.unpack_from(
                        "<II", blob, off + 20)
                    fps_num, fps_den = rate, scale
            elif fcc == b"strf" and size >= 40:
                # BITMAPINFOHEADER: biCompression at payload offset 16.
                # Keep the first video stream's value; also accept a
                # degenerate AVI with strf but no strh at all.
                if (cur_stream == b"vids" or cur_stream is None) \
                        and strf_comp is None:
                    strf_comp = blob[off + 16:off + 20]
            elif fcc[2:4] in (b"dc", b"db") and size > 0:
                frames.append(blob[off:off + size])

    walk(12, len(blob))
    # Many real-world MJPEG AVIs carry a blank/zero fccHandler in strh
    # with MJPG only in strf biCompression — fall back in that case.
    if handler is None or handler in (b"\x00\x00\x00\x00", b"    "):
        handler = strf_comp if strf_comp is not None else handler
    if handler is None:
        raise ValueError("AVI with no video stream header")
    if handler not in (b"MJPG", b"mjpg"):
        raise NotImplementedError(
            f"AVI codec {handler!r} not supported (MJPG only)")
    if not frames:
        raise ValueError("MJPEG AVI with no frame chunks")
    decoded = [decode_jpeg(f)[0] for f in frames]
    if any(d.shape != decoded[0].shape for d in decoded):
        raise ValueError("MJPEG AVI frames disagree on geometry")
    return np.stack(decoded), {
        "n_frames": len(decoded), "height": decoded[0].shape[0],
        "width": decoded[0].shape[1], "fps_num": fps_num,
        "fps_den": fps_den}


def encode_avi_mjpeg(frames, fps: tuple[int, int] = (30, 1),
                     **jpeg_kwargs) -> bytes:
    """Encode a list/stack of (h, w) or (h, w, 3) uint8 frames as an
    MJPEG AVI (one baseline JPEG per '00dc' chunk + idx1 index).
    With flat 8x8 blocks and the default quantizer the per-frame
    roundtrip is EXACT (ops/jpeg.py contract)."""
    from .jpeg import encode_jpeg
    fr = [np.asarray(f, np.uint8) for f in frames]
    if not fr:
        raise ValueError("encode_avi_mjpeg wants >= 1 frame")
    h, w = fr[0].shape[:2]
    blobs = [encode_jpeg(f, **jpeg_kwargs) for f in fr]
    n = len(blobs)

    def chunk(fcc: bytes, payload: bytes) -> bytes:
        return fcc + struct.pack("<I", len(payload)) + payload \
            + (b"\x00" if len(payload) & 1 else b"")

    def lst(ltype: bytes, payload: bytes) -> bytes:
        return chunk(b"LIST", ltype + payload)

    usec = 10**6 * fps[1] // fps[0]
    avih = struct.pack("<14I", usec, 0, 0, 0x10, n, 0, 1, 0, w, h,
                       0, 0, 0, 0)
    strh = b"vids" + b"MJPG" + struct.pack(
        "<IHHIIIIIIIi", 0, 0, 0, 0, fps[1], fps[0], 0, n, 0, 0, -1) \
        + struct.pack("<4h", 0, 0, w, h)
    strf = struct.pack("<IiiHH4sIiiII", 40, w, h, 1, 24, b"MJPG",
                       w * h * 3, 0, 0, 0, 0)
    hdrl = lst(b"hdrl", chunk(b"avih", avih)
               + lst(b"strl", chunk(b"strh", strh)
                     + chunk(b"strf", strf)))
    movi_payload = bytearray()
    idx = bytearray()
    for b in blobs:
        # idx1 offsets are relative to the 'movi' fourcc position
        idx += b"00dc" + struct.pack("<III", 0x10,
                                     4 + len(movi_payload), len(b))
        movi_payload += chunk(b"00dc", b)
    movi = lst(b"movi", bytes(movi_payload))
    body = b"AVI " + hdrl + movi + chunk(b"idx1", bytes(idx))
    return b"RIFF" + struct.pack("<I", len(body)) + body


# ---------------------------------------------------------------------------
# dispatch

_MAGIC_UNSUPPORTED = ()


def sniff_image(blob: bytes) -> str | None:
    """Container name for a supported image format, else None."""
    if blob[:8] == PNG_SIG:
        return "png"
    if blob[:2] == b"BM":
        return "bmp"
    if blob[:2] in (b"P2", b"P3", b"P5", b"P6"):
        return "ppm"
    if blob[:6] in (b"GIF87a", b"GIF89a"):
        return "gif"
    if blob[:3] == b"\xff\xd8\xff":
        return "jpeg"
    if blob[:4] in (b"II*\x00", b"MM\x00*"):
        return "tiff"
    if blob[:4] == b"RIFF" and blob[8:12] == b"WEBP":
        return "webp"
    return None


def decode_image(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode any supported image container (PNG/BMP/PPM/PGM/GIF/
    JPEG — baseline AND progressive — /TIFF/WebP lossless AND lossy)
    to an (h, w, channels) sample array (a multi-frame GIF
    contributes its FIRST composited frame; frame-sample animations
    through SampleVideoFrames instead; a CMYK JPEG is converted to
    RGB with the documented Adobe-inverted rule r = c*k//255).
    TIFF covers strip+tile layouts, chunky+separate planes, 8/16-bit
    samples, CCITT G3/G4 fax, JPEG-in-TIFF, CMYK and YCbCr.
    NotImplementedError for known-but-uncoded flavors (lossless/
    arithmetic JPEG, old-style-JPEG TIFF) and unknown magics;
    ValueError for corrupt files of a supported format."""
    fmt = sniff_image(blob)
    if fmt == "png":
        if png_is_animated(blob):
            # APNG: first composited frame (GIF/WebP parity);
            # frame-sample through SampleVideoFrames instead
            frames, meta = decode_apng(blob)
            arr = frames[0]
        else:
            arr, meta = decode_png(blob)
    elif fmt == "bmp":
        arr, meta = decode_bmp(blob)
    elif fmt == "ppm":
        arr, meta = decode_ppm(blob)
    elif fmt == "gif":
        frames, meta = decode_gif(blob)
        arr = frames[0]
    elif fmt == "jpeg":
        from .jpeg import decode_jpeg
        arr, meta = decode_jpeg(blob)
        if arr.ndim == 3 and arr.shape[2] == 4:
            # raw Adobe CMYK (stored inverted): r = c * k // 255 —
            # keeps 4-channel output away from RGBA-assuming stages
            c = arr.astype(np.uint16)
            arr = ((c[..., :3] * c[..., 3:4]) // 255).astype(np.uint8)
    elif fmt == "tiff":
        from .tiff import decode_tiff
        arr, meta = decode_tiff(blob)
    elif fmt == "webp":
        from .webp import decode_webp, decode_webp_frames
        try:
            arr, meta = decode_webp(blob)
        except NotImplementedError as e:
            if "animated" not in str(e):
                raise
            # animation: first composited frame (GIF parity);
            # frame-sample through SampleVideoFrames instead
            frames, meta = decode_webp_frames(blob)
            arr = frames[0]
    else:
        for magic, name in _MAGIC_UNSUPPORTED:
            if blob[:len(magic)] == magic:
                raise NotImplementedError(
                    f"{name} decode not implemented (no {name} codec)")
        raise NotImplementedError(
            f"unknown image container (header={blob[:8]!r})")
    meta["format"] = fmt
    return arr, meta


def _lzw_selftest() -> bool:
    """Native GIF-LZW kernel must match the pure path on an
    encode_gif stream (clear-heavy) — tests/test_codecs.py adds A/B
    fuzz over table-growth streams from an independent encoder."""
    idx = (np.arange(64, dtype=np.uint8) % 7).reshape(8, 8)
    pal = np.stack([np.arange(8, dtype=np.uint8) * 30] * 3, axis=1)
    blob = encode_gif(idx, pal)
    # extract the first frame's LZW payload
    frames, _ = decode_gif(blob)  # exercises whichever path is live
    global _native_lzw
    native = _native_lzw
    try:
        _native_lzw = None
        a = decode_gif(blob)[0]
        _native_lzw = native
        b = decode_gif(blob)[0]
        return bool(np.array_equal(a, b))
    finally:
        _native_lzw = native


if _native_lzw is not None:
    try:
        if not _lzw_selftest():  # pragma: no cover
            _native_lzw = None
    except Exception:  # pragma: no cover
        _native_lzw = None
