"""From-scratch FLAC codec (the public xiph.org FLAC format spec /
RFC 9639).

Decoder: the full still-stream feature set for 8/16/24-bit PCM —
STREAMINFO + skippable metadata blocks, fixed- and variable-blocksize
frames, all four subframe types (CONSTANT, VERBATIM, FIXED orders
0-4, LPC orders 1-32 with quantized coefficients and signed shift),
Rice-coded residual partitions (both 4- and 5-bit parameter widths,
escape-to-raw partitions, multi-partition orders), wasted bits, and
all four channel assignments (independent, left/side, right/side,
mid/side). Frame-header CRC-8 and frame CRC-16 are verified, and the
STREAMINFO MD5 of the decoded PCM is checked when present — the
format's own end-to-end conformance anchors (no independent FLAC
implementation exists in this container, so roundtrip exactness +
the spec's three checksums are the verification story;
tests/test_flac.py also pins hand-built streams per feature).

Encoder: real compression for tests and oracles — per-channel best
FIXED order (0-4) by exact Rice cost, CONSTANT short-circuit,
VERBATIM fallback, selectable stereo decorrelation and Rice
partition order, and an explicit-LPC emission path so the decoder's
LPC branch is exercised by a bitstream we can roundtrip. Lossless:
decode(encode(x)) == x exactly for arbitrary input.

Scale shape: identical to the other codecs — per-blob CPU work, zero
driver state, embarrassingly parallel inside audio decode stages
(ops/multimodal.py SampleAudioFrames, ops/audiohash.py).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

_BLOCKSIZE_CODES = {192: 1, 576: 2, 1152: 3, 2304: 4, 4608: 5,
                    256: 8, 512: 9, 1024: 10, 2048: 11, 4096: 12,
                    8192: 13, 16384: 14, 32768: 15}
_SAMPLE_RATES = {88200: 1, 176400: 2, 192000: 3, 8000: 4, 16000: 5,
                 22050: 6, 24000: 7, 32000: 8, 44100: 9, 48000: 10,
                 96000: 11}
_SAMPLE_RATE_BY_CODE = {v: k for k, v in _SAMPLE_RATES.items()}
_BITS_CODES = {8: 1, 12: 2, 16: 4, 20: 5, 24: 6, 32: 7}
_BITS_BY_CODE = {v: k for k, v in _BITS_CODES.items()}

_FIXED_COEFS = ((), (1,), (2, -1), (3, -3, 1), (4, -6, 4, -1))


def _crc8(data: bytes) -> int:
    c = 0
    for b in data:
        c ^= b
        for _ in range(8):
            c = ((c << 1) ^ 0x07) & 0xFF if c & 0x80 else (c << 1) \
                & 0xFF
    return c


_CRC16_TAB = None


def _crc16(data: bytes) -> int:
    global _CRC16_TAB
    if _CRC16_TAB is None:
        tab = []
        for i in range(256):
            c = i << 8
            for _ in range(8):
                c = ((c << 1) ^ 0x8005) & 0xFFFF if c & 0x8000 \
                    else (c << 1) & 0xFFFF
            tab.append(c)
        _CRC16_TAB = tab
    c = 0
    tab = _CRC16_TAB
    for b in data:
        c = ((c << 8) & 0xFFFF) ^ tab[(c >> 8) ^ b]
    return c


class _BitsMSB:
    """MSB-first bit reader over bytes."""

    __slots__ = ("d", "pos", "n")

    def __init__(self, data: bytes, bytepos: int = 0):
        self.d = data
        self.pos = bytepos * 8
        self.n = len(data) * 8

    def read(self, nbits: int) -> int:
        p = self.pos
        if p + nbits > self.n:
            raise ValueError("truncated FLAC stream")
        self.pos = p + nbits
        end = (p + nbits + 7) >> 3
        v = int.from_bytes(self.d[p >> 3:end], "big")
        return (v >> ((end << 3) - p - nbits)) & ((1 << nbits) - 1)

    def read_signed(self, nbits: int) -> int:
        v = self.read(nbits)
        return v - (1 << nbits) if v & (1 << (nbits - 1)) else v

    def unary(self) -> int:
        q = 0
        while not self.read(1):
            q += 1
            if q > 1 << 20:
                raise ValueError("runaway FLAC unary code")
        return q

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7

    def bytepos(self) -> int:
        return self.pos >> 3


def _read_utf8_coded(br: _BitsMSB) -> int:
    b0 = br.read(8)
    if b0 < 0x80:
        return b0
    n = 0
    mask = 0x40
    while b0 & mask:
        n += 1
        mask >>= 1
    if n < 1 or n > 6:
        raise ValueError("bad FLAC coded number")
    v = b0 & (mask - 1)
    for _ in range(n):
        c = br.read(8)
        if c & 0xC0 != 0x80:
            raise ValueError("bad FLAC coded number continuation")
        v = (v << 6) | (c & 0x3F)
    return v


def _read_residual(br: _BitsMSB, blocksize: int, pred_order: int,
                   out: np.ndarray) -> None:
    method = br.read(2)
    if method > 1:
        raise ValueError("reserved FLAC residual method")
    pbits = 4 if method == 0 else 5
    escape = (1 << pbits) - 1
    po = br.read(4)
    nparts = 1 << po
    if blocksize % nparts or (blocksize >> po) <= pred_order:
        raise ValueError("bad FLAC partition order")
    idx = pred_order
    for part in range(nparts):
        cnt = (blocksize >> po) - (pred_order if part == 0 else 0)
        param = br.read(pbits)
        if param == escape:
            raw = br.read(5)
            if raw == 0:
                out[idx:idx + cnt] = 0
            else:
                for k in range(cnt):
                    out[idx + k] = br.read_signed(raw)
        else:
            for k in range(cnt):
                q = br.unary()
                r = br.read(param) if param else 0
                v = (q << param) | r
                out[idx + k] = (v >> 1) ^ -(v & 1)
        idx += cnt


def _decode_subframe(br: _BitsMSB, blocksize: int,
                     bps: int) -> np.ndarray:
    if br.read(1):
        raise ValueError("bad FLAC subframe padding bit")
    ftype = br.read(6)
    wasted = 0
    if br.read(1):
        wasted = br.unary() + 1
    eff = bps - wasted
    out = np.zeros(blocksize, np.int64)
    if ftype == 0:  # CONSTANT
        out[:] = br.read_signed(eff)
    elif ftype == 1:  # VERBATIM
        for i in range(blocksize):
            out[i] = br.read_signed(eff)
    elif 8 <= ftype <= 12:  # FIXED order 0-4
        order = ftype - 8
        for i in range(order):
            out[i] = br.read_signed(eff)
        _read_residual(br, blocksize, order, out)
        coefs = _FIXED_COEFS[order]
        for i in range(order, blocksize):
            acc = out[i]
            for j, c in enumerate(coefs):
                acc += c * out[i - 1 - j]
            out[i] = acc
    elif ftype >= 32:  # LPC, order 1-32
        order = ftype - 31
        for i in range(order):
            out[i] = br.read_signed(eff)
        prec = br.read(4)
        if prec == 15:
            raise ValueError("invalid FLAC LPC precision")
        prec += 1
        shift = br.read_signed(5)
        if shift < 0:
            raise ValueError("negative FLAC LPC shift")
        coefs = [br.read_signed(prec) for _ in range(order)]
        _read_residual(br, blocksize, order, out)
        o = out.tolist()  # python ints: exact 64-bit accumulation
        for i in range(order, blocksize):
            acc = 0
            for j in range(order):
                acc += coefs[j] * o[i - 1 - j]
            o[i] += acc >> shift
        out[:] = o
    else:
        raise ValueError(f"reserved FLAC subframe type {ftype}")
    if wasted:
        out <<= wasted
    return out


def decode_flac(blob: bytes) -> tuple[np.ndarray, dict]:
    """Decode a FLAC stream to an (n_frames, channels) PCM array
    (int8 / int16 / int32 by bit depth, same orientation as
    decode_wav) plus metadata. Verifies frame CRC-8/CRC-16 and the
    STREAMINFO PCM MD5 when present."""
    if blob[:4] != b"fLaC":
        raise ValueError("not a FLAC stream (bad magic)")
    pos = 4
    info = None
    while True:
        if pos + 4 > len(blob):
            raise ValueError("truncated FLAC metadata")
        hdr = blob[pos]
        btype = hdr & 0x7F
        (blen,) = struct.unpack(">I", b"\x00" + blob[pos + 1:pos + 4])
        body = blob[pos + 4:pos + 4 + blen]
        if len(body) != blen:
            raise ValueError("truncated FLAC metadata block")
        if btype == 0:
            if blen < 34:
                raise ValueError("short FLAC STREAMINFO")
            info = body
        elif btype == 127:
            raise ValueError("invalid FLAC metadata block type")
        pos += 4 + blen
        if hdr & 0x80:
            break
    if info is None:
        raise ValueError("FLAC without STREAMINFO")
    bi = _BitsMSB(info)
    bi.read(16)  # min blocksize
    bi.read(16)  # max blocksize
    bi.read(24)
    bi.read(24)  # min/max frame size
    rate = bi.read(20)
    nch = bi.read(3) + 1
    bps = bi.read(5) + 1
    total = bi.read(36)
    md5 = info[18:34]
    if rate == 0:
        raise ValueError("FLAC with zero sample rate")
    if bps not in (8, 12, 16, 20, 24, 32):
        raise ValueError(f"unsupported FLAC bit depth {bps}")

    chans: list[np.ndarray] = [np.empty(0, np.int64)
                               for _ in range(nch)]
    got = 0
    n_frames = 0
    while pos < len(blob) and (total == 0 or got < total):
        frame_start = pos
        br = _BitsMSB(blob, pos)
        if br.read(14) != 0x3FFE:
            raise ValueError("bad FLAC frame sync")
        if br.read(1):
            raise ValueError("reserved FLAC frame bit set")
        br.read(1)  # blocking strategy
        bs_code = br.read(4)
        sr_code = br.read(4)
        ca = br.read(4)
        ss_code = br.read(3)
        if br.read(1):
            raise ValueError("reserved FLAC frame bit set")
        _read_utf8_coded(br)
        if bs_code == 0:
            raise ValueError("reserved FLAC blocksize code")
        elif bs_code == 1:
            blocksize = 192
        elif bs_code <= 5:
            blocksize = 576 << (bs_code - 2)
        elif bs_code == 6:
            blocksize = br.read(8) + 1
        elif bs_code == 7:
            blocksize = br.read(16) + 1
        else:
            blocksize = 256 << (bs_code - 8)
        if sr_code == 12:
            br.read(8)
        elif sr_code in (13, 14):
            br.read(16)
        elif sr_code == 15:
            raise ValueError("invalid FLAC sample rate code")
        hdr_crc = br.read(8)
        if _crc8(blob[frame_start:frame_start
                      + (br.pos >> 3) - (frame_start) - 1]) != \
                hdr_crc:
            raise ValueError("FLAC frame header CRC-8 mismatch")
        fbps = bps if ss_code == 0 else _BITS_BY_CODE.get(ss_code)
        if fbps is None:
            raise ValueError("reserved FLAC sample size code")
        if ca <= 7:
            if ca + 1 != nch:
                raise ValueError("FLAC frame/stream channel mismatch")
            subs = [_decode_subframe(br, blocksize, fbps)
                    for _ in range(nch)]
        elif ca in (8, 9, 10):
            if nch != 2:
                raise ValueError("stereo decorrelation on non-stereo")
            bps0 = fbps + (1 if ca == 9 else 0)
            bps1 = fbps + (1 if ca in (8, 10) else 0)
            s0 = _decode_subframe(br, blocksize, bps0)
            s1 = _decode_subframe(br, blocksize, bps1)
            if ca == 8:  # left/side
                subs = [s0, s0 - s1]
            elif ca == 9:  # right/side
                subs = [s1 + s0, s1]
            else:  # mid/side
                mid2 = (s0 << 1) | (s1 & 1)
                subs = [(mid2 + s1) >> 1, (mid2 - s1) >> 1]
        else:
            raise ValueError("reserved FLAC channel assignment")
        br.align()
        fcrc = br.read(16)
        if _crc16(blob[frame_start:(br.pos >> 3) - 2]) != fcrc:
            raise ValueError("FLAC frame CRC-16 mismatch")
        pos = br.pos >> 3
        for c in range(nch):
            chans[c] = np.concatenate([chans[c], subs[c]])
        got += blocksize
        n_frames += 1
    if total and got > total:  # last block may overshoot declared n
        chans = [c[:total] for c in chans]
        got = total
    arr64 = np.stack(chans, axis=1) if nch > 1 else \
        chans[0].reshape(-1, 1)
    dt = np.int8 if bps <= 8 else (np.int16 if bps <= 16 else
                                   np.int32)
    arr = arr64.astype(dt)
    if md5 != b"\x00" * 16:
        if hashlib.md5(_pcm_bytes(arr64, bps)).digest() != md5:
            raise ValueError("FLAC PCM MD5 mismatch")
    meta = {"sample_rate": rate, "channels": nch, "bits": bps,
            "n_samples": int(got), "n_flac_frames": n_frames,
            "format": "flac"}
    return arr, meta


def _pcm_bytes(arr64: np.ndarray, bits: int) -> bytes:
    """Interleaved little-endian PCM bytes (the MD5 input per spec)."""
    flat = arr64.reshape(-1)
    if bits <= 8:
        return flat.astype("<i1").tobytes()
    if bits <= 16:
        return flat.astype("<i2").tobytes()
    if bits <= 24:
        quads = flat.astype("<i4").view(np.uint8).reshape(-1, 4)
        return np.ascontiguousarray(quads[:, :3]).tobytes()
    return flat.astype("<i4").tobytes()


# ---------------------------------------------------------------------------
# encoder


class _BitWriterMSB:
    __slots__ = ("buf", "acc", "nbits")

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, v: int, n: int) -> None:
        self.acc = (self.acc << n) | (v & ((1 << n) - 1))
        self.nbits += n
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def write_unary(self, q: int) -> None:
        while q >= 32:
            self.write(0, 32)
            q -= 32
        self.write(1, q + 1)

    def align(self) -> None:
        if self.nbits:
            self.write(0, 8 - self.nbits)

    def bytes(self) -> bytes:
        assert self.nbits == 0
        return bytes(self.buf)


def _utf8_coded(n: int) -> bytes:
    if n < 0x80:
        return bytes([n])
    out = []
    nbytes = 2
    while n >= (1 << (6 * (nbytes - 1) + (7 - nbytes))):
        nbytes += 1
    lead = (0xFF << (8 - nbytes)) & 0xFF
    shift = 6 * (nbytes - 1)
    out.append(lead | (n >> shift))
    for k in range(nbytes - 1):
        shift -= 6
        out.append(0x80 | ((n >> shift) & 0x3F))
    return bytes(out)


def _rice_cost(res: np.ndarray, param: int) -> int:
    z = (np.abs(res.astype(np.int64)) << 1) - (res < 0)
    return int((z >> param).sum()) + len(res) * (param + 1)


def _best_rice(res: np.ndarray) -> tuple[int, int]:
    if not len(res):
        return 0, 0
    best_p, best_c = 0, _rice_cost(res, 0)
    for p in range(1, 15):
        c = _rice_cost(res, p)
        if c < best_c:
            best_p, best_c = p, c
    return best_p, best_c


def _write_residual(bw: _BitWriterMSB, res: np.ndarray,
                    blocksize: int, pred_order: int,
                    partition_order: int) -> None:
    # clamp the order to what this (possibly short, last) frame allows
    po = partition_order
    while po and (blocksize % (1 << po)
                  or (blocksize >> po) <= pred_order):
        po -= 1
    bw.write(0, 2)  # 4-bit rice parameters
    bw.write(po, 4)
    idx = 0
    for part in range(1 << po):
        cnt = (blocksize >> po) - (pred_order if part == 0 else 0)
        seg = res[idx:idx + cnt]
        param, _ = _best_rice(seg)
        bw.write(param, 4)
        for v in seg.tolist():
            z = (-v << 1) - 1 if v < 0 else v << 1
            bw.write_unary(z >> param)
            if param:
                bw.write(z & ((1 << param) - 1), param)
        idx += cnt


def _encode_subframe(bw: _BitWriterMSB, x: np.ndarray, bps: int,
                     partition_order: int,
                     lpc: tuple | None = None) -> None:
    """One channel's subframe: CONSTANT if flat, else explicit LPC
    (coefs, shift, precision) when given, else best FIXED order by
    exact Rice cost with VERBATIM fallback."""
    n = len(x)
    x = x.astype(np.int64)
    if (x == x[0]).all():
        bw.write(0, 1)
        bw.write(0, 6)
        bw.write(0, 1)
        bw.write(int(x[0]), bps)
        return
    if lpc is not None:
        coefs, shift, prec = lpc
        order = len(coefs)
        bw.write(0, 1)
        bw.write(31 + order, 6)
        bw.write(0, 1)
        for i in range(order):
            bw.write(int(x[i]), bps)
        bw.write(prec - 1, 4)
        bw.write(shift, 5)
        for c in coefs:
            bw.write(int(c), prec)
        xs = x.tolist()
        res = np.array(
            [xs[i] - (sum(coefs[j] * xs[i - 1 - j]
                          for j in range(order)) >> shift)
             for i in range(order, n)], np.int64)
        _write_residual(bw, res, n, order, partition_order)
        return
    best = None
    for order in range(5):
        if n <= order or (n >> partition_order) <= order:
            continue
        res = x.copy()
        for j, c in enumerate(_FIXED_COEFS[order]):
            res[order:] -= c * x[order - 1 - j:n - 1 - j]
        res = res[order:]
        _, cost = _best_rice(res)
        cost += order * bps
        if best is None or cost < best[0]:
            best = (cost, order, res)
    if best is None or best[0] >= n * bps:
        bw.write(0, 1)
        bw.write(1, 6)  # VERBATIM
        bw.write(0, 1)
        for v in x.tolist():
            bw.write(int(v), bps)
        return
    _, order, res = best
    bw.write(0, 1)
    bw.write(8 + order, 6)
    bw.write(0, 1)
    for i in range(order):
        bw.write(int(x[i]), bps)
    _write_residual(bw, res, n, order, partition_order)


def encode_flac(arr: np.ndarray, sample_rate: int = 44100,
                bits: int = 16, blocksize: int = 4096,
                stereo_mode: str = "auto",
                partition_order: int = 0,
                lpc: tuple | None = None) -> bytes:
    """Encode (n,) or (n, channels) integer PCM as a FLAC stream.
    ``stereo_mode``: auto / independent / left_side / right_side /
    mid_side (stereo input only). ``lpc`` = (coefs, shift,
    precision) forces explicit-LPC subframes (decoder LPC coverage).
    Lossless: decode_flac(encode_flac(x)) == x exactly."""
    a = np.asarray(arr)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    n, nch = a.shape
    if not n or nch > 8:
        raise ValueError("encode_flac wants (n>0, channels<=8) PCM")
    if bits not in (8, 16, 24):
        raise ValueError("encode_flac supports 8/16/24-bit")
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    a = a.astype(np.int64)
    if a.min() < lo or a.max() > hi:
        raise ValueError(f"samples out of {bits}-bit range")

    frames = bytearray()
    nbytes = (bits + 7) // 8
    md5 = hashlib.md5()
    min_fs = max_fs = None
    for f0 in range(0, n, blocksize):
        chunk = a[f0:f0 + blocksize]
        bs = len(chunk)
        md5.update(_pcm_bytes(chunk, bits))
        bw = _BitWriterMSB()
        bw.write(0x3FFE, 14)
        bw.write(0, 1)
        bw.write(0, 1)  # fixed blocksize strategy
        bs_code = _BLOCKSIZE_CODES.get(bs, 7)
        bw.write(bs_code, 4)
        bw.write(_SAMPLE_RATES.get(sample_rate, 0), 4)
        mode = stereo_mode
        if nch == 2:
            if mode == "auto":
                s = chunk[:, 0] - chunk[:, 1]
                mode = "mid_side" if np.abs(s).mean() < \
                    np.abs(np.diff(chunk[:, 1])).mean() else \
                    "independent"
        else:
            mode = "independent"
        ca = {"independent": nch - 1, "left_side": 8,
              "right_side": 9, "mid_side": 10}[mode]
        bw.write(ca, 4)
        bw.write(_BITS_CODES[bits], 3)
        bw.write(0, 1)
        for b in _utf8_coded(f0 // blocksize):
            bw.write(b, 8)
        if bs_code == 7:
            bw.write(bs - 1, 16)
        hdr = bw  # crc8 over everything so far (byte-aligned here)
        assert hdr.nbits == 0
        bw.write(_crc8(bytes(bw.buf)), 8)
        if mode == "independent":
            for c in range(nch):
                _encode_subframe(bw, chunk[:, c], bits,
                                 partition_order, lpc)
        else:
            side = chunk[:, 0] - chunk[:, 1]
            if mode == "left_side":
                _encode_subframe(bw, chunk[:, 0], bits,
                                 partition_order, lpc)
                _encode_subframe(bw, side, bits + 1,
                                 partition_order, lpc)
            elif mode == "right_side":
                _encode_subframe(bw, side, bits + 1,
                                 partition_order, lpc)
                _encode_subframe(bw, chunk[:, 1], bits,
                                 partition_order, lpc)
            else:
                mid = (chunk[:, 0] + chunk[:, 1]) >> 1
                _encode_subframe(bw, mid, bits, partition_order,
                                 lpc)
                _encode_subframe(bw, side, bits + 1,
                                 partition_order, lpc)
        bw.align()
        bw.write(_crc16(bytes(bw.buf)), 16)
        fb = bw.bytes()
        frames += fb
        min_fs = len(fb) if min_fs is None else min(min_fs, len(fb))
        max_fs = len(fb) if max_fs is None else max(max_fs, len(fb))

    si = _BitWriterMSB()
    si.write(min(blocksize, n), 16)
    si.write(min(blocksize, n) if n <= blocksize else blocksize, 16)
    si.write(min_fs or 0, 24)
    si.write(max_fs or 0, 24)
    si.write(sample_rate, 20)
    si.write(nch - 1, 3)
    si.write(bits - 1, 5)
    si.write(n, 36)
    info = si.bytes() + md5.digest()
    head = b"fLaC" + bytes([0x80]) + struct.pack(">I", len(info))[1:] \
        + info
    return head + bytes(frames)
