"""From-scratch VP8 intra-frame (keyframe) decoder — RFC 6386.

Lossy WebP images are single VP8 key frames (RFC 6386 §9-§15;
reference semantics also in karpet-independent public sources: the
RFC's reference decoder and the WebP container spec). This module
implements the complete still-image subset:

* the boolean arithmetic decoder (§7),
* uncompressed frame tag + keyframe dimensions (§9.1),
* segmentation, loop-filter header, token-partition layout,
  quantizer indices and coefficient-probability updates (§9.2-§9.11,
  §13.4-§13.5),
* keyframe intra mode decoding, including the 4x4 B_PRED contextual
  mode probabilities (§11.2-§11.4),
* DCT/WHT coefficient token decoding across multiple token
  partitions with per-block nonzero contexts (§13),
* dequantization with per-segment quantizer indices (§14.1),
* all intra predictors: 16x16 and chroma DC/V/H/TM with the
  127/129 off-frame conventions, and the ten 4x4 B-modes with the
  above-right propagation rule (§12),
* the exact integer inverse DCT/WHT (§14.3-§14.4),
* the normal and simple in-loop deblocking filters with per-segment
  / per-mode filter-level adjustments (§15).

Decode output is the YUV 4:2:0 planes, pinned BIT-EXACT against the
container's libwebp (``WebPDecodeYUV``) in tests/test_vp8.py across
an encoder feature matrix (quality/method/segments/partitions/filter
sweeps via the advanced encoder API). ``yuv_to_rgba`` then
reproduces libwebp's fancy-upsampling YUV->RGB conversion (also
pinned bit-exact against ``WebPDecodeRGBA``).

Entropy tables are the RFC's normative constants, extracted from the
system libwebp by tools/gen_vp8_tables.py (anchored against rows
quoted in the RFC) into ops/_vp8_data.py.

Scale shape: identical to the other codecs — per-blob CPU work, zero
driver state, embarrassingly parallel inside decode_images
tasks (ops/multimodal.py). Python-loop hot paths (bool decoder,
token loop) are the correctness reference; blobs decode at ~0.1
MP/s/core, which bounds batch sizing, not correctness.
"""

from __future__ import annotations

import numpy as np

from ._vp8_data import (AC_QLOOKUP, COEFF_PROBS, DC_QLOOKUP,
                        KF_BMODE_PROBS, UPDATE_PROBS)

# ---------------------------------------------------------------------------
# small normative tables (RFC 6386 §11.2, §13.2-§13.3)

_BANDS = (0, 1, 2, 3, 6, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6, 7)
_ZIGZAG = (0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15)

# intra modes: DC=0 V=1 H=2 TM=3 B_PRED=4
_DC, _V, _H, _TM, _BP = 0, 1, 2, 3, 4
# 4x4 modes: B_DC=0 B_TM=1 B_VE=2 B_HE=3 B_LD=4 B_RD=5 B_VR=6
#            B_VL=7 B_HD=8 B_HU=9
_KF_YMODE_TREE = (-_BP, 2, 4, 6, -_DC, -_V, -_H, -_TM)
_KF_YMODE_PROB = (145, 156, 163, 128)
_UV_MODE_TREE = (-_DC, 2, -_V, 4, -_H, -_TM)
_KF_UV_PROB = (142, 114, 183)
_BMODE_TREE = (-0, 2, -1, 4, -2, 6, 8, 12, -3, 10, -5, -6, -4, 14,
               -7, 16, -8, -9)
_MB_SEG_TREE = (2, 4, -0, -1, -2, -3)
# 16x16 mode -> implied 4x4 submode (for B_PRED above/left contexts)
_MODE_TO_B = (0, 2, 3, 1)  # DC->B_DC, V->B_VE, H->B_HE, TM->B_TM

_CAT_PROBS = ((159,), (165, 145), (173, 148, 140),
              (176, 155, 140, 135), (180, 157, 141, 134, 130),
              (254, 254, 243, 230, 196, 177, 153, 140, 133, 130,
               129))
_CAT_BASE = (5, 7, 11, 19, 35, 67)


class _Bool:
    """RFC 6386 §7.3 boolean decoder (one partition)."""

    __slots__ = ("d", "n", "pos", "val", "rng", "shift", "virt")

    def __init__(self, data: bytes):
        self.d = data
        self.n = len(data)
        b0 = data[0] if self.n > 0 else 0
        b1 = data[1] if self.n > 1 else 0
        self.val = (b0 << 8) | b1
        self.pos = 2
        self.rng = 255
        self.shift = 0
        self.virt = 0

    def get(self, prob: int) -> int:
        r = self.rng
        split = 1 + (((r - 1) * prob) >> 8)
        big = split << 8
        v = self.val
        if v >= big:
            bit = 1
            r -= split
            v -= big
        else:
            bit = 0
            r = split
        while r < 128:
            v <<= 1
            r <<= 1
            s = self.shift + 1
            if s == 8:
                s = 0
                p = self.pos
                if p < self.n:
                    v |= self.d[p]
                    self.pos = p + 1
                else:
                    # bool decoders legitimately shift in a few bits
                    # past the partition end; bound the overrun
                    self.virt += 1
                    if self.virt > 32:
                        raise ValueError("truncated VP8 partition")
            self.shift = s
        self.rng = r
        self.val = v
        return bit

    def lit(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.get(128)
        return v

    def sig(self, n: int) -> int:
        v = self.lit(n)
        return -v if self.get(128) else v

    def flag_sig(self, n: int) -> int:
        return self.sig(n) if self.get(128) else 0

    def tree(self, tree: tuple, probs) -> int:
        i = tree[0 + self.get(probs[0])]
        while i > 0:
            i = tree[i + self.get(probs[i >> 1])]
        return -i


def _clamp_q(x: int) -> int:
    return 0 if x < 0 else (127 if x > 127 else x)


# ---------------------------------------------------------------------------
# inverse transforms (§14.3-§14.4), vectorized over all blocks


def _idct4x4_many(blocks: np.ndarray) -> np.ndarray:
    """(n, 16) int32 dequantized coefficients -> (n, 4, 4) int32
    residual pixels. Exact integer transform: 20091/35468 fixed-point
    multiplies with arithmetic shifts, (x + 4) >> 3 final rounding."""
    c = blocks.reshape(-1, 4, 4).astype(np.int64)
    # pass 1: columns
    i0, i1, i2, i3 = c[:, 0], c[:, 1], c[:, 2], c[:, 3]
    a1 = i0 + i2
    b1 = i0 - i2
    t1 = (i1 * 35468) >> 16
    t2 = i3 + ((i3 * 20091) >> 16)
    c1 = t1 - t2
    t1 = i1 + ((i1 * 20091) >> 16)
    t2 = (i3 * 35468) >> 16
    d1 = t1 + t2
    o = np.empty_like(c)
    o[:, 0] = a1 + d1
    o[:, 3] = a1 - d1
    o[:, 1] = b1 + c1
    o[:, 2] = b1 - c1
    # pass 2: rows
    i0, i1, i2, i3 = o[:, :, 0], o[:, :, 1], o[:, :, 2], o[:, :, 3]
    a1 = i0 + i2
    b1 = i0 - i2
    t1 = (i1 * 35468) >> 16
    t2 = i3 + ((i3 * 20091) >> 16)
    c1 = t1 - t2
    t1 = i1 + ((i1 * 20091) >> 16)
    t2 = (i3 * 35468) >> 16
    d1 = t1 + t2
    r = np.empty_like(c)
    r[:, :, 0] = (a1 + d1 + 4) >> 3
    r[:, :, 3] = (a1 - d1 + 4) >> 3
    r[:, :, 1] = (b1 + c1 + 4) >> 3
    r[:, :, 2] = (b1 - c1 + 4) >> 3
    return r.astype(np.int32)


def _iwht4x4_many(blocks: np.ndarray) -> np.ndarray:
    """(n, 16) int32 Y2 coefficients -> (n, 16) DC values for the 16
    luma subblocks (§14.3 inverse Walsh-Hadamard)."""
    c = blocks.reshape(-1, 4, 4).astype(np.int64)
    i0, i1, i2, i3 = c[:, 0], c[:, 1], c[:, 2], c[:, 3]
    a1 = i0 + i3
    b1 = i1 + i2
    c1 = i1 - i2
    d1 = i0 - i3
    o = np.empty_like(c)
    o[:, 0] = a1 + b1
    o[:, 1] = c1 + d1
    o[:, 2] = a1 - b1
    o[:, 3] = d1 - c1
    i0, i1, i2, i3 = o[:, :, 0], o[:, :, 1], o[:, :, 2], o[:, :, 3]
    a1 = i0 + i3
    b1 = i1 + i2
    c1 = i1 - i2
    d1 = i0 - i3
    r = np.empty_like(c)
    r[:, :, 0] = (a1 + b1 + 3) >> 3
    r[:, :, 1] = (c1 + d1 + 3) >> 3
    r[:, :, 2] = (a1 - b1 + 3) >> 3
    r[:, :, 3] = (d1 - c1 + 3) >> 3
    return r.reshape(-1, 16).astype(np.int32)


# ---------------------------------------------------------------------------
# header + mode + residual parsing


class _Header:
    __slots__ = (
        "width", "height", "mb_w", "mb_h", "seg_enabled",
        "seg_update_map", "seg_abs", "seg_quant", "seg_lf",
        "seg_probs", "filter_type", "filter_level", "sharpness",
        "lf_delta_enabled", "ref_delta", "mode_delta", "n_parts",
        "q_yac", "q_ydc_d", "q_y2dc_d", "q_y2ac_d", "q_uvdc_d",
        "q_uvac_d", "use_skip", "p_skip", "probs")


def _parse_header(bd: _Bool, hdr: _Header) -> None:
    bd.lit(1)  # color space (0 for WebP)
    bd.lit(1)  # clamping type
    hdr.seg_enabled = bd.lit(1)
    hdr.seg_update_map = 0
    hdr.seg_abs = 0
    hdr.seg_quant = [0, 0, 0, 0]
    hdr.seg_lf = [0, 0, 0, 0]
    hdr.seg_probs = [255, 255, 255]
    if hdr.seg_enabled:
        hdr.seg_update_map = bd.lit(1)
        update_data = bd.lit(1)
        if update_data:
            hdr.seg_abs = bd.lit(1)
            for i in range(4):
                hdr.seg_quant[i] = bd.flag_sig(7)
            for i in range(4):
                hdr.seg_lf[i] = bd.flag_sig(6)
        if hdr.seg_update_map:
            for i in range(3):
                hdr.seg_probs[i] = bd.lit(8) if bd.get(128) else 255
    hdr.filter_type = bd.lit(1)  # 0 normal, 1 simple
    hdr.filter_level = bd.lit(6)
    hdr.sharpness = bd.lit(3)
    hdr.lf_delta_enabled = bd.lit(1)
    hdr.ref_delta = [0, 0, 0, 0]
    hdr.mode_delta = [0, 0, 0, 0]
    if hdr.lf_delta_enabled:
        if bd.lit(1):  # delta update
            for i in range(4):
                if bd.get(128):
                    hdr.ref_delta[i] = bd.sig(6)
            for i in range(4):
                if bd.get(128):
                    hdr.mode_delta[i] = bd.sig(6)
    hdr.n_parts = 1 << bd.lit(2)
    hdr.q_yac = bd.lit(7)
    hdr.q_ydc_d = bd.flag_sig(4)
    hdr.q_y2dc_d = bd.flag_sig(4)
    hdr.q_y2ac_d = bd.flag_sig(4)
    hdr.q_uvdc_d = bd.flag_sig(4)
    hdr.q_uvac_d = bd.flag_sig(4)
    bd.lit(1)  # refresh_entropy_probs (no effect on a still keyframe)
    # coefficient probability updates (§13.4)
    probs = COEFF_PROBS.copy()
    upd = UPDATE_PROBS
    for t in range(4):
        for b in range(8):
            for c in range(3):
                for p in range(11):
                    if bd.get(int(upd[t, b, c, p])):
                        probs[t, b, c, p] = bd.lit(8)
    # nested tuples: ~3x faster scalar access than numpy in the
    # per-coefficient loop
    hdr.probs = tuple(
        tuple(tuple(tuple(int(x) for x in probs[t, b, c])
                    for c in range(3)) for b in range(8))
        for t in range(4))
    hdr.use_skip = bd.lit(1)
    hdr.p_skip = bd.lit(8) if hdr.use_skip else 0


def _parse_modes(bd: _Bool, hdr: _Header):
    """Keyframe per-MB intra modes (§11). Returns (segment, skip,
    ymode, uvmode, bmodes) arrays."""
    mb_w, mb_h = hdr.mb_w, hdr.mb_h
    n = mb_w * mb_h
    segment = np.zeros(n, np.int32)
    skip = np.zeros(n, np.uint8)
    ymode = np.zeros(n, np.int32)
    uvmode = np.zeros(n, np.int32)
    bmodes = np.zeros((n, 16), np.int8)
    bprob = KF_BMODE_PROBS
    above = np.zeros((mb_w, 4), np.int8)  # bottom submodes per col
    for my in range(mb_h):
        left = [0, 0, 0, 0]  # right-col submodes of left MB
        for mx in range(mb_w):
            i = my * mb_w + mx
            if hdr.seg_update_map:
                segment[i] = bd.tree(_MB_SEG_TREE, hdr.seg_probs)
            if hdr.use_skip:
                skip[i] = bd.get(hdr.p_skip)
            ym = bd.tree(_KF_YMODE_TREE, _KF_YMODE_PROB)
            ymode[i] = ym
            if ym == _BP:
                bm = bmodes[i]
                arow = above[mx]
                for sb in range(16):
                    r, c = sb >> 2, sb & 3
                    a = arow[c] if r == 0 else bm[sb - 4]
                    l_ = left[r] if c == 0 else bm[sb - 1]
                    bm[sb] = bd.tree(
                        _BMODE_TREE, bprob[a, l_])
                above[mx] = bm[12:16]
                left[0], left[1], left[2], left[3] = \
                    bm[3], bm[7], bm[11], bm[15]
            else:
                b = _MODE_TO_B[ym]
                above[mx] = b
                left[0] = left[1] = left[2] = left[3] = b
            uvmode[i] = bd.tree(_UV_MODE_TREE, _KF_UV_PROB)
    return segment, skip, ymode, uvmode, bmodes


def _block_coeffs(bd: _Bool, probs_t, ctx: int, first: int,
                  dqdc: int, dqac: int, out: np.ndarray) -> int:
    """Decode one block's tokens (§13.2-§13.3). Writes dequantized
    coefficients into ``out`` (natural order) and returns the end
    position (== first if the block is empty)."""
    get = bd.get
    n = first
    p = probs_t[_BANDS[n]][ctx]
    if not get(p[0]):  # immediate end-of-block
        return n
    while True:
        while not get(p[1]):  # DCT_0 token
            n += 1
            if n == 16:
                return 16
            p = probs_t[_BANDS[n]][0]
        if not get(p[2]):
            v = 1
            nctx = 1
        else:
            nctx = 2
            if not get(p[3]):
                if not get(p[4]):
                    v = 2
                else:
                    v = 3 if not get(p[5]) else 4
            else:
                if not get(p[6]):
                    cat = 0 if not get(p[7]) else 1
                else:
                    if not get(p[8]):
                        cat = 2 if not get(p[9]) else 3
                    else:
                        cat = 4 if not get(p[10]) else 5
                e = 0
                for cp in _CAT_PROBS[cat]:
                    e = (e << 1) | get(cp)
                v = _CAT_BASE[cat] + e
        if get(128):
            v = -v
        out[_ZIGZAG[n]] = v * (dqdc if n == 0 else dqac)
        n += 1
        if n == 16:
            return 16
        p = probs_t[_BANDS[n]][nctx]
        if not get(p[0]):  # end-of-block
            return n


def _parse_residuals(parts, hdr, segment, skip, ymode):
    """Token partitions -> dequantized coefficient arrays. Returns
    (y2_dc16, ycoef, ucoef, vcoef, mb_nz): y2_dc16 is the per-MB
    iWHT output scattered later; coefficient arrays are (n_mb, k,
    16) int32; mb_nz marks MBs with any non-empty block (loop-filter
    inner-edge rule)."""
    mb_w, mb_h = hdr.mb_w, hdr.mb_h
    n = mb_w * mb_h
    ycoef = np.zeros((n, 16, 16), np.int32)
    ucoef = np.zeros((n, 4, 16), np.int32)
    vcoef = np.zeros((n, 4, 16), np.int32)
    y2coef = np.zeros((n, 16), np.int32)
    mb_nz = np.zeros(n, np.uint8)
    has_y2_arr = ymode != _BP

    # per-segment dequant factors (§14.1)
    dq = []
    for s in range(4):
        if hdr.seg_enabled:
            qi = hdr.seg_quant[s] if hdr.seg_abs \
                else hdr.q_yac + hdr.seg_quant[s]
        else:
            qi = hdr.q_yac
        qi = _clamp_q(qi)
        y1dc = int(DC_QLOOKUP[_clamp_q(qi + hdr.q_ydc_d)])
        y1ac = int(AC_QLOOKUP[qi])
        y2dc = int(DC_QLOOKUP[_clamp_q(qi + hdr.q_y2dc_d)]) * 2
        y2ac = int(AC_QLOOKUP[_clamp_q(qi + hdr.q_y2ac_d)]) * 155 \
            // 100
        if y2ac < 8:
            y2ac = 8
        uvdc = int(DC_QLOOKUP[_clamp_q(qi + hdr.q_uvdc_d)])
        if uvdc > 132:
            uvdc = 132
        uvac = int(AC_QLOOKUP[_clamp_q(qi + hdr.q_uvac_d)])
        dq.append((y1dc, y1ac, y2dc, y2ac, uvdc, uvac))

    probs = hdr.probs
    p_y_ac, p_y2, p_uv, p_y_dc = probs[0], probs[1], probs[2], \
        probs[3]

    above_y = np.zeros((mb_w, 4), np.uint8)
    above_u = np.zeros((mb_w, 2), np.uint8)
    above_v = np.zeros((mb_w, 2), np.uint8)
    above_y2 = np.zeros(mb_w, np.uint8)
    for my in range(mb_h):
        bd = parts[my % hdr.n_parts]
        left_y = [0, 0, 0, 0]
        left_u = [0, 0]
        left_v = [0, 0]
        left_y2 = 0
        for mx in range(mb_w):
            i = my * mb_w + mx
            has_y2 = bool(has_y2_arr[i])
            if skip[i]:
                above_y[mx] = 0
                above_u[mx] = 0
                above_v[mx] = 0
                left_y[0] = left_y[1] = left_y[2] = left_y[3] = 0
                left_u[0] = left_u[1] = 0
                left_v[0] = left_v[1] = 0
                if has_y2:
                    # Y2 context zeroed only when the MB HAS a Y2
                    # block; B_PRED MBs leave it untouched (§13.3)
                    above_y2[mx] = 0
                    left_y2 = 0
                continue
            y1dc, y1ac, y2dc, y2ac, uvdc, uvac = dq[segment[i]]
            any_nz = 0
            ay = above_y[mx]
            if has_y2:
                ctx = int(above_y2[mx]) + left_y2
                pos = _block_coeffs(bd, p_y2, ctx, 0, y2dc, y2ac,
                                    y2coef[i])
                nz = 1 if pos > 0 else 0
                above_y2[mx] = nz
                left_y2 = nz
                any_nz |= nz
                first, py = 1, p_y_ac
            else:
                first, py = 0, p_y_dc
            yc = ycoef[i]
            nzmb = [0] * 16
            for sb in range(16):
                r, c = sb >> 2, sb & 3
                ctx = (int(ay[c]) if r == 0 else nzmb[sb - 4]) + \
                    (left_y[r] if c == 0 else nzmb[sb - 1])
                pos = _block_coeffs(bd, py, ctx, first, y1dc, y1ac,
                                    yc[sb])
                nz = 1 if pos > first else 0
                nzmb[sb] = nz
                if c == 3:
                    left_y[r] = nz
                if r == 3:
                    ay[c] = nz
                any_nz |= nz
            for (coefs, al, ll, qdc, qac) in (
                    (ucoef[i], above_u[mx], left_u, uvdc, uvac),
                    (vcoef[i], above_v[mx], left_v, uvdc, uvac)):
                nzc = [0, 0, 0, 0]
                for sb in range(4):
                    r, c = sb >> 1, sb & 1
                    ctx = (int(al[c]) if r == 0 else nzc[sb - 2]) \
                        + (ll[r] if c == 0 else nzc[sb - 1])
                    pos = _block_coeffs(bd, p_uv, ctx, 0, qdc, qac,
                                        coefs[sb])
                    nz = 1 if pos > 0 else 0
                    nzc[sb] = nz
                    if c == 1:
                        ll[r] = nz
                    if r == 1:
                        al[c] = nz
                    any_nz |= nz
            mb_nz[i] = any_nz
    return y2coef, ycoef, ucoef, vcoef, mb_nz


# ---------------------------------------------------------------------------
# intra prediction + reconstruction


def _avg2(a, b):
    return (a + b + 1) >> 1


def _avg3(a, b, c):
    return (a + 2 * b + c + 2) >> 2


def _pred4(mode: int, A, L, P: int, TR):
    """One 4x4 B-mode prediction (§12.3). A = above[0..3], TR =
    above-right[0..3], L = left[0..3], P = above-left; all Python
    ints. Returns a 4x4 int array."""
    o = np.empty((4, 4), np.int32)
    if mode == 0:  # B_DC
        o[:] = (sum(A) + sum(L) + 4) >> 3
    elif mode == 1:  # B_TM
        a = np.asarray(A, np.int32)
        l_ = np.asarray(L, np.int32).reshape(4, 1)
        o[:] = np.clip(l_ + a - P, 0, 255)
    elif mode == 2:  # B_VE
        r = (_avg3(P, A[0], A[1]), _avg3(A[0], A[1], A[2]),
             _avg3(A[1], A[2], A[3]), _avg3(A[2], A[3], TR[0]))
        o[:] = np.asarray(r, np.int32)
    elif mode == 3:  # B_HE
        col = (_avg3(P, L[0], L[1]), _avg3(L[0], L[1], L[2]),
               _avg3(L[1], L[2], L[3]), _avg3(L[2], L[3], L[3]))
        o[:] = np.asarray(col, np.int32).reshape(4, 1)
    elif mode == 4:  # B_LD (down-left)
        e = (A[0], A[1], A[2], A[3], TR[0], TR[1], TR[2], TR[3])
        d = [_avg3(e[k], e[k + 1], e[k + 2]) for k in range(6)]
        d.append(_avg3(e[6], e[7], e[7]))
        for r in range(4):
            for c in range(4):
                o[r, c] = d[r + c]
    elif mode == 5:  # B_RD (down-right)
        e = (L[3], L[2], L[1], L[0], P, A[0], A[1], A[2], A[3])
        d = [_avg3(e[k], e[k + 1], e[k + 2]) for k in range(7)]
        for r in range(4):
            for c in range(4):
                o[r, c] = d[3 + c - r]
    elif mode == 6:  # B_VR (vertical-right)
        e = (L[3], L[2], L[1], L[0], P, A[0], A[1], A[2], A[3])
        o[0] = (_avg2(e[4], e[5]), _avg2(e[5], e[6]),
                _avg2(e[6], e[7]), _avg2(e[7], e[8]))
        o[1] = (_avg3(e[3], e[4], e[5]), _avg3(e[4], e[5], e[6]),
                _avg3(e[5], e[6], e[7]), _avg3(e[6], e[7], e[8]))
        o[2, 0] = _avg3(e[2], e[3], e[4])
        o[2, 1:] = o[0, :3]
        o[3, 0] = _avg3(e[1], e[2], e[3])
        o[3, 1:] = o[1, :3]
    elif mode == 7:  # B_VL (vertical-left)
        e = (A[0], A[1], A[2], A[3], TR[0], TR[1], TR[2], TR[3])
        o[0] = (_avg2(e[0], e[1]), _avg2(e[1], e[2]),
                _avg2(e[2], e[3]), _avg2(e[3], e[4]))
        o[1] = (_avg3(e[0], e[1], e[2]), _avg3(e[1], e[2], e[3]),
                _avg3(e[2], e[3], e[4]), _avg3(e[3], e[4], e[5]))
        o[2, :3] = o[0, 1:]
        o[2, 3] = _avg3(e[4], e[5], e[6])
        o[3, :3] = o[1, 1:]
        o[3, 3] = _avg3(e[5], e[6], e[7])
    elif mode == 8:  # B_HD (horizontal-down)
        e = (L[3], L[2], L[1], L[0], P, A[0], A[1], A[2])
        o[3, 0] = _avg2(e[0], e[1])
        o[3, 1] = _avg3(e[0], e[1], e[2])
        o[2, 0] = o[3, 2] = _avg2(e[1], e[2])
        o[2, 1] = o[3, 3] = _avg3(e[1], e[2], e[3])
        o[2, 2] = o[1, 0] = _avg2(e[2], e[3])
        o[2, 3] = o[1, 1] = _avg3(e[2], e[3], e[4])
        o[1, 2] = o[0, 0] = _avg2(e[3], e[4])
        o[1, 3] = o[0, 1] = _avg3(e[3], e[4], e[5])
        o[0, 2] = _avg3(e[4], e[5], e[6])
        o[0, 3] = _avg3(e[5], e[6], e[7])
    else:  # B_HU (horizontal-up)
        o[0] = (_avg2(L[0], L[1]), _avg3(L[0], L[1], L[2]),
                _avg2(L[1], L[2]), _avg3(L[1], L[2], L[3]))
        o[1] = (o[0, 2], o[0, 3], _avg2(L[2], L[3]),
                _avg3(L[2], L[3], L[3]))
        o[2] = (o[1, 2], o[1, 3], L[3], L[3])
        o[3] = L[3]
    return o


def _pred_block(buf, y0, x0, size, mode, has_above, has_left):
    """16x16 / 8x8 DC-V-H-TM prediction into an int32 array. ``buf``
    carries the 127 top row / 129 left column virtual borders."""
    above = buf[y0 - 1, x0:x0 + size].astype(np.int32)
    left = buf[y0:y0 + size, x0 - 1].astype(np.int32)
    if mode == _DC:
        if has_above and has_left:
            dc = (int(above.sum()) + int(left.sum()) + size) >> \
                (5 if size == 16 else 4)
        elif has_above:
            dc = (int(above.sum()) + (size >> 1)) >> \
                (4 if size == 16 else 3)
        elif has_left:
            dc = (int(left.sum()) + (size >> 1)) >> \
                (4 if size == 16 else 3)
        else:
            dc = 128
        return np.full((size, size), dc, np.int32)
    if mode == _V:
        return np.repeat(above.reshape(1, size), size, axis=0)
    if mode == _H:
        return np.repeat(left.reshape(size, 1), size, axis=1)
    p = int(buf[y0 - 1, x0 - 1])
    return np.clip(left.reshape(size, 1) + above.reshape(1, size)
                   - p, 0, 255)


def _reconstruct(hdr, ymode, uvmode, bmodes, y2coef, ycoef, ucoef,
                 vcoef):
    mb_w, mb_h = hdr.mb_w, hdr.mb_h
    W, H = mb_w * 16, mb_h * 16
    # planes with a virtual border: row 0 = 127 (above), col 0 = 129
    # (left), corner 127; +4 right columns for B_PRED above-right
    yb = np.empty((H + 1, W + 1 + 4), np.uint8)
    yb[0] = 127
    yb[:, 0] = 129
    yb[0, 0] = 127
    ub = np.empty((H // 2 + 1, W // 2 + 1), np.uint8)
    vb = np.empty_like(ub)
    for b in (ub, vb):
        b[0] = 127
        b[:, 0] = 129
        b[0, 0] = 127

    # iWHT the Y2 blocks and scatter the DC into each luma subblock
    has_y2 = (ymode != _BP)
    if has_y2.any():
        dcs = _iwht4x4_many(y2coef[has_y2])
        ycoef[has_y2, :, 0] = dcs
    # all inverse DCTs vectorized up front (residuals don't depend
    # on prediction)
    yres = _idct4x4_many(ycoef.reshape(-1, 16)).reshape(
        -1, 16, 4, 4)
    ures = _idct4x4_many(ucoef.reshape(-1, 16)).reshape(-1, 4, 4, 4)
    vres = _idct4x4_many(vcoef.reshape(-1, 16)).reshape(-1, 4, 4, 4)

    for my in range(mb_h):
        oy = 1 + my * 16
        oc = 1 + my * 8
        for mx in range(mb_w):
            i = my * mb_w + mx
            ox = 1 + mx * 16
            ym = int(ymode[i])
            if ym == _BP:
                tr = yb[oy - 1, ox + 16:ox + 20].astype(np.int32)
                bm = bmodes[i]
                res = yres[i]
                for sb in range(16):
                    r, c = sb >> 2, sb & 3
                    by, bx = oy + r * 4, ox + c * 4
                    A = [int(v) for v in yb[by - 1, bx:bx + 4]]
                    L = [int(v) for v in yb[by:by + 4, bx - 1]]
                    P = int(yb[by - 1, bx - 1])
                    T = tr if c == 3 else \
                        [int(v) for v in yb[by - 1, bx + 4:bx + 8]]
                    p4 = _pred4(int(bm[sb]), A, L, P, T)
                    yb[by:by + 4, bx:bx + 4] = np.clip(
                        p4 + res[sb], 0, 255)
            else:
                pred = _pred_block(yb, oy, ox, 16, ym, my > 0,
                                   mx > 0)
                res = yres[i]
                full = np.empty((16, 16), np.int32)
                for sb in range(16):
                    r, c = sb >> 2, sb & 3
                    full[r * 4:r * 4 + 4, c * 4:c * 4 + 4] = res[sb]
                yb[oy:oy + 16, ox:ox + 16] = np.clip(pred + full, 0,
                                                     255)
            # chroma
            oxc = 1 + mx * 8
            um = int(uvmode[i])
            for (buf, res) in ((ub, ures[i]), (vb, vres[i])):
                pred = _pred_block(buf, oc, oxc, 8, um, my > 0,
                                   mx > 0)
                full = np.empty((8, 8), np.int32)
                for sb in range(4):
                    r, c = sb >> 1, sb & 1
                    full[r * 4:r * 4 + 4, c * 4:c * 4 + 4] = res[sb]
                buf[oc:oc + 8, oxc:oxc + 8] = np.clip(pred + full,
                                                      0, 255)
        # maintain the right padding for above-right of the next row
        yb[oy:oy + 16, 1 + W:] = yb[oy:oy + 16, W:W + 1]
    return yb[1:, 1:1 + W], ub[1:, 1:], vb[1:, 1:]


# ---------------------------------------------------------------------------
# loop filter (§15)


def _c128(x):
    return np.clip(x, -128, 127)


def _filter_mb_edge(w, E, I, H):
    """Normal-filter an MB edge. w: (n, 8) int32 [p3..q3] view copy;
    returns filtered array."""
    p3, p2, p1, p0 = w[:, 0], w[:, 1], w[:, 2], w[:, 3]
    q0, q1, q2, q3 = w[:, 4], w[:, 5], w[:, 6], w[:, 7]
    mask = ((np.abs(p3 - p2) <= I) & (np.abs(p2 - p1) <= I)
            & (np.abs(p1 - p0) <= I) & (np.abs(q1 - q0) <= I)
            & (np.abs(q2 - q1) <= I) & (np.abs(q3 - q2) <= I)
            & (np.abs(p0 - q0) * 2 + (np.abs(p1 - q1) >> 1) <= E))
    hev = (np.abs(p1 - p0) > H) | (np.abs(q1 - q0) > H)
    P2, P1, P0 = p2 - 128, p1 - 128, p0 - 128
    Q0, Q1, Q2 = q0 - 128, q1 - 128, q2 - 128
    wv = _c128(_c128(P1 - Q1) + 3 * (Q0 - P0))
    # hev pixels: common_adjust with outer taps
    F = _c128(wv + 4) >> 3
    Ea = _c128(wv + 3) >> 3
    # non-hev: 27/18/9 taps
    a27 = _c128((27 * wv + 63) >> 7)
    a18 = _c128((18 * wv + 63) >> 7)
    a9 = _c128((9 * wv + 63) >> 7)
    mh = mask & hev
    mn = mask & ~hev
    out = w.copy()
    out[:, 3] = np.where(mh, np.clip(P0 + Ea + 128, 0, 255), p0)
    out[:, 4] = np.where(mh, np.clip(Q0 - F + 128, 0, 255), q0)
    out[:, 3] = np.where(mn, np.clip(P0 + a27 + 128, 0, 255),
                         out[:, 3])
    out[:, 4] = np.where(mn, np.clip(Q0 - a27 + 128, 0, 255),
                         out[:, 4])
    out[:, 2] = np.where(mn, np.clip(P1 + a18 + 128, 0, 255), p1)
    out[:, 5] = np.where(mn, np.clip(Q1 - a18 + 128, 0, 255), q1)
    out[:, 1] = np.where(mn, np.clip(P2 + a9 + 128, 0, 255), p2)
    out[:, 6] = np.where(mn, np.clip(Q2 - a9 + 128, 0, 255), q2)
    return out


def _filter_sub_edge(w, E, I, H):
    """Normal-filter a subblock edge (§15.3 subblock_filter)."""
    p3, p2, p1, p0 = w[:, 0], w[:, 1], w[:, 2], w[:, 3]
    q0, q1, q2, q3 = w[:, 4], w[:, 5], w[:, 6], w[:, 7]
    mask = ((np.abs(p3 - p2) <= I) & (np.abs(p2 - p1) <= I)
            & (np.abs(p1 - p0) <= I) & (np.abs(q1 - q0) <= I)
            & (np.abs(q2 - q1) <= I) & (np.abs(q3 - q2) <= I)
            & (np.abs(p0 - q0) * 2 + (np.abs(p1 - q1) >> 1) <= E))
    hev = (np.abs(p1 - p0) > H) | (np.abs(q1 - q0) > H)
    P1, P0, Q0, Q1 = p1 - 128, p0 - 128, q0 - 128, q1 - 128
    a_h = _c128(_c128(P1 - Q1) + 3 * (Q0 - P0))
    a_n = _c128(3 * (Q0 - P0))
    a = np.where(hev, a_h, a_n)
    F = _c128(a + 4) >> 3
    Ea = _c128(a + 3) >> 3
    out = w.copy()
    out[:, 3] = np.where(mask, np.clip(P0 + Ea + 128, 0, 255), p0)
    out[:, 4] = np.where(mask, np.clip(Q0 - F + 128, 0, 255), q0)
    a2 = (_c128(a_n + 4) >> 3)
    a2 = (a2 + 1) >> 1
    # p1/q1 only adjusted for non-hev pixels, using the no-outer-tap F
    mn = mask & ~hev
    out[:, 2] = np.where(mn, np.clip(P1 + a2 + 128, 0, 255), p1)
    out[:, 5] = np.where(mn, np.clip(Q1 - a2 + 128, 0, 255), q1)
    return out


def _filter_simple_edge(w, E):
    p1, p0, q0, q1 = w[:, 2], w[:, 3], w[:, 4], w[:, 5]
    mask = (np.abs(p0 - q0) * 2 + (np.abs(p1 - q1) >> 1)) <= E
    P1, P0, Q0, Q1 = p1 - 128, p0 - 128, q0 - 128, q1 - 128
    a = _c128(_c128(P1 - Q1) + 3 * (Q0 - P0))
    F = _c128(a + 4) >> 3
    Ea = _c128(a + 3) >> 3
    out = w.copy()
    out[:, 3] = np.where(mask, np.clip(P0 + Ea + 128, 0, 255), p0)
    out[:, 4] = np.where(mask, np.clip(Q0 - F + 128, 0, 255), q0)
    return out


def _v_edge(plane, y0, n, x, fn, *args):
    w = plane[y0:y0 + n, x - 4:x + 4].astype(np.int32)
    plane[y0:y0 + n, x - 4:x + 4] = fn(w, *args)


def _h_edge(plane, x0, n, y, fn, *args):
    w = plane[y - 4:y + 4, x0:x0 + n].T.astype(np.int32)
    plane[y - 4:y + 4, x0:x0 + n] = fn(w, *args).T


def _loop_filter(hdr, y, u, v, segment, ymode, mb_nz, skip):
    mb_w, mb_h = hdr.mb_w, hdr.mb_h
    # per-segment base levels
    base = []
    for s in range(4):
        if hdr.seg_enabled:
            lvl = hdr.seg_lf[s] if hdr.seg_abs \
                else hdr.filter_level + hdr.seg_lf[s]
        else:
            lvl = hdr.filter_level
        base.append(min(max(lvl, 0), 63))
    simple = hdr.filter_type == 1
    for my in range(mb_h):
        for mx in range(mb_w):
            i = my * mb_w + mx
            lvl = base[segment[i]]
            if hdr.lf_delta_enabled:
                lvl += hdr.ref_delta[0]  # intra frame
                if ymode[i] == _BP:
                    lvl += hdr.mode_delta[0]
                lvl = min(max(lvl, 0), 63)
            if lvl == 0:
                continue
            interior = lvl
            if hdr.sharpness:
                interior >>= 2 if hdr.sharpness > 4 else 1
                if interior > 9 - hdr.sharpness:
                    interior = 9 - hdr.sharpness
            if interior < 1:
                interior = 1
            E_mb = ((lvl + 2) * 2) + interior
            E_sb = (lvl * 2) + interior
            H = 2 if lvl >= 40 else (1 if lvl >= 15 else 0)
            inner = bool(mb_nz[i]) or ymode[i] == _BP
            yx, yy = mx * 16, my * 16
            cx, cy = mx * 8, my * 8
            if simple:
                if mx > 0:
                    _v_edge(y, yy, 16, yx, _filter_simple_edge,
                            E_mb)
                if inner:
                    for dx in (4, 8, 12):
                        _v_edge(y, yy, 16, yx + dx,
                                _filter_simple_edge, E_sb)
                if my > 0:
                    _h_edge(y, yx, 16, yy, _filter_simple_edge,
                            E_mb)
                if inner:
                    for dy in (4, 8, 12):
                        _h_edge(y, yx, 16, yy + dy,
                                _filter_simple_edge, E_sb)
                continue
            if mx > 0:
                _v_edge(y, yy, 16, yx, _filter_mb_edge, E_mb,
                        interior, H)
                _v_edge(u, cy, 8, cx, _filter_mb_edge, E_mb,
                        interior, H)
                _v_edge(v, cy, 8, cx, _filter_mb_edge, E_mb,
                        interior, H)
            if inner:
                for dx in (4, 8, 12):
                    _v_edge(y, yy, 16, yx + dx, _filter_sub_edge,
                            E_sb, interior, H)
                _v_edge(u, cy, 8, cx + 4, _filter_sub_edge, E_sb,
                        interior, H)
                _v_edge(v, cy, 8, cx + 4, _filter_sub_edge, E_sb,
                        interior, H)
            if my > 0:
                _h_edge(y, yx, 16, yy, _filter_mb_edge, E_mb,
                        interior, H)
                _h_edge(u, cx, 8, cy, _filter_mb_edge, E_mb,
                        interior, H)
                _h_edge(v, cx, 8, cy, _filter_mb_edge, E_mb,
                        interior, H)
            if inner:
                for dy in (4, 8, 12):
                    _h_edge(y, yx, 16, yy + dy, _filter_sub_edge,
                            E_sb, interior, H)
                _h_edge(u, cx, 8, cy + 4, _filter_sub_edge, E_sb,
                        interior, H)
                _h_edge(v, cx, 8, cy + 4, _filter_sub_edge, E_sb,
                        interior, H)


# ---------------------------------------------------------------------------
# public entry points


def decode_vp8(payload: bytes) -> tuple[np.ndarray, np.ndarray,
                                        np.ndarray, dict]:
    """Decode a VP8 key frame (the 'VP8 ' chunk of a lossy WebP) to
    (y, u, v) uint8 planes — y is (h, w); u/v are the 4:2:0 chroma
    planes (ceil(h/2), ceil(w/2)) — plus a meta dict. Bit-exact vs
    libwebp's WebPDecodeYUV (tests/test_vp8.py)."""
    if len(payload) < 10:
        raise ValueError("truncated VP8 frame header")
    tag = payload[0] | (payload[1] << 8) | (payload[2] << 16)
    if tag & 1:
        raise NotImplementedError(
            "VP8 interframe (WebP stills are key frames)")
    part1_size = tag >> 5
    if payload[3:6] != b"\x9d\x01\x2a":
        raise ValueError("bad VP8 keyframe start code")
    w16 = payload[6] | (payload[7] << 8)
    h16 = payload[8] | (payload[9] << 8)
    width, height = w16 & 0x3FFF, h16 & 0x3FFF
    if not width or not height:
        raise ValueError("bad VP8 dimensions")
    if 10 + part1_size > len(payload):
        raise ValueError("VP8 partition 1 out of range")
    hdr = _Header()
    hdr.width, hdr.height = width, height
    hdr.mb_w = (width + 15) >> 4
    hdr.mb_h = (height + 15) >> 4
    bd1 = _Bool(payload[10:10 + part1_size])
    _parse_header(bd1, hdr)
    # token partition sizes follow partition 1
    off = 10 + part1_size
    sizes = []
    for k in range(hdr.n_parts - 1):
        if off + 3 > len(payload):
            raise ValueError("truncated VP8 partition table")
        sizes.append(payload[off] | (payload[off + 1] << 8)
                     | (payload[off + 2] << 16))
        off += 3
    parts = []
    for sz in sizes:
        if off + sz > len(payload):
            raise ValueError("VP8 token partition out of range")
        parts.append(_Bool(payload[off:off + sz]))
        off += sz
    parts.append(_Bool(payload[off:]))

    segment, skip, ymode, uvmode, bmodes = _parse_modes(bd1, hdr)
    y2c, yc, uc, vc, mb_nz = _parse_residuals(parts, hdr, segment,
                                              skip, ymode)
    y, u, v = _reconstruct(hdr, ymode, uvmode, bmodes, y2c, yc, uc,
                           vc)
    y = np.ascontiguousarray(y)
    u = np.ascontiguousarray(u)
    v = np.ascontiguousarray(v)
    if hdr.filter_level:
        _loop_filter(hdr, y, u, v, segment, ymode, mb_nz, skip)
    cw, ch = (width + 1) >> 1, (height + 1) >> 1
    meta = {"width": width, "height": height, "lossy": True,
            "filter_type": "simple" if hdr.filter_type else
            "normal", "filter_level": hdr.filter_level,
            "n_token_partitions": hdr.n_parts,
            "segmentation": bool(hdr.seg_enabled)}
    return (y[:height, :width].copy(), u[:ch, :cw].copy(),
            v[:ch, :cw].copy(), meta)


def _fancy_upsample(c: np.ndarray, w: int, h: int) -> np.ndarray:
    """libwebp's fancy chroma upsampler: quarter-pel bilinear
    ((9a + 3b + 3c + d + 8) >> 4) with edge replication, matching
    the diagonal phase of the 4:2:0 grid."""
    ch, cw = c.shape
    c32 = c.astype(np.int32)
    # pad with edge replication
    p = np.pad(c32, 1, mode="edge")
    # for output row 2j   : rows j-1 (weight 1) and j (weight 3)
    # for output row 2j+1 : rows j (weight 3) and j+1 (weight 1)
    out = np.empty((2 * ch, 2 * cw), np.int32)
    a = p[1:-1, 1:-1]   # c[j, i]
    l_ = p[1:-1, :-2]   # c[j, i-1]
    r = p[1:-1, 2:]     # c[j, i+1]
    u_ = p[:-2, 1:-1]   # c[j-1, i]
    d = p[2:, 1:-1]     # c[j+1, i]
    ul = p[:-2, :-2]
    ur = p[:-2, 2:]
    dl = p[2:, :-2]
    dr = p[2:, 2:]
    out[0::2, 0::2] = (9 * a + 3 * (l_ + u_) + ul + 8) >> 4
    out[0::2, 1::2] = (9 * a + 3 * (r + u_) + ur + 8) >> 4
    out[1::2, 0::2] = (9 * a + 3 * (l_ + d) + dl + 8) >> 4
    out[1::2, 1::2] = (9 * a + 3 * (r + d) + dr + 8) >> 4
    return out[:h, :w].astype(np.uint8)


def yuv_to_rgba(y: np.ndarray, u: np.ndarray,
                v: np.ndarray) -> np.ndarray:
    """YUV 4:2:0 -> (h, w, 4) RGBA with libwebp's fancy upsampling
    and fixed-point BT.601 full-swing conversion (bit-exact vs
    WebPDecodeRGBA on lossy streams, tests/test_vp8.py)."""
    h, w = y.shape
    uu = _fancy_upsample(u, w, h).astype(np.int32)
    vv = _fancy_upsample(v, w, h).astype(np.int32)
    yy = y.astype(np.int32)
    ymul = (yy * 19077) >> 8
    r = ymul + ((vv * 26149) >> 8) - 14234
    g = ymul - ((uu * 6419) >> 8) - ((vv * 13320) >> 8) + 8708
    b = ymul + ((uu * 33050) >> 8) - 17685
    out = np.empty((h, w, 4), np.uint8)
    out[:, :, 0] = np.clip(r, 0, 255 << 6) >> 6
    out[:, :, 1] = np.clip(g, 0, 255 << 6) >> 6
    out[:, :, 2] = np.clip(b, 0, 255 << 6) >> 6
    out[:, :, 3] = 255
    return out
