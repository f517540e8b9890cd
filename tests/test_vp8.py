"""From-scratch VP8 (lossy WebP) decoder conformance (ops/vp8.py).

A/B against the container's libwebp through ctypes, BIT-EXACT at two
levels:

1. **YUV planes** — ``WebPDecodeYUV`` vs ``decode_vp8`` across a
   content matrix (solid / gradient / noise / structured / odd
   sizes) and an encoder feature matrix driven through libwebp's
   advanced API (method, segments, normal+simple loop filter,
   sharpness, sns, quality extremes). This pins the bool decoder,
   header/mode/token parsing, dequant, all intra predictors, the
   integer transforms and the loop filter. Decode is deterministic
   even though encoding is lossy, so exact equality is the right
   bar.
2. **RGBA output** — ``WebPDecodeRGBA`` vs ``yuv_to_rgba`` (fancy
   upsampling + fixed-point conversion) and the full container path
   ``decode_webp`` on lossy-with-alpha files (VP8X + ALPH: raw and
   VP8L-compressed alpha, all four prediction filters).

libwebp 1.2.4's encoder always emits a single token partition for
stills; the multi-partition layout (§9.5) is implemented per spec
but can only be exercised for n=1 here.
"""

import ctypes
import ctypes.util
import struct

import numpy as np
import pytest

from swishray.ops.vp8 import decode_vp8, yuv_to_rgba
from swishray.ops.webp import decode_webp


@pytest.fixture(scope="module")
def lw():
    try:
        lib = ctypes.CDLL("libwebp.so.7")
    except OSError:
        name = ctypes.util.find_library("webp")
        if name is None:
            pytest.skip("libwebp not available for the A/B oracle")
        lib = ctypes.CDLL(name)
    lib.WebPEncodeRGB.restype = ctypes.c_size_t
    lib.WebPEncodeRGB.argtypes = [
        ctypes.c_char_p, ctypes.c_int, ctypes.c_int, ctypes.c_int,
        ctypes.c_float, ctypes.POINTER(ctypes.c_void_p)]
    lib.WebPEncodeRGBA.restype = ctypes.c_size_t
    lib.WebPEncodeRGBA.argtypes = lib.WebPEncodeRGB.argtypes
    lib.WebPDecodeYUV.restype = ctypes.c_void_p
    lib.WebPDecodeYUV.argtypes = [
        ctypes.c_char_p, ctypes.c_size_t, ctypes.POINTER(ctypes.c_int),
        ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_void_p),
        ctypes.POINTER(ctypes.c_void_p), ctypes.POINTER(ctypes.c_int),
        ctypes.POINTER(ctypes.c_int)]
    lib.WebPDecodeRGBA.restype = ctypes.c_void_p
    lib.WebPDecodeRGBA.argtypes = [
        ctypes.c_char_p, ctypes.c_size_t,
        ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_int)]
    lib.WebPFree.argtypes = [ctypes.c_void_p]
    return lib


class _Config(ctypes.Structure):
    _fields_ = [(n, ctypes.c_float if n in ("quality", "target_PSNR")
                 else ctypes.c_int) for n in (
        "lossless", "quality", "method", "image_hint", "target_size",
        "target_PSNR", "segments", "sns_strength", "filter_strength",
        "filter_sharpness", "filter_type", "autofilter",
        "alpha_compression", "alpha_filtering", "alpha_quality",
        "pass_", "show_compressed", "preprocessing", "partitions",
        "partition_limit", "emulate_jpeg_size", "thread_level",
        "low_memory", "near_lossless", "exact", "use_delta_palette",
        "use_sharp_yuv", "qmin", "qmax")]


class _MemWriter(ctypes.Structure):
    _fields_ = [("mem", ctypes.c_void_p), ("size", ctypes.c_size_t),
                ("max_size", ctypes.c_size_t), ("pad", ctypes.c_uint32)]


class _Picture(ctypes.Structure):
    _fields_ = [("use_argb", ctypes.c_int), ("colorspace", ctypes.c_int),
                ("width", ctypes.c_int), ("height", ctypes.c_int),
                ("y", ctypes.c_void_p), ("u", ctypes.c_void_p),
                ("v", ctypes.c_void_p), ("y_stride", ctypes.c_int),
                ("uv_stride", ctypes.c_int), ("a", ctypes.c_void_p),
                ("a_stride", ctypes.c_int), ("pad1", ctypes.c_uint32 * 2),
                ("argb", ctypes.c_void_p), ("argb_stride", ctypes.c_int),
                ("pad2", ctypes.c_uint32 * 3), ("writer", ctypes.c_void_p),
                ("custom_ptr", ctypes.c_void_p),
                ("extra_info_type", ctypes.c_int),
                ("extra_info", ctypes.c_void_p), ("stats", ctypes.c_void_p),
                ("error_code", ctypes.c_int),
                ("progress_hook", ctypes.c_void_p),
                ("user_data", ctypes.c_void_p), ("pad3", ctypes.c_uint32 * 3),
                ("pad4", ctypes.c_void_p), ("pad5", ctypes.c_void_p),
                ("pad6", ctypes.c_uint32 * 8), ("memory_", ctypes.c_void_p),
                ("memory_argb_", ctypes.c_void_p),
                ("pad7", ctypes.c_void_p * 2)]


_ABI = 0x020F  # libwebp 1.2.x encoder ABI


def _enc_adv(lw, img, q=75.0, **kw):
    """Encode RGB(A) via the advanced API; kw sets WebPConfig fields."""
    h, w = img.shape[:2]
    rgba = img.shape[2] == 4
    cfg = _Config()
    assert lw.WebPConfigInitInternal(ctypes.byref(cfg), 0,
                                     ctypes.c_float(q), _ABI)
    for k, val in kw.items():
        setattr(cfg, k, val)
    assert lw.WebPValidateConfig(ctypes.byref(cfg))
    pic = _Picture()
    assert lw.WebPPictureInitInternal(ctypes.byref(pic), _ABI)
    pic.width, pic.height = w, h
    pic.use_argb = 1 if rgba else 0
    imp = lw.WebPPictureImportRGBA if rgba else lw.WebPPictureImportRGB
    assert imp(ctypes.byref(pic), np.ascontiguousarray(img).tobytes(),
               w * img.shape[2])
    wr = _MemWriter()
    lw.WebPMemoryWriterInit(ctypes.byref(wr))
    pic.writer = ctypes.cast(lw.WebPMemoryWrite, ctypes.c_void_p)
    pic.custom_ptr = ctypes.cast(ctypes.byref(wr), ctypes.c_void_p)
    ok = lw.WebPEncode(ctypes.byref(cfg), ctypes.byref(pic))
    lw.WebPPictureFree(ctypes.byref(pic))
    assert ok, f"libwebp encode error {pic.error_code}"
    blob = ctypes.string_at(wr.mem, wr.size)
    lw.WebPMemoryWriterClear(ctypes.byref(wr))
    return blob


def _dec_yuv(lw, blob):
    w = ctypes.c_int()
    h = ctypes.c_int()
    u = ctypes.c_void_p()
    v = ctypes.c_void_p()
    s = ctypes.c_int()
    us = ctypes.c_int()
    yp = lw.WebPDecodeYUV(blob, len(blob), ctypes.byref(w),
                          ctypes.byref(h), ctypes.byref(u),
                          ctypes.byref(v), ctypes.byref(s),
                          ctypes.byref(us))
    assert yp, "libwebp decode failed"
    W, H, S, US = w.value, h.value, s.value, us.value
    cw, ch = (W + 1) >> 1, (H + 1) >> 1
    y = np.frombuffer(ctypes.string_at(yp, S * H), np.uint8)\
        .reshape(H, S)[:, :W].copy()
    uu = np.frombuffer(ctypes.string_at(u.value, US * ch), np.uint8)\
        .reshape(ch, US)[:, :cw].copy()
    vv = np.frombuffer(ctypes.string_at(v.value, US * ch), np.uint8)\
        .reshape(ch, US)[:, :cw].copy()
    lw.WebPFree(ctypes.c_void_p(yp))
    return y, uu, vv


def _dec_rgba(lw, blob):
    w = ctypes.c_int()
    h = ctypes.c_int()
    p = lw.WebPDecodeRGBA(blob, len(blob), ctypes.byref(w),
                          ctypes.byref(h))
    assert p
    a = np.frombuffer(ctypes.string_at(p, w.value * h.value * 4),
                      np.uint8).reshape(h.value, w.value, 4).copy()
    lw.WebPFree(ctypes.c_void_p(p))
    return a


def _vp8_payload(blob):
    pos = 12
    while pos + 8 <= len(blob):
        tag = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        if tag == b"VP8 ":
            return blob[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    raise AssertionError("no VP8 chunk")


def _ab_yuv(lw, blob):
    ry, ru, rv = _dec_yuv(lw, blob)
    my, mu, mv, meta = decode_vp8(_vp8_payload(blob))
    assert np.array_equal(ry, my), "Y plane mismatch"
    assert np.array_equal(ru, mu), "U plane mismatch"
    assert np.array_equal(rv, mv), "V plane mismatch"
    return meta


def _test_image(kind, shape=(48, 64), seed=7):
    rng = np.random.default_rng(seed)
    h, w = shape
    if kind == "solid":
        return np.full((h, w, 3), 130, np.uint8)
    if kind == "gradient":
        g = np.linspace(0, 255, w, dtype=np.uint8)
        return np.repeat(g.reshape(1, w, 1), h, 0).repeat(3, 2)
    if kind == "noise":
        return rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    # structured: smooth waves + noisy stripes (drives segmentation)
    yy, xx = np.mgrid[0:h, 0:w]
    mix = (128 + 60 * np.sin(yy / 9.0)
           + 50 * np.cos(xx / 13.0)).astype(np.uint8)
    base = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    mix3 = np.stack([mix, mix[::-1], (mix * 2) % 256], 2)
    return np.where((xx % 32 < 16)[..., None], base,
                    mix3).astype(np.uint8)


# ---------------------------------------------------------------------------
# 1. YUV bit-exactness


@pytest.mark.parametrize("kind", ["solid", "gradient", "noise",
                                  "structured"])
@pytest.mark.parametrize("q", [10.0, 50.0, 90.0])
def test_yuv_content_matrix(lw, kind, q):
    meta = _ab_yuv(lw, _enc_adv(lw, _test_image(kind), q))
    assert meta["lossy"] and meta["width"] == 64


@pytest.mark.parametrize("shape", [(16, 16), (17, 21), (16, 48),
                                   (48, 16), (33, 47)])
def test_yuv_odd_sizes(lw, shape):
    img = _test_image("noise", shape, seed=shape[0])
    for q in (25.0, 80.0):
        meta = _ab_yuv(lw, _enc_adv(lw, img, q))
        assert (meta["width"], meta["height"]) == shape[::-1]


def test_yuv_encoder_feature_matrix(lw):
    img = _test_image("structured", (96, 128))
    cases = [dict(method=0), dict(method=3), dict(method=6),
             dict(segments=2), dict(segments=4, quality=40),
             dict(filter_type=0, filter_strength=70),  # simple filter
             dict(filter_sharpness=3), dict(filter_sharpness=7),
             dict(sns_strength=100, quality=20),
             dict(filter_strength=0, autofilter=0),  # no filtering
             dict(autofilter=1), dict(partitions=3)]
    seen_ft = set()
    for kw in cases:
        q = kw.pop("quality", 60.0)
        meta = _ab_yuv(lw, _enc_adv(lw, img, q, **kw))
        seen_ft.add(meta["filter_type"])
    assert seen_ft == {"normal", "simple"}


def test_yuv_quality_extremes(lw):
    img = _test_image("structured", (48, 64))
    for q in (1.0, 100.0):
        _ab_yuv(lw, _enc_adv(lw, img, q))


def test_simple_api_stream(lw):
    # WebPEncodeRGB (the simple one-shot API) must also round-trip
    img = _test_image("noise", (32, 48))
    out = ctypes.c_void_p()
    n = lw.WebPEncodeRGB(np.ascontiguousarray(img).tobytes(), 48, 32,
                         48 * 3, 60.0, ctypes.byref(out))
    assert n
    blob = ctypes.string_at(out, n)
    lw.WebPFree(out)
    _ab_yuv(lw, blob)


# ---------------------------------------------------------------------------
# 2. RGBA bit-exactness (fancy upsampler + fixed-point conversion)


def test_rgba_conversion_matches_libwebp(lw):
    for kind in ("gradient", "noise", "structured"):
        blob = _enc_adv(lw, _test_image(kind, (33, 47)), 60.0)
        ref = _dec_rgba(lw, blob)
        y, u, v, _ = decode_vp8(_vp8_payload(blob))
        assert np.array_equal(ref, yuv_to_rgba(y, u, v)), kind


def test_decode_webp_routes_lossy(lw):
    blob = _enc_adv(lw, _test_image("noise", (24, 40)), 70.0)
    arr, meta = decode_webp(blob)
    assert np.array_equal(arr, _dec_rgba(lw, blob))
    assert meta["lossy"] and meta["format"] == "webp"
    assert not meta["has_alpha"]


# ---------------------------------------------------------------------------
# 3. alpha (VP8X + ALPH)


def test_lossy_alpha_container(lw):
    rng = np.random.default_rng(17)
    alphas = [np.tile(np.linspace(0, 255, 40, dtype=np.uint8),
                      (32, 1)),
              rng.integers(0, 256, (32, 40)).astype(np.uint8),
              (rng.integers(0, 2, (32, 40)) * 255).astype(np.uint8)]
    for alpha in alphas:
        img = np.dstack([rng.integers(0, 256, (32, 40, 3))
                         .astype(np.uint8), alpha])
        for q in (30.0, 90.0):
            blob = _enc_adv(lw, img, q)
            arr, meta = decode_webp(blob)
            assert meta["has_alpha"]
            assert np.array_equal(arr, _dec_rgba(lw, blob))


def test_alpha_filter_and_compression_variants(lw):
    rng = np.random.default_rng(23)
    img = np.dstack([rng.integers(0, 256, (48, 56, 3)).astype(np.uint8),
                     np.tile(np.linspace(10, 250, 56, dtype=np.uint8),
                             (48, 1))])
    for kw in (dict(alpha_filtering=0), dict(alpha_filtering=1),
               dict(alpha_filtering=2), dict(alpha_compression=0),
               dict(alpha_quality=60), dict(use_sharp_yuv=1)):
        blob = _enc_adv(lw, img, 70.0, **kw)
        arr, _ = decode_webp(blob)
        assert np.array_equal(arr, _dec_rgba(lw, blob)), kw


def test_alpha_all_four_filters_handbuilt(lw):
    """libwebp picks its own alpha filter; pin all FOUR unfilter
    paths by forward-filtering a raw alpha plane ourselves, building
    the VP8X container by hand, and A/B'ing the whole file."""
    rng = np.random.default_rng(31)
    w, h = 24, 16
    alpha = rng.integers(0, 256, (h, w)).astype(np.uint8)
    rgb = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    vp8 = _vp8_payload(_enc_adv(lw, rgb, 80.0))

    def fwd(a, filt):
        out = a.astype(np.int32).copy()
        if filt == 0:
            return a.tobytes()
        res = np.empty_like(a)
        for r in range(h):
            for c in range(w):
                if filt == 1:
                    p = a[r, c - 1] if c else (a[r - 1, 0] if r else 0)
                elif filt == 2:
                    p = (a[r - 1, c] if r else
                         (a[r, c - 1] if c else 0))
                else:
                    if r == 0:
                        p = a[r, c - 1] if c else 0
                    elif c == 0:
                        p = a[r - 1, 0]
                    else:
                        g = (int(a[r, c - 1]) + int(a[r - 1, c])
                             - int(a[r - 1, c - 1]))
                        p = min(max(g, 0), 255)
                res[r, c] = (int(a[r, c]) - int(p)) & 0xFF
        return res.tobytes()

    def chunk(tag, payload):
        return tag + struct.pack("<I", len(payload)) + payload \
            + (b"\x00" if len(payload) & 1 else b"")

    for filt in range(4):
        alph = bytes([filt << 2]) + fwd(alpha, filt)
        vp8x = struct.pack("<I", 0x10) + \
            struct.pack("<I", w - 1)[:3] + \
            struct.pack("<I", h - 1)[:3]
        body = b"WEBP" + chunk(b"VP8X", vp8x) + chunk(b"ALPH", alph) \
            + chunk(b"VP8 ", vp8)
        blob = b"RIFF" + struct.pack("<I", len(body)) + body
        ref = _dec_rgba(lw, blob)
        arr, meta = decode_webp(blob)
        assert meta["has_alpha"]
        assert np.array_equal(arr[:, :, 3], alpha), f"filter {filt}"
        assert np.array_equal(arr, ref), f"filter {filt}"


# ---------------------------------------------------------------------------
# 4. error taxonomy + dispatch


def test_error_taxonomy():
    with pytest.raises(ValueError, match="truncated VP8"):
        decode_vp8(b"\x00\x00\x00")
    with pytest.raises(NotImplementedError, match="interframe"):
        decode_vp8(b"\x01\x00\x00\x9d\x01\x2a\x10\x00\x10\x00")
    with pytest.raises(ValueError, match="start code"):
        decode_vp8(b"\x00\x00\x00XYZ\x10\x00\x10\x00")
    with pytest.raises(ValueError, match="partition 1"):
        # part1_size (tag >> 5) far beyond the payload
        decode_vp8(b"\x00\xff\xff\x9d\x01\x2a\x10\x00\x10\x00")


def test_dispatch_from_decode_image(lw):
    from swishray.ops.codecs import decode_image, sniff_image
    blob = _enc_adv(lw, _test_image("noise", (16, 24)), 60.0)
    assert sniff_image(blob) == "webp"
    arr, meta = decode_image(blob)
    assert arr.shape == (16, 24, 4) and meta["lossy"]


# ---------------------------------------------------------------------------
# 5. animated WebP (ANIM/ANMF compositing; decode_webp_frames)


def _anmf(x2, y2, img_chunks, duration=40, blend=True,
          dispose=False):
    """Assemble one ANMF chunk; x2/y2 in 2-pixel units."""
    h = (x2.to_bytes(3, "little") + y2.to_bytes(3, "little"))
    return h, duration, blend, dispose, img_chunks


def _build_anim(lw, canvas_wh, frames):
    """frames: list of (x, y, rgba_img, blend, dispose) — each image
    encoded as a lossless still via libwebp, its image chunks spliced
    into ANMF frames."""
    w, h = canvas_wh

    def chunk(tag, payload):
        return tag + struct.pack("<I", len(payload)) + payload \
            + (b"\x00" if len(payload) & 1 else b"")

    def still_chunks(img):
        blob = _enc_adv(lw, img, 75.0, lossless=1, exact=1)
        out = b""
        pos = 12
        while pos + 8 <= len(blob):
            tag = blob[pos:pos + 4]
            (size,) = struct.unpack_from("<I", blob, pos + 4)
            if tag in (b"VP8 ", b"VP8L", b"ALPH"):
                out += chunk(tag, blob[pos + 8:pos + 8 + size])
            pos += 8 + size + (size & 1)
        return out

    body = b"WEBP"
    vp8x = struct.pack("<I", 0x12)  # ANIM | ALPHA flags
    vp8x += (w - 1).to_bytes(3, "little") + (h - 1).to_bytes(
        3, "little")
    body += chunk(b"VP8X", vp8x)
    body += chunk(b"ANIM", struct.pack("<IH", 0, 0))
    for (x, y, img, blend, dispose) in frames:
        fh, fw = img.shape[:2]
        hdr = (x // 2).to_bytes(3, "little") \
            + (y // 2).to_bytes(3, "little") \
            + (fw - 1).to_bytes(3, "little") \
            + (fh - 1).to_bytes(3, "little") \
            + (40).to_bytes(3, "little") \
            + bytes([(0 if blend else 2) | (1 if dispose else 0)])
        body += chunk(b"ANMF", hdr + still_chunks(img))
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_animated_webp_composites(lw):
    from swishray.ops.webp import decode_webp_frames
    rng = np.random.default_rng(41)
    a = np.dstack([rng.integers(0, 256, (16, 24, 3), dtype=np.uint8),
                   np.full((16, 24), 255, np.uint8)])
    b = np.dstack([rng.integers(0, 256, (8, 8, 3), dtype=np.uint8),
                   np.full((8, 8), 255, np.uint8)])
    blob = _build_anim(lw, (24, 16), [
        (0, 0, a, False, False),       # full-canvas base, overwrite
        (8, 4, b, False, False),       # opaque overwrite patch
    ])
    frames, meta = decode_webp_frames(blob)
    assert meta["animated"] and meta["n_frames"] == 2
    assert np.array_equal(frames[0], a)       # frame payloads exact
    want = a.copy()
    want[4:12, 8:16] = b
    assert np.array_equal(frames[1], want)


def test_animated_webp_blend_and_dispose(lw):
    from swishray.ops.webp import decode_webp_frames
    base = np.dstack([np.full((8, 8, 3), 100, np.uint8),
                      np.full((8, 8), 255, np.uint8)])
    # semi-transparent overlay: alpha 128 over opaque 100s
    over = np.dstack([np.full((4, 4, 3), 200, np.uint8),
                      np.full((4, 4), 128, np.uint8)])
    blob = _build_anim(lw, (8, 8), [
        (0, 0, base, False, False),
        (0, 0, over, True, True),      # BLEND then dispose rect
        (4, 4, over, False, False),    # after disposal: overwrite
    ])
    frames, meta = decode_webp_frames(blob)
    assert meta["n_frames"] == 3
    # documented integer blend: sa=128, da=255 ->
    # sda = 255*127//255 = 127, oa = 255,
    # c = (200*128 + 100*127)//255 = (25600+12700)//255 = 150
    assert frames[1][0, 0].tolist() == [150, 150, 150, 255]
    assert frames[1][7, 7].tolist() == [100, 100, 100, 255]
    # disposal cleared the 4x4 rect to transparent before frame 3
    assert frames[2][0, 0].tolist() == [0, 0, 0, 0]
    assert frames[2][4, 4].tolist() == [200, 200, 200, 128]
    assert frames[2][7, 0].tolist() == [100, 100, 100, 255]


def test_animated_webp_video_sampling(lw, ray_session):
    import pyarrow as pa
    import ray.data as rd

    from swishray.ops.multimodal import SampleVideoFrames
    from swishray.util import map_batches_stateful

    rng = np.random.default_rng(43)
    frames = []
    for k in range(4):
        img = np.dstack([rng.integers(0, 256, (8, 8, 3),
                                      dtype=np.uint8),
                         np.full((8, 8), 255, np.uint8)])
        frames.append((0, 0, img, False, False))
    blob = _build_anim(lw, (8, 8), frames)
    ds = rd.from_arrow(pa.table({
        "media_id": [1], "payload": pa.array([blob], pa.binary())}))
    out = map_batches_stateful(
        ds, SampleVideoFrames, fn_constructor_kwargs=dict(every_n=2),
        batch_format="pyarrow", batch_size=4, num_cpus=1).take_all()[0]
    assert out["error"] is None
    assert out["n_frames"] == 4 and out["n_sampled"] == 2
    # luma rule matches the GIF path: integer mean of R,G,B
    from swishray.ops.webp import decode_webp_frames
    fr, _ = decode_webp_frames(blob)
    gray = (fr[..., :3].astype(np.uint16).sum(axis=3) // 3)
    want = int(gray[::2].sum(dtype=np.int64))
    assert out["y_sum"] == want


def test_animated_webp_first_frame_via_decode_image(lw):
    from swishray.ops.codecs import decode_image
    rng = np.random.default_rng(47)
    img = np.dstack([rng.integers(0, 256, (8, 8, 3), dtype=np.uint8),
                     np.full((8, 8), 255, np.uint8)])
    blob = _build_anim(lw, (8, 8), [(0, 0, img, False, False)])
    arr, meta = decode_image(blob)
    assert meta["animated"] and np.array_equal(arr, img)
