"""APNG (acTL/fcTL/fdAT) decode + frame-sampling.

Frame payloads are ordinary PNG streams (pinned separately by
test_codecs' PNG suite); these tests pin the APNG compositing state
machine with hand-built chunk streams (built here, independent of
swishray's encoder) plus encode_apng round-trips — same strategy as
the animated-WebP designed-overlap tests (no APNG library exists in
this container to A/B against)."""

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from swishray.ops.codecs import (PNG_SIG, decode_apng, decode_image,
                                 decode_png, encode_apng,
                                 png_is_animated)


def _chunk(typ: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + typ + data
            + struct.pack(">I", zlib.crc32(typ + data) & 0xFFFFFFFF))


def _scan(img: np.ndarray) -> bytes:
    """Filter-0 scanlines, zlib-compressed (independent of
    encode_png; img is (h, w, c) uint8 or (h, w) palette indices)."""
    a = np.ascontiguousarray(img, np.uint8)
    if a.ndim == 2:
        a = a[..., None]
    rows = b"".join(b"\x00" + a[y].tobytes() for y in range(a.shape[0]))
    return zlib.compress(rows)


def _fctl(seq, w, h, x, y, dispose=0, blend=0, dnum=1, dden=10):
    return _chunk(b"fcTL", struct.pack(
        ">IIIIIHHBB", seq, w, h, x, y, dnum, dden, dispose, blend))


def _build_apng(canvas_wh, frames, colortype=6, plte=None, trns=None,
                default_in_anim=True, default_img=None,
                n_frames_override=None):
    """frames: list of (img, x, y, dispose, blend). When
    default_in_anim, frames[0] rides the IDAT (must be full canvas);
    otherwise default_img rides the IDAT and every entry in frames
    becomes an fdAT frame."""
    w, h = canvas_wh
    out = bytearray(PNG_SIG)
    out += _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8,
                                       colortype, 0, 0, 0))
    n_anim = len(frames)
    out += _chunk(b"acTL", struct.pack(
        ">II", n_frames_override if n_frames_override is not None
        else n_anim, 0))
    if plte is not None:
        out += _chunk(b"PLTE", plte)
    if trns is not None:
        out += _chunk(b"tRNS", trns)
    seq = 0
    rest = frames
    if default_in_anim:
        img, x, y, dispose, blend = frames[0]
        out += _fctl(seq, img.shape[1], img.shape[0], x, y,
                     dispose, blend)
        seq += 1
        out += _chunk(b"IDAT", _scan(img))
        rest = frames[1:]
    else:
        out += _chunk(b"IDAT", _scan(default_img))
    for img, x, y, dispose, blend in rest:
        out += _fctl(seq, img.shape[1], img.shape[0], x, y,
                     dispose, blend)
        seq += 1
        out += _chunk(b"fdAT", struct.pack(">I", seq) + _scan(img))
        seq += 1
    out += _chunk(b"IEND", b"")
    return bytes(out)


def _rgba(r, g, b, a, shape):
    return np.dstack([np.full(shape, r, np.uint8),
                      np.full(shape, g, np.uint8),
                      np.full(shape, b, np.uint8),
                      np.full(shape, a, np.uint8)])


def test_png_is_animated():
    from swishray.ops.codecs import encode_png
    still = encode_png(np.zeros((4, 4, 3), np.uint8))
    assert not png_is_animated(still)
    anim = _build_apng((4, 4), [(_rgba(1, 2, 3, 255, (4, 4)),
                                 0, 0, 0, 0)])
    assert png_is_animated(anim)
    assert not png_is_animated(b"nope")


def test_roundtrip_rgba_and_rgb():
    rng = np.random.default_rng(7)
    fr4 = rng.integers(0, 256, (3, 6, 9, 4), dtype=np.uint8)
    dec, meta = decode_apng(encode_apng(fr4))
    assert np.array_equal(dec, fr4)
    assert meta["n_frames"] == 3 and meta["animated"]
    assert meta["durations_ms"] == [100, 100, 100]
    fr3 = rng.integers(0, 256, (2, 5, 4, 3), dtype=np.uint8)
    dec3, _ = decode_apng(encode_apng(fr3, delay=(1, 25)))
    assert np.array_equal(dec3[..., :3], fr3)
    assert (dec3[..., 3] == 255).all()


def test_offset_source_patch():
    base = _rgba(10, 20, 30, 255, (8, 12))
    patch = _rgba(200, 0, 0, 255, (4, 5))
    blob = _build_apng((12, 8), [(base, 0, 0, 0, 0),
                                 (patch, 6, 3, 0, 0)])
    frames, meta = decode_apng(blob)
    assert meta["n_frames"] == 2
    assert np.array_equal(frames[0], base)
    want = base.copy()
    want[3:7, 6:11] = patch
    assert np.array_equal(frames[1], want)


def test_blend_over_and_dispose_background():
    base = _rgba(100, 100, 100, 255, (8, 8))
    over = _rgba(200, 200, 200, 128, (4, 4))
    blob = _build_apng((8, 8), [
        (base, 0, 0, 0, 0),
        (over, 0, 0, 1, 1),   # OVER blend, dispose BACKGROUND
        (over, 4, 4, 0, 0),   # after disposal: SOURCE elsewhere
    ])
    frames, meta = decode_apng(blob)
    assert meta["n_frames"] == 3
    # documented integer blend: sa=128, da=255 -> sda=127, oa=255,
    # c = (200*128 + 100*127)//255 = 150 (same rule as animated WebP)
    assert frames[1][0, 0].tolist() == [150, 150, 150, 255]
    assert frames[1][7, 7].tolist() == [100, 100, 100, 255]
    assert frames[2][0, 0].tolist() == [0, 0, 0, 0]
    assert frames[2][4, 4].tolist() == [200, 200, 200, 128]
    assert frames[2][7, 0].tolist() == [100, 100, 100, 255]


def test_dispose_previous():
    base = _rgba(50, 60, 70, 255, (6, 6))
    flash = _rgba(255, 0, 0, 255, (2, 2))
    tail = _rgba(0, 0, 255, 255, (1, 1))
    blob = _build_apng((6, 6), [
        (base, 0, 0, 0, 0),
        (flash, 2, 2, 2, 0),  # dispose PREVIOUS: revert after frame
        (tail, 0, 0, 0, 0),
    ])
    frames, _ = decode_apng(blob)
    assert frames[1][2, 2].tolist() == [255, 0, 0, 255]
    # frame 3: flash rect reverted to base, only the 1x1 tail differs
    want = base.copy()
    want[0, 0] = [0, 0, 255, 255]
    assert np.array_equal(frames[2], want)


def test_first_frame_dispose_previous_acts_as_background():
    base = _rgba(9, 9, 9, 255, (4, 4))
    nxt = _rgba(1, 2, 3, 255, (2, 2))
    blob = _build_apng((4, 4), [(base, 0, 0, 2, 0),
                                (nxt, 0, 0, 0, 0)])
    frames, _ = decode_apng(blob)
    # after frame 1 the (full-canvas) rect went transparent, frame 2
    # painted only its 2x2 corner
    assert frames[1][0, 0].tolist() == [1, 2, 3, 255]
    assert frames[1][3, 3].tolist() == [0, 0, 0, 0]


def test_default_image_not_in_animation():
    default = _rgba(7, 7, 7, 255, (4, 4))
    f1 = _rgba(100, 0, 0, 255, (4, 4))
    f2 = _rgba(0, 100, 0, 255, (2, 2))
    blob = _build_apng((4, 4), [(f1, 0, 0, 0, 0), (f2, 1, 1, 0, 0)],
                       default_in_anim=False, default_img=default)
    frames, meta = decode_apng(blob)
    assert meta["n_frames"] == 2
    assert np.array_equal(frames[0], f1)
    # decode_png still yields the (non-animation) default image
    still, _ = decode_png(blob)
    assert np.array_equal(still, default)


def test_palette_frames():
    plte = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])  # R, G, B
    trns = bytes([128])  # index 0 semi-transparent
    idx0 = np.zeros((3, 3), np.uint8)
    idx1 = np.full((2, 2), 2, np.uint8)
    blob = _build_apng((3, 3), [(idx0, 0, 0, 0, 0),
                                (idx1, 1, 1, 0, 0)],
                       colortype=3, plte=plte, trns=trns)
    frames, _ = decode_apng(blob)
    assert frames[0][0, 0].tolist() == [255, 0, 0, 128]
    assert frames[1][1, 1].tolist() == [0, 0, 255, 255]
    assert frames[1][0, 0].tolist() == [255, 0, 0, 128]


def test_grayscale_frames_expand_to_rgba():
    g0 = np.full((2, 2), 40, np.uint8)
    g1 = np.full((2, 2), 200, np.uint8)
    blob = _build_apng((2, 2), [(g0, 0, 0, 0, 0), (g1, 0, 0, 0, 0)],
                       colortype=0)
    frames, _ = decode_apng(blob)
    assert frames[0][0, 0].tolist() == [40, 40, 40, 255]
    assert frames[1][1, 1].tolist() == [200, 200, 200, 255]


def test_validation_errors():
    base = _rgba(1, 1, 1, 255, (4, 4))
    ok = _build_apng((4, 4), [(base, 0, 0, 0, 0)])
    # plain PNG: no acTL
    from swishray.ops.codecs import encode_png
    with pytest.raises(ValueError, match="acTL"):
        decode_apng(encode_png(np.zeros((2, 2, 3), np.uint8)))
    # acTL num_frames mismatch
    bad = _build_apng((4, 4), [(base, 0, 0, 0, 0)],
                      n_frames_override=3)
    with pytest.raises(ValueError, match="num_frames"):
        decode_apng(bad)
    # frame exceeding the canvas
    patch = _rgba(2, 2, 2, 255, (3, 3))
    with pytest.raises(ValueError, match="canvas"):
        decode_apng(_build_apng((4, 4), [(base, 0, 0, 0, 0),
                                         (patch, 2, 2, 0, 0)]))
    # broken sequence numbering: renumber the first fcTL to 5
    pos = ok.index(b"fcTL") - 4
    (ln,) = struct.unpack_from(">I", ok, pos)
    data = bytearray(ok[pos + 8:pos + 8 + ln])
    struct.pack_into(">I", data, 0, 5)
    patched = (ok[:pos] + _chunk(b"fcTL", bytes(data))
               + ok[pos + 12 + ln:])
    with pytest.raises(ValueError, match="sequence"):
        decode_apng(patched)
    # IDAT frame must be full-canvas when fcTL precedes IDAT
    small = _rgba(1, 1, 1, 255, (2, 2))
    blob = _build_apng((4, 4), [(small, 0, 0, 0, 0)])
    with pytest.raises(ValueError, match="full-canvas"):
        decode_apng(blob)


def test_decode_image_first_composited_frame():
    base = _rgba(10, 20, 30, 255, (4, 4))
    blob = _build_apng((4, 4), [(base, 0, 0, 0, 0),
                                (_rgba(1, 1, 1, 255, (2, 2)),
                                 0, 0, 0, 0)])
    arr, meta = decode_image(blob)
    assert meta["animated"] and meta["format"] == "png"
    assert np.array_equal(arr, base)


def test_apng_video_sampling(ray_session):
    import ray.data as rd

    from swishray.ops.multimodal import SampleVideoFrames
    from swishray.util import map_batches_stateful

    rng = np.random.default_rng(11)
    fr = rng.integers(0, 256, (5, 6, 6, 4), dtype=np.uint8)
    blob = encode_apng(fr)
    ds = rd.from_arrow(pa.table({
        "media_id": [1], "payload": pa.array([blob], pa.binary())}))
    out = map_batches_stateful(
        ds, SampleVideoFrames, fn_constructor_kwargs=dict(every_n=2),
        batch_format="pyarrow", batch_size=4, num_cpus=1).take_all()[0]
    assert out["error"] is None
    assert out["n_frames"] == 5 and out["n_sampled"] == 3
    gray = (fr[..., :3].astype(np.uint16).sum(axis=3) // 3)
    assert out["y_sum"] == int(gray[::2].sum(dtype=np.int64))
