"""From-scratch TIFF codec conformance (ops/tiff.py).

A/B against the container's libtiff.so.6 through ctypes, in BOTH
directions (no dev headers needed): libtiff-written strip files must
decode bit-exactly through our decoder (all supported compressions,
with and without the horizontal predictor), and our encoder's files
must read back bit-exactly through TIFFReadRGBAImage. All supported
compressions are lossless, so every comparison is exact — the one
wrinkle is that TIFFReadRGBAImage premultiplies unassociated alpha,
which the RGBA expectation reproduces.

Plus: pure roundtrips (incl. LZW code-width growth past 9/10/11 bits
and the early-change rule), big-endian + palette + bilevel +
MinIsWhite fixtures built by hand, and the corrupt-vs-uncoded error
taxonomy."""

import ctypes
import ctypes.util
import struct

import numpy as np
import pytest

from swishray.ops.tiff import (_tiff_lzw, _tiff_lzw_encode,
                               decode_tiff, encode_tiff)


@pytest.fixture(scope="module")
def libtiff():
    try:
        lt = ctypes.CDLL("libtiff.so.6")
    except OSError:
        name = ctypes.util.find_library("tiff")
        if name is None:
            pytest.skip("libtiff not available for the A/B oracle")
        lt = ctypes.CDLL(name)
    lt.TIFFOpen.restype = ctypes.c_void_p
    lt.TIFFOpen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
    lt.TIFFSetWarningHandler(None)
    return lt


def _lt_write(lt, path, arr, comp, pred=False, rps=None):
    a = np.asarray(arr, np.uint8)
    gray = a.ndim == 2
    h, w = a.shape[:2]
    spp = 1 if gray else a.shape[2]
    tif = lt.TIFFOpen(str(path).encode(), b"w")
    assert tif
    for tag, val in [(256, ctypes.c_uint32(w)),
                     (257, ctypes.c_uint32(h)),
                     (258, ctypes.c_int(8)),
                     (277, ctypes.c_int(spp)),
                     (259, ctypes.c_int(comp)),
                     (262, ctypes.c_int(1 if gray else 2)),
                     (284, ctypes.c_int(1)),
                     (278, ctypes.c_uint32(rps or h))]:
        lt.TIFFSetField(ctypes.c_void_p(tif), ctypes.c_uint32(tag),
                        val)
    if pred:
        lt.TIFFSetField(ctypes.c_void_p(tif), ctypes.c_uint32(317),
                        ctypes.c_int(2))
    flat = a.reshape(h, -1)
    for y in range(h):
        r = lt.TIFFWriteScanline(ctypes.c_void_p(tif),
                                 flat[y].tobytes(),
                                 ctypes.c_uint32(y),
                                 ctypes.c_uint16(0))
        assert r == 1
    lt.TIFFClose(ctypes.c_void_p(tif))


def _lt_read_rgba(lt, path):
    tif = lt.TIFFOpen(str(path).encode(), b"r")
    assert tif
    w = ctypes.c_uint32()
    h = ctypes.c_uint32()
    lt.TIFFGetField(ctypes.c_void_p(tif), ctypes.c_uint32(256),
                    ctypes.byref(w))
    lt.TIFFGetField(ctypes.c_void_p(tif), ctypes.c_uint32(257),
                    ctypes.byref(h))
    raster = (ctypes.c_uint32 * (w.value * h.value))()
    assert lt.TIFFReadRGBAImage(ctypes.c_void_p(tif), w, h, raster,
                                ctypes.c_int(0))
    lt.TIFFClose(ctypes.c_void_p(tif))
    packed = np.frombuffer(raster, np.uint32).reshape(h.value, w.value)
    rgba = np.stack([packed & 0xFF, (packed >> 8) & 0xFF,
                     (packed >> 16) & 0xFF, (packed >> 24) & 0xFF],
                    axis=2).astype(np.uint8)
    return rgba[::-1]  # RGBAImage rasters are bottom-up


def _as_rgba(img: np.ndarray) -> np.ndarray:
    """What TIFFReadRGBAImage should produce for our encoder's file
    (4-channel input is unassociated alpha, which it premultiplies)."""
    if img.ndim == 2:
        a = np.full_like(img, 255)
        return np.stack([img, img, img, a], 2)
    if img.shape[2] == 3:
        a = np.full(img.shape[:2] + (1,), 255, np.uint8)
        return np.concatenate([img, a], 2)
    pm = np.floor(img[..., :3].astype(np.float64)
                  * img[..., 3:4].astype(np.float64) / 255.0
                  + 0.5).astype(np.uint8)
    return np.concatenate([pm, img[..., 3:4]], 2)


# ---------------------------------------------------------------------------
# roundtrips (exact: every supported compression is lossless)


@pytest.mark.parametrize("kw", [
    dict(),
    dict(compression="packbits"),
    dict(compression="lzw"),
    dict(compression="lzw", predictor=True),
    dict(compression="lzw", predictor=True, rows_per_strip=3),
    dict(compression="packbits", rows_per_strip=2),
    dict(compression="deflate"),
    dict(compression="deflate", predictor=True, rows_per_strip=3),
])
def test_roundtrip_param(kw):
    rng = np.random.default_rng(13)
    for shape in [(9, 14), (11, 7, 3), (8, 5, 4)]:
        img = rng.integers(0, 256, shape).astype(np.uint8)
        out, meta = decode_tiff(encode_tiff(img, **kw))
        assert np.array_equal(out, img)
        assert (meta["width"], meta["height"]) == (shape[1], shape[0])


def test_roundtrip_lzw_width_growth_and_reset():
    rng = np.random.default_rng(17)
    noisy = rng.integers(0, 256, (200, 300, 3)).astype(np.uint8)
    out, _ = decode_tiff(encode_tiff(noisy, compression="lzw"))
    assert np.array_equal(out, noisy)
    # raw LZW stream long enough to force the 4094 table reset
    data = bytes(rng.integers(0, 256, 60000).astype(np.uint8))
    assert _tiff_lzw(_tiff_lzw_encode(data), len(data)) == data


# ---------------------------------------------------------------------------
# hand-built fixtures for flavors our encoder doesn't emit


def _hand_tiff(e: str, tags: list[tuple[int, int, int, list[int]]],
               payload: bytes) -> bytes:
    """Minimal single-IFD TIFF with inline-or-overflow tag values;
    payload lands right after the IFD and overflow area."""
    fmtc = {3: "H", 4: "I"}
    n = len(tags)
    head = b"II*\x00" + struct.pack("<I", 8) if e == "<" \
        else b"MM\x00*" + struct.pack(">I", 8)
    over_base = 8 + 2 + 12 * n + 4
    over = bytearray()
    body = bytearray(struct.pack(e + "H", n))
    sizes = {3: 2, 4: 4}
    for tag, typ, cnt, vals in sorted(tags):
        body += struct.pack(e + "HHI", tag, typ, cnt)
        size = sizes[typ] * cnt
        if size > 4:
            body += struct.pack(e + "I", over_base + len(over))
            over += struct.pack(e + f"{cnt}{fmtc[typ]}", *vals)
        else:
            packed = struct.pack(e + f"{cnt}{fmtc[typ]}", *vals)
            body += packed + b"\x00" * (4 - len(packed))
    body += struct.pack(e + "I", 0)
    return head + bytes(body) + bytes(over) + payload


def test_big_endian_gray():
    img = np.arange(24, dtype=np.uint8).reshape(4, 6) * 10
    payload_off = 8 + 2 + 12 * 8 + 4
    blob = _hand_tiff(">", [
        (256, 4, 1, [6]), (257, 4, 1, [4]), (258, 3, 1, [8]),
        (259, 3, 1, [1]), (262, 3, 1, [1]),
        (273, 4, 1, [payload_off]), (278, 4, 1, [4]),
        (279, 4, 1, [24])], img.tobytes())
    out, meta = decode_tiff(blob)
    assert np.array_equal(out, img)


def test_min_is_white_inverts():
    img = np.array([[0, 100], [200, 255]], np.uint8)
    payload_off = 8 + 2 + 12 * 8 + 4
    blob = _hand_tiff("<", [
        (256, 4, 1, [2]), (257, 4, 1, [2]), (258, 3, 1, [8]),
        (259, 3, 1, [1]), (262, 3, 1, [0]),  # MinIsWhite
        (273, 4, 1, [payload_off]), (278, 4, 1, [2]),
        (279, 4, 1, [4])], img.tobytes())
    out, _ = decode_tiff(blob)
    assert np.array_equal(out, 255 - img)


def test_bilevel_unpacks_bits():
    # 2 rows x 10 cols of 1-bit pixels, row-padded to whole bytes
    rows = bytes([0b10110000, 0b01000000,
                  0b00000001, 0b11000000])
    payload_off = 8 + 2 + 12 * 8 + 4
    blob = _hand_tiff("<", [
        (256, 4, 1, [10]), (257, 4, 1, [2]), (258, 3, 1, [1]),
        (259, 3, 1, [1]), (262, 3, 1, [1]),
        (273, 4, 1, [payload_off]), (278, 4, 1, [2]),
        (279, 4, 1, [4])], rows)
    out, _ = decode_tiff(blob)
    want = np.array([[1, 0, 1, 1, 0, 0, 0, 0, 0, 1],
                     [0, 0, 0, 0, 0, 0, 0, 1, 1, 1]]) * 255
    assert np.array_equal(out, want.astype(np.uint8))


def test_palette_colormap():
    idx = np.array([[0, 1], [2, 3]], np.uint8)
    cmap = [0] * 768
    for i, (r, g, b) in enumerate([(255, 0, 0), (0, 255, 0),
                                   (0, 0, 255), (128, 128, 128)]):
        cmap[i] = r << 8
        cmap[256 + i] = g << 8
        cmap[512 + i] = b << 8
    payload_off = 8 + 2 + 12 * 9 + 4 + 768 * 2
    blob = _hand_tiff("<", [
        (256, 4, 1, [2]), (257, 4, 1, [2]), (258, 3, 1, [8]),
        (259, 3, 1, [1]), (262, 3, 1, [3]),
        (273, 4, 1, [payload_off]), (278, 4, 1, [2]),
        (279, 4, 1, [4]), (320, 3, 768, cmap)], idx.tobytes())
    out, _ = decode_tiff(blob)
    want = np.array([[[255, 0, 0], [0, 255, 0]],
                     [[0, 0, 255], [128, 128, 128]]], np.uint8)
    assert np.array_equal(out, want)


# ---------------------------------------------------------------------------
# A/B vs libtiff


def test_ab_libtiff_writes_we_decode(libtiff, tmp_path):
    rng = np.random.default_rng(9)
    cases = [
        (rng.integers(0, 256, (19, 23)).astype(np.uint8), 1, False,
         None),
        (rng.integers(0, 256, (60, 80)).astype(np.uint8), 5, False,
         9),
        (rng.integers(0, 256, (30, 41, 3)).astype(np.uint8), 5, True,
         7),
        (rng.integers(0, 3, (30, 41, 3)).astype(np.uint8) * 100,
         32773, False, 4),
        ((np.add.outer(np.arange(64), np.arange(96)) % 256)
         .astype(np.uint8), 5, True, None),
        (rng.integers(0, 256, (33, 27)).astype(np.uint8), 8, False,
         None),
        (rng.integers(0, 256, (40, 52, 3)).astype(np.uint8), 8, True,
         5),
    ]
    for i, (img, comp, pred, rps) in enumerate(cases):
        p = tmp_path / f"ref{i}.tif"
        _lt_write(libtiff, p, img, comp, pred, rps)
        out, meta = decode_tiff(p.read_bytes())
        assert meta["compression"] == comp
        assert np.array_equal(out, img), f"case {i}"


def test_ab_we_encode_libtiff_reads(libtiff, tmp_path):
    rng = np.random.default_rng(21)
    cases = [
        (rng.integers(0, 256, (49, 53)).astype(np.uint8),
         dict(compression="lzw")),
        (rng.integers(0, 256, (30, 41, 3)).astype(np.uint8),
         dict(compression="lzw", predictor=True, rows_per_strip=6)),
        (rng.integers(0, 256, (12, 9, 4)).astype(np.uint8),
         dict(compression="packbits")),
        (rng.integers(0, 256, (100, 120, 3)).astype(np.uint8),
         dict(compression="lzw")),
        (rng.integers(0, 256, (7, 11)).astype(np.uint8), dict()),
        (rng.integers(0, 256, (25, 33)).astype(np.uint8),
         dict(compression="deflate")),
        (rng.integers(0, 256, (18, 22, 3)).astype(np.uint8),
         dict(compression="deflate", predictor=True,
              rows_per_strip=4)),
    ]
    for i, (img, kw) in enumerate(cases):
        p = tmp_path / f"own{i}.tif"
        p.write_bytes(encode_tiff(img, **kw))
        assert np.array_equal(_lt_read_rgba(libtiff, p),
                              _as_rgba(img)), f"case {i}"


# ---------------------------------------------------------------------------
# error taxonomy + dispatch


def test_error_taxonomy():
    img = np.zeros((4, 4), np.uint8)
    good = encode_tiff(img)
    with pytest.raises(ValueError, match="magic"):
        decode_tiff(b"XX\x00\x00")
    with pytest.raises(ValueError):
        decode_tiff(good[:20])  # truncated IFD
    with pytest.raises(ValueError, match="strip"):
        decode_tiff(good[:-8])  # strip data out of range
    payload_off = 8 + 2 + 12 * 9 + 4

    def variant(override):
        tags = dict([(256, (4, 1, [4])), (257, (4, 1, [4])),
                     (258, (3, 1, [8])), (259, (3, 1, [1])),
                     (262, (3, 1, [1])), (273, (4, 1, [payload_off])),
                     (277, (3, 1, [1])), (278, (4, 1, [4])),
                     (279, (4, 1, [16]))])
        tags.update(override)
        return _hand_tiff("<", [(t, *v) for t, v in tags.items()],
                          bytes(16))

    with pytest.raises(NotImplementedError, match="32-bit"):
        decode_tiff(variant({258: (3, 1, [32])}))
    with pytest.raises(ValueError, match="CCITT"):
        # CCITT over 8-bit samples is structurally invalid
        decode_tiff(variant({259: (3, 1, [4])}))
    with pytest.raises(ValueError, match="deflate"):
        decode_tiff(variant({259: (3, 1, [8])}))  # garbage zlib strip
    with pytest.raises(NotImplementedError, match="old-style JPEG"):
        decode_tiff(variant({259: (3, 1, [6])}))
    with pytest.raises(NotImplementedError, match="subsampled"):
        # photometric 6 without a subsampling tag defaults to 2,2
        decode_tiff(variant({262: (3, 1, [6]), 277: (3, 1, [3])}))
    with pytest.raises(NotImplementedError, match="FillOrder 2"):
        decode_tiff(variant({266: (3, 1, [2]), 259: (3, 1, [5])}))
    with pytest.raises(NotImplementedError, match="Lab"):
        decode_tiff(variant({262: (3, 1, [8])}))
    with pytest.raises(NotImplementedError, match="InkSet"):
        decode_tiff(variant({262: (3, 1, [5]), 277: (3, 1, [4]),
                             332: (3, 1, [2])}))


def test_tile_dims_are_capped():
    # 16x16 image whose one PackBits tile claims 20000x20000: the tile
    # is decoded whole before cropping, so it must hit the pixel cap
    payload_off = 8 + 2 + 12 * 9 + 4
    blob = _hand_tiff("<", [
        (256, 4, 1, [16]), (257, 4, 1, [16]), (258, 3, 1, [8]),
        (259, 3, 1, [32773]), (262, 3, 1, [1]),
        (322, 4, 1, [20000]), (323, 4, 1, [20000]),
        (324, 4, 1, [payload_off]), (325, 4, 1, [2])], b"\x00\x00")
    with pytest.raises(ValueError, match="TIFF tile"):
        decode_tiff(blob)


def test_dispatch_from_decode_image():
    from swishray.ops.codecs import decode_image, sniff_image
    img = np.arange(64, dtype=np.uint8).reshape(8, 8) * 3
    blob = encode_tiff(img, compression="lzw")
    assert sniff_image(blob) == "tiff"
    arr, meta = decode_image(blob)
    assert meta["format"] == "tiff"
    assert np.array_equal(arr, img)


def test_lzw_decode_is_linear_time():
    """Regression: the decode bit-accumulator must stay bounded — an
    unmasked accumulator makes decode QUADRATIC (a 0.26 MP noise
    image took 250+ s before the fix, ~0.5 s after)."""
    import time
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (512, 512, 3)).astype(np.uint8)
    blob = encode_tiff(img, compression="lzw")
    t0 = time.time()
    out, _ = decode_tiff(blob)
    assert np.array_equal(out, img)
    assert time.time() - t0 < 15  # generous; quadratic took >250 s


# ---------------------------------------------------------------------------
# round-5 flavors: tiles, separate planes, 16-bit, CMYK, YCbCr,
# CCITT fax, JPEG-in-TIFF


def _setf(lt, tif, tag, *val):
    lt.TIFFSetField(ctypes.c_void_p(tif), ctypes.c_uint32(tag), *val)


def _lt_write_ex(lt, path, arr, comp, *, pred=False, rps=None,
                 tile=None, planar=1, bps=8, photo=None, quality=None,
                 colormode=None, sub=None, extra=()):
    """General libtiff writer: strips or tiles, chunky or separate
    planes, 8/16-bit, plus the JPEG pseudo-tags."""
    a = np.asarray(arr)
    gray = a.ndim == 2
    h, w = a.shape[:2]
    spp = 1 if gray else a.shape[2]
    if photo is None:
        photo = 1 if gray else 2
    tif = lt.TIFFOpen(str(path).encode(), b"w")
    assert tif
    _setf(lt, tif, 256, ctypes.c_uint32(w))
    _setf(lt, tif, 257, ctypes.c_uint32(h))
    _setf(lt, tif, 258, ctypes.c_int(bps))
    _setf(lt, tif, 277, ctypes.c_int(spp))
    _setf(lt, tif, 259, ctypes.c_int(comp))
    _setf(lt, tif, 262, ctypes.c_int(photo))
    _setf(lt, tif, 284, ctypes.c_int(planar))
    if pred:
        _setf(lt, tif, 317, ctypes.c_int(2))
    if quality is not None:
        _setf(lt, tif, 65537, ctypes.c_int(quality))
    if colormode is not None:
        _setf(lt, tif, 65538, ctypes.c_int(colormode))
    if sub is not None:
        _setf(lt, tif, 530, ctypes.c_int(sub[0]), ctypes.c_int(sub[1]))
    for tag, val in extra:
        _setf(lt, tif, tag, val)
    flat = a.reshape(h, w, spp)
    if tile:
        _setf(lt, tif, 322, ctypes.c_uint32(tile))
        _setf(lt, tif, 323, ctypes.c_uint32(tile))
        for s in range(spp if planar == 2 else 1):
            for y0 in range(0, h, tile):
                for x0 in range(0, w, tile):
                    buf = np.zeros(
                        (tile, tile, spp if planar == 1 else 1), a.dtype)
                    part = flat[y0:y0 + tile, x0:x0 + tile]
                    if planar == 2:
                        part = part[:, :, s:s + 1]
                    buf[:part.shape[0], :part.shape[1]] = part
                    r = lt.TIFFWriteTile(
                        ctypes.c_void_p(tif), buf.tobytes(),
                        ctypes.c_uint32(x0), ctypes.c_uint32(y0),
                        ctypes.c_uint32(0), ctypes.c_uint16(s))
                    assert r > 0
    else:
        _setf(lt, tif, 278, ctypes.c_uint32(rps or h))
        for s in range(spp if planar == 2 else 1):
            for y in range(h):
                row = flat[y] if planar == 1 else flat[y, :, s:s + 1]
                r = lt.TIFFWriteScanline(
                    ctypes.c_void_p(tif), row.tobytes(),
                    ctypes.c_uint32(y), ctypes.c_uint16(s))
                assert r == 1
    lt.TIFFClose(ctypes.c_void_p(tif))


def _lt_write_fax(lt, path, bits, comp, rps=None, opts=None):
    """Write a bilevel MinIsWhite fax TIFF (bits: 1 = black)."""
    h, w = bits.shape
    tif = lt.TIFFOpen(str(path).encode(), b"w")
    assert tif
    _setf(lt, tif, 256, ctypes.c_uint32(w))
    _setf(lt, tif, 257, ctypes.c_uint32(h))
    _setf(lt, tif, 258, ctypes.c_int(1))
    _setf(lt, tif, 277, ctypes.c_int(1))
    _setf(lt, tif, 259, ctypes.c_int(comp))
    _setf(lt, tif, 262, ctypes.c_int(0))
    _setf(lt, tif, 284, ctypes.c_int(1))
    _setf(lt, tif, 278, ctypes.c_uint32(rps or h))
    if opts is not None:
        _setf(lt, tif, 292 if comp == 3 else 293, ctypes.c_uint32(opts))
    packed = np.packbits(bits.astype(np.uint8), axis=1)
    for y in range(h):
        assert lt.TIFFWriteScanline(
            ctypes.c_void_p(tif), packed[y].tobytes(),
            ctypes.c_uint32(y), ctypes.c_uint16(0)) == 1
    lt.TIFFClose(ctypes.c_void_p(tif))


def _lt_read_rgb(lt, path, h, w):
    return _lt_read_rgba(lt, str(path))[:, :, :3]


def test_ab_tiled_and_planar(libtiff, tmp_path):
    rng = np.random.default_rng(41)
    img3 = rng.integers(0, 256, (37, 53, 3)).astype(np.uint8)
    gray = rng.integers(0, 256, (64, 48)).astype(np.uint8)
    cases = [
        ("tile_none", img3, dict(comp=1, tile=16)),
        ("tile_lzw", gray, dict(comp=5, tile=16)),
        ("tile_deflate", img3, dict(comp=8, tile=32)),
        ("tile_pb", img3, dict(comp=32773, tile=16)),
        ("tile_lzw_pred", img3, dict(comp=5, tile=32, pred=True)),
        ("planar_strips", img3, dict(comp=5, planar=2, rps=7)),
        ("planar_tiles", img3, dict(comp=8, planar=2, tile=16)),
        ("planar_none", img3, dict(comp=1, planar=2)),
        ("planar_pred", img3, dict(comp=5, planar=2, pred=True, rps=9)),
    ]
    for name, img, kw in cases:
        p = tmp_path / f"{name}.tif"
        _lt_write_ex(libtiff, p, img, **kw)
        out, meta = decode_tiff(p.read_bytes())
        assert np.array_equal(out, img), name
        assert meta["tiled"] == bool(kw.get("tile")), name
        assert meta["planar"] == kw.get("planar", 1), name


def test_ab_16bit_high_byte(libtiff, tmp_path):
    rng = np.random.default_rng(43)
    cases = [
        ("g16", rng.integers(0, 65536, (20, 26)).astype(np.uint16),
         dict(comp=5)),
        ("rgb16", rng.integers(0, 65536, (14, 19, 3)).astype(np.uint16),
         dict(comp=8)),
        ("rgb16_pred",
         rng.integers(0, 65536, (14, 19, 3)).astype(np.uint16),
         dict(comp=5, pred=True)),
        ("rgb16_planar",
         rng.integers(0, 65536, (9, 12, 3)).astype(np.uint16),
         dict(comp=1, planar=2)),
    ]
    for name, img, kw in cases:
        p = tmp_path / f"{name}.tif"
        _lt_write_ex(libtiff, p, img, bps=16, **kw)
        out, _ = decode_tiff(p.read_bytes())
        assert np.array_equal(out, (img >> 8).astype(np.uint8)), name


def test_ab_cmyk_raw_inks(libtiff, tmp_path):
    rng = np.random.default_rng(47)
    cmyk = rng.integers(0, 256, (12, 17, 4)).astype(np.uint8)
    p = tmp_path / "cmyk.tif"
    _lt_write_ex(libtiff, p, cmyk, comp=5, photo=5,
                 extra=[(332, ctypes.c_int(1))])
    out, meta = decode_tiff(p.read_bytes())
    assert meta["photometric"] == 5
    assert np.array_equal(out, cmyk)  # raw ink samples, lossless LZW
    # libtiff's RGBA render of the same file must match its integer
    # CMYK->RGB formula applied to our raw samples
    ref = _lt_read_rgb(libtiff, p, 12, 17)
    k = 255 - out[:, :, 3].astype(np.int64)
    got = np.stack([(k * (255 - out[:, :, i].astype(np.int64))) // 255
                    for i in range(3)], axis=2).astype(np.uint8)
    assert np.array_equal(got, ref)


def test_ab_ccitt_fax(libtiff, tmp_path):
    rng = np.random.default_rng(53)
    noise = (rng.random((33, 97)) < 0.5).astype(np.uint8)
    runs = (np.cumsum(rng.random((21, 173)) < 0.06, axis=1) % 2) \
        .astype(np.uint8)
    for comp, opts in [(2, None), (3, None), (3, 1), (3, 5), (4, None)]:
        for tag, bits in [("noise", noise), ("runs", runs)]:
            p = tmp_path / f"fax_{comp}_{opts}_{tag}.tif"
            _lt_write_fax(libtiff, p, bits, comp, opts=opts)
            out, meta = decode_tiff(p.read_bytes())
            want = np.where(bits, 0, 255).astype(np.uint8)
            assert np.array_equal(out, want), (comp, opts, tag)
    # multi-strip G4 restarts the reference line per strip
    p = tmp_path / "fax_strips.tif"
    _lt_write_fax(libtiff, p, runs, 4, rps=5)
    out, _ = decode_tiff(p.read_bytes())
    assert np.array_equal(out, np.where(runs, 0, 255).astype(np.uint8))


def test_ab_ccitt_run_table_exhaustive(libtiff, tmp_path):
    """Every make-up + terminating combination 0..2800 in both
    directions: libtiff-encoded single rows decoded by us, and our
    G4/MH rows read back through TIFFReadRGBAImage."""
    from swishray.ops.tiff import encode_tiff
    lens = list(range(0, 64)) + list(range(64, 2801, 61)) + [2800]
    for r in lens:
        w = r + 3
        bits = np.zeros((1, w), np.uint8)
        bits[0, :r] = 1
        p = tmp_path / "row.tif"
        _lt_write_fax(libtiff, p, bits, 4)
        out, _ = decode_tiff(p.read_bytes())
        assert np.array_equal(
            out[0], np.where(bits[0], 0, 255).astype(np.uint8)), r
        img = np.where(bits, 0, 255).astype(np.uint8)
        for compname in ("g4", "ccittrle"):
            p2 = tmp_path / "own.tif"
            p2.write_bytes(encode_tiff(img, compression=compname))
            ref = _lt_read_rgb(libtiff, p2, 1, w)
            assert np.array_equal(ref[:, :, 0], img), (compname, r)


def test_ab_we_encode_fax_and_tiles_libtiff_reads(libtiff, tmp_path):
    rng = np.random.default_rng(59)
    bil = (rng.random((40, 200)) < 0.4).astype(np.uint8) * 255
    for compname in ("g4", "ccittrle"):
        p = tmp_path / f"own_{compname}.tif"
        p.write_bytes(encode_tiff(bil, compression=compname))
        ref = _lt_read_rgb(libtiff, p, 40, 200)
        assert np.array_equal(ref[:, :, 0], bil), compname
    # multi-strip G4 from our writer
    p = tmp_path / "own_g4_strips.tif"
    p.write_bytes(encode_tiff(bil, compression="g4", rows_per_strip=7))
    assert np.array_equal(_lt_read_rgb(libtiff, p, 40, 200)[:, :, 0], bil)
    # our tiled writer
    img = rng.integers(0, 256, (37, 53, 3)).astype(np.uint8)
    for compname in ("none", "lzw", "deflate", "packbits"):
        p = tmp_path / f"own_tile_{compname}.tif"
        p.write_bytes(encode_tiff(img, compression=compname, tile=16))
        assert np.array_equal(_lt_read_rgb(libtiff, p, 37, 53), img), \
            compname
    # our JPEG-compressed writer (lossy: libtiff's decode of our
    # streams vs our own decode of the same file, <=2 levels for the
    # integer-vs-float IDCT split)
    for shape, kw in [((40, 56, 3), dict(rows_per_strip=16)),
                      ((33, 47), dict()),
                      ((40, 56, 3), dict(tile=16))]:
        img = _smooth(rng, shape)
        p = tmp_path / "own_jpeg.tif"
        p.write_bytes(encode_tiff(img, compression="jpeg", **kw))
        ref = _lt_read_rgb(libtiff, p, *shape[:2])
        out, _ = decode_tiff(p.read_bytes())
        got = np.stack([out] * 3, 2) if out.ndim == 2 else out
        assert np.abs(got.astype(int) - ref.astype(int)).max() <= 2, \
            (shape, kw)


def _smooth(rng, shape):
    base = rng.integers(0, 256, (4, 4) + shape[2:]).astype(np.float64)
    up = np.kron(base, np.ones((shape[0] // 4 + 1, shape[1] // 4 + 1)
                               + (1,) * (len(shape) - 2)))
    return up[:shape[0], :shape[1]].astype(np.uint8)


def test_ab_jpeg_in_tiff(libtiff, tmp_path):
    """New-style JPEG (compression 7): our decode vs libtiff's own
    RGBA render of the same lossy file. Both decoders read the same
    streams; <=2 levels covers libjpeg's integer IDCT vs our float
    one (tests/test_jpeg.py pins the plain-JPEG parity)."""
    rng = np.random.default_rng(61)
    img3 = _smooth(rng, (33, 47, 3))
    big = _smooth(rng, (64, 80, 3))
    gray = _smooth(rng, (40, 56))
    cases = [
        ("jgray", gray, dict(photo=1)),
        ("jgray_strips", gray, dict(photo=1, rps=16)),
        ("jrgb", img3, dict(photo=2)),  # RGB-colorspace JPEG streams
        ("jycc444", img3, dict(photo=6, colormode=1, sub=(1, 1))),
        ("jycc444_tiled", big,
         dict(photo=6, colormode=1, sub=(1, 1), tile=32)),
    ]
    for name, img, kw in cases:
        p = tmp_path / f"{name}.tif"
        _lt_write_ex(libtiff, p, img, comp=7, quality=88, **kw)
        out, _ = decode_tiff(p.read_bytes())
        ref = _lt_read_rgb(libtiff, p, *img.shape[:2])
        got = np.stack([out] * 3, 2) if out.ndim == 2 else out
        assert np.abs(got.astype(int) - ref.astype(int)).max() <= 2, name


def test_ab_jpeg_in_tiff_subsampled(libtiff, tmp_path):
    """4:2:0 YCbCr JPEG strips: chroma-neutral content compares
    tightly (upsampling convention can't differ on constant chroma);
    colorful content is bounded loosely vs libtiff's render (our
    replication vs libjpeg's fancy upsampling differs at chroma
    edges — same convention split as tests/test_jpeg.py)."""
    rng = np.random.default_rng(67)
    gray3 = np.repeat(_smooth(rng, (48, 64))[:, :, None], 3, axis=2)
    p = tmp_path / "j420_neutral.tif"
    _lt_write_ex(libtiff, p, gray3, comp=7, quality=88, photo=6,
                 colormode=1, rps=16)
    out, _ = decode_tiff(p.read_bytes())
    ref = _lt_read_rgb(libtiff, p, 48, 64)
    assert np.abs(out.astype(int) - ref.astype(int)).max() <= 2
    colorful = _smooth(rng, (64, 80, 3))
    p = tmp_path / "j420_color.tif"
    _lt_write_ex(libtiff, p, colorful, comp=7, quality=88, photo=6,
                 colormode=1, rps=16)
    out, _ = decode_tiff(p.read_bytes())
    ref = _lt_read_rgb(libtiff, p, 64, 80)
    d = np.abs(out.astype(int) - ref.astype(int)).max(axis=2)
    assert np.percentile(d, 50) <= 4
    assert d.mean() <= 8


def test_uncompressed_ycbcr_444():
    """Hand-built 4:4:4 uncompressed YCbCr (photometric 6) against
    the CCIR 601 round-half-up reference formula."""
    rng = np.random.default_rng(71)
    ycc = rng.integers(0, 256, (6, 9, 3)).astype(np.uint8)
    payload_off = 8 + 2 + 12 * 10 + 4 + 6  # 3-short BPS overflows
    blob = _hand_tiff("<", [
        (256, 4, 1, [9]), (257, 4, 1, [6]), (258, 3, 3, [8, 8, 8]),
        (259, 3, 1, [1]), (262, 3, 1, [6]), (277, 3, 1, [3]),
        (273, 4, 1, [payload_off]), (278, 4, 1, [6]),
        (279, 4, 1, [ycc.size]), (530, 3, 2, [1, 1])], ycc.tobytes())
    out, meta = decode_tiff(blob)
    y = ycc[:, :, 0].astype(np.float64)
    cb = ycc[:, :, 1].astype(np.float64) - 128.0
    cr = ycc[:, :, 2].astype(np.float64) - 128.0
    want = np.stack([y + 1.402 * cr,
                     y - 0.344136 * cb - 0.714136 * cr,
                     y + 1.772 * cb], axis=2)
    want = np.clip(np.floor(want + 0.5), 0, 255).astype(np.uint8)
    assert np.array_equal(out, want)


def test_fax_roundtrip_own_codec():
    rng = np.random.default_rng(73)
    for compname in ("g4", "ccittrle"):
        for shape in [(1, 1), (9, 14), (40, 333)]:
            img = (rng.random(shape) < 0.4).astype(np.uint8) * 255
            out, meta = decode_tiff(
                encode_tiff(img, compression=compname))
            assert np.array_equal(out, img), (compname, shape)
    img = (rng.random((21, 64)) < 0.3).astype(np.uint8) * 255
    out, _ = decode_tiff(
        encode_tiff(img, compression="g4", rows_per_strip=5))
    assert np.array_equal(out, img)


def test_tiled_roundtrip_own_codec():
    rng = np.random.default_rng(79)
    for compname in ("none", "lzw", "deflate", "packbits"):
        for shape in [(20, 35, 3), (16, 16), (50, 33, 4)]:
            img = rng.integers(0, 256, shape).astype(np.uint8)
            out, meta = decode_tiff(
                encode_tiff(img, compression=compname, tile=16))
            assert meta["tiled"]
            assert np.array_equal(out, img), (compname, shape)
