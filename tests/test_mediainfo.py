"""Header-only media inspection tests (ops/mediainfo.py): ISO-BMFF
(MP4/MOV) box demux, MPEG-audio frame headers, per-format header
probes (validated against the engine's own encoders), and the
InspectMedia Ray stage with its error taxonomy.

MP4 fixtures are hand-assembled from the ISO/IEC 14496-12 box
layout; MPEG audio frames are constructed from the public header
tables, so every expected value is known by construction."""

import struct

import numpy as np
import pytest

from swishray.ops.mediainfo import (InspectMedia, image_header_info,
                                    parse_mp4, parse_mpeg_audio,
                                    sniff_media, _avi_info,
                                    _flac_info, _y4m_info)


def _box(t, payload):
    return struct.pack(">I", 8 + len(payload)) + t + payload


def _full(t, ver, payload):
    return _box(t, bytes([ver, 0, 0, 0]) + payload)


def make_mp4(dur_units=3000, timescale=1000, w=640, h=360, sr=44100,
             n_samples=90, brand=b"isom", video=True, audio=True,
             ver=0):
    if ver:
        mvhd = _full(b"mvhd", 1, struct.pack(">QQ", 0, 0)
                     + struct.pack(">IQ", timescale, dur_units)
                     + bytes(80))
    else:
        mvhd = _full(b"mvhd", 0, struct.pack(">II", 0, 0)
                     + struct.pack(">II", timescale, dur_units)
                     + bytes(80))
    traks = b""
    if video:
        tkhd = _full(b"tkhd", 0, struct.pack(">IIII", 0, 0, 1, 0)
                     + struct.pack(">I", dur_units) + bytes(44)
                     + struct.pack(">II", w << 16, h << 16))
        mdhd = _full(b"mdhd", 0, struct.pack(">II", 0, 0)
                     + struct.pack(">II", timescale, dur_units)
                     + struct.pack(">HH", 0, 0))
        hdlr = _full(b"hdlr", 0, bytes(4) + b"vide" + bytes(12)
                     + b"v\x00")
        avc1 = (struct.pack(">I", 8 + 78) + b"avc1" + bytes(6)
                + struct.pack(">H", 1) + bytes(16)
                + struct.pack(">HH", w, h) + bytes(46))
        stsd = _full(b"stsd", 0, struct.pack(">I", 1) + avc1)
        stts = _full(b"stts", 0,
                     struct.pack(">III", 1, n_samples, 100))
        mdia = _box(b"mdia", mdhd + hdlr
                    + _box(b"minf", _box(b"stbl", stsd + stts)))
        traks += _box(b"trak", tkhd + mdia)
    if audio:
        mdhd = _full(b"mdhd", 0, struct.pack(">II", 0, 0)
                     + struct.pack(">II", sr, sr * 3)
                     + struct.pack(">HH", 0, 0))
        hdlr = _full(b"hdlr", 0, bytes(4) + b"soun" + bytes(12)
                     + b"a\x00")
        mp4a = (struct.pack(">I", 8 + 28) + b"mp4a" + bytes(6)
                + struct.pack(">H", 1) + bytes(8)
                + struct.pack(">HH", 2, 16) + struct.pack(">I", 0)
                + struct.pack(">I", sr << 16))
        stsd = _full(b"stsd", 0, struct.pack(">I", 1) + mp4a)
        mdia = _box(b"mdia", mdhd + hdlr
                    + _box(b"minf", _box(b"stbl", stsd)))
        traks += _box(b"trak", mdia)
    ftyp = _box(b"ftyp", brand + struct.pack(">I", 512)
                + b"isommp42")
    return ftyp + _box(b"moov", mvhd + traks)


def make_mp3_frame(br_idx=9, sr_idx=0, padding=0, mode=0,
                   ver_bits=3, layer_bits=1):
    b1 = 0xE0 | (ver_bits << 3) | (layer_bits << 1) | 1
    b2 = (br_idx << 4) | (sr_idx << 2) | (padding << 1)
    b3 = mode << 6
    hdr = bytes([0xFF, b1, b2, b3])
    sr = {3: (44100, 48000, 32000), 2: (22050, 24000, 16000),
          0: (11025, 12000, 8000)}[ver_bits][sr_idx]
    br = {(3, 1): (32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192,
                   224, 256, 320),
          (2, 1): (8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128,
                   144, 160),
          (3, 3): (32, 64, 96, 128, 160, 192, 224, 256, 288, 320,
                   352, 384, 416, 448)}[(ver_bits, layer_bits)][
        br_idx - 1]
    if layer_bits == 3:  # Layer I
        flen = (12000 * br // sr + padding) * 4
    elif ver_bits == 3:  # MPEG1 Layer III
        flen = 144000 * br // sr + padding
    else:  # MPEG2/2.5 Layer III
        flen = 72000 * br // sr + padding
    return hdr + bytes(flen - 4)


# ---------------------------------------------------------------------------
# MP4


def test_mp4_full_parse():
    info = parse_mp4(make_mp4())
    assert info["brand"] == "isom"
    assert info["duration_s"] == 3.0
    v, a = info["tracks"]
    assert v["kind"] == "video" and v["codec"] == "avc1"
    assert (v["width"], v["height"]) == (640, 360)
    assert v["n_samples"] == 90
    assert a["kind"] == "audio" and a["codec"] == "mp4a"
    assert a["sample_rate"] == 44100 and a["channels"] == 2


def test_mp4_v1_boxes_and_audio_only():
    info = parse_mp4(make_mp4(ver=1, video=False,
                              dur_units=90000, timescale=30000))
    assert info["duration_s"] == 3.0
    assert len(info["tracks"]) == 1
    assert info["tracks"][0]["kind"] == "audio"


def test_mp4_largesize_box():
    blob = make_mp4()
    # rewrite ftyp as a 64-bit largesize box: size=1 + 8-byte size
    (fsz,) = struct.unpack_from(">I", blob, 0)
    ftyp = blob[:fsz]
    big = (struct.pack(">I", 1) + b"ftyp"
           + struct.pack(">Q", fsz + 8) + ftyp[8:])
    info = parse_mp4(big + blob[fsz:])
    assert info["brand"] == "isom" and info["duration_s"] == 3.0


def test_mp4_errors():
    with pytest.raises(ValueError, match="ftyp"):
        parse_mp4(b"\x00" * 40)
    with pytest.raises(ValueError, match="no movie box"):
        parse_mp4(_box(b"ftyp", b"isom" + bytes(8)))
    bad = _box(b"ftyp", b"isom" + bytes(8)) \
        + struct.pack(">I", 3) + b"moov"
    with pytest.raises(ValueError, match="box size"):
        parse_mp4(bad)


# ---------------------------------------------------------------------------
# MPEG audio


def test_mp3_cbr():
    m = parse_mpeg_audio(make_mp3_frame() * 12)
    assert m["layer"] == 3 and m["version"] == 1.0
    assert m["sample_rate"] == 44100 and m["bitrate_kbps"] == 128
    assert m["channels"] == 2 and m["n_frames"] == 12
    assert m["duration_s"] == pytest.approx(12 * 1152 / 44100)
    assert not m["vbr"] and not m["id3v2"]


def test_mp3_padding_and_mono():
    frames = b"".join(make_mp3_frame(padding=i % 2, mode=3)
                      for i in range(7))
    m = parse_mpeg_audio(frames)
    assert m["n_frames"] == 7 and m["channels"] == 1


def test_mp3_vbr_mix_and_id3():
    frames = make_mp3_frame(br_idx=9) + make_mp3_frame(br_idx=12) \
        + make_mp3_frame(br_idx=9)
    id3 = b"ID3\x04\x00\x00" + bytes([0, 0, 0, 20]) + bytes(20)
    m = parse_mpeg_audio(id3 + frames)
    assert m["n_frames"] == 3 and m["vbr"] and m["id3v2"]


def test_mp3_layer1_and_mpeg2():
    m = parse_mpeg_audio(make_mp3_frame(layer_bits=3, br_idx=9) * 3)
    assert m["layer"] == 1 and m["n_frames"] == 3
    assert m["duration_s"] == pytest.approx(3 * 384 / 44100)
    m = parse_mpeg_audio(make_mp3_frame(ver_bits=2, br_idx=9) * 3)
    assert m["version"] == 2.0 and m["sample_rate"] == 22050
    assert m["duration_s"] == pytest.approx(3 * 576 / 22050)


def test_mp3_xing_frame_count():
    first = bytearray(make_mp3_frame())
    xp = 4 + 32  # MPEG1 stereo side-info offset
    first[xp:xp + 4] = b"Xing"
    first[xp + 4:xp + 8] = struct.pack(">I", 1)
    first[xp + 8:xp + 12] = struct.pack(">I", 500)
    # only the Xing frame is present — the walk stops, the tag rules
    m = parse_mpeg_audio(bytes(first) + b"\xff")
    assert m["n_frames"] == 500 and m["vbr"]


def test_mp3_resync_and_errors():
    m = parse_mpeg_audio(b"\x00garbage\x00" + make_mp3_frame() * 2)
    assert m["n_frames"] == 2
    with pytest.raises(ValueError, match="sync"):
        parse_mpeg_audio(b"\x00" * 100)


# ---------------------------------------------------------------------------
# header probes vs the engine's own encoders


def test_image_probes_match_encoders():
    from swishray.ops.codecs import encode_gif, encode_png
    from swishray.ops.jpeg import encode_jpeg
    from swishray.ops.tiff import encode_tiff
    from swishray.ops.webp import encode_webp
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (13, 17, 3)).astype(np.uint8)
    gray = rng.integers(0, 256, (13, 17)).astype(np.uint8)
    cases = [("png", encode_png(img)), ("tiff", encode_tiff(img)),
             ("jpeg", encode_jpeg(img)),
             ("gif", encode_gif(gray[None] % 4,
                   np.arange(12, dtype=np.uint8)
                   .reshape(4, 3))),
             ("webp", encode_webp(img))]
    for kind, blob in cases:
        assert sniff_media(blob) == kind
        hi = image_header_info(blob, kind)
        assert (hi["width"], hi["height"]) == (17, 13), kind


def test_apng_probe_counts_frames():
    from swishray.ops.codecs import encode_apng
    rng = np.random.default_rng(3)
    frames = [rng.integers(0, 256, (8, 9, 3)).astype(np.uint8)
              for _ in range(3)]
    hi = image_header_info(encode_apng(frames), "png")
    assert hi["n_frames"] == 3


def test_av_probes_match_encoders():
    from swishray.ops.codecs import encode_avi_mjpeg, encode_y4m
    from swishray.ops.flac import encode_flac
    rng = np.random.default_rng(5)
    pcm = (np.sin(np.arange(8000) * 0.05) * 3000) \
        .astype(np.int16).reshape(-1, 1)
    assert _flac_info(encode_flac(pcm, sample_rate=16000)) == {
        "sample_rate": 16000, "channels": 1, "total_samples": 8000}
    frames = rng.integers(0, 256, (4, 12, 16)).astype(np.uint8)
    yi = _y4m_info(encode_y4m(frames, fps=(25, 1)))
    assert (yi["width"], yi["height"], yi["n_frames"], yi["fps"]) \
        == (16, 12, 4, 25.0)
    ai = _avi_info(encode_avi_mjpeg(list(frames), fps=(30, 1)))
    assert (ai["codec"], ai["width"], ai["height"], ai["n_frames"],
            ai["fps"]) == ("MJPG", 16, 12, 4, 30.0)


def _nested_avi(depth: int) -> bytes:
    """A RIFF AVI whose body is ``depth`` LIST chunks, each nested in
    the one before."""
    heads = [b"LIST" + struct.pack("<I", 4 + 12 * (depth - 1 - k)) + b"movi"
             for k in range(depth)]
    return (b"RIFF" + struct.pack("<I", 4 + 12 * depth) + b"AVI "
            + b"".join(heads))


def test_avi_walks_bound_nesting_depth():
    """Both recursive AVI chunk walks stop a deeply nested file with
    ValueError instead of RecursionError, which would kill the batch."""
    from swishray.ops.codecs import decode_avi_mjpeg
    deep, shallow = _nested_avi(3000), _nested_avi(8)
    with pytest.raises(ValueError, match="nesting"):
        _avi_info(deep)
    with pytest.raises(ValueError, match="nesting"):
        decode_avi_mjpeg(deep)
    assert _avi_info(shallow)["n_frames"] == 0
    with pytest.raises(ValueError, match="stream header"):
        decode_avi_mjpeg(shallow)


# ---------------------------------------------------------------------------
# the Ray stage


def test_inspect_media_stage(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.codecs import encode_png
    from swishray.ops.mediainfo import inspect_media
    rng = np.random.default_rng(7)
    blobs = [
        make_mp4(dur_units=2500, w=320, h=200),
        make_mp3_frame() * 5,
        encode_png(rng.integers(0, 256, (6, 7, 3)).astype(np.uint8)),
        b"\x00\x01\x02not-a-container",
        None,
    ]
    ds = rd.from_arrow(pa.table({
        "media_id": pa.array(range(len(blobs)), pa.int64()),
        "payload": pa.array(blobs, pa.binary())}))
    out = inspect_media(ds).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    assert out.loc[0, "container"] == "mp4"
    assert out.loc[0, "codec"] == "avc1"
    assert out.loc[0, "width"] == 320 and out.loc[0, "height"] == 200
    assert out.loc[0, "duration_ms"] == 2500
    assert out.loc[1, "container"] == "mpeg-audio"
    assert out.loc[1, "codec"] == "mp3"
    assert out.loc[1, "n_frames"] == 5
    assert out.loc[2, "container"] == "png"
    assert out.loc[2, "width"] == 7 and out.loc[2, "height"] == 6
    assert out.loc[3, "error"].startswith("NotImplementedError")
    assert out.loc[4, "error"].startswith("NotImplementedError")
    assert out["size_bytes"].tolist()[:2] == [
        len(blobs[0]), len(blobs[1])]


def test_inspect_handles_unbounded_box_and_truncation():
    # size-0 box (extends to EOF) and a moov-only head of a big file
    blob = make_mp4()
    # truncate after moov: parse must still succeed (header-only)
    info = parse_mp4(blob + _box(b"mdat", bytes(32))[:12])
    assert info["duration_s"] == 3.0


# ---------------------------------------------------------------------------
# Ogg (RFC 3533) and Matroska/WebM (EBML) — hand-assembled fixtures


def _ogg_page(serial, seqno, granule, packets, htype=0):
    lacing = b""
    body = b""
    for pkt in packets:
        n = len(pkt)
        while n >= 255:
            lacing += bytes([255])
            n -= 255
        lacing += bytes([n])
        body += pkt
    return (b"OggS\x00" + bytes([htype])
            + struct.pack("<q", granule)
            + struct.pack("<I", serial) + struct.pack("<I", seqno)
            + struct.pack("<I", 0)  # CRC unchecked by inspect
            + bytes([len(lacing)]) + lacing + body)


def make_ogg_vorbis(sr=44100, ch=2, total_samples=44100 * 2):
    ident = (b"\x01vorbis" + struct.pack("<I", 0) + bytes([ch])
             + struct.pack("<I", sr) + bytes(12) + b"\x01")
    return (_ogg_page(7, 0, 0, [ident], htype=2)
            + _ogg_page(7, 1, total_samples // 2, [bytes(11)])
            + _ogg_page(7, 2, total_samples, [bytes(9)], htype=4))


def make_ogg_opus(ch=1, pre_skip=312, granule=48000 * 3 + 312):
    ident = (b"OpusHead\x01" + bytes([ch])
             + struct.pack("<H", pre_skip)
             + struct.pack("<I", 48000) + bytes(3))
    return (_ogg_page(9, 0, 0, [ident], htype=2)
            + _ogg_page(9, 1, granule, [bytes(20)], htype=4))


def test_ogg_vorbis():
    from swishray.ops.mediainfo import parse_ogg
    info = parse_ogg(make_ogg_vorbis())
    (t,) = info["tracks"]
    assert t["codec"] == "vorbis" and t["kind"] == "audio"
    assert t["sample_rate"] == 44100 and t["channels"] == 2
    assert info["duration_ms"] == 2000


def test_ogg_opus_preskip():
    from swishray.ops.mediainfo import parse_ogg
    info = parse_ogg(make_ogg_opus())
    (t,) = info["tracks"]
    assert t["codec"] == "opus" and t["sample_rate"] == 48000
    assert info["duration_ms"] == 3000  # granule minus pre-skip


def test_ogg_errors():
    from swishray.ops.mediainfo import parse_ogg
    with pytest.raises(ValueError, match="capture"):
        parse_ogg(b"\x00" * 40)
    with pytest.raises(ValueError, match="sync"):
        parse_ogg(make_ogg_vorbis()[:58] + b"XXXX" + bytes(60))


def _ebml(eid, payload):
    out = eid.to_bytes((eid.bit_length() + 7) // 8, "big")
    n = len(payload)
    # 1-byte size when it fits, else 8-byte form
    if n < 127:
        out += bytes([0x80 | n])
    else:
        out += bytes([0x01]) + n.to_bytes(7, "big")
    return out + payload


def make_webm(dur_ms=2500.0, w=640, h=360, scale=1_000_000):
    head = _ebml(0x1A45DFA3, _ebml(0x4282, b"webm"))
    info = _ebml(0x1549A966,
                 _ebml(0x2AD7B1, scale.to_bytes(4, "big"))
                 + _ebml(0x4489, struct.pack(">d", dur_ms)))
    video = _ebml(0xE0, _ebml(0xB0, w.to_bytes(2, "big"))
                  + _ebml(0xBA, h.to_bytes(2, "big")))
    trk_v = _ebml(0xAE, _ebml(0x83, b"\x01")
                  + _ebml(0x86, b"V_VP9") + video)
    audio = _ebml(0xE1, _ebml(0xB5, struct.pack(">f", 48000.0))
                  + _ebml(0x9F, b"\x02"))
    trk_a = _ebml(0xAE, _ebml(0x83, b"\x02")
                  + _ebml(0x86, b"A_OPUS") + audio)
    tracks = _ebml(0x1654AE6B, trk_v + trk_a)
    return head + _ebml(0x18538067, info + tracks)


def test_webm_parse():
    from swishray.ops.mediainfo import parse_matroska
    info = parse_matroska(make_webm())
    assert info["container"] == "webm"
    assert info["duration_ms"] == 2500
    v, a = info["tracks"]
    assert v["kind"] == "video" and v["codec"] == "V_VP9"
    assert (v["width"], v["height"]) == (640, 360)
    assert a["kind"] == "audio" and a["codec"] == "A_OPUS"
    assert a["sample_rate"] == 48000 and a["channels"] == 2


def test_webm_unknown_size_segment():
    from swishray.ops.mediainfo import parse_matroska
    blob = make_webm()
    # rewrite the segment size as the 1-byte unknown-size form (0xFF):
    # streamed matroska commonly does this
    head_len = len(_ebml(0x1A45DFA3, _ebml(0x4282, b"webm")))
    seg_id = blob[head_len:head_len + 4]
    assert seg_id == b"\x18\x53\x80\x67"
    payload = blob[head_len + 5:]  # skip 1-byte size
    mutated = blob[:head_len + 4] + b"\xff" + payload
    info = parse_matroska(mutated)
    assert info["duration_ms"] == 2500 and len(info["tracks"]) == 2


def test_matroska_errors():
    from swishray.ops.mediainfo import parse_matroska
    with pytest.raises(ValueError, match="EBML"):
        parse_matroska(b"\x00" * 10)
    with pytest.raises(ValueError, match="no Matroska"):
        parse_matroska(_ebml(0x1A45DFA3, _ebml(0x4282, b"webm")))


def test_inspect_ogg_and_webm(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.mediainfo import inspect_media
    blobs = [make_webm(), make_ogg_vorbis(), make_ogg_opus()]
    ds = rd.from_arrow(pa.table({
        "media_id": pa.array(range(3), pa.int64()),
        "payload": pa.array(blobs, pa.binary())}))
    out = inspect_media(ds).to_pandas() \
        .sort_values("media_id").reset_index(drop=True)
    assert out.loc[0, "container"] == "webm"
    assert out.loc[0, "codec"] == "V_VP9"
    assert out.loc[0, "width"] == 640
    assert out.loc[0, "sample_rate"] == 48000  # the audio track
    assert out.loc[1, "container"] == "ogg"
    assert out.loc[1, "codec"] == "vorbis"
    assert out.loc[1, "duration_ms"] == 2000
    assert out.loc[2, "codec"] == "opus"
    assert out.loc[2, "duration_ms"] == 3000


def test_webm_duration_past_int64_is_one_error_row():
    """A flipped exponent byte in the WebM Duration float (offset 33,
    0x40 -> 0x46) gives duration_ms ~ 7.9e31: that row becomes a
    ValueError row and the valid row next to it is intact."""
    import pyarrow as pa
    from swishray.ops.mediainfo import synth_webm_blob
    good = synth_webm_blob(1000, 64, 48)
    bad = bytearray(good)
    assert bad[33] == 0x40
    bad[33] = 0x46
    out = InspectMedia()(pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "payload": pa.array([bytes(bad), good], pa.binary())}))
    rows = out.to_pylist()
    assert rows[0]["error"].startswith("ValueError: ")
    assert "duration_ms" in rows[0]["error"]
    assert rows[0]["container"] is None
    assert rows[0]["size_bytes"] == len(good)
    assert rows[1]["error"] is None
    assert (rows[1]["container"], rows[1]["duration_ms"],
            rows[1]["width"]) == ("webm", 1000, 64)


def test_inspect_any_row_exception_is_an_error_row():
    import pyarrow as pa
    from swishray.ops.mediainfo import synth_webm_blob

    class Boom(InspectMedia):
        def _inspect(self, blob):
            if blob == b"boom":
                raise KeyError("boom")
            return super()._inspect(blob)

    out = Boom()(pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "payload": pa.array([b"boom", synth_webm_blob(1000, 64, 48)],
                            pa.binary())})).to_pylist()
    assert out[0]["error"] == "KeyError: 'boom'"
    assert out[0]["size_bytes"] == 4
    assert out[1]["error"] is None and out[1]["duration_ms"] == 1000


def test_fuzz_inspect_never_escapes_error_taxonomy():
    """Adversarial robustness: random mutations + truncations of
    valid fixtures must land in the two documented error classes
    (or parse), never in struct.error / IndexError — those would
    reach the error column as bare offset faults instead of a
    named corrupt input."""
    import random
    from swishray.ops.mediainfo import (synth_mp3_blob,
                                        synth_mp4_blob,
                                        synth_ogg_vorbis_blob,
                                        synth_webm_blob)
    im = InspectMedia()
    rng = random.Random(7)
    fixtures = [synth_mp4_blob(2500, 320, 200, 42),
                synth_mp3_blob(7),
                synth_webm_blob(2500, 640, 360),
                synth_ogg_vorbis_blob(44100, 2, 88200)]
    for fix in fixtures:
        for _ in range(200):
            b = bytearray(fix)
            for _ in range(rng.randrange(1, 6)):
                b[rng.randrange(len(b))] = rng.randrange(256)
            b = bytes(b)[:rng.randrange(4, len(b) + 1)]
            try:
                im._inspect(b)
            except (NotImplementedError, ValueError):
                pass  # the error-column classes


def test_zip_gzip_pdf_triage():
    import gzip
    import io
    import zipfile
    from swishray.ops.mediainfo import zip_info
    im = InspectMedia()

    def mkzip(entries):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            for name, data in entries:
                zf.writestr(name, data)
        return buf.getvalue()

    docx = mkzip([("[Content_Types].xml", b"<Types/>"),
                  ("word/document.xml", b"<w:document/>")])
    epub = mkzip([("mimetype", b"application/epub+zip"),
                  ("OEBPS/content.opf", b"<package/>")])
    jar = mkzip([("META-INF/MANIFEST.MF", b"Manifest-Version: 1.0"),
                 ("a/B.class", b"\xca\xfe\xba\xbe")])
    plain = mkzip([("readme.txt", b"hi")])
    assert zip_info(docx)["doctype"] == "docx"
    assert zip_info(epub)["doctype"] == "epub"
    assert zip_info(jar)["doctype"] == "jar"
    assert zip_info(plain) == {"container": "zip", "doctype": "zip",
                               "n_entries": 1}
    out = im._inspect(docx)
    assert out["container"] == "zip" and out["codec"] == "docx"
    assert out["n_tracks"] == 2
    gz = gzip.compress(b"hello world")
    out = im._inspect(gz)
    assert out["container"] == "gzip" and out["codec"] == "deflate"
    out = im._inspect(b"%PDF-1.7\n...")
    assert out["container"] == "pdf" and out["codec"] == "PDF-1.7"
    with pytest.raises(ValueError, match="ZIP"):
        zip_info(b"PK\x03\x04" + b"\x00" * 40)
