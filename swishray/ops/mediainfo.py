"""Container-level media inspection (no decode): MP4/MOV demux and
MPEG-audio (MP3) frame-header parsing, plus a unified inspect stage.

At crawl scale most video/audio payloads are compressed with codecs
whose from-scratch decode is out of scope (H.264/H.265/AV1, MP3
synthesis); what a training-data pipeline still needs from them is
structural metadata — container, codec identity, dimensions,
duration, track layout — to route, filter, and budget downstream
work. This module provides that tier:

* :func:`parse_mp4` — ISO base-media (ISO/IEC 14496-12) box walker:
  brand, movie duration, per-track handler/codec fourcc, video
  dimensions, audio sample rate/channels, sample counts. Handles
  32/64-bit box sizes and version 0/1 full boxes. Pure structure —
  no sample data is touched, so a multi-GB file's head suffices.
* :func:`parse_mpeg_audio` — MPEG-1/2/2.5 Layer I/II/III frame
  headers (the public header tables): version, layer, bitrate,
  sample rate, channel mode; walks frame-to-frame for an exact frame
  count and duration, honors ID3v2 prefixes (syncsafe size) and the
  Xing/Info VBR header's frame count when present.
* :class:`InspectMedia` / :func:`inspect_media` — actor-pool
  map_batches stage dispatching on magic bytes across EVERYTHING the
  engine knows (decodable image/audio/video containers AND the
  inspect-only MP4/MP3 tier), emitting one metadata row per blob
  with the standard error-column taxonomy (ops/multimodal.py).

Scale shape: per-blob header parsing with zero driver state —
embarrassingly parallel under map_batches; inspect reads headers
only, so payload bytes stream through untouched (zero-copy Arrow
binary views).

Reference parity note: the reference engine (karpet/libswish3) stops
at MIME sniffing (mime.c); this tier is the Ray engine's extension
for multimodal crawl corpora.
"""

from __future__ import annotations

import functools
import struct
from typing import Any

import numpy as np
import pyarrow as pa


def _corrupt_guard(fn):
    """Parsers promise ValueError for structurally corrupt input;
    adversarial bytes can otherwise surface as struct.error /
    IndexError / OverflowError from offset arithmetic, which would
    escape the inspect stage's error-column catch and kill the
    actor (fuzz-verified in tests/test_mediainfo.py)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (struct.error, IndexError, OverflowError) as exc:
            raise ValueError(
                f"corrupt {fn.__name__} input: {exc}") from exc
    return wrapper

# ---------------------------------------------------------------------------
# MP4 / MOV (ISO base media file format)

_MP4_CONTAINERS = {b"moov", b"trak", b"mdia", b"minf", b"stbl",
                   b"edts", b"udta", b"mvex"}


def _boxes(blob: bytes, start: int, end: int):
    """Yield (type, payload_start, payload_end) for the boxes in
    [start, end); tolerates a truncated final box (header-only
    inspection must work on file heads)."""
    pos = start
    while pos + 8 <= end:
        (size,) = struct.unpack_from(">I", blob, pos)
        btype = blob[pos + 4:pos + 8]
        hdr = 8
        if size == 1:
            if pos + 16 > end:
                return
            (size,) = struct.unpack_from(">Q", blob, pos + 8)
            hdr = 16
        elif size == 0:
            size = end - pos  # box extends to end of file
        if size < hdr:
            raise ValueError("corrupt MP4 box size")
        yield btype, pos + hdr, min(pos + size, end)
        pos += size


def _full_box(blob: bytes, start: int) -> tuple[int, int]:
    ver = blob[start]
    return ver, start + 4  # version byte + 3 flag bytes


def _parse_stsd(blob: bytes, s: int, e: int, track: dict) -> None:
    _, p = _full_box(blob, s)
    (n_entries,) = struct.unpack_from(">I", blob, p)
    p += 4
    if n_entries < 1 or p + 8 > e:
        return
    fmt = blob[p + 4:p + 8]
    track["codec"] = fmt.decode("latin-1").strip()
    body = p + 8
    if track.get("kind") == "video" and body + 70 <= e:
        # VisualSampleEntry: 6 reserved + 2 data_ref + 16 predefined
        # + width(2) + height(2) (ISO 14496-12 section 12.1.3)
        w, h = struct.unpack_from(">HH", blob, body + 24)
        track["width"] = w
        track["height"] = h
    elif track.get("kind") == "audio" and body + 28 <= e:
        # AudioSampleEntry: 6+2 then 8 reserved, channelcount(2),
        # samplesize(2), 4 predefined, samplerate 16.16 (sect 12.2.3)
        ch, ss = struct.unpack_from(">HH", blob, body + 16)
        (sr_fixed,) = struct.unpack_from(">I", blob, body + 24)
        track["channels"] = ch
        track["sample_rate"] = sr_fixed >> 16


def _parse_track(blob: bytes, s: int, e: int) -> dict:
    track: dict = {"kind": "other", "codec": None}
    for btype, bs, be in _boxes(blob, s, e):
        if btype == b"tkhd":
            ver, p = _full_box(blob, bs)
            # v0: ctime/mtime/id/res/dur = 4+4+4+4+4; v1: 8+8+4+4+8
            p += 32 if ver else 20
            # layer(2) altgroup(2) volume(2) res(2) matrix(36)
            p += 44
            if p + 8 <= be:
                wf, hf = struct.unpack_from(">II", blob, p)
                if wf and hf:
                    track.setdefault("width", wf >> 16)
                    track.setdefault("height", hf >> 16)
        elif btype == b"mdia":
            for b2, s2, e2 in _boxes(blob, bs, be):
                if b2 == b"mdhd":
                    ver, p = _full_box(blob, s2)
                    if ver:
                        ts, dur = struct.unpack_from(">IQ", blob,
                                                     p + 16)
                    else:
                        ts, dur = struct.unpack_from(">II", blob,
                                                     p + 8)
                    track["timescale"] = ts
                    track["duration_s"] = dur / ts if ts else None
                elif b2 == b"hdlr":
                    handler = blob[s2 + 8:s2 + 12]
                    track["kind"] = {b"vide": "video",
                                     b"soun": "audio",
                                     b"text": "text",
                                     b"subt": "text"}.get(handler,
                                                          "other")
                elif b2 == b"minf":
                    for b3, s3, e3 in _boxes(blob, s2, e2):
                        if b3 != b"stbl":
                            continue
                        for b4, s4, e4 in _boxes(blob, s3, e3):
                            if b4 == b"stsd":
                                _parse_stsd(blob, s4, e4, track)
                            elif b4 == b"stts":
                                _, p = _full_box(blob, s4)
                                (n,) = struct.unpack_from(">I", blob,
                                                          p)
                                cnt = 0
                                for i in range(n):
                                    if p + 4 + 8 * i + 8 > e4:
                                        break
                                    c, _d = struct.unpack_from(
                                        ">II", blob, p + 4 + 8 * i)
                                    cnt += c
                                track["n_samples"] = cnt
    return track


@_corrupt_guard
def parse_mp4(blob: bytes) -> dict:
    """Parse an ISO base-media container (MP4/MOV/M4A/3GP) header:
    {"container": "mp4", "brand", "duration_s", "tracks": [...]}.
    Raises ValueError when the blob is not ISO-BMFF or the box tree
    is corrupt."""
    if len(blob) < 12 or blob[4:8] != b"ftyp":
        raise ValueError("not an ISO base-media file (no ftyp)")
    info: dict = {"container": "mp4", "brand": None,
                  "duration_s": None, "tracks": []}
    for btype, s, e in _boxes(blob, 0, len(blob)):
        if btype == b"ftyp":
            info["brand"] = blob[s:s + 4].decode("latin-1").strip()
        elif btype == b"moov":
            for b2, s2, e2 in _boxes(blob, s, e):
                if b2 == b"mvhd":
                    ver, p = _full_box(blob, s2)
                    if ver:
                        ts, dur = struct.unpack_from(">IQ", blob,
                                                     p + 16)
                    else:
                        ts, dur = struct.unpack_from(">II", blob,
                                                     p + 8)
                    info["duration_s"] = dur / ts if ts else None
                    info["duration_ms"] = (dur * 1000 // ts if ts
                                           else None)
                elif b2 == b"trak":
                    info["tracks"].append(
                        _parse_track(blob, s2, e2))
    if not info["tracks"] and info["duration_s"] is None:
        raise ValueError("ISO base-media file with no movie box")
    return info


# ---------------------------------------------------------------------------
# MPEG audio (MP3 and friends)

# bitrate tables in kbit/s, index 1..14 (0 = free, 15 = bad):
# (version-class, layer) -> tuple  (ISO 11172-3 / 13818-3)
_BR = {
    (1, 1): (32, 64, 96, 128, 160, 192, 224, 256, 288, 320, 352,
             384, 416, 448),
    (1, 2): (32, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 256,
             320, 384),
    (1, 3): (32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224,
             256, 320),
    (2, 1): (32, 48, 56, 64, 80, 96, 112, 128, 144, 160, 176, 192,
             224, 256),
    (2, 2): (8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112, 128, 144,
             160),
}
_SR = {3: (44100, 48000, 32000),    # MPEG-1
       2: (22050, 24000, 16000),    # MPEG-2
       0: (11025, 12000, 8000)}     # MPEG-2.5


def _frame_header(b0: int, b1: int, b2: int, b3: int):
    """Decode one 4-byte MPEG audio frame header -> (frame_len,
    samples_per_frame, sample_rate, bitrate_kbps, channels, version,
    layer) or None if not a valid header."""
    if b0 != 0xFF or (b1 & 0xE0) != 0xE0:
        return None
    ver_bits = (b1 >> 3) & 3          # 0=2.5, 1=resv, 2=2, 3=1
    layer_bits = (b1 >> 1) & 3        # 1=III, 2=II, 3=I
    if ver_bits == 1 or layer_bits == 0:
        return None
    layer = 4 - layer_bits            # 1, 2, 3
    br_idx = (b2 >> 4) & 15
    sr_idx = (b2 >> 2) & 3
    if br_idx in (0, 15) or sr_idx == 3:
        return None
    padding = (b2 >> 1) & 1
    mode = (b3 >> 6) & 3
    channels = 1 if mode == 3 else 2
    v1 = ver_bits == 3
    br_layer = layer if v1 else (1 if layer == 1 else 2)
    bitrate = _BR[(1 if v1 else 2, br_layer)][br_idx - 1]
    sample_rate = _SR[ver_bits][sr_idx]
    if layer == 1:
        spf = 384
        flen = (12000 * bitrate // sample_rate + padding) * 4
    else:
        spf = 1152 if (v1 or layer == 2) else 576
        if layer == 3 and not v1:
            flen = 72000 * bitrate // sample_rate + padding
        else:
            flen = 144000 * bitrate // sample_rate + padding
    version = {3: 1.0, 2: 2.0, 0: 2.5}[ver_bits]
    return flen, spf, sample_rate, bitrate, channels, version, layer


def _skip_id3v2(blob: bytes) -> tuple[int, bool]:
    if blob[:3] != b"ID3" or len(blob) < 10:
        return 0, False
    flags = blob[5]
    size = ((blob[6] & 0x7F) << 21 | (blob[7] & 0x7F) << 14
            | (blob[8] & 0x7F) << 7 | (blob[9] & 0x7F))
    return 10 + size + (10 if flags & 0x10 else 0), True


@_corrupt_guard
def parse_mpeg_audio(blob: bytes, max_frames: int = 2_000_000) -> dict:
    """Parse an MPEG audio (MP3/MP2/MP1) stream's frame headers:
    {"container": "mpeg-audio", "layer", "version", "sample_rate",
    "channels", "bitrate_kbps" (first frame), "n_frames",
    "duration_s", "vbr", "id3v2"}. Frame count/duration walk the
    header chain exactly; a Xing/Info tag's frame count is used when
    the walk is cut short (truncated head of a large file). Raises
    ValueError when no MPEG frame sync is found."""
    pos, id3 = _skip_id3v2(blob)
    n = len(blob)
    # resync tolerance: scan up to 64 KiB for the first valid header
    first = None
    limit = min(n - 4, pos + 65536)
    while pos <= limit:
        hdr = _frame_header(blob[pos], blob[pos + 1], blob[pos + 2],
                            blob[pos + 3]) if pos + 4 <= n else None
        if hdr:
            first = hdr
            break
        pos += 1
    if first is None:
        raise ValueError("no MPEG audio frame sync found")
    flen, spf, sr, br, ch, version, layer = first
    # Xing/Info VBR tag sits after the Layer III side info
    xing_frames = None
    if layer == 3:
        side = (17 if ch == 1 else 32) if version == 1.0 else \
            (9 if ch == 1 else 17)
        xp = pos + 4 + side
        if blob[xp:xp + 4] in (b"Xing", b"Info") and xp + 12 <= n:
            (xflags,) = struct.unpack_from(">I", blob, xp + 4)
            if xflags & 1:
                (xing_frames,) = struct.unpack_from(">I", blob,
                                                    xp + 8)
    n_frames = 0
    bitrates = set()
    p = pos
    while p + 4 <= n and n_frames < max_frames:
        hdr = _frame_header(blob[p], blob[p + 1], blob[p + 2],
                            blob[p + 3])
        if hdr is None:
            break
        bitrates.add(hdr[3])
        n_frames += 1
        p += hdr[0]
    truncated = p + 4 <= n and n_frames >= max_frames
    frames_total = n_frames
    if xing_frames is not None and (truncated or p < n):
        frames_total = max(frames_total, xing_frames)
    return {
        "container": "mpeg-audio",
        "layer": layer,
        "version": version,
        "sample_rate": sr,
        "channels": ch,
        "bitrate_kbps": br,
        "n_frames": frames_total,
        "duration_s": frames_total * spf / sr,
        "duration_ms": frames_total * spf * 1000 // sr,
        "vbr": len(bitrates) > 1 or xing_frames is not None,
        "id3v2": id3,
    }


# ---------------------------------------------------------------------------
# Ogg (Vorbis / Opus / Theora identification headers, RFC 3533)


@_corrupt_guard
def parse_ogg(blob: bytes) -> dict:
    """Walk Ogg page headers (never page bodies beyond the BOS
    identification packets): codec identity per logical stream,
    sample rate/channels (Vorbis/Opus), video dims (Theora), and
    duration from the final granule position of the leading stream.
    Raises ValueError when the page chain is corrupt."""
    if blob[:4] != b"OggS":
        raise ValueError("not an Ogg stream (bad capture pattern)")
    streams: dict[int, dict] = {}
    last_granule: dict[int, int] = {}
    pos = 0
    n = len(blob)
    while pos + 27 <= n:
        if blob[pos:pos + 4] != b"OggS":
            raise ValueError("Ogg page sync lost")
        htype = blob[pos + 5]
        (granule,) = struct.unpack_from("<q", blob, pos + 6)
        (serial,) = struct.unpack_from("<I", blob, pos + 14)
        nsegs = blob[pos + 26]
        lacing = blob[pos + 27:pos + 27 + nsegs]
        if len(lacing) < nsegs:
            break  # truncated head is fine for inspection
        body = pos + 27 + nsegs
        body_len = sum(lacing)
        if htype & 2:  # beginning-of-stream: identification packet
            pkt = blob[body:body + body_len]
            info: dict = {"codec": None}
            if pkt[:7] == b"\x01vorbis" and len(pkt) >= 28:
                info["codec"] = "vorbis"
                info["kind"] = "audio"
                info["channels"] = pkt[11]
                (info["sample_rate"],) = struct.unpack_from(
                    "<I", pkt, 12)
            elif pkt[:8] == b"OpusHead" and len(pkt) >= 18:
                info["codec"] = "opus"
                info["kind"] = "audio"
                info["channels"] = pkt[9]
                (info["pre_skip"],) = struct.unpack_from("<H", pkt,
                                                         10)
                # Opus granules tick at 48 kHz regardless of input
                info["sample_rate"] = 48000
            elif pkt[:7] == b"\x80theora" and len(pkt) >= 26:
                info["codec"] = "theora"
                info["kind"] = "video"
                # frame width/height: 16-bit macroblock counts x16
                fmbw, fmbh = struct.unpack_from(">HH", pkt, 10)
                info["width"] = fmbw * 16
                info["height"] = fmbh * 16
            else:
                info["codec"] = "unknown"
                info["kind"] = "other"
            streams[serial] = info
        if granule >= 0:
            last_granule[serial] = granule
        pos = body + body_len
    if not streams:
        raise ValueError("Ogg with no beginning-of-stream page")
    out = {"container": "ogg", "tracks": list(streams.values()),
           "duration_ms": None}
    for serial, info in streams.items():
        g = last_granule.get(serial)
        sr = info.get("sample_rate")
        if g is not None and sr:
            samples = g - info.get("pre_skip", 0)
            info["duration_ms"] = max(samples, 0) * 1000 // sr
            if out["duration_ms"] is None:
                out["duration_ms"] = info["duration_ms"]
    return out


# ---------------------------------------------------------------------------
# Matroska / WebM (EBML)


def _ebml_vint(blob: bytes, pos: int,
               keep_marker: bool) -> tuple[int, int]:
    """One EBML variable-length integer at ``pos`` -> (value,
    next_pos). Element IDs keep the marker bit; sizes strip it."""
    if pos >= len(blob):
        raise ValueError("truncated EBML varint")
    first = blob[pos]
    if first == 0:
        raise ValueError("invalid EBML varint")
    length = 9 - first.bit_length()
    if pos + length > len(blob):
        raise ValueError("truncated EBML varint")
    raw = int.from_bytes(blob[pos:pos + length], "big")
    if not keep_marker:
        raw &= (1 << (7 * length)) - 1
    return raw, pos + length


def _ebml_walk(blob: bytes, start: int, end: int):
    """Yield (element_id, payload_start, payload_end); an
    unknown-size element (all-ones size) extends to ``end``."""
    pos = start
    while pos < end:
        eid, p = _ebml_vint(blob, pos, keep_marker=True)
        size, p2 = _ebml_vint(blob, p, keep_marker=False)
        slen = p2 - p
        if size == (1 << (7 * slen)) - 1:  # unknown size
            yield eid, p2, end
            return
        yield eid, p2, min(p2 + size, end)
        pos = p2 + size


def _ebml_uint(blob: bytes, s: int, e: int) -> int:
    return int.from_bytes(blob[s:e], "big")


def _ebml_float(blob: bytes, s: int, e: int) -> float:
    if e - s == 4:
        return struct.unpack(">f", blob[s:e])[0]
    if e - s == 8:
        return struct.unpack(">d", blob[s:e])[0]
    raise ValueError("bad EBML float width")


@_corrupt_guard
def parse_matroska(blob: bytes) -> dict:
    """Matroska/WebM header walk: doctype, duration (Info
    TimecodeScale x Duration), per-track codec id / type / video
    dims / audio rate+channels. Cluster payloads are never touched.
    Raises ValueError for non-EBML input."""
    if blob[:4] != b"\x1aE\xdf\xa3":
        raise ValueError("not an EBML stream")
    doctype = "matroska"
    out: dict = {"container": doctype, "duration_ms": None,
                 "tracks": []}
    for eid, s, e in _ebml_walk(blob, 0, len(blob)):
        if eid == 0x1A45DFA3:  # EBML header
            for e2, s2, e2e in _ebml_walk(blob, s, e):
                if e2 == 0x4282:  # DocType
                    doctype = blob[s2:e2e].decode("ascii", "replace")
                    out["container"] = doctype
        elif eid == 0x18538067:  # Segment
            scale = 1_000_000  # ns per tick (default)
            dur_ticks: float | None = None
            for e2, s2, e2e in _ebml_walk(blob, s, e):
                if e2 == 0x1549A966:  # Info
                    for e3, s3, e3e in _ebml_walk(blob, s2, e2e):
                        if e3 == 0x2AD7B1:
                            scale = _ebml_uint(blob, s3, e3e)
                        elif e3 == 0x4489:
                            dur_ticks = _ebml_float(blob, s3, e3e)
                elif e2 == 0x1654AE6B:  # Tracks
                    for e3, s3, e3e in _ebml_walk(blob, s2, e2e):
                        if e3 != 0xAE:  # TrackEntry
                            continue
                        tr: dict = {"kind": "other", "codec": None}
                        for e4, s4, e4e in _ebml_walk(blob, s3, e3e):
                            if e4 == 0x83:
                                tr["kind"] = {1: "video",
                                              2: "audio",
                                              17: "text"}.get(
                                    _ebml_uint(blob, s4, e4e),
                                    "other")
                            elif e4 == 0x86:
                                tr["codec"] = blob[s4:e4e].decode(
                                    "ascii", "replace")
                            elif e4 == 0xE0:  # Video
                                for e5, s5, e5e in _ebml_walk(
                                        blob, s4, e4e):
                                    if e5 == 0xB0:
                                        tr["width"] = _ebml_uint(
                                            blob, s5, e5e)
                                    elif e5 == 0xBA:
                                        tr["height"] = _ebml_uint(
                                            blob, s5, e5e)
                            elif e4 == 0xE1:  # Audio
                                for e5, s5, e5e in _ebml_walk(
                                        blob, s4, e4e):
                                    if e5 == 0xB5:
                                        tr["sample_rate"] = int(
                                            _ebml_float(blob, s5,
                                                        e5e))
                                    elif e5 == 0x9F:
                                        tr["channels"] = _ebml_uint(
                                            blob, s5, e5e)
                        out["tracks"].append(tr)
            if dur_ticks is not None:
                out["duration_ms"] = int(dur_ticks * scale
                                         // 1_000_000)
    if not out["tracks"] and out["duration_ms"] is None:
        raise ValueError("EBML stream with no Matroska segment data")
    return out


# ---------------------------------------------------------------------------
# header-only probes for the engine's decodable containers (the
# decoders in ops/codecs.py/jpeg.py/tiff.py/flac.py parse pixels —
# inspect must not)


@_corrupt_guard
def _flac_info(blob: bytes) -> dict:
    """STREAMINFO fields without decoding frames (FLAC spec: first
    metadata block is always STREAMINFO, 34 bytes)."""
    if blob[:4] != b"fLaC" or len(blob) < 42:
        raise ValueError("not a FLAC stream")
    si = blob[8:42]  # first block header is 4 bytes after the magic
    if (blob[4] & 0x7F) != 0:
        raise ValueError("FLAC without leading STREAMINFO")
    rate = (si[10] << 12) | (si[11] << 4) | (si[12] >> 4)
    ch = ((si[12] >> 1) & 7) + 1
    total = ((si[13] & 0x0F) << 32) | int.from_bytes(si[14:18], "big")
    return {"sample_rate": rate, "channels": ch,
            "total_samples": total}


@_corrupt_guard
def _y4m_info(blob: bytes) -> dict:
    from .codecs import _Y4M_CHROMA_FACTOR
    eol = blob.find(b"\n")
    if not blob.startswith(b"YUV4MPEG2") or eol < 0:
        raise ValueError("not a Y4M stream")
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
    fsz = w * h + 2 * int(w * h * _Y4M_CHROMA_FACTOR.get(chroma, 0.25))
    # stride-walk the FRAME markers; parameters ride the marker line
    n = 0
    pos = eol + 1
    while pos < len(blob) and blob[pos:pos + 5] == b"FRAME":
        fe = blob.find(b"\n", pos)
        if fe < 0:
            break
        n += 1
        pos = fe + 1 + fsz
    return {"codec": "y4m", "width": w, "height": h, "n_frames": n,
            "fps": fps_num / fps_den if fps_den and fps_num else None}


@_corrupt_guard
def _avi_info(blob: bytes) -> dict:
    from .codecs import _RIFF_MAX_DEPTH, _riff_chunks
    if blob[:4] != b"RIFF" or blob[8:12] != b"AVI ":
        raise ValueError("not an AVI")
    out: dict = {"codec": None, "width": None, "height": None,
                 "n_frames": 0, "fps": None}
    cur_stream = None

    def walk(start: int, end: int, depth: int = 0) -> None:
        nonlocal cur_stream
        if depth > _RIFF_MAX_DEPTH:
            raise ValueError("AVI LIST nesting too deep")
        for fcc, off, size in _riff_chunks(blob, start, end):
            if fcc.startswith(b"LIST:"):
                walk(off, off + size, depth + 1)
            elif fcc == b"strh" and size >= 32:
                cur_stream = blob[off:off + 4]
                if cur_stream == b"vids":
                    h = blob[off + 4:off + 8]
                    if h.strip(b"\x00 "):
                        out["codec"] = h.decode("latin-1").strip()
                    scale, rate = struct.unpack_from("<II", blob,
                                                     off + 20)
                    if scale and rate:
                        out["fps"] = rate / scale
            elif fcc == b"strf" and size >= 40 \
                    and cur_stream in (b"vids", None):
                bw, bh = struct.unpack_from("<ii", blob, off + 4)
                out["width"] = out["width"] or abs(bw)
                out["height"] = out["height"] or abs(bh)
                if out["codec"] is None:
                    c = blob[off + 16:off + 20]
                    if c.strip(b"\x00 "):
                        out["codec"] = c.decode("latin-1").strip()
            elif fcc[2:4] in (b"dc", b"db") and size > 0:
                out["n_frames"] += 1

    walk(12, len(blob))
    return out


@_corrupt_guard
def image_header_info(blob: bytes, kind: str) -> dict:
    """Width/height (and frame count where the container header
    carries one) from format headers alone."""
    if kind == "png":
        if len(blob) < 24:
            raise ValueError("truncated PNG header")
        w, h = struct.unpack_from(">II", blob, 16)
        info = {"width": w, "height": h}
        # acTL (APNG) sits among the leading chunks before IDAT
        pos = 8
        while pos + 8 <= len(blob):
            (clen,) = struct.unpack_from(">I", blob, pos)
            ctype = blob[pos + 4:pos + 8]
            if ctype == b"acTL" and pos + 12 <= len(blob):
                (info["n_frames"],) = struct.unpack_from(
                    ">I", blob, pos + 8)
                break
            if ctype in (b"IDAT", b"IEND"):
                break
            pos += 12 + clen
        return info
    if kind == "gif":
        if len(blob) < 10:
            raise ValueError("truncated GIF header")
        w, h = struct.unpack_from("<HH", blob, 6)
        return {"width": w, "height": h}
    if kind == "bmp":
        if len(blob) < 26:
            raise ValueError("truncated BMP header")
        w, h = struct.unpack_from("<ii", blob, 18)
        return {"width": abs(w), "height": abs(h)}
    if kind == "ppm":
        toks = blob[:200].split()
        if len(toks) >= 3:
            try:
                return {"width": int(toks[1]), "height": int(toks[2])}
            except ValueError:
                pass
        raise ValueError("truncated PPM header")
    if kind == "jpeg":
        pos = 2
        n = len(blob)
        while pos + 4 <= n:
            if blob[pos] != 0xFF:
                raise ValueError("JPEG marker sync lost")
            marker = blob[pos + 1]
            if marker in (0x01,) or 0xD0 <= marker <= 0xD9:
                pos += 2
                continue
            (seglen,) = struct.unpack_from(">H", blob, pos + 2)
            if 0xC0 <= marker <= 0xCF and marker not in (0xC4, 0xC8,
                                                         0xCC):
                _prec, h, w = struct.unpack_from(">BHH", blob, pos + 4)
                return {"width": w, "height": h}
            pos += 2 + seglen
        raise ValueError("JPEG with no frame header")
    if kind == "tiff":
        from .tiff import _read_ifd, _tag
        e = "<" if blob[:2] == b"II" else ">"
        (ifd0,) = struct.unpack_from(e + "I", blob, 4)
        entries, _ = _read_ifd(blob, ifd0, e)
        return {"width": _tag(entries, 256, (0,))[0],
                "height": _tag(entries, 257, (0,))[0]}
    if kind == "webp":
        if len(blob) < 30:
            raise ValueError("truncated WebP header")
        fourcc = blob[12:16]
        if fourcc == b"VP8X":
            wm1 = int.from_bytes(blob[24:27], "little")
            hm1 = int.from_bytes(blob[27:30], "little")
            return {"width": wm1 + 1, "height": hm1 + 1}
        if fourcc == b"VP8L":
            bits = int.from_bytes(blob[21:25], "little")
            return {"width": (bits & 0x3FFF) + 1,
                    "height": ((bits >> 14) & 0x3FFF) + 1}
        if fourcc == b"VP8 ":
            w, h = struct.unpack_from("<HH", blob, 26)
            return {"width": w & 0x3FFF, "height": h & 0x3FFF}
        raise ValueError(f"unknown WebP chunk {fourcc!r}")
    raise NotImplementedError(f"no header probe for {kind}")


@_corrupt_guard
def zip_info(blob: bytes) -> dict:
    """ZIP-family triage via the stdlib: entry count plus a doctype
    classification for the common ZIP-container documents (OOXML
    docx/xlsx/pptx, EPUB, JAR, ODF) — crawl corpora are full of
    them and they should route to document extraction, not media
    decode."""
    import io
    import zipfile
    try:
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            names = zf.namelist()
            doctype = "zip"
            if "mimetype" in names:
                try:
                    mt = zf.read("mimetype")[:100].decode(
                        "ascii", "replace")
                    if "epub" in mt:
                        doctype = "epub"
                    elif "opendocument" in mt:
                        doctype = "odf"
                except Exception:
                    pass
            elif "[Content_Types].xml" in names:
                roots = {n.split("/", 1)[0] for n in names}
                doctype = ("docx" if "word" in roots else
                           "xlsx" if "xl" in roots else
                           "pptx" if "ppt" in roots else "ooxml")
            elif "META-INF/MANIFEST.MF" in names:
                doctype = "jar"
            return {"container": "zip", "doctype": doctype,
                    "n_entries": len(names)}
    except zipfile.BadZipFile as exc:
        raise ValueError(f"corrupt ZIP: {exc}") from exc


# ---------------------------------------------------------------------------
# unified inspect stage


def sniff_media(blob: bytes) -> str | None:
    """Container identity across everything the engine knows —
    decodable formats (ops/codecs.py sniff) plus the inspect-only
    MP4 / MPEG-audio tier."""
    from .codecs import sniff_image
    img = sniff_image(blob)
    if img:
        return img
    if len(blob) >= 12:
        if blob[4:8] == b"ftyp":
            return "mp4"
        if blob[:4] == b"RIFF" and blob[8:12] == b"WAVE":
            return "wav"
        if blob[:4] == b"RIFF" and blob[8:12] == b"AVI ":
            return "avi"
        if blob[:4] == b"fLaC":
            return "flac"
        if blob[:9] == b"YUV4MPEG2":
            return "y4m"
        if blob[:4] == b"OggS":
            return "ogg"
        if blob[:4] == b"\x1aE\xdf\xa3":
            return "matroska"
        if blob[:4] == b"PK\x03\x04":
            return "zip"
        if blob[:5] == b"%PDF-":
            return "pdf"
    if blob[:2] == b"\x1f\x8b":
        return "gzip"
    if blob[:3] == b"ID3":
        return "mpeg-audio"
    if len(blob) >= 4 and _frame_header(blob[0], blob[1], blob[2],
                                        blob[3]):
        return "mpeg-audio"
    return None


_INSPECT_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("container", pa.string()),
    ("codec", pa.string()),
    ("width", pa.int64()),
    ("height", pa.int64()),
    ("duration_ms", pa.int64()),
    ("n_tracks", pa.int64()),
    ("n_frames", pa.int64()),
    ("sample_rate", pa.int64()),
    ("channels", pa.int64()),
    ("size_bytes", pa.int64()),
    ("error", pa.string()),
])


class InspectMedia:
    """Actor-pool stage: one metadata row per blob, header-only (no
    sample decode). Unknown magics and corrupt headers land in the
    error column (multimodal taxonomy); every known container —
    decodable or inspect-only — yields container/codec/dims/duration
    as available."""

    def __init__(self, key: str = "media_id", col: str = "payload"):
        self.key = key
        self.col = col

    def _inspect(self, blob: bytes) -> dict:
        kind = sniff_media(blob)
        if kind is None:
            raise NotImplementedError("unknown media container")
        out: dict = {"container": kind, "codec": None, "width": None,
                     "height": None, "duration_ms": None,
                     "n_tracks": None, "n_frames": None,
                     "sample_rate": None, "channels": None}
        if kind == "mp4":
            info = parse_mp4(blob)
            out["n_tracks"] = len(info["tracks"])
            out["duration_ms"] = info.get("duration_ms")
            vid = next((t for t in info["tracks"]
                        if t["kind"] == "video"), None)
            aud = next((t for t in info["tracks"]
                        if t["kind"] == "audio"), None)
            lead = vid or aud or (info["tracks"][0]
                                  if info["tracks"] else None)
            if lead:
                out["codec"] = lead.get("codec")
                out["width"] = lead.get("width")
                out["height"] = lead.get("height")
                out["n_frames"] = lead.get("n_samples")
            if aud:
                out["sample_rate"] = aud.get("sample_rate")
                out["channels"] = aud.get("channels")
            return out
        if kind == "zip":
            info = zip_info(blob)
            out["codec"] = info["doctype"]
            out["n_tracks"] = info["n_entries"]
            return out
        if kind == "gzip":
            out["codec"] = "deflate"
            return out
        if kind == "pdf":
            # structural probe (xref + page tree, no decryption):
            # page count -> n_frames, object count -> n_tracks,
            # encryption flavor folded into codec
            out["codec"] = blob[1:8].decode("latin-1")  # PDF-1.x
            try:
                from .pdfcos import pdf_info
                info = pdf_info(blob)
                out["codec"] = info["version"] + (
                    "/" + info["encryption"] if info["encryption"]
                    else "")
                out["n_frames"] = info["n_pages"]
                out["n_tracks"] = info["n_objects"]
            except Exception:  # noqa: BLE001 — magic-only fallback
                pass
            return out
        if kind in ("ogg", "matroska"):
            info = parse_ogg(blob) if kind == "ogg" \
                else parse_matroska(blob)
            out["container"] = info["container"]
            out["duration_ms"] = info.get("duration_ms")
            out["n_tracks"] = len(info["tracks"])
            vid = next((t for t in info["tracks"]
                        if t.get("kind") == "video"), None)
            aud = next((t for t in info["tracks"]
                        if t.get("kind") == "audio"), None)
            lead = vid or aud or (info["tracks"][0]
                                  if info["tracks"] else None)
            if lead:
                out["codec"] = lead.get("codec")
                out["width"] = lead.get("width")
                out["height"] = lead.get("height")
            if aud:
                out["sample_rate"] = aud.get("sample_rate")
                out["channels"] = aud.get("channels")
            return out
        if kind == "mpeg-audio":
            info = parse_mpeg_audio(blob)
            out["codec"] = f"mp{info['layer']}"
            out["duration_ms"] = info["duration_ms"]
            out["n_frames"] = info["n_frames"]
            out["sample_rate"] = info["sample_rate"]
            out["channels"] = info["channels"]
            return out
        if kind == "wav":
            import wave
            import io
            with wave.open(io.BytesIO(blob)) as wf:
                out["codec"] = "pcm"
                out["sample_rate"] = wf.getframerate()
                out["channels"] = wf.getnchannels()
                out["n_frames"] = wf.getnframes()
                if wf.getframerate():
                    out["duration_ms"] = (wf.getnframes() * 1000
                                          // wf.getframerate())
            return out
        if kind == "flac":
            si = _flac_info(blob)
            out["codec"] = "flac"
            out["sample_rate"] = si["sample_rate"]
            out["channels"] = si["channels"]
            out["n_frames"] = si["total_samples"]
            if si["sample_rate"]:
                out["duration_ms"] = (si["total_samples"] * 1000
                                      // si["sample_rate"])
            return out
        if kind in ("y4m", "avi"):
            vi = _y4m_info(blob) if kind == "y4m" else _avi_info(blob)
            out["codec"] = vi.get("codec")
            out["width"] = vi.get("width")
            out["height"] = vi.get("height")
            out["n_frames"] = vi.get("n_frames")
            if vi.get("fps") and vi.get("n_frames"):
                out["duration_ms"] = int(
                    round(vi["n_frames"] * 1000 / vi["fps"]))
            return out
        # decodable still-image formats: header-only dims
        hi = image_header_info(blob, kind)
        out["codec"] = kind
        out["width"] = hi.get("width")
        out["height"] = hi.get("height")
        out["n_frames"] = hi.get("n_frames")
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.key).to_pylist()
        payload = batch.column(self.col)
        rows = {f.name: [] for f in _INSPECT_SCHEMA}
        for i, k in enumerate(keys):
            blob = payload[i].as_py()
            rows["media_id"].append(k)
            rows["size_bytes"].append(len(blob) if blob else 0)
            try:
                info = self._inspect(blob or b"")
                err = None
            except (NotImplementedError, ValueError) as exc:
                info = {"container": None, "codec": None,
                        "width": None, "height": None,
                        "duration_ms": None, "n_tracks": None,
                        "n_frames": None, "sample_rate": None,
                        "channels": None}
                err = f"{type(exc).__name__}: {exc}"
            for name, v in info.items():
                rows[name].append(v)
            rows["error"].append(err)
        return pa.Table.from_pydict(rows, schema=_INSPECT_SCHEMA)


def synth_mp4_blob(duration_ms: int, width: int, height: int,
                   n_samples: int, codec: bytes = b"avc1") -> bytes:
    """Deterministic minimal ISO-BMFF fixture (ftyp + moov with one
    video trak; timescale 1000 so duration_ms is exact) — the MP4
    analog of ops/multimodal.synth_image_blob, for tests and the
    oracle queries."""
    def box(t, payload):
        return struct.pack(">I", 8 + len(payload)) + t + payload

    def full(t, payload):
        return box(t, bytes(4) + payload)

    mvhd = full(b"mvhd", struct.pack(">II", 0, 0)
                + struct.pack(">II", 1000, duration_ms) + bytes(80))
    tkhd = full(b"tkhd", struct.pack(">IIII", 0, 0, 1, 0)
                + struct.pack(">I", duration_ms) + bytes(44)
                + struct.pack(">II", width << 16, height << 16))
    mdhd = full(b"mdhd", struct.pack(">II", 0, 0)
                + struct.pack(">II", 1000, duration_ms)
                + struct.pack(">HH", 0, 0))
    hdlr = full(b"hdlr", bytes(4) + b"vide" + bytes(12) + b"\x00")
    entry = (struct.pack(">I", 8 + 78) + codec + bytes(6)
             + struct.pack(">H", 1) + bytes(16)
             + struct.pack(">HH", width, height) + bytes(46))
    stsd = full(b"stsd", struct.pack(">I", 1) + entry)
    stts = full(b"stts", struct.pack(">III", 1, n_samples, 100))
    mdia = box(b"mdia", mdhd + hdlr
               + box(b"minf", box(b"stbl", stsd + stts)))
    moov = box(b"moov", mvhd + box(b"trak", tkhd + mdia))
    return box(b"ftyp", b"isom" + struct.pack(">I", 512)
               + b"isommp42") + moov


def synth_mp3_blob(n_frames: int, br_idx: int = 9,
                   mode: int = 0) -> bytes:
    """Deterministic MPEG-1 Layer III CBR fixture: ``n_frames``
    frames at 44100 Hz (bitrate from the public table row
    ``br_idx``), zero payload — valid headers are all inspect
    reads."""
    b1 = 0xE0 | (3 << 3) | (1 << 1) | 1
    b2 = (br_idx << 4) | (0 << 2)
    hdr = bytes([0xFF, b1, b2, mode << 6])
    br = _BR[(1, 3)][br_idx - 1]
    flen = 144000 * br // 44100
    return (hdr + bytes(flen - 4)) * n_frames


def synth_ogg_vorbis_blob(sample_rate: int, channels: int,
                          total_samples: int) -> bytes:
    """Deterministic minimal Ogg-Vorbis fixture: BOS identification
    page + an EOS page carrying the final granule position (CRC 0 —
    the inspect tier does not checksum)."""
    def page(seqno, granule, pkt, htype=0):
        lacing = b""
        n = len(pkt)
        while n >= 255:
            lacing += bytes([255])
            n -= 255
        lacing += bytes([n])
        return (b"OggS\x00" + bytes([htype])
                + struct.pack("<q", granule)
                + struct.pack("<I", 7) + struct.pack("<I", seqno)
                + struct.pack("<I", 0)
                + bytes([len(lacing)]) + lacing + pkt)

    ident = (b"\x01vorbis" + struct.pack("<I", 0) + bytes([channels])
             + struct.pack("<I", sample_rate) + bytes(12) + b"\x01")
    return (page(0, 0, ident, htype=2)
            + page(1, total_samples, bytes(9), htype=4))


def synth_webm_blob(duration_ms: int, width: int,
                    height: int) -> bytes:
    """Deterministic minimal WebM fixture: EBML header + Segment with
    Info (TimecodeScale 1 ms so duration_ms is exact) and a VP9 video
    track + Opus audio track."""
    def el(eid, payload):
        out = eid.to_bytes((eid.bit_length() + 7) // 8, "big")
        out += bytes([0x80 | len(payload)]) if len(payload) < 127 \
            else bytes([0x01]) + len(payload).to_bytes(7, "big")
        return out + payload

    head = el(0x1A45DFA3, el(0x4282, b"webm"))
    info = el(0x1549A966,
              el(0x2AD7B1, (1_000_000).to_bytes(4, "big"))
              + el(0x4489, struct.pack(">d", float(duration_ms))))
    video = el(0xE0, el(0xB0, width.to_bytes(2, "big"))
               + el(0xBA, height.to_bytes(2, "big")))
    trk_v = el(0xAE, el(0x83, b"\x01") + el(0x86, b"V_VP9") + video)
    audio = el(0xE1, el(0xB5, struct.pack(">f", 48000.0))
               + el(0x9F, b"\x02"))
    trk_a = el(0xAE, el(0x83, b"\x02") + el(0x86, b"A_OPUS") + audio)
    return head + el(0x18538067,
                     info + el(0x1654AE6B, trk_v + trk_a))


def inspect_media(ds: Any, key: str = "media_id",
                  col: str = "payload", concurrency: int = 4,
                  batch_size: int = 64) -> Any:
    """Header-only media inspection over a blob column — the triage
    stage of a multimodal pipeline (route by codec, filter by
    dims/duration, budget decode work) that never touches sample
    data. One actor pool, zero shuffles."""
    return ds.map_batches(InspectMedia(key, col),
                          batch_format="pyarrow",
                          batch_size=batch_size,
                          concurrency=concurrency)
