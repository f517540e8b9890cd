"""Multimodal columns: image/audio/video as opaque binary columns
with typed metadata, decoded by REAL from-scratch codecs
(ops/codecs.py, ops/jpeg.py, ops/tiff.py, ops/webp.py): PNG (zlib
inflate + scanline un-filtering + Adam7), JPEG (baseline +
progressive DCT), GIF (LZW + frame compositing), TIFF (strips:
none/LZW/PackBits/Deflate), WebP lossless (full VP8L: prefix codes,
color cache, meta groups, LZ77 2-D distances, all four transforms),
WebP lossy (full VP8 intra-frame decode per RFC 6386, with ALPH
alpha planes — ops/vp8.py), BMP, PPM/PGM, WAV (RIFF/PCM + IEEE
float) and Y4M video; animated GIF/WebP frame-sample through
SampleVideoFrames. Flavors that would need a codec we haven't built
(MP4/H.26x inter-frame video) raise NotImplementedError into the
per-row error column — distinguishable from ValueError, which marks
a CORRUPT file of a supported format.

The deterministic synthetic containers ("SWIM"/"SWAU"/"SWVI" headers)
are kept for tests/demos — they exercise the same plumbing with
zero-cost payload generation.

Fake container layouts (big-endian):
  image: b"SWIM" + u16 width + u16 height + u8 channels + pixels
  audio: b"SWAU" + u32 sample_rate + u32 n_samples + i16 samples
  video: b"SWVI" + u16 w + u16 h + u16 n_frames + gray frames
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

import numpy as np
import pyarrow as pa

from ..util import row_columns


def synth_image_blob(seed: int, width: int = 32, height: int = 24,
                     channels: int = 3) -> bytes:
    """Deterministic fake image container (for tests/demos)."""
    rng = np.random.RandomState(seed)
    pixels = rng.randint(0, 256, size=width * height * channels,
                         dtype=np.uint8).tobytes()
    return b"SWIM" + struct.pack(">HHB", width, height, channels) + pixels


def synth_audio_blob(seed: int, sample_rate: int = 16000,
                     n_samples: int = 1600) -> bytes:
    rng = np.random.RandomState(seed)
    samples = rng.randint(-(1 << 15), 1 << 15, size=n_samples,
                          dtype=np.int16).tobytes()
    return b"SWAU" + struct.pack(">II", sample_rate, n_samples) + samples


class DecodeImages:
    """Actor-pool decode stage over the real codecs (PNG/BMP/PPM +
    the SWIM test container). __init__ holds per-worker state (the
    codec dispatch is stateless but warm imports live here); __call__
    decodes per batch.

    Output schema (stable regardless of decode success):
      key, width:int32, height:int32, channels:int32,
      pixel_sum:int64 (sum of raw samples — a decode checksum the
      DuckDB oracle can recompute analytically),
      feature:list<float> (8-dim content hash embedding), error:string
    """

    FEATURE_DIM = 8

    def __init__(self, key: str = "media_id", col: str = "payload"):
        from . import codecs
        self.key = key
        self.col = col
        self.codecs = codecs  # warm module ref, once per worker

    def _feature(self, sample_bytes: bytes) -> list[float]:
        digest = hashlib.blake2b(sample_bytes,
                                 digest_size=self.FEATURE_DIM).digest()
        return [b / 255.0 for b in digest]

    def _decode(self, blob: bytes):
        if blob[:4] == b"SWIM":
            w, h, c = struct.unpack(">HHB", blob[4:9])
            pixels = np.frombuffer(blob[9:9 + w * h * c], dtype=np.uint8)
            return (w, h, c, int(pixels.sum(dtype=np.int64)),
                    self._feature(pixels.tobytes()), None)
        arr, meta = self.codecs.decode_image(blob)
        h, w = arr.shape[:2]
        c = arr.shape[2] if arr.ndim == 3 else 1
        raw = np.ascontiguousarray(arr)
        return (w, h, c, int(raw.sum(dtype=np.int64)),
                self._feature(raw.tobytes()), None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table({
            self.key: batch.column(self.key),
            **row_columns(
                batch.column(self.col).to_pylist(),
                lambda blob: self._decode(blob or b""),
                [("width", pa.int32()), ("height", pa.int32()),
                 ("channels", pa.int32()), ("pixel_sum", pa.int64()),
                 ("feature", pa.list_(pa.float32())),
                 ("error", pa.string())],
                failure=(0, 0, 0, 0, [0.0] * self.FEATURE_DIM)),
        })


def decode_images(ds: Any, key: str = "media_id", col: str = "payload",
                  batch_size: int = 32) -> Any:
    """Small batch_size: media blobs are large; batch bytes — not row
    count — must bound worker heap (SURVEY.md §4 memory row)."""
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, DecodeImages, fn_constructor_kwargs=dict(key=key, col=col),
        batch_format="pyarrow", batch_size=batch_size)


class SampleAudioFrames:
    """Frame-sample stage for audio blobs (real WAV via the RIFF/PCM
    decoder, plus the SWAU test container): emits every Nth frame's
    amplitude stats over the first channel."""

    def __init__(self, every_n: int = 160, key: str = "media_id",
                 col: str = "payload"):
        from . import codecs
        self.every_n = every_n
        self.key = key
        self.col = col
        self.codecs = codecs

    def _samples(self, blob: bytes):
        if blob[:4] == b"SWAU":
            rate, n = struct.unpack(">II", blob[4:12])
            return np.frombuffer(blob[12:12 + 2 * n],
                                 dtype=np.int16), rate
        if blob[:4] == b"RIFF":
            arr, meta = self.codecs.decode_wav(blob)
            return arr[:, 0], meta["sample_rate"]
        if blob[:4] == b"fLaC":
            from .flac import decode_flac
            arr, meta = decode_flac(blob)
            return arr[:, 0], meta["sample_rate"]
        raise NotImplementedError(
            f"unknown audio container (header={blob[:4]!r})")

    def _row(self, blob: bytes | None) -> tuple:
        samples, rate = self._samples(blob or b"")
        sampled = samples[::self.every_n]
        mean = (float(np.abs(sampled.astype(np.float64)).mean())
                if len(sampled) else 0.0)
        return rate, len(sampled), mean, None

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table({
            self.key: batch.column(self.key),
            **row_columns(batch.column(self.col).to_pylist(), self._row,
                          [("sample_rate", pa.int32()),
                           ("n_frames_sampled", pa.int32()),
                           ("mean_abs_amplitude", pa.float64()),
                           ("error", pa.string())],
                          failure=(0, 0, 0.0)),
        })


def synth_video_blob(seed: int, width: int = 16, height: int = 12,
                     n_frames: int = 8) -> bytes:
    """Deterministic fake video container:
    b"SWVI" + u16 w + u16 h + u16 n_frames + grayscale frames."""
    rng = np.random.RandomState(seed)
    frames = rng.randint(0, 256, size=width * height * n_frames,
                         dtype=np.uint8).tobytes()
    return b"SWVI" + struct.pack(">HHH", width, height, n_frames) + frames


class SampleVideoFrames:
    """Frame-sample stage for video blobs (real uncompressed Y4M via
    the YUV4MPEG2 decoder, COMPRESSED Motion-JPEG AVI via the
    from-scratch JPEG codec, animated GIF, animated WebP (VP8/VP8L
    frames composited per the container spec), animated PNG
    (acTL/fcTL/fdAT composited likewise), plus the SWVI test
    container): decode every Nth frame, emit per-sampled-frame mean
    luminance, a total luma checksum (``y_sum`` —
    oracle-recomputable), and the error column. Inter-frame-coded
    video (MP4/H.26x/VP9...) has no codec here and raises
    NotImplementedError into the error column."""

    def __init__(self, every_n: int = 2, key: str = "media_id",
                 col: str = "payload"):
        from . import codecs
        self.every_n = every_n
        self.key = key
        self.col = col
        self.codecs = codecs

    def _frames(self, blob: bytes):
        """-> (n_frames_total, (n, h*w) flattened gray frames)."""
        if blob[:4] == b"SWVI":
            w, h, n = struct.unpack(">HHH", blob[4:10])
            fsz = w * h
            pix = np.frombuffer(blob[10:10 + fsz * n], dtype=np.uint8)
            return n, pix.reshape(n, fsz)
        if blob[:9] == b"YUV4MPEG2":
            y, meta = self.codecs.decode_y4m(blob)
            return meta["n_frames"], y.reshape(y.shape[0], -1)
        if blob[:6] in (b"GIF87a", b"GIF89a"):
            frames, meta = self.codecs.decode_gif(blob)  # (n,h,w,4)
            rgb = frames[..., :3].astype(np.uint16)
            # documented luma rule: integer mean of R,G,B (exact —
            # oracle-recomputable)
            gray = (rgb.sum(axis=3) // 3).astype(np.uint8)
            return meta["n_frames"], gray.reshape(frames.shape[0], -1)
        if blob[:4] == b"RIFF" and blob[8:12] == b"AVI ":
            frames, meta = self.codecs.decode_avi_mjpeg(blob)
            if frames.ndim == 4:  # RGB: same integer-mean luma rule
                frames = (frames.astype(np.uint16).sum(axis=3)
                          // 3).astype(np.uint8)
            return meta["n_frames"], frames.reshape(
                frames.shape[0], -1)
        if blob[:4] == b"RIFF" and blob[8:12] == b"WEBP":
            from .webp import decode_webp_frames
            frames, meta = decode_webp_frames(blob)  # (n, h, w, 4)
            rgb = frames[..., :3].astype(np.uint16)
            gray = (rgb.sum(axis=3) // 3).astype(np.uint8)
            return meta["n_frames"], gray.reshape(
                frames.shape[0], -1)
        if blob[:8] == self.codecs.PNG_SIG \
                and self.codecs.png_is_animated(blob):
            frames, meta = self.codecs.decode_apng(blob)  # (n,h,w,4)
            rgb = frames[..., :3].astype(np.uint16)
            gray = (rgb.sum(axis=3) // 3).astype(np.uint8)
            return meta["n_frames"], gray.reshape(
                frames.shape[0], -1)
        raise NotImplementedError(
            f"unknown video container (header={blob[:9]!r}); "
            "inter-frame-coded video has no codec here")

    def _row(self, blob: bytes | None) -> tuple:
        n, all_frames = self._frames(blob or b"")
        frames = all_frames[::self.every_n]
        return (n, frames.shape[0], [float(f.mean()) for f in frames],
                int(frames.sum(dtype=np.int64)), None)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table({
            self.key: batch.column(self.key),
            **row_columns(batch.column(self.col).to_pylist(), self._row,
                          [("n_frames", pa.int32()),
                           ("n_sampled", pa.int32()),
                           ("frame_luminance", pa.list_(pa.float32())),
                           ("y_sum", pa.int64()),
                           ("error", pa.string())],
                          failure=(0, 0, [], 0)),
        })


def sample_video_frames(ds: Any, every_n: int = 2, key: str = "media_id",
                        col: str = "payload",
                        batch_size: int = 16) -> Any:
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, SampleVideoFrames,
        fn_constructor_kwargs=dict(every_n=every_n, key=key, col=col),
        batch_format="pyarrow", batch_size=batch_size)


def synth_media_dataset(n: int, kind: str = "image", seed: int = 42):
    """Deterministic media table for tests/demos."""
    import ray.data as rd
    blobs = []
    for i in range(n):
        if kind == "image":
            blobs.append(synth_image_blob(seed + i))
        elif kind == "video":
            blobs.append(synth_video_blob(seed + i))
        else:
            blobs.append(synth_audio_blob(seed + i))
    tbl = pa.table({
        "media_id": pa.array(range(n), type=pa.int64()),
        "kind": pa.array([kind] * n, type=pa.string()),
        "payload": pa.array(blobs, type=pa.binary()),
    })
    return rd.from_arrow(tbl)


class ResizeImages:
    """Actor-pool resize stage (the brief's resize verb): nearest-
    neighbor downscale over any supported container. A SWIM test blob
    resizes to a SWIM blob (legacy contract); a real PNG/BMP/PPM
    decodes through ops/codecs.py and re-encodes as PNG — the
    engine's canonical image output container."""

    def __init__(self, out_w: int = 8, out_h: int = 6,
                 key: str = "media_id", col: str = "payload"):
        from . import codecs
        self.out_w = out_w
        self.out_h = out_h
        self.key = key
        self.col = col
        self.codecs = codecs

    def _nn(self, px: np.ndarray) -> np.ndarray:
        h, w = px.shape[:2]
        ys = (np.arange(self.out_h) * h // self.out_h)
        xs = (np.arange(self.out_w) * w // self.out_w)
        return px[ys][:, xs]

    def _resize(self, blob: bytes) -> bytes:
        if blob[:4] == b"SWIM":
            w, h, c = struct.unpack(">HHB", blob[4:9])
            px = np.frombuffer(blob[9:9 + w * h * c],
                               dtype=np.uint8).reshape(h, w, c)
            small = self._nn(px)
            return (b"SWIM"
                    + struct.pack(">HHB", self.out_w, self.out_h, c)
                    + small.tobytes())
        arr, _meta = self.codecs.decode_image(blob)
        return self.codecs.encode_png(self._nn(arr))

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table({
            self.key: batch.column(self.key),
            **row_columns(
                batch.column(self.col).to_pylist(),
                lambda blob: (self._resize(blob or b""), self.out_w,
                              self.out_h, None),
                [("payload", pa.binary()), ("width", pa.int32()),
                 ("height", pa.int32()), ("error", pa.string())],
                failure=(b"", 0, 0)),
        })


def resize_images(ds: Any, out_w: int = 8, out_h: int = 6,
                  key: str = "media_id", col: str = "payload",
                  batch_size: int = 32) -> Any:
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, ResizeImages,
        fn_constructor_kwargs=dict(out_w=out_w, out_h=out_h,
                                   key=key, col=col),
        batch_format="pyarrow", batch_size=batch_size)
