"""Perceptual image hashing + image near-duplicate detection over
binary media columns — the image-side analog of the text dedup family
(ops/dedup.py): decode (any container ops/codecs.py dispatches —
PNG/JPEG/TIFF/WebP/GIF/BMP/PPM), reduce to a luma thumbnail, and emit
64-bit dHash (gradient signs over a 9x8 grid — invariant to global
brightness shifts and to any resize that preserves cell means) and
aHash (mean threshold over 8x8). Near-dup pairing reuses the generic
banded-Hamming blocking (dedup.hamming_near_dups): band the hash,
bucket-shuffle slim (key, band, hash) rows, Hamming-verify within
buckets — no all-pairs, no driver state, media bytes never ride the
shuffle (only 64-bit hashes do).

Scale notes: hashing is per-row CPU work in a stateful map stage (decode
state warm per worker); at crawl scale the stage streams and the
pairing exchanges O(rows x bands) fixed-width rows. Skewed buckets
(e.g. monochrome thumbnails all hashing to 0) are capped by
``bucket_cap`` star-pairing, same contract as simhash_near_dups.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa

from ..util import row_columns
from .dedup import DEFAULT_BUCKET_CAP, hamming_near_dups


def _luma(arr: np.ndarray) -> np.ndarray:
    """Decoded sample array -> 2-D uint8 luma (ITU-R 601 integer
    weights; alpha ignored)."""
    if arr.ndim == 2:
        return arr
    if arr.ndim == 3 and arr.shape[2] == 1:
        return arr[:, :, 0]
    if arr.ndim == 3 and arr.shape[2] in (3, 4):
        a = arr.astype(np.uint32)
        return ((299 * a[:, :, 0] + 587 * a[:, :, 1]
                 + 114 * a[:, :, 2]) // 1000).astype(np.uint8)
    raise ValueError(f"unsupported sample shape {arr.shape}")


def _area_means(gray: np.ndarray, oh: int, ow: int) -> np.ndarray:
    """Deterministic area-mean downsample to (oh, ow) float64 via
    integral image — exact cell means for any input size."""
    h, w = gray.shape
    if h < 1 or w < 1:
        raise ValueError("empty image")
    if h < oh or w < ow:  # tiny input: pixel replication instead
        return gray[(np.arange(oh) * h) // oh][
            :, (np.arange(ow) * w) // ow].astype(np.float64)
    ii = np.zeros((h + 1, w + 1), np.int64)
    np.cumsum(np.cumsum(gray, axis=0, dtype=np.int64), axis=1,
              out=ii[1:, 1:])
    ys = (np.arange(oh + 1) * h) // oh
    xs = (np.arange(ow + 1) * w) // ow
    sums = (ii[np.ix_(ys[1:], xs[1:])] - ii[np.ix_(ys[:-1], xs[1:])]
            - ii[np.ix_(ys[1:], xs[:-1])]
            + ii[np.ix_(ys[:-1], xs[:-1])])
    areas = np.outer(ys[1:] - ys[:-1], xs[1:] - xs[:-1])
    return sums / areas


def _pack_bits(bits: np.ndarray) -> int:
    """Row-major 64 bools -> int64 (two's-complement wrap)."""
    v = int.from_bytes(np.packbits(bits.ravel()).tobytes(), "big")
    return v - (1 << 64) if v >= (1 << 63) else v


def dhash64(arr: np.ndarray) -> int:
    """Difference hash: 9x8 luma cell means, bit = right cell
    brighter than left (64 bits). Invariant to global brightness
    shifts (comparisons cancel the offset)."""
    g = _area_means(_luma(arr), 8, 9)
    return _pack_bits(g[:, 1:] > g[:, :-1])


def ahash64(arr: np.ndarray) -> int:
    """Average hash: 8x8 luma cell means, bit = cell above the
    global mean."""
    g = _area_means(_luma(arr), 8, 8)
    return _pack_bits(g > g.mean())


class ImageHashes:
    """Stateful task stage: decode each media blob and emit perceptual
    hashes. Errors land in the per-row ``error`` column with the
    exception class name (NotImplementedError = recognized-but-
    uncoded format, ValueError = corrupt file), hashes null."""

    def __init__(self, key: str = "media_id", col: str = "payload"):
        from . import codecs
        self.key = key
        self.col = col
        self.codecs = codecs

    def _row(self, blob: bytes | None) -> tuple:
        arr, _ = self.codecs.decode_image(blob)
        return dhash64(arr), ahash64(arr), None

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table({
            self.key: batch.column(self.key),
            **row_columns(batch.column(self.col).to_pylist(), self._row,
                          [("dhash", pa.int64()), ("ahash", pa.int64()),
                           ("error", pa.string())]),
        })


def image_hashes(ds: Any, key: str = "media_id",
                 col: str = "payload", batch_size: int = 32) -> Any:
    """Per-image perceptual hashes as a stateful stage (small
    batch_size: batch BYTES bound worker heap, not row count)."""
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, ImageHashes, fn_constructor_kwargs=dict(key=key, col=col),
        batch_format="pyarrow", batch_size=batch_size)


def vhash64(frames: np.ndarray) -> int:
    """64-bit video fingerprint: per-frame dHash bits, then a
    MAJORITY vote across frames (ties -> 0). Robust to dropped /
    resampled frames and to anything per-frame dHash is robust to
    (global brightness, container/codec); two clips sharing most
    frames land within a small Hamming distance."""
    f = np.asarray(frames)
    if f.ndim == 2:
        f = f[None, ...]
    if f.ndim == 4:  # RGB(A) frames -> luma per frame
        f = np.stack([_luma(fr) for fr in f])
    n = f.shape[0]
    if n == 0:
        return 0
    votes = np.zeros(64, np.int64)
    for i in range(n):
        h = dhash64(f[i]) & 0xFFFFFFFFFFFFFFFF
        votes += np.unpackbits(
            np.frombuffer(h.to_bytes(8, "big"), np.uint8))
    bits = (votes * 2) > n  # strict majority; ties -> 0
    v = int.from_bytes(np.packbits(bits).tobytes(), "big")
    return v - (1 << 64) if v >= (1 << 63) else v


class VideoHashes:
    """Stateful task stage: decode each video blob (Y4M / MJPEG-AVI / GIF /
    SWVI via the SampleVideoFrames luma rules) and emit the majority
    dHash fingerprint over every ``every_n``-th frame."""

    def __init__(self, every_n: int = 2, key: str = "media_id",
                 col: str = "payload"):
        from . import codecs
        self.codecs = codecs
        self.every_n = every_n
        self.key = key
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table({
            self.key: batch.column(self.key),
            **row_columns(batch.column(self.col).to_pylist(),
                          lambda blob: (self._hash(blob or b""), None),
                          [("vhash", pa.int64()), ("error", pa.string())]),
        })

    def _hash(self, blob: bytes) -> int:
        c = self.codecs
        if blob[:9] == b"YUV4MPEG2":
            y, _ = c.decode_y4m(blob)
            return vhash64(y[::self.every_n])
        if blob[:4] == b"RIFF" and blob[8:12] == b"AVI ":
            frames, _ = c.decode_avi_mjpeg(blob)
            return vhash64(frames[::self.every_n])
        if blob[:6] in (b"GIF87a", b"GIF89a"):
            frames, _ = c.decode_gif(blob)
            return vhash64(frames[::self.every_n])
        raise NotImplementedError(
            f"unknown video container (header={blob[:9]!r})")


def videohash_near_dups(ds: Any, max_hamming: int = 2,
                        every_n: int = 2, key: str = "media_id",
                        col: str = "payload",
                        bucket_cap: int = DEFAULT_BUCKET_CAP) -> Any:
    """Video near-duplicate pairs by banded majority-dHash Hamming
    distance. Returns (a, b, hamming), a < b."""
    import pyarrow.compute as pc

    from ..util import map_batches_stateful
    hashed = map_batches_stateful(
        ds, VideoHashes,
        fn_constructor_kwargs=dict(every_n=every_n, key=key, col=col),
        batch_format="pyarrow", batch_size=16)

    def drop_errors(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_null(batch.column("error")))

    ok = hashed.map_batches(drop_errors, batch_format="pyarrow")
    return hamming_near_dups(ok, "vhash", key,
                             max_hamming=max_hamming,
                             bucket_cap=bucket_cap)


def imagehash_near_dups(ds: Any, max_hamming: int = 2,
                        key: str = "media_id", col: str = "payload",
                        bucket_cap: int = DEFAULT_BUCKET_CAP) -> Any:
    """Image near-duplicate pairs by banded dHash Hamming distance:
    hash in a stateful stage, drop undecodable rows (their error rows
    are the decode stage's concern), then the generic banded-Hamming
    blocking. Returns (a, b, hamming), a < b."""
    import pyarrow.compute as pc

    hashed = image_hashes(ds, key=key, col=col)

    def drop_errors(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_null(batch.column("error")))

    ok = hashed.map_batches(drop_errors, batch_format="pyarrow")
    return hamming_near_dups(ok, "dhash", key,
                             max_hamming=max_hamming,
                             bucket_cap=bucket_cap)
