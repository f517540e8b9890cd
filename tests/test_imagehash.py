"""Perceptual image hashing + image near-dup pairs (ops/imagehash.py):
hash invariants (brightness shift, container-agnostic decode), the
designed-bits construction the oracle query uses, the banded-Hamming
generic at a wider threshold, and the Ray pipeline end-to-end with an
error row mixed in."""

import numpy as np
import pyarrow as pa
import pytest

from swishray.ops.codecs import encode_png
from swishray.ops.imagehash import (ahash64, dhash64, image_hashes,
                                    imagehash_near_dups)
from swishray.ops.tiff import encode_tiff


def _ham(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


def _mixbits(b: int) -> int:
    x = (b + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _designed(b: int) -> np.ndarray:
    """32x36 grayscale whose 9x8 dhash cells realize the 64 designed
    gradient-sign bits of _mixbits(b) (same construction as the
    image_dedup oracle query in __ray_entry__.py)."""
    bits = _mixbits(b)
    cells = np.empty((8, 9), np.int32)
    cells[:, 0] = 128
    for i in range(8):
        for j in range(8):
            bit = (bits >> (i * 8 + j)) & 1
            cells[i, j + 1] = cells[i, j] + (10 if bit else -10)
    return cells.repeat(4, 0).repeat(4, 1).astype(np.uint8)


def test_dhash_brightness_invariant():
    img = _designed(5)
    assert dhash64(img) == dhash64((img + 30).astype(np.uint8))
    # ahash is NOT brightness-invariant in general, but a global
    # shift moves the mean with the cells, so it is here too
    assert ahash64(img) == ahash64((img + 30).astype(np.uint8))


def test_hash_is_container_agnostic():
    from swishray.ops.codecs import decode_image
    img = _designed(9)
    blobs = [encode_png(img), encode_tiff(img, compression="lzw")]
    hashes = {dhash64(decode_image(b)[0]) for b in blobs}
    assert len(hashes) == 1


def test_designed_bases_are_separated():
    hs = [dhash64(_designed(b)) for b in range(40)]
    mind = min(_ham(hs[i], hs[j])
               for i in range(40) for j in range(i + 1, 40))
    assert mind > 10  # oracle query relies on > max_hamming = 2


def test_tiny_and_color_inputs():
    assert dhash64(np.array([[5]], np.uint8)) == 0
    rgb = np.dstack([_designed(1)] * 3)
    assert dhash64(rgb) == dhash64(_designed(1))  # gray luma == gray


def test_generic_hamming_wider_threshold(ray_session):
    import ray.data as rd
    from swishray.ops.dedup import hamming_near_dups
    base = _mixbits(7)
    flip5 = base ^ 0b10101 ^ (1 << 40) ^ (1 << 63)  # hamming 5...
    flip5 = base ^ ((1 << 3) | (1 << 17) | (1 << 33) | (1 << 47)
                    | (1 << 62))  # exactly 5 flipped bits
    far = _mixbits(23)
    as_i64 = lambda v: v - (1 << 64) if v >= (1 << 63) else v  # noqa
    ds = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], type=pa.int64()),
        "h": pa.array([as_i64(base), as_i64(flip5), as_i64(far)],
                      type=pa.int64())}))
    out = hamming_near_dups(ds, "h", "k", max_hamming=7).take_all()
    assert [(r["a"], r["b"], r["hamming"]) for r in out] == [(1, 2, 5)]
    # at max_hamming=3 (4 bands) the distance-5 pair must NOT appear
    out = hamming_near_dups(ds, "h", "k", max_hamming=3).take_all()
    assert out == []
    with pytest.raises(ValueError):
        hamming_near_dups(ds, "h", "k", max_hamming=20)


def test_imagehash_pipeline_end_to_end(ray_session):
    import ray.data as rd
    rows_k, rows_p = [], []
    for i in range(12):
        img = (_designed(i % 3) + (i % 4)).astype(np.uint8)
        rows_k.append(i)
        rows_p.append(encode_png(img))
    rows_k.append(99)
    rows_p.append(b"\x89PNG corrupt")
    ds = rd.from_arrow(pa.table({
        "media_id": pa.array(rows_k, type=pa.int64()),
        "payload": pa.array(rows_p, type=pa.binary())}))
    hashed = image_hashes(ds).take_all()
    errs = [r for r in hashed if r["error"] is not None]
    assert len(errs) == 1 and errs[0]["media_id"] == 99
    assert all(r["dhash"] is not None for r in hashed
               if r["error"] is None)
    pairs = imagehash_near_dups(ds, max_hamming=2).take_all()
    got = {(r["a"], r["b"]) for r in pairs}
    want = {(a, b) for a in range(12) for b in range(a + 1, 12)
            if a % 3 == b % 3}
    assert got == want
    assert all(r["hamming"] == 0 for r in pairs)


def test_generic_hamming_string_keys(ray_session):
    import ray.data as rd
    from swishray.ops.dedup import hamming_near_dups
    h = _mixbits(3) and 12345  # any fixed hash
    ds = rd.from_arrow(pa.table({
        "url": pa.array(["https://b", "https://a", "https://c"],
                        type=pa.string()),
        "h": pa.array([12345, 12345, -99], type=pa.int64())}))
    out = hamming_near_dups(ds, "h", "url", max_hamming=2).take_all()
    assert [(r["a"], r["b"], r["hamming"]) for r in out] == [
        ("https://a", "https://b", 0)]


def test_empty_input(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(pa.table({
        "media_id": pa.array([], type=pa.int64()),
        "payload": pa.array([], type=pa.binary())}))
    assert imagehash_near_dups(ds).take_all() == []


# ---------------------------------------------------------------------------
# video fingerprint (majority dHash over sampled frames)


def _base_video(b: int, n: int = 6, c: int = 0) -> np.ndarray:
    return np.stack([(_designed(b) + c + (f % 3)).astype(np.uint8)
                     for f in range(n)])


def test_vhash_separation_and_container_agnostic():
    from swishray.ops.codecs import encode_avi_mjpeg, encode_y4m
    from swishray.ops.imagehash import VideoHashes, vhash64
    hs = [vhash64(_base_video(b)) for b in range(30)]
    mind = min(_ham(hs[i], hs[j])
               for i in range(30) for j in range(i + 1, 30))
    assert mind > 10
    # same frames via Y4M (lossless) and MJPEG-AVI (lossy: the +-10
    # designed gradients survive quantization) hash identically
    vh = VideoHashes(every_n=1)
    v = _base_video(3)
    assert vh._hash(encode_y4m(v)) == hs[3]
    assert vh._hash(encode_avi_mjpeg(v)) == hs[3]
    # frame-count and brightness variants hash identically too
    assert vhash64(_base_video(3, n=4, c=5)) == hs[3]


def test_videohash_pipeline(ray_session):
    import ray.data as rd
    from swishray.ops.codecs import encode_y4m
    from swishray.ops.imagehash import videohash_near_dups
    ks, ps = [], []
    for i in range(9):
        ks.append(i)
        ps.append(encode_y4m(_base_video(i % 3, n=4 + i % 2, c=i % 4)))
    ks.append(99)
    ps.append(b"RIFF\x08\x00\x00\x00AVI massacred")
    ds = rd.from_arrow(pa.table({
        "media_id": pa.array(ks, type=pa.int64()),
        "payload": pa.array(ps, type=pa.binary())}))
    pairs = videohash_near_dups(ds, max_hamming=2).take_all()
    got = {(r["a"], r["b"]) for r in pairs}
    want = {(a, b) for a in range(9) for b in range(a + 1, 9)
            if a % 3 == b % 3}
    assert got == want
    assert all(r["hamming"] == 0 for r in pairs)
