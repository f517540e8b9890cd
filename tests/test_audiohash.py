"""Spectral audio fingerprint + audio near-dup pairs
(ops/audiohash.py): gain invariance through a 16-bit WAV roundtrip
(stdlib ``wave`` as the independent writer), designed-base
separation (the audio_dedup oracle's construction), and the Ray
pipeline end-to-end with an error row."""

import io
import wave

import numpy as np
import pyarrow as pa

from swishray.ops.audiohash import (audio_hashes, audiohash_near_dups,
                                    spectral_hash64, _band_edges)

RATE = 8000
WIN = 1000


def _mixbits(b: int) -> int:
    x = (b + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _tones():
    edges = _band_edges(RATE, WIN)
    return [((edges[j] + min(edges[j + 1], WIN // 2)) // 2)
            * RATE / WIN for j in range(9)]


def _base_signal(b: int, gain: float = 1.0) -> np.ndarray:
    """8 windows of 9 tones whose per-band amplitude LADDER realizes
    the designed gradient-sign bits of _mixbits(b) (same construction
    as the audio_dedup oracle query)."""
    bits = _mixbits(b)
    tones = _tones()
    t = np.arange(WIN) / RATE
    sig = np.empty(8 * WIN)
    for i in range(8):
        amps = [1.0]
        for j in range(8):
            bit = (bits >> (i * 8 + j)) & 1
            amps.append(amps[-1] * (1.6 if bit else 1 / 1.6))
        w = sum(a * np.sin(2 * np.pi * f * t + 0.7 * j)
                for j, (a, f) in enumerate(zip(amps, tones)))
        sig[i * WIN:(i + 1) * WIN] = w
    sig = sig / np.abs(sig).max() * 12000 * gain
    return np.clip(sig, -32768, 32767).astype(np.int16)


def _wav(pcm: np.ndarray) -> bytes:
    bio = io.BytesIO()
    with wave.open(bio, "wb") as wv:
        wv.setnchannels(1)
        wv.setsampwidth(2)
        wv.setframerate(RATE)
        wv.writeframes(pcm.tobytes())
    return bio.getvalue()


def _ham(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


def test_designed_bases_separated_and_gain_stable():
    hs = [spectral_hash64(_base_signal(b).astype(np.float64), RATE)
          for b in range(30)]
    mind = min(_ham(hs[i], hs[j])
               for i in range(30) for j in range(i + 1, 30))
    assert mind > 10  # oracle relies on > max_hamming = 2
    from swishray.ops.codecs import decode_wav
    for b in (0, 7, 29):
        for g in (0.5, 0.8, 1.5):
            arr, meta = decode_wav(_wav(_base_signal(b, g)))
            h = spectral_hash64(arr[:, 0].astype(np.float64),
                                meta["sample_rate"])
            assert h == hs[b], (b, g)


def test_degenerate_inputs():
    assert spectral_hash64(np.zeros(3), RATE) == 0  # too short
    # silence: all energies equal (0) -> all bits 0
    assert spectral_hash64(np.zeros(8000), RATE) == 0


def test_audio_pipeline_end_to_end(ray_session):
    import ray.data as rd
    ks, ps = [], []
    for i in range(9):
        ks.append(i)
        ps.append(_wav(_base_signal(i % 3, gain=0.6 + 0.2 * (i % 3))))
    ks.append(99)
    ps.append(b"RIFFcorrupt")
    ds = rd.from_arrow(pa.table({
        "media_id": pa.array(ks, type=pa.int64()),
        "payload": pa.array(ps, type=pa.binary())}))
    hashed = audio_hashes(ds).take_all()
    errs = [r for r in hashed if r["error"] is not None]
    assert len(errs) == 1 and errs[0]["media_id"] == 99
    pairs = audiohash_near_dups(ds, max_hamming=2).take_all()
    got = {(r["a"], r["b"]) for r in pairs}
    want = {(a, b) for a in range(9) for b in range(a + 1, 9)
            if a % 3 == b % 3}
    assert got == want
    assert all(r["hamming"] == 0 for r in pairs)
