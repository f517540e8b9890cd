"""Perceptual audio fingerprinting + audio near-duplicate detection —
the audio member of the cross-modal dedup family (text SimHash in
ops/dedup.py, image dHash in ops/imagehash.py): a Haitsma-Kalker-style
robust fingerprint (sign of spectral energy differences; "A Highly
Robust Audio Fingerprinting System", ISMIR 2002 — public) reduced to
64 bits so the SAME generic banded-Hamming blocking
(dedup.hamming_near_dups) pairs near-duplicates with a slim hash-only
shuffle.

The hash: split the clip into 8 equal time windows, 9 log-spaced
frequency bands (rFFT magnitude energies, 300 Hz .. 0.45*rate);
bit(i, j) = band j+1 louder than band j in window i — an 8x8
gradient-sign grid, exactly dHash's construction transplanted onto a
spectrogram. Invariant to global gain (scaling multiplies every
energy), to DC offset (band 0 starts at 300 Hz), and robust to
16-bit requantization.

Scale shape: per-row FFT work in a stateful map stage; only 64-bit hashes
ride the pairing shuffle.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa

from ..util import row_columns
from .dedup import DEFAULT_BUCKET_CAP, hamming_near_dups

_N_WINDOWS = 8
_N_BANDS = 9
_F_LO = 300.0


def _band_edges(rate: int, n_fft: int) -> np.ndarray:
    """Log-spaced band edges in rFFT bin indices (n_bands + 1)."""
    f_hi = 0.45 * rate
    edges_hz = _F_LO * (f_hi / _F_LO) ** (np.arange(_N_BANDS + 1)
                                          / _N_BANDS)
    bins = np.round(edges_hz * n_fft / rate).astype(np.int64)
    return np.maximum.accumulate(np.clip(bins, 1, n_fft // 2))


def spectral_hash64(samples: np.ndarray, rate: int) -> int:
    """64-bit spectral fingerprint of a mono clip (any numeric
    dtype). Clips shorter than 8 samples hash to 0."""
    x = np.asarray(samples, np.float64)
    if x.ndim != 1:
        raise ValueError("spectral_hash64 wants a mono 1-D clip")
    n = len(x)
    if n < _N_WINDOWS:
        return 0
    win = n // _N_WINDOWS
    x = x[:win * _N_WINDOWS].reshape(_N_WINDOWS, win)
    spec = np.abs(np.fft.rfft(x, axis=1)) ** 2
    edges = _band_edges(rate, win)
    energies = np.empty((_N_WINDOWS, _N_BANDS), np.float64)
    for j in range(_N_BANDS):
        lo, hi = edges[j], edges[j + 1]
        if hi <= lo:
            hi = lo + 1
        energies[:, j] = spec[:, lo:min(hi, spec.shape[1])].sum(axis=1)
    bits = energies[:, 1:] > energies[:, :-1]
    v = int.from_bytes(np.packbits(bits.ravel()).tobytes(), "big")
    return v - (1 << 64) if v >= (1 << 63) else v


class AudioHashes:
    """Stateful task stage: decode each audio blob (WAV via the RIFF/PCM
    decoder, SWAU test container) and emit the spectral fingerprint.
    Per-row error channel, same taxonomy as the decode stages."""

    def __init__(self, key: str = "media_id", col: str = "payload"):
        import struct as _struct

        from . import codecs
        self.key = key
        self.col = col
        self.codecs = codecs
        self.struct = _struct

    def _samples(self, blob: bytes):
        if blob[:4] == b"SWAU":
            rate, n = self.struct.unpack(">II", blob[4:12])
            return np.frombuffer(blob[12:12 + 2 * n],
                                 dtype=np.int16).astype(np.float64), \
                rate
        if blob[:4] == b"RIFF":
            arr, meta = self.codecs.decode_wav(blob)
            return arr[:, 0].astype(np.float64), meta["sample_rate"]
        if blob[:4] == b"fLaC":
            from .flac import decode_flac
            arr, meta = decode_flac(blob)
            return arr[:, 0].astype(np.float64), meta["sample_rate"]
        raise NotImplementedError(
            f"unknown audio container (header={blob[:4]!r})")

    def _row(self, blob: bytes | None) -> tuple:
        samples, rate = self._samples(blob or b"")
        return spectral_hash64(samples, rate), None

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.table({
            self.key: batch.column(self.key),
            **row_columns(batch.column(self.col).to_pylist(), self._row,
                          [("audiohash", pa.int64()),
                           ("error", pa.string())]),
        })


def audio_hashes(ds: Any, key: str = "media_id",
                 col: str = "payload", batch_size: int = 32) -> Any:
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, AudioHashes, fn_constructor_kwargs=dict(key=key, col=col),
        batch_format="pyarrow", batch_size=batch_size)


def audiohash_near_dups(ds: Any, max_hamming: int = 2,
                        key: str = "media_id", col: str = "payload",
                        bucket_cap: int = DEFAULT_BUCKET_CAP) -> Any:
    """Audio near-duplicate pairs by banded spectral-fingerprint
    Hamming distance. Returns (a, b, hamming), a < b."""
    import pyarrow.compute as pc

    hashed = audio_hashes(ds, key=key, col=col)

    def drop_errors(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_null(batch.column("error")))

    ok = hashed.map_batches(drop_errors, batch_format="pyarrow")
    return hamming_near_dups(ok, "audiohash", key,
                             max_hamming=max_hamming,
                             bucket_cap=bucket_cap)
