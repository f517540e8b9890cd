"""Deduplication operators.

Scale design: every variant is a map_batches sketch/signature stage
(vectorized, stateless or per-worker tables) followed by ONE keyed
shuffle on a small signature table — never an all-pairs comparison on
the full corpus and never a driver-side materialization. The only
all-to-all exchanges move (signature, id) rows, orders of magnitude
smaller than the documents; full rows move at most once, partitioned
by the (uniform) document key, never by the (dup-skewed) content hash.

  * exact_dedup      — map-side combiner -> slim (key, hash) shuffle
                       -> winner keys -> join winners back by key
  * minhash_lsh      — word shingles -> k minhashes -> b bands ->
                       groupby(band, band_hash) -> candidate pairs ->
                       exact Jaccard verify via two distributed joins
  * simhash          — 64-bit weighted word-hash signature; near-dup
                       candidates via band buckets + Hamming verify
  * embedding near-dups live in similarity.cosine_dup_pairs

Hot-bucket guard: LSH/simhash buckets above ``bucket_cap`` rows (a
boilerplate page shared by millions of urls lands every copy in one
band bucket) switch from all-pairs to star pairing — every member
paired with the bucket minimum, emitting O(n) instead of O(n^2) pairs
per bucket.

Star-pairing certificate, precisely: members stay transitively linked
through the hub ONLY for members whose hub pair survives the
downstream verify. A member that band-hash-collided into the bucket
without being a near-dup of the hub loses both its hub pairs at
verify, so a true near-dup pair between two such residual members is
not emitted (no signal). This is the accepted trade of capping: a
>cap bucket is overwhelmingly one template cluster, where the hub
verifies against everyone; raise ``bucket_cap`` (or band count) if
residual-member pairs matter more than the O(n^2) guard.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np
import pyarrow as pa

_MERSENNE = (1 << 61) - 1
_LOW31 = np.uint64(0x7FFFFFFF)
_LOW30 = np.uint64(0x3FFFFFFF)
_P = np.uint64(_MERSENNE)

# all-pairs emission allowed up to this bucket size; larger buckets
# degrade to star pairing (see module docstring)
DEFAULT_BUCKET_CAP = 256


def _text_col(batch: pa.Table, col: str) -> list[str]:
    return [x or "" for x in batch.column(col).to_pylist()]


# ---- exact ------------------------------------------------------------

def add_content_hash(ds: Any, col: str = "text",
                     out: str = "content_hash") -> Any:
    def h(batch: pa.Table) -> pa.Table:
        hashes = [hashlib.md5((t or "").encode()).hexdigest()
                  for t in batch.column(col).to_pylist()]
        return batch.append_column(out, pa.array(hashes, type=pa.string()))
    return ds.map_batches(h, batch_format="pyarrow")


def exact_dedup_keys(ds: Any, col: str = "text", key: str = "doc_id",
                     hash_col: str | None = None) -> Any:
    """Winner keys of an exact dedup: for every distinct content hash,
    the minimum ``key``. Only (key, hash) pairs ever ride the shuffle —
    payloads stay put. A map-side combiner (min key per hash within
    each batch) bounds every group to <= #blocks rows regardless of how
    many duplicates a hot page has, so dup skew cannot concentrate in
    one reduce task.

    If ``hash_col`` is given the input already carries the content
    hash; otherwise it is computed from ``col``.

    Returns a Dataset with a single ``key`` column.
    """
    from ray.data.aggregate import Min

    if hash_col is None:
        hash_col = "content_hash"
        hashed = add_content_hash(ds, col, out=hash_col)
    else:
        hashed = ds
    slim = hashed.select_columns([key, hash_col])

    def combine(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        out = df.groupby(hash_col, as_index=False, sort=False)[key].min()
        return pa.Table.from_pandas(out[[key, hash_col]],
                                    preserve_index=False)

    combined = slim.map_batches(combine, batch_format="pyarrow")
    winners = combined.groupby(hash_col).aggregate(
        Min(key, alias_name="__winner"))

    def keys_only(batch: pa.Table) -> pa.Table:
        return pa.table({key: batch.column("__winner")})

    return winners.map_batches(keys_only, batch_format="pyarrow")


def exact_dedup(ds: Any, col: str = "text", key: str = "doc_id",
                unique_keys: bool = True) -> Any:
    """Exact dedup keeping the minimum-``key`` row per content hash.

    Two-phase scale shape (reference upsert semantics,
    swish_xapian.cpp:563-601): (1) slim (key, hash) shuffle picks
    winner keys — moves ~key-sized bytes, combiner-bounded skew;
    (2) the winners (a keys-only table) inner-join back to the corpus
    partitioned by the uniform ``key``, so full rows move exactly once
    and never pile onto a hot content-hash partition.

    Set ``unique_keys=False`` when the input can contain repeated keys
    (e.g. a union of snapshots): a final keep-one-per-key pass (again
    map-side combined) collapses them.
    """
    from .joins import first_of_runs, hash_exchange, hash_join

    hashed = add_content_hash(ds, col)
    winners = exact_dedup_keys(hashed, col, key, hash_col="content_hash")
    kept = hash_join(hashed, winners, key)
    if unique_keys:
        return kept

    def first(t: pa.Table) -> pa.Table:
        return first_of_runs(t, [key])

    return hash_exchange(kept.map_batches(first, batch_format="pyarrow"),
                         key, first, batch_format="pyarrow")


# ---- minhash + LSH ----------------------------------------------------

def gram_hashes(text: str, k: int) -> np.ndarray:
    """Vectorized word-k-gram hashing (possibly repeated grams): crc32
    per word (C speed), then a polynomial combination of k consecutive
    word hashes — no per-gram string building or digest objects. Docs
    shorter than k words hash their whole word sequence as one gram
    (order-sensitive, mirroring the single ``" ".join(words)`` gram of
    the string-set semantics in :func:`ngram_jaccard`); empty docs
    yield an empty array (= the empty gram set)."""
    from zlib import crc32
    words = text.split()
    if not words:
        return np.empty(0, dtype=np.uint64)
    wh = np.fromiter((crc32(w.encode()) for w in words),
                     dtype=np.uint64, count=len(words))
    B = np.uint64(1000003)
    if len(words) < k:
        g = wh[0:1].copy()
        for j in range(1, len(words)):
            g = g * B + wh[j:j + 1]
        return g
    g = wh[:len(wh) - k + 1].copy()
    for j in range(1, k):
        g = g * B + wh[j:len(wh) - k + 1 + j]
    return g


def hashed_jaccard(sa: np.ndarray, sb: np.ndarray) -> float:
    """Exact Jaccard over two UNIQUE gram-hash sets (the verify step on
    hashed shingle sets — one vectorized intersect instead of building
    Python string sets per pair). Equals the string-set Jaccard of
    :func:`ngram_jaccard` except under 64-bit gram-hash collisions."""
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    union = sa.size + sb.size - inter
    return 1.0 if union == 0 else inter / union


def _mod_p(x: np.ndarray) -> np.ndarray:
    """Reduce arbitrary uint64 values mod p = 2^61 - 1."""
    r = (x >> np.uint64(61)) + (x & _P)
    return np.where(r >= _P, r - _P, r)


def _mulmod_p(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(a * x) mod p for p = 2^61 - 1, fully in uint64 (no overflow):
    split both operands into 31/30-bit halves; fold 2^61 == 1 (mod p).
    Shapes broadcast (used as a[:, None] * x[None, :])."""
    a_hi = a >> np.uint64(31)          # < 2^30
    a_lo = a & _LOW31                  # < 2^31
    x_hi = x >> np.uint64(31)          # < 2^30
    x_lo = x & _LOW31                  # < 2^31
    # a*x = a_hi*x_hi*2^62 + (a_hi*x_lo + a_lo*x_hi)*2^31 + a_lo*x_lo
    t1 = _mod_p(a_hi * x_hi * np.uint64(2))          # 2^62 == 2 (mod p)
    mid = a_hi * x_lo + a_lo * x_hi                  # < 2^62, fits
    m_hi = mid >> np.uint64(30)                      # < 2^32
    m_lo = mid & _LOW30                              # < 2^30
    # mid*2^31 = m_hi*2^61 + m_lo*2^31 == m_hi + m_lo*2^31 (mod p)
    t2 = _mod_p(m_hi + (m_lo << np.uint64(31)))
    t3 = _mod_p(a_lo * x_lo)
    return _mod_p(t1 + t2 + t3)


class MinHasher:
    """Stateful batch signer: permutation parameters generated once per
    worker (seeded — deterministic across the cluster). The permutation
    family is the standard universal hash h(x) = (a*x + b) mod p with
    p = 2^61 - 1, computed with an exact vectorized Mersenne modmul
    (no silent wrap mod 2^64)."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 3,
                 seed: int = 42, col: str = "text", key: str = "doc_id"):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.k = shingle_k
        self.col = col
        self.key = key

    def shingles(self, text: str) -> np.ndarray:
        return gram_hashes(text, self.k)

    def signature(self, text: str) -> np.ndarray:
        sh = self.shingles(text)
        if sh.size == 0:  # empty doc: sign the empty-gram sentinel
            sh = np.zeros(1, dtype=np.uint64)
        sh = _mod_p(np.unique(sh))
        # (a*x + b) mod p per permutation, exact in uint64
        vals = _mod_p(_mulmod_p(self.a[:, None], sh[None, :])
                      + self.b[:, None])
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = [self.signature(t) for t in _text_col(batch, self.col)]
        n = len(sigs)
        # zero-copy list column: one flat uint64 buffer + offsets (a
        # per-element tolist() materializes Python ints — measured cost)
        flat = (np.concatenate(sigs) if n
                else np.empty(0, dtype=np.uint64))
        offsets = np.arange(0, (n + 1) * self.num_perm, self.num_perm,
                            dtype=np.int32)
        return pa.table({
            self.key: batch.column(self.key),
            "minhash": pa.ListArray.from_arrays(
                pa.array(offsets, type=pa.int32()),
                pa.array(flat, type=pa.uint64())),
        })


def minhash_signatures(ds: Any, num_perm: int = 64, shingle_k: int = 3,
                       seed: int = 42, col: str = "text",
                       key: str = "doc_id") -> Any:
    from ..util import map_batches_stateful
    return map_batches_stateful(
        ds, MinHasher, fn_constructor_kwargs=dict(
            num_perm=num_perm, shingle_k=shingle_k, seed=seed,
            col=col, key=key),
        batch_format="pyarrow")


def _bucket_pairs(ks: np.ndarray, cap: int) -> tuple:
    """Pairs for one bucket (``ks``: sorted unique member array):
    vectorized all-pairs via triu indices up to ``cap`` members, star
    pairing (min vs rest) above it — O(n) pairs (see module docstring
    for the exact connectivity certificate)."""
    ks = np.asarray(ks)
    n = len(ks)
    if n < 2:
        return ks[:0], ks[:0]
    if n <= cap:
        i, j = np.triu_indices(n, 1)
        return ks[i], ks[j]
    return np.repeat(ks[0:1], n - 1), ks[1:]


def band_hash_matrix(flat: np.ndarray, n: int, bands: int) -> np.ndarray:
    """(n, bands) 63-bit band bucket hashes from a flat (n*num_perm,)
    uint64 signature buffer: each band folds its r minhashes through
    splitmix64 mixing — the single definition shared by
    lsh_candidate_pairs and the persisted minhash store
    (ops.increment), so stored band rows and probe-side hashes can
    never drift."""
    mat = flat.reshape(n, bands, -1)
    h = np.zeros((n, bands), dtype=np.uint64)
    for j in range(mat.shape[2]):
        h = _mix64(h ^ mat[:, :, j])
    return (h & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def lsh_candidate_pairs(sigs: Any, bands: int = 16,
                        key: str = "doc_id",
                        bucket_cap: int = DEFAULT_BUCKET_CAP) -> Any:
    """Explode signatures to (band_id, band_hash, key) rows, shuffle on
    a SUPERBUCKET (a :func:`~.joins.hash_exchange` on band_hash, 4x
    the default bucket count), pair up within band buckets. Returns
    candidate pairs (a < b), deduped per superbucket — a pair matching
    in several bands can appear once per superbucket; consumers dedup
    the (small) final set.

    One task handles a superbucket: it sorts the band rows, finds
    the band-bucket runs and pairs up only the runs of 2 or more
    members (nearly every band bucket is a singleton).

    Buckets larger than ``bucket_cap`` emit star pairs only (see
    module docstring) so one boilerplate-heavy bucket cannot explode
    into O(n^2) pairs."""
    from .joins import default_join_partitions, hash_exchange, run_starts

    def explode(batch: pa.Table) -> pa.Table:
        """Vectorized banding: the (n, num_perm) signature matrix
        reshapes to (n, bands, r); each band folds its r minhashes
        through splitmix64 mixing into one 63-bit bucket hash — no
        per-row Python loop, no per-band tuple hashing, and the
        signature lists decode zero-copy (no to_pylist of uint64)."""
        n = batch.num_rows
        if n == 0:
            return pa.table({
                "band_id": pa.array([], type=pa.int32()),
                "band_hash": pa.array([], type=pa.int64()),
                key: pa.array([], type=batch.schema.field(key).type),
            })
        mh = batch.column("minhash").combine_chunks()
        flat = mh.flatten().to_numpy(zero_copy_only=False) \
            .astype(np.uint64, copy=False)
        bh = band_hash_matrix(flat, n, bands).ravel()
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), bands))
        return pa.table({
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32),
                                        n)),
            "band_hash": pa.array(bh),
            key: batch.column(key).combine_chunks().take(idx),
        })

    def pairs_super(t: pa.Table) -> pa.Table:
        kt = t.schema.field(key).type
        band = ["band_id", "band_hash"]
        t = t.sort_by([(c, "ascending") for c in band + [key]])
        t = t.take(pa.array(run_starts(t, band + [key])))  # members
        ks = t.column(key).to_numpy(zero_copy_only=False)
        starts = run_starts(t, band)
        ends = np.append(starts[1:], len(ks))
        big = ends - starts > 1
        outs_a, outs_b = [ks[:0]], [ks[:0]]
        for s, e in zip(starts[big], ends[big]):
            a, b = _bucket_pairs(ks[s:e], bucket_cap)
            outs_a.append(a)
            outs_b.append(b)
        pairs = pa.table({"a": pa.array(np.concatenate(outs_a), kt),
                          "b": pa.array(np.concatenate(outs_b), kt)})
        return pairs.group_by(["a", "b"], use_threads=False).aggregate([])

    exploded = sigs.map_batches(explode, batch_format="pyarrow")
    return hash_exchange(exploded, "band_hash", pairs_super,
                         4 * default_join_partitions(),
                         batch_format="pyarrow")


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-k-gram Jaccard (the LSH verify step)."""
    def grams(t: str) -> set:
        w = t.split()
        if len(w) < k:
            return {" ".join(w)} if w else set()
        return {" ".join(w[i:i + k]) for i in range(len(w) - k + 1)}
    ga, gb = grams(text_a), grams(text_b)
    if not ga and not gb:
        return 1.0
    return len(ga & gb) / max(1, len(ga | gb))


def attach_pair_sets(cand: Any, sets: Any, key: str, ktype) -> Any:
    """Attach per-key binary set blobs to candidate pairs: (a, b) x
    (key, __sh) -> (a, b, __sha, __shb) via two
    :func:`~.joins.hash_exchange` merges, on a then on b. Shared by
    minhash_dedup, setsim_join and containment_join.

    Each reduce task runs one vectorized pandas merge over its bucket
    instead of Ray invoking a Python function per key. All copies of
    a pair (duplicated e.g. across LSH bands) hash to the same
    a-bucket, so stage A's drop_duplicates is a GLOBAL pair dedup for
    free. No column is ever null-padded (set rows carry
    their own key in the unused slot), so int64 keys never pass
    through float64/NaN (exact for keys > 2^53 too)."""
    import pandas as pd
    from .joins import hash_exchange

    def tag_pairs_a(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": batch.column("a"), "b": batch.column("b"),
            "__sh": pa.array([b""] * batch.num_rows,
                             type=pa.large_binary()),
            "__is_set": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
        })

    def tag_sets(side: str):
        # set rows carry their key in BOTH slots (no null padding —
        # see note above); column order matches the pair side exactly
        # so the union concatenates under one schema
        def f(batch: pa.Table) -> pa.Table:
            k = batch.column(key)
            ones = pa.array(np.ones(batch.num_rows, dtype=np.int8))
            if side == "a":
                return pa.table({
                    "a": k, "b": k, "__sh": batch.column("__sh"),
                    "__is_set": ones})
            return pa.table({
                "a": k, "b": k,
                "__sha": pa.array([b""] * batch.num_rows,
                                  type=pa.large_binary()),
                "__sh": batch.column("__sh"), "__is_set": ones})
        return f

    def merge_a(g: pd.DataFrame) -> pa.Table:
        ps = g.loc[g["__is_set"] == 0, ["a", "b"]].drop_duplicates()
        ss = g.loc[g["__is_set"] == 1, ["a", "__sh"]] \
            .drop_duplicates(subset=["a"])
        m = ps.merge(ss, on="a", how="inner")
        # explicit Arrow types: pandas object-bytes would surface as
        # 'binary' while every arrow stage emits 'large_binary', and
        # the mixed schemas cost a unification pass per bundle (plus
        # a worker warning per block)
        return pa.table({
            "a": pa.array(m["a"], type=ktype),
            "b": pa.array(m["b"], type=ktype),
            "__sha": pa.array(m["__sh"].tolist(),
                              type=pa.large_binary())})

    stage_a = hash_exchange(
        cand.map_batches(tag_pairs_a, batch_format="pyarrow").union(
            sets.map_batches(tag_sets("a"), batch_format="pyarrow")),
        "a", merge_a)

    def tag_pairs_b(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": batch.column("a"), "b": batch.column("b"),
            "__sha": batch.column("__sha"),
            "__sh": pa.array([b""] * batch.num_rows,
                             type=pa.large_binary()),
            "__is_set": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
        })

    def merge_b(g: pd.DataFrame) -> pa.Table:
        ps = g.loc[g["__is_set"] == 0, ["a", "b", "__sha"]]
        ss = g.loc[g["__is_set"] == 1, ["b", "__sh"]] \
            .drop_duplicates(subset=["b"])
        m = ps.merge(ss, on="b", how="inner")
        return pa.table({
            "a": pa.array(m["a"], type=ktype),
            "b": pa.array(m["b"], type=ktype),
            "__sha": pa.array(m["__sha"].tolist(),
                              type=pa.large_binary()),
            "__shb": pa.array(m["__sh"].tolist(),
                              type=pa.large_binary())})

    return hash_exchange(
        stage_a.map_batches(tag_pairs_b, batch_format="pyarrow").union(
            sets.map_batches(tag_sets("b"), batch_format="pyarrow")),
        "b", merge_b)


def minhash_dedup(ds: Any, threshold: float = 0.8, num_perm: int = 64,
                  bands: int = 16, shingle_k: int = 3, seed: int = 42,
                  col: str = "text", key: str = "doc_id",
                  bucket_cap: int = DEFAULT_BUCKET_CAP,
                  prune: bool = True) -> Any:
    """Full near-dup pipeline: sign -> LSH buckets -> candidate pairs
    -> exact Jaccard verify. Returns (a, b, jaccard) pairs >= threshold.

    Verify-stage scale design (no driver-side key sets, no text bytes
    on any exchange):

      * documents never ride a shuffle — each doc's UNIQUE gram-hash
        set (uint64, computed map-side by :func:`gram_hashes`, the
        same gram universe the signatures use) stands in for its text
        everywhere downstream. A semi-JOIN prune was considered and
        rejected: an inner join hash-partitions BOTH sides, so the
        full corpus would still cross the join exchange; here only
        the (much smaller, high-dup-compressible) gram sets move.
      * ``prune=True`` (default) additionally drops non-candidate docs
        BEFORE their gram sets are computed or shuffled: a distributed
        Bloom bitmap of candidate member keys (joins.bloom_keys —
        fixed-size driver state, superset semantics, no false
        negatives) filters the corpus map-side. On a mostly-unique
        100-TB corpus this prunes ~everything; false positives only
        add stray set rows that the attach group drops. The price is
        one materialize barrier on the (slim, pair-shaped) candidate
        table, which also sanitizes the schema-less empty blocks the
        groupby-based candidate stage emits.
      * attach/verify: two :func:`~.joins.hash_exchange` merges
        (pairs ⋈ sets on a, then on b; see
        :func:`attach_pair_sets`). Pair dedup across LSH bands is
        free in stage A (all copies hash to the same a-bucket). The
        final exact Jaccard is one vectorized ``np.intersect1d`` per
        pair (:func:`hashed_jaccard`) inside map_batches.

    The ``key`` column may be any integer or string type — its Arrow
    type is carried through to the output ``a``/``b`` columns."""
    from .joins import field_type
    ktype = field_type(ds, key)

    sigs = minhash_signatures(ds, num_perm, shingle_k, seed, col, key)
    cand = lsh_candidate_pairs(sigs, bands, key, bucket_cap)

    sets_src = ds.select_columns([key, col])
    if prune:
        from .joins import bloom_keys, bloom_semi_filter, \
            default_join_partitions
        # repartition folds the groupby's schema-less empty blocks into
        # schema-bearing ones; materialize so the two consumers (bloom
        # build + edge explode) don't re-run the LSH lineage
        cand = cand.repartition(default_join_partitions()).materialize()
        mask_ref = bloom_keys(cand, ["a", "b"])
        sets_src = bloom_semi_filter(sets_src, mask_ref, key)

    def to_sets(batch: pa.Table) -> pa.Table:
        # each doc's unique gram-hash set as ONE binary blob: moves
        # through shuffles as plain bytes (no per-element Python, no
        # list-column sort cost) and decodes zero-copy via frombuffer
        sets = [np.unique(gram_hashes(t or "", shingle_k)).tobytes()
                for t in batch.column(col).to_pylist()]
        return pa.table({
            key: batch.column(key),
            "__sh": pa.array(sets, type=pa.large_binary()),
        })

    gram_sets = sets_src.map_batches(to_sets, batch_format="pyarrow")

    attached = attach_pair_sets(cand, gram_sets, key, ktype)

    def verify_batch(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        sha = batch.column("__sha").to_pylist()
        shb = batch.column("__shb").to_pylist()
        js = np.empty(len(sha), dtype=np.float64)
        for i, (x, y) in enumerate(zip(sha, shb)):
            js[i] = hashed_jaccard(
                np.frombuffer(x or b"", dtype=np.uint64),
                np.frombuffer(y or b"", dtype=np.uint64))
        out = pa.table({
            "a": pc.cast(batch.column("a"), ktype),
            "b": pc.cast(batch.column("b"), ktype),
            "jaccard": pa.array(js, type=pa.float64()),
        })
        return out.filter(pa.array(js >= threshold))

    return attached.map_batches(verify_batch, batch_format="pyarrow")


# ---- simhash ----------------------------------------------------------

def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public-domain constants): spreads the
    32-bit crc32 word hashes over all 64 bits, vectorized."""
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace words — fully vectorized: one
    crc32 per word (C speed, same primitive the minhash signer uses),
    splitmix64 bit-mixing and a single batched unpackbits/sum for the
    ±1 bit accumulation (the old per-word blake2b + Python loop was
    ~30x slower, a real cost at corpus scale)."""
    from zlib import crc32
    words = text.split()
    if not words:
        return 0
    wh = _mix64(np.fromiter((crc32(w.encode()) for w in words),
                            dtype=np.uint64, count=len(words)))
    # big-endian byte view so bit 0 of the unpacked array is the hash's
    # MSB; acc[i] > 0 sets output bit (63 - i), matching the old layout
    bits = np.unpackbits(wh.astype(">u8").view(np.uint8)
                         .reshape(len(words), 8), axis=1)
    acc = (bits.astype(np.int32) * 2 - 1).sum(axis=0)
    return int.from_bytes(np.packbits(acc > 0).tobytes(), "big")


def add_simhash(ds: Any, col: str = "text", out: str = "simhash") -> Any:
    def f(batch: pa.Table) -> pa.Table:
        vals = [simhash64(t) for t in _text_col(batch, col)]
        # store as int64 (wrap) for parquet friendliness
        arr = pa.array([v - (1 << 64) if v >= (1 << 63) else v
                        for v in vals], type=pa.int64())
        return batch.append_column(out, arr)
    return ds.map_batches(f, batch_format="pyarrow")


def hamming_near_dups(ds: Any, hash_col: str, key: str,
                      max_hamming: int = 3,
                      bucket_cap: int = DEFAULT_BUCKET_CAP) -> Any:
    """Near-duplicate pairs over ANY int64 64-bit hash column
    (SimHash text fingerprints, dHash/aHash image fingerprints, ...):
    band the hash into equal-width keys — 4x16 / 8x8 / 16x4 bits,
    the smallest band count exceeding ``max_hamming``, so any pair
    within the threshold shares at least one band by pigeonhole —
    bucket-shuffle the slim (key, band, hash) rows, then
    Hamming-verify within buckets. Buckets above ``bucket_cap``
    members emit star pairs against the bucket minimum (Hamming
    still verified) instead of all-pairs — see module docstring.
    Returns (a, b, hamming) with a < b, deduplicated. Keys may be
    any orderable type (the key column's Arrow type is carried
    through the exchange); ``hash_col`` must be non-null — filter
    error rows upstream (image/audio callers do)."""
    from .joins import first_of_runs, hash_exchange, run_starts

    if max_hamming <= 3:
        nbands = 4
    elif max_hamming <= 7:
        nbands = 8
    elif max_hamming <= 15:
        nbands = 16
    else:
        raise ValueError("max_hamming > 15 needs a different blocking")
    width = 64 // nbands
    signed = ds.select_columns([key, hash_col])

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        sh = batch.column(hash_col).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        u = sh.view(np.uint64)
        bvals = np.empty((n, nbands), dtype=np.int32)
        for b in range(nbands):
            bvals[:, b] = ((u >> np.uint64(width * b))
                           & np.uint64((1 << width) - 1)).astype(
                               np.int32)
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), nbands))
        return pa.table({
            key: batch.column(key).take(idx),
            "band_id": pa.array(
                np.tile(np.arange(nbands, dtype=np.int32), n)),
            "band_val": pa.array(bvals.ravel()),
            hash_col: pa.array(np.repeat(sh, nbands)),
        })

    def pairs(t: pa.Table) -> pa.Table:
        band = ["band_id", "band_val"]
        t = first_of_runs(t, band + [key, hash_col])  # members
        ks = t.column(key)
        hs = t.column(hash_col).to_numpy(zero_copy_only=False) \
            .view(np.uint64)
        starts = run_starts(t, band)
        ends = np.append(starts[1:], t.num_rows)
        big = ends - starts > 1
        ia, ib = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for s, e in zip(starts[big], ends[big]):
            i, j = _bucket_pairs(np.arange(s, e), bucket_cap)
            ia.append(i)
            ib.append(j)
        ia, ib = np.concatenate(ia), np.concatenate(ib)
        ham = _popcount64(hs[ia] ^ hs[ib])
        keep = ham <= max_hamming
        return pa.table({"a": ks.take(pa.array(ia[keep])),
                         "b": ks.take(pa.array(ib[keep])),
                         "hamming": pa.array(ham[keep])})

    def distinct(t: pa.Table) -> pa.Table:
        return first_of_runs(t, ["a", "b"])

    cand = hash_exchange(signed.map_batches(explode, batch_format="pyarrow"),
                         ["band_id", "band_val"], pairs,
                         batch_format="pyarrow")
    return hash_exchange(cand, "a", distinct, batch_format="pyarrow")


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Set bits per uint64 (SWAR popcount), as int64."""
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) \
        + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)) \
        .astype(np.int64)


def simhash_near_dups(ds: Any, max_hamming: int = 3, col: str = "text",
                      key: str = "doc_id",
                      bucket_cap: int = DEFAULT_BUCKET_CAP) -> Any:
    """SimHash near-dup pairs: sign the text column, then the generic
    banded-Hamming blocking (:func:`hamming_near_dups`)."""
    return hamming_near_dups(add_simhash(ds, col), "simhash", key,
                             max_hamming=max_hamming,
                             bucket_cap=bucket_cap)


def dedup_against_corpus(new: Any, ref: Any, threshold: float = 0.8,
                         num_perm: int = 64, bands: int = 16,
                         shingle_k: int = 3, seed: int = 42,
                         col: str = "text", key: str = "doc_id") -> Any:
    """Cross-corpus near-dup removal — dedupe a FRESH crawl against a
    reference corpus already in the training set (the production
    incremental-crawl step: RefinedWeb and CCNet both dedupe new
    snapshots against prior ones).  A ``new`` doc whose word-shingle
    Jaccard vs ANY ``ref`` doc reaches ``threshold`` is dropped;
    new-vs-new duplication is deliberately preserved (compose with
    :func:`minhash_dedup` + ``dedup_keep_canonical`` for that).

    Shape: both sides are tagged with a side prefix on a string key,
    unioned, and pushed through the SAME sign -> LSH -> bucketed
    verify pipeline as :func:`minhash_dedup` (one code path to keep
    correct); verified pairs filter to cross-side, project the
    new-side key (slim ``(key,)`` rows), distinct via one groupby,
    and remove via the bucketed left join — no driver state, no
    corpus text on any exchange beyond minhash_dedup's own gram-set
    design.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max

    from .joins import hash_join, schema_guard

    from .joins import field_type
    ktype = field_type(new, key)

    def tag(prefix: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({
                "__ck": pc.binary_join_element_wise(
                    prefix, pc.cast(t.column(key), pa.string()), ""),
                col: t.column(col)})
        return f

    from .joins import default_join_partitions
    # fan the union out before signing: a few-block input (one file =
    # one block) would run the whole sign stage near-serial
    comb = new.map_batches(tag("n:"), batch_format="pyarrow").union(
        ref.map_batches(tag("r:"), batch_format="pyarrow")) \
        .repartition(2 * default_join_partitions())
    pairs = minhash_dedup(comb, threshold, num_perm, bands, shingle_k,
                          seed, col, "__ck")

    def cross_new(t: pa.Table) -> pa.Table:
        an = pc.starts_with(t.column("a"), pattern="n:")
        bn = pc.starts_with(t.column("b"), pattern="n:")
        t = t.filter(pc.xor(an, bn))
        a, b = t.column("a"), t.column("b")
        nk = pc.if_else(pc.starts_with(a, pattern="n:"), a, b)
        nk = pc.utf8_slice_codeunits(nk, 2, 2_000_000_000)
        return pa.table({
            key: pc.cast(nk, ktype),
            "__dup": pa.array(np.ones(t.num_rows, dtype=np.int8))})

    # distinct (a new doc can match many ref docs) + schema_guard: a
    # clean crawl leaves this side all-empty (joins.schema_guard doc).
    # materialize: the removal join's schema probe would otherwise
    # EXECUTE the whole sign->LSH->verify lineage once for schema
    # inference and again for the join (measured 91s -> ~30s at
    # sf0.1); the contaminated-key set is pair-shaped — object-store
    # resident is its natural size class (cf. minhash_dedup's cand).
    dup = schema_guard(
        pairs.map_batches(cross_new, batch_format="pyarrow")
        .groupby(key).aggregate(Max("__dup", alias_name="__dup")),
        pa.schema([(key, ktype), ("__dup", pa.int8())])).materialize()

    joined = hash_join(new, dup, key, how="left")

    def survivors(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_null(t.column("__dup_r"))) \
            .drop_columns(["__dup_r"])
        # the padded left join rides through pandas and coerces int
        # keys to float64 — restore the input's Arrow key type
        i = t.column_names.index(key)
        return t.set_column(i, key, pc.cast(t.column(key), ktype))

    return joined.map_batches(survivors, batch_format="pyarrow")


# ---- exact set-similarity self-join (prefix filtering) ----------------

def _prefix_filter_join(ds: Any, threshold: float, shingle_k: int,
                        col: str, key: str, candidates, measure,
                        out_col: str) -> Any:
    """The machinery setsim_join and containment_join share.

    Index: one (key, gram, size) row per unique gram of each doc —
    the only big intermediate (materialized once, two consumers;
    spill-backed). Gram frequencies are a slim groupby joined back on
    the gram; a :func:`~.joins.hash_exchange` on the key then keeps
    each doc's PREFIX (|x| - ceil(t·|x|) + 1 grams, ceil in exact
    rational arithmetic) in (global gram frequency asc, hash asc)
    order. ``candidates(rows, pref, ktype, p, q)`` (t = p/q) turns the
    full index and the prefixes into (a, b) pairs; verify is
    Bloom-pruned set blobs, :func:`attach_pair_sets` and one
    vectorized ``measure(set_a, set_b)`` per pair, kept when
    >= threshold. Empty docs emit no grams, so they never pair.
    Output: (a, b, ``out_col``)."""
    import math
    from fractions import Fraction

    import pandas as pd
    import pyarrow.compute as pc
    from .joins import (bloom_keys, bloom_semi_filter,
                        default_join_partitions, field_type, hash_exchange,
                        hash_join)

    ktype = field_type(ds, key)
    t_frac = Fraction(str(threshold))
    src = ds.select_columns([key, col])

    def rows_f(batch: pa.Table) -> pa.Table:
        keys = batch.column(key).to_pylist()
        ks, ws, szs = [], [], []
        for kk, tt in zip(keys, batch.column(col).to_pylist()):
            h = np.unique(gram_hashes(tt or "", shingle_k))
            if not len(h):
                continue
            ks.extend([kk] * len(h))
            ws.append(h)
            szs.extend([len(h)] * len(h))
        w = (np.concatenate(ws) if ws
             else np.empty(0, dtype=np.uint64))
        return pa.table({
            key: pa.array(ks, type=ktype),
            # int64 view: Ray 2.49 pickles uint64 groupby keys
            "w": pa.array(w.view(np.int64)),
            "size": pa.array(szs, type=pa.int64())})

    rows = src.map_batches(rows_f, batch_format="pyarrow") \
        .materialize()

    freq = rows.groupby("w").count().map_batches(
        lambda t: pa.table({"w": t.column("w"),
                            "gfreq": t.column("count()")}),
        batch_format="pyarrow")

    ranked = hash_join(rows, freq, key="w")
    # hash_join pre-suffixes right non-key columns unconditionally,
    # so the name is static — probing ranked.schema() here would
    # EXECUTE the whole join once for the probe and again downstream
    freq_col = "gfreq_r"

    def prefix(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, freq_col, "w"])
        pos = g.groupby(key, sort=False).cumcount().to_numpy()
        sizes = g["size"].to_numpy()
        plen = {s: s - int(math.ceil(t_frac * s)) + 1
                for s in np.unique(sizes)}
        keep = pos < np.array([plen[s] for s in sizes])
        return g.loc[keep, [key, "w", "size"]]

    pref = hash_exchange(ranked, key, prefix)
    cand = candidates(rows, pref, ktype, t_frac.numerator,
                      t_frac.denominator) \
        .repartition(default_join_partitions()).materialize()

    mask_ref = bloom_keys(cand, ["a", "b"])
    sets_src = bloom_semi_filter(src, mask_ref, key)

    def to_sets(batch: pa.Table) -> pa.Table:
        sets = [np.unique(gram_hashes(t or "", shingle_k)).tobytes()
                for t in batch.column(col).to_pylist()]
        return pa.table({
            key: batch.column(key),
            "__sh": pa.array(sets, type=pa.large_binary())})

    blobs = sets_src.map_batches(to_sets, batch_format="pyarrow")
    attached = attach_pair_sets(cand, blobs, key, ktype)

    def verify_batch(batch: pa.Table) -> pa.Table:
        sha = batch.column("__sha").to_pylist()
        shb = batch.column("__shb").to_pylist()
        vs = np.empty(len(sha), dtype=np.float64)
        for i, (x, y) in enumerate(zip(sha, shb)):
            vs[i] = measure(np.frombuffer(x or b"", dtype=np.uint64),
                            np.frombuffer(y or b"", dtype=np.uint64))
        out = pa.table({
            "a": pc.cast(batch.column("a"), ktype),
            "b": pc.cast(batch.column("b"), ktype),
            out_col: pa.array(vs, type=pa.float64())})
        return out.filter(pa.array(vs >= threshold))

    return attached.map_batches(verify_batch, batch_format="pyarrow")


def setsim_join(ds: Any, threshold: float = 0.8, shingle_k: int = 3,
                col: str = "text", key: str = "doc_id") -> Any:
    """EXACT Jaccard self-join via prefix filtering (AllPairs/PPJoin
    family, Bayardo et al. 2007; Chaudhuri et al. 2006) — the exact
    counterpart of :func:`minhash_dedup`: returns EVERY pair with
    gram-set Jaccard >= threshold, no LSH recall loss.

    Candidate completeness: order each doc's unique gram-hash set by
    (global gram frequency asc, hash asc) and keep the PREFIX of
    length |x| - ceil(t·|x|) + 1 (ceil in exact rational arithmetic).
    For J(x,y) >= t the overlap o >= ceil(t·|x|), so the smallest
    common gram (in that total order) sits within BOTH prefixes — an
    equi-join of prefix rows on the gram finds every qualifying pair.

    Scale shape (:func:`_prefix_filter_join`): the prefix self-join
    is a hash exchange on the gram, so each reduce task runs one
    vectorized self-merge; rare-first ordering is what keeps those
    buckets small (a bucket blows up only if many docs' RAREST
    retained gram coincides — i.e. a true near-dup cluster, which is
    output-sized anyway). Empty docs never pair, matching the SQL
    replay. Output: (a, b, jaccard)."""
    import pandas as pd
    from .joins import hash_exchange

    def candidates(rows, pref, ktype, p_num, q_den):
        def pair_up(g: pd.DataFrame) -> pa.Table:
            df = g[[key, "w", "size"]]
            m = df.merge(df, on="w", suffixes=("_a", "_b"))
            m = m[m[f"{key}_a"] < m[f"{key}_b"]]
            # length filter (Arasu et al. 2006): J(x,y) <= min/max of
            # the set sizes, so J >= t needs q*min >= p*max — exact
            # integers, drops size-incompatible candidates before the
            # verify join
            sa = m["size_a"].to_numpy()
            sb = m["size_b"].to_numpy()
            m = m.loc[q_den * np.minimum(sa, sb)
                      >= p_num * np.maximum(sa, sb)]
            m = m.drop_duplicates(subset=[f"{key}_a", f"{key}_b"])
            return pa.table({
                "a": pa.array(m[f"{key}_a"], type=ktype),
                "b": pa.array(m[f"{key}_b"], type=ktype)})

        return hash_exchange(pref, "w", pair_up)

    return _prefix_filter_join(ds, threshold, shingle_k, col, key,
                               candidates, hashed_jaccard, "jaccard")


def hashed_containment(sa: np.ndarray, sb: np.ndarray) -> float:
    """Exact containment |A∩B| / |A| over two UNIQUE gram-hash sets
    (how much of A's gram set appears in B) — the asymmetric
    companion of :func:`hashed_jaccard`."""
    if sa.size == 0:
        return 0.0
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    return inter / sa.size


def containment_join(ds: Any, threshold: float = 0.9,
                     shingle_k: int = 3, col: str = "text",
                     key: str = "doc_id") -> Any:
    """EXACT asymmetric containment self-join: every ORDERED pair
    (a, b), a != b, where >= ``threshold`` of a's unique word
    ``shingle_k``-grams also occur in b — near-subset / quotation /
    excerpt detection, which the symmetric Jaccard joins miss by
    construction (a short quote inside a long page has tiny Jaccard
    but containment ~1).

    Candidate completeness (one-sided prefix filter, Chaudhuri et
    al. 2006): order grams by (global frequency asc, hash asc); a's
    PREFIX of length |a| − ceil(t·|a|) + 1 must intersect b's FULL
    gram set whenever |a∩b| >= ceil(t·|a|) — at most |a| − ceil(t·|a|)
    of a's grams miss b, one fewer than the prefix length.  So the
    equi-join of probe-side prefix rows against index-side full rows
    finds every qualifying ordered pair; only the probe side is
    pruned (the container needs no minimum overlap fraction of its
    own).  Bucket economics: prefixes hold only globally RARE grams,
    so a common gram contributes many index rows but almost no probe
    rows — the per-bucket product stays near the true candidate
    count.  Verify = one vectorized exact containment per distinct
    pair (:func:`_prefix_filter_join`).  Empty-gram docs never pair,
    either side.  Output: (a, b, containment)."""
    import pandas as pd
    import pyarrow.compute as pc
    from .joins import hash_exchange

    def candidates(rows, pref, ktype, p_num, q_den):
        def tag(side: int, src_ds):
            def f(batch: pa.Table) -> pa.Table:
                return pa.table({
                    key: pc.cast(batch.column(key), ktype),
                    "w": batch.column("w"),
                    "size": batch.column("size"),
                    "__p": pa.array(
                        np.full(batch.num_rows, side, dtype=np.int8))})
            return src_ds.map_batches(f, batch_format="pyarrow")

        def pair_up(g: pd.DataFrame) -> pa.Table:
            p = g.loc[g["__p"] == 0, [key, "w", "size"]]
            ix = g.loc[g["__p"] == 1, [key, "w", "size"]]
            m = p.merge(ix, on="w", suffixes=("_a", "_b"))
            m = m[m[f"{key}_a"] != m[f"{key}_b"]]
            # length filter: containment = o/|a| with o <= |b|, so
            # >= t needs q*|b| >= p*|a| (exact integers)
            m = m.loc[q_den * m["size_b"].to_numpy()
                      >= p_num * m["size_a"].to_numpy()]
            m = m.drop_duplicates(subset=[f"{key}_a", f"{key}_b"])
            return pa.table({
                "a": pa.array(m[f"{key}_a"], type=ktype),
                "b": pa.array(m[f"{key}_b"], type=ktype)})

        return hash_exchange(tag(0, pref).union(tag(1, rows)), "w",
                             pair_up)

    return _prefix_filter_join(ds, threshold, shingle_k, col, key,
                               candidates, hashed_containment,
                               "containment")
