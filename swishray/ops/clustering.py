"""Distributed k-means + SemDeDup-style embedding dedup.

``kmeans`` is full-corpus Lloyd's in the canonical distributed shape:
centroids broadcast via ``ray.put``, one map_batches pass per
iteration emitting per-(batch, cluster) PARTIAL sums — k x #blocks
tiny rows back to the driver, never vectors — folded in a
deterministic order (sorted by (cluster, min_key)) so a fixed input
partitioning reproduces bit-identical centroids run-to-run. The
bootstrap centroids come from the same bounded deterministic sample
the IVF family trains on (similarity._train_centroids shape).

``semdedup`` is the cluster-then-dedup method of Abbas et al. 2023
("SemDeDup: Data-efficient learning at web-scale through semantic
deduplication"): k-means first, then exact pairwise cosine ONLY
within each cluster — the k-fold partition turns the corpus-quadratic
problem into k cluster-quadratic ones. Keep rule is deterministic:
cluster members are visited in key order and kept iff their max
cosine to an already-kept member stays below the threshold.

Reference anchor: the corpus-level generalization of libswish3's
upsert-by-uri dedup contract (swish_xapian.cpp:563-601) to semantic
near-duplicates.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa

from .similarity import _mat, _norm


def _bootstrap(ds: Any, k: int, seed: int, col: str,
               sample_limit: int, normalize: bool,
               key: str = "vec_id") -> np.ndarray:
    """Deterministic bounded bootstrap sample. ``Dataset.limit()``
    after a repartition returns whichever blocks finish first, so the
    sample is instead hash-picked map-side (keep rows with
    hash(key) % p == 0, p sized from ds.count() to land ~2x
    sample_limit rows) and key-sorted — same rows every run at every
    partitioning, no shuffle."""
    from swishray.ops.joins import _key_hash64

    n = ds.count()
    p = max(1, n // max(1, 2 * sample_limit))
    slim = ds.select_columns([key, col])
    if p > 1:
        def pick(batch: pa.Table) -> pa.Table:
            h = _key_hash64(batch.column(key)) % np.uint64(p)
            return batch.filter(pa.array(h == 0))
        slim = slim.map_batches(pick, batch_format="pyarrow")
    sample = slim.take_all()
    sample.sort(key=lambda r: r[key])
    sample = sample[:sample_limit]
    sm = np.asarray([r[col] for r in sample], dtype=np.float64)
    if sm.size == 0:  # empty corpus: no vectors to seed from
        return np.zeros((0, 0), dtype=np.float64)
    if normalize:
        sm = _norm(sm)
    rng = np.random.RandomState(seed)
    return sm[rng.choice(len(sm), size=min(k, len(sm)),
                         replace=False)].copy()


def kmeans(ds: Any, col: str = "embedding", key: str = "vec_id",
           k: int = 8, iters: int = 10, seed: int = 0,
           sample_limit: int = 2048,
           normalize: bool = True) -> np.ndarray:
    """Full-corpus Lloyd's; returns the (k, dim) centroid matrix.

    Per iteration: one streaming pass; the driver receives one
    (cluster, vec_sum, n, min_key) row per non-empty cluster per
    block — O(k x blocks) bytes, vectors never leave their tasks.
    Empty clusters keep their previous centroid. With
    ``normalize=True`` assignment is cosine (spherical k-means,
    centroids re-normalized each round); otherwise Euclidean via the
    |x|^2 - 2x.c + |c|^2 expansion."""
    import ray

    cent = _bootstrap(ds, k, seed, col, sample_limit, normalize, key)
    if cent.size == 0:  # empty corpus: no centroids
        return cent

    for _ in range(iters):
        cent_ref = ray.put(cent)

        def partial(batch: pa.Table, _ref=cent_ref) -> pa.Table:
            c = ray.get(_ref)
            m = _mat(batch.column(col))
            mm = _norm(m) if normalize else m
            if normalize:
                a = np.argmax(mm @ c.T, axis=1)
            else:
                d = (mm * mm).sum(1)[:, None] - 2.0 * (mm @ c.T) \
                    + (c * c).sum(1)[None, :]
                a = np.argmin(d, axis=1)
            keys = batch.column(key).to_numpy(zero_copy_only=False)
            rows = []
            for ci in np.unique(a):
                mask = a == ci
                rows.append({
                    "cluster": int(ci),
                    "vec_sum": mm[mask].sum(axis=0).tolist(),
                    "n": int(mask.sum()),
                    "min_key": int(keys[mask].min())})
            return pa.Table.from_pylist(rows) if rows else pa.table({
                "cluster": pa.array([], pa.int64()),
                "vec_sum": pa.array([], pa.list_(pa.float64())),
                "n": pa.array([], pa.int64()),
                "min_key": pa.array([], pa.int64())})

        parts = ds.map_batches(partial, batch_format="pyarrow") \
            .take_all()
        # deterministic fold order -> reproducible float sums for a
        # fixed input partitioning (bit-exact whenever sums are,
        # e.g. integer-valued vectors)
        parts.sort(key=lambda r: (r["cluster"], r["min_key"]))
        new = cent.copy()
        sums = np.zeros_like(cent)
        counts = np.zeros(cent.shape[0], dtype=np.int64)
        for r in parts:
            sums[r["cluster"]] += np.asarray(r["vec_sum"])
            counts[r["cluster"]] += r["n"]
        nonempty = counts > 0
        new[nonempty] = sums[nonempty] / counts[nonempty, None]
        if normalize:
            new[nonempty] = _norm(new[nonempty])
        cent = new

    return cent


def assign_clusters(ds: Any, centroids: np.ndarray,
                    col: str = "embedding", key: str = "vec_id",
                    normalize: bool = True) -> Any:
    """(key, cluster) assignment under fixed centroids — map-side."""
    import ray

    ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def f(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        m = _mat(batch.column(col))
        mm = _norm(m) if normalize else m
        if normalize:
            a = np.argmax(mm @ c.T, axis=1)
        else:
            d = (mm * mm).sum(1)[:, None] - 2.0 * (mm @ c.T) \
                + (c * c).sum(1)[None, :]
            a = np.argmin(d, axis=1)
        return pa.table({key: batch.column(key),
                         "cluster": pa.array(a.astype(np.int64))})

    return ds.map_batches(f, batch_format="pyarrow")


def semdedup(ds: Any, col: str = "embedding", key: str = "vec_id",
             k: int = 8, threshold: float = 0.95, iters: int = 5,
             seed: int = 0, max_cluster: int = 200_000) -> Any:
    """SemDeDup: k-means then exact pairwise cosine within clusters.

    Output: ``(key, cluster, kept)`` for every input row. Keep rule
    (deterministic): visit cluster members in ascending key order;
    keep a member iff its max cosine to every already-kept member is
    below ``threshold`` — so each semantic duplicate set survives as
    exactly its lowest-key member.

    Scale shape: the vectors ride ONE shuffle, keyed by cluster, and
    each cluster's quadratic work happens in its own task (the whole
    point of clustering first — k tasks of (n/k)^2 instead of n^2).
    Partitioning assumption: one cluster's vectors fit in a task;
    ``max_cluster`` guards it — an over-cap cluster raises with the
    instruction to raise k (salting cannot preserve exact semantics
    here because the keep rule is order-dependent across the whole
    cluster)."""
    import pandas as pd

    import ray

    cent = kmeans(ds, col=col, key=key, k=k, iters=iters, seed=seed)
    if cent.size == 0:  # empty corpus: nothing to dedup
        import ray.data as rd
        return rd.from_arrow(pa.table({
            key: pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
            "kept": pa.array([], pa.bool_())}))
    ref = ray.put(cent)

    # assignment is map-side, so the vector column rides along into
    # the ONE cluster-keyed shuffle — no join needed
    def assign_with_vec(batch: pa.Table) -> pa.Table:
        c = ray.get(ref)
        mm = _norm(_mat(batch.column(col)))
        a = np.argmax(mm @ c.T, axis=1)
        return pa.table({key: batch.column(key),
                         col: batch.column(col),
                         "cluster": pa.array(a.astype(np.int64))})

    joined = ds.select_columns([key, col]).map_batches(
        assign_with_vec, batch_format="pyarrow")
    vcol = col

    def dedup_cluster(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) > max_cluster:
            raise ValueError(
                f"cluster of {len(g)} rows exceeds max_cluster="
                f"{max_cluster}; raise k so clusters shrink")
        g = g.sort_values(key).reset_index(drop=True)
        m = _norm(np.asarray(g[vcol].to_list(), dtype=np.float64))
        sim = m @ m.T
        n = len(g)
        kept_mask = np.zeros(n, dtype=bool)
        kept_idx: list[int] = []
        for i in range(n):
            if not kept_idx or \
                    sim[i, kept_idx].max() < threshold:
                kept_mask[i] = True
                kept_idx.append(i)
        return pd.DataFrame({key: g[key],
                             "cluster": g["cluster"],
                             "kept": kept_mask})

    return joined.groupby("cluster").map_groups(
        dedup_cluster, batch_format="pandas")
