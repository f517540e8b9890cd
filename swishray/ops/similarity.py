"""Similarity search over an embedding column (list<float>).

  * brute_force_topk — numpy matmul per batch against a broadcast
    query matrix (ray.put once, fetched in each worker's __init__ — the
    small-side broadcast join pattern, never re-shipped per batch)
  * ivf_topk — IVF-style scale path: deterministic k-means-lite
    centroids from a sample, bucket assignment via groupby, probe the
    nearest n_probe buckets only
  * cosine_dup_pairs — embedding near-dup detection (cosine >= thr)
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa


def _mat(batch_col) -> np.ndarray:
    lst = batch_col.to_pylist()
    return np.asarray(lst, dtype=np.float64)


def _norm(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


class _BruteScorer:
    """Actor: query matrix fetched from the object store once."""

    def __init__(self, queries_ref, k: int, key: str, col: str):
        import ray
        q = ray.get(queries_ref)
        self.qids = q["ids"]
        self.qm = _norm(np.asarray(q["vecs"], dtype=np.float64))
        self.k = k
        self.key = key
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.key).to_pylist()
        m = _norm(_mat(batch.column(self.col)))
        scores = self.qm @ m.T  # (nq, nb)
        k = min(self.k, scores.shape[1])
        out_q, out_id, out_s = [], [], []
        # per-batch partial top-k per query; final top-k after shuffle
        for qi in range(scores.shape[0]):
            idx = np.argpartition(-scores[qi], k - 1)[:k]
            for j in idx:
                out_q.append(self.qids[qi])
                out_id.append(ids[j])
                out_s.append(float(scores[qi, j]))
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            self.key: pa.array(out_id, type=pa.int64()),
            "score": pa.array(out_s, type=pa.float64()),
        })


def brute_force_topk(ds: Any, query_ids: list[int],
                     query_vecs: "np.ndarray", k: int = 10,
                     key: str = "vec_id", col: str = "embedding") -> Any:
    """Exact cosine top-k for each query vector. Returns
    (query_id, vec_id, score) — k rows per query, ties broken by id."""
    import pandas as pd
    import ray
    from ..util import map_batches_stateful

    if len(query_ids) == 0:  # empty query set: empty result
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            key: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64())}))
    qref = ray.put({"ids": list(query_ids), "vecs": query_vecs})
    partial = map_batches_stateful(
        ds, _BruteScorer,
        fn_constructor_kwargs=dict(queries_ref=qref, k=k, key=key, col=col),
        batch_format="pyarrow")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["score", key],
                             ascending=[False, True]).head(k)

    return partial.groupby("query_id").map_groups(
        final_topk, batch_format="pandas")


def _train_centroids(ds: Any, n_centroids: int, seed: int, col: str,
                     sample_limit: int) -> "np.ndarray":
    """Deterministic k-means-lite centroids from a BOUNDED sample (the
    only driver-side materialization in the IVF family, capped at
    sample_limit rows)."""
    sample = ds.limit(sample_limit).select_columns([col]).take_all()
    if not sample:  # empty corpus: no centroids to train
        return np.zeros((0, 0), dtype=np.float64)
    sm = _norm(np.asarray([r[col] for r in sample], dtype=np.float64))
    rng = np.random.RandomState(seed)
    cent = sm[rng.choice(len(sm), size=min(n_centroids, len(sm)),
                         replace=False)]
    for _ in range(5):  # lloyd iterations
        assign = np.argmax(sm @ cent.T, axis=1)
        for c in range(cent.shape[0]):
            mask = assign == c
            if mask.any():
                v = sm[mask].mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    cent[c] = v / nv
    return cent


def ivf_topk(ds: Any, query_ids: list[int], query_vecs: "np.ndarray",
             k: int = 10, n_centroids: int = 8, n_probe: int = 2,
             seed: int = 42, key: str = "vec_id",
             col: str = "embedding", sample_limit: int = 2048) -> Any:
    """IVF-bucketed approximate top-k: train centroids on a bounded
    sample (k-means-lite, deterministic), assign every vector to its
    nearest centroid inside map_batches, and score only vectors in the
    n_probe buckets nearest each query. At cluster scale the bucket
    assignment is the partitioning key — each probe touches 1/B of the
    corpus."""
    import pandas as pd
    import ray

    cent = _train_centroids(ds, n_centroids, seed, col, sample_limit)
    if cent.size == 0 or len(query_ids) == 0:  # empty corpus/queries
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "query_id": pa.array([], pa.int64()),
            key: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64())}))
    cent_ref = ray.put(cent)

    qm = _norm(np.asarray(query_vecs, dtype=np.float64))
    probes: dict[int, list[int]] = {}
    qsim = qm @ cent.T
    for qi, qid in enumerate(query_ids):
        probes[qid] = list(np.argsort(-qsim[qi])[:n_probe])
    probe_buckets = sorted({b for bs in probes.values() for b in bs})

    def assign_bucket(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _norm(_mat(batch.column(col)))
        b = np.argmax(m @ c.T, axis=1)
        return batch.append_column("ivf_bucket",
                                   pa.array(b, type=pa.int32()))

    bucketed = ds.map_batches(assign_bucket, batch_format="pyarrow")
    bset = set(probe_buckets)

    def keep_probed(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        mask = pc.is_in(batch.column("ivf_bucket"),
                        value_set=pa.array(sorted(bset), type=pa.int32()))
        return batch.filter(mask)

    probed = bucketed.map_batches(keep_probed, batch_format="pyarrow")

    from ..util import map_batches_stateful
    qref = ray.put({"ids": list(query_ids), "vecs": query_vecs})
    partial = map_batches_stateful(
        probed, _BruteScorer,
        fn_constructor_kwargs=dict(queries_ref=qref, k=k, key=key, col=col),
        batch_format="pyarrow")

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["score", key],
                             ascending=[False, True]).head(k)

    return partial.groupby("query_id").map_groups(
        final_topk, batch_format="pandas")


def cosine_dup_pairs(ds: Any, threshold: float = 0.95,
                     key: str = "vec_id", col: str = "embedding",
                     grid: int = 8) -> Any:
    """Embedding near-dup pairs (a < b) with cosine >= threshold —
    EXACT, with no driver-side materialization and no whole-corpus
    broadcast.

    Grid-partitioned block join (the classic 1-bucket-theta-join
    shape): every vector is hashed to one of ``grid`` cells; each
    unordered cell pair (i <= j) forms one comparison group, and each
    vector is replicated to the ``grid`` groups its cell belongs to.
    Inside a group one numpy matmul compares cell-i rows against
    cell-j rows (upper triangle when i == j), so every pair is scored
    exactly once, fully distributed.

    Cost model: replication factor = ``grid`` (ids + vectors ride the
    shuffle ``grid`` times), per-task memory ~ 2/grid of the corpus,
    tasks = grid*(grid+1)/2. At cluster scale pick
    grid ~ sqrt(2 * corpus_bytes / per_task_budget); the default 8
    suits test-scale embedding tables. For approximate-but-cheaper
    near-dups at 100 TB, bucket by IVF centroid first (see ivf_topk)
    and run this within buckets."""
    def explode(batch: pa.Table) -> pa.Table:
        """Grid replication, fully vectorized: cell assignment via the
        shared vectorized key hash, the (row x grid) group matrix via
        broadcast min/max — no per-row Python loop."""
        from .joins import _key_hash64
        n = batch.num_rows
        cells = (_key_hash64(batch.column(key)) % np.uint64(grid)) \
            .astype(np.int64)
        p = cells[:, None]                      # (n, 1)
        q = np.arange(grid, dtype=np.int64)[None, :]   # (1, grid)
        groups = (np.minimum(p, q) * grid + np.maximum(p, q)).ravel()
        idx = np.repeat(np.arange(n, dtype=np.int64), grid)
        out = batch.select([key, col]).take(pa.array(idx))
        out = out.append_column("cell", pa.array(
            cells[idx], type=pa.int32()))
        return out.append_column("grp", pa.array(groups, type=pa.int32()))

    def score_group(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return pa.table({"a": pa.array([], type=pa.int64()),
                             "b": pa.array([], type=pa.int64()),
                             "score": pa.array([], type=pa.float64())})
        grp = g.column("grp")[0].as_py()
        gi, gj = divmod(grp, grid)
        cells = np.asarray(g.column("cell").to_pylist(), dtype=np.int64)
        ids = np.asarray(g.column(key).to_pylist(), dtype=np.int64)
        m = _norm(_mat(g.column(col)))
        out_a, out_b, out_s = [], [], []
        if gi == gj:
            s = m @ m.T
            for i in range(len(ids)):
                js = np.nonzero(s[i] >= threshold)[0]
                for j in js:
                    if ids[i] < ids[j]:
                        out_a.append(int(ids[i]))
                        out_b.append(int(ids[j]))
                        out_s.append(float(s[i, j]))
        else:
            li = np.nonzero(cells == gi)[0]
            rj = np.nonzero(cells == gj)[0]
            if len(li) and len(rj):
                s = m[li] @ m[rj].T
                for x in range(len(li)):
                    ys = np.nonzero(s[x] >= threshold)[0]
                    for y in ys:
                        a, b = ids[li[x]], ids[rj[y]]
                        if a > b:
                            a, b = b, a
                        out_a.append(int(a))
                        out_b.append(int(b))
                        out_s.append(float(s[x, y]))
        return pa.table({"a": pa.array(out_a, type=pa.int64()),
                         "b": pa.array(out_b, type=pa.int64()),
                         "score": pa.array(out_s, type=pa.float64())})

    exploded = ds.select_columns([key, col]).map_batches(
        explode, batch_format="pyarrow")
    return exploded.groupby("grp").map_groups(
        score_group, batch_format="pyarrow")


def cosine_dup_pairs_ivf(ds: Any, threshold: float = 0.95,
                         n_centroids: int = 16, seed: int = 42,
                         key: str = "vec_id", col: str = "embedding",
                         sample_limit: int = 2048) -> Any:
    """APPROXIMATE embedding near-dup pairs — the 10^12-row scale path
    (cosine_dup_pairs' grid join is exact but still does all-pairs
    FLOPs; this caps compute at sum-of-bucket-squares):

      1. train centroids on a bounded sample (driver holds only the
         sample, never the corpus);
      2. assign every vector to its nearest centroid in map_batches
         (the bucket is the ONE partitioning key);
      3. groupby bucket, all-pairs matmul within each bucket.

    Pairs whose members land in different buckets are missed — recall
    is tunable via n_centroids (fewer/larger buckets = higher recall,
    more compute). High-threshold near-dups co-assign with high
    probability since both vectors sit near the same centroid."""
    import ray

    cent = _train_centroids(ds, n_centroids, seed, col, sample_limit)
    if cent.size == 0:  # empty corpus: no pairs
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64())}))
    cent_ref = ray.put(cent)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        m = _norm(_mat(batch.column(col)))
        b = np.argmax(m @ c.T, axis=1)
        return pa.table({
            key: batch.column(key),
            col: batch.column(col),
            "ivf_bucket": pa.array(b, type=pa.int32()),
        })

    bucketed = ds.select_columns([key, col]).map_batches(
        assign, batch_format="pyarrow")

    def pairs(g: pa.Table) -> pa.Table:
        ids = np.asarray(g.column(key).to_pylist(), dtype=np.int64)
        m = _norm(_mat(g.column(col)))
        s = m @ m.T
        out_a, out_b, out_s = [], [], []
        for i in range(len(ids)):
            js = np.nonzero(s[i] >= threshold)[0]
            for j in js:
                if ids[i] < ids[j]:
                    out_a.append(int(ids[i]))
                    out_b.append(int(ids[j]))
                    out_s.append(float(s[i, j]))
        return pa.table({"a": pa.array(out_a, type=pa.int64()),
                         "b": pa.array(out_b, type=pa.int64()),
                         "score": pa.array(out_s, type=pa.float64())})

    return bucketed.groupby("ivf_bucket").map_groups(
        pairs, batch_format="pyarrow")
