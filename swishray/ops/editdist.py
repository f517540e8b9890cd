"""EXACT edit-distance (Levenshtein) self-join over short strings.

The reference's dedup story is byte-exact uri upsert
(/root/reference/src/xapian/swish_xapian.cpp:563-601) plus this
engine's gram-set Jaccard family (ops/dedup.py); a training-data
pipeline ALSO needs character-level near-matching for short keys —
product names, titles, author strings, urls — where "one typo away"
is the right notion of duplicate and token sets are too coarse.

Algorithm: symmetric-delete blocking (the SymSpell/FastSS family,
Bocek et al. 2007, "Fast Similarity Search in Large Dictionaries").
For every string s emit its deletion neighborhood D_k(s) = all
variants obtained by deleting AT MOST k characters.  Completeness:
an optimal alignment witnessing ed(a,b) = d <= k spends each of its
d operations as at most one deletion from a and one from b
(substitution = one from each; insert = one from b; delete = one
from a), so both sides reach a COMMON subsequence with <= k
deletions each — D_k(a) ∩ D_k(b) is non-empty and an equi-join on
deletion variants finds every qualifying pair.  Variants are hashed
to 64 bits before the shuffle; a hash collision can only MERGE
buckets (extra candidates, culled by verify), never lose a pair.

Scale shape: per string of length L the signature stage emits
O(C(L,k)) slim (hash, s) rows — the classic SymSpell space trade,
viable because the operator CONTRACT is short strings (<= ~64
chars; longer inputs should go through the gram-set joins instead).
Candidate pairing is one hash exchange on the signature
(joins.hash_exchange), so each reduce task runs one vectorized
pandas self-merge; duplicate candidate pairs collapse
in a second slim groupby BEFORE the (per-pair, Python, banded
O(k·L)) verify, so each distinct pair is verified exactly once.
Nothing is ever collected on the driver.

Output: (a, b, dist) with a < b lexicographically, one row per
distinct string pair with ed <= k — byte-replayable against DuckDB's
``levenshtein(a, b) <= k`` brute-force oracle.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa


def deletion_variants(s: str, k: int) -> list[str]:
    """All distinct strings reachable from ``s`` by deleting at most
    ``k`` characters (including ``s`` itself)."""
    out = {s}
    frontier = {s}
    for _ in range(k):
        nxt = set()
        for v in frontier:
            for i in range(len(v)):
                nxt.add(v[:i] + v[i + 1:])
        nxt -= out
        out |= nxt
        frontier = nxt
    return sorted(out)


def lev_within(a: str, b: str, k: int) -> int | None:
    """Levenshtein distance if <= k else None — banded DP, unit
    costs, identical semantics to DuckDB/Postgres ``levenshtein``."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return None
    if la == 0 or lb == 0:
        return max(la, lb)
    big = k + 1
    prev = [j if j <= k else big for j in range(lb + 1)]
    for i in range(1, la + 1):
        cur = [big] * (lb + 1)
        if i <= k:
            cur[0] = i
        lo = max(1, i - k)
        hi = min(lb, i + k)
        best = big
        ai = a[i - 1]
        for j in range(lo, hi + 1):
            c = 0 if ai == b[j - 1] else 1
            v = prev[j - 1] + c
            if prev[j] + 1 < v:
                v = prev[j] + 1
            if cur[j - 1] + 1 < v:
                v = cur[j - 1] + 1
            cur[j] = v
            if v < best:
                best = v
        if best > k:
            return None
        prev = cur
    return prev[lb] if prev[lb] <= k else None


def editdist_join(ds: Any, col: str, k: int = 1) -> Any:
    """Every distinct pair of DISTINCT values of ``ds[col]`` with
    Levenshtein distance <= ``k`` (see module doc).  Input rows need
    not be unique — values are deduplicated first, so identical
    strings never pair with themselves (matching a
    ``SELECT DISTINCT`` + ``a < b`` SQL oracle)."""
    import pandas as pd

    from .joins import hash_exchange
    from .md5vec import md5_u32

    distinct = (ds.select_columns([col])
                .groupby(col).count()
                .map_batches(lambda t: t.select([col]),
                             batch_format="pyarrow"))

    def sigs(batch: pa.Table) -> pa.Table:
        ss, variants = [], []
        for s in batch.column(col).to_pylist():
            s = s or ""
            vs = deletion_variants(s, k)
            ss.extend([s] * len(vs))
            variants.extend(vs)
        h = md5_u32(variants).astype(np.int64)
        # fold the variant length in to cheaply decorrelate the
        # 32-bit hash (collisions stay safe either way)
        h = h * np.int64(1000003) + np.fromiter(
            (len(v) for v in variants), dtype=np.int64,
            count=len(variants))
        return pa.table({
            "sig": pa.array(h, type=pa.int64()),
            "s": pa.array(ss, type=pa.large_string())})

    sig_rows = distinct.map_batches(sigs, batch_format="pyarrow")

    def pair_up(g: pd.DataFrame) -> pa.Table:
        df = g[["sig", "s"]]
        m = df.merge(df, on="sig", suffixes=("_a", "_b"))
        m = m[m["s_a"] < m["s_b"]]
        m = m.drop_duplicates(subset=["s_a", "s_b"])
        return pa.table({
            "a": pa.array(m["s_a"], type=pa.large_string()),
            "b": pa.array(m["s_b"], type=pa.large_string())})

    cand = hash_exchange(sig_rows, "sig", pair_up) \
        .groupby(["a", "b"]).count()

    def verify(batch: pa.Table) -> pa.Table:
        a_list = batch.column("a").to_pylist()
        b_list = batch.column("b").to_pylist()
        keep, dists = [], []
        for i, (x, y) in enumerate(zip(a_list, b_list)):
            d = lev_within(x, y, k)
            if d is not None:
                keep.append(i)
                dists.append(d)
        idx = pa.array(np.asarray(keep, dtype=np.int64))
        return pa.table({
            "a": pa.array([a_list[i] for i in keep],
                          type=pa.large_string()),
            "b": pa.array([b_list[i] for i in keep],
                          type=pa.large_string()),
            "dist": pa.array(dists, type=pa.int64())})

    return cand.map_batches(verify, batch_format="pyarrow")
