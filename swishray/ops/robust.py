"""Robust-statistics filters and the large-side semi join.

Reference context: libswish3's result filtering is property-range
based (src/libswish3/search.c limit parsing); a corpus-cleaning
pipeline additionally needs OUTLIER trims that are robust to the
heavy-tailed length/score distributions of web text — median/MAD
rather than mean/stddev (one 500 MB page moves a mean, not a median).
Both ops here keep the corpus streaming: the only driver state is a
handful of float scalars.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa
import pyarrow.compute as pc


def mad_outliers(ds: Any, col: str, k: float = 3.0,
                 keep: str = "inliers") -> Any:
    """Filter rows by the robust z-score |x - median| > k * MAD, with
    BOTH the median and the MAD computed EXACTLY (quantile_disc
    semantics, the contract :func:`continuous_quantiles` implements)
    — no sampling, no sketch error to explain away.

    Scale shape: two runs of the iterative range-narrowing quantile
    (each a couple of streaming histogram passes — rows never leave
    their tasks, driver state is O(bins)), then one broadcast-scalar
    filter pass. No shuffle anywhere. ``keep`` selects ``inliers``
    (drop the tail) or ``outliers`` (inspect the tail).

    Null contract: a null value cannot be judged, so it is NEVER an
    outlier — null rows are kept by ``keep='inliers'`` and dropped by
    ``keep='outliers'``, consistently with the all-null early return
    (which keeps everything as inliers).
    """
    from .aggregates import continuous_quantiles

    med_t = continuous_quantiles(ds, col, [0.5])
    med_v = med_t.column("value")[0].as_py()
    if med_v is None:
        # empty / all-null column: no distribution, so no outliers
        if keep == "inliers":
            return ds
        return ds.filter(lambda _: False)
    med = float(med_v)

    def add_dev(batch: pa.Table) -> pa.Table:
        d = pc.abs(pc.subtract(
            pc.cast(batch.column(col), pa.float64()), med))
        return pa.table({"__dev": d})

    devs = ds.map_batches(add_dev, batch_format="pyarrow")
    mad_t = continuous_quantiles(devs, "__dev", [0.5])
    mad = float(mad_t.column("value")[0].as_py())
    thr = float(k) * mad

    def f(batch: pa.Table) -> pa.Table:
        d = pc.abs(pc.subtract(
            pc.cast(batch.column(col), pa.float64()), med))
        # null deviation -> "not an outlier" in BOTH modes (see
        # the null contract in the docstring)
        mask = pc.fill_null(pc.greater(d, thr), False)
        if keep == "inliers":
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(f, batch_format="pyarrow")


def semi_join_large(left: Any, right: Any, key: str,
                    right_key: str | None = None) -> Any:
    """Both-sides-large distributed semi join: keep every ``left`` row
    whose key appears in ``right``, never duplicating left rows no
    matter how many right matches exist.

    The broadcast variant (:func:`semi_join_keys`) needs the key set
    on the driver; this one never collects anything. Shape: the right
    side is reduced MAP-SIDE to per-batch distinct keys, then a
    groupby-count makes them globally distinct (the exchange carries
    bare keys, nothing else), and the slim key table inner-joins back
    to ``left`` via hash_join — the winners pattern exact_dedup
    uses (dedup.py).
    """
    rk = right_key or key

    def distinct_keys(batch: pa.Table) -> pa.Table:
        return pa.table({key: pc.unique(batch.column(rk))})

    from ray.data.aggregate import Count

    from .joins import hash_join

    keys = right.map_batches(distinct_keys, batch_format="pyarrow") \
        .groupby(key).aggregate(Count(alias_name="__c"))

    left_cols = None
    sch = left.schema(fetch_if_missing=False)
    if sch is not None:
        left_cols = list(sch.names)

    # an all-empty keys side is handled inside hash_join (resolved
    # schemas + degenerate empty-side answers)
    out = hash_join(left, keys, key, how="inner")
    if left_cols is not None:
        out = out.select_columns(left_cols)
    else:
        # schema unknown (unmaterialized lineage — probing would run
        # it twice, see hash_join); strip the count column by name
        def strip(batch: pa.Table) -> pa.Table:
            drop = [c for c in ("__c", "__c_r") if c in
                    batch.column_names]
            return batch.drop_columns(drop)
        out = out.map_batches(strip, batch_format="pyarrow")
    return out
