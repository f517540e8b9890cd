"""Explicit partitioning / skew operators (north_rule requirements:
"documents are bucketed by size-aware repartition to defeat skew from
giant HTML blobs, with groupby-on-host salting for pathological
domains"). The size-aware half is ``pipeline.rebatch_by_bytes``.

  * salted_group_count — two-phase groupby: hot keys are salted into
                      sub-buckets for the wide partial aggregate, then
                      merged in a tiny final groupby; no single reducer
                      ever sees a whole pathological domain
  * url_host        — netloc extraction for host-keyed stages
"""

from __future__ import annotations

from typing import Any
from zlib import crc32

import pyarrow as pa


def url_host(url: str) -> str:
    rest = url.split("://", 1)[-1]
    return rest.split("/", 1)[0].lower()


def add_host(ds: Any, col: str = "url", out: str = "host") -> Any:
    def f(batch: pa.Table) -> pa.Table:
        hosts = [url_host(u) for u in batch.column(col).to_pylist()]
        return batch.append_column(out, pa.array(hosts, type=pa.string()))
    return ds.map_batches(f, batch_format="pyarrow")


def salted_group_count(ds: Any, key: str, salt_buckets: int = 16,
                       value_col: str | None = None) -> Any:
    """Skew-proof grouped count (+optional sum): phase 1 groups on
    (key, salt) so a hot key spreads over ``salt_buckets`` reducers;
    phase 2 merges the per-salt partials — its input is at most
    (distinct keys x salt_buckets) rows."""
    from ray.data.aggregate import Count, Sum

    def add_salt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        # deterministic row salt (key-independent -> uniform spread)
        base = crc32(str(batch.column(key)[0].as_py()).encode()) if n else 0
        salt = [(base + i) % salt_buckets for i in range(n)]
        return batch.append_column("__salt",
                                   pa.array(salt, type=pa.int32()))

    aggs1 = [Count(alias_name="n_partial")]
    if value_col:
        aggs1.append(Sum(value_col, alias_name="sum_partial"))
    partial = ds.map_batches(add_salt, batch_format="pyarrow") \
        .groupby([key, "__salt"]).aggregate(*aggs1)

    aggs2 = [Sum("n_partial", alias_name="n")]
    if value_col:
        aggs2.append(Sum("sum_partial", alias_name=f"sum_{value_col}"))
    return partial.groupby(key).aggregate(*aggs2)


def docs_per_host(extracted: Any, salt_buckets: int = 16) -> Any:
    """Per-host document counts with salting — the pathological-domain
    aggregate from the north_rule."""
    hosted = add_host(extracted)
    return salted_group_count(hosted, "host", salt_buckets)


def union_schemas(schemas) -> "pa.Schema":
    """Union-by-name schema with type widening: a column missing on
    one side arrives as nulls; int widths widen (int32+int64 ->
    int64), int+float -> float64, string/large_string ->
    large_string, binary likewise; otherwise types must agree."""
    order: list = []
    types: dict = {}
    for s in schemas:
        for f in s:
            if f.name not in types:
                order.append(f.name)
                types[f.name] = f.type
            else:
                types[f.name] = _widen(types[f.name], f.type, f.name)
    return pa.schema([(n, types[n]) for n in order])


def _widen(a: "pa.DataType", b: "pa.DataType", name: str):
    if a == b:
        return a
    def is_str(t):
        return pa.types.is_string(t) or pa.types.is_large_string(t)
    def is_bin(t):
        return pa.types.is_binary(t) or pa.types.is_large_binary(t)
    if pa.types.is_integer(a) and pa.types.is_integer(b):
        return a if a.bit_width >= b.bit_width else b
    if (pa.types.is_integer(a) or pa.types.is_floating(a)) and \
            (pa.types.is_integer(b) or pa.types.is_floating(b)):
        return pa.float64()
    if is_str(a) and is_str(b):
        return pa.large_string()
    if is_bin(a) and is_bin(b):
        return pa.large_binary()
    if pa.types.is_null(a):
        return b
    if pa.types.is_null(b):
        return a
    raise TypeError(
        f"column {name!r}: cannot harmonize {a} with {b}")


def union_harmonized(*dss) -> "Any":
    """UNION ALL BY NAME across datasets with drifted schemas — the
    crawl-generations case (an old snapshot lacks a column a new one
    added; an id column widened from int32 to int64). Missing columns
    arrive as typed nulls, shared columns widen per
    :func:`union_schemas`. Pure map-side casts + Dataset.union: no
    shuffle, streaming-safe at any scale."""
    schemas = [ds.schema() for ds in dss]
    # an all-empty generation through a map lineage has an unknowable
    # schema and zero rows — it contributes nothing to the union
    dss = [d for d, s in zip(dss, schemas) if s is not None]
    schemas = [s for s in schemas if s is not None]
    if not dss:
        import ray.data as rd
        return rd.from_arrow(pa.table({}))
    target = union_schemas(
        pa.schema(list(zip(s.names, s.types))) for s in schemas)

    def conform(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {}
        for f in target:
            if f.name in t.column_names:
                cols[f.name] = t.column(f.name).cast(f.type)
            else:
                cols[f.name] = pa.nulls(n, type=f.type)
        return pa.table(cols)

    out = dss[0].map_batches(conform, batch_format="pyarrow")
    for d in dss[1:]:
        out = out.union(d.map_batches(conform, batch_format="pyarrow"))
    return out


def survivorship_merge(ds: Any, cluster: str, rules: dict,
                       keep_key: str | None = None) -> Any:
    """Golden-record consolidation: collapse each duplicate CLUSTER
    (e.g. connected-component output of the near-dup joins) to one
    survivor row, choosing each column by an explicit, DETERMINISTIC
    survivorship rule — the step between "pairs found" and "corpus
    written" that the reference's last-write-wins uri upsert
    (/root/reference/src/xapian/swish_xapian.cpp:563-601) hardcodes.

    Rules per output column: ``min`` / ``max`` (plain extremum),
    ``longest`` (max by (length, value) — value ascends on ties so
    replay is exact), ``mode`` (highest count, then smallest value).
    ``keep_key`` (default: every rule column's cluster minimum of
    ``cluster`` itself is implicit) names a column whose per-cluster
    MINIMUM identifies the survivor.

    Scale shape: records ride ONE cluster-keyed
    :func:`~.joins.hash_exchange` (merging inherently co-locates a
    cluster); each bucket resolves every rule for all its clusters
    with one sort each.  Documented contract (shared with
    collect_sorted): a cluster fits one task — dedup clusters are
    output-sized, orders of magnitude below corpus scale."""
    import pyarrow.compute as pc

    from .joins import first_of_runs, hash_exchange

    allowed = {"min", "max", "longest", "mode"}
    bad = {r for r in rules.values()} - allowed
    if bad:
        raise ValueError(f"unknown survivorship rules: {bad}")
    picks = ([(keep_key, "min")] if keep_key is not None else []) \
        + list(rules.items())

    def pick(t: pa.Table, col: str, rule: str) -> pa.Array:
        # one row per cluster, in cluster order: the first row of each
        # cluster run under the rule's sort (nulls sort last)
        v = t.column(col)
        if rule == "longest":
            t = pa.table({cluster: t.column(cluster), col: v,
                          "__len": pc.utf8_length(pc.cast(v, pa.string()))})
            order = [("__len", "descending"), (col, "ascending")]
        elif rule == "mode":
            t = t.group_by([cluster, col], use_threads=False) \
                .aggregate([([], "count_all")])
            # a null value never wins over a counted one
            t = t.append_column("__n", pc.if_else(
                pc.is_valid(t.column(col)), t.column("count_all"), -1))
            order = [("__n", "descending"), (col, "ascending")]
        else:
            order = [(col, "ascending" if rule == "min" else "descending")]
        return first_of_runs(t, [cluster], order).column(col)

    def merge(t: pa.Table) -> pa.Table:
        out = {cluster: first_of_runs(t, [cluster]).column(cluster)}
        for col, rule in picks:
            out[col] = pick(t, col, rule)
        return pa.table(out)

    return hash_exchange(ds, cluster, merge, batch_format="pyarrow")
