"""Pin the Ray invariants _join_empty_side's documented degenerate
shape relies on (joins.py), so a Ray upgrade that changes them fails
loudly here instead of silently breaking the static-suffix pattern
(dedup.py's ``gfreq_r``).

Invariant 1: a row-preserving join against a schema-LESS empty side
returns the known side's rows with NO null-padded ``_r`` suffix
columns (the empty side's columns are unknowable — the map fn that
would have produced them never ran).

Invariant 2: downstream ``map_batches`` UDFs never see an empty
block — Ray drops empty blocks before UDFs run. This is what lets
code statically reference a join's ``_r`` column: in the degenerate
all-empty state that column is absent from the (fieldless) result,
but no UDF ever executes to notice.
"""

import pyarrow as pa
import pytest
import ray.data as rd

from swishray.ops.joins import hash_join


def _schemaless_empty():
    """An all-empty dataset whose schema is unknowable (empty corpus
    through a map lineage — the map fn never runs)."""
    ds = rd.from_arrow(pa.table({"k": pa.array([], pa.string()),
                                 "v": pa.array([], pa.int64())}))
    return ds.map_batches(lambda t: t, batch_format="pyarrow")


def test_left_join_empty_right_has_no_suffix_columns(ray_session):
    left = rd.from_arrow(pa.table({"k": ["a", "b"], "x": [1, 2]}))
    out = hash_join(left, _schemaless_empty(), key="k", how="left")
    t = pa.Table.from_pandas(out.to_pandas())
    assert sorted(t.column_names) == ["k", "x"]  # documented shape
    assert t.num_rows == 2


def test_empty_blocks_never_reach_downstream_udfs(ray_session):
    # inner join against a schema-less empty side -> fieldless empty
    # result; a downstream UDF that statically references a suffixed
    # column must never be invoked (Ray drops empty blocks first).
    left = rd.from_arrow(pa.table({"k": ["a"], "x": [1]}))
    joined = hash_join(left, _schemaless_empty(), key="k", how="inner")

    def needs_suffix(batch: pa.Table) -> pa.Table:
        # would raise KeyError on the degenerate schema if invoked
        return batch.select(["x", "v_r"])

    out = joined.map_batches(needs_suffix, batch_format="pyarrow")
    assert out.count() == 0


def test_schemaless_probe_invariant(ray_session):
    # The fetch_if_missing=False probe is load-bearing in joins.py:
    # it must return None (not a fabricated schema) for an
    # all-empty-through-map lineage, both before and after execution.
    ds = _schemaless_empty()
    assert ds.schema(fetch_if_missing=False) is None
    mat = ds.materialize()
    sch = mat.schema(fetch_if_missing=False)
    # executed: Ray may report None or a field-less schema; either
    # way there must be NO fabricated columns
    assert sch is None or len(sch.names) == 0


def test_empty_blocks_dropped_among_nonempty(ray_session):
    # Ray must drop empty blocks before downstream UDFs even when
    # OTHER blocks are non-empty (filter leaves empty remainders).
    ds = rd.range(64, override_num_blocks=8) \
        .filter(lambda r: r["id"] < 8)  # 7 of 8 blocks become empty

    seen = []

    def udf(t: pa.Table) -> pa.Table:
        assert t.num_rows > 0, "UDF saw an empty block"
        seen.append(t.num_rows)
        return t

    out = ds.map_batches(udf, batch_format="pyarrow")
    assert out.count() == 8


@pytest.mark.parametrize("how,rows,n_r", [
    ("inner", 2, [(0, 10), (1, 10)]),
    ("left", 3, [(0, 10), (1, 10), (5, None)]),
    ("outer", 4, [(0, 10), (1, 10), (2, 10), (5, None)]),
])
def test_aggregate_side_with_schemaless_empty_blocks(ray_session, how,
                                                     rows, n_r):
    # a groupby-aggregate with fewer groups than input blocks emits
    # schema-less empty blocks for the reduce partitions that got no
    # group; hash_join must join such a side directly, with no
    # repartition in front of it
    from ray.data.aggregate import Count
    right = rd.from_items([{"k": i % 3} for i in range(30)]) \
        .repartition(8).groupby("k").aggregate(Count(alias_name="n"))
    left = rd.from_arrow(pa.table({"k": pa.array([0, 1, 5], pa.int64()),
                                   "x": ["a", "b", "c"]}))
    t = pa.Table.from_pandas(
        hash_join(left, right, key="k", how=how).to_pandas())
    assert t.num_rows == rows
    assert sorted(t.column_names) == ["k", "n_r", "x"]
    got = sorted(zip(t.column("k").to_pylist(),
                     t.column("n_r").to_pylist()))
    assert [(k, None if v != v else v) for k, v in got] == n_r
