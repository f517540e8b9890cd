"""Join-shaped operators (§2.4 parity).

The reference's joins are broadcast small-side lookups (config hashes)
plus keyed upsert/anti-join at the sink (swish_xapian.cpp:563-601,
1124-1140). At Ray scale the same shapes are:

  * broadcast semi/anti filter — the delete path (--Delete) and
    skip-list path (--Skip-duplicates against an existing index)
  * keep-first upsert — dedup_by_url (pipeline.py)
  * partitioned hash join — :func:`hash_join`, the one both-sides-
    large equi-join (bucket both sides on the key hash, join matching
    buckets)

An operator that keeps both shapes (robots, URL blocklist,
decontamination, duplicate-line strip) picks one by the one rule in
:func:`small_side`: broadcast the side when its measured bytes fit
``BROADCAST_MAX_BYTES``, hash-join it otherwise.

Every bucketed operator in the engine (the upsert, the hash join, the
dedup/set-similarity/graph pair-ups) exchanges rows through the one
:func:`hash_exchange` below.
"""

from __future__ import annotations

from typing import Any
from zlib import crc32

import pyarrow as pa
import pyarrow.compute as pc


def anti_join_keys(ds: Any, keys: set | list, col: str = "url") -> Any:
    """Drop rows whose key is in ``keys`` (the --Delete anti-join):
    broadcast the key set once, filter inside map_batches."""
    import ray
    ref = ray.put(pa.array(sorted(set(keys))))

    def f(batch: pa.Table) -> pa.Table:
        vs = ray.get(ref)
        mask = pc.invert(pc.is_in(batch.column(col), value_set=vs))
        return batch.filter(mask)
    return ds.map_batches(f, batch_format="pyarrow")


def semi_join_keys(ds: Any, keys: set | list, col: str = "url") -> Any:
    """Keep only rows whose key is in ``keys`` (broadcast semi join)."""
    import ray
    ref = ray.put(pa.array(sorted(set(keys))))

    def f(batch: pa.Table) -> pa.Table:
        vs = ray.get(ref)
        return batch.filter(pc.is_in(batch.column(col), value_set=vs))
    return ds.map_batches(f, batch_format="pyarrow")


def broadcast_lookup_join(ds: Any, mapping: dict, key: str,
                          out: str) -> Any:
    """Small-side dictionary join (the config-hash pattern): map each
    row's ``key`` through a broadcast dict into a new column."""
    import ray
    ref = ray.put(mapping)

    def f(batch: pa.Table) -> pa.Table:
        m = ray.get(ref)
        vals = [m.get(k) for k in batch.column(key).to_pylist()]
        return batch.append_column(out, pa.array(vals))
    return ds.map_batches(f, batch_format="pyarrow")


# A broadcast side is probed in every batch, and pc.is_in rebuilds
# its hash set from the value array on every call: one 12k-probe call
# took 0.6 ms against a 0.1 MiB set, 8.6 ms against 2.8 MiB and 210 ms
# against 28.5 MiB. Past this budget the side is hash-joined instead.
BROADCAST_MAX_BYTES = 8 << 20


def small_side(side: Any, schema: pa.Schema | None = None
               ) -> pa.Table | None:
    """The broadcast-or-join rule: ``side`` (a Dataset, Table or
    array) as one Arrow table when it holds at most
    ``BROADCAST_MAX_BYTES`` (read at call time), else None, and the
    caller hash-joins it. A Dataset is materialized in the object
    store and pulled to the driver only when it fits, so a caller
    that may join it passes it materialized. ``schema`` casts every
    block; an empty side then comes back as its empty table."""
    import ray
    if isinstance(side, (pa.Array, pa.ChunkedArray)):
        side = pa.table({"value": side})
    if isinstance(side, pa.Table):
        size, tables = side.nbytes, [side]
    else:
        side = side.materialize()
        size, tables = side.size_bytes(), None
    if size is None or size > BROADCAST_MAX_BYTES:
        return None
    if tables is None:
        tables = ray.get(side.to_arrow_refs())
    if schema is not None:
        tables = [schema.empty_table()] + [
            pa.table({f.name: t.column(f.name).cast(f.type)
                      for f in schema}) for t in tables if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


DEFAULT_BLOOM_BITS = 1 << 23  # 1 MiB bitmap


def _key_hash64(arr: pa.Array):
    """Vectorized 64-bit key hash: splitmix64 over integer keys
    (pure numpy), crc32 (C speed) + splitmix64 over strings — no
    per-row Python digest objects."""
    import numpy as np
    from .dedup import _mix64
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_integer(arr.type):
        # nulls hash as 0: converting a column WITH nulls goes through
        # float64, which rounds large keys, so a key's hash would
        # depend on whether its block also holds a null
        v = pc.fill_null(arr.cast(pa.int64()), 0).to_numpy(
            zero_copy_only=False).astype(np.uint64)
    else:
        v = np.fromiter((crc32(str(s).encode()) for s in arr.to_pylist()),
                        dtype=np.uint64, count=len(arr))
    return _mix64(v)


def _bloom_indices(h, m_bits: int, p: int):
    """Double-hashing probe p: (lo + p*hi) % m, hi forced odd."""
    import numpy as np
    lo = h & np.uint64(0xFFFFFFFF)
    hi = (h >> np.uint64(32)) | np.uint64(1)
    return ((lo + np.uint64(p) * hi) % np.uint64(m_bits)).astype(np.int64)


def bloom_keys(keys_ds: Any, cols: list[str],
               m_bits: int = DEFAULT_BLOOM_BITS, probes: int = 2):
    """Build a broadcast Bloom bitmap of every value in ``cols`` of
    ``keys_ds``, fully distributed: each block emits its own bitmap, a
    small repartition tree ORs them, and the driver holds only the
    final FIXED-SIZE mask (returned as a ray ObjectRef of
    (mask_bytes, m_bits, probes)). No false negatives; false positives
    are ~fill_ratio**probes and only cost extra rows at the consumer
    (``bloom_semi_filter`` is a SUPERSET filter) — never correctness.
    Driver memory is O(m_bits), independent of key count, which is
    what makes this the scale-safe replacement for a driver-side
    ``take_all`` of keys."""
    import numpy as np
    import ray

    m_bytes = m_bits // 8

    def block_mask(batch: pa.Table) -> pa.Table:
        mask = np.zeros(m_bytes, dtype=np.uint8)
        for c in cols:
            h = _key_hash64(batch.column(c))
            for p in range(probes):
                idx = _bloom_indices(h, m_bits, p)
                np.bitwise_or.at(
                    mask, idx >> 3,
                    (np.int64(1) << (idx & 7)).astype(np.uint8))
        return pa.table({"__mask": pa.array([mask.tobytes()],
                                            type=pa.large_binary())})

    def or_block(batch: pa.Table) -> pa.Table:
        out = np.zeros(m_bytes, dtype=np.uint8)
        for b in batch.column("__mask").to_pylist():
            out |= np.frombuffer(b, dtype=np.uint8)
        return pa.table({"__mask": pa.array([out.tobytes()],
                                            type=pa.large_binary())})

    masks = keys_ds.map_batches(block_mask, batch_format="pyarrow") \
        .repartition(8).map_batches(or_block, batch_format="pyarrow")
    final = np.zeros(m_bytes, dtype=np.uint8)
    for row in masks.take_all():  # <= 8 rows of m_bytes each
        final |= np.frombuffer(row["__mask"], dtype=np.uint8)
    return ray.put((final.tobytes(), m_bits, probes))


def bloom_semi_filter(ds: Any, mask_ref, col: str) -> Any:
    """Keep rows whose ``col`` value is (probably) in the Bloom mask
    built by :func:`bloom_keys` — the distributed semi-join shape for
    a large build side: the mask ships once per worker via the object
    store and the filter runs map-side, so NEITHER side rides a
    shuffle. May keep false-positive rows (superset), never drops a
    true member."""
    import numpy as np
    import ray

    def f(batch: pa.Table) -> pa.Table:
        mb, m_bits, probes = ray.get(mask_ref)
        mask = np.frombuffer(mb, dtype=np.uint8)
        h = _key_hash64(batch.column(col))
        keep = np.ones(len(h), dtype=bool)
        for p in range(probes):
            idx = _bloom_indices(h, m_bits, p)
            keep &= (mask[idx >> 3]
                     & (np.int64(1) << (idx & 7)).astype(np.uint8)) != 0
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def schema_guard(ds: Any, schema: pa.Schema) -> Any:
    """Give a join side a schema even when it holds no rows.

    A side that ends up all-empty (a zero-group aggregate, a filter
    that matched nothing — e.g. a CLEAN corpus in a contamination
    scrub) executes to zero blocks with no schema, and
    :func:`hash_join` then returns the degenerate empty-side answer
    (:func:`_join_empty_side`): no ``_r`` columns for the side that
    had none. Callers that read those columns need a real row. This
    guard (a) casts every non-empty block to ``schema`` (groupbys
    narrow large_string -> string, which would otherwise fail the
    join's union) and (b) unions in ONE all-null sentinel row.

    Contract: null join keys never match, so for INNER and LEFT joins
    with the guarded side on the right the sentinel never reaches the
    output and no cleanup is needed. A guarded side of an OUTER or
    RIGHT join is preserved unmatched — drop null-key rows after the
    join (see crawl.snapshot_delta, which rides the same contract).
    """
    import ray.data as rd

    def f(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return schema.empty_table()
        return pa.table(
            {f_.name: t.column(f_.name).cast(f_.type) for f_ in schema})

    sentinel = rd.from_arrow(pa.table(
        {f_.name: pa.array([None], f_.type) for f_ in schema}))
    return sentinel.union(ds.map_batches(f, batch_format="pyarrow"))


def default_join_partitions(cap: int = 64) -> int:
    """Bucket count of :func:`hash_exchange` (and the block count it
    coalesces its input to) sized to the CURRENT session: one bucket
    per CPU keeps every CPU busy with one reduce task and the number
    of shuffle sub-blocks small; ``cap`` bounds the task count on big
    nodes (each bucket can still hold many keys)."""
    from ..util import _session_cpus
    return max(2, min(cap, _session_cpus()))


_TAG = "__hx"


def hash_exchange(ds: Any, key: str | list[str], fn,
                  num_buckets: int | None = None,
                  batch_format: str = "pandas") -> Any:
    """The keyed exchange: route every row to bucket
    ``_key_hash64(key) % num_buckets`` (default
    :func:`default_join_partitions`) and run ``fn`` once per bucket —
    one vectorized pass over all of a bucket's keys. ``key`` is one
    column or a list of them; a list folds the per-column hashes
    through splitmix64, and a single key routes exactly as
    ``_key_hash64`` says. All rows of one key reach the same ``fn``
    call. ``fn`` never sees the bucket tag, so it never leaks into
    the output and exchanges chain freely.

    Buckets, not keys: Ray invokes the map_groups fn once per group,
    and per-key invocation overhead (a Python frame + block build per
    key, ~1.2 ms at 1 CPU), not the bytes moved, is the cost. So a
    per-key ``fn`` sorts its bucket and works on the key runs
    (:func:`run_starts`, :func:`first_of_runs`) or whole-bucket
    reducers, and returns Arrow when a Ray aggregate reads its
    output (that aggregate is ~20x slower over pandas blocks).

    The only per-group ``map_groups`` left outside this function are
    sites whose group count configuration bounds (the exchange-shape
    test reads this list): ``increment.write_fingerprint_store`` and
    ``manifest._write_grouped`` (``num_buckets`` buckets),
    ``clustering.semdedup`` (``k`` clusters),
    ``similarity.brute_force_topk`` and ``similarity.ivf_topk`` (the
    driver's query list), ``similarity.cosine_dup_pairs`` (``grid``
    squared cells) and ``similarity.cosine_dup_pairs_ivf``
    (``n_centroids`` buckets).

    The input is coalesced to ``default_join_partitions()`` blocks
    before it is tagged and shuffled. Ray's groupby emits one
    sub-block per (map block, reduce partition) pair, ALL OWNED BY THE
    DRIVER, and sub-blocks under the ~100 KB inline threshold live in
    the driver's in-process store rather than plasma: with M ~ R ~
    input blocks, a many-block map side drove driver PRIVATE RSS to
    ~1.9 GB at soak x20 in hash_join (traced: Python heap 26 MB — all
    native core-worker memory), and the LSH band table (~300 MB at
    soak x100, M ~ 64) added +395 MB that persisted after
    materialize. Coalescing keeps M x R small and every sub-block
    plasma-sized (measured: 1.6 GB -> ~0.3 GB at x20, flat to x100;
    LSH 509 -> 155 MB at identical wall time); block bytes grow with
    the corpus, so sub-blocks only get safer at scale (Ray's dynamic
    block splitting re-caps blocks at target_max_block_size if they
    outgrow worker heaps). repartition() here is Ray's block
    coalesce, not an extra all-to-all. Tagging after the coalesce
    runs one tag task per coalesced block, not one per input block (a
    separate stage after a union); on the sf0.01 minhash, setsim and
    containment queries that beat tagging first.

    Partitioning assumption: one bucket's rows fit a task heap; salt
    hot keys upstream."""
    import numpy as np
    from .dedup import _mix64
    nb = num_buckets or default_join_partitions()
    keys = [key] if isinstance(key, str) else list(key)

    def tag(batch: pa.Table) -> pa.Table:
        h = _key_hash64(batch.column(keys[0]))
        for k in keys[1:]:
            h = _mix64(h ^ _key_hash64(batch.column(k)))
        b = (h % np.uint64(nb)).astype(np.int32)
        return batch.append_column(_TAG, pa.array(b))

    def untagged(g):
        if batch_format == "pandas":
            del g[_TAG]
            return fn(g)
        return fn(g.drop_columns([_TAG]))

    return ds.repartition(default_join_partitions()) \
        .map_batches(tag, batch_format="pyarrow") \
        .groupby(_TAG).map_groups(untagged, batch_format=batch_format)


def run_starts(t: pa.Table, keys: list[str], brk=None):
    """Start rows of the runs of equal ``keys`` in ``t``, which is
    sorted on them: row 0 plus every row whose key differs from the
    row before (two nulls are equal). ``brk`` (one bool per row)
    starts extra runs inside a key — a session gap, a value change.
    Returns int64 row indices; the per-key kernels reduce over the
    runs with ``np.*.reduceat`` or take their first rows."""
    import numpy as np
    new = np.zeros(t.num_rows, dtype=bool) if brk is None \
        else np.array(brk, dtype=bool)
    new[:1] = True
    for k in keys:
        c = t.column(k).combine_chunks()
        a, b = c[1:], c[:-1]
        same = pc.or_kleene(pc.equal(a, b),
                            pc.and_(pc.is_null(a), pc.is_null(b)))
        new[1:] |= ~pc.fill_null(same, False).to_numpy(
            zero_copy_only=False)
    return np.flatnonzero(new)


def first_of_runs(t: pa.Table, keys: list[str],
                  order: list | tuple = ()) -> pa.Table:
    """The first row of every ``keys`` run once ``t`` is sorted by
    ``keys`` and then by ``order`` (``(column, "ascending" |
    "descending")`` pairs; nulls last): per-key arg-min/max, mode and
    keep-one in one stable sort."""
    t = t.sort_by([(k, "ascending") for k in keys] + list(order))
    return t.take(pa.array(run_starts(t, keys)))


def _schema_types(schema) -> dict:
    """name -> Arrow type for a Ray Dataset schema.  A side whose
    last executed stage ran as pandas blocks (e.g. a groupby
    aggregate over map_groups output) reports a PandasBlockSchema —
    map its numpy dtypes to Arrow; object dtype falls back to
    large_string (the pandas string representation)."""
    base = schema.base_schema
    if isinstance(base, pa.Schema):
        return {f.name: f.type for f in base}
    out = {}
    for name, dt in zip(base.names, base.types):
        try:
            out[name] = pa.from_numpy_dtype(dt)
        except Exception:
            out[name] = pa.large_string()
    return out


def _schema_or_materialize(ds: Any) -> tuple:
    """A side's schema WITHOUT paying its lineage twice.

    ``ds.schema()`` (fetch_if_missing=True) on an unmaterialized
    side EXECUTES the upstream plan to produce the first block — and
    for an all-to-all upstream (groupby/sort) that means the WHOLE
    shuffle — then the join consumes the side again from scratch
    (measured: a side-effect-counting map stage runs twice). When the
    schema isn't already known, materialize the side ONCE so the
    probe and the join share a single execution; read/from_arrow
    sides have a known schema and keep streaming unmaterialized."""
    sch = ds.schema(fetch_if_missing=False)
    if sch is not None:
        return ds, sch
    if not _has_all_to_all(ds):
        # task-only lineage: a one-block limit(1) probe is cheap
        # (the executor stops after the first block) and the batch
        # schema is exactly what the join's pyarrow map_batches will
        # see. The block re-executes at consumption — negligible.
        try:
            probe = ds.limit(1).take_batch(1, batch_format="pyarrow")
            return ds, _wrap_schema(probe.schema)
        except ValueError:
            return ds, None  # all-empty side, columns unknowable
        except Exception:
            # planner quirk (e.g. Ray 2.49 limit-over-union asserts
            # during physical planning) — fall through to materialize
            pass
    # all-to-all upstream: a probe would run the WHOLE shuffle and
    # the join would run it again — materialize once and share.
    ds = ds.materialize()
    sch = ds.schema()
    if ds.count() > 0:
        # Ray 2.49 metadata bug: the snapshot of an expr-filter +
        # select_columns lineage can report the PRE-projection schema
        # while the blocks are correctly projected (observed racy in
        # long sessions). The blocks are the truth.
        probe = ds.take_batch(1, batch_format="pyarrow")
        if sch is None or list(probe.schema.names) != list(sch.names):
            sch = _wrap_schema(probe.schema)
    return ds, sch


def _wrap_schema(pa_schema: pa.Schema):
    from ray.data import DataContext
    from ray.data.dataset import Schema
    return Schema(pa_schema, data_context=DataContext.get_current())


def _has_all_to_all(ds: Any) -> bool:
    """True when the dataset's logical plan contains a shuffle
    (groupby/sort/repartition/join) — the case where executing "just
    one block" costs the whole exchange. Unknown internals read as
    True (the conservative answer: materialize once)."""
    try:
        from ray.data._internal.logical.operators.all_to_all_operator \
            import AbstractAllToAll
        stack = [ds._plan._logical_plan.dag]
        while stack:
            op = stack.pop()
            if isinstance(op, AbstractAllToAll) or type(op).__name__ in (
                    "Join", "HashAggregate", "StreamingRepartition",
                    "Union"):  # limit-over-union asserts in the planner
                return True
            stack.extend(op.input_dependencies)
        return False
    except Exception:
        return True


def field_type(ds: Any, name: str, default=None):
    """Arrow type of ``ds[name]`` via the single-execution schema
    probe. For an all-empty mapped lineage the type is unknowable —
    and moot, since no row will ever carry it — so ``default``
    (large_string unless given) is returned instead of crashing."""
    _, sch = _schema_or_materialize(ds)
    fallback = default if default is not None else pa.large_string()
    if sch is None or name not in sch.names:
        return fallback
    base = sch.base_schema
    if isinstance(base, pa.Schema):
        return base.field(name).type
    return _schema_types(sch).get(name, fallback)


def _join_empty_side(left: Any, lschema, right: Any, rschema,
                     how: str) -> Any | None:
    """Join semantics when a side executed to ZERO blocks with no
    schema metadata (an empty corpus partition through a map lineage:
    its columns are unknowable because the map fn never ran).

    inner — any empty side empties the result. Outer hows — the
    KNOWN side's rows pass through; the empty side had no columns to
    contribute, so no null-padded suffix columns appear (documented
    degenerate shape; every row-preserving case previously crashed).
    Returns None when both schemas are known (caller proceeds)."""
    import ray.data as rd

    def fieldless():
        return rd.from_arrow(pa.table({}))

    if lschema is None and rschema is None:
        return fieldless()
    if how == "inner":
        return fieldless()
    if how == "left":
        return left if lschema is not None else fieldless()
    if how == "right":
        return right if rschema is not None else fieldless()
    # outer: whichever side is known survives unmatched
    return left if lschema is not None else right


def hash_join(left: Any, right: Any, key: str | list[str],
              num_buckets: int | None = None, how: str = "inner") -> Any:
    """Both-sides-large partitioned hash join: union both sides under
    a padded common schema, then one :func:`hash_exchange` on the key
    (one column or a list) with a polars join per bucket. Documented
    partitioning
    assumption: each bucket's slice of both sides fits in one task's
    heap (raise num_buckets for skew; salt hot keys upstream)."""
    left, lschema = _schema_or_materialize(left)
    right, rschema = _schema_or_materialize(right)
    if lschema is None or rschema is None:
        out = _join_empty_side(left, lschema, right, rschema, how)
        if out is not None:
            return out
    keys = [key] if isinstance(key, str) else list(key)
    lcols = [c for c in lschema.names if c not in keys]
    rcols = [c for c in rschema.names if c not in keys]
    rcols_out = [c + "_r" for c in rcols]
    ltypes = _schema_types(lschema)
    rtypes = _schema_types(rschema)
    types = {c: ltypes[c] for c in lcols}
    for c, co in zip(rcols, rcols_out):
        types[co] = rtypes[c]

    def tag(side: str, own: list[str], own_out: list[str],
            other_out: list[str]):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            arrays = {k: batch.column(k) for k in keys}
            arrays["__side"] = pa.array([side] * n)
            for c, co in zip(own, own_out):
                arrays[co] = batch.column(c)
            for co in other_out:
                arrays[co] = pa.nulls(n, type=types[co])
            # stable column order so both sides union under one schema
            order = keys + ["__side"] + lcols + rcols_out
            return pa.table({c: arrays[c] for c in order})
        return f

    l = left.map_batches(tag("l", lcols, lcols, rcols_out),
                         batch_format="pyarrow")
    r = right.map_batches(tag("r", rcols, rcols_out, lcols),
                          batch_format="pyarrow")

    def join_bucket(g: pa.Table) -> pa.Table:
        # polars join, zero-copy from/to Arrow: several times the
        # throughput of the former pandas merge per bucket, keeps
        # int columns int (no NaN coercion), keeps int keys exact
        # beyond 2^53, and null keys NEVER match (join_nulls=False is
        # the documented schema_guard sentinel contract; pandas merge
        # matched NaN keys to each other)
        from ..util import import_polars
        pl = import_polars()
        df = pl.from_arrow(g)
        lg = df.filter(pl.col("__side") == "l").select(keys + lcols)
        rg = df.filter(pl.col("__side") == "r").select(
            keys + rcols_out)
        out = lg.join(rg, on=keys,
                      how="full" if how == "outer" else how,
                      coalesce=(how != "inner"))
        return out.select(keys + lcols + rcols_out).to_arrow()

    joined = hash_exchange(l.union(r), key, join_bucket, num_buckets,
                           batch_format="pyarrow")

    # Union padding can still surface value columns with nulls, and
    # polars emits large_string/large_binary — restore every column
    # to its declared Arrow type (NaN -> null precedes a non-float
    # target cast for sides that arrived as pandas blocks upstream).
    want = dict(types)
    want.update({k: ltypes[k] for k in keys})

    def restore_types(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return t
        cols = {}
        for name in t.column_names:
            c = t.column(name)
            w = want.get(name)
            if w is None or c.type == w:
                cols[name] = c
                continue
            if pa.types.is_floating(c.type) and \
                    not pa.types.is_floating(w):
                c = pc.if_else(pc.is_nan(c),
                               pa.nulls(len(t), c.type), c)
            cols[name] = pc.cast(c, w)
        return pa.table(cols)

    return joined.map_batches(restore_types, batch_format="pyarrow")


def interval_join_grid(points: Any, intervals: Any, point_col: str,
                       lo_col: str, hi_col: str,
                       cell: float) -> Any:
    """Both-sides-LARGE interval overlap join (points ⋈ intervals on
    ``lo <= v <= hi``) — the shuffle-partitioned complement of the
    broadcast :func:`range_join_broadcast`.

    Grid decomposition: a point lands in exactly ONE cell
    (``floor(v / cell)``), an interval replicates to every cell it
    overlaps (``span/cell + 1`` copies — pick ``cell`` near the
    typical span so replication stays O(1)); the equi-join on the
    cell id then finds every candidate pair exactly once (the
    point's unique cell is covered once per overlapping interval),
    so the residual ``lo <= v <= hi`` filter needs no dedup. The
    same decomposition spatial engines use for range/box joins.
    """
    import numpy as np

    def tag_points(t: pa.Table) -> pa.Table:
        v = t.column(point_col).to_numpy(zero_copy_only=False)
        c = np.floor(v / cell).astype(np.int64)
        return t.append_column("__cell", pa.array(c))

    def explode_intervals(t: pa.Table) -> pa.Table:
        lo = t.column(lo_col).to_numpy(zero_copy_only=False)
        hi = t.column(hi_col).to_numpy(zero_copy_only=False)
        c0 = np.floor(lo / cell).astype(np.int64)
        c1 = np.floor(hi / cell).astype(np.int64)
        reps = np.maximum(c1 - c0 + 1, 0)
        idx = np.repeat(np.arange(len(lo)), reps)
        cells = np.concatenate(
            [np.arange(a, b + 1) for a, b in zip(c0, c1)
             if b >= a]) if reps.sum() else np.zeros(0, np.int64)
        out = t.take(pa.array(idx))
        return out.append_column("__cell", pa.array(cells))

    p = points.map_batches(tag_points, batch_format="pyarrow")
    iv = intervals.map_batches(explode_intervals,
                               batch_format="pyarrow")
    joined = hash_join(p, iv, key="__cell", how="inner")

    def residual(t: pa.Table) -> pa.Table:
        v = t.column(point_col)
        keep = pc.and_(pc.greater_equal(v, t.column(f"{lo_col}_r")),
                       pc.less_equal(v, t.column(f"{hi_col}_r")))
        return t.filter(keep).drop_columns(["__cell"])

    return joined.map_batches(residual, batch_format="pyarrow")


def asof_join(left: Any, right: Any, on: str, left_ts: str,
              right_ts: str, right_cols: list[str],
              right_tiebreak: str | None = None) -> Any:
    """Backward as-of join: for each left row, attach the right row
    with the greatest ``right_ts`` <= ``left_ts`` within the same
    ``on`` key group (no match -> nulls).

    Ray Data has no native as-of; the scale shape is the tagged-union
    + keyed-shuffle composition: both sides project to slim tagged
    rows, ONE :func:`hash_exchange` on the join key co-locates each
    key's rows, and one pandas ``merge_asof(by=on)`` per bucket does
    the time alignment. Moves each side once; one key's rows fit a
    task (salt hot keys upstream).

    Ties on ``right_ts`` pick the last row in (right_ts,
    right_tiebreak) sort order — pass ``right_tiebreak`` for a
    deterministic winner when duplicate timestamps are possible.
    """
    import pandas as pd

    # resolve schemas ON THE DRIVER — dataset handles must not leak
    # into UDF closures (and never pay an unmaterialized side's
    # lineage twice for the probe — _schema_or_materialize)
    left, lsch = _schema_or_materialize(left)
    right, rsch = _schema_or_materialize(right)
    if lsch is None:
        return left  # all-empty left: an as-of join yields no rows
    if rsch is None:
        # all-empty right with unknowable columns: every left row
        # stays unmatched; the ``__r_*`` columns cannot be typed, so
        # the degenerate shape is the left unchanged (documented)
        return left
    lcols = list(lsch.names)
    ltypes = _schema_types(lsch)
    rtypes = _schema_types(rsch)
    out_r = ["__r_" + rc for rc in right_cols]
    ts_type = rtypes[right_ts]

    def tag_left(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {c: batch.column(c) for c in lcols}
        cols["__side"] = pa.array([1] * n, type=pa.int8())
        cols["__rts"] = pa.nulls(n, type=ts_type)
        for rc in right_cols:
            cols["__r_" + rc] = pa.nulls(n, type=rtypes[rc])
        return pa.table(cols)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = {}
        for c in lcols:
            cols[c] = (batch.column(on) if c == on
                       else pa.nulls(n, type=ltypes[c]))
        cols["__side"] = pa.array([0] * n, type=pa.int8())
        cols["__rts"] = batch.column(right_ts)
        for rc in right_cols:
            cols["__r_" + rc] = batch.column(rc)
        return pa.table(cols)

    l = left.map_batches(tag_left, batch_format="pyarrow")
    r = right.select_columns(
        list(dict.fromkeys([on, right_ts] + right_cols))).map_batches(
        tag_right, batch_format="pyarrow")

    tb = ("__r_" + right_tiebreak
          if right_tiebreak and right_tiebreak in right_cols else None)

    out_schema = pa.schema(
        [(c, ltypes[c]) for c in lcols]
        + [(o, rtypes[rc]) for o, rc in zip(out_r, right_cols)])

    def merge(t: pa.Table) -> pa.Table:
        side = t.column("__side")
        lg = t.filter(pc.equal(side, 1)).select(lcols).to_pandas()
        if not len(lg):
            return out_schema.empty_table()
        # the backward match on a right_ts tie is the LAST row in
        # (right_ts, tiebreak) order — a stable sort makes it so
        rg = t.filter(pc.equal(side, 0)).select([on, "__rts"] + out_r) \
            .sort_by([("__rts", "ascending")]
                     + ([(tb, "ascending")] if tb else []))
        merged = pd.merge_asof(
            lg.sort_values(left_ts, kind="mergesort"), rg.to_pandas(),
            left_on=left_ts, right_on="__rts", by=on,
            direction="backward")
        return pa.Table.from_pandas(merged[lcols + out_r],
                                    schema=out_schema,
                                    preserve_index=False)

    return hash_exchange(l.union(r), on, merge, batch_format="pyarrow")


def range_join_broadcast(ds: Any, intervals: list[tuple], value_col: str,
                         label_col: str = "bucket") -> Any:
    """Range join against a SMALL interval table: broadcast the sorted
    interval bounds once (ray.put), assign each row's bucket with one
    vectorized searchsorted inside map_batches — no shuffle at all
    (the canonical small-side range-join shape at any scale).

    ``intervals``: [(lo, hi, label)] — half-open [lo, hi); rows
    outside every interval get a null label. Intervals must be
    non-overlapping and sorted."""
    import numpy as np
    import ray

    los = np.asarray([iv[0] for iv in intervals], dtype=np.float64)
    his = np.asarray([iv[1] for iv in intervals], dtype=np.float64)
    labels = [iv[2] for iv in intervals]
    ref = ray.put((los, his, labels))

    def assign(batch: pa.Table) -> pa.Table:
        lo, hi, lab = ray.get(ref)
        if len(lo) == 0:  # no intervals: every row gets a null label
            return batch.append_column(
                label_col, pa.nulls(batch.num_rows, type=pa.string()))
        v = np.asarray(batch.column(value_col).to_pylist(),
                       dtype=np.float64)
        idx = np.searchsorted(lo, v, side="right") - 1
        ok = (idx >= 0) & (v < hi[np.clip(idx, 0, len(hi) - 1)])
        out = [lab[i] if k else None for i, k in zip(idx, ok)]
        return batch.append_column(label_col,
                                   pa.array(out, type=pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def cross_join_broadcast(left: Any, right_table: pa.Table,
                         suffix: str = "_r") -> Any:
    """Cartesian product with a SMALL right side: the right Arrow
    table ships once via ray.put and every batch expands map-side
    (np.repeat × take — no shuffle at all). Output rows = |L| × |R|;
    the |R| bound (≤ thousands) is the caller's contract, as with
    any broadcast join."""
    import numpy as np
    import ray

    ref = ray.put(right_table)

    def f(batch: pa.Table) -> pa.Table:
        r = ray.get(ref)
        nl, nr = batch.num_rows, r.num_rows
        li = np.repeat(np.arange(nl, dtype=np.int64), nr)
        ri = np.tile(np.arange(nr, dtype=np.int64), nl)
        cols = {}
        for name in batch.column_names:
            cols[name] = batch.column(name).take(pa.array(li))
        for name in r.column_names:
            out = name + suffix if name in cols else name
            cols[out] = r.column(name).take(pa.array(ri))
        return pa.table(cols)

    return left.map_batches(f, batch_format="pyarrow")
