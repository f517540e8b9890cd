"""Connected components over near-dup pair lists, and canonical-doc
dedup on top — the consumer stage of minhash/simhash/cosine output.

The reference's dedup story stops at upsert-by-url
(swish_xapian.cpp:563-601 replaces same-key docs); a training-data
pipeline needs the transitive step: near-dup PAIRS form clusters, and
exactly one member per cluster survives.  Public algorithm: iterative
min-label propagation (the hash-to-min family, Rastogi et al.) —
``label(x) <- min(label(x), min label among x's neighbours)`` until
fixpoint.

Ray-Data shape per round (all slim ``(node,label)`` exchanges):

    prop = hash_join(sym_edges, labels, on=node)   # nbr gets label
    dbl  = hash_join(labels-as-lookup, labels)     # label's label
    labels' = union(prop, dbl, labels).groupby(node).min

The ``dbl`` stream is pointer doubling — each node also adopts its
label's current label — so chains collapse in O(log diameter) rounds
rather than O(diameter).  Convergence is detected INSIDE the same
shuffle, not with an extra join: rows coming from ``labels`` carry
their label duplicated in an ``old`` column (null on propagated
rows), so ``Max(old)`` rides the existing groupby and ``changed =
count(label != old)`` is a map-side count on the result.  Labels are
monotonically non-increasing; star-capped LSH buckets keep dedup
graphs shallow, so 2-3 rounds is typical.

Scale notes: per-round state is one ``(node,label,old)`` row per
node — object-store resident (``materialize`` per round bounds
re-execution of the loop's growing lineage); the joins are
hash-partitioned; nothing ever groups a whole component into one
task.  ``max_rounds`` is a safety cap, generous given log-scaling
(2^20 diameter).
"""
from __future__ import annotations

from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

from .joins import field_type, hash_join


def connected_components(edges: Any, a: str = "a", b: str = "b",
                         max_rounds: int = 20,
                         num_partitions: int | None = None,
                         dense_max_nodes: int | None = None,
                         dense_max_edges: int | None = None) -> Any:
    """-> Dataset ``(node, component)`` with ``component`` = the min
    node id reachable from ``node``.  Nodes appear iff they appear in
    ``edges``; ``a``/``b`` columns must share one integer-like type.

    Runs the Pregel-lite dense path (graphdense module doc: pinned
    edge-shard actors + broadcast label vector, zero shuffles) when
    the graph fits its gates — near-dup pair graphs almost always do,
    since pairs are a tiny fraction of the corpus.  Falls back to the
    join loop below past the gates; ``dense_max_nodes=0`` forces it."""
    from ray.data.aggregate import Max, Min

    from ..util import _session_cpus
    nparts = num_partitions or max(8, 2 * _session_cpus())

    def slim(batch: pa.Table) -> pa.Table:
        # null-endpoint pairs are dropped (no graph meaning; an
        # upstream candidate stage can emit them on empty groups)
        ok = pc.and_(pc.is_valid(batch.column(a)),
                     pc.is_valid(batch.column(b)))
        t = batch.filter(ok)
        return pa.table({a: t.column(a).combine_chunks(),
                         b: t.column(b).combine_chunks()})

    e1 = edges.map_batches(slim, batch_format="pyarrow").materialize()

    # An empty pair list (all-unique corpus — the common production
    # outcome) leaves every derived side schema-less, so the joins
    # would lose their ``_r`` columns (joins.schema_guard doc). The
    # answer is known anyway: no edges, no components.
    # count() is O(1) metadata on the already-materialized edges.
    if e1.count() == 0:
        import ray.data as rd
        sch = e1.schema(fetch_if_missing=False)
        ntype = (sch.base_schema.field(a).type
                 if sch is not None and isinstance(sch.base_schema,
                                                   pa.Schema)
                 else pa.int64())
        return rd.from_arrow(pa.table({
            "node": pa.array([], ntype),
            "component": pa.array([], ntype)}))

    from .graphdense import (DENSE_MAX_EDGES, DENSE_MAX_NODES,
                             dense_components, dense_components_small)
    max_nodes = (DENSE_MAX_NODES if dense_max_nodes is None
                 else dense_max_nodes)
    max_edges = (DENSE_MAX_EDGES if dense_max_edges is None
                 else dense_max_edges)
    if max_nodes and e1.count() <= max_edges:
        # tiniest graphs: one task, no shard actors (graphdense doc)
        tbl = dense_components_small(e1, a=a, b=b)
        if tbl is None:
            tbl = dense_components(e1, a=a, b=b,
                                   max_rounds=max_rounds,
                                   dense_max_nodes=max_nodes)
        if tbl is not None:
            import ray.data as rd
            out = rd.from_arrow(tbl)
            if len(tbl) > 1_000_000:
                out = out.repartition(len(tbl) // 1_000_000 + 1)
            return out

    def sym(batch: pa.Table) -> pa.Table:
        fwd = pa.table({"node": batch.column(a).combine_chunks(),
                        "nbr": batch.column(b).combine_chunks()})
        rev = pa.table({"node": batch.column(b).combine_chunks(),
                        "nbr": batch.column(a).combine_chunks()})
        return pa.concat_tables([fwd, rev])

    edges_sym = e1.map_batches(sym, batch_format="pyarrow") \
        .materialize()

    def with_self(batch: pa.Table) -> pa.Table:
        # self-loops seed label(x) = min(x, neighbours) in round 0
        return pa.concat_tables([
            batch,
            pa.table({"node": batch.column("node").combine_chunks(),
                      "nbr": batch.column("node").combine_chunks()})])

    labels = edges_sym.map_batches(with_self, batch_format="pyarrow") \
        .groupby("node").aggregate(Min("nbr", alias_name="label")) \
        .repartition(nparts).materialize()

    for _ in range(max_rounds):
        prop = hash_join(edges_sym, labels, "node",
                         num_buckets=nparts)

        def as_candidate(batch: pa.Table) -> pa.Table:
            t = batch.column("label_r").type
            return pa.table({
                "node": batch.column("nbr").combine_chunks()
                .cast(batch.column("node").type),
                "label": batch.column("label_r").combine_chunks(),
                "old": pa.nulls(batch.num_rows, t)})

        def as_current(batch: pa.Table) -> pa.Table:
            lab = batch.column("label").combine_chunks()
            return pa.table({"node": batch.column("node"),
                             "label": lab, "old": lab})

        # pointer doubling: each node also adopts its LABEL's label,
        # collapsing chains in O(log diameter) rounds instead of
        # O(diameter) — join labels-with-labels on label=node
        as_lookup = labels.map_batches(
            lambda t: pa.table({
                "src": t.column("node").combine_chunks(),
                "node": t.column("label").combine_chunks()}),
            batch_format="pyarrow")
        dbl = hash_join(as_lookup, labels, "node",
                        num_buckets=nparts)

        def as_doubled(batch: pa.Table) -> pa.Table:
            t = batch.column("label_r").type
            return pa.table({
                "node": batch.column("src").combine_chunks(),
                "label": batch.column("label_r").combine_chunks(),
                "old": pa.nulls(batch.num_rows, t)})

        cand = prop.map_batches(as_candidate, batch_format="pyarrow")
        cand2 = dbl.map_batches(as_doubled, batch_format="pyarrow")
        cur = labels.map_batches(as_current, batch_format="pyarrow")
        new_labels = cand.union(cand2).union(cur).groupby("node").aggregate(
            Min("label", alias_name="label"),
            Max("old", alias_name="old")) \
            .repartition(nparts).materialize()

        def count_changed(batch: pa.Table) -> pa.Table:
            ch = pc.sum(pc.cast(pc.not_equal(
                batch.column("label"), batch.column("old")),
                pa.int64())).as_py() or 0
            return pa.table({"changed": pa.array([ch], pa.int64())})

        changed = sum(r["changed"] for r in new_labels.map_batches(
            count_changed, batch_format="pyarrow").take_all())
        labels = new_labels.drop_columns(["old"]).materialize()
        if changed == 0:
            break

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "component": batch.column("label")})
    return labels.map_batches(shape, batch_format="pyarrow")


def dedup_keep_canonical(docs: Any, pairs: Any, key: str = "doc_id",
                         a: str = "a", b: str = "b",
                         max_rounds: int = 20) -> Any:
    """Drop every near-dup cluster member except the canonical one
    (min key).  Docs in no pair survive untouched.  The loser set
    rides a both-sides-large bucketed left join (hash_join) — no
    broadcast, no driver state."""
    cc = connected_components(pairs, a=a, b=b, max_rounds=max_rounds)

    def losers(batch: pa.Table) -> pa.Table:
        m = pc.not_equal(batch.column("node"), batch.column("component"))
        t = batch.filter(m)
        return pa.table({key: t.column("node").combine_chunks()
                         .cast(field_type(docs, key)),
                         "_loser": pa.array([1] * t.num_rows,
                                            pa.int8())})

    from .joins import schema_guard
    # schema_guard: with NO near-dup pairs (clean corpus) the loser
    # set is empty and its schema unresolvable — the guard's null-key
    # sentinel keeps the side schema-bearing and never matches in the
    # left join below
    loser_ds = schema_guard(
        cc.map_batches(losers, batch_format="pyarrow"),
        pa.schema([(key, field_type(docs, key)),
                   ("_loser", pa.int8())]))
    joined = hash_join(docs, loser_ds, key, how="left")
    return joined.map_batches(
        lambda t: t.filter(pc.is_null(t.column("_loser_r")))
        .drop_columns(["_loser_r"]),
        batch_format="pyarrow")


def triangle_count(edges: Any, a: str = "a", b: str = "b",
                   dense_max_edges: int | None = None) -> Any:
    """Total number of TRIANGLES in the undirected graph given by the
    (possibly duplicated, possibly self-looping) edge list — the
    classic clustering/community signal over the link graph that
    pagerank and connected_components leave uncovered, and unlike
    both it is exactly SQL-replayable (3-way self-join oracle).

    Algorithm (degree-ordered wedge counting — the MapReduce scheme
    of Suri & Vassilvitskii 2011, "Counting Triangles and the Curse
    of the Last Reducer"): canonicalize edges to distinct (u < v)
    pairs; orient every edge from its LOWER endpoint in the total
    order (degree, node id); per source node, emit each pair of
    out-neighbors as a WEDGE.  Degree ordering bounds out-degree by
    O(sqrt(m)) — the hub whose naive wedge set explodes becomes the
    HIGHER endpoint of its edges and generates nothing — so total
    wedge volume is O(m^1.5) worst case, far less on power-law
    graphs.  A wedge (v, w) closes a triangle iff (v, w) is an
    oriented edge: counted with one tagged groupby over
    wedges ∪ edges (Σ wedge_n × edge_n), no join actors.

    Small graphs (<= dense_max_edges distinct edges, default the
    graphdense TRI gate; 0 forces the distributed path) skip the
    joins/wedge shuffle for a single-task bitset count
    (graphdense.dense_triangles).

    Exchanges: slim (int64, int64) rows only — dedupe shuffle,
    degree shuffle, two tiny hash-joins to attach degrees, the wedge
    shuffle.  Output: one row ``{triangles: int64}``."""
    import numpy as np
    from ray.data.aggregate import Sum

    from ..util import _session_cpus
    from .joins import hash_exchange, run_starts
    B = max(8, 2 * _session_cpus())

    def canon(batch: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(batch.column(a)),
                     pc.is_valid(batch.column(b)))
        t = batch.filter(ok)
        u = pc.cast(t.column(a), pa.int64()).to_numpy(
            zero_copy_only=False)
        v = pc.cast(t.column(b), pa.int64()).to_numpy(
            zero_copy_only=False)
        keep = u != v
        u, v = u[keep], v[keep]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        return pa.table({"u": pa.array(lo), "v": pa.array(hi)})

    dedup = (edges.map_batches(canon, batch_format="pyarrow")
             .groupby(["u", "v"]).count()
             .map_batches(lambda t: t.select(["u", "v"]),
                          batch_format="pyarrow")
             .materialize())  # two consumers: degrees + orientation

    # small-graph fast path (graphdense.dense_triangles): candidate
    # and link graphs at sweep scale fit one worker's bitset — skip
    # the degree joins + wedge shuffle entirely when gated in
    from .graphdense import TRI_MAX_EDGES, dense_triangles
    gate = (TRI_MAX_EDGES if dense_max_edges is None
            else dense_max_edges)
    fast = dense_triangles(dedup, max_edges=gate) if gate else None
    if fast is not None:
        import ray.data as rd
        return rd.from_arrow(pa.table({
            "triangles": pa.array([fast], type=pa.int64())}))

    def endpoints(batch: pa.Table) -> pa.Table:
        both = pa.concat_arrays([
            batch.column("u").combine_chunks(),
            batch.column("v").combine_chunks()])
        return pa.table({"node": both,
                         "one": pa.array(
                             np.ones(len(both), dtype=np.int64))})

    degrees = (dedup.map_batches(endpoints, batch_format="pyarrow")
               .groupby("node").aggregate(Sum("one", alias_name="deg"))
               .materialize())  # consumed by BOTH degree joins

    deg_u = degrees.map_batches(
        lambda t: pa.table({"u": t.column("node"),
                            "du": pc.cast(t.column("deg"),
                                          pa.int64())}),
        batch_format="pyarrow")
    deg_v = degrees.map_batches(
        lambda t: pa.table({"v": t.column("node"),
                            "dv": pc.cast(t.column("deg"),
                                          pa.int64())}),
        batch_format="pyarrow")
    with_deg = hash_join(hash_join(dedup, deg_u, key="u",
                                   num_buckets=B),
                         deg_v, key="v", num_buckets=B)

    def orient(batch: pa.Table) -> pa.Table:
        names = batch.column_names
        du = batch.column("du_r" if "du_r" in names else "du") \
            .to_numpy(zero_copy_only=False)
        dv = batch.column("dv_r" if "dv_r" in names else "dv") \
            .to_numpy(zero_copy_only=False)
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        # src = endpoint lower in (degree, id) order
        u_first = (du < dv) | ((du == dv) & (u < v))
        src = np.where(u_first, u, v)
        dst = np.where(u_first, v, u)
        # rank key of dst for in-group wedge ordering
        ddst = np.where(u_first, dv, du)
        return pa.table({"src": pa.array(src), "dst": pa.array(dst),
                         "ddst": pa.array(ddst)})

    oriented = with_deg.map_batches(orient, batch_format="pyarrow") \
        .materialize()  # consumers: wedge gen + closure probe

    def wedges(t: pa.Table) -> pa.Table:
        # out-neighbors ordered by (degree, id) so the wedge (x, y)
        # matches the oriented edge direction x -> y; every row pairs
        # with the rows after it in its src run (vectorized triu)
        t = t.sort_by([("src", "ascending"), ("ddst", "ascending"),
                       ("dst", "ascending")])
        starts = run_starts(t, ["src"])
        lens = np.diff(np.append(starts, t.num_rows))
        after = np.repeat(starts + lens, lens) - np.arange(t.num_rows) - 1
        i = np.repeat(np.arange(t.num_rows), after)
        j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(after) - after,
                                                  after)
        nb = t.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({
            "x": pa.array(nb[i], pa.int64()),
            "y": pa.array(nb[j], pa.int64()),
            "wn": pa.array(np.ones(len(i), dtype=np.int64)),
            "en": pa.array(np.zeros(len(i), dtype=np.int64))})

    wedge_rows = hash_exchange(oriented, "src", wedges, B,
                               batch_format="pyarrow")

    edge_rows = oriented.map_batches(
        lambda t: pa.table({
            "x": t.column("src"), "y": t.column("dst"),
            "wn": pa.array(np.zeros(len(t), dtype=np.int64)),
            "en": pa.array(np.ones(len(t), dtype=np.int64))}),
        batch_format="pyarrow")

    closed = (wedge_rows.union(edge_rows)
              .groupby(["x", "y"])
              .aggregate(Sum("wn", alias_name="wn"),
                         Sum("en", alias_name="en")))

    def partial_total(batch: pa.Table) -> pa.Table:
        wn = batch.column("wn").to_numpy(zero_copy_only=False)
        en = batch.column("en").to_numpy(zero_copy_only=False)
        return pa.table({"t": pa.array(
            [int((wn * en).sum())], type=pa.int64())})

    def final_total(batch: pa.Table) -> pa.Table:
        tot = (int(batch.column("t").to_numpy().sum())
               if batch.num_rows else 0)
        return pa.table({"triangles": pa.array([tot],
                                               type=pa.int64())})

    return (closed.map_batches(partial_total, batch_format="pyarrow")
            .repartition(1)
            .map_batches(final_total, batch_format="pyarrow"))
