"""Connected components + canonical dedup (ops/components.py).
The multi-round chain topology and the closed-form oracle are also
exercised by the dedup_clusters / dedup_canonical queries() entries."""
import pyarrow as pa
import pytest
import ray.data as rd

from swishray.ops.components import (connected_components,
                                     dedup_keep_canonical)


def _cc(edge_list, **kw):
    e = rd.from_items([{"a": a, "b": b} for a, b in edge_list]) \
        .repartition(3)
    df = connected_components(e, **kw).to_pandas()
    return dict(zip(df["node"], df["component"]))


def test_star_and_chain_and_pair(ray_session):
    got = _cc([(0, 1), (1, 2), (2, 3),        # chain, diameter 3
               (10, 11), (10, 12),            # star
               (20, 21)])                     # pair
    assert got == {0: 0, 1: 0, 2: 0, 3: 0,
                   10: 10, 11: 10, 12: 10, 20: 20, 21: 20}


def test_bridged_clusters_merge(ray_session):
    # two stars bridged by one edge must collapse to one component
    got = _cc([(5, 6), (5, 7), (30, 31), (30, 32), (7, 31)])
    assert set(got.values()) == {5}
    assert len(got) == 6


def test_long_chain_converges(ray_session):
    n = 24  # needs many propagation rounds, well under max_rounds
    got = _cc([(i, i + 1) for i in range(n)])
    assert set(got.values()) == {0}
    assert len(got) == n + 1


def test_max_rounds_caps_work(ray_session):
    # with max_rounds=1 a long chain CANNOT fully converge — the cap
    # is honoured rather than looping forever.  Join path only: the
    # dense path's driver-side path compression converges any chain
    # in one round, so the cap never binds there.
    got = _cc([(i, i + 1) for i in range(6)], max_rounds=1,
              dense_max_nodes=0)
    assert len(got) == 7
    assert got[6] != 0  # not yet propagated to the far end


def test_dense_and_join_paths_agree(ray_session):
    # two clusters + a self-loop singleton + a 5-chain, duplicate and
    # reversed edges — both execution regimes must emit identical
    # labelings
    edges = [(4, 2), (2, 4), (2, 9), (7, 7), (20, 21), (21, 22),
             (22, 23), (23, 24), (4, 2)]
    dense = _cc(edges)
    join = _cc(edges, dense_max_nodes=0)
    assert dense == join
    assert dense[9] == 2 and dense[24] == 20 and dense[7] == 7


def test_duplicate_and_reversed_edges(ray_session):
    got = _cc([(1, 2), (2, 1), (1, 2), (2, 3)])
    assert got == {1: 1, 2: 1, 3: 1}


def test_dedup_keep_canonical(ray_session):
    docs = rd.from_items(
        [{"doc_id": i, "text": f"t{i}"}
         for i in [0, 1, 2, 3, 5, 10, 11, 12, 99]]).repartition(3)
    e = rd.from_items([{"a": a, "b": b} for a, b in
                       [(0, 1), (1, 2), (2, 3), (10, 11), (10, 12)]])
    kept = dedup_keep_canonical(docs, e, key="doc_id").to_pandas()
    assert sorted(kept["doc_id"]) == [0, 5, 10, 99]
    assert sorted(kept.columns) == ["doc_id", "text"]


def test_connected_components_no_edges(ray_session):
    # all-unique corpus: the pair list is typed but empty; every
    # derived side would be schema-less past the first shuffle
    # (components.py empty short-circuit)
    e = rd.from_items([{"a": 1, "b": 2}]).filter(lambda r: False)
    out = connected_components(e)
    assert out.count() == 0
    # NB: .to_pandas() on an all-empty Dataset drops columns (Ray
    # 2.49 quirk) — the Dataset-level schema is the contract here
    assert sorted(out.schema().names) == ["component", "node"]


def test_dedup_keep_canonical_no_pairs(ray_session):
    # clean corpus: zero near-dup pairs must keep every doc
    docs = rd.from_items(
        [{"doc_id": i, "text": f"t{i}"} for i in range(7)]) \
        .repartition(3)
    e = rd.from_items([{"a": 1, "b": 2}]).filter(lambda r: False)
    kept = dedup_keep_canonical(docs, e, key="doc_id").to_pandas()
    assert sorted(kept["doc_id"]) == list(range(7))
    assert sorted(kept.columns) == ["doc_id", "text"]


def test_dedup_keep_canonical_sparse_overpartitioned(ray_session):
    # rows < partitions on the loser side emits field-less empty
    # remainder blocks; the join must not let one poison the
    # exchange's schema
    docs = rd.from_items(
        [{"doc_id": i, "text": f"t{i}"} for i in range(50)]) \
        .repartition(4)
    e = rd.from_items([{"a": 0, "b": 1}]).repartition(16)
    kept = dedup_keep_canonical(docs, e, key="doc_id").to_pandas()
    assert sorted(kept["doc_id"]) == [0] + list(range(2, 50))


def test_dense_path_medium_scale(ray_session):
    """100k nodes / 300k random edges through the dense path, checked
    against a local union-find — guards the index-encoding, shard
    partials and driver path compression at non-toy size."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    rng = np.random.RandomState(7)
    a = rng.randint(0, 100_000, 300_000).astype(np.int64)
    b = rng.randint(0, 100_000, 300_000).astype(np.int64)
    ds = rd.from_arrow(pa.table({"a": a, "b": b})).repartition(8)
    got = connected_components(ds).to_pandas()

    parent = np.arange(100_000, dtype=np.int64)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a, b):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    # canonical min-label per root
    roots = {}
    want = {}
    nodes = np.unique(np.concatenate([a, b]))
    for n in nodes:
        r = find(n)
        roots.setdefault(r, n if n < roots.get(r, n + 1) else roots[r])
    for n in nodes:
        want[n] = roots[find(n)]
    gm = dict(zip(got["node"], got["component"]))
    assert len(gm) == len(nodes)
    assert all(gm[n] == want[n] for n in nodes)
