"""Incremental exact dedup vs a persisted fingerprint store
(ops/increment.py): per-bucket blooms as prefilter, pruned-read
exact verify, append-safe store."""

import pyarrow as pa
import pytest
import ray.data as rd

from swishray.ops.increment import (dedup_incremental,
                                    write_fingerprint_store)


def _tbl(rows):
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string())}))


def test_filters_known_texts(ray_session, tmp_path):
    store = str(tmp_path / "store")
    write_fingerprint_store(
        _tbl([(1, "alpha beta"), (2, "gamma"), (3, "")]).repartition(2),
        store, num_buckets=4)
    new = _tbl([(10, "alpha beta"), (11, "fresh one"), (12, ""),
                (13, "gamma"), (14, "fresh two")]).repartition(2)
    out = dedup_incremental(new, store).to_pandas()
    assert sorted(out["doc_id"]) == [11, 14]


def test_append_extends_store(ray_session, tmp_path):
    store = str(tmp_path / "store")
    write_fingerprint_store(_tbl([(1, "aaa")]), store, num_buckets=4)
    write_fingerprint_store(_tbl([(2, "bbb")]), store)
    out = dedup_incremental(
        _tbl([(9, "aaa"), (10, "bbb"), (11, "ccc")]),
        store).to_pandas()
    assert sorted(out["doc_id"]) == [11]


def test_bloom_false_positives_cannot_drop_rows(ray_session, tmp_path):
    """bits_per_key=1 forces a saturated bloom — the exact-verify
    read must rescue every false positive (EXACT semantics claim)."""
    store = str(tmp_path / "store")
    prior = _tbl([(i, f"prior text number {i}") for i in range(500)])
    write_fingerprint_store(prior.repartition(4), store,
                            num_buckets=2, bits_per_key=1)
    new = _tbl([(1000 + i, f"novel text number {i}")
                for i in range(200)]).repartition(2)
    out = dedup_incremental(new, store).to_pandas()
    assert len(out) == 200          # nothing dropped
    dup = dedup_incremental(prior, store).to_pandas()
    assert len(dup) == 0            # everything known is dropped


def test_keep_md5_matches_duckdb(ray_session, tmp_path):
    import duckdb
    import hashlib
    store = str(tmp_path / "store")
    write_fingerprint_store(_tbl([(1, "xx")]), store, num_buckets=2)
    out = dedup_incremental(_tbl([(2, "hello world")]), store,
                            keep_md5=True).to_pandas()
    want = duckdb.sql("SELECT md5('hello world')").fetchone()[0]
    assert out["md5"].tolist() == [want]
    assert want == hashlib.md5(b"hello world").hexdigest()


# ---- persisted minhash store (near-dup incremental) -----------------

BASE = ("the quick brown fox jumps over the lazy dog and then runs "
        "far away into the deep woods tonight under a pale moon")


def test_minhash_store_drops_near_dups(ray_session, tmp_path):
    from swishray.ops.increment import (dedup_against_store,
                                        write_minhash_store)
    store = str(tmp_path / "mstore")
    prior = _tbl([(1, BASE), (2, "unrelated words about query "
                                 "planning and join order")])
    write_minhash_store(prior.repartition(2), store, num_buckets=4)
    new = _tbl([(10, BASE), (11, BASE + " with a tiny suffix"),
                (12, "novel content sharing absolutely nothing with "
                     "either prior document at all")])
    out = dedup_against_store(new, store, threshold=0.5).to_pandas()
    assert sorted(out["doc_id"]) == [12]


def test_minhash_store_append_and_param_guard(ray_session, tmp_path):
    from swishray.ops.increment import (dedup_against_store,
                                        write_minhash_store)
    store = str(tmp_path / "mstore")
    write_minhash_store(_tbl([(1, BASE)]), store, num_buckets=4)
    write_minhash_store(
        _tbl([(2, "second snapshot text all new words entirely "
                  "different from before")]), store)
    out = dedup_against_store(
        _tbl([(10, BASE), (11, "second snapshot text all new words "
                               "entirely different from before"),
              (12, "still nothing in common with anything")]),
        store, threshold=0.5).to_pandas()
    assert sorted(out["doc_id"]) == [12]
    with pytest.raises(ValueError, match="append"):
        write_minhash_store(_tbl([(3, "x")]), store, bands=8)


def test_minhash_probe_after_append_sees_new_rows(ray_session, tmp_path):
    """A probe, an append, then the same probe again in one session:
    the second probe must see the appended rows. Probe state is cached
    per worker process, keyed by its constructor kwargs; the store's
    write generation in those kwargs retires the stale prober."""
    from swishray.ops.increment import (dedup_against_store,
                                        write_minhash_store)
    store = str(tmp_path / "mstore")
    other = ("second snapshot text all new words entirely "
             "different from before")
    write_minhash_store(_tbl([(1, BASE)]), store, num_buckets=4)
    probe = _tbl([(10, other)])
    assert len(dedup_against_store(probe, store).to_pandas()) == 1
    write_minhash_store(_tbl([(2, other)]), store)
    assert len(dedup_against_store(probe, store).to_pandas()) == 0


def test_minhash_store_agrees_with_batch_path(ray_session, tmp_path):
    """Store-probe results equal dedup_against_corpus on the same
    split (shared signer params + band fold + verify)."""
    from swishray.ops.dedup import dedup_against_corpus
    from swishray.ops.increment import (dedup_against_store,
                                        write_minhash_store)
    # identical inside a variant, token-disjoint across variants
    rows = [(i, " ".join(f"tok{i // 3}x{j}" for j in range(20)))
            for i in range(30)]
    prior = _tbl([r for r in rows if r[0] % 5 == 0]).repartition(2)
    new = _tbl([r for r in rows if r[0] % 5 != 0]).repartition(2)
    store = str(tmp_path / "mstore")
    write_minhash_store(prior, store, num_buckets=4)
    got = sorted(dedup_against_store(new, store, threshold=0.5)
                 .to_pandas()["doc_id"])
    want = sorted(dedup_against_corpus(new, prior, threshold=0.5)
                  .to_pandas()["doc_id"])
    assert got == want


def test_snapshot_diff(ray_session):
    import ray.data as rd
    from swishray.ops.increment import snapshot_diff

    old = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "text": pa.array(["aa", "bb", "cc", "dd"])})
    new = pa.table({
        "doc_id": pa.array([2, 3, 4, 5], type=pa.int64()),
        "text": pa.array(["bb", "CC", "dd", "ee"])})
    out = snapshot_diff(rd.from_arrow(old).repartition(2),
                        rd.from_arrow(new).repartition(2),
                        "doc_id").to_pandas()
    got = dict(zip(out.doc_id, out.status))
    # 2 and 4 unchanged -> dropped
    assert got == {1: "removed", 3: "changed", 5: "added"}


def test_snapshot_diff_empty_sides(ray_session):
    import ray.data as rd
    from swishray.ops.increment import snapshot_diff

    t = pa.table({"doc_id": pa.array([7], type=pa.int64()),
                  "text": pa.array(["x"])})
    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "text": pa.array([], type=pa.string())})
    out = snapshot_diff(rd.from_arrow(empty), rd.from_arrow(t),
                        "doc_id").to_pandas()
    assert dict(zip(out.doc_id, out.status)) == {7: "added"}
    out2 = snapshot_diff(rd.from_arrow(t), rd.from_arrow(empty),
                         "doc_id").to_pandas()
    assert dict(zip(out2.doc_id, out2.status)) == {7: "removed"}


def test_incomplete_or_truncated_store_raises(ray_session, tmp_path):
    """A store whose build died mid-write (complete=false) or lost a
    partition dir must raise, not silently miss every probe
    (ADVICE r3: corrupt != empty)."""
    import json
    import os
    import shutil

    store = str(tmp_path / "store")
    write_fingerprint_store(_tbl([(1, "aaa"), (2, "bbb")]), store,
                            num_buckets=2)

    # simulate a writer killed before the complete marker landed
    meta_path = os.path.join(store, "_bloom.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["complete"] = False
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(Exception, match="incomplete"):
        dedup_incremental(_tbl([(9, "aaa")]), store).to_pandas()
    with pytest.raises(ValueError, match="incomplete"):
        write_fingerprint_store(_tbl([(3, "ccc")]), store)

    # restore the marker, then truncate the fingerprints dir:
    # blooms-without-fingerprints is corrupt, not empty
    meta["complete"] = True
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    shutil.rmtree(os.path.join(store, "fingerprints"))
    with pytest.raises(Exception, match="inconsistent"):
        dedup_incremental(_tbl([(9, "aaa")]), store).to_pandas()


def test_truncated_minhash_store_raises(ray_session, tmp_path):
    import json
    import os
    import shutil

    from swishray.ops.increment import (dedup_against_store,
                                        write_minhash_store)
    store = str(tmp_path / "mstore")
    write_minhash_store(
        _tbl([(1, "the quick brown fox jumps over the lazy dog")]),
        store, num_buckets=2)

    meta_path = os.path.join(store, "_meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["complete"] = False
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    with pytest.raises(Exception, match="incomplete"):
        dedup_against_store(_tbl([(9, "zzz")]), store).to_pandas()
    with pytest.raises(ValueError, match="incomplete"):
        write_minhash_store(_tbl([(2, "more text here")]), store)

    meta["complete"] = True
    with open(meta_path, "w") as f:
        json.dump(meta, f)
    shutil.rmtree(os.path.join(store, "sets"))
    with pytest.raises(Exception, match="inconsistent"):
        dedup_against_store(_tbl([(9, "zzz")]), store).to_pandas()
