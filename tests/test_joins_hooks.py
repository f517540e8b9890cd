"""Join ops, analyzer hooks, sort strings."""

import pyarrow as pa


def test_anti_semi_join(ray_session):
    import ray.data as rd
    from swishray.ops.joins import anti_join_keys, semi_join_keys
    tbl = pa.table({"url": [f"u{i}" for i in range(10)],
                    "v": list(range(10))})
    ds = rd.from_arrow(tbl)
    kept = anti_join_keys(ds, {"u1", "u3"}, "url").take_all()
    assert sorted(r["url"] for r in kept) == \
        sorted(f"u{i}" for i in range(10) if i not in (1, 3))
    only = semi_join_keys(rd.from_arrow(tbl), {"u1", "u3"}, "url").take_all()
    assert sorted(r["url"] for r in only) == ["u1", "u3"]


def test_broadcast_lookup_join(ray_session):
    import ray.data as rd
    from swishray.ops.joins import broadcast_lookup_join
    ds = rd.from_arrow(pa.table({"ext": ["html", "txt", "zzz"]}))
    out = broadcast_lookup_join(ds, {"html": "text/html",
                                     "txt": "text/plain"},
                                "ext", "mime").take_all()
    assert [r["mime"] for r in out] == ["text/html", "text/plain", None]


def test_hash_join(ray_session):
    import ray.data as rd
    from swishray.ops.joins import hash_join
    left = rd.from_arrow(pa.table({"k": [1, 2, 3, 4], "a": list("wxyz")}))
    right = rd.from_arrow(pa.table({"k": [2, 3, 5], "b": [20, 30, 50]}))
    out = hash_join(left, right, "k").take_all()
    got = sorted((r["k"], r["a"], r["b_r"]) for r in out)
    assert got == [(2, "x", 20), (3, "y", 30)]
    louter = hash_join(
        rd.from_arrow(pa.table({"k": [1, 2], "a": ["p", "q"]})),
        rd.from_arrow(pa.table({"k": [2], "b": [9]})),
        "k", how="left").take_all()
    assert len(louter) == 2


def test_custom_tokenizer_hook():
    from swishray.extractor import DocumentExtractor

    def ws_tokenizer(tl, data, meta, context):
        n0 = len(tl)
        for w in data.split():
            tl.add(w, meta, context)
        return len(tl) - n0

    ex = DocumentExtractor(tokenizer=ws_tokenizer)
    rec = ex.extract("x.html", b"<p>Hello, World!</p>")
    assert rec.token_values == [b"Hello,", b"World!"]


def test_stemmer_hook():
    from swishray.extractor import DocumentExtractor

    def crude_stem(v: bytes) -> bytes:
        return v[:-1] if v.endswith(b"s") else v

    ex = DocumentExtractor(stemmer=crude_stem)
    rec = ex.extract("x.html", b"<p>cats dogs bird</p>")
    assert rec.token_values == [b"cat", b"dog", b"bird"]
    # offsets recomputed for the stemmed arena
    assert rec.token_offsets == [0, 4, 8]


def test_parse_sort_string():
    from swishray.pipeline import parse_sort_string
    assert parse_sort_string("p1 asc p2 desc") == [("p1", False),
                                                  ("p2", True)]
    assert parse_sort_string("p1 p2 desc p3") == [
        ("p1", False), ("p2", True), ("p3", False)]


def test_sort_by_string(ray_session):
    import ray.data as rd
    from swishray.pipeline import sort_by_string
    ds = rd.from_arrow(pa.table({"a": [1, 1, 2], "b": [5, 9, 1]}))
    rows = sort_by_string(ds, "a asc b desc").take_all()
    assert [(r["a"], r["b"]) for r in rows] == [(1, 9), (1, 5), (2, 1)]


def test_interval_join_grid(ray_session):
    """Grid-decomposed overlap join vs a local nested-loop replay —
    boundary-exact (lo == v and v == hi included), intervals
    spanning multiple cells matched once, no duplicates."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.joins import interval_join_grid

    rng = np.random.default_rng(8)
    v = np.round(rng.uniform(0, 100, 300), 1)
    pts = pa.table({"pid": pa.array(np.arange(300, dtype=np.int64)),
                    "v": pa.array(v, pa.float64())})
    lo = np.round(rng.uniform(0, 95, 40), 1)
    span = rng.uniform(0.5, 12, 40)  # some spans >> cell
    iv = pa.table({"iid": pa.array(np.arange(40, dtype=np.int64)),
                   "lo": pa.array(lo, pa.float64()),
                   "hi": pa.array(np.round(lo + span, 1),
                                  pa.float64())})
    out = interval_join_grid(
        rd.from_arrow(pts).repartition(4),
        rd.from_arrow(iv).repartition(3),
        point_col="v", lo_col="lo", hi_col="hi", cell=4.0) \
        .take_all()
    got = sorted((r["pid"], r["iid_r"]) for r in out)
    hi = iv.column("hi").to_numpy()
    want = sorted((p, i) for p in range(300) for i in range(40)
                  if lo[i] <= v[p] <= hi[i])
    assert got == want
    assert len(got) == len(set(got))  # exactly-once, no dup pairs


def test_import_polars_repairs_stale_binding():
    """A cancelled first import in a reused worker leaves polars
    submodules binding `pl` to a dead half-populated module (top
    entry removed, submodules surviving); import_polars must detect
    and repair that state (util.py import_polars doc)."""
    import sys
    import types

    import pyarrow as pa

    from swishray.util import import_polars

    pl = import_polars()
    assert hasattr(pl, "Series")
    sub = sys.modules["polars._utils.various"]
    orig = sub.pl
    try:
        sub.pl = types.ModuleType("polars")  # dead binding
        pl2 = import_polars()
        assert sys.modules["polars._utils.various"].pl is pl2
        df = pl2.from_arrow(pa.table({"s": ["l", "r"]}))
        assert df.filter(pl2.col("s") == "l").height == 1
    finally:
        # repair replaced the modules wholesale; nothing to restore
        # beyond ensuring a consistent end state
        assert import_polars() is not None


def test_all_to_all_seam_is_pinned(ray_session):
    """_has_all_to_all reads Ray's private logical plan and answers
    True when anything fails. Pin the import, so that if Ray moves the
    module this fails instead of every join silently materializing."""
    import ray.data as rd
    from ray.data._internal.logical.operators.all_to_all_operator import (
        AbstractAllToAll)
    from swishray.ops.joins import _has_all_to_all

    ds = rd.range(8)
    assert _has_all_to_all(ds) is False
    grouped = ds.groupby("id").count()
    assert isinstance(grouped._plan._logical_plan.dag, AbstractAllToAll)
    assert _has_all_to_all(grouped) is True
