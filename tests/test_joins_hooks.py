"""Join ops, analyzer hooks, sort strings."""

import pyarrow as pa
import pytest


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


def test_small_side_budget(ray_session, monkeypatch):
    """The broadcast-or-join rule: a side at or under the budget
    comes back as one table, a side over it as None."""
    import ray.data as rd
    from swishray.ops import joins
    tbl = pa.table({"k": pa.array([f"k{i}" for i in range(100)],
                                  pa.large_string())})
    ds = rd.from_arrow(tbl).repartition(3).materialize()
    arr = tbl.column("k").combine_chunks()
    for side, size in ((tbl, tbl.nbytes), (arr, arr.nbytes),
                       (ds, ds.size_bytes())):
        monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", size)
        got = joins.small_side(side)
        assert sorted(got.column(0).to_pylist()) == \
            sorted(tbl.column("k").to_pylist())
        monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", size - 1)
        assert joins.small_side(side) is None
    # an empty Dataset comes back as the empty table of the schema
    schema = pa.schema([("k", pa.large_string())])
    empty = joins.small_side(ds.filter(lambda r: False), schema)
    assert empty.num_rows == 0 and empty.schema == schema


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


def test_key_hash_ignores_nulls_in_block():
    # the bucket of a key must not depend on its block-mates: a null
    # beside a large int64 key used to route it through float64
    from swishray.ops.joins import _key_hash64
    big = 2**62 + 1
    assert _key_hash64(pa.array([big, None]))[0] == \
        _key_hash64(pa.array([big]))[0]


@pytest.mark.parametrize("kind", ["string", "int64"])
def test_hash_exchange_contract(ray_session, kind):
    """Every key's rows reach exactly one fn call, fn never sees the
    bucket tag, the tag never reaches the output, and exchanges chain
    (the remove_duplicate_lines shape)."""
    import collections
    import uuid

    import pandas as pd
    import ray.data as rd
    from swishray.ops.joins import hash_exchange

    ids = [i % 13 for i in range(200)]
    keys = ([f"key-{i}" for i in ids] if kind == "string"
            else [i * 10**15 + 7 for i in ids])
    ds = rd.from_arrow(pa.table({"k": keys, "v": list(range(200))})) \
        .repartition(6)

    def per_call(g: pd.DataFrame) -> pd.DataFrame:
        assert list(g.columns) == ["k", "v"]
        n = g.groupby("k", sort=False).size()
        return pd.DataFrame({"k": n.index, "n": n.to_numpy(),
                             "call": str(uuid.uuid4())})

    out = hash_exchange(ds, "k", per_call, num_buckets=4).materialize()
    assert sorted(out.schema().names) == ["call", "k", "n"]
    got = out.to_pandas()
    assert got["k"].is_unique  # one fn call saw all of each key's rows
    assert dict(zip(got["k"], got["n"])) == collections.Counter(keys)
    assert got["call"].nunique() <= 4

    def same(g):
        return g

    chained = hash_exchange(hash_exchange(ds, "k", same), "v", same,
                            batch_format="pyarrow").materialize()
    assert sorted(chained.schema().names) == ["k", "v"]
    assert chained.to_pandas().sort_values("v")["k"].tolist() == keys


def test_hash_exchange_list_key(ray_session):
    """A list key sends all rows of each (k1, k2) to one fn call; a
    one-column list buckets exactly like the bare column name."""
    import numpy as np
    import ray.data as rd
    from swishray.ops.joins import _key_hash64, hash_exchange

    t = pa.table({"k1": [i % 7 for i in range(300)],
                  "k2": [f"s{i % 5}" for i in range(300)],
                  "v": list(range(300))})
    ds = rd.from_arrow(t).repartition(5)

    def calls(key):
        def fn(g: pa.Table) -> pa.Table:
            keys = sorted(set(zip(g.column("k1").to_pylist(),
                                  g.column("k2").to_pylist())))
            return pa.table({"keys": [repr(keys)], "n": [g.num_rows]})
        return hash_exchange(ds, key, fn, num_buckets=4,
                             batch_format="pyarrow").take_all()

    pairs = calls(["k1", "k2"])
    seen = [k for r in pairs for k in eval(r["keys"])]
    assert len(seen) == len(set(seen)) == 35
    assert sum(r["n"] for r in pairs) == 300

    def k1_buckets(rows):
        return sorted(sorted({k for k, _ in eval(r["keys"])})
                      for r in rows)
    assert k1_buckets(calls("k1")) == k1_buckets(calls(["k1"]))
    want = {}
    for k in range(7):
        b = _key_hash64(pa.array([k]))[0] % np.uint64(4)
        want.setdefault(int(b), []).append(k)
    assert k1_buckets(calls("k1")) == sorted(want.values())


def test_map_groups_only_in_keyed_exchange():
    """Every ``.map_groups(`` call under swishray/ is hash_exchange's
    own or sits in a site that hash_exchange's docstring lists as
    bounded by configuration — and every listed site still exists."""
    import ast
    import pathlib
    import re

    from swishray.ops.joins import hash_exchange

    listed = hash_exchange.__doc__.split("The only per-group")[1] \
        .split("The input is coalesced")[0]
    allowed = set(re.findall(r"``(\w+)\.(\w+)``", listed))
    assert len(allowed) >= 7
    root = pathlib.Path(__file__).resolve().parent.parent / "swishray"
    found = set()
    for path in sorted(root.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            name = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "map_groups":
                    found.add((path.stem, name))
    assert found - allowed == {("joins", "hash_exchange")}
    assert allowed <= found


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
