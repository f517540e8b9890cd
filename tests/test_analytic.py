"""Analytic window functions: rank family, lag/lead, running and
rolling sums, ntile, and the salted prefix-sum scale path."""

import numpy as np
import pandas as pd
import pyarrow as pa


def _events(n=400, users=7, seed=3):
    rng = np.random.default_rng(seed)
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        rng.integers(0, 86400 * 5, n), unit="s")
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(rng.integers(0, users, n).astype(np.int64)),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "iv": pa.array(rng.integers(0, 9, n).astype(np.int64)),
    })


def test_rank_family_matches_pandas(ray_session):
    import ray.data as rd
    from swishray.ops.analytic import (analytic, row_number, rank,
                                       dense_rank)

    t = _events()
    out = analytic(rd.from_arrow(t).repartition(6),
                   partition_by="user_id",
                   order_by=[("iv", False), ("event_id", True)],
                   specs=[row_number(), rank(), dense_rank()],
                   rank_cols=["iv"]).to_pandas()

    df = t.to_pandas()
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["iv", "event_id"],
                          ascending=[False, True])
        mine = out[out.user_id == uid].set_index("event_id") \
            .loc[g.event_id]
        assert list(mine.rn) == list(range(1, len(g) + 1))
        # SQL RANK/DENSE_RANK on iv DESC
        want_rnk = g.iv.rank(method="min", ascending=False).astype(int)
        want_drnk = g.iv.rank(method="dense",
                              ascending=False).astype(int)
        assert list(mine.rnk) == list(want_rnk)
        assert list(mine.drnk) == list(want_drnk)


def test_lag_lead_null_boundaries(ray_session):
    import ray.data as rd
    from swishray.ops.analytic import analytic, lag, lead

    t = _events(60, users=3)
    out = analytic(rd.from_arrow(t).repartition(4),
                   partition_by="user_id",
                   order_by=["ts", "event_id"],
                   specs=[lag("event_id"), lead("event_id")]
                   ).to_pandas()
    df = t.to_pandas()
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        mine = out[out.user_id == uid].set_index("event_id") \
            .loc[g.event_id]
        lags = mine.event_id_lag1.to_numpy()
        leads = mine.event_id_lead1.to_numpy()
        assert pd.isna(lags[0]) and pd.isna(leads[-1])
        assert list(lags[1:]) == list(g.event_id[:-1])
        assert list(leads[:-1]) == list(g.event_id[1:])


def test_running_rolling_ntile(ray_session):
    import ray.data as rd
    from swishray.ops.analytic import (analytic, running_sum,
                                       rolling_sum, ntile, running_max)

    t = _events(150, users=4)
    out = analytic(rd.from_arrow(t).repartition(5),
                   partition_by="user_id",
                   order_by=["ts", "event_id"],
                   specs=[running_sum("iv"), rolling_sum("iv", 3),
                          ntile(4), running_max("iv")]).to_pandas()
    df = t.to_pandas()
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        mine = out[out.user_id == uid].set_index("event_id") \
            .loc[g.event_id]
        assert list(mine.iv_rsum) == list(g.iv.cumsum())
        assert list(mine.iv_rmax) == list(g.iv.cummax())
        assert list(mine.iv_roll3) == list(
            g.iv.rolling(3, min_periods=1).sum().astype(int))
        # SQL NTILE: first (n % 4) tiles one row larger
        n = len(g)
        base, extra = divmod(n, 4)
        want = np.repeat(np.arange(1, 5),
                         [base + (i < extra) for i in range(4)])[:n]
        assert list(mine.tile) == list(want)


def test_ntile_fewer_rows_than_tiles(ray_session):
    import ray.data as rd
    from swishray.ops.analytic import analytic, ntile

    t = pa.table({"k": pa.array([1, 1], type=pa.int64()),
                  "o": pa.array([2, 1], type=pa.int64())})
    out = analytic(rd.from_arrow(t), "k", ["o"],
                   [ntile(5)]).to_pandas().sort_values("o")
    assert list(out.tile) == [1, 2]


def test_running_sum_salted_equals_unsalted(ray_session, spread):
    import ray.data as rd
    from swishray.ops.analytic import (analytic, running_sum,
                                       running_sum_salted)

    t = _events(500, users=9, seed=11)
    spread(range(9))
    ds = rd.from_arrow(t).repartition(8)
    plain = analytic(ds, "user_id", ["ts", "event_id"],
                     [running_sum("iv", out="rsum")]).to_pandas()
    salted = running_sum_salted(ds, key="user_id", ts_col="ts",
                                val_col="iv", out="rsum",
                                salt_unit="day",
                                tiebreak="event_id").to_pandas()
    a = plain[["event_id", "rsum"]].sort_values("event_id") \
        .reset_index(drop=True)
    b = salted[["event_id", "rsum"]].sort_values("event_id") \
        .reset_index(drop=True)
    assert a.rsum.astype(int).tolist() == b.rsum.astype(int).tolist()


def test_running_sum_salted_one_user_many_salts(ray_session):
    """The skew story: one user, events spread over 40 days — the
    salted path splits them into 40 groups and still reconstructs
    the exact global prefix sum."""
    import ray.data as rd
    from swishray.ops.analytic import (analytic, running_sum,
                                       running_sum_salted)

    n = 400
    ts = pd.to_datetime("2024-03-01") + pd.to_timedelta(
        np.arange(n) * 9000, unit="s")  # 2.5h apart -> ~40 days
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(np.zeros(n, dtype=np.int64)),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "iv": pa.array((np.arange(n) % 7).astype(np.int64)),
    })
    ds = rd.from_arrow(t).repartition(8)
    out = running_sum_salted(
        ds, key="user_id", ts_col="ts",
        val_col="iv", out="rsum", salt_unit="day",
        tiebreak="event_id").to_pandas().sort_values("event_id")
    want = (np.arange(n) % 7).cumsum()
    assert out.rsum.astype(int).tolist() == list(want)
    plain = analytic(ds, "user_id", ["ts", "event_id"],
                     [running_sum("iv", out="rsum")]).to_pandas() \
        .sort_values("event_id")
    assert plain.rsum.tolist() == out.rsum.tolist()


def test_rank_salted_equals_groupwise(ray_session, spread):
    """Histogram-based RANK/DENSE_RANK == the map_groups analytic
    path, including heavy ties — and it never groups raw rows."""
    import ray.data as rd
    from swishray.ops.analytic import (analytic, dense_rank, rank,
                                       rank_salted)

    rng = np.random.default_rng(13)
    t = pa.table({
        "g": pa.array(rng.integers(0, 9, 800).astype(np.int64)),
        "v": pa.array(rng.integers(0, 12, 800).astype(np.int64)),
        "id": pa.array(np.arange(800, dtype=np.int64))})
    spread(range(9))
    ds = rd.from_arrow(t).repartition(6)

    a = rank_salted(ds, "g", "v", descending=True,
                    out="rnk", dense_out="drnk").to_pandas() \
        .sort_values("id").reset_index(drop=True)
    b = analytic(ds, "g", [("v", False), ("id", True)],
                 [rank(), dense_rank()], rank_cols=["v"]) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert list(a.rnk) == list(b.rnk)
    assert list(a.drnk) == list(b.drnk)


def test_salted_ops_empty_and_single_row(ray_session):
    """The Ray 2.49 empty-side trap: an all-empty input loses its
    schema through map_batches; the schema_guard sentinel keeps both
    salted ops alive (and a single row survives untouched)."""
    import numpy as np
    import ray.data as rd
    from swishray.ops.analytic import rank_salted, running_sum_salted

    empty = rd.from_arrow(pa.table({
        "user_id": pa.array([], pa.int64()),
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "iv": pa.array([], pa.int64())}))
    assert rank_salted(empty, "user_id", "iv").take_all() == []
    assert running_sum_salted(empty, "user_id", "ts", "iv",
                              tiebreak="event_id").take_all() == []

    one = rd.from_arrow(pa.table({
        "user_id": pa.array([1], pa.int64()),
        "event_id": pa.array([9], pa.int64()),
        "ts": pa.array([np.datetime64("2024-01-01", "us")],
                       pa.timestamp("us")),
        "iv": pa.array([5], pa.int64())}))
    r = rank_salted(one, "user_id", "iv").take_all()
    assert len(r) == 1 and r[0]["rnk"] == 1
    s = running_sum_salted(one, "user_id", "ts", "iv",
                           tiebreak="event_id").take_all()
    assert len(s) == 1 and s[0]["rsum"] == 5


def test_range_sum_window(ray_session):
    """Time-RANGE frame vs a local O(n^2) replay, including ts-peer
    inclusion (SQL RANGE peer rule) and exact boundary hits."""
    import ray.data as rd
    from swishray.ops.analytic import analytic, range_sum

    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        [0, 10, 10, 30, 70, 70, 71, 200], unit="s")
    t = pa.table({
        "event_id": pa.array(np.arange(8, dtype=np.int64)),
        "user_id": pa.array(np.zeros(8, dtype=np.int64)),
        "ts": pa.array(ts, type=pa.timestamp("us")),
        "iv": pa.array([1, 2, 4, 8, 16, 32, 64, 128],
                       type=pa.int64())})
    out = analytic(rd.from_arrow(t).repartition(3), "user_id",
                   ["ts", "event_id"],
                   [range_sum("iv", "ts", 60)]).to_pandas() \
        .sort_values("event_id")
    tsec = ts.astype("int64") // 10**9
    want = [sum(v for v2, tt in zip([1, 2, 4, 8, 16, 32, 64, 128],
                                    tsec)
                for v in [v2]
                if tsec[i] - 60 <= tt <= tsec[i])
            for i in range(8)]
    assert list(out.iv_range) == want


def test_ewma_matches_closed_form(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.analytic import analytic, ewma

    rng = np.random.default_rng(17)
    x = rng.normal(0, 1, 50)
    t = pa.table({"p": ["a"] * 50,
                  "i": pa.array(range(50), type=pa.int64()),
                  "x": pa.array(x, type=pa.float64())})
    out = analytic(rd.from_arrow(t).repartition(4), "p", ["i"],
                   [ewma("x", 0.25)]).to_pandas() \
        .sort_values("i").reset_index(drop=True)
    # closed form: s_i = a*sum_{j>=1..i}(1-a)^(i-j) x_j + (1-a)^i x_0
    a = 0.25
    want = np.empty(50)
    want[0] = x[0]
    for i in range(1, 50):
        want[i] = a * x[i] + (1 - a) * want[i - 1]
    assert np.allclose(out.x_ewma.to_numpy(), want, rtol=0, atol=1e-12)


def test_transition_counts(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.windows import transition_counts

    # user 1: a->b->a ; user 2: b->b ; user 3: single event (none)
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2, 3], type=pa.int64()),
        "ts": pa.array([1, 2, 3, 1, 2, 1], type=pa.int64()),
        "event_id": pa.array([10, 11, 12, 20, 21, 30],
                             type=pa.int64()),
        "event_type": pa.array(["a", "b", "a", "b", "b", "c"])})
    out = transition_counts(rd.from_arrow(t).repartition(3),
                            key="user_id", order_by=["ts", "event_id"],
                            col="event_type").to_pandas()
    got = {(r.src, r.dst): r.n for r in out.itertuples(index=False)}
    assert got == {("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 1}


def test_every_spec_many_partitions(ray_session, spread):
    """Every spec kind over 24 partitions keyed by a LIST
    (user_id, d), across blocks and buckets, vs a per-partition
    pandas replay; ts is hour-floored so rank ties occur."""
    import ray.data as rd
    from swishray.ops.analytic import (analytic, cume_dist, dense_rank,
                                       ewma, first_value, lag,
                                       last_value, lead, ntile,
                                       percent_rank, range_sum, rank,
                                       rolling_sum, row_number,
                                       running_max, running_sum)

    df = _events(600, users=12, seed=21).to_pandas()
    df["ts"] = df.ts.dt.floor("h")
    df["d"] = df.event_id % 2
    spread(range(12))
    specs = [row_number(), rank(), dense_rank(), lag("iv"),
             lead("iv", 2), running_sum("iv"), rolling_sum("iv", 3),
             running_max("iv"), ntile(5), percent_rank(), cume_dist(),
             first_value("event_id"), last_value("event_id"),
             range_sum("iv", "ts", 7200), ewma("iv", 0.3)]
    t = pa.Table.from_pandas(df, preserve_index=False)
    out = analytic(rd.from_arrow(t).repartition(6), ["user_id", "d"],
                   ["ts", "event_id"], specs,
                   rank_cols=["ts"]).to_pandas()
    assert len(out) == len(df)
    eq = np.testing.assert_array_equal
    for (u, d), g in df.groupby(["user_id", "d"]):
        g = g.sort_values(["ts", "event_id"]).reset_index(drop=True)
        m = out[(out.user_id == u) & (out.d == d)] \
            .set_index("event_id").loc[g.event_id]
        n = len(g)
        r = g.ts.rank(method="min").to_numpy()
        eq(m.rn, np.arange(1, n + 1))
        eq(m.rnk, r)
        eq(m.drnk, g.ts.rank(method="dense"))
        eq(m.iv_lag1.to_numpy(float), g.iv.shift(1).to_numpy(float))
        eq(m.iv_lead2.to_numpy(float), g.iv.shift(-2).to_numpy(float))
        eq(m.iv_rsum, g.iv.cumsum())
        eq(m.iv_roll3, g.iv.rolling(3, min_periods=1).sum())
        eq(m.iv_rmax, g.iv.cummax())
        base, extra = divmod(n, 5)
        eq(m.tile, np.repeat(np.arange(1, 6),
                             [base + (i < extra) for i in range(5)])[:n])
        eq(m.prnk, (r - 1) / (n - 1) if n > 1 else np.zeros(n))
        eq(m.cdist, g.ts.rank(method="max") / n)
        assert (m.event_id_first == g.event_id.iloc[0]).all()
        assert (m.event_id_last == g.event_id.iloc[-1]).all()
        sec = g.ts.astype("int64") // 10**3
        eq(m.iv_range, [g.iv[(sec >= s - 7200 * 10**3) & (sec <= s)].sum()
                        for s in sec])
        assert np.allclose(m.iv_ewma,
                           g.iv.ewm(alpha=0.3, adjust=False).mean())


def test_transition_counts_nul_states(ray_session):
    """States that differ only after a NUL byte are counted apart
    (pandas 2.2 groupby merged them)."""
    import pyarrow as pa
    import ray.data as rd
    from swishray.ops.windows import transition_counts

    t = pa.table({
        "user_id": pa.array([1, 1, 1, 1], type=pa.int64()),
        "ts": pa.array([1, 2, 3, 4], type=pa.int64()),
        "event_type": pa.array(["a\x00b", "z", "a\x00c", "z"])})
    out = transition_counts(rd.from_arrow(t), key="user_id",
                            order_by=["ts"], col="event_type").to_pandas()
    got = {(r.src, r.dst): r.n for r in out.itertuples(index=False)}
    assert got == {("a\x00b", "z"): 1, ("z", "a\x00c"): 1,
                   ("a\x00c", "z"): 1}
