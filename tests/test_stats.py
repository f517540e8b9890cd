"""Distributed second-moment stats (ops/stats.py): exact integer
partial sums must make the float outputs bit-identical to a local
single-pass evaluation of the same IEEE-double expression."""

import numpy as np
import pyarrow as pa
import pytest


def _expect_moments(groups, xs):
    import pandas as pd
    df = pd.DataFrame({"g": groups, "x": xs})
    rows = []
    for g, s in df.groupby("g"):
        v = s["x"].to_numpy(np.int64)
        n = float(len(v))
        sx = float(v.sum())
        sx2 = float((v * v).sum())
        mean = sx / n
        var = (n * sx2 - sx * sx) / (n * (n - 1.0)) if n > 1 else np.nan
        rows.append((g, len(v), int(v.sum()), mean, var,
                     np.sqrt(var)))
    return sorted(rows)


def test_group_moments_bit_exact(ray_session):
    import ray.data as rd
    from swishray.ops.stats import group_moments

    rng = np.random.default_rng(7)
    g = rng.integers(0, 5, 4000)
    x = rng.integers(0, 10000, 4000)
    t = pa.table({"g": pa.array([f"g{i}" for i in g]),
                  "x": pa.array(x, type=pa.int64())})
    out = group_moments(rd.from_arrow(t).repartition(7), "g", "x") \
        .to_pandas().sort_values("g").reset_index(drop=True)
    want = _expect_moments([f"g{i}" for i in g], x)
    got = list(out.itertuples(index=False, name=None))
    assert len(got) == len(want)
    for (gg, n, sx, mean, var, std), (wg, wn, wsx, wm, wv, ws) in zip(
            sorted(got), want):
        assert (gg, n, sx) == (wg, wn, wsx)
        # bit-identical, not just close
        assert np.float64(mean).view(np.uint64) == \
            np.float64(wm).view(np.uint64)
        assert np.float64(var).view(np.uint64) == \
            np.float64(wv).view(np.uint64)
        assert np.float64(std).view(np.uint64) == \
            np.float64(ws).view(np.uint64)


def test_group_moments_single_row_group(ray_session):
    import ray.data as rd
    from swishray.ops.stats import group_moments

    t = pa.table({"g": ["a"], "x": pa.array([42], type=pa.int64())})
    out = group_moments(rd.from_arrow(t), "g", "x").to_pandas()
    assert out.n.iloc[0] == 1 and out.sum_x.iloc[0] == 42
    assert np.isnan(out.var_x.iloc[0])


def test_group_corr_matches_numpy(ray_session):
    import ray.data as rd
    from swishray.ops.stats import group_corr

    rng = np.random.default_rng(11)
    g = np.repeat(["a", "b"], 500)
    x = rng.integers(0, 100, 1000)
    y = x + rng.integers(-10, 10, 1000)  # strongly correlated
    t = pa.table({"g": pa.array(g), "x": pa.array(x, type=pa.int64()),
                  "y": pa.array(y, type=pa.int64())})
    out = group_corr(rd.from_arrow(t).repartition(5), "g", "x", "y") \
        .to_pandas().sort_values("g").reset_index(drop=True)
    for i, gg in enumerate(["a", "b"]):
        m = g == gg
        want = np.corrcoef(x[m].astype(float), y[m].astype(float))[0, 1]
        assert out.g.iloc[i] == gg
        assert abs(out.corr_xy.iloc[i] - want) < 1e-12
        assert out.corr_xy.iloc[i] > 0.9


def test_grouping_sets_rollup_cube(ray_session):
    import pandas as pd
    import ray.data as rd
    from swishray.ops.aggregates import (rollup_aggregate,
                                         cube_aggregate)

    rng = np.random.default_rng(3)
    a = rng.choice(["x", "y", "z"], 900)
    b = rng.choice(["p", "q"], 900)
    v = rng.integers(0, 50, 900)
    t = pa.table({"a": pa.array(a), "b": pa.array(b),
                  "v": pa.array(v, type=pa.int64())})
    ds = rd.from_arrow(t).repartition(6)

    out = rollup_aggregate(ds, ["a", "b"], "v").to_pandas()
    df = pd.DataFrame({"a": a, "b": b, "v": v})
    # level 0: (a, b)
    fine = df.groupby(["a", "b"])["v"].agg(["count", "sum"])
    for (aa, bb), r in fine.iterrows():
        row = out[(out.a == aa) & (out.b == bb) &
                  (out.grouping_id == 0)]
        assert len(row) == 1
        assert row.n.iloc[0] == r["count"]
        assert row.sum_v.iloc[0] == r["sum"]
    # level 1: (a), b rolled up -> NULL
    lv1 = out[out.grouping_id == 1]
    assert lv1.b.isna().all() and len(lv1) == 3
    assert (lv1.set_index("a").n.sort_index().values ==
            df.groupby("a").size().sort_index().values).all()
    # grand total
    tot = out[out.grouping_id == 3]
    assert len(tot) == 1 and tot.n.iloc[0] == 900
    assert tot.sum_v.iloc[0] == int(v.sum())
    assert len(out) == len(fine) + 3 + 1

    cube = cube_aggregate(ds, ["a", "b"], "v").to_pandas()
    # adds grouping_id==2: (b) with a rolled up
    lv2 = cube[cube.grouping_id == 2]
    assert lv2.a.isna().all() and len(lv2) == 2
    assert (lv2.set_index("b").sum_v.sort_index().values ==
            df.groupby("b")["v"].sum().sort_index().values).all()
    assert len(cube) == len(out) + 2


def test_pivot_table(ray_session, spread):
    import pandas as pd
    import ray.data as rd
    from swishray.ops.aggregates import pivot_table

    rng = np.random.default_rng(5)
    rows = [f"r{i}" for i in range(1, 10)]
    spread(rows)
    r = rng.choice(rows, 700)
    c = rng.choice(["A", "B", "C"], 700)
    v = rng.integers(0, 9, 700)
    # r4 never sees column C -> must still be 0, not missing
    mask = ~((r == "r4") & (c == "C"))
    r, c, v = r[mask], c[mask], v[mask]
    t = pa.table({"r": pa.array(r), "c": pa.array(c),
                  "v": pa.array(v, type=pa.int64())})
    out = pivot_table(rd.from_arrow(t).repartition(5),
                      "r", "c", "v").to_pandas() \
        .sort_values("r").reset_index(drop=True)
    assert list(out.columns) == ["r", "A", "B", "C"]
    df = pd.DataFrame({"r": r, "c": c, "v": v})
    want = df.pivot_table(index="r", columns="c", values="v",
                          aggfunc="sum", fill_value=0)
    for _, row in out.iterrows():
        for col in ("A", "B", "C"):
            w = want.loc[row.r][col] if col in want.columns else 0
            assert row[col] == w
    assert out[out.r == "r4"].C.iloc[0] == 0


def test_distribution_windows(ray_session):
    import ray.data as rd
    from swishray.ops.analytic import (analytic, cume_dist,
                                       first_value, last_value,
                                       percent_rank)

    # one partition, known ties: iv = [5,5,3,3,3,1]
    t = pa.table({
        "p": pa.array(["a"] * 6),
        "eid": pa.array(range(6), type=pa.int64()),
        "iv": pa.array([5, 5, 3, 3, 3, 1], type=pa.int64())})
    out = analytic(rd.from_arrow(t).repartition(3), "p",
                   [("iv", False), ("eid", True)],
                   [percent_rank(), cume_dist(),
                    first_value("eid", "f"), last_value("eid", "l")],
                   rank_cols=["iv"]).to_pandas() \
        .sort_values("eid").reset_index(drop=True)
    # ranks on iv desc: [1,1,3,3,3,6] -> percent_rank = (r-1)/5
    assert list(out.prnk) == [0.0, 0.0, 0.4, 0.4, 0.4, 1.0]
    # peer-group ends: [2,2,5,5,5,6] / 6
    assert list(out.cdist) == [2/6, 2/6, 5/6, 5/6, 5/6, 1.0]
    assert (out.f == 0).all() and (out.l == 5).all()


def test_percent_rank_single_row(ray_session):
    import ray.data as rd
    from swishray.ops.analytic import analytic, percent_rank

    t = pa.table({"p": ["a"], "eid": pa.array([0], type=pa.int64()),
                  "iv": pa.array([9], type=pa.int64())})
    out = analytic(rd.from_arrow(t), "p", [("iv", False), "eid"],
                   [percent_rank()], rank_cols=["iv"]).to_pandas()
    assert out.prnk.iloc[0] == 0.0


def test_histogram_fixed(ray_session):
    import ray.data as rd
    from swishray.ops.stats import histogram_fixed

    # boundary values land in the bin the pinned formula says:
    # x=10 with lo=0,hi=100,n=10 -> floor(10*10/100)+1 = 2
    t = pa.table({"v": pa.array(
        [-5.0, 0.0, 9.999, 10.0, 55.0, 100.0, 250.0],
        type=pa.float64())})
    out = histogram_fixed(rd.from_arrow(t).repartition(3),
                          "v", 0.0, 100.0, 10).to_pandas() \
        .set_index("bin").n.to_dict()
    assert out == {0: 1, 1: 2, 2: 1, 6: 1, 11: 2}
    assert sum(out.values()) == 7


def test_zscore_outliers(ray_session, monkeypatch):
    import ray.data as rd
    from swishray.ops.stats import zscore_outliers
    from swishray.ops import joins

    for budget in (None, 0):  # broadcast, then the join path
        if budget is not None:
            monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
        rng = np.random.default_rng(9)
        x = rng.integers(95, 105, 300)
        x[7] = 100000  # the outlier
        t = pa.table({"g": pa.array(["a"] * 300),
                      "k": pa.array(range(300), type=pa.int64()),
                      "x": pa.array(x, type=pa.int64())})
        out = zscore_outliers(rd.from_arrow(t).repartition(4),
                              "g", "x", threshold=3.0).to_pandas()
        assert list(out.k) == [7]
        assert out.z.iloc[0] > 10


@pytest.mark.parametrize("path", ["broadcast", "join"])
def test_zscore_outliers_all_null_groups(ray_session, path):
    """Rows with a null group find no moments and are never outliers,
    also when no row has a group: the moment table is then empty, with
    no schema. A seeded mix of null-group and grouped rows keeps the
    grouped rows' outlier."""
    import contextlib

    import ray.data as rd
    from swishray.ops import joins
    from swishray.ops.stats import zscore_outliers

    rng = np.random.default_rng(23)
    x = rng.integers(0, 50, 40)
    x[5] = 10_000
    ctx = joins.join_path() if path == "join" else contextlib.nullcontext()
    none = pa.table({"g": pa.array([None] * 4, pa.string()),
                     "x": pa.array(x[:4], pa.int64())})
    with ctx:
        out = zscore_outliers(rd.from_arrow(none), "g", "x", threshold=1.0)
    assert out.take_all() == []
    g = [None if i % 3 == 0 else "a" for i in range(40)]
    mixed = pa.table({"g": pa.array(g, pa.string()),
                      "k": pa.array(range(40), pa.int64()),
                      "x": pa.array(x, pa.int64())})
    ctx = joins.join_path() if path == "join" else contextlib.nullcontext()
    with ctx:
        out = zscore_outliers(rd.from_arrow(mixed).repartition(3), "g",
                              "x", threshold=3.0)
    assert [r["k"] for r in out.take_all()] == [5]


def test_count_distinct_per_group(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import count_distinct_per_group

    rng = np.random.default_rng(13)
    g = rng.choice(["a", "b"], 2000)
    v = rng.integers(0, 37, 2000)
    t = pa.table({"g": pa.array(g), "v": pa.array(v, type=pa.int64())})
    out = count_distinct_per_group(
        rd.from_arrow(t).repartition(8), "g", "v").to_pandas() \
        .set_index("g").n_distinct.to_dict()
    import pandas as pd
    want = pd.DataFrame({"g": g, "v": v}).groupby("g").v.nunique()
    assert out == want.to_dict()


def test_set_ops(ray_session):
    import ray.data as rd
    from swishray.ops.aggregates import (except_distinct,
                                         intersect_distinct)

    l = rd.from_arrow(pa.table({"k": pa.array([1, 2, 2, 3, 4],
                                              type=pa.int64())}))
    r = rd.from_arrow(pa.table({"k": pa.array([2, 4, 4, 5],
                                              type=pa.int64())}))
    inter = sorted(intersect_distinct(l, r, ["k"]).to_pandas().k)
    assert inter == [2, 4]
    exc = sorted(except_distinct(l, r, ["k"]).to_pandas().k)
    assert exc == [1, 3]


def test_gap_fill_counts(ray_session):
    import pandas as pd
    import ray.data as rd
    from swishray.ops.aggregates import gap_fill_counts

    ts = pd.to_datetime(["2024-01-01 05:00", "2024-01-01 07:00",
                         "2024-01-04 01:00",  # 2-day gap for g1
                         "2024-02-01 00:00"])  # g2 single day
    t = pa.table({"g": ["g1", "g1", "g1", "g2"],
                  "ts": pa.array(ts, type=pa.timestamp("us"))})
    out = gap_fill_counts(rd.from_arrow(t).repartition(2),
                          "g", "ts", unit="day").to_pandas() \
        .sort_values(["g", "period"]).reset_index(drop=True)
    g1 = out[out.g == "g1"]
    assert len(g1) == 4  # Jan 1,2,3,4 — gaps zero-filled
    assert list(g1.n) == [2, 0, 0, 1]
    g2 = out[out.g == "g2"]
    assert len(g2) == 1 and g2.n.iloc[0] == 1



def test_gap_fill_counts_many_groups(ray_session, spread):
    """Many groups over many blocks vs a pandas resample replay."""
    import pandas as pd
    import ray.data as rd
    from swishray.ops.aggregates import gap_fill_counts

    rng = np.random.default_rng(8)
    n = 600
    df = pd.DataFrame({
        "g": [f"g{i}" for i in rng.integers(0, 20, n)],
        "ts": pd.to_datetime("2024-01-01") + pd.to_timedelta(
            rng.integers(0, 30 * 86400, n), unit="s")})
    spread(df.g.unique())
    t = pa.table({"g": pa.array(df.g),
                  "ts": pa.array(df.ts, type=pa.timestamp("us"))})
    out = gap_fill_counts(rd.from_arrow(t).repartition(5), "g", "ts",
                          unit="day").to_pandas()
    got = sorted((r.g, r.period, r.n) for _, r in out.iterrows())
    want = []
    for g, d in df.groupby("g"):
        c = d.ts.dt.floor("D").value_counts()
        for day in pd.date_range(c.index.min(), c.index.max(), freq="D"):
            want.append((g, day, int(c.get(day, 0))))
    assert got == sorted(want)

def test_unnest_list(ray_session):
    import ray.data as rd
    from swishray.ops.textstats import unnest_list

    t = pa.table({"k": pa.array([10, 20, 30], type=pa.int64()),
                  "v": pa.array([[1.5, 2.5], [], [7.0]],
                                type=pa.list_(pa.float32()))})
    out = unnest_list(rd.from_arrow(t), "v", "k").to_pandas() \
        .sort_values(["k", "i"]).reset_index(drop=True)
    assert list(out.k) == [10, 10, 30]
    assert list(out.i) == [1, 2, 1]
    assert list(out.val) == [1.5, 2.5, 7.0]


def test_minmax_normalize(ray_session, monkeypatch):
    import ray.data as rd
    from swishray.ops.stats import minmax_normalize
    from swishray.ops import joins

    for budget in (None, 0):  # broadcast, then the join path
        if budget is not None:
            monkeypatch.setattr(joins, "BROADCAST_MAX_BYTES", budget)
        t = pa.table({"g": ["a", "a", "a", "b", "b"],
                      "x": pa.array([10, 20, 30, 7, 7], type=pa.int64())})
        out = minmax_normalize(rd.from_arrow(t).repartition(2),
                               "g", "x").to_pandas().sort_values(
            ["g", "x"]).reset_index(drop=True)
        assert list(out.x_norm) == [0.0, 0.5, 1.0, 0.0, 0.0]


def test_winsorize(ray_session):
    import ray.data as rd
    from swishray.ops.stats import winsorize

    x = list(range(1, 101))  # 1..100
    t = pa.table({"x": pa.array(x, type=pa.int64())})
    out = winsorize(rd.from_arrow(t).repartition(4), "x",
                    0.05, 0.95).to_pandas()
    # PERCENTILE_DISC: ceil(0.05*100)-1 = idx 4 -> 5;
    # ceil(0.95*100)-1 = idx 94 -> 95
    assert out.x_w.min() == 5 and out.x_w.max() == 95
    assert sorted(out.x_w)[:6] == [5, 5, 5, 5, 5, 6]


def test_quantile_sketch_rank_error(ray_session):
    import ray.data as rd
    from swishray.ops.stats import quantile_sketch

    rng = np.random.default_rng(23)
    x = rng.normal(0, 100, 60000)
    t = pa.table({"x": pa.array(x, type=pa.float64())})
    out = quantile_sketch(rd.from_arrow(t).repartition(12),
                          "x", [0.1, 0.5, 0.9], cap=1024) \
        .to_pandas().set_index("q").value.to_dict()
    xs = np.sort(x)
    for q, v in out.items():
        # observed rank of the estimate must be within 2% of q
        rank = np.searchsorted(xs, v) / len(xs)
        assert abs(rank - q) < 0.02, (q, rank)


def test_cross_join_broadcast(ray_session):
    import ray.data as rd
    from swishray.ops.joins import cross_join_broadcast

    l = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3],
                                              type=pa.int64())}))
    r = pa.table({"v": ["x", "y"]})
    out = cross_join_broadcast(l, r).to_pandas()
    assert len(out) == 6
    assert sorted(zip(out.k, out.v)) == [
        (1, "x"), (1, "y"), (2, "x"), (2, "y"), (3, "x"), (3, "y")]


def test_group_linreg_bit_exact(ray_session):
    import ray.data as rd
    from swishray.ops.stats import group_linreg

    rng = np.random.default_rng(17)
    g = rng.integers(0, 4, 3000)
    x = rng.integers(0, 1000, 3000)
    y = 3 * x + rng.integers(-50, 51, 3000)
    t = pa.table({"g": pa.array([f"g{i}" for i in g]),
                  "x": pa.array(x, type=pa.int64()),
                  "y": pa.array(y, type=pa.int64())})
    out = group_linreg(rd.from_arrow(t).repartition(7), "g", "x", "y") \
        .to_pandas().sort_values("g").reset_index(drop=True)
    import pandas as pd
    for _, row in out.iterrows():
        sel = g == int(row.g[1])
        vx = x[sel].astype(np.int64)
        vy = y[sel].astype(np.int64)
        n = float(len(vx))
        sx, sy = float(vx.sum()), float(vy.sum())
        sxy = float((vx * vy).sum())
        sx2 = float((vx * vx).sum())
        sy2 = float((vy * vy).sum())
        num = n * sxy - sx * sy
        dx = n * sx2 - sx * sx
        dy = n * sy2 - sy * sy
        slope = num / dx
        # bit-exact: same operands, same order
        assert row.slope == slope
        assert row.intercept == (sy - slope * sx) / n
        assert row.r2 == (num * num) / (dx * dy)
        assert abs(row.slope - 3.0) < 0.1


def test_group_linreg_degenerate(ray_session):
    import ray.data as rd
    from swishray.ops.stats import group_linreg

    # constant x -> zero variance -> NULL fit; n=1 group too
    t = pa.table({"g": pa.array(["c", "c", "c", "one"]),
                  "x": pa.array([5, 5, 5, 2], type=pa.int64()),
                  "y": pa.array([1, 2, 3, 4], type=pa.int64())})
    out = group_linreg(rd.from_arrow(t), "g", "x", "y") \
        .to_pandas().set_index("g")
    assert np.isnan(out.loc["c", "slope"])
    assert np.isnan(out.loc["one", "slope"])
