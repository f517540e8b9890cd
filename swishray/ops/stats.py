"""Distributed second-moment statistics (variance / stddev /
correlation) with EXACT integer partial sums.

The reference's report layer stops at counts/sums/facets
(/root/reference/src/libswish3/docinfo.c totals); a training-data
pipeline also needs spread and association statistics over corpus
signals (length distributions, quality-score vs length correlation).
Naive distributed float accumulation is order-dependent — the same
job gives different last-bits run to run, which breaks byte-level
replay against a SQL oracle. These operators instead shuffle only
EXACT int64 partial sums (n, Σx, Σx², Σxy) — associative and
order-independent — then derive the float statistics in ONE fixed
IEEE-double expression at the end, so results are bit-identical to
an oracle that evaluates the same expression over the same exact
sums.

Scale: the exchange carries #groups × #blocks tiny rows (map-side
combined); nothing holds more than a batch. Overflow guard: the
final products are computed in float64 (n·Σx² can exceed int64 at
10^12 rows; the exact int sums themselves are the caller's contract
— int64 Σx² holds to ~3e18, i.e. values up to ~50k over 10^12
rows)."""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _i64(col: pa.ChunkedArray) -> pa.ChunkedArray:
    if pa.types.is_integer(col.type):
        return pc.cast(col, pa.int64())
    # integral-valued doubles (e.g. TPC-H quantity) cast exactly;
    # truly fractional inputs are the caller's responsibility
    return pc.cast(col, pa.int64())


def group_moments(ds: Any, group: str, col: str) -> Any:
    """Per-group n / sum / mean / sample-variance / stddev of an
    integer-valued column. One slim shuffle of exact int64 partial
    sums; mean/var/std derived as
        mean = sx / n
        var  = (n·sx2 − sx·sx) / (n·(n−1))      (double ops)
        std  = sqrt(var)
    with every operand cast to double FIRST, so a SQL oracle using
    the same expression over SUM()s reproduces the bits."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        x = _i64(batch.column(col))
        df = pa.table({group: batch.column(group), "__x": x}).to_pandas()
        xs = df["__x"].to_numpy(np.int64)
        df["__x2"] = xs * xs
        agg = (df.groupby(group, sort=False)
               .agg(n=("__x", "count"), sx=("__x", "sum"),
                    sx2=("__x2", "sum")).reset_index())
        return pa.table({
            group: pa.array(agg[group]),
            "n": pa.array(agg["n"], type=pa.int64()),
            "sx": pa.array(agg["sx"], type=pa.int64()),
            "sx2": pa.array(agg["sx2"], type=pa.int64()),
        })

    sums = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(group)
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sx", alias_name="sx"),
                       Sum("sx2", alias_name="sx2")))

    def finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy().astype(np.float64)
        sx = batch.column("sx").to_numpy().astype(np.float64)
        sx2 = batch.column("sx2").to_numpy().astype(np.float64)
        mean = sx / n
        with np.errstate(divide="ignore", invalid="ignore"):
            var = (n * sx2 - sx * sx) / (n * (n - 1.0))
        var = np.where(n > 1, var, np.nan)
        return pa.table({
            group: batch.column(group),
            "n": batch.column("n"),
            "sum_x": batch.column("sx"),
            "mean_x": pa.array(mean, type=pa.float64()),
            "var_x": pa.array(var, type=pa.float64()),
            "std_x": pa.array(np.sqrt(var), type=pa.float64()),
        })

    return sums.map_batches(finish, batch_format="pyarrow")


def group_corr(ds: Any, group: str, xcol: str, ycol: str) -> Any:
    """Per-group Pearson correlation of two integer-valued columns
    via exact int64 partial sums (n, Σx, Σy, Σxy, Σx², Σy²), final
        r = (n·sxy − sx·sy) / (sqrt(n·sx2 − sx²)·sqrt(n·sy2 − sy²))
    in fixed double order — SQL-replayable bit-for-bit."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        x = _i64(batch.column(xcol))
        y = _i64(batch.column(ycol))
        df = pa.table({group: batch.column(group),
                       "__x": x, "__y": y}).to_pandas()
        xs = df["__x"].to_numpy(np.int64)
        ys = df["__y"].to_numpy(np.int64)
        df["__xy"] = xs * ys
        df["__x2"] = xs * xs
        df["__y2"] = ys * ys
        g = df.groupby(group, sort=False)
        agg = g.agg(n=("__x", "count"), sx=("__x", "sum"),
                    sy=("__y", "sum"), sxy=("__xy", "sum"),
                    sx2=("__x2", "sum"), sy2=("__y2", "sum"))
        agg = agg.reset_index()
        cols = {group: pa.array(agg[group])}
        for c in ("n", "sx", "sy", "sxy", "sx2", "sy2"):
            cols[c] = pa.array(agg[c], type=pa.int64())
        return pa.table(cols)

    sums = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(group)
            .aggregate(*[Sum(c, alias_name=c)
                         for c in ("n", "sx", "sy", "sxy",
                                   "sx2", "sy2")]))

    def finish(batch: pa.Table) -> pa.Table:
        f = {c: batch.column(c).to_numpy().astype(np.float64)
             for c in ("n", "sx", "sy", "sxy", "sx2", "sy2")}
        n, sx, sy = f["n"], f["sx"], f["sy"]
        num = n * f["sxy"] - sx * sy
        with np.errstate(divide="ignore", invalid="ignore"):
            den = (np.sqrt(n * f["sx2"] - sx * sx)
                   * np.sqrt(n * f["sy2"] - sy * sy))
            r = num / den
        r = np.where((n > 1) & (den > 0), r, np.nan)
        return pa.table({
            group: batch.column(group),
            "n": batch.column("n"),
            "corr_xy": pa.array(r, type=pa.float64()),
        })

    return sums.map_batches(finish, batch_format="pyarrow")


def group_linreg(ds: Any, group: str, xcol: str, ycol: str) -> Any:
    """Per-group ordinary-least-squares fit y = slope·x + intercept
    with the coefficient of determination r², via the same exact
    int64 partial-sum exchange as group_corr:
        slope     = (n·sxy − sx·sy) / (n·sx2 − sx·sx)
        intercept = (sy − slope·sx) / n
        r2        = (n·sxy − sx·sy)² / ((n·sx2 − sx²)·(n·sy2 − sy²))
    every operand cast to double FIRST and combined in this fixed
    order, so a SQL oracle evaluating the identical expression over
    SUM()s reproduces the bits. Degenerate groups (n < 2 or zero x
    variance) yield NULL slope/intercept/r2.

    Scale: shuffle carries #groups × #blocks rows of 7 int64s —
    the regression itself never moves data."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        x = _i64(batch.column(xcol))
        y = _i64(batch.column(ycol))
        df = pa.table({group: batch.column(group),
                       "__x": x, "__y": y}).to_pandas()
        xs = df["__x"].to_numpy(np.int64)
        ys = df["__y"].to_numpy(np.int64)
        df["__xy"] = xs * ys
        df["__x2"] = xs * xs
        df["__y2"] = ys * ys
        g = df.groupby(group, sort=False)
        agg = g.agg(n=("__x", "count"), sx=("__x", "sum"),
                    sy=("__y", "sum"), sxy=("__xy", "sum"),
                    sx2=("__x2", "sum"), sy2=("__y2", "sum"))
        agg = agg.reset_index()
        cols = {group: pa.array(agg[group])}
        for c in ("n", "sx", "sy", "sxy", "sx2", "sy2"):
            cols[c] = pa.array(agg[c], type=pa.int64())
        return pa.table(cols)

    sums = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(group)
            .aggregate(*[Sum(c, alias_name=c)
                         for c in ("n", "sx", "sy", "sxy",
                                   "sx2", "sy2")]))

    def finish(batch: pa.Table) -> pa.Table:
        f = {c: batch.column(c).to_numpy().astype(np.float64)
             for c in ("n", "sx", "sy", "sxy", "sx2", "sy2")}
        n, sx, sy = f["n"], f["sx"], f["sy"]
        num = n * f["sxy"] - sx * sy
        dx = n * f["sx2"] - sx * sx
        dy = n * f["sy2"] - sy * sy
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = num / dx
            intercept = (sy - slope * sx) / n
            r2 = (num * num) / (dx * dy)
        ok = (n > 1) & (dx > 0)
        slope = np.where(ok, slope, np.nan)
        intercept = np.where(ok, intercept, np.nan)
        r2 = np.where(ok & (dy > 0), r2, np.nan)
        return pa.table({
            group: batch.column(group),
            "n": batch.column("n"),
            "slope": pa.array(slope, type=pa.float64()),
            "intercept": pa.array(intercept, type=pa.float64()),
            "r2": pa.array(r2, type=pa.float64()),
        })

    return sums.map_batches(finish, batch_format="pyarrow")


def histogram_fixed(ds: Any, col: str, lo: float, hi: float,
                    nbins: int) -> Any:
    """Fixed-width histogram over a numeric column: bin index
        floor((x − lo) · nbins / (hi − lo)) + 1
    clamped to [0, nbins+1] (0 = underflow, nbins+1 = overflow), so
    a SQL replay that writes the SAME double expression matches
    bit-for-bit on boundary values (width_bucket's internal op order
    is not guaranteed — we pin the formula instead). Map-side
    partial counts; the exchange is ≤ nbins+2 rows per block."""
    import numpy as np
    from ray.data.aggregate import Sum

    lo_f, hi_f, nb = float(lo), float(hi), int(nbins)

    def partial(batch: pa.Table) -> pa.Table:
        x = batch.column(col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        idx = np.floor((x - lo_f) * np.float64(nb)
                       / (hi_f - lo_f)) + 1.0
        idx = np.clip(idx, 0.0, np.float64(nb + 1)).astype(np.int64)
        b, c = np.unique(idx, return_counts=True)
        return pa.table({"bin": pa.array(b, type=pa.int64()),
                         "n": pa.array(c, type=pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("bin").aggregate(Sum("n", alias_name="n")))


def zscore_outliers(ds: Any, group: str, col: str,
                    threshold: float = 3.0) -> Any:
    """Rows whose |x − mean| > t·std within their group — the
    composition pattern: every row looks up its group in the
    per-group moment table (exact int64 sums, see group_moments)
    through ``joins.lookup``, which broadcasts it when it is small;
    the corpus itself never shuffles then. z is the same fixed
    double expression on both engines, so even boundary rows select
    identically."""
    from .joins import lookup
    t = float(threshold)

    def fold(batch: pa.Table, _, found: pa.Table) -> pa.Table:
        x = batch.column(col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        mus, sds = _f64(found, "mean_x"), _f64(found, "std_x")
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (x - mus) / sds
        keep = np.abs(z) > t
        out = batch.filter(pa.array(keep))
        return out.append_column(
            "z", pa.array(z[keep], type=pa.float64()))

    moments = group_moments(ds, group, col).select_columns(
        [group, "mean_x", "std_x"])
    return lookup(ds, moments, group, fold)


def _f64(found: pa.Table, name: str) -> np.ndarray:
    """A looked-up column as float64, NaN where the key was missing.
    A side without rows has no schema, so ``found`` may lack the
    column: every key is missing then."""
    if name not in found.column_names:
        return np.full(found.num_rows, np.nan)
    return pc.cast(found.column(name), pa.float64()) \
        .to_numpy(zero_copy_only=False)


def minmax_normalize(ds: Any, group: str, col: str,
                     out: str = "x_norm") -> Any:
    """Per-group min-max feature scaling (x − min)/(max − min) —
    every row looks up its group's exact min/max through
    ``joins.lookup`` (zscore_outliers' composition pattern); the
    division is one double op, so a SQL replay matches bit-for-bit.
    Constant groups (max == min) map to 0.0."""
    from ray.data.aggregate import Max, Min

    from .joins import lookup

    def fold(batch: pa.Table, _, found: pa.Table) -> pa.Table:
        x = batch.column(col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        lo, hi = _f64(found, "lo"), _f64(found, "hi")
        span = hi - lo
        with np.errstate(invalid="ignore", divide="ignore"):
            z = (x - lo) / span
        z = np.where(span > 0, z, 0.0)
        return batch.append_column(out, pa.array(z, type=pa.float64()))

    mm = ds.groupby(group).aggregate(
        Min(col, alias_name="lo"), Max(col, alias_name="hi"))
    return lookup(ds, mm, group, fold)


def winsorize(ds: Any, col: str, q_lo: float = 0.05,
              q_hi: float = 0.95, out: str | None = None) -> Any:
    """Clip a column to its [q_lo, q_hi] EXACT discrete quantiles
    (PERCENTILE_DISC rule — swishray.ops.aggregates
    discrete_quantiles), computed distributed first, then applied
    map-side. Clip bounds are data values, so outputs replay exactly
    against quantile_disc + LEAST/GREATEST in SQL."""
    from .aggregates import discrete_quantiles

    qt = discrete_quantiles(ds, col, [q_lo, q_hi])
    lo, hi = qt.column("value").to_pylist()
    out = out or f"{col}_w"

    def f(batch: pa.Table) -> pa.Table:
        x = batch.column(col)
        clipped = pc.min_element_wise(
            pc.max_element_wise(x, pa.scalar(lo, x.type)),
            pa.scalar(hi, x.type))
        return batch.append_column(out, clipped)

    return ds.map_batches(f, batch_format="pyarrow")


def quantile_sketch(ds: Any, col: str, qs, cap: int = 4096) -> Any:
    """ONE-PASS mergeable approximate quantiles: each block sorts its
    values (np.sort, vectorized) and emits min(n, cap) equally-spaced
    order statistics carrying weight n/len(sample); the finish pass
    takes the weighted quantile over the ~#blocks × cap sample. Rank
    error is bounded by n_block/cap per block (≤ total/cap overall
    when blocks are balanced) — the streaming complement of the
    EXACT multi-round continuous_quantiles for 100-TB single-scan
    use. Returns (q, value) rows."""
    qs = [float(q) for q in qs]

    def partial(batch: pa.Table) -> pa.Table:
        x = np.sort(batch.column(col).to_numpy(zero_copy_only=False)
                    .astype(np.float64))
        n = len(x)
        if n == 0:
            return pa.table({"v": pa.array([], type=pa.float64()),
                             "w": pa.array([], type=pa.float64())})
        k = min(n, cap)
        idx = ((np.arange(k) + 0.5) * n / k).astype(np.int64)
        return pa.table({
            "v": pa.array(x[idx], type=pa.float64()),
            "w": pa.array(np.full(k, n / k), type=pa.float64())})

    sample = ds.map_batches(partial, batch_format="pyarrow") \
        .repartition(1)

    def finish(batch: pa.Table) -> pa.Table:
        v = batch.column("v").to_numpy()
        w = batch.column("w").to_numpy()
        order = np.argsort(v, kind="mergesort")
        v, w = v[order], w[order]
        cw = np.cumsum(w)
        total = cw[-1] if len(cw) else 0.0
        vals = []
        for q in qs:
            if not len(v):
                vals.append(float("nan"))
                continue
            i = int(np.searchsorted(cw, q * total, side="left"))
            vals.append(v[min(i, len(v) - 1)])
        return pa.table({"q": pa.array(qs, type=pa.float64()),
                         "value": pa.array(vals, type=pa.float64())})

    return sample.map_batches(finish, batch_format="pyarrow")
