"""Analytic (SQL OVER-clause) window functions for Ray Data.

Ray Data has no ``PARTITION BY ... ORDER BY`` operator; this module
supplies the family the reference's result-sorting surface implies
(libswish3 sorts results by property and pages them —
``src/libswish3/`` result sort + the swish_xapian ``--limit``
paging) generalised to the analytic functions a training-data
pipeline actually reaches for: row_number / rank / dense_rank,
lag / lead, running (prefix) sums, rolling row-window sums, and
ntile bucketing.

Two execution shapes, both streaming-safe:

* :func:`analytic` — one :func:`~.joins.hash_exchange` on the
  partition key whose kernel sorts its bucket by (partition, order)
  and evaluates every partition at once from the partition runs.
  Partitioning assumption: one partition key's rows fit in one task
  (the same contract as ``sessionize``). This is the right default:
  analytic partitions (a user, a domain, a day) are orders of
  magnitude smaller than the corpus.
* :func:`running_sum_salted` — the skew-proof escape hatch for the
  one function whose math permits it (prefix sums are associative):
  salt the partition by an order-contiguous period, prefix-sum
  within each salt, then prefix-sum the *per-salt totals* (a table
  orders of magnitude smaller) and add the offsets back with a
  hash join. A pathological key never concentrates in one task.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# ---------------------------------------------------------------------------
# spec helpers — tiny dataclass-free dicts so specs stay picklable


def row_number(out: str = "rn") -> dict:
    return {"kind": "row_number", "out": out}


def rank(out: str = "rnk") -> dict:
    return {"kind": "rank", "out": out}


def dense_rank(out: str = "drnk") -> dict:
    return {"kind": "dense_rank", "out": out}


def lag(col: str, n: int = 1, out: str | None = None) -> dict:
    return {"kind": "lag", "col": col, "n": n, "out": out or f"{col}_lag{n}"}


def lead(col: str, n: int = 1, out: str | None = None) -> dict:
    return {"kind": "lead", "col": col, "n": n,
            "out": out or f"{col}_lead{n}"}


def running_sum(col: str, out: str | None = None) -> dict:
    return {"kind": "running_sum", "col": col,
            "out": out or f"{col}_rsum"}


def rolling_sum(col: str, window: int, out: str | None = None) -> dict:
    """Row-based window: current row + ``window - 1`` preceding
    (SQL ``ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW``)."""
    return {"kind": "rolling_sum", "col": col, "n": window,
            "out": out or f"{col}_roll{window}"}


def ntile(k: int, out: str = "tile") -> dict:
    return {"kind": "ntile", "n": k, "out": out}


def running_max(col: str, out: str | None = None) -> dict:
    return {"kind": "running_max", "col": col,
            "out": out or f"{col}_rmax"}


def range_sum(col: str, ts: str, seconds: float,
              out: str | None = None) -> dict:
    """Time-RANGE window frame (SQL ``RANGE BETWEEN INTERVAL s
    PRECEDING AND CURRENT ROW``): sum of ``col`` over rows whose
    ``ts`` lies in ``[cur - seconds, cur]`` — including the current
    row's ts-peers, per the SQL RANGE peer rule."""
    return {"kind": "range_sum", "col": col, "ts": ts,
            "n": float(seconds), "out": out or f"{col}_range"}


# ---------------------------------------------------------------------------


def ewma(col: str, alpha: float, out: str | None = None) -> dict:
    """Exponentially-weighted moving average (adjust=False
    recurrence: s_i = α·x_i + (1−α)·s_{i−1}, s_0 = x_0) — the
    standard smoothing signal. Sequential by definition, so there is
    no SQL-window replay; covered by pytest vs the closed form."""
    return {"kind": "ewma", "col": col, "alpha": float(alpha),
            "out": out or f"{col}_ewma"}


def percent_rank(out: str = "prnk") -> dict:
    """(rank − 1) / (n − 1) as IEEE double; 0.0 for a 1-row
    partition — the SQL PERCENT_RANK contract, bit-replayable."""
    return {"kind": "percent_rank", "out": out}


def cume_dist(out: str = "cdist") -> dict:
    """#rows ≤ the current row's last ORDER-BY peer, over n — the
    SQL CUME_DIST peer rule (ties share the group-end count)."""
    return {"kind": "cume_dist", "out": out}


def first_value(col: str, out: str | None = None) -> dict:
    return {"kind": "first_value", "col": col,
            "out": out or f"{col}_first"}


def last_value(col: str, out: str | None = None) -> dict:
    """Whole-partition last value (SQL LAST_VALUE with ROWS BETWEEN
    UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING — the useful frame,
    not the default running one)."""
    return {"kind": "last_value", "col": col,
            "out": out or f"{col}_last"}


def _order_key_frame(order_by: Sequence) -> tuple:
    """Normalise order_by into (cols, ascending) lists."""
    cols, asc = [], []
    for o in order_by:
        if isinstance(o, str):
            cols.append(o)
            asc.append(True)
        else:
            cols.append(o[0])
            asc.append(bool(o[1]))
    return cols, asc


def _apply_specs(t: pa.Table, parts: list, rank_cols: list,
                 specs: list) -> pa.Table:
    """Evaluate ``specs`` over a bucket sorted by (partition, order):
    every partition at once, from its run bounds — ``first`` (row of
    its partition's first row), ``size`` (rows in it) and ``pos``
    (0-based position in it). Sequential recurrences (cumsum, cummax,
    rolling, ewm) run as one pandas ``groupby(run)`` call."""
    from .joins import run_starts

    n = t.num_rows
    starts = run_starts(t, parts)
    lens = np.diff(np.append(starts, n))
    run = np.repeat(np.arange(len(starts)), lens)
    first = starts[run]
    size = lens[run]
    pos = np.arange(n, dtype=np.int64) - first
    # ties on the RANK key (rank_cols, default the order key) share a
    # peer group; rank0 = 0-based position of a row's first peer
    peers = run_starts(t, parts + rank_cols)
    peer = np.repeat(np.arange(len(peers)), np.diff(np.append(peers, n)))
    rank0 = peers[peer] - first

    def grouped(col: str):
        return t.column(col).to_pandas().groupby(run, sort=False)

    out = {}
    for s in specs:
        kind, name = s["kind"], s["out"]
        if kind == "row_number":
            out[name] = pa.array(pos + 1)
        elif kind == "rank":
            out[name] = pa.array(rank0 + 1)
        elif kind == "dense_rank":
            out[name] = pa.array(peer - peer[first] + 1)
        elif kind == "ewma":
            out[name] = pa.array(grouped(s["col"]).ewm(
                alpha=s["alpha"], adjust=False).mean().to_numpy(),
                from_pandas=True)
        elif kind == "percent_rank":
            out[name] = pa.array(np.where(
                size > 1, rank0 / np.maximum(size - 1, 1).astype(
                    np.float64), 0.0))
        elif kind == "cume_dist":
            end = np.append(peers[1:], n)[peer]  # past its last peer
            out[name] = pa.array((end - first).astype(np.float64)
                                 / size.astype(np.float64))
        elif kind == "first_value":
            out[name] = t.column(s["col"]).take(pa.array(first))
        elif kind == "last_value":
            out[name] = t.column(s["col"]).take(pa.array(first + size - 1))
        elif kind in ("lag", "lead"):
            src = np.arange(n) + (-s["n"] if kind == "lag" else s["n"])
            outside = (src < first) | (src >= first + size)
            out[name] = t.column(s["col"]).take(pa.array(
                np.clip(src, 0, max(n - 1, 0)), mask=outside))
        elif kind == "running_sum":
            out[name] = pa.array(grouped(s["col"]).cumsum(),
                                 from_pandas=True)
        elif kind == "running_max":
            out[name] = pa.array(grouped(s["col"]).cummax(),
                                 from_pandas=True)
        elif kind == "range_sum":
            # requires the sort to lead with the ts column; lay the
            # partitions end to end more than ``span`` apart so one
            # searchsorted serves them all
            ts = t.column(s["ts"])
            if pa.types.is_timestamp(ts.type):
                ts = pc.cast(ts, pa.timestamp("us"))
                span = int(round(s["n"] * 1_000_000))
            else:
                span = int(s["n"])
            tsi = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
            width = tsi[starts + lens - 1] - tsi[starts] + span + 1
            lane = tsi - tsi[first] + (np.cumsum(width) - width)[run]
            hi = np.searchsorted(lane, lane, "right")  # past ts-peers
            lo = np.searchsorted(lane, lane - span, "left")
            cum = grouped(s["col"]).cumsum().to_numpy()
            out[name] = pa.array(cum[hi - 1] - np.where(
                lo > first, cum[np.maximum(lo - 1, 0)], 0),
                from_pandas=True)
        elif kind == "rolling_sum":
            v = grouped(s["col"]).rolling(
                s["n"], min_periods=1).sum().to_numpy()
            c = t.column(s["col"])
            if pa.types.is_integer(c.type) and c.null_count == 0:
                v = v.astype(np.int64)  # integer sums stay integer
            out[name] = pa.array(v, from_pandas=True)
        elif kind == "ntile":
            # SQL NTILE(k): the first (size % k) tiles get one more row
            base, extra = np.divmod(size, s["n"])
            cut = extra * (base + 1)
            out[name] = pa.array(np.where(
                pos < cut, pos // (base + 1),
                extra + (pos - cut) // np.maximum(base, 1)) + 1)
        else:  # pragma: no cover
            raise ValueError(f"unknown analytic spec kind: {kind}")
    for name, col in out.items():
        i = t.schema.get_field_index(name)
        t = (t.set_column(i, name, col) if i >= 0
             else t.append_column(name, col))
    return t


def analytic(ds: Any, partition_by: str | list, order_by: Sequence,
             specs: list, rank_cols: list | None = None) -> Any:
    """Evaluate analytic window functions per partition.

    ``order_by``: list of column names or ``(col, ascending)`` pairs.
    ``specs``: list built from the helpers above. Output = input
    columns + one column per spec, rows unordered across partitions
    (order within a partition is not materialised — downstream sorts
    decide presentation order, as everywhere else in the engine).

    Ties in the order key get equal rank / dense_rank; row_number
    breaks them arbitrarily unless the order key is unique — pass a
    unique tie-breaker column for deterministic output (the SQL
    contract is identical).
    """
    from .joins import hash_exchange

    order_cols, asc = _order_key_frame(order_by)
    parts = [partition_by] if isinstance(partition_by, str) \
        else list(partition_by)
    sort = [(c, "ascending") for c in parts] + [
        (c, "ascending" if a else "descending")
        for c, a in zip(order_cols, asc)]

    def fn(t: pa.Table) -> pa.Table:
        return _apply_specs(t.sort_by(sort), parts,
                            rank_cols or order_cols, specs)

    return hash_exchange(ds, partition_by, fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# skew-proof rank


def rank_salted(ds: Any, partition_by: str, col: str,
                descending: bool = True,
                out: str = "rnk", dense_out: str | None = None) -> Any:
    """RANK (and optionally DENSE_RANK) per partition WITHOUT the
    one-partition-per-task assumption: rank = 1 + count of better
    values, which falls out of the (partition, value, count)
    histogram — the same skew-proof census shape as
    ``mode_per_group``/``discrete_quantiles_per_group``. A partition
    with a billion rows ships its distinct-value census through the
    rank computation, never its rows; the rows themselves ride one
    (partition, value)-keyed hash join to pick up their rank.

    ROW_NUMBER has no such form (it is order-dependent within ties);
    use :func:`analytic` with a unique tie-break for that.

    Key contract: the census and the join back key on the real
    (partition_by, col) columns, so any orderable types work. Rows
    whose ``col`` is null get no rank and are dropped (an inner join
    never matches a null key)."""
    from .aggregates import _value_counts
    from .joins import (_schema_or_materialize, hash_exchange, hash_join,
                        run_starts)

    # one schema probe that never pays an all-to-all lineage twice
    # (the joins.py _schema_or_materialize contract)
    ds, in_schema = _schema_or_materialize(ds)
    if in_schema is None:  # all-empty input: nothing to rank
        return ds

    def census(t: pa.Table) -> pa.Table:
        return _value_counts(t, partition_by, col, "__n")

    def ranks(t: pa.Table) -> pa.Table:
        # rank = 1 + rows with a better value in the partition: one
        # sort of the bucket's (partition, value, count) census
        t = census(t).sort_by([
            (partition_by, "ascending"),
            (col, "descending" if descending else "ascending")])
        starts = run_starts(t, [partition_by])
        first = np.repeat(starts, np.diff(np.append(starts, t.num_rows)))
        n = t.column("__n").to_numpy(zero_copy_only=False)
        before = np.cumsum(n) - n  # rows ahead in the whole bucket
        cols = {partition_by: t.column(partition_by), col: t.column(col),
                out: pa.array(before - before[first] + 1)}
        if dense_out:
            cols[dense_out] = pa.array(np.arange(t.num_rows) - first + 1)
        return pa.table(cols)

    rk = hash_exchange(ds.map_batches(census, batch_format="pyarrow"),
                       partition_by, ranks, batch_format="pyarrow")
    joined = hash_join(ds, rk, key=[partition_by, col], how="inner")
    names = [out] + ([dense_out] if dense_out else [])

    def finish(t: pa.Table) -> pa.Table:
        drop = set(names) | {f"{c}_r" for c in names}
        cols = {c: t.column(c) for c in t.column_names if c not in drop}
        cols.update({c: t.column(f"{c}_r") for c in names})
        return pa.table(cols)

    return joined.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# skew-proof prefix sum


def running_sum_salted(ds: Any, key: str, ts_col: str, val_col: str,
                       out: str = "rsum",
                       salt_unit: str = "day",
                       tiebreak: str | None = None) -> Any:
    """Prefix sum per ``key`` ordered by ``(ts_col, tiebreak)``,
    skew-proof: a key with a pathological row count never lands in
    one task.

    The salt is ``floor_temporal(ts, salt_unit)`` — order-contiguous,
    so the within-salt prefix sums are exact segments of the global
    one. Three :func:`~.joins.hash_exchange` passes, none per key:

    * offsets — map-side per-(key, salt) partial totals, exchanged on
      ``key`` (rows = salts per key, not events per key) and
      exclusive-prefix-summed per key;
    * pieces — the rows, exchanged on ``(key, salt)`` and
      prefix-summed within each salt;
    * a hash join of pieces and offsets on ``(key, salt)`` adds them.

    Result is identical to the unsalted ``analytic(...,
    running_sum(...))`` (t:test_running_sum_salted_equals_unsalted)."""
    from .joins import (_schema_or_materialize, hash_exchange, hash_join,
                        run_starts)

    # one schema probe that never pays an all-to-all lineage twice
    ds, in_schema = _schema_or_materialize(ds)
    if in_schema is None:  # all-empty input: nothing to sum
        return ds
    keys = [key, "__salt"]
    order = keys + [ts_col] + ([tiebreak] if tiebreak else [])

    def add_salt(batch: pa.Table) -> pa.Table:
        salt = pc.floor_temporal(batch.column(ts_col), unit=salt_unit)
        return batch.append_column("__salt", pc.cast(salt, pa.int64()))

    salted = ds.map_batches(add_salt, batch_format="pyarrow")

    def totals(t: pa.Table, col: str) -> pa.Table:
        agg = t.group_by(keys, use_threads=False).aggregate([(col, "sum")])
        return pa.table({key: agg.column(key), "__salt": agg.column("__salt"),
                         "__off": pc.fill_null(agg.column(f"{col}_sum"), 0)})

    def offsets(t: pa.Table) -> pa.Table:
        t = totals(t, "__off").sort_by([(c, "ascending") for c in keys])
        starts = run_starts(t, [key])
        first = np.repeat(starts, np.diff(np.append(starts, t.num_rows)))
        tot = t.column("__off").to_numpy(zero_copy_only=False)
        before = np.cumsum(tot) - tot  # sums ahead in the whole bucket
        return t.set_column(2, "__off", pa.array(before - before[first]))

    def within(t: pa.Table) -> pa.Table:
        t = t.sort_by([(c, "ascending") for c in order])
        starts = run_starts(t, keys)
        run = np.repeat(np.arange(len(starts)),
                        np.diff(np.append(starts, t.num_rows)))
        rsum = t.column(val_col).to_pandas().groupby(run).cumsum()
        return t.append_column(out, pa.array(rsum, from_pandas=True))

    off = hash_exchange(
        salted.map_batches(lambda t: totals(t, val_col),
                           batch_format="pyarrow"),
        key, offsets, batch_format="pyarrow")
    pieces = hash_exchange(salted, keys, within, batch_format="pyarrow")
    joined = hash_join(pieces, off, key=keys, how="inner")

    def finish(t: pa.Table) -> pa.Table:
        rsum = pc.add(t.column(out), pc.cast(t.column("__off_r"),
                                             t.column(out).type))
        t = t.set_column(t.schema.get_field_index(out), out, rsum)
        return t.drop_columns(["__salt", "__off_r"])

    return joined.map_batches(finish, batch_format="pyarrow")
