"""Stream-shaped operators over the events table.

Ray Data is a (streaming-)batch engine: a tumbling or hopping window
is a computed window-start column plus a groupby aggregate; a
per-key ordered window (sessions, SCD-2 runs) is one
:func:`~.joins.hash_exchange` whose kernel sorts its bucket and cuts
it into runs (:func:`~.joins.run_starts`)."""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def tumbling_counts(ds: Any, every: str = "hour") -> Any:
    """Tumbling-window aggregate: (event_type, window_start) ->
    count + sum(value). The floor is computed vectorized per batch
    BEFORE the shuffle, so the groupby moves pre-keyed rows."""
    from ray.data.aggregate import Count, Sum

    def add_window(batch: pa.Table) -> pa.Table:
        w = pc.floor_temporal(batch.column("ts"), unit=every)
        return batch.append_column("window_start", w)

    keyed = ds.map_batches(add_window, batch_format="pyarrow")
    return keyed.groupby(["event_type", "window_start"]).aggregate(
        Count(alias_name="n_events"),
        Sum("value", alias_name="sum_value"))


def _event_sessions(t: pa.Table, keys: list[str]) -> pa.Table:
    """Every event as a one-event session (``keys`` ride along)."""
    ts = t.column("ts")
    return pa.table({
        "session_start": ts, "session_end": ts,
        "n_events": pc.cast(pc.is_valid(t.column("event_id")), pa.int64()),
        "sum_value": pc.cast(pc.fill_null(t.column("value"), 0),
                             pa.float64()),
        **{k: t.column(k) for k in keys}})


def _merge_sessions(t: pa.Table, keys: list[str],
                    gap_seconds: float) -> pa.Table:
    """Merge a bucket's session rows in (keys, session_start) order:
    a row joins the session before it unless a key changes or it
    starts more than ``gap_seconds`` after that session's last row
    ends. Output: (session_start, session_end, n_events, sum_value,
    user_id)."""
    from .joins import run_starts
    t = t.sort_by([(k, "ascending") for k in keys + ["session_start"]])
    start = t.column("session_start").to_numpy()
    end = t.column("session_end").to_numpy()
    gap = np.zeros(len(start), dtype=bool)
    gap[1:] = start[1:] - end[:-1] > np.timedelta64(
        int(gap_seconds * 10**6), "us")
    starts = run_starts(t, keys, gap)

    def total(c: str):
        v = t.column(c).to_numpy()
        return np.add.reduceat(v, starts) if len(starts) else v

    first = pa.array(starts)
    last = pa.array(np.append(starts[1:], len(start)) - 1)
    return pa.table({
        "session_start": t.column("session_start").take(first),
        "session_end": t.column("session_end").take(last),
        "n_events": total("n_events"), "sum_value": total("sum_value"),
        "user_id": t.column("user_id").take(first)})


def sessionize(ds: Any, gap_seconds: int = 1800) -> Any:
    """Per-user sessionization: a new session starts where a user's
    next event comes more than ``gap_seconds`` after the previous
    one. One exchange on user_id; each bucket sorts by (user, ts) and
    cuts sessions on key changes and gaps. Partitioning assumption:
    one user's events fit in one task (:func:`sessionize_salted`
    splits pathological users)."""
    from .joins import hash_exchange

    def sessions(t: pa.Table) -> pa.Table:
        keys = ["user_id"]
        return _merge_sessions(_event_sessions(t, keys), keys, gap_seconds)

    return hash_exchange(ds, "user_id", sessions, batch_format="pyarrow")


def sessionize_salted(ds: Any, gap_seconds: int = 1800,
                      salt_unit: str = "day") -> Any:
    """Skew-proof sessionization: salt the key to (user, period) so a
    pathological user's events split across many buckets, sessionize
    within each salted key, then merge ONLY the boundary-adjacent
    session pieces in a second, session-level pass.

    Correctness: a session crossing a period boundary is split into
    pieces whose boundary gap equals the original inter-event gap, so
    "merge adjacent pieces when start_next - end_prev <= gap" restores
    exactly the unsalted sessions (t:test_sessionize_salted_equal).
    The second pass exchanges SESSIONS per user (not events): rows =
    sessions per user, orders of magnitude below event counts.
    """
    from .joins import hash_exchange
    keys = ["user_id", "__salt"]

    def add_salt(batch: pa.Table) -> pa.Table:
        salt = pc.floor_temporal(batch.column("ts"), unit=salt_unit)
        return batch.append_column("__salt", salt)

    def pieces(t: pa.Table) -> pa.Table:
        return _merge_sessions(_event_sessions(t, keys), keys, gap_seconds)

    salted = hash_exchange(ds.map_batches(add_salt, batch_format="pyarrow"),
                           keys, pieces, batch_format="pyarrow")
    return hash_exchange(
        salted, "user_id",
        lambda t: _merge_sessions(t, ["user_id"], gap_seconds),
        batch_format="pyarrow")


def funnel_counts(ds: Any, steps: list, user_col: str = "user_id",
                  event_col: str = "event_type",
                  order_col: str = "event_id") -> Any:
    """Funnel analysis: how many users performed steps[0..k] as an
    ordered (not necessarily adjacent) subsequence of their event
    stream, for every prefix k. The classic product-analytics op,
    built on the engine's own primitives: one collect_sorted per
    user (the inherent value shuffle), then a vectorized RE2
    subsequence probe per prefix — ``A,(.*,)?B`` over the
    comma-joined path — and one tiny Sum aggregate.

    Output: (step:int64 1-based, step_name, n_users)."""
    import re as _re

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from swishray.ops.aggregates import collect_sorted
    paths = collect_sorted(ds, group=user_col, col=event_col,
                           sep=",", order=order_col, out="__path")

    pats = []
    for k in range(1, len(steps) + 1):
        parts = [_re.escape(str(s)) for s in steps[:k]]
        # each step matches a whole comma-delimited token, any
        # number of tokens apart
        body = r"(,|^)" + r",(.*,)?".join(parts) + r"(,|$)"
        pats.append(body)

    def probe(batch: pa.Table) -> pa.Table:
        p = batch.column("__path")
        cols = {"step": pa.array(range(1, len(steps) + 1),
                                 pa.int64()),
                "step_name": pa.array([str(s) for s in steps],
                                      pa.string())}
        counts = []
        for pat in pats:
            m = pc.match_substring_regex(p, pat)
            counts.append(pc.sum(pc.cast(m, pa.int64())).as_py() or 0)
        cols["__n"] = pa.array(counts, pa.int64())
        return pa.table(cols)

    per_block = paths.map_batches(probe, batch_format="pyarrow")
    agg = per_block.groupby(["step", "step_name"]).aggregate(
        Sum("__n", alias_name="n_users"))
    return agg


def retention_cohorts(ds: Any, user_col: str = "user_id",
                      ts_col: str = "ts",
                      unit: str = "week") -> Any:
    """Cohort retention: users grouped by their FIRST-activity
    period; for each (cohort, period-offset) the count of distinct
    cohort members active in that period.

    Scale shape: everything slim — the event stream reduces map-side
    to distinct (user, period) pairs per batch, the first-period
    table is one Min groupby over those pairs, the cohort attach is
    a bucketed hash join of two (user, int) tables, and the final
    count rides a distinct (cohort, offset, user) exchange (the
    anchor_stats two-level pattern). Raw events never shuffle.

    Output: (cohort_start: timestamp, period_offset: int64,
    n_users: int64)."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Min

    from .joins import hash_join

    def periods(batch: pa.Table) -> pa.Table:
        w = pc.cast(pc.floor_temporal(batch.column(ts_col),
                                      unit=unit), pa.timestamp("us"))
        t = pa.table({user_col: batch.column(user_col),
                      "__p": pc.cast(w, pa.int64())})
        df = t.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    up = ds.map_batches(periods, batch_format="pyarrow")
    # map-side distinct above bounds this groupby's input to
    # (users x periods); Min gives each user's cohort
    first = up.groupby(user_col).aggregate(Min("__p", alias_name="__c"))

    j = hash_join(up, first, key=user_col, how="inner")

    def offsets(t: pa.Table) -> pa.Table:
        p = t.column("__p").to_numpy(zero_copy_only=False)
        c = t.column("__c_r").to_numpy(zero_copy_only=False)
        us = 1_000_000
        if unit == "week":
            span = 7 * 86400 * us
        elif unit == "day":
            span = 86400 * us
        else:
            raise ValueError("unit must be 'week' or 'day'")
        off = ((p - c) // span).astype(np.int64)
        return pa.table({
            "__c": pa.array(c),
            "__off": pa.array(off),
            user_col: t.column(user_col)})

    tagged = j.map_batches(offsets, batch_format="pyarrow")
    # two-level exact distinct (the anchor_stats pattern): the
    # map-side drop_duplicates in `periods` is per-BATCH only, so a
    # user active in one week across many batches still needs the
    # first groupby to collapse to one row per (cohort, offset, user)
    distinct = tagged.groupby(["__c", "__off", user_col]).aggregate(
        Count(alias_name="__dup"))
    agg = distinct.groupby(["__c", "__off"]).aggregate(
        Count(alias_name="n_users"))

    def shape(t: pa.Table) -> pa.Table:
        return pa.table({
            "cohort_start": pc.cast(t.column("__c"),
                                    pa.timestamp("us")),
            "period_offset": pc.cast(t.column("__off"), pa.int64()),
            "n_users": pc.cast(t.column("n_users"), pa.int64())})

    return agg.map_batches(shape, batch_format="pyarrow")


def hopping_counts(ds: Any, width_s: int, slide_s: int,
                   ts_col: str = "ts",
                   keys: tuple = ("event_type",)) -> Any:
    """Hopping (sliding) windows: every event lands in the
    ``width_s / slide_s`` windows covering it — the overlap variant
    of :func:`tumbling_counts` (width == slide degenerates to
    tumbling).  ``width_s`` must be a multiple of ``slide_s`` (the
    standard hop constraint; arbitrary overlaps need a range join).

    Scale shape: the k-fold window replication happens VECTORIZED
    map-side (np.repeat over the batch, k = width/slide is small —
    e.g. 2-12), so the groupby receives pre-keyed slim rows exactly
    like the tumbling path; the shuffle grows k-fold, which is the
    inherent cost of overlapping windows, not an implementation
    artifact."""
    import numpy as np
    from ray.data.aggregate import Count, Max, Min

    if width_s % slide_s != 0:
        raise ValueError("width_s must be a multiple of slide_s")
    k = width_s // slide_s
    slide_us = slide_s * 1_000_000

    def explode(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column(ts_col), pa.timestamp("us"))
        t_us = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
        last = (t_us // slide_us) * slide_us
        n = len(t_us)
        starts = (last[:, None]
                  - (np.arange(k, dtype=np.int64) * slide_us)).ravel()
        idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
        cols = {c: batch.column(c).take(idx)
                for c in (*keys, "value")}
        cols["window_start"] = pc.cast(
            pa.array(starts), pa.timestamp("us"))
        return pa.table(cols)

    keyed = ds.map_batches(explode, batch_format="pyarrow")
    return keyed.groupby([*keys, "window_start"]).aggregate(
        Count(alias_name="n_events"),
        Min("value", alias_name="min_value"),
        Max("value", alias_name="max_value"))


def transition_counts(ds: Any, key: str, order_by, col: str) -> Any:
    """First-order Markov transition census over per-key ordered
    event streams: count (state, next_state) for consecutive rows
    within each key — the behavioral-model companion of sessionize /
    funnel (which match ONE pattern; this emits the full matrix).

    Scale shape: the per-key ordering rides the analytic window
    machinery (slim columns only — callers should select just
    key/order/state); the census is then a map-side-combined
    (src, dst, partial) exchange, never raw transitions.  Output:
    (src, dst, n)."""
    from ray.data.aggregate import Sum

    from .analytic import analytic, lead

    w = analytic(ds, partition_by=key, order_by=order_by,
                 specs=[lead(col)])
    nxt = f"{col}_lead1"

    def census(batch) -> "pa.Table":
        import pandas as pd  # noqa: F401
        df = batch[[col, nxt]]
        df = df[df[nxt].notna()]
        agg = (df.groupby([col, nxt], sort=False).size()
               .reset_index(name="__n"))
        import pyarrow as pa
        return pa.table({
            "src": pa.array(agg[col], type=pa.large_string()),
            "dst": pa.array(agg[nxt], type=pa.large_string()),
            "__n": pa.array(agg["__n"], type=pa.int64())})

    return (w.map_batches(census, batch_format="pandas")
            .groupby(["src", "dst"])
            .aggregate(Sum("__n", alias_name="n")))


def scd2_intervals(ds: Any, key: str, ts_col: str, col: str) -> Any:
    """Slowly-changing-dimension type-2 build: collapse a per-key
    observation stream (e.g. repeated recrawls of a url) into
    VALIDITY INTERVALS — one row per run of consecutive equal values,
    with ``valid_from`` = first observation of the run and
    ``valid_to`` = the first observation of the NEXT run (null for
    the current value).  The interval form of snapshot_diff: diff
    answers "what changed between two snapshots", this materializes
    the full change history a time-travel join needs.

    Scale shape: one :func:`~.joins.hash_exchange` on ``key`` over
    the slim (key, ts, value) columns; each bucket sorts by (key, ts)
    and cuts value runs; output is one row per VALUE RUN, not per
    observation.  Ties on ``ts_col`` within a key must not occur
    (observation streams are unique per (key, ts) — the reference's
    crawl model).
    Output: (key, value, valid_from, valid_to, n_obs)."""
    from .joins import hash_exchange, run_starts

    def runs(t: pa.Table) -> pa.Table:
        t = t.sort_by([(key, "ascending"), (ts_col, "ascending")])
        starts = run_starts(t, [key, col])  # a value run within a key
        ends = np.append(starts[1:], t.num_rows)
        ts = t.column(ts_col)
        # valid_to = ts of the NEXT run's first row while that run is
        # the same key; null on a key's open (current) run
        nxt = np.minimum(ends, t.num_rows - 1)
        is_open = np.isin(ends, np.append(run_starts(t, [key]),
                                          t.num_rows))
        return pa.table({
            key: t.column(key).take(pa.array(starts)),
            col: t.column(col).take(pa.array(starts)),
            "valid_from": ts.take(pa.array(starts)),
            "valid_to": ts.take(pa.array(nxt, mask=is_open)),
            "n_obs": pa.array(ends - starts, pa.int64())})

    return hash_exchange(ds.select_columns([key, ts_col, col]), key, runs,
                         batch_format="pyarrow")


def sliding_distinct(ds: Any, key: str, ts_col: str, width_s: int,
                     slide_s: int) -> Any:
    """EXACT distinct-key count per hopping window (e.g. unique
    active users per rolling 24 h, sliding hourly) — the distinct
    companion of :func:`hopping_counts`, which can only count EVENTS
    (distinct does not decompose over overlapping windows by
    addition).

    Scale shape: batch-local (key, window) dedup first, then one
    global (key, window) dedup-groupby — the exchange carries one
    slim row per distinct pair, k-fold replicated like every hopping
    shuffle — then a map-side-combined per-window census.  A hot
    window costs its distinct-key set, never its event count.
    Output: (window_start, n_distinct)."""
    import numpy as np
    from ray.data.aggregate import Sum

    if width_s % slide_s != 0:
        raise ValueError("width_s must be a multiple of slide_s")
    k = width_s // slide_s
    slide_us = slide_s * 1_000_000

    def explode(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column(ts_col), pa.timestamp("us"))
        t_us = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
        keys = pc.cast(batch.column(key), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        last = (t_us // slide_us) * slide_us
        starts = (last[:, None]
                  - (np.arange(k, dtype=np.int64) * slide_us)).ravel()
        pairs = np.stack([np.repeat(keys, k), starts], axis=1)
        pairs = np.unique(pairs, axis=0)  # batch-local dedup
        return pa.table({
            key: pa.array(pairs[:, 0]),
            "window_start": pa.array(pairs[:, 1])})

    distinct = (ds.map_batches(explode, batch_format="pyarrow")
                .groupby([key, "window_start"]).count())

    def census(batch: pa.Table) -> pa.Table:
        ws = batch.column("window_start").to_numpy(
            zero_copy_only=False)
        u, c = np.unique(ws, return_counts=True)
        return pa.table({"window_start": pa.array(u),
                         "__n": pa.array(c.astype(np.int64))})

    out = (distinct.map_batches(census, batch_format="pyarrow")
           .groupby("window_start")
           .aggregate(Sum("__n", alias_name="n_distinct")))

    def shape(batch: pa.Table) -> pa.Table:
        return pa.table({
            "window_start": pc.cast(
                pc.cast(batch.column("window_start"), pa.int64()),
                pa.timestamp("us")),
            "n_distinct": pc.cast(batch.column("n_distinct"),
                                  pa.int64())})

    return out.map_batches(shape, batch_format="pyarrow")
