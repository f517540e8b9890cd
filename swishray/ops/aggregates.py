"""Aggregate-shaped operators beyond Ray's built-ins (§2.5 analogs
for a training-data pipeline): exact quantiles over discrete columns
and per-group top-k with a map-side combiner.

Scale notes are per function — both avoid full-row shuffles."""

from __future__ import annotations

from typing import Any, Sequence

import pyarrow as pa
import pyarrow.compute as pc


def discrete_quantiles(ds: Any, col: str, qs: Sequence[float]) -> Any:
    """EXACT quantiles via a value histogram: one slim shuffle of
    (value, partial_count) pairs — map-side combined, so the exchange
    carries at most #distinct x #blocks rows — then the quantile walk
    runs over the (tiny) histogram. Semantics match SQL's
    quantile_disc / PERCENTILE_DISC: the smallest value whose
    cumulative fraction reaches q — index ceil(q * n) - 1 of the
    sorted multiset (DuckDB-verified; the floor(q * (n-1)) rule
    coincides only on dense repeated values).

    Partitioning assumption: the DISTINCT value set is small (ids,
    grades, bucketed measures); for continuous doubles bucket first
    or use a sketch."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select([col]).to_pandas()
        vc = df[col].value_counts()
        return pa.table({col: pa.array(vc.index.to_list()),
                         "__n": pa.array(vc.to_list(), type=pa.int64())})

    hist = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby(col).aggregate(Sum("__n", alias_name="n"))
    rows = sorted(hist.take_all(), key=lambda r: r[col])
    total = sum(r["n"] for r in rows)
    import math
    from fractions import Fraction
    out_q, out_v = [], []
    for q in qs:
        # exact ceil(q * n) - 1 via rational arithmetic — float
        # truncation can be off by one (e.g. q=0.29, n=100 gives
        # 28.999...), breaking the EXACT quantile_disc contract
        target = (max(0, math.ceil(Fraction(str(q)) * total) - 1)
                  if total else 0)
        acc = 0
        val = rows[-1][col] if rows else None
        for r in rows:
            if acc + r["n"] > target:
                val = r[col]
                break
            acc += r["n"]
        out_q.append(float(q))
        out_v.append(val)
    return pa.table({"q": pa.array(out_q, type=pa.float64()),
                     "value": pa.array(out_v)})


def _value_counts(t: pa.Table, group: str, col: str, n: str) -> pa.Table:
    """(group, col, n) counts of the non-null ``col`` values — an
    Arrow hash aggregate, exact for strings with NUL bytes (pandas'
    string hashing stops at the first NUL and merges such values).
    Summing partial ``n`` columns when given one, counting rows
    otherwise."""
    t = t.filter(pc.is_valid(t.column(col)))
    agg, name = (((n, "sum"), f"{n}_sum") if n in t.column_names
                 else (([], "count_all"), "count_all"))
    out = t.group_by([group, col], use_threads=False).aggregate([agg])
    return pa.table({group: out.column(group), col: out.column(col),
                     n: out.column(name)})


def discrete_quantiles_per_group(ds: Any, group: str, col: str,
                                 qs: Sequence[float]) -> Any:
    """EXACT per-group quantiles (quantile_disc semantics, same
    contract as :func:`discrete_quantiles`): the shuffle carries the
    map-side-combined (group, value, count) histogram — never raw
    rows — and one :func:`~.joins.hash_exchange` on ``group`` walks
    every group of a bucket at once. Partitioning assumption: one
    GROUP'S distinct-value histogram fits in a task (the raw group
    row count is irrelevant)."""
    import numpy as np
    from fractions import Fraction

    from .joins import hash_exchange, run_starts

    qlist = [float(q) for q in qs]

    def walk(t: pa.Table) -> pa.Table:
        t = _value_counts(t, group, col, "__n").sort_by(
            [(group, "ascending"), (col, "ascending")])
        starts = run_starts(t, [group])
        n = t.column("__n").to_numpy(zero_copy_only=False)
        cum = np.cumsum(n)
        base = (cum - n)[starts]  # rows before each group
        total = cum[np.append(starts[1:], len(n)) - 1] - base
        # exact ceil(q * total) - 1 on q's decimal fraction (float
        # truncation can be off by one: q=0.29, n=100 gives 28.999...)
        idx = np.stack([np.searchsorted(cum, base + np.maximum(
            -(-f.numerator * total // f.denominator) - 1, 0), "right")
            for f in map(Fraction, map(str, qlist))], axis=1)
        return pa.table({
            group: t.column(group).take(
                pa.array(np.repeat(starts, len(qlist)))),
            "q": pa.array(np.tile(qlist, len(starts)), pa.float64()),
            "value": t.column(col).take(pa.array(idx.ravel()))})

    return hash_exchange(
        ds.map_batches(lambda t: _value_counts(t, group, col, "__n"),
                       batch_format="pyarrow"),
        group, walk, batch_format="pyarrow")


def continuous_quantiles(ds: Any, col: str, qs: Sequence[float],
                         bins: int = 512, collect_cap: int = 100_000,
                         max_rounds: int = 40) -> Any:
    """EXACT quantiles over a CONTINUOUS column — the scale path the
    discrete op's docstring defers to. Same PERCENTILE_DISC contract
    (value at index ceil(q·n)−1 of the sorted multiset), but no
    distinct-value-set assumption: each round is one streaming
    histogram pass that narrows every unresolved quantile's value
    range ~bins-fold, and a target is finished by collecting ONLY its
    final range (≤ collect_cap values) and indexing exactly. Driver
    state is O(bins × #quantiles) per round; the corpus never
    shuffles, rows never leave their tasks.

    Rounds needed: log_bins(n/collect_cap) — 2 passes cover 50M rows
    at the defaults, 3 cover 25 billion. A massive point mass (more
    than collect_cap copies of one value) pins lo == hi and resolves
    without collection."""
    import math
    from fractions import Fraction

    import numpy as np
    from ray.data.aggregate import Count, Max, Min

    row = ds.aggregate(Count(alias_name="n"),
                       Min(col, alias_name="lo"),
                       Max(col, alias_name="hi"))
    total, gmin, gmax = row["n"], row["lo"], row["hi"]
    if total == 0 or gmin is None:
        return pa.table({"q": pa.array([float(q) for q in qs],
                                       pa.float64()),
                         "value": pa.array([None] * len(qs),
                                           pa.float64())})

    # state per quantile: target global index, [lo, hi] value range
    # (inclusive), and how many corpus values sort strictly below lo
    st = []
    for q in qs:
        t = max(0, math.ceil(Fraction(str(q)) * total) - 1)
        st.append({"q": float(q), "t": t, "lo": float(gmin),
                   "hi": float(gmax), "below": 0, "val": None})

    def unresolved():
        return [s for s in st if s["val"] is None
                and not (s["lo"] == s["hi"])]

    rounds = 0
    while unresolved() and rounds < max_rounds:
        rounds += 1
        open_st = unresolved()
        edges = [np.linspace(s["lo"], s["hi"], bins + 1)
                 for s in open_st]

        def hist(batch: pa.Table, _edges=edges) -> pa.Table:
            v = batch.column(col).to_numpy(zero_copy_only=False)
            v = v[~np.isnan(v)]
            rows = []
            for i, e in enumerate(_edges):
                inr = v[(v >= e[0]) & (v <= e[-1])]
                # searchsorted-right puts a value equal to an edge in
                # the bin to its LEFT's right neighbour — clip the
                # top edge back into the last bin
                b = np.minimum(np.searchsorted(e, inr, "right") - 1,
                               len(e) - 2)
                cnt = np.bincount(b, minlength=len(e) - 1)
                rows.append({"i": i, "counts": cnt.tolist()})
            return pa.Table.from_pylist(rows) if rows else pa.table(
                {"i": pa.array([], pa.int64()),
                 "counts": pa.array([], pa.list_(pa.int64()))})

        parts = ds.map_batches(hist, batch_format="pyarrow").take_all()
        sums = {i: np.zeros(bins, dtype=np.int64)
                for i in range(len(open_st))}
        for r in parts:
            sums[r["i"]] += np.asarray(r["counts"], dtype=np.int64)

        for i, s in enumerate(open_st):
            e = edges[i]
            cnt = sums[i]
            cum = np.cumsum(cnt)
            # rank within [lo, hi] of the target
            r = s["t"] - s["below"]
            b = int(np.searchsorted(cum, r, "right"))
            s["below"] += int(cum[b - 1]) if b > 0 else 0
            new_lo, new_hi = float(e[b]), float(e[b + 1])
            in_bin = int(cnt[b])
            if in_bin <= 0:
                # numerical corner: located an empty bin — resolve
                # by collecting the whole current range instead
                s["val"] = "COLLECT"
                continue
            # zero-width bin: every value in it IS the edge — exact
            if new_lo == new_hi:
                s["lo"] = s["hi"] = new_lo
                continue
            # float precision exhausted (range no longer shrinks):
            # the unique-gather collect is exact and cheap there
            if new_hi == s["hi"] and new_lo == s["lo"]:
                s["val"] = "COLLECT"
                continue
            s["lo"], s["hi"] = new_lo, new_hi
            if in_bin <= collect_cap:
                s["val"] = "COLLECT"

    # final collection pass: only values inside each pending range
    pend = [s for s in st if s["val"] == "COLLECT"
            or (s["val"] is None and s["lo"] != s["hi"])]
    if pend:
        rngs = [(s["lo"], s["hi"]) for s in pend]

        # unique (value, count) per batch, not raw values: a point
        # mass of any size compresses to one entry, so driver bytes
        # are bounded by DISTINCT values in the final ranges
        def gather(batch: pa.Table, _r=rngs) -> pa.Table:
            v = batch.column(col).to_numpy(zero_copy_only=False)
            v = v[~np.isnan(v)]
            rows = []
            for i, (lo, hi) in enumerate(_r):
                u, c = np.unique(v[(v >= lo) & (v <= hi)],
                                 return_counts=True)
                rows.append({"i": i, "vals": u.tolist(),
                             "counts": c.tolist()})
            return pa.Table.from_pylist(rows)

        parts = ds.map_batches(gather, batch_format="pyarrow") \
            .take_all()
        buf: dict = {i: {} for i in range(len(pend))}
        for r in parts:
            d = buf[r["i"]]
            for v, c in zip(r["vals"], r["counts"]):
                d[v] = d.get(v, 0) + c
        for i, s in enumerate(pend):
            vals = sorted(buf[i].items())
            r = s["t"] - s["below"]
            acc = 0
            for v, c in vals:
                if acc + c > r:
                    s["val"] = float(v)
                    break
                acc += c

    for s in st:
        if s["val"] is None or s["val"] == "COLLECT":
            s["val"] = s["lo"]

    return pa.table({
        "q": pa.array([s["q"] for s in st], pa.float64()),
        "value": pa.array([float(s["val"]) for s in st],
                          pa.float64())})


def collect_sorted(ds: Any, group: str, col: str, sep: str = ",",
                   order: str | None = None,
                   out: str = "items",
                   max_group_bytes: int = 256 * 1024 * 1024) -> Any:
    """SQL ``string_agg(col, sep ORDER BY order, col)`` per group —
    Ray Data has no collect/list aggregate; this is the explicit one
    (clickstream paths, per-host url rosters). Null values are
    skipped, as in SQL. Moving every value to its group is inherent
    to collection; the exchange carries only (group, order, col), and
    each bucket joins all of its groups in one Arrow list join.
    Partitioning assumption: one group's values fit in a task (same
    contract as sessionize) — GUARDED: a group whose collected string
    would exceed ``max_group_bytes`` raises a clear error instead of
    silently OOM-ing the task (mirror of semdedup's max_cluster
    guard). For unbounded hot groups, shard the key upstream (e.g.
    salt by time bucket, the windows.sessionize_salted pattern) or
    raise the cap knowingly."""
    import numpy as np

    from .joins import hash_exchange, run_starts

    cols = [group, col] + ([order] if order and order != col else [])
    by = [group] + ([order] if order else []) + [col]

    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t.column(col))) \
            .sort_by([(c, "ascending") for c in by])
        starts = run_starts(t, [group])
        ends = np.append(starts[1:], t.num_rows)
        vals = pc.cast(t.column(col), pa.large_string()).combine_chunks()
        size = pc.utf8_length(vals).to_numpy(zero_copy_only=False) \
            + len(sep)
        approx = np.add.reduceat(size, starts) if len(starts) else size
        if (approx > max_group_bytes).any():
            i = int(np.argmax(approx > max_group_bytes))
            hot = t.column(group)[int(starts[i])].as_py()
            raise ValueError(
                f"collect_sorted: group {hot!r} "
                f"would collect ~{approx[i]} bytes (> max_group_bytes="
                f"{max_group_bytes}); salt the group key upstream "
                "(sessionize_salted pattern) or raise the cap")
        lists = pa.LargeListArray.from_arrays(
            pa.array(np.append(starts, t.num_rows), pa.int64()), vals)
        return pa.table({
            group: t.column(group).take(pa.array(starts)),
            out: pc.binary_join(lists, pa.scalar(sep, pa.large_string())),
            "n_items": pa.array(ends - starts, pa.int64())})

    return hash_exchange(ds.select_columns(cols), group, fn,
                         batch_format="pyarrow")


def mode_per_group(ds: Any, group: str, col: str) -> Any:
    """Exact per-group mode with a deterministic tie rule (highest
    count, then smallest value). Skew-safe: the shuffle carries the
    map-side-combined (group, value, count) histogram, never raw
    rows — a hot group's row count is irrelevant, only its distinct-
    value count."""
    from .joins import first_of_runs, hash_exchange

    def pick(t: pa.Table) -> pa.Table:
        top = first_of_runs(_value_counts(t, group, col, "n"), [group],
                            [("n", "descending"), (col, "ascending")])
        return pa.table({group: top.column(group),
                         "mode": top.column(col),
                         "mode_n": top.column("n")})

    return hash_exchange(
        ds.map_batches(lambda t: _value_counts(t, group, col, "n"),
                       batch_format="pyarrow"),
        group, pick, batch_format="pyarrow")


def topk_per_group(ds: Any, group: str, order: str, k: int = 3,
                   tiebreak: str | None = None,
                   descending: bool = True) -> Any:
    """Per-group top-k (the ROW_NUMBER() <= k window shape) with a
    map-side combiner: each batch keeps only its own per-group top-k
    BEFORE the shuffle, so the exchange carries <= k x #groups x
    #blocks rows and a hot group cannot concentrate its full row set
    in one reduce task."""
    import numpy as np

    from .joins import hash_exchange, run_starts

    sort = ([(group, "ascending"),
             (order, "descending" if descending else "ascending")]
            + ([(tiebreak, "ascending")] if tiebreak else []))

    def top(t: pa.Table) -> pa.Table:
        t = t.sort_by(sort)
        starts = run_starts(t, [group])
        first = np.repeat(starts, np.diff(np.append(starts, t.num_rows)))
        return t.filter(pa.array(np.arange(t.num_rows) - first < k))

    return hash_exchange(ds.map_batches(top, batch_format="pyarrow"),
                         group, top, batch_format="pyarrow")


def hash_sample(ds: Any, rate: float, key: str = "doc_id",
                invert: bool = False) -> Any:
    """Deterministic hash sampling / stable train-val splitting: keep
    rows whose md5(key)-derived uniform value falls below ``rate``
    (``invert=True`` gives the complementary split). Pure map-side —
    no shuffle, no RNG state, reproducible across runs and engines
    (the same predicate is expressible in SQL for the oracle).

    The uniform value is the first 8 hex digits of md5(str(key)) as a
    32-bit integer / 2^32 — independent of row order and partitioning,
    so a sampled pipeline can resume or re-run with identical
    membership (the property a seeded random_sample lacks). The digest
    runs numpy-vectorized across the batch (ops.md5vec), hashlib-exact."""
    import numpy as np
    from .md5vec import md5_u32

    threshold = int(rate * (1 << 32))  # may be 2^32 at rate=1.0

    def f(batch: pa.Table) -> pa.Table:
        h = md5_u32(batch.column(key).to_pylist()).astype(np.int64)
        keep = (h < threshold) != invert
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow")


def _bit_length_u64(x):
    """Vectorized bit_length for uint64 (6 shift/or steps — float
    log2 loses exactness above 2^53)."""
    import numpy as np
    x = x.astype(np.uint64)
    n = np.zeros(x.shape, dtype=np.int64)
    cur = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = cur >= (np.uint64(1) << np.uint64(shift))
        n[big] += shift
        cur[big] >>= np.uint64(shift)
    n[x > 0] += 1
    return n


def hll_registers(values, p: int = 12):
    """One batch's HyperLogLog register array (2^p uint8 registers)
    from an Arrow column: vectorized splitmix hash, top-p bits pick
    the register, bit-length of the remainder gives the rank
    (Flajolet et al. 2007, public algorithm)."""
    import numpy as np

    from .joins import _key_hash64
    m = 1 << p
    h = _key_hash64(values).astype(np.uint64)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rem = (h << np.uint64(p)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    # rank = leading zeros in the (64-p)-bit remainder + 1
    rank = (64 - _bit_length_u64(rem) + 1).clip(max=64 - p + 1)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rank.astype(np.uint8))
    return regs


def hll_estimate(regs) -> float:
    """Standard HLL estimator with linear-counting small-range
    correction."""
    import numpy as np
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * m and zeros:
        return float(m * np.log(m / zeros))
    return float(est)


def hll_count_distinct(ds: Any, col: str, p: int = 12) -> dict:
    """Approximate COUNT(DISTINCT col) via HyperLogLog — the sketch
    shape for 100-TB cardinalities where exact distinct means an
    all-to-all shuffle. Map side: one register array per BLOCK (4 KB
    at p=12); driver side: elementwise max over those tiny arrays —
    driver traffic is O(blocks * 2^p) bytes, independent of row count.
    Deterministic (fixed hash family). Standard error ~1.04/sqrt(2^p)
    (~1.6% at p=12)."""
    import numpy as np

    def regs_row(batch: pa.Table) -> pa.Table:
        r = hll_registers(batch.column(col).combine_chunks(), p)
        return pa.table({"regs": pa.array([r.tobytes()], pa.binary())})

    rows = ds.map_batches(regs_row, batch_format="pyarrow").take_all()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for row in rows:
        merged = np.maximum(merged,
                            np.frombuffer(row["regs"], dtype=np.uint8))
    return {"estimate": hll_estimate(merged), "p": p,
            "n_blocks": len(rows)}


def stratified_hash_sample(ds: Any, rates: "dict[str, float]",
                           class_col: str, key: str = "doc_id",
                           default_rate: float = 0.0) -> Any:
    """Per-class deterministic sampling (quality/language-quota
    curricula): each row keeps iff md5(key) < its CLASS's rate — the
    same order/partition-independent membership contract as
    :func:`hash_sample`, with the threshold looked up per row from
    ``rates``. Pure map-side, SQL-expressible for the oracle."""
    import numpy as np
    from .md5vec import md5_u32

    thresholds = {c: int(r * (1 << 32)) for c, r in rates.items()}
    dflt = int(default_rate * (1 << 32))

    def f(batch: pa.Table) -> pa.Table:
        h = md5_u32(batch.column(key).to_pylist()).astype(np.int64)
        cls = batch.column(class_col).to_pylist()
        th = np.fromiter((thresholds.get(c, dflt) for c in cls),
                         dtype=np.int64, count=len(cls))
        return batch.filter(pa.array(h < th))

    return ds.map_batches(f, batch_format="pyarrow")


def _vocab_counts(ds: Any, col: str, min_count: int,
                  max_size: int | None) -> Any:
    """Dataset ``(token, n)`` of the whitespace tokens of ``col``
    seen at least ``min_count`` times, the ``max_size`` most frequent
    (count desc, token asc) when given: map-side partial counts, so
    the shuffle moves (token, partial) rows, never text."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        import numpy as np
        txt = pc.coalesce(batch.column(col), "")
        words = pc.split_pattern_regex(txt, " +")
        flat = pc.list_flatten(words).to_pandas()
        vc = flat[flat != ""].value_counts()
        return pa.table({
            "token": pa.array(vc.index, pa.string()),
            "__n": pa.array(vc.to_numpy(dtype=np.int64))})

    def cut(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch.column("n"), min_count))

    counts = ds.map_batches(partial, batch_format="pyarrow") \
        .groupby("token").aggregate(Sum("__n", alias_name="n")) \
        .map_batches(cut, batch_format="pyarrow")
    if max_size is not None:
        counts = counts.sort(["n", "token"],
                             descending=[True, False]).limit(max_size)
    return counts


def build_vocab(ds: Any, col: str = "text", min_count: int = 2,
                max_size: int | None = None) -> pa.Table:
    """Frequency vocabulary with stable ids (tokenizer-training prep):
    whitespace tokens, corpus-wide counts (:func:`_vocab_counts`),
    min-count cut, deterministic id = rank by (count desc, token asc).
    Returns an in-memory table: the caller asks for the vocabulary on
    the driver, and ``min_count``/``max_size`` are what bound it."""
    rows = _vocab_counts(ds, col, min_count, max_size).take_all()
    tbl = pa.table({
        "token": pa.array([r["token"] for r in rows], pa.string()),
        "n": pa.array([r["n"] for r in rows], pa.int64())}) \
        .sort_by([("n", "descending"), ("token", "ascending")])
    return tbl.append_column(
        "id", pa.array(range(tbl.num_rows), pa.int64()))


def resample_to_mix(ds: Any, weights: "dict[str, int]",
                    class_col: str = "lang",
                    key: str = "doc_id") -> Any:
    """Deterministic down-sampling to a TARGET CLASS MIX — the
    data-mixing step of training-corpus assembly (e.g. rebalance
    languages to en:es:de = 4:2:1): keeps the largest subset whose
    class proportions match ``weights``, selecting members with the
    same order/partition-independent md5 predicate as
    :func:`hash_sample`.  Classes absent from ``weights`` are
    dropped.

    All arithmetic is INTEGER-EXACT so membership is reproducible
    bit-for-bit across engines (the SQL oracle floors the same
    integer ratios): with ``n_c`` the class counts, the binding class
    ``d* = argmin n_c / w_c`` (exact Fraction compare, class-name
    tie-break) is kept whole and every class c keeps
    ``floor(2^32 * w_c * n_d* / (w_d* * n_c))`` of its hash space.

    Scale shape: one slim (class, count) groupby — the per-class
    count table is bounded by the label universe, so the driver-side
    argmin is legitimate at any corpus scale; selection itself is
    pure map-side."""
    from fractions import Fraction

    import numpy as np
    from ray.data.aggregate import Count

    from .md5vec import md5_u32

    rows = ds.groupby(class_col).aggregate(
        Count(alias_name="n")).take_all()
    counts = {r[class_col]: int(r["n"]) for r in rows
              if r[class_col] in weights and int(r["n"]) > 0}

    if counts:
        dstar = min(counts,
                    key=lambda c: (Fraction(counts[c], weights[c]), c))
        nd, wd = counts[dstar], weights[dstar]
        thresholds = {
            c: ((1 << 32) * weights[c] * nd) // (wd * counts[c])
            for c in counts}
    else:
        thresholds = {}

    def f(batch: pa.Table) -> pa.Table:
        h = md5_u32(batch.column(key).to_pylist()).astype(np.int64)
        cls = batch.column(class_col).to_pylist()
        th = np.fromiter((thresholds.get(c, 0) for c in cls),
                         dtype=np.int64, count=len(cls))
        return batch.filter(pa.array(h < th))

    return ds.map_batches(f, batch_format="pyarrow")


def weighted_hash_sample(ds: Any, rate_col: str,
                         key: str = "doc_id") -> Any:
    """Per-ROW deterministic sampling: keep each row iff
    md5(key) < its own rate (a float column in [0,1]) — importance /
    quality-weighted corpus thinning where a hard threshold is too
    blunt (keep high-quality docs surely, low-quality ones with
    probability proportional to score).  Same order/partition-
    independent membership contract as :func:`hash_sample`; pure
    map-side; SQL-expressible for the oracle.

    The comparison is ``h < floor(rate * 2^32)`` with the floor taken
    in float64→int64 — DuckDB's CAST(... AS BIGINT) of the same
    product rounds, so the oracle uses FLOOR() explicitly; rates of
    exactly 1.0 keep everything."""
    import numpy as np

    from .md5vec import md5_u32

    def f(batch: pa.Table) -> pa.Table:
        h = md5_u32(batch.column(key).to_pylist()).astype(np.int64)
        r = np.asarray(batch.column(rate_col).to_numpy(
            zero_copy_only=False), dtype=np.float64)
        thr = np.floor(np.nan_to_num(r, nan=0.0)
                       * float(1 << 32)).astype(np.int64)
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(f, batch_format="pyarrow")


def cm_sketch(values, width: int = 16384, depth: int = 4):
    """One batch's Count-Min sketch (Cormode & Muthukrishnan 2005)
    for an Arrow string column: ``depth`` rows of ``width`` int64
    counters; row j uses an independent salt of the vectorized
    splitmix hash.  Mergeable by elementwise +."""
    import numpy as np

    from .joins import _key_hash64

    h = _key_hash64(values).astype(np.uint64)
    sk = np.zeros((depth, width), dtype=np.int64)
    for j in range(depth):
        salt = (0x9E3779B97F4A7C15 * (j + 1)) & 0xFFFFFFFFFFFFFFFF
        salted = (h ^ np.uint64(salt)) * np.uint64(0xBF58476D1CE4E5B9)
        idx = (salted % np.uint64(width)).astype(np.int64)
        np.add.at(sk[j], idx, 1)
    return sk


def cm_estimate(sk, values) -> "np.ndarray":
    """Point-query the merged sketch: min over rows (upper-bounds the
    true count; error <= e/width * total with prob 1-e^-depth)."""
    import numpy as np

    from .joins import _key_hash64

    depth, width = sk.shape
    h = _key_hash64(values).astype(np.uint64)
    est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
    for j in range(depth):
        salt = (0x9E3779B97F4A7C15 * (j + 1)) & 0xFFFFFFFFFFFFFFFF
        salted = (h ^ np.uint64(salt)) * np.uint64(0xBF58476D1CE4E5B9)
        idx = (salted % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, sk[j][idx])
    return est


def cm_topk_words(ds: Any, k: int = 20, col: str = "text",
                  width: int = 16384, depth: int = 4,
                  candidates_per_block: int = 256) -> pa.Table:
    """Approximate heavy hitters with FIXED-SIZE driver state — the
    sketch-shaped alternative to the exact ``top_n_words`` shuffle:
    each block ships one Count-Min sketch (depth×width int64, ~512 KB
    at defaults) plus its local top candidates; the driver sums the
    sketches, point-queries the candidate union, and returns the top
    ``k`` by estimated count (count desc, token asc — deterministic).

    Driver traffic is O(blocks × sketch + blocks × candidates) bytes,
    independent of vocabulary size — at 100 TB the exact (token,
    count) shuffle moves the whole vocabulary, this moves nothing per
    row.  CM never undercounts, so any true top-k member appearing in
    some block's local top-``candidates_per_block`` survives; the
    accuracy bound is pytest-checked against the exact path."""
    import numpy as np
    import pyarrow.compute as pc

    def block_sketch(batch: pa.Table) -> pa.Table:
        import pandas as pd
        txt = pc.coalesce(pc.cast(batch.column(col),
                                  pa.large_string()), "")
        words = pc.split_pattern_regex(txt, " +")
        flat = pc.list_flatten(words)
        flat = flat.filter(pc.not_equal(flat, ""))
        sk = cm_sketch(flat, width, depth)
        vc = pd.Series(flat.to_pandas()).value_counts()
        cand = list(vc.index[:candidates_per_block])
        return pa.table({
            "sketch": pa.array([sk.tobytes()], pa.binary()),
            "cands": pa.array([cand], pa.list_(pa.string()))})

    rows = ds.map_batches(block_sketch,
                          batch_format="pyarrow").take_all()
    merged = np.zeros((depth, width), dtype=np.int64)
    cands: set = set()
    for r in rows:
        merged += np.frombuffer(r["sketch"], dtype=np.int64) \
            .reshape(depth, width)
        cands.update(r["cands"])
    if not cands:
        return pa.table({"token": pa.array([], pa.string()),
                         "est_count": pa.array([], pa.int64())})
    cand_arr = pa.array(sorted(cands), pa.string())
    est = cm_estimate(merged, cand_arr)
    order = np.lexsort((np.array(cand_arr.to_pylist(), dtype=object),
                        -est))[:k]
    return pa.table({
        "token": cand_arr.take(pa.array(order)),
        "est_count": pa.array(est[order])})


def fixed_size_sample(ds: Any, n: int, key: str = "doc_id") -> Any:
    """EXACTLY-``n`` deterministic sample: the ``n`` rows with the
    smallest ``(md5(key), key)`` — rate-based :func:`hash_sample`
    gives a binomially-sized result; this gives a fixed budget
    ("pick 10k eval docs") with the same order/partition-independent,
    engine-reproducible membership (SQL: ``ORDER BY hash, key LIMIT
    n``).

    Scale shape: each block first prunes LOCALLY to its ``n``
    smallest (any row outside a block's local top-n cannot be in the
    global top-n), so the final sort+limit sees at most blocks×n
    rows, not the corpus."""
    import numpy as np

    from .md5vec import md5_u32

    def prune(batch: pa.Table) -> pa.Table:
        h = md5_u32(batch.column(key).to_pylist()).astype(np.int64)
        keys = batch.column(key).to_pylist()
        order = np.lexsort((np.asarray(keys, dtype=object), h))[:n]
        order_arr = pa.array(np.sort(order))  # keep row order stable
        out = batch.take(order_arr)
        return out.append_column("__h", pa.array(h[np.sort(order)]))

    pruned = ds.map_batches(prune, batch_format="pyarrow")
    out = pruned.sort(["__h", key]).limit(n)
    return out.drop_columns(["__h"])


def profile(ds: Any, columns: "list[str] | None" = None,
            hll_p: int = 12) -> pa.Table:
    """Column profiler — the data-engineering health check run before
    committing a 100-TB pipeline to an input: per column ``(column,
    n_rows, n_null, min, max, n_distinct_est)``.  Exact stats come
    from ONE distributed ``ds.aggregate`` pass (Count/Min/Max per
    column); distinct counts are HyperLogLog (p=``hll_p``, ~1.6%
    error) merged from one register row per block — driver traffic
    O(blocks × columns × 2^p) bytes, never row-shaped.  ``min`` /
    ``max`` are stringified for a uniform output schema.
    Returns an in-memory table (one row per column — bounded by the
    schema, not the data)."""
    import numpy as np
    from ray.data.aggregate import Count, Max, Min

    cols = columns or ds.schema().names
    aggs = [Count(alias_name="__rows")]
    for c in cols:
        aggs += [Count(c, ignore_nulls=True, alias_name=f"__nn_{c}"),
                 Min(c, alias_name=f"__min_{c}"),
                 Max(c, alias_name=f"__max_{c}")]
    row = ds.aggregate(*aggs) or {}
    n_rows = int(row.get("__rows") or 0)

    def block_regs(batch: pa.Table) -> pa.Table:
        out_c, out_r = [], []
        for c in cols:
            vals = batch.column(c).combine_chunks().drop_null()
            r = hll_registers(vals, hll_p) if len(vals) \
                else np.zeros(1 << hll_p, dtype=np.uint8)
            out_c.append(c)
            out_r.append(r.tobytes())
        return pa.table({"c": pa.array(out_c, pa.string()),
                         "r": pa.array(out_r, pa.binary())})

    merged = {c: np.zeros(1 << hll_p, dtype=np.uint8) for c in cols}
    for r in ds.map_batches(block_regs,
                            batch_format="pyarrow").take_all():
        merged[r["c"]] = np.maximum(
            merged[r["c"]], np.frombuffer(r["r"], dtype=np.uint8))

    def s(v):
        return None if v is None else str(v)

    return pa.table({
        "column": pa.array(cols, pa.string()),
        "n_rows": pa.array([n_rows] * len(cols), pa.int64()),
        "n_null": pa.array(
            [n_rows - int(row.get(f"__nn_{c}") or 0) for c in cols],
            pa.int64()),
        "min": pa.array([s(row.get(f"__min_{c}")) for c in cols],
                        pa.string()),
        "max": pa.array([s(row.get(f"__max_{c}")) for c in cols],
                        pa.string()),
        "n_distinct_est": pa.array(
            [int(round(hll_estimate(merged[c]))) if n_rows else 0
             for c in cols], pa.int64()),
    })


_ROLLUP_NULL = "\x02\x02rollup-null"


def grouping_sets(ds: Any, sets: "list[list[str]]", keys: "list[str]",
                  val_col: str) -> Any:
    """GROUP BY GROUPING SETS over string keys with an exact int64
    measure: count + sum per set, every set computed in the SAME
    single pass. The map-side partial pre-aggregates each batch at
    every requested set (so the exchange carries #blocks × Σ set
    cardinalities slim rows, never raw rows), rolled-up key slots
    ride the shuffle as a sentinel string (Ray groupby keys must be
    non-null), and the finish pass restores NULL. `grouping_id`
    follows the SQL convention: bit i set (from the RIGHT end of
    `keys`) when keys[i] is rolled up in that row's set.

    Scale: identical to a plain pre-aggregated groupby — the only
    all-to-all is the tiny (keys..., grouping_id) exchange."""
    import pandas as pd
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    sets = [list(s) for s in sets]
    for s in sets:
        if any(k not in keys for k in s):
            raise ValueError(f"grouping set {s} not within {keys}")

    def gid(s: "list[str]") -> int:
        g = 0
        for i, k in enumerate(keys):
            if k not in s:
                g |= 1 << (len(keys) - 1 - i)
        return g

    def partial(batch: pa.Table) -> pa.Table:
        cols = {k: batch.column(k) for k in keys}
        cols["__v"] = pc.cast(batch.column(val_col), pa.int64())
        df = pa.table(cols).to_pandas()
        outs = []
        for s in sets:
            if s:
                agg = (df.groupby(s, sort=False)["__v"]
                       .agg(n="count", sv="sum").reset_index())
            else:
                agg = pd.DataFrame({
                    "n": [len(df)], "sv": [int(df["__v"].sum())]})
            for k in keys:
                if k not in s:
                    agg[k] = _ROLLUP_NULL
            agg["grouping_id"] = gid(s)
            outs.append(agg[keys + ["grouping_id", "n", "sv"]])
        allr = pd.concat(outs, ignore_index=True)
        out = {k: pa.array(allr[k], pa.string()) for k in keys}
        out["grouping_id"] = pa.array(allr["grouping_id"], pa.int64())
        out["n"] = pa.array(allr["n"], pa.int64())
        out["sv"] = pa.array(allr["sv"], pa.int64())
        return pa.table(out)

    sums = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(keys + ["grouping_id"])
            .aggregate(Sum("n", alias_name="n"),
                       Sum("sv", alias_name="sum_v")))

    def finish(batch: pa.Table) -> pa.Table:
        cols = {}
        for k in keys:
            c = batch.column(k)
            mask = pc.equal(c, _ROLLUP_NULL)
            cols[k] = pc.if_else(mask, pa.scalar(None, pa.string()), c)
        for c in ("grouping_id", "n", "sum_v"):
            cols[c] = batch.column(c)
        return pa.table(cols)

    return sums.map_batches(finish, batch_format="pyarrow")


def rollup_aggregate(ds: Any, keys: "list[str]", val_col: str) -> Any:
    """GROUP BY ROLLUP(keys...): every key prefix plus the grand
    total, one pass (see grouping_sets)."""
    sets = [keys[:i] for i in range(len(keys), -1, -1)]
    return grouping_sets(ds, sets, keys, val_col)


def cube_aggregate(ds: Any, keys: "list[str]", val_col: str) -> Any:
    """GROUP BY CUBE(keys...): all 2^k key subsets, one pass."""
    from itertools import combinations
    sets = [list(c) for r in range(len(keys), -1, -1)
            for c in combinations(keys, r)]
    return grouping_sets(ds, sets, keys, val_col)


def pivot_table(ds: Any, row_key: str, col_key: str, val_col: str,
                prefix: str = "") -> Any:
    """Pivot to a wide table: one int64-exact (count-weighted) sum
    column per DISTINCT col_key value. Two slim passes: (1) the
    column universe — a (col_key) groupby whose result is the
    bounded set of output columns (sorted for a deterministic
    schema); (2) map-side (row, col, sum) partials and one exchange
    on the row key whose buckets widen all their rows in one
    scatter-add. Missing cells are 0, so a
    SQL replay uses COALESCE(SUM(..) FILTER (..), 0).

    Partitioning assumption: |distinct col_key| is a report-shaped
    bound (≤ thousands) — it becomes the schema; rows are unbounded."""
    import numpy as np

    from .joins import hash_exchange, run_starts

    universe = sorted(
        r[col_key]
        for r in ds.groupby(col_key).count().take_all())
    names = [f"{prefix}{u}" for u in universe]
    cells = pa.array([str(u) for u in universe], pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "__r": batch.column(row_key),
            "__c": pc.cast(batch.column(col_key), pa.string()),
            "sv": pc.cast(batch.column(val_col), pa.int64())})
        out = t.group_by(["__r", "__c"], use_threads=False) \
            .aggregate([("sv", "sum")])
        return pa.table({"__r": out.column("__r"), "__c": out.column("__c"),
                         "sv": out.column("sv_sum")})

    def widen(t: pa.Table) -> pa.Table:
        t = t.sort_by([("__r", "ascending")])
        starts = run_starts(t, ["__r"])
        row = np.repeat(np.arange(len(starts)),
                        np.diff(np.append(starts, t.num_rows)))
        cell = pc.index_in(t.column("__c"), value_set=cells) \
            .to_numpy(zero_copy_only=False)
        wide = np.zeros((len(starts), len(universe)), dtype=np.int64)
        np.add.at(wide, (row, cell),
                  pc.fill_null(t.column("sv"), 0).to_numpy(
                      zero_copy_only=False))
        out = {row_key: t.column("__r").take(pa.array(starts))}
        for j, nm in enumerate(names):
            out[nm] = pa.array(wide[:, j])
        return pa.table(out)

    return hash_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                         "__r", widen, batch_format="pyarrow")


def count_distinct_per_group(ds: Any, group: str, col: str) -> Any:
    """EXACT COUNT(DISTINCT col) per group in two slim levels:
    map-side per-batch dedup of (group, col) pairs, a (group, col)
    groupby that globally dedups them, then a map-side count +
    (group) Sum. Raw rows never shuffle — both exchanges carry
    already-deduped slim pairs, so a hot group costs its distinct
    set, not its row count."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def dedup(batch: pa.Table) -> pa.Table:
        return batch.select([group, col]).group_by(
            [group, col]).aggregate([])

    pairs = (ds.map_batches(dedup, batch_format="pyarrow")
             .groupby([group, col]).count())

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(group).aggregate([(col, "count")])
        return pa.table({
            group: agg.column(group),
            "__n": pc.cast(agg.column(f"{col}_count"), pa.int64())})

    return (pairs.map_batches(partial, batch_format="pyarrow")
            .groupby(group)
            .aggregate(Sum("__n", alias_name="n_distinct")))


def _flagged_distinct(ds_l: Any, ds_r: Any, cols: "list[str]") -> Any:
    """(cols…, in_l, in_r) presence flags per DISTINCT tuple: both
    sides are deduped map-side first, so the single groupby exchange
    carries at most #blocks copies of each distinct tuple, never raw
    row counts. Shared by intersect/except."""
    from ray.data.aggregate import Max

    def tag(side: str):
        def f(batch: pa.Table) -> pa.Table:
            d = batch.select(cols).group_by(cols).aggregate([])
            n = d.num_rows
            one = pa.array([1] * n, type=pa.int64())
            zero = pa.array([0] * n, type=pa.int64())
            return pa.table({**{c: d.column(c) for c in cols},
                             "__l": one if side == "l" else zero,
                             "__r": one if side == "r" else zero})
        return f

    both = ds_l.map_batches(tag("l"), batch_format="pyarrow").union(
        ds_r.map_batches(tag("r"), batch_format="pyarrow"))
    return both.groupby(cols).aggregate(
        Max("__l", alias_name="in_l"), Max("__r", alias_name="in_r"))


def _flag_filter(flagged: Any, cols: "list[str]", want_r: int) -> Any:
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(batch.column("in_l"), 1),
                       pc.equal(batch.column("in_r"), want_r))
        return batch.filter(keep).select(cols)

    return flagged.map_batches(f, batch_format="pyarrow")


def intersect_distinct(ds_l: Any, ds_r: Any, cols: "list[str]") -> Any:
    """SQL INTERSECT (distinct tuples present on BOTH sides)."""
    return _flag_filter(_flagged_distinct(ds_l, ds_r, cols), cols, 1)


def except_distinct(ds_l: Any, ds_r: Any, cols: "list[str]") -> Any:
    """SQL EXCEPT (distinct left tuples absent from the right)."""
    return _flag_filter(_flagged_distinct(ds_l, ds_r, cols), cols, 0)


def gap_fill_counts(ds: Any, group: str, ts_col: str,
                    unit: str = "day") -> Any:
    """Per-group period counts with ZERO-FILLED gaps between each
    group's first and last period — the time-series resample shape.
    The raw stream is reduced map-side to (group, period, n) partial
    counts; one exchange on ``group`` then regenerates every group's
    dense period range in a bucket at once (periods-per-group is the
    documented bound — days × years, not rows)."""
    import numpy as np

    from .joins import hash_exchange, run_starts

    step = {"day": 86_400_000_000, "hour": 3_600_000_000,
            "minute": 60_000_000}[unit]

    def partial(batch: pa.Table) -> pa.Table:
        p = pc.floor_temporal(batch.column(ts_col), unit=unit)
        t = pa.table({group: batch.column(group),
                      "__p": pc.cast(p, pa.int64())})
        return _value_counts(t, group, "__p", "n")

    def fill(t: pa.Table) -> pa.Table:
        t = _value_counts(t, group, "__p", "n").sort_by(
            [(group, "ascending"), ("__p", "ascending")])
        starts = run_starts(t, [group])
        ends = np.append(starts[1:], t.num_rows)
        p = t.column("__p").to_numpy(zero_copy_only=False)
        lo, hi = p[starts], p[ends - 1]
        lens = (hi - lo) // step + 1
        off = np.cumsum(lens) - lens  # first output row of each group
        run = np.repeat(np.arange(len(starts)), ends - starts)
        n = np.zeros(int(lens.sum()), dtype=np.int64)
        n[off[run] + (p - lo[run]) // step] = \
            t.column("n").to_numpy(zero_copy_only=False)
        period = np.repeat(lo - off * step, lens) \
            + np.arange(len(n), dtype=np.int64) * step
        return pa.table({
            group: t.column(group).take(pa.array(np.repeat(starts, lens))),
            "period": pa.array(period, pa.timestamp("us")),
            "n": pa.array(n)})

    return hash_exchange(ds.map_batches(partial, batch_format="pyarrow"),
                         group, fill, batch_format="pyarrow")


def ranked_topk(ds: Any, key: str, order_cols, descending,
                k: int) -> Any:
    """(key, rank) for the global top-``k`` rows of ``ds`` under the
    given sort — distributed sort + limit does the heavy lifting
    (per-block top-k then merge), ranks are assigned on the already-
    tiny k-row result.  ``order_cols`` MUST end in a unique
    tie-breaker for deterministic replay."""
    import numpy as np

    top = ds.sort(list(order_cols),
                  descending=list(descending)).limit(k) \
        .repartition(1)

    def number(batch: pa.Table) -> pa.Table:
        return pa.table({
            key: batch.column(key),
            "rank": pa.array(
                np.arange(1, batch.num_rows + 1, dtype=np.int64))})

    return top.map_batches(number, batch_format="pyarrow")


def rrf_fuse(a: Any, b: Any, key: str, k_const: int = 60) -> Any:
    """Reciprocal-rank fusion (Cormack, Clarke & Buettcher 2009) of
    two (key, rank) result lists:
        rrf(key) = 1/(k + rank_a) + 1/(k + rank_b)
    with a missing side contributing 0.0.  The union-search-results
    primitive (fuse BM25 with recency, text with vector hits, ...).

    One slim tagged groupby over (key, contribution) rows — result
    lists are top-k-sized, so this is always tiny; the fixed a-then-b
    addition order and pure IEEE divides make the doubles
    SQL-replayable.  Output: (key, rrf, rank_a, rank_b) with rank 0
    marking the missing side."""
    import numpy as np
    from ray.data.aggregate import Max, Sum

    def contrib(side: str):
        def f(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            r = batch.column("rank").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            c = 1.0 / (float(k_const) + r)
            zero = np.zeros(len(r))
            neg = np.full(len(r), -1, dtype=np.int64)
            rk = pc.cast(batch.column("rank"), pa.int64())
            return pa.table({
                key: batch.column(key),
                "ca": pa.array(c if side == "a" else zero),
                "cb": pa.array(zero if side == "a" else c),
                "ra": rk if side == "a" else pa.array(neg),
                "rb": pa.array(neg) if side == "a" else rk,
            })
        return f

    # both lists are tiny: materialize them, since a union of two
    # streaming sort/limit branches hangs a 1-CPU session (Ray 2.49)
    a, b = a.materialize(), b.materialize()
    merged = (a.map_batches(contrib("a"), batch_format="pyarrow")
              .union(b.map_batches(contrib("b"),
                                   batch_format="pyarrow"))
              .groupby(key)
              .aggregate(Sum("ca", alias_name="ca"),
                         Sum("cb", alias_name="cb"),
                         Max("ra", alias_name="ra"),
                         Max("rb", alias_name="rb")))

    def finish(batch: pa.Table) -> pa.Table:
        ca = batch.column("ca").to_numpy(zero_copy_only=False)
        cb = batch.column("cb").to_numpy(zero_copy_only=False)
        ra = batch.column("ra").to_numpy(zero_copy_only=False)
        rb = batch.column("rb").to_numpy(zero_copy_only=False)
        return pa.table({
            key: batch.column(key),
            "rrf": pa.array(ca + cb, type=pa.float64()),
            # 0 = not present on that side (ranks are 1-based)
            "rank_a": pa.array(np.where(ra > 0, ra, 0),
                               type=pa.int64()),
            "rank_b": pa.array(np.where(rb > 0, rb, 0),
                               type=pa.int64()),
        })

    return merged.map_batches(finish, batch_format="pyarrow")


def unpivot(ds: Any, id_cols, value_cols, var_name: str = "attr",
            value_name: str = "value",
            value_type=None) -> Any:
    """Wide -> long reshape (SQL UNPIVOT / pandas melt): one output
    row per (input row x value column), carrying the id columns, the
    source column's NAME, and its value cast to one common type
    (float64 default).  The inverse of :func:`pivot_table`.  Pure
    map-side — each batch expands locally by len(value_cols), no
    shuffle."""
    import pyarrow.compute as pc

    vt = value_type or pa.float64()
    value_cols = list(value_cols)
    id_cols = list(id_cols)

    def f(batch: pa.Table) -> pa.Table:
        parts = []
        for vc in value_cols:
            cols = {c: batch.column(c) for c in id_cols}
            cols[var_name] = pa.array([vc] * batch.num_rows,
                                      type=pa.large_string())
            cols[value_name] = pc.cast(batch.column(vc), vt)
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(f, batch_format="pyarrow")


def impute_group_mean(ds: Any, group: str, col: str,
                      out: str | None = None) -> Any:
    """Null imputation by per-group mean: nulls in an integer-valued
    column become their group's mean of the NON-NULL values, computed
    from exact int64 sums (mean = Σx/n in one double divide —
    bit-replayable against SUM()/COUNT() SQL, unlike engine-native
    AVG accumulation order).  Two-pass: one slim (group, n, sx)
    aggregate, then every row looks up its group's mean through
    ``joins.lookup`` — broadcast when the table is small, so the
    corpus itself never shuffles.  Groups that are entirely null
    stay null."""
    import numpy as np
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from .joins import lookup

    out = out or f"{col}_imp"

    def mean(t: pa.Table) -> pa.Table:
        n = pc.cast(t.column("n"), pa.float64())
        sx = pc.cast(t.column("sx"), pa.float64())
        return pa.table({group: t.column(group), "mean": pc.if_else(
            pc.greater(n, 0), pc.divide(sx, n), None)})

    def fold(batch: pa.Table, _, found: pa.Table) -> pa.Table:
        x = pc.cast(batch.column(col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        fill = pc.cast(found.column("mean"), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        v = np.where(np.isnan(x), fill, x)
        return batch.append_column(
            out, pa.array(v, type=pa.float64(), from_pandas=True))

    x64 = ds.map_batches(
        lambda t: pa.table({group: t.column(group),
                            "x": pc.cast(t.column(col), pa.int64())}),
        batch_format="pyarrow")
    means = x64.groupby(group).aggregate(
        Count("x", ignore_nulls=True, alias_name="n"),
        Sum("x", alias_name="sx")).map_batches(mean,
                                               batch_format="pyarrow")
    return lookup(ds, means, group, fold)
