"""Local stand-in for the driver's correctness gate: run every
queries() entry at sf0.01 side-by-side with its oracle_sql() in DuckDB
and compare row count, column names, and order-insensitive values.

Usage: python tools/check_queries.py [sf_dir] [query ...]

The Ray session gets ``CHECK_CPUS`` CPUs (default: the CPUs this
process may be scheduled on, ``len(os.sched_getaffinity(0))``).

Known Ray 2.49 issue: a run can abort in Ray's core worker with
``task_manager.cc:930 Check failed: it != submissible_tasks_.end()
Tried to complete task that was not pending``. The process is killed,
so every later query is lost; run ``ray stop --force`` and rerun.
"""

import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


def to_df(result):
    import pandas as pd
    import pyarrow as pa
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def norm(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
        else:
            try:
                import numpy as np
                if np.issubdtype(df[c].dtype, np.integer):
                    df[c] = df[c].astype("int64")
            except Exception:
                pass
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    import ray
    import duckdb
    import __ray_entry__ as e

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    if not ray.is_initialized():
        ncpu = int(os.environ.get("CHECK_CPUS",
                                  len(os.sched_getaffinity(0))))
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem "
              "events documents embeddings").split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    oracles = e.oracle_sql()
    ok = fail = 0
    times = {}
    import time as _time
    for name, fn in qs.items():
        if only and name not in only:
            continue
        _t0 = _time.perf_counter()
        try:
            mine = norm(to_df(fn(sf_dir)))
            times[name] = _time.perf_counter() - _t0
        except Exception as ex:
            print(f"{name}: QUERY ERROR {type(ex).__name__}: {ex}")
            fail += 1
            continue
        if name not in oracles:
            print(f"{name}: rows-only ({len(mine)} rows) "
                  f"cols={list(mine.columns)}")
            ok += 1
            continue
        try:
            ref = norm(con.sql(oracles[name]).df())
        except Exception as ex:
            print(f"{name}: ORACLE ERROR {ex}")
            fail += 1
            continue
        if list(mine.columns) != list(ref.columns):
            print(f"{name}: COLUMN MISMATCH mine={list(mine.columns)} "
                  f"ref={list(ref.columns)}")
            fail += 1
            continue
        if len(mine) != len(ref):
            print(f"{name}: ROWCOUNT MISMATCH mine={len(mine)} ref={len(ref)}")
            fail += 1
            continue
        if not mine.equals(ref):
            neq = (mine != ref).any(axis=1)
            print(f"{name}: VALUE MISMATCH ({int(neq.sum())} rows differ)")
            print("  mine:", mine[neq].head(3).to_dict("records"))
            print("  ref :", ref[neq].head(3).to_dict("records"))
            fail += 1
            continue
        print(f"{name}: OK ({len(mine)} rows)")
        ok += 1
    print(f"== {ok} ok, {fail} fail ==")
    if times:
        slow = sorted(times.items(), key=lambda kv: -kv[1])[:12]
        print("slowest:", ", ".join(f"{n}={t:.1f}s" for n, t in slow))
        print(f"total: {sum(times.values()):.1f}s over {len(times)}")
    ray.shutdown()
    sys.exit(1 if fail else 0)


if __name__ == "__main__":
    main()
