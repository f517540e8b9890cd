"""Local stand-in for the driver's correctness gate: run every
queries() entry at sf0.01 side-by-side with its oracle_sql() in DuckDB
and compare row count, column names, and order-insensitive values.

Usage: python tools/check_queries.py [sf_dir] [query ...]

The Ray session gets ``CHECK_CPUS`` CPUs (default: the CPUs this
process may be scheduled on, ``len(os.sched_getaffinity(0))``).

The queries run in a child process. A child that dies mid-query (Ray
2.49's core worker can abort with ``task_manager.cc:930 Check failed:
it != submissible_tasks_.end() Tried to complete task that was not
pending``) fails that query with its exit status, and a fresh child
goes on from the next one. The last line is ``== N ok, M fail ==``
over every requested query.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

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


# child -> parent protocol lines on the child's stdout
_MARK = "@@check "


def run_child(sf_dir, names):
    """Run ``names`` in order in one Ray session; after each query
    print ``@@check ok|fail <name> <seconds>``."""
    import ray
    import duckdb
    import __ray_entry__ as e

    sys.stdout.reconfigure(line_buffering=True)
    ncpu = int(os.environ.get("CHECK_CPUS", len(os.sched_getaffinity(0))))
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
    for name in names:
        t0 = time.perf_counter()
        good = check_one(name, qs[name], oracles.get(name), con, sf_dir)
        print(f"{_MARK}{'ok' if good else 'fail'} {name} "
              f"{time.perf_counter() - t0:.3f}")
    ray.shutdown()


def check_one(name, fn, oracle, con, sf_dir):
    """Run one query against its oracle; print its verdict line."""
    try:
        mine = norm(to_df(fn(sf_dir)))
    except Exception as ex:
        print(f"{name}: QUERY ERROR {type(ex).__name__}: {ex}")
        return False
    if oracle is None:
        print(f"{name}: rows-only ({len(mine)} rows) "
              f"cols={list(mine.columns)}")
        return True
    try:
        ref = norm(con.sql(oracle).df())
    except Exception as ex:
        print(f"{name}: ORACLE ERROR {ex}")
        return False
    if list(mine.columns) != list(ref.columns):
        print(f"{name}: COLUMN MISMATCH mine={list(mine.columns)} "
              f"ref={list(ref.columns)}")
        return False
    if len(mine) != len(ref):
        print(f"{name}: ROWCOUNT MISMATCH mine={len(mine)} ref={len(ref)}")
        return False
    if not mine.equals(ref):
        neq = (mine != ref).any(axis=1)
        print(f"{name}: VALUE MISMATCH ({int(neq.sum())} rows differ)")
        print("  mine:", mine[neq].head(3).to_dict("records"))
        print("  ref :", ref[neq].head(3).to_dict("records"))
        return False
    print(f"{name}: OK ({len(mine)} rows)")
    return True


def main():
    import __ray_entry__ as e

    if sys.argv[1:2] == ["--child"]:
        run_child(sys.argv[2], sys.argv[3:])
        return
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    todo = [n for n in e.queries() if not only or n in only]

    ok = fail = 0
    for name in sorted(only - set(todo)):
        print(f"{name}: UNKNOWN QUERY")
        fail += 1
    times = {}
    while todo:
        child = subprocess.Popen(
            [sys.executable, __file__, "--child", sf_dir, *todo],
            stdout=subprocess.PIPE, text=True, errors="replace")
        done = 0
        for line in child.stdout:
            if not line.startswith(_MARK):
                sys.stdout.write(line)
                continue
            verb, name, secs = line[len(_MARK):].split()
            done += 1
            times[name] = float(secs)
            if verb == "ok":
                ok += 1
            else:
                fail += 1
        status = child.wait()
        todo = todo[done:]
        if todo:  # the child died running todo[0]
            why = (f"signal {signal.Signals(-status).name}" if status < 0
                   else f"exit status {status}")
            print(f"{todo[0]}: CHILD DIED ({why})", flush=True)
            fail += 1
            todo = todo[1:]
    if times:
        slow = sorted(times.items(), key=lambda kv: -kv[1])[:12]
        print("slowest:", ", ".join(f"{n}={t:.1f}s" for n, t in slow))
        print(f"total: {sum(times.values()):.1f}s over {len(times)}")
    print(f"== {ok} ok, {fail} fail ==")
    sys.exit(1 if fail else 0)


if __name__ == "__main__":
    main()
