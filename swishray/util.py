"""Small runtime helpers."""

from __future__ import annotations

import gzip
import zlib

import numpy as np
import pyarrow as pa

# per-worker-process cache of stateful-stage instances: Ray reuses
# worker processes, so state built on first call is amortized across
# every later batch the worker runs. Least recently used out past
# _TASK_STATE_MAX: a stage whose kwargs hold a fresh ray.put ref gets a
# new key on every call, and each cached instance keeps its state (and
# any object-store buffers it maps) alive for the worker's lifetime
_TASK_STATE_CACHE: dict = {}
_TASK_STATE_MAX = 8


def _cached_call(batch, _cls, _kwargs, _key):
    k = (_cls, _key)
    fn = _TASK_STATE_CACHE.pop(k, None)
    if fn is None:
        fn = _cls(**_kwargs)
        while len(_TASK_STATE_CACHE) >= _TASK_STATE_MAX:
            del _TASK_STATE_CACHE[next(iter(_TASK_STATE_CACHE))]
    _TASK_STATE_CACHE[k] = fn
    return fn(batch)


def map_batches_stateful(ds, cls, fn_constructor_kwargs=None, **mb_kwargs):
    """map_batches with a stateful callable: stateless TASKS whose
    state is built once per worker process, on first call, and then
    reused by every batch (and every later stage with the same class
    and constructor kwargs) that worker runs, up to _TASK_STATE_MAX
    instances per worker — libswish3's
    init-once/parse-many session shape. Tasks release their CPU after
    every batch, so no stage reserves cores for the pipeline's
    lifetime and none can starve an upstream task stage at any
    session size; ``mb_kwargs`` (``batch_size``, ``num_cpus``, ...)
    pass through to ``Dataset.map_batches``.

    The cache is keyed by (class, constructor kwargs), so state must
    be a function of those kwargs alone: a constructor that reads
    files which can change between calls takes a kwarg that changes
    with them (``increment.dedup_against_store`` passes the store's
    metadata, generation included)."""
    kwargs = dict(fn_constructor_kwargs or {})
    # cache key: deterministic digest of the constructor kwargs,
    # computed ONCE on the driver (kwargs values may be unhashable —
    # dicts, ObjectRefs — so a hash of the pickled form is used)
    import hashlib
    import pickle
    try:
        blob = pickle.dumps(tuple(sorted(kwargs.items())))
    except Exception:
        from ray import cloudpickle
        blob = cloudpickle.dumps(tuple(sorted(kwargs.items())))
    key = hashlib.md5(blob).hexdigest()

    def stage(batch):
        return _cached_call(batch, cls, kwargs, key)
    # Ray names the stage after its function: MapBatches(ExtractPages)
    # in stats, task names and tracebacks
    stage.__name__ = cls.__name__
    return ds.map_batches(stage, **mb_kwargs)


# input bytes per task of a whole-page stage: a text-heavy
# emit="full" extraction writes about 7x its input, and this keeps
# that at half of Ray's 128 MiB target_max_block_size, past which the
# output buffer cuts the task's block into copied slices (16 MiB ran
# no faster on 10x the benchmark corpora at 1, 2 and 4 CPUs)
TASK_BYTES = 8 << 20


def rows_per_task(rows: int, nbytes: int, cpus: int) -> int:
    """The task-size rule: ``cpus * ceil(nbytes / (TASK_BYTES * cpus))``
    tasks, so every CPU gets work and no task reads much more than
    ``TASK_BYTES``, but never more tasks than rows."""
    cpus = max(1, cpus)
    per_cpu = max(1, -(-nbytes // (TASK_BYTES * cpus)))
    tasks = max(1, min(rows, cpus * per_cpu))
    return max(1, -(-rows // tasks))


def task_rows(ds, batch_size: int) -> int:
    """Rows per task for a stage that takes whole pages, to pass as its
    ``map_batches(batch_size=...)``. Ray bundles whole blocks into a
    task until it holds that many rows, so a task makes one call, or
    two when its last block overshoots.
    Sized by :func:`rows_per_task` from the rows and bytes Ray knows
    before the stage runs (the plan's metadata; ``count()`` and
    ``size_bytes()`` would run it) and the session's CPUs. When Ray
    does not know them (after a lazy ``map_batches``), ``batch_size``
    rows per task."""
    meta = ds._logical_plan.dag.infer_metadata()
    if not meta.num_rows or meta.size_bytes is None:
        return batch_size
    return rows_per_task(meta.num_rows, meta.size_bytes, _session_cpus())


def row_columns(values, fn, fields, failure=()) -> dict:
    """The one per-row failure path of the row-wise stages: a bad row
    becomes an error row, never a dead batch (libswish3 warns and
    goes on per document, parser.c:1393-1447).

    ``fn(value)`` returns one tuple per row in ``fields`` order
    (``(name, Arrow type)`` pairs, ``error`` last); an error the
    function returns itself (``"null_body"``, ``"not_pdf"``) is kept
    as is. A row whose ``fn`` raises becomes ``failure`` (one value
    per field before ``error``; empty = all null) plus
    ``error = "<Type>: <message>"``. Returns ``{name: pa.Array}``."""
    fail = tuple(failure) or (None,) * (len(fields) - 1)
    cols: list[list] = [[] for _ in fields]
    for v in values:
        try:
            out = fn(v)
        except Exception as e:  # noqa: BLE001 — the per-row channel
            out = fail + (f"{type(e).__name__}: {e}",)
        for col, x in zip(cols, out):
            col.append(x)
    return {name: pa.array(col, type=t)
            for (name, t), col in zip(fields, cols)}


def explode_rows(keys, values, fn, fields):
    """The one-to-many sibling of :func:`row_columns`, for the stages
    that emit any number of rows per input row (feed entries, sitemap
    urls, links, main-content blocks).

    ``fn(value)`` returns a list of tuples in ``fields`` order
    (``(name, Arrow type)`` pairs). Returns ``(key column repeated once
    per emitted row, {name: pa.Array})``."""
    per_row = [fn(v) for v in values]
    lens = np.fromiter(map(len, per_row), np.int64, len(per_row))
    flat = [r for rows in per_row for r in rows]
    cols = list(zip(*flat)) or [()] * len(fields)
    idx = np.repeat(np.arange(len(per_row), dtype=np.int64), lens)
    return keys.take(pa.array(idx)), {
        name: pa.array(list(col), type=t)
        for (name, t), col in zip(fields, cols)}


def body_bytes(body) -> bytes | None:
    """The body contract of the :func:`explode_rows` stages: None stays
    None (no rows), a str is encoded as UTF-8, and a gzip member is
    unwrapped through :func:`gunzip` (a bad member is None too)."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    if body is not None and body[:2] == b"\x1f\x8b":
        return gunzip(body)
    return body


def gunzip(data: bytes) -> bytes | None:
    """``gzip.decompress``, or None for a bad member of any kind: a
    truncated one (EOFError), a corrupt deflate stream (zlib.error) or
    a bad header or CRC (OSError)."""
    try:
        return gzip.decompress(data)
    except (OSError, EOFError, zlib.error):
        return None


def _session_cpus() -> int:
    """CPUs of the current Ray session (this host's when no session
    is up, 4 when neither can be read) — the one CPU probe every
    sizing default uses."""
    try:
        import ray
        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", 4))
        import os
        return os.cpu_count() or 4
    except Exception:
        return 4


# Ray Data's threads that release ObjectRefs as an execution stops (Ray
# 2.49 names them so; tests/test_session_teardown.py pins the names)
RAY_DATA_THREADS = ("StreamingExecutor-", "map_tp_")


def drain_ray_data() -> None:
    """Stop every Ray Data execution before the session shuts down: an
    iterator left unfinished in a reference cycle, collected after
    ``ray.shutdown()``, drops its ObjectRefs from its threads and Ray
    ends the process with status 1 ("The core worker has already been
    shutdown"). So collect the cycles now and join those threads."""
    import gc
    import threading

    gc.collect()
    for th in threading.enumerate():
        if th.name.startswith(RAY_DATA_THREADS):
            th.join(30)


def import_polars():
    """Import polars defensively against the torn-module race seen in
    fresh Ray workers: a task can observe ``polars`` mid-import
    (``module 'polars' has no attribute 'Series'`` raised from inside
    polars' own utilities) when the worker process is concurrently
    importing it on another code path.  Poll until the module
    namespace is fully populated; the window is milliseconds, so the
    bounded wait only ever triggers on the race itself."""
    import os
    import sys
    import time

    def _consistent(mod) -> bool:
        if not hasattr(mod, "Series"):
            return False
        # A FAILED first import (e.g. the streaming executor cancels
        # a task mid-import in a worker that is later reused) removes
        # only the top 'polars' entry from sys.modules; already-
        # completed submodules SURVIVE, still binding `pl` to the
        # dead half-populated module object.  A later import then
        # rebuilds 'polars' fully (so hasattr passes) while internal
        # code like polars._utils.various still dereferences the
        # dead binding -> AttributeError deep inside polars.  Detect
        # any submodule whose `pl` is not the live module.
        for name, sub in list(sys.modules.items()):
            if not name.startswith("polars.") or sub is None:
                continue
            bound = getattr(sub, "pl", mod)
            if bound is not mod \
                    and getattr(bound, "__name__", "") == "polars":
                return False
        return True

    import polars as pl
    if _consistent(pl):
        return pl
    # a LIVE concurrent importer may still be populating the module
    deadline = time.monotonic() + 2.0
    while time.monotonic() < deadline:
        time.sleep(0.05)
        if _consistent(pl):
            return pl
    # permanent inconsistency: purge every polars module and
    # re-import from scratch so all internal `import polars as pl`
    # references rebind to one fresh, fully-populated module
    print(f"swishray: repairing torn polars import (pid={os.getpid()})",
          file=sys.stderr)
    for name in [m for m in list(sys.modules)
                 if m == "polars" or m.startswith("polars.")]:
        del sys.modules[name]
    import polars as pl
    if not _consistent(pl):
        raise ImportError("polars import is torn and could not be "
                          "repaired in this worker")
    return pl
