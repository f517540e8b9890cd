"""Small runtime helpers."""

from __future__ import annotations

# per-worker-process cache for stateless-task mode: Ray reuses worker
# processes, so state built on first call is amortized like an actor's
_TASK_STATE_CACHE: dict = {}


def _cached_call(batch, _cls, _kwargs, _key):
    fn = _TASK_STATE_CACHE.get((_cls, _key))
    if fn is None:
        fn = _TASK_STATE_CACHE[(_cls, _key)] = _cls(**_kwargs)
    return fn(batch)


def map_batches_stateful(ds, cls, fn_constructor_kwargs=None,
                         concurrency=None, force_tasks=False, **mb_kwargs):
    """map_batches with a stateful callable, deadlock-safe at any
    session size.

    On sessions with >=4 CPUs: a normal actor pool (state in
    __init__, cores reserved). On tiny sessions (the 1-2 CPU case
    where a reserved pool starves the read stage and hangs the
    streaming executor): stateless TASKS with per-worker-process
    cached state — same warm-state behavior, no reservation.

    ``force_tasks=True`` uses cached-task mode at ANY session size.
    Use it for stages with cheap state (compiled params, small numpy
    tables) that feed pipelines containing actor-based operators
    (the built-in join/shuffle aggregators): an actor pool pins its
    CPUs for the pipeline's whole lifetime, and pool + aggregators
    can together exceed the session and deadlock the executor,
    whereas tasks release their slot after every batch."""
    import functools

    kwargs = dict(fn_constructor_kwargs or {})
    cpus = _session_cpus()
    if not force_tasks and cpus >= 4:
        if concurrency is None:
            concurrency = default_concurrency()
        # max_restarts=0: fault tolerance comes from task lineage +
        # pool-level actor replacement; a per-actor restart would pull
        # constructor args back out of the object store and fail if
        # they were lost (ray#53727 — this also silences its
        # misleading core_worker warning on every pool)
        return ds.map_batches(cls, fn_constructor_kwargs=kwargs,
                              concurrency=concurrency,
                              max_restarts=0, **mb_kwargs)
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
    fn = functools.partial(_cached_call, _cls=cls, _kwargs=kwargs, _key=key)
    return ds.map_batches(fn, **mb_kwargs)


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


def default_concurrency(reserve: int = 1, cap: int = 8) -> int:
    """Actor-pool size that can never starve task stages: total CPUs
    of the CURRENT Ray session minus ``reserve``, capped.

    An actor pool that reserves every CPU while an upstream read /
    generation task still needs a slot deadlocks the streaming
    executor silently — this helper is the guard used by every default
    concurrency in the engine (the driver controls the session size,
    so a fixed number is never safe)."""
    return max(1, min(cap, _session_cpus() - reserve))


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
