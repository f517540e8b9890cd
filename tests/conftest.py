import gc
import os
import pathlib
import sys
import threading

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "needs_path(*paths): skip unless every path exists "
        "(inputs the repo does not ship, such as the libswish3 source "
        "tree and its compiled test binaries)")


def pytest_runtest_setup(item):
    for mark in item.iter_markers("needs_path"):
        for path in mark.args:
            if not os.path.exists(path):
                pytest.skip(f"needs {path}, which is absent")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole test run (task instructions)."""
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    yield ray
    drain_ray_data()
    ray.shutdown()


# Ray Data's threads that release ObjectRefs as an execution stops (Ray
# 2.49 names them so; tests/test_session_teardown.py pins the names)
RAY_DATA_THREADS = ("StreamingExecutor-", "map_tp_")


def drain_ray_data() -> None:
    """Stop every Ray Data execution before the session shuts down.

    A dataset iterator that a test left unfinished inside a reference
    cycle is closed only when the cycle collector runs. Its executor
    and thread pools then drop their ObjectRefs from their own threads.
    If that happens after ``ray.shutdown()`` destroyed this process's
    core worker, Ray ends the process at once with status 1 ("The core
    worker has already been shutdown ... The process will exit") and
    pytest prints no summary. So collect the cycles now and wait for
    the threads that closing them stops."""
    gc.collect()
    for th in threading.enumerate():
        if th.name.startswith(RAY_DATA_THREADS):
            th.join(30)


@pytest.fixture
def corpus_pages(ray_session):
    """``corpus_pages(workload, seed, n_rows)``: a Dataset of the first
    ``n_rows`` of the seeded ``perfbench/corpus.py`` table (url, html,
    doc_id), in 4 blocks so map stages run as several tasks."""
    import ray.data as rd
    from perfbench.corpus import BASE_ROWS, make_table

    def pages(workload, seed, n_rows):
        table, _ = make_table(workload, seed, n_rows / BASE_ROWS[workload])
        assert table.num_rows == n_rows
        return rd.from_arrow(table).repartition(4)
    return pages


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture
def spread(ray_session):
    """``spread(keys)`` asserts the keys reach at least 3
    ``hash_exchange`` buckets, so a per-key op test crosses buckets."""
    import numpy as np
    import pyarrow as pa
    from swishray.ops.joins import _key_hash64, default_join_partitions

    def check(keys):
        nb = np.uint64(default_join_partitions())
        hit = set((_key_hash64(pa.array(list(keys))) % nb).tolist())
        assert len(hit) >= 3, f"keys reach only buckets {hit}"
    return check
