import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from swishray.util import drain_ray_data  # noqa: E402


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
