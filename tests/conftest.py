import os
import pathlib
import sys

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
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"
