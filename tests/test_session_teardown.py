"""The session fixture's teardown survives an abandoned iterator.

A dataset iterator left unfinished inside a reference cycle is closed
only by the cycle collector, and its Ray Data threads then release
ObjectRefs. Collected after ``ray.shutdown()``, that ends the process
with status 1 and no pytest summary. ``util.drain_ray_data`` runs the
collector and joins those threads first; this pins that it does, and
that Ray Data still names the threads as the drain expects. The CLI
commands run their bodies in ``__main__._ray_session``, which drains
and shuts down only a session it started, also when the body raises."""

import os
import pathlib
import subprocess
import sys
import textwrap

TESTS = str(pathlib.Path(__file__).resolve().parent)

SCRIPT = textwrap.dedent("""
    import gc, sys, threading
    sys.path.insert(0, TESTS)
    import ray
    from swishray.util import RAY_DATA_THREADS, drain_ray_data
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    ds = ray.data.range(2000, override_num_blocks=20)
    it = iter(ds.iter_batches(batch_size=10, prefetch_batches=4))
    next(it)
    cycle = [it]
    cycle.append(cycle)
    del it, cycle
    names = [t.name for t in threading.enumerate()]
    for prefix in RAY_DATA_THREADS:
        assert any(n.startswith(prefix) for n in names), (prefix, names)
    drain_ray_data()
    ray.shutdown()
    gc.collect()
    print("clean exit")
""").replace("TESTS", repr(TESTS))

CLI_SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, ROOT)
    import ray
    from swishray.__main__ import _ray_session
    try:
        with _ray_session(1):
            assert ray.is_initialized()
            raise RuntimeError("command failed")
    except RuntimeError:
        pass
    assert not ray.is_initialized(), "the failed command's session runs"
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    with _ray_session(1):
        pass
    assert ray.is_initialized(), "a joined session was shut down"
    ray.shutdown()
    print("clean exit")
""").replace("ROOT", repr(str(pathlib.Path(TESTS).parent)))


def test_drain_before_shutdown_keeps_the_exit_status():
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines()[-1] == "clean exit"


def test_cli_session_stops_only_its_own_session():
    """A command that raises still shuts down the session it started;
    a session the command joined outlives it."""
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    out = subprocess.run([sys.executable, "-c", CLI_SCRIPT],
                         capture_output=True, text=True, timeout=300,
                         env=env)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.splitlines()[-1] == "clean exit"
