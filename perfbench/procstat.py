"""Process-tree CPU and memory accounting from /proc (no psutil).

The benchmark process starts the Ray session as its driver, so the raylet,
GCS and every Ray worker are its descendants. CPU time is summed over
that tree. RSS is split by role: the driver (this process), the Ray
workers (processes titled ``ray::...``, where the extraction runs) and
the Ray services (raylet, GCS, agents).
"""

from __future__ import annotations

import os
import signal
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read().decode("latin-1")
    except OSError:
        return None
    # the command name (field 2) may hold spaces; fields resume after ')'
    return raw[raw.rfind(")") + 2:].split()


def descendants(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and every live descendant."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        f = _stat_fields(int(name))
        if f is not None:
            children.setdefault(int(f[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """CPU seconds each live pid has run (schedstat, ns resolution)."""
    out = {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/schedstat", "rb") as f:
                out[pid] = int(f.read().split()[0]) / 1e9
        except (OSError, IndexError, ValueError):
            pass
    return out


def tree_cpu_seconds() -> dict[int, float]:
    return cpu_seconds(descendants())


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two snapshots; a process started in
    between counts from zero, one that exited in between is missed."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


ROLES = ("driver", "workers", "services")


def role(pid: int) -> str:
    if pid == os.getpid():
        return "driver"
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return "services"
    return "workers" if cmd.startswith(b"ray::") else "services"


def tree_rss_by_role() -> dict[str, int]:
    """Summed RSS bytes of the process tree per role."""
    total = dict.fromkeys(ROLES, 0)
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/statm", "rb") as f:
                total[role(pid)] += int(f.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            pass
    return total


# the sampler's keys: each role, and the driver and workers together
PEAKS = (*ROLES, "driver+workers")


class RssSampler:
    """Background sampler of the tree's RSS per role, keeping the peak
    of each key of PEAKS. Samples only while ``active`` is set, so work
    the benchmark does between timed passes (output checks) never
    counts."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.active = threading.Event()
        self._peak = dict.fromkeys(PEAKS, 0)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            if self.active.wait(0.05):
                rss = tree_rss_by_role()
                with self._lock:
                    if self.active.is_set():
                        self._add(rss)
                self._stop.wait(self.interval_s)

    def _add(self, rss: dict[str, int]) -> None:
        rss["driver+workers"] = rss["driver"] + rss["workers"]
        for k, v in rss.items():
            self._peak[k] = max(self._peak[k], v)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def take_peak(self) -> dict[str, int]:
        """Stop sampling; return the peaks since the last call."""
        rss = tree_rss_by_role()
        with self._lock:
            self.active.clear()
            self._add(rss)
            peak, self._peak = self._peak, dict.fromkeys(PEAKS, 0)
        return peak


def reap(pids: list[int], timeout_s: float = 20.0) -> list[int]:
    """Wait until every pid has exited, SIGKILL what outlives
    ``timeout_s``. Returns the pids that had to be killed."""
    pending = _wait_gone([p for p in pids if p != os.getpid()], timeout_s)
    for p in pending:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    _wait_gone(pending, 5.0)
    return pending


def _wait_gone(pids: list[int], timeout_s: float) -> list[int]:
    deadline = time.monotonic() + timeout_s
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if _alive(p)]
        if pids:
            time.sleep(0.05)
    return pids


def _alive(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)  # reap our own zombie children
    except ChildProcessError:
        pass
    f = _stat_fields(pid)
    return f is not None and f[0] != "Z"
