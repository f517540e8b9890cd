"""Self-test of the benchmark's output contract.

    python3 perfbench/test_output_shape.py      # from the repo root
    python3 -m pytest perfbench/test_output_shape.py

One-second runs of every workload, untraced and traced, at the
standard input size (about three minutes in all), must print as
their last stdout line one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and every metric
that BENCHMARK.json names for that mode exactly once, with its unit and
a finite value. A directory holding only BENCHMARK.json and this
directory must make the benchmark fail without a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def _run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def run_workloads() -> list[str]:
    return [w["name"] for w in SPEC["workloads"]]


def check_result_line(stdout: str, trace: int) -> dict:
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    result = json.loads(last, object_pairs_hook=_no_duplicate_keys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert type(result["failed"]) is int and result["failed"] == 0
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(wanted), \
        set(result["metrics"]) ^ set(wanted)
    for name, unit in wanted.items():
        entry = result["metrics"][name]
        assert set(entry) == {"value", "unit"}, (name, entry)
        assert entry["unit"] == unit, (name, entry)
        v = entry["value"]
        assert isinstance(v, (int, float)) and not isinstance(v, bool)
        assert math.isfinite(v), (name, v)
        assert last.count(json.dumps(name)) == 1, name
    return result


def test_spec_matches_runner():
    sys.path.insert(0, HERE)
    import run
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_corpus_is_seed_determined():
    sys.path.insert(0, HERE)
    sys.path.insert(0, ROOT)
    from corpus import BASE_ROWS, make_table
    for w in BASE_ROWS:
        a, _ = make_table(w, 11, 0.05)
        b, _ = make_table(w, 11, 0.05)
        c, _ = make_table(w, 12, 0.05)
        assert a.equals(b), w
        assert not a.equals(c), w


def test_every_workload_prints_the_contract_shape():
    for w in run_workloads():
        for trace in (0, 1):
            proc = _run(w, trace)
            assert proc.returncode == 0, (w, trace, proc.stderr[-2000:])
            check_result_line(proc.stdout, trace)


def test_fails_without_the_engine():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest_") as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(d, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(run_workloads()[0], 0, cwd=d)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}", flush=True)
