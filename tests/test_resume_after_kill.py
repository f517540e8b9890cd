"""north_rule: "resumable from checkpoint with per-partition lineage +
metrics ... a killed run resumes mid-corpus".

This test hard-kills (SIGKILL) a partitioned extraction run partway
through, then reruns it and asserts: (a) completed buckets from the
killed run are skipped (their manifests survive), (b) the final output
is complete and identical to an uninterrupted run.

Runs in subprocesses with their own Ray sessions (the killed session
must not poison the suite's shared one).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

ROOT = str(pathlib.Path(__file__).resolve().parent.parent)

SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, REPO_ROOT)
    import ray
    import pyarrow as pa
    import ray.data as rd
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    from swishray.manifest import write_partitioned
    from swishray.pipeline import extract_pages
    from swishray.synth import pages_from_documents_batch

    out_dir = sys.argv[1]
    slow = len(sys.argv) > 2 and sys.argv[2] == "--slow"
    docs = pa.table({
        "doc_id": pa.array(range(240), type=pa.int64()),
        "text": [f"page {i} " + "alpha beta gamma " * (1 + i % 7)
                 for i in range(240)],
        "lang": ["en"] * 240})
    pages = rd.from_arrow(pages_from_documents_batch(docs)).repartition(15)
    ext = extract_pages(pages, emit="text", batch_size=16)
    if slow:
        # stretch the write phase so the kill lands mid-run
        import time as _t

        def drag(batch: pa.Table) -> pa.Table:
            _t.sleep(0.6)
            return batch
        ext = ext.map_batches(drag, batch_format="pyarrow")
    summary = write_partitioned(ext, out_dir, num_buckets=16)
    print("SUMMARY:" + str(summary))
    ray.shutdown()
""").replace("REPO_ROOT", repr(ROOT))


def _run(out_dir: str, slow: bool = False, kill_after: float | None = None):
    cmd = [sys.executable, "-c", SCRIPT, out_dir] + (["--slow"] if slow else [])
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    if kill_after is None:
        out, _ = p.communicate(timeout=300)
        return p.returncode, out.decode()
    deadline = time.time() + 120
    from swishray.manifest import completed_buckets
    while time.time() < deadline:
        if p.poll() is not None:
            out, _ = p.communicate()
            return p.returncode, out.decode()  # finished before kill
        if len(completed_buckets(out_dir)) >= 2:
            break  # some buckets are durably complete: kill now
        time.sleep(0.3)
    p.send_signal(signal.SIGKILL)
    p.wait()
    return -9, ""


def test_killed_run_resumes(tmp_path):
    from swishray.manifest import completed_buckets, read_manifests

    out_int = str(tmp_path / "interrupted")
    rc, _ = _run(out_int, slow=True, kill_after=1.0)
    # SIGKILL hits the driver, but its raylet workers die asynchronously
    # and an in-flight bucket write can still commit its manifest for a
    # few seconds — wait for the completed set to stabilize before
    # snapshotting it (under suite load the stragglers can take a while)
    done_after_kill = completed_buckets(out_int)
    deadline = time.time() + 30
    stable_since = time.time()
    while time.time() < deadline and time.time() - stable_since < 3.0:
        time.sleep(0.5)
        now = completed_buckets(out_int)
        if now != done_after_kill:
            done_after_kill, stable_since = now, time.time()
    if rc != -9 or len(done_after_kill) == 16:
        # machine raced ahead and finished (or the kill landed after
        # the last bucket went durable); still validates the write
        assert len(done_after_kill) == 16
    else:
        assert 0 < len(done_after_kill) < 16, \
            "kill should land mid-corpus (some buckets durable, not all)"

    # resume: only the missing buckets are written
    rc2, out2 = _run(out_int)
    assert rc2 == 0
    summary = eval(out2.split("SUMMARY:", 1)[1])
    assert summary["skipped"] == len(done_after_kill)
    assert summary["written"] == 16 - len(done_after_kill)
    assert len(completed_buckets(out_int)) == 16

    # the resumed output equals an uninterrupted run, byte for byte
    out_clean = str(tmp_path / "clean")
    rc3, _ = _run(out_clean)
    assert rc3 == 0

    import pyarrow.parquet as pq

    def load(d):
        rows = {}
        for b in sorted(completed_buckets(d)):
            bdir = os.path.join(d, f"bucket={b:04d}")
            for name in sorted(os.listdir(bdir)):
                if not name.endswith(".parquet"):
                    continue
                t = pq.read_table(os.path.join(bdir, name))
                for r in t.to_pylist():
                    rows[r["url"]] = (r["nwords"], r["text"], r["error"])
        return rows

    assert load(out_int) == load(out_clean)
    ms = read_manifests(out_int)
    assert sum(m["rows"] for m in ms) == 240
