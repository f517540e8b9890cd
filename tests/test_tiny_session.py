"""Deadlock-safety gate for tiny Ray sessions.

The streaming executor deadlocks SILENTLY when actor-based operators
(actor pools, join/shuffle aggregators) plus 1-CPU producer tasks
cannot co-schedule. Every stateful stage routes through
util.map_batches_stateful (task-mode fallback below 4 CPUs) and
native_join falls back to the portable task-based hash_join on 1-CPU
sessions — this test pins the worst case (num_cpus=1) end-to-end in a
subprocess with a hard timeout."""

import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, "/root/repo")
    import ray, pyarrow as pa
    import ray.data as rd
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    texts = ["alpha beta gamma " * 5, "alpha beta gamma " * 5,
             "unique text here", "alpha beta gamma " * 5 + "x"]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(4), type=pa.int64()), "text": texts}))
    from swishray.ops.dedup import exact_dedup, minhash_dedup
    kept = sorted(r["doc_id"] for r in exact_dedup(ds).take_all())
    assert kept == [0, 2, 3], kept
    pairs = minhash_dedup(ds, threshold=0.8).take_all()
    assert len(pairs) == 1, pairs
    from swishray.pipeline import extract_pages
    from swishray.synth import pages_from_documents_batch
    docs = pa.table({"doc_id": pa.array(range(12), type=pa.int64()),
                     "text": [f"page {i} alpha beta" for i in range(12)],
                     "lang": ["en"] * 12})
    pages = rd.from_arrow(pages_from_documents_batch(docs)).repartition(2)
    n = extract_pages(pages, emit="text").sum("nwords")
    assert n > 0
    ray.shutdown()
    print("TINY_OK")
""")


def test_one_cpu_session_no_deadlock():
    r = subprocess.run([sys.executable, "-c", SCRIPT],
                       capture_output=True, timeout=240)
    assert b"TINY_OK" in r.stdout, (r.stdout[-500:], r.stderr[-800:])
