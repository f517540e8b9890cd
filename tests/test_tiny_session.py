"""Progress gate for the smallest Ray session (num_cpus=1).

Every stateful stage runs as tasks through util.map_batches_stateful
and every equi-join is the task-based hash_join, so no operator holds
a CPU between batches and a single CPU must carry any pipeline to the
end. This test pins that in a subprocess with a hard timeout: dedup,
extraction, the two store probes of ops.increment, each probe fed
by an unmaterialized upstream (a stage that reserved the only CPU
would starve it and hang silently), and a reciprocal-rank fusion of
two top-k lists read from one parquet file."""

import pathlib
import subprocess
import sys
import textwrap

ROOT = str(pathlib.Path(__file__).resolve().parent.parent)

SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, REPO_ROOT)
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
    import os, shutil, tempfile
    from swishray.ops.increment import (dedup_against_store,
                                        dedup_incremental,
                                        write_fingerprint_store,
                                        write_minhash_store)
    body = "prior doc {} alpha beta gamma delta epsilon"
    prior = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(8), type=pa.int64()),
        "text": [body.format(i) for i in range(8)]}))
    store = tempfile.mkdtemp()
    write_fingerprint_store(prior, os.path.join(store, "fp"))
    write_minhash_store(prior, os.path.join(store, "mh"))
    # 4 exact copies of prior rows, 4 new rows; unmaterialized upstream
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(100, 108), type=pa.int64()),
        "text": [body.format(i) for i in range(4)]
                + [f"fresh page {i} omega" for i in range(4)]})) \
        .repartition(4).map_batches(lambda t: t, batch_format="pyarrow")
    kept = dedup_incremental(new, os.path.join(store, "fp")).count()
    assert kept == 4, kept
    kept = dedup_against_store(new, os.path.join(store, "mh"),
                               threshold=0.5).count()
    assert kept == 4, kept
    # two top-k lists over one parquet scan, fused: the union of two
    # unmaterialized sort/limit branches must not starve the one CPU
    import pyarrow.parquet as pq
    from swishray.ops.aggregates import ranked_topk, rrf_fuse
    pq.write_table(pa.table({
        "k": pa.array(range(40), type=pa.int64()),
        "v": pa.array([(i * 7) % 40 for i in range(40)],
                      type=pa.int64())}), os.path.join(store, "t.parquet"))
    t = rd.read_parquet(os.path.join(store, "t.parquet"))
    fused = rrf_fuse(ranked_topk(t, "k", ["v", "k"], [True, False], 5),
                     ranked_topk(t, "k", ["k"], [True], 5), "k")
    assert fused.count() == 10
    shutil.rmtree(store)
    ray.shutdown()
    print("TINY_OK")
""").replace("REPO_ROOT", repr(ROOT))


def test_one_cpu_session_no_deadlock():
    r = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                       capture_output=True, timeout=240)
    assert b"TINY_OK" in r.stdout, (r.stdout[-500:], r.stderr[-800:])
