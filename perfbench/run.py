"""swishray benchmark runner.

    python3 perfbench/run.py --workload markup_dense --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root: the engine is imported from
``./swishray`` (its native extensions build there on first import) and
Ray workers get the same path through ``runtime_env``. Without
``./swishray`` the run exits 2 and prints no result.

Each workload is a batch job driven by this one process against a
local Ray session with ``num_cpus=1``, so ``util.map_batches_stateful``
runs the extractor in cached-task mode. Inputs come from
``corpus.make_table(workload, seed)``; the engine sees only those rows.
The workloads are the two extraction workloads of BENCHMARK.json. The
exchange layer (``dedup_by_url`` -> ``minhash_dedup`` over an
``extract_pages(emit="text")`` stage) is measured in every traced run,
on the seed's dedup corpus; it has no end-to-end workload, because its
passes are dominated by Ray's per-stage scheduling, which swings more
than the largest allowed bound with host load.

``--trace 0`` (end-to-end): the set-up (``ray.init``, corpus
generation, materialization, the oracle's reference rows, one checked
warm-up pass) is done SETUP_REPEATS times in fresh Ray sessions and
``setup_s`` is their median. Then timed passes run back to back for
``--seconds`` (at least MIN_PASSES), each materialized and then checked
against the oracle outside its timing. Throughput, CPU and memory
metrics are medians over passes.

``--trace 1`` (per layer): one set-up, then for ``--seconds`` cycles
of: one in-process pass of ``ExtractPages.__call__`` over the
workload's batches that also traces ``bake_tag``; LAYER_ROUNDS rounds
over the same batches with each batch traced and untraced in turn; the
untraced Ray stage; an identity ``map_batches`` floor; and the dedup
chain's stages one at a time. The spans go to
``.perfbench_out/trace_<workload>.tsv``. Per batch, the layers' self
times, less the tracer's own cost, must sum to within
LAYER_SUM_TOLERANCE of the untraced call (median over batches), or the
run fails: otherwise the traced split does not describe the untraced
program.

The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
record the host and the session.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

NUM_CPUS = 1
BATCH_SIZE = 64          # extract_pages' default
SETUP_REPEATS = 2
MIN_PASSES = 3
DEDUP_THRESHOLD = 0.8    # minhash_dedup's default
LAYER_ROUNDS = 3
LAYER_SUM_TOLERANCE = 0.1

WORKLOADS = {
    "markup_dense": {"emit": "full", "swish_encoding": "UTF-8"},
    # latin1 TXT rows transcode under an ISO-8859-1 SWISH_ENCODING
    "text_bulk": {"emit": "full", "swish_encoding": "ISO-8859-1"},
}
# the traced run's exchange-layer corpus and its extraction settings
CHAIN = "dedup_chain"
CHAIN_CFG = {"emit": "text", "swish_encoding": "UTF-8"}

END_TO_END = {"setup_s": "s", "docs_per_s": "1/s", "mb_per_s": "MB/s",
              "cpu_ms_per_doc": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "pipeline.binary_views.ms_per_doc": "ms",
    "libxml.parse.ms_per_doc": "ms",
    "libxml.parse.events_per_doc": "count",
    "sax.replay.self_ms_per_doc": "ms",
    "sax.bake_tag.calls_per_doc": "count",
    "sax.bake_tag.ms_per_doc": "ms",
    "tokenizer.ms_per_doc": "ms",
    "tokenizer.tokens_per_doc": "count",
    "extractor.finish.ms_per_doc": "ms",
    "pipeline.column_build.ms_per_doc": "ms",
    "pipeline.out_bytes_per_doc": "bytes",
    "ray.stage_overhead_ms_per_doc": "ms",
    "ray.floor_ms_per_batch": "ms",
    "dedup.by_url.s": "s",
    "dedup.by_url.keep_ratio": "ratio",
    "dedup.minhash.s": "s",
    "dedup.minhash.candidate_pairs": "count",
    "dedup.minhash.verified_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.layer_sum_ratio": "ratio",
}


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# ---- environment --------------------------------------------------------

def prepare_environment() -> str:
    """Keep temp files (gcc, Ray session) inside the checkout, when the
    path is short enough for Ray's unix sockets."""
    tmp = os.path.join(ROOT, ".pbtmp", str(os.getpid()))
    # <tmp>/ray/session_<date>_<pid>/sockets/plasma_store must fit in
    # the 107-byte AF_UNIX limit
    if len(tmp) + 70 <= 107:
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        os.environ["RAY_TMPDIR"] = tmp
    else:
        log(f"checkout path too long for Ray sockets; using Ray's default "
            f"temp dir instead of {tmp}")
    sys.path.insert(0, ROOT)
    return tmp


def native_status() -> dict:
    from swishray import _native, libxml, tokenizer
    return {
        "swishsax_built": _native.swishsax is not None,
        "swishtok_built": _native.swishtok is not None,
        "swishsax_in_use": getattr(libxml, "_sax_native", None) is not None,
        "swishtok_in_use": getattr(tokenizer, "_native", None) is not None,
    }


def libxml2_version() -> str:
    import ctypes
    try:
        lib = ctypes.CDLL("libxml2.so.2")
        return ctypes.c_char_p.in_dll(lib, "xmlParserVersion").value.decode()
    except (OSError, ValueError):
        return "unknown"


def calibration_mb_per_s() -> float:
    """Single-core probe: in-process extraction of a fixed 30-page
    markup corpus (seed 0), best of 3, in MB/s."""
    from corpus import make_table
    from swishray.extractor import DocumentExtractor
    table, _ = make_table("markup_dense", 0, 0.05)
    rows = list(zip(table.column("url").to_pylist(),
                    table.column("html").to_pylist()))
    mb = sum(len(b) for _, b in rows) / 1e6
    ex = DocumentExtractor()
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for url, body in rows:
            ex.extract(url, body)
        best = min(best, time.perf_counter() - t0)
    return mb / best


def cpu_model() -> str:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def host_record() -> dict:
    import pyarrow
    import ray
    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": NUM_CPUS,
        "ram_gb": round(mem_kb / 2**20, 1),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "libxml2": libxml2_version(),
        "calib_single_core_mb_per_s": round(calibration_mb_per_s(), 3),
        "native": native_status(),
    }


# ---- Ray session ----------------------------------------------------------

class Session:
    """One local Ray session; ``close`` shuts it down and waits until
    every process it started has ended."""

    def __init__(self):
        import ray
        from ray.data import DataContext
        ray.init(address="local", num_cpus=NUM_CPUS,
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", object_store_memory=512 << 20,
                 runtime_env={"env_vars": {"PYTHONPATH": ROOT}})
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def close(self) -> None:
        import ray
        import procstat
        pids = procstat.descendants()
        ray.shutdown()
        killed = procstat.reap(pids)
        if killed:
            log(f"killed {len(killed)} Ray processes that outlived shutdown")


# ---- workloads ------------------------------------------------------------

class Workload:
    """Inputs, the Ray extraction stage and its check for one corpus
    (a workload, or CHAIN). The oracle's reference rows are built here,
    so every timed pass sees the same driver state."""

    def __init__(self, name: str, seed: int):
        import oracle
        import pyarrow.compute as pc
        import ray
        from corpus import make_table
        self.name = name
        self.cfg = CHAIN_CFG if name == CHAIN else WORKLOADS[name]
        self.table, self.near = make_table(name, seed)
        self.n_docs = self.table.num_rows
        self.n_bytes = pc.sum(pc.binary_length(self.table["html"])).as_py()
        # about one block per batch; repartition writes compact blocks
        # (blocks that are slices of one big table run measurably slower)
        self.ds = ray.data.from_arrow(self.table).repartition(
            -(-self.n_docs // BATCH_SIZE)).materialize()
        self.ref = oracle.reference_rows(self.table,
                                         self.cfg["swish_encoding"])
        self.attempted = self.failed = 0

    def extract(self):
        from swishray.pipeline import extract_pages
        keep = ("doc_id",) if self.name == CHAIN else ()
        return extract_pages(self.ds, emit=self.cfg["emit"],
                             swish_encoding=self.cfg["swish_encoding"],
                             batch_size=BATCH_SIZE,
                             keep_input_columns=keep)

    def check(self, *outputs) -> None:
        """Count one pass's input rows, and those that fail the oracle:
        the extraction output, or the chain's (kept, pairs)."""
        import oracle
        tables = [to_table(ds) for ds in outputs]
        if self.name == CHAIN:
            bad = oracle.failed_dedup_rows(self.table, *tables, self.near,
                                           self.ref, DEDUP_THRESHOLD)
        else:
            bad = oracle.failed_extraction_rows(tables[0], self.ref)
        self.attempted += self.n_docs
        self.failed += bad


def to_table(ds):
    """A materialized dataset as one Arrow table (no columns if empty)."""
    import pyarrow as pa
    import ray
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def set_up(name: str, seed: int):
    """A fresh session, the workload and one checked warm-up pass."""
    t0 = time.perf_counter()
    session = Session()
    try:
        work = Workload(name, seed)
        work.check(work.extract().materialize())
    except BaseException:
        session.close()
        raise
    return session, work, time.perf_counter() - t0


# ---- end-to-end run ------------------------------------------------------

def run_end_to_end(name: str, seed: int, seconds: float):
    import oracle
    import procstat

    setups, attempted, failed = [], 0, 0
    for _ in range(SETUP_REPEATS - 1):
        session, work, dt = set_up(name, seed)
        session.close()
        setups.append(dt)
        attempted, failed = attempted + work.attempted, failed + work.failed
    session, work, dt = set_up(name, seed)
    setups.append(dt)
    try:
        passes = []
        with procstat.RssSampler() as rss:
            t_end = time.perf_counter() + seconds
            while len(passes) < MIN_PASSES or time.perf_counter() < t_end:
                cpu0 = procstat.tree_cpu_seconds()
                rss.active.set()
                t0 = time.perf_counter()
                out = work.extract().materialize()
                wall = time.perf_counter() - t0
                peak = rss.take_peak()
                cpu = procstat.cpu_delta(cpu0, procstat.tree_cpu_seconds())
                passes.append((wall, cpu, peak))
                work.check(out)
                del out
    finally:
        session.close()

    def med(f):
        return statistics.median(f(*p) for p in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "docs_per_s": med(lambda w, c, r: work.n_docs / w),
        "mb_per_s": med(lambda w, c, r: work.n_bytes / 1e6 / w),
        "cpu_ms_per_doc": med(lambda w, c, r: 1e3 * c / work.n_docs),
        # the extraction's footprint; Ray's services are left out
        "peak_rss_mb": med(lambda w, c, r: r["driver+workers"] / 2**20),
    }
    session_rec = {
        "workload": name, "seed": seed, "docs": work.n_docs,
        "input_mb": round(work.n_bytes / 1e6, 3),
        "setup_s": [round(s, 3) for s in setups],
        "pass_s": [round(p[0], 3) for p in passes],
        "peak_rss_mb_by_role": {
            k: round(med(lambda w, c, r: r[k] / 2**20), 1)
            for k in procstat.PEAKS},
        # the host-speed probe again: a drift against the host record's
        # value moves every timing of the run with it
        "calib_single_core_mb_per_s_after": round(calibration_mb_per_s(), 3),
        "oracle": oracle.summary(work.ref),
    }
    return (metrics, attempted + work.attempted, failed + work.failed,
            session_rec)


# ---- traced run ------------------------------------------------------------

def run_traced(name: str, seed: int, seconds: float):
    import oracle
    import tracing

    session, work, _ = set_up(name, seed)
    try:
        chain = Workload(CHAIN, seed)
        batches = list(work.ds.iter_batches(batch_size=BATCH_SIZE,
                                            batch_format="pyarrow"))
        cycles, stage_s = [], []
        tracer = tracing.Tracer()
        t_end = time.perf_counter() + seconds
        while not cycles or time.perf_counter() < t_end:
            m, stages, extracted = extraction_layers(work, batches, tracer)
            work.check(extracted)
            with tracer.stage("ray.dedup_chain_extract"):
                t0 = time.perf_counter()
                extracted = chain.extract().materialize()
                stages["chain_extract"] = time.perf_counter() - t0
            chain.check(*exchange_layers(chain, extracted, tracer, m,
                                         stages))
            cycles.append(m)
            stage_s.append(stages)
            del extracted
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace_{name}.tsv")
        tracer.write(trace_path)
    finally:
        session.close()

    metrics = {k: statistics.median(c[k] for c in cycles) for k in PER_LAYER}
    attempted = work.attempted + chain.attempted
    failed = work.failed + chain.failed
    if abs(metrics["trace.layer_sum_ratio"] - 1.0) > LAYER_SUM_TOLERANCE:
        # the traced split does not describe the untraced extraction:
        # count the workload's rows as failed once
        log(f"layer self times sum to {metrics['trace.layer_sum_ratio']:.3f} "
            f"of the untraced ExtractPages.__call__ time "
            f"(want 1 +- {LAYER_SUM_TOLERANCE})")
        failed += work.n_docs
    st = {k: statistics.median(s[k] for s in stage_s) for k in stage_s[0]}
    chain_s = {k: st[k] for k in ("chain_extract", "by_url", "minhash")}
    session_rec = {
        "workload": name, "seed": seed, "docs": work.n_docs,
        "cycles": len(cycles), "trace_file": trace_path,
        "inproc_docs_per_s": {
            "traced": round(work.n_docs / st["inproc_traced"], 2),
            "untraced": round(work.n_docs / st["inproc_untraced"], 2)},
        "span_cost_ns": round(st["span_cost_ns"], 1),
        "extract_layer_shares": layer_shares(metrics),
        "ray_extract_stage_s": round(st["extract"], 4),
        "dedup_chain_stage_shares": {
            k: round(v / sum(chain_s.values()), 4) for k, v in chain_s.items()},
        "oracle": oracle.summary(work.ref),
    }
    return metrics, attempted, failed, session_rec


def extraction_layers(work, batches, tracer):
    """The extraction layers of one workload: LAYER_ROUNDS in-process
    rounds of ``ExtractPages.__call__`` over the same batches, each batch
    traced and untraced in turn, one pass tracing ``bake_tag``, then the
    untraced Ray stage and an identity ``map_batches`` floor. Returns
    the layer metrics, stage seconds and the Ray stage output."""
    import tracing
    from swishray.pipeline import ExtractPages

    n = work.n_docs
    emit, enc = work.cfg["emit"], work.cfg["swish_encoding"]
    m = dict.fromkeys(PER_LAYER, 0.0)

    call = tracing.traced_extract_pages(tracer, emit, enc)
    plain = ExtractPages(emit=emit, swish_encoding=enc)
    # first calls (extractor build, lazy imports) stay outside the timing
    plain(batches[0])
    since = len(tracer)
    with tracing.patched(tracer, bake_tag=True):
        for b in batches:
            call(b)
    bake_calls = tracer.calls("sax.bake_tag", since)
    bake_ms = tracer.self_ms(since).get("sax.bake_tag", 0)
    tracer.counts.clear()

    cost_ns = tracing.span_cost_ns()
    since = len(tracer)
    ratios, out_bytes, traced_s, plain_s = [], 0, 0.0, 0.0
    for r in range(LAYER_ROUNDS):
        for i, b in enumerate(batches):
            # which of the two runs first alternates, so neither gets
            # the batch's warm caches every time
            for traced in ((True, False) if (i + r) % 2 else (False, True)):
                if traced:
                    mark = len(tracer)
                    with tracing.patched(tracer):
                        t0 = time.perf_counter()
                        out = call(b)
                        dt_traced = time.perf_counter() - t0
                    own_b = sum(tracer.self_ms(mark, cost_ns).values())
                else:
                    t0 = time.perf_counter()
                    plain(b)
                    dt_plain = time.perf_counter() - t0
            traced_s += dt_traced
            plain_s += dt_plain
            ratios.append(own_b / (1e3 * dt_plain))
            if r == 0:
                out_bytes += out.nbytes
    own = tracer.self_ms(since, cost_ns)
    counts = dict(tracer.counts)
    tracer.counts.clear()
    per_doc = 1.0 / (n * LAYER_ROUNDS)

    with tracer.stage("ray.extract_stage"):
        t0 = time.perf_counter()
        extracted = work.extract().materialize()
        ray_s = time.perf_counter() - t0
    with tracer.stage("ray.identity_floor"):
        t0 = time.perf_counter()
        work.ds.map_batches(lambda b: b, batch_format="pyarrow",
                            batch_size=BATCH_SIZE,
                            zero_copy_batch=True).materialize()
        floor_s = time.perf_counter() - t0

    for metric, span in (
            ("pipeline.binary_views.ms_per_doc", "pipeline.binary_views"),
            ("libxml.parse.ms_per_doc", "libxml.parse"),
            ("sax.replay.self_ms_per_doc", "sax.replay"),
            ("tokenizer.ms_per_doc", "tokenizer"),
            ("extractor.finish.ms_per_doc", "extractor.extract"),
            ("pipeline.column_build.ms_per_doc", "pipeline.call")):
        m[metric] = own.get(span, 0) * per_doc
    m["libxml.parse.events_per_doc"] = counts.get("sax.replay", 0) * per_doc
    m["tokenizer.tokens_per_doc"] = counts.get("tokenizer", 0) * per_doc
    m["sax.bake_tag.calls_per_doc"] = bake_calls / n
    m["sax.bake_tag.ms_per_doc"] = bake_ms / n
    m["pipeline.out_bytes_per_doc"] = out_bytes / n
    m["ray.stage_overhead_ms_per_doc"] = 1e3 * (ray_s - plain_s / LAYER_ROUNDS) / n
    m["ray.floor_ms_per_batch"] = 1e3 * floor_s / len(batches)
    m["trace.overhead_frac"] = 1.0 - plain_s / traced_s
    # per batch: layer self times over the untraced call of that batch
    m["trace.layer_sum_ratio"] = statistics.median(ratios)
    stages = {"extract": ray_s,
              "inproc_traced": traced_s / LAYER_ROUNDS,
              "inproc_untraced": plain_s / LAYER_ROUNDS,
              "span_cost_ns": cost_ns}
    return m, stages, extracted


def exchange_layers(chain, extracted, tracer, m, stages):
    """dedup_by_url and minhash_dedup over the dedup corpus' extraction
    output, one stage at a time, plus the LSH candidate count. Fills the
    dedup.* metrics and stage seconds; returns the chain's outputs."""
    import oracle
    from swishray.ops.dedup import (lsh_candidate_pairs, minhash_dedup,
                                    minhash_signatures)
    from swishray.pipeline import dedup_by_url

    with tracer.stage("dedup.by_url"):
        t0 = time.perf_counter()
        kept = dedup_by_url(extracted).materialize()
        stages["by_url"] = time.perf_counter() - t0
    with tracer.stage("dedup.minhash"):
        t0 = time.perf_counter()
        pairs = minhash_dedup(kept, threshold=DEDUP_THRESHOLD,
                              key="doc_id", col="text").materialize()
        stages["minhash"] = time.perf_counter() - t0
    cand = to_table(lsh_candidate_pairs(
        minhash_signatures(kept, col="text", key="doc_id"), key="doc_id"))
    distinct = len(set(zip(oracle.column(cand, "a"),
                           oracle.column(cand, "b"))))
    m["dedup.by_url.s"] = stages["by_url"]
    m["dedup.by_url.keep_ratio"] = kept.count() / chain.n_docs
    m["dedup.minhash.s"] = stages["minhash"]
    m["dedup.minhash.candidate_pairs"] = distinct
    m["dedup.minhash.verified_ratio"] = (pairs.count() / distinct
                                         if distinct else 0.0)
    return kept, pairs


def layer_shares(m: dict) -> dict:
    """Each extraction layer's share of the traced per-doc time
    (``sax_replay`` includes its ``bake_tag`` calls)."""
    layers = {
        "binary_views": m["pipeline.binary_views.ms_per_doc"],
        "libxml_parse": m["libxml.parse.ms_per_doc"],
        "sax_replay": m["sax.replay.self_ms_per_doc"],
        "tokenizer": m["tokenizer.ms_per_doc"],
        "extractor_finish": m["extractor.finish.ms_per_doc"],
        "column_build": m["pipeline.column_build.ms_per_doc"],
    }
    total = sum(layers.values()) or 1.0
    return {k: round(v / total, 4) for k, v in layers.items()}


# ---- entry point ---------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "swishray", "__init__.py")):
        log(f"no swishray package under {ROOT}; run from the repo root")
        return 2
    tmp = prepare_environment()
    # a terminated run still shuts its Ray session down (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        host = host_record()
        print(json.dumps({"host": host}), flush=True)
        if not all(host["native"].values()):
            log(f"native extensions missing, Python fallback measured: "
                f"{host['native']}")
        run = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed, session_rec = run(
            args.workload, args.seed, args.seconds)
        print(json.dumps({"session": session_rec}), flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(tmp))
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
