"""Extraction tasks sized at run time (``util.task_rows``).

``extract_pages`` takes its rows per Ray task
from the input's rows and bytes as Ray knows them before the stage
runs (``infer_metadata`` of the plan's last operator) and the
session's CPUs; ``batch_size`` only when the size is unknown. The
rule must not change a single output value, and the Ray internal it
reads is pinned here, so that an upgrade which changes it fails
loudly instead of silently falling back to ``batch_size``."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from swishray import util
from swishray.ops.tiered import tiered_extract
from swishray.pipeline import ExtractPages, extract_pages
from swishray.util import TASK_BYTES, rows_per_task, task_rows

# the benchmark workloads' extraction settings
ENCODING = {"markup_dense": "UTF-8", "text_bulk": "ISO-8859-1"}


def _pages(workload, seed):
    """The workload's seeded table in 64-row blocks, materialized."""
    import ray.data as rd
    from perfbench.corpus import make_table
    table, _ = make_table(workload, seed)
    return rd.from_arrow(table).repartition(
        -(-table.num_rows // 64)).materialize()


def _sorted(ds, reverse=False):
    """The output sorted by url, its blocks joined in input order (by
    their first ``doc_id``, which rises through the input) or, with
    ``reverse``, in the opposite order."""
    import ray
    blocks = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    blocks.sort(key=lambda t: t.column("doc_id")[0].as_py(),
                reverse=reverse)
    return pa.concat_tables(blocks).sort_by([("url", "ascending")])


def test_rows_per_task_rule():
    # a small input: one task per CPU
    assert rows_per_task(600, 4 << 20, 1) == 600
    assert rows_per_task(600, 4 << 20, 4) == 150
    assert rows_per_task(601, 4 << 20, 4) == 151
    # a large input: the byte budget, rounded up to a multiple of cpus
    assert rows_per_task(6000, 20 * TASK_BYTES, 4) == 300
    assert rows_per_task(6000, 21 * TASK_BYTES, 4) == 250
    assert rows_per_task(2400, 5 * TASK_BYTES, 1) == 480
    # never more tasks than rows, never an empty task
    assert rows_per_task(3, 1 << 40, 4) == 1
    assert rows_per_task(1, 0, 8) == 1
    assert rows_per_task(0, 0, 4) == 1
    for rows in (1, 7, 64, 999):
        for nbytes in (0, 1, TASK_BYTES, 50 * TASK_BYTES):
            for cpus in (1, 2, 4, 32):
                r = rows_per_task(rows, nbytes, cpus)
                assert 1 <= r <= rows
                assert -(-rows // r) <= rows


def test_infer_metadata_materialized_from_arrow(ray_session):
    import ray.data as rd
    t = pa.table({"url": [f"u{i}" for i in range(100)],
                  "html": [b"x" * 1000] * 100})
    ds = rd.from_arrow(t).repartition(4).materialize()
    meta = ds._logical_plan.dag.infer_metadata()
    assert meta.num_rows == 100
    assert meta.size_bytes >= 100_000
    # far under TASK_BYTES: one task per CPU
    assert task_rows(ds, 64) == -(-100 // util._session_cpus())


def test_infer_metadata_read_parquet(ray_session, tmp_path):
    import ray.data as rd
    t = pa.table({"url": [f"u{i}" for i in range(40)],
                  "html": [b"y" * 500] * 40})
    pq.write_table(t, tmp_path / "pages.parquet")
    ds = rd.read_parquet(str(tmp_path / "pages.parquet"))
    meta = ds._logical_plan.dag.infer_metadata()
    assert meta.num_rows == 40
    assert meta.size_bytes > 0
    assert task_rows(ds, 64) == -(-40 // util._session_cpus())


def test_unknown_size_after_lazy_map_batches(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(pa.table({"url": ["a", "b", "c"]})).map_batches(
        lambda b: b, batch_format="pyarrow")
    meta = ds._logical_plan.dag.infer_metadata()
    assert meta.num_rows is None and meta.size_bytes is None
    assert task_rows(ds, 64) == 64
    assert task_rows(ds, 7) == 7


def test_stage_named_after_its_class(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(pa.table({"url": ["a.html"], "html": [b"<p>x</p>"],
                                 "body": [b"<p>x</p>"]}))
    assert (extract_pages(ds)._logical_plan.dag.name
            == "MapBatches(ExtractPages)")
    assert (tiered_extract(ds)._logical_plan.dag.name
            == "MapBatches(TieredExtract)")
    assert extract_pages(ds).take_all()[0]["nwords"] == 1


@pytest.mark.parametrize("emit", ["text", "buffers", "full"])
@pytest.mark.parametrize("seed", [31, 32])
@pytest.mark.parametrize("workload", ["markup_dense", "text_bulk"])
def test_rule_output_equals_64_row_tasks(ray_session, workload, seed, emit):
    ds = _pages(workload, seed)
    assert task_rows(ds, 64) != 64
    kw = dict(swish_encoding=ENCODING[workload], emit=emit,
              keep_input_columns=("doc_id",))
    sized = extract_pages(ds, **kw)
    kw.update(config_xml=None, xinclude_docs=None)
    fixed = util.map_batches_stateful(
        ds, ExtractPages, fn_constructor_kwargs=kw,
        batch_format="pyarrow", batch_size=64, zero_copy_batch=True)
    a, b = _sorted(sized), _sorted(fixed)
    assert a.num_rows == ds.count()
    assert a.equals(b)


@pytest.mark.parametrize("workload", ["markup_dense", "text_bulk"])
def test_block_order_does_not_change_the_output(ray_session, workload):
    """No output column depends on the order its blocks are joined in
    (no dictionary whose order follows the blocks): 64-row tasks'
    blocks joined in reverse give an equal table."""
    ds = _pages(workload, 31)
    out = util.map_batches_stateful(
        ds, ExtractPages, fn_constructor_kwargs=dict(
            swish_encoding=ENCODING[workload], emit="full",
            keep_input_columns=("doc_id",)),
        batch_format="pyarrow", batch_size=64,
        zero_copy_batch=True).materialize()
    assert out.num_blocks() > 1
    assert _sorted(out).equals(_sorted(out, reverse=True))
