"""Resumable partitioned output + alternative sources + config write."""

import json
import os
import pathlib
import tempfile

import pyarrow as pa
import pytest

from test_config import TC

SWISH_XML = TC / "swish.xml"


def test_write_partitioned_and_resume(corpus_pages):
    from swishray.manifest import (read_manifests, write_partitioned,
                                   completed_buckets)
    from swishray.pipeline import extract_pages

    pages = corpus_pages("markup_dense", 3, 60)

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        ext = extract_pages(pages, emit="text")
        s1 = write_partitioned(ext, out, num_buckets=8)
        assert s1["rows"] == 60 and s1["skipped"] == 0
        mans = read_manifests(out)
        assert sum(m["rows"] for m in mans) == 60
        assert all("nwords" in m and "seconds" in m for m in mans)
        done_before = completed_buckets(out)
        # rerun: everything already complete -> all skipped
        ext2 = extract_pages(pages, emit="text")
        s2 = write_partitioned(ext2, out, num_buckets=8)
        assert s2["written"] == 0 and s2["skipped"] == len(done_before)
        # kill one bucket's manifest -> only that bucket rewrites
        victim = sorted(done_before)[0]
        os.remove(os.path.join(out, f"bucket={victim:04d}",
                               "_manifest.json"))
        ext3 = extract_pages(pages, emit="text")
        s3 = write_partitioned(ext3, out, num_buckets=8)
        assert s3["written"] == 1
        assert s3["skipped"] == len(done_before) - 1
        # output is valid parquet
        import pyarrow.parquet as pq
        total = 0
        for b in completed_buckets(out):
            bdir = os.path.join(out, f"bucket={b:04d}")
            for name in os.listdir(bdir):
                if name.endswith(".parquet"):
                    total += pq.read_table(os.path.join(bdir, name)).num_rows
        assert total == 60


def _read_all_buckets(out):
    import pyarrow.parquet as pq
    from swishray.manifest import completed_buckets
    urls = []
    for b in completed_buckets(out):
        bdir = os.path.join(out, f"bucket={b:04d}")
        for name in os.listdir(bdir):
            if name.endswith(".parquet"):
                urls += pq.read_table(
                    os.path.join(bdir, name)).column("url").to_pylist()
    return sorted(urls)


def test_write_partitioned_multifile_bucket(corpus_pages):
    """A bucket larger than one part file streams out as several files
    (the writer never holds a bucket as a single write unit)."""
    from swishray.manifest import read_manifests, write_partitioned
    from swishray.pipeline import extract_pages

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        ext = extract_pages(corpus_pages("markup_dense", 3, 120),
                            emit="text")
        s = write_partitioned(ext, out, num_buckets=2, rows_per_file=16)
        assert s["rows"] == 120
        mans = read_manifests(out)
        assert any(m["files"] > 1 for m in mans)
        assert sum(m["rows"] for m in mans) == 120
        assert len(_read_all_buckets(out)) == 120


def test_swish_stream_source(ray_session):
    from swishray.sources import swish_stream_table
    from swishray.pipeline import extract_pages
    import ray.data as rd

    body1 = b"<html><title>T1</title><body>alpha beta</body></html>"
    body2 = b"plain text words here"
    stream = (
        b"Content-Length: " + str(len(body1)).encode() + b"\n"
        b"Content-Location: http://x.example/a.html\n\n" + body1 +
        b"Content-Length: " + str(len(body2)).encode() + b"\n"
        b"Content-Location: http://x.example/b.weird\n"
        b"Parser-Type: TXT\n\n" + body2
    )
    tbl = swish_stream_table(stream)
    assert tbl.num_rows == 2
    out = {r["url"]: r for r in
           extract_pages(rd.from_arrow(tbl)).take_all()}
    a = out["http://x.example/a.html"]
    assert a["title"] == "T1" and a["nwords"] == 3
    b = out["http://x.example/b.weird"]
    # Parser-Type header overrides the ext-based parser (t/001 stdin)
    assert b["parser"] == "TXT"
    # TXT adds the uri as title tokens
    assert b["nwords"] > 4


def test_filelist_source(ray_session):
    from swishray.sources import read_filelist, is_skippable_line
    assert is_skippable_line("# comment")
    assert is_skippable_line("   ")
    assert not is_skippable_line("foo.txt")
    with tempfile.TemporaryDirectory() as tmp:
        p1 = pathlib.Path(tmp) / "a.txt"
        p1.write_text("hello world")
        fl = pathlib.Path(tmp) / "filelist"
        fl.write_text(f"# a comment\n\n{p1}\n")
        ds = read_filelist(str(fl))
        rows = ds.take_all()
        assert len(rows) == 1
        assert rows[0]["html"] == b"hello world"


def test_directory_source(ray_session):
    from swishray.sources import read_directory
    with tempfile.TemporaryDirectory() as tmp:
        (pathlib.Path(tmp) / "x.txt").write_text("one")
        (pathlib.Path(tmp) / ".hidden").write_text("no")
        sub = pathlib.Path(tmp) / "sub"
        sub.mkdir()
        (sub / "y.txt").write_text("two")
        rows = read_directory(tmp).take_all()
        names = sorted(r["url"].rsplit("/", 1)[-1] for r in rows)
        assert names == ["x.txt", "y.txt"]


@pytest.mark.needs_path(SWISH_XML)
def test_config_to_xml_roundtrip():
    from swishray.config import Config
    cfg = Config.default().add(str(SWISH_XML))
    xml = cfg.to_xml()
    cfg2 = Config.default().add(xml)
    assert set(cfg2.metanames) == set(cfg.metanames)
    assert set(cfg2.properties) == set(cfg.properties)
    assert cfg2.metanames["foo"].bias == 10
    assert cfg2.properties["description"].verbatim is True
    assert cfg2.parsers["text/foo"] == "XML"
    assert cfg2.mimes["au"] == "foo/bar"
    assert cfg2.cascade_meta_context is True


def test_write_partitioned_autosized_layout(ray_session, tmp_path):
    """num_buckets=None sizes buckets from input bytes (one bucket
    targets target_bucket_bytes) and persists the layout; a resumed
    run MUST reuse the recorded count and reject a conflicting one."""
    import json
    import os
    import pytest
    import ray.data as rd
    from swishray.manifest import read_manifests, write_partitioned

    n = 2000
    tbl = pa.table({
        "url": [f"https://ex.com/{i}" for i in range(n)],
        "text": ["payload " * 50] * n,          # ~400 B/row -> ~0.8 MB
        "nwords": pa.array([50] * n, type=pa.int32()),
    })
    out = str(tmp_path / "auto")
    ds = rd.from_arrow(tbl).repartition(8)
    s = write_partitioned(ds, out, num_buckets=None,
                          target_bucket_bytes=64 * 1024)
    layout = json.load(open(os.path.join(out, "_layout.json")))
    # ~0.8 MB / 64 KiB -> >= 10 buckets, and every bucket well under
    # a few x target (the whole-bucket-in-one-task budget holds)
    assert layout["num_buckets"] >= 10
    assert s["written"] == layout["num_buckets"] >= 10
    ms = read_manifests(out)
    assert sum(m["rows"] for m in ms) == n
    assert max(m["bytes"] for m in ms) < 4 * 64 * 1024

    # resume reuses the persisted layout (num_buckets=None again)
    s2 = write_partitioned(rd.from_arrow(tbl).repartition(8), out,
                           num_buckets=None,
                           target_bucket_bytes=64 * 1024)
    assert s2["written"] == 0 and s2["skipped"] == layout["num_buckets"]

    # a conflicting explicit count is an error, not corruption
    with pytest.raises(ValueError):
        write_partitioned(ds, out, num_buckets=layout["num_buckets"] + 1)


def test_write_partitioned_resumes_layout_with_mode(ray_session, tmp_path):
    """A ``_layout.json`` written when the writer still recorded a
    write ``mode`` resumes on its recorded bucket count."""
    import ray.data as rd
    from swishray.manifest import read_manifests, write_partitioned

    out = tmp_path / "old"
    out.mkdir()
    (out / "_layout.json").write_text(
        json.dumps({"num_buckets": 4, "mode": "stream"}))
    tbl = pa.table({"url": [f"https://ex.com/{i}" for i in range(40)]})
    s = write_partitioned(rd.from_arrow(tbl), str(out))
    assert s["rows"] == 40 and 1 <= s["written"] <= 4
    assert all(m["bucket"] < 4 for m in read_manifests(str(out)))


def test_warc_roundtrip_plain_and_gzip(ray_session, tmp_path):
    from swishray.sources import (build_warc_bytes, iter_warc_records,
                                  read_warc)
    recs = [(f"https://w.test/{i}", f"<html><body>doc {i}</body></html>"
             .encode()) for i in range(5)]
    for gz, name in [(False, "a.warc"), (True, "b.warc.gz")]:
        data = build_warc_bytes(recs, gzip_members=gz)
        parsed = list(iter_warc_records(data))
        assert [(r["url"], r["html"]) for r in parsed] == recs
        assert all(r["http_status"] == 200 and r["mime"] == "text/html"
                   for r in parsed)
        p = tmp_path / name
        p.write_bytes(data)
        rows = read_warc(str(p)).take_all()
        assert sorted(r["url"] for r in rows) == [u for u, _ in recs]
        assert all(isinstance(r["html"], bytes) for r in rows)


def test_warc_skips_non_response_records(ray_session):
    from swishray.sources import build_warc_bytes, iter_warc_records
    # splice a warcinfo record between two responses
    resp = build_warc_bytes([("https://w.test/0", b"<p>x</p>")])
    info = (b"WARC/1.0\r\nWARC-Type: warcinfo\r\n"
            b"Content-Type: application/warc-fields\r\n"
            b"Content-Length: 10\r\n\r\nrobots: ok\r\n\r\n")
    resp2 = build_warc_bytes([("https://w.test/1", b"<p>y</p>")])
    got = list(iter_warc_records(resp + info + resp2))
    assert [r["url"] for r in got] == ["https://w.test/0",
                                      "https://w.test/1"]


def test_write_warc_roundtrip(ray_session, tmp_path):
    """write_warc -> read_warc round-trips urls and bodies; files are
    content-addressed so a second identical run rewrites in place."""
    import glob
    import ray.data as rd
    from swishray.sources import read_warc, write_warc
    rows = [{"url": f"https://w.example/p{i}",
             "html": f"<html><body>doc {i} body</body></html>"
             .encode()} for i in range(20)]
    ds = rd.from_items(rows).repartition(3)
    out = str(tmp_path / "warcs")
    man = write_warc(ds, out)
    assert sum(man.column("n_records").to_pylist()) == 20
    files = sorted(glob.glob(f"{out}/part-*.warc.gz"))
    assert len(files) == len(set(man.column("path").to_pylist()))
    back = read_warc(files).to_pandas().sort_values("url") \
        .reset_index(drop=True)
    assert back["url"].tolist() == sorted(r["url"] for r in rows)
    want = {r["url"]: r["html"] for r in rows}
    assert all(bytes(b) == want[u]
               for u, b in zip(back["url"], back["html"]))
    assert (back["http_status"] == 200).all()
    # idempotence: identical rerun produces the same file set
    write_warc(ds, out)
    assert sorted(glob.glob(f"{out}/part-*.warc.gz")) == files
