"""Tiered extraction cascade (ops/tiered.py).

Covers the content sniff (magic bytes, not extension), gzip unwrap +
re-sniff, per-tier kernels (PDF content-stream, HTML main-content,
TXT encoding normalization), error rows, unified schema, and the
slim per-tier metrics aggregate.  End-to-end parity is additionally
oracle-checked by the ``tier_extract`` queries() entry."""
import gzip
import pathlib

import pyarrow as pa
import pytest

from swishray.ops.pdftext import build_simple_pdf
from swishray.ops.tiered import (TieredExtract, sniff_tier,
                                 tier_metrics, tiered_extract)

ROOT = str(pathlib.Path(__file__).resolve().parent.parent)

GOOD = ("The quick brown fox jumps over the lazy dog and then runs "
        "away into the forest with a bone it found there by the old "
        "mill near the river bank.")
HTML = ("<html><body><nav><a href='/'>Home</a></nav>"
        f"<article><p>{GOOD}</p></article>"
        "<footer>Copyright 2026 Example</footer></body></html>"
        ).encode()


def _run(rows, **kw):
    keys = [r[0] for r in rows]
    bodies = [r[1] for r in rows]
    te = TieredExtract(body_col="body", key="url",
                       min_stopword_density=0.0, **kw)
    return te(pa.table({
        "url": pa.array(keys, pa.string()),
        "body": pa.array(bodies, pa.large_binary()),
    })).to_pydict()


def test_sniff_tier_magic_bytes():
    assert sniff_tier(b"%PDF-1.4\n...") == "pdf"
    assert sniff_tier(b"<!DOCTYPE html><html>") == "html"
    assert sniff_tier(b"  <?xml version='1.0'?><r/>") == "html"
    assert sniff_tier(b"\xef\xbb\xbf<html>") == "html"
    assert sniff_tier(b"just some plain text") == "txt"
    # a stray '<' mid-text does not make it markup
    assert sniff_tier(b"a < b and b > c") == "txt"


def test_three_tiers_one_pass():
    pdf = build_simple_pdf([GOOD])
    out = _run([("p", pdf), ("h", HTML), ("t", GOOD.encode())])
    assert out["tier"] == ["pdf", "html", "txt"]
    assert [t.strip() for t in out["tier_text"]] == [GOOD] * 3
    assert out["error"] == [None] * 3
    assert out["was_gzip"] == [False] * 3


def test_gzip_unwrap_and_resniff():
    out = _run([("hz", gzip.compress(HTML, mtime=0)),
                ("tz", gzip.compress(GOOD.encode(), mtime=0))])
    assert out["tier"] == ["html", "txt"]
    assert out["was_gzip"] == [True, True]
    assert [t.strip() for t in out["tier_text"]] == [GOOD] * 2


def test_txt_latin1_fallback_and_nuls():
    body = b"caf\xe9 au\x00 lait"
    out = _run([("t", body)])
    assert out["tier"] == ["txt"]
    assert out["tier_text"] == ["caf\xe9 au lait"]


def test_error_rows_keep_schema():
    te = TieredExtract(body_col="body", key="url",
                       min_stopword_density=0.0)
    t = te(pa.table({
        "url": pa.array(["n", "g"], pa.string()),
        "body": pa.array([None, b"\x1f\x8b not really gzip"],
                         pa.large_binary()),
    }))
    d = t.to_pydict()
    assert d["error"] == ["null_body", "bad_gzip"]
    assert d["tier_text"] == ["", ""]
    assert d["tier_chars"] == [0, 0]
    assert d["was_gzip"] == [False, True]


@pytest.mark.parametrize("damage", ["truncated", "corrupt_deflate"])
def test_damaged_gzip_member_is_bad_gzip_row(damage):
    # EOFError (truncated) and zlib.error (bad deflate block) land in
    # the row's error like any other bad member
    z = gzip.compress(HTML, mtime=0)
    bad = z[:-12] if damage == "truncated" else z[:10] + b"\xff" + z[11:]
    out = _run([("bad", bad), ("h", HTML)])
    assert out["tier"] == ["txt", "html"]
    assert out["error"] == ["bad_gzip", None]
    assert out["was_gzip"] == [True, False]
    assert out["tier_text"][0] == ""


def test_dataset_stage_and_metrics(ray_session):
    import ray

    pdf = build_simple_pdf([GOOD])
    rows = ([{"url": f"p{i}", "body": pdf} for i in range(3)]
            + [{"url": f"h{i}", "body": HTML} for i in range(2)]
            + [{"url": "hz", "body": gzip.compress(HTML, mtime=0)}]
            + [{"url": "t0", "body": GOOD.encode()}])
    ds = ray.data.from_items(rows)
    ext = tiered_extract(ds, body_col="body", key="url",
                         min_stopword_density=0.0)
    m = {r["tier"]: r for r in
         tier_metrics(ext).take_all()}
    assert m["pdf"]["sum(docs)"] == 3
    assert m["html"]["sum(docs)"] == 3
    assert m["html"]["sum(gzip_members)"] == 1
    assert m["txt"]["sum(docs)"] == 1
    assert sum(r["sum(parse_errors)"] for r in m.values()) == 0
    assert m["txt"]["sum(chars)"] == len(GOOD)


def test_cli_tiered_extract(tmp_path):
    """swishray extract --tiered: crawl-mode cascade end-to-end into
    the resumable partitioned sink (own Ray session, subprocess)."""
    import subprocess
    import sys

    import pyarrow.parquet as pq

    pdf = build_simple_pdf([GOOD])
    rows = []
    for i in range(12):
        if i % 3 == 0:
            b = pdf
        elif i % 3 == 1:
            b = HTML
        else:
            b = (gzip.compress(GOOD.encode(), mtime=0)
                 if i % 6 == 5 else GOOD.encode())
        rows.append((f"http://ex.com/{i}", b))
    tbl = pa.table({
        "url": pa.array([u for u, _ in rows], pa.string()),
        "html": pa.array([b for _, b in rows], pa.large_binary()),
    })
    pages = tmp_path / "pages.parquet"
    pq.write_table(tbl, str(pages))
    out = tmp_path / "out"
    r = subprocess.run(
        [sys.executable, "-m", "swishray", "extract",
         "--pages", str(pages), "--out", str(out), "--tiered",
         "--num-cpus", "2"],
        capture_output=True, text=True, cwd=ROOT,
        env={**__import__("os").environ, "RAY_ADDRESS": ""})
    assert r.returncode == 0, r.stderr[-2000:]
    got = pa.concat_tables([
        pq.read_table(str(p))
        for p in out.glob("bucket=*/*.parquet")])
    assert got.num_rows == 12
    tiers = sorted(got.column("tier").to_pylist())
    assert tiers.count("pdf") == 4 and tiers.count("html") == 4
    assert sum(got.column("was_gzip").to_pylist()) == 2
