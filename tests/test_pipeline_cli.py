"""`swishray pipeline` — the one-command pages->training-data chain
(extract -> quality -> boilerplate -> exact dedup -> near dedup ->
resumable partitioned parquet)."""

import glob
import pathlib
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq

ROOT = str(pathlib.Path(__file__).resolve().parent.parent)


def _pages(path, n=40):
    base = "<html><body>" + "".join(
        f"<p>Sentence number {j} ends with a period and has enough "
        f"words here.</p>" for j in range(30)) + \
        "<div>SITE FOOTER BOILERPLATE LINE</div></body></html>"
    rows = []
    for i in range(n):
        if i % 10 == 9:
            html = base                              # exact dups
        elif i % 10 == 8:
            html = base.replace("number 0", "number zero")  # near dup
        else:
            html = "<html><body>" + "".join(
                f"<p>Unique doc {i} sentence {j} with plenty of "
                f"distinct words to pass every quality gate "
                f"easily.</p>" for j in range(25)) + \
                "<div>SITE FOOTER BOILERPLATE LINE</div></body></html>"
        rows.append((f"https://s{i % 4}.example/p{i}", html.encode()))
    pq.write_table(pa.table({
        "url": pa.array([r[0] for r in rows]),
        "html": pa.array([r[1] for r in rows], pa.binary())}), path)


def test_pipeline_cli_end_to_end(tmp_path):
    pages = str(tmp_path / "pages.parquet")
    out = str(tmp_path / "out")
    _pages(pages)
    res = subprocess.run(
        [sys.executable, "-m", "swishray", "pipeline", "--pages",
         pages, "--out", out, "--num-cpus", "4", "--gopher",
         "--line-dedup", "--exact-dedup", "--near-dedup", "0.8"],
        capture_output=True, text=True, check=True, cwd=ROOT,
        timeout=420)
    assert "'errors': 0" in res.stdout
    import pyarrow.dataset as pads
    files = glob.glob(f"{out}/**/*.parquet", recursive=True)
    t = pads.dataset(files).to_table()
    texts = t.column("text").to_pylist()
    # 32 unique docs + 1 canonical from the dup cluster; the near-dup
    # variant cluster collapses into it at J>=0.8
    assert t.num_rows == 33
    assert len(set(texts)) == 33
    # corpus-wide boilerplate line stripped from every doc
    assert not any("FOOTER" in x for x in texts)
    assert sorted(t.column_names) == ["text", "url"]


def test_ray_init_honors_cluster_address(monkeypatch):
    """Under `ray job submit` RAY_ADDRESS points at the cluster — the
    CLI must join it instead of starting a capped local session."""
    import swishray.__main__ as m

    calls = {}

    class FakeRay:
        @staticmethod
        def is_initialized():
            return False

        @staticmethod
        def init(**kw):
            calls.update(kw)

    monkeypatch.setitem(__import__("sys").modules, "ray", FakeRay)
    monkeypatch.setenv("RAY_ADDRESS", "ray://head:10001")
    m._ray_init(4)
    assert calls["address"] == "ray://head:10001"
    assert "num_cpus" not in calls  # the cluster owns its size

    calls.clear()
    monkeypatch.setenv("RAY_ADDRESS", "local")
    m._ray_init(4)
    assert calls["address"] == "local" and calls["num_cpus"] == 4


def test_media_cli_file_and_dedup(tmp_path):
    import json

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from swishray.ops.codecs import encode_png

    img = np.arange(64, dtype=np.uint8).reshape(8, 8) * 3
    f = tmp_path / "one.png"
    f.write_bytes(encode_png(img))
    res = subprocess.run(
        [sys.executable, "-m", "swishray", "media", "--file", str(f)],
        capture_output=True, text=True, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    meta = json.loads(res.stdout)
    assert (meta["format"], meta["width"], meta["height"]) == \
        ("png", 8, 8)
    assert meta["pixel_sum"] == int(img.astype(np.int64).sum())

    # table mode: 6 images in 2 dhash groups (mirroring flips the
    # gradient-sign bits, Hamming 56; brightness variants within a
    # group hash identically) -> 6 pairs
    mirrored = np.ascontiguousarray(img[:, ::-1])
    blobs = [encode_png(((img if i % 2 == 0 else mirrored)
                         + i // 2).astype(np.uint8))
             for i in range(6)]
    tbl = tmp_path / "media.parquet"
    pq.write_table(pa.table({
        "media_id": pa.array(range(6), pa.int64()),
        "payload": pa.array(blobs, pa.binary())}), tbl)
    out = tmp_path / "pairs"
    res = subprocess.run(
        [sys.executable, "-m", "swishray", "media", "--table",
         str(tbl), "--out", str(out), "--mode", "dedup",
         "--num-cpus", "2"],
        capture_output=True, text=True, cwd=ROOT)
    assert res.returncode == 0, res.stderr[-2000:]
    pairs = pq.read_table(out)
    got = sorted(zip(pairs.column("a").to_pylist(),
                     pairs.column("b").to_pylist()))
    want = sorted((a, b) for a in range(6) for b in range(a + 1, 6)
                  if a % 2 == b % 2)
    assert got == want


def test_cli_pdf_file_modes(tmp_path, capsys):
    """The pdf subcommand: text / info / links / inspect over one
    local file, including an encrypted container."""
    import json
    from swishray.__main__ import main
    from swishray.ops.pdfbuild import build_pdf
    p = tmp_path / "doc.pdf"
    p.write_bytes(build_pdf(
        [["Hello CLI world", "second line"]], encrypt="aes-256",
        info={"Title": "T — ü"}, links=["https://x.example/1"]))
    assert main(["pdf", "--file", str(p)]) == 0
    assert capsys.readouterr().out == "Hello CLI world\nsecond line\n"
    assert main(["pdf", "--file", str(p), "--mode", "info"]) == 0
    assert json.loads(capsys.readouterr().out) == {"Title": "T — ü"}
    assert main(["pdf", "--file", str(p), "--mode", "links"]) == 0
    assert capsys.readouterr().out == "0\thttps://x.example/1\n"
    assert main(["pdf", "--file", str(p), "--mode", "inspect"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["n_pages"] == 1 and got["encryption"] == "aes-256"
