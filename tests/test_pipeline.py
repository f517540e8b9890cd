"""Ray Data pipeline integration tests (one shared Ray session)."""

import pyarrow as pa
import pytest


def _row_kinds(url: str, body: bytes) -> set[str]:
    """The input shapes a corpus row exercises."""
    if not body:
        return {"empty"}
    kinds = {url.rsplit("/", 1)[-1].split(".", 1)[1]}  # html, xml, txt.gz
    if url.endswith(".xml") and b"xmlns:" in body:
        kinds.add("namespaced xml")
    if body.endswith(b"<p unclosed=yes>"):
        kinds.add("tag soup")
    if b"\x00" in body and not url.endswith(".gz"):
        kinds.add("nul")
    if url.endswith(".txt"):
        try:
            body.decode("utf-8")
        except UnicodeDecodeError:
            kinds.add("latin1")
    return kinds


@pytest.mark.parametrize("workload, want", [
    ("markup_dense", {"html", "namespaced xml", "tag soup", "nul",
                      "empty"}),
    ("text_bulk", {"html", "txt", "latin1", "txt.gz"}),
])
def test_extract_pages_matches_unit_extractor(corpus_pages, workload,
                                              want):
    """Pipeline output == direct per-document extraction (the unit
    path is itself byte-identical to the reference, test_conformance)."""
    from swishray.config import Config
    from swishray.extractor import DocumentExtractor
    from swishray.pipeline import extract_pages

    ds = corpus_pages(workload, 11, 40 if workload == "markup_dense" else 24)
    rows = ds.take_all()
    assert want <= set().union(*(_row_kinds(r["url"], r["html"])
                                 for r in rows))
    out = {r["url"]: r for r in
           extract_pages(ds, emit="full").take_all()}
    ex = DocumentExtractor(Config.default())
    assert len(out) == len(rows)
    for r in rows:
        rec = ex.extract(r["url"], r["html"])
        o = out[r["url"]]
        assert o["nwords"] == rec.docinfo.nwords, r["url"]
        assert o["text"].encode() == rec.metanames.get("swishdefault", b""), \
            r["url"]
        assert o["token_values"] == rec.token_values or \
            list(o["token_values"]) == rec.token_values, r["url"]


def test_extract_error_rows_do_not_kill_job(ray_session):
    import ray.data as rd
    from swishray.pipeline import extract_pages
    tbl = pa.table({
        "url": ["a.txt.gz", "b.html"],
        "warc_ts": pa.array([None, None], type=pa.timestamp("us")),
        "html": pa.array([b"\x1f\x8bnotgzip", b"<p>ok fine</p>"],
                         type=pa.binary()),
        "text": ["", ""],
        "lang": ["en", "en"],
    })
    out = extract_pages(rd.from_arrow(tbl)).take_all()
    by_url = {r["url"]: r for r in out}
    assert by_url["a.txt.gz"]["error"] is not None
    assert by_url["b.html"]["error"] is None
    assert by_url["b.html"]["nwords"] == 2


def test_row_columns_failure_path():
    from swishray.util import row_columns

    def fn(v):
        if v is None:
            return 0, "null_body"  # a row's own error is kept
        return 10 // v, None

    fields = [("q", pa.int64()), ("error", pa.string())]
    cols = row_columns([5, 0, None], fn, fields, failure=(-1,))
    assert cols["q"].type == pa.int64()
    assert cols["q"].to_pylist() == [2, -1, 0]
    assert cols["error"].to_pylist() == [
        None, "ZeroDivisionError: integer division or modulo by zero",
        "null_body"]
    # no failure values: the failed row is null in every field
    assert row_columns([0], fn, fields)["q"].to_pylist() == [None]
    empty = row_columns([], fn, fields)
    assert [len(a) for a in empty.values()] == [0, 0]
    assert empty["error"].type == pa.string()


def test_truncation_flag(ray_session):
    import ray.data as rd
    from swishray.pipeline import ExtractPages
    tbl = pa.table({
        "url": ["big.html"],
        "html": pa.array([b"<p>" + b"word " * 100 + b"</p>"],
                         type=pa.binary()),
    })
    ex = ExtractPages(max_doc_bytes=50)
    out = ex(tbl)
    assert out.column("error").to_pylist()[0].startswith("truncated@50")


def test_topwords_and_dedup(corpus_pages):
    from swishray.pipeline import extract_pages, top_n_words, dedup_by_url
    ds = corpus_pages("markup_dense", 10, 30)
    ext = extract_pages(ds, emit="full")
    top = top_n_words(ext, 5).take_all()
    assert len(top) == 5
    assert top[0]["total_count"] >= top[-1]["total_count"]
    # dedup: double the corpus, expect original count back
    doubled = ds.union(corpus_pages("markup_dense", 10, 30))
    ext2 = extract_pages(doubled, emit="text")
    assert dedup_by_url(ext2).count() == 30


def test_dedup_ops(ray_session):
    import ray.data as rd
    from swishray.ops.dedup import (exact_dedup, minhash_dedup,
                                    simhash_near_dups, ngram_jaccard)
    texts = ["the quick brown fox jumps over the lazy dog " * 5,
             "the quick brown fox jumps over the lazy dog " * 5 + "extra",
             "completely different content about ray data pipelines",
             "the quick brown fox jumps over the lazy dog " * 5]
    tbl = pa.table({"doc_id": pa.array(range(4), type=pa.int64()),
                    "text": texts})
    ds = rd.from_arrow(tbl)
    kept = exact_dedup(ds).take_all()
    assert sorted(r["doc_id"] for r in kept) == [0, 1, 2]  # 3 dups of 0
    pairs = minhash_dedup(ds, threshold=0.8).take_all()
    pairset = {(r["a"], r["b"]) for r in pairs}
    assert (0, 3) in pairset and (0, 1) in pairset
    assert not any(2 in p for p in pairset)
    sh = simhash_near_dups(ds, max_hamming=3).take_all()
    shp = {(r["a"], r["b"]) for r in sh}
    assert (0, 3) in shp
    assert ngram_jaccard(texts[0], texts[3]) == 1.0


def test_similarity_ops(ray_session):
    import numpy as np
    import ray.data as rd
    from swishray.ops.similarity import brute_force_topk, ivf_topk
    rng = np.random.RandomState(0)
    vecs = rng.randn(100, 16).astype(np.float32)
    tbl = pa.table({"vec_id": pa.array(range(100), type=pa.int64()),
                    "embedding": pa.array([v.tolist() for v in vecs],
                                          type=pa.list_(pa.float32()))})
    ds = rd.from_arrow(tbl)
    top = brute_force_topk(ds, [0], vecs[:1], k=5).take_all()
    assert len(top) == 5
    # rank 1 must be the query itself (cosine 1.0)
    best = max(top, key=lambda r: r["score"])
    assert best["vec_id"] == 0
    approx = ivf_topk(ds, [0], vecs[:1], k=5, n_centroids=4,
                      n_probe=2).take_all()
    assert 1 <= len(approx) <= 5
    assert any(r["vec_id"] == 0 for r in approx)


def test_multimodal_decode(ray_session):
    import numpy as np
    import ray.data as rd
    from swishray.ops.codecs import encode_png
    from swishray.ops.multimodal import (decode_images,
                                         synth_media_dataset)
    out = decode_images(synth_media_dataset(10)).take_all()
    assert len(out) == 10
    assert all(r["width"] == 32 and r["error"] is None for r in out)
    # REAL PNG payloads decode through the from-scratch codec
    rng = np.random.RandomState(9)
    px = rng.randint(0, 256, (6, 5, 3), dtype=np.uint8)
    real = rd.from_arrow(pa.table({
        "media_id": pa.array([1], type=pa.int64()),
        "payload": pa.array([encode_png(px)], type=pa.binary())}))
    o = decode_images(real).take_all()[0]
    assert o["error"] is None and (o["width"], o["height"]) == (5, 6)
    assert o["pixel_sum"] == int(px.astype(np.int64).sum())
    # REAL JPEG payloads decode through the from-scratch codec too
    from swishray.ops.jpeg import encode_jpeg
    flat = np.repeat(np.repeat(np.array([[64, 128]], np.uint8), 8, 0),
                     8, 1)
    jp = rd.from_arrow(pa.table({
        "media_id": pa.array([1], type=pa.int64()),
        "payload": pa.array([encode_jpeg(flat)], type=pa.binary())}))
    o = decode_images(jp).take_all()[0]
    assert o["error"] is None and (o["width"], o["height"]) == (16, 8)
    assert o["pixel_sum"] == int(flat.astype(np.int64).sum())
    # uncoded flavor (animated WebP; lossy VP8 decodes now) ->
    # NotImplementedError in the column
    bad = rd.from_arrow(pa.table({
        "media_id": pa.array([1], type=pa.int64()),
        "payload": pa.array([b"RIFF\x10\x00\x00\x00WEBP"
                             b"ANIM\x04\x00\x00\x00abcd"],
                            type=pa.binary())}))
    o = decode_images(bad).take_all()[0]
    assert "NotImplementedError" in o["error"]
    # corrupt file of a SUPPORTED format -> ValueError in the column
    trunc = rd.from_arrow(pa.table({
        "media_id": pa.array([1], type=pa.int64()),
        "payload": pa.array([encode_png(px)[:30]], type=pa.binary())}))
    o = decode_images(trunc).take_all()[0]
    assert "ValueError" in o["error"]


def test_windows_ops(ray_session):
    import ray.data as rd
    from swishray.ops.windows import tumbling_counts, sessionize
    ev = rd.read_parquet("/root/testdata/sf0.001/events.parquet")
    t = tumbling_counts(ev, "hour")
    assert t.count() > 0
    s = sessionize(ev, 1800)
    assert s.count() > 0


def test_salted_group_count(ray_session):
    import ray.data as rd
    from swishray.ops.partitioning import (salted_group_count, url_host,
                                           docs_per_host, add_host)
    assert url_host("https://Hot.Example/a/b.html") == "hot.example"
    # hot key: 900 of 1000 rows share one key
    keys = ["hot"] * 900 + [f"cold{i}" for i in range(100)]
    vals = list(range(1000))
    ds = rd.from_arrow(pa.table({"k": keys, "v": vals})).repartition(8)
    out = {r["k"]: (r["n"], r["sum_v"]) for r in
           salted_group_count(ds, "k", salt_buckets=8,
                              value_col="v").take_all()}
    assert out["hot"][0] == 900
    assert out["hot"][1] == sum(range(900))
    assert out["cold5"] == (1, 905)
    # host aggregate over extraction-shaped rows
    ds2 = rd.from_arrow(pa.table({
        "url": [f"https://h{i%3}.x/p{i}" for i in range(30)]}))
    hosts = {r["host"]: r["n"] for r in docs_per_host(ds2).take_all()}
    assert hosts == {"h0.x": 10, "h1.x": 10, "h2.x": 10}


def test_video_and_audio_decode(ray_session):
    import numpy as np
    from swishray.ops.codecs import encode_y4m
    from swishray.ops.multimodal import (SampleAudioFrames,
                                         sample_video_frames,
                                         synth_media_dataset)
    vids = synth_media_dataset(6, "video")
    out = sample_video_frames(vids, every_n=2).take_all()
    assert len(out) == 6
    assert all(r["n_frames"] == 8 and r["n_sampled"] == 4
               and r["error"] is None for r in out)
    # audio path (SWAU container)
    auds = synth_media_dataset(4, "audio")
    import pyarrow as pa
    res = auds.map_batches(SampleAudioFrames(every_n=100),
                           batch_format="pyarrow").take_all()
    assert len(res) == 4 and all(r["error"] is None for r in res)
    # REAL WAV payloads decode (stdlib wave as independent writer)
    import io
    import wave
    import ray.data as rd
    s = np.arange(-500, 500, dtype="<i2")
    buf = io.BytesIO()
    wf = wave.open(buf, "wb")
    wf.setnchannels(1)
    wf.setsampwidth(2)
    wf.setframerate(8000)
    wf.writeframes(s.tobytes())
    wf.close()
    wav_ds = rd.from_arrow(pa.table({
        "media_id": pa.array([0], type=pa.int64()),
        "payload": pa.array([buf.getvalue()], type=pa.binary())}))
    r = wav_ds.map_batches(SampleAudioFrames(every_n=100),
                           batch_format="pyarrow").take_all()[0]
    assert r["error"] is None and r["sample_rate"] == 8000
    assert r["n_frames_sampled"] == 10
    assert r["mean_abs_amplitude"] == float(
        np.abs(s[::100].astype(np.float64)).mean())
    # REAL Y4M payloads decode
    frames = np.arange(5 * 4 * 6, dtype=np.uint8).reshape(5, 4, 6)
    y4m_ds = rd.from_arrow(pa.table({
        "media_id": pa.array([0], type=pa.int64()),
        "payload": pa.array([encode_y4m(frames)], type=pa.binary())}))
    v = sample_video_frames(y4m_ds, every_n=2).take_all()[0]
    assert v["error"] is None and v["n_frames"] == 5
    assert v["n_sampled"] == 3
    assert v["y_sum"] == int(frames[::2].astype(np.int64).sum())
    # compressed video has no codec -> error column
    bad = rd.from_arrow(pa.table({
        "media_id": pa.array([0], type=pa.int64()),
        "payload": pa.array([b"\x00\x00\x01\xba mpeg-ps"],
                            type=pa.binary())}))
    e = sample_video_frames(bad).take_all()[0]
    assert "NotImplementedError" in e["error"]


def test_stage_state_cache_is_bounded():
    """The per-worker stage cache reuses an instance per (class,
    kwargs key) and keeps at most _TASK_STATE_MAX of them, dropping the
    least recently used: a stage broadcasting a fresh ray.put ref per
    call gets a new key each time and must not pin every one."""
    from swishray import util

    class Stage:
        def __init__(self, tag):
            self.tag = tag

        def __call__(self, batch):
            return self

    util._TASK_STATE_CACHE.clear()
    first = util._cached_call(None, Stage, {"tag": 0}, "k0")
    assert util._cached_call(None, Stage, {"tag": 0}, "k0") is first
    for i in range(1, 3 * util._TASK_STATE_MAX):
        util._cached_call(None, Stage, {"tag": i}, f"k{i}")
        util._cached_call(None, Stage, {"tag": 0}, "k0")  # keep k0 hot
    assert len(util._TASK_STATE_CACHE) == util._TASK_STATE_MAX
    assert util._cached_call(None, Stage, {"tag": 0}, "k0") is first
    util._TASK_STATE_CACHE.clear()


def test_lang_id_model_slot(ray_session, tmp_path):
    """lang_id's pluggable model: the factory runs once per worker
    process (in __init__, not per batch), and predictions flow from the
    injected model."""
    import ray.data as rd
    from swishray.ops.textstats import lang_id

    marker_dir = str(tmp_path / "loads")
    import os
    os.makedirs(marker_dir, exist_ok=True)

    def fake_factory(_dir=marker_dir):
        import os
        import uuid
        # one marker per factory invocation, named by its worker
        open(os.path.join(_dir, f"{os.getpid()}-{uuid.uuid4().hex}"),
             "w").close()

        def model(text: str) -> str:
            return "xx" if text else "und"
        return model

    tbl = pa.table({"doc_id": pa.array(range(64), type=pa.int64()),
                    "text": ["some text"] * 64})
    ds = rd.from_arrow(tbl).repartition(8)
    out = lang_id(ds, model_factory=fake_factory).take_all()
    assert all(r["lang_pred"] == "xx" for r in out)
    loads = os.listdir(marker_dir)
    pids = {name.split("-")[0] for name in loads}
    # 8 batches on a 4-CPU session: at most one load per worker
    assert 1 <= len(loads) <= 4 and len(pids) == len(loads), \
        f"model loaded {len(loads)} times in {len(pids)} workers"
    # default path unchanged
    out2 = lang_id(ds).take_all()
    assert all("lang_pred" in r for r in out2)


def test_swish_stream_missing_content_length():
    import pytest
    from swishray.sources import iter_swish_stream
    bad = (b"Content-Location: http://x.example/a.html\n"
           b"Parser-Type: TXT\n\nbody words here")
    with pytest.raises(ValueError, match="missing Content-Length"):
        list(iter_swish_stream(bad))


def test_xinclude_pipeline(ray_session):
    """In-memory XInclude through the Ray stage: hrefs resolve against
    a broadcast doc map (ray.put once, fetched once per worker)."""
    import ray
    import ray.data as rd
    from swishray.pipeline import extract_pages

    child = b"<doc2>\n i am included\n</doc2>\n"
    parent = (b'<?xml version="1.0"?>\n'
              b'<doc xmlns:xi="http://www.w3.org/2001/XInclude">\n'
              b' hello world\n'
              b' <xi:include href="part.xml"/>\n'
              b'</doc>\n')
    docs_ref = ray.put({"https://x.example/part.xml": child})
    pages = rd.from_arrow(pa.table({
        "url": pa.array(["https://x.example/doc.xml"]),
        "html": pa.array([parent], type=pa.binary()),
    }))
    out = extract_pages(pages, emit="full", xinclude_docs=docs_ref).take_all()
    assert len(out) == 1
    r = out[0]
    assert r["error"] is None
    # 2 parent words + 3 included words, positions renumbered
    assert r["nwords"] == 5
    vals = [bytes(v) for v in r["token_values"]]
    assert vals == [b"hello", b"world", b"i", b"am", b"included"]
    assert list(r["token_positions"]) == [1, 2, 3, 4, 5]


def test_xinclude_broadcast_failure_propagates(ray_session, monkeypatch):
    """A failed fetch of the broadcast doc map reaches the caller as
    itself, not as an AttributeError on the unfetched ObjectRef."""
    import ray
    from swishray.pipeline import ExtractPages

    class Lost(Exception):
        pass

    def lost(*args, **kwargs):
        raise Lost("doc map lost")

    ref = ray.put({"https://x.example/part.xml": b"<x/>"})
    monkeypatch.setattr(ray, "get", lost)
    with pytest.raises(Lost, match="doc map lost"):
        ExtractPages(xinclude_docs=ref)._extractor()


def test_xinclude_depth_cap():
    """A self-including doc (the reference recurses to death) stops at
    the engine's depth cap with a per-row error marker."""
    from swishray.config import Config
    from swishray.extractor import DocumentExtractor

    body = (b'<doc xmlns:xi="http://www.w3.org/2001/XInclude">'
            b'x <xi:include href="/self.xml"/></doc>')
    ex = DocumentExtractor(Config.default(),
                           xinclude_resolver={"/self.xml": body}.get)
    rec = ex.extract("/self.xml", body)
    assert rec.error == "xinclude-depth-exceeded"
    assert rec.docinfo.nwords > 0  # partial content still extracted


def test_xinclude_missing_doc_skipped():
    """Unresolvable href mirrors the reference's SWISH_WARN skip: no
    error row, include merged as nothing."""
    from swishray.config import Config
    from swishray.extractor import DocumentExtractor

    body = (b'<doc xmlns:xi="http://www.w3.org/2001/XInclude">'
            b'alpha <xi:include href="/nope.xml"/> beta</doc>')
    ex = DocumentExtractor(Config.default(), xinclude_resolver=lambda u: None)
    rec = ex.extract("/d.xml", body)
    assert rec.error is None
    assert rec.docinfo.nwords == 2


def test_resize_images_stage(ray_session):
    """Resize verb: output blobs re-decode at the new dimensions and
    pixels come from the source grid; non-SWIM payloads error per-row."""
    from swishray.ops.multimodal import (DecodeImages, ResizeImages,
                                         resize_images, synth_media_dataset)
    media = synth_media_dataset(30, "image")
    out = resize_images(media, out_w=8, out_h=6).take_all()
    assert len(out) == 30
    assert all(r["error"] is None for r in out)
    dec = DecodeImages()
    import pyarrow as pa2
    t = pa2.table({"media_id": [r["media_id"] for r in out],
                   "payload": pa2.array([r["payload"] for r in out],
                                        type=pa2.binary())})
    decoded = dec(t)
    assert decoded.column("width").to_pylist() == [8] * 30
    assert decoded.column("height").to_pylist() == [6] * 30
    # REAL PNG in -> resized PNG out with source-grid pixels
    import numpy as np
    from swishray.ops.codecs import decode_png, encode_png
    px = np.arange(16 * 12 * 3, dtype=np.uint8).reshape(12, 16, 3)
    res = ResizeImages(out_w=4, out_h=3)(pa2.table({
        "media_id": pa2.array([7], type=pa2.int64()),
        "payload": pa2.array([encode_png(px)], type=pa2.binary())}))
    assert res.column("error").to_pylist() == [None]
    small, _ = decode_png(res.column("payload").to_pylist()[0])
    ys = np.arange(3) * 12 // 3
    xs = np.arange(4) * 16 // 4
    assert (small == px[ys][:, xs]).all()
    # bad payload -> error row, stable schema
    bad = ResizeImages()(pa2.table({
        "media_id": pa2.array([0], type=pa2.int64()),
        "payload": pa2.array([b"JUNK"], type=pa2.binary())}))
    assert bad.column("error").to_pylist()[0] is not None


def test_multimodal_key_column_keeps_its_type():
    """The decode/sample/resize stages pass the key column through: an
    empty batch keeps an int64 key (not null-typed) and a large_string
    key stays large_string."""
    from swishray.ops.multimodal import (DecodeImages, ResizeImages,
                                         SampleAudioFrames,
                                         SampleVideoFrames)
    empty = pa.table({"media_id": pa.array([], pa.int64()),
                      "payload": pa.array([], pa.binary())})
    for stage in (DecodeImages(), SampleAudioFrames(), SampleVideoFrames(),
                  ResizeImages()):
        out = stage(empty)
        assert out.num_rows == 0
        assert out.schema.field("media_id").type == pa.int64(), stage
    keyed = pa.table({"media_id": pa.array(["a", "b"], pa.large_string()),
                      "payload": pa.array([b"JUNK", b""], pa.binary())})
    out = DecodeImages()(keyed)
    assert out.schema.field("media_id").type == pa.large_string()
    assert out.column("media_id").to_pylist() == ["a", "b"]
    assert all(e is not None for e in out.column("error").to_pylist())


def test_extract_pages_nul_bytes_match_unit_extractor(ray_session):
    """The zero-copy view contract: rows WITH a NUL byte must take
    the bytes+scrub path and extract byte-identically to the unit
    extractor (io.c no_nulls parity); NUL-free rows ride memoryviews.
    """
    import ray.data as rd
    from swishray.config import Config
    from swishray.extractor import DocumentExtractor
    from swishray.pipeline import extract_pages

    bodies = [
        b"<html><body><p>plain words here</p></body></html>",
        b"<html><body><p>nul\x00inside</p>\x00<p>tail</p></body></html>",
        b"<html><body><p>ctrl\x03char no nul</p></body></html>",
    ]
    ds = rd.from_arrow(pa.table({
        "url": [f"https://x.example/{i}.html" for i in range(3)],
        "html": pa.array(bodies, pa.binary())}))
    out = {r["url"]: r for r in
           extract_pages(ds, emit="text").take_all()}
    ex = DocumentExtractor(Config.default())
    for i, b in enumerate(bodies):
        url = f"https://x.example/{i}.html"
        rec = ex.extract(url, b)
        assert out[url]["nwords"] == rec.docinfo.nwords, url
        want = rec.metanames.get("swishdefault", b"")
        assert out[url]["text"] == want.decode("utf-8", "replace"), url


def test_binary_views_nul_rows():
    """A row with a NUL byte comes back as bytes (the scrub path sees
    it), every other row as a zero-copy view and a null as b"": a NUL
    as the chunk's first and last byte, inside a sliced chunk, next to
    null rows, in binary and large_binary chunks."""
    import pyarrow as pa
    from swishray.pipeline import _binary_views

    rows = [b"\x00head", b"plain", None, b"mid\x00dle", b"", None,
            b"x", b"tail\x00"]
    for typ in (pa.binary(), pa.large_binary()):
        arr = pa.array(rows, typ)
        for col in (arr, arr.slice(1), arr.slice(3, 3), arr.slice(4, 3),
                    pa.chunked_array([arr.slice(0, 3), arr.slice(3)])):
            want = col.to_pylist()
            views = _binary_views(col)
            assert [bytes(v) for v in views] == [w or b"" for w in want]
            assert [type(v) is bytes for v in views] == [
                w is None or b"\x00" in w for w in want]


def test_utf8_column_matches_per_row_decode():
    """The buffer-built title/text column equals the per-row
    ``decode("utf-8", "replace")`` column, for a valid batch and for a
    batch with one invalid row: a lone continuation byte, an encoded
    surrogate, an overlong encoding."""
    import pyarrow as pa
    from swishray.pipeline import _utf8_column

    ok = [b"alpha", "café 日本".encode(), b""]
    for bad in (None, b"\x80", b"a\xed\xa0\x80b", b"\xc0\xaf"):
        vals = ok + ([bad] if bad is not None else [])
        want = pa.array([v.decode("utf-8", "replace") for v in vals],
                        pa.large_string())
        assert _utf8_column(vals).equals(want)


def test_map_column_matches_per_row_build():
    """The buffer-built metanames/properties map column equals the
    per-row build from ``(name, v.decode("utf-8", "replace"))`` pairs,
    for a batch mixing an invalid-UTF-8 value, an empty value and an
    empty map, and for an empty batch."""
    from swishray.pipeline import _map_column

    mtype = pa.map_(pa.string(), pa.large_string())
    batches = [
        [{"swishtitle": "tï".encode(), "swishdefault": b"a\x03b"},
         {},
         {"swishtitle": b"caf\xe9", "keywords": b""},
         {"swishdefault": b"\xc0\xaf ok"}],
        [{}],
        [],
    ]
    for rows in batches:
        want = pa.array([[(k, v.decode("utf-8", "replace"))
                          for k, v in r.items()] for r in rows], mtype)
        got = _map_column(rows)
        assert got.type == mtype
        assert got.equals(want)
