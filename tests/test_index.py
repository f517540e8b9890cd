"""Inverted-index sink + searcher (swish_xapian analog, swishray/index.py)."""

import collections
import pathlib
import shutil

import pyarrow as pa
import pytest

ROOT = str(pathlib.Path(__file__).resolve().parent.parent)


CORPUS = [
    (1, "alpha beta beta gamma"),
    (2, "beta gamma gamma delta"),
    (3, "alpha alpha epsilon"),
    (4, "delta"),
    (5, ""),
]


@pytest.fixture()
def idx_dir(tmp_path):
    return str(tmp_path / "idx")


def _build(ray, idx_dir, rows=CORPUS, **kw):
    import ray.data as rd
    from swishray.index import build_index
    t = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                  "text": pa.array([r[1] for r in rows], pa.string())})
    return build_index(rd.from_arrow(t), idx_dir, key="doc_id",
                       text_col="text", num_buckets=kw.pop("num_buckets", 3),
                       **kw)


def test_counts_match_python_recount(ray_session, idx_dir):
    from swishray.index import search_counts
    _build(ray_session, idx_dir)
    df = collections.Counter()
    tf = collections.Counter()
    for _, text in CORPUS:
        c = collections.Counter(text.split())
        for w, n in c.items():
            df[w] += 1
            tf[w] += n
    got = search_counts(idx_dir, list(df) + ["missing"]).to_pydict()
    for i, term in enumerate(got["term"]):
        assert got["doc_count"][i] == df[term]
        assert got["total_tf"][i] == tf[term]
    assert "missing" not in got["term"]
    assert set(got["term"]) == set(df)


def test_search_and_or_ranking(ray_session, idx_dir):
    from swishray.index import IndexSearcher
    _build(ray_session, idx_dir)
    s = IndexSearcher(idx_dir)
    # OR: doc2 scores beta(1)+gamma(2)=3; doc1 beta(2)+gamma(1)=3;
    # tie-break by key asc -> doc1 first
    out = s.search(["beta", "gamma"], mode="or", k=10).to_pydict()
    assert out["key"][:2] == [1, 2]
    assert out["score"][:2] == [3, 3]
    # AND: only docs with both terms
    out = s.search(["alpha", "epsilon"], mode="and", k=10).to_pydict()
    assert out["key"] == [3]


def test_upsert_shadows_and_tombstones(ray_session, idx_dir):
    from swishray.index import delete_keys, search_counts
    _build(ray_session, idx_dir)
    # replace doc1: old postings (alpha/beta/gamma for key 1) must vanish
    _build(ray_session, idx_dir, rows=[(1, "zeta zeta")], num_buckets=2)
    got = search_counts(idx_dir, ["alpha", "beta", "zeta"]).to_pydict()
    d = dict(zip(got["term"], zip(got["doc_count"], got["total_tf"])))
    assert d["zeta"] == (1, 2)
    assert d["alpha"] == (1, 2)       # only doc3 now
    assert d["beta"] == (1, 1)        # only doc2 now
    # tombstone doc3 -> alpha disappears entirely
    delete_keys(idx_dir, [3])
    got = search_counts(idx_dir, ["alpha", "zeta"]).to_pydict()
    assert got["term"] == ["zeta"]
    # re-add after tombstone resurrects the key
    _build(ray_session, idx_dir, rows=[(3, "alpha")], num_buckets=2)
    got = search_counts(idx_dir, ["alpha"]).to_pydict()
    assert got["doc_count"] == [1] and got["total_tf"] == [1]


def test_meta_prefixed_terms_from_extraction_stream(ray_session, idx_dir):
    """token_col/meta_col path: the reference's prefixed-term model
    (swish_xapian.cpp:505-541) — the same word under different
    metanames is a distinct posting."""
    import ray.data as rd
    from swishray.index import IndexSearcher, build_index
    t = pa.table({
        "url": pa.array(["a", "b"], pa.string()),
        "token_values": pa.array([[b"hello", b"world", b"hello"],
                                  [b"hello"]], pa.list_(pa.binary())),
        "token_metas": pa.array([["swishdefault", "swishtitle",
                                  "swishdefault"], ["swishtitle"]],
                                pa.list_(pa.string())),
    })
    build_index(rd.from_arrow(t), idx_dir, key="url", text_col=None,
                token_col="token_values", meta_col="token_metas",
                num_buckets=2)
    s = IndexSearcher(idx_dir)
    assert s.doc_stats("hello", meta="swishdefault") == {
        "term": "hello", "doc_count": 1, "total_tf": 2}
    assert s.doc_stats("hello", meta="swishtitle") == {
        "term": "hello", "doc_count": 1, "total_tf": 1}
    # no meta filter -> both
    assert s.doc_stats("hello")["total_tf"] == 3


def test_postings_from_extract_pages_full_output(ray_session, idx_dir):
    """Real ``ExtractPages(emit="full")`` output (its ``token_runs``
    run table) through the token_col/meta_col path: the postings are
    exactly the (doc, meta, term) counts of the in-process records, and
    no unobserved combination appears as a ``tf == 0`` posting."""
    import os

    import pyarrow.dataset as pads
    import ray.data as rd
    from swishray.extractor import DocumentExtractor
    from swishray.index import build_index
    from swishray.pipeline import ExtractPages
    pages = pa.table({
        "url": [f"https://x.example/{i}.html" for i in range(6)],
        "html": [(f"<html><head><title>Doc {i} title</title>"
                  f'<meta name="author" content="writer {i % 2}"></head>'
                  f"<body><h1>Head {i}</h1><p>alpha beta {i} beta</p>"
                  f"<b>bold alpha</b></body></html>").encode()
                 for i in range(6)]})
    out = ExtractPages(emit="full")(pages)
    assert "token_metas" not in out.column_names
    res = build_index(rd.from_arrow(out), idx_dir, key="url",
                      text_col=None, token_col="token_values",
                      meta_col="token_runs", num_buckets=2)
    post = pads.dataset(os.path.join(res["path"], "data"),
                        partitioning="hive").to_table(
        filter=pads.field("kind") == "p",
        columns=["key", "meta", "term", "tf"]).to_pylist()
    got = {(r["key"], r["meta"], r["term"]): r["tf"] for r in post}
    assert len(got) == len(post)
    assert min(got.values()) > 0
    want = collections.Counter()
    ex = DocumentExtractor()
    for url, body in zip(pages["url"].to_pylist(),
                         pages["html"].to_pylist()):
        rec = ex.extract(url, body)
        for v, m in zip(rec.token_values, rec.token_metas):
            want[(url, m, v.decode())] += 1
    assert got == dict(want)


def test_bm25_ranking_matches_direct_computation(ray_session, idx_dir):
    """BM25 scores must equal a from-scratch Okapi computation using
    the segment build stats (N, avgdl) and per-doc lengths."""
    import math
    from swishray.index import IndexSearcher
    _build(ray_session, idx_dir)
    s = IndexSearcher(idx_dir)
    stats = s.corpus_stats()
    doclens = {1: 4, 2: 4, 3: 3, 4: 1, 5: 0}
    assert stats["n_docs"] == 5
    assert abs(stats["avg_doclen"] - sum(doclens.values()) / 5) < 1e-9

    hits = s.search(["beta", "gamma"], ranking="bm25", k=10).to_pydict()
    got = dict(zip(hits["key"], hits["score"]))

    tfs = {"beta": {1: 2, 2: 1}, "gamma": {1: 1, 2: 2}}
    dfs = {"beta": 2, "gamma": 2}
    N, avgdl, k1, b = 5, stats["avg_doclen"], 1.2, 0.75
    exp = {}
    for term, posts in tfs.items():
        idf = math.log((N - dfs[term] + 0.5) / (dfs[term] + 0.5) + 1)
        for key, tf in posts.items():
            dl = doclens[key]
            w = idf * (tf * (k1 + 1)
                       / (tf + k1 * (1 - b + b * dl / avgdl)))
            exp[key] = exp.get(key, 0.0) + w
    assert set(got) == set(exp)
    for key in exp:
        assert abs(got[key] - exp[key]) < 1e-9
    # doc1 has tf 2+1 = doc2's 1+2 and equal lengths -> equal scores,
    # tie broken by key asc
    assert hits["key"][0] == 1


def test_compact_preserves_search_results(ray_session, idx_dir):
    """compact (xapian-compact analog): one segment out, identical
    search results, tombstoned/shadowed rows gone from disk."""
    import json
    import os
    from swishray.index import (IndexSearcher, compact_index,
                                delete_keys, search_counts)
    _build(ray_session, idx_dir)
    _build(ray_session, idx_dir, rows=[(1, "zeta zeta")], num_buckets=2)
    delete_keys(idx_dir, [3])
    terms = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    before = search_counts(idx_dir, terms).to_pydict()
    info = compact_index(idx_dir, num_buckets=2)
    segs = json.load(open(os.path.join(idx_dir, "segments.json")))
    assert len(segs) == 1 and segs[0]["compacted_from"] == 3
    after = search_counts(idx_dir, terms).to_pydict()
    assert after == before
    # corpus stats reflect only live docs now (doc3 deleted, doc1
    # replaced): docs 1,2,4,5
    s = IndexSearcher(idx_dir)
    assert s.corpus_stats()["n_docs"] == 4 == info["n_docs"]
    # upsert still works on the compacted index
    _build(ray_session, idx_dir, rows=[(9, "omega")], num_buckets=2)
    got = search_counts(idx_dir, ["omega"]).to_pydict()
    assert got["doc_count"] == [1]


PHRASE_CORPUS = [
    (1, "the quick brown fox and the quick brown cat"),
    (2, "quick brown quick brown quick brown"),
    (3, "brown quick nothing here"),
    (4, "the quick wolf and a brown bear"),
]


def test_phrase_search(ray_session, idx_dir):
    from swishray.index import IndexSearcher
    _build(ray_session, idx_dir, rows=PHRASE_CORPUS, positions=True)
    s = IndexSearcher(idx_dir)
    hits = s.search_phrase(["quick", "brown"]).to_pydict()
    # doc2: 3 occurrences, doc1: 2, doc3/4: terms present, never
    # adjacent in order
    assert hits["key"] == [2, 1]
    assert hits["score"] == [3, 2]
    h3 = s.search_phrase(["the", "quick", "brown"]).to_pydict()
    assert h3["key"] == [1] and h3["score"] == [2]
    assert s.search_phrase(["brown", "wolf"]).num_rows == 0
    assert s.search_phrase(["zzz", "quick"]).num_rows == 0


def test_phrase_upsert_and_compact(ray_session, idx_dir):
    from swishray.index import IndexSearcher, build_index, compact_index
    import ray.data as rd
    _build(ray_session, idx_dir, rows=PHRASE_CORPUS, positions=True)
    # upsert doc 2 WITHOUT the phrase: shadowing must drop its hits
    t = pa.table({"doc_id": pa.array([2], pa.int64()),
                  "text": pa.array(["no more phrases"], pa.string())})
    build_index(rd.from_arrow(t), idx_dir, key="doc_id",
                text_col="text", num_buckets=3, positions=True)
    hits = IndexSearcher(idx_dir).search_phrase(
        ["quick", "brown"]).to_pydict()
    assert hits["key"] == [1] and hits["score"] == [2]
    # compaction preserves positional postings and phrase results
    compact_index(idx_dir)
    hits2 = IndexSearcher(idx_dir).search_phrase(
        ["quick", "brown"]).to_pydict()
    assert hits2 == hits


def test_phrase_positionless_index_matches_nothing(ray_session, idx_dir):
    from swishray.index import IndexSearcher
    _build(ray_session, idx_dir, rows=PHRASE_CORPUS)  # no positions
    assert IndexSearcher(idx_dir).search_phrase(
        ["quick", "brown"]).num_rows == 0


def test_cli_phrase_search(ray_session, idx_dir):
    """`swishray search --phrase` = the swish_xapian query-client
    analog for phrase mode: pure point lookup, no Ray session."""
    import subprocess
    import sys
    _build(ray_session, idx_dir, rows=PHRASE_CORPUS, positions=True)
    out = subprocess.run(
        [sys.executable, "-m", "swishray", "search", "--index",
         idx_dir, "--phrase", "quick", "brown"],
        capture_output=True, text=True, check=True,
        cwd=ROOT).stdout.splitlines()
    assert out[0] == "1 2 occurrences=3"
    assert out[1] == "2 1 occurrences=2"


# ---- boolean query strings (queryparse.py + search_query) ----------

BOOL_CORPUS = [
    (1, "hash join scan window"),
    (2, "hash hash table scan"),
    (3, "join scan scan"),
    (4, "window table"),
    (5, "scanner hash"),
]


def test_queryparse_shapes():
    from swishray.queryparse import parse_query
    assert parse_query("a b AND c") == (
        "or", ("term", None, "a"),
        ("and", ("term", None, "b"), ("term", None, "c")))
    assert parse_query('title:"big table" OR sc*') == (
        "or", ("phrase", "title", ["big", "table"]),
        ("wild", None, "sc"))
    # any-case keywords (FLAG_BOOLEAN_ANY_CASE); x not y == AND_NOT
    assert parse_query("x not y") == parse_query("x AND NOT y")
    # quoted keywords are terms, not operators
    assert parse_query('"and"') == ("term", None, "and")
    # 1-word phrase collapses to a term
    assert parse_query('"solo"') == ("term", None, "solo")


@pytest.mark.parametrize("bad", [
    "NOT x", "(a", "a)", "", "a AND", "a OR ()", '""'])
def test_queryparse_rejects(bad):
    from swishray.queryparse import parse_query
    with pytest.raises(ValueError):
        parse_query(bad)


def test_search_query_boolean_tree(ray_session, idx_dir):
    """AND/OR/NOT/phrase/wildcard in one tree; scores add across the
    positive leaves a doc matches; deterministic tie-break."""
    from swishray.index import IndexSearcher
    _build(ray_session, idx_dir, rows=BOOL_CORPUS, positions=True)
    s = IndexSearcher(idx_dir)
    out = s.search_query("(hash OR join) AND scan NOT window") \
        .to_pydict()
    # doc2 hash*2+scan=3, doc3 join+scan*2=3; doc1 killed by NOT,
    # doc5 has no 'scan'
    assert out["key"] == [2, 3] and out["score"] == [3, 3]
    # wildcard expands scan+scanner; ties broken by key asc
    out = s.search_query("sca* AND hash").to_pydict()
    assert out["key"] == [2, 1, 5] and out["score"] == [3, 2, 2]
    # phrase leaf inside boolean
    out = s.search_query('"hash table" OR window').to_pydict()
    assert out["key"] == [1, 2, 4]
    # default op between bare atoms is OR (Xapian default)
    assert s.search_query("table window").to_pydict()["key"] == \
        s.search_query("table OR window").to_pydict()["key"]


def test_search_query_respects_upsert(ray_session, idx_dir):
    from swishray.index import IndexSearcher
    _build(ray_session, idx_dir, rows=BOOL_CORPUS, positions=True)
    _build(ray_session, idx_dir, rows=[(2, "window only now")],
           num_buckets=2, positions=True)
    s = IndexSearcher(idx_dir)
    out = s.search_query("(hash OR join) AND scan NOT window") \
        .to_pydict()
    assert out["key"] == [3]  # doc2's old postings are shadowed


def test_search_query_meta_scope(ray_session, idx_dir):
    import ray.data as rd
    from swishray.index import IndexSearcher, build_index
    t = pa.table({
        "url": pa.array(["a", "b"], pa.string()),
        "token_values": pa.array([[b"hello", b"world"], [b"hello"]],
                                 pa.list_(pa.binary())),
        "token_metas": pa.array([["swishdefault", "swishdefault"],
                                 ["swishtitle"]], pa.list_(pa.string())),
    })
    build_index(rd.from_arrow(t), idx_dir, key="url", text_col=None,
                token_col="token_values", meta_col="token_metas",
                num_buckets=2)
    s = IndexSearcher(idx_dir)
    assert s.search_query("swishtitle:hello").to_pydict()["key"] == ["b"]
    assert s.search_query("swishdefault:hello").to_pydict()["key"] == ["a"]
    assert sorted(s.search_query("hello").to_pydict()["key"]) == ["a", "b"]


def test_search_query_bm25_monotone(ray_session, idx_dir):
    """bm25 ranking returns float scores, same match set as tf."""
    from swishray.index import IndexSearcher
    _build(ray_session, idx_dir, rows=BOOL_CORPUS, positions=True)
    s = IndexSearcher(idx_dir)
    tf = s.search_query("hash AND scan").to_pydict()
    bm = s.search_query("hash AND scan", ranking="bm25").to_pydict()
    assert sorted(tf["key"]) == sorted(bm["key"])
    assert all(isinstance(v, float) for v in bm["score"])


def test_cli_query_search(ray_session, idx_dir):
    import subprocess
    import sys
    _build(ray_session, idx_dir, rows=BOOL_CORPUS, positions=True)
    out = subprocess.run(
        [sys.executable, "-m", "swishray", "search", "--index",
         idx_dir, "-q", "(hash OR join)", "AND", "scan", "NOT",
         "window"],
        capture_output=True, text=True, check=True,
        cwd=ROOT).stdout.splitlines()
    assert out == ["1 2 score=3", "2 3 score=3"]


# ---- stored properties: search-time sort + facets -------------------

PROP_CORPUS = [
    (1, "hash scan", 50, "en"),
    (2, "hash hash scan", 20, "de"),
    (3, "join scan", 90, "en"),
    (4, "window", 10, "fr"),
    (5, "scan hash", 20, "de"),
]


def _build_props(idx_dir, rows=PROP_CORPUS, **kw):
    import ray.data as rd
    from swishray.index import build_index
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
        "n_chars": pa.array([r[2] for r in rows], pa.int64()),
        "lang": pa.array([r[3] for r in rows], pa.string())})
    return build_index(rd.from_arrow(t), idx_dir, key="doc_id",
                       text_col="text",
                       num_buckets=kw.pop("num_buckets", 3),
                       prop_cols=kw.pop("prop_cols",
                                        ["n_chars", "lang"]), **kw)


def test_search_query_property_sort(ray_session, idx_dir):
    """--sort replaces relevance order (MultiValueSorter analog):
    numeric desc on the stored INT prop, key-asc tie-break, and the
    sort property rides along as a result column."""
    from swishray.index import IndexSearcher
    _build_props(idx_dir)
    out = IndexSearcher(idx_dir).search_query(
        "hash AND scan", sort="n_chars desc").to_pydict()
    assert out["key"] == [1, 2, 5]          # 50, then 20-tie by key
    assert out["n_chars"] == [50, 20, 20]
    assert out["score"] == [2, 3, 2]        # scores kept, not ordering


def test_search_query_sort_upsert_shadows_props(ray_session, idx_dir):
    """A doc re-indexed by a PROP-LESS newer segment loses its old
    props (property shadowing follows doc shadowing) and sorts last."""
    import ray.data as rd
    from swishray.index import IndexSearcher, build_index
    _build_props(idx_dir)
    build_index(rd.from_arrow(pa.table({
        "doc_id": pa.array([1], pa.int64()),
        "text": pa.array(["hash scan"], pa.string())})),
        idx_dir, key="doc_id", text_col="text", num_buckets=2)
    out = IndexSearcher(idx_dir).search_query(
        "hash AND scan", sort="n_chars desc").to_pydict()
    assert out["key"] == [2, 5, 1]
    assert out["n_chars"] == [20, 20, None]


def test_facets_and_multivalue(ray_session, idx_dir):
    from swishray.index import IndexSearcher
    # doc 5 carries a \x03-joined multi-value lang (the reference's
    # SWISH_META_VALUES facet convention): each component counts
    rows = [r[:3] + ("de\x03en",) if r[0] == 5 else r
            for r in PROP_CORPUS]
    _build_props(idx_dir, rows=rows)
    out = IndexSearcher(idx_dir).facets("scan", "lang").to_pydict()
    # matches: 1(en) 2(de) 3(en) 5(de+en) -> en 3, de 2
    assert out["value"] == ["en", "de"]
    assert out["count"] == [3, 2]


def test_props_survive_compaction(ray_session, idx_dir):
    from swishray.index import IndexSearcher, compact_index
    _build_props(idx_dir)
    _build_props(idx_dir, rows=[(2, "window only", 77, "pt")],
                 num_buckets=2)
    compact_index(idx_dir, delete_old=True)
    s = IndexSearcher(idx_dir)
    assert len(s.segments) == 1
    out = s.search_query("hash AND scan", sort="n_chars desc") \
        .to_pydict()
    assert out["key"] == [1, 5] and out["n_chars"] == [50, 20]
    f = s.facets("window", "lang").to_pydict()
    assert f["value"] == ["fr", "pt"] and f["count"] == [1, 1]


def test_cli_output_format(ray_session, idx_dir):
    import subprocess
    import sys
    _build_props(idx_dir)
    out = subprocess.run(
        [sys.executable, "-m", "swishray", "search", "--index",
         idx_dir, "-q", "hash", "AND", "scan", "--sort",
         "n_chars desc", "-x",
         '<swishrank>\\t<swishdocpath>\\t<lang>\\n'],
        capture_output=True, text=True, check=True,
        cwd=ROOT).stdout
    assert out == "2\t1\ten\n3\t2\tde\n2\t5\tde\n"


def test_search_query_value_range(ray_session, idx_dir):
    """prop:lo..hi — Xapian OP_VALUE_RANGE via the reference's
    PropertyValueRangeProcessor: inclusive bounds, numeric when both
    bounds parse as numbers, weight-0 filter semantics."""
    from swishray.index import IndexSearcher
    _build_props(idx_dir)
    s = IndexSearcher(idx_dir)
    out = s.search_query("scan AND n_chars:20..60").to_pydict()
    assert out["key"] == [1, 2, 5]          # 90 excluded, bounds incl.
    assert out["score"] == [1, 1, 1]        # range adds no weight
    # string range, case-folded both sides
    out = s.search_query("scan AND lang:DE..EN").to_pydict()
    assert out["key"] == [1, 2, 3, 5]
    # pure range (no positive term) is allowed — all-zero scores,
    # key-asc order
    out = s.search_query("n_chars:80..100").to_pydict()
    assert out["key"] == [3]


def test_search_query_range_respects_shadowing(ray_session, idx_dir):
    import ray.data as rd
    from swishray.index import IndexSearcher, build_index, delete_keys
    _build_props(idx_dir)
    # upsert doc 3 with n_chars now out of range; tombstone doc 1
    _build_props(idx_dir, rows=[(3, "join scan", 500, "en")],
                 num_buckets=2)
    delete_keys(idx_dir, [1])
    out = IndexSearcher(idx_dir).search_query(
        "scan AND n_chars:20..100").to_pydict()
    assert out["key"] == [2, 5]


def test_search_query_offset_pages(ray_session, idx_dir):
    from swishray.index import IndexSearcher
    _build_props(idx_dir)
    s = IndexSearcher(idx_dir)
    full = s.search_query("scan", k=10).to_pydict()["key"]
    page1 = s.search_query("scan", k=2).to_pydict()["key"]
    page2 = s.search_query("scan", k=2, offset=2).to_pydict()["key"]
    assert page1 + page2 == full


def test_cli_delete_and_range(ray_session, idx_dir):
    import subprocess
    import sys
    _build_props(idx_dir)
    subprocess.run(
        [sys.executable, "-m", "swishray", "delete", "--index",
         idx_dir, "--key-type", "int", "2"],
        capture_output=True, text=True, check=True, cwd=ROOT)
    out = subprocess.run(
        [sys.executable, "-m", "swishray", "search", "--index",
         idx_dir, "-q", "scan", "-L", "n_chars 20 60"],
        capture_output=True, text=True, check=True,
        cwd=ROOT).stdout.splitlines()
    assert out == ["1 1 score=1", "2 5 score=1"]


# ---- stemming (reference -t: set_stemmer at index + query time) -----

def test_stemmed_index_matches_inflections(ray_session, idx_dir):
    _build(ray_session, idx_dir, rows=[
        (1, "running runs ran"), (2, "run"), (3, "jumped")],
        stemmer="en")
    from swishray.index import IndexSearcher, search_counts
    s = IndexSearcher(idx_dir)
    # query terms are stemmed too: 'runs' -> 'run' matches docs 1+2
    out = s.search_query("runs").to_pydict()
    assert out["key"] == [1, 2]
    assert out["score"] == [2, 1]   # 'running','runs' -> run x2; 'ran' stays 'ran'
    assert s.doc_stats("running") == {
        "term": "run", "doc_count": 2, "total_tf": 3}
    # counts surface reports the stemmed lexicon
    got = search_counts(idx_dir, ["run"]).to_pydict()
    assert got["doc_count"] == [2]


def test_stemmed_phrase_and_wildcard(ray_session, idx_dir):
    _build(ray_session, idx_dir, rows=[
        (1, "quickly jumping foxes"), (2, "quick jumps fox")],
        stemmer="en", positions=True)
    from swishray.index import IndexSearcher
    s = IndexSearcher(idx_dir)
    # both docs hold the stemmed stream (quickli? no: quickly->quickli,
    # quick->quick) — phrase members stem individually
    out = s.search_query('"jumping foxes"').to_pydict()
    assert out["key"] == [1, 2]     # jump fox adjacency in both
    # wildcard prefixes are NOT stemmed; they match the stemmed lexicon
    out = s.search_query("jump*").to_pydict()
    assert sorted(out["key"]) == [1, 2]


def test_stemmer_mismatch_croaks(ray_session, idx_dir):
    _build(ray_session, idx_dir, stemmer="en")
    with pytest.raises(ValueError, match="stemmer"):
        _build(ray_session, idx_dir, rows=[(9, "more text")],
               num_buckets=2)


def test_stemmer_survives_compaction(ray_session, idx_dir):
    from swishray.index import IndexSearcher, compact_index
    _build(ray_session, idx_dir, rows=[(1, "running"), (2, "runs")],
           stemmer="en")
    _build(ray_session, idx_dir, rows=[(2, "jumped")], num_buckets=2,
           stemmer="en")
    compact_index(idx_dir, delete_old=True)
    s = IndexSearcher(idx_dir)
    assert s.segments[-1]["stemmer"] == "en"
    assert s.search_query("run").to_pydict()["key"] == [1]
    assert s.search_query("jumps").to_pydict()["key"] == [2]
