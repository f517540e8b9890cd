"""DOM-correct link extraction, site link graph, PageRank
(ops/links.py).  extract_links / link_graph are also oracle-checked
by the queries() entries; pagerank is validated here against a dense
numpy power iteration (same dangling handling)."""
import gzip

import numpy as np
import pyarrow as pa
import ray.data as rd

from swishray.ops.links import (ExtractLinks, extract_links, link_graph,
                                pagerank)

HTML0 = (b'<html><head><base href="https://base.example/dir/">'
         b'<link rel="stylesheet" href="style.css"></head><body>'
         b'<a href="/top.html">Top <b>Link</b></a>'
         b'<a href="rel.html" rel="NoFollow">Rel anchor'
         b'<a href="https://other.example/x">implied close</a>'
         b'<img src="//cdn.example/i.png">'
         b'<p>text</p></body></html>')


def _links(items):
    ds = rd.from_items(items).repartition(2)
    return extract_links(ds, key="doc_id").to_pandas() \
        .sort_values(["doc_id", "seq"]).reset_index(drop=True)


def test_extract_links_base_and_anchor(ray_session):
    df = _links([{"doc_id": 0, "url": "https://page.example/p0",
                  "html": HTML0}])
    assert df["tag"].tolist() == ["link", "a", "a", "a", "img"]
    # <base> wins over the page url; / and relative forms resolve
    assert df.loc[0, "resolved"] == "https://base.example/dir/style.css"
    assert df.loc[1, "resolved"] == "https://base.example/top.html"
    assert df.loc[2, "resolved"] == "https://base.example/dir/rel.html"
    # anchor text crosses inline tags, whitespace-normalized
    assert df.loc[1, "anchor_text"] == "Top Link"
    # rel is lowercased
    assert df.loc[2, "rel"] == "nofollow"
    # nested <a> implies close (browser behavior)
    assert df.loc[3, "resolved"] == "https://other.example/x"
    # protocol-relative src resolves with the base scheme
    assert df.loc[4, "resolved"] == "https://cdn.example/i.png"


def test_extract_links_page_url_fallback_and_nulls(ray_session):
    df = _links([
        {"doc_id": 1, "url": "https://page.example/sub/p1",
         "html": b'<html><body><a href="a.html">A</a></body></html>'},
        {"doc_id": 2, "url": "https://page.example/p2", "html": None},
        {"doc_id": 3, "url": None,
         "html": b'<a href="rel.html">no page url</a>'},
    ])
    assert df.loc[0, "resolved"] == "https://page.example/sub/a.html"
    assert (df["doc_id"] == 2).sum() == 0  # null html -> no rows
    # no page url and no base: href passes through unresolved
    assert df[df.doc_id == 3].iloc[0]["resolved"] == "rel.html"


def test_extract_links_gzip_body_matches_plain():
    out = ExtractLinks(key="doc_id")(pa.table({
        "doc_id": [0, 1], "url": ["https://page.example/p0"] * 2,
        "html": [HTML0, gzip.compress(HTML0)]})).to_pydict()
    doc = out.pop("doc_id")
    assert doc == [0] * 5 + [1] * 5
    for col in out.values():
        assert col[:5] == col[5:]


def test_extract_links_malformed(ray_session):
    # unquoted attrs, unclosed tags, stray < — libxml2 recovers
    df = _links([{"doc_id": 0, "url": "https://x.example/",
                  "html": b"<body><a href=foo.html>t<p><a href='/b'>"
                          b"<div>< not a tag</body>"}])
    assert df["href"].tolist() == ["foo.html", "/b"]
    assert df["resolved"].tolist() == [
        "https://x.example/foo.html", "https://x.example/b"]


def test_link_graph_site_rollup(ray_session):
    items = [{"doc_id": i, "url": f"https://www.src{i % 2}.example/p",
              "html": (b'<a href="https://a.dst.example/x"></a>'
                       b'<a href="https://b.other.net/y"></a>')}
             for i in range(4)]
    links = extract_links(rd.from_items(items).repartition(2),
                          key="url")
    g = link_graph(links).to_pandas() \
        .sort_values(["src_site", "dst_site"]).reset_index(drop=True)
    assert g["src_site"].tolist() == ["src0.example", "src0.example",
                                      "src1.example", "src1.example"]
    assert g["dst_site"].tolist() == ["dst.example", "other.net"] * 2
    assert g["n_links"].tolist() == [2, 2, 2, 2]


def _dense_pr(edges, n, iters, d):
    out = np.zeros(n)
    for s, t in edges:
        out[s] += 1
    r = np.full(n, 1 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        for s, t in edges:
            contrib[t] += r[s] / out[s]
        dang = r[out == 0].sum()
        r = (1 - d) / n + d * dang / n + d * contrib
    return r


def test_pagerank_matches_dense(ray_session):
    # cycle + chord + feeder + dangling sink
    edges = [(0, 1), (1, 2), (2, 0), (0, 2), (3, 0), (2, 4)]
    ds = rd.from_items([{"src": s, "dst": t} for s, t in edges]) \
        .repartition(3)
    pr = pagerank(ds, iters=12, d=0.85).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    want = _dense_pr(edges, 5, 12, 0.85)
    assert pr["node"].tolist() == [0, 1, 2, 3, 4]
    assert np.allclose(pr["rank"].to_numpy(), want,
                       rtol=1e-9, atol=1e-12)
    assert abs(pr["rank"].sum() - 1.0) < 1e-9


def test_pagerank_join_path_matches_dense(ray_session):
    # same graph forced down the join formulation (dense gate off) —
    # both regimes must agree with the numpy reference
    edges = [(0, 1), (1, 2), (2, 0), (0, 2), (3, 0), (2, 4)]
    ds = rd.from_items([{"src": s, "dst": t} for s, t in edges]) \
        .repartition(3)
    pr = pagerank(ds, iters=12, d=0.85, dense_max_nodes=0) \
        .to_pandas().sort_values("node").reset_index(drop=True)
    want = _dense_pr(edges, 5, 12, 0.85)
    assert np.allclose(pr["rank"].to_numpy(), want,
                       rtol=1e-9, atol=1e-12)


def test_pagerank_string_keys_both_paths(ray_session):
    # site-graph shape: string node keys through the index-encoded
    # dense path and the join path
    edges = [("a.example", "b.example"), ("b.example", "c.example"),
             ("c.example", "a.example"), ("d.example", "a.example")]
    ds = rd.from_items([{"src": s, "dst": t} for s, t in edges]) \
        .repartition(2)
    d1 = pagerank(ds, iters=8).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    d2 = pagerank(ds, iters=8, dense_max_nodes=0).to_pandas() \
        .sort_values("node").reset_index(drop=True)
    assert d1["node"].tolist() == d2["node"].tolist()
    assert np.allclose(d1["rank"].to_numpy(), d2["rank"].to_numpy(),
                       rtol=1e-9)


def test_pagerank_all_dangling(ray_session):
    # one edge into a sink: mass must still sum to 1 every round
    ds = rd.from_items([{"src": 0, "dst": 1}])
    pr = pagerank(ds, iters=5).to_pandas().sort_values("node")
    want = _dense_pr([(0, 1)], 2, 5, 0.85)
    assert np.allclose(pr["rank"].to_numpy(), want, rtol=1e-9)
    assert abs(pr["rank"].sum() - 1.0) < 1e-9


def test_anchor_stats_rollup(ray_session):
    from swishray.ops.links import anchor_stats
    # 3 links to the same dst from 2 sites; one nofollow; one empty
    # anchor — exercises every counter plus the distinct-site level
    rows = [
        {"resolved": "https://t.example/x", "rel": "nofollow",
         "anchor_text": "click", "src": "https://a.one.example/p1"},
        {"resolved": "https://t.example/x", "rel": "",
         "anchor_text": "", "src": "https://b.one.example/p2"},
        {"resolved": "https://t.example/x", "rel": "me nofollow",
         "anchor_text": "x", "src": "https://two.example/p3"},
        {"resolved": "https://t.example/y", "rel": "",
         "anchor_text": "y", "src": "https://two.example/p3"},
    ]
    ds = rd.from_items(rows).repartition(2)
    df = anchor_stats(ds, src_col="src").to_pandas() \
        .sort_values("url").reset_index(drop=True)
    assert df["url"].tolist() == ["https://t.example/x",
                                  "https://t.example/y"]
    assert df["n_in"].tolist() == [3, 1]
    assert df["n_nofollow"].tolist() == [2, 0]
    assert df["n_anchor"].tolist() == [2, 1]
    assert df["n_src_sites"].tolist() == [2, 1]
    # without src_col: no distinct-site level, one groupby only
    df2 = anchor_stats(ds).to_pandas().sort_values("url") \
        .reset_index(drop=True)
    assert "n_src_sites" not in df2.columns
    assert df2["n_in"].tolist() == [3, 1]


def _dense_pr_weighted(edges, n, iters, d):
    outw = np.zeros(n)
    for s, t, w in edges:
        outw[s] += w
    r = np.full(n, 1 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        for s, t, w in edges:
            contrib[t] += r[s] * w / outw[s]
        dang = r[outw == 0].sum()
        r = (1 - d) / n + d * dang / n + d * contrib
    return r


def test_pagerank_weighted(ray_session):
    edges = [(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0), (2, 0, 1.0),
             (3, 1, 5.0)]
    ds = rd.from_items([{"src": s, "dst": t, "w": w}
                        for s, t, w in edges]).repartition(2)
    pr = pagerank(ds, iters=10, weight="w").to_pandas() \
        .sort_values("node").reset_index(drop=True)
    want = _dense_pr_weighted(edges, 4, 10, 0.85)
    assert pr["node"].tolist() == [0, 1, 2, 3]
    assert np.allclose(pr["rank"].to_numpy(), want, rtol=1e-9)
    assert abs(pr["rank"].sum() - 1.0) < 1e-9


def test_pagerank_null_endpoints_and_zero_weight(ray_session):
    """Null-endpoint edges are dropped; a source whose total outgoing
    WEIGHT is zero is dangling (not a divide-by-zero) — both regimes
    agree and mass sums to 1."""
    ds = rd.from_items([
        {"src": 0, "dst": 1, "w": 0.0},
        {"src": 1, "dst": 2, "w": 3.0},
        {"src": None, "dst": 2, "w": 1.0},
        {"src": 2, "dst": None, "w": 1.0}])
    res = {}
    for dmn in (None, 0):
        pr = pagerank(ds, iters=5, weight="w",
                      dense_max_nodes=dmn).to_pandas() \
            .sort_values("node").reset_index(drop=True)
        res[dmn] = pr
    assert res[None]["node"].tolist() == [0, 1, 2]
    assert np.allclose(res[None]["rank"], res[0]["rank"], rtol=1e-9)
    assert abs(res[None]["rank"].sum() - 1.0) < 1e-9
    assert np.isfinite(res[None]["rank"]).all()


def test_components_null_endpoints_dropped(ray_session):
    from swishray.ops.components import connected_components
    e = rd.from_items([{"a": 1, "b": None}, {"a": 1, "b": 2}])
    got = connected_components(e).to_pandas()
    assert dict(zip(got["node"], got["component"])) == {1: 1, 2: 1}
